"""Knowledge-guided query space exploration (paper §4, Algorithm 2).

The :class:`KQE` object owns the graph index of already-explored query graphs and
provides the adaptive extension chooser that the DSG random-walk generator calls
at every step: candidate extensions are scored by the coverage of the extended
query graph (Eq. 2), converted to transition probabilities (Eq. 3), sampled with
alias sampling, and the walk terminates early when every candidate would land in
already well-covered territory.

The graphs a walk scores, and the skeletons :meth:`KQE.register` adds, hold only
``table`` vertices and join-type edges, so the same few shapes recur under
different table names.  Each is keyed by its alias-free join shape (see
``Shape``), and one memo per KQE maps a shape to its ``(vector, norm)`` and,
once registered, to its canonical label.  WL tokens and labels carry no vertex
ids, so a memo hit is bit-identical to building, embedding and labelling the
skeleton, and builds no :class:`QueryGraph`.  A step is then: shape keys, memo
lookups, one scoring call over the step's distinct shapes and one alias draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.catalog.schema import DatabaseSchema
from repro.dsg.query_gen import CandidateExtension
from repro.kqe import embedding
from repro.kqe.embedding import GraphEmbedder
from repro.kqe.graph_index import GraphIndex
from repro.kqe.query_graph import QueryGraph, QueryGraphBuilder
from repro.plan.logical import JoinStep, QuerySpec, TableRef

#: A join skeleton up to alias renaming: one ``(left, new, join type)`` triple
#: per edge, in edge order, each alias numbered by its position in
#: ``QueryGraphBuilder.build_partial``'s vertex order.
Shape = Tuple[Tuple[int, int, str], ...]

_Memoized = TypeVar("_Memoized")


def _numbered(base_alias: str,
              steps: Sequence[JoinStep]) -> Tuple[Dict[str, int], Shape]:
    """The vertex position of each alias of ``build_partial(base_alias, steps)``
    and the shape of that skeleton, built without building the graph."""
    positions = {base_alias: 0}
    shape = []
    for step in steps:
        alias = step.table.alias
        if alias not in positions:
            positions[alias] = len(positions)
        left = base_alias if step.left_key is None else step.left_key.table
        if left not in positions:
            positions[left] = len(positions)
        shape.append((positions[left], positions[alias], step.join_type.value))
    return positions, tuple(shape)


def _remember(memo: Dict[Shape, _Memoized], key: Shape,
              value: _Memoized) -> _Memoized:
    """Store *value* under *key* while *memo* is below ``EMBED_MEMO_LIMIT``."""
    if len(memo) < embedding.EMBED_MEMO_LIMIT:
        memo[key] = value
    return value


def alias_sample(weights: Sequence[float], rng: random.Random) -> int:
    """Draw an index proportionally to *weights* using Walker's alias method.

    Alias sampling gives O(1) draws after O(n) setup, which is why the paper uses
    it inside the random walk (the candidate sets here are small, but the method
    is implemented faithfully and tested for correctness).  The column is
    drawn before the table is built (building it draws nothing), so the build
    stops once the drawn column's cell is final; the draws are those of the
    whole table.
    """
    n = len(weights)
    if n == 0:
        raise ValueError("cannot sample from an empty weight vector")
    total = float(sum(weights))
    if total <= 0:
        return rng.randrange(n)
    column = rng.randrange(n)
    probabilities = [w * n / total for w in weights]
    small: List[int] = []
    large: List[int] = []
    for index, probability in enumerate(probabilities):
        (small if probability < 1.0 else large).append(index)
    while small and large:
        s = small.pop()
        g = large.pop()
        if s == column:
            # The cell (probabilities[s], alias g) is final once s leaves small.
            return column if rng.random() < probabilities[s] else g
        probabilities[g] = probabilities[g] - (1.0 - probabilities[s])
        (small if probabilities[g] < 1.0 else large).append(g)
    # A column never taken from small keeps itself with probability 1; its
    # coin is still tossed, so the generator moves as the whole table's would.
    rng.random()
    return column


@dataclass
class KQEConfig:
    """Knobs of the knowledge-guided exploration."""

    k_neighbors: int = 5
    termination_probability: float = 0.10
    min_steps_before_termination: int = 2
    embedding_dimensions: int = 64


class KQE:
    """Knowledge-guided Query space Exploration."""

    def __init__(self, schema: DatabaseSchema, rng: Optional[random.Random] = None,
                 config: Optional[KQEConfig] = None) -> None:
        self.schema = schema
        self.rng = rng or random.Random(41)
        self.config = config or KQEConfig()
        self.embedder = GraphEmbedder(dimensions=self.config.embedding_dimensions)
        self.index = GraphIndex(self.embedder)
        self.builder = QueryGraphBuilder(schema)
        # Skeletons equal up to alias renaming have equal WL tokens, so they
        # share one entry: shape -> (embedding, norm) of every skeleton the
        # walk scored or register added, and shape -> canonical label of
        # every registered one.  Both stop growing at EMBED_MEMO_LIMIT.
        self._shape_embeddings: Dict[Shape, Tuple[np.ndarray, float]] = {}
        self._shape_labels: Dict[Shape, str] = {}

    # ---------------------------------------------------------------- coverage

    def coverage(self, graph: QueryGraph) -> float:
        """Coverage score of a (partial) query graph (Eq. 2).

        The average cosine similarity to the k nearest already-explored query
        graphs; high coverage means the structure has been tested before.
        """
        neighbours = self.index.nearest(graph, k=self.config.k_neighbors)
        if not neighbours:
            return 0.0
        return float(sum(similarity for _, similarity in neighbours) / len(neighbours))

    def transition_probability(self, graph: QueryGraph) -> float:
        """Transition probability of extending the walk into *graph* (Eq. 3)."""
        return 1.0 / (self.coverage(graph) + 1.0)

    # ---------------------------------------------------------------- choosing

    def extension_chooser(
        self,
        base: TableRef,
        steps: List[JoinStep],
        candidates: List[CandidateExtension],
    ) -> Optional[CandidateExtension]:
        """The adaptive random-walk step (Algorithm 2, lines 5-14)."""
        if not candidates:
            return None
        # The current graph is only scored when the walk is long enough to
        # stop.  Candidates of one shape share one score, every distinct
        # graph of the step is scored in one index call, and a shape scored
        # before builds no graph.
        may_stop = len(steps) >= self.config.min_steps_before_termination
        positions, shape = _numbered(base.alias, steps)
        shapes = [
            shape + ((positions[candidate.anchor],
                      positions.get(candidate.new_table, len(positions)),
                      candidate.join_type.value),)
            for candidate in candidates
        ]
        # Any candidate of a shape builds that shape's graph up to renaming.
        extensions = dict(zip(shapes, candidates))
        embedded = [self._embedding(extended, base.alias, steps, candidate)
                    for extended, candidate in extensions.items()]
        if may_stop:
            embedded.append(self._embedding(shape, base.alias, steps))
        probabilities = self.index.transition_probabilities(
            embedded, k=self.config.k_neighbors)
        scores = dict(zip(extensions, probabilities))
        weights = [scores[extended] for extended in shapes]
        # Termination: when every possible extension is less promising than the
        # current graph, stop growing it (with some probability so the walk does
        # not always stop at the first plateau).
        if (
            may_stop
            and max(weights) < probabilities[-1]
            and self.rng.random() < self.config.termination_probability
        ):
            return None
        choice = alias_sample(weights, self.rng)
        return candidates[choice]

    def _embedding(self, shape: Shape, base_alias: str, steps: Sequence[JoinStep],
                   extension: Optional[CandidateExtension] = None
                   ) -> Tuple[np.ndarray, float]:
        """``embed_with_norm(build_partial(base_alias, steps, extension))``,
        whose shape is *shape*, from the memo when it holds the shape."""
        embedded = self._shape_embeddings.get(shape)
        if embedded is None:
            skeleton = self.builder.build_partial(base_alias, steps, extension)
            embedded = _remember(self._shape_embeddings, shape,
                                 self.embedder.embed_with_norm(skeleton))
        return embedded

    # -------------------------------------------------------------- registering

    def register(self, query: QuerySpec) -> None:
        """Add a generated query's join *skeleton* to the index.

        The skeleton is what the adaptive walk compares its partial graphs
        against when scoring candidate extensions (Algorithm 2).  Diversity
        (the isomorphic sets of Figure 8) is counted by the testers over the
        full query graphs, not here.  A skeleton whose shape was registered
        before takes its label from the memo and builds no graph.
        """
        base_alias = query.base.alias
        shape = _numbered(base_alias, query.joins)[1]
        label = self._shape_labels.get(shape)
        if label is None:
            skeleton = self.builder.build_partial(base_alias, query.joins)
            label = _remember(self._shape_labels, shape, skeleton.canonical_label())
        vector, _ = self._embedding(shape, base_alias, query.joins)
        self.index.add_embedding(vector, label)
