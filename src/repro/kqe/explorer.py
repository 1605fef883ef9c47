"""Knowledge-guided query space exploration (paper §4, Algorithm 2).

The :class:`KQE` object owns the graph index of already-explored query graphs and
provides the adaptive extension chooser that the DSG random-walk generator calls
at every step: candidate extensions are scored by the coverage of the extended
query graph (Eq. 2), converted to transition probabilities (Eq. 3), sampled with
alias sampling, and the walk terminates early when every candidate would land in
already well-covered territory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.catalog.schema import DatabaseSchema
from repro.dsg.query_gen import CandidateExtension
from repro.kqe.embedding import GraphEmbedder
from repro.kqe.graph_index import GraphIndex
from repro.kqe.query_graph import QueryGraph, QueryGraphBuilder
from repro.plan.logical import JoinStep, QuerySpec, TableRef


def alias_sample(weights: Sequence[float], rng: random.Random) -> int:
    """Draw an index proportionally to *weights* using Walker's alias method.

    Alias sampling gives O(1) draws after O(n) setup, which is why the paper uses
    it inside the random walk (the candidate sets here are small, but the method
    is implemented faithfully and tested for correctness).
    """
    n = len(weights)
    if n == 0:
        raise ValueError("cannot sample from an empty weight vector")
    total = float(sum(weights))
    if total <= 0:
        return rng.randrange(n)
    probabilities = [w * n / total for w in weights]
    small: List[int] = []
    large: List[int] = []
    for index, probability in enumerate(probabilities):
        (small if probability < 1.0 else large).append(index)
    prob_table = [0.0] * n
    alias_table = [0] * n
    while small and large:
        s = small.pop()
        g = large.pop()
        prob_table[s] = probabilities[s]
        alias_table[s] = g
        probabilities[g] = probabilities[g] - (1.0 - probabilities[s])
        (small if probabilities[g] < 1.0 else large).append(g)
    for index in large + small:
        prob_table[index] = 1.0
        alias_table[index] = index
    column = rng.randrange(n)
    return column if rng.random() < prob_table[column] else alias_table[column]


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
        # stop; every graph of the step is scored in one index call.
        may_stop = len(steps) >= self.config.min_steps_before_termination
        graphs = [self.builder.build_partial(base.alias, steps, candidate)
                  for candidate in candidates]
        if may_stop:
            graphs.append(self.builder.build_partial(base.alias, steps))
        probabilities = self.index.transition_probabilities(
            graphs, k=self.config.k_neighbors)
        weights = probabilities[:len(candidates)]
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

    # -------------------------------------------------------------- registering

    def register(self, query: QuerySpec) -> None:
        """Add a generated query's join *skeleton* to the index.

        The skeleton is what the adaptive walk compares its partial graphs
        against when scoring candidate extensions (Algorithm 2).  Diversity
        (the isomorphic sets of Figure 8) is counted by the testers over the
        full query graphs, not here.
        """
        self.index.add(self.builder.build_partial(query.base.alias, query.joins))
