"""A deliberately small cost model used when no hint forces a join algorithm.

The real systems pick among nested loop, hash and index joins based on
cardinalities and available indexes; the simulated engines mimic that with a
coarse heuristic so that the *default* plan of a query is deterministic and
distinct from most hinted plans (which is what makes differential testing
meaningful for the TQS!GT ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan.logical import JoinType
from repro.plan.physical import JoinAlgorithm


@dataclass(frozen=True)
class JoinCostInput:
    """Facts the cost model looks at for one join step."""

    left_cardinality: int
    right_cardinality: int
    join_type: JoinType
    right_key_is_indexed: bool
    key_is_numeric: bool


#: below this inner-side cardinality a nested loop is considered cheapest.
SMALL_INNER_THRESHOLD = 24

#: above this product of cardinalities hashing always wins over nested loops.
HASH_PRODUCT_THRESHOLD = 2_000


def estimate_cost(algorithm: JoinAlgorithm, facts: JoinCostInput) -> float:
    """Rough cost estimate (rows touched) for running *algorithm* on *facts*."""
    left = max(1, facts.left_cardinality)
    right = max(1, facts.right_cardinality)
    if algorithm in (JoinAlgorithm.NESTED_LOOP, JoinAlgorithm.BLOCK_NESTED_LOOP):
        block_factor = 4 if algorithm is JoinAlgorithm.BLOCK_NESTED_LOOP else 1
        return left * right / block_factor
    if algorithm in (JoinAlgorithm.INDEX_NESTED_LOOP, JoinAlgorithm.BATCHED_KEY_ACCESS):
        probe = 2.0 if facts.right_key_is_indexed else right
        return left * probe + right
    if algorithm in (JoinAlgorithm.HASH, JoinAlgorithm.BLOCK_NESTED_LOOP_HASH):
        return left + 2 * right
    if algorithm is JoinAlgorithm.SORT_MERGE:
        import math

        return left * math.log2(left + 1) + right * math.log2(right + 1)
    return float(left * right)


def choose_algorithm(facts: JoinCostInput) -> JoinAlgorithm:
    """Pick the default join algorithm for one step.

    Mirrors the real engines' behaviour at a high level: index joins when the
    inner key is indexed and the outer side is small, nested loops for tiny
    inputs, hash joins for everything else.
    """
    if not facts.join_type.keyed:
        return JoinAlgorithm.NESTED_LOOP
    if facts.right_cardinality <= SMALL_INNER_THRESHOLD and (
        facts.left_cardinality * facts.right_cardinality < HASH_PRODUCT_THRESHOLD
    ):
        return JoinAlgorithm.BLOCK_NESTED_LOOP
    if facts.right_key_is_indexed and facts.left_cardinality <= facts.right_cardinality:
        return JoinAlgorithm.INDEX_NESTED_LOOP
    candidates = [
        JoinAlgorithm.HASH,
        JoinAlgorithm.BLOCK_NESTED_LOOP,
        JoinAlgorithm.SORT_MERGE,
        JoinAlgorithm.INDEX_NESTED_LOOP,
    ]
    return min(candidates, key=lambda algorithm: estimate_cost(algorithm, facts))
