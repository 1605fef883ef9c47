"""Central-index coordination: the state machine the index server runs.

The paper's scale-out design (§4, Figure 10) keeps one central KQE graph index
while N clients explore independently; the only shared state is the index, and
the only protocol is the stale-synchronous exchange of (embedding, canonical
label) batches: a worker's sync at one scheduled hour ships that hour's batch
and receives the merged broadcast of the *previous* scheduled round, so no
worker waits on the slowest peer's current hour and none runs more than one
round ahead.  :class:`CentralCoordinator` is that state machine, kept apart
from the server's sockets, threads and deadlines: its merge and broadcast are
pure functions of round content, which is what makes a campaign's verdicts
independent of network timing, whether its clients are the local pool's
worker processes or remote machines.

It also owns the novelty pruning: the coordinator tracks, per worker, the set
of canonical labels that worker is known to hold (everything it submitted plus
everything already broadcast to it) and re-broadcasts only label-novel
entries.  Duplicate-label embeddings refine local coverage estimates slightly,
but the label is what the diversity metric and the termination heuristic key
on — so dropping already-known labels shrinks sync payloads on long campaigns
without losing exploration signal.  Pruned and unpruned runs are both
deterministic; they are simply *different* deterministic runs, so the switch
lives in the campaign configuration, not in transport flags.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.core.budget import BudgetPolicy, redistribute_budget
from repro.distributed.protocol import IndexEntry, SyncBroadcast
from repro.kqe.graph_index import GraphIndex


class CentralCoordinator:
    """Owns the central graph index and the per-worker novelty bookkeeping.

    When given a :class:`~repro.core.budget.BudgetPolicy` plus the shards'
    initial per-hour budgets, the coordinator also decides budget reallocation
    at every round: each worker's *novel-label count* (labels it contributed
    that the central index had never seen, credited in sorted shard order) is
    fed to the policy and the resulting allocation rides home inside the
    round's broadcasts, so it takes effect one round after the round that
    decided it.  Decisions are functions of round content only, never of
    arrival timing, so budgeted campaigns stay deterministic.
    """

    def __init__(
        self,
        prune: bool = True,
        budget_policy: Optional[BudgetPolicy] = None,
        initial_budgets: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.index = GraphIndex()
        self.prune = prune
        self.broadcast_entries_sent = 0
        self.broadcast_entries_suppressed = 0
        self.budget_policy = budget_policy
        self.budgets: Dict[int, int] = dict(initial_budgets or {})
        self._known: Dict[int, Set[str]] = {}
        # Set when an eviction reshuffled the budgets outside a policy
        # decision; the next round's broadcasts must carry the new allocation
        # even when no budget policy is configured, or the evicted shard's
        # budget would silently evaporate instead of being conserved.
        self._budgets_dirty = False

    def known_labels(self, shard_id: int) -> Set[str]:
        """The canonical labels worker *shard_id* is known to hold."""
        return self._known.setdefault(shard_id, set())

    def absorb(self, entries: Iterable[IndexEntry]) -> int:
        """Fold entries into the central index; returns how many were added."""
        count = 0
        for vector, label in entries:
            # The index's store normalizes dtypes itself; converting here
            # would copy every vector a second time per round.
            self.index.add_embedding(vector, label)
            count += 1
        return count

    def complete_round(
        self, batches: Mapping[int, Sequence[IndexEntry]]
    ) -> Dict[int, SyncBroadcast]:
        """Merge one sync round and compute per-worker broadcasts.

        Batches are absorbed in sorted shard order (arrival order must not
        matter, or TCP timing would leak into results).  Each worker's
        broadcast is the other workers' entries, in that same order, minus the
        entries whose canonical label the worker already holds — its own
        submissions and everything previously broadcast to it.  Within one
        round the first occurrence of a novel label is forwarded and later
        duplicates are suppressed.  The broadcasts reach the workers at their
        next scheduled sync (the final round's never do); the transport hands
        each over through :meth:`deliver`.
        """
        order = sorted(batches)
        novel_counts: Dict[int, int] = {}
        for shard_id in order:
            known = self.known_labels(shard_id)
            novel = 0
            for vector, label in batches[shard_id]:
                # Novelty is checked against the index's own O(1) label
                # bookkeeping *before* each insertion, so within-batch
                # duplicates count once and no parallel label set is kept.
                if not self.index.contains_label(label):
                    novel += 1
                self.index.add_embedding(vector, label)
                known.add(label)
            novel_counts[shard_id] = novel
        next_budgets = self._rebalance(novel_counts)
        broadcasts: Dict[int, SyncBroadcast] = {}
        for shard_id in order:
            known = self.known_labels(shard_id)
            entries: List[IndexEntry] = []
            suppressed = 0
            for other in order:
                if other == shard_id:
                    continue
                for vector, label in batches[other]:
                    if self.prune and label in known:
                        suppressed += 1
                    else:
                        entries.append((vector, label))
                        known.add(label)
            broadcasts[shard_id] = SyncBroadcast(
                entries=entries,
                suppressed=suppressed,
                next_budget=next_budgets.get(shard_id),
            )
        return broadcasts

    def deliver(self, broadcast: SyncBroadcast) -> SyncBroadcast:
        """Count *broadcast* as handed to its worker, and return it.

        The sent and suppressed totals count delivered broadcasts only, so
        they reconcile with what the workers report having received.
        """
        self.broadcast_entries_sent += len(broadcast.entries)
        self.broadcast_entries_suppressed += broadcast.suppressed
        return broadcast

    def replay_round(
        self, batches: Mapping[int, Sequence[IndexEntry]]
    ) -> Dict[int, SyncBroadcast]:
        """Re-apply one snapshot-logged round during restore.

        Deliberately *the same code path* as :meth:`complete_round`: merge
        order, novelty pruning and budget rebalancing are all pure functions
        of round content, so replaying the logged batches reproduces the
        coordinator's state — and the broadcasts — bit-identically.  The
        alias exists so restore call sites read as what they are.
        """
        return self.complete_round(batches)

    def evict(self, shard_id: int) -> None:
        """Drop a dead worker; its per-hour budget moves to the survivors.

        The freed budget is redistributed deterministically (largest-remainder
        split in sorted shard order), conserving the campaign's per-hour total
        across the eviction — and it reaches the survivors in the next round's
        broadcasts whether or not a budget policy is configured.
        """
        self._known.pop(shard_id, None)
        if shard_id in self.budgets:
            self.budgets = redistribute_budget(self.budgets, shard_id)
            self._budgets_dirty = True

    def _rebalance(self, novel_counts: Dict[int, int]) -> Dict[int, int]:
        """One round's budget decision; empty when there is nothing to say."""
        if self.budget_policy is None or not self.budgets:
            if self._budgets_dirty:
                self._budgets_dirty = False
                return dict(self.budgets)
            return {}
        self._budgets_dirty = False
        self.budgets = self.budget_policy.rebalance(self.budgets, novel_counts)
        return self.budgets
