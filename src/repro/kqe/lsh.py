"""Deterministic sign-random-projection LSH over KQE embeddings.

The paper reaches sublinear KNN with HD-Index; this module plays that role
with the repo's determinism constraints: hyperplanes are derived from a
counter-mode ``blake2b`` stream keyed by the embedder configuration — no
ambient RNG, no process-dependent state — so every worker, every restart and
every replay builds byte-identical tables (DET001-clean by construction).

Each of ``tables`` hash tables assigns a vector a ``bits``-bit key: bit *b*
is the sign of the projection onto hyperplane ``(table, b)``.  Cosine-close
vectors agree on most signs, so they collide in at least one table with high
probability.  Lookup unions the query's bucket in every table plus all
Hamming-distance-1 probes (multi-probe LSH), and returns the candidate row
indices sorted — a deterministic, bounded candidate set at any index size.

KQE embeddings are non-negative (hashed substructure counts), which breaks
textbook sign projections: every vector leans along the all-ones diagonal, so
hyperplanes whose components happen to sum away from zero assign the *same*
sign to everything and the effective key entropy collapses.  Each vector is
therefore mean-centered (its component mean subtracted) before projecting — a
per-vector, order-independent transform, so keys stay stable across inserts,
restarts and replays — which removes the shared diagonal component and makes
the signs discriminate between directions again.

Keys come from one reduction whether one row or a whole matrix is hashed:
projections are ``numpy.einsum`` contractions, which sum each (row, plane)
pair alike at any row count (a BLAS product does not promise that in the
last bit), so the bulk build :class:`~repro.kqe.graph_index.GraphIndex` does
when it first needs its tables equals one-by-one inserts by construction.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence

import numpy as np

_DIGEST_BYTES = 64  # blake2b's maximum; 8 hyperplane components per block.


def hyperplane_stream(seed_material: str, count: int) -> List[float]:
    """*count* floats in [-1.0, 1.0), deterministically from *seed_material*.

    Counter-mode hashing: block *i* contributes the 8 big-endian u64 words of
    ``blake2b(f"{seed_material}:{i}")``, each mapped affinely onto [-1, 1).
    Seeding through ``hashlib`` keeps the closure inside the determinism
    lint's sanctioned namespace.
    """
    values: List[float] = []
    block = 0
    while len(values) < count:
        digest = hashlib.blake2b(
            f"{seed_material}:{block}".encode("utf-8"), digest_size=_DIGEST_BYTES
        ).digest()
        for offset in range(0, _DIGEST_BYTES, 8):
            word = int.from_bytes(digest[offset : offset + 8], "big")
            values.append(word / float(1 << 63) - 1.0)
        block += 1
    del values[count:]
    return values


class SignRandomProjectionLSH:
    """Multi-table sign-random-projection index over row ids.

    Callers insert row indices in increasing order (the graph index's
    append-only ids), which keeps every bucket's list sorted without ever
    sorting — candidate-set construction then only needs one final
    ``sorted()`` over the union.
    """

    def __init__(
        self,
        dims: int,
        tables: int = 8,
        bits: int = 12,
        seed_material: str = "kqe-lsh",
        probe_radius: int = 1,
    ) -> None:
        if dims <= 0:
            raise ValueError("LSH dimensionality must be positive")
        if tables <= 0 or not 0 < bits <= 30:
            raise ValueError("LSH needs tables >= 1 and 1 <= bits <= 30")
        self.dims = dims
        self.tables = tables
        self.bits = bits
        self.probe_radius = probe_radius
        self.seed_material = seed_material
        # (tables*bits, dims): one hyperplane per row.
        self._planes = np.array(
            hyperplane_stream(seed_material, tables * bits * dims), dtype=np.float64
        ).reshape(tables * bits, dims)
        self._powers = 1 << np.arange(bits, dtype=np.int64)
        self._buckets: List[Dict[int, List[int]]] = [{} for _ in range(tables)]
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------ projection

    def keys(self, vector: Sequence[float]) -> List[int]:
        """The vector's bucket key in every table."""
        row = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        return self._keys_matrix(row)[0].tolist()

    def _keys_matrix(self, matrix: Any) -> Any:
        """Bucket keys, shape (n, tables), for every row of an (n, width) matrix.

        Rows are padded/truncated to ``dims`` and mean-centered (see the
        module docstring); each projection is contracted per row, so a row's
        keys do not depend on how many rows are hashed with it.
        """
        source = np.asarray(matrix, dtype=np.float64)
        count = source.shape[0]
        width = min(source.shape[1], self.dims)
        rows = np.zeros((count, self.dims), dtype=np.float64)
        rows[:, :width] = source[:, :width]
        rows -= rows.mean(axis=1, keepdims=True)
        signs = np.einsum("rd,pd->rp", rows, self._planes, optimize=False) > 0.0
        return (signs.reshape(count, self.tables, self.bits) * self._powers).sum(axis=2)

    # ------------------------------------------------------------- insertion

    def insert(self, index: int, vector: Sequence[float]) -> None:
        """Index one row id under its bucket key in every table."""
        for table, key in enumerate(self.keys(vector)):
            self._buckets[table].setdefault(key, []).append(index)
        self._size += 1

    def insert_matrix(self, start_index: int, matrix: Any) -> None:
        """Bulk insert rows ``start_index..`` of an (n, width) matrix.

        Equivalent to inserting the rows one by one, in order; used when the
        graph index first builds its tables over the rows it already holds.
        """
        keys = self._keys_matrix(matrix)
        for offset, row_keys in enumerate(keys.tolist()):
            for table, key in enumerate(row_keys):
                self._buckets[table].setdefault(key, []).append(start_index + offset)
        self._size += len(keys)

    # ---------------------------------------------------------------- lookup

    def candidates(self, vector: Sequence[float]) -> List[int]:
        """Sorted union of the query's buckets across tables and probes."""
        found: set = set()
        for table, key in enumerate(self.keys(vector)):
            buckets = self._buckets[table]
            hit = buckets.get(key)
            if hit:
                found.update(hit)
            if self.probe_radius >= 1:
                for bit in range(self.bits):
                    hit = buckets.get(key ^ (1 << bit))
                    if hit:
                        found.update(hit)
        return sorted(found)
