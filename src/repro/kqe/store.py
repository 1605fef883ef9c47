"""Contiguous matrix storage behind the KQE graph index.

The paper's HD-Index sits on the novelty-check hot path, so embedding storage
must support one-shot vectorized scoring instead of a Python loop over
per-entry arrays.  A campaign registers one entry per generated query, but
almost every entry repeats a join shape it has seen, so :class:`VectorStore`
keeps **one row per distinct stored vector** in a single amortized-growth
``(capacity, dims)`` float64 matrix, with cached row norms, a per-row count
and a per-entry row id.  Two entries share a row exactly when their
zero-padded vectors are byte-identical, so every entry's row holds its exact
values.

``top_k`` ranks the *entries* for one query as (entry, similarity) pairs.
``top_k_cosines`` is the adaptive walk's kernel: it scores a batch of
queries, whose norms KQE memoizes with the vectors by join shape, against
every distinct row with one product, and returns only each query's *k* best
cosines in descending order, with no per-pair tuples, because coverage
(Eq. 2) reads the values, not the rows.  Coverage is a mean over a multiset,
so each row's cosine is repeated by its count (capped at *k*) before the *k*
best are picked: the list, its order and its sum are those of a scan over
every entry, while the scan itself grows with the distinct rows only.  When every
norm product is positive, the quotient skips the divide-by-zero guard.
Every product is a ``numpy.einsum`` contraction, never a BLAS matrix
product: einsum sums each (query, row) pair alike whatever the row or query
count, so a row scores with the same bits alone, in a batch or in the full
scan, which is what lets a walk step score all its candidate graphs at once
without moving a single draw.  (BLAS kernels block rows, and a row's last
bit can depend on how many rows share the call.)

:class:`EntryBatch` is the view ``GraphIndex.entries_since`` hands to the
sync layer: it gathers each entry's row through its row id only when read,
instead of materializing ``list(zip(...))`` copies of every tail entry per
round, and its :meth:`EntryBatch.to_wire` quantizes embeddings through IEEE
float32 exactly once, at the ship boundary.  Every transport and wire
protocol therefore carries the same float32-representable float64 values,
one vector per entry: JSON round-trips them exactly (``repr`` is
shortest-round-trip), and the packed float32 codec re-encodes them
bit-identically, which is what keeps serial, pooled and TCP campaigns on one
determinism contract while the wire sheds bytes.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: Minimum row capacity allocated on first growth; doubling after that keeps
#: appends amortized O(dims).
_MIN_CAPACITY = 256

Neighbours = List[Tuple[int, float]]


def quantize_to_float32(values: Sequence[float]) -> List[float]:
    """Round-trip *values* through IEEE-754 float32 (little-endian).

    This is the sync layer's ship-boundary quantization: applied once when a
    batch leaves a worker, so the packed float32 wire codec is lossless for
    everything it is ever asked to carry.
    """
    count = len(values)
    packed = struct.pack(f"<{count}f", *values)
    return list(struct.unpack(f"<{count}f", packed))


def _ranked(scores: Any, k: int) -> Neighbours:
    """The *k* best entries of a score vector as (entry, similarity) pairs.

    Pairs come in a stable descending order: ties break toward the lower
    entry index, which is determinism-critical, because KQE coverage feeds
    generation probabilities.
    """
    total = scores.shape[0]
    limit = min(k, total)
    if total > limit:
        kth = np.partition(scores, total - limit)[total - limit]
        (columns,) = np.nonzero(scores >= kth)
    else:
        columns = np.arange(total)
    ranked = list(zip(columns.tolist(), scores[columns].tolist()))
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked[:limit]


def _grown(array: Any, size: int) -> Any:
    """*array*, or a zero-extended copy whose first axis holds *size* items."""
    capacity = array.shape[0]
    if size <= capacity:
        return array
    grown = np.zeros((max(_MIN_CAPACITY, capacity * 2, size),) + array.shape[1:],
                     dtype=array.dtype)
    grown[:capacity] = array
    return grown


class VectorStore:
    """Append-only embedding entries over distinct rows, with vectorized top-k.

    Rows are stored zero-padded to the store's current column count; the
    column count widens lazily when a longer vector arrives (zero padding
    never changes a cosine, nor whether two rows are equal).  Queries of any
    length are accepted: components beyond the store's width cannot match
    any stored mass, and the query's *full* norm is used, so truncation is
    mathematically exact.
    """

    def __init__(self, dims: int = 0) -> None:
        self._dims = int(dims)
        self._count = 0
        self._rows = 0
        self._matrix = np.zeros((0, self._dims), dtype=np.float64)
        self._norms = np.zeros(0, dtype=np.float64)
        self._counts = np.zeros(0, dtype=np.intp)
        self._row_ids = np.zeros(0, dtype=np.intp)
        # A stored row's bytes -> its row index.
        self._row_of: Dict[bytes, int] = {}

    @property
    def dims(self) -> int:
        return self._dims

    def __len__(self) -> int:
        return self._count

    @property
    def distinct_rows(self) -> int:
        """How many distinct rows the entries share."""
        return self._rows

    def _widen(self, dims: int) -> None:
        matrix = np.zeros((self._matrix.shape[0], dims), dtype=np.float64)
        matrix[:, : self._dims] = self._matrix
        self._matrix = matrix
        self._dims = dims
        # A norm is taken of the row as stored, so a store rebuilt from its
        # zero-padded rows (a snapshot reload) holds bit-identical norms.
        # Rows distinct before the widening stay distinct after it.
        for row in range(self._rows):
            self._norms[row] = float(np.linalg.norm(matrix[row]))
        self._row_of = {matrix[row].tobytes(): row for row in range(self._rows)}

    # -------------------------------------------------------------- insertion

    def append(self, vector: Sequence[float]) -> int:
        """Insert one vector (padded/widened as needed); returns its entry index."""
        values = np.asarray(vector, dtype=np.float64).reshape(-1)
        if values.shape[0] > self._dims:
            self._widen(values.shape[0])
        padded = np.zeros(self._dims, dtype=np.float64)
        padded[: values.shape[0]] = values
        key = padded.tobytes()
        row = self._row_of.get(key)
        if row is None:
            row = self._rows
            self._matrix = _grown(self._matrix, row + 1)
            self._norms = _grown(self._norms, row + 1)
            self._counts = _grown(self._counts, row + 1)
            self._matrix[row] = padded
            self._norms[row] = float(np.linalg.norm(self._matrix[row]))
            self._row_of[key] = row
            self._rows = row + 1
        self._counts[row] += 1
        entry = self._count
        self._row_ids = _grown(self._row_ids, entry + 1)
        self._row_ids[entry] = row
        self._count = entry + 1
        return entry

    # ----------------------------------------------------------------- access

    def row(self, index: int) -> Any:
        """The stored (zero-padded) vector of entry *index*, as a matrix view."""
        if not 0 <= index < self._count:
            raise IndexError(f"row {index} out of range (size {self._count})")
        return self._matrix[self._row_ids[index]]

    def rows_between(self, start: int, stop: int) -> Any:
        """The rows of entries ``start:stop``, gathered into a new matrix."""
        return self._matrix[self._row_ids[start : min(stop, self._count)]]

    # ----------------------------------------------------------------- search

    def _queries(self, vectors: Sequence[Sequence[float]]) -> Any:
        """*vectors* padded/truncated to the store's width, one per row."""
        if all(len(vector) == self._dims for vector in vectors):
            return np.array(vectors, dtype=np.float64)
        queries = np.zeros((len(vectors), self._dims), dtype=np.float64)
        for position, vector in enumerate(vectors):
            width = min(len(vector), self._dims)
            queries[position, :width] = vector[:width]
        return queries

    def _cosines(self, queries: Any, query_norms: Any) -> Any:
        """(queries, rows) cosines against every distinct row.

        *query_norms* are the queries' full norms: components past the
        store's width meet only implicit zeros, so the cosine is exact
        whether a query was padded or truncated.  A pair whose norm product
        is not positive scores 0; when every product is positive (the walk's
        case) the quotient is taken unguarded, which gives the same bits.
        """
        norms = self._norms[: self._rows]
        scores = np.einsum("qd,rd->qr", queries, self._matrix[: self._rows],
                           optimize=False)
        denominator = norms[None, :] * query_norms[:, None]
        if denominator.min() > 0.0:
            return scores / denominator
        positive = denominator > 0.0
        return np.where(positive, scores / np.where(positive, denominator, 1.0), 0.0)

    def top_k(self, vector: Sequence[float], k: int) -> Neighbours:
        """The *k* most cosine-similar entries as (entry, similarity) pairs."""
        if self._count == 0 or k <= 0:
            return []
        values = np.asarray(vector, dtype=np.float64).reshape(-1)
        query_norms = np.array([float(np.linalg.norm(values))])
        scores = self._cosines(self._queries([values]), query_norms)[0]
        return _ranked(scores[self._row_ids[: self._count]], k)

    def top_k_cosines(
        self, vectors: Sequence[Sequence[float]], norms: Sequence[float], k: int
    ) -> List[List[float]]:
        """The similarities of ``top_k(vector, k)`` for every vector, entries left out.

        *norms* holds each vector's full norm, as ``embed_with_norm`` returns
        it (KQE memoizes the pair by join shape, so no norm is re-derived).
        One product scores every vector against every distinct row, with no
        divide-by-zero guard unless some norm product is not positive.  Each
        row's cosine stands for every entry that shares the row, so each
        query's *k* best entries' cosines come back in descending order, and
        summing them in list order adds the very bits a ``top_k`` walk over
        every entry would.
        """
        if self._count == 0 or k <= 0 or not vectors:
            return [[] for _ in vectors]
        query_norms = np.asarray(norms, dtype=np.float64)
        cosines = self._cosines(self._queries(vectors), query_norms)
        # A row is among a query's k best entries at most k times, so its
        # cosine is repeated by its count capped at k.
        cosines = np.repeat(cosines, np.minimum(self._counts[: self._rows], k), axis=1)
        total = cosines.shape[1]
        if total > k:
            cosines = np.partition(cosines, total - k, axis=1)[:, total - k :]
        cosines.sort(axis=1)
        return cosines[:, ::-1].tolist()


def _vector_as_list(vector: Sequence[float]) -> List[float]:
    return [float(component) for component in vector]


class EntryBatch:
    """A read-only view of one contiguous (embedding, label) range of a store.

    Behaves like the list of pairs it replaces — ``len``, iteration, indexing
    and ``==`` against plain pair lists all hold — but rows stay in the
    store's matrix, one per distinct vector, until someone actually reads
    them.  The range is pinned at
    construction, so the view is stable even while the index keeps growing.
    """

    def __init__(self, store: VectorStore, labels: Sequence[str], start: int) -> None:
        self._store = store
        self._labels = list(labels)
        self._start = start

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> List[str]:
        return list(self._labels)

    @property
    def vectors(self) -> Any:
        """The batch's rows, one per entry, gathered into a new matrix."""
        return self._store.rows_between(self._start, self._start + len(self._labels))

    def __iter__(self) -> Iterator[Tuple[Sequence[float], str]]:
        for offset, label in enumerate(self._labels):
            yield self._store.row(self._start + offset), label

    def __getitem__(self, position: int) -> Tuple[Sequence[float], str]:
        if position < 0:
            position += len(self._labels)
        if not 0 <= position < len(self._labels):
            raise IndexError(f"batch index {position} out of range")
        return self._store.row(self._start + position), self._labels[position]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EntryBatch):
            other = list(other)
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        if len(other) != len(self):
            return False
        for (vector, label), pair in zip(self, other):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                return False
            if label != pair[1]:
                return False
            if _vector_as_list(vector) != _vector_as_list(pair[0]):
                return False
        return True

    def to_wire(self) -> List[Tuple[List[float], str]]:
        """The batch as (plain-list vector, label) pairs, float32-quantized.

        This is the one quantization point of the sync protocol: every
        transport ships these values, so the packed float32 codec round-trips
        them exactly and JSON campaigns see the very same numbers.
        """
        matrix = self._store.rows_between(self._start, self._start + len(self))
        quantized = matrix.astype(np.float32).astype(np.float64).tolist()
        return list(zip(quantized, self._labels))
