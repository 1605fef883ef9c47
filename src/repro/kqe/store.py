"""Contiguous matrix storage behind the KQE graph index.

The paper's HD-Index sits on the novelty-check hot path, so embedding storage
must support one-shot vectorized scoring instead of a Python loop over
per-entry arrays.  :class:`VectorStore` keeps all embeddings in a single
amortized-growth ``(capacity, dims)`` float64 matrix with cached row norms;
``top_k`` is then one matrix-vector product plus one partition.  A pure-Python
fallback (lists of floats) keeps the store importable and correct when numpy
is unavailable or disabled via ``REPRO_DISABLE_NUMPY=1``.  The two modes are
each deterministic; they are *different* deterministic implementations (float
summation order differs).

:class:`EntryBatch` is the zero-copy view ``GraphIndex.entries_since`` hands
to the sync layer: it indexes straight into the store's matrix instead of
materializing ``list(zip(...))`` copies of every tail entry per round, and its
:meth:`EntryBatch.to_wire` quantizes embeddings through IEEE float32 exactly
once, at the ship boundary.  Every transport and wire protocol therefore
carries the same float32-representable float64 values: JSON round-trips them
exactly (``repr`` is shortest-round-trip), and the packed float32 codec
re-encodes them bit-identically — which is what keeps serial, pooled and TCP
campaigns on one determinism contract while the wire sheds bytes.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Any, Iterator, List, Optional, Sequence, Tuple

#: Minimum row capacity allocated on first growth; doubling after that keeps
#: appends amortized O(dims).
_MIN_CAPACITY = 256


def resolve_numpy(use_numpy: Optional[bool] = None) -> Any:
    """The numpy module to use, or None for the pure-Python fallback.

    ``use_numpy=None`` consults ``REPRO_DISABLE_NUMPY`` and then tries the
    import; an explicit True/False wins over the environment.
    """
    if use_numpy is None:
        use_numpy = os.environ.get("REPRO_DISABLE_NUMPY", "") != "1"
    if not use_numpy:
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a package dependency
        return None
    return numpy


def quantize_to_float32(values: Sequence[float]) -> List[float]:
    """Round-trip *values* through IEEE-754 float32 (little-endian).

    This is the sync layer's ship-boundary quantization: applied once when a
    batch leaves a worker, so the packed float32 wire codec is lossless for
    everything it is ever asked to carry.
    """
    count = len(values)
    packed = struct.pack(f"<{count}f", *values)
    return list(struct.unpack(f"<{count}f", packed))


class VectorStore:
    """Append-only embedding matrix with cached norms and vectorized top-k.

    Rows are stored zero-padded to the store's current column count; the
    column count widens lazily when a longer vector arrives (zero padding
    never changes a cosine).  Queries of any length are accepted: components
    beyond the store's width cannot match any stored mass, and the query's
    *full* norm is used, so truncation is mathematically exact.
    """

    def __init__(self, dims: int = 0, use_numpy: Optional[bool] = None) -> None:
        self._np = resolve_numpy(use_numpy)
        self._dims = int(dims)
        self._count = 0
        if self._np is not None:
            self._matrix = self._np.zeros((0, self._dims), dtype=self._np.float64)
            self._norms = self._np.zeros(0, dtype=self._np.float64)
        else:
            self._rows: List[List[float]] = []
            self._norm_list: List[float] = []

    @property
    def uses_numpy(self) -> bool:
        return self._np is not None

    @property
    def dims(self) -> int:
        return self._dims

    def __len__(self) -> int:
        return self._count

    # --------------------------------------------------------------- growth

    def _ensure_capacity(self, rows: int) -> None:
        np = self._np
        capacity = self._matrix.shape[0]
        if rows <= capacity:
            return
        new_capacity = max(_MIN_CAPACITY, capacity * 2, rows)
        matrix = np.zeros((new_capacity, self._dims), dtype=np.float64)
        matrix[: self._count] = self._matrix[: self._count]
        self._matrix = matrix
        norms = np.zeros(new_capacity, dtype=np.float64)
        norms[: self._count] = self._norms[: self._count]
        self._norms = norms

    def _widen(self, dims: int) -> None:
        if dims <= self._dims:
            return
        if self._np is not None:
            np = self._np
            matrix = np.zeros((self._matrix.shape[0], dims), dtype=np.float64)
            matrix[:, : self._dims] = self._matrix
            self._matrix = matrix
        else:
            for row in self._rows:
                row.extend([0.0] * (dims - len(row)))
        self._dims = dims

    # -------------------------------------------------------------- insertion

    def append(self, vector: Sequence[float]) -> int:
        """Insert one vector (padded/widened as needed); returns its row index."""
        index = self._count
        if self._np is not None:
            np = self._np
            values = np.asarray(vector, dtype=np.float64).reshape(-1)
            if values.shape[0] > self._dims:
                self._widen(values.shape[0])
            self._ensure_capacity(index + 1)
            row = self._matrix[index]
            row[: values.shape[0]] = values
            self._norms[index] = float(np.linalg.norm(values))
        else:
            values_list = [float(component) for component in vector]
            if len(values_list) > self._dims:
                self._widen(len(values_list))
            elif len(values_list) < self._dims:
                values_list.extend([0.0] * (self._dims - len(values_list)))
            self._rows.append(values_list)
            self._norm_list.append(
                math.sqrt(sum(component * component for component in values_list))
            )
        self._count = index + 1
        return index

    # ----------------------------------------------------------------- access

    def row(self, index: int) -> Sequence[float]:
        """The stored (zero-padded) vector at *index*; a view in numpy mode."""
        if not 0 <= index < self._count:
            raise IndexError(f"row {index} out of range (size {self._count})")
        if self._np is not None:
            return self._matrix[index]
        return self._rows[index]

    def rows_between(self, start: int, stop: int) -> Any:
        """Rows ``start:stop`` — a zero-copy matrix view in numpy mode."""
        stop = min(stop, self._count)
        if self._np is not None:
            return self._matrix[start:stop]
        return self._rows[start:stop]

    # ----------------------------------------------------------------- search

    def top_k(
        self,
        vector: Sequence[float],
        k: int,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[Tuple[int, float]]:
        """The *k* most cosine-similar rows as (index, similarity) pairs.

        Restricted to *candidates* when given (an ANN prefilter's output).
        Ties break toward the lower row index, matching the stable descending
        sort the pre-vectorized index used — determinism-critical, because
        KQE coverage feeds generation probabilities.
        """
        if self._count == 0 or k <= 0:
            return []
        if candidates is not None and len(candidates) == 0:
            return []
        if self._np is not None:
            return self._top_k_numpy(vector, k, candidates)
        return self._top_k_python(vector, k, candidates)

    def _top_k_numpy(
        self, vector: Sequence[float], k: int, candidates: Optional[Sequence[int]]
    ) -> List[Tuple[int, float]]:
        np = self._np
        query = np.asarray(vector, dtype=np.float64).reshape(-1)
        # Full-length norm, truncated product: components past the store's
        # width meet only implicit zeros, so the cosine is exact either way.
        query_norm = float(np.linalg.norm(query))
        query = query[: self._dims]
        if query.shape[0] < self._dims:
            query = np.concatenate(
                [query, np.zeros(self._dims - query.shape[0], dtype=np.float64)]
            )
        if candidates is None:
            rows = self._matrix[: self._count]
            norms = self._norms[: self._count]
            ids = None
        else:
            ids = np.asarray(candidates, dtype=np.intp)
            rows = self._matrix[ids]
            norms = self._norms[ids]
        scores = rows @ query
        denominator = norms * query_norm
        positive = denominator > 0.0
        scores = np.where(positive, scores / np.where(positive, denominator, 1.0), 0.0)
        total = scores.shape[0]
        limit = min(k, total)
        if total > limit:
            kth = np.partition(scores, total - limit)[total - limit]
            keep = np.nonzero(scores >= kth)[0]
        else:
            keep = np.arange(total)
        scored = [
            (int(position if ids is None else ids[position]), float(scores[position]))
            for position in keep
        ]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:limit]

    def _top_k_python(
        self, vector: Sequence[float], k: int, candidates: Optional[Sequence[int]]
    ) -> List[Tuple[int, float]]:
        query = [float(component) for component in vector]
        query_norm = math.sqrt(sum(component * component for component in query))
        indices: Sequence[int]
        if candidates is None:
            indices = range(self._count)
        else:
            indices = candidates
        scored: List[Tuple[int, float]] = []
        for index in indices:
            denominator = self._norm_list[index] * query_norm
            if denominator <= 0.0:
                scored.append((index, 0.0))
                continue
            row = self._rows[index]
            # zip stops at the shorter operand — exactly the zero-pad product.
            dot = sum(a * b for a, b in zip(query, row))
            scored.append((index, dot / denominator))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]


def _vector_as_list(vector: Sequence[float]) -> List[float]:
    return [float(component) for component in vector]


class EntryBatch:
    """A read-only view of one contiguous (embedding, label) range of a store.

    Behaves like the list of pairs it replaces — ``len``, iteration, indexing
    and ``==`` against plain pair lists all hold — but rows stay in the
    store's matrix until someone actually reads them.  The range is pinned at
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
        """The batch's rows; a zero-copy matrix view in numpy mode."""
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
        store = self._store
        count = len(self._labels)
        if store.uses_numpy and count:
            np = store._np
            matrix = store.rows_between(self._start, self._start + count)
            quantized = np.asarray(
                np.asarray(matrix, dtype=np.float32), dtype=np.float64
            ).tolist()
        else:
            quantized = [
                quantize_to_float32(_vector_as_list(vector))
                for vector, _ in self
            ]
        return list(zip(quantized, self._labels))
