"""Column definitions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sqlvalue.datatypes import DataType


@dataclass(frozen=True)
class Column:
    """A single column of a table.

    Attributes
    ----------
    name:
        Column name, unique within its table.
    dtype:
        The SQL :class:`~repro.sqlvalue.datatypes.DataType` of the column.
    comment:
        Free-form description, used by the dataset generators to record the
        semantic role of a column (e.g. ``"implicit primary key"``).
    """

    name: str
    dtype: DataType
    comment: Optional[str] = None

    @property
    def nullable(self) -> bool:
        """Whether the column accepts NULL."""
        return self.dtype.nullable
