"""SQL data types used by the simulated engines and the DSG generator.

The type system intentionally mirrors the types that show up in the paper's bug
listings (``decimal zerofill``, ``tinyint unsigned zerofill``, ``varchar(511)``,
``float``, ``double``, ``bigint(64)``, ``text``): those are exactly the types whose
implicit conversions trigger the seeded logic bugs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import TypeSystemError


class TypeCategory(enum.Enum):
    """Coarse grouping used by the implicit-cast lattice."""

    INTEGER = "integer"
    DECIMAL = "decimal"
    FLOAT = "float"
    STRING = "string"
    TEMPORAL = "temporal"
    BOOLEAN = "boolean"


class TypeName(enum.Enum):
    """Concrete SQL type names supported by the engines."""

    TINYINT = "tinyint"
    SMALLINT = "smallint"
    MEDIUMINT = "mediumint"
    INT = "int"
    BIGINT = "bigint"
    DECIMAL = "decimal"
    FLOAT = "float"
    DOUBLE = "double"
    CHAR = "char"
    VARCHAR = "varchar"
    TEXT = "text"
    BLOB = "blob"
    DATE = "date"
    DATETIME = "datetime"
    BOOLEAN = "boolean"


_CATEGORY_OF = {
    TypeName.TINYINT: TypeCategory.INTEGER,
    TypeName.SMALLINT: TypeCategory.INTEGER,
    TypeName.MEDIUMINT: TypeCategory.INTEGER,
    TypeName.INT: TypeCategory.INTEGER,
    TypeName.BIGINT: TypeCategory.INTEGER,
    TypeName.DECIMAL: TypeCategory.DECIMAL,
    TypeName.FLOAT: TypeCategory.FLOAT,
    TypeName.DOUBLE: TypeCategory.FLOAT,
    TypeName.CHAR: TypeCategory.STRING,
    TypeName.VARCHAR: TypeCategory.STRING,
    TypeName.TEXT: TypeCategory.STRING,
    TypeName.BLOB: TypeCategory.STRING,
    TypeName.DATE: TypeCategory.TEMPORAL,
    TypeName.DATETIME: TypeCategory.TEMPORAL,
    TypeName.BOOLEAN: TypeCategory.BOOLEAN,
}

_INTEGER_RANGES = {
    TypeName.TINYINT: (-128, 127, 0, 255),
    TypeName.SMALLINT: (-32768, 32767, 0, 65535),
    TypeName.MEDIUMINT: (-8388608, 8388607, 0, 16777215),
    TypeName.INT: (-2147483648, 2147483647, 0, 4294967295),
    TypeName.BIGINT: (-(2 ** 63), 2 ** 63 - 1, 0, 2 ** 64 - 1),
}


@dataclass(frozen=True)
class DataType:
    """A concrete SQL data type, with its display attributes.

    Attributes
    ----------
    name:
        The concrete :class:`TypeName`.
    length:
        Display width for integers, maximum length for strings.
    precision, scale:
        Only meaningful for :data:`TypeName.DECIMAL`.
    unsigned:
        Whether the integer type rejects negative values.
    zerofill:
        Whether integer/decimal values are rendered left-padded with zeros
        (the MySQL ``ZEROFILL`` attribute that shows up in Listing 1).
    nullable:
        Whether ``NULL`` is an acceptable value for the column.
    """

    name: TypeName
    length: Optional[int] = None
    precision: Optional[int] = None
    scale: Optional[int] = None
    unsigned: bool = False
    zerofill: bool = False
    nullable: bool = True

    def __post_init__(self) -> None:
        if self.name is TypeName.DECIMAL:
            precision = self.precision if self.precision is not None else 10
            scale = self.scale if self.scale is not None else 0
            if scale > precision:
                raise TypeSystemError(
                    f"decimal scale {scale} cannot exceed precision {precision}"
                )
        if self.unsigned and self.category not in (
            TypeCategory.INTEGER,
            TypeCategory.DECIMAL,
            TypeCategory.FLOAT,
        ):
            raise TypeSystemError(f"{self.name.value} cannot be unsigned")

    @property
    def category(self) -> TypeCategory:
        """Return the coarse category of this type."""
        return _CATEGORY_OF[self.name]

    def integer_range(self) -> Tuple[int, int]:
        """Return the (min, max) storable values for an integer type."""
        if self.category is not TypeCategory.INTEGER:
            raise TypeSystemError(f"{self.name.value} is not an integer type")
        lo_s, hi_s, lo_u, hi_u = _INTEGER_RANGES[self.name]
        if self.unsigned:
            return lo_u, hi_u
        return lo_s, hi_s

    def boundary_values(self) -> Tuple[object, ...]:
        """Values near the edge of the domain, used by the noise injector."""
        if self.category is TypeCategory.INTEGER:
            lo, hi = self.integer_range()
            return (hi, lo, 0, 65535 if hi >= 65535 else hi)
        if self.category is TypeCategory.FLOAT:
            return (0.0, -0.0, 1e308, -1e308, 1e-307)
        if self.category is TypeCategory.DECIMAL:
            return (0, -0, 10 ** ((self.precision or 10) - (self.scale or 0)) - 1)
        if self.category is TypeCategory.STRING:
            width = self.length or 10
            return ("", "Z" * min(width, 64), " leading", "trailing ")
        if self.category is TypeCategory.TEMPORAL:
            return ("1000-01-01", "9999-12-31")
        return (0, 1)

    def render(self) -> str:
        """Render the type as SQL DDL text."""
        base = self.name.value
        if self.name is TypeName.DECIMAL and self.precision is not None:
            base += f"({self.precision},{self.scale or 0})"
        elif self.length is not None and self.name not in (TypeName.TEXT, TypeName.BLOB):
            base += f"({self.length})"
        if self.unsigned:
            base += " unsigned"
        if self.zerofill:
            base += " zerofill"
        if not self.nullable:
            base += " NOT NULL"
        return base

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def tinyint(length: int = 4, unsigned: bool = False, zerofill: bool = False,
            nullable: bool = True) -> DataType:
    """Shortcut constructor for ``TINYINT``."""
    return DataType(TypeName.TINYINT, length=length, unsigned=unsigned,
                    zerofill=zerofill, nullable=nullable)


def integer(length: int = 11, unsigned: bool = False, nullable: bool = True) -> DataType:
    """Shortcut constructor for ``INT``."""
    return DataType(TypeName.INT, length=length, unsigned=unsigned, nullable=nullable)


def bigint(length: int = 20, unsigned: bool = False, nullable: bool = True) -> DataType:
    """Shortcut constructor for ``BIGINT``."""
    return DataType(TypeName.BIGINT, length=length, unsigned=unsigned, nullable=nullable)


def decimal(precision: int = 10, scale: int = 0, zerofill: bool = False,
            nullable: bool = True) -> DataType:
    """Shortcut constructor for ``DECIMAL``."""
    return DataType(TypeName.DECIMAL, precision=precision, scale=scale,
                    zerofill=zerofill, nullable=nullable)


def float_type(nullable: bool = True) -> DataType:
    """Shortcut constructor for ``FLOAT``."""
    return DataType(TypeName.FLOAT, nullable=nullable)


def double(nullable: bool = True) -> DataType:
    """Shortcut constructor for ``DOUBLE``."""
    return DataType(TypeName.DOUBLE, nullable=nullable)


def varchar(length: int = 100, nullable: bool = True) -> DataType:
    """Shortcut constructor for ``VARCHAR``."""
    return DataType(TypeName.VARCHAR, length=length, nullable=nullable)


def char(length: int = 10, nullable: bool = True) -> DataType:
    """Shortcut constructor for ``CHAR``."""
    return DataType(TypeName.CHAR, length=length, nullable=nullable)


def text(nullable: bool = True) -> DataType:
    """Shortcut constructor for ``TEXT``."""
    return DataType(TypeName.TEXT, nullable=nullable)


def date(nullable: bool = True) -> DataType:
    """Shortcut constructor for ``DATE``."""
    return DataType(TypeName.DATE, nullable=nullable)


def boolean(nullable: bool = True) -> DataType:
    """Shortcut constructor for ``BOOLEAN``."""
    return DataType(TypeName.BOOLEAN, nullable=nullable)
