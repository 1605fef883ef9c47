"""Dialect-parameterized SQL rendering of the internal IR.

The one code that turns the IR into text.  It serializes query specs,
:mod:`repro.expr.ast` expression trees, :mod:`repro.sqlvalue` literals and the
DSG-generated :class:`~repro.catalog.schema.DatabaseSchema` into SQL that a real
engine will parse, plus the CREATE TABLE / INSERT statements needed to deploy a
:class:`~repro.storage.database.Database` into it.  Backend adapters render
with their engine's dialect; bug reports and the expression text of plan
descriptions use the reference dialect
(:data:`ANSI_DIALECT`, the default of :class:`SQLRenderer`).

Two rendering decisions are semantic, not cosmetic, and both exist to make the
rendered query mean the same thing on a real engine that the spec means to the
reference executor:

* SEMI and ANTI join steps are rendered as correlated ``EXISTS`` / ``NOT
  EXISTS`` subqueries rather than ``IN`` / ``NOT IN``.  ``lhs NOT IN (SELECT
  rhs ...)`` returns UNKNOWN as soon as either side contains a NULL, silently
  dropping rows that the engines' anti join operators *do* emit; ``NOT EXISTS
  (... WHERE rhs = lhs)`` matches the operator semantics exactly (NULL keys
  never match, unmatched rows survive).
* Aggregates are rendered with an explicit ``DISTINCT`` argument
  (``COUNT(DISTINCT x)``), because the reference ``Project`` operator evaluates
  every aggregate over deduplicated inputs (see ``plan/operators.py``).
"""

from __future__ import annotations

import math
import sqlite3
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Any, Iterator, List, Mapping, Optional, Tuple

from repro.catalog.schema import DatabaseSchema
from repro.catalog.table import TableSchema
from repro.errors import RenderError
from repro.expr.ast import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    ExistsSubquery,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    ScalarSubquery,
)
from repro.plan.logical import (
    AnyQuerySpec,
    CompoundQuerySpec,
    JoinStep,
    JoinType,
    OrderItem,
    QuerySpec,
    SelectItem,
    TableRef,
    unique_output_names,
)
from repro.sqlvalue.datatypes import DataType, TypeName
from repro.sqlvalue.values import render_literal
from repro.storage.database import Database

@dataclass(frozen=True)
class SQLDialectSpec:
    """Everything dialect-specific about rendering SQL text.

    Attributes
    ----------
    name:
        Display name (``"sqlite"``, ``"ansi"``, ``"mysql"``).
    identifier_quote:
        Quote character wrapped around every identifier.
    paramstyle:
        Placeholder used by :meth:`SQLRenderer.render_insert` (``?`` or ``%s``).
    null_safe_equal:
        Infix operator implementing MySQL's ``<=>`` (SQLite spells it ``IS``).
    supports_right_join, supports_full_outer_join:
        Whether the engine parses RIGHT / FULL OUTER JOIN at all; rendering an
        unsupported join raises :class:`~repro.errors.RenderError` so callers
        can skip the query instead of filing a parse error as a logic bug.
    supports_hint_comments:
        Whether ``/*+ ... */`` hint comments are meaningful; when False they are
        omitted entirely rather than shipped as noise.
    supports_nulls_ordering:
        Whether ``NULLS FIRST`` / ``NULLS LAST`` parses in ORDER BY.  The
        reference executor sorts NULLs first ascending and last descending,
        so the renderer always spells the placement out where supported;
        dialects without the syntax (MySQL, SQLite < 3.30) happen to default
        to exactly the reference placement, so omission stays sound there.
    supports_ctes:
        Whether ``WITH name AS (...)`` common table expressions parse;
        rendering a CTE on a dialect without them raises
        :class:`~repro.errors.RenderError` so the oracle skips the query.
    real_division:
        Render ``a / b`` with the operands cast to REAL.  The reference
        executor divides in the decimal domain (``7 / 2 = 3.5``); engines with
        C-style integer division (SQLite) would otherwise diverge on every
        integer quotient.
    enforce_not_null:
        Emit NOT NULL column constraints.  Off by default because DSG's noise
        injector deliberately corrupts key cells with NULLs *after*
        normalization; the corrupted database must still be loadable.
    type_overrides:
        Per-:class:`TypeName` DDL spellings; unmapped types fall back to the
        IR's own MySQL-flavoured rendering.
    """

    name: str
    identifier_quote: str = '"'
    paramstyle: str = "?"
    null_safe_equal: str = "IS NOT DISTINCT FROM"
    supports_right_join: bool = True
    supports_full_outer_join: bool = True
    supports_hint_comments: bool = False
    supports_nulls_ordering: bool = True
    supports_ctes: bool = True
    real_division: bool = False
    enforce_not_null: bool = False
    type_overrides: Mapping[str, str] = field(default_factory=dict)

    def type_ddl(self, dtype: DataType) -> str:
        """Render *dtype* for this dialect's CREATE TABLE."""
        override = self.type_overrides.get(dtype.name.value)
        if override is not None:
            if "{length}" in override:
                return override.format(length=dtype.length or 255)
            if "{precision}" in override:
                return override.format(
                    precision=dtype.precision or 10, scale=dtype.scale or 0
                )
            return override
        base = dtype.render()
        if not self.enforce_not_null:
            base = base.replace(" NOT NULL", "")
        return base


ANSI_DIALECT = SQLDialectSpec(name="ansi", supports_hint_comments=True)
"""The reference dialect: plain quoted-identifier SQL with hint comments, the
default of :class:`SQLRenderer` and the text of every filed bug report."""

SQLITE_DIALECT = SQLDialectSpec(
    name="sqlite",
    null_safe_equal="IS",
    real_division=True,
    # RIGHT and FULL OUTER JOIN landed in SQLite 3.39.0 (2022-06); older
    # runtimes (common on Python 3.9 distros) reject them at parse time, so
    # the renderer must refuse up front and let the oracle skip the query.
    supports_right_join=sqlite3.sqlite_version_info >= (3, 39, 0),
    supports_full_outer_join=sqlite3.sqlite_version_info >= (3, 39, 0),
    # NULLS FIRST/LAST landed in SQLite 3.30.0; older runtimes default to
    # the reference placement anyway (NULLs first ASC, last DESC).
    supports_nulls_ordering=sqlite3.sqlite_version_info >= (3, 30, 0),
    # Map every IR type onto the SQLite affinity that matches the reference
    # executor's comparison domain: integers stay exact (INTEGER), decimals ride
    # NUMERIC, floats ride REAL, and strings/temporals ride TEXT so that
    # column-vs-literal comparisons coerce in the same direction MySQL would.
    type_overrides={
        TypeName.TINYINT.value: "INTEGER",
        TypeName.SMALLINT.value: "INTEGER",
        TypeName.MEDIUMINT.value: "INTEGER",
        TypeName.INT.value: "INTEGER",
        TypeName.BIGINT.value: "INTEGER",
        TypeName.DECIMAL.value: "NUMERIC({precision},{scale})",
        TypeName.FLOAT.value: "REAL",
        TypeName.DOUBLE.value: "REAL",
        TypeName.CHAR.value: "VARCHAR({length})",
        TypeName.VARCHAR.value: "VARCHAR({length})",
        TypeName.TEXT.value: "TEXT",
        TypeName.BLOB.value: "TEXT",
        TypeName.DATE.value: "TEXT",
        TypeName.DATETIME.value: "TEXT",
        TypeName.BOOLEAN.value: "INTEGER",
    },
)
"""Rendering profile for stdlib :mod:`sqlite3`."""

MYSQL_DIALECT = SQLDialectSpec(
    name="mysql",
    identifier_quote="`",
    paramstyle="%s",
    null_safe_equal="<=>",
    supports_full_outer_join=False,
    supports_hint_comments=True,
    # MySQL has no NULLS FIRST/LAST syntax; its default placement (NULLs
    # first ascending, last descending) already matches the reference.
    supports_nulls_ordering=False,
)
"""Rendering profile for a future MySQL/MariaDB adapter."""

DUCKDB_DIALECT = SQLDialectSpec(
    name="duckdb",
    null_safe_equal="IS NOT DISTINCT FROM",
    # DuckDB's `/` is float division already (`//` is the integer quotient),
    # so no CAST-to-REAL workaround: DuckDB's REAL is float32 and casting
    # through it would shed precision the comparison tolerance does not cover.
    real_division=False,
    # DuckDB is strongly typed, unlike SQLite's affinities, so every IR type
    # maps onto the native type whose comparison semantics match the
    # reference executor: integers stay 64-bit exact, decimals ride DOUBLE
    # (the float-tolerant comparison absorbs representation drift, and DOUBLE
    # sidesteps DECIMAL width errors on noise-corrupted values), and
    # strings/temporals ride VARCHAR so column-vs-literal comparisons coerce
    # the way the reference's string domain does.
    type_overrides={
        TypeName.TINYINT.value: "BIGINT",
        TypeName.SMALLINT.value: "BIGINT",
        TypeName.MEDIUMINT.value: "BIGINT",
        TypeName.INT.value: "BIGINT",
        TypeName.BIGINT.value: "BIGINT",
        TypeName.DECIMAL.value: "DOUBLE",
        TypeName.FLOAT.value: "DOUBLE",
        TypeName.DOUBLE.value: "DOUBLE",
        TypeName.CHAR.value: "VARCHAR",
        TypeName.VARCHAR.value: "VARCHAR",
        TypeName.TEXT.value: "VARCHAR",
        TypeName.BLOB.value: "VARCHAR",
        TypeName.DATE.value: "VARCHAR",
        TypeName.DATETIME.value: "VARCHAR",
        TypeName.BOOLEAN.value: "BIGINT",
    },
)
"""Rendering profile for the DuckDB adapter (import-gated driver)."""


class SQLRenderer:
    """Serializes the internal IR into SQL text for one dialect."""

    def __init__(self, dialect: SQLDialectSpec = ANSI_DIALECT) -> None:
        self.dialect = dialect

    # ------------------------------------------------------------- identifiers

    def ident(self, name: str) -> str:
        """Quote one identifier."""
        quote = self.dialect.identifier_quote
        if quote in name:
            raise RenderError(
                f"identifier {name!r} contains the quote character {quote!r}"
            )
        return f"{quote}{name}{quote}"

    def qualified(self, table: Optional[str], column: str) -> str:
        """Quote a possibly table-qualified column reference."""
        if table is None:
            return self.ident(column)
        return f"{self.ident(table)}.{self.ident(column)}"

    def table_ref(self, ref: TableRef) -> str:
        """Render a FROM-clause table reference with its alias."""
        if ref.table == ref.alias:
            return self.ident(ref.table)
        return f"{self.ident(ref.table)} AS {self.ident(ref.alias)}"

    # ---------------------------------------------------------------- literals

    def literal(self, value: Any) -> str:
        """Render a Python value as a SQL literal for this dialect.

        Delegates to :func:`~repro.sqlvalue.values.render_literal` after
        rejecting values no SQL dialect can spell (NaN/Inf floats and
        decimals), which that helper happily emits.
        """
        if isinstance(value, float) and not math.isfinite(value):
            raise RenderError(f"cannot render non-finite float {value!r} as SQL")
        if isinstance(value, Decimal) and not value.is_finite():
            raise RenderError(f"cannot render non-finite decimal {value!r} as SQL")
        return render_literal(value)

    # ------------------------------------------------------------- expressions

    def expression(self, expr: Expression) -> str:
        """Render one expression tree."""
        if isinstance(expr, ColumnRef):
            return self.qualified(expr.table, expr.column)
        if isinstance(expr, Literal):
            return self.literal(expr.value)
        if isinstance(expr, Comparison):
            op = self.dialect.null_safe_equal if expr.op == "<=>" else expr.op
            return f"({self.expression(expr.left)} {op} {self.expression(expr.right)})"
        if isinstance(expr, IsNull):
            suffix = "IS NOT NULL" if expr.negated else "IS NULL"
            return f"({self.expression(expr.operand)} {suffix})"
        if isinstance(expr, Not):
            return f"(NOT {self.expression(expr.operand)})"
        if isinstance(expr, And):
            return "(" + " AND ".join(self.expression(op) for op in expr.operands) + ")"
        if isinstance(expr, Or):
            return "(" + " OR ".join(self.expression(op) for op in expr.operands) + ")"
        if isinstance(expr, Between):
            keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
            return (
                f"({self.expression(expr.operand)} {keyword} "
                f"{self.expression(expr.low)} AND {self.expression(expr.high)})"
            )
        if isinstance(expr, InList):
            keyword = "NOT IN" if expr.negated else "IN"
            items = ", ".join(self.expression(item) for item in expr.items)
            return f"({self.expression(expr.operand)} {keyword} ({items}))"
        if isinstance(expr, InSubquery):
            keyword = "NOT IN" if expr.negated else "IN"
            subquery = self.query(expr.subquery)
            return f"({self.expression(expr.operand)} {keyword} ({subquery}))"
        if isinstance(expr, ExistsSubquery):
            keyword = "NOT EXISTS" if expr.negated else "EXISTS"
            return f"({keyword} ({self.query(expr.subquery)}))"
        if isinstance(expr, ScalarSubquery):
            return f"({self.query(expr.subquery)})"
        if isinstance(expr, Arithmetic):
            left = self.expression(expr.left)
            right = self.expression(expr.right)
            if expr.op == "/" and self.dialect.real_division:
                left = f"CAST({left} AS REAL)"
            return f"({left} {expr.op} {right})"
        if isinstance(expr, FunctionCall):
            args = ", ".join(self.expression(arg) for arg in expr.args)
            return f"{expr.name.upper()}({args})"
        raise RenderError(f"cannot render expression node {type(expr).__name__}")

    # ------------------------------------------------------------------ SELECT

    def select_item(self, item: SelectItem, output_name: str) -> str:
        """Render one SELECT-list item under its result-set column name."""
        inner = self.expression(item.expression)
        if item.aggregate is not None:
            inner = f"{item.aggregate.value}(DISTINCT {inner})"
        return f"{inner} AS {self.ident(output_name)}"

    def _semi_anti_filter(self, step: JoinStep) -> str:
        condition = (
            f"{self.expression(step.right_key)} = {self.expression(step.left_key)}"
        )
        if step.extra_condition is not None:
            condition += f" AND {self.expression(step.extra_condition)}"
        return (
            f"{step.join_type.keyword} (SELECT 1 FROM {self.table_ref(step.table)} "
            f"WHERE {condition})"
        )

    def _join_clause(self, step: JoinStep) -> str:
        if step.join_type is JoinType.RIGHT_OUTER and not self.dialect.supports_right_join:
            raise RenderError(f"{self.dialect.name} does not support RIGHT OUTER JOIN")
        if (step.join_type is JoinType.FULL_OUTER
                and not self.dialect.supports_full_outer_join):
            raise RenderError(f"{self.dialect.name} does not support FULL OUTER JOIN")
        if not step.join_type.keyed:
            return f"{step.join_type.keyword} {self.table_ref(step.table)}"
        condition = (
            f"{self.expression(step.left_key)} = {self.expression(step.right_key)}"
        )
        if step.extra_condition is not None:
            condition += f" AND {self.expression(step.extra_condition)}"
        return f"{step.join_type.keyword} {self.table_ref(step.table)} ON {condition}"

    def order_item(self, item: OrderItem) -> str:
        """Render one ORDER BY item with its direction and NULL placement."""
        text = self.expression(item.expression) + (" DESC" if item.descending else "")
        if self.dialect.supports_nulls_ordering:
            # Matches value_sort_key, the one exact value order the
            # reference executor sorts by; dialects without the syntax
            # default to this placement.
            text += f" {item.nulls_placement()}"
        return text

    def query(self, spec: AnyQuerySpec, hint_comment: str = "") -> str:
        """Render a full statement (without the trailing semicolon).

        Dispatches on the spec type: plain SELECTs render directly, compound
        specs (set operations, optionally CTE-wrapped) through
        :meth:`compound_query`.
        """
        if isinstance(spec, CompoundQuerySpec):
            return self.compound_query(spec, hint_comment)
        return self.select_query(spec, hint_comment)

    def compound_query(self, spec: CompoundQuerySpec,
                       hint_comment: str = "") -> str:
        """Render a set-operation query, wrapped in a CTE when named.

        The CTE form is ``WITH name AS (<body>) SELECT <columns> FROM name``:
        a pass-through outer projection over the named body, which keeps the
        result identical to the body (so the reference executor can inline it)
        while the engine exercises its CTE machinery.
        """
        spec.validate()
        parts = [self.select_query(spec.arms[0], hint_comment)]
        for op, arm in zip(spec.operators, spec.arms[1:]):
            parts.append(op.value)
            parts.append(self.select_query(arm))
        body = "\n".join(parts)
        if spec.cte_name is None:
            return body
        if not self.dialect.supports_ctes:
            raise RenderError(f"{self.dialect.name} does not support WITH clauses")
        columns = ", ".join(self.ident(name) for name in spec.output_columns())
        cte = self.ident(spec.cte_name)
        return f"WITH {cte} AS (\n{body}\n)\nSELECT {columns} FROM {cte}"

    def select_query(self, spec: QuerySpec, hint_comment: str = "") -> str:
        """Render one plain SELECT statement (without the trailing semicolon)."""
        output_names = unique_output_names(spec.select)
        select_items = ", ".join(
            self.select_item(item, name)
            for item, name in zip(spec.select, output_names)
        )
        if not select_items:
            raise RenderError("query has no select items")
        distinct = "DISTINCT " if spec.distinct and not spec.has_aggregates() else ""
        hint = ""
        if hint_comment and self.dialect.supports_hint_comments:
            hint = f"/*+ {hint_comment} */ "
        parts = [f"SELECT {hint}{distinct}{select_items}"]
        from_clause = self.table_ref(spec.base)
        semi_anti: List[str] = []
        for step in spec.joins:
            if step.join_type.filters_by_existence:
                semi_anti.append(self._semi_anti_filter(step))
            else:
                from_clause += f" {self._join_clause(step)}"
        parts.append(f"FROM {from_clause}")
        where: List[str] = []
        if spec.where is not None:
            where.append(self.expression(spec.where))
        where.extend(semi_anti)
        if where:
            parts.append("WHERE " + " AND ".join(where))
        if spec.group_by:
            parts.append(
                "GROUP BY " + ", ".join(self.expression(col) for col in spec.group_by)
            )
        if spec.order_by:
            parts.append(
                "ORDER BY " + ", ".join(self.order_item(item) for item in spec.order_by)
            )
        if spec.limit is not None:
            parts.append(f"LIMIT {int(spec.limit)}")
        return "\n".join(parts)

    # --------------------------------------------------------------- DDL / DML

    def create_table(self, table: TableSchema) -> str:
        """Render a CREATE TABLE statement for one table."""
        parts = []
        for column in table.columns:
            ddl = f"{self.ident(column.name)} {self.dialect.type_ddl(column.dtype)}"
            if self.dialect.enforce_not_null and not column.dtype.nullable:
                if "NOT NULL" not in ddl:
                    ddl += " NOT NULL"
            parts.append(ddl)
        if table.primary_key:
            keys = ", ".join(self.ident(c) for c in table.primary_key)
            parts.append(f"PRIMARY KEY ({keys})")
        body = ",\n  ".join(parts)
        return f"CREATE TABLE {self.ident(table.name)} (\n  {body}\n)"

    def create_indexes(self, table: TableSchema) -> List[str]:
        """Render CREATE INDEX statements for the table's secondary keys.

        Indexes are deliberately non-unique: DSG's noise injection may corrupt
        key columns into duplicates, and the point of loading the database is to
        test join planning over these indexes, not to enforce integrity.
        """
        statements = []
        for index_number, key in enumerate(table.keys):
            name = key.name or "_".join(key.columns)
            index_name = self.ident(f"idx_{table.name}_{index_number}_{name}")
            columns = ", ".join(self.ident(c) for c in key.columns)
            statements.append(
                f"CREATE INDEX {index_name} ON {self.ident(table.name)} ({columns})"
            )
        implicit = tuple(table.implicit_key)
        if implicit and implicit != table.primary_key:
            columns = ", ".join(self.ident(c) for c in implicit)
            index_name = self.ident(f"idx_{table.name}_implicit_key")
            statements.append(
                f"CREATE INDEX {index_name} ON {self.ident(table.name)} ({columns})"
            )
        return statements

    def insert_statement(self, table: TableSchema) -> Tuple[str, Tuple[str, ...]]:
        """Render a parameterized INSERT and the column order its parameters use."""
        columns = table.column_names
        placeholders = ", ".join(self.dialect.paramstyle for _ in columns)
        column_list = ", ".join(self.ident(c) for c in columns)
        sql = (
            f"INSERT INTO {self.ident(table.name)} ({column_list}) "
            f"VALUES ({placeholders})"
        )
        return sql, columns

    def insert_values(self, table: TableSchema, row: Mapping[str, Any]) -> str:
        """Render one row as a literal INSERT (for exported repro scripts)."""
        columns = table.column_names
        column_list = ", ".join(self.ident(c) for c in columns)
        values = ", ".join(self.literal(row.get(c)) for c in columns)
        return f"INSERT INTO {self.ident(table.name)} ({column_list}) VALUES ({values})"

    def export_database(self, database: Database) -> Iterator[str]:
        """Yield the full DDL+DML script deploying *database* on this dialect.

        This is what turns a detected mismatch into a self-contained bug report:
        the yielded statements recreate the exact (noise-injected) DSG database
        on the target engine.
        """
        schema: DatabaseSchema = database.schema
        for table in schema.tables:
            yield self.create_table(table)
        for table in schema.tables:
            yield from self.create_indexes(table)
        for table in schema.tables:
            for row in database.table(table.name):
                yield self.insert_values(table, row)
