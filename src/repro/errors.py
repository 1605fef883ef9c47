"""Exception hierarchy shared by every subsystem of the TQS reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """Raised for inconsistent schema definitions (duplicate columns, bad keys...)."""


class CatalogError(ReproError):
    """Raised when a table or column lookup fails."""


class TypeSystemError(ReproError):
    """Raised for invalid data-type definitions or impossible casts."""


class ExpressionError(ReproError):
    """Raised when an expression tree is malformed or cannot be evaluated."""


class PlanError(ReproError):
    """Raised when a logical query cannot be turned into a physical plan."""


class HintError(ReproError):
    """Raised for unknown or contradictory optimizer hints."""


class ExecutionError(ReproError):
    """Raised when a physical plan fails during execution."""


class NormalizationError(ReproError):
    """Raised when schema normalization cannot decompose a wide table."""


class NoiseInjectionError(ReproError):
    """Raised when noise injection cannot be synchronized with the wide table."""


class GroundTruthError(ReproError):
    """Raised when the bitmap-based ground truth cannot be derived for a query."""


class GenerationError(ReproError):
    """Raised when the random-walk query generator cannot produce a query."""


class CampaignError(ReproError):
    """Raised for invalid testing-campaign configurations."""


class TransportError(CampaignError):
    """Raised when a distributed sync transport fails (framing, I/O, protocol)."""


class ProtocolError(TransportError):
    """Raised for malformed, truncated or unauthenticated protocol frames.

    Distinct from its :class:`TransportError` parent so servers can tell
    *bad input* (reject the connection, keep serving) from *transport
    failure* (socket died, peer gone).
    """


class SnapshotError(ReproError):
    """Raised for corrupt, truncated or version-skewed KQE index snapshots."""


class TelemetryError(ReproError):
    """Raised for invalid metric definitions or incompatible snapshot merges."""


class BackendError(ReproError):
    """Raised when a real-DBMS backend adapter fails (connection, load, execute)."""


class RenderError(BackendError):
    """Raised when the IR cannot be rendered as SQL for the target dialect."""
