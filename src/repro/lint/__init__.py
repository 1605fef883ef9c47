"""repro.lint: the repo's contracts, mechanically enforced.

The reproduction's value rests on conventions that ordinary tooling cannot
check: seeded ``random.Random`` discipline (serial == 1-worker == N-worker ==
TCP, bit-identical), lock-guarded shared state in the metrics registry /
execution pipeline / index server, "never unpickle socket bytes", and sorted
iteration before anything hashed or emitted.  This package turns each
convention into an ``ast``-based rule that fails CI, the same way the wire
protocol turned "trust the socket" into validated codecs.

Dependency-free by design: rules see parsed source only (no imports of the
code under analysis), so the suite runs anywhere the interpreter does.

Usage::

    python -m repro.lint src                 # lint the tree, text output
    python -m repro.lint src --format json   # machine-readable findings
    python -m repro.lint --explain CONC001   # rule doc + good/bad example
"""

from repro.lint.engine import run_lint
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule, registered_rules, rule_by_id

__all__ = [
    "Finding",
    "Rule",
    "register_rule",
    "registered_rules",
    "rule_by_id",
    "run_lint",
]
