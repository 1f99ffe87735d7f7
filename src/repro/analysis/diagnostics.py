"""Typed diagnostics core for the static verifiers.

Every check the analysis layer performs is declared as a :class:`Rule`
(name, default severity, scope, description) in a process-wide registry,
and every violation is reported as a :class:`Diagnostic` — an immutable
record naming the rule, the graph op and/or plan item involved, the
collective rank and device where applicable, a human-readable message,
and a fix hint. Diagnostics accumulate in a :class:`Report`;
``Report.raise_if_errors`` converts error-severity findings into a
:class:`repro.errors.VerificationError` so callers (the optimizer
pipeline, ``build_plan``, the CLI) fail with every finding attached
instead of just the first.

The registry is the single source of truth for the rule catalog: the
documentation table in ``docs/ARCHITECTURE.md`` and the CLI's ``--rules``
listing are both generated from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional

from repro.errors import VerificationError

__all__ = [
    "Severity",
    "Diagnostic",
    "Rule",
    "Report",
    "register_rule",
    "get_rule",
    "rule_catalog",
    "unsorted_nodes",
]


class Severity(enum.IntEnum):
    """How bad a finding is; ordering allows ``severity >= ERROR`` checks."""

    INFO = 0
    WARNING = 1
    ERROR = 2


@dataclass(frozen=True)
class Rule:
    """One named invariant a verifier checks.

    Attributes:
        name: stable identifier, ``<scope>/<kebab-case>`` by convention.
        severity: default severity of violations (a specific finding may
            override it, e.g. commutative-update races downgrade).
        scope: ``"graph"`` for :func:`verify_graph` rules, ``"plan"`` for
            :func:`verify_plan` rules.
        description: one-line summary for the rule catalog.
    """

    name: str
    severity: Severity
    scope: str
    description: str


_RULES: dict[str, Rule] = {}


def register_rule(
    name: str, severity: Severity, scope: str, description: str
) -> Rule:
    """Declare a rule in the catalog (idempotent for identical redeclares)."""
    if scope not in ("graph", "plan"):
        raise ValueError(f"rule scope must be 'graph' or 'plan', got {scope!r}")
    rule = Rule(name=name, severity=severity, scope=scope, description=description)
    existing = _RULES.get(name)
    if existing is not None and existing != rule:
        raise ValueError(f"rule {name!r} already registered with different fields")
    _RULES[name] = rule
    return rule


def get_rule(name: str) -> Rule:
    return _RULES[name]


def rule_catalog() -> tuple[Rule, ...]:
    """Every registered rule, sorted by (scope, name) for stable listings."""
    return tuple(sorted(_RULES.values(), key=lambda r: (r.scope, r.name)))


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violation located as precisely as possible.

    ``op`` names the graph operation, ``item`` the plan item uid, ``rank``
    the collective rank and ``device`` the placed device — whichever apply.
    ``opt_pass`` attributes the finding to the optimizer pass after which
    it was detected (filled by the pipeline hook, ``None`` for standalone
    verification). ``hint`` tells the user how to fix the graph.
    """

    rule: str
    severity: Severity
    message: str
    op: Optional[str] = None
    item: Optional[int] = None
    rank: Optional[int] = None
    device: Optional[str] = None
    hint: Optional[str] = None
    opt_pass: Optional[str] = None

    def format(self) -> str:
        where = []
        if self.op is not None:
            where.append(f"op={self.op}")
        if self.item is not None:
            where.append(f"item=#{self.item}")
        if self.rank is not None:
            where.append(f"rank={self.rank}")
        if self.device is not None:
            where.append(f"device={self.device}")
        if self.opt_pass is not None:
            where.append(f"pass={self.opt_pass}")
        loc = f" [{' '.join(where)}]" if where else ""
        text = f"{self.severity.name.lower()}: {self.rule}: {self.message}{loc}"
        if self.hint:
            text += f"\n    fix: {self.hint}"
        return text

    def to_dict(self) -> dict:
        """JSON-serializable form (for the CI diagnostics artifact)."""
        return {
            "rule": self.rule,
            "severity": self.severity.name,
            "message": self.message,
            "op": self.op,
            "item": self.item,
            "rank": self.rank,
            "device": self.device,
            "hint": self.hint,
            "opt_pass": self.opt_pass,
        }


@dataclass
class Report:
    """Accumulated findings of one verification run."""

    context: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def emit(self, rule: str, message: str, **location) -> Diagnostic:
        """Report a violation of a registered rule at its default severity.

        ``severity=`` in ``location`` overrides the rule default (used by
        findings that are structurally the same rule but provably less
        harmful, e.g. unordered commutative accumulations).
        """
        severity = location.pop("severity", None)
        if severity is None:
            severity = get_rule(rule).severity
        diag = Diagnostic(rule=rule, severity=severity, message=message, **location)
        self.add(diag)
        return diag

    def attribute(self, opt_pass: str) -> None:
        """Stamp every unattributed finding with the offending pass name."""
        self.diagnostics = [
            replace(d, opt_pass=opt_pass) if d.opt_pass is None else d
            for d in self.diagnostics
        ]

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity findings exist (warnings allowed)."""
        return not self.errors

    def render(self) -> str:
        head = self.context or "verification"
        if not self.diagnostics:
            return f"{head}: clean"
        lines = [
            f"{head}: {len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        ]
        lines.extend(d.format() for d in self.diagnostics)
        return "\n".join(lines)

    def raise_if_errors(self) -> None:
        """Raise :class:`VerificationError` carrying every finding."""
        errors = self.errors
        if not errors:
            return
        raise VerificationError(
            self.render(),
            node_def=errors[0].op,
            diagnostics=list(self.diagnostics),
        )

    def merge(self, other: "Report") -> "Report":
        self.diagnostics.extend(other.diagnostics)
        return self

    def to_dict(self) -> dict:
        return {
            "context": self.context,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def unsorted_nodes(preds: dict) -> list:
    """Kahn's algorithm over ``preds`` (node -> the nodes it waits on, each
    a key of ``preds``): the nodes a topological sort cannot clear — every
    node on a cycle and every node downstream of one — in ``preds`` order.
    Empty when the relation is acyclic. The verifiers call it only when
    their order proof fails, to name the cycle."""
    remaining: dict = {}
    dependents: dict = {}
    for node, deps in preds.items():
        remaining[node] = len(deps)
        for dep in deps:
            dependents.setdefault(dep, []).append(node)
    queue = [node for node, count in remaining.items() if not count]
    while queue:
        for consumer in dependents.get(queue.pop(), ()):
            remaining[consumer] -= 1
            if not remaining[consumer]:
                queue.append(consumer)
    return [node for node, count in remaining.items() if count]
