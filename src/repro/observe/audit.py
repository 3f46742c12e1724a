"""The rewrite audit trail: every uniqueness decision, with its witness.

The paper's rewrites all hinge on a provable uniqueness property —
Theorem 1 via Algorithm 1, Theorem 2's at-most-one-match test, Theorem
3 / Corollary 2's duplicate-free operand.  A rule firing (or declining
to fire) is therefore a *decision with evidence*: the bound-attribute
closure per disjunctive term, the table whose key failed to bind, the
flattening precondition that broke.  :class:`AuditTrail` records those
decisions so ``optimize`` can print a human-readable proof sketch and
tooling can assert which theorem justified each rewrite.

Records are plain data (strings, dicts, lists) — no AST references —
so trails serialize directly and survive the queries they describe.

The trail is filed on read.  Rules make their decisions, and compute the
verdicts those rest on, while they run; what only a *reader* of the
trail needs — the printed target query, the witness dict, a standalone
verdict — is filed unbuilt and built the first time the trail is read
(``records``, ``len``, iteration, ``to_dicts``, ``proof_sketch``).
Nothing on the request path reads a trail, so a request pays for the
decisions and not for their write-up.

A trail of a statement whose literals were lifted into slots is bound
to the slots' values (:meth:`AuditTrail.bind`): its records read as the
literal text's would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..sql.printer import bind_slots, to_sql

#: Decision kinds: a rule applied, a rule examined-and-declined, or a
#: standalone verdict recorded for completeness (e.g. Algorithm 1 on a
#: query no rule needed to touch).
FIRED = "fired"
REJECTED = "rejected"
VERDICT = "verdict"


@dataclass
class AuditRecord:
    """One theorem/algorithm decision.

    Attributes:
        rule: the rewrite rule (or analysis) that made the decision.
        theorem: the paper result invoked — "Theorem 1", "Theorem 2",
            "Corollary 1", "Theorem 3", "Corollary 2", "Algorithm 1",
            "inclusion dependency", or a normalization label.
        decision: ``fired``, ``rejected``, or ``verdict``.
        target: the SQL text the decision was made about.
        note: one-sentence account of why.
        witness: the evidence — bound closures, missing keys, dropped
            clauses — as plain serializable data.
    """

    rule: str
    theorem: str
    decision: str
    target: str
    note: str
    witness: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """The record as an indented multi-line block."""
        lines = [f"[{self.decision.upper()}] {self.theorem} via {self.rule}: {self.note}"]
        lines.append(f"  target: {self.target}")
        for key, value in self.witness.items():
            lines.append(f"  {key}: {_render(value)}")
        return "\n".join(lines)

    def bound(self, values: dict) -> "AuditRecord":
        """This record with each slot *values* binds written as its literal."""
        return AuditRecord(
            *(_bound(getattr(self, name), values) for name in
              ("rule", "theorem", "decision", "target", "note", "witness"))
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "theorem": self.theorem,
            "decision": self.decision,
            "target": self.target,
            "note": self.note,
            "witness": self.witness,
        }


class AuditTrail:
    """An ordered, deduplicated list of :class:`AuditRecord`.

    The optimizer's fixpoint loop revisits queries, so identical
    decisions recur across passes; the trail keeps the first occurrence
    only (identity ignores the witness, which is derived from the same
    inputs and therefore equal too).

    Decisions are filed with :meth:`record` or :meth:`defer` and turned
    into records — printed, witnessed, deduplicated — when the trail is
    first read.  A trail belongs to one request: a request served from
    a remembered rewrite reads its own :meth:`copy`.
    """

    def __init__(self) -> None:
        self._records: list[AuditRecord] = []
        self._seen: set[tuple] = set()
        self._filed: list = []  # record() argument tuples and defer() builders
        self._values: dict | None = None  # slot bindings, see bind()

    def record(
        self,
        rule: str,
        theorem: str,
        decision: str,
        target: Any,
        note: str,
        witness: dict[str, Any] | Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        """File a decision.

        *target* is the SQL text, or the query AST, printed on read;
        *witness* is the evidence dict, or a callable that builds it on
        read.  Both must depend only on what the decision already saw.
        """
        self._filed.append((rule, theorem, decision, target, note, witness))

    def defer(self, build: Callable[[], tuple]) -> None:
        """File a decision whose fields are computed on read: *build*
        returns :meth:`record`'s arguments as a tuple."""
        self._filed.append(build)

    def copy(self) -> "AuditTrail":
        """A trail holding the same decisions, read independently: what
        is still unread stays unread, to be built by the copy's reader."""
        trail = AuditTrail()
        trail._records = list(self._records)
        trail._seen = set(self._seen)
        trail._filed = list(self._filed)
        trail._values = self._values
        return trail

    def bind(self, values: dict) -> "AuditTrail":
        """Have this trail's records read with each slot *values* binds
        written as its literal, as a trail of the literal text would;
        returns the trail.  Bind only a trail no other request reads."""
        self._values = values
        self._records = [record.bound(values) for record in self._records]
        return self

    @property
    def records(self) -> list[AuditRecord]:
        """The records, built from what was filed on first read."""
        if self._filed:
            self._materialize()
        return self._records

    def _materialize(self) -> None:
        filed, self._filed = self._filed, []
        for entry in filed:
            if callable(entry):
                entry = entry()
            rule, theorem, decision, target, note, witness = entry
            if not isinstance(target, str):
                target = to_sql(target)
            identity = (rule, theorem, decision, target, note)
            if identity in self._seen:
                continue
            self._seen.add(identity)
            if callable(witness):
                witness = witness()
            record = AuditRecord(rule, theorem, decision, target, note, witness or {})
            if self._values is not None:
                record = record.bound(self._values)
            self._records.append(record)

    def __bool__(self) -> bool:
        # Filing never yields an empty trail, so this reads nothing.
        return bool(self._filed or self._records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def fired(self) -> list[AuditRecord]:
        """Records of rules that applied."""
        return [r for r in self.records if r.decision == FIRED]

    def rejected(self) -> list[AuditRecord]:
        """Records of rules examined but declined, with the reason."""
        return [r for r in self.records if r.decision == REJECTED]

    def theorems_fired(self) -> list[str]:
        """Theorem labels of the fired decisions, in order."""
        return [r.theorem for r in self.fired()]

    def proof_sketch(self) -> str:
        """The trail as a numbered, human-readable proof sketch."""
        if not self.records:
            return "(no uniqueness decisions were made)"
        blocks = []
        for number, record in enumerate(self.records, start=1):
            body = record.describe().replace("\n", "\n   ")
            blocks.append(f"{number}. {body}")
        return "\n".join(blocks)

    def to_dicts(self) -> list[dict[str, Any]]:
        """JSON-ready list of the records."""
        return [record.to_dict() for record in self.records]


def _bound(value: Any, values: dict) -> Any:
    """*value* — a record field — with its SQL strings' slots bound."""
    if isinstance(value, str):
        return bind_slots(value, values)
    if isinstance(value, dict):
        return {key: _bound(item, values) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_bound(item, values) for item in value)
    return value


def _render(value: Any) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{k}: {_render(v)}" for k, v in value.items()
        ) + "}"
    if isinstance(value, (list, tuple)):
        rendered = ", ".join(_render(item) for item in value)
        return f"[{rendered}]"
    return str(value)
