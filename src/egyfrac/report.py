"""Result records shared by the exhaustive verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .rationals import rational_str


@dataclass(frozen=True)
class Counterexample:
    """A concrete violation of a checked claim."""

    claim: str
    values: tuple[int, ...]
    delta: Fraction | None = None
    q: int | None = None


@dataclass(frozen=True)
class EqualityWitness:
    """A tuple attaining a sharp bound exactly, tagged with its family."""

    denominators: tuple[int, ...]
    delta: Fraction
    q: int
    family: str


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    millis: int


@dataclass
class VerificationReport:
    """Outcome of an exhaustive run.

    passed is False when a counterexample was found or when the node budget
    ran out before the range was covered; the two causes stay separable
    through budget_exceeded. On any completed run, passed is equivalent to
    the counterexample list being empty.

    Only parameters is required: the lists default to fresh empty lists,
    stats to SearchStats(0, 0). A verifier builds its report before it
    starts, appends to the lists as it goes, and stamps stats and
    budget_exceeded when it finishes.
    """

    parameters: dict[str, Any]
    counterexamples: list[Counterexample] = field(default_factory=list)
    equality_witnesses: list[EqualityWitness] = field(default_factory=list)
    stats: SearchStats = SearchStats(0, 0)
    budget_exceeded: bool = False
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.counterexamples and not self.budget_exceeded


def _generic(value):
    # mathematical integers travel as decimal strings (they outgrow 64 bits);
    # rationals as 'p/q'; structural ints (k, q, counts) stay JSON numbers
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, (list, tuple)):
        return [_generic(v) for v in value]
    if isinstance(value, dict):
        return {k: _generic(v) for k, v in value.items()}
    return value


def _big(value):
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [_big(v) for v in value]
    return str(value)


def report_to_dict(report: VerificationReport) -> dict[str, Any]:
    """JSON-ready dict: {passed, parameters, counterexamples,
    equality_witnesses, stats}, plus budget/details fields when relevant."""
    out: dict[str, Any] = {
        "passed": report.passed,
        "parameters": _generic(report.parameters),
        "counterexamples": [
            {
                "claim": c.claim,
                "values": _big(c.values),
                "delta": rational_str(c.delta) if c.delta is not None else None,
                "q": c.q,
            }
            for c in report.counterexamples
        ],
        "equality_witnesses": [
            {
                "denominators": _big(w.denominators),
                "delta": rational_str(w.delta),
                "q": w.q,
                "family": w.family,
            }
            for w in report.equality_witnesses
        ],
        "stats": {"nodes": report.stats.nodes, "millis": report.stats.millis},
    }
    if report.budget_exceeded:
        out["budget_exceeded"] = True
    if report.details:
        big_keys = {"max_lcm", "maximizers"}
        out["details"] = {
            k: (_big(v) if k in big_keys else _generic(v))
            for k, v in report.details.items()
        }
    return out
