"""Result records shared by the exhaustive verification routines."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any


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
    stats to SearchStats(0, 0). A verifier builds its report first, appends
    to the lists as it goes, and returns finish(nodes, exceeded), which
    stamps budget_exceeded and stats, timed from when the report was built.
    """

    parameters: dict[str, Any]
    counterexamples: list[Counterexample] = field(default_factory=list)
    equality_witnesses: list[EqualityWitness] = field(default_factory=list)
    stats: SearchStats = SearchStats(0, 0)
    budget_exceeded: bool = False
    details: dict[str, Any] = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter, init=False, repr=False,
                           compare=False)

    @property
    def passed(self) -> bool:
        return not self.counterexamples and not self.budget_exceeded

    def finish(self, nodes: int, exceeded: bool) -> VerificationReport:
        """Stamp a finished run's node count, time since started and budget flag."""
        millis = int((time.perf_counter() - self.started) * 1000)
        self.stats = SearchStats(nodes=nodes, millis=millis)
        self.budget_exceeded = exceeded
        return self


# mathematical integers travel as decimal strings (they outgrow 64 bits);
# rationals as 'p/q'; structural ints (k, q, counts) stay JSON numbers
def _parameter(value):
    # parameters are ints, strings, Fractions and a sweep's list of deltas
    if type(value) is Fraction:
        return str(value)
    if type(value) is list:
        return [str(v) for v in value]
    return value


def _detail(key: str, value):
    # max_lcm_search's three keys: a count, an lcm (None for an empty
    # class) and the tuples attaining it
    if key == "max_lcm":
        return None if value is None else str(value)
    if key == "maximizers":
        return [[str(m) for m in t] for t in value]
    return value


def report_to_dict(report: VerificationReport) -> dict[str, Any]:
    """JSON-ready dict: {passed, parameters, counterexamples,
    equality_witnesses, stats}, plus budget/details fields when relevant."""
    out: dict[str, Any] = {
        "passed": report.passed,
        "parameters": {k: _parameter(v) for k, v in report.parameters.items()},
        "counterexamples": [
            {
                "claim": c.claim,
                "values": [str(m) for m in c.values],
                "delta": str(c.delta) if c.delta is not None else None,
                "q": c.q,
            }
            for c in report.counterexamples
        ],
        "equality_witnesses": [
            {
                "denominators": [str(m) for m in w.denominators],
                "delta": str(w.delta),
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
        out["details"] = {k: _detail(k, v) for k, v in report.details.items()}
    return out
