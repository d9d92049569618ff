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

    parameters is the only constructor argument: the lists start as fresh
    empty lists, details as an empty dict, stats as SearchStats(0, 0). A
    verifier builds its report first, appends to the lists as it goes, and
    returns finish(nodes, exceeded), which stamps budget_exceeded and
    stats, timed from when the report was built.
    """

    parameters: dict[str, Any]
    counterexamples: list[Counterexample] = field(default_factory=list, init=False)
    equality_witnesses: list[EqualityWitness] = field(default_factory=list, init=False)
    stats: SearchStats = field(default=SearchStats(0, 0), init=False)
    budget_exceeded: bool = field(default=False, init=False)
    details: dict[str, Any] = field(default_factory=dict, init=False)
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


def _json(fields: dict[str, Any]) -> dict[str, Any]:
    # rationals travel as 'p/q', tuples of integers and a sweep's deltas as
    # lists of decimal strings (integers outgrow 64 bits); structural ints
    # (k, q, counts), strings and None stay as they are
    return {
        key: str(value) if type(value) is Fraction
        else [str(v) for v in value] if type(value) in (tuple, list)
        else value
        for key, value in fields.items()
    }


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
    equality_witnesses, stats}, plus budget/details fields when relevant.

    One rule converts the parameters and every field of every
    counterexample and witness: a Fraction becomes 'p/q', a tuple or list
    a list of decimal strings, and anything else stays as it is.
    """
    out: dict[str, Any] = {
        "passed": report.passed,
        "parameters": _json(report.parameters),
        "counterexamples": [_json(vars(c)) for c in report.counterexamples],
        "equality_witnesses": [_json(vars(w)) for w in report.equality_witnesses],
        "stats": {"nodes": report.stats.nodes, "millis": report.stats.millis},
    }
    if report.budget_exceeded:
        out["budget_exceeded"] = True
    if report.details:
        out["details"] = {k: _detail(k, v) for k, v in report.details.items()}
    return out
