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


# the types of dict values that wire leaves as they are, tested in its
# dict branch to spare a call per value
_AS_IS = frozenset((int, str, bool, type(None)))


def wire(value):
    """The one JSON rule, since the paper's values outgrow 64 bits: a
    Fraction becomes 'p/q', a tuple or list a list whose ints are decimal
    strings, a dict is converted value by value, and anything else (a
    count, a modulus, a string, a bool, None) stays as it is."""
    if type(value) is Fraction:
        return str(value)
    if type(value) in (tuple, list):
        return [str(v) if type(v) is int else wire(v) for v in value]
    if type(value) is dict:
        return {key: v if type(v) in _AS_IS else wire(v) for key, v in value.items()}
    return value


def report_to_dict(report: VerificationReport) -> dict[str, Any]:
    """JSON-ready dict: {passed, parameters, counterexamples,
    equality_witnesses, stats}, plus budget/details fields when relevant.

    wire converts the parameters, every field of every counterexample and
    witness, and the details; max_lcm, the one integer of the details held
    outside a tuple, is converted here.
    """
    out: dict[str, Any] = {
        "passed": report.passed,
        "parameters": wire(report.parameters),
        "counterexamples": [wire(vars(c)) for c in report.counterexamples],
        "equality_witnesses": [wire(vars(w)) for w in report.equality_witnesses],
        "stats": {"nodes": report.stats.nodes, "millis": report.stats.millis},
    }
    if report.budget_exceeded:
        out["budget_exceeded"] = True
    if report.details:
        details = out["details"] = wire(report.details)
        if details["max_lcm"] is not None:
            details["max_lcm"] = str(details["max_lcm"])
    return out
