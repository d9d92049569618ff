"""Generalized Sylvester sequences.

For an integer seed q >= 1, the sequence u(1, q) = q, u(p+1, q) =
u(p, q) * (u(p, q) + 1) grows doubly exponentially; its companion terms
1 + u(p, q) run 2, 3, 7, 43, 1807, ... when q = 1. Two exact identities tie
the pair together and everything downstream leans on them:

    sum_{i=1..p} 1/(1 + u(i, q))  ==  1/q - 1/u(p+1, q)
    prod_{i=1..p} (1 + u(i, q))   ==  u(p+1, q) / q
"""

from __future__ import annotations

import functools
import threading

from .rationals import as_int
from .report import Counterexample, VerificationReport

# u(p+1, q) has about twice the bits of u(p, q), so a ceiling on bits stops a
# runaway index within a few squarings: 2**20 bits admit u(21, 1) (709,033
# bits) and refuse u(22, 1)
MAX_BITS = 2**20

# tables are kept for the MAX_TABLES most recently used seeds: a bench pass
# reads at most 19 seeds and a sweep each seed for one run of cells, so an
# older seed is dropped rather than held for the life of the process
MAX_TABLES = 64


class SylvesterTable:
    """Memoized prefix of u(., q) for one seed, grown lazily.

    No value past MAX_BITS bits is built: u raises ValueError before a
    squaring whose product could pass the ceiling, so a huge index fails at
    once instead of exhausting memory. Extension happens under a lock, so
    shared tables are thread-safe. A value already built is read without
    it: values are only ever appended, under the lock, so an index below
    the list's length names a value that is complete and never changes.
    """

    def __init__(self, q: int):
        self.q = as_int(q, "seed q")
        self._values = [q]
        self._lock = threading.Lock()

    def u(self, p: int) -> int:
        as_int(p, "index p")
        values = self._values
        if p <= len(values):
            return values[p - 1]
        with self._lock:
            while len(self._values) < p:
                last = self._values[-1]
                if 2 * last.bit_length() > MAX_BITS:
                    raise ValueError(
                        f"u({p}, {self.q}) passes the {MAX_BITS}-bit ceiling on "
                        f"Sylvester values: u({len(self._values)}, {self.q}) "
                        f"already has {last.bit_length()} bits"
                    )
                self._values.append(last * (last + 1))
            return self._values[p - 1]


# lru_cache is thread-safe: two threads that miss one q at once may each
# build a table, but only one is stored, and both hold the same values
@functools.lru_cache(maxsize=MAX_TABLES)
def _shared_table(q: int) -> SylvesterTable:
    return SylvesterTable(q)


def sylvester_u(p: int, q: int) -> int:
    """u(p, q): the doubly exponential core sequence, memoized per seed for
    the MAX_TABLES most recently used seeds."""
    return _shared_table(as_int(q, "seed q")).u(p)


def sylvester_term(p: int, q: int) -> int:
    """Companion term 1 + u(p, q); for q = 1: 2, 3, 7, 43, 1807, ..."""
    return 1 + sylvester_u(p, q)


def check_identities(p_max: int, q_max: int) -> VerificationReport:
    """Verify both defining identities exactly for all p <= p_max, q <= q_max.

    Returns a report whose counterexamples carry any violating (p, q) pair;
    stats.nodes counts the identity instances checked.
    """
    as_int(p_max, "p_max")
    as_int(q_max, "q_max")
    report = VerificationReport({"p_max": p_max, "q_max": q_max})
    for q in range(1, q_max + 1):
        table = _shared_table(q)
        # the running sum num/den, unreduced, so den is the running
        # product; the sum identity is checked by cross-multiplying
        num, den = 0, 1
        for p in range(1, p_max + 1):
            term = 1 + table.u(p)
            num, den = num * term + den, den * term
            nxt = table.u(p + 1)
            # num/den == 1/q - 1/nxt == (nxt - q)/(q * nxt)
            if num * q * nxt != (nxt - q) * den:
                report.counterexamples.append(
                    Counterexample("reciprocal sum identity", (p, q), q=q)
                )
            if den * q != nxt:
                report.counterexamples.append(
                    Counterexample("companion product identity", (p, q), q=q)
                )
    return report.finish(p_max * q_max, False)
