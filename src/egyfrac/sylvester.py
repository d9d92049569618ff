"""Generalized Sylvester sequences.

For an integer seed q >= 1, the sequence u(1, q) = q, u(p+1, q) =
u(p, q) * (u(p, q) + 1) grows doubly exponentially; its companion terms
1 + u(p, q) run 2, 3, 7, 43, 1807, ... when q = 1. Two exact identities tie
the pair together and everything downstream leans on them:

    sum_{i=1..p} 1/(1 + u(i, q))  ==  1/q - 1/u(p+1, q)
    prod_{i=1..p} (1 + u(i, q))   ==  u(p+1, q) / q
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

from .report import Counterexample, SearchStats, VerificationReport

# u(p+1, q) has about twice the bits of u(p, q), so a ceiling on bits stops a
# runaway index within a few squarings: 2**20 bits admit u(21, 1) (709,033
# bits) and refuse u(22, 1)
MAX_BITS = 2**20


class SylvesterTable:
    """Memoized prefix of u(., q) for one seed, grown lazily.

    No value past MAX_BITS bits is built: u raises ValueError before a
    squaring whose product could pass the ceiling, so a huge index fails at
    once instead of exhausting memory. Extension happens under a lock, so
    shared tables are thread-safe.
    """

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 1:
            raise ValueError(f"seed q must be a positive integer, got {q!r}")
        self.q = q
        self._values = [q]
        self._lock = threading.Lock()

    def u(self, p: int) -> int:
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"index p must be a positive integer, got {p!r}")
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

    def term(self, p: int) -> int:
        return 1 + self.u(p)

    def prefix(self, p_max: int) -> list[int]:
        """u(1, q) .. u(p_max, q) as a list."""
        self.u(p_max)
        return self._values[:p_max]


_tables: dict[int, SylvesterTable] = {}
_tables_lock = threading.Lock()


def _shared_table(q: int) -> SylvesterTable:
    with _tables_lock:
        table = _tables.get(q)
        if table is None:
            table = _tables[q] = SylvesterTable(q)
        return table


def sylvester_u(p: int, q: int) -> int:
    """u(p, q): the doubly exponential core sequence, memoized per seed."""
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"seed q must be a positive integer, got {q!r}")
    return _shared_table(q).u(p)


def sylvester_term(p: int, q: int) -> int:
    """Companion term 1 + u(p, q); for q = 1: 2, 3, 7, 43, 1807, ..."""
    return 1 + sylvester_u(p, q)


def check_identities(p_max: int, q_max: int) -> VerificationReport:
    """Verify both defining identities exactly for all p <= p_max, q <= q_max.

    Returns a report whose counterexamples carry any violating (p, q) pair;
    stats.nodes counts the identity instances checked.
    """
    if p_max < 1 or q_max < 1:
        raise ValueError(f"ranges must be positive, got p_max={p_max}, q_max={q_max}")
    t0 = time.perf_counter()
    counterexamples: list[Counterexample] = []
    checked = 0
    for q in range(1, q_max + 1):
        table = _shared_table(q)
        total = Fraction(0)
        product = 1
        for p in range(1, p_max + 1):
            term = table.term(p)
            total += Fraction(1, term)
            product *= term
            checked += 1
            nxt = table.u(p + 1)
            if total != Fraction(1, q) - Fraction(1, nxt):
                counterexamples.append(
                    Counterexample("reciprocal sum identity", (p, q), q=q)
                )
            if product * q != nxt:
                counterexamples.append(
                    Counterexample("companion product identity", (p, q), q=q)
                )
    millis = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(
        parameters={"p_max": p_max, "q_max": q_max},
        counterexamples=counterexamples,
        stats=SearchStats(nodes=checked, millis=millis),
    )
