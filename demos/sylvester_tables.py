"""
Generalized Sylvester sequences
===============================

u(1, q) = q and u(p+1, q) = u(p, q) * (u(p, q) + 1).  The companion terms
1 + u(p, q) are the denominators that appear in every extremal tuple later
on, so this script prints a few tables and sanity-checks the two telescoping
identities that make the bounds computable:

    sum_{i<=p} 1/(1 + u(i, q)) = 1/q - 1/u(p+1, q)
    prod_{i<=p} (1 + u(i, q))  = u(p+1, q) / q
"""

from fractions import Fraction

from egyfrac import SylvesterTable, check_identities, sylvester_term, sylvester_u

for q in (1, 2, 3, 5):
    table = SylvesterTable(q)
    print(f"q = {q}")
    for p in range(1, 7):
        u = table.u(p)
        print(f"  u({p}) = {u:<30d} 1 + u({p}) = {1 + u}")
    print()

# the q = 1 companions are the classic sequence 2, 3, 7, 43, 1807, ...
print("classic companions:", [sylvester_term(p, 1) for p in range(1, 6)])

# the q = 2 table is the q = 1 table shifted by one position
print("shift check:", all(sylvester_u(p, 2) == sylvester_u(p + 1, 1) for p in range(1, 9)))
print()

# telescoping sum, spelled out once by hand for q = 3, p = 4
q, p = 3, 4
lhs = sum(Fraction(1, sylvester_term(i, q)) for i in range(1, p + 1))
rhs = Fraction(1, q) - Fraction(1, sylvester_u(p + 1, q))
print(f"sum of reciprocals of companions up to p={p}, q={q}: {lhs}")
print(f"1/q - 1/u(p+1):                                   {rhs}")

report = check_identities(12, 10)
print()
print(f"identity check over p <= 12, q <= 10: passed={report.passed},",
      f"{report.stats.nodes} cells")

# growth is doubly exponential: q^(2^(p-1)) <= u(p, q) < (q+1)^(2^(p-1))
q = 4
for p in range(1, 6):
    e = 2 ** (p - 1)
    u = sylvester_u(p, q)
    assert q**e <= u < (q + 1) ** e
    print(f"q^{e} <= u({p},{q}) < (q+1)^{e}:  {q**e} <= {u} < {(q+1)**e}")
