"""
The three-element census and the open count
===========================================

"""

# the full order-3 run takes well under a second per kind
from dimonoids import classify_order

for kind in ("semigroup", "dimonoid", "doppelsemigroup"):
    report = classify_order(3, kind)
    s = report.summary
    print(f"{kind}: {s['labeled']} labeled, {s['total']} classes,",
          f"{s['commutative']} commutative, {s['abelian']} abelian")

# the interesting cell is the noncommutative nonabelian nontrivial
# dimonoids: structures where neither operation is commutative in the
# pair sense and the two operations genuinely differ
from dimonoids import solve_problem1, render_report

answer = solve_problem1()
for key, value in answer.summary.items():
    print(f"{key}: {value}")

# ten classes pair off with their duals; one class is carried onto its
# own dual by a relabeling even though its two tables differ
self_paired = [r for r in answer.rows if r.dual_key == r.key]
print("self-paired class key:", self_paired[0].key)

from dimonoids import format_distructure
from dimonoids.iso import distructure_from_key

print(format_distructure(distructure_from_key(bytes.fromhex(self_paired[0].key))))

# per-class details render as markdown, csv, or json
print(render_report(answer, "markdown").splitlines()[0])
