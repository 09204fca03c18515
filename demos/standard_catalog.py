"""
The catalog of standard small structures
========================================

"""

# every named class has a builder reachable through a small name grammar;
# semigroup names cover cyclic groups, null semigroups, monogenic
# semigroups, semilattices, one-sided zero semigroups and their variants
from dimonoids import build_semigroup, format_table

for name in ("C3", "O3", "M(3,1)", "L3", "LO3", "LO(2<-3)", "LOB3"):
    print(name)
    print(format_table(build_semigroup(name)))
    print()

# suffixes adjoin elements: +0 a shared zero, +1 an identity, ~1 an
# identity-like element u with u*u equal to the old identity
print("C2+0")
print(format_table(build_semigroup("C2+0")))
print()

# structure names pair two semigroup names with `|`, wrap a name in
# triv() for the diagonal pair, or apply (X)+0 to extend a pair
from dimonoids import build_structure, format_distructure

d = build_structure("LO3|RO3")
print("LO3|RO3")
print(format_distructure(d))
print()

# duality transposes both tables and swaps their roles; names dualize
# syntactically in step with the construction
from dimonoids import structure_dual_name

print("dual name:", structure_dual_name("LO3|O3"))
print(format_distructure(build_structure("LO3|O3").dual()))
print()

# the named canonical classes of each order and kind are enumerable
from dimonoids import named_structures

names = [name for name, _ in named_structures(2, "dimonoid")]
print("order-2 dimonoid names:", ", ".join(names))
