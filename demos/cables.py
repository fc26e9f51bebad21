"""Cabling: the polynomial route and the region transform agree.

Cabling a component multiplies the Alexander polynomial by an explicit
closed-form factor after a power substitution; on regions the same operation
is the affine map T(s)_i = p_i s_i + (p_i-1)(q_i-1)/2.  Running both routes
and comparing generators is a strong end-to-end consistency check.
"""

from hfgenus import (CableSpec, HTable, T_transform, bound_min_region,
                     cable_alexander, cable_consistency_check, catalog,
                     region_from_h)
from hfgenus.linkcat import knot_genus

print("=== the unknot's (2,3)-cable is the trefoil ===")
cab = cable_alexander(catalog("unknot"), CableSpec(((2, 3),)))
print("polynomial:", cab.delta((0,)))
print("component 4-genus:", knot_genus(cab.delta((0,))))
print("region:", region_from_h(HTable(cab)).generators)
print()

print("=== cabling one component of the Whitehead link ===")
for p, q in [(2, 7), (3, 10)]:
    spec = CableSpec(((p, q), (1, 1)))
    report = cable_consistency_check(catalog("whitehead"), spec)
    shift = (p - 1) * (q - 1) // 2
    print(f"(p,q) = ({p},{q}):  T(0,0) = {T_transform(spec, (0, 0))}")
    print("  direct generators:     ", report["direct_generators"])
    print("  transformed generators:", report["transformed_generators"])
    print("  agree:", report["equal"], "  4-genus:",
          bound_min_region(HTable(cable_alexander(catalog("whitehead"), spec))),
          f"= (p-1)(q-1)/2 + 1 = {shift + 1}")
print()

print("=== cabling both components of a two-bridge link ===")
spec = CableSpec(((2, 9), (3, 13)))
report = cable_consistency_check(catalog("two_bridge", 2), spec)
print("direct generators:", report["direct_generators"])
print("the staircase runs are the cabling multiplicities (2 and 3), with")
print("k = 2 steps; both routes agree:", report["equal"])
print()

print("=== a cable below the largeness threshold is rejected honestly ===")
report = cable_consistency_check(catalog("two_bridge", 2),
                                 CableSpec(((2, 5), (3, 7))))
print("warnings:", report["warnings"])
print("direct route:", report["direct_error"])
print("transform route still prints the would-be staircase:",
      report["transformed_generators"])
