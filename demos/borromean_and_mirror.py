"""Three-component and mixed-component examples.

The Borromean rings: every two components form an unlink (their polynomial
vanishes, the data is split), yet the triple polynomial forces h(0,0,0) = 1,
so the rings do not bound disjoint disks; one surface must have genus 1.

The mirror of L7a3 pairs an unknot with a right-handed trefoil.  Its region
is generated by (1,1) and (0,2): the trefoil coordinate can never drop below
its own slice genus, and the minimal total genus is 2.
"""

from hfgenus import (HTable, admissible_region, best_lower_bound, catalog,
                     maximal_lattice_points, projection_check, region_from_h,
                     sublink)
from hfgenus.render import ascii_h_grid

print("=== borromean rings ===")
bor = catalog("borromean")
table = HTable(bor)
print("pairwise sublink polynomial (components 1,2):", bor.delta((0, 1)))
print("h at the origin:", table.h((0, 0, 0)))
print("h at (1,0,0), (0,1,0), (0,0,1):",
      [table.h(s) for s in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
print("region generators:", region_from_h(table).generators)
print("maximal lattice points:", maximal_lattice_points(table))
print("best 4-genus bound:", best_lower_bound(table)["best"])
print()

print("=== mirror of L7a3 ===")
mir = catalog("mirror_L7a3")
tm = HTable(mir)
print(ascii_h_grid(tm, 3))
region = region_from_h(tm)
print("region generators:", region.generators)
print("projections land in sublink regions:", projection_check(tm, region) == [])
print("the trefoil sublink's region:",
      region_from_h(HTable(sublink(mir, (1,)))).generators)
print("genus pairs meeting the inequality:", admissible_region(tm).generators)
print("best 4-genus bound:", best_lower_bound(tm)["best"])
