"""Exact computation of H/h-functions, genus regions, 4-genus lower bounds,
surgery d-invariants, and cable transforms for L-space links with vanishing
pairwise linking numbers, from Alexander polynomial data."""

from .laurent import (LaurentPoly, exact_div, geometric_cable_factor,
                      involution, normalize_symmetric, substitute_powers,
                      support_box)
from .linkcat import (CatalogEntry, Component, LinkDescriptor, catalog,
                      catalog_list, disjoint_union, load_json, save_json,
                      sublink, validate_descriptor)
from .hfunction import HTable
from .region import (UpwardClosedRegion, maximal_lattice_points, minimalize,
                     projection_check, region_from_h, region_product)
from .bounds import (admissible_region, best_lower_bound, bound_max_h,
                     bound_min_region, bound_weighted, circle_bundle_d, f_cap,
                     genus_admissible, large_surgery_d, lens_d, unlink_test)
from .cable import (CableSpec, T_transform, cable_alexander,
                    cable_consistency_check, parse_cable_spec, region_via_T)

__all__ = [
    "LaurentPoly", "exact_div", "geometric_cable_factor", "involution",
    "normalize_symmetric", "substitute_powers", "support_box",
    "CatalogEntry", "Component", "LinkDescriptor", "catalog", "catalog_list",
    "disjoint_union", "load_json", "save_json", "sublink", "validate_descriptor",
    "HTable",
    "UpwardClosedRegion", "maximal_lattice_points", "minimalize",
    "projection_check", "region_from_h", "region_product",
    "admissible_region", "best_lower_bound", "bound_max_h", "bound_min_region",
    "bound_weighted", "circle_bundle_d", "f_cap", "genus_admissible",
    "large_surgery_d", "lens_d", "unlink_test",
    "CableSpec", "T_transform", "cable_alexander", "cable_consistency_check",
    "parse_cable_spec", "region_via_T",
]

__version__ = "0.1.0"
