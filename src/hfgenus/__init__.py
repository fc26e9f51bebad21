"""Exact computation of H/h-functions, genus regions, 4-genus lower bounds,
surgery d-invariants, and cable transforms for L-space links with vanishing
pairwise linking numbers, from Alexander polynomial data.

The namespace is lazy (PEP 562): a layer is imported when one of its names is
first read, so a job loads only the layers it uses."""

_EXPORTS = {
    "laurent": ("LaurentPoly",),
    "symmetry": ("involution", "normalize_symmetric"),
    "linkcat": ("CatalogEntry", "Component", "LinkDescriptor", "catalog",
                "catalog_list"),
    "linkops": ("disjoint_union", "sublink"),
    "linkjson": ("load_json", "save_json"),
    "hfunction": ("HTable",),
    "region": ("UpwardClosedRegion", "maximal_lattice_points", "minimalize",
               "projection_check", "region_from_h", "region_product"),
    "bounds": ("admissible_region", "best_lower_bound", "bound_max_h",
               "bound_min_region", "bound_weighted", "f_cap", "genus_admissible",
               "unlink_test"),
    "surgery": ("circle_bundle_d", "large_surgery_d", "lens_d"),
    "cable": ("CableSpec", "T_transform", "cable_alexander",
              "cable_consistency_check", "geometric_cable_factor",
              "parse_cable_spec", "region_via_T", "substitute_powers"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
