"""catalog-list: the catalog keys, each with its parameters."""

from __future__ import annotations

from ..cli import _emit
from ..linkcat import catalog_list


def run(args) -> int:
    return _emit(args, "".join(f"{e.key}:{e.params}\n" if e.params else f"{e.key}\n"
                               for e in catalog_list()))
