"""Round-tripping custom links through JSON, and the sign-resolution safety net.

A descriptor file carries the component list, the (identically zero) linking
matrix, and one symmetrized polynomial per nonempty component subset, with
half-integer exponents written as strings like "-1/2".  The overall sign of a
multi-component polynomial is not determined by symmetry; if a file stores the
wrong one, building the table flips it and the validator says so.
"""

import json
import tempfile
from pathlib import Path

from hfgenus import HTable, catalog, load_json, save_json
from hfgenus.linkjson import descriptor_to_dict

workdir = Path(tempfile.mkdtemp(prefix="hfgenus-demo-"))

print("=== save and reload the Whitehead link ===")
wh = catalog("whitehead")
path = workdir / "whitehead.json"
save_json(wh, path)
print(path.read_text()[:400], "...")
reloaded = load_json(path)
print("round trip equal:", reloaded == wh)
print()

print("=== a file with the flipped polynomial sign ===")
data = descriptor_to_dict(wh)
for term in data["alexander"]["1,2"]:
    term["coef"] = -term["coef"]
flipped_path = workdir / "whitehead-flipped.json"
flipped_path.write_text(json.dumps(data, indent=2, sort_keys=True))
flipped = load_json(flipped_path)  # symmetric either way, so it validates
table = HTable(flipped)
print("subsets whose stored sign had to be flipped:", table.flipped_signs())
print("h(0,0) after resolution:", table.h((0, 0)))
print()
print("The command line refuses such a file outright:")
print(f"  hfgenus validate --link {flipped_path}")
print("exits with status 2 and a hint naming the offending subset.")
