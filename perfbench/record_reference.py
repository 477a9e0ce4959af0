#!/usr/bin/env python3
"""Adds the pass digests and pinned-artefact hashes of the runs recorded in
.bench_build/ to perfbench/reference.json.

    python3 perfbench/run.py --workload W --seed 1 --seconds 20   # any runs
    python3 perfbench/record_reference.py

Entries are keyed by GEMM kernel (rows agree only to rounding across
kernels) and by pass sub-seed. An existing entry that disagrees with a new
run is an output change: the script stops and names it instead of
overwriting.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_build"
REFERENCE = HERE / "reference.json"


def main():
    manifest = json.loads((WORK / "perfbench-cache" / "manifest.json").read_text())
    kernel = manifest["kernel"]
    ref = (json.loads(REFERENCE.read_text()) if REFERENCE.is_file()
           else {"artefacts": {}, "digests": {}})
    have = ref["artefacts"].setdefault(kernel, manifest["files"])
    if have != manifest["files"]:
        sys.exit(f"record_reference: pinned artefacts differ from the "
                 f"recorded {kernel} set")
    added = 0
    for path in sorted((WORK / "perfbench-results").glob("*-trace*.json")):
        record = json.loads(path.read_text())
        stamp = record["stamp"]
        if stamp["kernel"] != kernel or not record["result"]["correct"]:
            continue
        table = ref["digests"].setdefault(kernel, {}).setdefault(
            stamp["workload"], {})
        for seed, digest in stamp["digests"]:
            key = str(seed)
            if key not in table:
                table[key] = digest
                added += 1
            elif table[key] != digest:
                sys.exit(f"record_reference: {stamp['workload']} sub-seed "
                         f"{seed}: {digest} != recorded {table[key]} "
                         f"({path.name})")
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"record_reference: {added} new pass digests for kernel {kernel}")


if __name__ == "__main__":
    main()
