"""Regenerate the kept references in perfbench/reference.json.

Each entry is computed through tauc's library API (check.library_reference),
not through the command line that the benchmark times. Run it when a
recipe in fixtures.py changes, or when a change is meant to alter costs,
and say so in the change. Usage:

    python3 perfbench/make_reference.py --seeds 0-31 [--workload day ...]
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import check, fixtures  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def dump(stored: dict) -> str:
    """JSON with one line per workload and seed, so a rebuilt seed is one changed line."""
    parts = []
    for workload, entry in sorted(stored.items()):
        ordered = sorted(entry["seeds"].items(), key=lambda kv: int(kv[0]))
        seeds = ",\n".join(f'  "{s}": {json.dumps(r, sort_keys=True)}' for s, r in ordered)
        parts.append(
            f' "{workload}": {{"recipe_digest": "{entry["recipe_digest"]}", "seeds": {{\n{seeds}\n }}}}'
        )
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="range such as 0-31")
    parser.add_argument("--workload", nargs="*", default=list(fixtures.WORKLOADS))
    args = parser.parse_args()
    stored = json.loads(check.REFERENCE_FILE.read_text()) if check.REFERENCE_FILE.exists() else {}
    scratch = ROOT / ".perfbench" / "reference"
    for workload in args.workload:
        digest = fixtures.recipe_digest(workload)
        entry = stored.get(workload)
        if not entry or entry["recipe_digest"] != digest:
            entry = stored[workload] = {"recipe_digest": digest, "seeds": {}}
        for seed in args.seeds:
            fixture = fixtures.generate(workload, seed, scratch / f"{workload}-{seed}")
            entry["seeds"][str(seed)] = [
                check.library_reference(fixture, i) for i in range(fixture.inputs)
            ]
            print(f"{workload} seed {seed}", flush=True)
        check.REFERENCE_FILE.write_text(dump(stored))
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
