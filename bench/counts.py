"""Deterministic counts of the first ops of each workload at the default seed.

    python3 bench/counts.py            # rewrite bench/counts.json

Each op is listed with its variant, kind and footprint (verdict, search nodes
and dedup hits; or lemma verdict and cases).  The counts do not depend on
timing, so a change in search behaviour shows up in the diff of counts.json.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
COUNTS_FILE = BENCH / "counts.json"
DEFAULT_SEED = 1
OPS_PER_WORKLOAD = {"pcp-search": 52, "sat-s5": 30, "lemma-check": 64}


def deterministic_counts() -> dict:
    sys.path.insert(0, str(BENCH.parent / "src"))
    import workloads

    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, n in OPS_PER_WORKLOAD.items():
        workload = workloads.WORKLOAD_TABLE[name]
        rows = []
        for op in workload.make_ops(DEFAULT_SEED)[:n]:
            rows.append([op.variant, op.kind, *workloads.counts(workload.run_op(op))])
        out["workloads"][name] = rows
    return out


def render(counts: dict) -> str:
    """JSON with one op per line, so that diffs point at single ops."""
    lines = ["{", f'  "seed": {counts["seed"]},', '  "workloads": {']
    names = list(counts["workloads"])
    for i, name in enumerate(names):
        rows = counts["workloads"][name]
        lines.append(f'    "{name}": [')
        lines += [f"      {json.dumps(r)}" + ("," if j < len(rows) - 1 else "") for j, r in enumerate(rows)]
        lines.append("    ]" + ("," if i < len(names) - 1 else ""))
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def main() -> int:
    COUNTS_FILE.write_text(render(deterministic_counts()))
    print(f"wrote {COUNTS_FILE.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
