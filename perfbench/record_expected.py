"""Record the gate's seed data in perfbench/expected/ from the current source.

Usage (from the repository root):  python3 perfbench/record_expected.py

The files hold the certified grids, the per-subinterval verdicts, the
per-level records and the eigenvalues of the bundled 1D and 2D runs.  They
were recorded once, at the commit that introduced the benchmark.  A change
that makes the gate fail has changed the program's results; re-recording
hides that and is only right when the change to the results is the point.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
from job import ROOT, WORKLOADS, import_eigentrack, run_pipeline


def main() -> int:
    import_eigentrack()
    from eigentrack.config import parse_config_file
    from eigentrack.eigensolver import SnapshotProvider

    gate.EXPECTED_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT, prefix=".bench_work_record_"))
    try:
        for spec in {s["expected"]: s for s in WORKLOADS.values()}.values():
            cfg = parse_config_file(ROOT / "configs" / spec["config"])
            provider = SnapshotProvider(cfg, cache_dir=work / spec["expected"] / "cache")
            state, _, reference, rows = run_pipeline(
                cfg, provider, work / spec["expected"] / "out", 1, spec["reference_points"]
            )
            observed = gate.observe_run(state, provider, reference, rows)
            errors = gate.pinned_errors(observed, cfg.dim)
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            path = gate.EXPECTED_DIR / f"{spec['expected']}.json"
            path.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
