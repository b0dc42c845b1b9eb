"""Write the reference CSV of each benchmark workload at REFERENCE_SEED.

Usage (from the repository root): python3 perfbench/make_reference.py [NAME ...]

Run only when a change deliberately alters the sweep output, and say so.
"""
from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, child_env
from workloads import REFERENCE_SEED, WORKLOADS


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            cfg = Path(tmp) / "workload.cfg"
            cfg.write_text(workload.config_text(REFERENCE_SEED))
            subprocess.run([sys.executable, "-m", "stripflow.cli", "sweep",
                            str(cfg), "--output", str(workload.reference)],
                           cwd=ROOT, env=child_env(), check=True,
                           stdout=subprocess.DEVNULL)
        print(f"wrote {workload.reference}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
