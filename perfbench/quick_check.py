"""Quick self-test of the benchmark: every workload at reduced length.

Run from the root of a checkout::

    python3 perfbench/quick_check.py

For each workload it runs ``run.py --quick --seconds 1`` untraced and traced
and checks that the output checks pass, no op failed, and every metric named
in ``BENCHMARK.json`` is printed with its unit.  It also checks that the
benchmark refuses to run, without printing a result, in a directory that
holds no program.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run(["--workload", workload, "--seed", "7", "--seconds",
                        "1", "--trace", trace, "--quick"], root)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, sep="\n")
                raise SystemExit(f"FAIL {where}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"FAIL {where}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or not result["attempted"]:
                print(proc.stdout)
                raise SystemExit(f"FAIL {where}: checks did not pass")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                raise SystemExit(f"FAIL {where}: metrics {got} != {want}")
            print(f"ok   {where}: {result['attempted']} ops")

    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                    "1", "--trace", "0"], bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("FAIL: ran without a program to run")
        print("ok   refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
