"""End-to-end and per-layer benchmark of the repro stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 2008 --seconds 20 --trace 0

Each run starts the workload in a fresh process (``child.py``) and prints a
report, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports the
per-layer metrics of one extra, traced round.  ``setup_s`` is the median
over ``SETUP_PROBES`` set-up-only processes and the measured one.  Every
timing is scaled to a reference speed of the machine by the probe thread
of ``pace.py``; the unscaled figures are printed before the result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-cold", "replay-long", "fuzz-campaign", "service-mix")
#: set-up-only processes per untraced run, besides the measured process
SETUP_PROBES = 4
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 165.0


def spawn(args: argparse.Namespace, *extra: str, timeout: float) -> dict:
    """Run ``child.py`` to completion; its last stdout line is its result."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *(["--quick"] if args.quick else []), *extra,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          check=False, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smaller rounds, for the quick self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec(root)

    start = time.monotonic()
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(args, "--probe", timeout=60)["setup_s"])
    left = CHILD_TIMEOUT_S - (time.monotonic() - start)
    result = spawn(args, timeout=max(left, 1.0))
    setups.append(result["setup_s"])

    errors = result["errors"] + result["op_errors"]
    if args.trace:
        names = spec["per_layer"]
        values = result["layers"]
    else:
        names = spec["end_to_end"]
        values = dict(result, setup_s=statistics.median(setups))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"timed {result['wall_s']:.2f} s  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    print("round times: " + " ".join(f"{s:.2f}" for s in result["round_s"]))
    if not args.trace:
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        print(f"speed factor {result['factor']:.4f}: {result['probes']} "
              f"probes, mean {result['probe_ms']:.4f} ms; unscaled: " + "  ".join(
                  f"{name} {value:.4f}" for name, value in result["raw"].items()))
        for kind, text in result["tails"].items():
            print(f"reference tail, {kind}: {text}")
    else:
        print(f"traced spans: {result['spans']}")
    metrics = {}
    for metric in names:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:24s} {value:16.4f} {metric['unit']}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
