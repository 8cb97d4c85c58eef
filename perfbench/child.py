"""One workload in one fresh process: set up, run whole rounds of ops for
about ``--seconds`` (at least one round), check every op, and print one JSON
object on stdout.

Started by ``run.py``; ``--spawned-at`` is the parent's ``time.monotonic()``
just before it started this process, so ``setup_s`` covers interpreter start,
imports and the workload's own set-up, up to the first op.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def typical_ms(samples: list[tuple[str, float]]) -> float:
    """Median of ``(label, seconds)`` samples, in ms, after each sample is
    replaced by the mean of the samples with its label.

    Ops of one label repeat the same work.  At a two-speed machine the
    median of their times jumps between the two speeds and the mean does
    not.  The median over labels then falls on one label's cost instead of
    jumping between the costs of two labels with every small change of
    speed.
    """
    by_label: dict[str, list[float]] = {}
    for label, seconds in samples:
        by_label.setdefault(label, []).append(seconds)
    means = {label: statistics.fmean(v) for label, v in by_label.items()}
    return 1000.0 * statistics.median(means[label] for label, _ in samples)


def op_samples(ops: list, seconds) -> tuple[list, list, list]:
    """``(label, seconds)`` of each whole op, each hit and each miss, with
    ``seconds(span)`` the time given to one timed span."""
    return ([(op.label, sum(map(seconds, op.spans()))) for op in ops],
            [(op.label, seconds(hit)) for op in ops for hit in op.hits],
            [(op.label, seconds(op.miss)) for op in ops
             if op.miss is not None])


def tail(samples: list[tuple[str, float]]) -> str:
    """p90 as a reference figure, with its sample count."""
    values = [seconds for _, seconds in samples]
    if len(values) < 10:
        return f"n={len(values)} (too few for a p90)"
    p90 = statistics.quantiles(values, n=10)[-1]
    return f"p90={1000.0 * p90:.2f} ms n={len(values)}"


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
        probe: bool, spawned_at: float) -> dict:
    root = Path.cwd()
    start = time.perf_counter()
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import pace

    pace.pin()
    speed = pace.Pace()
    speed.start()
    import instrument
    import workloads

    cls = workloads.WORKLOADS[workload]
    for module in cls.imports:
        importlib.import_module(module)
    import_s = time.perf_counter() - start

    simlog = instrument.SimLog()
    simlog.install()
    tmp = root / ".perfbench" / f"tmp-{os.getpid()}"
    bench = cls(seed, quick, tmp, simlog)
    out: dict = {"import_s": import_s}
    try:
        bench.setup()
        out["setup_s"] = ((time.monotonic() - spawned_at)
                          * speed.factor(start, time.perf_counter()))
        if probe:
            return out

        ops: list = []
        round_walls: list[float] = []
        t0 = time.perf_counter()
        # whole rounds, stopping at the round boundary nearest to `seconds`
        while not round_walls or (time.perf_counter() - t0
                                  + round_walls[-1] / 2 < seconds):
            round_start = time.perf_counter()
            ops.extend(bench.run_round(len(round_walls), len(ops)))
            round_walls.append(time.perf_counter() - round_start)
        wall = time.perf_counter() - t0
        timed = len(ops)
        factor = speed.factor(t0, t0 + wall)
        probes = speed.probes(t0, t0 + wall)
        # the high-water mark of the workload itself, before the checks
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["sim_cycles"], out["hint_speedup"] = bench.exact(ops)

        if trace:
            tracer = instrument.Tracer(simlog)
            tracer.install()
            before = bench.stats()
            traced = bench.run_round(len(round_walls), len(ops))
            after = bench.stats()
            out["layers"] = layer_metrics(tracer, simlog, traced, timed,
                                          before, after, import_s)
            ops.extend(traced)
            # one more untraced round brackets the traced one in time
            tracer.enabled = False
            ops.extend(bench.run_round(len(round_walls) + 1, len(ops)))
            last = [op for op in ops[:timed] if op.round == len(round_walls) - 1]
            out["layers"]["trace.overhead_pct"] = overhead_pct(
                last + ops[timed + len(traced):], traced,
                lambda span: speed.scaled(span, factor))
            out["spans"] = len(tracer.spans)
            tracer.write(root / ".perfbench" / "spans"
                         / f"{workload}-seed{seed}.jsonl")

        out["errors"] = bench.check(ops)
    finally:
        bench.close()
        speed.stop()
        shutil.rmtree(tmp, ignore_errors=True)

    if workload == "service-mix":  # the worker process, reaped by close()
        rss_kb = max(rss_kb, resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss)
    timed_ops = ops[:timed]
    whole, hits, misses = op_samples(
        timed_ops, lambda span: speed.scaled(span, factor))
    raw = op_samples(timed_ops, lambda span: span[1] - span[0])
    out.update({
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.errors),
        "op_errors": [f"{op.label}: {e}" for op in ops for e in op.errors][:20],
        "round_s": round_walls,
        "wall_s": wall,
        "factor": factor,
        "probes": len(probes),
        "probe_ms": 1000.0 * statistics.fmean(probes),
        "ops_per_s": timed / (wall * factor),
        "op_p50_ms": typical_ms(whole),
        "hit_p50_ms": typical_ms(hits),
        "miss_p50_ms": typical_ms(misses),
        "peak_rss_mb": rss_kb / 1024.0,
        "raw": {"ops_per_s": timed / wall,
                **{f"{kind}_p50_ms": typical_ms(values)
                   for kind, values in zip(("op", "hit", "miss"), raw)}},
        "tails": {kind: tail(values)
                  for kind, values in zip(("op", "hit", "miss"), raw)},
    })
    return out


def overhead_pct(untraced: list, traced: list, seconds) -> float:
    """Tracing overhead: the geometric mean, over traced ops, of the op's
    time over the median time of untraced ops with the same label, taken
    from the untraced rounds just before and just after the traced one.
    ``seconds(span)`` is the time given to one timed span."""
    def op_s(op) -> float:
        return sum(map(seconds, op.spans()))

    by_label: dict[str, list[float]] = {}
    for op in untraced:
        by_label.setdefault(op.label, []).append(op_s(op))
    logs = [math.log(op_s(op) / statistics.median(by_label[op.label]))
            for op in traced if op.label in by_label]
    return 100.0 * (math.exp(sum(logs) / len(logs)) - 1.0)


def layer_metrics(tracer, simlog, traced, first_op, before, after,
                  import_s) -> dict:
    """The per-layer metrics of the traced round."""
    ms = tracer.self_ms
    counts = tracer.counts
    runs = [run for run in simlog.runs
            if run["op"] is not None and run["op"] >= first_op]
    levels = {level: 0 for level in (1, 2, 3, 4)}
    stall = ozq = iters = cycles = 0.0
    for run in runs:
        c = run["counters"]
        for level, n in c.loads_by_level.items():
            levels[level] += n
        stall += c.stall_cycles
        ozq += c.ozq_full_cycles
        iters += c.source_iterations
        cycles += run["cycles"]
    misses = [op for op in traced if op.miss_s is not None
              and "job" in op.data]
    run_ms = 1000.0 * sum(op.data["job"]["duration_s"] for op in misses)
    return {
        "import.ms": 1000.0 * import_s,
        "hlo.ms": ms("hlo"),
        "pipeliner.ms": ms("pipeliner"),
        "pipeliner.attempts": counts["pipeliner.attempts"],
        "pipeliner.stages": counts["pipeliner.stages"],
        "pipeliner.rot_regs": counts["pipeliner.rot_regs"],
        "analysis.verify_ms": ms("analysis.verify"),
        "analysis.bounds_ms": ms("analysis.bounds"),
        "sim.streams_ms": ms("sim.streams"),
        "sim.addresses": counts["sim.addresses"],
        "sim.prepare_ms": ms("sim.prepare"),
        "sim.codegen_ms": ms("sim.codegen"),
        "sim.codegen_calls": counts["sim.codegen_calls"],
        "sim.replay_ms": ms("sim.replay"),
        "sim.self_ms": ms("sim"),
        "sim.iters": iters,
        "sim.cycles": cycles,
        "sim.loads_l1": levels[1],
        "sim.loads_l2": levels[2],
        "sim.loads_l3": levels[3],
        "sim.loads_mem": levels[4],
        "sim.stall_cycles": stall,
        "sim.ozq_full_cycles": ozq,
        "fuzz.gen_ms": ms("fuzz.gen"),
        "fuzz.archexec_ms": ms("fuzz.archexec"),
        "fuzz.oracle_ms": ms("fuzz.oracle"),
        "harness.cache_put_ms": ms("harness.cache_put"),
        "harness.cache_misses": counts["harness.cache_misses"],
        "harness.cache_get_ms": ms("harness.cache_get"),
        "harness.cache_hits": counts["harness.cache_hits"],
        "service.submit_ms": ms("service.submit"),
        "service.wait_ms": ms("service.wait"),
        "service.run_ms": run_ms,
        "service.queue_ms": sum(1000.0 * op.miss_s for op in misses) - run_ms,
        "service.worker_execs": (after.get("executed", 0)
                                 - before.get("executed", 0)),
        "service.store_hits": (after.get("served_from_store", 0)
                               - before.get("served_from_store", 0)),
    }


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.quick, args.probe, args.spawned_at)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
