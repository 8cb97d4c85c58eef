"""Instrumentation the benchmark wraps around the program's public functions.

Nothing here edits the program: every hook replaces a function object by a
wrapper in the namespace of each loaded ``repro`` module that refers to it
(or, for methods, on the class), so callers that imported the name with
``from ... import`` see the wrapper too.

``SimLog`` is installed in every run.  It keeps a few numbers per
``simulate_loop`` call, enough for the output checks and the exact
``sim_cycles`` metric; its cost is a function call and a ``numpy.sum`` per
simulated loop.

``Tracer`` is installed only in a traced run.  It records spans (name, start,
end, parent, op id) in memory, derives each layer's self time as the span's
duration minus the time covered by its child spans, counts work at the same
boundaries, and writes the spans out when the run ends.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def replace_everywhere(current, wrapper) -> int:
    """Point every ``repro`` module attribute bound to ``current`` at
    ``wrapper``; returns how many bindings were replaced."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is current:
                setattr(module, attr, wrapper)
                replaced += 1
    if replaced == 0:
        raise RuntimeError(f"no module refers to {current!r}")
    return replaced


class SimLog:
    """Per-call record of every ``simulate_loop`` run, tagged with an op id."""

    def __init__(self) -> None:
        self.op: int | None = None
        self.runs: list[dict] = []

    def install(self) -> None:
        import repro.sim.executor as executor

        original = executor.simulate_loop

        def simulate_loop(result, machine, layout, trip_counts, *args, **kw):
            run = original(result, machine, layout, trip_counts, *args, **kw)
            counters = run.counters
            self.runs.append({
                "op": self.op,
                "loop": run.loop_name,
                "pipelined": bool(result.pipelined),
                "ii": int(result.stats.ii),
                "sc": int(result.stats.stage_count) if result.pipelined else 1,
                "invocations": len(trip_counts),
                "trips": int(np.sum(trip_counts)),
                "cycles": float(run.cycles),
                "counters": counters,
            })
            return run

        replace_everywhere(original, simulate_loop)

    def by_op(self) -> dict[int, list[dict]]:
        out: dict[int, list[dict]] = defaultdict(list)
        for run in self.runs:
            out[run["op"]].append(run)
        return out


def check_loop_run(run: dict) -> list[str]:
    """The cycle-accounting identities every simulated loop must satisfy,
    re-derived from the trip counts and the schedule."""
    errors = []
    c = run["counters"]
    buckets = (c.unstalled + c.be_exe_bubble + c.be_l1d_fpu_bubble
               + c.be_rse_bubble + c.be_flush_bubble + c.back_end_bubble_fe)
    cycles = run["cycles"]
    if abs(buckets - cycles) > 1e-9 * max(1.0, abs(cycles)):
        errors.append(f"buckets sum {buckets} != cycles {cycles}")
    kernel = run["trips"] + run["invocations"] * (run["sc"] - 1)
    if c.kernel_iterations != kernel:
        errors.append(
            f"kernel_iterations {c.kernel_iterations} != sum(n+SC-1) {kernel}"
        )
    if cycles < run["ii"] * kernel * (1 - 1e-12):
        errors.append(f"cycles {cycles} < II*sum(n+SC-1) {run['ii'] * kernel}")
    if c.source_iterations != run["trips"]:
        errors.append(
            f"source_iterations {c.source_iterations} != sum(n) {run['trips']}"
        )
    return [f"{run['loop']}: {e}" for e in errors]


class Tracer:
    """In-memory spans around calls into each layer, with counts."""

    def __init__(self, simlog: SimLog) -> None:
        #: the op id of each span comes from the op the SimLog is in
        self.simlog = simlog
        #: when False the installed wrappers only call through
        self.enabled = True
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()

    # --- spans ---------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        # [id, name, start, time covered by children, parent]
        frame = [span_id, name, time.perf_counter(), 0.0, parent]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, name, start, children, parent = frame
        duration = end - start
        self.self_s[name] += duration - children
        if stack:
            stack[-1][3] += duration
        self.spans.append((span_id, name, start, end, parent, self.simlog.op))

    def wrap(self, fn, name: str, after=None):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self.begin(name)
            try:
                value = fn(*args, **kwargs)
            finally:
                self.end(frame)
            if after is not None:
                after(value, args)
            return value

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installation --------------------------------------------------------
    def install(self) -> None:
        import repro.analysis.perfmodel as perfmodel
        import repro.analysis.verify as verify
        import repro.fuzz.archexec as archexec
        import repro.fuzz.gen as gen
        import repro.fuzz.oracles as oracles
        import repro.hlo.hintpass as hintpass
        import repro.pipeliner.driver as driver
        import repro.sim.address as address
        import repro.sim.core as core
        import repro.sim.executor as executor
        import repro.sim.fastpath as fastpath
        from repro.harness.cache import ArtifactCache
        from repro.service.client import ServiceClient

        def pipelined(result, _args) -> None:
            stats = result.stats
            self.counts["pipeliner.attempts"] += stats.attempts
            if result.pipelined:
                self.counts["pipeliner.stages"] += stats.stage_count
                self.counts["pipeliner.rot_regs"] += sum(stats.rotating.values())

        def streams(result, _args) -> None:
            self.counts["sim.addresses"] += sum(
                len(arr) for arr in result.by_ref.values()
            )

        def cache_get(payload, _args) -> None:
            self.counts["harness.cache_hits" if payload is not None
                        else "harness.cache_misses"] += 1

        for module, attr, name, after in (
            (hintpass, "run_hlo", "hlo", None),
            (driver, "pipeline_loop", "pipeliner", pipelined),
            (verify, "verify_compiled", "analysis.verify", None),
            (perfmodel, "check_simulation", "analysis.bounds", None),
            (address, "build_streams", "sim.streams", streams),
            (core, "prepare_execution", "sim.prepare", None),
            (fastpath, "compile_kernel", "sim.codegen", None),
            (fastpath, "run_invocations_fast", "sim.replay", None),
            (core, "run_iterations", "sim.replay", None),
            (executor, "simulate_loop", "sim", None),
            (gen, "generate_loop", "fuzz.gen", None),
            (archexec, "run_reference", "fuzz.archexec", None),
            (archexec, "run_scheduled", "fuzz.archexec", None),
            (oracles, "check_loop", "fuzz.oracle", None),
        ):
            current = getattr(module, attr)
            replace_everywhere(current, self.wrap(current, name, after))

        replay_for = fastpath.CompiledKernel.replay_for

        def traced_replay_for(kernel, memory):
            if not self.enabled:
                return replay_for(kernel, memory)
            before = len(kernel._variants)
            frame = self.begin("sim.codegen")
            try:
                return replay_for(kernel, memory)
            finally:
                self.end(frame)
                self.counts["sim.codegen_calls"] += len(kernel._variants) - before

        fastpath.CompiledKernel.replay_for = traced_replay_for
        ArtifactCache.get = self.wrap(ArtifactCache.get, "harness.cache_get",
                                      cache_get)
        ArtifactCache.put = self.wrap(ArtifactCache.put, "harness.cache_put")
        ServiceClient.submit = self.wrap(ServiceClient.submit, "service.submit")
        ServiceClient.wait = self.wrap(ServiceClient.wait, "service.wait")

    # --- output --------------------------------------------------------------
    def self_ms(self, name: str) -> float:
        return 1000.0 * self.self_s.get(name, 0.0)

    def write(self, path: Path) -> None:
        """All spans as JSON lines: id, name, start/end (s), parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, op in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
