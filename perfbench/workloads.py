"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (counted in
``setup_s``), runs one *round* of ops per ``run_round`` call and returns one
``Op`` per op, and checks every op's outputs afterwards in ``check``.  An op
runs the work cold (the "miss": computed, and written to a fresh cache) and
then ``WARM_RUNS`` times warm (the "hits": served from that cache), except
in ``service-mix``, where an op is one request, a miss or a hit, and each
miss is followed by ``HITS_PER_MISS`` re-sent earlier requests.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import time
from pathlib import Path

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.harness import ArtifactCache, run_suite
from repro.workloads.spec import cpu2000_suite, cpu2006_suite, micro_suite

from instrument import check_loop_run

#: warm re-runs per cold run; a warm run takes milliseconds, so it takes
#: many to average over the machine's changes of speed
WARM_RUNS = 10
#: re-sent requests per first request of the service
HITS_PER_MISS = 3

#: the Fig. 8 pair: the baseline compiler and HLO hints at threshold 32
CONFIGS = (
    baseline_config(),
    CompilerConfig(hint_policy=HintPolicy.HLO, trip_count_threshold=32),
)


#: ``(start, end)`` ``time.perf_counter()`` readings around timed work
Span = tuple[float, float]


@dataclasses.dataclass
class Op:
    """One timed op and what its checks need."""

    round: int
    #: ops with the same label repeat the same work: the same benchmark,
    #: loop or fuzz batch, or a miss (or hit) of the same loop and config
    label: str
    miss: Span | None = None
    hits: list[Span] = dataclasses.field(default_factory=list)
    data: dict = dataclasses.field(default_factory=dict)
    errors: list[str] = dataclasses.field(default_factory=list)

    def spans(self) -> list[Span]:
        return ([self.miss] if self.miss is not None else []) + self.hits

    @property
    def miss_s(self) -> float | None:
        return None if self.miss is None else self.miss[1] - self.miss[0]


def timed_repeats(work) -> tuple[list, list[Span]]:
    """``work()`` once cold and ``WARM_RUNS`` times warm, each timed."""
    results, spans = [], []
    for _ in range(1 + WARM_RUNS):
        start = time.perf_counter()
        results.append(work())
        spans.append((start, time.perf_counter()))
    return results, spans


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def shuffled(items: list, seed: int, round_index: int) -> list:
    out = list(items)
    random.Random(f"{seed}/{round_index}").shuffle(out)
    return out


class Workload:
    name = ""
    #: modules imported before set-up, beyond this module's own imports;
    #: their import time counts as ``import.ms``
    imports: tuple[str, ...] = ()

    def __init__(self, seed: int, quick: bool, tmp: Path, simlog) -> None:
        self.seed = seed
        self.quick = quick
        self.tmp = tmp
        self.simlog = simlog
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.tmp / f"d{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def check(self, ops: list[Op]) -> list[str]:
        """Fill each op's ``errors``; returns workload-level errors."""
        return []

    def exact(self, ops: list[Op]) -> tuple[float, float]:
        """``(sim_cycles, hint_speedup)`` over the ops of the first round."""
        raise NotImplementedError

    def stats(self) -> dict:
        """Server-side job counters (the service workload only)."""
        return {}

    def sim_cycles(self, ops: list[Op]) -> float:
        runs = self.simlog.by_op()
        return sum(run["cycles"] for index, op in enumerate(ops)
                   if op.round == ops[0].round for run in runs.get(index, ()))


class SuiteOps(Workload):
    """Benchmarks through ``run_suite``: each op runs one benchmark under
    both configs into a fresh artifact cache, then re-runs it warm."""

    verify = False

    def benchmarks(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        self.benches = self.benchmarks()

    def run_round(self, round_index: int, first_op: int) -> list[Op]:
        ops = []
        for i, bench in enumerate(shuffled(self.benches, self.seed, round_index)):
            self.simlog.op = first_op + i
            cache_dir = self.fresh_dir()
            runs, spans = timed_repeats(lambda: run_suite(
                [bench], list(CONFIGS), seed=self.seed,
                cache=ArtifactCache(cache_dir), verify=self.verify,
                manifest_path=""))
            self.simlog.op = None
            shutil.rmtree(cache_dir)
            ops.append(Op(round_index, bench.name, spans[0], spans[1:],
                          {"cold": runs[0].manifest.cells,
                           "warm": [r.manifest.cells for r in runs[1:]]}))
        return ops

    def check(self, ops: list[Op]) -> list[str]:
        runs_by_op = self.simlog.by_op()
        for index, op in enumerate(ops):
            runs = runs_by_op.get(index, [])
            if not runs:
                op.errors.append("no loop was simulated")
            for run in runs:
                op.errors.extend(check_loop_run(run))
            cold = op.data["cold"]
            if len(cold) != len(CONFIGS):
                op.errors.append("missing cells")
            for cell in cold:
                if cell.status != "ok" or cell.cache_hit:
                    op.errors.append(f"cold cell {cell.config}: {cell.status}, "
                                     f"cache_hit={cell.cache_hit}")
                if self.verify and not (cell.verified and cell.bounds_checked):
                    op.errors.append(f"cell {cell.config} was not verified")
                if cell.verify_errors or cell.bounds_violations:
                    op.errors.append(
                        f"cell {cell.config}: {cell.verify_errors} verify "
                        f"errors, {cell.bounds_violations} bound violations")
            for warm in op.data["warm"]:
                if [(c.config, c.total_cycles, c.loop_cycles) for c in warm] != [
                        (c.config, c.total_cycles, c.loop_cycles) for c in cold
                ] or not all(c.cache_hit for c in warm):
                    op.errors.append("a warm run is not the cold one")
        return []

    def exact(self, ops: list[Op]) -> tuple[float, float]:
        ratios = []
        for op in ops:
            if op.round != ops[0].round:
                break
            cycles = {cell.config: cell.total_cycles for cell in op.data["cold"]}
            ratios.append(cycles[CONFIGS[0].label] / cycles[CONFIGS[1].label])
        return self.sim_cycles(ops), geomean(ratios)


class SweepCold(SuiteOps):
    """All 59 suite benchmarks, cold, verified: the paper's Fig. 8 sweep."""

    name = "sweep-cold"
    verify = True

    def benchmarks(self) -> list:
        if self.quick:
            return micro_suite()
        return micro_suite() + cpu2000_suite() + cpu2006_suite()


#: one suite loop per memory archetype
REPLAY_LOOPS = (
    ("462.libquantum", "streaming"),
    ("444.namd", "fp-gather"),
    ("471.omnetpp", "pointer-chase"),
    ("410.bwaves", "stencil"),
    ("464.h264ref", "low-trip-count"),
)
#: invocations simulated per suite invocation
REPLAY_SCALE = 10


class ReplayLong(SuiteOps):
    """One loop per memory archetype, at 10x its suite invocations."""

    name = "replay-long"

    def benchmarks(self) -> list:
        by_name = {b.name: b for b in cpu2006_suite()}
        scale = 1 if self.quick else REPLAY_SCALE
        picked = REPLAY_LOOPS[:2] if self.quick else REPLAY_LOOPS
        out = []
        for name, _archetype in picked:
            bench = by_name[name]
            loop = bench.loops[0]
            out.append(dataclasses.replace(bench, loops=(dataclasses.replace(
                loop, invocations=loop.invocations * scale),)))
        return out


#: campaign seeds 0..49, five cases per op
FUZZ_CASES = 50
FUZZ_BATCH = 5
#: campaign seeds 0.. run again with the drop-edge scheduler fault injected
INJECT_SEEDS = 20


def campaign(**options):
    """One serial ``run_fuzz`` campaign without shrinking."""
    from repro.fuzz.runner import FuzzOptions, run_fuzz

    return run_fuzz(FuzzOptions(jobs=1, shrink=False, **options))


class FuzzCampaign(Workload):
    """``run_fuzz`` over fixed-size batches of consecutive seeds."""

    name = "fuzz-campaign"
    imports = ("repro.fuzz.runner",)

    def setup(self) -> None:
        cases, batch = (6, 3) if self.quick else (FUZZ_CASES, FUZZ_BATCH)
        self.batches = list(range(0, cases, batch))
        self.batch = batch

    def run_round(self, round_index: int, first_op: int) -> list[Op]:
        ops = []
        for i, start in enumerate(shuffled(self.batches, self.seed, round_index)):
            self.simlog.op = first_op + i
            cache_dir = self.fresh_dir()
            runs, spans = timed_repeats(lambda: campaign(
                cases=self.batch, seed=start, cache_dir=cache_dir))
            self.simlog.op = None
            shutil.rmtree(cache_dir)
            ops.append(Op(round_index, f"seeds {start}..{start + self.batch - 1}",
                          spans[0], spans[1:], {"runs": runs}))
        return ops

    def check(self, ops: list[Op]) -> list[str]:
        runs_by_op = self.simlog.by_op()
        for index, op in enumerate(ops):
            for i, summary in enumerate(op.data["runs"]):
                hits = self.batch if i else 0
                if summary.cases != self.batch or summary.cache_hits != hits:
                    op.errors.append(f"{summary.cases} cases, "
                                     f"{summary.cache_hits} cache hits")
                for failure in summary.failures:
                    op.errors.append(
                        f"seed {failure['seed']}: {failure['violations'][:1]}")
            for run in runs_by_op.get(index, []):
                op.errors.extend(check_loop_run(run))
        # the oracles must catch a scheduler that drops a dependence edge
        injected = campaign(cases=INJECT_SEEDS, seed=0, inject="drop-edge",
                            simulate=False, metamorphic=False)
        if not injected.failures:
            return [f"drop-edge injected into seeds 0..{INJECT_SEEDS - 1} "
                    "was never caught"]
        return []

    def exact(self, ops: list[Op]) -> tuple[float, float]:
        """Hint speedup over the loops of campaign seeds 0..9: each is
        compiled under both configs and simulated on the interpreter."""
        from repro.core.compiler import LoopCompiler
        from repro.fuzz.gen import GenConfig, generate_loop
        from repro.machine.itanium2 import ItaniumMachine
        from repro.sim.address import StreamSpec
        from repro.sim.executor import simulate_loop

        machine = ItaniumMachine()
        ratios = []
        for seed in range(10):
            loop = generate_loop(seed, GenConfig())
            layout = {ref.space: StreamSpec(size=8 << 20)
                      for ref in loop.memrefs}
            cycles = []
            for config in CONFIGS:
                compiled = LoopCompiler(machine, config).compile(loop)
                cycles.append(simulate_loop(compiled.result, machine, layout,
                                            [100, 100], backend="interp").cycles)
            ratios.append(cycles[0] / cycles[1])
        return self.sim_cycles(ops), geomean(ratios)


#: benchmarks whose hot loop the service is asked to simulate
SERVICE_LOOPS = ("401.bzip2", "433.milc", "444.namd", "471.omnetpp",
                 "454.calculix", "464.h264ref")
#: trip count of every request; the seed varies the address streams
SERVICE_TRIPS = 200


class ServiceMix(Workload):
    """A one-worker service and one closed-loop client."""

    name = "service-mix"
    imports = ("repro.service", "repro.ir.printer")

    def setup(self) -> None:
        from repro.ir.printer import loop_to_source
        from repro.service import ServerConfig, ServiceClient, serve_in_thread

        by_name = {b.name: b for b in cpu2006_suite()}
        picked = SERVICE_LOOPS[:2] if self.quick else SERVICE_LOOPS
        self.loops = []
        for bench_name in picked:
            loop, layout = by_name[bench_name].loops[0].build()
            self.loops.append((loop, {
                space: {"size": spec.size, "reuse": spec.reuse}
                for space, spec in sorted(layout.items())
            }, loop_to_source(loop)))
        store = self.tmp / "service"
        self.handle = serve_in_thread(ServerConfig(
            port=0, workers=1, cache_dir=str(store / "store"),
            runs_dir=str(store / "runs"),
            log_path=str(store / "requests.jsonl")))
        self.client = ServiceClient(self.handle.url)
        self.client.wait_until_ready()

    def close(self) -> None:
        self.handle.stop()

    def requests(self, round_index: int) -> list[tuple[int, dict]]:
        """The round's distinct requests, each with its loop's index."""
        rng = random.Random(f"{self.seed}/{round_index}/requests")
        out = []
        for i, (_loop, spaces, text) in enumerate(self.loops):
            seed = rng.randrange(2**31 - 1)
            for config in CONFIGS:
                out.append((i, {
                    "loop": text, "spaces": spaces, "trips": SERVICE_TRIPS,
                    "invocations": 2, "seed": seed,
                    "policy": config.hint_policy.value,
                    "threshold": config.trip_count_threshold,
                }))
        return shuffled(out, self.seed, round_index)

    def run_round(self, round_index: int, first_op: int) -> list[Op]:
        """Each distinct request once (a miss), and after each miss
        ``HITS_PER_MISS`` re-sends of requests already answered (hits)."""
        rng = random.Random(f"{self.seed}/{round_index}/hits")
        ops: list[Op] = []
        misses: list[Op] = []
        for loop_index, request in self.requests(round_index):
            self.simlog.op = first_op + len(ops)
            miss = self._send(round_index, request, loop_index, None)
            ops.append(miss)
            misses.append(miss)
            for _ in range(HITS_PER_MISS):
                self.simlog.op = first_op + len(ops)
                earlier = rng.choice(misses)
                ops.append(self._send(round_index, earlier.data["request"],
                                      earlier.data["loop_index"], earlier))
        self.simlog.op = None
        return ops

    def _send(self, round_index, request, loop_index, miss: Op | None) -> Op:
        start = time.perf_counter()
        job = self.client.submit("simulate", **request)["job"]
        waited = job["status"] not in ("done", "error", "timeout")
        if waited:
            job = self.client.wait(job["id"])
        span = (start, time.perf_counter())
        kind = "hit" if miss is not None else "miss"
        label = f"{kind} {self.loops[loop_index][0].name} {request['policy']}"
        return Op(round_index, label,
                  span if miss is None else None,
                  [span] if miss is not None else [],
                  {"request": request, "loop_index": loop_index,
                   "job": job, "miss": miss, "waited": waited})

    def stats(self) -> dict:
        return self.client.stats()["jobs"]

    def check(self, ops: list[Op]) -> list[str]:
        from repro.core.compiler import LoopCompiler
        from repro.harness.jobs import counters_to_dict
        from repro.ir.parser import parse_loop
        from repro.machine.itanium2 import ItaniumMachine
        from repro.sim.address import StreamSpec
        from repro.sim.executor import simulate_loop

        machine = ItaniumMachine()
        misses = 0
        for op in ops:
            job = op.data["job"]
            if job["status"] != "done":
                op.errors.append(f"job {job['status']}: {job.get('error')}")
                continue
            miss = op.data["miss"]
            if miss is not None:
                if op.data["waited"] or job["result"] != miss.data["job"]["result"]:
                    op.errors.append("hit differs from its miss")
                continue
            misses += 1
            request = op.data["request"]
            loop = parse_loop(request["loop"])
            config = _config(request)
            compiled = LoopCompiler(machine, config).compile(loop)
            layout = {space: StreamSpec(size=spec["size"], reuse=spec["reuse"])
                      for space, spec in request["spaces"].items()}
            # on the interpreter: the worker's default backend is checked
            # against the other implementation, at a seventh of the cost
            run = simulate_loop(compiled.result, machine, layout,
                                [request["trips"]] * request["invocations"],
                                seed=request["seed"], backend="interp")
            result = job["result"]
            expected = json.loads(json.dumps(counters_to_dict(run.counters)))
            if (result["cycles"] != float(run.cycles)
                    or result["counters"] != expected):
                op.errors.append("miss differs from the in-process run")
        stats = self.stats()
        hits = len(ops) - misses
        errors = []
        if stats["executed"] != misses:
            errors.append(f"{stats['executed']} worker executions for "
                          f"{misses} misses")
        if stats["served_from_store"] != hits:
            errors.append(f"{stats['served_from_store']} store-served "
                          f"replies for {hits} hits")
        return errors

    def exact(self, ops: list[Op]) -> tuple[float, float]:
        cycles: dict[tuple[int, str], float] = {}
        for op in ops:
            if op.round == ops[0].round and op.data["miss"] is None:
                key = (op.data["loop_index"], op.data["request"]["policy"])
                cycles[key] = op.data["job"]["result"]["cycles"]
        base, hlo = (c.hint_policy.value for c in CONFIGS)
        ratios = [cycles[(i, base)] / cycles[(i, hlo)]
                  for i in range(len(self.loops))]
        return sum(cycles.values()), geomean(ratios)


def _config(request: dict) -> CompilerConfig:
    if request["policy"] == HintPolicy.BASELINE.value:
        return baseline_config()
    return CompilerConfig(hint_policy=HintPolicy(request["policy"]),
                          trip_count_threshold=request["threshold"])


WORKLOADS = {w.name: w for w in (SweepCold, ReplayLong, FuzzCampaign, ServiceMix)}
