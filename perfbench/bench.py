"""One benchmark run: set-up, the closed measurement loop, the metrics.

A run builds its workload from the seed several times (each build is
input generation and parsing plus one warm-up pass over the op cycle)
and reports the import time plus the median build as set-up time; it
then computes the oracles and drives the op cycle in a closed loop, one
operation after the other with no think time, until ``seconds`` have
passed.

Every time is reported in reference seconds: wall time scaled by the
host's speed, which calibration blocks of a fixed pure-Python loop
measure around the timed work (see :func:`host_speed`).  The report
line keeps the unscaled median op time and the blocks' speeds.

Untraced (``trace=False``), the loop runs the library unmodified and the
run reports the end-to-end metrics.  Traced, the first half of the time
is measured the same way and the second half with the
:class:`~tracing.Tracer` installed; the run reports the per-layer
metrics, every one per operation, plus the tracing overhead between
the two halves.  The metric names and units are the ones
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import math
import pathlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from perfbench import tracing, workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Builds per run; set-up time is their median.
SETUP_REPEATS = 3

#: Per-layer metrics a workload measures once per traced run, outside the
#: loop, with a probe of its own; they read 0 on the other workloads.
PROBES = ("logic.rule_order_skew",)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def engine_provenance(engine) -> dict:
    """``benchmarks/conftest.py``'s provenance block for ``engine``."""
    path = ROOT / "benchmarks" / "conftest.py"
    module_spec = importlib.util.spec_from_file_location("_bench_conftest", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.engine_provenance(engine)


#: Median duration of one :func:`calibration_slice` on the reference
#: host (2 vCPUs of an Intel Xeon, Python 3.11, no other load).
REFERENCE_SLICE_S = 0.0003

#: Slices per calibration block, and the longest stretch of operations
#: between two blocks.
CALIBRATION_SLICES = 20
CALIBRATE_EVERY_S = 0.1

_TABLE = {i: 3 * i for i in range(64)}


def _mix(a: int, b: int) -> int:
    return a ^ b


def calibration_slice(iterations: int = 3000) -> float:
    """Seconds one fixed pure-Python loop takes on this host right now.

    The loop calls a function, reads a dict and adds integers, like the
    library's hot paths, but allocates nothing the collector tracks and
    touches no library code, so no change to the program moves it.
    """
    table, mix = _TABLE, _mix
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += mix(table[i & 63], i) & 7
    return time.perf_counter() - start


def host_speed() -> float:
    """This host's speed now, relative to the reference host.

    Other tenants of a shared host slow every process by up to 2x for
    seconds or minutes at a time, with CPU time equal to wall time, so
    no statistic within a run removes it; the calibration loop slows by
    the same factor as the library (regression slope 0.9-1.0 against
    ``serve_mix`` and ``property_p`` ops timed next to it).  The median
    slice ignores the slices an interrupt lengthened.
    """
    return REFERENCE_SLICE_S / statistics.median(
        calibration_slice() for _ in range(CALIBRATION_SLICES)
    )


def timed(work) -> float:
    """Reference seconds ``work()`` takes: its wall time times the speed."""
    before = host_speed()
    start = time.perf_counter()
    work()
    took = time.perf_counter() - start
    return took * (before + host_speed()) / 2


@dataclass
class Measurement:
    """Per-op wall-clock times of one closed loop over an op cycle.

    Calibration blocks run before the first op, after the last, and
    between ops whenever :data:`CALIBRATE_EVERY_S` has passed since the
    previous block.  Every timing is in reference seconds: an op's wall
    time times the mean host speed of the two blocks around it.  On
    eight recorded runs of each workload, on a host whose speed varied,
    this cut the spread of the median op time across runs from 0.27 to
    0.04 (``property_p``) and from 0.29 to 0.06 (``serve_mix``); one
    speed for the whole run left 0.10 on both.
    """

    #: Wall-clock seconds of each op.
    seconds: list[float]
    failed: int
    #: ``(ops completed before the block, host speed)`` per block.
    speeds: list[tuple[int, float]] = field(default_factory=list)
    #: Loop clock at the end of the latest calibration block.
    calibrated_at: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def calibrate(self) -> None:
        self.speeds.append((len(self.seconds), host_speed()))
        self.calibrated_at = time.perf_counter()

    def reference_seconds(self) -> list[float]:
        scaled, block = [], 0
        for index, took in enumerate(self.seconds):
            while self.speeds[block + 1][0] <= index:
                block += 1
            before, after = self.speeds[block][1], self.speeds[block + 1][1]
            scaled.append(took * (before + after) / 2)
        return scaled

    def p50_ms(self) -> float:
        return statistics.median(self.reference_seconds()) * 1e3

    def ops_per_s(self) -> float:
        return len(self.seconds) / math.fsum(self.reference_seconds())

    def tail_percentile(self) -> float:
        """The highest percentile up to 99 with ten samples beyond it.

        Never below the median: a run of fewer than twenty ops has no
        tail to report, and its tail reads as its median.
        """
        return max(50.0, min(99.0, 100.0 * (1 - 10 / len(self.seconds))))

    def tail_ms(self) -> float:
        scaled = self.reference_seconds()
        if len(scaled) < 2:
            return scaled[0] * 1e3
        cuts = statistics.quantiles(scaled, n=1000, method="inclusive")
        return cuts[round(self.tail_percentile() * 10) - 1] * 1e3

    def beyond_tail(self) -> int:
        tail = self.tail_ms() / 1e3
        return sum(1 for t in self.reference_seconds() if t > tail)


def measure(ops, seconds: float, tracer=None) -> Measurement:
    """Run the op cycle in a closed loop for ``seconds``; time each call.

    Every pass through the cycle starts with a full garbage collection,
    outside the timed calls: the collector then starts each pass from
    the same state, so its collections fall on the same ops in every
    pass and every run.
    """
    run = Measurement([], 0)
    deadline = time.perf_counter() + seconds
    run.calibrate()
    while _step(ops, run, tracer) < deadline:
        if time.perf_counter() - run.calibrated_at >= CALIBRATE_EVERY_S:
            run.calibrate()
    run.calibrate()
    return run


def _step(ops, run: Measurement, tracer) -> float:
    """Run the next op of the cycle; returns the loop clock after it."""
    position = len(run.seconds) % len(ops)
    if position == 0:
        gc.collect()
    op = ops[position]
    began = time.perf_counter()
    try:
        if tracer is None:
            result = op.call(None)
            took = time.perf_counter() - began
        else:
            with tracer.op(op.label) as run_trace:
                began = time.perf_counter()
                result = op.call(run_trace)
                took = time.perf_counter() - began
        ok = op.observe(result) == op.expected
    except Exception:
        traceback.print_exc(file=sys.stderr)
        took = time.perf_counter() - began
        ok = False
    run.seconds.append(took)
    if not ok:
        run.failed += 1
        print(f"operation {op.label} disagreed with its oracle", file=sys.stderr)
    return time.perf_counter()


def set_up(workload: str, seed: int, tiny: bool) -> tuple[list, list[float]]:
    """Build the workload ``SETUP_REPEATS`` times; the last build is used."""
    build = workloads.WORKLOADS[workload]["build"]
    durations, built = [], []

    def build_and_warm():
        ops = build(seed, tiny)
        for op in ops:
            op.call(None)
        built.append(ops)

    for _ in range(SETUP_REPEATS):
        durations.append(timed(build_and_warm))
    return built[-1], durations


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child.

    ``ru_maxrss`` is in KiB on Linux; children count once reaped, which
    the worker pool does when a closure returns.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def end_to_end(run: Measurement, setup_s: float) -> dict:
    return {
        "op_p50_ms": run.p50_ms(),
        "op_p99_ms": run.tail_ms(),
        "ops_per_s": run.ops_per_s(),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def _ratio(numerator, denominator):
    if numerator is None:
        return None
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, traced: Measurement, untraced: Measurement, workers: int) -> dict:
    ops = tracer.ops
    count = len(ops)

    def total(name):
        values = [counters[name] for _, counters, _ in ops]
        return None if None in values else sum(values)

    def per_op(name):
        value = total(name)
        return None if value is None else value / count

    spans = tracer.span_seconds()

    def span_s(name):
        return spans.get(name, (0.0, 0.0))[0] / count

    new_atoms = total("engine.new_atoms")
    round_s = spans.get("workers.round", (0.0, 0.0))[0]
    metrics = {
        "logic.match_candidates": per_op("logic.match_candidates"),
        "logic.match_searches": per_op("logic.match_searches"),
        "logic.candidates_per_new_atom": _ratio(
            total("logic.match_candidates"), new_atoms
        ),
        "rules.heads_instantiated": per_op("rules.heads_instantiated"),
        "rules.heads_per_new_atom": _ratio(
            total("rules.heads_instantiated"), new_atoms
        ),
        "engine.rounds": per_op("engine.rounds"),
        "engine.triggers": per_op("engine.triggers"),
        "engine.applied_ratio": _ratio(
            total("engine.applied"), total("engine.triggers")
        ),
        **{
            f"engine.{phase}_s": per_op(f"engine.{phase}_s")
            for phase in tracing.PHASES
        },
        "chase.s": span_s("chase"),
        "chase.prefix_s": span_s("chase.prefix"),
        "workers.spawn_s": span_s("workers.spawn"),
        "workers.round_s": round_s / count,
        "workers.exec_s": per_op("workers.exec_s"),
        "workers.codec_s": per_op("workers.codec_s"),
        "workers.busy_share": _ratio(total("workers.exec_s"), round_s * workers),
        "workers.pipe_bytes": per_op("workers.pipe_bytes"),
        "workers.shm_bytes": per_op("workers.shm_bytes"),
        "workers.messages": per_op("workers.messages"),
        "rewriting.s": span_s("rewriting"),
        "rewriting.generated": per_op("rewriting.generated"),
        "rewriting.disjuncts": per_op("rewriting.disjuncts"),
        "rewriting.complete_ratio": _ratio(
            total("rewriting.complete"), total("rewriting.runs")
        ),
        "queries.eval_s": span_s("queries.eval"),
        "serving.self_s": spans.get("serving", (0.0, 0.0))[1] / count,
        **{
            f"serving.{name}": per_op(f"serving.{name}")
            for name in ("chase_runs", "rewrite_runs", "goal_stops",
                         "delta_probes", "rules_pruned")
        },
        "core.egraph_s": span_s("core.egraph"),
        "core.tournament_s": span_s("core.tournament"),
        "core.loop_s": span_s("core.loop"),
        "obs.trace_overhead": traced.p50_ms() / untraced.p50_ms() - 1.0,
        "fail_ratio": (traced.failed + untraced.failed)
        / (traced.attempted + untraced.attempted),
        "counters.mismatches": tracer.counter_mismatches(),
    }
    return metrics


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: pathlib.Path,
    import_s: float = 0.0,
    tiny: bool = False,
) -> tuple[dict, dict]:
    """One run; returns ``(result line, report)``."""
    declared = spec()
    entry = workloads.WORKLOADS[workload]
    ops, setups = set_up(workload, seed, tiny)
    workloads.attach_oracles(ops)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "input": entry["input"] if not tiny else "tiny",
        "seed_effect": entry["seed_effect"],
        "engine": engine_provenance(entry["engine"]),
        "layers": workloads.layer_map(workload),
        "import_s": import_s,
        "setup_runs_s": setups,
    }
    if not trace:
        measured = measure(ops, seconds)
        values = end_to_end(measured, import_s + statistics.median(setups))
        declared_metrics = declared["end_to_end"]
        attempted, failed = measured.attempted, measured.failed
        report["op_p99_ms_percentile"] = measured.tail_percentile()
        report["beyond_op_p99_ms"] = measured.beyond_tail()
        report["wall_op_p50_ms"] = statistics.median(measured.seconds) * 1e3
        speeds = [speed for _, speed in measured.speeds]
        report["host_speed"] = {
            "mean": statistics.fmean(speeds),
            "min": min(speeds),
            "max": max(speeds),
            "blocks": len(speeds),
        }
        report["fail_ratio"] = failed / attempted
    else:
        untraced = measure(ops, seconds / 2)
        tracer = tracing.Tracer(out_dir)
        tracer.install()
        try:
            traced = measure(ops, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        report["spans"] = str(
            tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
        )
        report["counters"] = tracer.counter_digest()
        engine = entry["engine"]
        pool_size = engine.workers if getattr(engine, "persistent_workers", False) else 0
        values = per_layer(tracer, traced, untraced, pool_size)
        for name in PROBES:
            probe = entry.get("probes", {}).get(name)
            values[name] = probe() if probe else 0.0
        declared_metrics = declared["per_layer"]
        attempted = traced.attempted + untraced.attempted
        failed = traced.failed + untraced.failed
        report["not_visible"] = sorted(k for k, v in values.items() if v is None)
        if values["counters.mismatches"]:
            print(
                f"{values['counters.mismatches']} operations did not repeat the "
                f"deterministic counters of their first run: {tracing.DETERMINISTIC}",
                file=sys.stderr,
            )
    report["samples"] = attempted
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared_metrics
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report
