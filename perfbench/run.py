#!/usr/bin/env python3
"""gridflex benchmark: set-up time, throughput and per-operation time of three
seeded workloads, plus a traced mode that reports time and counts per layer.

    python3 perfbench/run.py --workload {train,noise,sweeps,all} --seed N \\
        --seconds S --trace {0,1}

With --trace 0 the workload is set up SETUPS times and then measured for S
seconds, or longer if it needs more operations for its 90th percentile. With
--trace 1 it is set up once untraced and once traced, and for S seconds each
operation runs untraced and then twice traced; the two traced passes must
give the same counts.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. perfbench/README.md describes each metric.
"""

from __future__ import annotations

import os

# One OpenBLAS thread, set before numpy loads the library: with the
# interpreter's own thread the process uses at most two cores, and a timing
# does not depend on what the machine's other core is doing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "gridflex" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no gridflex sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import machine  # noqa: E402
import workloads  # noqa: E402
from tracer import Stat, Tracer  # noqa: E402

SETUPS = 3  # set-ups in a --trace 0 run; setup_s is their median
OUT_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {"work_per_s": "1/s", "op_s_p50": "s", "op_s_p90": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer seconds: metric -> (span name, inclusive "total_s" or "self_s").
LAYER_SECONDS = {
    "autodiff.backward_s": ("autodiff.backward", "total_s"),
    "forecaster.forward_s": ("forecaster.forward", "total_s"),
    "forecaster.gru_s": ("forecaster.gru", "total_s"),
    "forecaster.self_attention_s": ("forecaster.self_attention", "total_s"),
    "forecaster.cross_attention_s": ("forecaster.cross_attention", "total_s"),
    "forecaster.gcn_s": ("forecaster.gcn", "total_s"),
    "forecaster.train_other_s": ("forecaster.train", "self_s"),
    "selector.run_selection_s": ("selector.run_selection", "total_s"),
    "selector.classify_s": ("selector.classify", "total_s"),
    "selector.spectral_embed_s": ("selector.spectral_embed", "total_s"),
    "selector.kmeans_s": ("selector.kmeans", "total_s"),
    "selector.pick_queries_s": ("selector.pick_queries", "total_s"),
    "tariff.accept_offer_s": ("tariff.accept_offer", "total_s"),
    "tariff.make_offer_s": ("tariff.make_offer", "total_s"),
    "tariff.rate_hike_s": ("tariff.rate_hike", "total_s"),
    "harness.oracle_truth_s": ("harness.oracle_truth", "total_s"),
    "metrics.total_demand_reduction_s": ("metrics.total_demand_reduction", "total_s"),
    "community.by_id_s": ("community.by_id", "total_s"),
    "harness.sweep_incentive_s": ("harness.sweep_incentive", "total_s"),
    "harness.sweep_reduction_s": ("harness.sweep_reduction", "total_s"),
    "harness.sweep_rate_hike_s": ("harness.sweep_rate_hike", "total_s"),
    "cli.sweep_io_s": ("cli.sweep", "self_s"),
    "community.load_s": ("community.load", "total_s"),
    "community.save_s": ("community.save", "total_s"),
    "community.generate_s": ("community.generate", "total_s"),
}
# Per-layer calls per operation: metric -> span name.
LAYER_CALLS = {
    "forecaster.forward_calls": "forecaster.forward",
    "selector.classify_calls": "selector.classify",
    "tariff.offers": "tariff.accept_offer",
    "community.by_id_calls": "community.by_id",
}


@dataclass
class Tally:
    durations: list[float] = field(default_factory=list)
    work: float = 0.0
    attempted: int = 0
    failed: int = 0


def _attempt(workload, i: int, tally: Tally) -> None:
    tally.attempted += 1
    try:
        seconds, work = workload.op(i)
    except Exception:  # a failed check or a raised error fails this operation only
        tally.failed += 1
        traceback.print_exc()
        return
    tally.durations.append(seconds)
    tally.work += work


def _measure(workload, seconds: float) -> Tally:
    """Ops until `seconds` have passed and at least `min_ops` ran; the shared
    check of each completed cycle, where a failure fails every op in it."""
    tally = Tally()
    failed_before_cycle = 0
    start = time.perf_counter()
    while tally.attempted < workload.min_ops or time.perf_counter() - start < seconds:
        _attempt(workload, tally.attempted, tally)
        if tally.attempted % workload.cycle == 0:
            try:
                workload.end_cycle()
            except Exception:
                tally.failed = failed_before_cycle + workload.cycle
                traceback.print_exc()
            failed_before_cycle = tally.failed
    return tally


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(cls, seed: int, size: str, workdir: Path):
    cls.warm_up(workdir)
    return cls(seed, size, workdir)


def timed_run(cls, seed: int, seconds: float, size: str, workdir: Path) -> tuple[Tally, dict]:
    setup_s = []
    for _ in range(SETUPS):
        workload = None  # free the previous set-up's inputs first
        start = time.perf_counter()
        workload = _set_up(cls, seed, size, workdir)
        setup_s.append(time.perf_counter() - start)
    tally = _measure(workload, seconds)
    durations = tally.durations or [float("nan")]
    metrics = {
        "work_per_s": tally.work / sum(durations),
        "op_s_p50": float(np.percentile(durations, 50)),
        "op_s_p90": float(np.percentile(durations, 90)),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": statistics.median(setup_s),
    }
    names = {**cls.aliases, "work_per_s": f"{cls.aliases['work_per_s']} ({cls.work})"}
    print(f"{cls.name}: {tally.attempted} x {cls.op_label}, {tally.failed} failed, "
          f"{sum(d > metrics['op_s_p90'] for d in durations)} beyond p90; "
          f"set-ups took {', '.join(f'{s:.3f}' for s in setup_s)} s")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:>12.6g} {END_TO_END_UNITS[name]:<4} {names.get(name, '')}")
    return tally, {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def traced_run(cls, seed: int, seconds: float, size: str, workdir: Path,
               header: dict) -> tuple[Tally, dict]:
    plain_workload = _set_up(cls, seed, size, workdir)
    tracer = Tracer()
    with tracer.installed():
        tracer.phase = "setup"  # the process is warm now, so no warm_up() here
        (workdir / "traced").mkdir()
        traced_workload = cls(seed, size, workdir / "traced")
    # Op i runs untraced, then traced in pass A, then again in pass B, so a
    # drift in machine speed during the run shows in neither the overhead nor
    # the A-B comparison.
    untraced, passes = Tally(), {"A": Tally(), "B": Tally()}
    ops = 0
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        _attempt(plain_workload, ops, untraced)
        with tracer.installed():
            for phase, tally in passes.items():
                tracer.phase = phase
                _attempt(traced_workload, ops, tally)
        ops += 1
    setup, a, b = (tracer.summary(p) for p in ("setup", "A", "B"))

    total = Tally(attempted=3 * ops + 1)  # the count comparison is one more check
    total.failed = untraced.failed + passes["A"].failed + passes["B"].failed
    mismatched = sorted(n for n in a.keys() | b.keys()
                        if n not in a or n not in b or a[n].counts() != b[n].counts())
    if mismatched:
        total.failed += 1
        print(f"counts differ between the two traced passes: {mismatched}", file=sys.stderr)

    def seconds_in(span: str, kind: str) -> float:
        per_op = (getattr(a.get(span, Stat()), kind) + getattr(b.get(span, Stat()), kind))
        return getattr(setup.get(span, Stat()), kind) + per_op / (2 * ops)

    metrics = {name: (seconds_in(*target), "s") for name, target in LAYER_SECONDS.items()}
    metrics.update({name: (a.get(span, Stat()).calls / ops, "count")
                    for name, span in LAYER_CALLS.items()})
    samples = tracer.items_under("forecaster.forward", "forecaster.train", "A")
    metrics["autodiff.tensors_per_sample"] = (
        a["forecaster.train"].tensors / samples if samples else 0.0, "count")
    selections = a.get("selector.run_selection", Stat())
    metrics["autodiff.tensors_per_selection"] = (
        selections.tensors / selections.calls if selections.calls else 0.0, "count")
    plain = statistics.mean(untraced.durations) if untraced.durations else float("nan")
    traced = passes["A"].durations + passes["B"].durations
    traced = statistics.mean(traced) if traced else float("nan")
    metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")

    print(f"{cls.name} traced: {ops} x {cls.op_label} untraced ({plain:.4g} s each) "
          f"and 2 x {ops} traced ({traced:.4g} s each), {total.failed} failed; "
          f"seconds per set-up + per op:")
    print(f"  {'span':<32} {'calls/op':>9} {'total_s':>10} {'self_s':>10}")
    for span in sorted(setup.keys() | a.keys()):
        calls = a.get(span, Stat()).calls / ops
        print(f"  {span:<32} {calls:>9.6g} {seconds_in(span, 'total_s'):>10.4g} "
              f"{seconds_in(span, 'self_s'):>10.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>12.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{cls.name}-seed{seed}.json"
    tracer.write(path, {**header, "workload": cls.name, "ops_per_pass": ops,
                        "untraced_op_s": untraced.durations,
                        "metrics": {k: v for k, (v, _) in metrics.items()}})
    print(f"  spans written to {path.relative_to(ROOT)}")
    return total, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path on small inputs (smoke test)")
    args = parser.parse_args(argv)

    header = {"machine": machine.describe(ROOT), "seed": args.seed,
              "seconds": args.seconds, "size": args.size}
    print("machine " + json.dumps(header, sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        cls = workloads.WORKLOADS[name]
        workdir = OUT_DIR / f"work-{os.getpid()}-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            if args.trace:
                tally, metrics = traced_run(cls, args.seed, args.seconds, args.size,
                                            workdir, header)
            else:
                tally, metrics = timed_run(cls, args.seed, args.seconds, args.size, workdir)
        finally:
            shutil.rmtree(workdir)
        results.append((name, tally, metrics))

    prefix = len(results) > 1  # with --workload all, metric names carry the workload
    print(json.dumps({
        "correct": all(t.failed == 0 for _, t, _ in results),
        "attempted": sum(t.attempted for _, t, _ in results),
        "failed": sum(t.failed for _, t, _ in results),
        # NaN, when no operation succeeded, is not JSON; such a run is not correct.
        "metrics": {f"{n}.{k}" if prefix else k:
                    {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for n, _, m in results for k, (v, u) in m.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
