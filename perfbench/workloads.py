"""The benchmark's workloads: a seeded set-up and a repeatable, checked operation.

Calls into gridflex go through the module that the tracer patches
(`forecaster.train(...)`, not a name imported from it), so a traced run sees
them. The seed reaches gridflex only through the inputs built here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from gridflex import cli, community, forecaster, harness, selector

NOISE_LEVELS = (0.0, 25.0, 50.0, 75.0)
ROW_SUM_TOL = 1e-6  # criterion 7


class CheckFailed(Exception):
    """An operation's output broke a property the workload checks."""


class Workload:
    """Set-up is `warm_up()`, which runs the workload's code once on a tiny
    input so that lazy initialisation (the first eigendecomposition in a
    process costs about a second) is not timed in an operation, then the
    constructor, which builds the seeded inputs. `op(i)` runs operation i,
    checks its outputs and returns (seconds, work units); a failed check raises
    `CheckFailed`."""

    cycle = 1  # operations between two end_cycle() checks
    min_ops = 1  # operations a measurement makes at the least

    def end_cycle(self) -> None:
        """Checks that need every operation of the cycle; none by default."""


class Train(Workload):
    """Criterion 6's shape: generate, save and reload the community, then train."""

    name = "train"
    work = "training samples"
    op_label = "train() call"
    aliases = {"work_per_s": "train_samples_per_s",
               "op_s_p50": "train_call_s_p50", "op_s_p90": "train_call_s_p90"}
    # epochs is per train() call; the rest is Hyper(): lr 3e-4, batch 32, 7:2:1.
    sizes = {
        "full": dict(counties=5, households=50, days=90, hidden=32, heads=4, epochs=1),
        "tiny": dict(counties=1, households=6, days=5, hidden=4, heads=2, epochs=2),
    }

    @staticmethod
    def warm_up(workdir: Path) -> None:
        population = community.generate_community(1, 1, 4, seed=0, days=3)
        data = forecaster.make_dataset(population, window=24, stride=24)
        model = forecaster.build_model(np.random.default_rng(0), hidden_size=4,
                                       head_count=2, socio_width=data.socio.shape[1])
        forecaster.train(model, data, forecaster.Hyper(epochs=1))

    def __init__(self, seed: int, size: str, workdir: Path):
        p = self.sizes[size]
        generated = community.generate_community(
            p["counties"], 1, p["households"], seed=seed, days=p["days"])
        households_csv, loads_csv = workdir / "households.csv", workdir / "loads.csv"
        community.save_community(generated, households_csv, loads_csv)
        self.community = community.load_community(households_csv, loads_csv)
        self.data = forecaster.make_dataset(self.community, window=24, stride=24)
        self.model = forecaster.build_model(
            np.random.default_rng(seed), hidden_size=p["hidden"],
            head_count=p["heads"], socio_width=self.data.socio.shape[1])
        self.hyper = forecaster.Hyper(epochs=p["epochs"])
        self.params = [t for _, t in self.model.parameters()]
        self.initial = [t.data.copy() for t in self.params]
        train_set, _, _ = forecaster.split_dataset(self.data, self.hyper.split_ratios)
        self.samples_per_op = self.hyper.epochs * train_set.windows.shape[0]
        self.reference_mse: float | None = None

    def op(self, i: int) -> tuple[float, float]:
        # Every call starts from the initial parameters, so each does the same work.
        for t, value in zip(self.params, self.initial):
            t.data = value.copy()
        start = time.perf_counter()
        result = forecaster.train(self.model, self.data, self.hyper)
        seconds = time.perf_counter() - start
        similarity = forecaster.similarity_matrix(self.model, self.data)

        final = result.val_mse[-1]
        if not (np.isfinite(final) and final < result.initial_val_mse):
            raise CheckFailed(f"val MSE {result.initial_val_mse!r} -> {final!r}")
        lo, hi = result.similarity_range
        if result.max_row_sum_dev > ROW_SUM_TOL or lo < 0.0 or hi > 1.0:
            raise CheckFailed(f"similarity during training: row-sum deviation "
                              f"{result.max_row_sum_dev:.3g}, range [{lo}, {hi}]")
        _check_row_stochastic(similarity)
        if self.reference_mse is None:
            self.reference_mse = final
        elif final != self.reference_mse:
            raise CheckFailed(f"rerun gave val MSE {final!r}, first run {self.reference_mse!r}")
        return seconds, self.samples_per_op


class Noise(Workload):
    """Criteria 9-10: selection on planted similarity matrices at four noise levels."""

    name = "noise"
    work = "selections"
    op_label = "run_selection() call"
    aliases = {"work_per_s": "selections_per_s",
               "op_s_p50": "selection_s_p50", "op_s_p90": "selection_s_p90"}
    # 25 seeds x 4 levels = 100 selections a cycle; with at least 100, ten or
    # more lie beyond p90.
    sizes = {"full": dict(counties=5, households=50, seeds=25, min_ops=100),
             "tiny": dict(counties=2, households=10, seeds=2, min_ops=8)}
    fraction = 0.10

    @classmethod
    def warm_up(cls, workdir: Path) -> None:
        seed, _, population, similarity, truth = _planted_inputs(_planted_spec(1, 12), 0)[0]
        selector.run_selection(population, similarity, truth, seed=seed, fraction=cls.fraction)

    def __init__(self, seed: int, size: str, workdir: Path):
        p = self.sizes[size]
        spec = _planted_spec(p["counties"], p["households"])
        # noise_experiment numbers its seeds from 0; the benchmark offsets them.
        self.inputs = [x for k in range(p["seeds"])
                       for x in _planted_inputs(spec, seed * 1000 + k)]
        self.cycle = len(self.inputs)
        self.min_ops = p["min_ops"]
        self.accuracy: dict[float, list[float]] = defaultdict(list)
        self.reference: dict[int, float] = {}

    def op(self, i: int) -> tuple[float, float]:
        i %= self.cycle
        seed, level, population, similarity, truth = self.inputs[i]
        start = time.perf_counter()
        result = selector.run_selection(population, similarity, truth, seed=seed,
                                        fraction=self.fraction)
        seconds = time.perf_counter() - start
        accuracy = result.accuracy_pct
        if self.reference.setdefault(i, accuracy) != accuracy:
            raise CheckFailed(f"input {i}: rerun gave accuracy {accuracy}, "
                              f"first run {self.reference[i]}")
        self.accuracy[level].append(accuracy)
        return seconds, 1

    def end_cycle(self) -> None:
        means = {level: float(np.mean(v)) for level, v in self.accuracy.items()}
        self.accuracy.clear()
        if means[0.0] < 85.0 or means[75.0] < 65.0:  # criteria 9 and 10
            raise CheckFailed(f"mean accuracy {means[0.0]:.2f}% clean, "
                              f"{means[75.0]:.2f}% at 75% noise")


SWEEP_SPECS = {  # criterion 11
    "incentive": {"variable": "incentive", "values": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
                  "repetitions": 3},
    "reduction": {"variable": "reduction_pct", "values": [5.0, 10.0, 15.0, 20.0, 25.0],
                  "repetitions": 2},
    "rate_hike": {"variable": "participation_pct", "values": [10.0, 20.0, 30.0, 40.0],
                  "incentive_grid": [100.0, 150.0, 200.0], "repetitions": 2},
}


# The offer behind the selections in the reduction and rate-hike sweeps. Near
# the median break-even incentive (about $3 on CommunitySpec()), so about half
# the households accept and the queried labels always hold both classes. At
# ScenarioConfig()'s $100, 99.6% accept: the queried labels are then usually
# all alike, classify() stops before training, and a pass takes 1 s or 3 s
# depending on the seed.
SWEEP_DEFAULT_INCENTIVE = 3.0


class Sweeps(Workload):
    """Criterion 11's three sweeps, each through `gridflex sweep`."""

    name = "sweeps"
    work = "sweep passes"
    op_label = "pass of the three sweeps"
    aliases = {"work_per_s": "sweep_passes_per_s",
               "op_s_p50": "sweep_pass_s_p50", "op_s_p90": "sweep_pass_s_p90"}
    # The "community" section of each spec; {} is CommunitySpec().
    sizes = {"full": {}, "tiny": {"counties": 1, "households_per_neighborhood": 16}}

    @classmethod
    def warm_up(cls, workdir: Path) -> None:
        cls._run(cls._write_specs(workdir / "warm-up", 0,
                                  {"counties": 1, "households_per_neighborhood": 8}))

    def __init__(self, seed: int, size: str, workdir: Path):
        self.runs = self._write_specs(workdir / "sweeps", seed, self.sizes[size])
        self.reference: dict[str, str] | None = None

    @staticmethod
    def _write_specs(directory: Path, seed: int, population: dict) -> list[tuple[Path, Path]]:
        runs = []
        for name, spec in SWEEP_SPECS.items():
            out = directory / name
            out.mkdir(parents=True, exist_ok=True)
            path = directory / f"{name}.json"
            path.write_text(json.dumps({**spec, "community": population, "scenario": {
                "rng_seed": seed, "default_incentive": SWEEP_DEFAULT_INCENTIVE}}))
            runs.append((path, out))
        return runs

    @staticmethod
    def _run(runs: list[tuple[Path, Path]]) -> None:
        with redirect_stdout(io.StringIO()):
            for spec, out in runs:
                if cli.main(["sweep", "--spec", str(spec), "--out-dir", str(out)]) != 0:
                    raise CheckFailed(f"gridflex sweep --spec {spec.name} failed")

    def op(self, i: int) -> tuple[float, float]:
        start = time.perf_counter()
        self._run(self.runs)
        seconds = time.perf_counter() - start

        digests, tables = {}, {}
        for _, out in self.runs:
            data = (out / "sweep.csv").read_bytes()
            digest = json.loads((out / "manifest.json").read_text())["digests"]["sweep.csv"]
            if hashlib.sha256(data).hexdigest() != digest:
                raise CheckFailed(f"{out.name}: manifest digest does not match sweep.csv")
            digests[out.name] = digest
            tables[out.name] = _read_rows(data)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            raise CheckFailed("sweep tables differ from the first pass")
        _check_trends(tables)
        return seconds, 1


WORKLOADS = {w.name: w for w in (Train, Noise, Sweeps)}


# -- inputs --------------------------------------------------------------------


def _planted_spec(counties: int, households: int) -> harness.PlantedSpec:
    return harness.PlantedSpec(community=harness.CommunitySpec(
        counties=counties, households_per_neighborhood=households, baseline_rate=0.3))


def _planted_inputs(spec: harness.PlantedSpec, seed: int) -> list[tuple]:
    """One seed of the noise study, as the criteria 9-10 test builds it:
    (seed, level, community, noisy similarity, truth) per noise level."""
    population = harness.planted_community(spec, seed)
    rng = np.random.default_rng(seed + 10_000)
    days = spec.community.days
    emergency_days = tuple(sorted(int(d) for d in rng.choice(days, size=3, replace=False)))
    truth = harness.oracle_truth(population, spec.incentive, spec.reduction_pct,
                                 emergency_days, days)
    ids = tuple(h.id for h in population.households)
    clean = harness.label_similarity(truth, ids, seed, spec.in_weight,
                                     spec.out_weight, spec.jitter)
    return [(seed, level, population, selector.inject_noise(clean, level, seed=seed + 20_000),
             truth) for level in NOISE_LEVELS]


# -- checks --------------------------------------------------------------------


def _check_row_stochastic(similarity: np.ndarray) -> None:
    deviation = float(np.abs(similarity.sum(axis=1) - 1.0).max())
    if deviation > ROW_SUM_TOL or similarity.min() < 0.0 or similarity.max() > 1.0:
        raise CheckFailed(f"similarity rows off by {deviation:.3g}, entries in "
                          f"[{similarity.min()}, {similarity.max()}]")


def _read_rows(data: bytes) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    for row in rows:
        for key, value in row.items():
            try:
                row[key] = float(value)
            except ValueError:
                pass
    return rows


def _ranks(values) -> np.ndarray:
    """1-based ranks, ties sharing their average rank."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=float),
                                   return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(x, y) -> float:
    """Spearman's rank correlation; NaN when either side is constant."""
    rx, ry = _ranks(x), _ranks(y)
    if rx.std() == 0 or ry.std() == 0:
        return float("nan")
    return float(np.corrcoef(rx, ry)[0, 1])


def _trend(rows: list[dict], x: str, y: str) -> float:
    """Spearman over the ladder of x of the mean of y at each rung."""
    xs = sorted({r[x] for r in rows})
    return spearman(xs, [np.mean([r[y] for r in rows if r[x] == v]) for v in xs])


def _check_trends(tables: dict[str, list[dict]]) -> None:
    """Criterion 11's Spearman bounds."""
    incentive, rate_hike = tables["incentive"], tables["rate_hike"]
    framework = [r for r in tables["reduction"] if r["scenario"] == "framework"]
    rhos = {
        "acceptance vs incentive": _trend(incentive, "incentive", "acceptance_rate_pct"),
        "reduction vs incentive": _trend(incentive, "incentive", "total_reduction_pct"),
        "-cost vs participant reduction": -_trend(framework, "participant_reduction_pct",
                                                  "responsiveness_cost"),
    }
    for value in sorted({r["incentive"] for r in rate_hike}):
        rows = [r for r in rate_hike if r["incentive"] == value]
        rhos[f"rate hike vs participation at {value:g}"] = _trend(
            rows, "participation_pct", "r_extra")
    for value in sorted({r["participation_pct"] for r in rate_hike}):
        rows = [r for r in rate_hike if r["participation_pct"] == value]
        rhos[f"rate hike vs incentive at {value:g}%"] = _trend(rows, "incentive", "r_extra")
    weak = {k: v for k, v in rhos.items() if not v >= 0.95}
    if weak:
        raise CheckFailed(f"Spearman below 0.95: {weak}")
