"""Experiment harness: sweep-row identities recomputed from raw columns,
planted benchmark construction, manifests, and CLI determinism."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridflex import cli, harness, selector
from gridflex.cli import (
    _from_json,
    _read_similarity,
    _RunOptions,
    _write_manifest,
    _write_similarity,
    main,
    rows_to_csv,
)
from gridflex.community import ScenarioConfig, daily_totals, generate_community
from gridflex.errors import (
    CoverageError,
    GridflexError,
    InvalidSpecError,
    ReferentialIntegrityError,
    ValidationError,
)
from gridflex.forecaster import Hyper
from gridflex.harness import (
    CommunitySpec,
    PlantedSpec,
    SweepSpec,
    label_similarity,
    noise_experiment,
    oracle_truth,
    planted_community,
    resample_elasticities,
    run_scenario,
    sweep_incentive,
    sweep_rate_hike,
    sweep_reduction,
)
from gridflex.selector import check_similarity
from gridflex.tariff import accept_offer, emergency_rate, make_offer, price_offers
from tests.conftest import community_of, household
from tests.tariff_reference import baseline_cost, program_cost

SMALL = CommunitySpec(counties=2, neighborhoods_per_county=1,
                      households_per_neighborhood=10, days=10)
SMALL_SCENARIO = ScenarioConfig(cycle_days=10, emergency_day_count=2, rng_seed=0)


class TestSpecs:
    def test_sweep_spec_rejects_unknown_variable(self):
        with pytest.raises(InvalidSpecError):
            SweepSpec(variable="voltage", values=(1.0,))

    def test_sweep_spec_rejects_non_increasing_ladder(self):
        with pytest.raises(InvalidSpecError):
            SweepSpec(variable="incentive", values=(10.0, 10.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_sweep_spec_rejects_a_non_finite_value(self, bad):
        with pytest.raises(InvalidSpecError, match="values must be finite"):
            SweepSpec(variable="noise_level", values=(0.0, bad))

    @pytest.mark.parametrize(("kwargs", "message"), [
        ({"variable": "incentive", "values": (-1.0, 5.0)}, "incentive values must be >= 0"),
        ({"variable": "reduction_pct", "values": (0.0, 10.0)},
         r"reduction_pct values must be in \(0, 100\), got 0.0"),
        ({"variable": "reduction_pct", "values": (50.0, 150.0)},
         r"reduction_pct values must be in \(0, 100\), got 150.0"),
        ({"variable": "participation_pct", "values": (-50.0, 10.0)},
         r"participation_pct values must be in \[0, 100\), got -50.0"),
        ({"variable": "participation_pct", "values": (50.0, 100.0)},
         r"participation_pct values must be in \[0, 100\), got 100.0"),
        ({"variable": "noise_level", "values": (-5.0, 0.0)}, "noise_level values must be >= 0"),
        ({"variable": "participation_pct", "values": (10.0,), "incentive_grid": (100.0, -1.0)},
         "incentive_grid entries must be finite and >= 0, got -1.0"),
    ], ids=["negative-incentive", "zero-reduction", "reduction-over-100",
            "negative-participation", "full-participation", "negative-noise",
            "negative-grid-incentive"])
    def test_sweep_spec_rejects_a_value_outside_its_domain(self, kwargs, message):
        with pytest.raises(InvalidSpecError, match=message):
            SweepSpec(**kwargs)

    def test_manifest_records_digests(self, tmp_path):
        target = tmp_path / "x.csv"
        target.write_text("a,b\n1,2\n")
        _write_manifest(tmp_path, {"k": 1}, [0], "x.csv")
        blob = json.loads((tmp_path / "manifest.json").read_text())
        assert blob["seeds"] == [0]
        assert len(blob["digests"]["x.csv"]) == 64


class TestOracleTruth:
    def test_matches_direct_offer_evaluation(self):
        community = planted_community(PlantedSpec(community=SMALL), seed=0)
        days = (2, 7)
        truth = oracle_truth(community, 100.0, 20.0, days, 10)
        for h in community.households:
            offer = make_offer(h, 100.0, 20.0, days, 10)
            assert truth[h.id] == accept_offer(h, offer).accepted

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_array_pricing_matches_the_per_household_costs(self, data):
        """`price_offers` against the reference costs of each household alone:
        the minimum incentive is the program-minus-baseline cost gap at zero
        incentive, and the oracle accepts iff the program costs no more."""
        cycle = data.draw(st.integers(1, 8), "cycle")
        days = data.draw(st.integers(cycle, cycle + 2), "days")
        emergency = tuple(sorted(data.draw(
            st.lists(st.integers(0, cycle - 1), unique=True, max_size=cycle), "emergency")))
        pct = data.draw(st.floats(0.5, 99.0), "reduction_pct")
        incentive = data.draw(st.floats(0.0, 60.0), "incentive")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        hs = [household(f"h{i}", elasticity=data.draw(st.floats(-3.0, -0.02), "e"),
                        baseline_rate=data.draw(st.floats(0.05, 0.5), "rate"),
                        load=rng.uniform(0.0, 4.0, days * 24))
              for i in range(data.draw(st.integers(1, 6), "n"))]
        community = community_of(hs)
        priced = price_offers(community.daily, community.elasticity,
                              community.baseline_rate, incentive, pct, emergency, cycle)
        truth = oracle_truth(community, incentive, pct, emergency, cycle)
        for i, h in enumerate(hs):
            offer = make_offer(h, incentive, pct, emergency, cycle)
            c_base = baseline_cost(h, cycle)
            gap = program_cost(h, make_offer(h, 0.0, pct, emergency, cycle)) - c_base
            assert priced.emergency_rate[i] == emergency_rate(h.baseline_rate, pct, h.elasticity)
            assert priced.min_incentive[i] == pytest.approx(max(gap, 0.0), rel=1e-9,
                                                            abs=1e-9 * c_base)
            if abs(incentive - gap) > 1e-9:
                assert priced.accepted[i] == (program_cost(h, offer) <= c_base)
            outcome = accept_offer(h, offer)
            assert outcome.accepted == priced.accepted[i] == truth[h.id]
            assert outcome.min_incentive == priced.min_incentive[i]

    def test_short_load_raises_coverage_error(self):
        h = household(days=5)
        with pytest.raises(CoverageError):
            price_offers(daily_totals(h.load)[None], np.array([h.elasticity]),
                         np.array([h.baseline_rate]), 10.0, 10.0, (1,), 6)
        with pytest.raises(CoverageError):
            oracle_truth(community_of([h]), 10.0, 10.0, (1,), 6)
        with pytest.raises(CoverageError):
            accept_offer(h, make_offer(h, 10.0, 10.0, (1,), 6))

    def test_resample_preserves_structure(self):
        community = planted_community(PlantedSpec(community=SMALL), seed=0)
        resampled = resample_elasticities(community, seed=9)
        assert [h.id for h in resampled.households] == [
            h.id for h in community.households
        ]
        assert any(a.elasticity != b.elasticity
                   for a, b in zip(community.households, resampled.households))

    @pytest.mark.parametrize(("mean", "std"), [(math.nan, 0.1), (-0.25, math.inf)])
    def test_resample_rejects_a_non_finite_spec(self, mean, std):
        community = planted_community(PlantedSpec(community=SMALL), seed=0)
        with pytest.raises(InvalidSpecError, match="elasticity"):
            resample_elasticities(community, seed=9, mean=mean, std=std)


class TestPlantedBenchmark:
    def test_alternating_regimes(self):
        spec = PlantedSpec(community=SMALL)
        community = planted_community(spec, seed=3)
        for i, h in enumerate(community.households):
            if i % 2 == 0:
                assert -0.8 < h.elasticity < -0.3  # flexible regime
            else:
                assert -0.05 < h.elasticity < -0.01  # rigid regime

    @pytest.mark.parametrize("regime", [{"flexible_mean": math.nan},
                                        {"rigid_std": math.inf}])
    def test_rejects_a_non_finite_regime(self, regime):
        with pytest.raises(InvalidSpecError, match="elasticity"):
            planted_community(PlantedSpec(community=SMALL, **regime), seed=0)

    def test_default_offer_splits_population(self):
        spec = PlantedSpec()
        community = planted_community(spec, seed=0)
        truth = oracle_truth(community, spec.incentive, spec.reduction_pct,
                             (5, 12, 20), spec.community.days)
        share = np.mean([truth[h.id] for h in community.households])
        assert 0.2 < share < 0.8

    def test_label_similarity_structure(self):
        truth = {f"h{i}": i < 5 for i in range(10)}
        ids = tuple(truth)
        a = label_similarity(truth, ids, seed=0)
        check_similarity(a)
        y = np.array([truth[h] for h in ids])
        same = y[:, None] == y[None, :]
        assert a[same].mean() > 2 * a[~same].mean()


class TestSweepIdentities:
    """Each sweep row must satisfy the defining ratios recomputed from its own
    raw columns (totals are exported precisely so readers can re-derive)."""

    def test_incentive_sweep_rows(self):
        spec = SweepSpec(variable="incentive", values=(0.0, 5.0, 50.0),
                         repetitions=2)
        rows = sweep_incentive(spec, SMALL_SCENARIO, SMALL)
        assert len(rows) == 6
        for row in rows:
            assert row["acceptance_rate_pct"] == pytest.approx(
                100.0 * row["accepted"] / row["offered"]
            )
            if row["reduction_kwh_total"] > 0:
                assert row["responsiveness_cost"] == pytest.approx(
                    row["incentive_total"] / row["reduction_kwh_total"]
                )

    def test_incentive_sweep_acceptance_monotone(self):
        spec = SweepSpec(variable="incentive", values=(0.0, 10.0, 100.0, 1000.0))
        rows = sweep_incentive(spec, SMALL_SCENARIO, SMALL)
        rates = [r["acceptance_rate_pct"] for r in rows]
        assert rates == sorted(rates)
        assert rates[-1] == pytest.approx(100.0)

    def test_reduction_sweep_rows(self):
        spec = SweepSpec(variable="reduction_pct", values=(5.0, 10.0, 20.0))
        rows = sweep_reduction(spec, SMALL_SCENARIO, SMALL)
        assert {r["scenario"] for r in rows} == {"framework", "skewed"}
        for row in rows:
            assert row["responsiveness_cost"] == pytest.approx(
                row["incentive_total"] / row["reduction_kwh_total"]
            )
        # At a fixed incentive, paying for deeper reductions is cheaper per kWh.
        for variant in ("framework", "skewed"):
            costs = [r["responsiveness_cost"] for r in rows
                     if r["scenario"] == variant]
            assert costs == sorted(costs, reverse=True)

    def test_rate_hike_sweep_rows(self):
        spec = SweepSpec(variable="participation_pct", values=(10.0, 25.0),
                         incentive_grid=(50.0, 100.0))
        rows = sweep_rate_hike(spec, SMALL_SCENARIO, SMALL)
        assert len(rows) == 4
        for row in rows:
            assert row["r_extra"] == pytest.approx(
                row["incentive_total"] / row["nonparticipant_kwh"]
            )

    def test_noise_experiment_shape(self):
        spec = SweepSpec(variable="noise_level", values=(0.0, 50.0),
                         repetitions=2)
        rows = noise_experiment(spec, PlantedSpec(community=SMALL))
        assert [r["noise_level_pct"] for r in rows] == [0.0, 50.0]
        for row in rows:
            assert row["seeds"] == 2
            assert 0.0 <= row["mean_accuracy_pct"] <= 100.0


# sha256 of rows_to_csv(sweep_incentive(...)) for GOLDEN_COMMUNITY over a
# ladder around each incentive, as the per-household pricing code wrote it.
GOLDEN_COMMUNITY = CommunitySpec(counties=2, households_per_neighborhood=20, days=30)
GOLDEN_DIGESTS = {
    (0, 3.0): "c9d3402b886c97552bec0fae6b1fad2606492789256efec3ecfa7a7b76e6325e",
    (0, 100.0): "7a0ef6d64069d7d449c65ee79ec0d3999295ee76751e12e973c22d8500fa744f",
    (11, 3.0): "645bcf7a80b3463c262762d33c650fd42ce7e040b8a11c1a9b3349377e6799dc",
    (11, 100.0): "e8f61fd257371e57206d42029a7fb3f5a1944bd59b7e3a77707924f7c223f200",
}


@pytest.mark.parametrize(("seed", "incentive"), sorted(GOLDEN_DIGESTS))
def test_incentive_sweep_bytes_are_pinned(tmp_path, seed, incentive):
    """Pricing is pure arithmetic (no BLAS, no classifier), so a refactor of it
    must leave the incentive sweep's table byte for byte as it was."""
    ladder = SweepSpec("incentive", (incentive / 4, incentive / 2, incentive, 2 * incentive),
                       repetitions=2)
    scenario = ScenarioConfig(rng_seed=seed, default_incentive=incentive)
    rows_to_csv(sweep_incentive(ladder, scenario, GOLDEN_COMMUNITY), tmp_path / "sweep.csv")
    digest = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_DIGESTS[seed, incentive]


# sha256 of the files `gridflex run` writes for criterion 12's config at two
# seeds, as the per-household population model wrote them.
RUN_GOLDEN_DIGESTS = {
    0: {"offers.csv": "aed2e6881272ff5d567d6687d29ff6446f6981dee5d472eb266d3936b9dcd8d1",
        "report.json": "6f95c633e127af8d3167188316bee6e9d58676cd3160ff2014aa80e079d79b11",
        "similarity.csv": "275a655ee0ae81c95b65bf59cc47750aa558fa3477e6b7f66cadf014aad44c3c"},
    3: {"offers.csv": "9a3b090628795d28eee3f70cd4311948e59c1e70962a9669bcbd16db99937d43",
        "report.json": "a2b6e572ab1fed98960ba24503a51045c99e76ce3aa6acab4e76837dcb3c1d9f",
        "similarity.csv": "7d281c534a82f4fe9fa443173bd8fe6676b060b352bbf4a9068a239ba2f48a06"},
}


@pytest.mark.parametrize("seed", sorted(RUN_GOLDEN_DIGESTS))
def test_run_bytes_are_pinned(tmp_path, seed):
    """A change to how the population is held must leave every file of a run
    byte for byte as it was."""
    config = {
        "scenario": {"cycle_days": 8, "emergency_day_count": 2, "rng_seed": seed},
        "community": {"counties": 1, "households_per_neighborhood": 10, "days": 8},
        "hyper": {"epochs": 2, "batch_size": 4},
        "hidden_size": 4, "head_count": 2, "stride": 12,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "config.json"), "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in RUN_GOLDEN_DIGESTS[seed]}
    assert digests == RUN_GOLDEN_DIGESTS[seed]


def test_reduction_sweep_is_free_of_hash_order():
    """The sweep's raw floats do not depend on the order in which Python
    iterates a set of ids, which PYTHONHASHSEED changes."""
    code = (
        "from gridflex.community import ScenarioConfig\n"
        "from gridflex.harness import SweepSpec, sweep_reduction\n"
        "spec = SweepSpec('reduction_pct', (5.0, 10.0, 15.0, 20.0, 25.0))\n"
        "print(repr(sweep_reduction(spec, ScenarioConfig(default_incentive=3.0))))\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_sets_one_blas_thread_per_sample_thread(preset):
    """Importing gridflex.cli sets each BLAS thread variable that is not set
    to 1, before numpy loads, so WORKERS is every CPU; a value set stays."""
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = ("import json, os\n"
            "import gridflex.cli\n"
            "from gridflex import forecaster\n"
            f"print(json.dumps([[os.environ[v] for v in {blas!r}], forecaster.WORKERS]))\n")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = str(Path(harness.__file__).resolve().parents[1])
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    blas_threads = preset or "1"
    cpus = len(os.sched_getaffinity(0))
    assert json.loads(run.stdout) == [[blas_threads, "1", "1"],
                                      max(cpus // int(blas_threads), 1)]


@pytest.fixture(scope="module")
def scenario_result():
    return run_scenario(
        SMALL_SCENARIO, SMALL,
        hyper=Hyper(epochs=2, batch_size=4, split_ratios=(0.7, 0.2, 0.1)),
        hidden_size=4, head_count=2, stride=12,
    )


class TestRunScenario:
    def test_report_fields_consistent(self, scenario_result):
        report, details = scenario_result
        assert 0.0 <= report.acceptance_rate_pct <= 100.0
        assert 0.0 <= report.total_reduction_pct <= SMALL_SCENARIO.target_reduction_pct
        assert report.incentive_total == pytest.approx(
            SMALL_SCENARIO.default_incentive * len(details["participants"])
        )
        assert len(report.shortfall_met) == SMALL_SCENARIO.emergency_day_count

    def test_participants_cap(self, scenario_result):
        _, details = scenario_result
        cap = round(SMALL_SCENARIO.participation_fraction * 20)
        assert len(details["outcomes"]) <= cap
        assert set(details["participants"]) <= {
            o.offer.household_id for o in details["outcomes"]
        }

    def test_rate_hike_funds_incentives(self, scenario_result):
        report, details = scenario_result
        community = details["community"]
        nonparticipants = [h for h in community.households
                           if h.id not in set(details["participants"])]
        collected = sum(
            daily_totals(h.load)[:SMALL_SCENARIO.cycle_days].sum() * report.r_extra
            for h in nonparticipants
        )
        assert collected == pytest.approx(report.incentive_total, rel=1e-9)

    def test_similarity_is_valid(self, scenario_result):
        _, details = scenario_result
        check_similarity(details["similarity"])

    def test_trains_on_the_scenario_split_ratios(self, monkeypatch):
        ratios = []
        real_train = harness.train

        def recording_train(model, data, hyper):
            ratios.append(hyper.split_ratios)
            return real_train(model, data, hyper)

        monkeypatch.setattr(harness, "train", recording_train)
        run_scenario(replace(SMALL_SCENARIO, split_ratios=(0.5, 0.3, 0.2)), SMALL,
                     hyper=Hyper(epochs=1, batch_size=4), hidden_size=4, head_count=2,
                     stride=12)
        assert ratios == [(0.5, 0.3, 0.2)]


class TestOneClassifierPerSelection:
    """Each selection trains the classifier once, whatever reads its scores."""

    @pytest.mark.parametrize("run", [
        lambda: run_scenario(SMALL_SCENARIO, SMALL, hyper=Hyper(epochs=1, batch_size=4),
                             hidden_size=4, head_count=2, stride=12),
        lambda: sweep_reduction(SweepSpec("reduction_pct", (5.0, 10.0)),
                                SMALL_SCENARIO, SMALL),
        lambda: sweep_rate_hike(SweepSpec("participation_pct", (10.0, 20.0)),
                                SMALL_SCENARIO, SMALL),
    ], ids=["run_scenario", "sweep_reduction", "sweep_rate_hike"])
    def test_classify_runs_once_per_selection(self, monkeypatch, run):
        calls = {"select": 0, "classify": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "run_selection",
                            counted("select", harness.run_selection))
        monkeypatch.setattr(selector, "classify", counted("classify", selector.classify))
        run()
        assert calls["select"] == 1
        assert calls["classify"] == 1


class TestCsvOutput:
    def test_rows_to_csv_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": 0.123456789012}, {"a": 2, "b": float("nan")}]
        path = tmp_path / "t.csv"
        rows_to_csv(rows, path)
        with path.open(newline="") as f:
            back = list(csv.DictReader(f))
        assert back[0]["a"] == "1"
        assert float(back[0]["b"]) == pytest.approx(0.123456789012)

    def test_rows_to_csv_rejects_empty(self, tmp_path):
        with pytest.raises(InvalidSpecError):
            rows_to_csv([], tmp_path / "t.csv")


class TestCli:
    def test_generate(self, tmp_path):
        assert main(["generate", "--counties", "2", "--households", "3",
                     "--days", "2", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "households.csv").exists()
        assert (tmp_path / "loads.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["digests"]) == {"households.csv", "loads.csv"}

    def test_train_and_select(self, tmp_path):
        train_dir = tmp_path / "train"
        assert main(["train", "--counties", "1", "--households", "8",
                     "--days", "6", "--epochs", "2", "--hidden", "4",
                     "--heads", "2", "--stride", "12",
                     "--out-dir", str(train_dir)]) == 0
        assert (train_dir / "similarity.csv").exists()
        select_dir = tmp_path / "select"
        assert main(["select", "--counties", "1", "--households", "8",
                     "--days", "6",
                     "--similarity-csv", str(train_dir / "similarity.csv"),
                     "--out-dir", str(select_dir)]) == 0
        with (select_dir / "selection.csv").open(newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 8

    def _select(self, tmp_path, name, ids, matrix):
        path = tmp_path / f"{name}.csv"
        _write_similarity(path, ids, matrix)
        out = tmp_path / name
        assert main(["select", "--counties", "1", "--households", "8", "--days", "6",
                     "--incentive", "3", "--similarity-csv", str(path),
                     "--out-dir", str(out)]) == 0
        return (out / "selection.csv").read_bytes()

    def _similarity(self):
        ids = tuple(h.id for h in generate_community(1, 1, 8, seed=0, days=6).households)
        base = np.random.default_rng(0).uniform(0.1, 1.0, (8, 8))
        base[:3, :3] += 4.0
        base[3:, 3:] += 4.0
        return ids, base / base.sum(axis=1, keepdims=True)

    def test_select_reorders_similarity_by_id(self, tmp_path):
        ids, matrix = self._similarity()
        original = self._select(tmp_path, "original", ids, matrix)
        reversed_ = self._select(tmp_path, "reversed", ids[::-1], matrix[::-1, ::-1])
        assert reversed_ == original

    def test_select_names_days_fewer_than_the_emergency_days(self, tmp_path):
        ids = tuple(generate_community(1, 1, 4, seed=0, days=2).index)
        path = tmp_path / "sim.csv"
        _write_similarity(path, ids, np.full((4, 4), 0.25))
        with pytest.raises(InvalidSpecError, match="--days 2 .* 3 emergency days"):
            main(["select", "--counties", "1", "--households", "4", "--days", "2",
                  "--similarity-csv", str(path), "--out-dir", str(tmp_path / "out")])

    def test_select_on_loaded_loads_names_the_days_they_cover(self, tmp_path):
        """Loads read from CSV cover their own number of days, not --days' 30."""
        population = tmp_path / "population"
        assert main(["generate", "--counties", "1", "--households", "8", "--days", "4",
                     "--out-dir", str(population)]) == 0
        ids, matrix = self._similarity()
        _write_similarity(tmp_path / "sim.csv", ids, matrix)
        argv = ["select", "--households-csv", str(population / "households.csv"),
                "--loads-csv", str(population / "loads.csv"), "--incentive", "3",
                "--similarity-csv", str(tmp_path / "sim.csv"), "--out-dir", str(tmp_path / "out")]
        with pytest.raises(InvalidSpecError, match="--days 30 must lie between the 3 "
                                                   "emergency days and the 4 days the loads"):
            main(argv)
        assert main([*argv, "--days", "4"]) == 0

    def test_select_rejects_unknown_similarity_id(self, tmp_path):
        ids, matrix = self._similarity()
        with pytest.raises(ReferentialIntegrityError):
            self._select(tmp_path, "unknown", ("zzz",) + ids[1:], matrix)

    def test_sweep(self, tmp_path):
        spec = {
            "variable": "incentive",
            "values": [0.0, 20.0],
            "scenario": {"cycle_days": 10, "emergency_day_count": 2},
            "community": {"counties": 1, "households_per_neighborhood": 6,
                          "days": 10},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path)]) == 0
        with (tmp_path / "sweep.csv").open(newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2

    def _write(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_sweep_without_variable_names_it(self, tmp_path):
        path = self._write(tmp_path, {"values": [1.0, 2.0]})
        with pytest.raises(InvalidSpecError, match="'variable'"):
            main(["sweep", "--spec", path, "--out-dir", str(tmp_path)])

    def test_sweep_rejects_unknown_scenario_key(self, tmp_path):
        path = self._write(tmp_path, {"variable": "incentive", "values": [1.0],
                                      "scenario": {"rng_sed": 1}})
        with pytest.raises(InvalidSpecError, match="'rng_sed'"):
            main(["sweep", "--spec", path, "--out-dir", str(tmp_path)])

    def test_run_rejects_unknown_scenario_key(self, tmp_path):
        path = self._write(tmp_path, {"scenario": {"cycle_dayz": 8}})
        with pytest.raises(InvalidSpecError, match="'cycle_dayz'"):
            main(["run", "--config", path, "--out-dir", str(tmp_path)])

    def test_run_rejects_unknown_top_level_key(self, tmp_path):
        path = self._write(tmp_path, {"hidden": 4})
        with pytest.raises(InvalidSpecError, match="'hidden'"):
            main(["run", "--config", path, "--out-dir", str(tmp_path)])

    @pytest.mark.parametrize("flag", ["--config", "--spec"])
    def test_malformed_json_names_the_file_line_and_column(self, tmp_path, flag):
        path = tmp_path / "truncated.json"
        path.write_text('{\n  "variable": "incentive",\n  "values": [1.0,')
        command = "run" if flag == "--config" else "sweep"
        with pytest.raises(InvalidSpecError, match="truncated.json line 3 column 18: Expecting value"):
            main([command, flag, str(path), "--out-dir", str(tmp_path)])

    TINY = {"counties": 1, "households_per_neighborhood": 6, "days": 10}
    TINY_SCENARIO = {"cycle_days": 10, "emergency_day_count": 2}

    @pytest.mark.parametrize(("spec", "key"), [
        ({"variable": "incentive", "values": 5}, "'values'"),
        ({"variable": "incentive", "values": [1.0, "a"]}, "'values'"),
        ({"variable": "incentive", "values": [1.0], "repetitions": "2"}, "'repetitions'"),
        ({"variable": "incentive", "values": [1.0], "repetitions": True}, "'repetitions'"),
        ({"variable": "incentive", "values": [1.0], "community": {**TINY, "counties": "5"},
          "scenario": TINY_SCENARIO}, "'counties'"),
        ({"variable": "incentive", "values": [1.0], "community": TINY,
          "scenario": {**TINY_SCENARIO, "split_ratios": [0.5, 0.5]}}, "'split_ratios'"),
    ], ids=["values-number", "values-string-entry", "repetitions-string",
            "repetitions-bool", "counties-string", "split-ratios-length"])
    def test_sweep_rejects_a_value_of_the_wrong_type(self, tmp_path, spec, key):
        path = self._write(tmp_path, spec)
        with pytest.raises(InvalidSpecError, match=key):
            main(["sweep", "--spec", path, "--out-dir", str(tmp_path)])

    @pytest.mark.parametrize(("command", "spec", "key"), [
        ("run", {"scenario": {"default_incentive": float("nan")}}, "'default_incentive'"),
        ("run", {"scenario": {"split_ratios": [0.7, float("inf"), 0.1]}}, "'split_ratios'"),
        ("run", {"hyper": {"batch_size": 0}}, "batch_size"),
        ("sweep", {"variable": "incentive", "values": [1.0, float("-inf")]}, "'values'"),
        ("run", {"stride": 0, "community": TINY, "scenario": TINY_SCENARIO}, "stride 0"),
    ], ids=["nan-incentive", "infinite-split-ratio", "zero-batch-size", "infinite-value",
            "zero-stride"])
    def test_rejects_a_non_finite_or_out_of_range_value(self, tmp_path, command, spec, key):
        path = self._write(tmp_path, spec)
        flag = "--config" if command == "run" else "--spec"
        with pytest.raises(InvalidSpecError, match=key):
            main([command, flag, path, "--out-dir", str(tmp_path)])

    def test_train_rejects_negative_epochs(self, tmp_path):
        with pytest.raises(InvalidSpecError, match="epochs must be >= 0"):
            main(["train", "--counties", "1", "--households", "4", "--days", "6",
                  "--epochs", "-1", "--out-dir", str(tmp_path)])

    def test_train_rejects_zero_epochs_before_training(self, tmp_path, monkeypatch):
        def no_training(*args):
            raise AssertionError("train() ran")

        monkeypatch.setattr(cli, "train", no_training)
        with pytest.raises(InvalidSpecError, match="--epochs must be >= 1"):
            main(["train", "--counties", "1", "--households", "4", "--days", "6",
                  "--epochs", "0", "--out-dir", str(tmp_path)])

    @pytest.mark.parametrize(("flags", "message"), [
        (["--days", "1"], "window 24 and stride 24 .* 24 hours"),
        (["--stride", "-24"], "stride -24"),
        (["--stride", "0"], "stride 0"),
        (["--heads", "0"], "head_count must be >= 1"),
        (["--hidden", "0", "--heads", "1"], "hidden_size must be >= 1"),
    ], ids=["one-day", "negative-stride", "zero-stride", "zero-heads", "zero-hidden"])
    def test_train_rejects_a_bad_shape(self, tmp_path, flags, message):
        with pytest.raises(InvalidSpecError, match=message):
            main(["train", "--counties", "1", "--households", "4", "--days", "6",
                  "--epochs", "1", *flags, "--out-dir", str(tmp_path)])

    def test_sweep_takes_an_int_for_a_float(self, tmp_path):
        path = self._write(tmp_path, {"variable": "incentive", "values": [1, 20],
                                      "community": self.TINY, "scenario": {
                                          **self.TINY_SCENARIO, "default_incentive": 3}})
        assert main(["sweep", "--spec", path, "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("section", ["community", "scenario"])
    def test_noise_sweep_rejects_sections(self, tmp_path, section):
        path = self._write(tmp_path, {"variable": "noise_level", "values": [0.0],
                                      section: {"rng_seed": 5} if section == "scenario"
                                      else {"counties": 1}})
        with pytest.raises(InvalidSpecError, match=f"'{section}'"):
            main(["sweep", "--spec", path, "--out-dir", str(tmp_path)])

    def test_noise_sweep_records_the_seeds_it_ran(self, tmp_path, monkeypatch):
        monkeypatch.setattr("gridflex.cli.noise_experiment", lambda spec: [{"seeds": 2}])
        path = self._write(tmp_path, {"variable": "noise_level", "values": [0.0, 50.0],
                                      "repetitions": 2})
        assert main(["sweep", "--spec", path, "--out-dir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["seeds"] == [0, 1]

    @pytest.mark.parametrize(("text", "message"), [
        ("", "sim.csv: empty file"),
        ("a,b\n0.5,0.5\n0.5,x\n", "sim.csv row 3"),
    ], ids=["empty", "non-numeric"])
    def test_select_rejects_a_malformed_similarity_csv(self, tmp_path, text, message):
        path = tmp_path / "sim.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            main(["select", "--counties", "1", "--households", "2", "--days", "2",
                  "--similarity-csv", str(path), "--out-dir", str(tmp_path / "out")])

    def test_run_deterministic(self, tmp_path):
        config = {
            "scenario": {"cycle_days": 8, "emergency_day_count": 2,
                         "rng_seed": 1},
            "community": {"counties": 1, "households_per_neighborhood": 8,
                          "days": 8},
            "hyper": {"epochs": 1, "batch_size": 4},
            "hidden_size": 4,
            "head_count": 2,
            "stride": 12,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["run", "--config", str(config_path),
                         "--out-dir", str(out)]) == 0
            outputs.append({
                name: (out / name).read_bytes()
                for name in ("report.json", "similarity.csv")
            })
        assert outputs[0] == outputs[1]


# -- boundary fuzzing ------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)
FIELD_VALUES = st.one_of(
    st.integers(-3, 40), st.floats(-200.0, 200.0), st.floats(),
    st.lists(st.floats(-1.0, 2.0), max_size=4), st.lists(st.integers(0, 30), max_size=4),
    st.sampled_from(["incentive", "reduction_pct", "noise_level", "sweep.csv"]), JSON_VALUES,
)


def test_json_values_nest_lists_and_dicts():
    """JSON_VALUES recurses: over 200 draws, lists and dicts turn up inside both."""
    nested = {(outer, inner): 0 for outer in (list, dict) for inner in (list, dict)}

    @settings(max_examples=200, derandomize=True, database=None)
    @given(JSON_VALUES)
    def count(value):
        if isinstance(value, (list, dict)):
            for item in value.values() if isinstance(value, dict) else value:
                if isinstance(item, (list, dict)):
                    nested[type(value), type(item)] += 1

    count()
    assert all(nested.values()), nested


@pytest.mark.parametrize("cls", [ScenarioConfig, CommunitySpec, Hyper, SweepSpec, _RunOptions])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_from_json_loads_or_raises_a_typed_error(cls, data):
    keys = [f.name for f in fields(cls)]
    raw = data.draw(st.one_of(
        st.dictionaries(st.sampled_from(keys), FIELD_VALUES, max_size=len(keys)),
        st.dictionaries(st.sampled_from(keys) | st.text(max_size=4), FIELD_VALUES, max_size=3),
        JSON_VALUES,
    ))
    try:
        loaded = _from_json(cls, raw, "spec")
    except GridflexError:
        return
    assert isinstance(loaded, cls)


SIMILARITY_TEXT = st.text(alphabet=list('ab,"\n\r .-+0123456789eEinfINF_x'), max_size=40)


@settings(max_examples=300, deadline=None)
@given(prefix=st.sampled_from(["", "a,b\n", "a,b\n0.5,0.5\n", "b,a\n0.5,0.5\n0.5,0.5\n"]),
       text=SIMILARITY_TEXT)
def test_read_similarity_loads_or_raises_a_typed_error(tmp_path_factory, prefix, text):
    path = tmp_path_factory.mktemp("similarity") / "sim.csv"
    path.write_text(prefix + text)
    try:
        matrix = _read_similarity(path, ("a", "b"))
    except GridflexError:
        return
    assert matrix.shape == (2, 2)
