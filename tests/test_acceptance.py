"""Acceptance gate: twelve end-to-end criteria with pinned tolerances.

Each test prints one PASS line with the measured value so the suite output
doubles as an acceptance report. Heavy artifacts (the full benchmark training
run, the noise study) are computed once per session and shared.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from gridflex.cli import main
from gridflex.community import (
    Community,
    ScenarioConfig,
    daily_totals,
    generate_community,
)
from gridflex.forecaster import Hyper, build_model, grad_check, make_dataset, train
from gridflex.harness import (
    CommunitySpec,
    PlantedSpec,
    SweepSpec,
    label_similarity,
    oracle_truth,
    planted_community,
    sweep_incentive,
    sweep_rate_hike,
    sweep_reduction,
)
from gridflex.metrics import allocate_budget
from gridflex.selector import (
    inject_noise,
    kmeans,
    normalized_laplacian,
    run_selection,
    spectral_embed,
    symmetrize,
)
from gridflex.tariff import (
    accept_offer,
    cycle_costs,
    make_offer,
    price_change_pct,
    price_offers,
    rate_hike,
)
from tests.conftest import community_of, household


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion:02d}: {message}")


def random_household(rng: np.random.Generator, hid: str, days: int = 30):
    hourly = rng.uniform(0.05, 4.0, size=days * 24)
    return household(
        hid=hid,
        elasticity=float(rng.uniform(-3.0, -0.05)),
        baseline_rate=float(rng.uniform(0.08, 0.4)),
        load=hourly,
    )


# -- session-scoped heavy artifacts -------------------------------------------


@pytest.fixture(scope="session")
def benchmark_training():
    """Full-scale training run shared by criteria 6 and 7: 250 households,
    90 days, published hyperparameters (lr 3e-4, 100 epochs, batch 32, 7:2:1)."""
    community = generate_community(5, 1, 50, seed=0, days=90)
    data = make_dataset(community, window=24, stride=24)
    model = build_model(np.random.default_rng(0), hidden_size=32, head_count=4,
                        socio_width=data.socio.shape[1])
    start = time.time()
    result = train(model, data, Hyper())
    return result, time.time() - start


@pytest.fixture(scope="session")
def noise_study():
    """Planted-partition selection accuracy at noise levels 0/25/50/75,
    20 seeds each, 10% of each stratum queried. Shared by criteria 9 and 10."""
    spec = PlantedSpec()
    levels = (0.0, 25.0, 50.0, 75.0)
    accuracies: dict[float, list[float]] = {lvl: [] for lvl in levels}
    start = time.time()
    for seed in range(20):
        community = planted_community(spec, seed)
        rng = np.random.default_rng(seed + 10_000)
        emergency_days = tuple(sorted(
            int(d) for d in rng.choice(spec.community.days, size=3, replace=False)
        ))
        truth = oracle_truth(community, spec.incentive, spec.reduction_pct,
                             emergency_days, spec.community.days)
        ids = tuple(h.id for h in community.households)
        clean = label_similarity(truth, ids, seed, spec.in_weight,
                                 spec.out_weight, spec.jitter)
        for level in levels:
            noisy = inject_noise(clean, level, seed=seed + 20_000)
            result = run_selection(community, noisy, truth, seed=seed,
                                   fraction=0.10)
            accuracies[level].append(result.accuracy_pct)
    elapsed = time.time() - start
    means = {lvl: float(np.mean(accs)) for lvl, accs in accuracies.items()}
    return means, elapsed


# -- criteria ------------------------------------------------------------------


def test_criterion_01_pricing_identity():
    """Paying exactly the minimum incentive equalizes program and baseline cost."""
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(1_000):
        h = random_household(rng, f"h{i}")
        days = tuple(sorted(int(d) for d in rng.choice(30, size=3, replace=False)))
        reduction = float(rng.uniform(2.0, 40.0))
        # Each household draws its own terms, so each is one row of both functions.
        e, rate = np.array([h.elasticity]), np.array([h.baseline_rate])
        (threshold,) = price_offers(daily_totals(h.load)[None], e, rate, 0.0, reduction, days,
                                    30).min_incentive
        (c_base,), (c_prog,) = cycle_costs(h.load[None], e, rate, threshold, reduction, days, 30)
        if threshold > 0:  # below threshold the clamp breaks the equality
            worst = max(worst, abs(c_prog - c_base) / c_base)
    elapsed = time.time() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    report(1, f"pricing identity worst relative gap {worst:.2e} "
              f"over 1000 households in {elapsed:.2f}s")


def test_criterion_02_revenue_neutrality():
    """Nonparticipant surcharge collections equal the incentive pool."""
    start = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(3, 30))
        nonparticipants = [random_household(rng, f"h{i}_{j}", days=30)
                           for j in range(n)]
        incentives = list(rng.uniform(10.0, 300.0, size=int(rng.integers(1, 20))))
        daily = np.array([daily_totals(h.load) for h in nonparticipants])
        r = rate_hike(daily, incentives, cycle_days=30)
        collected = sum(daily_totals(h.load)[:30].sum() * r
                        for h in nonparticipants)
        worst = max(worst, abs(collected - sum(incentives)) / sum(incentives))
    elapsed = time.time() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    report(2, f"revenue neutrality worst relative error {worst:.2e} "
              f"over 100 instances in {elapsed:.2f}s")


def test_criterion_03_elasticity_worked_example():
    """A -5% quantity change at a +10% price change is an elasticity of -0.5,
    i.e. a 5% reduction target at elasticity -0.5 prices out to exactly +10%."""
    assert price_change_pct(5.0, -0.5) == 10.0
    report(3, "price_change_pct(5, -0.5) == 10 exactly")


def test_criterion_04_budget_allocator_vs_brute_force():
    """Greedy allocation within 1.3x of the exhaustive optimum, always feasible."""
    start = time.time()
    rng = np.random.default_rng(4)
    worst_ratio = 1.0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        community = community_of(
            [random_household(rng, f"h{j:02d}", days=10) for j in range(n)]
        )
        daily_total = sum(daily_totals(h.load) for h in community.households)
        day_count = int(rng.integers(1, 3))
        days = sorted(int(d) for d in rng.choice(10, size=day_count, replace=False))
        reduction = float(rng.uniform(5.0, 25.0))
        # Keep the shortfall below what full participation can deliver.
        frac = float(rng.uniform(0.2, 0.8)) * reduction / 100.0
        shortfall = {d: frac * daily_total[d] for d in days}

        selected, paid = allocate_budget(community, shortfall, reduction, 10)
        for d, need in shortfall.items():
            covered = sum(
                daily_totals(community.by_id(h).load)[d] * reduction / 100.0
                for h in selected
            )
            assert covered >= need - 1e-9, f"day {d} constraint violated"

        optimum = brute_force_allocation(community, shortfall, reduction, 10)
        assert optimum is not None
        greedy_total = sum(paid.values())
        if optimum[1] > 1e-12:
            worst_ratio = max(worst_ratio, greedy_total / optimum[1])
        else:
            assert greedy_total <= 1e-12
    elapsed = time.time() - start
    assert worst_ratio <= 1.3
    assert elapsed < 60.0
    report(4, f"greedy/optimal worst ratio {worst_ratio:.4f} "
              f"over 200 instances in {elapsed:.1f}s")


def brute_force_allocation(community: Community, shortfall: dict, reduction: float,
                           cycle_days: int):
    days = tuple(sorted(shortfall))
    need = np.array([shortfall[d] for d in days])
    scale = reduction / 100.0
    contrib, cost = {}, {}
    for h in community.households:
        daily = daily_totals(h.load)
        contrib[h.id] = np.array([daily[d] * scale for d in days])
        cost[h.id] = accept_offer(h, make_offer(h, 0.0, reduction, days, cycle_days)).min_incentive
    ids = sorted(contrib)
    best = None
    for r in range(len(ids) + 1):
        for subset in itertools.combinations(ids, r):
            covered = sum((contrib[h] for h in subset), np.zeros(len(days)))
            if np.all(covered >= need - 1e-12):
                total = sum(cost[h] for h in subset)
                if best is None or total < best[1]:
                    best = (set(subset), total)
        if best is not None and r >= 1 and best[1] == 0.0:
            break
    return best


def test_criterion_05_gradient_correctness():
    """Analytic gradients of the full network agree with central differences."""
    start = time.time()
    rng = np.random.default_rng(5)
    community = community_of([
        household(f"h{i}", load=rng.uniform(0.1, 2.0, size=48))
        for i in range(8)
    ])
    data = make_dataset(community, window=24, stride=24)
    model = build_model(np.random.default_rng(5), hidden_size=8, head_count=2,
                        gcn_hidden=8, socio_width=7)
    err = grad_check(model, data.windows[0], data.targets[0], data.socio,
                     epsilon=1e-5)
    elapsed = time.time() - start
    assert err < 1e-4
    assert elapsed < 60.0
    report(5, f"grad_check max relative error {err:.2e} in {elapsed:.1f}s")


def test_criterion_06_forecaster_learning(benchmark_training):
    """Validation MSE at least halves on the 250-household, 90-day benchmark."""
    result, elapsed = benchmark_training
    ratio = result.val_mse[-1] / result.initial_val_mse
    assert ratio <= 0.5
    assert elapsed < 600.0
    report(6, f"val MSE {result.initial_val_mse:.4f} -> {result.val_mse[-1]:.4f} "
              f"(ratio {ratio:.3f}) in {elapsed:.0f}s")


def test_criterion_07_similarity_invariants(benchmark_training):
    """Every similarity row sums to 1 +- 1e-6 with entries in [0, 1], across
    all training epochs of the benchmark run."""
    result, _ = benchmark_training
    lo, hi = result.similarity_range
    assert result.max_row_sum_dev <= 1e-6
    assert lo >= 0.0 and hi <= 1.0
    np.testing.assert_allclose(result.similarity.sum(axis=1), 1.0, atol=1e-6)
    report(7, f"worst row-sum deviation {result.max_row_sum_dev:.2e}, "
              f"entries within [{lo:.3g}, {hi:.3g}]")


def test_criterion_08_spectral_recovery():
    """Two-component block-diagonal graphs are clustered exactly."""
    start = time.time()
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        sizes = rng.integers(4, 21, size=2)  # n = sum <= 40
        n = int(sizes.sum())
        labels = np.repeat([0, 1], sizes)
        a = np.zeros((n, n))
        for c in (0, 1):
            idx = np.where(labels == c)[0]
            block = rng.uniform(0.2, 1.0, size=(len(idx), len(idx)))
            a[np.ix_(idx, idx)] = block
        a = symmetrize(a)
        np.fill_diagonal(a, 0.0)
        embed = spectral_embed(normalized_laplacian(a), k=2)
        found = kmeans(embed, clusters=2, seed=seed)
        agreement = max(
            np.mean(found == labels), np.mean(found == 1 - labels)
        )
        assert agreement == 1.0, f"seed {seed}: agreement {agreement}"
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(8, f"20/20 block-diagonal instances recovered exactly in {elapsed:.1f}s")


def test_criterion_09_selection_accuracy_clean(noise_study):
    """Clean-matrix selection accuracy on the planted benchmark (mean >= 85%)."""
    means, elapsed = noise_study
    assert means[0.0] >= 85.0
    assert elapsed < 300.0
    report(9, f"clean mean accuracy {means[0.0]:.2f}% over 20 seeds "
              f"(study took {elapsed:.0f}s)")


def test_criterion_10_noise_trend(noise_study):
    """Accuracy declines monotonically with noise; >= 65% at the 75% level."""
    means, elapsed = noise_study
    ladder = [means[lvl] for lvl in (0.0, 25.0, 50.0, 75.0)]
    assert all(a >= b for a, b in zip(ladder, ladder[1:])), ladder
    assert ladder[-1] >= 65.0
    assert elapsed < 900.0
    report(10, "mean accuracy by noise level "
               + " >= ".join(f"{a:.2f}" for a in ladder))


def test_criterion_11_sweep_trends():
    """Monotone sweep trends, Spearman >= 0.95 on each ladder."""
    start = time.time()
    scenario = ScenarioConfig()
    cs = CommunitySpec()

    def level_means(rows, ykey, xkey):
        xs = sorted({r[xkey] for r in rows})
        return xs, [float(np.mean([r[ykey] for r in rows if r[xkey] == x]))
                    for x in xs]

    rows = sweep_incentive(
        SweepSpec("incentive", (0.5, 1.0, 2.0, 4.0, 8.0, 16.0), repetitions=3),
        scenario, cs,
    )
    xs, acc = level_means(rows, "acceptance_rate_pct", "incentive")
    rho_acc = spearmanr(xs, acc).statistic
    assert rho_acc >= 0.95
    xs, red = level_means(rows, "total_reduction_pct", "incentive")
    rho_red = spearmanr(xs, red).statistic
    assert rho_red >= 0.95

    rows = sweep_reduction(
        SweepSpec("reduction_pct", (5.0, 10.0, 15.0, 20.0, 25.0), repetitions=2),
        scenario, cs,
    )
    framework = [r for r in rows if r["scenario"] == "framework"]
    xs, cost = level_means(framework, "responsiveness_cost",
                           "participant_reduction_pct")
    rho_cost = spearmanr(xs, cost).statistic
    assert rho_cost <= -0.95

    rows = sweep_rate_hike(
        SweepSpec("participation_pct", (10.0, 20.0, 30.0, 40.0),
                  incentive_grid=(100.0, 150.0, 200.0), repetitions=2),
        scenario, cs,
    )
    rhos = []
    for incentive in (100.0, 150.0, 200.0):
        sub = [r for r in rows if r["incentive"] == incentive]
        xs, hike = level_means(sub, "r_extra", "participation_pct")
        rhos.append(spearmanr(xs, hike).statistic)
    for participation in (10.0, 20.0, 30.0, 40.0):
        sub = [r for r in rows if r["participation_pct"] == participation]
        xs, hike = level_means(sub, "r_extra", "incentive")
        rhos.append(spearmanr(xs, hike).statistic)
    assert min(rhos) >= 0.95
    elapsed = time.time() - start
    assert elapsed < 1200.0
    report(11, f"Spearman: acceptance {rho_acc:.3f}, reduction {rho_red:.3f}, "
               f"cost {rho_cost:.3f}, rate-hike min {min(rhos):.3f} "
               f"in {elapsed:.1f}s")


def test_criterion_12_determinism(tmp_path):
    """Two consecutive `run` executions produce byte-identical outputs."""
    config = {
        "scenario": {"cycle_days": 8, "emergency_day_count": 2, "rng_seed": 3},
        "community": {"counties": 1, "households_per_neighborhood": 10,
                      "days": 8},
        "hyper": {"epochs": 2, "batch_size": 4},
        "hidden_size": 4,
        "head_count": 2,
        "stride": 12,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    snapshots = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["run", "--config", str(config_path),
                     "--out-dir", str(out)]) == 0
        snapshots.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        })
    assert snapshots[0].keys() == snapshots[1].keys()
    for name in snapshots[0]:
        assert snapshots[0][name] == snapshots[1][name], f"{name} differs"
    report(12, f"{len(snapshots[0])} output files byte-identical across reruns")
