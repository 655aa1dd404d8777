"""Experiment harness: end-to-end scenario runs, seeded sweeps, and the
noise-robustness study. Each returns its results as values; the CLI writes them."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .community import (Community, ScenarioConfig, emergency_schedule,
                        generate_community, sample_elasticity)
from .errors import InvalidSpecError
from .forecaster import Hyper, build_model, make_dataset, similarity_matrix, train
from .metrics import (
    ProgramReport,
    acceptance_rate,
    responsiveness_cost,
    total_demand_reduction,
)
from .selector import SelectionResult, inject_noise, run_selection
from .tariff import accept_offer, make_offer, price_offers, rate_hike


@dataclass(frozen=True)
class CommunitySpec:
    counties: int = 5
    neighborhoods_per_county: int = 1
    households_per_neighborhood: int = 50
    days: int = 30
    baseline_rate: float = 0.16


@dataclass(frozen=True)
class SweepSpec:
    variable: str  # incentive | reduction_pct | participation_pct | noise_level
    values: tuple[float, ...]
    repetitions: int = 1
    outputs: str = "sweep.csv"
    incentive_grid: tuple[float, ...] = ()  # second axis for the rate-hike sweep

    def __post_init__(self):
        domains = {  # variable -> (holds for a value, rule)
            "incentive": (lambda v: v >= 0, ">= 0"),
            "reduction_pct": (lambda v: 0 < v < 100, "in (0, 100)"),
            # At 100% nobody is left to pay the surcharge.
            "participation_pct": (lambda v: 0 <= v < 100, "in [0, 100)"),
            "noise_level": (lambda v: v >= 0, ">= 0"),
        }
        if self.variable not in domains:
            raise InvalidSpecError(f"unknown sweep variable {self.variable!r}")
        if not np.isfinite(self.values).all():
            raise InvalidSpecError(f"values must be finite, got {self.values}")
        if not self.values or any(
            b <= a for a, b in zip(self.values, self.values[1:])
        ):
            raise InvalidSpecError("values must be a nonempty strictly increasing ladder")
        holds, rule = domains[self.variable]
        for value in self.values:
            if not holds(value):
                raise InvalidSpecError(f"{self.variable} values must be {rule}, got {value}")
        for v in self.incentive_grid:
            if not 0 <= v < np.inf:
                raise InvalidSpecError(f"incentive_grid entries must be finite and >= 0, got {v}")
        if self.repetitions < 1:
            raise InvalidSpecError("repetitions must be >= 1")
        if (self.outputs in ("", ".", "..", "manifest.json")
                or "/" in self.outputs or "\\" in self.outputs):
            raise InvalidSpecError(f"outputs must be a plain file name other than "
                                   f"manifest.json, got {self.outputs!r}")


# -- shared plumbing -----------------------------------------------------------


def resample_elasticities(
    community: Community, seed: int, mean: float | np.ndarray = -0.25,
    std: float | np.ndarray = 0.1,
) -> Community:
    """`community` with elasticities drawn anew from `seed`; mean and std may be per-row arrays."""
    elasticity = sample_elasticity(np.random.default_rng(seed), mean, std, size=len(community))
    return replace(community, elasticity=elasticity)


def oracle_truth(
    community: Community,
    incentive: float,
    reduction_pct: float,
    emergency_days: tuple[int, ...],
    cycle_days: int,
) -> dict[str, bool]:
    """Ground-truth accept/reject per household: accept iff the incentive is at
    least the household's minimum incentive."""
    accepted = price_offers(community.daily, community.elasticity, community.baseline_rate,
                            incentive, reduction_pct, emergency_days, cycle_days).accepted
    return dict(zip(community.ids, accepted.tolist()))


# -- planted-partition benchmark ----------------------------------------------


@dataclass(frozen=True)
class PlantedSpec:
    """Two elasticity regimes chosen so the default offer splits the population."""

    community: CommunitySpec = CommunitySpec(baseline_rate=0.3)
    reduction_pct: float = 20.0
    incentive: float = 100.0
    flexible_mean: float = -0.5
    flexible_std: float = 0.05
    rigid_mean: float = -0.025
    rigid_std: float = 0.004
    in_weight: float = 1.0
    out_weight: float = 0.25
    jitter: float = 0.5


def planted_community(spec: PlantedSpec, seed: int) -> Community:
    """Synthetic community whose households alternate between two elasticity
    regimes within each neighborhood."""
    cs = spec.community
    base = generate_community(
        cs.counties, cs.neighborhoods_per_county, cs.households_per_neighborhood,
        seed=seed, days=cs.days, baseline_rate=cs.baseline_rate,
    )
    regimes = ((spec.flexible_mean, spec.flexible_std), (spec.rigid_mean, spec.rigid_std))
    mean, std = np.resize(regimes, (len(base), 2)).T  # rows alternate between regimes
    return resample_elasticities(base, seed + 1, mean, std)


def label_similarity(
    truth: dict[str, bool], ids: tuple[str, ...], seed: int,
    in_weight: float = 1.0, out_weight: float = 0.25, jitter: float = 0.5,
) -> np.ndarray:
    """Row-stochastic similarity with block structure along the true labels.

    Stand-in for a trained attention matrix at desk scale: same-response pairs
    get high weight, cross pairs low, with seeded multiplicative jitter.
    """
    missing = set(ids) - truth.keys()
    if missing:
        raise InvalidSpecError(f"truth has no value for ids {sorted(missing)}")
    rng = np.random.default_rng(seed)
    y = np.array([truth[h] for h in ids])
    same = y[:, None] == y[None, :]
    base = np.where(same, in_weight, out_weight)
    base = base * rng.uniform(1 - jitter, 1 + jitter, size=base.shape)
    return base / base.sum(axis=1, keepdims=True)


# -- end-to-end scenario -------------------------------------------------------


def run_scenario(
    config: ScenarioConfig,
    community_spec: CommunitySpec = CommunitySpec(),
    hyper: Hyper | None = None,
    hidden_size: int = 32,
    head_count: int = 4,
    stride: int = 24,
    shortfall_kwh_per_day: float = 0.0,
) -> tuple[ProgramReport, dict]:
    """Full pipeline: generate community, train the forecaster, run selection,
    make offers to the top-scoring predicted acceptors, settle the tariff.

    Returns the report plus a details dict with per-household raw outputs.
    """
    hyper = replace(hyper or Hyper(), split_ratios=config.split_ratios)
    community = generate_community(
        community_spec.counties,
        community_spec.neighborhoods_per_county,
        community_spec.households_per_neighborhood,
        seed=config.rng_seed,
        days=community_spec.days,
        elasticity_mean=config.elasticity_mean,
        elasticity_std=config.elasticity_std,
        baseline_rate=community_spec.baseline_rate,
    )
    rng = np.random.default_rng(config.rng_seed)
    emergency_days = emergency_schedule(config, rng)
    truth = oracle_truth(
        community, config.default_incentive, config.target_reduction_pct,
        emergency_days, config.cycle_days,
    )

    data = make_dataset(community, window=24, stride=stride)
    model = build_model(
        np.random.default_rng(config.rng_seed), hidden_size=hidden_size,
        head_count=head_count, socio_width=data.socio.shape[1],
    )
    train(model, data, hyper)
    similarity = similarity_matrix(model, data)

    selection = run_selection(
        community, similarity, truth, seed=config.rng_seed, hyper=hyper
    )

    # Offer pool: predicted acceptors ranked by classifier accept-probability,
    # capped at the configured participation fraction. Ties break on id.
    cap = int(round(config.participation_fraction * len(community)))
    predicted = dict(zip(selection.household_ids, selection.predicted))
    pool = [hid for hid in _ranked(selection) if predicted[hid]][:cap]
    outcomes = [
        accept_offer(h, make_offer(h, config.default_incentive, config.target_reduction_pct,
                                   emergency_days, config.cycle_days))
        for h in map(community.by_id, pool)
    ]
    participants = [o.offer.household_id for o in outcomes if o.accepted]
    rows = [community.index[hid] for hid in participants]
    accepted = community.mask(participants)
    reductions = (community.emergency_kwh(emergency_days)[rows]
                  * config.target_reduction_pct / 100.0).tolist()
    incentives = [config.default_incentive] * len(participants)
    r_extra = rate_hike(community.daily[~accepted], incentives, config.cycle_days)
    per_day_reduction = (community.daily[rows][:, list(emergency_days)].sum(axis=0)
                         * config.target_reduction_pct / 100.0)
    report = ProgramReport(
        acceptance_rate_pct=acceptance_rate([o.accepted for o in outcomes]) if outcomes else 0.0,
        responsiveness_cost=responsiveness_cost(incentives, reductions) if reductions else 0.0,
        total_reduction_pct=total_demand_reduction(
            community, accepted, config.target_reduction_pct, emergency_days
        ),
        incentive_total=float(sum(incentives)),
        r_extra=r_extra,
        shortfall_met=tuple(bool(r >= shortfall_kwh_per_day) for r in per_day_reduction),
    )
    details = {
        "emergency_days": emergency_days,
        "participants": sorted(participants),
        "selection_accuracy_pct": selection.accuracy_pct,
        "outcomes": outcomes,
        "truth": truth,
        "similarity": similarity,
        "community": community,
    }
    return report, details


# -- sweeps --------------------------------------------------------------------


def _repetitions(
    spec: SweepSpec, scenario: ScenarioConfig, community_spec: CommunitySpec
) -> Iterator[tuple[int, Community, tuple[int, ...]]]:
    """Each repetition's (seed, community, emergency days): the base community
    is generated once, and each seed resamples its elasticities and draws its
    emergency schedule."""
    base = generate_community(
        community_spec.counties, community_spec.neighborhoods_per_county,
        community_spec.households_per_neighborhood, seed=scenario.rng_seed,
        days=community_spec.days, baseline_rate=community_spec.baseline_rate,
    )
    for rep in range(spec.repetitions):
        seed = scenario.rng_seed + rep
        community = resample_elasticities(
            base, seed, scenario.elasticity_mean, scenario.elasticity_std
        )
        yield seed, community, emergency_schedule(scenario, np.random.default_rng(seed))


def _ranked(selection: SelectionResult) -> list[str]:
    """Household ids by descending classifier score, ties broken on id."""
    score = dict(zip(selection.household_ids, selection.scores))
    return sorted(selection.household_ids, key=lambda hid: (-score[hid], hid))


def _planted_ranking(community: Community, scenario: ScenarioConfig,
                     emergency_days: tuple[int, ...], seed: int) -> list[str]:
    """`_ranked` order of a selection run on `label_similarity` of the oracle's
    answers to the scenario's default offer."""
    truth = oracle_truth(
        community, scenario.default_incentive, scenario.target_reduction_pct,
        emergency_days, scenario.cycle_days,
    )
    similarity = label_similarity(truth, community.ids, seed)
    return _ranked(run_selection(community, similarity, truth, seed=seed))


def sweep_incentive(
    spec: SweepSpec,
    scenario: ScenarioConfig,
    community_spec: CommunitySpec = CommunitySpec(),
) -> list[dict]:
    """Offers to every household at each incentive on the ladder."""
    rows = []
    pct = scenario.target_reduction_pct
    for seed, community, emergency_days in _repetitions(spec, scenario, community_spec):
        kwh = community.emergency_kwh(emergency_days)
        for incentive in spec.values:
            accepted = price_offers(community.daily, community.elasticity, community.baseline_rate,
                                    incentive, pct, emergency_days, scenario.cycle_days).accepted
            reductions = (kwh[accepted] * pct / 100.0).tolist()
            incentives = [incentive] * len(reductions)
            rows.append({
                "seed": seed,
                "incentive": incentive,
                "acceptance_rate_pct": acceptance_rate(accepted),
                "responsiveness_cost": (
                    responsiveness_cost(incentives, reductions)
                    if reductions else float("nan")
                ),
                "total_reduction_pct": total_demand_reduction(
                    community, accepted, pct, emergency_days
                ),
                "accepted": len(reductions),
                "offered": len(community),
                "incentive_total": float(sum(incentives)),
                "reduction_kwh_total": float(sum(reductions)),
            })
    return rows


def sweep_reduction(
    spec: SweepSpec,
    scenario: ScenarioConfig,
    community_spec: CommunitySpec = CommunitySpec(),
) -> list[dict]:
    """Participant-reduction ladder for the top quarter of households by
    classifier score ("framework") and by total consumption ("skewed")."""
    rows = []
    for seed, community, emergency_days in _repetitions(spec, scenario, community_spec):
        count = int(round(0.25 * len(community)))
        kwh = community.emergency_kwh(emergency_days)
        skewed = sorted(zip(-community.daily.sum(axis=1), community.ids))
        quarters = (
            ("framework", _planted_ranking(community, scenario, emergency_days, seed)),
            ("skewed", [hid for _, hid in skewed]),
        )
        for variant, ranking in quarters:
            participants = ranking[:count]
            chosen = kwh[[community.index[hid] for hid in participants]]
            for reduction in spec.values:
                reductions = (chosen * reduction / 100.0).tolist()
                rows.append({
                    "seed": seed,
                    "scenario": variant,
                    "participant_reduction_pct": reduction,
                    "total_reduction_pct": total_demand_reduction(
                        community, community.mask(participants), reduction, emergency_days
                    ),
                    "responsiveness_cost": responsiveness_cost(
                        [scenario.default_incentive] * len(participants), reductions
                    ),
                    "incentive_total": scenario.default_incentive * len(participants),
                    "reduction_kwh_total": float(sum(reductions)),
                })
    return rows


def sweep_rate_hike(
    spec: SweepSpec,
    scenario: ScenarioConfig,
    community_spec: CommunitySpec = CommunitySpec(),
) -> list[dict]:
    """Grid over participation fraction (ladder) and incentive (incentive_grid)."""
    incentive_grid = spec.incentive_grid or (100.0, 150.0, 200.0)
    rows = []
    for seed, community, emergency_days in _repetitions(spec, scenario, community_spec):
        ranked = _planted_ranking(community, scenario, emergency_days, seed)
        cycle_kwh = community.daily[:, : scenario.cycle_days].sum(axis=1)
        for participation_pct in spec.values:
            count = int(round(participation_pct / 100.0 * len(community)))
            outside = ~community.mask(ranked[:count])
            nonparticipant_kwh = sum(cycle_kwh[outside].tolist())
            for incentive in incentive_grid:
                rows.append({
                    "seed": seed,
                    "participation_pct": participation_pct,
                    "incentive": incentive,
                    "r_extra": rate_hike(
                        community.daily[outside], [incentive] * count, scenario.cycle_days
                    ),
                    "incentive_total": incentive * count,
                    "nonparticipant_kwh": nonparticipant_kwh,
                })
    return rows


def noise_experiment(
    spec: SweepSpec,
    planted: PlantedSpec = PlantedSpec(),
) -> list[dict]:
    """Selection accuracy vs similarity-matrix noise level, aggregated over seeds."""
    per_level: dict[float, list[float]] = {lvl: [] for lvl in spec.values}
    for seed in range(spec.repetitions):
        community = planted_community(planted, seed)
        days = planted.community.days
        emergency_days = emergency_schedule(ScenarioConfig(cycle_days=days),
                                            np.random.default_rng(seed + 10_000))
        truth = oracle_truth(community, planted.incentive, planted.reduction_pct,
                             emergency_days, days)
        clean = label_similarity(truth, community.ids, seed, planted.in_weight,
                                 planted.out_weight, planted.jitter)
        for level in spec.values:
            noisy = inject_noise(clean, level, seed=seed + 20_000)
            result = run_selection(community, noisy, truth, seed=seed)
            per_level[level].append(result.accuracy_pct)
    return [
        {
            "noise_level_pct": level,
            "mean_accuracy_pct": float(np.mean(accs)),
            "std_accuracy_pct": float(np.std(accs)),
            "seeds": len(accs),
        }
        for level, accs in per_level.items()
    ]

