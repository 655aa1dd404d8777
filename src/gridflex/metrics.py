"""Program-level utility metrics and a greedy budget allocator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .community import Community
from .errors import DomainError, InfeasibleAllocationError, UndefinedMetricError
from .tariff import price_offers


@dataclass(frozen=True)
class ProgramReport:
    acceptance_rate_pct: float
    responsiveness_cost: float  # dollars per kWh of realized reduction
    total_reduction_pct: float
    incentive_total: float
    r_extra: float  # dollars / kWh surcharge on non-participants
    shortfall_met: tuple[bool, ...]  # per emergency day


def acceptance_rate(accepted: list[bool] | np.ndarray) -> float:
    """Percent of offered households that accepted, from one bool per offer."""
    if len(accepted) == 0:
        raise UndefinedMetricError("acceptance rate over zero offers")
    return 100.0 * int(np.count_nonzero(accepted)) / len(accepted)


def responsiveness_cost(incentives: list[float], reductions: list[float]) -> float:
    """Total incentives divided by total emergency-day kWh reduction."""
    total_reduction = float(sum(reductions))
    if not total_reduction > 0:  # NaN fails too
        raise UndefinedMetricError(f"responsiveness cost over total reduction {total_reduction}")
    return float(sum(incentives)) / total_reduction


def total_demand_reduction(
    community: Community,
    participants: np.ndarray,
    reduction_pct: float,
    emergency_days: tuple[int, ...],
) -> float:
    """Emergency-day reduction of the households in the row mask `participants`,
    as a percent of community emergency-day consumption."""
    if np.asarray(participants).dtype != bool or np.shape(participants) != (len(community),):
        raise DomainError(f"participants must be a bool mask of {len(community)} rows")
    kwh = community.emergency_kwh(emergency_days)
    # Summed left to right, household by household, not pairwise as numpy
    # sums: the result keeps the bits of a per-household loop.
    total = sum(kwh.tolist())
    if total <= 0:
        raise UndefinedMetricError("community has zero emergency-day consumption")
    reduced = sum((kwh[participants] * reduction_pct / 100.0).tolist())
    return 100.0 * reduced / total


def allocate_budget(
    community: Community,
    shortfall_per_day: dict[int, float],
    reduction_pct: float,
    cycle_days: int,
) -> tuple[set[str], dict[str, float]]:
    """Pick participants covering the per-day kWh shortfall at minimum incentive spend.

    Greedy: rank households ascending by min_incentive per kWh of reduction on the
    worst (largest-shortfall) day, add until every day's constraint holds, then
    prune any household whose removal keeps all constraints satisfied. Each
    selected household is paid exactly its minimum incentive.
    """
    days = tuple(sorted(shortfall_per_day))
    if not days or all(s <= 0 for s in shortfall_per_day.values()):
        return set(), {}
    ids = community.ids
    reduction = community.daily[:, list(days)] * (reduction_pct / 100.0)  # (n, days)
    cost = price_offers(
        community.daily, community.elasticity, community.baseline_rate, 0.0,
        reduction_pct, days, cycle_days,
    ).min_incentive

    worst = reduction[:, int(np.argmax([shortfall_per_day[d] for d in days]))]
    score = np.full(len(ids), np.inf)
    np.divide(cost, worst, out=score, where=worst > 0)

    order = sorted(range(len(ids)), key=lambda i: (score[i], ids[i]))
    need = np.array([shortfall_per_day[d] for d in days], dtype=float)
    covered = np.zeros(len(days))
    selected: list[int] = []
    for i in order:
        if np.all(covered >= need - 1e-12):
            break
        selected.append(i)
        covered += reduction[i]
    if not np.all(covered >= need - 1e-12):
        first_bad = days[int(np.argmax(covered < need - 1e-12))]
        raise InfeasibleAllocationError(
            f"shortfall on day {first_bad} cannot be covered at {reduction_pct}% reduction",
            day=first_bad,
        )

    # Minimality pass: drop (most expensive first) anyone the cover can spare.
    for i in sorted(selected, key=lambda i: (-cost[i], ids[i])):
        without = covered - reduction[i]
        if np.all(without >= need - 1e-12):
            selected.remove(i)
            covered = without

    return {ids[i] for i in selected}, {ids[i]: float(cost[i]) for i in selected}
