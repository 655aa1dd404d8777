"""Pricing and incentive arithmetic: costs, emergency rates, minimum incentives,
the acceptance oracle, and the revenue-neutral rate hike on non-participants."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .community import HOURS_PER_DAY, Household, daily_totals
from .errors import (
    ContractViolation,
    CoverageError,
    DegeneratePopulationError,
    DomainError,
    ValidationError,
)


@dataclass(frozen=True)
class TariffSchedule:
    baseline_rate: float  # dollars / kWh
    emergency_rate: float  # dollars / kWh
    emergency_days: tuple[int, ...]  # day indices within the cycle
    cycle_days: int

    def __post_init__(self):
        if self.baseline_rate <= 0:
            raise ValidationError("baseline_rate must be > 0")
        if self.emergency_rate < self.baseline_rate:
            raise ValidationError("emergency_rate must be >= baseline_rate")
        if any(not 0 <= d < self.cycle_days for d in self.emergency_days):
            raise ValidationError("emergency day index outside the cycle")


@dataclass(frozen=True)
class Offer:
    household_id: str
    incentive: float  # dollars, paid once per cycle
    target_reduction_pct: float
    schedule: TariffSchedule

    def __post_init__(self):
        if not 0 <= self.incentive < math.inf:
            raise ValidationError(f"incentive must be a finite number >= 0, got {self.incentive}")
        if not 0 < self.target_reduction_pct < 100:
            raise ValidationError("target_reduction_pct must lie in (0, 100)")


@dataclass(frozen=True)
class OfferOutcome:
    offer: Offer
    accepted: bool
    min_incentive: float
    cost_baseline: float
    cost_program: float


def price_change_pct(target_reduction_pct: float, elasticity: float | np.ndarray):
    """Percent price increase needed for a target percent demand reduction.

    A reduction of i% is a quantity change of -i%, so the price change is
    (-i) / elasticity, which is positive for negative elasticity. Takes one
    elasticity or an array of them.
    """
    if np.any(np.asarray(elasticity) >= 0):
        raise DomainError(f"elasticity must be negative, got {elasticity}")
    if not 0 < target_reduction_pct < 100:
        raise DomainError("target_reduction_pct must lie in (0, 100)")
    return -target_reduction_pct / elasticity


def emergency_rate(baseline_rate: float | np.ndarray, target_reduction_pct: float,
                   elasticity: float | np.ndarray):
    """Per-kWh rate on emergency days implied by the household's elasticity."""
    return baseline_rate * (1.0 + price_change_pct(target_reduction_pct, elasticity) / 100.0)


def _cycle(daily: np.ndarray, cycle_days: int) -> np.ndarray:
    """The billing cycle's days of per-day kWh, one row or many."""
    if daily.shape[-1] < cycle_days:
        raise CoverageError(f"load covers {daily.shape[-1]} days but the cycle has {cycle_days}")
    return daily[..., :cycle_days]


class Pricing(NamedTuple):
    emergency_rate: np.ndarray  # dollars / kWh, (n,)
    min_incentive: np.ndarray  # dollars, clamped at 0, (n,)
    accepted: np.ndarray  # the oracle's answer, bool (n,)


def price_offers(daily: np.ndarray, elasticity: np.ndarray, baseline_rate: np.ndarray,
                 incentive: float, reduction_pct: float, emergency_days: tuple[int, ...],
                 cycle_days: int) -> Pricing:
    """One offer priced for every row of `daily` (kWh per day, (n, days)).

    A row's emergency rate r_e follows from its own elasticity. Its minimum
    incentive is the program's extra charge under exact compliance, the sum
    over emergency days of daily * (1 - i/100) * r_e - daily * r_b, clamped at 0
    (a reduced emergency-day bill can fall below the baseline one). The oracle
    accepts iff the incentive is at least the unclamped minimum.
    """
    if not 0 <= incentive < math.inf:
        raise ValidationError(f"incentive must be a finite number >= 0, got {incentive}")
    if any(not 0 <= d < cycle_days for d in emergency_days):
        raise ValidationError("emergency day index outside the cycle")
    daily = _cycle(daily, cycle_days)
    rate = emergency_rate(baseline_rate, reduction_pct, elasticity)
    scale = 1.0 - reduction_pct / 100.0
    raw = np.zeros(len(daily))
    for d in emergency_days:
        raw = raw + (daily[:, d] * scale * rate - daily[:, d] * baseline_rate)
    return Pricing(rate, np.maximum(raw, 0.0), incentive >= raw)


def baseline_cost(household: Household, cycle_days: int) -> float:
    """Cycle cost at the baseline rate with no program participation."""
    daily = _cycle(daily_totals(household.load), cycle_days)
    return float(daily.sum() * household.baseline_rate)


def apply_reduction(
    load: np.ndarray, emergency_days: tuple[int, ...], reduction_pct: float
) -> np.ndarray:
    """A copy of the hourly `load` with each emergency day scaled by (1 - i/100)."""
    if not 0 <= reduction_pct <= 100:
        raise DomainError("reduction_pct must lie in [0, 100]")
    values = np.array(load, dtype=float).reshape(-1, HOURS_PER_DAY)
    for d in emergency_days:
        values[d] = values[d] * (1.0 - reduction_pct / 100.0)
    return values.reshape(-1)


def program_cost(household: Household, offer: Offer, reduced_load: np.ndarray) -> float:
    """Cycle cost under the program: baseline rate off-emergency, emergency rate on
    the reduced consumption, minus the upfront incentive. Can be negative."""
    sched = offer.schedule
    daily = _cycle(daily_totals(household.load), sched.cycle_days)
    reduced_daily = _cycle(daily_totals(reduced_load), sched.cycle_days)
    emergency = np.zeros(sched.cycle_days, dtype=bool)
    emergency[list(sched.emergency_days)] = True
    hours = np.arange(sched.cycle_days * 24)
    changed = reduced_load[hours] != household.load[hours]
    if np.any(changed & ~emergency[hours // 24]):
        raise ContractViolation("reduced load differs from the load on a non-emergency day")
    cost = (
        daily[~emergency].sum() * sched.baseline_rate
        + reduced_daily[emergency].sum() * sched.emergency_rate
        - offer.incentive
    )
    return float(cost)


def _price_one(household: Household, offer: Offer) -> Pricing:
    """`price_offers` for one household, whose own rates the offer must carry."""
    sched = offer.schedule
    priced = price_offers(daily_totals(household.load)[None], np.array([household.elasticity]),
                          np.array([household.baseline_rate]), offer.incentive,
                          offer.target_reduction_pct, sched.emergency_days, sched.cycle_days)
    if (sched.baseline_rate, sched.emergency_rate) != (household.baseline_rate,
                                                       priced.emergency_rate[0]):
        raise ContractViolation("the offer's rates are not the household's own")
    return priced


def min_incentive(household: Household, offer: Offer) -> float:
    """Smallest incentive making participation no worse than the baseline."""
    return float(_price_one(household, offer).min_incentive[0])


def make_offer(
    household: Household,
    incentive: float,
    target_reduction_pct: float,
    emergency_days: tuple[int, ...],
    cycle_days: int,
) -> Offer:
    """Offer with the emergency rate derived from the household's own elasticity."""
    schedule = TariffSchedule(
        baseline_rate=household.baseline_rate,
        emergency_rate=emergency_rate(
            household.baseline_rate, target_reduction_pct, household.elasticity
        ),
        emergency_days=tuple(emergency_days),
        cycle_days=cycle_days,
    )
    return Offer(household.id, incentive, target_reduction_pct, schedule)


def accept_offer(household: Household, offer: Offer) -> OfferOutcome:
    """The ground-truth oracle's answer for one household, with its two cycle
    costs under exact compliance."""
    sched = offer.schedule
    priced = _price_one(household, offer)
    reduced = apply_reduction(household.load, sched.emergency_days, offer.target_reduction_pct)
    return OfferOutcome(
        offer=offer,
        accepted=bool(priced.accepted[0]),
        min_incentive=float(priced.min_incentive[0]),
        cost_baseline=baseline_cost(household, sched.cycle_days),
        cost_program=program_cost(household, offer, reduced),
    )


def rate_hike(daily: np.ndarray, incentives: Sequence[float], cycle_days: int) -> float:
    """Uniform per-kWh surcharge on the non-participants, whose kWh per day are
    the rows of `daily`, that funds the incentive pool."""
    total_incentive = float(sum(incentives))
    if total_incentive == 0.0:
        return 0.0
    # Summed left to right, household by household, not pairwise as numpy
    # sums: the result keeps the bits of a per-household loop.
    total_kwh = sum(_cycle(daily, cycle_days).sum(axis=1).tolist())
    if total_kwh <= 0:
        raise DegeneratePopulationError("non-participants have zero cycle consumption")
    return total_incentive / total_kwh
