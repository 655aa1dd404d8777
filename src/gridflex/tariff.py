"""Pricing on rows, one per household: one pricing rule, `price_offers` (emergency
rate, minimum incentive, the oracle's accept/reject), one bill, `cycle_costs`, and the
revenue-neutral `rate_hike`. `make_offer` and `accept_offer`, which perfbench's tracer
wraps, are the one-household view: one-row calls of the first two."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .community import HOURS_PER_DAY, Household, daily_totals
from .errors import (ContractViolation, CoverageError, DegeneratePopulationError, DomainError,
                     ValidationError)


def _check_terms(incentive, emergency_days: tuple[int, ...], cycle_days: int) -> None:
    """An offer's incentive (one value or one per row) and its emergency days."""
    if not np.all((0 <= np.asarray(incentive)) & (np.asarray(incentive) < math.inf)):
        raise ValidationError(f"incentive must be a finite number >= 0, got {incentive}")
    if any(not 0 <= d < cycle_days for d in emergency_days):
        raise ValidationError("emergency day index outside the cycle")


@dataclass(frozen=True)
class Offer:
    household_id: str
    incentive: float  # dollars, paid once per cycle
    target_reduction_pct: float
    emergency_days: tuple[int, ...]  # day indices within the cycle
    cycle_days: int

    def __post_init__(self):
        _check_terms(self.incentive, self.emergency_days, self.cycle_days)
        if not 0 < self.target_reduction_pct < 100:
            raise ValidationError("target_reduction_pct must lie in (0, 100)")


class OfferOutcome(NamedTuple):
    offer: Offer
    accepted: bool
    min_incentive: float
    cost_baseline: float
    cost_program: float


def price_change_pct(target_reduction_pct: float, elasticity: float | np.ndarray):
    """Percent price increase needed for a target percent demand reduction.

    A reduction of i% is a quantity change of -i%, so the price change is
    (-i) / elasticity, which is positive for negative elasticity. Takes one
    elasticity or an array of them; a NaN one is not negative."""
    if not (np.asarray(elasticity) < 0).all():
        raise DomainError(f"elasticity must be negative, got {elasticity}")
    if not 0 < target_reduction_pct < 100:
        raise DomainError("target_reduction_pct must lie in (0, 100)")
    return -target_reduction_pct / elasticity


def emergency_rate(baseline_rate: float | np.ndarray, target_reduction_pct: float,
                   elasticity: float | np.ndarray):
    """Per-kWh rate on emergency days implied by the household's elasticity."""
    return baseline_rate * (1.0 + price_change_pct(target_reduction_pct, elasticity) / 100.0)


def _check_rows(kwh: np.ndarray, baseline_rate: np.ndarray, *terms) -> None:
    """The one input check of `price_offers` and `cycle_costs` (bar the elasticity)."""
    if not np.all((0 <= kwh) & (kwh < math.inf)):
        raise ValidationError("kWh must be finite and >= 0")
    if not np.all((0 < baseline_rate) & (baseline_rate < math.inf)):
        raise ValidationError(f"baseline_rate must be finite and > 0, got {baseline_rate}")
    _check_terms(*terms)


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

    A row's emergency rate r_e follows from its own elasticity. Its minimum incentive is
    the program's extra charge under exact compliance, the sum over emergency days of
    daily * (1 - i/100) * r_e - daily * r_b, clamped at 0 (a reduced emergency-day bill
    can fall below the baseline one). The oracle accepts iff the incentive is at least
    the unclamped minimum."""
    _check_rows(daily, baseline_rate, incentive, emergency_days, cycle_days)
    daily = _cycle(daily, cycle_days)
    rate = emergency_rate(baseline_rate, reduction_pct, elasticity)
    scale = 1.0 - reduction_pct / 100.0
    raw = np.zeros(len(daily))
    for d in emergency_days:
        raw = raw + (daily[:, d] * scale * rate - daily[:, d] * baseline_rate)
    return Pricing(rate, np.maximum(raw, 0.0), incentive >= raw)


def cycle_costs(loads: np.ndarray, elasticity: np.ndarray, baseline_rate: np.ndarray,
                incentive, reduction_pct: float, emergency_days: tuple[int, ...],
                cycle_days: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's (cost_baseline, cost_program) under exact compliance, from
    hourly kWh `loads` (n, hours). The program bills the other days at the
    baseline rate and the emergency days' hours, each cut by `reduction_pct`, at
    the row's emergency rate, less the incentive (one value or one per row); it
    can be negative. Hours sum into days, then days into bills."""
    _check_rows(loads, baseline_rate, incentive, emergency_days, cycle_days)
    daily = _cycle(daily_totals(loads), cycle_days)
    emergency = np.isin(np.arange(cycle_days), emergency_days)
    hours = loads[:, :cycle_days * HOURS_PER_DAY].reshape(len(loads), cycle_days, HOURS_PER_DAY)
    reduced = (hours[:, emergency] * (1.0 - reduction_pct / 100.0)).sum(axis=-1)
    rate = emergency_rate(baseline_rate, reduction_pct, elasticity)
    program = daily[:, ~emergency].sum(axis=1) * baseline_rate + reduced.sum(axis=1) * rate
    return daily.sum(axis=1) * baseline_rate, program - incentive


def make_offer(household: Household, incentive: float, target_reduction_pct: float,
               emergency_days: tuple[int, ...], cycle_days: int) -> Offer:
    """The offer's terms, made out to `household`."""
    return Offer(household.id, incentive, target_reduction_pct, tuple(emergency_days), cycle_days)


def accept_offer(household: Household, offer: Offer) -> OfferOutcome:
    """The oracle's answer for one household, with its two cycle costs under
    exact compliance: one-row calls of `price_offers` and `cycle_costs`."""
    if offer.household_id != household.id:
        raise ContractViolation(f"offer to {offer.household_id} put to {household.id}")
    load = household.load[None]
    args = (np.array([household.elasticity]), np.array([household.baseline_rate]),
            offer.incentive, offer.target_reduction_pct, offer.emergency_days, offer.cycle_days)
    priced = price_offers(daily_totals(load), *args)
    cost_baseline, cost_program = cycle_costs(load, *args)
    return OfferOutcome(offer, bool(priced.accepted[0]), float(priced.min_incentive[0]),
                        float(cost_baseline[0]), float(cost_program[0]))


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
