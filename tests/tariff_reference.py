"""The per-household cycle bills that priced one household's load at a time. They
are the reference `gridflex.tariff.cycle_costs` is tested against: a one-row
call must give the same bytes, a call on many rows the same values to 1e-12."""

import numpy as np

from gridflex.community import HOURS_PER_DAY, Household, daily_totals
from gridflex.errors import CoverageError, DomainError
from gridflex.tariff import Offer, emergency_rate


def _cycle_days(load: np.ndarray, cycle_days: int) -> np.ndarray:
    daily = daily_totals(load)
    if len(daily) < cycle_days:
        raise CoverageError(f"load covers {len(daily)} days but the cycle has {cycle_days}")
    return daily[:cycle_days]


def baseline_cost(household: Household, cycle_days: int) -> float:
    """Cycle cost at the baseline rate with no program participation."""
    return float(_cycle_days(household.load, cycle_days).sum() * household.baseline_rate)


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


def program_cost(household: Household, offer: Offer) -> float:
    """Cycle cost under the program with exact compliance: the baseline rate
    off-emergency, the household's emergency rate on the reduced consumption,
    minus the upfront incentive. Can be negative."""
    reduced = apply_reduction(household.load, offer.emergency_days, offer.target_reduction_pct)
    daily = _cycle_days(household.load, offer.cycle_days)
    reduced_daily = _cycle_days(reduced, offer.cycle_days)
    emergency = np.zeros(offer.cycle_days, dtype=bool)
    emergency[list(offer.emergency_days)] = True
    rate = emergency_rate(household.baseline_rate, offer.target_reduction_pct,
                          household.elasticity)
    cost = (daily[~emergency].sum() * household.baseline_rate
            + reduced_daily[emergency].sum() * rate
            - offer.incentive)
    return float(cost)
