"""Pricing arithmetic against hand-worked examples and brute-force identities.

Worked values (derived by hand from the definitions, frozen here):
  - price_change_pct(5, -0.5)  = 10     (a -5% quantity change at +10% price)
  - price_change_pct(10, -0.25) = 40
  - emergency_rate(0.16, 10, -0.25) = 0.16 * 1.40 = 0.224
  - flat 30 kWh/day, 30-day cycle at 0.16 $/kWh: baseline cost 144.0
  - 3 emergency days, 10% reduction at the 0.224 rate, zero incentive:
      program cost = 27*4.8 + 3*(27*0.224) = 129.6 + 18.144 = 147.744
      min incentive = 147.744 - 144.0 = 3.744
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridflex.community import daily_totals
from gridflex.errors import (
    ContractViolation,
    CoverageError,
    DegeneratePopulationError,
    DomainError,
    ValidationError,
)
from gridflex.tariff import (
    Offer,
    TariffSchedule,
    accept_offer,
    apply_reduction,
    baseline_cost,
    emergency_rate,
    make_offer,
    min_incentive,
    price_change_pct,
    price_offers,
    program_cost,
    rate_hike,
)
from tests.conftest import flat_load, household

EMERGENCY_DAYS = (3, 11, 25)


def standard_offer(h, incentive=0.0, reduction=10.0):
    return make_offer(h, incentive, reduction, EMERGENCY_DAYS, cycle_days=30)


class TestPriceChange:
    def test_worked_example_half_elasticity(self):
        # An elasticity of -0.5 means a 5% cut needs a 10% price increase.
        assert price_change_pct(5.0, -0.5) == pytest.approx(10.0)

    def test_worked_example_default_elasticity(self):
        assert price_change_pct(10.0, -0.25) == pytest.approx(40.0)

    def test_unit_elasticity(self):
        assert price_change_pct(10.0, -1.0) == pytest.approx(10.0)

    def test_rejects_nonnegative_elasticity(self):
        with pytest.raises(DomainError):
            price_change_pct(10.0, 0.0)
        with pytest.raises(DomainError):
            price_change_pct(10.0, 0.3)

    @pytest.mark.parametrize("pct", [0.0, 100.0, -5.0])
    def test_rejects_out_of_range_reduction(self, pct):
        with pytest.raises(DomainError):
            price_change_pct(pct, -0.25)

    @given(st.floats(0.1, 99.0), st.floats(-5.0, -0.01))
    def test_always_positive(self, pct, e):
        assert price_change_pct(pct, e) > 0

    @given(st.floats(0.1, 99.0), st.floats(-5.0, -0.02))
    def test_monotone_in_elasticity_magnitude(self, pct, e):
        # A more rigid household (elasticity closer to zero) needs a larger hike.
        assert price_change_pct(pct, e / 2) > price_change_pct(pct, e)


class TestEmergencyRate:
    def test_worked_example(self):
        assert emergency_rate(0.16, 10.0, -0.25) == pytest.approx(0.224)

    def test_exceeds_baseline(self):
        assert emergency_rate(0.11, 10.0, -1.0) == pytest.approx(0.121)

    @given(st.floats(0.05, 1.0), st.floats(0.1, 99.0), st.floats(-5.0, -0.01))
    def test_never_below_baseline(self, rate, pct, e):
        assert emergency_rate(rate, pct, e) > rate


class TestCosts:
    def test_baseline_cost_flat_profile(self, standard_household):
        assert baseline_cost(standard_household, 30) == pytest.approx(144.0)

    def test_baseline_cost_partial_cycle(self, standard_household):
        assert baseline_cost(standard_household, 5) == pytest.approx(24.0)

    def test_baseline_cost_insufficient_coverage(self, standard_household):
        with pytest.raises(CoverageError):
            baseline_cost(standard_household, 31)

    def test_program_cost_worked_example(self, standard_household):
        offer = standard_offer(standard_household)
        reduced = apply_reduction(standard_household.load, EMERGENCY_DAYS, 10.0)
        assert program_cost(standard_household, offer, reduced) == pytest.approx(147.744)

    def test_program_cost_linear_in_incentive(self, standard_household):
        reduced = apply_reduction(standard_household.load, EMERGENCY_DAYS, 10.0)
        c0 = program_cost(standard_household, standard_offer(standard_household), reduced)
        c50 = program_cost(
            standard_household, standard_offer(standard_household, incentive=50.0), reduced
        )
        assert c0 - c50 == pytest.approx(50.0)

    def test_program_cost_rejects_tampered_off_emergency_load(self, standard_household):
        offer = standard_offer(standard_household)
        values = standard_household.load.copy()
        values[0] *= 0.5  # day 0 is not an emergency day
        with pytest.raises(ContractViolation):
            program_cost(standard_household, offer, values)


class TestApplyReduction:
    def test_scales_only_emergency_days(self, standard_household):
        reduced = apply_reduction(standard_household.load, (2,), 20.0)
        daily = daily_totals(reduced)
        assert daily[2] == pytest.approx(24.0)
        untouched = np.delete(np.arange(30), 2)
        np.testing.assert_allclose(daily[untouched], 30.0)

    def test_hourly_resolution(self, standard_household):
        reduced = apply_reduction(standard_household.load, (0,), 50.0)
        np.testing.assert_allclose(
            reduced[:24], standard_household.load[:24] * 0.5
        )
        np.testing.assert_array_equal(
            reduced[24:], standard_household.load[24:]
        )

    def test_rejects_out_of_range(self, standard_household):
        with pytest.raises(DomainError):
            apply_reduction(standard_household.load, (0,), 101.0)

    @given(st.floats(0.0, 100.0))
    @settings(max_examples=25)
    def test_total_reduction_matches_rate(self, pct):
        h = household(days=10)
        reduced = apply_reduction(h.load, (1, 4), pct)
        expected = h.load.sum() - 2 * 30.0 * pct / 100.0
        assert reduced.sum() == pytest.approx(expected)


class TestMinIncentive:
    def test_worked_example(self, standard_household):
        offer = standard_offer(standard_household)
        assert min_incentive(standard_household, offer) == pytest.approx(3.744)

    def test_clamped_at_zero_for_flexible_household(self):
        # Elasticity -2: a 10% cut needs only a 5% price bump, so the reduced
        # emergency bill is below baseline and no compensation is needed.
        h = household(elasticity=-2.0)
        assert min_incentive(h, standard_offer(h)) == 0.0

    def test_equals_cost_gap_at_zero_incentive(self, standard_household):
        offer = standard_offer(standard_household)
        reduced = apply_reduction(standard_household.load, EMERGENCY_DAYS, 10.0)
        gap = program_cost(standard_household, offer, reduced) - baseline_cost(
            standard_household, 30
        )
        assert min_incentive(standard_household, offer) == pytest.approx(gap)


class TestAcceptOffer:
    def test_accepts_at_exact_minimum(self, standard_household):
        offer = standard_offer(standard_household, incentive=3.744)
        outcome = accept_offer(standard_household, offer)
        assert outcome.accepted
        assert outcome.cost_program == pytest.approx(outcome.cost_baseline)

    def test_rejects_just_below_minimum(self, standard_household):
        offer = standard_offer(standard_household, incentive=3.743)
        assert not accept_offer(standard_household, offer).accepted

    def test_accepts_above_minimum(self, standard_household):
        offer = standard_offer(standard_household, incentive=100.0)
        assert accept_offer(standard_household, offer).accepted

    @given(
        st.floats(5.0, 80.0),       # kWh/day
        st.floats(-3.0, -0.05),     # elasticity
        st.floats(1.0, 50.0),       # reduction %
        st.floats(0.0, 50.0),       # incentive
    )
    @settings(max_examples=60, deadline=None)
    def test_accept_iff_incentive_covers_minimum(self, kwh, e, reduction, incentive):
        h = household(kwh_per_day=kwh, elasticity=e)
        offer = make_offer(h, incentive, reduction, EMERGENCY_DAYS, 30)
        outcome = accept_offer(h, offer)
        threshold = min_incentive(h, offer)
        if abs(incentive - threshold) > 1e-9:
            assert outcome.accepted == (incentive > threshold)


class TestPriceOffers:
    def test_worked_example_on_two_rows(self, standard_household):
        # Row 0 is the standard household; row 1 has elasticity -2, so a 10%
        # cut needs a 5% price bump and the emergency bill falls below baseline.
        daily = np.stack([daily_totals(standard_household.load)] * 2)
        priced = price_offers(daily, np.array([-0.25, -2.0]), np.array([0.16, 0.16]),
                              3.744, 10.0, EMERGENCY_DAYS, 30)
        np.testing.assert_allclose(priced.emergency_rate, [0.224, 0.168])
        np.testing.assert_allclose(priced.min_incentive, [3.744, 0.0], atol=1e-12)
        assert priced.accepted.tolist() == [True, True]

    @pytest.mark.parametrize(("incentive", "days"), [(-1.0, (3,)), (10.0, (30,)),
                                                     (float("nan"), (3,))],
                             ids=["negative-incentive", "day-outside-cycle", "nan-incentive"])
    def test_rejects_bad_terms(self, standard_household, incentive, days):
        daily = daily_totals(standard_household.load)[None]
        with pytest.raises(ValidationError):
            price_offers(daily, np.array([-0.25]), np.array([0.16]), incentive, 10.0, days, 30)

    def test_accept_offer_rejects_rates_not_the_households(self, standard_household):
        offer = Offer("h0", 10.0, 10.0, TariffSchedule(0.16, 0.3, EMERGENCY_DAYS, 30))
        with pytest.raises(ContractViolation):
            accept_offer(standard_household, offer)


class TestRateHike:
    def test_revenue_neutral(self):
        nonparticipants = [household(hid=f"h{i}", kwh_per_day=10.0 * (i + 1))
                           for i in range(4)]
        incentives = [100.0, 150.0]
        daily = np.array([daily_totals(h.load) for h in nonparticipants])
        r = rate_hike(daily, incentives, cycle_days=30)
        collected = sum(
            daily_totals(h.load)[:30].sum() * r for h in nonparticipants
        )
        assert collected == pytest.approx(sum(incentives), rel=1e-12)

    def test_zero_incentives(self):
        assert rate_hike(daily_totals(household().load)[None], [], cycle_days=30) == 0.0

    def test_degenerate_population(self):
        zero_load = household(load=flat_load(0.0, 30))
        with pytest.raises(DegeneratePopulationError):
            rate_hike(daily_totals(zero_load.load)[None], [100.0], cycle_days=30)


class TestValidation:
    def test_schedule_rejects_rate_below_baseline(self):
        with pytest.raises(ValidationError):
            TariffSchedule(0.16, 0.15, (0,), 30)

    def test_schedule_rejects_day_outside_cycle(self):
        with pytest.raises(ValidationError):
            TariffSchedule(0.16, 0.2, (30,), 30)

    def test_offer_rejects_negative_incentive(self):
        sched = TariffSchedule(0.16, 0.2, (0,), 30)
        with pytest.raises(ValidationError):
            Offer("h0", -1.0, 10.0, sched)
