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

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    accept_offer,
    cycle_costs,
    emergency_rate,
    make_offer,
    price_change_pct,
    price_offers,
    rate_hike,
)
from tests.conftest import flat_load, household
from tests.tariff_reference import apply_reduction, baseline_cost, program_cost

EMERGENCY_DAYS = (3, 11, 25)


def standard_offer(h, incentive=0.0, reduction=10.0):
    return make_offer(h, incentive, reduction, EMERGENCY_DAYS, cycle_days=30)


def costs(h, incentive=0.0, reduction=10.0, days=EMERGENCY_DAYS, cycle_days=30):
    """`cycle_costs` on the one row of household `h`, as two floats."""
    base, program = cycle_costs(h.load[None], np.array([h.elasticity]),
                                np.array([h.baseline_rate]), incentive, reduction, days,
                                cycle_days)
    return float(base[0]), float(program[0])


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
        assert costs(standard_household)[0] == pytest.approx(144.0)

    def test_baseline_cost_partial_cycle(self, standard_household):
        assert costs(standard_household, days=(3,), cycle_days=5)[0] == pytest.approx(24.0)

    def test_baseline_cost_insufficient_coverage(self, standard_household):
        with pytest.raises(CoverageError):
            costs(standard_household, cycle_days=31)

    def test_program_cost_worked_example(self, standard_household):
        assert costs(standard_household)[1] == pytest.approx(147.744)

    def test_program_cost_linear_in_incentive(self, standard_household):
        c0 = costs(standard_household)[1]
        c50 = costs(standard_household, incentive=50.0)[1]
        assert c0 - c50 == pytest.approx(50.0)

    def test_one_incentive_per_row(self, standard_household):
        load = np.stack([standard_household.load] * 2)
        base, program = cycle_costs(load, np.array([-0.25, -0.25]), np.array([0.16, 0.16]),
                                    np.array([0.0, 50.0]), 10.0, EMERGENCY_DAYS, 30)
        np.testing.assert_allclose(base, [144.0, 144.0])
        np.testing.assert_allclose(program, [147.744, 97.744])


@st.composite
def billed_rows(draw, max_rows):
    """Hourly loads, elasticities, baseline rates and per-row incentives of 1 to
    `max_rows` households, with the terms of one offer."""
    cycle = draw(st.integers(1, 35), "cycle")
    days = draw(st.integers(cycle, cycle + 2), "days")
    emergency = tuple(sorted(draw(
        st.lists(st.integers(0, cycle - 1), unique=True, max_size=cycle), "emergency")))
    n = draw(st.integers(1, max_rows), "n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), "seed"))
    hs = [household(f"h{i}", elasticity=draw(st.floats(-3.0, -0.02), "e"),
                    baseline_rate=draw(st.floats(0.05, 0.5), "rate"),
                    load=rng.uniform(0.0, 4.0, days * 24))
          for i in range(n)]
    incentives = np.array([draw(st.floats(0.0, 60.0), "incentive") for _ in hs])
    return hs, incentives, draw(st.floats(0.5, 99.0), "reduction_pct"), emergency, cycle


def reference_costs(hs, incentives, pct, emergency, cycle):
    offers = [make_offer(h, float(x), pct, emergency, cycle) for h, x in zip(hs, incentives)]
    return (np.array([baseline_cost(h, cycle) for h in hs]),
            np.array([program_cost(h, offer) for h, offer in zip(hs, offers)]))


def array_costs(hs, incentives, pct, emergency, cycle):
    return cycle_costs(np.array([h.load for h in hs]), np.array([h.elasticity for h in hs]),
                       np.array([h.baseline_rate for h in hs]), incentives, pct, emergency,
                       cycle)


class TestCycleCostsAgainstTheReference:
    @given(billed_rows(max_rows=1))
    @example(([household()], np.array([3.744]), 10.0, EMERGENCY_DAYS, 30))
    @settings(max_examples=150, deadline=None)
    def test_one_row_keeps_the_bytes(self, case):
        for got, want in zip(array_costs(*case), reference_costs(*case)):
            assert got.tobytes() == want.tobytes()

    @given(billed_rows(max_rows=12))
    @settings(max_examples=150, deadline=None)
    def test_many_rows_agree_to_1e_12(self, case):
        """Relative to the baseline bill: the program bill can cancel to ~0."""
        (base, program), (want_base, want_program) = array_costs(*case), reference_costs(*case)
        np.testing.assert_allclose(base, want_base, rtol=1e-12, atol=0.0)
        assert np.all(np.abs(program - want_program) <= 1e-12 * want_base)


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
        assert accept_offer(standard_household, offer).min_incentive == pytest.approx(3.744)

    def test_clamped_at_zero_for_flexible_household(self):
        # Elasticity -2: a 10% cut needs only a 5% price bump, so the reduced
        # emergency bill is below baseline and no compensation is needed.
        h = household(elasticity=-2.0)
        assert accept_offer(h, standard_offer(h)).min_incentive == 0.0

    def test_equals_cost_gap_at_zero_incentive(self, standard_household):
        offer = standard_offer(standard_household)
        gap = program_cost(standard_household, offer) - baseline_cost(standard_household, 30)
        assert accept_offer(standard_household, offer).min_incentive == pytest.approx(gap)


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
        threshold = outcome.min_incentive
        if abs(incentive - threshold) > 1e-9:
            assert outcome.accepted == (incentive > threshold)

    def test_rejects_an_offer_made_to_another_household(self, standard_household):
        offer = standard_offer(household(hid="h1"))
        with pytest.raises(ContractViolation, match="offer to h1 put to h0"):
            accept_offer(standard_household, offer)


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


def priced_and_billed(load, elasticity, baseline_rate):
    """Both row functions on one row: price_offers on its days, cycle_costs on its hours."""
    rows = (np.array([elasticity]), np.array([baseline_rate]), 10.0, 10.0, (3,), 30)
    return (lambda: price_offers(daily_totals(load)[None], *rows),
            lambda: cycle_costs(load[None], *rows))


class TestBadRowInput:
    """Input that would price to NaN or to a wrong answer (a NaN elasticity to a
    silent reject, a negative rate to an accept at a minimum incentive of 0)
    raises a typed error from both row functions."""

    def test_rejects_a_nan_elasticity(self, standard_household):
        for call in priced_and_billed(standard_household.load, math.nan, 0.16):
            with pytest.raises(DomainError, match="elasticity must be negative"):
                call()

    @pytest.mark.parametrize("rate", [-0.16, 0.0, math.inf, math.nan])
    def test_rejects_a_baseline_rate_not_finite_and_positive(self, standard_household, rate):
        for call in priced_and_billed(standard_household.load, -0.25, rate):
            with pytest.raises(ValidationError, match="baseline_rate must be finite and > 0"):
                call()

    @pytest.mark.parametrize("kwh", [-100.0, math.inf, math.nan])
    def test_rejects_kwh_not_finite_and_nonnegative(self, standard_household, kwh):
        load = standard_household.load.copy()
        load[3 * 24 + 5] = kwh  # an hour of emergency day 3, and so the day
        for call in priced_and_billed(load, -0.25, 0.16):
            with pytest.raises(ValidationError, match="kWh must be finite and >= 0"):
                call()

    def test_price_offers_rejects_a_repeated_day(self, standard_household):
        # Summed day by day, (3, 3) would ask twice the minimum incentive of (3,).
        with pytest.raises(ValidationError, match=r"^emergency days \(3, 3\) hold a day twice$"):
            price_offers(daily_totals(standard_household.load)[None], np.array([-0.25]),
                         np.array([0.16]), 10.0, 10.0, (3, 3), 30)

    def test_cycle_costs_rejects_a_repeated_day(self, standard_household):
        with pytest.raises(ValidationError, match=r"^emergency days \(3, 3\) hold a day twice$"):
            cycle_costs(standard_household.load[None], np.array([-0.25]), np.array([0.16]),
                        10.0, 10.0, (3, 3), 30)


ROW_FUNCTIONS = {"price_offers": (price_offers, "daily"), "cycle_costs": (cycle_costs, "loads")}


def row_fault(call, arg, value, message, fault="length"):
    return pytest.param(call, arg, value, message, id=f"{call}-{arg}-{fault}")


class TestRowShapes:
    """An argument that does not fit the rows ends in a `ValidationError` that
    names it, not in a bare numpy error or a silently broadcast answer."""

    @pytest.mark.parametrize(("call", "arg", "value", "message"), [
        *(row_fault(call, "elasticity", np.full(3, -0.25), r"^elasticity has shape \(3,\), "
                    r"not \(2,\)$") for call in ROW_FUNCTIONS),
        *(row_fault(call, "baseline_rate", np.array([0.16]), r"^baseline_rate has shape "
                    r"\(1,\), not \(2,\)$") for call in ROW_FUNCTIONS),
        *(row_fault(call, "incentive", np.full(3, 10.0), r"^incentive has shape \(3,\), "
                    r"not \(\) or \(2,\)$") for call in ROW_FUNCTIONS),
        *(row_fault(call, "emergency_days", (3, 1.5), r"^emergency days \(3, 1.5\) must be "
                    r"whole day indices$", "1.5") for call in ROW_FUNCTIONS),
        row_fault("price_offers", "daily", np.full(30, 30.0),
                  r"^daily has shape \(30,\), not \(rows, columns\)$", "1-d"),
        row_fault("cycle_costs", "loads", np.full(720, 1.25),
                  r"^loads has shape \(720,\), not \(rows, columns\)$", "1-d"),
        row_fault("cycle_costs", "loads", np.full((2, 725), 1.25),
                  r"^loads has 725 columns, not whole days of 24$", "part-day"),
    ])
    def test_rejects_an_argument_that_does_not_fit_the_rows(self, standard_household, call,
                                                            arg, value, message):
        loads = np.stack([standard_household.load] * 2)
        args = {"daily": daily_totals(loads), "loads": loads,
                "elasticity": np.full(2, -0.25), "baseline_rate": np.full(2, 0.16),
                "incentive": 10.0, "emergency_days": (3,), arg: value}
        function, kwh = ROW_FUNCTIONS[call]
        with pytest.raises(ValidationError, match=message):
            function(args[kwh], args["elasticity"], args["baseline_rate"], args["incentive"],
                     10.0, args["emergency_days"], 30)


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
    def test_offer_rejects_day_outside_cycle(self):
        with pytest.raises(ValidationError, match="emergency day index outside the cycle"):
            Offer("h0", 10.0, 10.0, (30,), 30)

    def test_offer_rejects_a_repeated_day(self, standard_household):
        with pytest.raises(ValidationError, match=r"^emergency days \(3, 3\) hold a day twice$"):
            Offer("h0", 10.0, 10.0, (3, 3), 30)
        with pytest.raises(ValidationError, match="hold a day twice"):
            make_offer(standard_household, 10.0, 10.0, (3, 3), 30)

    def test_offer_rejects_negative_incentive(self):
        with pytest.raises(ValidationError):
            Offer("h0", -1.0, 10.0, (0,), 30)
