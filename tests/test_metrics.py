"""Program metrics and the greedy budget allocator, checked against a
brute-force subset-enumeration oracle."""

import itertools
import math

import numpy as np
import pytest

from gridflex.community import Community, daily_totals
from gridflex.errors import (DomainError, InfeasibleAllocationError, UndefinedMetricError,
                             ValidationError)
from gridflex.metrics import (
    acceptance_rate,
    allocate_budget,
    responsiveness_cost,
    total_demand_reduction,
)
from gridflex.tariff import accept_offer, make_offer, rate_hike
from tests.conftest import community_of, household


def random_community(rng: np.random.Generator, n: int, days: int = 10) -> Community:
    households = []
    for i in range(n):
        hourly = rng.uniform(0.2, 3.0, size=days * 24)
        households.append(
            household(
                hid=f"h{i:02d}",
                elasticity=float(rng.uniform(-1.5, -0.05)),
                load=hourly,
            )
        )
    return community_of(households)


def brute_force_allocation(
    community: Community,
    shortfall_per_day: dict[int, float],
    reduction_pct: float,
    cycle_days: int,
) -> tuple[set[str], float] | None:
    """Exhaustive minimum-total-incentive feasible subset, or None."""
    days = tuple(sorted(shortfall_per_day))
    need = np.array([shortfall_per_day[d] for d in days])
    scale = reduction_pct / 100.0
    contrib = {}
    cost = {}
    for h in community.households:
        daily = daily_totals(h.load)
        contrib[h.id] = np.array([daily[d] * scale for d in days])
        offer = make_offer(h, 0.0, reduction_pct, days, cycle_days)
        cost[h.id] = accept_offer(h, offer).min_incentive
    ids = sorted(contrib)
    best = None
    for r in range(len(ids) + 1):
        for subset in itertools.combinations(ids, r):
            covered = sum((contrib[h] for h in subset), np.zeros(len(days)))
            if np.all(covered >= need - 1e-12):
                total = sum(cost[h] for h in subset)
                if best is None or total < best[1]:
                    best = (set(subset), total)
    return best


class TestSimpleMetrics:
    def test_acceptance_rate(self):
        h = household()
        offer = make_offer(h, 100.0, 10.0, (0,), 30)
        yes = accept_offer(h, offer)
        no = accept_offer(h, make_offer(h, 0.0, 10.0, (0,), 30))
        outcomes = [yes, yes, no, no]
        assert acceptance_rate([o.accepted for o in outcomes]) == pytest.approx(50.0)

    def test_acceptance_rate_empty(self):
        with pytest.raises(UndefinedMetricError):
            acceptance_rate([])

    def test_responsiveness_cost(self):
        assert responsiveness_cost([100.0, 50.0], [30.0, 20.0]) == pytest.approx(3.0)

    def test_responsiveness_cost_zero_reduction(self):
        with pytest.raises(UndefinedMetricError):
            responsiveness_cost([100.0], [0.0])

    @pytest.mark.parametrize(("case", "error", "message"), [
        pytest.param("incentive-nan", ValidationError, "incentive must be a finite number",
                     id="rate-hike-incentive-nan"),
        pytest.param("incentive-inf", ValidationError, "incentive must be a finite number",
                     id="rate-hike-incentive-inf"),
        pytest.param("incentive-negative", ValidationError, "incentive must be a finite number",
                     id="rate-hike-incentive-negative"),
        pytest.param("reduction-nan", UndefinedMetricError, "over total reduction nan",
                     id="responsiveness-cost-reduction-nan"),
        pytest.param("mask-of-3", DomainError, "participants must be a bool mask of 2 rows",
                     id="total-demand-reduction-mask-of-3"),
        pytest.param("mask-of-ints", DomainError, "participants must be a bool mask of 2 rows",
                     id="total-demand-reduction-mask-of-ints"),
    ])
    def test_rejects_inputs_that_do_not_fit(self, case, error, message):
        """Each of these returned NaN, inf or a negative value, or ended in a
        bare numpy error, before it was checked."""
        c = community_of([household("a", kwh_per_day=30.0), household("b", kwh_per_day=10.0)])
        calls = {
            "incentive-nan": lambda: rate_hike(c.daily, [5.0, math.nan], 30),
            "incentive-inf": lambda: rate_hike(c.daily, [math.inf], 30),
            "incentive-negative": lambda: rate_hike(c.daily, [-5.0], 30),
            "reduction-nan": lambda: responsiveness_cost([100.0, 50.0], [30.0, math.nan]),
            "mask-of-3": lambda: total_demand_reduction(c, np.ones(3, dtype=bool), 10.0, (2, 5)),
            "mask-of-ints": lambda: total_demand_reduction(c, np.array([1, 0]), 10.0, (2, 5)),
        }
        with pytest.raises(error, match=message):
            calls[case]()

    def test_total_demand_reduction_hand_case(self):
        # Two flat households, 30 and 10 kWh/day; only the first participates
        # at 10% reduction: 3 kWh saved out of 40 consumed on each emergency
        # day, i.e. 7.5%.
        c = community_of([
            household("a", kwh_per_day=30.0),
            household("b", kwh_per_day=10.0),
        ])
        pct = total_demand_reduction(c, c.mask({"a"}), 10.0, (2, 5))
        assert pct == pytest.approx(7.5)

    def test_total_demand_reduction_all_participants_equals_rate(self):
        c = random_community(np.random.default_rng(0), 5)
        everyone = {h.id for h in c.households}
        assert total_demand_reduction(c, c.mask(everyone), 15.0, (1, 3)) == pytest.approx(15.0)


class TestAllocator:
    def test_empty_shortfall(self):
        c = random_community(np.random.default_rng(1), 4)
        selected, paid = allocate_budget(c, {2: 0.0}, 10.0, 10)
        assert selected == set() and paid == {}

    def test_infeasible_raises_with_day(self):
        c = community_of([household("a", kwh_per_day=10.0, days=10)])
        with pytest.raises(InfeasibleAllocationError) as exc:
            allocate_budget(c, {3: 100.0}, 10.0, 10)
        assert exc.value.day == 3

    def test_selection_is_feasible_and_minimal(self):
        rng = np.random.default_rng(2)
        c = random_community(rng, 10)
        daily_total = sum(daily_totals(h.load) for h in c.households)
        shortfall = {1: 0.04 * daily_total[1], 6: 0.03 * daily_total[6]}
        selected, paid = allocate_budget(c, shortfall, 10.0, 10)
        assert selected == set(paid)
        for day, need in shortfall.items():
            covered = sum(
                daily_totals(c.by_id(h).load)[day] * 0.10 for h in selected
            )
            assert covered >= need - 1e-9
            # Minimality: dropping any one household breaks some constraint.
        for victim in selected:
            rest = selected - {victim}
            assert any(
                sum(daily_totals(c.by_id(h).load)[day] * 0.10 for h in rest)
                < need - 1e-12
                for day, need in shortfall.items()
            )

    def test_payments_equal_min_incentives(self):
        rng = np.random.default_rng(3)
        c = random_community(rng, 8)
        daily_total = sum(daily_totals(h.load) for h in c.households)
        shortfall = {4: 0.05 * daily_total[4]}
        selected, paid = allocate_budget(c, shortfall, 20.0, 10)
        days = tuple(sorted(shortfall))
        for hid in selected:
            h = c.by_id(hid)
            offer = make_offer(h, 0.0, 20.0, days, 10)
            assert paid[hid] == pytest.approx(accept_offer(h, offer).min_incentive)

    @pytest.mark.parametrize("seed", range(30))
    def test_within_bound_of_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 11))
        c = random_community(rng, n)
        daily_total = sum(daily_totals(h.load) for h in c.households)
        days = sorted(rng.choice(10, size=2, replace=False))
        frac = rng.uniform(0.01, 0.08)
        shortfall = {int(d): frac * daily_total[d] for d in days}
        optimum = brute_force_allocation(c, shortfall, 10.0, 10)
        assert optimum is not None
        _, greedy_paid = allocate_budget(c, shortfall, 10.0, 10)
        greedy_total = sum(greedy_paid.values())
        assert greedy_total <= 1.3 * optimum[1] + 1e-9
