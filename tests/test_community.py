"""Population model: validation, synthetic generation, CSV roundtrip, feature scaling."""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridflex.community import (
    ELASTICITY_CEIL,
    ELASTICITY_FLOOR,
    FEATURE_COLUMNS,
    Community,
    LoadSeries,
    ScenarioConfig,
    SocioEconomicProfile,
    emergency_schedule,
    generate_community,
    load_community,
    normalize_features,
    sample_elasticity,
    save_community,
)
from gridflex.errors import (
    InsufficientPopulationError,
    InvalidSpecError,
    ValidationError,
)
from tests.conftest import START, community_of, household, profile


class TestLoadSeries:
    def test_daily_totals(self):
        values = np.arange(48, dtype=float)
        series = LoadSeries(START, values)
        assert series.n_days == 2
        np.testing.assert_allclose(
            series.daily_totals(), [values[:24].sum(), values[24:].sum()]
        )

    @pytest.mark.parametrize("n", [0, 23, 25, 100])
    def test_rejects_non_daily_length(self, n):
        with pytest.raises(ValidationError):
            LoadSeries(START, np.ones(n))

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValidationError):
            LoadSeries(START, np.full(24, -1.0))
        bad = np.ones(24)
        bad[3] = np.nan
        with pytest.raises(ValidationError):
            LoadSeries(START, bad)


class TestProfile:
    def test_vector_follows_column_order(self):
        p = profile()
        vec = p.as_vector()
        assert vec.shape == (len(FEATURE_COLUMNS),)
        assert vec[0] == p.median_income
        assert vec[-1] == p.dwelling_size

    @pytest.mark.parametrize("kwargs", [
        {"unemployment_pct": -1.0},
        {"college_pct": 101.0},
        {"act_score": 0.0},
        {"dwelling_size": 0.0},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValidationError):
            profile(**kwargs)


class TestCommunityInvariants:
    def test_rejects_duplicate_ids(self):
        hs = (household("h0"), household("h0"))
        with pytest.raises(ValidationError):
            Community(hs, {"n0": ("h0", "h0")})

    def test_rejects_partition_mismatch(self):
        hs = (household("h0"), household("h1"))
        with pytest.raises(ValidationError):
            Community(hs, {"n0": ("h0",)})

    def test_by_id(self):
        c = community_of([household("h0"), household("h1")])
        assert c.by_id("h1").id == "h1"
        with pytest.raises(KeyError):
            c.by_id("missing")

    def test_arrays_follow_household_order(self):
        hs = [household("b", kwh_per_day=20.0, days=4, elasticity=-0.5),
              household("a", kwh_per_day=10.0, days=4, baseline_rate=0.2)]
        c = community_of(hs)
        np.testing.assert_array_equal(c.daily, [h.load.daily_totals() for h in hs])
        np.testing.assert_array_equal(c.elasticity, [-0.5, -0.25])
        np.testing.assert_array_equal(c.baseline_rate, [0.16, 0.2])
        assert c.index == {"b": 0, "a": 1}
        np.testing.assert_array_equal(c.mask(["a"]), [False, True])
        np.testing.assert_array_equal(c.mask([]), [False, False])
        np.testing.assert_allclose(c.emergency_kwh((0, 3)), [40.0, 20.0])
        with pytest.raises(ValueError):
            c.daily[0, 0] = 1.0  # shared by every reader, so read-only

    def test_rejects_households_of_different_lengths(self):
        with pytest.raises(ValidationError, match="different numbers of days"):
            community_of([household("h0", days=3), household("h1", days=4)])


class TestElasticitySampling:
    def test_degenerate_std_returns_mean(self):
        rng = np.random.default_rng(0)
        assert sample_elasticity(rng, -0.25, 0.0) == -0.25

    def test_rejects_nonnegative_mean(self):
        with pytest.raises(InvalidSpecError):
            sample_elasticity(np.random.default_rng(0), 0.1, 0.1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=200)
    def test_always_within_clamp(self, seed):
        rng = np.random.default_rng(seed)
        e = sample_elasticity(rng, -0.25, 2.0)  # wide std to hit both clamps
        assert ELASTICITY_FLOOR <= e <= ELASTICITY_CEIL

    def test_distribution_matches_gaussian(self):
        # With the default (mean -0.25, std 0.1) parameters clipping is rare,
        # so the sample mean/std should track the Gaussian parameters.
        rng = np.random.default_rng(1)
        draws = [sample_elasticity(rng, -0.25, 0.1) for _ in range(4_000)]
        assert np.mean(draws) == pytest.approx(-0.25, abs=0.01)
        assert np.std(draws) == pytest.approx(0.1, abs=0.01)


class TestGeneration:
    def test_counts_and_structure(self):
        c = generate_community(3, 2, 4, seed=0, days=7)
        assert len(c) == 3 * 2 * 4
        assert len(c.neighborhoods) == 6
        assert len(c.counties) == 3
        for h in c.households:
            assert h.load.n_days == 7
            assert ELASTICITY_FLOOR <= h.elasticity <= ELASTICITY_CEIL
            assert h.id in c.neighborhoods[h.neighborhood_id]

    def test_same_seed_is_identical(self):
        a = generate_community(2, 1, 5, seed=7, days=3)
        b = generate_community(2, 1, 5, seed=7, days=3)
        for ha, hb in zip(a.households, b.households):
            assert ha.elasticity == hb.elasticity
            np.testing.assert_array_equal(ha.load.values, hb.load.values)
            np.testing.assert_array_equal(
                ha.profile.as_vector(), hb.profile.as_vector()
            )

    def test_different_seeds_differ(self):
        a = generate_community(1, 1, 5, seed=0, days=3)
        b = generate_community(1, 1, 5, seed=1, days=3)
        assert any(
            ha.elasticity != hb.elasticity
            for ha, hb in zip(a.households, b.households)
        )

    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidSpecError):
            generate_community(0, 1, 5, seed=0)
        with pytest.raises(InvalidSpecError):
            generate_community(1, 1, 5, seed=0, days=0)


class TestCsvRoundtrip:
    def test_save_load_is_lossless(self, tmp_path):
        original = generate_community(2, 2, 3, seed=11, days=2)
        save_community(original, tmp_path / "hh.csv", tmp_path / "loads.csv")
        restored = load_community(tmp_path / "hh.csv", tmp_path / "loads.csv")
        assert len(restored) == len(original)
        for a, b in zip(original.households, restored.households):
            assert a.id == b.id
            assert a.neighborhood_id == b.neighborhood_id
            assert a.elasticity == b.elasticity  # repr() roundtrips exactly
            assert a.baseline_rate == b.baseline_rate
            np.testing.assert_array_equal(a.load.values, b.load.values)
            np.testing.assert_array_equal(
                a.profile.as_vector(), b.profile.as_vector()
            )
        assert restored.counties.keys() == original.counties.keys()

    def test_load_rejects_missing_load_rows(self, tmp_path):
        c = generate_community(1, 1, 2, seed=0, days=1)
        save_community(c, tmp_path / "hh.csv", tmp_path / "loads.csv")
        # Keep only the first household's load rows.
        lines = (tmp_path / "loads.csv").read_text().splitlines(keepends=True)
        keep = [lines[0]] + [ln for ln in lines[1:] if ln.startswith("c00-n00-h000")]
        (tmp_path / "loads.csv").write_text("".join(keep))
        from gridflex.errors import ReferentialIntegrityError

        with pytest.raises(ReferentialIntegrityError):
            load_community(tmp_path / "hh.csv", tmp_path / "loads.csv")


class TestNormalizeFeatures:
    def test_zero_mean_unit_std(self):
        c = generate_community(2, 1, 10, seed=3, days=1)
        z = normalize_features(c)
        assert z.shape == (20, len(FEATURE_COLUMNS))
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_maps_to_zero(self):
        hs = [household(f"h{i}", dwelling_size=1000.0, median_income=1000.0 * (i + 1))
              for i in range(4)]
        z = normalize_features(community_of(hs))
        col = FEATURE_COLUMNS.index("dwelling_size")
        np.testing.assert_array_equal(z[:, col], 0.0)

    def test_needs_two_households(self):
        with pytest.raises(InsufficientPopulationError):
            normalize_features(community_of([household()]))


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.cycle_days == 30
        assert cfg.emergency_day_count == 3
        assert cfg.default_incentive == 100.0
        assert cfg.elasticity_mean == -0.25
        assert cfg.split_ratios == (0.7, 0.2, 0.1)

    @pytest.mark.parametrize("kwargs", [
        {"emergency_day_count": 31},
        {"target_reduction_pct": 0.0},
        {"elasticity_mean": 0.1},
        {"split_ratios": (0.5, 0.5, 0.5)},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(InvalidSpecError):
            ScenarioConfig(**kwargs)


class TestEmergencySchedule:
    @given(st.integers(0, 500))
    @settings(max_examples=50)
    def test_sorted_unique_in_range(self, seed):
        cfg = ScenarioConfig()
        days = emergency_schedule(cfg, np.random.default_rng(seed))
        assert len(days) == cfg.emergency_day_count
        assert len(set(days)) == len(days)
        assert days == tuple(sorted(days))
        assert all(0 <= d < cfg.cycle_days for d in days)

    def test_deterministic_for_seed(self):
        cfg = ScenarioConfig()
        a = emergency_schedule(cfg, np.random.default_rng(5))
        b = emergency_schedule(cfg, np.random.default_rng(5))
        assert a == b
