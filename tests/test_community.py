"""Population model: validation, synthetic generation, CSV roundtrip, feature scaling."""

import hashlib
import math
import random
import re
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridflex import community as community_module
from gridflex.community import (
    ELASTICITY_CEIL,
    ELASTICITY_FLOOR,
    FEATURE_COLUMNS,
    HOUR,
    HOUSEHOLD_COLUMNS,
    LOAD_COLUMNS,
    Community,
    ScenarioConfig,
    daily_totals,
    emergency_schedule,
    generate_community,
    load_community,
    normalize_features,
    sample_elasticity,
    save_community,
)
from gridflex.errors import (
    GridflexError,
    InsufficientPopulationError,
    InvalidSpecError,
    ReferentialIntegrityError,
    ValidationError,
)
from tests import csv_reference, generation_reference
from tests.conftest import START, community_of, household, profile


class TestLoadSeries:
    """The rules each household's hourly load obeys, checked by Community."""

    def test_daily_totals(self):
        values = np.arange(48, dtype=float)
        assert daily_totals(values).shape == (2,)
        np.testing.assert_allclose(
            daily_totals(values), [values[:24].sum(), values[24:].sum()]
        )
        np.testing.assert_array_equal(community_of([household(load=values)]).daily,
                                      [daily_totals(values)])

    @pytest.mark.parametrize("n", [0, 23, 25, 100])
    def test_rejects_non_daily_length(self, n):
        with pytest.raises(ValidationError, match=f"length {n} is not"):
            community_of([household(load=np.ones(n))])

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValidationError, match="household h0: load values"):
            community_of([household(load=np.full(24, -1.0))])
        bad = np.ones(24)
        bad[3] = np.nan
        with pytest.raises(ValidationError, match="household h1: load values"):
            community_of([household("h0", load=np.ones(24)), household("h1", load=bad)])


class TestProfile:
    """The rules each household's socio-economic features obey, checked by Community."""

    def test_vector_follows_column_order(self):
        c = community_of([household(median_income=1.0, dwelling_size=2.0)])
        vec = c.by_id("h0").profile
        assert vec.shape == (len(FEATURE_COLUMNS),)
        assert vec[0] == 1.0  # median_income
        assert vec[-1] == 2.0  # dwelling_size
        np.testing.assert_array_equal(c.profiles, [profile(median_income=1.0,
                                                           dwelling_size=2.0)])

    @pytest.mark.parametrize("kwargs", [
        {"unemployment_pct": -1.0},
        {"college_pct": 101.0},
        {"act_score": 0.0},
        {"dwelling_size": 0.0},
    ])
    def test_rejects_out_of_range(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValidationError, match=f"household h0: {name}"):
            community_of([household(**kwargs)])


class TestCommunityInvariants:
    def test_rejects_duplicate_ids(self):
        hs = [household("h0"), household("h0")]
        with pytest.raises(ValidationError, match="duplicate household id h0"):
            community_of(hs)

    @pytest.mark.parametrize(("ids", "row"), [(("a\nb", "c"), 0), (("c", "a\rb"), 1)])
    def test_rejects_an_id_holding_a_line_break(self, ids, row):
        """Each loads.csv record is one line, so save_community could write such
        an id but load_community could not read it back."""
        with pytest.raises(ValidationError, match="holds a line break") as info:
            community_of([household(hid) for hid in ids])
        assert info.value.row == row

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rejects_a_rate_that_is_not_finite(self, rate):
        """load_community rejects such a households.csv, so no Community may hold one."""
        with pytest.raises(ValidationError, match="household h1: baseline_rate must be > 0 "
                                                  "and finite"):
            community_of([household("h0"), household("h1", baseline_rate=rate)])

    def test_rejects_structure_of_another_length(self):
        c = community_of([household("h0"), household("h1")])
        with pytest.raises(ValidationError, match="need 2 entries each"):
            replace(c, neighborhood=("n0",))
        with pytest.raises(ValidationError, match="need 2 entries each"):
            replace(c, county=("na",) * 3)

    def test_rejects_a_neighborhood_in_two_counties(self):
        c = community_of([household(f"h{i}", neighborhood_id=f"n{i % 2}") for i in range(4)])
        with pytest.raises(ValidationError, match="neighborhood n1 is in county c1, but in "
                                                  "c0 on an earlier row") as info:
            replace(c, county=("c0", "c0", "c0", "c1"))
        assert info.value.row == 3
        assert replace(c, county=("c0", "c1", "c0", "c1")).county == ("c0", "c1", "c0", "c1")

    def test_by_id(self):
        c = community_of([household("h0"), household("h1")])
        assert c.by_id("h1").id == "h1"
        with pytest.raises(KeyError):
            c.by_id("missing")

    def test_arrays_follow_household_order(self):
        hs = [household("b", kwh_per_day=20.0, days=4, elasticity=-0.5),
              household("a", kwh_per_day=10.0, days=4, baseline_rate=0.2)]
        c = community_of(hs)
        np.testing.assert_array_equal(c.daily, [daily_totals(h.load) for h in hs])
        np.testing.assert_array_equal(c.elasticity, [-0.5, -0.25])
        np.testing.assert_array_equal(c.baseline_rate, [0.16, 0.2])
        assert c.index == {"b": 0, "a": 1}
        np.testing.assert_array_equal(c.mask(["a"]), [False, True])
        np.testing.assert_array_equal(c.mask([]), [False, False])
        np.testing.assert_allclose(c.emergency_kwh((0, 3)), [40.0, 20.0])
        with pytest.raises(ValueError):
            c.daily[0, 0] = 1.0  # shared by every reader, so read-only

    def test_rejects_households_of_different_lengths(self):
        # One loads row per household, all of one length: rows that do not
        # match the ids are rejected.
        c = community_of([household("h0", days=3), household("h1", days=3)])
        with pytest.raises(ValidationError, match=r"loads has shape \(1, 72\)"):
            replace(c, loads=c.loads[:1])
        with pytest.raises(ValidationError, match=r"loads has shape \(144,\)"):
            replace(c, loads=c.loads.reshape(-1))

    @pytest.mark.parametrize(("kwargs", "rule"), [
        ({"elasticity": 0.0}, "elasticity must be negative"),
        ({"elasticity": float("nan")}, "elasticity must be negative"),
        ({"baseline_rate": 0.0}, "baseline_rate must be > 0"),
        ({"baseline_rate": -0.1}, "baseline_rate must be > 0"),
    ])
    def test_rejects_a_bad_elasticity_or_rate(self, kwargs, rule):
        with pytest.raises(ValidationError, match=f"household h1: {rule}"):
            community_of([household("h0"), household("h1", **kwargs)])

    def test_names_the_first_bad_household_and_its_row(self):
        hs = [household("h0"), household("h1", act_score=40.0), household("h2", elasticity=1.0)]
        with pytest.raises(ValidationError, match=r"household h1: act_score must lie in \[1, 36\]") as info:
            community_of(hs)
        assert info.value.row == 1

    @given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_daily_is_bit_identical_to_per_row_sums(self, n, days, seed):
        loads = np.random.default_rng(seed).uniform(0.0, 5.0, (n, days * 24))
        c = community_of([household(f"h{i}", load=row) for i, row in enumerate(loads)])
        np.testing.assert_array_equal(c.daily, [row.reshape(days, 24).sum(axis=1)
                                                for row in loads])

    def test_shares_its_arrays_read_only(self):
        loads = np.ones((2, 48))
        c = community_of([household("h0", load=loads[0]), household("h1", load=loads[1])])
        resampled = replace(c, elasticity=np.array([-0.5, -0.6]))
        for name in ("loads", "baseline_rate", "profiles"):
            assert getattr(resampled, name) is getattr(c, name)
        assert resampled.by_id("h1").elasticity == -0.6
        with pytest.raises(ValueError):
            c.loads[0, 0] = 2.0


class TestElasticitySampling:
    def test_degenerate_std_returns_mean(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(sample_elasticity(rng, -0.25, 0.0, size=3), -0.25)

    def test_rejects_nonnegative_mean(self):
        with pytest.raises(InvalidSpecError):
            sample_elasticity(np.random.default_rng(0), 0.1, 0.1, size=1)

    @pytest.mark.parametrize(("mean", "std", "rule"), [
        (math.nan, 0.1, "mean must be finite and negative"),
        (-math.inf, 0.1, "mean must be finite and negative"),
        (np.array([-0.25, math.nan]), 0.1, "mean must be finite and negative"),
        (-0.25, math.inf, "std must be finite and >= 0"),
        (-0.25, math.nan, "std must be finite and >= 0"),
        (-0.25, np.array([0.1, math.inf]), "std must be finite and >= 0"),
    ])
    def test_rejects_a_non_finite_mean_or_std(self, mean, std, rule):
        with pytest.raises(InvalidSpecError, match=rule):
            sample_elasticity(np.random.default_rng(0), mean, std, size=2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=200)
    def test_always_within_clamp(self, seed):
        rng = np.random.default_rng(seed)
        e = sample_elasticity(rng, -0.25, 2.0, size=8)  # wide std to hit both clamps
        assert ((ELASTICITY_FLOOR <= e) & (e <= ELASTICITY_CEIL)).all()

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_array_draws_match_one_draw_at_a_time(self, n, seed):
        regimes = [(-0.5, 0.05), (-0.025, 0.004)]
        one_at_a_time = np.random.default_rng(seed)
        expected = [generation_reference.sample_elasticity_one(one_at_a_time, *regimes[i % 2])
                    for i in range(n)]
        mean, std = np.resize(regimes, (n, 2)).T
        drawn = sample_elasticity(np.random.default_rng(seed), mean, std, size=n)
        np.testing.assert_array_equal(drawn, expected)
        rng = np.random.default_rng(seed)
        np.testing.assert_array_equal(
            sample_elasticity(np.random.default_rng(seed), -0.25, 2.0, size=n),
            [generation_reference.sample_elasticity_one(rng, -0.25, 2.0) for _ in range(n)])

    def test_distribution_matches_gaussian(self):
        # With the default (mean -0.25, std 0.1) parameters clipping is rare,
        # so the sample mean/std should track the Gaussian parameters.
        draws = sample_elasticity(np.random.default_rng(1), -0.25, 0.1, size=4_000)
        assert np.mean(draws) == pytest.approx(-0.25, abs=0.01)
        assert np.std(draws) == pytest.approx(0.1, abs=0.01)


GENERATION_SPECS = st.fixed_dictionaries({
    "counties": st.integers(1, 3),
    "neighborhoods_per_county": st.integers(1, 3),
    "households_per_neighborhood": st.integers(1, 5),
    "seed": st.integers(0, 2**32 - 1),
    "days": st.integers(1, 14),
    "elasticity_mean": st.floats(-3.0, -0.01),
    "elasticity_std": st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
})


class TestGeneration:
    def test_counts_and_structure(self):
        c = generate_community(3, 2, 4, seed=0, days=7)
        assert len(c) == 3 * 2 * 4
        assert len(set(c.neighborhood)) == 6
        assert len(set(c.county)) == 3
        for h, county in zip(c.households, c.county):
            assert daily_totals(h.load).shape == (7,)
            assert ELASTICITY_FLOOR <= h.elasticity <= ELASTICITY_CEIL
            assert h.id.startswith(f"{h.neighborhood_id}-h")
            assert h.neighborhood_id.startswith(f"{county}-n")

    def test_same_seed_is_identical(self):
        a = generate_community(2, 1, 5, seed=7, days=3)
        b = generate_community(2, 1, 5, seed=7, days=3)
        for ha, hb in zip(a.households, b.households):
            assert ha.elasticity == hb.elasticity
            np.testing.assert_array_equal(ha.load, hb.load)
            np.testing.assert_array_equal(ha.profile, hb.profile)

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

    @given(GENERATION_SPECS)
    @example(dict(counties=1, neighborhoods_per_county=1, households_per_neighborhood=1,
                  seed=5, days=1, elasticity_mean=-0.25, elasticity_std=0.0))
    @example(dict(counties=1, neighborhoods_per_county=1, households_per_neighborhood=1,
                  seed=5, days=1, elasticity_mean=-0.25, elasticity_std=0.1))
    @example(dict(counties=3, neighborhoods_per_county=2, households_per_neighborhood=4,
                  seed=5, days=2, elasticity_mean=-0.25, elasticity_std=0.0))
    @example(dict(counties=5, neighborhoods_per_county=1, households_per_neighborhood=50,
                  seed=5, days=30, elasticity_mean=-0.25, elasticity_std=0.1))
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_as_one_household_at_a_time(self, spec):
        """Also with std 0, where no household draws an elasticity normal."""
        made = generate_community(**spec)
        reference = generation_reference.generate_community(**spec)
        assert (made.ids, made.neighborhood, made.county, made.start) == (
            reference.ids, reference.neighborhood, reference.county, reference.start)
        for name in ("loads", "profiles", "elasticity", "baseline_rate", "daily"):
            assert getattr(made, name).tobytes() == getattr(reference, name).tobytes(), name

    def test_holds_no_buffer_of_normals_beside_the_loads(self):
        """The normals are drawn into the loads, so the traced peak stays near
        the loads' own size (a normals buffer beside them made it 2.18x)."""
        tracemalloc.start()
        try:
            made = generate_community(4, 1, 500, seed=0, days=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert made.loads.shape == (2_000, 30 * 24)
        assert peak < 1.3 * made.loads.nbytes

    @pytest.mark.parametrize(("kwargs", "rule"), [
        ({"baseline_rate": math.inf}, "baseline_rate must be finite and > 0"),
        ({"baseline_rate": math.nan}, "baseline_rate must be finite and > 0"),
        ({"baseline_rate": 0.0}, "baseline_rate must be finite and > 0"),
        ({"elasticity_mean": math.nan}, "mean must be finite and negative"),
        ({"elasticity_mean": 0.0}, "mean must be finite and negative"),
        ({"elasticity_std": math.inf}, "std must be finite and >= 0"),
        ({"elasticity_std": math.nan}, "std must be finite and >= 0"),
        ({"elasticity_std": -0.1}, "std must be finite and >= 0"),
        ({"days": 0}, "days must be >= 1"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_rejects_a_bad_spec_before_the_first_draw(self, kwargs, rule):
        with mock.patch("numpy.random.default_rng", wraps=np.random.default_rng) as rng:
            with pytest.raises(InvalidSpecError, match=rule):
                generate_community(1, 1, 2, **{"seed": 0, **kwargs})
        rng.assert_not_called()


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
            np.testing.assert_array_equal(a.load, b.load)
            np.testing.assert_array_equal(a.profile, b.profile)
        assert (restored.neighborhood, restored.county) == (original.neighborhood,
                                                            original.county)

    def test_saved_bytes_are_pinned(self, tmp_path):
        """sha256 of both files as the per-household population model wrote them."""
        save_community(generate_community(2, 1, 6, seed=3, days=4),
                       tmp_path / "hh.csv", tmp_path / "loads.csv")
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("hh.csv", "loads.csv")} == {
            "hh.csv": "6c09941e4533724e2045f4086b5908af4f6efa44230d8625fe7028fcd876dd93",
            "loads.csv": "af92fabd898011a259e5008a6d4309541f4869c19fc18473d128f01e04772b65",
        }

    def test_rows_out_of_id_order_keep_their_neighborhood_and_county(self, tmp_path):
        hs = [household(f"h{i:02d}", days=1, neighborhood_id=f"n{i % 3}") for i in range(12)]
        random.Random(5).shuffle(hs)
        original = replace(community_of(hs),
                           county=tuple("c1" if h.neighborhood_id == "n2" else "c0"
                                        for h in hs))
        hh, loads = tmp_path / "hh.csv", tmp_path / "loads.csv"
        save_community(original, hh, loads)
        restored = load_community(hh, loads)
        assert restored.ids == original.ids != tuple(sorted(original.ids))
        assert restored.neighborhood == tuple(h.neighborhood_id for h in hs)
        assert restored.county == original.county
        assert set(restored.county) == {"c0", "c1"}

    def test_non_ascii_ids_round_trip_as_utf8(self, tmp_path):
        ids = ('Zoë "Ünal", Łódź', "東京,1", 'say "hi"')
        original = community_of([household(hid, days=1) for hid in ids])
        hh, loads = tmp_path / "hh.csv", tmp_path / "loads.csv"
        save_community(original, hh, loads)
        assert '"Zoë ""Ünal"", Łódź",'.encode() in loads.read_bytes()
        assert '"東京,1",'.encode() in hh.read_bytes()
        assert_same_community(load_community(hh, loads), original)

    def test_load_rejects_missing_load_rows(self, tmp_path):
        c = generate_community(1, 1, 2, seed=0, days=1)
        save_community(c, tmp_path / "hh.csv", tmp_path / "loads.csv")
        # Keep only the first household's load rows.
        lines = (tmp_path / "loads.csv").read_text().splitlines(keepends=True)
        keep = [lines[0]] + [ln for ln in lines[1:] if ln.startswith("c00-n00-h000")]
        (tmp_path / "loads.csv").write_text("".join(keep))
        with pytest.raises(ReferentialIntegrityError):
            load_community(tmp_path / "hh.csv", tmp_path / "loads.csv")


def assert_same_community(a: Community, b: Community) -> None:
    assert [h.id for h in a.households] == [h.id for h in b.households]
    assert (a.neighborhood, a.county) == (b.neighborhood, b.county)
    assert a.start == b.start
    for x, y in zip(a.households, b.households):
        assert (x.neighborhood_id, x.elasticity, x.baseline_rate) == (
            y.neighborhood_id, y.elasticity, y.baseline_rate)
        np.testing.assert_array_equal(x.profile, y.profile)
        np.testing.assert_array_equal(x.load, y.load)


def assert_reads_as_the_reference(path) -> ValidationError | None:
    """_read_loads gives the row reader's start, ids and array bytes, or raises
    an error of its type and message, which it returns."""
    try:
        expected = csv_reference.read_loads(path)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as caught:
            community_module._read_loads(path)
        assert type(caught.value) is type(exc) and str(caught.value) == str(exc)
        return caught.value
    got = community_module._read_loads(path)
    assert got[:2] == expected[:2]
    assert got[2].shape == expected[2].shape and got[2].tobytes() == expected[2].tobytes()
    return None


def scalar_loads(rows: list[tuple[str, datetime, str]]):
    """The loader's rules for (id, timestamp, kwh) rows, one row at a time:
    (None, (start, id -> hourly kWh)) when every household has one row per hour
    of one shared span of whole days; otherwise the fault to name first,
    ("repeat", (id, timestamp)), ("gap", (id, timestamp)) or ("days", None)."""
    ids = list(dict.fromkeys(hid for hid, _, _ in rows))
    kwh_at, repeats = {}, []
    for hid, when, kwh in rows:
        if (hid, when) in kwh_at:
            repeats.append((hid, when))
        else:
            kwh_at[hid, when] = float(kwh)
    if repeats:
        return "repeat", min(repeats, key=lambda cell: (cell[1], ids.index(cell[0])))
    first = min(when for _, when, _ in rows)
    last = max(when for _, when, _ in rows)
    hours = [first + k * community_module.HOUR
             for k in range((last - first) // community_module.HOUR + 1)]
    for when in hours:
        for hid in ids:
            if (hid, when) not in kwh_at:
                return "gap", (hid, when)
    if len(hours) % 24:
        return "days", None
    return None, (first, {hid: [kwh_at[hid, when] for when in hours] for hid in ids})


class TestCsvValidation:
    """Malformed files fail in load_community with an error naming the file
    and the row, or the household and the hour it lacks."""

    @pytest.fixture
    def saved(self, tmp_path):
        """A 3-household, 3-day population saved to hh.csv and loads.csv."""
        original = generate_community(1, 1, 3, seed=4, days=3)
        save_community(original, tmp_path / "hh.csv", tmp_path / "loads.csv")
        return original, tmp_path / "hh.csv", tmp_path / "loads.csv"

    @staticmethod
    def rows(path):
        lines = path.read_text().splitlines(keepends=True)
        return lines[0], lines[1:]

    @staticmethod
    def edit(path, header, rows):
        path.write_text(header + "".join(rows))

    def test_rows_in_any_order(self, saved):
        original, hh, loads = saved
        header, rows = self.rows(loads)
        random.Random(0).shuffle(rows)
        self.edit(loads, header, rows)
        assert_same_community(load_community(hh, loads), original)

    def test_missing_household_column(self, saved):
        _, hh, loads = saved
        header, rows = self.rows(hh)
        assert header.rstrip("\n").endswith(",dwelling_size")
        cut = [line.rsplit(",", 1)[0] + "\n" for line in [header, *rows]]
        self.edit(hh, cut[0], cut[1:])
        with pytest.raises(ValidationError, match="hh.csv: missing column.*dwelling_size"):
            load_community(hh, loads)

    def test_non_numeric_kwh(self, saved):
        _, hh, loads = saved
        header, rows = self.rows(loads)
        rows[4] = rows[4].rsplit(",", 1)[0] + ",lots\n"
        self.edit(loads, header, rows)
        with pytest.raises(ValidationError, match="loads.csv row 6: kwh 'lots'"):
            load_community(hh, loads)

    def test_neighborhood_under_two_counties(self, saved):
        _, hh, loads = saved
        header, rows = self.rows(hh)
        fields = rows[1].split(",")
        assert fields[:3] == ["c00-n00-h001", "c00-n00", "c00"]
        rows[1] = ",".join([*fields[:2], "c01", *fields[3:]])
        self.edit(hh, header, rows)
        with pytest.raises(ValidationError, match="hh.csv row 3: neighborhood c00-n00 is in "
                                                  "county c01, but in c00 on an earlier row"):
            load_community(hh, loads)

    def test_non_numeric_household_field(self, saved):
        _, hh, loads = saved
        header, rows = self.rows(hh)
        rows[1] = rows[1].replace(rows[1].split(",")[3], "cheap", 1)
        self.edit(hh, header, rows)
        with pytest.raises(ValidationError, match="hh.csv row 3: baseline_rate 'cheap'"):
            load_community(hh, loads)

    @pytest.mark.parametrize(("column", "text", "rule"), [
        ("elasticity", "0.1", "elasticity must be negative"),
        ("baseline_rate", "-0.16", "baseline_rate must be > 0"),
        ("act_score", "40.0", r"act_score must lie in \[1, 36\]"),
        ("dwelling_size", "0", "dwelling_size must be > 0"),
    ])
    def test_out_of_range_household_field(self, saved, column, text, rule):
        original, hh, loads = saved
        header, rows = self.rows(hh)
        fields = rows[1].rstrip("\n").split(",")
        fields[HOUSEHOLD_COLUMNS.index(column)] = text
        rows[1] = ",".join(fields) + "\n"
        self.edit(hh, header, rows)
        with pytest.raises(ValidationError,
                           match=f"hh.csv row 3: household {original.ids[1]}: {rule}"):
            load_community(hh, loads)

    def test_bad_timestamp(self, saved):
        _, hh, loads = saved
        header, rows = self.rows(loads)
        hid, _, kwh = rows[7].split(",")
        rows[7] = f"{hid},yesterday,{kwh}"
        self.edit(loads, header, rows)
        with pytest.raises(ValidationError, match="loads.csv row 9: bad timestamp 'yesterday'"):
            load_community(hh, loads)

    def test_names_the_first_of_two_bad_timestamps(self, saved):
        _, hh, loads = saved
        header, rows = self.rows(loads)
        for k, stamp in ((3, "tomorrow"), (7, "yesterday")):
            hid, _, kwh = rows[k].split(",")
            rows[k] = f"{hid},{stamp},{kwh}"
        self.edit(loads, header, rows)
        with pytest.raises(ValidationError, match="loads.csv row 5: bad timestamp 'tomorrow'"):
            load_community(hh, loads)

    def test_household_shifted_by_a_day(self, saved):
        original, hh, loads = saved
        header, rows = self.rows(loads)
        shifted = original.households[1].id
        rows = [r.replace("2014-09-0", "2014-09-1") if r.startswith(shifted) else r
                for r in rows]
        self.edit(loads, header, rows)
        with pytest.raises(ValidationError,
                           match=f"loads.csv: household {shifted} has no row for "
                                 "2014-09-01T00:00:00"):
            load_community(hh, loads)

    def test_duplicated_hour_and_dropped_hour(self, saved):
        original, hh, loads = saved
        header, rows = self.rows(loads)
        # Row 12 (hour 10 of the first household) replaces the row of hour 11.
        rows[10] = rows[9]
        self.edit(loads, header, rows)
        with pytest.raises(ValidationError,
                           match=f"loads.csv row 12: household {original.households[0].id} "
                                 "repeats the hour of row 11"):
            load_community(hh, loads)

    def test_dropped_day(self, saved):
        original, hh, loads = saved
        header, rows = self.rows(loads)
        dropped = original.households[2].id
        rows = [r for r in rows if not (r.startswith(dropped) and "2014-09-01T" in r)]
        self.edit(loads, header, rows)
        with pytest.raises(ValidationError,
                           match=f"loads.csv: household {dropped} has no row for "
                                 "2014-09-01T00:00:00"):
            load_community(hh, loads)

    def test_dropped_last_hour_of_the_last_household(self, saved):
        original, hh, loads = saved
        header, rows = self.rows(loads)
        assert rows[-1].startswith(f"{original.ids[2]},2014-09-03T23:00:00,")
        self.edit(loads, header, rows[:-1])
        with pytest.raises(ValidationError,
                           match=f"loads.csv: household {original.ids[2]} has no row for "
                                 "2014-09-03T23:00:00"):
            load_community(hh, loads)

    def test_dropped_last_day_of_every_household_is_a_shorter_population(self, saved):
        original, hh, loads = saved
        header, rows = self.rows(loads)
        self.edit(loads, header, [r for r in rows if "2014-09-03T" not in r])
        assert load_community(hh, loads).daily.shape == (3, 2)

    def test_short_row(self, saved):
        _, hh, loads = saved
        header, rows = self.rows(loads)
        rows[0] = rows[0].rsplit(",", 1)[0] + "\n"
        self.edit(loads, header, rows)
        with pytest.raises(ValidationError, match="loads.csv row 2: 2 fields"):
            load_community(hh, loads)

    def test_duplicate_household_row(self, saved):
        _, hh, loads = saved
        header, rows = self.rows(hh)
        self.edit(hh, header, rows + rows[:1])
        with pytest.raises(ValidationError, match="hh.csv row 5: .* repeats row 2"):
            load_community(hh, loads)

    def test_parses_each_distinct_timestamp_once(self, saved, monkeypatch):
        _, hh, loads = saved
        calls = []

        class Counting(datetime):
            @classmethod
            def fromisoformat(cls, text):
                calls.append(text)
                return datetime.fromisoformat(text)

        monkeypatch.setattr(community_module, "datetime", Counting)
        load_community(hh, loads)
        assert len(calls) == len(set(calls)) == 3 * 24

    @pytest.mark.parametrize("block", [1, 100, 1 << 16])
    def test_a_quoted_field_spanning_two_lines_names_its_row(self, saved, block):
        """csv.reader would read rows 6 and 7 as one record; each record must be one line."""
        _, hh, loads = saved
        header, rows = self.rows(loads)
        hid, rest = rows[4].split(",", 1)
        rows[4] = f'"{hid}\n{hid}",{rest}'
        self.edit(loads, header, rows)
        with pytest.raises(ValidationError, match="^loads.csv row 6: a quoted field runs past "
                                                  "the end of its line$"):
            with mock.patch.object(community_module, "_BLOCK", block):
                load_community(hh, loads)

    def test_a_quote_left_open_on_the_last_line_names_its_row(self, saved):
        """csv.reader takes the last kwh as '0.5\\r\\n', which float() reads; a field
        holding a line end is rejected instead."""
        _, hh, loads = saved
        header, rows = self.rows(loads)
        rows[-1] = rows[-1].rsplit(",", 1)[0] + ',"0.5\r\n'
        self.edit(loads, header, rows)
        assert csv_reference.read_loads(loads)[2][-1, -1] == 0.5
        with pytest.raises(ValidationError, match=f"^loads.csv row {len(rows) + 1}: a quoted "
                                                  "field runs past the end of its line$"):
            load_community(hh, loads)

    def test_a_header_spanning_two_lines_names_row_1(self, saved):
        _, hh, loads = saved
        header, rows = self.rows(loads)
        self.edit(loads, '"note\n",' + header, rows)
        with pytest.raises(ValidationError, match="^loads.csv row 1: a quoted field runs past "
                                                  "the end of its line$"):
            load_community(hh, loads)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_loads_match_a_scalar_reference(self, tmp_path_factory, data):
        n, days = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        tmp = tmp_path_factory.mktemp("reference")
        original = generate_community(1, 1, n, seed=6, days=days)
        hh, loads = tmp / "hh.csv", tmp / "loads.csv"
        save_community(original, hh, loads)
        header, lines = self.rows(loads)
        rows = [(hid, datetime.fromisoformat(stamp), kwh)
                for hid, stamp, kwh in (line.rstrip("\r\n").split(",") for line in lines)]
        hour = community_module.HOUR
        # Whole days or a few hours off one end of every household.
        cut = data.draw(st.integers(-(days - 1), days - 1).map(lambda d: d * 24)
                        | st.integers(-3, 3))
        span = range(max(cut, 0), days * 24 + min(cut, 0))
        every = data.draw(st.integers(-30, 30))  # every stamp moves by this many hours
        rows = [(hid, when + every * hour, kwh) for hid, when, kwh in rows
                if (when - original.start) // hour in span]
        for k, hours in data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                                     st.integers(-30, 30).filter(bool)),
                                           max_size=2)):
            hid, when, kwh = rows[k]
            rows[k] = hid, when + hours * hour, kwh
        rows += [rows[k] for k in data.draw(st.lists(st.integers(0, len(rows) - 1),
                                                     max_size=2))]
        dropped = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=2, unique=True))
        rows = data.draw(st.permutations([r for k, r in enumerate(rows) if k not in dropped]))
        self.edit(loads, header, [f"{hid},{when.isoformat()},{kwh}\n" for hid, when, kwh in rows])
        fault, found = scalar_loads(rows)
        if fault is None:
            start, expected = found
            restored = load_community(hh, loads)
            assert restored.start == start
            np.testing.assert_array_equal(restored.loads, [expected[hid] for hid in original.ids])
            return
        with pytest.raises(ValidationError) as caught:
            load_community(hh, loads)
        message = str(caught.value)
        if fault == "repeat":
            again, hid, once = re.fullmatch(r"loads.csv row (\d+): household (\S+) repeats "
                                            r"the hour of row (\d+)", message).groups()
            # Rows are lines 2, 3, ...: the named two are the cell's first two rows.
            cell = [k + 2 for k, (h, when, _) in enumerate(rows) if (h, when) == found]
            assert (hid, [int(once), int(again)]) == (found[0], cell[:2])
        elif fault == "gap":
            hid, stamp = re.fullmatch(r"loads.csv: household (\S+) has no row for (\S+)",
                                      message).groups()
            assert (hid, datetime.fromisoformat(stamp)) == found
            assert not any((h, when) == found for h, when, _ in rows)
        else:
            assert re.fullmatch(r"loads.csv: \d+ hourly rows per household are not a whole "
                                r"number of days", message)

    def test_traced_peak_is_under_100_bytes_per_load_row(self, tmp_path):
        hh, loads = tmp_path / "hh.csv", tmp_path / "loads.csv"
        save_community(generate_community(1, 1, 20, seed=0, days=30), hh, loads)
        tracemalloc.start()
        try:
            load_community(hh, loads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (20 * 30 * 24) < 100

    def test_a_stray_row_years_away_allocates_no_dense_timeline(self, tmp_path):
        original = generate_community(1, 1, 50, seed=0, days=1)
        hh, loads = tmp_path / "hh.csv", tmp_path / "loads.csv"
        save_community(original, hh, loads)
        header, rows = self.rows(loads)
        later = original.start + 10 * 365 * 24 * community_module.HOUR
        self.edit(loads, header, rows + [f"{original.ids[3]},{later.isoformat()},1.0\n"])
        tracemalloc.start()
        try:
            # A 50 x 87,600-hour grid would take 35 MB; the first hole is hour 24 of h000.
            with pytest.raises(ValidationError, match=f"loads.csv: household {original.ids[0]} "
                                                      "has no row for 2014-09-02T00:00:00$"):
                load_community(hh, loads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_traced_peak_is_under_40_bytes_per_load_row_at_50_by_90_days(self, tmp_path):
        hh, loads = tmp_path / "hh.csv", tmp_path / "loads.csv"
        save_community(generate_community(1, 1, 50, seed=0, days=90), hh, loads)
        tracemalloc.start()
        try:
            load_community(hh, loads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Three int32 and a float64 per row, then a bool mask and the result.
        assert peak / (50 * 90 * 24) <= 40

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("stamps", [["0001-01-01T00:00:00"], ["9999-12-31T23:00:00"],
                                        ["0001-01-01T00:00:00", "9999-12-31T23:00:00"]],
                             ids=["year-1", "year-9999", "both"])
    def test_stray_rows_at_the_ends_of_datetime_name_what_the_reference_names(
            self, saved, stamps, where):
        # 8.8e7 hours apart: the widest timeline a datetime allows.
        original, _, loads = saved
        header, rows = self.rows(loads)
        strays = [f"{original.ids[1]},{stamp},1.0\n" for stamp in stamps]
        self.edit(loads, header, strays + rows if where == "first" else rows + strays)
        fault = assert_reads_as_the_reference(loads)
        assert fault is not None and "has no row for" in str(fault)

    def test_a_first_row_after_the_earliest_hour(self, saved):
        # The file's first row is its last hour, so every other hour lies before it.
        original, hh, loads = saved
        header, rows = self.rows(loads)
        self.edit(loads, header, rows[::-1])
        assert assert_reads_as_the_reference(loads) is None
        assert_same_community(load_community(hh, loads), original)
        # Reversed again with h000's first hour dropped, then with a row repeated.
        for faulty in (rows[:0:-1], rows[::-1] + rows[-2:-1]):
            self.edit(loads, header, faulty)
            assert assert_reads_as_the_reference(loads) is not None

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_rows_load_the_original_or_raise_a_typed_error(self, tmp_path_factory,
                                                                   data):
        tmp = tmp_path_factory.mktemp("mutated")
        original = generate_community(1, 1, 3, seed=4, days=2)
        hh, loads = tmp / "hh.csv", tmp / "loads.csv"
        save_community(original, hh, loads)
        header, rows = self.rows(loads)
        kind = data.draw(st.sampled_from(["none", "drop", "duplicate", "shift", "garble"]))
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=4,
                                   unique=True))
        if kind == "drop":
            rows = [r for k, r in enumerate(rows) if k not in picks]
        elif kind == "duplicate":
            rows += [rows[k] for k in picks]
        elif kind == "shift":
            hid, stamp, kwh = rows[picks[0]].split(",")
            hours = data.draw(st.integers(-30, 30).filter(bool))
            moved = datetime.fromisoformat(stamp) + hours * community_module.HOUR
            rows[picks[0]] = f"{hid},{moved.isoformat()},{kwh}"
        elif kind == "garble":
            fields = rows[picks[0]].rstrip("\n").split(",")
            fields[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from(["", "x", "-1"]))
            rows[picks[0]] = ",".join(fields) + "\n"
        rows = data.draw(st.permutations(rows))
        self.edit(loads, header, rows)
        try:
            restored = load_community(hh, loads)
        except GridflexError:
            assert kind != "none"
        else:
            assert_same_community(restored, original)


# Household ids and extra-column texts: commas, quotes, spaces and non-ASCII,
# but no line end, since each record is one line.
CSV_TEXT = st.text(st.sampled_from(list('ab0 ,"\'éüß東-')), max_size=4)
# kWh texts float() reads or rejects in ways a tokenizer could get wrong.
ODD_KWH = ["", "x", "-1", "nan", "inf", " 1.5", "1_0"]
LINE_ENDS = ["\n", "\r\n", "\r"]


def csv_field(text: str, quote: bool) -> str:
    """`text` as one CSV field: quoted, doubling its quotes, when it must be or when `quote`."""
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class TestCsvAgainstRowReference:
    """The block reader and writer against the csv.reader and csv.writer loops
    they replaced (tests/csv_reference.py)."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_writer_bytes_match_the_reference_and_load_back(self, tmp_path_factory, data):
        ids = data.draw(st.lists(CSV_TEXT, min_size=1, max_size=4, unique=True))
        days = data.draw(st.integers(1, 2))
        kwh = (st.sampled_from([0.0, 5e-324, 1e-05, 1e+16])
               | st.floats(0, 1e6, allow_nan=False, allow_infinity=False))
        loads = np.array(data.draw(st.lists(kwh, min_size=len(ids) * days * 24,
                                            max_size=len(ids) * days * 24)))
        zone = data.draw(st.sampled_from([None, timezone.utc, timezone(timedelta(hours=-5))]))
        start = START.replace(tzinfo=zone) + data.draw(st.integers(-1000, 1000)) * HOUR
        original = Community(tuple(ids), ("n0",) * len(ids), ("c0",) * len(ids), start,
                             loads.reshape(len(ids), -1), np.full(len(ids), -0.25),
                             np.full(len(ids), 0.16), np.tile(profile(), (len(ids), 1)))
        tmp = tmp_path_factory.mktemp("writer")
        save_community(original, tmp / "hh.csv", tmp / "loads.csv")
        csv_reference.write_loads(original, tmp / "reference.csv")
        assert (tmp / "loads.csv").read_bytes() == (tmp / "reference.csv").read_bytes()
        assert_same_community(load_community(tmp / "hh.csv", tmp / "loads.csv"), original)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reader_matches_the_reference(self, tmp_path_factory, data):
        """Same arrays where the reference accepts; where it raises, the same
        error type and message. Block sizes down to one line per block."""
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        ids = data.draw(st.lists(CSV_TEXT, min_size=1, max_size=3, unique=True))
        extra = data.draw(st.lists(CSV_TEXT.filter(lambda c: c not in LOAD_COLUMNS),
                                   max_size=2, unique=True))
        header = data.draw(st.permutations([*LOAD_COLUMNS, *extra]))
        if rng.random() < 0.05:
            header.remove(rng.choice(LOAD_COLUMNS))
        column = {name: header.index(name) for name in LOAD_COLUMNS if name in header}
        hours = data.draw(st.sampled_from([24, 48]) | st.integers(1, 30))
        start = START + data.draw(st.integers(-30, 30)) * HOUR
        rows = []
        for k in range(hours):
            for hid in ids:
                row = [rng.choice(["", "x", "a,b", '"', "é"]) for _ in header]
                values = {"id": hid, "timestamp_iso8601": (start + k * HOUR).isoformat(),
                          "kwh": repr(rng.random() * 3)}
                for name, j in column.items():
                    row[j] = values[name]
                rows.append(row)
        odd = {"kwh": st.sampled_from(ODD_KWH),
               "timestamp_iso8601": st.sampled_from(["yesterday", "", "2014-09-01T00:30:00",
                                                      "2014-09-01T00:00:00+00:00"])
               | st.integers(-30, 60).map(lambda h: (start + h * HOUR).isoformat())}
        for kind, k in data.draw(st.lists(st.tuples(st.sampled_from(
                ["kwh", "timestamp_iso8601", "short", "long", "repeat", "drop"]),
                st.integers(0, 2) | st.integers(0, 2**16)), max_size=4)):
            row = rows[k % len(rows)]
            if kind in odd and column.get(kind, len(row)) < len(row):
                row[column[kind]] = data.draw(odd[kind])
            elif kind == "short" and row:
                del row[-1]
            elif kind == "long":
                row.append("x")
            elif kind == "repeat":
                rows.append(list(row))
            elif kind == "drop" and len(rows) > 1:
                rows.remove(row)
        if data.draw(st.booleans()):
            rng.shuffle(rows)
        lines = [",".join(csv_field(text, rng.random() < 0.2) for text in row)
                 for row in [header, *rows]]
        for _ in range(data.draw(st.integers(0, 3))):
            lines.insert(rng.randrange(len(lines) + 1), "")
        end = data.draw(st.sampled_from([*LINE_ENDS, "mixed"]))
        text = "".join(line + (rng.choice(LINE_ENDS) if end == "mixed" else end)
                       for line in lines)
        if data.draw(st.booleans()):
            text = text.rstrip("\r\n")
        path = tmp_path_factory.mktemp("reader") / "loads.csv"
        path.write_bytes(text.encode())
        try:
            expected = csv_reference.read_loads(path)
        except ValidationError as exc:
            expected = exc
        block = data.draw(st.sampled_from([1, 40, 200, 1 << 16]))
        with mock.patch.object(community_module, "_BLOCK", block):
            if isinstance(expected, ValidationError):
                with pytest.raises(ValidationError) as caught:
                    community_module._read_loads(path)
                assert type(caught.value) is type(expected)
                assert str(caught.value) == str(expected)
                return
            got = community_module._read_loads(path)
        assert got[:2] == expected[:2]
        assert got[2].shape == expected[2].shape and got[2].tobytes() == expected[2].tobytes()


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

    @pytest.mark.parametrize("kwargs", [
        {"participation_fraction": -0.25}, {"participation_fraction": 0.0},
        {"participation_fraction": 1.5}, {"default_incentive": -5.0},
        {"default_incentive": float("nan")}, {"cycle_days": 0, "emergency_day_count": 0},
        {"elasticity_mean": float("nan")},
    ], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_names_a_bad_participation_incentive_cycle_or_nan(self, kwargs):
        with pytest.raises(InvalidSpecError, match=next(iter(kwargs))):
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
