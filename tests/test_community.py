"""Population model: validation, synthetic generation, CSV roundtrip, feature scaling."""

import hashlib
import random
import re
import tracemalloc
from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridflex import community as community_module
from gridflex.community import (
    ELASTICITY_CEIL,
    ELASTICITY_FLOOR,
    FEATURE_COLUMNS,
    HOUSEHOLD_COLUMNS,
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
from tests.conftest import community_of, household, profile


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

    def test_rejects_partition_mismatch(self):
        c = community_of([household("h0"), household("h1")])
        with pytest.raises(ValidationError):
            replace(c, neighborhoods={"n0": ("h0",)})

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

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_array_draws_match_one_draw_at_a_time(self, n, seed):
        regimes = [(-0.5, 0.05), (-0.025, 0.004)]
        one_at_a_time = np.random.default_rng(seed)
        expected = [sample_elasticity(one_at_a_time, *regimes[i % 2]) for i in range(n)]
        mean, std = np.resize(regimes, (n, 2)).T
        drawn = sample_elasticity(np.random.default_rng(seed), mean, std, size=n)
        np.testing.assert_array_equal(drawn, expected)
        rng = np.random.default_rng(seed)
        np.testing.assert_array_equal(
            sample_elasticity(np.random.default_rng(seed), -0.25, 2.0, size=n),
            [sample_elasticity(rng, -0.25, 2.0) for _ in range(n)])

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
            assert daily_totals(h.load).shape == (7,)
            assert ELASTICITY_FLOOR <= h.elasticity <= ELASTICITY_CEIL
            assert h.id in c.neighborhoods[h.neighborhood_id]

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
        assert restored.counties.keys() == original.counties.keys()

    def test_saved_bytes_are_pinned(self, tmp_path):
        """sha256 of both files as the per-household population model wrote them."""
        save_community(generate_community(2, 1, 6, seed=3, days=4),
                       tmp_path / "hh.csv", tmp_path / "loads.csv")
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("hh.csv", "loads.csv")} == {
            "hh.csv": "6c09941e4533724e2045f4086b5908af4f6efa44230d8625fe7028fcd876dd93",
            "loads.csv": "af92fabd898011a259e5008a6d4309541f4869c19fc18473d128f01e04772b65",
        }

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
    assert a.neighborhoods == b.neighborhoods and a.counties == b.counties
    assert a.start == b.start
    for x, y in zip(a.households, b.households):
        assert (x.neighborhood_id, x.elasticity, x.baseline_rate) == (
            y.neighborhood_id, y.elasticity, y.baseline_rate)
        np.testing.assert_array_equal(x.profile, y.profile)
        np.testing.assert_array_equal(x.load, y.load)


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
