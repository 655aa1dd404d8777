"""Population data model: the community as arrays, synthetic generation, CSV ingestion."""

from __future__ import annotations

import csv
import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    InsufficientPopulationError,
    InvalidSpecError,
    ReferentialIntegrityError,
    ValidationError,
)

HOURS_PER_DAY = 24

# Column order of the static (socio-economic) feature matrix. Fixed: downstream
# models and CSV schemas rely on it.
FEATURE_COLUMNS = (
    "median_income",
    "unemployment_pct",
    "act_score",
    "college_pct",
    "avg_temperature",
    "precipitation",
    "dwelling_size",
)

# The two CSV schemas read by load_community and written by save_community.
HOUSEHOLD_COLUMNS = ("id", "neighborhood_id", "county", "baseline_rate", "elasticity",
                     *FEATURE_COLUMNS)
LOAD_COLUMNS = ("id", "timestamp_iso8601", "kwh")
HOUR = timedelta(hours=1)

ELASTICITY_FLOOR = -5.0
ELASTICITY_CEIL = -0.01


def daily_totals(hourly: np.ndarray) -> np.ndarray:
    """Total kWh per day of hourly kWh whose last axis is whole days: (..., days)."""
    return hourly.reshape(*hourly.shape[:-1], -1, HOURS_PER_DAY).sum(axis=-1)


class Household(NamedTuple):
    """One row of a Community as a record; the Community checks its values."""

    id: str
    neighborhood_id: str
    load: np.ndarray  # hourly kWh
    elasticity: float  # price elasticity of demand, strictly negative
    baseline_rate: float  # dollars / kWh
    profile: np.ndarray  # socio-economic features in FEATURE_COLUMNS order


@dataclass(frozen=True, eq=False)
class Community:
    """The household population, one array row per household in `ids` order. The
    arrays are taken without a copy and made read-only, so `replace` shares them."""

    ids: tuple[str, ...]
    neighborhoods: dict[str, tuple[str, ...]]  # neighborhood id -> member household ids
    counties: dict[str, tuple[str, ...]]  # county -> neighborhood ids
    start: datetime  # the hour of loads[:, 0]
    loads: np.ndarray  # hourly kWh of whole days, (n, hours)
    elasticity: np.ndarray  # price elasticity of demand, strictly negative, (n,)
    baseline_rate: np.ndarray  # dollars / kWh, (n,)
    profiles: np.ndarray  # socio-economic features, (n, len(FEATURE_COLUMNS))
    daily: np.ndarray = field(init=False, repr=False)  # kWh per day, (n, days)
    index: dict[str, int] = field(init=False, repr=False)  # id -> row

    def __post_init__(self):
        n = len(self.ids)
        index = dict(zip(self.ids, range(n)))
        if len(index) != n:
            twice = next(hid for i, hid in enumerate(self.ids) if index[hid] != i)
            raise ValidationError(f"duplicate household id {twice}")
        if sorted(chain.from_iterable(self.neighborhoods.values())) != sorted(self.ids):
            raise ValidationError("neighborhoods do not partition the household set")
        row_shapes = {"loads": np.shape(self.loads)[-1:], "elasticity": (),
                      "baseline_rate": (), "profiles": (len(FEATURE_COLUMNS),)}
        for name, row in row_shapes.items():
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (n, *row):
                raise ValidationError(f"{name} has shape {value.shape}, not {(n, *row)}")
            value.flags.writeable = False  # shared by every reader
            object.__setattr__(self, name, value)
        hours = self.loads.shape[1]
        if hours == 0 or hours % HOURS_PER_DAY:
            raise ValidationError(f"load series length {hours} is not a positive multiple of 24")
        feature = dict(zip(FEATURE_COLUMNS, self.profiles.T))
        ok = {  # each per-household rule, as a row mask
            "load values must be finite and >= 0":
                (self.loads.min(axis=1) >= 0) & (self.loads.max(axis=1) < math.inf),
            "elasticity must be negative": self.elasticity < 0,
            "baseline_rate must be > 0": self.baseline_rate > 0,
            **{f"{c} must lie in [{lo}, {hi}]": (lo <= feature[c]) & (feature[c] <= hi)
               for c, lo, hi in (("unemployment_pct", 0, 100), ("act_score", 1, 36),
                                 ("college_pct", 0, 100))},
            "dwelling_size must be > 0": feature["dwelling_size"] > 0,
        }
        bad = ~np.array(list(ok.values())).reshape(len(ok), n)
        if bad.any():
            i = int(bad.any(axis=0).argmax())
            rule = list(ok)[bad[:, i].argmax()]
            raise ValidationError(f"household {self.ids[i]}: {rule}", row=i)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "daily", daily_totals(self.loads))
        self.daily.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def neighborhood_of(self) -> dict[str, str]:
        """Household id -> its neighborhood id."""
        return {hid: nid for nid, members in self.neighborhoods.items() for hid in members}

    def by_id(self, hid: str) -> Household:
        i = self.index[hid]
        return Household(hid, self.neighborhood_of[hid], self.loads[i],
                         float(self.elasticity[i]), float(self.baseline_rate[i]), self.profiles[i])

    @property
    def households(self) -> tuple[Household, ...]:
        """Every row as a record, in row order."""
        return tuple(map(self.by_id, self.ids))

    def mask(self, ids: Iterable[str]) -> np.ndarray:
        """Boolean row mask that selects the households `ids`."""
        rows = np.zeros(len(self), dtype=bool)
        rows[[self.index[hid] for hid in ids]] = True
        return rows

    def emergency_kwh(self, days: tuple[int, ...]) -> np.ndarray:
        """Each household's kWh over `days`, shape (n,), added in day order."""
        total = np.zeros(len(self))
        for d in days:
            total = total + self.daily[:, d]
        return total


def check_split_ratios(ratios: tuple[float, ...]) -> None:
    """Train/validation/test shares: each positive, summing to 1."""
    if any(not r > 0 for r in ratios) or abs(sum(ratios) - 1) > 1e-9:
        raise InvalidSpecError(f"split_ratios must be positive and sum to 1, got {ratios}")


@dataclass(frozen=True)
class ScenarioConfig:
    cycle_days: int = 30
    emergency_day_count: int = 3
    target_reduction_pct: float = 10.0
    default_incentive: float = 100.0
    elasticity_mean: float = -0.25
    elasticity_std: float = 0.1
    rng_seed: int = 0
    split_ratios: tuple[float, float, float] = (0.7, 0.2, 0.1)
    participation_fraction: float = 0.25

    def __post_init__(self):
        if self.cycle_days < 1:
            raise InvalidSpecError(f"cycle_days must be >= 1, got {self.cycle_days}")
        if not 0 <= self.emergency_day_count <= self.cycle_days:
            raise InvalidSpecError("emergency day count exceeds cycle length")
        if not 0 < self.target_reduction_pct < 100:
            raise InvalidSpecError("target_reduction_pct must lie in (0, 100)")
        if not 0 <= self.default_incentive < math.inf:
            raise InvalidSpecError(f"default_incentive must be finite and >= 0, "
                                   f"got {self.default_incentive}")
        if not self.elasticity_mean < 0:
            raise InvalidSpecError("elasticity_mean must be negative")
        if not 0 < self.participation_fraction <= 1:
            raise InvalidSpecError(f"participation_fraction must lie in (0, 1], "
                                   f"got {self.participation_fraction}")
        check_split_ratios(self.split_ratios)


def sample_elasticity(rng: np.random.Generator, mean, std, size: int | None = None):
    """Gaussian elasticity draws clamped into [-5.0, -0.01]: one float, or an
    array of `size` whose means and stds may be arrays. One draw of std 0 is its
    mean and takes nothing from `rng`; an array takes a normal per element."""
    if np.any(np.asarray(mean) >= 0):
        raise InvalidSpecError(f"elasticity mean must be negative, got {mean}")
    if np.any(np.asarray(std) < 0):
        raise InvalidSpecError(f"elasticity std must be >= 0, got {std}")
    if size is not None:
        return np.clip(rng.normal(mean, std, size), ELASTICITY_FLOOR, ELASTICITY_CEIL)
    draw = mean if std == 0 else rng.normal(mean, std)
    return float(min(max(draw, ELASTICITY_FLOOR), ELASTICITY_CEIL))


def _county_profile_base(rng: np.random.Generator) -> dict[str, float]:
    """County-level means the household profiles jitter around."""
    return {
        "median_income": rng.uniform(35_000, 95_000),
        "unemployment_pct": rng.uniform(2.5, 12.0),
        "act_score": rng.uniform(16.0, 28.0),
        "college_pct": rng.uniform(15.0, 60.0),
        "avg_temperature": rng.uniform(40.0, 80.0),
        "precipitation": rng.uniform(0.5, 6.0),
    }


def _sample_profile(rng: np.random.Generator, base: dict[str, float]) -> tuple[float, ...]:
    """One household's features, in FEATURE_COLUMNS order."""
    return (
        max(10_000.0, base["median_income"] * rng.lognormal(0.0, 0.25)),
        min(max(base["unemployment_pct"] + rng.normal(0, 1.0), 0.0), 100.0),
        min(max(base["act_score"] + rng.normal(0, 2.0), 1.0), 36.0),
        min(max(base["college_pct"] + rng.normal(0, 5.0), 0.0), 100.0),
        base["avg_temperature"] + rng.normal(0, 2.0),
        max(0.0, base["precipitation"] + rng.normal(0, 0.5)),
        rng.uniform(700, 3_500),
    )


_HOURS = np.arange(HOURS_PER_DAY)
# Daily double-peak consumption shape: morning and evening.
_DAY_SHAPE = (0.35 + 0.8 * np.exp(-0.5 * ((_HOURS - 7.5) / 1.8) ** 2)
              + 1.3 * np.exp(-0.5 * ((_HOURS - 19.0) / 2.5) ** 2))


def _synthetic_load(rng: np.random.Generator, days: int, dwelling_size: float,
                    income_percentile: float) -> np.ndarray:
    """The day shape scaled by dwelling size and income, plus seeded noise."""
    scale = (dwelling_size / 1_800.0) * (0.7 + 0.6 * income_percentile)
    day_wiggle = 1.0 + 0.1 * rng.normal(size=days)  # day-to-day variation
    series = (day_wiggle[:, None] * (_DAY_SHAPE * scale)).ravel()
    series += 0.05 * scale * rng.normal(size=series.size)
    return np.maximum(series, 0.0)


def generate_community(
    counties: int,
    neighborhoods_per_county: int,
    households_per_neighborhood: int,
    seed: int,
    days: int = 30,
    elasticity_mean: float = -0.25,
    elasticity_std: float = 0.1,
    baseline_rate: float = 0.16,
    start: datetime = datetime(2014, 9, 1),
) -> Community:
    """Deterministically generate a synthetic community for a fixed seed."""
    if counties < 1 or neighborhoods_per_county < 1 or households_per_neighborhood < 1:
        raise InvalidSpecError("all size counts must be >= 1")
    if days < 1:
        raise InvalidSpecError("days must be >= 1")
    rng = np.random.default_rng(seed)
    n = counties * neighborhoods_per_county * households_per_neighborhood
    loads = np.empty((n, days * HOURS_PER_DAY))
    profiles = np.empty((n, len(FEATURE_COLUMNS)))
    elasticity = np.empty(n)
    ids, neighborhoods, county_map = [], {}, {}
    for ci in range(counties):
        county_id = f"c{ci:02d}"
        base = _county_profile_base(rng)
        county_map[county_id] = tuple(f"{county_id}-n{ni:02d}"
                                      for ni in range(neighborhoods_per_county))
        for nb_id in county_map[county_id]:
            neighborhoods[nb_id] = members = tuple(
                f"{nb_id}-h{hi:03d}" for hi in range(households_per_neighborhood))
            for i in range(len(ids), len(ids) + len(members)):
                profiles[i] = profile = _sample_profile(rng, base)
                income_pctile = min(max(profile[0] / 120_000.0, 0.0), 1.0)
                loads[i] = _synthetic_load(rng, days, profile[-1], income_pctile)
                elasticity[i] = sample_elasticity(rng, elasticity_mean, elasticity_std)
            ids.extend(members)
    return Community(tuple(ids), neighborhoods, county_map, start, loads, elasticity,
                     np.full(n, baseline_rate, dtype=float), profiles)


def _rows(path: Path, columns: tuple[str, ...]):
    """(line number, fields of `columns`) per non-blank row of the CSV at `path`;
    a missing column or a row of the wrong width raises ValidationError."""
    with path.open(newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValidationError(f"{path.name}: missing column(s) {', '.join(missing)}")
        pick = itemgetter(*(header.index(c) for c in columns))
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path.name} row {reader.line_num}: {len(row)} "
                                      f"fields, the header has {len(header)}")
            yield reader.line_num, pick(row)


def _number(text: str, where: str, column: str) -> float:
    """`text` as a finite float; anything else raises ValidationError at `where`."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"{where}: {column} {text!r} is not a finite number")
    return value


def _read_loads(path: Path) -> tuple[datetime | None, dict[str, int], np.ndarray]:
    """The loads CSV as (start, household id -> row, hourly kWh of shape
    (households, hours)). Rows may come in any order, but every household must
    have one row per hour of one shared timeline. Repeats, named by their second
    and first rows, precede gaps, named by household and hour. Of several, the
    earliest hour is named, then the household whose first row comes first."""
    code: dict[str, int] = {}  # household id -> index, in order of first row
    hour_of: dict[str, int] = {}  # timestamp string -> hours after `origin`
    origin = None
    codes, hours, kwhs, lines = array("q"), array("q"), array("d"), array("q")
    for line, (hid, stamp, text) in _rows(path, LOAD_COLUMNS):
        if stamp not in hour_of:
            try:
                when = datetime.fromisoformat(stamp)
                origin = origin or when
                offset = when - origin
            except (TypeError, ValueError):
                raise ValidationError(f"{path.name} row {line}: bad timestamp {stamp!r}") from None
            if offset % HOUR:
                raise ValidationError(f"{path.name} row {line}: {stamp} is not a whole "
                                      f"number of hours after {origin.isoformat()}")
            hour_of[stamp] = offset // HOUR
        try:
            kwh = float(text)
        except ValueError:
            kwh = math.nan
        if not 0 <= kwh < math.inf:
            raise ValidationError(f"{path.name} row {line}: kwh {text!r} is not a "
                                  f"finite number >= 0")
        codes.append(code.setdefault(hid, len(code)))
        hours.append(hour_of[stamp])
        kwhs.append(kwh)
        lines.append(line)
    if not code:
        return None, {}, np.zeros((0, 0))
    ids, n = list(code), len(code)
    first = min(hour_of.values())
    # Cell k is hour first + k // n of household k % n: the timeline, hour by hour.
    cell = (np.frombuffer(hours, np.int64) - first) * n + np.frombuffer(codes, np.int64)
    cells, counts = np.unique(cell, return_counts=True)
    if cells.size < cell.size:
        twice = cells[np.argmax(counts > 1)]
        once, again = np.frombuffer(lines, np.int64)[cell == twice][:2]
        raise ValidationError(f"{path.name} row {again}: household {ids[twice % n]} "
                              f"repeats the hour of row {once}")
    if cells[-1] != cells.size - 1 or cells.size % n:
        k = np.append(np.flatnonzero(cells != np.arange(cells.size)), cells.size)[0]
        raise ValidationError(f"{path.name}: household {ids[k % n]} has no row for "
                              f"{(origin + int(first + k // n) * HOUR).isoformat()}")
    span = cells.size // n
    if span % HOURS_PER_DAY:
        raise ValidationError(f"{path.name}: {span} hourly rows per household "
                              f"are not a whole number of days")
    values = np.empty(cells.size)
    values[cell] = np.frombuffer(kwhs)
    return origin + first * HOUR, code, np.ascontiguousarray(values.reshape(span, n).T)


def load_community(households_csv: Path | str, loads_csv: Path | str) -> Community:
    """Build a Community from the two-file CSV schema (see README). Malformed
    input raises ValidationError or ReferentialIntegrityError naming the file
    and the row, or the household and the hour it lacks."""
    households_csv = Path(households_csv)
    start, load_row, loads = _read_loads(Path(loads_csv))
    neighborhoods: dict[str, list[str]] = {}
    counties: dict[str, set[str]] = {}
    county_of: dict[str, str] = {}  # neighborhood id -> the county of its first row
    row_of: dict[str, int] = {}  # household id -> line, in file order
    numbers = []
    for line, (hid, nb_id, county, *fields) in _rows(households_csv, HOUSEHOLD_COLUMNS):
        where = f"{households_csv.name} row {line}"
        if hid in row_of:
            raise ValidationError(f"{where}: household {hid} repeats row {row_of[hid]}")
        row_of[hid] = line
        if hid not in load_row:
            raise ReferentialIntegrityError(f"{where}: household {hid} has no load rows")
        numbers.append([_number(text, where, column)
                        for text, column in zip(fields, HOUSEHOLD_COLUMNS[3:])])
        if county_of.setdefault(nb_id, county) != county:
            raise ValidationError(f"{where}: neighborhood {nb_id} is in county {county}, "
                                  f"but in {county_of[nb_id]} on an earlier row")
        neighborhoods.setdefault(nb_id, []).append(hid)
        counties.setdefault(county, set()).add(nb_id)
    orphans = load_row.keys() - row_of.keys()
    if orphans:
        raise ReferentialIntegrityError(f"load rows for unknown households: {sorted(orphans)}")
    ids = tuple(row_of)
    rows = [load_row[hid] for hid in ids]
    table = np.array(numbers, dtype=float).reshape(len(ids), len(HOUSEHOLD_COLUMNS) - 3)
    try:
        return Community(ids, {k: tuple(v) for k, v in neighborhoods.items()},
                         {k: tuple(sorted(v)) for k, v in counties.items()}, start,
                         loads if rows == list(range(len(ids))) else loads[rows],
                         *map(np.ascontiguousarray, (table[:, 1], table[:, 0], table[:, 2:])))
    except ValidationError as exc:  # a household's value: name its row of the file
        if exc.row is None:
            raise
        raise ValidationError(f"{households_csv.name} row {row_of[ids[exc.row]]}: {exc}") from None


def save_community(
    community: Community, households_csv: Path | str, loads_csv: Path | str
) -> None:
    """Write the two-file CSV schema read back by load_community."""
    county_of = {nb: county for county, nbs in community.counties.items() for nb in nbs}
    home = community.neighborhood_of
    numbers = np.column_stack([community.baseline_rate, community.elasticity, community.profiles])
    with Path(households_csv).open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(HOUSEHOLD_COLUMNS)
        writer.writerows([hid, home[hid], county_of.get(home[hid], "na"), *map(repr, row)]
                         for hid, row in zip(community.ids, numbers.tolist()))
    stamps = [(community.start + k * HOUR).isoformat() for k in range(community.loads.shape[1])]
    with Path(loads_csv).open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(LOAD_COLUMNS)
        for hid, load in zip(community.ids, community.loads):
            writer.writerows(zip(repeat(hid), stamps, map(repr, load.tolist())))


def normalize_features(community: Community) -> np.ndarray:
    """Z-score the static socio-economic features, shape (n, len(FEATURE_COLUMNS)).

    Constant columns map to all-zeros. Column order follows FEATURE_COLUMNS.
    """
    if len(community) < 2:
        raise InsufficientPopulationError("need >= 2 households to normalize features")
    raw = community.profiles
    mean, std = raw.mean(axis=0), raw.std(axis=0)
    out = np.zeros_like(raw)
    nonconst = std > 0
    out[:, nonconst] = (raw[:, nonconst] - mean[nonconst]) / std[nonconst]
    return out


def emergency_schedule(config: ScenarioConfig, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniformly sample the emergency-day indices for one billing cycle, sorted."""
    if config.emergency_day_count > config.cycle_days:
        raise InvalidSpecError("more emergency days than cycle days")
    days = rng.choice(config.cycle_days, size=config.emergency_day_count, replace=False)
    return tuple(sorted(int(d) for d in days))
