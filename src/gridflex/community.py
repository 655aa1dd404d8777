"""Population data model: households, neighborhoods, synthetic generation, CSV ingestion."""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import repeat
from operator import itemgetter
from pathlib import Path

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


@dataclass(frozen=True)
class SocioEconomicProfile:
    median_income: float  # dollars / year
    unemployment_pct: float  # [0, 100]
    act_score: float  # [1, 36]
    college_pct: float  # [0, 100]
    avg_temperature: float  # degrees F
    precipitation: float  # inches / month
    dwelling_size: float  # square feet

    def __post_init__(self):
        for name in ("unemployment_pct", "college_pct"):
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ValidationError(f"{name}={v} outside [0, 100]")
        if not 1.0 <= self.act_score <= 36.0:
            raise ValidationError(f"act_score={self.act_score} outside [1, 36]")
        if self.dwelling_size <= 0:
            raise ValidationError(f"dwelling_size={self.dwelling_size} must be > 0")

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, c) for c in FEATURE_COLUMNS], dtype=float)


@dataclass(frozen=True)
class LoadSeries:
    """Hourly kWh consumption starting at `start` (hour resolution)."""

    start: datetime
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0 or vals.size % HOURS_PER_DAY != 0:
            raise ValidationError(
                f"load series length {vals.size} is not a positive multiple of 24"
            )
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValidationError("load series values must be finite and >= 0")

    @property
    def n_days(self) -> int:
        return self.values.size // HOURS_PER_DAY

    def daily_totals(self) -> np.ndarray:
        """Total kWh per day, shape (n_days,)."""
        return self.values.reshape(self.n_days, HOURS_PER_DAY).sum(axis=1)


@dataclass(frozen=True)
class Household:
    id: str
    neighborhood_id: str
    load: LoadSeries
    elasticity: float  # price elasticity of demand, strictly negative
    baseline_rate: float  # dollars / kWh
    profile: SocioEconomicProfile

    def __post_init__(self):
        if self.elasticity >= 0:
            raise ValidationError(f"elasticity must be negative, got {self.elasticity}")
        if self.baseline_rate <= 0:
            raise ValidationError(f"baseline_rate must be > 0, got {self.baseline_rate}")


@dataclass(frozen=True)
class Community:
    households: tuple[Household, ...]
    neighborhoods: dict[str, tuple[str, ...]]  # neighborhood id -> member household ids
    counties: dict[str, tuple[str, ...]] = field(default_factory=dict)  # county -> neighborhood ids
    # Built once from `households`; row i is households[i].
    daily: np.ndarray = field(init=False, repr=False, compare=False)  # kWh per day, (n, days)
    elasticity: np.ndarray = field(init=False, repr=False, compare=False)  # (n,)
    baseline_rate: np.ndarray = field(init=False, repr=False, compare=False)  # (n,)
    index: dict[str, int] = field(init=False, repr=False, compare=False)  # id -> row

    def __post_init__(self):
        ids = [h.id for h in self.households]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate household ids")
        members: list[str] = []
        for nid, nb in self.neighborhoods.items():
            members.extend(nb)
        if sorted(members) != sorted(ids):
            raise ValidationError("neighborhoods do not partition the household set")
        for h in self.households:
            if h.neighborhood_id not in self.neighborhoods:
                raise ReferentialIntegrityError(
                    f"household {h.id} references unknown neighborhood {h.neighborhood_id}"
                )
            if h.id not in self.neighborhoods[h.neighborhood_id]:
                raise ValidationError(
                    f"household {h.id} missing from its neighborhood {h.neighborhood_id}"
                )
        days = {h.load.n_days for h in self.households}
        if len(days) > 1:
            raise ValidationError(f"households cover different numbers of days: {sorted(days)}")
        hs = self.households
        for name, value in (
            ("daily", np.array([h.load.daily_totals() for h in hs]).reshape(len(hs), *days or {0})),
            ("elasticity", np.array([h.elasticity for h in hs], dtype=float)),
            ("baseline_rate", np.array([h.baseline_rate for h in hs], dtype=float)),
        ):
            value.flags.writeable = False  # shared by every reader
            object.__setattr__(self, name, value)
        object.__setattr__(self, "index", {hid: i for i, hid in enumerate(ids)})

    def __len__(self) -> int:
        return len(self.households)

    def by_id(self, hid: str) -> Household:
        return self.households[self.index[hid]]

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
        if not 0 <= self.emergency_day_count <= self.cycle_days:
            raise InvalidSpecError("emergency day count exceeds cycle length")
        if not 0 < self.target_reduction_pct < 100:
            raise InvalidSpecError("target_reduction_pct must lie in (0, 100)")
        if self.elasticity_mean >= 0:
            raise InvalidSpecError("elasticity_mean must be negative")
        if any(r <= 0 for r in self.split_ratios) or abs(sum(self.split_ratios) - 1) > 1e-9:
            raise InvalidSpecError("split_ratios must be positive and sum to 1")


def sample_elasticity(rng: np.random.Generator, mean: float, std: float) -> float:
    """One Gaussian elasticity draw, clamped into [-5.0, -0.01]."""
    if mean >= 0:
        raise InvalidSpecError(f"elasticity mean must be negative, got {mean}")
    if std < 0:
        raise InvalidSpecError(f"elasticity std must be >= 0, got {std}")
    draw = mean if std == 0 else rng.normal(mean, std)
    return float(np.clip(draw, ELASTICITY_FLOOR, ELASTICITY_CEIL))


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


def _sample_profile(rng: np.random.Generator, base: dict[str, float]) -> SocioEconomicProfile:
    return SocioEconomicProfile(
        median_income=max(10_000.0, base["median_income"] * rng.lognormal(0.0, 0.25)),
        unemployment_pct=float(np.clip(base["unemployment_pct"] + rng.normal(0, 1.0), 0, 100)),
        act_score=float(np.clip(base["act_score"] + rng.normal(0, 2.0), 1, 36)),
        college_pct=float(np.clip(base["college_pct"] + rng.normal(0, 5.0), 0, 100)),
        avg_temperature=base["avg_temperature"] + rng.normal(0, 2.0),
        precipitation=max(0.0, base["precipitation"] + rng.normal(0, 0.5)),
        dwelling_size=float(rng.uniform(700, 3_500)),
    )


def _synthetic_load(
    rng: np.random.Generator,
    days: int,
    profile: SocioEconomicProfile,
    income_percentile: float,
) -> np.ndarray:
    """Daily double-peak shape scaled by dwelling size and income, plus seeded noise."""
    hours = np.arange(HOURS_PER_DAY)
    morning = np.exp(-0.5 * ((hours - 7.5) / 1.8) ** 2)
    evening = np.exp(-0.5 * ((hours - 19.0) / 2.5) ** 2)
    base_shape = 0.35 + 0.8 * morning + 1.3 * evening
    scale = (profile.dwelling_size / 1_800.0) * (0.7 + 0.6 * income_percentile)
    day_wiggle = 1.0 + 0.1 * rng.normal(size=days)  # day-to-day variation
    series = np.concatenate([base_shape * scale * w for w in day_wiggle])
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
    households: list[Household] = []
    neighborhoods: dict[str, tuple[str, ...]] = {}
    county_map: dict[str, tuple[str, ...]] = {}
    for ci in range(counties):
        county_id = f"c{ci:02d}"
        base = _county_profile_base(rng)
        county_nbs: list[str] = []
        for ni in range(neighborhoods_per_county):
            nb_id = f"{county_id}-n{ni:02d}"
            county_nbs.append(nb_id)
            member_ids: list[str] = []
            for hi in range(households_per_neighborhood):
                hid = f"{nb_id}-h{hi:03d}"
                member_ids.append(hid)
                profile = _sample_profile(rng, base)
                income_pctile = float(np.clip(profile.median_income / 120_000.0, 0.0, 1.0))
                load = LoadSeries(start, _synthetic_load(rng, days, profile, income_pctile))
                households.append(
                    Household(
                        id=hid,
                        neighborhood_id=nb_id,
                        load=load,
                        elasticity=sample_elasticity(rng, elasticity_mean, elasticity_std),
                        baseline_rate=baseline_rate,
                        profile=profile,
                    )
                )
            neighborhoods[nb_id] = tuple(member_ids)
        county_map[county_id] = tuple(county_nbs)
    return Community(tuple(households), neighborhoods, county_map)


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


def _read_loads(path: Path) -> dict[str, LoadSeries]:
    """Each household's load from the loads CSV. Rows may come in any order, but
    every household must have one row per hour of one shared timeline."""
    code: dict[str, int] = {}  # household id -> index, in order of first row
    hour_of: dict[str, int] = {}  # timestamp string -> hours after `origin`
    origin = None
    codes, hours, kwhs, lines = [], [], [], []
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
        return {}
    ids = list(code)

    def lacks(j: int, hour: int) -> ValidationError:
        return ValidationError(f"{path.name}: household {ids[j]} has no row for "
                               f"{(origin + int(hour) * HOUR).isoformat()}")

    order = np.lexsort((hours, codes))  # by household, then hour; stable
    household, hour = np.array(codes)[order], np.array(hours)[order]
    same = household[1:] == household[:-1]
    step = hour[1:] - hour[:-1]
    repeats = np.flatnonzero(same & (step == 0))
    if repeats.size:
        i = repeats[0]
        raise ValidationError(f"{path.name} row {lines[order[i + 1]]}: household "
                              f"{ids[household[i]]} repeats the hour of row {lines[order[i]]}")
    gaps = np.flatnonzero(same & (step > 1))
    if gaps.size:
        raise lacks(household[gaps[0]], hour[gaps[0]] + 1)
    # Each household's hours are now contiguous; all must match the first's.
    # Of a pair that differs, the one that lacks the earliest hour is named.
    first = np.flatnonzero(np.r_[True, ~same])
    starts, counts = hour[first], np.diff(np.r_[first, hour.size])
    ends = starts + counts
    odd = np.flatnonzero((starts != starts[0]) | (counts != counts[0]))
    if odd.size:
        j = odd[0]
        if starts[j] != starts[0]:
            raise lacks(j if starts[j] > starts[0] else 0, min(starts[j], starts[0]))
        raise lacks(j if ends[j] < ends[0] else 0, min(ends[j], ends[0]))
    if counts[0] % HOURS_PER_DAY:
        raise ValidationError(f"{path.name}: {counts[0]} hourly rows per household "
                              f"are not a whole number of days")
    start = origin + int(starts[0]) * HOUR
    values = np.array(kwhs)[order].reshape(len(ids), counts[0])
    return {h: LoadSeries(start, v) for h, v in zip(ids, values)}


def load_community(households_csv: Path | str, loads_csv: Path | str) -> Community:
    """Build a Community from the two-file CSV schema (see README). Malformed
    input raises ValidationError or ReferentialIntegrityError naming the file
    and the row, or the household and the hour it lacks."""
    households_csv = Path(households_csv)
    loads = _read_loads(Path(loads_csv))
    households: list[Household] = []
    neighborhoods: dict[str, list[str]] = {}
    counties: dict[str, set[str]] = {}
    row_of: dict[str, int] = {}
    for line, (hid, nb_id, county, *numbers) in _rows(households_csv, HOUSEHOLD_COLUMNS):
        where = f"{households_csv.name} row {line}"
        if hid in row_of:
            raise ValidationError(f"{where}: household {hid} repeats row {row_of[hid]}")
        row_of[hid] = line
        if hid not in loads:
            raise ReferentialIntegrityError(f"{where}: household {hid} has no load rows")
        rate, elasticity, *features = (_number(text, where, column) for text, column
                                       in zip(numbers, HOUSEHOLD_COLUMNS[3:]))
        try:
            profile = SocioEconomicProfile(**dict(zip(FEATURE_COLUMNS, features)))
            households.append(Household(hid, nb_id, loads[hid], elasticity, rate, profile))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        neighborhoods.setdefault(nb_id, []).append(hid)
        counties.setdefault(county, set()).add(nb_id)
    orphans = loads.keys() - row_of.keys()
    if orphans:
        raise ReferentialIntegrityError(f"load rows for unknown households: {sorted(orphans)}")
    return Community(
        tuple(households),
        {k: tuple(v) for k, v in neighborhoods.items()},
        {k: tuple(sorted(v)) for k, v in counties.items()},
    )


def save_community(
    community: Community, households_csv: Path | str, loads_csv: Path | str
) -> None:
    """Write the two-file CSV schema read back by load_community."""
    county_of = {
        nb: county for county, nbs in community.counties.items() for nb in nbs
    }
    with Path(households_csv).open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(HOUSEHOLD_COLUMNS)
        for h in community.households:
            writer.writerow(
                [h.id, h.neighborhood_id, county_of.get(h.neighborhood_id, "na"),
                 repr(h.baseline_rate), repr(h.elasticity)]
                + [repr(float(v)) for v in h.profile.as_vector()]
            )
    stamps: dict[tuple[datetime, int], list[str]] = {}  # (start, hours) -> timestamps
    with Path(loads_csv).open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(LOAD_COLUMNS)
        for h in community.households:
            start, size = h.load.start, h.load.values.size
            if (start, size) not in stamps:
                stamps[start, size] = [(start + k * HOUR).isoformat() for k in range(size)]
            writer.writerows(zip(repeat(h.id), stamps[start, size],
                                 map(repr, h.load.values.tolist())))


def normalize_features(community: Community) -> np.ndarray:
    """Z-score the static socio-economic features, shape (n, len(FEATURE_COLUMNS)).

    Constant columns map to all-zeros. Column order follows FEATURE_COLUMNS.
    """
    if len(community) < 2:
        raise InsufficientPopulationError("need >= 2 households to normalize features")
    raw = np.stack([h.profile.as_vector() for h in community.households])
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
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
