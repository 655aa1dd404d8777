"""Population data model: the community as arrays, synthetic generation, CSV ingestion."""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import compress, product
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    GridflexError,
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
    """The household population, one row per household in `ids` order. The
    arrays are taken without a copy and made read-only, so `replace` shares them."""

    ids: tuple[str, ...]
    neighborhood: tuple[str, ...]  # each household's neighborhood id
    county: tuple[str, ...]  # each household's county, one per neighborhood
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
        broken = next((i for i, hid in enumerate(self.ids) if "\n" in hid or "\r" in hid), None)
        if broken is not None:  # a CSV record of loads.csv must be one line
            raise ValidationError(f"household id {self.ids[broken]!r} holds a line break",
                                  row=broken)
        if (len(self.neighborhood), len(self.county)) != (n, n):
            raise ValidationError(f"neighborhood and county need {n} entries each")
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
            "baseline_rate must be > 0 and finite":
                (self.baseline_rate > 0) & (self.baseline_rate < math.inf),
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
        county_of: dict[str, str] = {}  # neighborhood id -> the county of its first row
        for i, (nb_id, county) in enumerate(zip(self.neighborhood, self.county)):
            if county_of.setdefault(nb_id, county) != county:
                raise ValidationError(f"neighborhood {nb_id} is in county {county}, but in "
                                      f"{county_of[nb_id]} on an earlier row", row=i)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "daily", daily_totals(self.loads))
        self.daily.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    def by_id(self, hid: str) -> Household:
        i = self.index[hid]
        return Household(hid, self.neighborhood[i], self.loads[i],
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
        if self.rng_seed < 0:
            raise InvalidSpecError(f"rng_seed must be >= 0, got {self.rng_seed}")
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


def _check_elasticity(mean, std) -> None:
    """Elasticity means (a float or an array) must be finite and negative, stds
    finite and >= 0; anything else raises InvalidSpecError."""
    mean, std = np.asarray(mean, dtype=float), np.asarray(std, dtype=float)
    if not ((-math.inf < mean) & (mean < 0)).all():
        raise InvalidSpecError(f"elasticity mean must be finite and negative, got {mean}")
    if not ((0 <= std) & (std < math.inf)).all():
        raise InvalidSpecError(f"elasticity std must be finite and >= 0, got {std}")


def sample_elasticity(rng: np.random.Generator, mean, std, size: int) -> np.ndarray:
    """`size` Gaussian elasticity draws clamped into [-5.0, -0.01], one normal
    per element; `mean` and `std` may be floats or arrays of `size`."""
    _check_elasticity(mean, std)
    return np.clip(rng.normal(mean, std, size), ELASTICITY_FLOOR, ELASTICITY_CEIL)


# Each county's base profile, median_income .. precipitation in FEATURE_COLUMNS
# order, is one uniform draw per column between these bounds.
_COUNTY_LOW = np.array([35_000.0, 2.5, 16.0, 15.0, 40.0, 0.5])
_COUNTY_HIGH = np.array([95_000.0, 12.0, 28.0, 60.0, 80.0, 6.0])
# Each household's unemployment_pct .. precipitation is its county's value plus
# a normal of these stds, clamped into these bounds.
_JITTER_STD = np.array([1.0, 2.0, 5.0, 2.0, 0.5])
_JITTER_LOW = np.array([0.0, 1.0, 0.0, -math.inf, 0.0])
_JITTER_HIGH = np.array([100.0, 36.0, 100.0, math.inf, math.inf])

_HOURS = np.arange(HOURS_PER_DAY)
# Daily double-peak consumption shape: morning and evening.
_DAY_SHAPE = (0.35 + 0.8 * np.exp(-0.5 * ((_HOURS - 7.5) / 1.8) ** 2)
              + 1.3 * np.exp(-0.5 * ((_HOURS - 19.0) / 2.5) ** 2))


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
    """Deterministically generate a synthetic community for a fixed seed.

    Every spec is checked before the first draw. One generator seeded with
    `seed` then draws, county by county, six uniforms for the county's base
    profile, and then for each of its households in id order:
    a lognormal(0, 0.25) income factor; five standard normals that jitter
    unemployment_pct .. precipitation; a uniform(700, 3500) dwelling size;
    `days` day-to-day standard normals into its row of an (n, days) array;
    `24 * days` hourly standard normals straight into its row of the loads;
    and one for the elasticity unless `elasticity_std` is 0. Profiles, loads
    and elasticities are then computed from those draws as arrays, the loads in
    place, so no buffer of normals is held beside them. Any edit to what is
    drawn, in which order or how many, moves every later value and so every
    pinned digest; so does any change to the arithmetic on the draws.
    """
    if counties < 1 or neighborhoods_per_county < 1 or households_per_neighborhood < 1:
        raise InvalidSpecError("all size counts must be >= 1")
    if days < 1:
        raise InvalidSpecError("days must be >= 1")
    if seed < 0:
        raise InvalidSpecError(f"seed must be >= 0, got {seed}")
    if not 0 < baseline_rate < math.inf:
        raise InvalidSpecError(f"baseline_rate must be finite and > 0, got {baseline_rate}")
    _check_elasticity(elasticity_mean, elasticity_std)
    homes = [(f"c{c:02d}", f"c{c:02d}-n{nb:02d}")
             for c, nb in product(range(counties), range(neighborhoods_per_county))]
    county, neighborhood, ids = zip(*[(c, nb, f"{nb}-h{h:03d}") for c, nb in homes
                                      for h in range(households_per_neighborhood)])
    per_county = neighborhoods_per_county * households_per_neighborhood
    n, hours = counties * per_county, days * HOURS_PER_DAY
    rng = np.random.default_rng(seed)
    bases = np.empty((counties, 6))
    profiles = np.empty((n, len(FEATURE_COLUMNS)))
    wiggle, loads, elasticity = np.empty((n, days)), np.empty((n, hours)), np.zeros(n)
    for ci in range(counties):
        bases[ci] = rng.uniform(_COUNTY_LOW, _COUNTY_HIGH)
        for i in range(ci * per_county, (ci + 1) * per_county):
            profiles[i, 0] = rng.lognormal(0.0, 0.25)  # income factor
            rng.standard_normal(out=profiles[i, 1:6])  # jitter of the county base
            profiles[i, 6] = rng.uniform(700, 3_500)  # dwelling_size
            rng.standard_normal(out=wiggle[i])  # day to day
            rng.standard_normal(out=loads[i])  # hourly noise
            if elasticity_std:
                rng.standard_normal(out=elasticity[i:i + 1])
    # Keep each expression's terms and their order: every pinned digest rests on
    # these bytes. rng.normal(0.0, s) computes 0.0 + s * z, rng.normal(m, s) m + s * z.
    base = np.repeat(bases, per_county, axis=0)
    income = profiles[:, 0] = np.maximum(10_000.0, base[:, 0] * profiles[:, 0])
    profiles[:, 1:6] = np.clip(base[:, 1:] + (0.0 + _JITTER_STD * profiles[:, 1:6]),
                               _JITTER_LOW, _JITTER_HIGH)
    scale = (profiles[:, 6] / 1_800.0) * (0.7 + 0.6 * np.clip(income / 120_000.0, 0.0, 1.0))
    # The loads are formed in place, a day at a time: hourly noise + wiggle * shape.
    loads *= (0.05 * scale)[:, None]
    wiggle = 1.0 + 0.1 * wiggle  # day-to-day variation
    shape = _DAY_SHAPE * scale[:, None]
    by_day = loads.reshape(n, days, HOURS_PER_DAY)
    for d in range(days):
        by_day[:, d] += wiggle[:, d, None] * shape
    np.maximum(loads, 0.0, out=loads)
    # With std 0 no normal was drawn, and the zero left in its place gives the mean.
    elasticity = float(elasticity_mean) + elasticity_std * elasticity
    np.clip(elasticity, ELASTICITY_FLOOR, ELASTICITY_CEIL, out=elasticity)
    return Community(ids, neighborhood, county, start, loads, elasticity,
                     np.full(n, baseline_rate, dtype=float), profiles)


@contextmanager
def utf8_lines(path: Path, error: type[GridflexError] = ValidationError) -> Iterator[None]:
    """Raise a UnicodeDecodeError from reading the file at `path` inside the
    block as `error`, naming the file's first line that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError:
        for line, text in enumerate(path.read_bytes().splitlines(), start=1):
            try:
                text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path.name} line {line}: byte {text[exc.start]:#04x} "
                            f"is not UTF-8") from None
        raise


def _columns(path: Path, header: list[str], columns: tuple[str, ...]) -> list[int]:
    """The position of each of `columns` in `header`; a missing one raises ValidationError."""
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValidationError(f"{path.name}: missing column(s) {', '.join(missing)}")
    return [header.index(c) for c in columns]


def _rows(path: Path, columns: tuple[str, ...]):
    """(line number, fields of `columns`) per non-blank row of the CSV at `path`;
    a missing column or a row of the wrong width raises ValidationError."""
    with utf8_lines(path), path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        pick = itemgetter(*_columns(path, header, columns))
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path.name} row {reader.line_num}: {len(row)} "
                                      f"fields, the header has {len(header)}")
            yield reader.line_num, pick(row)


def _float_or_nan(text: str) -> float:
    """float(text), or nan where float() rejects `text`."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _number(text: str, where: str, column: str) -> float:
    """`text` as a finite float; anything else raises ValidationError at `where`."""
    value = _float_or_nan(text)
    if not math.isfinite(value):
        raise ValidationError(f"{where}: {column} {text!r} is not a finite number")
    return value


# Bytes of loads.csv lines read and tokenized at once. It bounds what a load
# holds beyond its 20 bytes per row (three int32 and a float64).
_BLOCK = 1 << 16
_BLANK = frozenset(("\n", "\r\n", "\r"))  # lines csv.reader reads as empty rows


def _tokenize(lines: list[str]) -> np.ndarray:
    """The fields of CSV `lines` by csv.reader's rules, as an object array of
    (rows, fields). A quoted field left open at the end of a line runs on into
    the next line, so one row can span lines."""
    return np.loadtxt(lines, dtype=object, delimiter=",", quotechar='"', comments=None, ndmin=2)


def _runs_on(row) -> bool:
    """Whether a field of `row` holds a line end, that is, a quote was open at the end of a line."""
    return any("\n" in text or "\r" in text for text in row)


def _records(lines: list[str], width: int) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The fields of non-blank CSV `lines`, one record of `width` fields per
    line, as an object array (rows, width). The rows stop at the first line
    that is not such a record; its index and fault come second."""
    if not lines:
        return np.empty((0, width), dtype=object), None
    try:
        cells = _tokenize(lines)
        if cells.shape == (len(lines), width) and not _runs_on(cells[-1]):
            return cells, None
    except ValueError:  # rows of different widths
        pass
    k, row = next((k, row) for k, row in enumerate(_tokenize([line])[0] for line in lines)
                  if len(row) != width or _runs_on(row))
    return _records(lines[:k], width)[0], (k, "a quoted field runs past the end of its line"
                                           if _runs_on(row) else
                                           f"{len(row)} fields, the header has {width}")


def _read_loads(path: Path) -> tuple[datetime | None, dict[str, int], np.ndarray]:
    """The loads CSV as (start, household id -> row, hourly kWh of shape
    (households, hours)). Rows may come in any order, but every household must
    have one row per hour of one shared timeline. Repeats, named by their second
    and first rows, precede gaps, named by household and hour. Of several, the
    earliest hour is named, then the household whose first row comes first.
    A file with one row per cell is placed straight into the result; only a
    faulty one is sorted to name its fault.

    The file is read and checked in blocks of lines, each with one numpy
    tokenizer call; a faulty row is still the first in file order, as a
    reader taking one row at a time would name it. Each record must be one
    line: a quoted field that runs past the end of its line is rejected."""
    code: dict[str, int] = {}  # household id -> index, in order of first row
    hour_of: dict[str, int] = {}  # timestamp string -> hours after `origin`
    origin = None
    with path.open("rb") as f:  # a row per line at most; a \r\n split between reads counts 2
        most = sum(len(chunk.splitlines()) for chunk in iter(lambda: f.read(_BLOCK), b""))
    # Filled in place: arrays grown block by block left the heap fragmented. An
    # hour offset fits int32 (datetime spans 8.8e7 hours), and so do a code, a
    # line number and a cell of any file of fewer than 2**31 lines.
    index = np.int32 if most <= np.iinfo(np.int32).max else np.int64
    codes, hours, lines = (np.empty(most, index) for _ in range(3))
    kwhs = np.empty(most)
    rows = 0
    with utf8_lines(path), path.open(newline="", encoding="utf-8") as f:
        header = next(csv.reader([f.readline()]), [])
        if _runs_on(header):
            raise ValidationError(f"{path.name} row 1: a quoted field runs past the end "
                                  f"of its line")
        id_at, stamp_at, kwh_at = _columns(path, header, LOAD_COLUMNS)
        next_line = 2
        while block := f.readlines(_BLOCK):
            line = np.arange(next_line, next_line + len(block))
            next_line += len(block)
            if not _BLANK.isdisjoint(block):
                keep = [text not in _BLANK for text in block]
                block, line = list(compress(block, keep)), line[keep]
            cells, fault = _records(block, len(header))
            ids, stamps = cells[:, id_at].tolist(), cells[:, stamp_at].tolist()
            for hid in dict.fromkeys(ids):
                code.setdefault(hid, len(code))
            for stamp in [s for s in dict.fromkeys(stamps) if s not in hour_of]:  # by first row
                try:
                    when = datetime.fromisoformat(stamp)
                    origin = origin or when
                    offset = when - origin
                except (TypeError, ValueError):
                    fault = stamps.index(stamp), f"bad timestamp {stamp!r}"
                    break
                if offset % HOUR:
                    fault = stamps.index(stamp), (f"{stamp} is not a whole number of hours "
                                                  f"after {origin.isoformat()}")
                    break
                hour_of[stamp] = offset // HOUR
            texts = cells[:, kwh_at]
            try:
                kwh = texts.astype(float)
            except ValueError:  # some text is no number: find it as nan
                kwh = np.array([_float_or_nan(text) for text in texts])
            bad = np.flatnonzero(~((kwh >= 0) & (kwh < math.inf)))
            if bad.size and (fault is None or bad[0] < fault[0]):
                fault = bad[0], f"kwh {texts[bad[0]]!r} is not a finite number >= 0"
            if fault is not None:
                raise ValidationError(f"{path.name} row {line[fault[0]]}: {fault[1]}")
            end = rows + len(ids)
            codes[rows:end] = np.fromiter(map(code.__getitem__, ids), index, len(ids))
            hours[rows:end] = np.fromiter(map(hour_of.__getitem__, stamps), index, len(ids))
            lines[rows:end], kwhs[rows:end], rows = line, kwh, end
            del block, cells, ids, stamps, texts  # free this block before reading the next
    if not code:
        return None, {}, np.zeros((0, 0))
    ids, n = list(code), len(code)
    first = min(hour_of.values())
    span = max(hour_of.values()) - first + 1
    start = origin + first * HOUR
    codes, hours, lines = codes[:rows], hours[:rows], lines[:rows]
    hours -= first  # now each row's hour of the timeline, below span
    if span * n == rows:  # as many rows as cells: place each, then see that all are covered
        cell = codes  # in place, code * span + hour: household-major, below rows
        cell *= span
        cell += hours
        covered = np.zeros(rows, bool)
        covered[cell] = True
        if covered.all():  # rows values fill rows cells, so none repeats
            if span % HOURS_PER_DAY:
                raise ValidationError(f"{path.name}: {span} hourly rows per household "
                                      f"are not a whole number of days")
            del covered, hours, lines  # only a faulty file needs them
            values = np.empty((n, span))
            values.reshape(-1)[cell] = kwhs[:rows]
            return start, code, values
        cell //= span  # the codes again
    # A faulty file. Cell k is hour k // n of household k % n: sorted, the cells
    # number the timeline hour by hour.
    cell = hours.astype(np.int64) * n + codes
    cells, counts = np.unique(cell, return_counts=True)
    if cells.size < cell.size:
        twice = cells[np.argmax(counts > 1)]
        once, again = lines[cell == twice][:2]
        raise ValidationError(f"{path.name} row {again}: household {ids[twice % n]} "
                              f"repeats the hour of row {once}")
    k = np.append(np.flatnonzero(cells != np.arange(cells.size)), cells.size)[0]
    raise ValidationError(f"{path.name}: household {ids[k % n]} has no row for "
                          f"{(start + int(k // n) * HOUR).isoformat()}")


def load_community(households_csv: Path | str, loads_csv: Path | str) -> Community:
    """Build a Community from the two-file CSV schema (see README). Malformed
    input raises ValidationError or ReferentialIntegrityError naming the file
    and the row, or the household and the hour it lacks."""
    households_csv = Path(households_csv)
    start, load_row, loads = _read_loads(Path(loads_csv))
    row_of: dict[str, int] = {}  # household id -> line, in file order
    neighborhood, county, numbers = [], [], []
    for line, (hid, nb_id, county_id, *fields) in _rows(households_csv, HOUSEHOLD_COLUMNS):
        where = f"{households_csv.name} row {line}"
        if hid in row_of:
            raise ValidationError(f"{where}: household {hid} repeats row {row_of[hid]}")
        row_of[hid] = line
        if hid not in load_row:
            raise ReferentialIntegrityError(f"{where}: household {hid} has no load rows")
        numbers.append([_number(text, where, column)
                        for text, column in zip(fields, HOUSEHOLD_COLUMNS[3:])])
        neighborhood.append(nb_id)
        county.append(county_id)
    orphans = load_row.keys() - row_of.keys()
    if orphans:
        raise ReferentialIntegrityError(f"load rows for unknown households: {sorted(orphans)}")
    ids = tuple(row_of)
    rows = [load_row[hid] for hid in ids]
    table = np.array(numbers, dtype=float).reshape(len(ids), len(HOUSEHOLD_COLUMNS) - 3)
    try:
        return Community(ids, tuple(neighborhood), tuple(county), start,
                         loads if rows == list(range(len(ids))) else loads[rows],
                         *map(np.ascontiguousarray, (table[:, 1], table[:, 0], table[:, 2:])))
    except ValidationError as exc:  # a household's value: name its row of the file
        if exc.row is None:
            raise
        raise ValidationError(f"{households_csv.name} row {row_of[ids[exc.row]]}: {exc}") from None


def _csv_cell(text: str) -> str:
    """`text` as csv.writer writes it in a row of several fields: in quotes,
    its quotes doubled, when it holds a comma, a quote or a line end."""
    row = io.StringIO()
    csv.writer(row).writerow((text, ""))
    return row.getvalue()[:-len(",\r\n")]


def save_community(
    community: Community, households_csv: Path | str, loads_csv: Path | str
) -> None:
    """Write the two-file CSV schema read back by load_community."""
    numbers = np.column_stack([community.baseline_rate, community.elasticity, community.profiles])
    with Path(households_csv).open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(HOUSEHOLD_COLUMNS)
        writer.writerows([*texts, *map(repr, row)] for *texts, row in zip(
            community.ids, community.neighborhood, community.county, numbers.tolist()))
    stamps = [(community.start + k * HOUR).isoformat() for k in range(community.loads.shape[1])]
    with Path(loads_csv).open("w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(LOAD_COLUMNS)
        for hid, load in zip(community.ids, community.loads):
            cell = _csv_cell(hid)
            f.write("".join([f"{cell},{stamp},{kwh!r}\r\n"
                             for stamp, kwh in zip(stamps, load.tolist())]))


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
