"""The loads.csv reader and writer that took one csv row at a time. They are
the references the block reader and writer in gridflex.community are tested
against."""

import csv
import math
from array import array
from datetime import datetime
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from gridflex.community import HOUR, HOURS_PER_DAY, LOAD_COLUMNS, Community
from gridflex.errors import ValidationError


def write_loads(community: Community, path: Path) -> None:
    """loads.csv through csv.writer, one row per household-hour."""
    stamps = [(community.start + k * HOUR).isoformat() for k in range(community.loads.shape[1])]
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(LOAD_COLUMNS)
        for hid, load in zip(community.ids, community.loads):
            writer.writerows(zip(repeat(hid), stamps, map(repr, load.tolist())))


def _rows(path: Path, columns: tuple[str, ...]):
    """(line number, fields of `columns`) per non-blank row of the CSV at `path`;
    a missing column or a row of the wrong width raises ValidationError."""
    with path.open(newline="", encoding="utf-8") as f:
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


def read_loads(path: Path) -> tuple[datetime | None, dict[str, int], np.ndarray]:
    """loads.csv through csv.reader, one row at a time: (start, household id ->
    row, hourly kWh of shape (households, hours)), with the same checks and
    messages as gridflex.community's reader."""
    code: dict[str, int] = {}
    hour_of: dict[str, int] = {}
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
