"""The synthetic generator that built each household's profile, load and
elasticity one at a time in Python. It is the reference the array generator
in gridflex.community is tested against: both must give the same bytes."""

from datetime import datetime

import numpy as np

from gridflex.community import (
    ELASTICITY_CEIL,
    ELASTICITY_FLOOR,
    FEATURE_COLUMNS,
    HOURS_PER_DAY,
    Community,
)


def sample_elasticity_one(rng: np.random.Generator, mean: float, std: float) -> float:
    """One Gaussian elasticity draw clamped into [-5.0, -0.01]; std 0 gives
    the mean and takes nothing from `rng`."""
    draw = mean if std == 0 else rng.normal(mean, std)
    return float(min(max(draw, ELASTICITY_FLOOR), ELASTICITY_CEIL))


def _county_profile_base(rng: np.random.Generator) -> dict[str, float]:
    return {
        "median_income": rng.uniform(35_000, 95_000),
        "unemployment_pct": rng.uniform(2.5, 12.0),
        "act_score": rng.uniform(16.0, 28.0),
        "college_pct": rng.uniform(15.0, 60.0),
        "avg_temperature": rng.uniform(40.0, 80.0),
        "precipitation": rng.uniform(0.5, 6.0),
    }


def _sample_profile(rng: np.random.Generator, base: dict[str, float]) -> tuple[float, ...]:
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
_DAY_SHAPE = (0.35 + 0.8 * np.exp(-0.5 * ((_HOURS - 7.5) / 1.8) ** 2)
              + 1.3 * np.exp(-0.5 * ((_HOURS - 19.0) / 2.5) ** 2))


def _synthetic_load(rng: np.random.Generator, days: int, dwelling_size: float,
                    income_percentile: float) -> np.ndarray:
    scale = (dwelling_size / 1_800.0) * (0.7 + 0.6 * income_percentile)
    day_wiggle = 1.0 + 0.1 * rng.normal(size=days)
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
    """gridflex.community.generate_community, one household at a time."""
    rng = np.random.default_rng(seed)
    n = counties * neighborhoods_per_county * households_per_neighborhood
    loads = np.empty((n, days * HOURS_PER_DAY))
    profiles = np.empty((n, len(FEATURE_COLUMNS)))
    elasticity = np.empty(n)
    ids, neighborhood, county = [], [], []
    for ci in range(counties):
        county_id = f"c{ci:02d}"
        base = _county_profile_base(rng)
        for ni in range(neighborhoods_per_county):
            nb_id = f"{county_id}-n{ni:02d}"
            for hi in range(households_per_neighborhood):
                i = len(ids)
                profiles[i] = profile = _sample_profile(rng, base)
                income_pctile = min(max(profile[0] / 120_000.0, 0.0), 1.0)
                loads[i] = _synthetic_load(rng, days, profile[-1], income_pctile)
                elasticity[i] = sample_elasticity_one(rng, elasticity_mean, elasticity_std)
                ids.append(f"{nb_id}-h{hi:03d}")
                neighborhood.append(nb_id)
                county.append(county_id)
    return Community(tuple(ids), tuple(neighborhood), tuple(county), start, loads, elasticity,
                     np.full(n, baseline_rate, dtype=float), profiles)
