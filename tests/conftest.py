import os

# One BLAS thread per matmul, whatever the environment says, before a test
# module loads numpy: training then runs one sample per CPU, as under the CLI,
# and the pinned digests do not depend on how BLAS splits a matmul.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import threading  # noqa: E402
from datetime import datetime  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from gridflex.community import FEATURE_COLUMNS, Community, Household  # noqa: E402

START = datetime(2014, 9, 1)


def profile(**overrides) -> np.ndarray:
    """Socio-economic features in FEATURE_COLUMNS order."""
    base = dict(
        median_income=60_000.0,
        unemployment_pct=5.0,
        act_score=21.0,
        college_pct=30.0,
        avg_temperature=65.0,
        precipitation=2.0,
        dwelling_size=1_800.0,
    )
    base.update(overrides)
    return np.array([base[c] for c in FEATURE_COLUMNS])


def flat_load(kwh_per_day: float, days: int) -> np.ndarray:
    return np.full(days * 24, kwh_per_day / 24.0)


def household(
    hid: str = "h0",
    kwh_per_day: float = 30.0,
    days: int = 30,
    elasticity: float = -0.25,
    baseline_rate: float = 0.16,
    neighborhood_id: str = "n0",
    load: np.ndarray | None = None,
    **profile_overrides,
) -> Household:
    return Household(
        id=hid,
        neighborhood_id=neighborhood_id,
        load=load if load is not None else flat_load(kwh_per_day, days),
        elasticity=elasticity,
        baseline_rate=baseline_rate,
        profile=profile(**profile_overrides),
    )


def community_of(households: list[Household]) -> Community:
    """The Community whose rows are `households`, in order, from START, every
    neighborhood in county "na"."""
    return Community(
        tuple(h.id for h in households),
        tuple(h.neighborhood_id for h in households),
        ("na",) * len(households),
        START,
        np.array([h.load for h in households]),
        np.array([h.elasticity for h in households]),
        np.array([h.baseline_rate for h in households]),
        np.array([h.profile for h in households]),
    )


@pytest.fixture
def standard_household() -> Household:
    """30 kWh/day over a 30-day cycle, rate 0.16, elasticity -0.25."""
    return household()


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a non-daemon thread alive, such as a worker pool
    that was never shut down."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before and not t.daemon]
    assert not leaked, f"threads left alive: {leaked}"
