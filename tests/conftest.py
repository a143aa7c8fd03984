from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import helpers  # noqa: E402
from gammachain import chain, orbit  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def stage_cache(request, tmp_path_factory):
    """The compiled float stages of the suite go to a cache of its own,
    neither read from nor left in the user's: pytest's cache directory,
    so that a later run loads what an earlier one compiled, or a fresh
    temporary directory without pytest's cache."""
    cache = getattr(request.config, "cache", None)
    path = (cache.mkdir("xdg-cache") if cache is not None
            else tmp_path_factory.mktemp("xdg-cache"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(path))
        yield


@pytest.fixture(scope="session")
def example_problem():
    return helpers.example_problem()


@pytest.fixture(scope="session")
def example_field(example_problem):
    return chain.expand(example_problem)


@pytest.fixture(scope="session")
def example_traces(example_field):
    """Full branch traces from both zeros of the worked example, with the
    wall time spent tracing (consumed by the acceptance budget checks)."""
    params = orbit.ContinuationParams()
    start = time.perf_counter()
    traces = {0.0: orbit.trace_from_zero(example_field, 0.0, params),
              1.0: orbit.trace_from_zero(example_field, 1.0, params)}
    elapsed = time.perf_counter() - start
    return {"traces": traces, "elapsed": elapsed, "params": params}
