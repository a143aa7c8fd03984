"""The build of the compiled float stages and its cache: wherever no kernel
can be had, single solves run on the Python float stages, with the same
results and no exception; where one can, the first solve compiles it,
waiting for the compiler, and no compiler outlives that wait."""
from __future__ import annotations

import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import helpers
from gammachain import chain, rk45
from gammachain.chain import ProblemSpec

PROBLEM = ("-x0*(1+x2)", "q-p", "1+x*sin(2*pi*t)", 3.5, 3, 1.0)
XI0 = np.full(5, 0.1)
LAM = 0.3


def fresh_stages():
    """stages(LAM) of PROBLEM's field expanded afresh, so that its stages
    are built now, under the environment the test set."""
    return chain.expand.__wrapped__(ProblemSpec.from_strings(*PROBLEM)).stages(LAM)


def solve(rhs, attempt):
    return rk45.solve_ivp(rhs, (0.0, 1.0), XI0, attempt=attempt)


def assert_python_stages(rhs, attempt):
    """The stages are the Python float stages, and solve as they do."""
    assert callable(attempt) and not isinstance(attempt, rk45.CompiledAttempt)
    rhs_ref, ref = fresh_stages()
    expected = solve(rhs_ref, getattr(ref, "replay", ref))
    got = solve(rhs, attempt)
    assert np.array_equal(got.t, expected.t)
    assert np.array_equal(got.y, expected.y)
    assert np.array_equal(got.K, expected.K)
    assert got.nfev == expected.nfev


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache of this test's own; the directory the build uses."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "gammachain"


@pytest.fixture
def fake_cc(tmp_path, monkeypatch):
    """Put only a ``cc`` running the given shell script on PATH."""
    def install(script):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        cc = bin_dir / "cc"
        cc.write_text(f"#!/bin/sh\nPATH=/usr/bin:/bin\n{script}\n")
        cc.chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
    return install


def cut_short_library(cache, monkeypatch):
    """PROBLEM's library compiled into the cache, never loaded by this
    process, then cut to its first 1000 bytes."""
    def not_loaded(path):
        raise OSError("not loaded")
    with monkeypatch.context() as mp:
        mp.setattr(rk45.ctypes, "CDLL", not_loaded)
        fresh_stages()
    library, = cache.iterdir()
    library.write_bytes(library.read_bytes()[:1000])
    return library


def wait_until_ended(pid):
    deadline = time.monotonic() + 10
    while running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not running(pid)


def running(pid):
    """Whether the process is alive; a zombie counts as ended."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestFallback:
    def test_no_compiler(self, cache, tmp_path, monkeypatch):
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        assert_python_stages(*fresh_stages())

    def test_compile_error(self, cache, fake_cc):
        fake_cc("exit 1")
        assert_python_stages(*fresh_stages())
        assert [p.name for p in cache.iterdir()] == []

    def test_compile_timeout(self, cache, fake_cc, tmp_path, monkeypatch):
        # the compiler's own child is killed with it
        fake_cc(f"sleep 60 & echo $! > {tmp_path / 'pid'}\nwait")
        monkeypatch.setattr(rk45, "_COMPILE_TIMEOUT_S", 0.5)
        start = time.monotonic()
        stages = fresh_stages()
        assert time.monotonic() - start < 30
        assert_python_stages(*stages)
        assert wait_until_ended(int((tmp_path / "pid").read_text()))
        assert [p.name for p in cache.iterdir()] == []

    def test_interrupted_compile(self, cache, fake_cc, tmp_path, monkeypatch):
        # an exception in the wait for the compiler, here a KeyboardInterrupt,
        # kills it with its own child, deletes what it wrote, and propagates
        pid_file = tmp_path / "pid"
        fake_cc(f"sleep 60 & echo $! > {pid_file}\nwait")
        sleep = time.sleep

        def interrupt(seconds):
            deadline = time.monotonic() + 10
            while not (pid_file.exists() and pid_file.read_text().strip()):
                assert time.monotonic() < deadline
                sleep(0.01)
            raise KeyboardInterrupt
        with monkeypatch.context() as mp:
            mp.setattr(rk45.time, "sleep", interrupt)
            with pytest.raises(KeyboardInterrupt):
                fresh_stages()
        assert wait_until_ended(int(pid_file.read_text()))
        assert [p.name for p in cache.iterdir()] == []

    def test_cache_is_a_file(self, tmp_path, monkeypatch):
        (tmp_path / "xdg").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert_python_stages(*fresh_stages())

    def test_cache_others_may_write(self, cache):
        cache.mkdir(parents=True)
        cache.chmod(0o777)
        assert_python_stages(*fresh_stages())
        assert [p.name for p in cache.iterdir()] == []

    @helpers.requires_compiler
    def test_library_others_may_write(self, cache):
        assert isinstance(fresh_stages()[1], rk45.CompiledAttempt)
        library, = cache.iterdir()
        library.chmod(0o722)
        assert_python_stages(*fresh_stages())

    @helpers.requires_compiler
    def test_truncated_library_without_a_compiler(self, cache, fake_cc, monkeypatch):
        library = cut_short_library(cache, monkeypatch)
        fake_cc("exit 1")
        assert_python_stages(*fresh_stages())
        assert library.stat().st_size == 1000


class TestCache:
    @helpers.requires_compiler
    def test_private_and_reused(self, cache, monkeypatch):
        rhs, attempt = fresh_stages()
        assert isinstance(attempt, rk45.CompiledAttempt)
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        library, = cache.iterdir()
        assert library.name.startswith("stages-") and library.suffix == ".so"
        assert not library.stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)
        # a later build loads the cached library and compiles nothing
        monkeypatch.setattr(rk45, "_compile", None)
        assert isinstance(fresh_stages()[1], rk45.CompiledAttempt)

    @helpers.requires_compiler
    def test_first_run_leaves_the_library_cached(self, cache):
        # one period map of a fresh interpreter on an empty cache compiles
        # the library, seals it into the cache and leaves no compiler
        # running; a second interpreter runs in C and compiles nothing
        first = f"""if True:
            import os, sys
            import numpy as np
            from gammachain import chain, orbit
            from gammachain.chain import ProblemSpec
            spawn, pids = os.posix_spawn, []
            os.posix_spawn = lambda *args, **kwargs: pids.append(spawn(*args, **kwargs)) or pids[-1]
            field = chain.expand(ProblemSpec.from_strings(*{PROBLEM!r}))
            orbit.period_map(field, {LAM!r}, np.full(5, 0.1))
            assert len(pids) == 1
            try:
                os.killpg(pids[0], 0)
            except ProcessLookupError:
                sys.exit(0)
            sys.exit("a compiler process remains")
            """
        second = f"""if True:
            import sys
            import numpy as np
            from gammachain import chain, orbit, rk45
            from gammachain.chain import ProblemSpec
            rk45._compile = lambda *args: sys.exit("compiled again")
            rk45._steps = lambda *args: sys.exit("solved in Python")
            field = chain.expand(ProblemSpec.from_strings(*{PROBLEM!r}))
            assert isinstance(field.stages({LAM!r})[1], rk45.CompiledAttempt)
            orbit.period_map(field, {LAM!r}, np.full(5, 0.1))
            """
        env = dict(os.environ, PYTHONPATH=str(Path(rk45.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", first], check=True, timeout=60, env=env)
        library, = cache.iterdir()
        assert library.name.startswith("stages-") and library.suffix == ".so"
        assert rk45._intact(library)
        subprocess.run([sys.executable, "-c", second], check=True, timeout=60, env=env)

    @helpers.requires_compiler
    def test_truncated_library_is_compiled_again(self, cache, monkeypatch):
        library = cut_short_library(cache, monkeypatch)
        rhs, attempt = fresh_stages()
        assert isinstance(attempt, rk45.CompiledAttempt)
        assert rk45._intact(library)
        compiled = solve(rhs, attempt)
        python = solve(rhs, attempt.replay)
        assert np.array_equal(compiled.y, python.y)

    def test_default_location(self, tmp_path, monkeypatch):
        # an unset or relative XDG_CACHE_HOME means ~/.cache
        monkeypatch.setenv("HOME", str(tmp_path))
        for value in (None, "relative/cache"):
            if value is None:
                monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
            else:
                monkeypatch.setenv("XDG_CACHE_HOME", value)
            assert rk45._cache_dir() == tmp_path / ".cache" / "gammachain"

    def test_no_home(self, tmp_path, monkeypatch):
        # "~" that cannot be expanded is no cache, not one below the
        # working directory
        import pwd

        def no_entry(uid):
            raise KeyError(uid)
        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(pwd, "getpwuid", no_entry)
        monkeypatch.chdir(tmp_path)
        assert rk45._cache_dir() is None
        assert list(tmp_path.iterdir()) == []

    @helpers.requires_compiler
    def test_pruned_to_the_most_recently_used(self, cache, monkeypatch):
        # a compile keeps the _CACHE_KEEP libraries last used, itself
        # included, and deletes temporary files a killed compile left
        monkeypatch.setattr(rk45, "_CACHE_KEEP", 3)
        cache.mkdir(parents=True, mode=0o700)
        now = time.time()
        old = [cache / f"stages-{i:064x}.so" for i in range(4)]
        for age, path in enumerate(reversed(old), start=1):
            path.write_bytes(b"")
            os.utime(path, (now - age * 60, now - age * 60))
        stale, live = cache / "tmpstale.tmp", cache / "tmplive.tmp"
        stale.write_bytes(b"")
        live.write_bytes(b"")
        os.utime(stale, (now - 2 * rk45._STALE_TMP_S, now - 2 * rk45._STALE_TMP_S))
        assert isinstance(fresh_stages()[1], rk45.CompiledAttempt)
        built = {p.name for p in cache.glob("stages-*.so")} - {p.name for p in old}
        assert len(built) == 1
        assert sorted(p.name for p in cache.iterdir()) == sorted(
            [*built, old[-1].name, old[-2].name, live.name])
