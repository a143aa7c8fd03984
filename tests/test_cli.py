from __future__ import annotations

import collections
import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import helpers
from gammachain import (analysis, certify, chain, cli, expr, kernel, oracle, orbit,
                        rk45)
from gammachain.cli import (ConfigError, SchemaError, cmd_analyze, cmd_branch,
                            cmd_verify, load_config, main, read_branch_csv,
                            write_branch_csv)

EXAMPLE_CONFIG = {
    "problem": {"g": "-x0*(1+x2)", "phi": "q-p", "f": "1+x*sin(2*pi*t)",
                "a": 2.0, "b": 2, "T": 1.0},
    "interval": {"alpha": -0.5, "beta": 1.5, "grid_n": 200},
}

SHORT_BRANCH_CONFIG = {
    **EXAMPLE_CONFIG,
    "continuation": {"lambda_max": 0.03, "max_steps": 25},
    "certify": {"radius": 0.1},
}

RESONANT_CONFIG = {
    "problem": {"g": "-x0", "phi": "0*p", "f": "sin(t)",
                "a": 1.0, "b": 1, "T": 2 * math.pi},
    "interval": {"alpha": -0.5, "beta": 0.5, "grid_n": 100},
}


def write_config(tmp_path: Path, doc: dict, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadConfig:
    def test_example_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, EXAMPLE_CONFIG))
        assert cfg.problem.kernel.b == 2
        assert cfg.alpha == -0.5 and cfg.beta == 1.5 and cfg.grid_n == 200
        assert cfg.continuation.lambda_max == 1.0

    def test_rejects_zero_shape(self, tmp_path):
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["problem"]["b"] = 0
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_rejects_zero_period(self, tmp_path):
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["problem"]["T"] = 0.0
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_rejects_unknown_keys_with_path(self, tmp_path):
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["problem"]["zeta"] = 1
        with pytest.raises(ConfigError, match="problem"):
            load_config(write_config(tmp_path, doc))
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["plotting"] = {}
        with pytest.raises(ConfigError, match="top level"):
            load_config(write_config(tmp_path, doc))

    def test_rejects_bad_expression(self, tmp_path):
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["problem"]["g"] = "x0 +* 1"
        with pytest.raises(ConfigError, match="problem"):
            load_config(write_config(tmp_path, doc))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, kind):
        if kind == "directory":
            path = tmp_path / "config.json"
            path.mkdir()
        else:
            path = tmp_path / "latin1.json"
            path.write_bytes(b'{"problem": "\xff"}')
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(path)
        assert main(["analyze", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config")

    def test_rejects_bool_as_number(self, tmp_path):
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["problem"]["a"] = True
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("section,key,value", [
        ("certify", "radius", math.inf),
        ("continuation", "max_steps", 10.5),
        ("continuation", "lambda_max", math.nan),
        ("continuation", "newton_tol", 0),
        # integers beyond the float range, on which math.isfinite raises
        # OverflowError
        *(pytest.param(section, key, 10**400, id=f"{section}-{key}-10^400")
          for section, key in (("problem", "T"), ("continuation", "lambda_max"),
                               ("certify", "radius"))),
    ])
    def test_rejects_nonfinite_or_mistyped_numbers(self, tmp_path, capsys,
                                                   section, key, value):
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc.setdefault(section, {})[key] = value
        path = write_config(tmp_path, doc)  # json writes Infinity / NaN
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["analyze", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: " + section)
        # a 401-digit value is shown by its first 40 characters and its length
        assert max(map(len, err.splitlines())) <= 130

    @pytest.mark.parametrize("section,key,value,message", [
        ("problem", "T", "x", "problem.T: expected a finite number, got 'x'"),
        ("continuation", "lambda_max", "x",
         "continuation.lambda_max: expected a finite number, got 'x'"),
        ("continuation", "max_steps", 1.5, "continuation.max_steps: expected an integer, got 1.5"),
        ("continuation", "min_step", 0.5,
         "continuation: need 0 < min_step <= initial_step <= max_step"),
    ])
    def test_a_bad_value_reads_alike_in_every_section(self, tmp_path, section, key, value,
                                                      message):
        # a continuation key's own failure is worded as _number's and
        # _integer's, section.key first; a failure of several keys names
        # the section
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [10**400, sys.maxsize + 1], ids=["10^400", "maxsize+1"])
    @pytest.mark.parametrize("section,key", [("problem", "b"), ("interval", "grid_n"),
                                             ("certify", "grid_per_axis")])
    def test_rejects_integers_beyond_an_index(self, tmp_path, capsys, section, key, value):
        # an integer no array index holds is a config error, not NumPy's
        # "Maximum allowed size exceeded" on the way
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc.setdefault(section, {})[key] = value
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"{section}.{key}: must be at most"):
            load_config(path)
        assert main(["analyze", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {section}.{key}")

    def test_oversized_integer_literal_is_a_config_error(self, tmp_path, capsys):
        # json's int() refuses more than 4300 digits by default
        text = json.dumps(EXAMPLE_CONFIG).replace('"T": 1.0', '"T": 1' + "0" * 5000)
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["analyze", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("section,value", [
        ("problem", 3),
        ("problem", ["g", "phi", "f", "a", "b", "T"]),
        ("continuation", 5),
        ("certify", None),
    ], ids=["problem-number", "problem-list", "continuation-number",
            "certify-null"])
    def test_rejects_section_that_is_not_an_object(self, tmp_path, capsys,
                                                    section, value):
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc[section] = value
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"{section}: expected an object"):
            load_config(path)
        assert main(["analyze", "--config", str(path)]) == 1
        assert "config error: " + section in capsys.readouterr().err


class TestAnalyze:
    def test_example_report(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SHORT_BRANCH_CONFIG))
        doc = cmd_analyze(cfg)
        zeros = [z["u"] for z in doc["degree"]["zeros"]]
        assert zeros == pytest.approx([0.0, 1.0], abs=1e-10)
        assert doc["degree"]["deg_phi"] == 0 and doc["degree"]["deg_G"] == 0
        assert doc["multiplicity"]["n"] == 2

    def test_determinants_beyond_float_range(self, tmp_path, capsys):
        # at a = b = 145, a^b = 145^145 overflows a float: the two
        # determinants are reported as strings and the degree is read from
        # their signs
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["problem"].update(a=145.0, b=145)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["analyze", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "analysis.json").read_text())
        assert report["degree"]["deg_phi"] == 0 and report["degree"]["deg_G"] == 0
        assert report["multiplicity"]["n"] == 0
        dets = [(z["det_fd"], z["det_formula"]) for z in report["degree"]["zeros"]]
        assert [d[:8] for pair in dets for d in pair] == ["-2.50242"] * 2 + ["2.502420"] * 2
        assert all(d.endswith("e+313") for pair in dets for d in pair)

    def test_exit_codes(self, tmp_path, capsys):
        path = write_config(tmp_path, EXAMPLE_CONFIG)
        assert main(["analyze", "--config", str(path)]) == 0
        capsys.readouterr()

        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["interval"]["alpha"] = 0.0  # Phi(0) = 0: inadmissible
        assert main(["analyze", "--config",
                     str(write_config(tmp_path, doc, "inadm.json"))]) == 2

        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["problem"]["b"] = 0
        assert main(["analyze", "--config",
                     str(write_config(tmp_path, doc, "bad.json"))]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("g", [
        "(" * 400 + "x0" + ")" * 400,
        "-" * 1200 + "x0",
        # parses, but deeper than expr.MAX_DEPTH
        "-x0*(1+x2)" + "+0.001*x0" * 3000,
        # within expr.MAX_DEPTH, but its Python source nests 251 pairs of
        # parentheses, past CPython's 200
        "-" * 250 + "x0*(1+x2)",
    ], ids=["parentheses", "minuses", "sum3000", "minuses250"])
    def test_over_deep_expression_exits_config(self, tmp_path, capsys, g):
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["problem"]["g"] = g
        path = write_config(tmp_path, doc)
        for command in ("analyze", "branch"):
            assert main([command, "--config", str(path), "--out",
                         str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(
                "config error: problem: an expression is nested too deeply")
            assert "Traceback" not in err

    def test_derivative_nested_too_deeply_exits_0(self, tmp_path, capsys):
        # g nests 3 pairs of parentheses, but its symbolic derivative more
        # than expr.MAX_NESTING: Phi' falls back to finite differences
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["problem"]["g"] = "-x0*(1+x2)" + "*(1+0.0001*x0)" * 150
        path = write_config(tmp_path, doc)
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("compiler", [
        pytest.param(True, marks=helpers.requires_compiler), False], ids=["cc", "no-cc"])
    def test_deepest_nesting_runs_every_command(self, tmp_path, monkeypatch, capsys,
                                                compiler):
        # the example's own g, phi and f written expr.MAX_NESTING pairs of
        # parentheses deep: phi's and f's are the deepest sources of every
        # writer, two pairs more in the rhs of the Python float stages.
        # One pair more is refused
        n = expr.MAX_NESTING
        doc = json.loads(json.dumps(SHORT_BRANCH_CONFIG))
        doc["problem"].update(g="-" * (n - 1) + "x0*(1+x2)", phi="-" * (n - 2) + "(1*(q-p))",
                              f="-" * (n - 4) + "(1+x*sin(2*pi*t))")
        p = load_config(write_config(tmp_path, doc)).problem
        assert [chain._nesting(tree) for tree in (p.g, p.phi, p.f)] == [n, n, n]
        if not compiler:
            (tmp_path / "empty").mkdir()
            monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        chain.expand.cache_clear()
        try:
            for name, deep in (("deep", doc), ("example", SHORT_BRANCH_CONFIG)):
                path = write_config(tmp_path, deep, f"{name}.json")
                out = tmp_path / name
                assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
                assert main(["branch", "--config", str(path), "--out", str(out),
                             "--seed-zero", "0"]) == 0
                assert main(["verify", str(out / "branch_0.csv"), "--config", str(path),
                             "--out", str(out)]) == 0
        finally:
            chain.expand.cache_clear()
        for name in ("analysis.json", "branch_0.csv", "verify.json"):
            assert (tmp_path / "deep" / name).read_bytes() == \
                (tmp_path / "example" / name).read_bytes()
        capsys.readouterr()
        for key in ("g", "phi", "f"):
            deeper = json.loads(json.dumps(doc))
            deeper["problem"][key] = "-" + doc["problem"][key]
            path = write_config(tmp_path, deeper, "deeper.json")
            assert main(["analyze", "--config", str(path)]) == 1
            assert capsys.readouterr().err.startswith(
                "config error: problem: an expression is nested too deeply: "
                f"{key} has {n + 1} nested parentheses, more than {n}")

    def test_sum_of_500_terms_exits_0(self, tmp_path, capsys):
        # 503 levels, within expr.MAX_DEPTH; the problem hashes without a
        # walk.  Its Phi = -u (u + 0.5) vanishes at the example's alpha
        doc = json.loads(json.dumps(SHORT_BRANCH_CONFIG))
        doc["problem"]["g"] = "-x0*(1+x2)" + "+0.001*x0" * 500
        doc["interval"]["alpha"] = -0.3
        path = write_config(tmp_path, doc)
        for command in ("analyze", "branch"):
            assert main([command, "--config", str(path), "--out",
                         str(tmp_path / "out")]) == 0
        capsys.readouterr()

    def test_degenerate_zero_exits_numerical(self, tmp_path, capsys):
        cases = [
            # Phi(u) = u^2: degenerate zero
            ("x0^2 + 0*x2", {"alpha": -1.0, "beta": 1.0, "grid_n": 100}),
            # Phi(u) = sqrt(u) - 1 + u is undefined for u < 0
            ("x0^0.5 - 1 - x2", EXAMPLE_CONFIG["interval"]),
        ]
        for g, interval in cases:
            doc = json.loads(json.dumps(EXAMPLE_CONFIG))
            doc["problem"]["g"] = g
            doc["interval"] = interval
            path = str(write_config(tmp_path, doc))
            assert main(["analyze", "--config", path]) == 3
            assert "numerical error: " in capsys.readouterr().err
        # branch scans Phi before tracing, so the math-domain case fails there too
        assert main(["branch", "--config", path,
                     "--out", str(tmp_path / "out")]) == 3
        assert "numerical error: " in capsys.readouterr().err

    def test_pole_in_certification_box_exits_numerical(self, tmp_path, capsys):
        # the pole x2 = 0.1 is a grid point of the box around zero u = 0
        doc = json.loads(json.dumps(SHORT_BRANCH_CONFIG))
        doc["problem"]["g"] = "-x0*(1+x2) + x1/(x2 - 0.1)"
        assert main(["analyze", "--config",
                     str(write_config(tmp_path, doc))]) == 3
        capsys.readouterr()

    def test_pole_next_to_zero_exits_numerical(self, tmp_path, capsys):
        # Phi(u) = -u - 1e6; the pole x1 = 1e-6 is one finite-difference
        # step from the lifted zero u = -1e6
        doc = {"problem": {"g": "-x0 + 1/(x1 - 0.000001)", "phi": "q-p",
                           "f": "sin(2*pi*t)", "a": 2, "b": 2, "T": 1},
               "interval": {"alpha": -2e6, "beta": 0, "grid_n": 200}}
        path = str(write_config(tmp_path, doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "numerical error: non-finite Jacobian at state" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_scans_phi_once(self, tmp_path, monkeypatch):
        scans, reports = [], {}
        scan_zeros = analysis.scan_zeros
        degree_G = analysis.degree_G
        multiplicity_report = certify.multiplicity_report

        def counted_scan(*args, **kwargs):
            scans.append(args)
            return scan_zeros(*args, **kwargs)

        def kept_degree(*args, **kwargs):
            reports["degree"] = degree_G(*args, **kwargs)
            return reports["degree"]

        def kept_multiplicity(*args, **kwargs):
            reports["multiplicity"] = multiplicity_report(*args, **kwargs)
            return reports["multiplicity"]

        monkeypatch.setattr(analysis, "scan_zeros", counted_scan)
        monkeypatch.setattr(analysis, "degree_G", kept_degree)
        monkeypatch.setattr(certify, "multiplicity_report", kept_multiplicity)
        cfg = load_config(write_config(tmp_path, SHORT_BRANCH_CONFIG))
        doc = cmd_analyze(cfg)
        assert len(scans) == 1
        degree, mult = reports["degree"], reports["multiplicity"]
        assert len(mult.certified_zeros) == len(degree.zeros) == 2
        for cert, zero in zip(mult.certified_zeros, degree.zeros):
            assert cert.zero is zero
        assert doc["multiplicity"]["n"] == 2

    def test_empty_interval_exits_zero(self, tmp_path, capsys):
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["interval"] = {"alpha": 0.25, "beta": 0.75, "grid_n": 100}
        assert main(["analyze", "--config",
                     str(write_config(tmp_path, doc))]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["degree"]["zeros"] == []
        assert out["multiplicity"]["n"] == 0

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_config(tmp_path, EXAMPLE_CONFIG)
        assert main(["analyze", "--config", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "--config", str(path)]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_writes_output_file(self, tmp_path, capsys):
        path = write_config(tmp_path, EXAMPLE_CONFIG)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "analysis.json").read_text())["multiplicity"]["n"] == 2

    def test_unwritable_report_exits_config(self, tmp_path, capsys):
        path = write_config(tmp_path, EXAMPLE_CONFIG)
        (tmp_path / "out" / "analysis.json").mkdir(parents=True)
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("output error: ")


class TestBranch:
    def test_short_branches(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SHORT_BRANCH_CONFIG))
        summary = cmd_branch(cfg, tmp_path / "out")
        assert len(summary["seeds"]) == 2
        for entry in summary["seeds"]:
            csv = tmp_path / "out" / entry["csv"]
            points = read_branch_csv(csv, 2)
            assert len(points) == entry["points"] > 2
            assert entry["status"]["forward"] == "lambda_max"
            assert entry["max_lambda"] > 0.02
        assert summary["lambda_star_hint"] > 0.02

    def test_integration_error_escapes_the_seed_loop(self, tmp_path):
        # the failure reproducer of perfbench/selftest.py (check 1), which
        # counts on this error leaving cmd_branch; the seed Newton at the
        # zero u = 1 blows up at t = 2.47627
        doc = {"problem": {"g": "x0^5 - x0", "phi": "q-p", "f": "50",
                           "a": 2.0, "b": 2, "T": 5.0},
               "interval": {"alpha": -1.5, "beta": 1.5, "grid_n": 200},
               "certify": {"radius": 0.1}}
        cfg = load_config(write_config(tmp_path, doc))
        with pytest.raises(orbit.IntegrationError, match="t=2.47627"):
            cmd_branch(cfg, tmp_path / "out", seed_index=2)

    def test_seed_zero_restriction(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SHORT_BRANCH_CONFIG))
        summary = cmd_branch(cfg, tmp_path / "out", seed_index=1)
        assert len(summary["seeds"]) == 1
        assert summary["seeds"][0]["zero"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("index", [2, -1])
    def test_seed_zero_out_of_range(self, tmp_path, capsys, index):
        path = write_config(tmp_path, SHORT_BRANCH_CONFIG)
        code = main(["branch", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--seed-zero", str(index)])
        assert code == 1
        assert "valid indices are 0 to 1" in capsys.readouterr().err
        # an interval without zeros has no valid index at all
        doc = json.loads(json.dumps(SHORT_BRANCH_CONFIG))
        doc["interval"] = {"alpha": 0.25, "beta": 0.75, "grid_n": 100}
        path = write_config(tmp_path, doc, "no_zeros.json")
        code = main(["branch", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--seed-zero", str(index)])
        assert code == 1
        assert capsys.readouterr().err == (f"config error: --seed-zero {index}: "
                                           "the scan found no zeros\n")

    def test_long_chain_branches_and_verifies_above_dim_40(self, tmp_path, monkeypatch):
        # dim 47, above the dim up to which float stages once ran: every
        # solve runs on the float stages, in C wherever a compiler is, and
        # with no kernel to load the Python float stages write the same CSV
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["problem"].update(a=40.0, b=45)
        doc["continuation"] = {"lambda_max": 0.05}
        cfg = load_config(write_config(tmp_path, doc))
        summary = cmd_branch(cfg, tmp_path / "out", seed_index=0)
        entry, = summary["seeds"]
        assert entry["points"] == 12
        assert entry["status"] == {"backward": "lambda_zero", "forward": "lambda_max"}
        doc = cmd_verify(cfg, tmp_path / "out" / entry["csv"])
        assert len(doc["rows"]) == 12 and doc["all_pass"]
        assert doc["rows"][0]["lambda"] == 0.0
        monkeypatch.setattr(rk45, "_compile", lambda *args: False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty-cache"))
        chain.expand.cache_clear()
        try:
            assert not isinstance(chain.expand(cfg.problem).stages((0.0,)), rk45.CompiledAttempt)
            assert cmd_branch(cfg, tmp_path / "python", seed_index=0) == summary
        finally:
            chain.expand.cache_clear()
        csv = (tmp_path / "python" / entry["csv"]).read_bytes()
        assert csv == (tmp_path / "out" / entry["csv"]).read_bytes()

    def test_long_expression_analyzes_and_branches(self, tmp_path, capsys):
        # the example's g plus 300 terms that sum to zero
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["problem"]["g"] += "+0.001*x0" * 300 + "-0.3*x0"
        doc["certify"] = {"radius": 0.1}
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert [z["u"] for z in report["degree"]["zeros"]] == [0.0, 1.0]
        assert report["multiplicity"]["n"] == 2
        assert main(["branch", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "branch_summary.json").read_text())
        assert [entry["points"] for entry in summary["seeds"]] == [43, 43]
        for entry in summary["seeds"]:
            assert entry["status"] == {"backward": "lambda_zero", "forward": "lambda_zero"}

    def test_lambda_max_zero_gives_trivial_rows(self, tmp_path):
        doc = json.loads(json.dumps(EXAMPLE_CONFIG))
        doc["continuation"] = {"lambda_max": 0.0}
        cfg = load_config(write_config(tmp_path, doc))
        summary = cmd_branch(cfg, tmp_path / "out")
        for entry in summary["seeds"]:
            points = read_branch_csv(tmp_path / "out" / entry["csv"], 2)
            assert len(points) == 1
            assert points[0].sp.lam == 0.0

    def test_resonant_degenerate_case(self, tmp_path):
        cfg = load_config(write_config(tmp_path, RESONANT_CONFIG))
        summary = cmd_branch(cfg, tmp_path / "out")
        entry = summary["seeds"][0]
        assert entry["status"]["forward"] == "degenerate_slice"
        points = read_branch_csv(tmp_path / "out" / entry["csv"], 1)
        assert len(points) == 1
        assert points[0].sp.lam == 0.0

    def test_unstartable_branch_writes_seed_row(self, tmp_path, monkeypatch):
        helpers.refuse_second_branch_point(monkeypatch)
        cfg = load_config(write_config(tmp_path, SHORT_BRANCH_CONFIG))
        summary = cmd_branch(cfg, tmp_path / "out", seed_index=0)
        entry = summary["seeds"][0]
        assert entry["status"] == {"backward": "corrector_failure",
                                   "forward": "corrector_failure"}
        assert "reason" not in entry
        points = read_branch_csv(tmp_path / "out" / entry["csv"], 2)
        assert len(points) == entry["points"] == 1
        assert points[0].sp.lam == orbit.SEED_LAMBDA

    def test_branch_points_reuse_accepting_solves(self, tmp_path, monkeypatch):
        calls = []
        integrate = orbit.integrate

        def counted(*args, **kwargs):
            calls.append(args[1])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(orbit, "integrate", counted)
        cfg = load_config(write_config(tmp_path, EXAMPLE_CONFIG))
        summary = cmd_branch(cfg, tmp_path / "out")
        assert sum(entry["points"] for entry in summary["seeds"]) > 80
        assert calls == []

    def test_summary_written(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SHORT_BRANCH_CONFIG))
        cmd_branch(cfg, tmp_path / "out", seed_index=0)
        doc = json.loads((tmp_path / "out" / "branch_summary.json").read_text())
        assert doc["seeds"][0]["csv"] == "branch_0.csv"


def test_every_solve_goes_through_orbit_solve_ivp(tmp_path, monkeypatch):
    # perfbench/tracing.py and perfbench/worker.py count and slow down the
    # integrations by patching orbit.solve_ivp, so branch and verify must
    # reach the integrator through that name, never as rk45.solve_ivp.  The
    # shots of a compiled Broyden phase run in its one C call instead, which
    # reports them: with them, branch makes the solves of a run on the
    # Python float stages alone
    solve = rk45.solve_ivp
    broyden = rk45.CompiledAttempt.broyden
    calls = collections.Counter()
    phase = "branch"

    def counted(fun, t_span, y0, **kwargs):
        # the example's state has 4 components, a stacked run's 4 per column
        calls[phase, "stacked" if np.size(y0) > 4 else "single"] += 1
        return solve(fun, t_span, y0, **kwargs)

    def bypassed(*args, **kwargs):
        calls["bypassed"] += 1
        raise AssertionError("rk45.solve_ivp called past orbit.solve_ivp")

    def reported(self, *args):
        result = broyden(self, *args)
        calls[phase, "shots"] += 0 if result is None else result[5]
        return result

    monkeypatch.setattr(rk45, "solve_ivp", bypassed)
    monkeypatch.setattr(orbit, "solve_ivp", counted)
    monkeypatch.setattr(rk45.CompiledAttempt, "broyden", reported)
    cfg = load_config(write_config(tmp_path, EXAMPLE_CONFIG))
    summary = cmd_branch(cfg, tmp_path / "out", seed_index=0)
    phase = "verify"
    doc = cmd_verify(cfg, tmp_path / "out" / "branch_0.csv")
    assert calls["bypassed"] == 0
    assert doc["all_pass"] and len(doc["rows"]) == summary["seeds"][0]["points"]
    assert calls["branch", "single"] > 0 and calls["branch", "stacked"] > 0
    assert calls["verify", "single"] == len(doc["rows"])
    assert calls["verify", "stacked"] == calls["verify", "shots"] == 0
    if isinstance(chain.expand(cfg.problem).stages((0.1,)), rk45.CompiledAttempt):
        assert calls["branch", "shots"] > 0
    # the same branch on a field of the Python float stages alone
    phase = "python"
    monkeypatch.setattr(rk45, "compiled_stages", lambda derivatives: None)
    monkeypatch.setattr(chain, "expand", chain.expand.__wrapped__)
    cmd_branch(cfg, tmp_path / "python", seed_index=0)
    assert calls["python", "shots"] == 0
    assert (calls["python", "single"], calls["python", "stacked"]) == (
        calls["branch", "single"] + calls["branch", "shots"], calls["branch", "stacked"])
    assert ((tmp_path / "python" / "branch_0.csv").read_bytes()
            == (tmp_path / "out" / "branch_0.csv").read_bytes())


def test_analyze_and_the_scan_call_G_on_blocks_of_columns(tmp_path, monkeypatch):
    # perfbench/tracing.py counts the calls of G through a copy made with
    # dataclasses.replace; every Jacobian of G is one call on its block of
    # shifted columns
    expand = chain.expand
    widths = []

    def counted_expand(p):
        field = expand(p)

        def counting_G(X):
            widths.append(X.shape[1])
            return field.G(X)
        return dataclasses.replace(field, G=counting_G)

    monkeypatch.setattr(chain, "expand", counted_expand)
    cfg = load_config(write_config(tmp_path, SHORT_BRANCH_CONFIG))
    cmd_analyze(cfg)
    # the scan's determinant at each of the two zeros, 2 * dim shifted
    # states, then each zero's 7^3 box samples at once, 2 * 3 shifted
    # (u, v0, vb) points per sample
    assert widths == [2 * 4, 2 * 4] + 2 * [2 * 3 * 7**3]
    widths.clear()
    cmd_branch(cfg, tmp_path / "out", seed_index=0)
    assert widths == [8, 8]


def test_the_benchmark_tracer_finds_every_name_it_patches(example_problem):
    # perfbench/tracing.py wraps library functions by module attribute
    # (orbit.solve_ivp, orbit.period_map, oracle.history_convolution,
    # PeriodicTrack.value ...) and copies each expanded field with
    # dataclasses.replace, wrapping its G and F; uninstall puts back the
    # very objects it replaced
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = [analysis, certify, chain, cli, expr, kernel, oracle, orbit,
              oracle.PeriodicTrack]
    before = {(owner, name): value for owner in owners
              for name, value in vars(owner).items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {key for key, value in before.items() if getattr(*key) is not value}
        field = chain.expand(example_problem)
        xi = np.array([0.3, -0.2, 0.1, 0.05])
        original = before[chain, "expand"](example_problem)
        assert field is not original and np.array_equal(field.G(xi), original.G(xi))
        assert np.array_equal(field.F(0.25, xi), original.F(0.25, xi))
        assert tracer.calls["chain.G"] == tracer.calls["chain.F"] == 1
    finally:
        tracer.uninstall()
    assert patched >= {(orbit, "solve_ivp"), (orbit, "period_map"),
                       (oracle, "history_convolution"), (oracle.PeriodicTrack, "value"),
                       (chain, "expand")}
    assert all(getattr(owner, name) is value for (owner, name), value in before.items())


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path, example_field):
        params = orbit.ContinuationParams(lambda_max=0.02, max_steps=12)
        trace = orbit.trace_from_zero(example_field, 0.0, params)
        path = tmp_path / "b.csv"
        write_branch_csv(path, 2, trace.points)
        header = path.read_text().splitlines()[0]
        assert header == "lambda,q,p0,p1,p2,sup_norm,diameter,arclength,residual"
        points = read_branch_csv(path, 2)
        assert len(points) == len(trace.points)
        for got, want in zip(points, trace.points):
            assert got.sp.lam == want.sp.lam  # 17 significant digits round-trip
            assert np.array_equal(got.sp.xi0, want.sp.xi0)
            assert got.sup_norm == want.sup_norm

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lambda,q,p0,sup_norm,diameter,arclength,residual\n")
        with pytest.raises(SchemaError):
            read_branch_csv(path, 2)
        path.write_text("lambda,q,p0,p1,p2,sup_norm,diameter,arclength,residual\n"
                        "0.0,0.0,番\n")
        with pytest.raises(SchemaError):
            read_branch_csv(path, 2)


@pytest.fixture(scope="module")
def branch_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    cfg = load_config(write_config(tmp, SHORT_BRANCH_CONFIG))
    cmd_branch(cfg, tmp, seed_index=0)
    return cfg, tmp / "branch_0.csv"


class TestVerify:

    def test_branch_rows_pass(self, branch_csv):
        cfg, csv = branch_csv
        doc = cmd_verify(cfg, csv)
        assert doc["all_pass"]
        assert all(r["pass"] for r in doc["rows"])
        assert all(r["verify_lift"] <= 1e-4 for r in doc["rows"])
        assert all(r["direct_residual"] <= 1e-3 for r in doc["rows"])

    def test_tampered_row_fails(self, branch_csv, tmp_path):
        cfg, csv = branch_csv
        lines = csv.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[1] = repr(float(parts[1]) + 0.1)  # perturb q
        tampered = tmp_path / "tampered.csv"
        tampered.write_text("\n".join(lines[:-1] + [",".join(parts)]) + "\n")
        doc = cmd_verify(cfg, tampered)
        assert not doc["all_pass"]
        assert not doc["rows"][-1]["pass"]
        assert any(r["pass"] for r in doc["rows"][:-1])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_value_is_schema_error(self, branch_csv, tmp_path, capsys,
                                             value):
        cfg, csv = branch_csv
        lines = csv.read_text().splitlines()
        parts = lines[2].split(",")
        parts[1] = value  # a state column
        bad = tmp_path / "nonfinite.csv"
        bad.write_text("\n".join(lines[:2] + [",".join(parts)] + lines[3:]) + "\n")
        with pytest.raises(SchemaError, match=f"{bad.name}:3: non-finite"):
            read_branch_csv(bad, 2)
        config = write_config(tmp_path, SHORT_BRANCH_CONFIG)
        assert main(["verify", str(bad), "--config", str(config)]) == 4
        capsys.readouterr()

    def test_chunk_takes_four_tracks_to_the_grid(self, branch_csv, tmp_path, monkeypatch):
        # phi on the samples of verify_lift's tracks, then on those of the
        # residual's: two inverse FFTs of the tracks' size per chunk of
        # rows, whatever its size, none of another, and no density value
        cfg, csv = branch_csv
        lines = csv.read_text().splitlines()
        one_row = tmp_path / "one_row.csv"
        one_row.write_text("\n".join([lines[0], lines[-1]]) + "\n")
        work = {"track_irffts": 0, "other_sizes": 0, "gamma_calls": 0}
        irfft, gamma_eval = np.fft.irfft, oracle.gamma_eval

        def counted_irfft(a, n=None, *args, **kwargs):
            size = n or 2 * (np.shape(a)[-1] - 1)
            work["track_irffts" if size == orbit.DENSE_SAMPLES else "other_sizes"] += 1
            return irfft(a, n, *args, **kwargs)

        def counted_gamma_eval(k, s):
            work["gamma_calls"] += 1
            return gamma_eval(k, s)

        monkeypatch.setattr(np.fft, "irfft", counted_irfft)
        monkeypatch.setattr(oracle, "gamma_eval", counted_gamma_eval)
        doc = cmd_verify(cfg, one_row)
        assert doc["all_pass"] and len(doc["rows"]) == 1
        assert work == {"track_irffts": 2, "other_sizes": 0, "gamma_calls": 0}
        work["track_irffts"] = 0
        doc = cmd_verify(cfg, csv)
        rows = len(lines) - 1
        assert rows > cli.VERIFY_CHUNK and len(doc["rows"]) == rows
        assert work == {"track_irffts": 2 * math.ceil(rows / cli.VERIFY_CHUNK),
                        "other_sizes": 0, "gamma_calls": 0}

    @staticmethod
    def assert_rows_are_one_row_calls(cfg, csv):
        """cmd_verify's values are, bit for bit, those of one-row oracle
        calls on each row's own tracks."""
        p = cfg.problem
        points = read_branch_csv(csv, p.kernel.b)
        assert len(points) > cli.VERIFY_CHUNK and len(points) % cli.VERIFY_CHUNK
        doc = cmd_verify(cfg, csv)
        field = chain.expand(p)
        for bp, row in zip(points, doc["rows"], strict=True):
            traj = orbit.integrate(field, bp.sp.lam, bp.sp.xi0, 0.0, p.T)
            coords, x, xd = helpers.sampled_tracks(traj)
            assert row["verify_lift"] == oracle.verify_lift(p, coords, x, xd)
            assert row["direct_residual"] == oracle.direct_residual(p, bp.sp.lam, x)

    def test_chunks_do_not_change_a_value(self, branch_csv):
        self.assert_rows_are_one_row_calls(*branch_csv)

    def test_chunks_do_not_change_a_value_for_a_constant_phi(self, tmp_path):
        # phi is a scalar, broadcast over the rows of the chunk and the grid
        doc = {"problem": {"g": "-x0 - x1 + x2", "phi": "0.5", "f": "sin(2*pi*t)",
                           "a": 2.0, "b": 2, "T": 1.0},
               "interval": {"alpha": -1.0, "beta": 1.0, "grid_n": 10}}
        cfg = load_config(write_config(tmp_path, doc))
        rows = [f"{lam},{q},0.1,0.5,0.5,0,0,0,0"
                for lam, q in zip(np.linspace(0.0, 0.2, 7), np.linspace(-0.3, 0.3, 7))]
        csv = tmp_path / "constant_phi.csv"
        csv.write_text("\n".join([cli._csv_header(2)] + rows) + "\n")
        self.assert_rows_are_one_row_calls(cfg, csv)

    def test_memory_flat_in_the_rows(self, branch_csv, tmp_path):
        cfg, csv = branch_csv
        header, *rows = csv.read_text().splitlines()
        peaks = []
        for count in (4, 40):
            path = tmp_path / f"rows_{count}.csv"
            path.write_text("\n".join([header] + (rows * count)[:count]) + "\n")
            cmd_verify(cfg, path)  # caches filled before the measurement
            tracemalloc.start()
            try:
                cmd_verify(cfg, path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_empty_csv(self, branch_csv, tmp_path):
        cfg, _ = branch_csv
        empty = tmp_path / "empty.csv"
        empty.write_text("lambda,q,p0,p1,p2,sup_norm,diameter,arclength,residual\n")
        doc = cmd_verify(cfg, empty)
        assert doc["rows"] == [] and doc["all_pass"]

    def test_unreadable_csv_is_schema_error(self, tmp_path, capsys):
        path = write_config(tmp_path, EXAMPLE_CONFIG)
        not_utf8 = tmp_path / "latin1.csv"
        not_utf8.write_bytes(b"lambda,\xff\n")
        for bad in (tmp_path, not_utf8):  # a directory, then undecodable bytes
            with pytest.raises(SchemaError, match="cannot read branch CSV"):
                read_branch_csv(bad, 2)
            assert main(["verify", str(bad), "--config", str(path)]) == 4
            assert capsys.readouterr().err.startswith("schema error: cannot read branch CSV")

    def test_nan_start_row_exits_numerical(self, tmp_path, capsys):
        # x1/x1 is NaN at the row's state, where the integration used to hang
        doc = {"problem": {"g": "x1/x1 - x0", "phi": "q-p", "f": "1",
                           "a": 1.0, "b": 1, "T": 1.0},
               "interval": {"alpha": -1.0, "beta": 1.0, "grid_n": 10}}
        path = write_config(tmp_path, doc)
        row = tmp_path / "nan_start.csv"
        row.write_text("lambda,q,p0,p1,sup_norm,diameter,arclength,residual\n"
                       "0,0.5,0,0,0.5,0,0,0\n")
        with helpers.deadline(5):
            assert main(["verify", str(row), "--config", str(path)]) == 3
        assert "non-finite field at the start" in capsys.readouterr().err

    @pytest.mark.parametrize("position", [2, 5])
    def test_nan_row_among_several_exits_numerical(self, tmp_path, capsys, position):
        # the field is NaN beyond |x| = 1; the other rows stay inside
        doc = {"problem": {"g": "0*(1 - x0^2)^0.5 - x0", "phi": "q-p", "f": "1",
                           "a": 1.0, "b": 1, "T": 1.0},
               "interval": {"alpha": -0.5, "beta": 0.5, "grid_n": 10}}
        path = write_config(tmp_path, doc)
        header = "lambda,q,p0,p1,sup_norm,diameter,arclength,residual"
        rows = [f"0,{q},0,0,0.5,0,0,0" for q in (0.1, -0.2, 0.3, 0.15, -0.1, 0.25, 0.05)]
        good = tmp_path / "good.csv"
        good.write_text("\n".join([header] + rows) + "\n")
        assert main(["verify", str(good), "--config", str(path)]) == 0
        rows[position] = "0,2.0,0,0,2.0,0,0,0"
        bad = tmp_path / "nan_row.csv"
        bad.write_text("\n".join([header] + rows) + "\n")
        capsys.readouterr()
        assert main(["verify", str(bad), "--config", str(path)]) == 3
        assert "integration failed at t=0" in capsys.readouterr().err

    def test_schema_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, EXAMPLE_CONFIG)
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        assert main(["verify", str(bad), "--config", str(path)]) == 4
        capsys.readouterr()


class TestUsage:
    """argparse's usage errors exit 1 (config), not 2, which is the
    admissibility code."""

    @pytest.mark.parametrize("argv,message", [
        (["branch", "--config", "c.json", "--seed-zero", "abc"],
         "argument --seed-zero: invalid int value: 'abc'"),
        (["analyze"], "the following arguments are required: --config"),
    ], ids=["bad-seed-zero", "missing-config"])
    def test_usage_error_exits_config(self, capsys, argv, message):
        assert main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"usage: gammachain {argv[0]} ")
        assert f"gammachain {argv[0]}: error: {message}" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["branch", "-h"])
        assert exc.value.code == 0
        assert "--seed-zero" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "branch", "verify"])
    def test_unusable_out_exits_config(self, branch_csv, tmp_path, capsys,
                                       monkeypatch, command):
        # --out names an existing file: fail before the command does any work
        monkeypatch.setattr(cli, f"cmd_{command}", None)
        path = write_config(tmp_path, SHORT_BRANCH_CONFIG)
        out = tmp_path / "taken"
        out.write_text("")
        csv = [str(branch_csv[1])] if command == "verify" else []
        assert main([command, *csv, "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("output error: ")


NO_SCIPY_RUN = """
import json, sys

class NoScipy:
    # refuse every scipy import, so that any use of scipy fails the run
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from gammachain import cli
config, out = sys.argv[1:]
for argv in (["analyze", "--config", config, "--out", out],
             ["branch", "--config", config, "--out", out, "--seed-zero", "0"],
             ["verify", out + "/branch_0.csv", "--config", config, "--out", out]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
if not json.load(open(out + "/verify.json"))["all_pass"]:
    sys.exit("verify rows failed")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"scipy modules loaded: {loaded}")
"""


def run_script(script, *args):
    """Run ``script`` with ``args`` in a fresh interpreter that imports this
    checkout's gammachain."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


def test_commands_run_without_scipy(tmp_path):
    # the runtime needs NumPy alone: analyze, branch and verify run in an
    # interpreter where every scipy import fails
    path = write_config(tmp_path, SHORT_BRANCH_CONFIG)
    proc = run_script(NO_SCIPY_RUN, path, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr


IMPORT_CLI = """
import dataclasses, inspect, sys
import gammachain.cli
classes = {c for name, module in list(sys.modules.items()) if name.split(".")[0] == "gammachain"
           for c in vars(module).values()
           if inspect.isclass(c) and c.__module__.split(".")[0] == "gammachain"}
print(sorted(c.__qualname__ for c in classes if dataclasses.is_dataclass(c)))
print([f.name for f in dataclasses.fields(gammachain.chain.ExpandedField)])
print("argparse" in sys.modules)
"""


def test_import_processes_one_dataclass_and_no_argparse():
    # the records are plain classes, so importing generates no code but the
    # tracer's ExpandedField, whose fields perfbench/tracing.py replaces and
    # copies; argparse loads in main alone
    proc = run_script(IMPORT_CLI)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['ExpandedField']",
                                        "['G', 'F', 'problem', 'stages']", "False"]


NO_NUMPY_RANDOM_RUN = """
import sys
from pathlib import Path
from gammachain import cli
config, out = sys.argv[1:]
cli.load_config(Path(config))
for argv in (["analyze", "--config", config, "--out", out],
             ["branch", "--config", config, "--out", out],
             ["verify", out + "/branch_0.csv", "--config", config, "--out", out]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
loaded = sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"])
if loaded:
    sys.exit(f"numpy.random modules loaded: {loaded}")
"""


def test_commands_leave_numpy_random_unloaded(tmp_path):
    # the periodicity check of load_config draws its samples from the
    # standard library's generator, and no command imports numpy.random
    proc = run_script(NO_NUMPY_RANDOM_RUN, Path(__file__).parents[1] / "configs" / "example.json",
                      tmp_path / "out")
    assert proc.returncode == 0, proc.stderr


NO_OPENSSL_RUN = """
import sys
from pathlib import Path
from gammachain import chain, cli, rk45
config, out = sys.argv[1:]

def refuse(*args):
    sys.exit("the kernel was compiled, not loaded from the cache")
rk45._compile = refuse
if not isinstance(chain.expand(cli.load_config(Path(config)).problem).stages((0.1,)),
                  rk45.CompiledAttempt):
    sys.exit("no compiled float stages")
for argv in (["analyze", "--config", config, "--out", out],
             ["branch", "--config", config, "--out", out],
             ["verify", out + "/branch_0.csv", "--config", config, "--out", out]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
loaded = sorted({"hashlib", "_hashlib"} & set(sys.modules))
if loaded:
    sys.exit(f"OpenSSL's hashing modules loaded: {loaded}")
"""


@helpers.requires_compiler
def test_commands_leave_openssl_unloaded(tmp_path, example_field):
    # the kernel cache names and seals its libraries with zlib's checksums:
    # loading a cached kernel, analyze, a compiled branch and verify import
    # neither hashlib nor _hashlib, which maps OpenSSL's libcrypto; in a
    # fresh interpreter, as pytest itself may have imported hashlib
    assert isinstance(example_field.stages((0.1,)), rk45.CompiledAttempt)  # now in the cache
    proc = run_script(NO_OPENSSL_RUN, Path(__file__).parents[1] / "configs" / "example.json",
                      tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
