import argparse
import re
import warnings

import numpy as np
import pytest

from sobolab import cli, geometry, interpolant, model, risk
from sobolab.cli import main
from sobolab.errors import QuadratureNotConverged, UnsupportedSpec

BASE_INI = """
[params]
k = 1
p = 1.25
d = 1

[distribution]
radius = 1.0
density = uniform
sigma = constant
sigma_a = 1.0

[sweep]
id = clidemo
kind = norm_vs_n
n_grid = 32 64 128 256
trials = 5
"""


@pytest.fixture()
def cfg(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(BASE_INI)
    return path


@pytest.fixture()
def dataset_csv(cfg, tmp_path):
    assert main(["gen", "--config", str(cfg), "-n", "100", "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    return tmp_path / "dataset_n100_seed5.csv"


class TestGen:
    def test_deterministic_bytes(self, cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen", "--config", str(cfg), "-n", "64",
                         "--seed", "9", "--out", str(out)]) == 0
        name = "dataset_n64_seed9.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_too_few_points_usage_error(self, cfg, tmp_path):
        assert main(["gen", "--config", str(cfg), "-n", "1", "--seed", "9",
                     "--out", str(tmp_path)]) == 2

    def test_unwritable_out(self, cfg):
        assert main(["gen", "--config", str(cfg), "-n", "16", "--seed", "1",
                     "--out", "/proc/definitely/not/writable"]) == 2

    def test_missing_seed_rejected(self, cfg, tmp_path, capsys):
        assert main(["gen", "--config", str(cfg), "-n", "16",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", [
        "radius = 1e200", "radius = inf", "sigma_a = inf",
        "sigma_b = nan", "sigma_b = inf"])
    def test_nonfinite_or_overflowing_spec_usage_error(self, tmp_path, capsys,
                                                       line):
        quadratic = BASE_INI.replace(
            "sigma = constant\nsigma_a = 1.0",
            "sigma = quadratic\nsigma_a = 1.0\nsigma_b = 0.5")
        bad = tmp_path / "bad.ini"
        bad.write_text(re.sub(rf"^{line.split()[0]} = .*$", line, quadratic,
                              flags=re.M))
        assert main(["gen", "--config", str(bad), "-n", "16", "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: distribution: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestInterpNorm:
    def test_roundtrip(self, cfg, dataset_csv, tmp_path):
        assert main(["interp", "--config", str(cfg), "--data",
                     str(dataset_csv), "--shrink", "0.5",
                     "--out", str(tmp_path)]) == 0
        interp_csv = tmp_path / "interpolant_shrink0.5.csv"
        f, _, shrink = interpolant.load_interpolant(interp_csv)
        assert shrink == 0.5
        ds = geometry.load_dataset(dataset_csv)
        assert np.max(np.abs(interpolant.evaluate(f, ds.points)
                             - ds.labels)) <= 1e-12
        assert main(["norm", "--interp", str(interp_csv)]) == 0

    def test_header_missing_key_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "interp.csv"
        bad.write_text("# k=1 d=1 shrink=1.0\nc_1,radius,weight\n"
                       "0.0,0.25,1.0\n")
        assert main(["norm", "--interp", str(bad)]) == 2
        assert "line 1: header record lacks p=" in capsys.readouterr().err

    def test_header_repeated_key_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "interp.csv"
        bad.write_text("# k=1 p=2.5 d=2 shrink=0.5 p=3\nc_1,c_2,radius,weight\n"
                       "0.0,0.0,0.25,1.0\n")
        assert main(["norm", "--interp", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {bad}: line 1: header record repeats p=\n"

    def test_unconverged_table_names_the_class(self, tmp_path, capsys):
        # the order <= 1 classes converge; |4 r^2 phi'' + 2 phi'|^301
        # overflows
        interp = tmp_path / "interp.csv"
        interp.write_text("# k=2 p=301 d=1 shrink=1.0\nc_1,radius,weight\n"
                          "0.0,0.25,1.0\n")
        assert main(["norm", "--interp", str(interp)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: class (2,) of the (k, p, d) = "
                              "(2, 301.0, 1) table: integral is inf")
        assert err.endswith("the integrand overflows the double range\n")
        assert "Traceback" not in err

    def test_header_dimension_disagrees_with_columns(self, tmp_path, capsys):
        bad = tmp_path / "interp.csv"
        bad.write_text("# k=1 p=2.5 d=2 shrink=1.0\nc_1,radius,weight\n"
                       "0.0,0.25,1.0\n")
        assert main(["norm", "--interp", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "interp.csv: line 1: header says d=2" in err
        assert "Traceback" not in err


class TestCheckNonFinite:
    """A NaN fails each zero-tolerance check of ``check``, and so does an
    infinite norm bound."""

    @pytest.mark.parametrize("module, name, stub", [
        (geometry, "kissing_number", lambda d: float("nan")),
        (interpolant, "interpolation_residual",
         lambda f, ds: np.full(ds.n, np.nan)),
        (interpolant, "sobolev_norm", lambda f, moduli: float("nan")),
        # inf <= inf would hold
        (interpolant, "min_norm_upper_bound",
         lambda ds, radii, moduli: float("inf")),
        # a finite norm whose p-th power overflows
        (interpolant, "sobolev_norm", lambda f, moduli: 1e300),
    ], ids=["in-degree", "residual", "norm-bound", "infinite-bound",
            "overflowing-norm"])
    def test_nan_fails(self, cfg, dataset_csv, capsys, monkeypatch, module,
                       name, stub):
        monkeypatch.setattr(module, name, stub)
        assert main(["check", "--config", str(cfg), "--data",
                     str(dataset_csv)]) == 1
        out = capsys.readouterr().out
        assert out.endswith("1 check(s) failed\n")
        assert "all checks passed" not in out

    def test_overflowing_bound_fails(self, tmp_path, capsys):
        # on a domain of radius 1e100, r_max^(kp) in the bound overflows
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_INI.replace("p = 1.25", "p = 4")
                       .replace("radius = 1.0", "radius = 1e100"))
        assert main(["gen", "--config", str(cfg), "-n", "64", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", str(cfg), "--data",
                         str(tmp_path / "dataset_n64_seed1.csv")]) == 1
        out, err = capsys.readouterr()
        assert re.search(r"^norm bound: norm\^p = \S+ <= inf$", out, re.M)
        assert out.endswith("1 check(s) failed\n")
        assert err == ""


class TestLargeP:
    """At p = 128 the linear-scale norm of a 512-point interpolant in d = 1
    is NaN: ``norm`` refuses it naming p, ``check`` fails its bound, and
    neither prints a numpy warning."""

    @pytest.fixture()
    def large_p(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_INI.replace("p = 1.25", "p = 128"))
        assert main(["gen", "--config", str(cfg), "-n", "512", "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        data = tmp_path / "dataset_n512_seed5.csv"
        assert main(["interp", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path)]) == 0
        return cfg, data, tmp_path / "interpolant_shrink1.0.csv"

    def test_norm_not_finite_usage_error(self, large_p, capsys):
        _, _, interp = large_p
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["norm", "--interp", str(interp)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: W^{{1,128.0}} norm of {interp} is nan: not "
                       f"finite in double precision at p = 128.0\n")

    def test_check_fails_the_bound(self, large_p, capsys):
        cfg, data, _ = large_p
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", str(cfg), "--data",
                         str(data)]) == 1
        out, err = capsys.readouterr()
        assert "norm bound: norm^p = nan <= nan\n" in out
        assert out.endswith("1 check(s) failed\n")
        assert err == ""


class TestCheck:
    def test_valid_dataset_passes(self, cfg, dataset_csv):
        assert main(["check", "--config", str(cfg),
                     "--data", str(dataset_csv)]) == 0

    def test_duplicate_row_usage_error(self, cfg, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("x_1,y\n0.5,1.0\n0.5,2.0\n0.9,0.0\n")
        assert main(["check", "--config", str(cfg), "--data", str(bad)]) == 2

    def test_non_numeric_cell_usage_error(self, cfg, tmp_path, capsys):
        bad = tmp_path / "abc.csv"
        bad.write_text("x_1,y\n0.5,1.0\nabc,2.0\n0.9,0.0\n")
        assert main(["check", "--config", str(cfg), "--data", str(bad)]) == 2
        assert "abc.csv: line 3" in capsys.readouterr().err

    def test_nan_cell_usage_error(self, cfg, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("x_1,y\n0.5,1.0\nnan,2.0\n0.9,0.0\n")
        assert main(["check", "--config", str(cfg), "--data", str(bad)]) == 2
        assert "nan.csv: line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["check"], ["interp", "--out", "OUT"], ["risk", "--seed", "1"]],
        ids=["check", "interp", "risk"])
    def test_overflowing_nn_distance_usage_error(self, cfg, tmp_path, capsys,
                                                 command):
        far = tmp_path / "far.csv"
        far.write_text("x_1,y\n0,1.0\n1e200,2.0\n")
        argv = [str(tmp_path) if a == "OUT" else a for a in command]
        assert main(argv + ["--config", str(cfg), "--data", str(far)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {far}: nearest-neighbour distance "
                                f"overflows\n")

    def test_far_clusters_usage_error(self, cfg, tmp_path, capsys):
        # the dataset's radii certify the packing check; the squared
        # distances of the nearest-neighbor graph's tree would overflow
        far = tmp_path / "far.csv"
        far.write_text(f"x_1,y\n0,1.0\n1,2.0\n1e160,0.0\n"
                       f"{1e160 + 1e145!r},1.0\n")
        assert main(["check", "--config", str(cfg), "--data", str(far)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "packing: 0 violations\n"
        assert captured.err == ("error: squared distances between the "
                                "points overflow\n")

    def test_dimension_4_rejected(self, tmp_path):
        cfg4 = tmp_path / "d4.ini"
        cfg4.write_text(BASE_INI.replace("d = 1", "d = 4"))
        ds = tmp_path / "ds.csv"
        ds.write_text("x_1,x_2,x_3,x_4,y\n0,0,0,0,1\n1,0,0,0,2\n")
        assert main(["check", "--config", str(cfg4), "--data", str(ds)]) == 2


class TestRiskCommand:
    def test_reports_both_estimates(self, cfg, dataset_csv, capsys):
        assert main(["risk", "--config", str(cfg), "--data",
                     str(dataset_csv), "--seed", "3",
                     "--mc-samples", "20000", "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert "monte-carlo" in out
        assert "semi-analytic" in out
        assert "DISAGREES" not in out


    @pytest.mark.parametrize("error, code", [(UnsupportedSpec, 0),
                                             (QuadratureNotConverged, 2)])
    def test_only_an_unsupported_spec_skips_the_estimate(
            self, cfg, dataset_csv, capsys, monkeypatch, error, code):
        # a spec with no closed form leaves the semi-analytic line out; a
        # numerical failure of the estimate is a usage error, not a skip
        def raises(f, spec):
            raise error("no estimate")

        monkeypatch.setattr(risk, "excess_risk_semianalytic", raises)
        assert main(["risk", "--config", str(cfg), "--data",
                     str(dataset_csv), "--seed", "3",
                     "--mc-samples", "1000", "--threads", "1"]) == code
        out, err = capsys.readouterr()
        assert "semi-analytic" not in out
        assert err == ("" if code == 0 else "error: no estimate\n")


class TestUndecodableBytes:
    """A byte that is not UTF-8 in a text input is a usage error naming the
    file and line, not a traceback."""

    @staticmethod
    def _refused(argv, path, lineno, capsys):
        lines = path.read_bytes().split(b"\n")
        lines[lineno - 1] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        code = main(argv)
        err = capsys.readouterr().err
        assert err == (f"error: {path}: line {lineno}: not UTF-8 text "
                       f"(invalid start byte)\n")
        return code

    def test_sweep_config(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert self._refused(["sweep", "--config", str(cfg), "--seed", "1",
                              "--out", str(out)], cfg, 5, capsys) == 2
        assert not out.exists()

    def test_check_data(self, cfg, dataset_csv, capsys):
        assert self._refused(["check", "--config", str(cfg), "--data",
                              str(dataset_csv)], dataset_csv, 3, capsys) == 2

    def test_norm_interp(self, tmp_path, capsys):
        interp = tmp_path / "interp.csv"
        interp.write_text("# k=1 p=1.25 d=1 shrink=1.0\nc_1,radius,weight\n"
                          "0.0,0.25,1.0\n")
        assert self._refused(["norm", "--interp", str(interp)], interp, 1,
                             capsys) == 2


class TestSweepCommand:
    def test_success_and_rerun_identical(self, cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, threads in ((a, "1"), (b, "4")):
            assert main(["sweep", "--config", str(cfg), "--seed", "77",
                         "--out", str(out), "--threads", threads]) == 0
        for name in ("clidemo_rows.csv", "clidemo_summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_overflowing_norm_fails_the_bound_contract(self, tmp_path,
                                                       capsys):
        # at sigma_a = 3e75 each norm is finite and its 4th power is not
        ini = tmp_path / "ovf.ini"
        ini.write_text(BASE_INI.replace("p = 1.25", "p = 4")
                       .replace("d = 1", "d = 3")
                       .replace("sigma_a = 1.0", "sigma_a = 3e75"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", str(ini), "--seed", "1",
                         "--out", str(tmp_path / "out"),
                         "--threads", "1"]) == 1
        out, err = capsys.readouterr()
        assert ("[FAIL] norm_vs_n.norm_bound_violations: observed 20.0 "
                "(target == 0)\n") in out
        assert err == ""

    def test_beta_boundary_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_INI.replace(
            "kind = norm_vs_n", "kind = weighted_delta_sum\nbeta = 0.5"))
        assert main(["sweep", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 2

    def test_contract_failure_exit_one(self, tmp_path):
        bad = tmp_path / "floor.ini"
        bad.write_text(BASE_INI.replace(
            "kind = norm_vs_n",
            "kind = risk_vs_n\nmc_samples = 2000\nrisk_floor = 1e9"))
        assert main(["sweep", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("section, line", [
        ("params", "q = 2"), ("distribution", "tilts = 0.5"),
        ("sweep", "mc_sampels = 100")])
    def test_unknown_key_usage_error(self, tmp_path, capsys, section, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_INI.replace(f"[{section}]",
                                        f"[{section}]\n{line}"))
        key = line.split()[0]
        assert main(["sweep", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: {section}.{key}: unknown key\n")
        assert not (tmp_path / "out").exists()

    def test_percent_sign_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "pct.ini"
        bad.write_text(BASE_INI.replace("trials = 5", "trials = 5%"))
        assert main(["sweep", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: sweep.trials: cannot parse '5%'\n")

    @pytest.mark.parametrize("section, old, new", [
        ("sweep", "trials = 5", "trials = \u0665"),
        ("params", "p = 1.25", "p = 1_2.5"),
        ("sweep", "n_grid = 32 64 128 256", "n_grid = 32 64 128 2_56"),
        ("sweep", "trials = 5", "trials = 5\nshrink_grid = 1.0 \u0660.5"),
    ], ids=["int", "float", "int-grid", "float-grid"])
    def test_non_ascii_number_usage_error(self, tmp_path, capsys, section,
                                          old, new):
        # int() and float() alone would read Arabic-Indic digits and
        # underscores
        bad = tmp_path / "literal.ini"
        bad.write_text(BASE_INI.replace(old, new), encoding="utf-8")
        key, raw = new.splitlines()[-1].split(" = ")
        assert main(["sweep", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: {section}.{key}: cannot parse {raw!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["plateau_ratio = nan",
                                      "risk_floor = -1"])
    def test_plateau_threshold_usage_error(self, tmp_path, capsys, line):
        bad = tmp_path / "plateau.ini"
        bad.write_text(BASE_INI.replace(
            "kind = norm_vs_n", f"kind = risk_vs_n\nmc_samples = 2000\n{line}"))
        assert main(["sweep", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: sweep.{line.split()[0]}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_infinite_lengthscale_usage_error(self, tmp_path, capsys,
                                             monkeypatch):
        sampled = []
        monkeypatch.setattr(model, "sample",
                            lambda *args, **kw: sampled.append(args))
        bad = tmp_path / "kernel.ini"
        bad.write_text(BASE_INI.replace(
            "kind = norm_vs_n", "kind = risk_vs_n\npredictor = kernel\n"
            "nu = 0.5\nlengthscale = inf\nmc_samples = 2000"))
        assert main(["sweep", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: sweep.nu, sweep.lengthscale: ")
        assert sampled == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_usage_error(self, cfg, tmp_path, capsys,
                                           threads):
        assert main(["sweep", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "out"), "--threads",
                     threads]) == 2
        assert "threads must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_json_lines(self, cfg, tmp_path):
        assert main(["sweep", "--config", str(cfg), "--seed", "8",
                     "--out", str(tmp_path / "jl"), "--format",
                     "json-lines"]) == 0
        assert (tmp_path / "jl" / "clidemo_rows.jsonl").exists()

    @pytest.mark.parametrize("low", ["-4", "0", "1"])
    def test_size_below_two_usage_error(self, tmp_path, capsys, low):
        bad = tmp_path / "grid.ini"
        bad.write_text(BASE_INI.replace("n_grid = 32 64 128 256",
                                        f"n_grid = {low} 8 16 32"))
        assert main(["sweep", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: sweep.n_grid: need strictly increasing sizes of at "
            f"least 2, got ({low}, 8, 16, 32)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", ["0.5 0.5", "0.5", ""])
    def test_degenerate_shrink_grid_usage_error(self, tmp_path, capsys,
                                                grid):
        bad = tmp_path / "gamma.ini"
        bad.write_text(BASE_INI.replace(
            "kind = norm_vs_n",
            f"kind = risk_vs_gamma\nshrink_grid = {grid}"))
        assert main(["sweep", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert "two distinct" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_boolean_morrey_trials_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "morrey.ini"
        bad.write_text(BASE_INI.replace("kind = norm_vs_n", "kind = morrey")
                       .replace("trials = 5", "trials = true"))
        assert main(["sweep", "--config", str(bad), "--seed", "4",
                     "--out", str(tmp_path / "m")]) == 2
        assert "sweep.trials" in capsys.readouterr().err

    def test_morrey_kind(self, tmp_path):
        ini = tmp_path / "morrey.ini"
        ini.write_text(BASE_INI.replace("kind = norm_vs_n", "kind = morrey")
                       .replace("trials = 5", "trials = 50"))
        assert main(["sweep", "--config", str(ini), "--seed", "4",
                     "--out", str(tmp_path / "m")]) == 0
        assert (tmp_path / "m" / "clidemo_summary.json").exists()


class TestEveryOptionIsRead:
    """Each verb's handler reads every option its parser defines, so no
    option is accepted and then ignored."""

    ARGV = {
        "gen": ["--config", "CFG", "-n", "16", "--seed", "1", "--out", "OUT"],
        "interp": ["--config", "CFG", "--data", "DATA", "--out", "OUT"],
        "norm": ["--interp", "INTERP"],
        "check": ["--config", "CFG", "--data", "DATA"],
        "risk": ["--config", "CFG", "--data", "DATA", "--seed", "1",
                 "--mc-samples", "1000", "--threads", "1"],
        "sweep": ["--config", "CFG", "--seed", "1", "--out", "OUT",
                  "--threads", "1"],
    }

    def test_argv_names_every_verb(self):
        verbs, = [action.choices for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        assert set(self.ARGV) == set(verbs)

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_handler_reads_every_option(self, cfg, dataset_csv, tmp_path,
                                        monkeypatch, command):
        interp = tmp_path / "interp.csv"
        interp.write_text("# k=1 p=1.25 d=1 shrink=1.0\nc_1,radius,weight\n"
                          "0.0,0.25,1.0\n")
        paths = {"CFG": cfg, "DATA": dataset_csv, "INTERP": interp,
                 "OUT": tmp_path / "out"}
        argv = [command] + [str(paths.get(a, a)) for a in self.ARGV[command]]
        reads = []

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.append(name)
                return super().__getattribute__(name)

        namespace = Recording()
        build_parser = cli.build_parser

        def recording_parser():
            parser = build_parser()
            parse_args = parser.parse_args

            def parse(args):
                parse_args(args, namespace=namespace)
                reads.clear()  # argparse's own reads while parsing
                return namespace

            parser.parse_args = parse
            return parser

        monkeypatch.setattr(cli, "build_parser", recording_parser)
        assert main(argv) == 0
        options = set(vars(namespace)) - {"command", "handler"}
        assert options - set(reads) == set()
