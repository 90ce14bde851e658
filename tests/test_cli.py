"""End-to-end runs of the command line driver (in-process via main)."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fracpos import cli, fem, fullydiscrete, kernel, mesh
from fracpos.errors import NoConvergence
from fracpos.semidiscrete import ScanSpec


def run_cli(*argv):
    return cli.main(list(argv))


# mesh commands


def test_mesh_info_uniform(capsys):
    assert run_cli("mesh", "info", "--family", "uniform", "--M", "10") == 0
    out = capsys.readouterr().out
    assert "family: uniform(M=10)" in out
    assert "nodes: 121" in out
    assert "interior: 81" in out
    assert "h0: 0.100" in out
    assert "delaunay: true" in out
    assert "normal: true" in out


def test_mesh_info_crossed_counts_failing_edges(capsys):
    assert run_cli("mesh", "info", "--family", "nondelaunay-b", "--M", "3") == 0
    assert "delaunay: false (15 edges fail)" in capsys.readouterr().out


def test_mesh_gen_writes_triangle_files(tmp_path, capsys):
    rc = run_cli(
        "mesh", "gen", "--family", "uniform", "--M", "4", "--outdir", str(tmp_path)
    )
    assert rc == 0
    out = capsys.readouterr().out
    node = tmp_path / "uniform_M4.node"
    ele = tmp_path / "uniform_M4.ele"
    assert str(node) in out
    loaded = mesh.load_triangle_format(str(node), str(ele))
    assert loaded.n_nodes == 25
    assert loaded.n_triangles == 32


def test_mesh_source_validation(capsys):
    assert run_cli("mesh", "info", "--family", "uniform") == 2  # missing --M
    assert run_cli("mesh", "info") == 2  # no source at all
    assert run_cli("mesh", "info", "--family", "uniform", "--M", "4", "--bundled", "disk_coarse") == 2
    assert run_cli("mesh", "info", "--family", "uniform", "--M", "4", "--eps", "0.1") == 2
    assert run_cli("mesh", "info", "--node", "nope.node", "--ele", "nope.ele") == 2
    assert capsys.readouterr().err.count("error:") == 5


@pytest.mark.parametrize("extra", [("--eps", "0.1"), ("--M", "5")])
def test_mesh_flags_rejected_for_file_sources(extra, capsys):
    files = os.path.join(os.path.dirname(mesh.__file__), "meshes", "disk_coarse")
    node_ele = ("--node", files + ".node", "--ele", files + ".ele")
    assert run_cli("mesh", "info", "--bundled", "disk_coarse") == 0
    assert run_cli("mesh", "info", *node_ele) == 0
    capsys.readouterr()
    assert run_cli("mesh", "info", "--bundled", "disk_coarse", *extra) == 2
    assert run_cli("mesh", "info", *node_ele, *extra) == 2
    assert capsys.readouterr().err.count("error:") == 2


@pytest.mark.parametrize("key", ["eps = 0.1", "m = 5"])
def test_config_mesh_keys_rejected_for_bundled(key, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[mesh]\nbundled = disk_coarse\n%s\n" % key)
    assert run_cli("mesh", "info", "--config", str(cfg)) == 2
    assert "error:" in capsys.readouterr().err


def test_file_mesh_above_the_cap_exits_2_before_assembly(tmp_path, capsys, monkeypatch):
    big = mesh.gen_uniform_square(92)
    assert big.interior_count == 8281
    node, ele = str(tmp_path / "big.node"), str(tmp_path / "big.ele")
    mesh.save_triangle_format(big, node, ele)

    def no_assembly(*args):
        raise AssertionError("assembled a mesh above the cap")

    monkeypatch.setattr(fem, "build_fem_system", no_assembly)
    rc = run_cli("semi", "threshold", "--node", node, "--ele", ele, "--outdir", str(tmp_path))
    assert rc == 2
    assert "8281 interior nodes, above 8192" in capsys.readouterr().err
    # mesh info builds no N x N matrix, so it takes the file
    assert run_cli("mesh", "info", "--node", node, "--ele", ele) == 0
    assert "interior: 8281" in capsys.readouterr().out


def test_file_mesh_with_wrong_boundary_markers_exits_2(tmp_path, capsys):
    # corner node (0, 0) marked interior: solved as given, the corner would
    # become an unknown of a different problem
    node, ele = tmp_path / "u3.node", tmp_path / "u3.ele"
    mesh.save_triangle_format(mesh.gen_uniform_square(3), str(node), str(ele))
    lines = node.read_text().splitlines()
    corner = [k for k, line in enumerate(lines) if line.split()[1:3] == ["0", "0"]]
    assert len(corner) == 1
    lines[corner[0]] = lines[corner[0]][:-1] + "0"
    node.write_text("\n".join(lines) + "\n")
    files = ("--node", str(node), "--ele", str(ele))
    assert run_cli("mesh", "info", *files) == 2
    rc = run_cli("semi", "threshold", *files, "--methods", "sg", "--outdir", str(tmp_path))
    assert rc == 2
    out, err = capsys.readouterr()
    assert "single(0.5)" not in out
    assert "boundary flags disagree with edge topology" in err
    assert not (tmp_path / "semi_threshold_sg.csv").exists()


def test_mesh_info_has_no_outdir(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("mesh", "info", "--family", "uniform", "--M", "4", "--outdir", str(tmp_path))
    assert exc.value.code == 2


def test_unknown_subcommand_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("mesh", "shred")
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "fracpos 0.1.0"


# kernel commands


def test_kernel_ulambda_prints_csv(capsys):
    assert run_cli("kernel", "ulambda", "--lambda", "1.0", "--t", "1.0", "0.0") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# fracpos 0.1.0 config=")
    assert lines[1] == "t,u_lambda"
    t, u = lines[2].split(",")
    assert float(t) == 1.0
    assert float(u) == pytest.approx(0.427583576155807, rel=1e-8)
    assert lines[3] == "0.0,1.0"


def test_kernel_ulambda_rejects_bad_operator(capsys):
    assert run_cli("kernel", "ulambda", "--alpha", "1.5", "--lambda", "1", "--t", "1") == 2
    assert run_cli("kernel", "ulambda", "--lambda", "-1", "--t", "1") == 2
    assert run_cli("kernel", "ulambda", "--mu", "exp", "--alpha", "0.5", "--lambda", "1", "--t", "1") == 2
    assert capsys.readouterr().err.count("error:") == 3


@pytest.mark.parametrize("lam, t", [("2", "inf"), ("nan", "1")])
def test_kernel_ulambda_rejects_non_finite_input(lam, t, capsys):
    rc = run_cli("kernel", "ulambda", "--alpha", "0.5", "--lambda", lam, "--t", t)
    assert rc == 2
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert "error:" in err


@pytest.mark.parametrize("lam, t", [("1", "1e-250"), ("1e-300", "1e300")])
def test_kernel_ulambda_contour_failure_prints_only_the_failure(lam, t, capsys):
    # at t = 1e-250 the contour overflows, at t = 1e300 its weights
    # underflow and the kernel would read 0 instead of about 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli("kernel", "ulambda", "--alpha", "0.5", "--lambda", lam, "--t", t)
    assert rc == 1
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: lambda = 0 defect")


def test_kernel_weights_rows(capsys):
    assert run_cli("kernel", "weights", "--tau", "1.0", "--n", "2") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "j,omega_j"
    assert lines[2] == "0,1.0"
    assert lines[3] == "1,-0.5"
    assert lines[4] == "2,-0.125"


def test_kernel_mittag(capsys):
    assert run_cli("kernel", "mittag", "--alpha", "0.5", "--x", "-1.0") == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(last.split(",")[1]) == pytest.approx(0.427583576155807, rel=1e-9)
    # the branch-cut integral stays finite far out: 1 / (y Gamma(1/2))
    assert run_cli("kernel", "mittag", "--alpha", "0.5", "--x=-1e155") == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(last.split(",")[1]) == pytest.approx(5.641895835477563e-156, rel=1e-15)
    assert run_cli("kernel", "mittag", "--x", "-1.0") == 2  # alpha required
    assert run_cli("kernel", "mittag", "--alpha", "0.5", "0.2", "--x", "-1.0") == 2


@pytest.mark.parametrize("x", ["nan", "-inf"])
def test_kernel_mittag_rejects_non_finite_x(x, capsys):
    # --x=-inf: a separate "-inf" would be read as a flag
    assert run_cli("kernel", "mittag", "--alpha", "0.5", "--x=" + x) == 2
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "ulambda", "--lambda", "1", "--t", "1", "-1"),
        ("kernel", "mittag", "--alpha", "0.5", "--x", "-1", "1"),
    ],
)
def test_kernel_commands_print_nothing_before_a_bad_value(argv, capsys):
    # the valid first value must not reach stdout ahead of the failure
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("extra", [("--mu", "exp"), ("--weights", "1"), ("--quad-order", "32")])
def test_kernel_mittag_takes_only_alpha_x_config(extra):
    with pytest.raises(SystemExit) as exc:
        run_cli("kernel", "mittag", "--alpha", "0.5", "--x", "-1.0", *extra)
    assert exc.value.code == 2


def test_kernel_mittag_reads_alpha_from_config(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[operator]\nalpha = 0.5\n")
    assert run_cli("kernel", "mittag", "--config", str(cfg), "--x", "-1.0") == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(last.split(",")[1]) == pytest.approx(0.427583576155807, rel=1e-9)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fully_threshold_rejects_non_finite_weights(bad, tmp_path, capsys):
    rc = run_cli(
        "fully", "threshold", "--family", "uniform", "--M", "4", "--alpha", "0.5", "0.2",
        "--weights", "1", bad, "--outdir", str(tmp_path),
    )
    assert rc == 2
    out, err = capsys.readouterr()
    assert "all-nonnegative" not in out
    assert "weights must be positive and finite" in err


def test_fully_threshold_exits_1_when_one_over_tau_overflows(tmp_path, capsys):
    # 1/tau overflows below tau = 5.6e-309, so every first-step row is nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(
            "fully", "threshold", "--family", "uniform", "--M", "4", "--methods", "sg",
            "--scan-start", "1e-320", "--scan-stop", "1e-310", "--outdir", str(tmp_path),
        )
    assert rc == 1
    assert caught == []
    assert os.listdir(tmp_path) == []
    out, err = capsys.readouterr()
    assert "all-nonnegative" not in out
    assert "numerical failure" in err and "nan at x = 1e-320" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_kernel_weights_rejects_non_finite_weights(bad, capsys):
    rc = run_cli(
        "kernel", "weights", "--alpha", "0.5", "0.2", "--weights", "1", bad,
        "--tau", "1", "--n", "3",
    )
    assert rc == 2
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert "weights must be positive and finite" in err


def test_infinite_step_is_a_usage_error(tmp_path, capsys):
    # every weight of an infinite step is zero: no rows, no verdict
    assert run_cli("kernel", "weights", "--tau", "inf", "--n", "3") == 2
    rc = run_cli(
        "fully", "contractivity", "--family", "uniform", "--M", "4", "--methods", "lm",
        "--tau", "inf", "--outdir", str(tmp_path),
    )
    assert rc == 2
    out, err = capsys.readouterr()
    assert "contractive" not in out
    assert err.count("error:") == 2
    assert not (tmp_path / "contractivity_lm.csv").exists()


# bounds from the dense-memory cap (8192^2 float64 entries); each value is
# one past its bound and exits before any work


@pytest.mark.parametrize(
    "argv",
    [
        ("mesh", "info", "--family", "uniform", "--M", "46"),
        ("semi", "curve", "--family", "uniform", "--M", "4", "--per-decade", "8193"),
        ("semi", "threshold", "--family", "uniform", "--M", "4",
         "--scan-start", "1", "--scan-stop", "10", "--per-decade", "8192"),
        ("kernel", "ulambda", "--lambda", "1", "--t", "1", "--mu", "exp", "--quad-order", "8193"),
        ("kernel", "weights", "--tau", "1", "--n", "8192"),
        ("fully", "contractivity", "--family", "uniform", "--M", "4", "--n-max", "8192"),
        ("fully", "converge", "--family", "uniform", "--M", "2", "--n-exp", "4", "13"),
        ("fully", "converge", "--family", "uniform", "--M", "2", "--n-exp", "13", "14"),
        ("reproduce", "--figure", "2", "--h0", "0"),
        ("reproduce", "--figure", "2", "--h0", "nan"),
        ("reproduce", "--figure", "2", "--h0", "0.51"),
        ("reproduce", "--figure", "2", "--h0", "0.022"),
    ],
    ids=[
        "M", "per-decade", "scan-points", "quad-order", "n", "n-max", "n-exp-hi", "n-exp-lo",
        "h0-zero", "h0-nan", "h0-coarse", "h0-fine",
    ],
)
def test_values_past_their_bound_exit_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRACPOS_OUTDIR", raising=False)
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_numerical_failure_maps_to_exit_one(monkeypatch, capsys):
    def boom(*a, **kw):
        raise NoConvergence("synthetic")

    monkeypatch.setattr(kernel, "u_lambda", boom)
    assert run_cli("kernel", "ulambda", "--lambda", "1.0", "--t", "1.0") == 1
    assert "numerical failure: synthetic" in capsys.readouterr().err


# output plumbing


def test_identical_runs_are_byte_identical(tmp_path, capsys):
    args = (
        "semi", "curve", "--family", "uniform", "--M", "4", "--methods", "sg",
        "--scan-start", "1e-4", "--scan-stop", "1.0", "--per-decade", "5",
    )
    assert run_cli(*args, "--outdir", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--outdir", str(tmp_path / "b")) == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "semi_curve_sg.csv").read_bytes()
    second = (tmp_path / "b" / "semi_curve_sg.csv").read_bytes()
    assert first == second
    assert first.startswith(b"# fracpos 0.1.0 config=")


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[mesh]\nfamily = uniform\nm = 4\n"
        "[scan]\nstart = 1e-4\nstop = 1.0\nper_decade = 5\n"
        "[run]\nmethods = sg\noutdir = %s\n" % (tmp_path / "from_cfg")
    )
    assert run_cli("semi", "curve", "--config", str(cfg)) == 0
    assert (tmp_path / "from_cfg" / "semi_curve_sg.csv").exists()
    # explicit flags win over the file
    assert run_cli(
        "semi", "curve", "--config", str(cfg), "--outdir", str(tmp_path / "cli_wins")
    ) == 0
    assert (tmp_path / "cli_wins" / "semi_curve_sg.csv").exists()
    capsys.readouterr()
    assert run_cli("semi", "curve", "--config", str(tmp_path / "absent.ini")) == 2


def test_config_eps_rejected_for_non_sliver(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[mesh]\nfamily = uniform\nm = 4\neps = 0.1\n")
    assert run_cli("mesh", "info", "--config", str(cfg)) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("[operator]\nalpha = abc\n", ("kernel", "ulambda", "--lambda", "1", "--t", "1"),
         "config key operator.alpha: cannot read 'abc'"),
        ("[mesh]\nfamily = bogus\nm = 4\n", ("mesh", "info"), "config key mesh.family: 'bogus'"),
        ("[mesh]\nm = 46\n", ("mesh", "info", "--family", "uniform"), "config key mesh.m: 46"),
        ("[mesh\nfamily = uniform\n", ("mesh", "info", "--family", "uniform", "--M", "4"),
         "config file "),
        ("[scan]\nper-decade = 5\n", ("semi", "curve", "--family", "uniform", "--M", "4"),
         "config key scan.per-decade: not one of"),
        ("[extra]\nper_decade = 5\n", ("semi", "curve", "--family", "uniform", "--M", "4"),
         "config key extra.per_decade: not one of"),
        ("[DEFAULT]\nper_decade = 5\n", ("semi", "curve", "--family", "uniform", "--M", "4"),
         "config key DEFAULT.per_decade: not one of"),
    ],
    ids=[
        "bad-float", "bad-choice", "above-bound", "malformed", "unknown-key", "unknown-section",
        "default-section",
    ],
)
def test_config_values_get_the_flag_checks(
    text, argv, message, tmp_path, capsys, monkeypatch
):
    # a file value is parsed by its option's type, choices and bounds, and a
    # key that names no option is an error, not silently dropped
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRACPOS_OUTDIR", raising=False)
    (tmp_path / "run.ini").write_text(text)
    assert run_cli(*argv, "--config", "run.ini") == 2
    assert "error: " + message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


def test_outdir_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRACPOS_OUTDIR", str(tmp_path / "env"))
    assert run_cli("mesh", "gen", "--family", "equilateral", "--M", "3") == 0
    capsys.readouterr()
    assert (tmp_path / "env" / "equilateral_M3.node").exists()


# verdict commands


def test_semi_certify_uniform(capsys):
    assert run_cli("semi", "certify", "--family", "uniform", "--M", "4") == 0
    out = capsys.readouterr().out
    assert "delaunay: true" in out
    assert "normal: true" in out
    assert "lm: stiffness stieltjes=True" in out
    assert "nonnegative for every t and tau (delaunay mesh)" in out
    assert "sg: " in out and "positivity threshold exists (H^-1 > 0)" in out


def test_semi_certify_sliver_lm(capsys):
    rc = run_cli("semi", "certify", "--family", "sliver", "--M", "10", "--methods", "lm")
    assert rc == 0
    out = capsys.readouterr().out
    assert "delaunay: false" in out
    assert "H^-3 > 0 but H^-1 is not; no certificate" in out


def test_semi_threshold_writes_report(tmp_path, capsys):
    rc = run_cli(
        "semi", "threshold", "--family", "uniform", "--M", "4", "--methods", "sg",
        "--outdir", str(tmp_path),
    )
    assert rc == 0
    assert "sg single(0.5): " in capsys.readouterr().out
    text = (tmp_path / "semi_threshold_sg.csv").read_text()
    assert "t,min_entry" in text
    assert '# threshold {"' in text
    assert '"status": "found"' in text


def test_fully_threshold_crossed_lm(tmp_path, capsys):
    rc = run_cli(
        "fully", "threshold", "--family", "crossed", "--M", "3", "--methods", "lm",
        "--outdir", str(tmp_path),
    )
    assert rc == 0
    assert "lm single(0.5): " in capsys.readouterr().out
    assert '"status": "found"' in (tmp_path / "fully_threshold_lm.csv").read_text()


def test_fully_threshold_exits_1_when_curve_contradicts_bisection(
    tmp_path, capsys, monkeypatch
):
    # -E_{1,tau} on (0.1, 1): negative again after the bisected change
    scan_threshold = fullydiscrete.scan_threshold

    def dipping_scan(system, op, coeffs, scan, tol, monotone):
        def dipped(taus):
            flip = np.where((taus > 0.1) & (taus < 1.0), -1.0, 1.0)
            return flip[:, None] * coeffs(taus)

        return scan_threshold(system, op, dipped, scan, tol, monotone=monotone)

    monkeypatch.setattr(fullydiscrete, "scan_threshold", dipping_scan)
    rc = run_cli(
        "fully", "threshold", "--family", "uniform", "--M", "4", "--methods", "sg",
        "--outdir", str(tmp_path),
    )
    assert rc == 1
    out, err = capsys.readouterr()
    assert "numerical failure: sg single(0.5): full curve gives found" in err
    assert out == ""
    assert not (tmp_path / "fully_threshold_sg.csv").exists()


def test_fully_threshold_all_nonnegative_distributed_writes_curve(tmp_path, capsys):
    # reading the curve of an all-nonnegative scan reduces every decade of
    # the grid, then the rows of an empty head
    rc = run_cli(
        "fully", "threshold", "--family", "uniform", "--M", "10", "--methods", "lm",
        "--mu", "exp", "--outdir", str(tmp_path),
    )
    assert rc == 0
    assert "all-nonnegative" in capsys.readouterr().out
    lines = (tmp_path / "fully_threshold_lm.csv").read_text().splitlines()
    rows = [line for line in lines if line and line[0].isdigit()]
    assert len(rows) == ScanSpec().grid().size
    assert '"status": "all-nonnegative"' in lines[-1]


@pytest.mark.parametrize("cmd", ["semi", "fully"])
@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"), ("--scan-stop", "inf")],
)
def test_threshold_rejects_bad_tolerance_or_scan_end(
    cmd, flag, value, tmp_path, capsys
):
    # a nan tolerance compares false everywhere (a silent all-nonnegative),
    # a negative one makes zeros negative; an infinite scan has no grid
    rc = run_cli(
        cmd, "threshold", "--family", "uniform", "--M", "6", "--methods", "sg",
        flag, value, "--outdir", str(tmp_path),
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fully_converge(tmp_path, capsys):
    rc = run_cli(
        "fully", "converge", "--family", "uniform", "--M", "2", "--methods", "lm",
        "--n-exp", "4", "7", "--outdir", str(tmp_path),
    )
    assert rc == 0
    assert "rate " in capsys.readouterr().out
    assert "# rate " in (tmp_path / "converge_lm.csv").read_text()
    assert run_cli(
        "fully", "converge", "--family", "uniform", "--M", "2", "--n-exp", "5", "2"
    ) == 2
    capsys.readouterr()


def test_fully_contractivity(tmp_path, capsys):
    rc = run_cli(
        "fully", "contractivity", "--family", "uniform", "--M", "4",
        "--methods", "lm", "--tau", "1e-2", "--n-max", "10",
        "--outdir", str(tmp_path),
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "stiffness diagonally dominant: true" in out
    assert "contractive=true" in out
    assert (tmp_path / "contractivity_lm.csv").exists()


# reproduce


def test_reproduce_table2_default_level(tmp_path, capsys):
    assert run_cli("reproduce", "--table", "2", "--outdir", str(tmp_path)) == 0
    capsys.readouterr()
    lines = (tmp_path / "table2.csv").read_text().strip().splitlines()
    assert lines[1] == "method,h0,h,operator,sd_threshold,fd_threshold"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 9  # one level x three methods x three operators
    by_key = {(r[0], r[3]): r for r in rows}
    cell = by_key[("lm", "single-0.5")]
    assert float(cell[1]) == pytest.approx(0.1)  # h0 of the M=5 member
    assert float(cell[4]) == pytest.approx(1.17e-4, rel=0.10)
    assert float(cell[5]) == pytest.approx(2.21e-4, rel=0.10)


def test_reproduce_validation(capsys):
    assert run_cli("reproduce") == 2  # neither table nor figure
    assert run_cli("reproduce", "--table", "1", "--figure", "2") == 2
    assert run_cli("reproduce", "--table", "9") == 2
    assert run_cli("reproduce", "--table", "2", "--levels", "7") == 2
    assert run_cli("reproduce", "--table", "2", "--levels", "20") == 2  # gated
    err = capsys.readouterr().err
    assert "needs --long-run" in err


def test_reproduce_rejects_flags_of_the_other_mode(capsys):
    assert run_cli("reproduce", "--table", "2", "--h0", "0.3") == 2
    assert run_cli("reproduce", "--figure", "3", "--levels", "40", "--long-run") == 2
    assert run_cli("reproduce", "--figure", "3", "--long-run") == 2
    assert capsys.readouterr().err.count("error:") == 3


def test_reproduce_has_no_threads_flag():
    # tables run their cells in one loop; the removed pool size is an argparse error
    with pytest.raises(SystemExit) as exc:
        run_cli("reproduce", "--table", "2", "--threads", "2")
    assert exc.value.code == 2


def test_reproduce_figure3_smoke(tmp_path, capsys):
    rc = run_cli(
        "reproduce", "--figure", "3", "--h0", "0.25",
        "--scan-start", "1e-6", "--scan-stop", "1e2", "--per-decade", "5",
        "--outdir", str(tmp_path),
    )
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "figure3.csv").read_text().strip().splitlines()
    assert lines[1] == "t,heat_lm,single-0.5_lm,fully_single-0.5_lm"
    assert len(lines) == 2 + 41  # header, columns, 8 decades x 5 + 1 points
    # both dip negative on the non-delaunay mesh, but the heat column decays
    # to roundoff by the end of the scan while the fractional one is still
    # materially negative (algebraic memory of the early violation)
    heat = [float(ln.split(",")[1]) for ln in lines[2:]]
    frac = [float(ln.split(",")[2]) for ln in lines[2:]]
    fully = [float(ln.split(",")[3]) for ln in lines[2:]]
    assert min(heat) < -1e-3 and min(frac) < -1e-3 and min(fully) < -1e-3
    assert abs(heat[-1]) < 1e-12
    assert frac[-1] < -1e-9


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fracpos.cli", "kernel", "weights", "--tau", "0.5", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "j,omega_j" in proc.stdout
    assert proc.stdout.splitlines()[2] == "0,%r" % 2.0 ** 0.5  # (1/tau)^{1/2}


def test_threshold_commands_do_not_import_scipy(tmp_path):
    # scipy serves only the stepping oracle and the Mittag-Leffler
    # quadrature; thresholds, certificates, contractivity and the kernel
    # rows and weights run on numpy
    script = (
        "import sys\n"
        "from fracpos import cli\n"
        "mesh = ['--family', 'uniform', '--M', '4', '--outdir', sys.argv[1]]\n"
        "for cmd in (['semi', 'threshold'], ['fully', 'threshold']):\n"
        "    assert cli.main(cmd + mesh + ['--methods', 'sg']) == 0\n"
        "assert cli.main(['fully', 'contractivity'] + mesh + ['--methods', 'lm']) == 0\n"
        "assert cli.main(['reproduce', '--table', '3', '--outdir', sys.argv[1]]) == 0\n"
        "assert cli.main(['semi', 'certify'] + mesh) == 0\n"
        "assert cli.main(['kernel', 'ulambda', '--lambda', '2', '--t', '0.1']) == 0\n"
        "assert cli.main(['kernel', 'weights', '--mu', 'exp', '--tau', '0.1', '--n', '4']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
