"""End-to-end runs of the command line driver (in-process via main)."""

import ast
import errno
import importlib
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fracpos import cli, fem, fullydiscrete, kernel, mesh, semidiscrete
from fracpos.errors import ContourFailure, FracposError, NoConvergence
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


def test_mesh_info_builds_one_edge_table(monkeypatch, capsys):
    # validate_mesh, delaunay_edges, the normality test and mesh_size all
    # read the table held on the mesh; bundled files carry boundary flags,
    # so no table is built to derive them
    built = []
    edge_table = mesh.edge_table
    monkeypatch.setattr(mesh, "edge_table", lambda tris: built.append(1) or edge_table(tris))
    assert run_cli("mesh", "info", "--bundled", "disk_coarse") == 0
    assert "delaunay: true" in capsys.readouterr().out
    assert len(built) == 1


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


DISK_COARSE = os.path.join(os.path.dirname(mesh.__file__), "meshes", "disk_coarse")


@pytest.mark.parametrize("argv, message", [
    (("kernel", "ulambda", "--alpha", "0.5", "0.2", "--weights", "1", "--lambda", "1",
      "--t", "1"), "weights and exponents differ in length"),
    (("mesh", "info", "--node", DISK_COARSE + ".node"), "--node and --ele go together"),
    (("mesh", "gen", "--node", DISK_COARSE + ".node", "--ele", DISK_COARSE + ".ele"),
     "mesh gen works on generated families; use mesh info for files"),
    (("reproduce", "--figure", "4"), "--figure takes 2 or 3"),
], ids=["alpha-weights", "node-without-ele", "gen-from-files", "figure-4"])
def test_rules_across_flags_exit_2_with_one_line(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRACPOS_OUTDIR", raising=False)
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert not list(tmp_path.iterdir())


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


def _uniform_m3_files(tmp_path):
    node, ele = tmp_path / "u3.node", tmp_path / "u3.ele"
    mesh.save_triangle_format(mesh.gen_uniform_square(3), str(node), str(ele))
    return node, ele


def test_file_mesh_with_wrong_boundary_markers_exits_2(tmp_path, capsys):
    # corner node (0, 0) marked interior: solved as given, the corner would
    # become an unknown of a different problem
    node, ele = _uniform_m3_files(tmp_path)
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


def test_file_mesh_that_is_not_text_exits_2(tmp_path, capsys):
    node, ele = _uniform_m3_files(tmp_path)
    node.write_bytes(node.read_bytes() + b"\xff")
    assert run_cli("mesh", "info", "--node", str(node), "--ele", str(ele)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: %s: not a text file (" % node)


def test_file_mesh_with_a_node_in_no_triangle_exits_2(tmp_path, capsys):
    # the extra node lies on no edge, so it would pass as interior, and
    # its zero mass row would only fail at assembly
    node, ele = _uniform_m3_files(tmp_path)
    lines = node.read_text().splitlines()
    lines[0] = "17 2 0 1"
    lines.append("17 0.5 0.5 0")
    node.write_text("\n".join(lines) + "\n")
    files = ("--node", str(node), "--ele", str(ele))
    assert run_cli("mesh", "info", *files) == 2
    assert capsys.readouterr() == ("", "error: 1 node(s) in no triangle\n")
    rc = run_cli("semi", "threshold", *files, "--methods", "lm", "--outdir", str(tmp_path))
    assert rc == 2
    assert capsys.readouterr() == ("", "error: 1 node(s) in no triangle\n")
    assert not (tmp_path / "semi_threshold_lm.csv").exists()


def test_file_mesh_that_folds_exits_2(tmp_path, capsys):
    # moving the center node of uniform M=4 past its neighbours inverts one
    # triangle; reoriented, it overlaps a neighbour along their shared edge
    base = mesh.gen_uniform_square(4)
    nodes = base.nodes.copy()
    center = np.flatnonzero(np.all(nodes == 0.5, axis=1))
    nodes[center] = (0.81, 0.61)
    folded = mesh.TriMesh(nodes=nodes, triangles=base.triangles, boundary=base.boundary)
    node, ele = str(tmp_path / "f.node"), str(tmp_path / "f.ele")
    mesh.save_triangle_format(folded, node, ele)
    files = ("--node", node, "--ele", ele)
    message = (
        "error: triangles at index 13 and 20 overlap along edge (4, 5) "
        "(0-based node ids, interior nodes first)\n"
    )
    assert run_cli("mesh", "info", *files) == 2
    assert capsys.readouterr() == ("", message)
    rc = run_cli("semi", "threshold", *files, "--methods", "sg", "lm", "--outdir", str(tmp_path))
    assert rc == 2
    assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "semi_threshold_sg.csv").exists()


@pytest.mark.parametrize("row, line, message", [
    (0, "1 inf 0.33333333333333331 0", "non-finite node coordinates"),
    (0, "1 -1e308 0.33333333333333331 0", "node coordinate of size 1e+308, above 1e+100"),
    (7, "8 1e308 0 1", "node coordinate of size 1e+308, above 1e+100"),
], ids=["inf", "minus-1e308", "boundary-1e308"])
def test_file_mesh_coordinates_past_the_bound_exit_2(row, line, message, tmp_path, capsys):
    # rejected before any area is formed: no overflow warning, no h of 309 digits
    node, ele = _uniform_m3_files(tmp_path)
    lines = node.read_text().splitlines()
    assert lines[1 + row].split()[0] == line.split()[0]
    lines[1 + row] = line
    node.write_text("\n".join(lines) + "\n")
    files = ("--node", str(node), "--ele", str(ele))
    assert run_cli("mesh", "info", *files) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    rc = run_cli("semi", "threshold", *files, "--methods", "sg", "lm", "--outdir", str(tmp_path))
    assert rc == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


# a valid triangle: three 1-based nodes with boundary markers, one element
NODE = "3 2 0 1\n1 0 0 1\n2 1 0 1\n3 0 1 1\n"
ELE = "1 3 0\n1 1 2 3\n"
MISSING = "cannot open %s: " + os.strerror(errno.ENOENT)


@pytest.mark.parametrize("node, ele, message", [
    pytest.param(None, ELE, MISSING % "{node}", id="node-missing"),
    pytest.param("# comment only\n\n", ELE, "{node}: empty file", id="node-empty"),
    pytest.param(
        "3 2 0\n1 0 0\n2 1 0\n3 0 1\n", ELE, "{node}:1: node header needs 4 fields",
        id="node-header-fields",
    ),
    pytest.param(
        "# header\n3 2 0 x\n1 0 0 1\n", ELE, "{node}:2: expected integers",
        id="node-header-integers",
    ),
    pytest.param(
        NODE.replace("3 2", "3 3", 1), ELE, "{node}:1: only 2-d meshes supported", id="node-dim"
    ),
    pytest.param(
        NODE.replace("3 2", "4 2", 1), ELE, "{node}: header says 4 nodes, found 3",
        id="node-count",
    ),
    pytest.param(
        "0 2 0 0\n", ELE, "{node}:1: header says 0 nodes, need at least 1", id="node-zero"
    ),
    pytest.param(
        NODE.replace("1 0 0 1", "1 0 0"), ELE, "{node}:2: expected 4 fields, got 3",
        id="node-fields",
    ),
    pytest.param(
        NODE.replace("1 0 0 1", "a 0 0 1"), ELE, "{node}:2: expected integers", id="node-id"
    ),
    pytest.param(
        NODE.replace("\n1 0 0 1", "\n\n1 x 0 1"), ELE, "{node}:3: bad coordinate",
        id="node-coordinate",
    ),
    pytest.param(
        NODE.replace("1 0 0 1", "1 0 0 b"), ELE, "{node}:2: expected integers",
        id="node-marker",
    ),
    pytest.param(
        "3 2 0 1\n2 0 0 1\n3 1 0 1\n4 0 1 1\n", ELE,
        "{node}: node indices must start at 0 or 1", id="node-base",
    ),
    pytest.param(
        NODE.replace("2 1 0 1", "1 1 0 1"), ELE, "{node}: node indices must cover 0..2",
        id="node-cover",
    ),
    pytest.param(
        NODE.replace("1 0 0 1", "1 nan 0 1"), ELE, "non-finite node coordinates",
        id="node-nan",
    ),
    pytest.param(
        NODE.replace("3 0 1 1", "3 1 0 1"), ELE, "duplicate nodes within 1e-12",
        id="node-duplicate",
    ),
    pytest.param(NODE, None, MISSING % "{ele}", id="ele-missing"),
    pytest.param(NODE, "\n# nothing\n", "{ele}: empty file", id="ele-empty"),
    pytest.param(
        NODE, "1 3\n1 1 2 3\n", "{ele}:1: ele header needs 3 fields", id="ele-header-fields"
    ),
    pytest.param(
        NODE, "1 3 z\n1 1 2 3\n", "{ele}:1: expected integers", id="ele-header-integers"
    ),
    pytest.param(
        NODE, "1 6 0\n1 1 2 3\n", "{ele}:1: only 3-node triangles supported", id="ele-npe"
    ),
    pytest.param(
        NODE, "2 3 0\n1 1 2 3\n", "{ele}: header says 2 triangles, found 1", id="ele-count"
    ),
    pytest.param(
        NODE, "0 3 0\n", "{ele}:1: header says 0 triangles, need at least 1", id="ele-zero"
    ),
    pytest.param(NODE, "1 3 0\n1 1 2\n", "{ele}:2: expected 4 fields", id="ele-fields"),
    pytest.param(NODE, "1 3 0\nq 1 2 3\n", "{ele}:2: expected integers", id="ele-id"),
    pytest.param(
        NODE, "1 3 0 # one\n1 1 2 x\n", "{ele}:2: expected integers", id="ele-vertex"
    ),
    pytest.param(
        NODE, "1 3 0\n\n1 1 2 9\n", "{ele}:3: node index out of range", id="ele-range"
    ),
])
def test_mesh_info_reports_each_parse_error(node, ele, message, tmp_path, capsys):
    paths = {"node": str(tmp_path / "t.node"), "ele": str(tmp_path / "t.ele")}
    for kind, text in (("node", node), ("ele", ele)):
        if text is not None:
            pathlib.Path(paths[kind]).write_text(text)
    assert run_cli("mesh", "info", "--node", paths["node"], "--ele", paths["ele"]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message.format(**paths))


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


def test_kernel_weights_exits_1_on_non_finite_weights(capsys):
    # omega_0 = 1/tau overflows for the heat symbol; omega_1 = -inf and
    # omega_2 = nan follow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli("kernel", "weights", "--alpha", "1", "--tau", "1e-320", "--n", "2")
    assert rc == 1
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: omega_0 = inf at tau = 1e-320\n"


def test_kernel_mittag(capsys):
    assert run_cli("kernel", "mittag", "--alpha", "0.5", "--x", "-1.0") == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(last.split(",")[1]) == pytest.approx(0.427583576155807, rel=1e-9)
    # the branch-cut integral stays finite far out: 1 / (y Gamma(1/2))
    assert run_cli("kernel", "mittag", "--alpha", "0.5", "--x=-1e155") == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(last.split(",")[1]) == pytest.approx(5.641895835477563e-156, rel=1e-15)
    # s^(1/alpha) overflows in the branch-cut integrand at small alpha, and
    # E_alpha(-y) is near its alpha -> 0 limit 1 / (1 + y)
    assert run_cli("kernel", "mittag", "--alpha", "1e-3", "--x", "-1.0", "-16.0") == 0
    rows = capsys.readouterr().out.strip().splitlines()[-2:]
    values = [float(row.split(",")[1]) for row in rows]
    assert values == pytest.approx([0.5, 1.0 / 17.0], rel=1e-3)
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


def test_kernel_mittag_takes_negative_exponent_values(capsys):
    # argparse's own pattern reads -1e8 as an unknown option
    assert run_cli("kernel", "mittag", "--alpha", "0.5", "--x", "-0.5", "-1e8", "-1e20") == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    single = []
    for x in ("-0.5", "-1e8", "-1e20"):
        assert run_cli("kernel", "mittag", "--alpha", "0.5", "--x=" + x) == 0
        single.extend(capsys.readouterr().out.splitlines()[2:])
    assert len(rows) == 3
    assert rows == single


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
    # omega_0 = 1/tau for the heat symbol overflows below tau = 5.6e-309,
    # so every first-step row is nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(
            "fully", "threshold", "--family", "uniform", "--M", "4", "--methods", "sg",
            "--alpha", "1", "--scan-start", "1e-320", "--scan-stop", "1e-310",
            "--outdir", str(tmp_path),
        )
    assert rc == 1
    assert caught == []
    assert os.listdir(tmp_path) == []
    out, err = capsys.readouterr()
    assert "all-nonnegative" not in out
    assert "numerical failure" in err and "nan at x = 1e-320" in err


def test_fully_threshold_takes_tiny_steps_through_real_powers(tmp_path, capsys):
    # omega_0 = tau^{-1/2} stays finite (1e160 at tau = 1e-320) where 1/tau
    # has overflowed, and E_{1,tau} is then nearly the identity
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(
            "fully", "threshold", "--family", "uniform", "--M", "4", "--methods", "sg",
            "--scan-start", "1e-320", "--scan-stop", "1e-310", "--outdir", str(tmp_path),
        )
    assert rc == 0
    assert caught == []
    out, _ = capsys.readouterr()
    assert out.startswith("sg single(0.5): all-nonnegative")


def test_fully_threshold_from_a_tiny_scan_start(tmp_path, capsys):
    # E_{1,tau} -> I as tau -> 0, so the low end reads nonnegative under
    # the floor; the scan reads top-down and its curve agrees
    rc = run_cli(
        "fully", "threshold", "--family", "uniform", "--M", "10", "--methods", "sg",
        "--scan-start", "1e-30", "--outdir", str(tmp_path),
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith("sg single(0.5): 2.78e-05")


def test_semi_threshold_reads_the_kernel_at_tiny_times(tmp_path, capsys):
    # E(t) = I - beta0(t) H + ...: at alpha = 0.1 sg goes negative only
    # below t = 4.34e-23, where the scan reads the kernel, not E = I
    rc = run_cli(
        "semi", "threshold", "--family", "uniform", "--M", "10", "--methods", "sg",
        "--alpha", "0.1", "--scan-start", "1e-30", "--outdir", str(tmp_path),
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith("sg single(0.1): 4.34e-23")


def test_semi_threshold_below_the_kernel_gate_exits_1(tmp_path, capsys, monkeypatch):
    # single(0.5)'s contour fails its lambda = 0 check at t <= 1e-203:
    # the scan's one whole-grid read names the time, before any refinement
    # step, and no curve is written
    detect_threshold = semidiscrete.detect_threshold
    steps = []

    def counting_detect(grid, mins, value_fn, tol):
        return detect_threshold(grid, mins, lambda x: steps.append(x) or value_fn(x), tol)

    monkeypatch.setattr(semidiscrete, "detect_threshold", counting_detect)
    rc = run_cli(
        "semi", "threshold", "--family", "uniform", "--M", "10", "--methods", "sg",
        "--scan-start", "1e-250", "--outdir", str(tmp_path),
    )
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: lambda = 0 defect") and "at t = " in err
    assert os.listdir(tmp_path) == []
    assert steps == []


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


def test_config_hash_is_sha256():
    import hashlib

    parts = {"method": "sg", "scan": (1e-4, 1.0, 5), "family": "uniform"}
    text = "family=uniform;method=sg;scan=(0.0001, 1.0, 5)"
    assert cli._config_hash(parts) == hashlib.sha256(text.encode()).hexdigest()[:12]


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
        ("[mesh]\nm =\n", ("mesh", "info", "--family", "uniform"), "config key mesh.m: no value"),
    ],
    ids=[
        "bad-float", "bad-choice", "above-bound", "malformed", "unknown-key", "unknown-section",
        "default-section", "empty-value",
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
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


def test_outdir_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRACPOS_OUTDIR", str(tmp_path / "env"))
    assert run_cli("mesh", "gen", "--family", "equilateral", "--M", "3") == 0
    capsys.readouterr()
    assert (tmp_path / "env" / "equilateral_M3.node").exists()


@pytest.mark.parametrize("sub", ["", "sub"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_outdir_that_cannot_be_a_directory_exits_2(sub, via, tmp_path, capsys, monkeypatch):
    # an existing file, or a path under one
    afile = tmp_path / "afile"
    afile.write_text("x\n")
    out = str(afile / sub) if sub else str(afile)
    args = ["mesh", "gen", "--family", "uniform", "--M", "3"]
    if via == "flag":
        args += ["--outdir", out]
    else:
        monkeypatch.setenv("FRACPOS_OUTDIR", out)
    assert run_cli(*args) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot use output directory %r: " % out)
    assert afile.read_text() == "x\n"


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


def test_semi_certify_lm_on_a_stieltjes_non_delaunay_mesh(tmp_path, capsys):
    # equilateral M=8 with boundary node 58 moved 0.675 of the way to the
    # midpoint of edge (0, 50): that edge, which touches the boundary,
    # fails the angle test by 0.0218, yet S stays Stieltjes, so lm is
    # nonnegative at every t and tau
    base = mesh.gen_equilateral_rhombus(8)
    nodes = base.nodes.copy()
    nodes[58] += 0.675 * (0.5 * (nodes[0] + nodes[50]) - nodes[58])
    moved = mesh.TriMesh(nodes=nodes, triangles=base.triangles, boundary=base.boundary)
    edges, angles, delaunay = mesh.delaunay_edges(moved)
    (bad,) = np.flatnonzero(~delaunay)
    assert tuple(edges[bad]) == (0, 50)
    assert angles[bad].sum() - np.pi == pytest.approx(0.0218, abs=1e-4)
    node, ele = str(tmp_path / "rhombus.node"), str(tmp_path / "rhombus.ele")
    mesh.save_triangle_format(moved, node, ele)
    files = ("--node", node, "--ele", ele)
    assert run_cli("mesh", "info", *files) == 0
    assert "delaunay: false (1 edges fail)" in capsys.readouterr().out
    assert run_cli("semi", "certify", *files) == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = {line.split(":")[0]: line.split(" -> ")[1] for line in lines[2:]}
    assert "lm: stiffness stieltjes=True" in lines[3]
    assert verdicts == {
        "sg": "positivity threshold exists (H^-1 > 0)",
        "lm": "nonnegative for every t and tau (stieltjes stiffness)",
        "fve": "positivity threshold exists (H^-1 > 0)",
    }
    for command in ("semi", "fully"):
        rc = run_cli(
            command, "threshold", *files, "--methods", "lm", "--scan-start", "1e-30",
            "--scan-stop", "1e4", "--outdir", str(tmp_path),
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("lm single(0.5): all-nonnegative")


def test_semi_certify_lm_on_a_mesh_with_one_interior_non_delaunay_edge(tmp_path, capsys):
    # equilateral M=8 with boundary node 51 moved 0.68 of the way to the
    # midpoint of edge (0, 1): that edge, between two interior nodes, fails
    # the angle test by 0.035, S loses its Stieltjes sign pattern, and lm
    # has a positivity threshold in both schemes
    base = mesh.gen_equilateral_rhombus(8)
    nodes = base.nodes.copy()
    nodes[51] += 0.68 * (0.5 * (nodes[0] + nodes[1]) - nodes[51])
    moved = mesh.TriMesh(nodes=nodes, triangles=base.triangles, boundary=base.boundary)
    edges, angles, delaunay = mesh.delaunay_edges(moved)
    (bad,) = np.flatnonzero(~delaunay)
    assert tuple(edges[bad]) == (0, 1)
    assert not moved.boundary[edges[bad]].any()
    assert angles[bad].sum() - np.pi == pytest.approx(0.035, abs=1e-3)
    node, ele = str(tmp_path / "rhombus.node"), str(tmp_path / "rhombus.ele")
    mesh.save_triangle_format(moved, node, ele)
    files = ("--node", node, "--ele", ele)
    assert run_cli("mesh", "info", *files) == 0
    assert "delaunay: false (1 edges fail)" in capsys.readouterr().out
    assert run_cli("semi", "certify", *files, "--methods", "lm") == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        "lm: stiffness stieltjes=False H^-1>0=True (min 2.596e-07) eventual_power=1"
        " -> positivity threshold exists (H^-1 > 0)"
    )
    for command, value in (("semi", "1.41e-06"), ("fully", "1.47e-06")):
        rc = run_cli(command, "threshold", *files, "--methods", "lm", "--outdir", str(tmp_path))
        assert rc == 0
        assert capsys.readouterr().out.startswith("lm single(0.5): %s  [" % value)


def test_semi_certify_without_dump_creates_no_outdir(tmp_path, capsys):
    out = tmp_path / "newdir"
    rc = run_cli("semi", "certify", "--family", "uniform", "--M", "3", "--outdir", str(out))
    assert rc == 0
    assert "wrote" not in capsys.readouterr().out
    assert not out.exists()


def test_semi_certify_dumps_the_assembled_matrices(tmp_path, capsys):
    rc = run_cli(
        "semi", "certify", "--family", "sliver", "--M", "6", "--dump-matrices",
        "--outdir", str(tmp_path),
    )
    assert rc == 0
    out = capsys.readouterr().out
    m = mesh.gen_sliver_square(6)
    for method in fem.METHODS:
        for label, matrix in (
            ("mass", fem.assemble_mass(m, method)), ("stiffness", fem.assemble_stiffness(m))
        ):
            path = tmp_path / ("%s_%s.csv" % (label, method))
            assert "wrote %s" % path in out
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# fracpos 0.1.0 config=")
            assert lines[1] == ",".join("c%d" % j for j in range(matrix.shape[1]))
            dumped = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
            np.testing.assert_array_equal(dumped, matrix)


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



@pytest.mark.parametrize(
    "source, method",
    [(("--family", "uniform", "--M", "10"), m) for m in fem.METHODS]
    + [(("--bundled", "disk_medium"), "sg")],
    ids=["uniform10-sg", "uniform10-lm", "uniform10-fve", "disk_medium-sg"],
)
def test_semi_threshold_writes_the_semi_curve(source, method, tmp_path, capsys):
    # a command that writes a curve reads the whole grid once, so the
    # threshold command's curve is the curve command's, bit for bit
    for cmd in ("threshold", "curve"):
        out = str(tmp_path / cmd)
        assert run_cli("semi", cmd, *source, "--methods", method, "--outdir", out) == 0
    capsys.readouterr()
    rows = []
    for cmd in ("threshold", "curve"):
        lines = (tmp_path / cmd / ("semi_%s_%s.csv" % (cmd, method))).read_text().splitlines()
        rows.append([line for line in lines[2:] if not line.startswith("#")])
    assert len(rows[1]) == ScanSpec().points
    assert rows[0] == rows[1]

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
    # -E_{1,tau} on (0.1, 1): negative again after the first change.  The
    # command reads the whole grid once and decides from it, so it reports
    # the last change, at 1, and its curve holds the dip
    scan_threshold = fullydiscrete.scan_threshold

    def dipping_scan(system, op, coeffs, scan, tol, monotone, curve):
        def dipped(taus):
            flip = np.where((taus > 0.1) & (taus < 1.0), -1.0, 1.0)
            return flip[:, None] * coeffs(taus)

        return scan_threshold(system, op, dipped, scan, tol, monotone=monotone, curve=curve)

    monkeypatch.setattr(fullydiscrete, "scan_threshold", dipping_scan)
    rc = run_cli(
        "fully", "threshold", "--family", "uniform", "--M", "4", "--methods", "sg",
        "--outdir", str(tmp_path),
    )
    assert rc == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("sg single(0.5): ")
    assert float(out.split()[2]) == pytest.approx(1.0, rel=2e-3)
    data = np.loadtxt(tmp_path / "fully_threshold_sg.csv", delimiter=",", comments="#", skiprows=2)
    taus, mins = data[:, 0], data[:, 1]
    assert (mins[(taus > 0.1) & (taus < 1.0)] < 0.0).all()
    assert (mins[taus > 1.0] >= 0.0).all()


def test_fully_threshold_all_nonnegative_distributed_writes_curve(tmp_path, capsys):
    # an all-nonnegative scan reads nonnegative at its low end, so it reads
    # the whole grid top-down, and its curve is that read
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


@pytest.mark.parametrize(
    "cmd", [("semi", "threshold"), ("fully", "threshold"), ("semi", "curve")], ids=" ".join
)
def test_scan_range_past_the_grid_cap_exits_2(cmd, tmp_path, capsys):
    # 330 decades at 25 points each is 8251 points, above the 8192 cap,
    # though stop / start itself overflows to inf
    rc = run_cli(
        *cmd, "--family", "uniform", "--M", "6", "--methods", "sg",
        "--scan-start", "1e-30", "--scan-stop", "1e300", "--outdir", str(tmp_path),
    )
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("error:") == 1
    assert "8251 points" in err
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


@pytest.mark.parametrize("t", ["0", "-1", "inf", "nan"])
def test_fully_converge_holds_t_positive(t, tmp_path, capsys):
    rc = run_cli(
        "fully", "converge", "--family", "uniform", "--M", "2", "--methods", "lm",
        "--t=" + t, "--outdir", str(tmp_path),
    )
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --t wants a positive finite time, got %r\n" % float(t)
    assert not list(tmp_path.iterdir())


def test_fully_converge_runs_every_method(tmp_path, capsys):
    rc = run_cli(
        "fully", "converge", "--family", "uniform", "--M", "2", "--outdir", str(tmp_path)
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == list(fem.METHODS)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        "converge_%s.csv" % method for method in fem.METHODS
    )


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


def test_fully_contractivity_runs_every_method(tmp_path, capsys):
    rc = run_cli(
        "fully", "contractivity", "--family", "uniform", "--M", "4", "--outdir", str(tmp_path)
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("stiffness diagonally dominant: true") == 3
    assert out.count("contractive=") == 3 * 3
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        "contractivity_%s.csv" % method for method in fem.METHODS
    )


def test_fully_contractivity_zero_steps(tmp_path, capsys):
    # n = 0..0 is E_{0,tau} = I alone, whose max-norm is exactly one
    rc = run_cli(
        "fully", "contractivity", "--family", "uniform", "--M", "4",
        "--methods", "lm", "--tau", "1e-2", "1", "--n-max", "0",
        "--outdir", str(tmp_path),
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("max_norm=1.000000000000 contractive=true") == 2
    lines = (tmp_path / "contractivity_lm.csv").read_text().strip().splitlines()
    assert lines[1:] == ["tau,n,max_norm", "0.01,0,1.0", "1.0,0,1.0"]


def test_fully_contractivity_exits_1_when_weights_overflow(tmp_path, capsys):
    # 1/tau overflows for the heat symbol, so every r_{n,tau} row is nan
    rc = run_cli(
        "fully", "contractivity", "--family", "uniform", "--M", "4", "--methods", "lm",
        "--alpha", "1", "--tau", "1e-320", "--outdir", str(tmp_path),
    )
    assert rc == 1
    out, err = capsys.readouterr()
    assert "contractive" not in out
    assert err.strip() == (
        "numerical failure: r_{n,tau} is not finite at step count n=1 (tau=1e-320)"
    )
    assert not (tmp_path / "contractivity_lm.csv").exists()


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


# every row of reproduce --table 1..5 at its default level, as written
# (method, h0, h, operator, sd_threshold, fd_threshold); a change that
# moves a cell updates it here and names the cell in CHANGES.md
TABLE_ROWS = {
    1: (
        "sg,0.1,0.14142135623730964,single-0.5,1.96e-04,2.78e-05",
        "sg,0.1,0.14142135623730964,single-0.75,7.43e-03,9.19e-04",
        "sg,0.1,0.14142135623730964,multi-0.5-0.2,2.11e-04,3.04e-05",
        "sg,0.1,0.14142135623730964,multi-0.75-0.2,7.57e-03,9.45e-04",
        "sg,0.1,0.14142135623730964,dist-exp,1.64e-02,1.99e-03",
        "fve,0.1,0.14142135623730964,single-0.5,1.46e-04,1.93e-05",
        "fve,0.1,0.14142135623730964,single-0.75,6.41e-03,7.19e-04",
        "fve,0.1,0.14142135623730964,multi-0.5-0.2,1.56e-04,2.08e-05",
        "fve,0.1,0.14142135623730964,multi-0.75-0.2,6.52e-03,7.37e-04",
        "fve,0.1,0.14142135623730964,dist-exp,1.48e-02,1.60e-03",
    ),
    2: (
        "sg,0.1,0.20000000000000007,single-0.5,2.60e-04,6.21e-04",
        "sg,0.1,0.20000000000000007,multi-0.5-0.2,2.99e-04,7.73e-04",
        "sg,0.1,0.20000000000000007,dist-exp,1.09e-02,1.25e-02",
        "lm,0.1,0.20000000000000007,single-0.5,1.17e-04,2.21e-04",
        "lm,0.1,0.20000000000000007,multi-0.5-0.2,1.30e-04,2.60e-04",
        "lm,0.1,0.20000000000000007,dist-exp,7.02e-03,6.72e-03",
        "fve,0.1,0.20000000000000007,single-0.5,2.26e-04,5.21e-04",
        "fve,0.1,0.20000000000000007,multi-0.5-0.2,2.59e-04,6.42e-04",
        "fve,0.1,0.20000000000000007,dist-exp,1.03e-02,1.13e-02",
    ),
    3: (
        "sg,,0.20203050891044214,single-0.5,9.78e-05,1.61e-05",
        "sg,,0.20203050891044214,single-0.75,5.08e-03,6.38e-04",
        "sg,,0.20203050891044214,multi-0.5-0.2,1.03e-04,1.73e-05",
        "sg,,0.20203050891044214,multi-0.75-0.2,5.15e-03,6.53e-04",
        "sg,,0.20203050891044214,dist-exp,1.23e-02,1.45e-03",
        "fve,,0.20203050891044214,single-0.5,6.33e-05,9.89e-06",
        "fve,,0.20203050891044214,single-0.75,3.96e-03,4.61e-04",
        "fve,,0.20203050891044214,multi-0.5-0.2,6.64e-05,1.05e-05",
        "fve,,0.20203050891044214,multi-0.75-0.2,4.01e-03,4.70e-04",
        "fve,,0.20203050891044214,dist-exp,1.02e-02,1.09e-03",
    ),
    4: (
        "sg,,0.19700147151354125,single-0.5,2.27e-04,2.31e-05",
        "sg,,0.19700147151354125,single-0.75,1.21e-02,8.11e-04",
        "sg,,0.19700147151354125,multi-0.5-0.2,2.37e-04,2.51e-05",
        "sg,,0.19700147151354125,multi-0.75-0.2,1.23e-02,8.34e-04",
        "sg,,0.19700147151354125,dist-exp,2.84e-02,1.78e-03",
        "fve,,0.19700147151354125,single-0.5,1.26e-04,1.42e-05",
        "fve,,0.19700147151354125,single-0.75,9.11e-03,5.86e-04",
        "fve,,0.19700147151354125,multi-0.5-0.2,1.31e-04,1.52e-05",
        "fve,,0.19700147151354125,multi-0.75-0.2,9.18e-03,5.99e-04",
        "fve,,0.19700147151354125,dist-exp,2.31e-02,1.34e-03",
    ),
    5: (
        "sg,0.1,0.14142135623730964,single-0.5,1.96e-04,2.78e-05",
        "sg,0.1,0.14142135623730964,multi-0.5-0.2,2.11e-04,3.04e-05",
        "sg,0.1,0.14142135623730964,dist-exp,1.64e-02,1.99e-03",
        "fve,0.1,0.14142135623730964,single-0.5,1.46e-04,1.93e-05",
        "fve,0.1,0.14142135623730964,multi-0.5-0.2,1.56e-04,2.08e-05",
        "fve,0.1,0.14142135623730964,dist-exp,1.48e-02,1.60e-03",
    ),
}

@pytest.mark.parametrize("table", sorted(TABLE_ROWS))
def test_reproduce_tables_at_default_levels(table, tmp_path, capsys):
    assert run_cli("reproduce", "--table", str(table), "--outdir", str(tmp_path)) == 0
    capsys.readouterr()
    lines = (tmp_path / ("table%d.csv" % table)).read_text().splitlines()
    assert lines[1] == "method,h0,h,operator,sd_threshold,fd_threshold"
    assert tuple(lines[2:]) == TABLE_ROWS[table]


@pytest.mark.parametrize("failing", [0, 1], ids=["semi", "fully"])
def test_reproduce_table_writes_a_failed_cell(failing, tmp_path, capsys, monkeypatch):
    # a finder's error fills only its own cell; its commas would split the row
    def fail(*args, **kwargs):
        raise NoConvergence("no convergence, twice")

    # a table decides its semidiscrete cells together, one call per system
    module, name = [
        (semidiscrete, "positivity_thresholds"), (fullydiscrete, "fd_positivity_threshold")
    ][failing]
    monkeypatch.setattr(module, name, fail)
    assert run_cli("reproduce", "--table", "2", "--outdir", str(tmp_path)) == 0
    capsys.readouterr()
    rows = (tmp_path / "table2.csv").read_text().splitlines()[2:]
    assert len(rows) == len(TABLE_ROWS[2])
    for row, want in zip(rows, TABLE_ROWS[2]):
        cells, want = row.split(","), want.split(",")
        assert len(cells) == 6
        want[4 + failing] = "FAIL(no convergence; twice)"
        assert cells == want


def test_reproduce_table_below_the_kernel_gate_fails_every_sd_cell(tmp_path, capsys):
    # a cell's scan by decades reads its bottom point first, so every
    # semidiscrete cell fails at 1e-250, as semi threshold does, even
    # though the top decades decide; the fully discrete cells are the
    # default window's
    rc = run_cli(
        "reproduce", "--table", "3", "--scan-start", "1e-250", "--outdir", str(tmp_path)
    )
    assert rc == 0
    capsys.readouterr()
    rows = (tmp_path / "table3.csv").read_text().splitlines()[2:]
    want = [row.split(",") for row in TABLE_ROWS[3]]
    for cells in want:
        cells[4] = "FAIL(lambda = 0 defect nan at t = 1e-250)"
    assert [row.split(",") for row in rows] == want


@pytest.mark.parametrize("kind", ["contour", "coefficient", "huge"])
def test_reproduce_table_fails_one_operator_as_alone(kind, tmp_path, capsys, monkeypatch):
    # table 1 (N = 81) reads each decade of its five operators as one
    # skeleton; one operator's bad rows change only its own semidiscrete
    # cell, to the text its scan gives alone
    target = "multi-0.5-0.2"
    label = cli._OPS[target]().label
    u_lambda_many = kernel.u_lambda_many

    def bad_rows(op, lams, t):
        rows = u_lambda_many(op, lams, t)
        if op.label != label:
            return rows
        top = np.atleast_1d(t) >= 10.0
        if kind == "contour" and np.min(t) < 1e-7:
            # the bottom block, read on its own before the decades
            raise ContourFailure("defect injected at t = %r" % float(np.min(t)))
        if kind == "coefficient":
            rows[top] = np.nan
        if kind == "huge":
            # finite, but the joint skeleton's norms overflow: the decade
            # is read again exactly, operator by operator
            rows[top] = 1e308
            rows[top, ::2] = -1e308
        return rows

    monkeypatch.setattr(kernel, "u_lambda_many", bad_rows)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli("reproduce", "--table", "1", "--outdir", str(tmp_path)) == 0
        alone = {}
        for method in ("sg", "fve"):
            system = fem.build_fem_system(mesh.gen_uniform_square(10), method)
            try:
                alone[method] = semidiscrete.positivity_threshold(
                    system, cli._OPS[target]()
                ).describe()
            except FracposError as exc:
                alone[method] = ("FAIL(%s)" % exc).replace(",", ";")
    capsys.readouterr()
    rows = (tmp_path / "table1.csv").read_text().splitlines()[2:]
    want = [row.split(",") for row in TABLE_ROWS[1]]
    for cells in want:
        if cells[3] == target:
            cells[4] = alone[cells[0]]
    assert [row.split(",") for row in rows] == want
    if kind != "huge":
        assert all(cell.startswith("FAIL(") for cell in alone.values())


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


def test_reproduce_figure2(tmp_path, capsys):
    assert run_cli("reproduce", "--figure", "2", "--outdir", str(tmp_path)) == 0
    assert capsys.readouterr().out == "wrote %s\n" % (tmp_path / "figure2.csv")
    lines = (tmp_path / "figure2.csv").read_text().splitlines()
    assert lines[0].startswith("# fracpos 0.1.0 config=")
    assert lines[1] == "t," + ",".join(
        "%s_%s" % (op, method)
        for op in ("single-0.5", "multi-0.5-0.2", "dist-exp")
        for method in fem.METHODS
    )
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    assert rows.shape == (251, 10)  # the default grid, 1e-8..1e2 at 25 per decade
    np.testing.assert_array_equal(rows[:, 0], ScanSpec().grid())


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
    # every command runs on numpy alone.  No command loads OpenSSL
    # (_hashlib): the config tag's SHA-256 is the interpreter's own
    script = (
        "import sys\n"
        "from fracpos import cli\n"
        "out = ['--outdir', sys.argv[1]]\n"
        "mesh = ['--family', 'uniform', '--M', '4'] + out\n"
        "for cmd in (['semi', 'threshold'], ['fully', 'threshold'], ['semi', 'curve']):\n"
        "    assert cli.main(cmd + mesh + ['--methods', 'sg']) == 0\n"
        "assert cli.main(['fully', 'contractivity'] + mesh + ['--methods', 'lm']) == 0\n"
        "assert cli.main(['fully', 'converge'] + mesh + ['--methods', 'lm']) == 0\n"
        "assert cli.main(['mesh', 'info', '--family', 'uniform', '--M', '4']) == 0\n"
        "assert cli.main(['reproduce', '--table', '3'] + out) == 0\n"
        "assert cli.main(['reproduce', '--figure', '3'] + out) == 0\n"
        "assert cli.main(['reproduce', '--figure', '2', '--h0', '0.25'] + out) == 0\n"
        "assert cli.main(['semi', 'certify'] + mesh) == 0\n"
        "assert cli.main(['kernel', 'ulambda', '--lambda', '2', '--t', '0.1']) == 0\n"
        "assert cli.main(['kernel', 'weights', '--mu', 'exp', '--tau', '0.1', '--n', '4']) == 0\n"
        "assert cli.main(['kernel', 'mittag', '--alpha', '0.5', '--x', '-1', '-16']) == 0\n"
        "assert cli.main(['kernel', 'mittag', '--alpha', '0.99', '--x', '-0.5', '-10']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('_hashlib' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "False"]


def test_no_module_imports_scipy():
    src = pathlib.Path(cli.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(path.stem)
    assert found == []


def test_every_export_resolves():
    import fracpos

    modules = [fracpos] + [
        importlib.import_module("fracpos." + path.stem)
        for path in sorted(pathlib.Path(fracpos.__file__).parent.glob("*.py"))
        if path.stem != "__init__"
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), "%s.__all__: %r" % (module.__name__, name)


def _readme_commands():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## command line", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("fracpos ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_run(argv, tmp_path, monkeypatch, capsys):
    # commands without --outdir write into the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRACPOS_OUTDIR", raising=False)
    assert run_cli(*argv) == 0
    capsys.readouterr()
