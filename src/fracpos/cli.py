"""Batch experiment driver.

Subcommands: mesh {gen, info}, kernel {ulambda, weights, mittag},
semi {curve, threshold, certify}, fully {threshold, converge,
contractivity}, reproduce (--table 1..5 | --figure 2|3).

All CSV output starts with a comment line carrying the tool version and a
hash of the resolved configuration, so identical invocations produce
byte-identical files.  Exit codes: 0 success, 1 numerical failure,
2 usage or parse error.
"""

import argparse
import configparser
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, fem, fullydiscrete, kernel, semidiscrete
from . import mesh as meshmod
from .errors import FracposError, NumericalError, UsageError

_FAMILY_ALIASES = {"nondelaunay-b": "crossed", "nondelaunay-e": "sliver"}


# ---------------------------------------------------------------------------
# configuration plumbing


def _load_config(path):
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError("cannot read config file %r" % (path,))
    values = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            values["%s.%s" % (section, key)] = value
    return values


def _cfg(args, key, cast=str):
    value = getattr(args, "_config", {}).get(key)
    if value is None:
        return None
    if cast is bool:
        return value.strip().lower() in ("1", "true", "yes", "on")
    try:
        return cast(value)
    except ValueError:
        raise UsageError("config key %s: cannot read %r" % (key, value))


def _pick(cli_value, config_value, default):
    if cli_value is not None:
        return cli_value
    if config_value is not None:
        return config_value
    return default


def _config_hash(parts):
    text = ";".join("%s=%s" % (k, parts[k]) for k in sorted(parts))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _header_line(parts):
    return "# fracpos %s config=%s" % (__version__, _config_hash(parts))


def _outdir(args):
    out = _pick(
        getattr(args, "outdir", None),
        _cfg(args, "run.outdir"),
        os.environ.get("FRACPOS_OUTDIR", "."),
    )
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path, columns, rows, parts, trailer=()):
    lines = [_header_line(parts), ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    lines.extend(trailer)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    return repr(float(x))


def _fmt_threshold(report):
    if report.found:
        return "%.2e" % report.value
    return report.status


# ---------------------------------------------------------------------------
# shared argument groups and resolvers


def _add_mesh_flags(p):
    g = p.add_argument_group("mesh selection")
    g.add_argument(
        "--family",
        choices=sorted(meshmod.FAMILIES) + sorted(_FAMILY_ALIASES),
        help="generated family (nondelaunay-b = crossed, nondelaunay-e = sliver)",
    )
    g.add_argument("--M", type=int, help="subdivisions per side")
    g.add_argument("--eps", type=float, help="flattening of the sliver pair")
    g.add_argument("--bundled", help="name of a packaged mesh")
    g.add_argument("--node", help=".node file path")
    g.add_argument("--ele", help=".ele file path")


def _add_operator_flags(p):
    g = p.add_argument_group("time operator")
    g.add_argument(
        "--alpha",
        type=float,
        nargs="+",
        help="fractional exponents, strictly decreasing (default 0.5)",
    )
    g.add_argument("--weights", type=float, nargs="+", help="term weights (default all 1)")
    g.add_argument(
        "--mu", help="distributed-order weight name (%s)" % ",".join(sorted(kernel.MU_FUNCTIONS))
    )
    g.add_argument("--quad-order", type=int, help="quadrature order for --mu (default 64)")


def _add_scan_flags(p):
    g = p.add_argument_group("scan grid")
    g.add_argument("--scan-start", type=float, help="left end of the log scan (default 1e-8)")
    g.add_argument("--scan-stop", type=float, help="right end of the log scan (default 1e2)")
    g.add_argument("--per-decade", type=int, help="grid points per decade (default 25)")


def _add_run_flags(p, methods=True):
    p.add_argument("--config", help="INI file with [mesh]/[operator]/[scan]/[run] sections")
    p.add_argument("--outdir", help="output directory (or FRACPOS_OUTDIR)")
    if methods:
        p.add_argument(
            "--methods",
            nargs="+",
            choices=fem.METHODS,
            help="spatial methods (default: all three)",
        )


def _resolve_mesh(args):
    family = _pick(args.family, _cfg(args, "mesh.family"), None)
    bundled = _pick(args.bundled, _cfg(args, "mesh.bundled"), None)
    node = _pick(args.node, _cfg(args, "mesh.node"), None)
    ele = _pick(args.ele, _cfg(args, "mesh.ele"), None)
    m = _pick(args.M, _cfg(args, "mesh.m", int), None)
    eps = _pick(args.eps, _cfg(args, "mesh.eps", float), None)
    sources = sum(x is not None for x in (family, bundled, node))
    if sources != 1:
        raise UsageError("pick exactly one of --family, --bundled, --node/--ele")
    if family is None:
        for flag, value in (("--M (mesh.m)", m), ("--eps (mesh.eps)", eps)):
            if value is not None:
                raise UsageError("%s only applies to --family" % flag)
    if node is not None or ele is not None:
        if node is None or ele is None:
            raise UsageError("--node and --ele go together")
        return meshmod.load_triangle_format(node, ele)
    if bundled is not None:
        return meshmod.bundled_mesh(bundled)
    family = _FAMILY_ALIASES.get(family, family)
    if m is None:
        raise UsageError("--family needs --M")
    kw = {}
    if family == "sliver":
        kw["eps"] = 1e-3 if eps is None else eps
    elif eps is not None:
        raise UsageError("--eps (mesh.eps) only applies to the sliver family")
    return meshmod.FAMILIES[family](m, **kw)


def _resolve_operator(args):
    mu = _pick(args.mu, _cfg(args, "operator.mu"), None)
    quad = _pick(args.quad_order, _cfg(args, "operator.quad_order", int), 64)
    alpha = args.alpha
    if alpha is None:
        text = _cfg(args, "operator.alpha")
        alpha = [float(x) for x in text.split()] if text else None
    weights = args.weights
    if weights is None:
        text = _cfg(args, "operator.weights")
        weights = [float(x) for x in text.split()] if text else None
    if mu is not None:
        if alpha is not None or weights is not None:
            raise UsageError("--mu excludes --alpha/--weights")
        return kernel.FracOperator.distributed(mu, quad_order=quad)
    alpha = alpha if alpha is not None else [0.5]
    if len(alpha) == 1 and weights is None:
        return kernel.FracOperator.single_term(alpha[0])
    return kernel.FracOperator.multi_term(alpha, weights)


def _resolve_scan(args):
    return semidiscrete.ScanSpec(
        start=_pick(args.scan_start, _cfg(args, "scan.start", float), 1e-8),
        stop=_pick(args.scan_stop, _cfg(args, "scan.stop", float), 1e2),
        per_decade=_pick(args.per_decade, _cfg(args, "scan.per_decade", int), 25),
    )


def _resolve_methods(args):
    return tuple(
        _pick(
            getattr(args, "methods", None),
            (_cfg(args, "run.methods") or "").split() or None,
            fem.METHODS,
        )
    )


def _mesh_parts(mesh):
    parts = {"mesh.nodes": mesh.n_nodes, "mesh.tris": mesh.n_triangles}
    if mesh.family:
        parts["mesh.family"] = mesh.family
    if mesh.h0 is not None:
        parts["mesh.h0"] = repr(mesh.h0)
    return parts


def _scan_parts(scan):
    return {
        "scan.start": repr(scan.start),
        "scan.stop": repr(scan.stop),
        "scan.per_decade": scan.per_decade,
    }


# ---------------------------------------------------------------------------
# mesh commands


def _mesh_report(mesh):
    lines = []
    if mesh.family:
        lines.append("family: %s" % mesh.family)
    lines.append("nodes: %d" % mesh.n_nodes)
    lines.append("interior: %d" % mesh.interior_count)
    lines.append("triangles: %d" % mesh.n_triangles)
    if mesh.h0 is not None:
        lines.append("h0: %.3f" % mesh.h0)
    lines.append("h: %.3f" % meshmod.mesh_size(mesh))
    bad = [e for e in meshmod.delaunay_edges(mesh) if not e.is_delaunay]
    if bad:
        lines.append("delaunay: false (%d edges fail)" % len(bad))
    else:
        lines.append("delaunay: true")
    lines.append("normal: %s" % ("true" if meshmod.is_normal(mesh) else "false"))
    return "\n".join(lines)


def cmd_mesh_gen(args):
    mesh = _resolve_mesh(args)
    if not mesh.family:
        raise UsageError("mesh gen works on generated families; use mesh info for files")
    out = _outdir(args)
    stem = mesh.family.translate(str.maketrans({"(": "_", ")": None, "=": None, ",": "_"}))
    node = os.path.join(out, stem + ".node")
    ele = os.path.join(out, stem + ".ele")
    meshmod.save_triangle_format(mesh, node, ele)
    print(_mesh_report(mesh))
    print("files: %s %s" % (node, ele))
    return 0


def cmd_mesh_info(args):
    mesh = _resolve_mesh(args)
    meshmod.validate_mesh(mesh)
    print(_mesh_report(mesh))
    return 0


# ---------------------------------------------------------------------------
# kernel commands


def cmd_kernel_ulambda(args):
    op = _resolve_operator(args)
    lam = args.lam
    if lam <= 0.0:
        raise UsageError("--lambda must be positive")
    parts = {"cmd": "ulambda", "op": op.label, "lambda": repr(lam)}
    print(_header_line(parts))
    print("t,u_lambda")
    for t in args.t:
        print("%s,%s" % (_fmt(t), _fmt(kernel.u_lambda(op, lam, t))))
    return 0


def cmd_kernel_weights(args):
    op = _resolve_operator(args)
    w = kernel.cq_weights(op, args.tau, args.n)
    parts = {"cmd": "weights", "op": op.label, "tau": repr(args.tau), "n": args.n}
    print(_header_line(parts))
    print("j,omega_j")
    for j, wj in enumerate(w):
        print("%d,%s" % (j, _fmt(wj)))
    return 0


def cmd_kernel_mittag(args):
    if len(args.alpha or ()) != 1:
        raise UsageError("mittag needs exactly one --alpha")
    alpha = args.alpha[0]
    parts = {"cmd": "mittag", "alpha": repr(alpha)}
    print(_header_line(parts))
    print("x,E_alpha")
    for x in args.x:
        print("%s,%s" % (_fmt(x), _fmt(kernel.mittag_leffler(alpha, x))))
    return 0


# ---------------------------------------------------------------------------
# semidiscrete commands


def cmd_semi_curve(args):
    mesh = _resolve_mesh(args)
    op = _resolve_operator(args)
    scan = _resolve_scan(args)
    out = _outdir(args)
    grid = scan.grid()
    written = []
    for method in _resolve_methods(args):
        system = fem.build_fem_system(mesh, method)
        curve = semidiscrete.min_entry_curve(system, op, grid)
        parts = {"cmd": "semi-curve", "op": op.label, "method": method}
        parts.update(_mesh_parts(mesh))
        parts.update(_scan_parts(scan))
        path = os.path.join(out, "semi_curve_%s.csv" % method)
        _write_csv(path, ("t", "min_entry"), curve, parts)
        written.append(path)
    print("\n".join(written))
    return 0


def _threshold_trailer(report):
    summary = {
        "status": report.status,
        "method": report.method,
        "operator": report.operator,
        "tolerance": "%.2e" % report.tolerance,
    }
    if report.found:
        summary["value"] = "%.2e" % report.value
        summary["bracket"] = ["%.2e" % b for b in report.bracket]
    return ("# threshold " + json.dumps(summary, sort_keys=True),)


def cmd_semi_threshold(args):
    mesh = _resolve_mesh(args)
    op = _resolve_operator(args)
    scan = _resolve_scan(args)
    out = _outdir(args)
    for method in _resolve_methods(args):
        system = fem.build_fem_system(mesh, method)
        report = semidiscrete.positivity_threshold(system, op, scan=scan, tol=args.tol)
        parts = {"cmd": "semi-threshold", "op": op.label, "method": method}
        parts.update(_mesh_parts(mesh))
        parts.update(_scan_parts(scan))
        path = os.path.join(out, "semi_threshold_%s.csv" % method)
        _write_csv(
            path, ("t", "min_entry"), report.curve, parts, _threshold_trailer(report)
        )
        print("%s %s: %s  [%s]" % (method, op.label, report.describe(), path))
    return 0


def cmd_semi_certify(args):
    mesh = _resolve_mesh(args)
    out = _outdir(args)
    delaunay = meshmod.is_delaunay(mesh)
    print("delaunay: %s" % ("true" if delaunay else "false"))
    print("normal: %s" % ("true" if meshmod.is_normal(mesh) else "false"))
    for method in _resolve_methods(args):
        system = fem.build_fem_system(mesh, method)
        stieltjes = fem.is_stieltjes(system.stiffness)
        hinv_pos, hinv_min = semidiscrete.h_inverse_positive(system)
        power = semidiscrete.h_eventually_positive(system)
        if method == "lm" and delaunay:
            verdict = "nonnegative for every t and tau (delaunay mesh)"
        elif hinv_pos:
            verdict = "positivity threshold exists (H^-1 > 0)"
        elif power is not None:
            verdict = "H^-%d > 0 but H^-1 is not; no certificate" % power
        else:
            verdict = "no certificate"
        print(
            "%s: stiffness stieltjes=%s H^-1>0=%s (min %.3e) eventual_power=%s -> %s"
            % (method, stieltjes, hinv_pos, hinv_min, power, verdict)
        )
        if args.dump_matrices:
            parts = {"cmd": "certify", "method": method}
            parts.update(_mesh_parts(mesh))
            for label, matrix in (("mass", system.mass), ("stiffness", system.stiffness)):
                path = os.path.join(out, "%s_%s.csv" % (label, method))
                cols = tuple("c%d" % j for j in range(matrix.shape[1]))
                _write_csv(path, cols, matrix, parts)
                print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# fully discrete commands


def cmd_fully_threshold(args):
    mesh = _resolve_mesh(args)
    op = _resolve_operator(args)
    scan = _resolve_scan(args)
    out = _outdir(args)
    for method in _resolve_methods(args):
        system = fem.build_fem_system(mesh, method)
        report = fullydiscrete.fd_positivity_threshold(system, op, scan=scan, tol=args.tol)
        parts = {"cmd": "fully-threshold", "op": op.label, "method": method}
        parts.update(_mesh_parts(mesh))
        parts.update(_scan_parts(scan))
        path = os.path.join(out, "fully_threshold_%s.csv" % method)
        _write_csv(
            path, ("tau", "min_entry"), report.curve, parts, _threshold_trailer(report)
        )
        print("%s %s: %s  [%s]" % (method, op.label, report.describe(), path))
    return 0


def cmd_fully_converge(args):
    mesh = _resolve_mesh(args)
    op = _resolve_operator(args)
    out = _outdir(args)
    lo, hi = args.n_exp
    if not 0 <= lo < hi:
        raise UsageError("--n-exp wants two increasing nonnegative integers")
    n_list = [2 ** k for k in range(lo, hi + 1)]
    method = _resolve_methods(args)[0]
    system = fem.build_fem_system(mesh, method)
    rate, errors = fullydiscrete.convergence_rate(system, op, args.t, n_list)
    parts = {
        "cmd": "converge",
        "op": op.label,
        "method": method,
        "t": repr(args.t),
        "n": "%d..%d" % (n_list[0], n_list[-1]),
    }
    parts.update(_mesh_parts(mesh))
    path = os.path.join(out, "converge_%s.csv" % method)
    _write_csv(path, ("n", "error"), errors, parts, ("# rate %.4f" % rate,))
    print("%s %s: rate %.4f  [%s]" % (method, op.label, rate, path))
    return 0


def cmd_fully_contractivity(args):
    mesh = _resolve_mesh(args)
    op = _resolve_operator(args)
    out = _outdir(args)
    method = _resolve_methods(args)[0]
    system = fem.build_fem_system(mesh, method)
    reports = fullydiscrete.max_norm_contractivity_check(
        system, op, args.tau, n_max=args.n_max
    )
    parts = {
        "cmd": "contractivity",
        "op": op.label,
        "method": method,
        "tau": " ".join(repr(t) for t in args.tau),
        "n_max": args.n_max,
    }
    parts.update(_mesh_parts(mesh))
    rows = []
    for rep in reports:
        rows.extend((rep.tau, n, rep.norms[n]) for n in range(rep.norms.shape[0]))
    path = os.path.join(out, "contractivity_%s.csv" % method)
    _write_csv(path, ("tau", "n", "max_norm"), rows, parts)
    ok = fem.is_diagonally_dominant(system.stiffness)
    print("stiffness diagonally dominant: %s" % ("true" if ok else "false"))
    for rep in reports:
        print(
            "tau=%s max_norm=%.12f contractive=%s"
            % (_fmt(rep.tau), rep.max_norm, "true" if rep.contractive else "false")
        )
    print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# reproduce


_OPS = {
    "single-0.5": lambda: kernel.FracOperator.single_term(0.5),
    "single-0.75": lambda: kernel.FracOperator.single_term(0.75),
    "multi-0.5-0.2": lambda: kernel.FracOperator.multi_term((0.5, 0.2)),
    "multi-0.75-0.2": lambda: kernel.FracOperator.multi_term((0.75, 0.2)),
    "dist-exp": lambda: kernel.FracOperator.distributed("exp"),
}

_FIVE_OPS = ("single-0.5", "single-0.75", "multi-0.5-0.2", "multi-0.75-0.2", "dist-exp")
_THREE_OPS = ("single-0.5", "multi-0.5-0.2", "dist-exp")

_TABLES = {
    1: {
        "family": "uniform",
        "methods": ("sg", "fve"),
        "ops": _FIVE_OPS,
        "levels": (10, 20, 40),
        "default": (10,),
        "gated": (40,),
    },
    2: {
        "family": "crossed",
        "methods": ("sg", "lm", "fve"),
        "ops": _THREE_OPS,
        "levels": (5, 10, 20),
        "default": (5,),
        "gated": (20,),
    },
    3: {
        "bundled": "lshape",
        "methods": ("sg", "fve"),
        "ops": _FIVE_OPS,
        "levels": ("coarse", "medium", "fine"),
        "default": ("coarse",),
        "gated": ("fine",),
    },
    4: {
        "bundled": "disk",
        "methods": ("sg", "fve"),
        "ops": _FIVE_OPS,
        "levels": ("coarse", "medium", "fine"),
        "default": ("coarse",),
        "gated": ("fine",),
    },
    5: {
        "family": "sliver",
        "methods": ("sg", "fve"),
        "ops": _THREE_OPS,
        "levels": (10, 20, 40),
        "default": (10,),
        "gated": (40,),
    },
}


def _table_mesh(spec, level):
    if "bundled" in spec:
        return meshmod.bundled_mesh("%s_%s" % (spec["bundled"], level))
    return meshmod.FAMILIES[spec["family"]](level)


def _table_cell(system, op, scan):
    try:
        sd = _fmt_threshold(semidiscrete.positivity_threshold(system, op, scan=scan))
    except FracposError as exc:
        sd = ("FAIL(%s)" % exc).replace(",", ";")
    try:
        fd = _fmt_threshold(fullydiscrete.fd_positivity_threshold(system, op, scan=scan))
    except FracposError as exc:
        fd = ("FAIL(%s)" % exc).replace(",", ";")
    return sd, fd


def cmd_reproduce(args):
    if (args.table is None) == (args.figure is None):
        raise UsageError("pick exactly one of --table or --figure")
    if args.table is not None:
        return _reproduce_table(args)
    return _reproduce_figure(args)


def _reproduce_table(args):
    if args.table not in _TABLES:
        raise UsageError("--table takes 1..5")
    spec = _TABLES[args.table]
    levels = args.levels if args.levels else [str(x) for x in spec["default"]]
    parsed = []
    for lvl in levels:
        value = int(lvl) if lvl.isdigit() else lvl
        if value not in spec["levels"]:
            raise UsageError(
                "level %r not in table %d (%s)" % (lvl, args.table, spec["levels"])
            )
        if value in spec["gated"] and not args.long_run:
            raise UsageError("level %r needs --long-run" % (lvl,))
        parsed.append(value)
    scan = _resolve_scan(args)
    out = _outdir(args)
    rows = []
    for level in parsed:
        mesh = _table_mesh(spec, level)
        h0 = repr(mesh.h0) if mesh.h0 is not None else ""
        h = repr(meshmod.mesh_size(mesh))
        for method in spec["methods"]:
            system = fem.build_fem_system(mesh, method)
            for op_name in spec["ops"]:
                sd, fd = _table_cell(system, _OPS[op_name](), scan)
                rows.append((method, h0, h, op_name, sd, fd))
    parts = {
        "cmd": "table%d" % args.table,
        "levels": " ".join(str(x) for x in parsed),
    }
    parts.update(_scan_parts(scan))
    path = os.path.join(out, "table%d.csv" % args.table)
    _write_csv(
        path,
        ("method", "h0", "h", "operator", "sd_threshold", "fd_threshold"),
        rows,
        parts,
    )
    print("wrote %s" % path)
    return 0


def _reproduce_figure(args):
    if args.figure not in (2, 3):
        raise UsageError("--figure takes 2 or 3")
    h0 = args.h0 if args.h0 is not None else 0.1
    m = round(1.0 / h0)
    if m < 2:
        raise UsageError("--h0 too coarse")
    scan = _resolve_scan(args)
    grid = scan.grid()
    out = _outdir(args)
    parts = {"cmd": "figure%d" % args.figure, "h0": repr(h0)}
    parts.update(_scan_parts(scan))
    if args.figure == 2:
        mesh = meshmod.gen_uniform_square(m)
        systems = {method: fem.build_fem_system(mesh, method) for method in fem.METHODS}
        columns = ["t"]
        curves = []
        for op_name in _THREE_OPS:
            op = _OPS[op_name]()
            for method in fem.METHODS:
                columns.append("%s_%s" % (op_name, method))
                curves.append(
                    semidiscrete.min_entry_curve(systems[method], op, grid)[:, 1]
                )
    else:
        mesh = meshmod.gen_sliver_square(m)
        system = fem.build_fem_system(mesh, "lm")
        op = _OPS["single-0.5"]()
        heat = kernel.FracOperator.single_term(1.0)
        columns = ["t", "heat_lm", "single-0.5_lm", "fully_single-0.5_lm"]
        curves = [
            semidiscrete.min_entry_curve(system, heat, grid)[:, 1],
            semidiscrete.min_entry_curve(system, op, grid)[:, 1],
            fullydiscrete.fd_positivity_threshold(system, op, scan=scan).curve[:, 1],
        ]
    rows = np.column_stack([grid] + curves)
    path = os.path.join(out, "figure%d.csv" % args.figure)
    _write_csv(path, columns, rows, parts)
    print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracpos",
        description="nonnegativity experiments for fractional-diffusion finite elements",
    )
    parser.add_argument("--version", action="version", version="fracpos " + __version__)
    top = parser.add_subparsers(dest="command", required=True)

    p_mesh = top.add_parser("mesh", help="generate or inspect triangulations")
    mesh_sub = p_mesh.add_subparsers(dest="subcommand", required=True)
    p = mesh_sub.add_parser("gen", help="generate a mesh family member and save it")
    _add_mesh_flags(p)
    _add_run_flags(p, methods=False)
    p.set_defaults(func=cmd_mesh_gen)
    p = mesh_sub.add_parser("info", help="validate a mesh and print its properties")
    _add_mesh_flags(p)
    _add_run_flags(p, methods=False)
    p.set_defaults(func=cmd_mesh_info)

    p_kernel = top.add_parser("kernel", help="scalar kernel evaluations")
    kernel_sub = p_kernel.add_subparsers(dest="subcommand", required=True)
    p = kernel_sub.add_parser("ulambda", help="relaxation kernel u_lambda(t)")
    _add_operator_flags(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--t", type=float, nargs="+", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_kernel_ulambda)
    p = kernel_sub.add_parser("weights", help="convolution quadrature weights")
    _add_operator_flags(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_kernel_weights)
    p = kernel_sub.add_parser("mittag", help="Mittag-Leffler values on the negative axis")
    _add_operator_flags(p)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_kernel_mittag)

    p_semi = top.add_parser("semi", help="semidiscrete solution matrix experiments")
    semi_sub = p_semi.add_subparsers(dest="subcommand", required=True)
    p = semi_sub.add_parser("curve", help="smallest entry of E(t) over a time scan")
    _add_mesh_flags(p)
    _add_operator_flags(p)
    _add_scan_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_semi_curve)
    p = semi_sub.add_parser("threshold", help="positivity threshold of E(t)")
    _add_mesh_flags(p)
    _add_operator_flags(p)
    _add_scan_flags(p)
    _add_run_flags(p)
    p.add_argument("--tol", type=float, help="negativity tolerance (default 1e-12*N)")
    p.set_defaults(func=cmd_semi_threshold)
    p = semi_sub.add_parser("certify", help="sufficient-condition report per method")
    _add_mesh_flags(p)
    _add_run_flags(p)
    p.add_argument(
        "--dump-matrices", action="store_true", help="write dense mass/stiffness CSVs"
    )
    p.set_defaults(func=cmd_semi_certify)

    p_fully = top.add_parser("fully", help="backward Euler time stepping experiments")
    fully_sub = p_fully.add_subparsers(dest="subcommand", required=True)
    p = fully_sub.add_parser("threshold", help="positivity threshold of E_{1,tau}")
    _add_mesh_flags(p)
    _add_operator_flags(p)
    _add_scan_flags(p)
    _add_run_flags(p)
    p.add_argument("--tol", type=float, help="negativity tolerance (default 1e-12*N)")
    p.set_defaults(func=cmd_fully_threshold)
    p = fully_sub.add_parser("converge", help="stepping error against the kernel")
    _add_mesh_flags(p)
    _add_operator_flags(p)
    _add_run_flags(p)
    p.add_argument("--t", type=float, default=0.1, help="final time (default 0.1)")
    p.add_argument(
        "--n-exp",
        type=int,
        nargs=2,
        default=(4, 10),
        metavar=("LO", "HI"),
        help="step counts 2^LO..2^HI (default 4 10)",
    )
    p.set_defaults(func=cmd_fully_converge)
    p = fully_sub.add_parser("contractivity", help="max-norm of E_{n,tau} over n")
    _add_mesh_flags(p)
    _add_operator_flags(p)
    _add_run_flags(p)
    p.add_argument("--tau", type=float, nargs="+", default=(1e-4, 1e-2, 1.0))
    p.add_argument("--n-max", type=int, default=100)
    p.set_defaults(func=cmd_fully_contractivity)

    p = top.add_parser("reproduce", help="published threshold tables and figure curves")
    p.add_argument("--table", type=int, help="table number 1..5")
    p.add_argument("--figure", type=int, help="figure number 2 or 3")
    p.add_argument("--levels", nargs="+", help="refinement levels (table only)")
    p.add_argument("--h0", type=float, help="spacing for figures (default 0.1)")
    p.add_argument("--long-run", action="store_true", help="allow the finest level")
    _add_scan_flags(p)
    _add_run_flags(p, methods=False)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args._config = _load_config(args.config)
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
