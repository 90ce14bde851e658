"""Batch experiment driver.

Subcommands: mesh {gen, info}, kernel {ulambda, weights, mittag},
semi {curve, threshold, certify}, fully {threshold, converge,
contractivity}, reproduce (--table 1..5 | --figure 2|3).

Every option is one row of _OPTIONS: its flag, its INI key, its default
and its bounds.  Each command lists the rows it takes (_COMMANDS); a
value comes from the flag, else from the --config file, else from the
row's default, and a file value gets the same checks as a flag.

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
# options

# Dense-memory cap: no array a command builds has more than _DENSE_SIDE^2
# float64 entries (512 MiB).  An N x N matrix has N <= _DENSE_SIDE, and a
# scan grid, a step history or a weight row has at most _DENSE_SIDE rows
# of N entries.  The bounds below follow from it.
_DENSE_EXP = 13
_DENSE_SIDE = 2 ** _DENSE_EXP
# crossed(M), the densest family, has fewer than 4 M^2 unknowns
_M_MAX = int((_DENSE_SIDE / 4) ** 0.5)


class _Opt:
    """One option: flag, INI key (section.key), default, inclusive bounds
    (lo, hi) and the remaining argparse settings (type, nargs, choices, help)."""

    def __init__(self, flag, key=None, default=None, bounds=None, **kw):
        self.flag, self.key, self.default, self.bounds, self.kw = flag, key, default, bounds, kw
        self.dest = kw.get("dest", flag[2:].replace("-", "_"))


_FAMILY_CHOICES = sorted(meshmod.FAMILIES) + sorted(_FAMILY_ALIASES)
_MU_NAMES = ",".join(sorted(kernel.MU_FUNCTIONS))

_OPTIONS = {
    "family": _Opt("--family", "mesh.family", choices=_FAMILY_CHOICES,
                   help="generated family (nondelaunay-b = crossed, nondelaunay-e = sliver)"),
    "M": _Opt("--M", "mesh.m", bounds=(0, _M_MAX), type=int, help="subdivisions per side"),
    "eps": _Opt("--eps", "mesh.eps", type=float, help="flattening of the sliver pair"),
    "bundled": _Opt("--bundled", "mesh.bundled", help="name of a packaged mesh"),
    "node": _Opt("--node", "mesh.node", help=".node file path"),
    "ele": _Opt("--ele", "mesh.ele", help=".ele file path"),
    "alpha": _Opt("--alpha", "operator.alpha", type=float, nargs="+",
                  help="fractional exponents, strictly decreasing (default 0.5)"),
    "weights": _Opt("--weights", "operator.weights", type=float, nargs="+",
                    help="term weights (default all 1)"),
    "mu": _Opt("--mu", "operator.mu", help="distributed-order weight name (%s)" % _MU_NAMES),
    "quad_order": _Opt("--quad-order", "operator.quad_order", 64, (0, _DENSE_SIDE), type=int,
                       help="quadrature order for --mu (default 64)"),
    "scan_start": _Opt("--scan-start", "scan.start", 1e-8, type=float,
                       help="left end of the log scan (default 1e-8)"),
    "scan_stop": _Opt("--scan-stop", "scan.stop", 1e2, type=float,
                      help="right end of the log scan (default 1e2)"),
    "per_decade": _Opt("--per-decade", "scan.per_decade", 25, (0, _DENSE_SIDE), type=int,
                       help="grid points per decade (default 25)"),
    "config": _Opt("--config", help="INI file with [mesh]/[operator]/[scan]/[run] sections"),
    "outdir": _Opt("--outdir", "run.outdir", help="output directory (or FRACPOS_OUTDIR)"),
    "methods": _Opt("--methods", "run.methods", fem.METHODS, nargs="+", choices=fem.METHODS,
                    help="spatial methods (default: all three)"),
    "tol": _Opt("--tol", type=float, help="negativity tolerance (default 1e-12*N)"),
    "dump_matrices": _Opt("--dump-matrices", default=False, action="store_true",
                          help="write dense mass/stiffness CSVs"),
    "lam": _Opt("--lambda", dest="lam", type=float, required=True),
    "t": _Opt("--t", type=float, nargs="+", required=True),
    "tau": _Opt("--tau", type=float, required=True),
    "n": _Opt("--n", bounds=(0, _DENSE_SIDE - 1), type=int, required=True),
    "x": _Opt("--x", type=float, nargs="+", required=True),
    "t_final": _Opt("--t", default=0.1, type=float, help="final time (default 0.1)"),
    "n_exp": _Opt("--n-exp", default=(4, 10), bounds=(0, _DENSE_EXP - 1), type=int, nargs=2,
                  metavar=("LO", "HI"), help="step counts 2^LO..2^HI (default 4 10)"),
    "taus": _Opt("--tau", default=(1e-4, 1e-2, 1.0), type=float, nargs="+"),
    "n_max": _Opt("--n-max", default=100, bounds=(0, _DENSE_SIDE - 1), type=int),
    "table": _Opt("--table", type=int, help="table number 1..5"),
    "figure": _Opt("--figure", type=int, help="figure number 2 or 3"),
    "levels": _Opt("--levels", nargs="+", help="refinement levels (table only)"),
    "h0": _Opt("--h0", bounds=(1.0 / _M_MAX, 0.5), type=float,
               help="spacing for figures (default 0.1)"),
    "long_run": _Opt("--long-run", default=False, action="store_true",
                     help="allow the finest level"),
}

# help groups by INI section
_GROUPS = {"mesh": "mesh selection", "operator": "time operator", "scan": "scan grid"}


def _check(opt, value, where):
    """Hold a flag or INI value to its option's choices and bounds."""
    choices = opt.kw.get("choices")
    for v in value if isinstance(value, list) else [value]:
        if choices is not None and v not in choices:
            raise UsageError("%s: %r is not one of %s" % (where, v, ", ".join(choices)))
        if opt.bounds is not None and not opt.bounds[0] <= v <= opt.bounds[1]:
            raise UsageError("%s: %r is outside [%g, %g]" % ((where, v) + opt.bounds))


def _load_config(path):
    """Read an INI file into {section.key: value}, each value parsed as its flag."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise UsageError("cannot read config file %r" % (path,))
        # [DEFAULT] first: its keys would otherwise show up in every section
        entries = [
            ("%s.%s" % (section, name), text)
            for section in [parser.default_section] + parser.sections()
            for name, text in parser.items(section)
        ]
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError("config file %s: %s" % (path, exc)) from exc
    by_key = {opt.key: opt for opt in _OPTIONS.values() if opt.key}
    values = {}
    for key, text in entries:
        opt = by_key.get(key)
        if opt is None:
            raise UsageError("config key %s: not one of %s" % (key, ", ".join(sorted(by_key))))
        words = text.split() if opt.kw.get("nargs") else [text]
        try:
            value = [opt.kw.get("type", str)(word) for word in words if word]
        except ValueError:
            raise UsageError("config key %s: cannot read %r" % (key, text)) from None
        if not value:
            raise UsageError("config key %s: no value" % key)
        _check(opt, value, "config key " + key)
        values[key] = value if opt.kw.get("nargs") else value[0]
    return values


def _settle(args):
    """Set each option of the command from its flag, else its INI key, else its default."""
    config = _load_config(args.config) if args.config else {}
    for opt in (_OPTIONS[name] for name in args.options):
        value = getattr(args, opt.dest)
        if value is not None:
            _check(opt, value, opt.flag)
        elif opt.key in config:
            value = config[opt.key]
        else:
            value = opt.default
        setattr(args, opt.dest, value)


# ---------------------------------------------------------------------------
# output plumbing


def _config_hash(parts):
    text = ";".join("%s=%s" % (k, parts[k]) for k in sorted(parts))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _header_line(parts):
    return "# fracpos %s config=%s" % (__version__, _config_hash(parts))


def _outdir(args):
    out = args.outdir if args.outdir is not None else os.environ.get("FRACPOS_OUTDIR", ".")
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


# ---------------------------------------------------------------------------
# rules that involve more than one option


def _resolve_mesh(args):
    sources = sum(x is not None for x in (args.family, args.bundled, args.node))
    if sources != 1:
        raise UsageError("pick exactly one of --family, --bundled, --node/--ele")
    if args.family is None:
        for flag, value in (("--M (mesh.m)", args.M), ("--eps (mesh.eps)", args.eps)):
            if value is not None:
                raise UsageError("%s only applies to --family" % flag)
    if args.node is not None or args.ele is not None:
        if args.node is None or args.ele is None:
            raise UsageError("--node and --ele go together")
        mesh = meshmod.load_triangle_format(args.node, args.ele)
        meshmod.validate_mesh(mesh)
        # generated and bundled meshes are held to the cap by --M; the
        # mesh commands build no N x N matrix
        if args.command != "mesh" and mesh.interior_count > _DENSE_SIDE:
            raise UsageError(
                "the mesh has %d interior nodes, above %d" % (mesh.interior_count, _DENSE_SIDE)
            )
        return mesh
    if args.bundled is not None:
        return meshmod.bundled_mesh(args.bundled)
    family = _FAMILY_ALIASES.get(args.family, args.family)
    if args.M is None:
        raise UsageError("--family needs --M")
    kw = {}
    if family == "sliver":
        kw["eps"] = 1e-3 if args.eps is None else args.eps
    elif args.eps is not None:
        raise UsageError("--eps (mesh.eps) only applies to the sliver family")
    return meshmod.FAMILIES[family](args.M, **kw)


def _resolve_operator(args):
    if args.mu is not None:
        if args.alpha is not None or args.weights is not None:
            raise UsageError("--mu excludes --alpha/--weights")
        return kernel.FracOperator.distributed(args.mu, quad_order=args.quad_order)
    alpha = args.alpha if args.alpha is not None else [0.5]
    if len(alpha) == 1 and args.weights is None:
        return kernel.FracOperator.single_term(alpha[0])
    return kernel.FracOperator.multi_term(alpha, args.weights)


def _resolve_scan(args):
    scan = semidiscrete.ScanSpec(
        start=args.scan_start, stop=args.scan_stop, per_decade=args.per_decade
    )
    if scan.points > _DENSE_SIDE:
        raise UsageError("the scan grid has %d points, above %d" % (scan.points, _DENSE_SIDE))
    return scan


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
    values = [kernel.u_lambda(op, args.lam, t) for t in args.t]
    parts = {"cmd": "ulambda", "op": op.label, "lambda": repr(args.lam)}
    print(_header_line(parts))
    print("t,u_lambda")
    for t, u in zip(args.t, values):
        print("%s,%s" % (_fmt(t), _fmt(u)))
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
    values = [kernel.mittag_leffler(alpha, x) for x in args.x]
    parts = {"cmd": "mittag", "alpha": repr(alpha)}
    print(_header_line(parts))
    print("x,E_alpha")
    for x, e in zip(args.x, values):
        print("%s,%s" % (_fmt(x), _fmt(e)))
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
    for method in args.methods:
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


def cmd_threshold(args):
    mesh = _resolve_mesh(args)
    op = _resolve_operator(args)
    scan = _resolve_scan(args)
    out = _outdir(args)
    if args.command == "semi":
        find, column = semidiscrete.positivity_threshold, "t"
    else:
        find, column = fullydiscrete.fd_positivity_threshold, "tau"
    for method in args.methods:
        system = fem.build_fem_system(mesh, method)
        report = find(system, op, scan=scan, tol=args.tol)
        parts = {"cmd": "%s-threshold" % args.command, "op": op.label, "method": method}
        parts.update(_mesh_parts(mesh))
        parts.update(_scan_parts(scan))
        path = os.path.join(out, "%s_threshold_%s.csv" % (args.command, method))
        _write_csv(
            path, (column, "min_entry"), report.curve, parts, _threshold_trailer(report)
        )
        print("%s %s: %s  [%s]" % (method, op.label, report.describe(), path))
    return 0


def cmd_semi_certify(args):
    mesh = _resolve_mesh(args)
    out = _outdir(args)
    delaunay = meshmod.is_delaunay(mesh)
    print("delaunay: %s" % ("true" if delaunay else "false"))
    print("normal: %s" % ("true" if meshmod.is_normal(mesh) else "false"))
    for method in args.methods:
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


def cmd_fully_converge(args):
    mesh = _resolve_mesh(args)
    op = _resolve_operator(args)
    out = _outdir(args)
    lo, hi = args.n_exp
    if lo >= hi:
        raise UsageError("--n-exp wants two increasing nonnegative integers")
    n_list = [2 ** k for k in range(lo, hi + 1)]
    method = args.methods[0]
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
    method = args.methods[0]
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
        sd = semidiscrete.positivity_threshold(system, op, scan=scan).describe()
    except FracposError as exc:
        sd = ("FAIL(%s)" % exc).replace(",", ";")
    try:
        fd = fullydiscrete.fd_positivity_threshold(system, op, scan=scan).describe()
    except FracposError as exc:
        fd = ("FAIL(%s)" % exc).replace(",", ";")
    return sd, fd


def cmd_reproduce(args):
    if (args.table is None) == (args.figure is None):
        raise UsageError("pick exactly one of --table or --figure")
    if args.table is not None:
        if args.h0 is not None:
            raise UsageError("--h0 applies to --figure only")
        return _reproduce_table(args)
    if args.levels is not None or args.long_run:
        raise UsageError("--levels and --long-run apply to --table only")
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


_MESH = ("family", "M", "eps", "bundled", "node", "ele")
_OPERATOR = ("alpha", "weights", "mu", "quad_order")
_SCAN = ("scan_start", "scan_stop", "per_decade")
_FILES = ("config", "outdir")
_THRESHOLD = _MESH + _OPERATOR + _SCAN + _FILES + ("methods", "tol")

# (command words, help, handler, option names); a command with
# subcommands has no handler
_COMMANDS = (
    ("mesh", "generate or inspect triangulations", None, ()),
    ("mesh gen", "generate a mesh family member and save it", cmd_mesh_gen, _MESH + _FILES),
    ("mesh info", "validate a mesh and print its properties", cmd_mesh_info, _MESH + ("config",)),
    ("kernel", "scalar kernel evaluations", None, ()),
    ("kernel ulambda", "relaxation kernel u_lambda(t)", cmd_kernel_ulambda,
     _OPERATOR + ("lam", "t", "config")),
    ("kernel weights", "convolution quadrature weights", cmd_kernel_weights,
     _OPERATOR + ("tau", "n", "config")),
    ("kernel mittag", "Mittag-Leffler values on the negative axis", cmd_kernel_mittag,
     ("alpha", "x", "config")),
    ("semi", "semidiscrete solution matrix experiments", None, ()),
    ("semi curve", "smallest entry of E(t) over a time scan", cmd_semi_curve,
     _MESH + _OPERATOR + _SCAN + _FILES + ("methods",)),
    ("semi threshold", "positivity threshold of E(t)", cmd_threshold, _THRESHOLD),
    ("semi certify", "sufficient-condition report per method", cmd_semi_certify,
     _MESH + _FILES + ("methods", "dump_matrices")),
    ("fully", "backward Euler time stepping experiments", None, ()),
    ("fully threshold", "positivity threshold of E_{1,tau}", cmd_threshold, _THRESHOLD),
    ("fully converge", "stepping error against the kernel", cmd_fully_converge,
     _MESH + _OPERATOR + _FILES + ("methods", "t_final", "n_exp")),
    ("fully contractivity", "max-norm of E_{n,tau} over n", cmd_fully_contractivity,
     _MESH + _OPERATOR + _FILES + ("methods", "taus", "n_max")),
    ("reproduce", "published threshold tables and figure curves", cmd_reproduce,
     ("table", "figure", "levels", "h0", "long_run") + _SCAN + _FILES),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracpos",
        description="nonnegativity experiments for fractional-diffusion finite elements",
    )
    parser.add_argument("--version", action="version", version="fracpos " + __version__)
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for path, help_text, handler, names in _COMMANDS:
        parent, _, name = path.rpartition(" ")
        p = subparsers[parent].add_parser(name, help=help_text)
        if handler is None:
            subparsers[path] = p.add_subparsers(dest="subcommand", required=True)
            continue
        groups = {}
        for opt in (_OPTIONS[n] for n in names):
            title = _GROUPS.get((opt.key or "").split(".")[0])
            if title is not None and title not in groups:
                groups[title] = p.add_argument_group(title)
            # None marks "not given", so a file value or the default can fill it
            groups.get(title, p).add_argument(opt.flag, default=None, **opt.kw)
        p.set_defaults(func=handler, options=names)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _settle(args)
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
