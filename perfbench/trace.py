"""Run one fracpos CLI command in-process with spans around each layer.

Usage: python3 perfbench/trace.py SPANS.json -- <fracpos cli arguments>

The wrappers live here, not in the package: they replace the layers'
public functions wherever the package holds a reference to them (module
attributes, names imported with ``from ... import``, and registries such
as ``cli._GENERATORS``), wrap ``EigenSystem.matrix_function`` on the
class, and then call ``fracpos.cli.main`` with the given arguments.
SPANS.json receives per-layer busy seconds, self seconds and call
counts, the seconds covered by any span, and per-threshold evaluation
and bisection counts.  The exit code is the CLI's.

Spans nest per thread, because ``reproduce --table`` runs its cells on
the CLI's thread pool; busy seconds are summed over threads and may
exceed wall time.
"""

import functools
import importlib
import json
import sys
import threading
import time

# (layer, module, attribute); a layer's busy time is the sum of its
# outermost spans, so a hooked function calling another hook of the same
# layer (bundled_mesh -> load_triangle_format) is counted once.
SPAN_HOOKS = (
    ("mesh.build", "mesh", "gen_uniform_square"),
    ("mesh.build", "mesh", "gen_crossed_rectangles"),
    ("mesh.build", "mesh", "gen_sliver_square"),
    ("mesh.build", "mesh", "gen_equilateral_rhombus"),
    ("mesh.build", "mesh", "bundled_mesh"),
    ("mesh.build", "mesh", "load_triangle_format"),
    ("fem.assemble", "fem", "assemble_stiffness"),
    ("fem.assemble", "fem", "assemble_mass"),
    ("linalg.eigen", "linalg", "gen_sym_eigen"),
    ("kernel.u_lambda", "kernel", "u_lambda_many"),
    ("kernel.char_fn", "kernel", "char_fn"),
    ("kernel.cq_weights", "kernel", "cq_weights"),
    ("fullydiscrete.first_step", "fullydiscrete", "first_step_matrix"),
    ("fullydiscrete.step_solution", "fullydiscrete", "step_solution"),
    ("fullydiscrete.contractivity", "fullydiscrete", "max_norm_contractivity_check"),
    ("semidiscrete.scan", "semidiscrete", "min_entry_curve"),
)
METHOD_HOOKS = (("linalg.matrix_function", "linalg", "EigenSystem", "matrix_function"),)
# threshold entry points: a span of the scan layer that also owns the
# evaluation and bisection counters of one threshold
THRESHOLD_HOOKS = (
    ("semidiscrete", "semidiscrete", "positivity_threshold"),
    ("fullydiscrete", "fullydiscrete", "fd_positivity_threshold"),
)
# one matrix evaluation of a threshold scan of the given kind
EVAL_HOOKS = (
    ("semidiscrete", "semidiscrete", "solution_matrix"),
    ("fullydiscrete", "fullydiscrete", "first_step_matrix"),
)
BISECT_HOOK = ("semidiscrete", "detect_threshold")


class _Frame:
    __slots__ = ("layer", "start", "child", "kind", "evals", "bisect")

    def __init__(self, layer, start, kind=None):
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.kind = kind
        self.evals = 0
        self.bisect = 0


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.busy = {}
        self.self_time = {}
        self.calls = {}
        self.top_spans = []
        self.thresholds = {}


class Tracer:
    """Per-thread span stacks, merged once the traced command returns."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self.missing = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _threshold_frame(self, state, kind=None):
        """Innermost open threshold span of the given kind (any kind if None)."""
        for frame in reversed(state.stack):
            if frame.kind is not None and kind in (None, frame.kind):
                return frame
        return None

    def _run_span(self, layer, fn, args, kwargs, kind=None, eval_kind=None):
        """Call fn inside a span of `layer`; no span when layer is None or re-entered."""
        state = self._state()
        if eval_kind is not None:
            frame = self._threshold_frame(state, eval_kind)
            if frame is not None:
                frame.evals += 1
        stack = state.stack
        if layer is None or (stack and stack[-1].layer == layer and kind is None):
            return fn(*args, **kwargs)
        frame = _Frame(layer, time.perf_counter(), kind)
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            state.busy[layer] = state.busy.get(layer, 0.0) + duration
            state.self_time[layer] = state.self_time.get(layer, 0.0) + duration - frame.child
            state.calls[layer] = state.calls.get(layer, 0) + 1
            if stack:
                stack[-1].child += duration
            else:
                state.top_spans.append((frame.start, end))
            if kind is not None:
                count = state.thresholds.setdefault(kind, [0, 0, 0])
                count[0] += 1
                count[1] += frame.evals
                count[2] += frame.bisect

    def span(self, layer, fn, eval_kind=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run_span(layer, fn, args, kwargs, eval_kind=eval_kind)

        return traced

    def threshold(self, kind, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run_span(kind + ".scan", fn, args, kwargs, kind=kind)

        return traced

    def bisector(self, fn):
        """detect_threshold with its value_fn counted as bisection steps."""

        @functools.wraps(fn)
        def traced(grid, mins, value_fn, *args, **kwargs):
            frame = self._threshold_frame(self._state())

            def counted(x):
                if frame is not None:
                    frame.bisect += 1
                return value_fn(x)

            return fn(grid, mins, counted, *args, **kwargs)

        return traced

    def summary(self, wall):
        busy, self_time, calls, thresholds, spans = {}, {}, {}, {}, []
        for state in self._states:
            for layer, value in state.busy.items():
                busy[layer] = busy.get(layer, 0.0) + value
                self_time[layer] = self_time.get(layer, 0.0) + state.self_time[layer]
                calls[layer] = calls.get(layer, 0) + state.calls[layer]
            for kind, (count, evals, bisect) in state.thresholds.items():
                total = thresholds.setdefault(kind, [0, 0, 0])
                total[0] += count
                total[1] += evals
                total[2] += bisect
            spans.extend(state.top_spans)
        return {
            "wall": wall,
            "covered": _union_length(spans),
            "busy": busy,
            "self": self_time,
            "calls": calls,
            "thresholds": {
                kind: {"count": c, "evals": e, "bisect": b}
                for kind, (c, e, b) in thresholds.items()
            },
            "missing_hooks": self.missing,
        }


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def install(tracer):
    """Replace every reference the package holds to a hooked function."""
    modules = {
        name: importlib.import_module("fracpos." + name)
        for name in ("cli", "mesh", "fem", "linalg", "kernel", "semidiscrete", "fullydiscrete")
    }
    hooks = {}  # function -> (span layer or None, evaluation kind or None)

    def target(module, attr):
        fn = getattr(modules[module], attr, None)
        if fn is None:
            tracer.missing.append("%s.%s" % (module, attr))
        return fn

    for layer, module, attr in SPAN_HOOKS:
        fn = target(module, attr)
        if fn is not None:
            hooks[fn] = (layer, None)
    for kind, module, attr in EVAL_HOOKS:
        fn = target(module, attr)
        if fn is not None:
            hooks[fn] = (hooks.get(fn, (None, None))[0], kind)
    wrapped = {fn: tracer.span(layer, fn, eval_kind) for fn, (layer, eval_kind) in hooks.items()}
    for kind, module, attr in THRESHOLD_HOOKS:
        fn = target(module, attr)
        if fn is not None:
            wrapped[fn] = tracer.threshold(kind, fn)
    fn = target(*BISECT_HOOK)
    if fn is not None:
        wrapped[fn] = tracer.bisector(fn)

    for name, mod in list(sys.modules.items()):
        if name != "fracpos" and not name.startswith("fracpos."):
            continue
        for attr, value in list(vars(mod).items()):
            if _is_hooked(value, wrapped):
                setattr(mod, attr, wrapped[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if _is_hooked(item, wrapped):
                        value[key] = wrapped[item]

    for layer, module, cls_name, attr in METHOD_HOOKS:
        cls = getattr(modules[module], cls_name, None)
        method = getattr(cls, attr, None) if cls is not None else None
        if method is None:
            tracer.missing.append("%s.%s.%s" % (module, cls_name, attr))
            continue
        setattr(cls, attr, tracer.span(layer, method))
    return modules["cli"]


def _is_hooked(value, wrapped):
    try:
        return value in wrapped
    except TypeError:
        return False


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace.py SPANS.json -- <fracpos cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    start = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    with open(out_path, "w") as fh:
        json.dump(tracer.summary(wall), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
