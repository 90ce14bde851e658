"""fracpos benchmark: the CLI driven as a user drives it, one process per command.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command of the workload runs as `python3 -m fracpos.cli ...` with the
package defaults and the checkout's `src` on PYTHONPATH.  The benchmark
sets no thread variable (FRACPOS_THREADS, OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS); it records them.  Passes over the workload's command
sequence repeat until --seconds have gone by.  Every output CSV is
checked against perfbench/reference.json (see check.py).

--trace 0 reports the end-to-end metrics: wall_s (sum over the commands
of each command's median process wall time), setup_s (median wall time
of three fresh `import fracpos.cli`, taken before the passes) and peak_rss_mb (largest resident set of
any command, median over passes).

--trace 1 alternates untraced passes with passes whose commands run under
perfbench/trace.py, and reports per-layer busy seconds, call counts,
evaluations per threshold, the CLI's own time and the tracing overhead.
Two traced passes must agree on every count.

The workloads are fixed inputs; --seed is recorded and changes nothing.
The last line of standard output is the JSON result; the line before it
holds the details (machine, per-command times, output hashes, failures).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory

import check  # noqa: E402

# (CLI arguments, CSV files the command writes)
WORKLOADS = {
    # many small systems (N ~ 40-150) on the CLI's cell pool: per-evaluation
    # overhead, the contour kernel and the pool are visible here
    "tables-coarse": [
        (["reproduce", "--table", str(n)], ["table%d.csv" % n]) for n in range(1, 6)
    ],
    # one large system (N = 583): dense first-step solves, GEMM and eigh
    # dominate and the kernel is about 2%
    "disk-medium-threshold": [
        (
            ["semi", "threshold", "--bundled", "disk_medium", "--methods", "sg"],
            ["semi_threshold_sg.csv"],
        ),
        (
            ["fully", "threshold", "--bundled", "disk_medium", "--methods", "sg"],
            ["fully_threshold_sg.csv"],
        ),
    ],
    # the fully discrete layer as a time stepper: full (n+1) x N x N history,
    # no scan and no contour
    "contractivity-m20": [
        (
            ["fully", "contractivity", "--family", "uniform", "--M", "20", "--methods", "lm"],
            ["contractivity_lm.csv"],
        ),
    ],
}

BUSY_LAYERS = (
    "mesh.build",
    "fem.assemble",
    "linalg.eigen",
    "linalg.matrix_function",
    "kernel.u_lambda",
    "kernel.char_fn",
    "kernel.cq_weights",
    "fullydiscrete.first_step",
    "fullydiscrete.step_solution",
)
CALL_LAYERS = (
    "linalg.eigen",
    "linalg.matrix_function",
    "kernel.u_lambda",
    "fullydiscrete.first_step",
    "fullydiscrete.step_solution",
)
SELF_METRICS = {
    "semidiscrete.scan_self_s": "semidiscrete.scan",
    "fullydiscrete.scan_self_s": "fullydiscrete.scan",
    "fullydiscrete.contractivity_self_s": "fullydiscrete.contractivity",
}
THRESHOLD_KINDS = ("semidiscrete", "fullydiscrete")
THREAD_VARS = ("FRACPOS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

SETUP_SAMPLES = 3
# hard stop for one run, inside the 180 s every run must end by
RUN_LIMIT = 165.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})

    def getconf(name):
        try:
            out = subprocess.run(
                ["getconf", name], capture_output=True, text=True, timeout=10
            ).stdout.strip()
            return int(out) if out.isdigit() else None
        except OSError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


class Bench:
    """One run of one workload: spawns the commands and keeps the tallies."""

    def __init__(self, root, workload, deadline):
        self.commands = WORKLOADS[workload]
        self.deadline = deadline
        self.reference = json.loads((HERE / "reference.json").read_text())["files"]
        self.work = root / ".bench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.attempted = 0
        self.failures = []
        self.last_outputs = {}

    def _spawn(self, argv, log_name):
        """Run argv to completion: (wall seconds, max RSS in MB, exit code)."""
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        with open(self.work / log_name, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def setup_sample(self):
        """Wall time of a fresh `import fracpos.cli`, its exit code and module path."""
        code = "import fracpos.cli; print(fracpos.cli.__file__)"
        wall, _, status = self._spawn([sys.executable, "-c", code], "setup.log")
        return wall, status, (self.work / "setup.log").read_text().strip()

    def run_pass(self, traced):
        """Run every command once; returns per-command records."""
        records = []
        for index, (args, files) in enumerate(self.commands):
            outdir = self.work / ("out%d" % index)
            shutil.rmtree(outdir, ignore_errors=True)
            cli = args + ["--outdir", str(outdir)]
            spans_path = self.work / ("spans%d.json" % index)
            if traced:
                spans_path.unlink(missing_ok=True)
                argv = [sys.executable, str(HERE / "trace.py"), str(spans_path), "--"] + cli
            else:
                argv = [sys.executable, "-m", "fracpos.cli"] + cli
            wall, rss, code = self._spawn(argv, "cmd%d.log" % index)
            self.attempted += 1
            if code != 0:
                self.failures.append("%s: exit code %d" % (" ".join(args), code))
            for name in files:
                path = outdir / name
                text = path.read_text() if path.is_file() else None
                attempted, failures = check.check_output(name, text, self.reference)
                self.attempted += attempted
                self.failures.extend(failures)
                if text is not None and not failures:
                    self.last_outputs[name] = text
            spans = None
            if traced and spans_path.is_file():
                spans = json.loads(spans_path.read_text())
            records.append({"wall": wall, "rss_mb": rss, "code": code, "spans": spans})
        return records


def _trace_pass_summary(records):
    """Sum one traced pass's span files over its commands."""
    busy, self_time, calls, thresholds, missing = {}, {}, {}, {}, set()
    cli_self = 0.0
    for rec in records:
        spans = rec["spans"] or {"busy": {}, "self": {}, "calls": {}, "thresholds": {},
                                 "wall": 0.0, "covered": 0.0, "missing_hooks": ["no span file"]}
        cli_self += spans["wall"] - spans["covered"]
        for layer, value in spans["busy"].items():
            busy[layer] = busy.get(layer, 0.0) + value
            self_time[layer] = self_time.get(layer, 0.0) + spans["self"][layer]
            calls[layer] = calls.get(layer, 0) + spans["calls"][layer]
        for kind, count in spans["thresholds"].items():
            total = thresholds.setdefault(kind, {"count": 0, "evals": 0, "bisect": 0})
            for key in total:
                total[key] += count[key]
        missing.update(spans["missing_hooks"])
    return {
        "wall": sum(rec["wall"] for rec in records),
        "cli_self": cli_self,
        "busy": busy,
        "self": self_time,
        "calls": calls,
        "thresholds": thresholds,
        "missing_hooks": sorted(missing),
    }


def _counts(summary):
    """The deterministic part of a traced pass: call and threshold counts."""
    return {"calls": summary["calls"], "thresholds": summary["thresholds"]}


def _layer_metrics(traced, untraced_walls):
    metric = {}

    def put(name, values, unit):
        metric[name] = {"value": _median(values), "unit": unit}

    for layer in BUSY_LAYERS:
        put(layer + "_s", [p["busy"].get(layer, 0.0) for p in traced], "s")
    for layer in CALL_LAYERS:
        metric[layer + "_calls"] = {"value": traced[0]["calls"].get(layer, 0), "unit": "count"}
    for name, layer in SELF_METRICS.items():
        put(name, [p["self"].get(layer, 0.0) for p in traced], "s")
    for kind in THRESHOLD_KINDS:
        t = traced[0]["thresholds"].get(kind, {"count": 0})
        for name, key in (("evals_per_threshold", "evals"), ("bisect_steps_per_threshold", "bisect")):
            value = t[key] / t["count"] if t["count"] else 0.0
            metric["%s.%s" % (kind, name)] = {"value": value, "unit": "count"}
    put("cli.self_s", [p["cli_self"] for p in traced], "s")
    metric["trace.overhead_s"] = {
        "value": _median([p["wall"] for p in traced]) - _median(untraced_walls),
        "unit": "s",
    }
    return metric


def _shares(summary):
    """Each layer's self time as a share of all span self time in one traced pass."""
    self_time = summary["self"]
    total = sum(self_time.values())
    return {k: round(v / total, 4) for k, v in sorted(self_time.items())} if total else {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = HERE.parent
    package = root / "src" / "fracpos"
    if not (package / "cli.py").is_file():
        print("error: no fracpos sources under %s" % (root / "src"), file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, started + RUN_LIMIT)
    setup = []
    for _ in range(SETUP_SAMPLES):
        wall, code, location = bench.setup_sample()
        if code != 0 or Path(location).resolve().parent != package.resolve():
            print("error: fracpos.cli imports from %r, not this checkout" % location,
                  file=sys.stderr)
            return 2
        setup.append(wall)

    untraced, traced = [], []
    self_test = None
    while True:
        do_trace = bool(args.trace) and len(traced) < len(untraced)
        records = bench.run_pass(traced=do_trace)
        if do_trace:
            traced.append(records)
        else:
            untraced.append(records)
        if self_test is None and bench.last_outputs:
            self_test = check.self_test(bench.last_outputs, bench.reference)
        elapsed = time.perf_counter() - started
        enough = elapsed >= args.seconds and (not args.trace or len(traced) == len(untraced) >= 2)
        longest = max(sum(r["wall"] for r in p) for p in untraced + traced)
        if enough or elapsed + 1.5 * longest > RUN_LIMIT:
            break

    if self_test is None:
        problems = ["checker self-test did not run: no correct output"]
    else:
        problems = list(self_test)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": _machine(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "commands": [
            {
                "argv": " ".join(cmd),
                "wall_s": [rec[i]["wall"] for rec in untraced],
                "rss_mb": [rec[i]["rss_mb"] for rec in untraced],
            }
            for i, (cmd, _) in enumerate(bench.commands)
        ],
        "setup_s": setup,
        "outputs": {
            name: {
                "sha256": check.sha256(text),
                "matches_reference": check.sha256(text) == bench.reference[name]["sha256"],
            }
            for name, text in sorted(bench.last_outputs.items())
        },
        "failures": bench.failures[:20],
    }
    if args.trace:
        if not traced:
            print("error: no traced pass finished within %.0f s" % RUN_LIMIT, file=sys.stderr)
            return 1
        summaries = [_trace_pass_summary(p) for p in traced]
        if len(traced) < 2:
            problems.append("fewer than two traced passes")
        elif any(_counts(s) != _counts(summaries[0]) for s in summaries[1:]):
            problems.append("traced passes disagree on call or threshold counts")
        untraced_walls = [sum(r["wall"] for r in p) for p in untraced]
        metrics = _layer_metrics(summaries, untraced_walls)
        details["missing_hooks"] = summaries[0]["missing_hooks"]
        details["self_time_shares"] = _shares(summaries[0])
        details["counts"] = _counts(summaries[0])
    else:
        per_command = list(zip(*untraced))
        metrics = {
            "wall_s": {
                "value": sum(_median([r["wall"] for r in rs]) for rs in per_command),
                "unit": "s",
            },
            "setup_s": {"value": _median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": max(_median([r["rss_mb"] for r in rs]) for rs in per_command),
                "unit": "MB",
            },
        }
    details["problems"] = problems
    print(json.dumps({"details": details}, sort_keys=True))
    result = {
        "correct": not bench.failures and not problems,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
