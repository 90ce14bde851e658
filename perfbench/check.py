"""Correctness check of the CSV files a workload writes.

Thresholds and statuses are compared with reference values frozen from
commit 0b4a281 (perfbench/reference.json) at the tests' 10% band;
contractivity norms are held to criterion 8's bound.  Every threshold
and every norm is one operation: it fails when it is missing, is a
``FAIL(...)`` cell, or is outside its band.
"""

import hashlib
import json

BAND = 0.10
NORM_BOUND = 1.0 + 1e-10


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _rows(text):
    """Data rows of a fracpos CSV: comment lines dropped, header split off."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _agrees(got, want):
    """A numeric reference allows the 10% band; a status must match exactly."""
    if got is None or got.startswith("FAIL("):
        return False
    try:
        w = float(want)
    except ValueError:
        return got == want
    try:
        g = float(got)
    except ValueError:
        return False
    return abs(g - w) <= BAND * abs(w)


def _check_table(text, ref):
    _, rows = _rows(text)
    cells = {}
    for row in rows:
        cells.setdefault("%s,%s" % (row.get("method"), row.get("operator")), []).append(row)
    failures = []
    for key, (sd, fd) in sorted(ref["cells"].items()):
        found = cells.get(key, [])
        row = found[0] if len(found) == 1 else {}
        for column, want in (("sd_threshold", sd), ("fd_threshold", fd)):
            got = row.get(column)
            if not _agrees(got, want):
                failures.append("%s %s: got %s, want %s" % (key, column, got, want))
    return 2 * len(ref["cells"]), failures


def _check_threshold(text, ref):
    summary = {}
    for line in text.splitlines():
        if line.startswith("# threshold "):
            try:
                summary = json.loads(line[len("# threshold "):])
            except ValueError:
                summary = {}
    got = summary.get("value", summary.get("status"))
    if summary.get("status") != ref["status"] or not _agrees(got, ref["value"]):
        return 1, ["threshold: got %s (%s), want %s" % (got, summary.get("status"), ref["value"])]
    return 1, []


def _check_contractivity(text, ref):
    _, rows = _rows(text)
    norms = {}
    for row in rows:
        try:
            norms[(float(row["tau"]), int(row["n"]))] = float(row["max_norm"])
        except (KeyError, ValueError):
            continue
    failures = []
    for tau in ref["taus"]:
        for n in range(ref["n_max"] + 1):
            norm = norms.get((tau, n))
            if norm is None or not norm <= NORM_BOUND:
                failures.append("tau=%r n=%d: max_norm %s exceeds %r" % (tau, n, norm, NORM_BOUND))
    return len(ref["taus"]) * (ref["n_max"] + 1), failures


_CHECKS = {
    "table": _check_table,
    "threshold": _check_threshold,
    "contractivity": _check_contractivity,
}


def check_output(name, text, reference):
    """(attempted, failures) for output file `name`; text None means missing."""
    ref = reference[name]
    return _CHECKS[ref["kind"]]("" if text is None else text, ref)


def _doctored(name, text, ref):
    """Copies of a correct output, each with exactly one defect planted."""
    kind = ref["kind"]
    out = {}
    if kind == "table":
        lines = text.splitlines()
        header = None
        for i, line in enumerate(lines):
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            cells = line.split(",")
            col = header.index("sd_threshold")
            try:
                value = float(cells[col])
            except ValueError:
                continue
            moved = list(lines)
            moved[i] = ",".join(cells[:col] + ["%.2e" % (1.2 * value)] + cells[col + 1:])
            failed = list(lines)
            failed[i] = ",".join(cells[:col] + ["FAIL(doctored)"] + cells[col + 1:])
            out["moved 20%"] = "\n".join(moved)
            out["FAIL cell"] = "\n".join(failed)
            break
    elif kind == "threshold":
        lines = text.splitlines()
        for i, line in enumerate(lines):
            summary = json.loads(line[len("# threshold "):]) if line.startswith("# threshold ") else {}
            if "value" in summary:
                moved = dict(summary, value="%.2e" % (1.2 * float(summary["value"])))
                failed = dict(summary, value="FAIL(doctored)")
                for label, doc in (("moved 20%", moved), ("FAIL cell", failed)):
                    planted = list(lines)
                    planted[i] = "# threshold " + json.dumps(doc, sort_keys=True)
                    out[label] = "\n".join(planted)
    elif kind == "contractivity":
        lines = text.splitlines()
        cells = lines[-1].split(",")
        lines[-1] = ",".join(cells[:-1] + [repr(NORM_BOUND + 1e-9)])
        out["norm above bound"] = "\n".join(lines)
    return out


def self_test(outputs, reference):
    """Problems found when the checker is fed doctored copies of `outputs`.

    outputs maps file name to the text of a correct output.  Each planted
    defect must add exactly one failure; an empty list means the checker
    rejected every doctored copy.
    """
    problems = []
    tried = 0
    for name, text in sorted(outputs.items()):
        ref = reference[name]
        _, base = check_output(name, text, reference)
        for label, doctored in _doctored(name, text, ref).items():
            tried += 1
            _, failures = check_output(name, doctored, reference)
            if len(failures) != len(base) + 1:
                problems.append("%s (%s): checker reported %d failures, expected %d"
                                % (name, label, len(failures), len(base) + 1))
    if not tried:
        problems.append("no output could be doctored")
    return problems
