"""Seeded mutations of valid inputs through the command line driver.

Each case takes a valid input (a Triangle-format mesh pair, an INI file
or a flag vector), changes it a little at random and runs it through
cli.main.  Every case must exit 0 or 2, or 1 with a single `numerical
failure:` line; no case may raise, and since pytest turns warnings into
errors here, none may warn either.
"""

import random

from fracpos import cli, mesh

# values that have broken parsers and bounds before
TOKENS = [
    "inf", "-inf", "nan", "1e308", "-1e308", "1e-320", "0", "-0", "-1", "-1e8", "2",
    "0.5", "46", "8192", "x", "%(x)s", "",
]


def run_case(argv, capsys):
    """Run argv through cli.main and check its exit code and stderr."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse prints its usage and exits 2
        assert exc.code == 2, argv
        capsys.readouterr()
        return
    err = capsys.readouterr().err
    prefix = {0: "", 1: "numerical failure: ", 2: "error: "}
    assert rc in prefix, argv
    if rc:
        assert err.count("\n") == 1 and err.startswith(prefix[rc]), (argv, err)


def mutate_lines(rng, text):
    """text with one line dropped or duplicated, or one token replaced or swapped."""
    lines = text.splitlines()
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.choice(["drop", "duplicate", "replace", "swap"])
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    else:
        a, b = lines[i].split() or [""], lines[j].split() or [""]
        p, q = rng.randrange(len(a)), rng.randrange(len(b))
        if kind == "replace":
            a[p] = rng.choice(TOKENS)
        else:
            a[p], b[q] = b[q], a[p]
        lines[i] = " ".join(a)
        if i != j:
            lines[j] = " ".join(b)
    return "\n".join(lines) + "\n"


def mutate_bytes(rng, data):
    """data with one byte replaced by a random one."""
    k = rng.randrange(len(data))
    return data[:k] + bytes([rng.randrange(256)]) + data[k + 1:]


def mutate(rng, path):
    if rng.random() < 0.25:
        path.write_bytes(mutate_bytes(rng, path.read_bytes()))
    else:
        path.write_text(mutate_lines(rng, path.read_text()))


def test_mutated_mesh_files(tmp_path, capsys):
    node, ele = tmp_path / "u3.node", tmp_path / "u3.ele"
    mesh.save_triangle_format(mesh.gen_uniform_square(3), str(node), str(ele))
    valid = {node: node.read_bytes(), ele: ele.read_bytes()}
    files = ["--node", str(node), "--ele", str(ele)]
    rng = random.Random(20261020)
    for _ in range(200):
        for path, data in valid.items():
            path.write_bytes(data)
        mutate(rng, rng.choice([node, ele]))
        run_case(["mesh", "info"] + files, capsys)
        run_case(
            ["semi", "threshold", "--methods", "sg", "lm", "--outdir", str(tmp_path)] + files,
            capsys,
        )


INI = """[mesh]
family = uniform
m = 3
[operator]
alpha = 0.5 0.25
weights = 1 0.5
[scan]
start = 1e-6
stop = 10
per_decade = 4
[run]
methods = sg lm
outdir = out
"""


def test_mutated_config_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRACPOS_OUTDIR", raising=False)
    ini = tmp_path / "run.ini"
    rng = random.Random(20261021)
    for _ in range(100):
        ini.write_text(INI)
        mutate(rng, ini)
        run_case(["mesh", "info", "--config", "run.ini"], capsys)
        run_case(["semi", "threshold", "--config", "run.ini"], capsys)


# valid flag vectors, each cheap to run
ARGVS = [
    "mesh info --family equilateral --M 3",
    "mesh gen --family sliver --M 4 --eps 0.1 --outdir out",
    "kernel ulambda --alpha 0.5 --lambda 1 --t 0.1 1",
    "kernel weights --alpha 0.5 0.2 --weights 1 0.5 --tau 0.1 --n 8",
    "kernel mittag --alpha 0.5 --x -1 2",
    "semi curve --family sliver --M 4 --eps 0.1 --methods fve --per-decade 4 --outdir out",
    "semi threshold --family uniform --M 3 --methods sg lm --scan-start 1e-6 --outdir out",
    "semi certify --family crossed --M 2",
    "fully threshold --family crossed --M 2 --methods lm --mu exp --quad-order 8 --outdir out",
    "fully converge --family uniform --M 2 --n-exp 2 3 --methods sg --outdir out",
    "fully contractivity --family uniform --M 3 --n-max 5 --methods lm --outdir out",
    "reproduce --figure 2 --h0 0.5 --per-decade 4 --outdir out",
]


def test_mutated_flag_vectors(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRACPOS_OUTDIR", raising=False)
    rng = random.Random(20261022)
    for _ in range(150):
        argv = rng.choice(ARGVS).split()
        # keep the command words and mutate the rest, one token per line
        first = 1 if argv[0] == "reproduce" else 2
        rest = mutate_lines(rng, "\n".join(argv[first:])).split("\n")[:-1]
        run_case(argv[:first] + rest, capsys)
