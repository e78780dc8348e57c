"""Golden outputs: the command-line outputs on catalog fronts, a clasp, a
fractional tree and a path, the disk foliations and the classification
oracles, regenerated in-process and compared with the SHA-256 digests in
golden_sha256.json.  The demos' digests sit in the same file; CI compares
them, as a demo runs as its own script.

An output is what the command writes to stdout, and for the two ``--trace``
runs of tree2front on a hand-written tree, what it writes to stderr before
that, as ``2>&1`` would capture it.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from legkit.cli import main

DIGESTS = json.loads((Path(__file__).parent / "golden_sha256.json").read_text())
CATALOG = [(-1, 0), (-5, 2), (-9, 2), (-13, -2), (-41, 0), (-40, 3), (-161, 0), (-160, 7),
           (-641, 0), (-640, -13)]
CLASP = "L 1\nL 2\nX 1\nX 1\nR 2\nR 1\norient 1 -\n"
FRACTIONAL = ("v 0 -5/11 0 +\nv 1 1/3 2/7 -\nv 2 1 5/11 +\nv 3 1 1/13 +\nv 4 5/2 -2/7 -\n"
              "e 0 1\ne 1 2\ne 1 3\ne 3 4\n")
ORACLES = [
    ("tight-unknot", ["tight-unknot", "--a", "-1,0", "--b", "-1,0"], True),
    ("loose-tb", ["loose", "--hopf", "-1", "--tb", "-1"], True),
    ("loose-ab", ["loose", "--hopf", "-1", "--a", "-2,1", "--b", "-2,1"], True),
    ("exceptional", ["exceptional", "--hopf", "-1", "--tb", "1", "--r", "0"], True),
    ("exceptional-list", ["exceptional", "--hopf", "-1"], True),
    ("hopf-lutz", ["hopf-lutz", "--sl", "-1,-1,-1", "--lk", "1"], False),
    ("d3", ["d3", "--hopf", "-1"], False),
    ("complement", ["complement", "--slope", "2"], False),
]
PATH = "v 0 0 0 +\nv 4 1 0 -\nv 3 2 0 +\nv 2 3 0 -\nv 1 4 0 +\ne 0 4\ne 4 3\ne 3 2\ne 2 1\n"


def golden_outputs(tmp_path):
    """Every output named in golden_sha256.json but the demos', by name."""

    def run(*argv, stderr=False):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf if stderr else err):
            code = main(list(argv))
        assert (code, err.getvalue()) == (0, ""), argv
        return buf.getvalue()

    def put(name, text):
        (tmp_path / name).write_text(text)
        out[name] = text
        return str(tmp_path / name)

    out = {}
    for tb, r in CATALOG:
        stem, pair = f"c{tb}_{r}", ("--tb", str(tb), "--r", str(r))
        front = put(stem + ".lfd", run("catalog", *pair, "--front"))
        tree = put(stem + ".sat", run("catalog", *pair, "--tree"))
        out[stem + ".svg"] = run("catalog", *pair, "--svg")
        out[stem + ".t2f"] = run("tree2front", tree)
        out[stem + ".t2fn"] = run("tree2front", tree, "--normalize", "--trace")
        out[stem + ".inv"] = run("invariants", front)
        out[stem + ".json"] = run("invariants", front, "--json")
        out[stem + ".ascii"] = run("render", front, "--format", "ascii")
        out[stem + ".rsvg"] = run("render", front, "--format", "svg")
    clasp = put("clasp.lfd", CLASP)
    out["clasp.inv"] = run("invariants", clasp)
    out["clasp.json"] = run("invariants", clasp, "--json")
    out["clasp.svg"] = run("render", clasp, "--format", "svg")
    out["frac.t2f"] = run("tree2front", put("frac.sat", FRACTIONAL), "--trace", stderr=True)
    out["path.t2fn"] = run("tree2front", put("path.sat", PATH), "--normalize", "--trace",
                           stderr=True)
    out["lift.csv"] = run("render", str(tmp_path / "c-5_2.lfd"), "--lift-csv")
    # README's foliate forms, then CI's raw and full-size runs
    for flags in ((), ("--raw",), ("--trace",), ("--skeleton",)):
        out["f-3_0" + "".join(flags).replace("--", ".") + ".fol"] = run(
            "foliate", "--tb", "-3", "--r", "0", *flags)
    out["f-41_0.raw.trace.skeleton.fol"] = run(
        "foliate", "--tb", "-41", "--r", "0", "--raw", "--trace", "--skeleton")
    out["f-641_0.trace.skeleton.fol"] = run(
        "foliate", "--tb", "-641", "--r", "0", "--trace", "--skeleton")
    # each oracle as text, and as JSON where it has --json
    for name, argv, has_json in ORACLES:
        out[f"cls.{name}.txt"] = run("classify", *argv)
        if has_json:
            out[f"cls.{name}.json"] = run("classify", *argv, "--json")
    return out


def test_outputs_match_golden_digests(tmp_path):
    out = golden_outputs(tmp_path)
    assert sorted(out) == sorted(k for k in DIGESTS if not k.startswith("demo_"))
    assert len(out) == 118
    changed = [k for k, text in out.items()
               if hashlib.sha256(text.encode()).hexdigest() != DIGESTS[k]]
    assert changed == []
