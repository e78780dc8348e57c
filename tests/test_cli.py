import inspect
import json
import os
import random
import subprocess
import sys

import pytest

from legkit import classify as cls
from legkit import cli, fronts, trees
from legkit.cli import main

BASIC = "L 1\nR 1\n"


@pytest.fixture
def basic_file(tmp_path):
    p = tmp_path / "basic.lfd"
    p.write_text(BASIC)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvariants:
    def test_basic(self, capsys, basic_file):
        code, out, _ = run(capsys, "invariants", basic_file)
        assert code == 0
        assert "tb=-1 r=0" in out and "range=yes" in out

    def test_open_diagram_exit_one(self, capsys, tmp_path):
        p = tmp_path / "open.lfd"
        p.write_text("L 1\n")
        code, _, err = run(capsys, "invariants", str(p))
        assert code == 1
        assert "OpenDiagram" in err

    def test_json(self, capsys, basic_file):
        code, out, _ = run(capsys, "invariants", basic_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["components"][0]["tb"] == -1
        assert payload["components"][0]["range"] is True

    def test_orient_flag_negates_r(self, capsys, tmp_path):
        p = tmp_path / "stab.lfd"
        p.write_text("L 1\nL 1\nR 2\nR 1\n")
        _, out_default, _ = run(capsys, "invariants", str(p), "--json")
        _, out_rev, _ = run(capsys, "invariants", str(p), "--orient", "0:-", "--json")
        r0 = json.loads(out_default)["components"][0]["r"]
        r1 = json.loads(out_rev)["components"][0]["r"]
        assert r1 == -r0 != 0

    def test_orient_line_for_missing_component_exit_one(self, capsys, tmp_path):
        p = tmp_path / "bad.lfd"
        p.write_text("L 1\nR 1\norient 7 -\n")
        code, _, err = run(capsys, "invariants", str(p))
        assert code == 1
        assert "NotClosed" in err

    def test_orient_plus_line_for_missing_component_exit_one(self, capsys, tmp_path):
        p = tmp_path / "bad.lfd"
        p.write_text("L 1\nR 1\norient 5 +\n")
        code, out, err = run(capsys, "invariants", str(p))
        assert (code, out) == (1, "")
        assert "NotClosed: no component 5" in err

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_orient_flag_for_missing_component_exit_one(self, capsys, tmp_path, sign):
        p = tmp_path / "eye.lfd"
        p.write_text("L 1\nX 1\nR 1\n")
        code, out, err = run(capsys, "invariants", str(p), "--orient", f"5:{sign}")
        assert (code, out) == (1, "")
        assert "NotClosed: no component 5" in err

    def test_linking_rows(self, capsys, tmp_path):
        p = tmp_path / "clasp.lfd"
        p.write_text("L 1\nL 2\nX 1\nX 1\nR 2\nR 1\n")
        code, out, _ = run(capsys, "invariants", str(p))
        assert code == 0
        assert out == (
            "component 0: tb=-1 r=0 parity=yes bennequin=yes range=yes\n"
            "component 1: tb=-1 r=0 parity=yes bennequin=yes range=yes\n"
            "lk[0] . 1\n"
            "lk[1] 1 .\n"
        )


class TestCatalog:
    def test_tree(self, capsys):
        code, out, _ = run(capsys, "catalog", "--tb", "-3", "--r", "0", "--tree")
        assert code == 0
        assert out == "v 0 0 0 +\nv 1 2 0 +\nv 2 1 0 -\nv 3 3 0 -\ne 0 2\ne 1 2\ne 1 3\n"

    def test_front(self, capsys):
        code, out, _ = run(capsys, "catalog", "--tb", "-1", "--r", "0", "--front")
        assert code == 0
        assert out.strip() == "L 1\nR 1"

    def test_out_of_range_exit_one(self, capsys):
        code, _, err = run(capsys, "catalog", "--tb", "-2", "--r", "0")
        assert code == 1
        assert "OutOfRange" in err

    def test_svg_well_formed(self, capsys):
        import xml.etree.ElementTree as ET

        code, out, _ = run(capsys, "catalog", "--tb", "-5", "--r", "2", "--svg")
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")

    def test_svg_size(self, capsys):
        # one Bezier segment per cubic piece; a per-sample polyline was 59.7 KB
        code, out, _ = run(capsys, "catalog", "--tb", "-5", "--r", "2", "--svg")
        assert code == 0
        assert len(out.encode()) < 8 * 1024

    def test_svg_cusp_count(self, capsys):
        code, out, _ = run(capsys, "catalog", "--tb", "-3", "--r", "0", "--front")
        assert code == 0
        events = [l for l in out.splitlines() if l and l[0] in "LR"]
        assert len(events) == 6  # catalog (-3, 0) has six cusps

    def test_svg_paths_and_casings(self, capsys, tmp_path):
        import xml.etree.ElementTree as ET

        ns = "{http://www.w3.org/2000/svg}"
        rng = random.Random(3)
        cases = [(["catalog", "--tb", "-6", "--r", "1", "--svg"], trees.catalog_front(-6, 1))]
        for i in range(12):
            d = fronts.random_closed_front(rng, 16)
            p = tmp_path / f"f{i}.lfd"
            p.write_text(fronts.serialize_front(d))
            cases.append((["render", str(p), "--format", "svg"], d))
        for argv, d in cases:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            tr = fronts.trace_components(d)
            root = ET.fromstring(out)
            # one path per arc; per crossing a white disk and the two casing halves
            assert len(root.findall(ns + "path")) == len(tr.arcs) + 2 * len(tr.crossings)
            assert len(root.findall(ns + "circle")) == len(tr.crossings)
        assert any(fronts.trace_components(d).crossings for _, d in cases)

    def test_determinism(self, capsys):
        _, a, _ = run(capsys, "catalog", "--tb", "-7", "--r", "4", "--front")
        _, b, _ = run(capsys, "catalog", "--tb", "-7", "--r", "4", "--front")
        assert a == b


class TestTree2Front:
    def test_single_edge(self, capsys, tmp_path):
        p = tmp_path / "edge.sat"
        p.write_text("v 0 0 0 +\nv 1 1 0 -\ne 0 1\n")
        code, out, _ = run(capsys, "tree2front", str(p))
        assert code == 0
        assert out.strip() == "L 1\nR 1"

    def test_trace_without_normalize(self, capsys, tmp_path):
        p = tmp_path / "fork.sat"
        p.write_text("v 0 0 0 +\nv 1 1 0 -\nv 2 2 1/8 +\nv 3 2 -1/8 +\ne 0 1\ne 1 2\ne 1 3\n")
        code, out, err = run(capsys, "tree2front", str(p), "--trace")
        assert code == 0
        assert err == f"# built {len(out.splitlines())} events, invariants (-3, 2)\n"
        assert out == run(capsys, "tree2front", str(p))[1]

    def test_normalize_matches_catalog(self, capsys, tmp_path):
        p = tmp_path / "tree.sat"
        # 5-vertex tree with a fork
        p.write_text(
            "v 0 0 0 +\nv 1 1 0 -\nv 2 2 1/8 +\nv 3 2 -1/8 +\nv 4 3 0 -\n"
            "e 0 1\ne 1 2\ne 1 3\ne 2 4\n"
        )
        code, out, _ = run(capsys, "tree2front", str(p), "--normalize")
        _, cat, _ = run(capsys, "catalog", "--tb", "-4", "--r", "1", "--front")
        assert code == 0
        assert out == cat

    def test_normalize_trace_lists_moves(self, capsys, tmp_path):
        p = tmp_path / "tree.sat"
        # the path 0-1-2-3-4 (+,-,+,-,+) is the broom: no move
        p.write_text("v 0 0 0 +\nv 1 1 0 -\nv 2 2 0 +\nv 3 3 0 -\nv 4 4 0 +\n"
                     "e 0 1\ne 1 2\ne 2 3\ne 3 4\n")
        code, _, err = run(capsys, "tree2front", str(p), "--normalize", "--trace")
        assert (code, err) == (0, "")
        # the path 0-4-3-2-1 is not: its broom is 0-2-1-4 with 3 on the hub 4;
        # it grows from 2-1, and 0 then 4 move so that the hub joins 1
        p.write_text("v 0 0 0 +\nv 4 1 0 -\nv 3 2 0 +\nv 2 3 0 -\nv 1 4 0 +\n"
                     "e 0 4\ne 4 3\ne 3 2\ne 2 1\n")
        code, out, err = run(capsys, "tree2front", str(p), "--normalize", "--trace")
        _, cat, _ = run(capsys, "catalog", "--tb", "-4", "--r", "1", "--front")
        assert code == 0
        assert out == cat
        assert err.splitlines() == [
            "# end-edge move: (4, 0) -> 2",
            "# end-edge move: (3, 4) -> 1",
            "# end-edge move: (2, 3) -> 4",
        ]

    def test_normalize_path_with_hubs_apart(self, capsys, tmp_path):
        # the smallest + and - vertices 0 and 1 are the ends of the path
        # 0-2-3-1; the broom 0-1-3-2 already has 1-3 and 3-2, so 0 moves once
        p = tmp_path / "tree.sat"
        p.write_text("v 0 0 0 +\nv 2 1 0 -\nv 3 2 0 +\nv 1 3 0 -\n"
                     "e 0 2\ne 2 3\ne 3 1\n")
        code, out, err = run(capsys, "tree2front", str(p), "--normalize", "--trace")
        _, cat, _ = run(capsys, "catalog", "--tb", "-3", "--r", "0", "--front")
        assert code == 0
        assert out == cat
        assert err.splitlines() == ["# end-edge move: (2, 0) -> 1"]

    def test_normalize_random_trees_with_hubs_apart(self, capsys, tmp_path):
        rng = random.Random(41)
        p = tmp_path / "tree.sat"
        checked = 0
        while checked < 25:
            t = trees.random_signed_tree(rng, 16)
            ids = t.vertices
            rng.shuffle(ids)
            new_id = dict(zip(t.vertices, ids))
            t = trees.SignedTree.make({new_id[v]: s for v, s in t.signs},
                                      [tuple(new_id[v] for v in e) for e in t.edges])
            sm = t.sign_map
            hubs = {min(v for v in sm if sm[v] == s) for s in (1, -1)}
            if tuple(sorted(hubs)) in t.edges:
                continue
            p.write_text(trees.serialize_tree(trees.spread_embedding(t)) + "\n")
            code, out, err = run(capsys, "tree2front", str(p), "--normalize")
            assert (code, err) == (0, "")
            tb, r = trees.expected_invariants(t)
            assert out == fronts.serialize_front(trees.catalog_front(tb, r)) + "\n"
            checked += 1

    def test_duplicate_vertex_exit_one(self, capsys, tmp_path):
        p = tmp_path / "dup.sat"
        p.write_text("v 0 0 0 +\nv 1 1 0 -\nv 1 2 0 -\ne 0 1\n")
        code, _, err = run(capsys, "tree2front", str(p))
        assert code == 1
        assert "ParseError: line 3: duplicate vertex 1" in err

    @pytest.mark.parametrize("text, line", [
        ("v 0 0 0 +\nv 1 1 0 -\ne 0 1\ne 1 0\n", "line 4: repeated edge 1-0"),
        ("v 0 0 0 +\nv 1 1 0 -\nv 2 2 0 +\ne 0 1\ne 0 1\n", "line 5: repeated edge 0-1"),
    ], ids=["reversed pair", "same pair"])
    def test_repeated_edge_exit_one(self, capsys, tmp_path, text, line):
        p = tmp_path / "repeat.sat"
        p.write_text(text)
        assert run(capsys, "tree2front", str(p)) == (1, "", f"error: ParseError: {line}\n")

    def test_bad_signing_exit_one(self, capsys, tmp_path):
        p = tmp_path / "bad.sat"
        p.write_text("v 0 0 0 +\nv 1 1 0 +\ne 0 1\n")
        code, _, err = run(capsys, "tree2front", str(p))
        assert code == 1
        assert "BadSigning" in err


class TestFoliate:
    def test_skeleton_single_edge(self, capsys, tmp_path):
        code, out, _ = run(capsys, "foliate", "--tb", "-1", "--r", "0", "--skeleton")
        assert code == 0
        assert out.count("\nv ") + out.startswith("v ") == 2
        assert "e " in out

    def test_trace_preserves_differences(self, capsys):
        code, out, _ = run(capsys, "foliate", "--tb", "-3", "--r", "0", "--raw", "--trace")
        assert code == 0
        naf_lines = [l for l in out.splitlines()
                     if l.startswith("#") and "post-NAF" not in l and ":" in l]
        for line in naf_lines:
            deltas = dict.fromkeys(("e+", "h+", "e-", "h-"), 0)
            for token in line.split(":", 1)[1].split():
                for key in deltas:
                    if token.startswith(key):
                        deltas[key] += int(token[len(key):])
            assert deltas["e+"] - deltas["h+"] == 0
            assert deltas["e-"] - deltas["h-"] == 0

    def test_trace_marks_post_naf(self, capsys):
        code, out, _ = run(capsys, "foliate", "--tb", "-3", "--r", "0", "--raw", "--trace")
        assert code == 0
        steps = [l for l in out.splitlines() if l.startswith("# ")]
        converts = [l for l in steps if l.startswith("# convert(")]
        reduces = [l for l in steps if l.startswith(("# rewire(", "# eliminate("))]
        assert len(converts) == 3 and len(reduces) == 8
        assert not any("[post-NAF regime]" in l for l in converts)
        assert all(l.endswith(" [post-NAF regime]") for l in reduces)

    def test_ends_with_the_state_dump(self, capsys):
        from legkit import foliation as fo

        code, out, _ = run(capsys, "foliate", "--tb", "-1", "--r", "0")
        assert code == 0
        last = fo.dump_state(fo.run_pipeline(-1, 0)[0]).splitlines()[-1]
        assert last == "connection b1-p0"
        assert out.splitlines()[-1] == last

    def test_tb_zero_exit_one(self, capsys):
        code, _, err = run(capsys, "foliate", "--tb", "0", "--r", "1")
        assert code == 1
        assert "BadInvariants" in err


class TestClassify:
    def test_exceptional_member(self, capsys):
        code, out, _ = run(
            capsys, "classify", "exceptional", "--hopf", "-1", "--tb", "1", "--r", "0"
        )
        assert code == 0
        assert "exceptional class exists" in out

    def test_hopf_lutz_literal(self, capsys):
        code, out, _ = run(capsys, "classify", "hopf-lutz", "--sl", "-1,-1,-1", "--lk", "1")
        assert code == 0
        assert out.strip() == "3"

    def test_hopf_lutz_front(self, capsys, basic_file):
        code, out, _ = run(capsys, "classify", "hopf-lutz", "--front", basic_file)
        assert code == 0
        assert out.strip() == "-1"

    def test_d3(self, capsys):
        code, out, _ = run(capsys, "classify", "d3", "--hopf", "-1")
        assert code == 0
        assert out.strip() == "1/2"

    @pytest.mark.parametrize("argv,want", [
        (["loose", "--hopf", "-1", "--tb", "-1"], "loose-class\n"),
        (["loose", "--hopf", "-1", "--tb", "1"],
         "undetermined-by-this-test\n"
         "# tb > 0 or nontrivial knots may still be loose; the test is one-directional\n"),
        (["loose", "--hopf", "0", "--a", "-1,0", "--b", "-3,0"], "not-coarsely-equivalent\n"),
        (["exceptional", "--hopf", "-1", "--list", "3"], "(1,0) (2,1) (2,-1) (3,2) (3,-2)\n"),
        (["exceptional", "--hopf", "2", "--list", "3"], "(none)\n"),
        (["exceptional", "--hopf", "-1", "--list", "0"], "(none)\n"),
        (["complement", "--slope", "2"],
         "meridian=(-2,1) slope=2 wedges=(1,2) "
         "rule='ruling-curve rotation number equals -r(L)'\n"),
    ])
    def test_text_output(self, capsys, argv, want):
        code, out, _ = run(capsys, "classify", *argv)
        assert (code, out) == (0, want)

    def test_tight_unknot_verdict(self, capsys):
        code, out, _ = run(
            capsys, "classify", "tight-unknot", "--a", "-1,0", "--b", "-1,0", "--json"
        )
        assert code == 0
        assert json.loads(out)["status"] == "isotopic"

    def test_tight_unknot_text_prints_representative(self, capsys):
        code, out, _ = run(capsys, "classify", "tight-unknot", "--a", "-3,0", "--b", "-3,0")
        want = fronts.serialize_front(trees.catalog_front(-3, 0))
        assert (code, out) == (0, f"isotopic\n{want}\n")

    @pytest.mark.parametrize("argv,want", [
        (["--hopf", "-1", "--list", "2"],
         {"hopf": -1, "classes": [[1, 0], [2, 1], [2, -1]]}),
        (["--hopf", "-1", "--tb", "2", "--r", "-1"],
         {"hopf": -1, "pair": [2, -1], "member": True}),
        (["--hopf", "0", "--tb", "2", "--r", "1"], {"hopf": 0, "pair": [2, 1], "member": False}),
    ])
    def test_exceptional_json(self, capsys, argv, want):
        code, out, _ = run(capsys, "classify", "exceptional", *argv, "--json")
        assert (code, json.loads(out)) == (0, want)


class TestRender:
    def test_ascii_eye(self, capsys, basic_file):
        code, out, _ = run(capsys, "render", basic_file, "--format", "ascii")
        assert code == 0
        assert "<" in out and ">" in out and "-" in out

    def test_lift_csv_closure(self, capsys, basic_file):
        code, out, _ = run(capsys, "render", basic_file, "--lift-csv", "--samples", "4000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,z"
        import numpy as np

        data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        x, y = data[:, 0], data[:, 1]
        xs = np.append(x, x[0])
        ys = np.append(y, y[0])
        closure = float(np.sum((ys[1:] + ys[:-1]) / 2 * np.diff(xs)))
        assert abs(closure) < 1e-6


    @pytest.mark.parametrize("value", ["-5", "1", "0", "many"])
    def test_samples_below_two_is_usage_error(self, capsys, basic_file, value):
        with pytest.raises(SystemExit) as exc:
            main(["render", basic_file, "--lift-csv", "--samples", value])
        assert exc.value.code == 2
        assert "expected an integer >= 2" in capsys.readouterr().err

    def test_two_samples_per_arc(self, capsys, basic_file):
        code, out, _ = run(capsys, "render", basic_file, "--lift-csv", "--samples", "2")
        assert code == 0
        # two arcs of four pieces, two steps per piece, each arc's last sample dropped
        assert len(out.strip().splitlines()) == 1 + 2 * 4 * 2


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog"])  # missing required flags
        assert exc.value.code == 2

    def test_missing_input_file_is_one(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.lfd")
        code, out, err = run(capsys, "invariants", missing)
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2]") and missing in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "tight-unknot", "--a", "x", "--b", "-1,0"],
            ["invariants", "f.lfd", "--orient", "0"],
            ["invariants", "f.lfd", "--orient", "0:x"],
            ["classify", "hopf-lutz", "--sl", "a"],
            ["classify", "hopf-lutz", "--sl", "-1,-1", "--lk", "1;x"],
            ["classify", "hopf-lutz"],
            ["classify", "loose", "--hopf", "-1"],
            ["classify", "loose", "--hopf", "-1", "--a", "1,0"],
            ["classify", "loose", "--hopf", "-1", "--tb", "-1", "--a", "1,0", "--b", "1,0"],
            ["classify", "exceptional", "--hopf", "-1", "--tb", "1"],
            ["classify", "exceptional", "--hopf", "-1", "--r", "0"],
            ["classify", "exceptional", "--hopf", "-1", "--list", "-1"],
            ["fuzz", "--count", "-3"],
            ["classify", "tight-unknot", "--a", "-1,0,1", "--b", "-1,0"],
            # integers are ASCII -?[0-9]+, as in the file formats: int() alone
            # reads "+3", "1_0", " 0" and the Arabic-Indic digits
            ["classify", "complement", "--slope", "1_0"],
            ["classify", "exceptional", "--hopf", "-1", "--tb", "+3", "--r", "\u0662"],
            ["classify", "exceptional", "--hopf", "-1", "--list", "+5"],
            ["classify", "loose", "--hopf", "\u0663", "--tb", "-1"],
            ["classify", "d3", "--hopf", "1_0"],
            ["classify", "tight-unknot", "--a", "-1,0", "--b", "-1, 0"],
            ["classify", "hopf-lutz", "--sl", "-1,+1"],
            ["classify", "hopf-lutz", "--sl", "-1,-1", "--lk", "1_0"],
            ["invariants", "f.lfd", "--orient", "\u0661:-"],
            ["invariants", "f.lfd", "--orient", "-1:+"],
            ["invariants", "f.lfd", "--component", "\u0660"],
            ["catalog", "--tb", "-5", "--r", "+2"],
            ["foliate", "--tb", "-3", "--r", "0 "],
            ["render", "f.lfd", "--lift-csv", "--samples", "4_000"],
            ["fuzz", "--count", "1_0"],
        ],
    )
    def test_malformed_value_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "hopf-lutz", "--sl", "-1", "--json"],
            ["classify", "d3", "--hopf", "-1", "--json"],
            ["classify", "complement", "--slope", "2", "--json"],
        ],
    )
    def test_json_on_plain_text_oracles_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["abc", "1_0", "+7", "\u0667", ""])
    def test_bad_seed_is_usage_error(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("LEGKIT_SEED", seed)
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--count", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"LEGKIT_SEED: expected an integer, got {seed!r}" in err

    @pytest.mark.parametrize("argv", [
        ["invariants", "{lfd}"],
        ["render", "{lfd}", "--format", "svg"],
        ["classify", "hopf-lutz", "--front", "{lfd}"],
        ["tree2front", "{sat}"],
    ])
    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path, argv):
        # the bad byte's line, as for any other malformed line, and exit 1
        (tmp_path / "bad.lfd").write_bytes(b"L 1\nR \xff\n")
        (tmp_path / "bad.sat").write_bytes(b"v 0 0 0 +\nv 1 1 0 \xff\ne 0 1\n")
        argv = [a.format(lfd=tmp_path / "bad.lfd", sat=tmp_path / "bad.sat") for a in argv]
        assert run(capsys, *argv) == (1, "", "error: ParseError: line 2: not UTF-8 (byte 0xff)\n")

    def test_fuzz_fails_on_wrong_oracle(self, capsys, monkeypatch):
        from legkit import trees

        monkeypatch.setenv("LEGKIT_SEED", "777")
        monkeypatch.setattr(trees, "expected_invariants", lambda t: (0, 0))
        code, out, err = run(capsys, "fuzz", "--count", "20")
        assert code == 1
        assert "ok" not in out
        assert "closed form (0, 0)" in err

    def test_fuzz_ok(self, capsys, monkeypatch):
        monkeypatch.setenv("LEGKIT_SEED", "777")
        code, out, _ = run(capsys, "fuzz", "--count", "20")
        assert code == 0
        assert "seed 777" in out

    def test_fuzz_fails_outside_the_unknot_range(self, capsys, monkeypatch):
        # a random front of at most 2 crossings is a topological unknot
        monkeypatch.setenv("LEGKIT_SEED", "777")
        monkeypatch.setattr(fronts, "in_unknot_range", lambda tb, r: False)
        code, out, err = run(capsys, "fuzz", "--count", "20")
        assert (code, out) == (1, "")
        assert "is outside the unknot range with at most 2 crossings" in err


class TestParserReuse:
    """main() keeps one parser per process; no call may see another's arguments."""

    def test_orient_does_not_stick(self, capsys, tmp_path):
        p = tmp_path / "stab.lfd"
        p.write_text("L 1\nL 1\nR 2\nR 1\n")
        _, out_rev, _ = run(capsys, "invariants", str(p), "--orient", "0:-", "--json")
        _, out_default, _ = run(capsys, "invariants", str(p), "--json")
        r_rev = json.loads(out_rev)["components"][0]["r"]
        r_default = json.loads(out_default)["components"][0]["r"]
        assert (r_rev, r_default) == (1, -1)

    @pytest.mark.parametrize("orient_line,flags,r", [
        ("", [], -1),
        ("", ["0:+"], -1),
        ("", ["0:-"], 1),
        ("", ["0:-", "0:-"], 1),
        ("", ["0:-", "0:+"], -1),
        ("", ["0:+", "0:-"], 1),
        ("orient 0 -\n", [], 1),
        ("orient 0 -\n", ["0:+"], -1),
        ("orient 0 -\n", ["0:-"], 1),
    ])
    def test_orient_flag_sets_orientation(self, capsys, tmp_path, orient_line, flags, r):
        # a flag sets its component's orientation; the last flag wins, over
        # the file's orient line too
        p = tmp_path / "stab.lfd"
        p.write_text("L 1\nL 1\nR 2\nR 1\n" + orient_line)
        argv = [a for f in flags for a in ("--orient", f)]
        code, out, _ = run(capsys, "invariants", str(p), *argv, "--json")
        assert code == 0
        assert json.loads(out)["components"][0]["r"] == r

    @pytest.mark.parametrize("flags,lk", [([], -1), (["1:+"], 1), (["1:-"], -1), (["1:+", "1:-"], -1)])
    def test_orient_flag_sets_link_orientation(self, capsys, tmp_path, flags, lk):
        p = tmp_path / "clasp.lfd"
        p.write_text("L 1\nL 2\nX 1\nX 1\nR 2\nR 1\norient 1 -\n")
        argv = [a for f in flags for a in ("--orient", f)]
        code, out, _ = run(capsys, "invariants", str(p), *argv, "--json")
        assert code == 0
        assert json.loads(out)["lk"] == [[None, lk], [lk, None]]

    def test_valid_call_after_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "--tb", "-1", "--r", "0", "--tree", "--front"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        code, out, err = run(capsys, "catalog", "--tb", "-1", "--r", "0", "--front")
        assert code == 0 and err == ""
        assert out.strip() == "L 1\nR 1"

    def test_parser_built_once(self, capsys, monkeypatch):
        fresh = cli.build_parser
        assert fresh() is not fresh()
        built = []

        def counting_build_parser():
            built.append(1)
            return fresh()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        for hopf in range(-3, 4):
            code, out, _ = run(capsys, "classify", "d3", "--hopf", str(hopf))
            assert code == 0
            assert out.strip() == str(cls.d3_from_hopf(hopf))
        assert len(built) == 1


# The combinatorial and drawing commands never need numpy: only ``lifting``
# imports it.  Importing it at the end shows that the probe sees numpy.
NO_NUMPY = """
import sys
import legkit
from legkit import catalog_front, cli, realize_front
catalog_front(-5, 2)
for argv in (["invariants", sys.argv[1]], ["catalog", "--tb", "-5", "--r", "2", "--svg"],
             ["render", sys.argv[1], "--format", "ascii"], ["render", sys.argv[1], "--format", "svg"]):
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
import legkit.lifting
print("numpy" in sys.modules)
"""


def test_combinatorial_cli_does_not_import_numpy(basic_file):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY, basic_file],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-2:] == ["[]", "True"]


# A bare ``import legkit`` loads no submodule.  Each command loads
# legkit.cli, legkit.fronts and legkit.errors, plus the modules it runs
# (listed) and no others.
LOADS = """
import contextlib, io, sys
if sys.argv[1:] == ["import legkit"]:
    import legkit
else:
    from legkit import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(" ".join(sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "legkit")))
"""
CATALOG = ["catalog", "--tb", "-5", "--r", "2"]
CLASSIFY = [
    ["tight-unknot", "--a", "-1,0", "--b", "-1,0"],
    ["loose", "--hopf", "-1", "--tb", "-1"],
    ["loose", "--hopf", "-1", "--a", "-2,1", "--b", "-2,1"],
    ["exceptional", "--hopf", "-1", "--tb", "1", "--r", "0"],
    ["exceptional", "--hopf", "-1"],
    ["hopf-lutz", "--sl", "-1,-1,-1", "--lk", "1"],
    ["hopf-lutz", "--front", "front.lfd"],
    ["d3", "--hopf", "-1"],
    ["complement", "--slope", "2"],
]
COMMAND_LOADS = [
    (["import legkit"], None),
    (["invariants", "front.lfd"], ""),
    (["invariants", "front.lfd", "--json", "--orient", "0:-"], ""),
    (CATALOG + ["--front"], "trees"),
    (CATALOG + ["--tree"], "trees"),
    (CATALOG, "trees"),
    (CATALOG + ["--svg"], "trees render"),
    (["tree2front", "tree.sat"], "trees"),
    (["tree2front", "tree.sat", "--normalize", "--trace"], "trees"),
    (["foliate", "--tb", "-3", "--r", "0"], "trees foliation"),
    (["foliate", "--tb", "-3", "--r", "0", "--raw", "--trace", "--skeleton"], "trees foliation"),
    *((["classify", *argv], "trees classify") for argv in CLASSIFY),
    (["render", "front.lfd", "--format", "ascii"], "render"),
    (["render", "front.lfd", "--format", "svg"], "render"),
    (["render", "front.lfd", "--lift-csv", "--samples", "2"], "render lifting numpy"),
    (["fuzz", "--count", "20"], "trees"),
]


@pytest.mark.parametrize("argv,extra", COMMAND_LOADS, ids=[" ".join(a) for a, _ in COMMAND_LOADS])
def test_command_loads_only_its_modules(tmp_path, argv, extra):
    (tmp_path / "front.lfd").write_text(fronts.serialize_front(trees.catalog_front(-5, 2)))
    (tmp_path / "tree.sat").write_text(trees.serialize_tree(trees.catalog_tree(-5, 2)))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", LOADS, *argv], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    want = {"legkit"} if extra is None else {"legkit", "legkit.cli", "legkit.fronts",
                                             "legkit.errors"}
    want |= {m if m == "numpy" else "legkit." + m for m in (extra or "").split()}
    assert set(proc.stdout.split()) == want


def test_lift_csv_samples_default_is_the_lift_default():
    from legkit import lifting

    lift_default = inspect.signature(lifting.legendrian_lift).parameters["samples_per_arc"]
    args = cli.build_parser().parse_args(["render", "front.lfd", "--lift-csv"])
    assert args.samples == lift_default.default == 4000


PUBLIC = """
    AcceptableEmbedding ContactStructureTag FoliationState FrontDiagram FrontEvent LiftedCurve
    OrientedFront SignedTree build_front catalog_front catalog_tree check_bennequin check_parity
    classify classify_loose classify_tight_unknot complement_torus_data d3_from_hopf
    displace_zigzag errors exceptional_unknot_classes expected_invariants extract_skeleton
    foliation fronts hopf_after_lutz hopf_after_lutz_front in_unknot_range init_boundary
    insert_zigzag invariant_pair lagrangian_closure_integral lagrangian_embeddedness_check
    legendrian_lift lifting linking_matrix loose_check move_end_edge normalize_front_to_catalog
    normalize_to_almost_linear numeric_rotation parse_front parse_tree realize_front
    reduce_interior rotation_number run_pipeline serialize_front serialize_tree
    thurston_bennequin to_elliptic_form to_naf trace_components transverse_self_linking trees
""".split()


def test_lifting_names_resolve_lazily():
    import legkit
    from legkit import lifting, render

    assert legkit.realize_front is lifting.realize_front is render.realize_front
    assert legkit.lifting is lifting
    assert legkit.__all__ == PUBLIC and len(PUBLIC) == 55
    # each name is a submodule or the object of the module that defines it
    for name in PUBLIC:
        obj = getattr(legkit, name)
        if inspect.ismodule(obj):
            assert obj is sys.modules["legkit." + name]
        else:
            assert obj.__module__.startswith("legkit.") and obj.__name__ == name
            assert getattr(sys.modules[obj.__module__], name) is obj
    # submodules resolve through the same hook after a bare import
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import legkit; print(legkit.fronts.__name__, legkit.errors.__name__)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.split() == ["legkit.fronts", "legkit.errors"]
    namespace = {}
    exec("from legkit import *", namespace)
    assert namespace["LiftedCurve"] is lifting.LiftedCurve
    with pytest.raises(AttributeError):
        legkit.no_such_name
