import copy
import itertools
import pickle
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legkit import foliation as fo
from legkit import trees as tr
from legkit import fronts as fr
from legkit.errors import (
    BadInvariants,
    BadLeaves,
    BadLocator,
    NotATree,
    NotConnected,
    NotEllipticForm,
    PatternMismatch,
    SignMismatch,
    TightnessViolation,
)


def in_range_grid(max_tb):
    for tb in range(max_tb, 0):
        for r in range(tb + 1, -tb):
            if fr.in_unknot_range(tb, r):
                yield tb, r


class TestInit:
    def test_minimal_unknot(self):
        s = fo.init_boundary(-1, 0)
        assert len(s.boundary) == 2
        assert s.counts(fo.INTERIOR) == {"e+": 1, "h+": 0, "e-": 0, "h-": 0}

    def test_three_fold(self):
        s = fo.init_boundary(-3, 0)
        assert len(s.boundary) == 6
        assert s.counts(fo.INTERIOR) == {"e+": 2, "h+": 0, "e-": 0, "h-": 1}

    def test_parity_rejected(self):
        with pytest.raises(BadInvariants):
            fo.init_boundary(-2, 0)

    def test_positive_tb_rejected(self):
        with pytest.raises(BadInvariants):
            fo.init_boundary(0, 1)

    @pytest.mark.parametrize("kinds", [["h", "e"] * 2, ["h", "e"] * 4])
    def test_boundary_kinds_length(self, kinds):
        with pytest.raises(BadInvariants, match=f"must list 6 kinds, got {len(kinds)}"):
            fo.init_boundary(-3, 0, boundary_kinds=kinds)

    def test_bad_boundary_kind(self):
        with pytest.raises(BadInvariants, match="bad kind 'x'"):
            fo.init_boundary(-1, 0, boundary_kinds=["e", "x"])

    def test_alternating_signs(self):
        s = fo.init_boundary(-4, 1)
        signs = [s.sing_map[b][1] for b in s.boundary]
        assert all(signs[i] != signs[(i + 1) % len(signs)] for i in range(len(signs)))


class TestNaf:
    def test_identity_on_naf(self):
        s = fo.init_boundary(-3, 0)
        assert fo.to_naf(s) == s

    def test_single_conversion(self):
        s = fo.init_boundary(-1, 0, boundary_kinds=["e", "e"])
        out = fo.to_naf(s)
        assert [out.sing_map[b] for b in out.boundary] == ["h+", "e-"]
        conversions = [st for st in out.trace if st.rule == "convert"]
        assert len(conversions) == 1

    def test_mixed_boundary(self):
        s = fo.init_boundary(-2, 1, boundary_kinds=["e", "h", "e", "h"])
        out = fo.to_naf(s)
        assert out.is_naf()
        assert len([st for st in out.trace if st.rule == "convert"]) == 4


class TestAtomicRewrites:
    def test_eliminate_requires_same_sign(self):
        s = fo.init_boundary(-3, 0)
        with pytest.raises(SignMismatch):
            fo.eliminate(s, "p0", "q0")  # e+ paired with h-

    def test_eliminate_requires_connection(self):
        s = fo.create_pair(fo.init_boundary(-5, 0), "leaf", 1)
        h_plus = next(i for i, _ in s.sing if i.startswith("ch"))
        with pytest.raises(NotConnected):
            fo.eliminate(s, "p0", h_plus)  # same sign, no shared separatrix

    def test_create_then_eliminate_restores_counts(self):
        s = fo.init_boundary(-3, 0)
        before = s.counts()
        s2 = fo.create_pair(s, "leaf", 1)
        e_id = next(i for i, _ in s2.sing if i.startswith("ce"))
        h_id = next(i for i, _ in s2.sing if i.startswith("ch"))
        s3 = fo.eliminate(s2, e_id, h_id)
        assert s3.counts() == before

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_create_pair_needs_unit_sign(self, sign):
        with pytest.raises(SignMismatch):
            fo.create_pair(fo.init_boundary(-3, 0), "leaf", sign)

    def test_convert_deltas(self):
        s = fo.init_boundary(-3, 0)
        out = fo.convert(s, "p0", "gamma", "tau")
        assert out.counts()["e+"] - s.counts()["e+"] == 1
        assert out.counts()["h+"] - s.counts()["h+"] == 1
        assert out.sing_map["p0"] == "h+"

    def test_convert_bad_leaves(self):
        s = fo.init_boundary(-3, 0)
        with pytest.raises(BadLeaves):
            fo.convert(s, "p0", "gamma", "gamma")

    def test_unknown_ids(self):
        s = fo.init_boundary(-3, 0)
        with pytest.raises(NotConnected, match="unknown singularities p0, zz"):
            fo.eliminate(s, "p0", "zz")
        with pytest.raises(NotConnected, match="unknown singularities zz, q0"):
            fo.eliminate(s, "zz", "q0")
        with pytest.raises(BadLeaves, match="unknown singularity zz"):
            fo.convert(s, "zz", "gamma", "tau")
        with pytest.raises(NotConnected, match="unknown endpoint"):
            fo.rewire(s, add=("p0", "zz"))
        with pytest.raises(NotConnected, match="no separatrix"):
            fo.rewire(s, remove=("p0", "zz"))

    def test_tightness_guard(self):
        s = fo.init_boundary(-3, 0)
        # closing a same-sign separatrix cycle p0 - q? ... use two rewires
        s = fo.create_pair(s, "leaf", 1)
        e_id = next(i for i, _ in s.sing if i.startswith("ce"))
        h_id = next(i for i, _ in s.sing if i.startswith("ch"))
        s = fo.rewire(s, add=("p0", e_id))
        # both endpoints already have separatrices, so the walk runs
        assert all(any(x in e for e in s.separatrices) for x in ("p0", h_id))
        with pytest.raises(TightnessViolation):
            fo.rewire(s, add=("p0", h_id))  # p0-e-h-p0 same-sign cycle
        with pytest.raises(TightnessViolation):
            ref_rewire(to_ref(s), add=("p0", h_id))

    def test_no_walk_from_an_isolated_endpoint(self, monkeypatch):
        # a point without separatrices shares no same-sign tree with another
        def walk(self, u, v, sign):
            raise AssertionError(f"walk from {u} to {v}")

        s = fo.init_boundary(-1, 0, ["h", "h"])  # interior y0, y1: e-, no separatrix
        with pytest.raises(TightnessViolation):
            fo.rewire(s, add=("y0", "y0"))  # a self-loop is a cycle all the same
        want = ref_rewire(to_ref(s), add=("b1", "y0"))
        monkeypatch.setattr(fo._Work, "_joined", walk)
        assert to_ref(fo.rewire(s, add=("b1", "y0"))) == want
        fo.create_pair(fo.convert(s, "y1", "gamma", "tau"), "leaf", -1)

    @pytest.mark.parametrize("tb, r, e_id, h_id", [
        (-4, -3, "p0", "b0"),  # a boundary hyperbolic
        (-4, -3, "b0", "p0"),  # the same pair, operands swapped
        (-3, 0, "b5", "q0"),  # a boundary elliptic
    ])
    def test_eliminate_refuses_boundary_points(self, tb, r, e_id, h_id):
        # the boundary cycle would still name the removed point
        s = fo.init_boundary(tb, r)
        assert tuple(sorted((e_id, h_id))) in s.separatrices
        for rewrite, state in ((fo.eliminate, s), (ref_eliminate, to_ref(s))):
            with pytest.raises(PatternMismatch, match=f"interior points, got {e_id}, {h_id}"):
                rewrite(state, e_id, h_id)


class TestReduce:
    def test_exact_counts_default(self):
        for tb, r in in_range_grid(-9):
            s = fo.reduce_interior(fo.to_naf(fo.init_boundary(tb, r)))
            e, h = fo.interior_count_targets(tb, r)
            assert s.counts(fo.INTERIOR) == {"e+": e, "h+": 0, "e-": 0, "h-": h}

    def test_exact_counts_from_raw_boundary(self):
        for tb, r in [(-1, 0), (-3, 0), (-2, 1), (-4, -1)]:
            kinds = ["e"] * (2 * abs(tb))
            s = fo.reduce_interior(fo.to_naf(fo.init_boundary(tb, r, kinds)))
            e, h = fo.interior_count_targets(tb, r)
            assert s.counts(fo.INTERIOR) == {"e+": e, "h+": 0, "e-": 0, "h-": h}

    def test_spot_value(self):
        assert fo.interior_count_targets(-1, 0) == (1, 0)

    def test_needs_naf(self):
        s = fo.init_boundary(-1, 0, boundary_kinds=["e", "e"])
        with pytest.raises(PatternMismatch):
            fo.reduce_interior(s)


class TestEllipticForm:
    def test_minimal(self):
        s = fo.reduce_interior(fo.to_naf(fo.init_boundary(-1, 0)))
        out, skel = fo.to_elliptic_form(s)
        assert out.counts(fo.INTERIOR) == {"e+": 1, "h+": 0, "e-": 0, "h-": 0}
        assert [out.sing_map[b] for b in out.boundary] == ["h+", "e-"]
        assert skel.ids == ("b1", "p0") and len(skel.tree.edges) == 1

    def test_idempotent(self):
        s = fo.reduce_interior(fo.to_naf(fo.init_boundary(-5, 2)))
        once, _ = fo.to_elliptic_form(s)
        twice, _ = fo.to_elliptic_form(once)
        assert once == twice

    @pytest.mark.parametrize(
        "tb, r, raw",
        [(-23, 0, False), (-161, 0, False), (-641, 0, False), (-641, 640, False), (-41, 0, True)],
    )
    def test_absorbs_along_reduced_separatrices(self, tb, r, raw):
        kinds = [fo.ELLIPTIC] * (2 * -tb) if raw else None
        reduced = fo.reduce_interior(fo.to_naf(fo.init_boundary(tb, r, kinds)))
        final, _ = fo.to_elliptic_form(reduced)
        if not raw:
            assert final == fo.run_pipeline(tb, r)[0]
        steps = final.trace[len(reduced.trace):]
        assert [st.rule for st in steps] == ["absorb"] * fo.interior_count_targets(tb, r)[1]
        assert all(tuple(sorted(st.operands)) in reduced.separatrices for st in steps)

    @pytest.mark.parametrize("make", [
        # b0 +h, b1 -e, b2 +h, b3 absorbed to -h; p0 - b1 - p1 is the broom
        lambda: fo.reduce_interior(fo.to_naf(fo.init_boundary(-2, 1))),
        lambda: fo.init_boundary(-3, -2),  # (tb, tb + 1): returned as it is
    ], ids=["absorbing", "already-elliptic"])
    def test_returns_its_skeleton(self, make):
        out, skel = fo.to_elliptic_form(make())
        assert out.is_elliptic_form()
        assert skel is fo.extract_skeleton(out)

    def test_run_pipeline_returns_state_and_skeleton(self):
        result = fo.run_pipeline(-2, 1)
        assert type(result) is tuple and len(result) == 2
        state, skel = result
        assert skel is fo.extract_skeleton(state)
        assert state.connections == (("b1", "p0"), ("b1", "p1"))


class TestSkeleton:
    def test_minimal_edge(self):
        _, skel = fo.run_pipeline(-1, 0)
        assert len(skel.tree.vertices) == 2
        assert skel.tree.counts() == (1, 1)

    def test_three_vertex_path(self):
        _, skel = fo.run_pipeline(-2, 1)
        assert len(skel.tree.vertices) == 3
        assert tr.expected_invariants(skel.tree) == (-2, 1)

    def test_not_elliptic_form_rejected(self):
        s = fo.init_boundary(-3, 0)
        with pytest.raises(NotEllipticForm):
            fo.extract_skeleton(s)

    def test_initial_elliptic_form_has_its_skeleton(self):
        # (tb, tb + 1) starts in elliptic form with a reduced interior
        for tb in range(-15, 0):
            state = fo.init_boundary(tb, tb + 1)
            assert state.is_elliptic_form() and state.is_reduced()
            skel = fo.extract_skeleton(state)
            assert skel == fo.run_pipeline(tb, tb + 1)[1]
            assert skel == ref_extract_skeleton(ref_to_elliptic_form(to_ref(state))[0])
            assert fo.to_elliptic_form(state)[0] is state

    def test_interior_negative_elliptics_have_no_skeleton(self):
        s = fo.init_boundary(-1, 0, ["h", "h"])
        assert s.counts(fo.INTERIOR) == {"e+": 1, "h+": 0, "e-": 2, "h-": 0}
        assert s.is_elliptic_form() and not s.is_reduced()
        assert s.connections == ()
        with pytest.raises(NotEllipticForm):
            fo.extract_skeleton(s)

    @staticmethod
    def _rewritten():
        # a positive boundary elliptic leaves 3 elliptic points for tb = -3
        s = fo.convert(fo.run_pipeline(-3, 2)[0], "b0", "g", "t")
        for e, h in (("p1", "d0"), ("p2", "d1")):
            s = fo.eliminate(fo.rewire(s, add=(e, h)), e, h)
        return s

    @pytest.mark.parametrize("make", [
        lambda: fo.init_boundary(-3, 2, list("hhhehe")),  # 5 elliptic points
        lambda: fo.init_boundary(-3, 2, list("ehhehe")),  # 4, but r reads 0
        _rewritten,
    ], ids=["five", "r0", "rewritten"])
    def test_elliptic_points_that_cannot_be_the_skeleton(self, make):
        # elliptic form with a reduced interior, but no (-3, 2) skeleton
        s = make()
        assert s.is_elliptic_form() and s.is_reduced()
        assert s.connections == ()
        with pytest.raises(PatternMismatch):
            fo.to_elliptic_form(s)
        with pytest.raises(NotATree, match="tb=-3, r=2"):
            fo.extract_skeleton(s)

    def test_round_trip_through_build_front(self):
        for tb, r in [(-1, 0), (-3, 2), (-6, -1), (-9, 0)]:
            _, skel = fo.run_pipeline(tb, r)
            d = tr.build_front(skel.embedding())
            assert fr.invariant_pair(fr.OrientedFront.default(d)) == (tb, r)


class TestCopies:
    def test_state_round_trip(self):
        state, skel = fo.run_pipeline(-7, 2)
        counts = state.counts()  # fills the cached views
        for state2 in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
            assert state2 == state and state2.trace == state.trace
            assert "sing_map" not in vars(state2)
            assert state2.counts() == counts and state2.sing_map == state.sing_map
            assert fo.extract_skeleton(state2) == skel


    def test_copies_run_like_the_original(self):
        start = fo.init_boundary(-9, 2, [fo.ELLIPTIC] * 18)
        stages = (fo.to_naf, fo.reduce_interior, lambda s: fo.to_elliptic_form(s)[0])
        for copied in (pickle.loads(pickle.dumps(start)), copy.deepcopy(start)):
            assert copied == start and copied.sing_map == start.sing_map
            a, b = copied, start
            for stage in stages:
                a, b = stage(a), stage(b)
                assert a == b and fo.dump_state(a) == fo.dump_state(b)
                assert a.trace == b.trace
            assert fo.extract_skeleton(a) == fo.extract_skeleton(b)


def test_states_hold_tags_and_sorted_id_pairs():
    """A singularity is its tag, and a separatrix or connection a (u, v) pair
    of ids with u < v, held in sorted order, in every state of the default and
    raw pipelines and of a chain of atomic rewrites.  The locus comes from the
    boundary cycle, so a boundary point still cannot be eliminated."""
    states = []
    for tb, r in in_range_grid(-15):
        for raw in (False, True):
            state = fo.init_boundary(tb, r, [fo.ELLIPTIC] * (2 * -tb) if raw else None)
            states.append(state)
            for stage in (fo.to_naf, fo.reduce_interior, lambda s: fo.to_elliptic_form(s)[0]):
                states.append(stage(states[-1]))
    s = fo.init_boundary(-3, 0, list("eehehe"))
    for step in (
        lambda s: fo.convert(s, "b0", "gamma", "tau"),  # a boundary point flips
        lambda s: fo.convert(s, "q0", "gamma", "tau"),  # and an interior one
        lambda s: fo.create_pair(s, "leaf", -1),
        lambda s: fo.rewire(s, add=("ce0", "b1"), remove=("b0", "c1")),
        lambda s: fo.eliminate(s, "q0", "d0"),
    ):
        s = step(s)
        states.append(s)
    assert [st.rule for st in s.trace] == [
        "convert", "convert", "create_pair", "rewire", "eliminate"]
    assert s.counts(fo.INTERIOR) == {"e+": 2, "h+": 0, "e-": 1, "h-": 2}
    assert any(st.connections for st in states)
    for state in states:
        assert all(type(t) is str and t in fo._TAGS for _, t in state.sing)
        for pairs in (state.separatrices, state.connections):
            assert type(pairs) is tuple and list(pairs) == sorted(pairs)
            assert all(type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is str
                       and p[0] < p[1] for p in pairs)
    # c0 is the interior e+ that converting b0 (now h+) made on a separatrix to it
    assert ("b0", "c0") in s.separatrices and s.sing_map["c0"] == "e+"
    with pytest.raises(PatternMismatch, match="interior points, got c0, b0"):
        fo.eliminate(s, "c0", "b0")


def test_rewrite_steps_are_immutable_hashable_tuples():
    s = fo.rewire(fo.run_pipeline(-5, 2)[0], add=("p0", "b1"))
    steps = s.trace
    assert [st.rule for st in steps] == ["absorb"] * 3 + ["rewire"]
    for step in steps:
        assert isinstance(step, tuple) and step == fo.RewriteStep(*step)
        assert hash(step) == hash(fo.RewriteStep(step.rule, step.operands, step.delta))
        with pytest.raises(AttributeError):
            step.rule = "eliminate"
    assert len(set(steps)) == 4
    assert [st.describe() for st in steps[2:]] == [
        "absorb(q2,b5): e--1", "rewire(('p0', 'b1'),None): no count change"]


class TestDump:
    def test_deterministic(self):
        a = fo.dump_state(fo.run_pipeline(-3, 0)[0])
        b = fo.dump_state(fo.run_pipeline(-3, 0)[0])
        assert a == b
        assert a.startswith("tb -3 r 0")
        assert "boundary" in a and "interior" in a

    def test_matches_reference(self):
        for tb, r in in_range_grid(-9):
            for pattern in PATTERNS:
                s = fo.init_boundary(tb, r, _kinds(pattern, tb))
                for stage in (fo.to_naf, fo.reduce_interior, lambda s: fo.to_elliptic_form(s)[0]):
                    s = stage(s)
                    assert fo.dump_state(s) == ref_dump_state(to_ref(s)), (tb, r, pattern)


class TestTypedFailures:
    """Stage checks raise typed errors, so they hold under ``python -O``."""

    def test_to_naf_unreached(self, monkeypatch):
        monkeypatch.setattr(fo.FoliationState, "is_naf", lambda self: False)
        with pytest.raises(PatternMismatch):
            fo.to_naf(fo.init_boundary(-1, 0, boundary_kinds=["e", "e"]))

    def test_reduce_targets_unreachable(self, monkeypatch):
        s = fo.init_boundary(-3, 0)  # interior e+ = 2, h- = 1
        monkeypatch.setattr(fo, "interior_count_targets", lambda tb, r: (0, 1))
        with pytest.raises(BadInvariants, match="cannot reach"):
            fo.reduce_interior(s)

    def test_reduce_targets_missed(self, monkeypatch):
        s = fo.init_boundary(-3, 0)
        monkeypatch.setattr(fo, "interior_count_targets", lambda tb, r: (5, 1))
        with pytest.raises(BadInvariants, match="misses the targets"):
            fo.reduce_interior(s)

    def test_elliptic_form_unreached(self, monkeypatch):
        s = fo.reduce_interior(fo.to_naf(fo.init_boundary(-3, 0)))
        monkeypatch.setattr(fo.FoliationState, "is_elliptic_form", lambda self: False)
        with pytest.raises(NotEllipticForm):
            fo.to_elliptic_form(s)

    def test_to_naf_needs_alternating_boundary(self):
        s = fo.init_boundary(-3, 0)
        s = replace(s, boundary=("b0", "b2", "b1", "b3", "b4", "b5"))  # signs + + - - + -
        with pytest.raises(PatternMismatch, match="boundary signs must alternate"):
            fo.to_naf(s)

    def test_elliptic_form_needs_reduced_state(self):
        s = fo.create_pair(fo.init_boundary(-3, 0), "leaf", 1)  # an interior h+
        assert s.is_naf() and not s.is_reduced()
        with pytest.raises(PatternMismatch, match="needs a reduced state"):
            fo.to_elliptic_form(s)

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(TightnessViolation):
            fo.rewire(fo.init_boundary(-3, 0), add=("p0", "p0"))


def test_state_stores_only_the_foliation():
    assert [f.name for f in fields(fo.FoliationState)] == [
        "tb", "r", "boundary", "sing", "separatrices", "trace"]


def test_sing_map_built_once_and_read_only():
    s = fo.init_boundary(-3, 0)
    assert s.sing_map is s.sing_map
    with pytest.raises(TypeError):
        s.sing_map["p0"] = None


# ---------------------------------------------------------------------------
# Reference: a per-rewrite implementation of every stage, without the
# working copy, on the former representation: a record (sign, kind, locus)
# per singularity and a frozenset of two-element frozensets for the
# separatrices.  Every rewrite rebuilds the whole state and re-walks the
# whole separatrix graph.  The library must agree with it on every stage
# output and on every atomic rewrite; to_ref is the one converter between
# the two.


def _ref_check_tight(sing, edges):
    """Reject separatrix graphs with a same-sign cycle (limit cycle seed)."""
    for sign in (1, -1):
        adj = {}
        for e in edges:
            u, v = tuple(e)
            if sing[u].sign == sign and sing[v].sign == sign:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
        seen = {}
        for start in adj:
            if start in seen:
                continue
            stack = [(start, None)]
            while stack:
                u, parent = stack.pop()
                if u in seen:
                    raise TightnessViolation(f"same-sign separatrix cycle through {u}")
                seen[u] = parent
                for w in adj[u]:
                    if w != parent:
                        stack.append((w, u))


def _ref_with_sing(state, sing):
    return replace(state, sing=tuple(sorted(sing.items())))


def _ref_logged(state, step):
    return replace(state, trace=state.trace + (step,))


def ref_delta(**kw):
    """A count delta built from keyword counts, as the library once did."""
    names = {"ep": "e+", "hp": "h+", "em": "e-", "hm": "h-"}
    return tuple((names[k], v) for k, v in kw.items() if v)


@dataclass(frozen=True)
class RefSing:
    """The former singularity record, with its locus stored."""

    sign: int  # +1 or -1
    kind: str  # fo.ELLIPTIC or fo.HYPERBOLIC
    locus: str  # fo.BOUNDARY or fo.INTERIOR

    def tag(self):
        return f"{'+' if self.sign > 0 else '-'}{self.kind}"


@dataclass(frozen=True)
class RefState:
    """The former state.  Like a library state it compares by its foliation;
    ``connections`` holds the broom the reference's elliptic form builds (or,
    for a converted state, the library's derived connections)."""

    tb: int
    r: int
    boundary: tuple
    sing: tuple  # sorted (id, RefSing)
    separatrices: frozenset  # of two-element frozensets of ids
    trace: tuple = field(default=(), compare=False)
    connections: frozenset = field(default=frozenset(), compare=False)


def to_ref(state):
    """A library state in the reference's representation, each locus read
    from the boundary cycle."""
    on_boundary = set(state.boundary)
    sing = tuple(
        (i, RefSing(1 if t[1] == "+" else -1, t[0], fo.BOUNDARY if i in on_boundary else fo.INTERIOR))
        for i, t in state.sing
    )
    return RefState(state.tb, state.r, state.boundary, sing,
                    frozenset(map(frozenset, state.separatrices)), state.trace,
                    frozenset(map(frozenset, state.connections)))


def _ref_fresh_id(sing, prefix):
    k = 0
    while f"{prefix}{k}" in sing:
        k += 1
    return f"{prefix}{k}"


def ref_eliminate(state, e_id, h_id):
    sm = dict(state.sing)
    if e_id not in sm or h_id not in sm:
        raise NotConnected(f"unknown singularities {e_id}, {h_id}")
    e, h = sm[e_id], sm[h_id]
    if e.locus == fo.BOUNDARY or h.locus == fo.BOUNDARY:
        raise PatternMismatch(f"eliminate needs interior points, got {e_id}, {h_id}")
    if e.kind != fo.ELLIPTIC or h.kind != fo.HYPERBOLIC:
        raise SignMismatch(f"eliminate needs (elliptic, hyperbolic), got ({e.kind}, {h.kind})")
    if e.sign != h.sign:
        raise SignMismatch("eliminate needs a same-sign pair")
    if frozenset((e_id, h_id)) not in state.separatrices:
        raise NotConnected(f"{e_id} and {h_id} share no separatrix")
    sm.pop(e_id)
    sm.pop(h_id)
    seps = frozenset(s for s in state.separatrices if not (s & {e_id, h_id}))
    d = ref_delta(ep=-1, hp=-1) if e.sign > 0 else ref_delta(em=-1, hm=-1)
    out = replace(_ref_with_sing(state, sm), separatrices=seps)
    return _ref_logged(out, fo.RewriteStep("eliminate", (e_id, h_id), d))


def ref_convert(state, p_id, gamma, tau):
    if gamma == tau:
        raise BadLeaves("gamma and tau must be distinct leaves")
    sm = dict(state.sing)
    if p_id not in sm:
        raise BadLeaves(f"unknown singularity {p_id}")
    p = sm[p_id]
    sm[p_id] = replace(p, kind=fo.HYPERBOLIC if p.kind == fo.ELLIPTIC else fo.ELLIPTIC)
    prefix = "c" if p.kind == fo.ELLIPTIC else "d"
    made = []
    for _ in range(2):
        ident = _ref_fresh_id(sm, prefix)
        sm[ident] = RefSing(p.sign, p.kind, fo.INTERIOR)
        made.append(ident)
    seps = set(state.separatrices)
    for ident in made:
        seps.add(frozenset((ident, p_id)))
    _ref_check_tight(sm, seps)
    d = ref_delta(ep=1, hp=1) if p.sign > 0 else ref_delta(em=1, hm=1)
    out = replace(_ref_with_sing(state, sm), separatrices=frozenset(seps))
    return _ref_logged(out, fo.RewriteStep("convert", (p_id, gamma, tau), d))


def ref_create_pair(state, leaf, sign):
    sm = dict(state.sing)
    e_id = _ref_fresh_id(sm, "ce")
    h_id = _ref_fresh_id(sm, "ch")
    sm[e_id] = RefSing(sign, fo.ELLIPTIC, fo.INTERIOR)
    sm[h_id] = RefSing(sign, fo.HYPERBOLIC, fo.INTERIOR)
    seps = set(state.separatrices)
    seps.add(frozenset((e_id, h_id)))
    _ref_check_tight(sm, seps)
    d = ref_delta(ep=1, hp=1) if sign > 0 else ref_delta(em=1, hm=1)
    out = replace(_ref_with_sing(state, sm), separatrices=frozenset(seps))
    return _ref_logged(out, fo.RewriteStep("create_pair", (leaf, sign), d))


def ref_rewire(state, add=None, remove=None):
    seps = set(state.separatrices)
    if remove is not None:
        edge = frozenset(remove)
        if edge not in seps:
            raise NotConnected(f"no separatrix {remove}")
        seps.discard(edge)
    if add is not None:
        sm = dict(state.sing)
        if not set(add) <= set(sm):
            raise NotConnected(f"unknown endpoint in {add}")
        seps.add(frozenset(add))
        _ref_check_tight(sm, seps)
    out = replace(state, separatrices=frozenset(seps))
    return _ref_logged(out, fo.RewriteStep("rewire", (add, remove), ()))


def ref_to_naf(state):
    if not ref_alternating(state):
        raise PatternMismatch("boundary signs must alternate")
    cur = state
    for b in state.boundary:
        s = dict(cur.sing)[b]
        if (s.sign > 0 and s.kind == fo.ELLIPTIC) or (s.sign < 0 and s.kind == fo.HYPERBOLIC):
            sm = dict(cur.sing)
            sm[b] = replace(s, kind=fo.HYPERBOLIC if s.sign > 0 else fo.ELLIPTIC)
            made = []
            prefix = "c" if s.kind == fo.ELLIPTIC else "d"
            for _ in range(2):
                ident = _ref_fresh_id(sm, prefix)
                sm[ident] = RefSing(s.sign, s.kind, fo.INTERIOR)
                made.append(ident)
            seps = set(cur.separatrices)
            for ident in made:
                seps.add(frozenset((ident, b)))
            d = ref_delta(ep=1, hp=1) if s.sign > 0 else ref_delta(em=1, hm=1)
            cur = replace(_ref_with_sing(cur, sm), separatrices=frozenset(seps))
            cur = _ref_logged(cur, fo.RewriteStep("convert", (b, "collar-leaf", "L"), d))
    assert ref_is_naf(cur)
    return cur


def ref_reduce_interior(state):
    if not ref_is_naf(state):
        raise PatternMismatch("reduce_interior needs a NAF boundary")
    cur = state

    def doomed(kind, sign, keep):
        ids = sorted(
            i
            for i, s in cur.sing
            if s.locus == fo.INTERIOR and s.kind == kind and s.sign == sign
        )
        canon = [i for i in ids if i[0] in "pq"]
        extra = [i for i in ids if i[0] not in "pq"]
        survivors = (canon + extra)[:keep]
        return [i for i in ids if i not in survivors]

    e_target, h_target = fo.interior_count_targets(cur.tb, cur.r)
    for sign, e_keep, h_keep in ((1, e_target, 0), (-1, 0, h_target)):
        while True:
            es = doomed(fo.ELLIPTIC, sign, e_keep)
            hs = doomed(fo.HYPERBOLIC, sign, h_keep)
            if not es and not hs:
                break
            assert es and hs, "interior counts cannot reach the reduced targets"
            e_id, h_id = es[0], hs[0]
            if frozenset((e_id, h_id)) not in cur.separatrices:
                cur = ref_rewire(cur, add=(e_id, h_id))
            cur = ref_eliminate(cur, e_id, h_id)
    assert ref_counts(cur, fo.INTERIOR) == {"e+": e_target, "h+": 0, "e-": 0, "h-": h_target}
    return cur


def ref_extract_skeleton(state):
    """The skeleton rebuilt from the connections on every call, never cached."""
    if not ref_is_elliptic_form(state):
        raise NotEllipticForm("extract_skeleton needs an elliptic-form state")
    sm = dict(state.sing)
    verts = sorted({v for c in state.connections for v in c})
    index = {v: k for k, v in enumerate(verts)}
    signs = {k: sm[v].sign for k, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u, v in state.connections]
    return fo.SkeletonTree(tree=tr.SignedTree.make(signs, edges), ids=tuple(verts))


def ref_to_elliptic_form(state):
    """Absorb one rewrite at a time, then connect through canonical_broom's tree."""
    if not (ref_is_naf(state) and ref_is_reduced(state)):
        raise PatternMismatch("to_elliptic_form needs a reduced state with NAF boundary")
    cur = state
    doomed_h = sorted(
        i for i, s in cur.sing if s.locus == fo.INTERIOR and s.kind == fo.HYPERBOLIC
    )
    for q in doomed_h:
        sm = dict(cur.sing)
        # still-elliptic negative boundary points, in reversed boundary order
        free = [b for b in reversed(cur.boundary) if sm[b].sign < 0 and sm[b].kind == fo.ELLIPTIC]
        shared = [m for m in free if frozenset((q, m)) in cur.separatrices]
        m = shared[0] if shared else free[0]
        if not shared:
            cur = ref_rewire(cur, add=(q, m))
        sm = dict(cur.sing)
        sm[m] = replace(sm[m], kind=fo.HYPERBOLIC)
        sm.pop(q)
        seps = frozenset(s for s in cur.separatrices if q not in s)
        cur = replace(_ref_with_sing(cur, sm), separatrices=seps)
        cur = _ref_logged(cur, fo.RewriteStep("absorb", (q, m), ref_delta(em=-1)))
    sm = dict(cur.sing)
    spine = sorted(i for i, s in cur.sing if s.locus == fo.INTERIOR and s.kind == fo.ELLIPTIC)
    leaves = [b for b in cur.boundary if sm[b].sign < 0 and sm[b].kind == fo.ELLIPTIC]
    ids = sorted(spine + leaves)
    signs = [sm[v].sign for v in ids]
    # a tree's vertices are ints: the broom on the ranks of the sorted ids
    broom = tr.canonical_broom(signs, range(len(ids)))
    conns = frozenset(frozenset((ids[u], ids[w])) for u, w in broom.edges)
    cur = replace(cur, connections=conns)
    assert ref_is_elliptic_form(cur)
    return cur, ref_extract_skeleton(cur)


def ref_dump_state(state):
    """The former dump, which sorted the edges it printed."""
    sm = dict(state.sing)
    lines = [f"tb {state.tb} r {state.r}"]
    lines.append("boundary " + " ".join(f"{b}:{sm[b].tag()}" for b in state.boundary))
    interior = sorted(i for i, s in state.sing if s.locus == fo.INTERIOR)
    lines.append("interior " + " ".join(f"{i}:{sm[i].tag()}" for i in interior))
    for name, edges in (("separatrix", state.separatrices), ("connection", state.connections)):
        lines += (f"{name} {'-'.join(sorted(e))}" for e in sorted(edges, key=sorted))
    return "\n".join(lines)


def _outcome(fn, *args):
    """("ok", result) or ("raised", exception type)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the reference may raise anything; compare types
        return "raised", type(exc)


def _kinds(pattern, tb):
    n = 2 * abs(tb)
    if pattern is None:
        return None
    if pattern == "mixed":
        return ["h" if i % 3 == 0 else "e" for i in range(n)]
    return [pattern] * n


def _stage_outputs(stages, tb, r, kinds):
    to_naf, reduce_interior, to_elliptic_form, extract_skeleton, as_ref = stages
    naf = to_naf(fo.init_boundary(tb, r, kinds))
    reduced = reduce_interior(naf)
    final, _ = to_elliptic_form(reduced)
    states = [(as_ref(s), [st.describe() for st in s.trace]) for s in (naf, reduced, final)]
    return states, as_ref(final).connections, extract_skeleton(final)


LIBRARY = (fo.to_naf, fo.reduce_interior, fo.to_elliptic_form, fo.extract_skeleton, to_ref)
REFERENCE = (lambda s: ref_to_naf(to_ref(s)), ref_reduce_interior, ref_to_elliptic_form,
             ref_extract_skeleton, lambda s: s)
PATTERNS = (None, "e", "h", "mixed")


class TestAgainstReference:
    def test_stages_small_grid(self):
        for tb, r in in_range_grid(-15):
            for pattern in PATTERNS:
                kinds = _kinds(pattern, tb)
                want = _outcome(_stage_outputs, REFERENCE, tb, r, kinds)
                assert _outcome(_stage_outputs, LIBRARY, tb, r, kinds) == want, (tb, r, pattern)

    @pytest.mark.parametrize("tb, r, pattern", [(-161, 0, "e"), (-641, 640, None), (-641, -640, None)])
    def test_stages_large(self, tb, r, pattern):
        kinds = _kinds(pattern, tb)
        assert _stage_outputs(LIBRARY, tb, r, kinds) == _stage_outputs(REFERENCE, tb, r, kinds)


def test_derived_connections_are_the_reference_broom():
    """On every NAF state of the pipeline: the broom that the reference's
    elliptic form builds where the state is in elliptic form with a reduced
    interior, and none elsewhere."""
    for tb, r in in_range_grid(-15):
        for pattern in PATTERNS:
            naf = fo.to_naf(fo.init_boundary(tb, r, _kinds(pattern, tb)))
            reduced = fo.reduce_interior(naf)
            final, _ = fo.to_elliptic_form(reduced)
            want, _ = ref_to_elliptic_form(to_ref(reduced))
            assert want.connections and to_ref(final).connections == want.connections
            for s in (naf, reduced):
                ref = to_ref(s)
                done = ref_is_elliptic_form(ref) and ref_is_reduced(ref)
                assert s.connections == (final.connections if done else ()), (tb, r)


SMALL = list(in_range_grid(-4))
OPS = ("rewire", "eliminate", "convert", "create_pair")


def _neighbours(edges, x):
    return [b if a == x else a for a, b in edges if x in (a, b)]


def _draw_args(data, op, state):
    ids = sorted(i for i, _ in state.sing)
    edges = list(state.separatrices)
    if op == "create_pair":
        return ("leaf", data.draw(st.sampled_from((1, -1))))
    if op == "convert":
        return (data.draw(st.sampled_from(ids)), "gamma", data.draw(st.sampled_from(("tau", "gamma"))))
    if op == "eliminate":
        if edges and data.draw(st.booleans()):
            u, v = data.draw(st.sampled_from(edges))
            return (u, v) if state.sing_map[u][0] == fo.ELLIPTIC else (v, u)
        return tuple(data.draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)))
    add = remove = None
    if data.draw(st.booleans()):
        # half the time two separatrices away from u, so that some additions close a cycle
        u = data.draw(st.sampled_from(ids))
        near = sorted({w for x in _neighbours(edges, u) for w in _neighbours(edges, x)} - {u})
        pool = near if near and data.draw(st.booleans()) else [i for i in ids if i != u]
        add = (u, data.draw(st.sampled_from(pool)))
    if edges and (add is None or data.draw(st.booleans())):
        remove = data.draw(st.sampled_from(edges))
    return (add, remove)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_atomic_rewrites_match_reference(data):
    tb, r = data.draw(st.sampled_from(SMALL))
    new = fo.init_boundary(tb, r, _kinds(data.draw(st.sampled_from(PATTERNS)), tb))
    ref = to_ref(new)
    reference = {"create_pair": ref_create_pair, "rewire": ref_rewire,
                 "convert": ref_convert, "eliminate": ref_eliminate}
    for _ in range(data.draw(st.integers(1, 15))):
        op = data.draw(st.sampled_from(OPS)) if len(new.sing) >= 2 else "create_pair"
        args = _draw_args(data, op, new)
        got = _outcome(getattr(fo, op), new, *args)
        want = _outcome(reference[op], ref, *args)
        if want[0] == "raised":
            assert got == want, (op, args)
            continue
        assert got[0] == "ok", (op, args, got)
        new, ref = got[1], want[1]
        assert to_ref(new) == ref
        assert [s.describe() for s in new.trace] == [s.describe() for s in ref.trace]


# ---------------------------------------------------------------------------
# Reference: the from-scratch scans that every state fact was computed by
# before each state cached its own.

# (tb, r, raw) with |tb| <= 41, raw meaning an all-elliptic starting boundary
TB_R_RAW = st.integers(1, 41).flatmap(lambda n: st.tuples(
    st.just(-n),
    st.sampled_from([r for r in range(-n + 1, n) if fr.in_unknot_range(-n, r)]),
    st.booleans(),
))


def ref_counts(state, locus=None):
    out = {"e+": 0, "h+": 0, "e-": 0, "h-": 0}
    for _, s in state.sing:
        if locus is None or s.locus == locus:
            out[f"{s.kind}{'+' if s.sign > 0 else '-'}"] += 1
    return out


def ref_alternating(state):
    sm = dict(state.sing)
    n = len(state.boundary)
    return all(sm[state.boundary[i]].sign != sm[state.boundary[(i + 1) % n]].sign for i in range(n))


def ref_is_naf(state):
    sm = dict(state.sing)
    for b in state.boundary:
        s = sm[b]
        if s.sign > 0 and s.kind != fo.HYPERBOLIC:
            return False
        if s.sign < 0 and s.kind != fo.ELLIPTIC:
            return False
    return ref_alternating(state)


def ref_is_reduced(state):
    c = ref_counts(state, fo.INTERIOR)
    return c["h+"] == 0 and c["e-"] == 0


def ref_is_elliptic_form(state):
    c = ref_counts(state, fo.INTERIOR)
    return c["h+"] == 0 and c["h-"] == 0 and ref_alternating(state)


def assert_facts_match_reference(state):
    ref = to_ref(state)
    for locus in (None, fo.BOUNDARY, fo.INTERIOR):
        want = ref_counts(ref, locus)
        assert state.counts(locus) == want, locus
        assert state.identity_differences(locus) == (want["e+"] - want["h+"], want["e-"] - want["h-"])
    # an unknown locus is refused, not read as all zeros
    with pytest.raises(BadLocator):
        state.counts("elsewhere")
    assert state._alternates == ref_alternating(ref)
    assert state.is_naf() == ref_is_naf(ref)
    assert state.is_reduced() == ref_is_reduced(ref)
    assert state.is_elliptic_form() == ref_is_elliptic_form(ref)


@settings(max_examples=60, deadline=None)
@given(TB_R_RAW)
def test_cached_state_facts_match_recount(case):
    tb, r, raw = case
    state = fo.init_boundary(tb, r, [fo.ELLIPTIC] * (2 * -tb) if raw else None)
    assert_facts_match_reference(state)
    for stage in (fo.to_naf, fo.reduce_interior, lambda s: fo.to_elliptic_form(s)[0]):
        state = stage(state)
        assert_facts_match_reference(state)


def test_cached_facts_of_hand_built_states():
    s = fo.init_boundary(-4, 1, ["e", "h", "h", "e", "e", "e", "h", "h"])
    bent = replace(s, boundary=s.boundary[1:] + s.boundary[:1])  # b1 first: still alternating
    # two positives side by side; b3 .. b7 leave the boundary, so their locus is interior
    mixed = replace(s, boundary=("b0", "b2", "b1"))
    for state in (s, bent, mixed, fo.create_pair(s, "leaf", -1)):
        assert_facts_match_reference(state)


def test_counts_returns_a_fresh_dict():
    s = fo.init_boundary(-5, 2)
    first = s.counts(fo.INTERIOR)
    first["e+"] += 100
    first["x"] = 1
    whole = s.counts()
    whole.clear()
    assert s.counts(fo.INTERIOR) == ref_counts(to_ref(s), fo.INTERIOR)
    assert s.counts() == ref_counts(to_ref(s))
    assert s.counts(fo.INTERIOR) is not s.counts(fo.INTERIOR)
    assert s.is_reduced() == ref_is_reduced(to_ref(s))


@pytest.mark.parametrize("locus", ["interor", "Boundary", "", 0, ("interior",), ["boundary"]],
                         ids=repr)
def test_unknown_locus_raises(locus):
    # each read as all zeros, or a list ended in a bare TypeError
    s = fo.init_boundary(-5, 2)
    for ask in (s.counts, s.identity_differences):
        with pytest.raises(BadLocator, match="is not None, 'boundary' or 'interior'"):
            ask(locus)


# ---------------------------------------------------------------------------
# The elliptic-form stage builds its broom and skeleton tree once; the
# references build the broom through canonical_broom on the ranks of the
# sorted ids, and the skeleton anew on every call.


def _reduced(tb, r, raw):
    return fo.reduce_interior(fo.to_naf(fo.init_boundary(tb, r, _kinds("e" if raw else None, tb))))


@settings(max_examples=60, deadline=None)
@given(TB_R_RAW)
def test_elliptic_form_outputs_match_reference(case):
    reduced = _reduced(*case)
    got, _ = fo.to_elliptic_form(reduced)
    want, _ = ref_to_elliptic_form(to_ref(reduced))
    assert to_ref(got) == want and to_ref(got).connections == want.connections
    assert fo.dump_state(got) == ref_dump_state(want)
    skel, ref_skel = fo.extract_skeleton(got), ref_extract_skeleton(want)
    assert skel.tree == ref_skel.tree
    assert skel.ids == ref_skel.ids
    assert skel == ref_skel


def test_one_signed_tree_per_elliptic_form_state(monkeypatch):
    built = []
    post_init = tr.SignedTree.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(tr.SignedTree, "__post_init__", counting_post_init)
    for case in ((-1, 0, False), (-9, 2, True), (-41, 0, False), (-41, -40, False)):
        reduced = _reduced(*case)
        built.clear()
        state, _ = fo.to_elliptic_form(reduced)
        assert len(built) == 1, case  # checked before to_elliptic_form returns
        again, _ = fo.to_elliptic_form(state)
        assert again is state
        assert fo.extract_skeleton(state).tree is built[0]
        assert fo.extract_skeleton(again) is fo.extract_skeleton(state)
        assert len(built) == 1, case


# ---------------------------------------------------------------------------
# Former: the working copy that indexed every separatrix when made and
# sorted everything when frozen, the init_boundary that linked its
# separatrices one by one through it, the stages on it (to_elliptic_form
# read each hyperbolic's partners from that index), and the connections
# and skeleton that ran the broom on the string ids and ranked them
# afterwards.  Every state, trace, dump, skeleton and error of the library
# must be theirs.

SIGN = {"+": 1, "-": -1}


class FormerWork:
    def __init__(self, state):
        self.state = state
        self.sing = dict(state.sing)
        self.adj = defaultdict(set)
        for u, v in state.separatrices:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.trace = []
        self.next_id = {}

    def freeze(self):
        return replace(
            self.state,
            sing=tuple(sorted(self.sing.items())),
            separatrices=tuple(sorted((u, v) for u, vs in self.adj.items() for v in vs if u < v)),
            trace=self.state.trace + tuple(self.trace),
        )

    def fresh_id(self, prefix):
        k = self.next_id.get(prefix, 0)
        while f"{prefix}{k}" in self.sing:
            k += 1
        self.next_id[prefix] = k + 1
        return f"{prefix}{k}"

    def link(self, u, v):
        if v in self.adj[u]:
            return
        sign = self.sing[u][1]
        if (self.sing[v][1] == sign and (u == v or self.adj[u] and self.adj.get(v))
                and self._joined(u, v, sign)):
            raise TightnessViolation(f"same-sign separatrix cycle through {u}")
        self.adj[u].add(v)
        self.adj[v].add(u)

    def _joined(self, u, v, sign):
        stack, seen = [u], {u}
        while stack:
            x = stack.pop()
            if x == v:
                return True
            for w in self.adj.get(x, ()):
                if w not in seen and self.sing[w][1] == sign:
                    seen.add(w)
                    stack.append(w)
        return False

    def drop(self, x):
        del self.sing[x]
        for w in self.adj.pop(x, ()):
            self.adj[w].remove(x)

    def eliminate(self, e_id, h_id):
        if e_id not in self.sing or h_id not in self.sing:
            raise NotConnected(f"unknown singularities {e_id}, {h_id}")
        e, h = self.sing[e_id], self.sing[h_id]
        if e_id in self.state._on_boundary or h_id in self.state._on_boundary:
            raise PatternMismatch(f"eliminate needs interior points, got {e_id}, {h_id}")
        if e[0] != fo.ELLIPTIC or h[0] != fo.HYPERBOLIC:
            raise SignMismatch(f"eliminate needs (elliptic, hyperbolic), got ({e[0]}, {h[0]})")
        if e[1] != h[1]:
            raise SignMismatch("eliminate needs a same-sign pair")
        if h_id not in self.adj[e_id]:
            raise NotConnected(f"{e_id} and {h_id} share no separatrix")
        self.drop(e_id)
        self.drop(h_id)
        self.trace.append(fo.RewriteStep("eliminate", (e_id, h_id), fo._ELIMINATE_DELTA[e[1]]))

    def convert(self, p_id, gamma, tau):
        if gamma == tau:
            raise BadLeaves("gamma and tau must be distinct leaves")
        if p_id not in self.sing:
            raise BadLeaves(f"unknown singularity {p_id}")
        p = self.sing[p_id]
        self.sing[p_id] = fo._FLIP[p]
        prefix = "c" if p[0] == fo.ELLIPTIC else "d"
        for _ in range(2):
            ident = self.fresh_id(prefix)
            self.sing[ident] = p
            self.link(ident, p_id)
        self.trace.append(fo.RewriteStep("convert", (p_id, gamma, tau), fo._PAIR_DELTA[p[1]]))

    def create_pair(self, leaf, sign):
        if sign not in (1, -1):
            raise SignMismatch(f"create_pair needs sign +1 or -1, got {sign!r}")
        s = "+" if sign > 0 else "-"
        e_id = self.fresh_id("ce")
        h_id = self.fresh_id("ch")
        self.sing[e_id] = fo.ELLIPTIC + s
        self.sing[h_id] = fo.HYPERBOLIC + s
        self.link(e_id, h_id)
        self.trace.append(fo.RewriteStep("create_pair", (leaf, sign), fo._PAIR_DELTA[s]))

    def rewire(self, add=None, remove=None):
        if remove is not None:
            if len(remove) != 2 or remove[1] not in self.adj.get(remove[0], ()):
                raise NotConnected(f"no separatrix {remove}")
            u, v = remove
            self.adj[u].remove(v)
            self.adj[v].remove(u)
        if add is not None:
            if not all(x in self.sing for x in add):
                raise NotConnected(f"unknown endpoint in {add}")
            self.link(*add)
        self.trace.append(fo.RewriteStep("rewire", (add, remove), ()))

    def absorb(self, q, m):
        self.sing[m] = "h-"
        self.drop(q)
        self.trace.append(fo.RewriteStep("absorb", (q, m), fo._ABSORB_DELTA))


def former_init_boundary(tb, r, boundary_kinds=None):
    if tb >= 0 or not fr.in_unknot_range(tb, r):
        raise BadInvariants(f"tight pipeline needs (tb, r) in range, got ({tb}, {r})")
    n = -tb
    e_target, h_target = fo.interior_count_targets(tb, r)
    if boundary_kinds is None:
        boundary_kinds = (fo.HYPERBOLIC, fo.ELLIPTIC) * n
    elif len(boundary_kinds) != 2 * n:
        raise BadInvariants(f"boundary_kinds must list {2 * n} kinds, got {len(boundary_kinds)}")
    sing = {}
    boundary = [f"b{i}" for i in range(2 * n)]
    pend = {"+": 0, "-": 0}
    for ident, kind, sign in zip(boundary, boundary_kinds, itertools.cycle("+-")):
        if kind not in (fo.ELLIPTIC, fo.HYPERBOLIC):
            raise BadInvariants(f"bad kind {kind!r}")
        sing[ident] = kind + sign
        pend[sign] += sing[ident] not in fo._NAF
    seed = {
        "e+": max(0, e_target - 2 * pend["+"]),
        "h+": max(0, 2 * pend["+"] - e_target),
        "h-": max(0, h_target - 2 * pend["-"]),
        "e-": max(0, 2 * pend["-"] - h_target),
    }
    spine = [f"p{j}" for j in range(e_target)]
    hubs_h = [f"q{j}" for j in range(h_target)]
    sing.update(dict.fromkeys(spine[: seed["e+"]], "e+"))
    sing.update(dict.fromkeys(hubs_h[: seed["h-"]], "h-"))
    sing.update((f"x{j}", "h+") for j in range(seed["h+"]))
    sing.update((f"y{j}", "e-") for j in range(seed["e-"]))
    edges = [(q, p) for j, q in enumerate(hubs_h) for p in spine[j : j + 2]]
    edges += zip(boundary[::2], itertools.cycle(spine))
    edges += zip(reversed(boundary[1::2]), hubs_h)
    w = FormerWork(fo.FoliationState(tb, r, tuple(boundary), tuple(sorted(sing.items())), ()))
    for u, v in edges:
        if u in sing and v in sing:
            w.link(u, v)
    return w.freeze()


def former_rewrite(name):
    """A former atomic rewrite: one rewrite on a one-rewrite former copy."""
    def run(state, *args):
        w = FormerWork(state)
        getattr(w, name)(*args)
        return w.freeze()
    return run


def former_to_naf(state):
    if not state._alternates:
        raise PatternMismatch("boundary signs must alternate")
    todo = [b for b in state.boundary if state.sing_map[b] not in fo._NAF]
    if todo:
        w = FormerWork(state)
        for b in todo:
            w.convert(b, "collar-leaf", "L")
        state = w.freeze()
    if not state.is_naf():
        raise PatternMismatch("to_naf did not reach a NAF boundary")
    return state


def former_reduce_interior(state):
    if not state.is_naf():
        raise PatternMismatch("reduce_interior needs a NAF boundary")
    e_target, h_target = fo.interior_count_targets(state.tb, state.r)
    want = {"e+": e_target, "h+": 0, "e-": 0, "h-": h_target}
    if state.counts(fo.INTERIOR) == want:
        return state
    groups = {}
    for i, t in state.sing:
        if i not in state._on_boundary:
            groups.setdefault(t, []).append(i)
    plan = [
        (fo._doomed(groups.get(fo.ELLIPTIC + s, []), e),
         fo._doomed(groups.get(fo.HYPERBOLIC + s, []), h))
        for s, e, h in (("+", e_target, 0), ("-", 0, h_target))
    ]
    if any(es or hs for es, hs in plan):
        w = FormerWork(state)
        for es, hs in plan:
            for e_id, h_id in zip(es, hs):
                if h_id not in w.adj[e_id]:
                    w.rewire(add=(e_id, h_id))
                w.eliminate(e_id, h_id)
            if len(es) != len(hs):
                raise BadInvariants("interior counts cannot reach the reduced targets")
        state = w.freeze()
    counts = state.counts(fo.INTERIOR)
    if counts != want:
        raise BadInvariants(
            f"reduced interior {counts} misses the targets e+={e_target}, h-={h_target}"
        )
    return state


def former_to_elliptic_form(state):
    if not former_connections(state):
        if not (state.is_naf() and state.is_reduced()):
            raise PatternMismatch("to_elliptic_form needs a reduced state with NAF boundary")
        sm = state.sing_map
        pool = [b for b in reversed(state.boundary) if sm[b][1] == "-"]
        free = {m: k for k, m in enumerate(pool)}
        k = 0
        w = FormerWork(state)
        for q in sorted(i for i, t in state.sing if t == "h-"):
            shared = [m for m in w.adj[q] if m in free]
            if shared:
                m = min(shared, key=free.__getitem__)
            else:
                while pool[k] not in free:
                    k += 1
                m = pool[k]
                w.rewire(add=(q, m))
            del free[m]
            w.absorb(q, m)
        state = w.freeze()
    return state, former_extract_skeleton(state)


def former_connections(state):
    if not (state.is_elliptic_form() and state.is_reduced()):
        return ()
    ids = [i for i, t in state.sing if t[0] == fo.ELLIPTIC]
    signs = [SIGN[state.sing_map[i][1]] for i in ids]
    if (len(ids), tr.SIGMA * sum(signs)) != (1 - state.tb, state.r):
        return ()
    return tr._broom(signs, ids)[0]


def former_skeleton(state):
    sm = state.sing_map
    conns = former_connections(state)
    verts = sorted({v for c in conns for v in c})
    index = {v: k for k, v in enumerate(verts)}
    signs = tuple((k, SIGN[sm[v][1]]) for k, v in enumerate(verts))
    return fo.SkeletonTree(
        tree=tr.SignedTree(signs, tuple((index[u], index[v]) for u, v in conns)),
        ids=tuple(verts),
    )


def former_extract_skeleton(state):
    if not (state.is_elliptic_form() and state.is_reduced()):
        raise NotEllipticForm("extract_skeleton needs an elliptic-form, reduced state")
    if not former_connections(state):
        raise NotATree(
            f"the elliptic points cannot form a skeleton with tb={state.tb}, r={state.r}"
        )
    return former_skeleton(state)


def former_dump_state(state):
    sm, on_b = state.sing_map, state._on_boundary
    lines = [f"tb {state.tb} r {state.r}"]
    lines.append("boundary " + " ".join(f"{b}:{sm[b][::-1]}" for b in state.boundary))
    lines.append("interior " + " ".join(f"{i}:{t[::-1]}" for i, t in state.sing if i not in on_b))
    connections = former_connections(state)
    for name, edges in (("separatrix", state.separatrices), ("connection", connections)):
        lines += (f"{name} {u}-{v}" for u, v in edges)
    return "\n".join(lines)


def _result(fn, *args):
    """("ok", result) or ("raised", exception type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compare what either side raises, message included
        return "raised", type(exc), str(exc)


def _seen(states, skeleton, dump, connections):
    """Each state with its trace, dump and connections, then the skeleton."""
    return [(s, s.trace, dump(s), connections(s)) for s in states], skeleton


def library_pipeline(tb, r, kinds):
    states = [fo.init_boundary(tb, r, kinds)]
    states.append(fo.to_naf(states[-1]))
    states.append(fo.reduce_interior(states[-1]))
    final, skeleton = fo.to_elliptic_form(states[-1])
    assert fo.extract_skeleton(final) is skeleton
    return _seen(states + [final], skeleton, fo.dump_state, lambda s: s.connections)


def former_pipeline(tb, r, kinds):
    states = [former_init_boundary(tb, r, kinds)]
    states.append(former_to_naf(states[-1]))
    states.append(former_reduce_interior(states[-1]))
    final, skeleton = former_to_elliptic_form(states[-1])
    return _seen(states + [final], skeleton, former_dump_state, former_connections)


class TestAgainstFormer:
    def test_stages_small_grid(self):
        for tb, r in in_range_grid(-15):
            for pattern in PATTERNS:
                kinds = _kinds(pattern, tb)
                got = _result(library_pipeline, tb, r, kinds)
                assert got == _result(former_pipeline, tb, r, kinds), (tb, r, pattern)

    @pytest.mark.parametrize("tb, r, pattern",
                             [(-161, 0, "e"), (-641, 640, None), (-641, -640, None)])
    def test_stages_large(self, tb, r, pattern):
        kinds = _kinds(pattern, tb)
        assert library_pipeline(tb, r, kinds) == former_pipeline(tb, r, kinds)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_atomic_rewrites_and_stages_match_former(data):
    """Each rewrite of a random sequence, then every stage on its last state."""
    tb, r = data.draw(st.sampled_from(SMALL))
    kinds = _kinds(data.draw(st.sampled_from(PATTERNS)), tb)
    new, old = fo.init_boundary(tb, r, kinds), former_init_boundary(tb, r, kinds)
    for _ in range(data.draw(st.integers(1, 15))):
        op = data.draw(st.sampled_from(OPS)) if len(new.sing) >= 2 else "create_pair"
        args = _draw_args(data, op, new)
        got, want = _result(getattr(fo, op), new, *args), _result(former_rewrite(op), old, *args)
        if want[0] == "raised":
            assert got == want, (op, args)
            continue
        assert got[0] == "ok", (op, args, got)
        new, old = got[1], want[1]
        assert (new, new.trace, fo.dump_state(new)) == (old, old.trace, former_dump_state(old))
    library = (fo.to_naf, fo.reduce_interior, lambda s: fo.to_elliptic_form(s)[0])
    former = (former_to_naf, former_reduce_interior, lambda s: former_to_elliptic_form(s)[0])
    for stage, former_stage in zip(library, former):
        got, want = _result(stage, new), _result(former_stage, old)
        if want[0] == "raised":
            assert got == want
            break
        new, old = got[1], want[1]
        assert (new, new.trace, fo.dump_state(new)) == (old, old.trace, former_dump_state(old))
    else:
        assert _result(fo.extract_skeleton, new) == _result(former_extract_skeleton, old)


# ---------------------------------------------------------------------------
# Each stage pays only for what its rewrites touch.


def test_init_boundary_makes_no_working_copy(monkeypatch):
    def refuse(self, state):
        raise AssertionError("a working copy")

    monkeypatch.setattr(fo._Work, "__init__", refuse)
    for pattern in PATTERNS:
        kinds = _kinds(pattern, -9)
        assert fo.init_boundary(-9, 2, kinds) == former_init_boundary(-9, 2, kinds)


def test_elliptic_form_indexes_separatrices_only_to_rewire(monkeypatch):
    built = []
    index = fo._Work.index

    def recording(w):
        if w.adj is None:
            built.append(w)
        return index(w)

    monkeypatch.setattr(fo._Work, "index", recording)
    for tb, r, raw in ((-1, 0, False), (-9, 2, True), (-41, 0, False), (-41, -40, True),
                       (-161, 0, False)):
        reduced = _reduced(tb, r, raw)
        built.clear()
        final, _ = fo.to_elliptic_form(reduced)
        assert built == [], (tb, r, raw)
        # the output shares the input's surviving pairs and every unchanged point
        pairs = {id(e) for e in reduced.separatrices}
        assert final.separatrices and all(id(e) in pairs for e in final.separatrices)
        points = dict(zip(reduced.sing_map, reduced.sing))
        absorbed = {step.operands[1] for step in final.trace if step.rule == "absorb"}
        assert {p[0] for p in final.sing if p is not points[p[0]]} == absorbed
    # an "h" boundary leaves a hyperbolic without a partner: one rewire, one index
    reduced = fo.reduce_interior(fo.to_naf(fo.init_boundary(-5, 0, _kinds("h", -5))))
    built.clear()
    final, _ = fo.to_elliptic_form(reduced)
    assert [s.rule for s in final.trace[len(reduced.trace):]].count("rewire") == len(built) == 1


@pytest.mark.parametrize("tags, edges", [
    ("e+ h+ e+", [("a", "b"), ("b", "c"), ("a", "c")]),  # a triangle
    ("e- h- e- h-", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]),  # a square
    ("e+ h+", [("a", "a")]),  # a self-loop
    ("e+ h+", [("a", "b"), ("a", "b")]),  # a double separatrix
    ("e+ h+ e+ h- e-", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")]),
])
def test_star_check_refuses_same_sign_cycles(tags, edges):
    sing = dict(zip("abcde", tags.split()))
    with pytest.raises(TightnessViolation):
        fo._check_stars(sing, edges)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from(("e+", "h+", "e-", "h-")), min_size=n, max_size=n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
             .map(lambda e: (f"v{e[0]}", f"v{e[1]}")), unique=True, max_size=2 * n),
)))
def test_star_check_never_accepts_a_cycle(case):
    tags, edges = case
    sing = {f"v{k}": t for k, t in enumerate(tags)}
    ref_sing = {i: RefSing(SIGN[t[1]], t[0], fo.INTERIOR) for i, t in sing.items()}
    try:
        _ref_check_tight(ref_sing, [frozenset(e) for e in edges])
    except TightnessViolation:
        with pytest.raises(TightnessViolation):
            fo._check_stars(sing, edges)


# ---------------------------------------------------------------------------
# Malformed arguments raise typed errors, checked once at entry.


class TestMalformedArguments:
    @pytest.mark.parametrize("args", [(-4, True), (-3, False), (-3.0, 0), (-3, 0.0), ("-3", 0),
                                      (-3, 0, 6)])
    def test_init_boundary(self, args):
        with pytest.raises(BadInvariants):
            fo.init_boundary(*args)

    @pytest.mark.parametrize("add, remove", [(("b0",), None), (("b0", ["x"]), None),
                                             (None, ("b0", ["x"])), (None, 5)])
    def test_rewire(self, add, remove):
        with pytest.raises(NotConnected):
            fo.rewire(fo.init_boundary(-3, 0), add=add, remove=remove)

    def test_eliminate(self):
        with pytest.raises(NotConnected, match="unknown singularities"):
            fo.eliminate(fo.init_boundary(-3, 0), ["p0"], "q0")

    def test_convert(self):
        with pytest.raises(BadLeaves, match="unknown singularity"):
            fo.convert(fo.init_boundary(-3, 0), ["b0"], "g", "t")

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0])
    def test_create_pair(self, sign):
        with pytest.raises(SignMismatch):
            fo.create_pair(fo.init_boundary(-3, 0), "leaf", sign)
