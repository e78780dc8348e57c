import copy
import functools
import itertools
import operator
import pickle
from collections import Counter
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
# Reference: a per-rewrite implementation of init_boundary, every stage and
# every atomic rewrite, without the working copy, on the former
# representation: a record (sign, kind, locus) per singularity and a
# frozenset of two-element frozensets for the separatrices.  Every rewrite
# rebuilds the whole state and re-walks the whole separatrix graph, and the
# connections are derived anew from each state.  The library must agree
# with it on every state, trace, dump, skeleton and raised error, message
# included; to_ref and from_ref are the two converters between the two.


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
    its connections are derived from it (``ref_connections``)."""

    tb: int
    r: int
    boundary: tuple
    sing: tuple  # sorted (id, RefSing)
    separatrices: frozenset  # of two-element frozensets of ids
    trace: tuple = field(default=(), compare=False)


def to_ref(state):
    """A library state in the reference's representation, each locus read
    from the boundary cycle."""
    on_boundary = set(state.boundary)
    sing = tuple(
        (i, RefSing(1 if t[1] == "+" else -1, t[0], fo.BOUNDARY if i in on_boundary else fo.INTERIOR))
        for i, t in state.sing
    )
    return RefState(state.tb, state.r, state.boundary, sing,
                    frozenset(map(frozenset, state.separatrices)), state.trace)


def from_ref(ref):
    """The library state a reference state stands for: a tag per point, and
    the separatrices as sorted (u, v) pairs with u < v."""
    sing = tuple((i, s.kind + ("+" if s.sign > 0 else "-")) for i, s in ref.sing)
    separatrices = tuple(sorted(tuple(sorted(e)) for e in ref.separatrices))
    return fo.FoliationState(ref.tb, ref.r, ref.boundary, sing, separatrices, ref.trace)


def ref_init_boundary(tb, r, boundary_kinds=None):
    """The start state, point by point: 2|tb| alternating boundary points
    from b0 = +, an interior seeded so that the NAF conversions still to
    come (each makes two points) land on the reduced targets, and the
    separatrices of the reduced tree and the boundary attachments, checked
    tight as a whole."""
    if not fr.in_unknot_range(tb, r):
        raise BadInvariants(f"tight pipeline needs (tb, r) in range, got ({tb!r}, {r!r})")
    n = -tb
    e_target, h_target = fo.interior_count_targets(tb, r)
    kinds = [fo.HYPERBOLIC, fo.ELLIPTIC] * n if boundary_kinds is None else boundary_kinds
    if len(kinds) != 2 * n:
        raise BadInvariants(f"boundary_kinds must list {2 * n} kinds, got {len(kinds)}")
    boundary = [f"b{i}" for i in range(2 * n)]
    sing, pending = {}, {1: 0, -1: 0}
    for k, (ident, kind) in enumerate(zip(boundary, kinds)):
        if kind not in (fo.ELLIPTIC, fo.HYPERBOLIC):
            raise BadInvariants(f"bad kind {kind!r}")
        sign = 1 if k % 2 == 0 else -1
        sing[ident] = RefSing(sign, kind, fo.BOUNDARY)
        pending[sign] += kind != (fo.HYPERBOLIC if sign > 0 else fo.ELLIPTIC)
    spine = [f"p{j}" for j in range(e_target)]
    hubs = [f"q{j}" for j in range(h_target)]
    # the targets less the points the conversions make; a surplus is
    # seeded as interior points of the other kind
    plus, minus = e_target - 2 * pending[1], h_target - 2 * pending[-1]
    sing.update((i, RefSing(1, fo.ELLIPTIC, fo.INTERIOR)) for i in spine[: max(0, plus)])
    sing.update((i, RefSing(-1, fo.HYPERBOLIC, fo.INTERIOR)) for i in hubs[: max(0, minus)])
    sing.update((f"x{j}", RefSing(1, fo.HYPERBOLIC, fo.INTERIOR)) for j in range(-plus))
    sing.update((f"y{j}", RefSing(-1, fo.ELLIPTIC, fo.INTERIOR)) for j in range(-minus))
    edges = [(q, p) for j, q in enumerate(hubs) for p in spine[j : j + 2]]
    edges += zip(boundary[::2], itertools.cycle(spine))
    # each interior negative hyperbolic joins the boundary negative elliptic
    # that the elliptic form absorbs it into
    edges += zip(reversed(boundary[1::2]), hubs)
    seps = frozenset(frozenset(e) for e in edges if e[0] in sing and e[1] in sing)
    _ref_check_tight(sing, seps)
    return RefState(tb, r, tuple(boundary), tuple(sorted(sing.items())), seps)


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
        try:
            _ref_check_tight(sm, seps)
        except TightnessViolation:  # the cycle runs through the new separatrix
            raise TightnessViolation(f"same-sign separatrix cycle through {add[0]}") from None
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
            if not (es and hs):
                raise BadInvariants("interior counts cannot reach the reduced targets")
            e_id, h_id = es[0], hs[0]
            if frozenset((e_id, h_id)) not in cur.separatrices:
                cur = ref_rewire(cur, add=(e_id, h_id))
            cur = ref_eliminate(cur, e_id, h_id)
    counts = ref_counts(cur, fo.INTERIOR)
    if counts != {"e+": e_target, "h+": 0, "e-": 0, "h-": h_target}:
        raise BadInvariants(
            f"reduced interior {counts} misses the targets e+={e_target}, h-={h_target}")
    return cur


def ref_connections(state):
    """The connections, derived anew: in elliptic form with a reduced
    interior whose elliptic points can be the skeleton's vertices (1 - tb of
    them, signed to give r), canonical_broom's tree on the ranks of the
    sorted elliptic ids (a tree's vertices are ints), as sorted id pairs;
    none in any other state."""
    if not (ref_is_elliptic_form(state) and ref_is_reduced(state)):
        return ()
    sm = dict(state.sing)
    ids = sorted(i for i, s in state.sing if s.kind == fo.ELLIPTIC)
    signs = [sm[v].sign for v in ids]
    if (len(ids), tr.SIGMA * sum(signs)) != (1 - state.tb, state.r):
        return ()
    broom = tr.canonical_broom(signs, range(len(ids)))
    return tuple(sorted(tuple(sorted((ids[u], ids[w]))) for u, w in broom.edges))


def ref_extract_skeleton(state):
    """The skeleton rebuilt from the connections on every call, never cached."""
    if not (ref_is_elliptic_form(state) and ref_is_reduced(state)):
        raise NotEllipticForm("extract_skeleton needs an elliptic-form, reduced state")
    conns = ref_connections(state)
    if not conns:
        raise NotATree(
            f"the elliptic points cannot form a skeleton with tb={state.tb}, r={state.r}")
    sm = dict(state.sing)
    verts = sorted({v for c in conns for v in c})
    index = {v: k for k, v in enumerate(verts)}
    signs = {k: sm[v].sign for k, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u, v in conns]
    return fo.SkeletonTree(tree=tr.SignedTree.make(signs, edges), ids=tuple(verts))


def ref_to_elliptic_form(state):
    """A state with connections as it is; any other, if reduced with a NAF
    boundary, absorbs one rewrite at a time."""
    cur = state
    if not ref_connections(state):
        if not (ref_is_naf(state) and ref_is_reduced(state)):
            raise PatternMismatch("to_elliptic_form needs a reduced state with NAF boundary")
        doomed_h = sorted(
            i for i, s in cur.sing if s.locus == fo.INTERIOR and s.kind == fo.HYPERBOLIC
        )
        for q in doomed_h:
            sm = dict(cur.sing)
            # still-elliptic negative boundary points, in reversed boundary order
            free = [b for b in reversed(cur.boundary)
                    if sm[b].sign < 0 and sm[b].kind == fo.ELLIPTIC]
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
    return cur, ref_extract_skeleton(cur)


def ref_dump_state(state):
    """The former dump, which sorted the edges it printed."""
    sm = dict(state.sing)
    lines = [f"tb {state.tb} r {state.r}"]
    lines.append("boundary " + " ".join(f"{b}:{sm[b].tag()}" for b in state.boundary))
    interior = sorted(i for i, s in state.sing if s.locus == fo.INTERIOR)
    lines.append("interior " + " ".join(f"{i}:{sm[i].tag()}" for i in interior))
    for name, edges in (("separatrix", state.separatrices), ("connection", ref_connections(state))):
        lines += (f"{name} {'-'.join(sorted(e))}" for e in sorted(edges, key=sorted))
    return "\n".join(lines)


def _outcome(fn, *args):
    """("ok", result) or ("raised", exception type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compare what either side raises, message included
        return "raised", type(exc), str(exc)


def seen(state):
    """A library state with its trace, dump and connections."""
    return state, state.trace, fo.dump_state(state), state.connections


def ref_seen(ref):
    """The same of a reference state, as the library state it stands for."""
    return from_ref(ref), ref.trace, ref_dump_state(ref), ref_connections(ref)


def _kinds(pattern, tb):
    n = 2 * abs(tb)
    if pattern is None:
        return None
    if pattern == "mixed":
        return ["h" if i % 3 == 0 else "e" for i in range(n)]
    return [pattern] * n


def library_pipeline(tb, r, pattern):
    """Each state of init_boundary and the stages, seen, then the skeleton."""
    states = [fo.init_boundary(tb, r, _kinds(pattern, tb))]
    states.append(fo.to_naf(states[-1]))
    states.append(fo.reduce_interior(states[-1]))
    final, skeleton = fo.to_elliptic_form(states[-1])
    assert fo.extract_skeleton(final) is skeleton
    return tuple(seen(s) for s in states + [final]), skeleton


@functools.lru_cache(maxsize=None)
def reference_pipeline(tb, r, pattern):
    """The same of the reference, from its own start state.  Both classes
    below read it, so it is run once per input."""
    states = [ref_init_boundary(tb, r, _kinds(pattern, tb))]
    states.append(ref_to_naf(states[-1]))
    states.append(ref_reduce_interior(states[-1]))
    final, skeleton = ref_to_elliptic_form(states[-1])
    return tuple(ref_seen(s) for s in states + [final]), skeleton


def library_stages_on_reference(tb, r, pattern):
    """Each library stage run on the library state that the reference's
    input to that stage stands for, seen, then the skeleton.  Those states
    are built fresh from their foliation, so they hold none of the facts a
    pipeline hands from one stage to the next."""
    inputs = [s for s, *_ in reference_pipeline(tb, r, pattern)[0][:3]]
    outputs = [fo.to_naf(inputs[0]), fo.reduce_interior(inputs[1])]
    final, skeleton = fo.to_elliptic_form(inputs[2])
    return tuple(seen(s) for s in outputs + [final]), skeleton


def reference_stages(tb, r, pattern):
    states, skeleton = reference_pipeline(tb, r, pattern)
    return states[1:], skeleton


PATTERNS = (None, "e", "h", "mixed")
LARGE = [(-161, 0, "e"), (-641, 640, None), (-641, -640, None)]


class TestAgainstReference:
    """Each stage on its own: library and reference stages fed the same state."""

    def test_stages_small_grid(self):
        for tb, r in in_range_grid(-15):
            for pattern in PATTERNS:
                want = _outcome(reference_stages, tb, r, pattern)
                assert _outcome(library_stages_on_reference, tb, r, pattern) == want, (tb, r, pattern)

    @pytest.mark.parametrize("tb, r, pattern", LARGE)
    def test_stages_large(self, tb, r, pattern):
        assert library_stages_on_reference(tb, r, pattern) == reference_stages(tb, r, pattern)


class TestAgainstFormer:
    """The whole pipeline against the reference engine, which works on the
    former representation: each side from its own start state, state by
    state, as the stages hand their states on."""

    def test_stages_small_grid(self):
        for tb, r in in_range_grid(-15):
            for pattern in PATTERNS:
                want = _outcome(reference_pipeline, tb, r, pattern)
                assert _outcome(library_pipeline, tb, r, pattern) == want, (tb, r, pattern)

    @pytest.mark.parametrize("tb, r, pattern", LARGE)
    def test_stages_large(self, tb, r, pattern):
        assert library_pipeline(tb, r, pattern) == reference_pipeline(tb, r, pattern)


def test_derived_connections_are_the_reference_broom():
    """On every state of the pipeline: the broom on the elliptic points
    where the state is in elliptic form with a reduced interior, and none
    elsewhere, as the reference derives them."""
    for tb, r in in_range_grid(-15):
        for pattern in PATTERNS:
            init = fo.init_boundary(tb, r, _kinds(pattern, tb))
            naf = fo.to_naf(init)
            reduced = fo.reduce_interior(naf)
            final, _ = fo.to_elliptic_form(reduced)
            assert final.connections
            for s in (init, naf, reduced, final):
                assert s.connections == ref_connections(to_ref(s)), (tb, r, pattern)


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


def _rewritten(data):
    """A random start state and sequence of atomic rewrites, each applied to
    the library state and to the reference one and compared; the last
    states.  A rewrite either side refuses is skipped, after the two errors
    are found equal."""
    tb, r = data.draw(st.sampled_from(SMALL))
    kinds = _kinds(data.draw(st.sampled_from(PATTERNS)), tb)
    new, ref = fo.init_boundary(tb, r, kinds), ref_init_boundary(tb, r, kinds)
    assert seen(new) == ref_seen(ref)
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
        assert seen(new) == ref_seen(ref), (op, args)
    return new, ref


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_atomic_rewrites_match_reference(data):
    _rewritten(data)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_atomic_rewrites_and_stages_match_reference(data):
    """Each rewrite of a random sequence, then every stage on its last state."""
    new, ref = _rewritten(data)
    library = (fo.to_naf, fo.reduce_interior, lambda s: fo.to_elliptic_form(s)[0])
    reference = (ref_to_naf, ref_reduce_interior, lambda s: ref_to_elliptic_form(s)[0])
    for stage, ref_stage in zip(library, reference):
        got, want = _outcome(stage, new), _outcome(ref_stage, ref)
        if want[0] == "raised":
            assert got == want
            break
        assert got[0] == "ok", got
        new, ref = got[1], want[1]
        assert seen(new) == ref_seen(ref)
    else:
        assert _outcome(fo.extract_skeleton, new) == _outcome(ref_extract_skeleton, ref)


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
# reference derives the connections through canonical_broom on the ranks of
# the sorted ids, and the skeleton anew on every call.


def _reduced(tb, r, raw):
    return fo.reduce_interior(fo.to_naf(fo.init_boundary(tb, r, _kinds("e" if raw else None, tb))))


@settings(max_examples=60, deadline=None)
@given(TB_R_RAW)
def test_elliptic_form_outputs_match_reference(case):
    reduced = _reduced(*case)
    got, _ = fo.to_elliptic_form(reduced)
    want, _ = ref_to_elliptic_form(to_ref(reduced))
    assert seen(got) == ref_seen(want)
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
# Each stage pays only for what its rewrites touch.


def test_init_boundary_makes_no_working_copy(monkeypatch):
    def refuse(self, state):
        raise AssertionError("a working copy")

    monkeypatch.setattr(fo._Work, "__init__", refuse)
    for pattern in PATTERNS:
        kinds = _kinds(pattern, -9)
        assert seen(fo.init_boundary(-9, 2, kinds)) == ref_seen(ref_init_boundary(-9, 2, kinds))


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
    ref_sing = {i: RefSing(1 if t[1] == "+" else -1, t[0], fo.INTERIOR) for i, t in sing.items()}
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


# ---------------------------------------------------------------------------
# Former: the boundary facts as they were while each one looked every
# boundary point up in the id map and compared its tag in Python, to_naf's
# todo list and to_elliptic_form's pool built the same way, and the pool
# partner table built with the shared pair index.  A state now reads them
# from one column of boundary tags (_btags).  to_naf itself, and the start
# state, are compared with the reference engine.


def former_alternates(state):
    signs = [state.sing_map[b][1] for b in state.boundary]
    return all(map(operator.ne, signs, signs[1:] + signs[:1]))


def former_naf(state):
    return all(state.sing_map[b] in fo._NAF for b in state.boundary) and former_alternates(state)


def former_tallies(state):
    total = Counter(state.sing_map.values())
    bnd = Counter(map(state.sing_map.__getitem__, state.boundary))
    tags = ("e+", "h+", "e-", "h-")
    return {None: {t: total[t] for t in tags}, fo.BOUNDARY: {t: bnd[t] for t in tags},
            fo.INTERIOR: {t: total[t] - bnd[t] for t in tags}}


def former_todo(state):
    return [b for b in state.boundary if state.sing_map[b] not in fo._NAF]


def former_absorbs(state):
    """(q, m, rewired) per absorb, from the former pool and the partner table
    of one ``_index`` of the separatrices with an end in the pool."""
    sm = state.sing_map
    pool = [b for b in reversed(state.boundary) if sm[b][1] == "-"]
    free = {m: k for k, m in enumerate(pool)}
    partners = tr._index(e for e in state.separatrices if e[0] in free or e[1] in free)
    plan, k = [], 0
    for q in (i for i, t in state.sing if t == "h-"):
        shared = [m for m in partners[q] if m in free]
        if shared:
            m = min(shared, key=free.__getitem__)
        else:
            while pool[k] not in free:
                k += 1
            m = pool[k]
        del free[m]
        plan.append((q, m, not shared))
    return plan


def converted(before, after):
    """The points the stage from ``before`` to ``after`` converted, in order."""
    return [s.operands[0] for s in after.trace[len(before.trace):] if s.rule == "convert"]


def absorbed(before, after):
    """(q, m, rewired) per absorb of the stage from ``before`` to ``after``."""
    steps, rewired, out = after.trace[len(before.trace):], set(), []
    for s in steps:
        if s.rule == "rewire":
            rewired.add(s.operands[0])
        elif s.rule == "absorb":
            q, m = s.operands
            out.append((q, m, (q, m) in rewired))
    return out


def assert_boundary_facts_match_former(state):
    """The cached facts, then to_naf's todo list and to_elliptic_form's pool
    and partner table as the conversions and absorbs they lead to."""
    assert state._btags == tuple(state.sing_map[b] for b in state.boundary)
    assert state._alternates == former_alternates(state)
    assert state._naf == state.is_naf() == former_naf(state)
    assert state._tallies == former_tallies(state)
    got, want = _outcome(fo.to_naf, state), _outcome(ref_to_naf, to_ref(state))
    assert got[0] == want[0] and (got == want if got[0] == "raised"
                                  else seen(got[1]) == ref_seen(want[1]))
    if got[0] == "raised":
        return
    naf = got[1]
    assert converted(state, naf) == former_todo(state)
    assert (naf is state) == (former_todo(state) == [])
    reduced = _outcome(fo.reduce_interior, naf)
    if reduced[0] == "raised" or reduced[1].connections:
        return
    final = _outcome(fo.to_elliptic_form, reduced[1])
    if final[0] == "ok":
        assert absorbed(reduced[1], final[1][0]) == former_absorbs(reduced[1])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(-n), st.sampled_from([r for r in range(-n + 1, n) if fr.in_unknot_range(-n, r)]),
    st.lists(st.sampled_from((fo.ELLIPTIC, fo.HYPERBOLIC)), min_size=2 * n, max_size=2 * n))))
def test_boundary_facts_match_former_on_random_boundaries(case):
    state = fo.init_boundary(*case)
    # the start state from one column of tags is the one built point by point
    assert seen(state) == ref_seen(ref_init_boundary(*case))
    assert_boundary_facts_match_former(state)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_boundary_facts_match_former_on_any_boundary_cycle(data):
    """Any sequence of the state's points as its boundary: odd, empty,
    repeated and not alternating ones too."""
    tb, r = data.draw(st.sampled_from(SMALL))
    state = fo.init_boundary(tb, r, _kinds(data.draw(st.sampled_from(PATTERNS)), tb))
    ids = [i for i, _ in state.sing]
    cycle = data.draw(st.lists(st.sampled_from(ids), max_size=12))
    bent = replace(state, boundary=tuple(cycle))
    assert bent._btags == tuple(bent.sing_map[b] for b in cycle)
    assert bent._alternates == former_alternates(bent)
    assert bent._naf == former_naf(bent)
    assert bent._tallies == former_tallies(bent)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_boundary_facts_match_former_after_converts_and_rewires(data):
    tb, r = data.draw(st.sampled_from(SMALL))
    state = fo.init_boundary(tb, r, _kinds(data.draw(st.sampled_from(PATTERNS)), tb))
    assert_boundary_facts_match_former(state)
    for _ in range(data.draw(st.integers(1, 8))):
        op = data.draw(st.sampled_from(("convert", "rewire")))
        try:
            state = getattr(fo, op)(state, *_draw_args(data, op, state))
        except (NotConnected, TightnessViolation, BadLeaves):
            continue
        assert_boundary_facts_match_former(state)


# ---------------------------------------------------------------------------
# Facts handed over at birth: init_boundary's state starts with its
# boundary-tag column (_btags), and the frozen state of a working copy that
# only absorbed starts with the copy's id map (sing_map).  Each must read as
# the view that a fresh state built from the same fields derives.


def fresh(state):
    """A new state from ``state``'s fields alone, with no cached view."""
    return fo.FoliationState(*(getattr(state, f.name) for f in fields(state)))


def assert_like_fresh(state):
    new = fresh(state)
    assert list(state.sing_map.items()) == list(new.sing_map.items()) == list(state.sing)
    assert state._btags == new._btags
    assert state._tallies == new._tallies
    assert state.connections == new.connections
    assert _outcome(fo.extract_skeleton, state) == _outcome(fo.extract_skeleton, new)
    assert fo.dump_state(state) == fo.dump_state(new)


def pipeline_states(tb, r, kinds):
    """The states that init_boundary, to_naf, reduce_interior and
    to_elliptic_form return, in order."""
    init = fo.init_boundary(tb, r, kinds)
    naf = fo.to_naf(init)
    reduced = fo.reduce_interior(naf)
    return init, naf, reduced, fo.to_elliptic_form(reduced)[0]


def ends_and_middle(max_tb):
    """Each (tb, r) in range with |tb| <= |max_tb| and r at either end of its
    range or nearest 0: every size, at a fraction of the whole grid's cost."""
    for tb, r in in_range_grid(max_tb):
        if r in (tb + 1, -tb - 1) or abs(r) <= 1:
            yield tb, r


class TestHandedOverFacts:
    def test_stage_outputs_read_like_fresh_states(self):
        for tb, r in ends_and_middle(-41):
            for pattern in PATTERNS:
                states = pipeline_states(tb, r, _kinds(pattern, tb))
                assert "_btags" in vars(states[0])
                for state in states:
                    assert_like_fresh(state)

    def test_largest_default_pipeline_reads_like_fresh_states(self):
        for state in pipeline_states(-641, 0, None):
            assert_like_fresh(state)

    def test_absorb_only_copy_hands_over_its_id_map(self):
        reduced = fo.reduce_interior(fo.to_naf(fo.init_boundary(-9, 2)))
        before = dict(reduced.sing_map)
        w = fo._Work(reduced)
        w.absorb("q0", "b17")  # q0 and b17 share a separatrix
        state = w.freeze()
        assert "sing_map" in vars(state) and w.sing is None
        assert state.sing_map["b17"] == "h-" and "q0" not in state.sing_map
        assert dict(reduced.sing_map) == before  # the input's map is not the copy's
        # the spent copy cannot reach the map it handed over, nor can a reader
        with pytest.raises(TypeError):
            w.absorb("q1", "b15")
        with pytest.raises(TypeError):
            state.sing_map["q1"] = "e+"
        assert state.sing_map == dict(state.sing) and "q1" in state.sing_map
        assert_like_fresh(state)

    def test_indexing_copy_hands_over_nothing(self):
        w = fo._Work(fo.init_boundary(-5, 0, _kinds("e", -5)))
        w.convert("b0", "collar-leaf", "L")  # a link indexes; new ids end the dict
        state = w.freeze()
        assert "sing_map" not in vars(state) and w.sing is None
        assert_like_fresh(state)


# ---------------------------------------------------------------------------
# The trace as a certificate: replaying a pipeline's steps from its start
# state, one at a time, through the public atomic rewrites (and the working
# copy's absorb, which has no public form) gives the pipeline's state, dump
# and trace; and each step's logged delta is the change of counts() that the
# replay measures.


def replay_step(state, step):
    if step.rule == "absorb":
        w = fo._Work(state)
        w.absorb(*step.operands)
        return w.freeze()
    return {"convert": fo.convert, "eliminate": fo.eliminate, "rewire": fo.rewire,
            "create_pair": fo.create_pair}[step.rule](state, *step.operands)


def measured_delta(before, after):
    b, a = before.counts(), after.counts()
    return tuple((t, a[t] - b[t]) for t in fo._TAGS if a[t] != b[t])


def test_pipeline_traces_replay_to_their_states():
    for tb, r in in_range_grid(-9):
        for pattern in PATTERNS:
            init, *_, final = pipeline_states(tb, r, _kinds(pattern, tb))
            state = init
            for step in final.trace:
                after = replay_step(state, step)
                assert after.trace == state.trace + (step,), (tb, r, pattern, step)
                assert measured_delta(state, after) == step.delta, (tb, r, pattern, step)
                state = after
            assert state == final and state.trace == final.trace
            assert fo.dump_state(state) == fo.dump_state(final)
            assert fo.extract_skeleton(state) == fo.extract_skeleton(final)
