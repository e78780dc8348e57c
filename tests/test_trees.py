import copy
import heapq
import itertools
import math
import pickle
import random
from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legkit import foliation as fo
from legkit import fronts as fr
from legkit import trees as tr
from legkit.errors import (
    BadInvariants,
    BadSigning,
    NotAcceptable,
    NotATree,
    NotEndEdge,
    OutOfRange,
    ParseError,
    PatternMismatch,
    SignMismatch,
)

EDGE = "v 0 0 0 +\nv 1 1 0 -\ne 0 1"


def path_embedding(signs):
    t = tr.SignedTree.make(
        {i: s for i, s in enumerate(signs)},
        [(i, i + 1) for i in range(len(signs) - 1)],
    )
    coords = {i: (F(i), F(0)) for i in range(len(signs))}
    return tr.AcceptableEmbedding.make(t, coords)


def fset(edges):
    """The former form of a tree's edges: a frozenset of 2-element frozensets."""
    return frozenset(map(frozenset, edges))


def front_invariants(emb):
    d = tr.build_front(emb)
    return fr.invariant_pair(fr.OrientedFront.default(d))


# Reference acceptability: the Fraction-slope originals of the checks,
# left-most vertex and child order that AcceptableEmbedding now does on its
# integer grid.


def ref_check_acceptable(tree, cm):
    """Raise the NotAcceptable the embedding (tree, cm) fails, if any."""
    if set(cm) != set(tree.vertices):
        raise NotAcceptable(0, "coordinates must cover exactly the vertex set")
    if len(tree.edges) < 1:
        raise NotAcceptable(1, "embedding needs at least one edge")
    for e in tree.edges:
        u, w = tuple(e)
        dx = cm[w][0] - cm[u][0]
        dy = cm[w][1] - cm[u][1]
        if dx == 0 or abs(F(dy) / F(dx)) >= F(1, 2):
            raise NotAcceptable(2, f"edge {u}-{w} slope not strictly between +-1/2")
    for v in tree.vertices:
        left = [w for w in tree.neighbors(v) if cm[w][0] < cm[v][0]]
        if len(left) > 1:
            raise NotAcceptable(3, f"vertex {v} has {len(left)} edges on its left")
    xs = sorted((cm[v][0], v) for v in tree.vertices)
    if len(xs) > 1 and xs[0][0] == xs[1][0]:
        raise NotAcceptable(3, "left-most vertex is not unique")
    if tree.valence(xs[0][1]) != 1:
        raise NotAcceptable(4, f"left-most vertex {xs[0][1]} is not an end vertex")


def ref_leftmost(emb):
    cm = emb.coord_map
    return min(emb.tree.vertices, key=lambda v: (cm[v][0], v))


def ref_right_children(emb, v, parent):
    cm = emb.coord_map
    kids = [w for w in emb.tree.neighbors(v) if w != parent and cm[w][0] > cm[v][0]]

    def slope(w):
        return F(cm[w][1] - cm[v][1]) / F(cm[w][0] - cm[v][0])

    return sorted(kids, key=lambda w: (-slope(w), w))


def ref_build_front(emb):
    """The recursive original of build_front: one nested call per vertex."""
    signs = emb.tree.sign_map
    events = []
    root = ref_leftmost(emb)
    (child,) = emb.tree.neighbors(root)

    def emit(kind, pos):
        events.append(fr.FrontEvent(kind, pos))

    def subtree(v, parent, p, phi):
        w = 2

        def local(kind, offset):
            nonlocal w
            if phi < 0:
                offset = (w + 2 - offset) if kind == fr.LEFT else (w - offset)
            emit(kind, p - 1 + offset)
            w += 2 if kind == fr.LEFT else (-2 if kind == fr.RIGHT else 0)

        kids = ref_right_children(emb, v, parent)
        n = len(kids)
        if n == 0:
            local(fr.RIGHT, 1)
            return
        s_eff = signs[v] * phi
        if n == 1:
            if s_eff > 0:
                local(fr.LEFT, 1)
                local(fr.RIGHT, 2)
            else:
                local(fr.LEFT, 2)
                local(fr.RIGHT, 1)
            subtree(kids[0], v, p, phi)
            return
        if s_eff < 0:
            for i in range(1, n):
                local(fr.LEFT, 2 * i)
            local(fr.LEFT, 2)
            local(fr.RIGHT, 1)
            width = 2 * n
            bases = [p - 1 + (2 * j - 1 if phi > 0 else width - 2 * j + 1)
                     for j in range(1, n + 1)]
            for child_v, base in zip(kids, sorted(bases, reverse=True)):
                subtree(child_v, v, base, phi)
        else:
            for i in range(1, n):
                local(fr.LEFT, 3)
                if i == 1:
                    local(fr.LEFT, 1)
                    local(fr.RIGHT, 2)
                subtree(kids[i - 1], v, p + 1, -phi)
                w -= 2
            subtree(kids[n - 1], v, p, phi)

    emit(fr.LEFT, 1)
    subtree(child, root, 1, 1)
    return fr.FrontDiagram(tuple(events))


def former_build_front(emb):
    """The former build_front: the same work stack, with each vertex's
    children found by ``ref_right_children`` from its parent and every
    event built anew."""
    signs = emb.tree.sign_map
    root = ref_leftmost(emb)
    (child,) = emb.tree.neighbors(root)
    events = [fr.FrontEvent(fr.LEFT, 1)]
    work = [(child, root, 1, 1)]
    while work:
        item = work.pop()
        if isinstance(item, fr.FrontEvent):
            events.append(item)
            continue
        v, parent, p, phi = item
        plan = []
        w = 2

        def local(kind, offset):
            nonlocal w
            if phi < 0:
                offset = (w + 2 - offset) if kind == fr.LEFT else (w - offset)
            plan.append(fr.FrontEvent(kind, p - 1 + offset))
            w += 2 if kind == fr.LEFT else (-2 if kind == fr.RIGHT else 0)

        kids = ref_right_children(emb, v, parent)
        n = len(kids)
        if n == 0:
            local(fr.RIGHT, 1)
        elif n == 1:
            if signs[v] * phi > 0:
                local(fr.LEFT, 1)
                local(fr.RIGHT, 2)
            else:
                local(fr.LEFT, 2)
                local(fr.RIGHT, 1)
            plan.append((kids[0], v, p, phi))
        elif signs[v] * phi < 0:
            for i in range(1, n):
                local(fr.LEFT, 2 * i)
            local(fr.LEFT, 2)
            local(fr.RIGHT, 1)
            width = 2 * n
            bases = []
            for j in range(1, n + 1):
                a = 2 * j - 1
                bases.append(p - 1 + (a if phi > 0 else width - a))
            for child_v, base in zip(kids, sorted(bases, reverse=True)):
                plan.append((child_v, v, base, phi))
        else:
            for i in range(1, n):
                local(fr.LEFT, 3)
                if i == 1:
                    local(fr.LEFT, 1)
                    local(fr.RIGHT, 2)
                plan.append((kids[i - 1], v, p + 1, -phi))
                w -= 2
            plan.append((kids[n - 1], v, p, phi))
        work.extend(reversed(plan))
    return fr.FrontDiagram(tuple(events))


SLOPES = (F(-2, 5), F(-1, 4), F(-1, 7), F(0), F(1, 7), F(1, 4), F(2, 5))


@st.composite
def fork_embeddings(draw):
    """Acceptable embeddings of random recursive trees on 2-24 vertices,
    which have many forks.

    Each child sits right of its parent by a dx shared with its siblings or
    drawn per child, at a slope from a short list, so equal slopes, equal
    dx and collinear children all occur.  The root has one child.
    """
    n = draw(st.integers(2, 24))
    parents = [0] + [draw(st.integers(1, v - 1)) for v in range(2, n)]
    ids = [0] + draw(st.permutations(range(1, n)))
    shared = {p: draw(st.sampled_from((F(1), F(2), F(3, 2)))) for p in set(parents)}
    pts = [(F(0), F(0))]
    for v, p in enumerate(parents, start=1):
        dx = shared[p] if draw(st.booleans()) else draw(st.sampled_from((F(1, 2), F(1), F(5, 3))))
        pts.append((pts[p][0] + dx, pts[p][1] + draw(st.sampled_from(SLOPES)) * dx))
    depth = [0]
    for p in parents:
        depth.append(depth[p] + 1)
    signs = {ids[v]: (-1) ** depth[v] for v in range(n)}
    edges = [(ids[p], ids[v]) for v, p in enumerate(parents, start=1)]
    coords = {ids[v]: pts[v] for v in range(n)}
    return tr.AcceptableEmbedding.make(tr.SignedTree.make(signs, edges), coords)


def assert_matches_former(emb):
    """build_front equals the former one, each distinct event is one object,
    and the recorded children are the reference's right children."""
    d = tr.build_front(emb)
    assert d == former_build_front(emb)
    assert len({id(ev) for ev in d.events}) == len(set(d.events))
    for v in emb.tree.vertices:
        assert emb.children[v] == tuple(ref_right_children(emb, v, None))
    return d


def comb_embedding(hub_sign, length):
    """Root 0 - hub 1, whose right children are a leaf 2 (lower) and a path
    3 - 4 - ... of ``length`` vertices (upper, so visited first): the long
    path is not the last child."""
    signs = {0: -hub_sign, 1: hub_sign, 2: -hub_sign}
    coords = {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(2), F(-1, 4))}
    edges = [(0, 1), (1, 2)]
    prev = 1
    for k in range(length):
        v = 3 + k
        signs[v] = hub_sign * (-1 if k % 2 == 0 else 1)
        coords[v] = (F(2 + k), F(1, 4))
        edges.append((prev, v))
        prev = v
    return tr.AcceptableEmbedding.make(tr.SignedTree.make(signs, edges), coords)


# Reference normalization: every end-edge move re-sorts all edges, rebuilds
# and re-checks the whole tree, and the gathering is replayed once more.
# It is the quadratic original of the one-working-copy version in trees.py.


def ref_move_end_edge(t, edge, target):
    e = frozenset(edge)
    if e not in fset(t.edges):
        raise NotATree(f"no edge {edge}")
    u, w = tuple(e)
    if t.valence(w) == 1:
        attach, leaf = u, w
    elif t.valence(u) == 1:
        attach, leaf = w, u
    else:
        raise NotEndEdge(f"edge {u}-{w} has no end vertex")
    sm = t.sign_map
    if target == leaf or sm[target] != sm[attach]:
        raise SignMismatch("bad target")
    edges = set(fset(t.edges)) - {e} | {frozenset((target, leaf))}
    return tr.SignedTree.make(sm, [tuple(x) for x in edges])


def ref_greedy_to_double_star(t):
    """(double star, moves), or None where no off-hub end edge is left."""
    plus = [v for v, s in t.signs if s == 1]
    minus = [v for v, s in t.signs if s == -1]
    p0, m0 = min(plus), min(minus)
    hubs = {p0, m0}
    moves = []
    cur = t
    for _ in range(4 * len(t.vertices) + 8):
        sm = cur.sign_map
        pending = None
        for e in sorted(fset(cur.edges), key=lambda e: tuple(sorted(e))):
            if e & hubs:
                continue
            u, w = tuple(e)
            for attach, leaf in ((u, w), (w, u)):
                if cur.valence(leaf) == 1:
                    target = p0 if sm[attach] == 1 else m0
                    if target != leaf:
                        pending = ((attach, leaf), target)
                        break
            if pending:
                break
        if pending is None:
            break
        edge, target = pending
        cur = ref_move_end_edge(cur, edge, target)
        moves.append((edge, target))
    if not all(e & hubs for e in fset(cur.edges)):
        return None
    return cur, moves


def ref_normalize(t):
    """(broom, moves) of the reference, or None where gathering stalls."""
    if len(t.vertices) <= 1:
        return t, []
    target = tr.canonical_broom([s for _, s in t.signs], t.vertices)
    fwd = ref_greedy_to_double_star(t)
    if fwd is None:
        return None
    moves = list(fwd[1])
    cur = t
    for edge, tgt in moves:
        cur = ref_move_end_edge(cur, edge, tgt)
    for (attach, leaf), tgt in reversed(ref_greedy_to_double_star(target)[1]):
        cur = ref_move_end_edge(cur, (tgt, leaf), attach)
        moves.append(((tgt, leaf), attach))
    assert cur == target
    return cur, moves


# Reference move counts: the double-star normalizer as it was in trees.py.
# It makes the hubs (the smallest vertex of each sign) adjacent, gathers
# every end edge onto the hub of its sign, then undoes the canonical broom's
# own gathering, so even the broom gets moves.


class RefTreeWork(tr._TreeWork):
    def hub_by_sign(self) -> dict[int, int]:
        """The hub of each sign: its smallest vertex."""
        sm = self.tree.sign_map
        return {s: min(v for v in sm if sm[v] == s) for s in (1, -1)}

    def join_hubs(self) -> list[tr.Move]:
        """Make the two hubs adjacent; no move if they already are.

        On the path p = x0, x1, ..., xk = m from the + hub to the - hub, the
        branch hanging off m away from x(k-1) is taken apart leaves first,
        each end edge moving to p or x1 by its attachment sign; then m, an
        end vertex on x(k-1), moves to p.  Returns the moves.
        """
        sm, adj = self.tree.sign_map, self.adj
        hub_of = self.hub_by_sign()
        p, m = hub_of[1], hub_of[-1]
        if m in adj[p]:
            return []
        parent = {p: p}
        order = [p]  # breadth first from p, so parents come before children
        for u in order:
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    order.append(w)
        x1 = m
        while parent[x1] != p:
            x1 = parent[x1]
        branch = {m}
        for v in order:
            if parent[v] in branch:
                branch.add(v)
        moves: list[tr.Move] = []
        for v in reversed(order):
            if v in branch:
                attach = parent[v]
                target = p if sm[attach] == 1 else x1
                self.move((attach, v), target)
                moves.append(((attach, v), target))
        return moves

    def gather(self) -> list[tr.Move]:
        """Gather every end edge onto the hub of its attachment sign.

        End edges off the hubs move smallest sorted edge first.  A move can
        only turn the last edge of its attachment vertex into an end edge,
        so a heap holds the eligible edges.  Returns the moves as
        ((attach, leaf), hub) pairs.
        """
        sm, adj = self.tree.sign_map, self.adj
        hub_of = self.hub_by_sign()
        hubs = set(hub_of.values())
        off_hub = [(u, w) for u, ws in adj.items() for w in ws if u < w and not {u, w} & hubs]
        heap = [e for e in off_hub if len(adj[e[0]]) == 1 or len(adj[e[1]]) == 1]
        heapq.heapify(heap)
        moves: list[tr.Move] = []
        while heap:
            attach, leaf = self.end_of(heapq.heappop(heap))
            hub = hub_of[sm[attach]]
            self.move((attach, leaf), hub)
            moves.append(((attach, leaf), hub))
            if len(adj[attach]) == 1 and not adj[attach] & hubs:
                heapq.heappush(heap, tuple(sorted((attach, *adj[attach]))))
        if len(moves) != len(off_hub):
            raise NotEndEdge(f"gathering stalled: no end edge off the hubs {sorted(hubs)}")
        return moves


def ref_double_star_normalize(t):
    """(broom, moves) of the double-star normalizer."""
    if len(t.vertices) <= 1:
        return t, []
    target = tr.canonical_broom([s for _, s in t.signs], t.vertices)
    work = RefTreeWork(t)
    moves = work.join_hubs() + work.gather()
    # each gathering move ((attach, leaf), hub) is undone by moving
    # (hub, leaf) back to attach
    for (attach, leaf), hub in reversed(RefTreeWork(target).gather()):
        work.move((hub, leaf), attach)
        moves.append(((hub, leaf), attach))
    out = work.freeze()
    if out.edges != target.edges:
        raise PatternMismatch("normalization did not reach the broom")
    if not out.is_almost_linear():
        raise PatternMismatch("normalized tree is not almost linear")
    return out, moves


@st.composite
def signed_trees(draw, max_vertices=40):
    """Signed trees of 2-max_vertices vertices with arbitrary vertex ids."""
    n = draw(st.integers(2, max_vertices))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    ids = draw(st.permutations(range(n)))
    root_sign = draw(st.sampled_from((1, -1)))
    depth = [0]
    for p in parents:
        depth.append(depth[p] + 1)
    signs = {ids[v]: root_sign * (-1) ** depth[v] for v in range(n)}
    edges = [(ids[p], ids[v]) for v, p in enumerate(parents, start=1)]
    return tr.SignedTree.make(signs, edges)


def broom_of(t):
    return tr.canonical_broom([s for _, s in t.signs], t.vertices)


def assert_replays_to_broom(t):
    """Normalize t; the moves replay through replay_moves to the broom, each
    one legal where it is made, no move's target is its attachment, no vertex
    moves more than twice, and the broom itself gets no move."""
    out, moves = tr.normalize_to_almost_linear(t)
    assert all(target != attach for (attach, _), target in moves)
    assert tr.replay_moves(t, moves) == out == broom_of(t)
    moved = [leaf for (_, leaf), _ in moves]
    assert all(moved.count(v) <= 2 for v in moved)
    assert (moves == []) == (t == out)
    return moves


def assert_matches_reference(t):
    """The double-star reference's broom, and that reference's moves are the
    quadratic reference's where its hubs are adjacent.  The move lists are
    compared by length only exhaustively on small trees: on larger ones the
    walk's list is now and then a few moves longer."""
    want = ref_normalize(t)
    ref = ref_double_star_normalize(t)
    if want is not None:
        assert ref == want
    assert_replays_to_broom(t)
    assert ref[0] == broom_of(t)


def ref_broom_reachable(t):
    """Breadth-first search over all end-edge moves: the fewest moves from t
    to its broom, or None where the broom is not reachable."""
    sm = t.sign_map
    goal = fset(broom_of(t).edges)
    dist = {fset(t.edges): 0}
    queue = [fset(t.edges)]
    for edges in queue:
        if edges == goal:
            return dist[edges]
        valence = {}
        for e in edges:
            for v in e:
                valence[v] = valence.get(v, 0) + 1
        for e in edges:
            for leaf in e:
                if valence[leaf] != 1:
                    continue
                (attach,) = e - {leaf}
                for target in sm:
                    if target not in (attach, leaf) and sm[target] == sm[attach]:
                        nxt = edges - {e} | {frozenset((target, leaf))}
                        if nxt not in dist:
                            dist[nxt] = dist[edges] + 1
                            queue.append(nxt)
    return None


def hubs_adjacent(t):
    sm = t.sign_map
    hubs = {min(v for v in sm if sm[v] == s) for s in (1, -1)}
    return tuple(sorted(hubs)) in t.edges


DENOMINATORS = (1, 2, 3, 7, 11, 13)


@st.composite
def embedding_inputs(draw):
    """(tree, coords) on 2-8 vertices, random and adversarial.

    Each vertex sits a random rational step right of its tree parent, and
    now and then level with it or left of it.  Its edge slope is mostly
    random in [-1.1 eps, 1.1 eps] for eps = 1/2, sometimes exactly +-eps or
    just inside +-eps.
    Denominators are coprime; integral coordinates are sometimes plain
    ints and dyadic ones sometimes floats.
    """
    n = draw(st.integers(2, 8))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    ids = draw(st.permutations(range(n)))
    root_sign = draw(st.sampled_from((1, -1)))
    eps = F(1, 2)
    rational = st.builds(F, st.integers(1, 30), st.sampled_from(DENOMINATORS))
    depth = [0]
    pts = [(draw(rational) - 1, draw(rational) - 1)]
    for p in parents:
        depth.append(depth[p] + 1)
        dx = draw(rational) * draw(st.sampled_from((1, 1, 1, 1, 1, 0, -1)))
        kind = draw(st.sampled_from(("random",) * 6 + ("exact", "inside", "inside")))
        side = draw(st.sampled_from((1, -1)))
        if kind == "random":
            dy = abs(dx) * eps * F(draw(st.integers(-22, 22)), 20)
        else:
            dy = side * eps * abs(dx)
            if kind == "inside":
                dy -= side * F(1, 1001 * dy.denominator)
        pts.append((pts[p][0] + dx, pts[p][1] + dy))

    def plain(c):
        if c.denominator == 1 and draw(st.booleans()):
            return int(c)
        if c.denominator in (1, 2) and draw(st.booleans()):
            return float(c)
        return c

    signs = {ids[v]: root_sign * (-1) ** depth[v] for v in range(n)}
    edges = [(ids[p], ids[v]) for v, p in enumerate(parents, start=1)]
    coords = {ids[v]: (plain(x), plain(y)) for v, (x, y) in enumerate(pts)}
    return tr.SignedTree.make(signs, edges), coords


def not_acceptable(fn):
    try:
        fn()
    except NotAcceptable as exc:
        return exc.condition, str(exc)
    return None


class TestIntegerGrid:
    """The grid checks, left-most vertex and child order against the
    Fraction-slope reference."""

    def assert_matches_reference(self, tree, coords):
        # the grid takes a float at its exact binary value; the reference
        # would round float differences, so it gets the exact values
        exact = {v: (F(x), F(y)) for v, (x, y) in coords.items()}
        want = not_acceptable(lambda: ref_check_acceptable(tree, exact))
        got = not_acceptable(lambda: tr.AcceptableEmbedding.make(tree, coords))
        assert got == want
        if want is not None:
            return None
        emb = tr.AcceptableEmbedding.make(tree, coords)
        ref = tr.AcceptableEmbedding.make(tree, exact)
        assert emb.leftmost == ref_leftmost(ref)
        for v in tree.vertices:
            assert emb.children[v] == tuple(ref_right_children(ref, v, None))
        assert tr.build_front(emb) == ref_build_front(ref)
        return emb

    @settings(max_examples=400, deadline=None)
    @given(embedding_inputs())
    def test_random_embeddings_match_reference(self, case):
        self.assert_matches_reference(*case)

    @pytest.mark.parametrize("side", [1, -1])
    def test_slope_exactly_epsilon_is_rejected(self, side):
        t = tr.SignedTree.make({0: 1, 1: -1}, [(0, 1)])
        x0, y0, dx = F(1, 3), F(-5, 11), F(7, 13)
        coords = {0: (x0, y0), 1: (x0 + dx, y0 + side * dx / 2)}
        self.assert_matches_reference(t, coords)
        with pytest.raises(NotAcceptable) as exc:
            tr.AcceptableEmbedding.make(t, coords)
        assert exc.value.condition == 2
        assert str(exc.value) == (
            "acceptability condition 2 failed: edge 0-1 slope not strictly between +-1/2")

    @pytest.mark.parametrize("side", [1, -1])
    def test_slope_one_grid_step_inside_epsilon(self, side):
        # the grid has 3 * 11 * 13 = 429 steps per unit: |dY| = dX / 2 - 1
        t = tr.SignedTree.make({0: 1, 1: -1}, [(0, 1)])
        x0, y0, dx = F(1, 3), F(-5, 11), F(8, 13)
        coords = {0: (x0, y0), 1: (x0 + dx, y0 + side * (dx / 2 - F(1, 429)))}
        emb = self.assert_matches_reference(t, coords)
        (x0g, y0g), (x1g, y1g) = emb.grid[0], emb.grid[1]
        assert (x1g - x0g, side * (y1g - y0g)) == (264, 132 - 1)

    def test_tied_leftmost_x(self):
        # 0 and 3 share the least x; 2, between them on the path, has two
        # left edges, which the reference reports first
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1, 3: -1}, [(0, 1), (1, 2), (2, 3)])
        coords = {0: (F(0), F(0)), 1: (F(1, 3), F(0)), 2: (F(9, 7), F(1, 13)),
                  3: (F(0), F(1, 11))}
        self.assert_matches_reference(t, coords)
        with pytest.raises(NotAcceptable, match="vertex 2 has 2 edges on its left"):
            tr.AcceptableEmbedding.make(t, coords)

    def test_smallest_crowded_vertex_is_reported(self):
        # 1 and 3 each have two edges on their left
        t = tr.SignedTree.make({4: 1, 3: -1, 2: 1, 1: -1, 0: 1},
                               [(4, 3), (3, 2), (2, 1), (1, 0)])
        coords = {4: (F(0), F(0)), 3: (F(2), F(1, 3)), 2: (F(1), F(2, 7)),
                  1: (F(3), F(-5, 11)), 0: (F(5, 2), F(-3, 11))}
        self.assert_matches_reference(t, coords)
        with pytest.raises(NotAcceptable, match="vertex 1 has 2 edges on its left"):
            tr.AcceptableEmbedding.make(t, coords)

    def test_coprime_denominators(self):
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1, 3: 1}, [(0, 1), (1, 2), (1, 3)])
        coords = {0: (F(1, 3), F(0)), 1: (F(2, 7) + 1, F(-5, 11) / 8),
                  2: (F(2), F(1, 13)), 3: (F(5, 2), F(-1, 13))}
        emb = self.assert_matches_reference(t, coords)
        assert emb.children[1] == tuple(ref_right_children(emb, 1, None)) == (2, 3)
        assert len({x for x, _ in emb.grid.values()}) == 4

    def test_int_and_float_coordinates(self):
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1}, [(0, 1), (1, 2)])
        ints = {0: (0, 0), 1: (1, 0), 2: (2, 0)}
        floats = {0: (0.0, 0.0), 1: (1.0, 0.25), 2: (2.5, -0.25)}
        exact = {v: (F(x), F(y)) for v, (x, y) in floats.items()}
        for coords in (ints, floats):
            emb = self.assert_matches_reference(t, coords)
            assert emb.coord_map == coords
        assert tr.build_front(tr.AcceptableEmbedding.make(t, floats)) == tr.build_front(
            tr.AcceptableEmbedding.make(t, exact))
        # each coordinate is written as its exact value, which parse_tree reads back
        text = tr.serialize_tree(tr.AcceptableEmbedding.make(t, floats))
        assert text.splitlines()[1] == "v 1 1 1/4 -"
        assert tr.parse_tree(text) == tr.AcceptableEmbedding.make(t, floats)

    # a bool used to pass as 0 or 1, and serialize_tree wrote it as False or True
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "1/3", "x",
                                     None, True, False])
    def test_non_rational_coordinate_is_typed(self, bad):
        t = tr.SignedTree.make({0: 1, 1: -1}, [(0, 1)])
        with pytest.raises(NotAcceptable) as exc:
            tr.AcceptableEmbedding.make(t, {0: (0, 0), 1: (1, bad)})
        assert exc.value.condition == 0
        assert "is not a rational number" in str(exc.value)


class TestParsing:
    def test_single_edge(self):
        emb = tr.parse_tree(EDGE)
        assert emb.tree.counts() == (1, 1)
        assert tr.serialize_tree(emb) == EDGE

    def test_slope_too_steep(self):
        with pytest.raises(NotAcceptable) as exc:
            tr.parse_tree("v 0 0 0 +\nv 1 1 2 -\ne 0 1")
        assert exc.value.condition == 2

    def test_adjacent_equal_signs(self):
        with pytest.raises(BadSigning):
            tr.parse_tree("v 0 0 0 +\nv 1 1 0 +\ne 0 1")

    def test_not_a_tree(self):
        with pytest.raises(NotATree):
            tr.parse_tree(
                "v 0 0 0 +\nv 1 1 0 -\nv 2 2 0 +\ne 0 1\ne 1 2\ne 0 2"
            )

    def test_two_left_edges(self):
        text = "v 0 0 1/4 +\nv 1 0 -1/4 +\nv 2 1 0 -\ne 0 2\ne 1 2"
        with pytest.raises(NotAcceptable) as exc:
            tr.parse_tree(text)
        assert exc.value.condition == 3

    def test_leftmost_must_be_end_vertex(self):
        text = "v 0 0 0 -\nv 1 1 0 +\nv 2 1 1/4 +\ne 0 1\ne 0 2"
        with pytest.raises(NotAcceptable) as exc:
            tr.parse_tree(text)
        assert exc.value.condition == 4

    def test_edgeless_embedding(self):
        # one vertex and no edge is a tree, but not an acceptable embedding
        with pytest.raises(NotAcceptable, match="at least one edge") as exc:
            tr.parse_tree("v 0 0 0 +")
        assert exc.value.condition == 1

    @pytest.mark.parametrize("text", ["", "\n", "# comments only\n\n"])
    def test_empty_file(self, text):
        with pytest.raises(ParseError, match="tree file has no vertices"):
            tr.parse_tree(text)

    @pytest.mark.parametrize(
        "signs, edges, error",
        [
            ({0: 1, 1: 0}, [(0, 1)], BadSigning),
            ({0: 1, 1: 1}, [(0, 1)], BadSigning),
            ({0: 1, 1: -1}, [(0, 5)], NotATree),
            ({0: 1, 1: -1, 2: 1}, [(0, 1)], NotATree),
            ({0: 1, 1: -1, 2: -1}, [(0, 1), (1, 2)], BadSigning),
            ({0: 1, 1: -1, 2: 1, 3: -1}, [(0, 1), (1, 2), (0, 1)], NotATree),
        ],
    )
    def test_direct_tree_is_checked_like_make(self, signs, edges, error):
        with pytest.raises(error) as made:
            tr.SignedTree.make(signs, edges)
        with pytest.raises(error) as direct:
            pairs = tuple(sorted(tuple(sorted(e)) for e in edges))
            tr.SignedTree(tuple(sorted(signs.items())), pairs)
        assert str(made.value) == str(direct.value)

    @pytest.mark.parametrize(
        "coords, condition",
        [
            ({0: (F(0), F(0))}, 0),
            ({0: (F(0), F(0)), 1: (F(1), F(1)), 2: (F(2), F(0))}, 2),
            ({0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1, 8))}, 3),
            ({0: (F(1), F(0)), 1: (F(0), F(0)), 2: (F(2), F(0))}, 4),
        ],
    )
    def test_direct_embedding_is_checked_like_make(self, coords, condition):
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1}, [(0, 1), (1, 2)])
        with pytest.raises(NotAcceptable) as made:
            tr.AcceptableEmbedding.make(t, coords)
        # the same coordinates on their grid, given to the dataclass's constructor
        s = math.lcm(*(c.denominator for xy in coords.values() for c in xy))
        xs, ys = (tuple(int(coords[v][i] * s) for v in sorted(coords)) for i in (0, 1))
        with pytest.raises(NotAcceptable) as direct:
            tr.AcceptableEmbedding(t, xs, ys, s)
        assert direct.value.condition == made.value.condition == condition
        assert str(direct.value) == str(made.value)

    def test_syntax_error_has_line(self):
        with pytest.raises(ParseError) as exc:
            tr.parse_tree("v 0 0 0 +\nbogus line")
        assert exc.value.line == 2

    # int() alone takes a sign, underscores and other scripts' digits
    @pytest.mark.parametrize("text, line", [
        ("v 1_0 0 0 +\nv 1 1 0 -\ne 1_0 1", 1), ("v 0 0 0 +\nv +1 1 0 -\ne 0 1", 2),
        ("v 0 0 0 +\nv \u0661 1 0 -\ne 0 1", 2), ("v 0 0 0 +\nv 1 1 0 -\ne 0 +1", 3),
        ("v 0 0 0 +\nv 1 1 0 -\ne 0_0 1", 3), ("v 0 0 0 +\nv 1 1 0 -\ne \uff10 1", 3),
    ])
    def test_integers_are_ascii_digits(self, text, line):
        with pytest.raises(ParseError, match="malformed tree line") as exc:
            tr.parse_tree(text)
        assert exc.value.line == line

    # Fraction() alone takes a sign, underscores, other scripts' digits, a bare
    # point and more forms that serialize_tree never writes
    @pytest.mark.parametrize("token", [
        "+1", "1_0", "\u0661", "\uff11", "1.", ".5", "1e", "1/-2", "1/0", "1.5/2", "1e5/2",
        "0x1", "nan", "inf", "1/2/3", "--1", "1e-5000", "1e+0400",
    ])
    def test_coordinates_are_ascii_rationals(self, token):
        for text, line in (
            (f"v 0 0 0 +\n# x\nv 1 {token} 0 -\ne 0 1", 3),
            (f"v 0 0 {token} +\nv 1 1 0 -\ne 0 1", 1),
        ):
            with pytest.raises(ParseError, match="malformed tree line") as exc:
                tr.parse_tree(text)
            assert exc.value.line == line

    def test_serialized_coordinates_parse(self):
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1, 3: 1}, [(0, 1), (1, 2), (1, 3)])
        coords = {0: (F(-5, 11), 0), 1: (1.0, 1e-05), 2: (2, 0.25), 3: (F(7, 4), -3e-17)}
        emb = tr.AcceptableEmbedding.make(t, coords)
        text = tr.serialize_tree(emb)
        for token in ("-5/11", "v 1 1 ", str(F(1e-05)), " 1/4 ", "7/4", str(F(-3e-17))):
            assert token in text
        back = tr.parse_tree(text)
        # a float is written as its exact binary value, which reads back as the same number
        assert back == emb
        assert dict(back.coord_map) == {v: (F(x), F(y)) for v, (x, y) in coords.items()}
        assert tr.serialize_tree(tr.parse_tree(tr.serialize_tree(back))) == tr.serialize_tree(back)
        assert tr.build_front(back) == tr.build_front(emb)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.fractions(), st.integers()))
    def test_every_written_number_is_a_token(self, c):
        assert tr.RATIONAL_TOKEN.fullmatch(str(c))
        assert type(c)(F(str(c))) == c

    def test_negative_ids(self):
        emb = tr.parse_tree("v -3 0 0 +\nv 01 1 0 -\ne -3 1")
        assert emb.tree.vertices == [-3, 1]

    def test_duplicate_vertex_has_line(self):
        with pytest.raises(ParseError, match="duplicate vertex 1") as exc:
            tr.parse_tree("v 0 0 0 +\nv 1 1 0 -\n# again\nv 1 2 0 -\ne 0 1")
        assert exc.value.line == 4

    @pytest.mark.parametrize("text, line, edge", [
        ("v 0 0 0 +\nv 1 1 0 -\ne 0 1\ne 1 0", 4, "1-0"),  # a set keeps a one-edge tree
        ("v 0 0 0 +\nv 1 1 0 -\nv 2 2 0 +\ne 0 1\n\ne 0 1", 6, "0-1"),  # and miscounts here
    ], ids=["reversed pair", "same pair"])
    def test_repeated_edge_has_line(self, text, line, edge):
        with pytest.raises(ParseError, match=f"repeated edge {edge}") as exc:
            tr.parse_tree(text)
        assert exc.value.line == line


class TestCopies:
    """Pickle and deepcopy carry the fields only; the copy rebuilds its views."""

    VIEWS = ("coord_map", "grid", "children", "leftmost")

    @pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("make", [lambda: tr.catalog_tree(-5, 2), lambda: tr.parse_tree(
        "v 0 -5/11 0 +\nv 1 1/3 2/7 -\nv 2 1 5/11 +\nv 3 1 1/13 +\nv 4 5/2 -2/7 -\n"
        "e 0 1\ne 1 2\ne 1 3\ne 3 4")], ids=["catalog", "fractional"])
    def test_embedding_round_trip(self, roundtrip, make):
        emb = make()
        front = tr.build_front(emb)  # fills every cached view
        emb2 = roundtrip(emb)
        assert emb2 == emb and emb2.tree == emb.tree and hash(emb2) == hash(emb)
        assert set(vars(emb2)) == {"tree", "xs", "ys", "scale"}
        assert set(vars(emb2.tree)) == {"signs", "edges"}
        assert tr.build_front(emb2) == front
        for view in self.VIEWS:
            assert getattr(emb2, view) == getattr(emb, view)
        assert emb2.tree.sign_map == emb.tree.sign_map
        assert [emb2.tree.neighbors(v) for v in emb.tree.vertices] == [
            emb.tree.neighbors(v) for v in emb.tree.vertices]
        assert tr.serialize_tree(emb2) == tr.serialize_tree(emb)

    def test_tree_round_trip(self):
        t = tr.random_signed_tree(random.Random(7), 20)
        t.is_almost_linear()  # fills the cached views
        for t2 in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert t2 == t and set(vars(t2)) == {"signs", "edges"}
            assert tr.normalize_to_almost_linear(t2) == tr.normalize_to_almost_linear(t)


class TestBuildFront:
    def test_single_edge_gives_basic_front(self):
        emb = tr.parse_tree(EDGE)
        d = tr.build_front(emb)
        assert fr.serialize_front(d) == "L 1\nR 1"
        assert front_invariants(emb) == (-1, 0)

    def test_three_path(self):
        emb = path_embedding([1, -1, 1])
        d = tr.build_front(emb)
        tb, r = front_invariants(emb)
        n_cusps = sum(1 for e in d.events if e.kind != "X")
        assert (tb, r) == (-2, tr.SIGMA * 1)
        assert n_cusps == 4

    def test_star(self):
        t = tr.SignedTree.make(
            {0: 1, 1: -1, 2: 1, 3: 1}, [(0, 1), (1, 2), (1, 3)]
        )
        coords = {0: (F(0), F(0)), 1: (F(1), F(0)),
                  2: (F(2), F(1, 8)), 3: (F(2), F(-1, 8))}
        emb = tr.AcceptableEmbedding.make(t, coords)
        assert front_invariants(emb) == (-3, tr.SIGMA * 2)

    def test_single_component_always(self):
        rng = random.Random(17)
        for _ in range(60):
            emb = tr.random_acceptable_embedding(rng, 12)
            d = tr.build_front(emb)
            assert fr.trace_components(d).n_components == 1

    def test_oracle_fuzz(self):
        rng = random.Random(23)
        for _ in range(150):
            emb = tr.random_acceptable_embedding(rng, 14)
            assert front_invariants(emb) == tr.expected_invariants(emb.tree)

    def test_catalog_trees_match_recursive_reference(self):
        built = 0
        for tb in range(-1, -42, -1):
            for r in range(tb + 1, -tb):
                if fr.in_unknot_range(tb, r):
                    emb = tr.catalog_tree(tb, r)
                    assert tr.build_front(emb) == ref_build_front(emb), (tb, r)
                    built += 1
        assert built == 41 * 42 // 2

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 24))
    def test_random_embeddings_match_recursive_reference(self, seed, size):
        emb = tr.random_acceptable_embedding(random.Random(seed), size)
        assert tr.build_front(emb) == ref_build_front(emb)

    @pytest.mark.parametrize("hub_sign", [1, -1])
    def test_comb_with_long_non_last_child(self, hub_sign):
        small = comb_embedding(hub_sign, 60)
        assert tr.build_front(small) == ref_build_front(small)
        # deeper than the default recursion limit
        deep = comb_embedding(hub_sign, 1500)
        assert front_invariants(deep) == tr.expected_invariants(deep.tree)

    def test_catalog_trees_match_former(self):
        built = 0
        for tb in range(-1, -16, -1):
            for r in range(tb + 1, -tb):
                if fr.in_unknot_range(tb, r):
                    assert_matches_former(tr.catalog_tree(tb, r))
                    built += 1
        assert built == 15 * 16 // 2

    @settings(max_examples=200, deadline=None)
    @given(fork_embeddings())
    def test_fork_embeddings_match_former(self, emb):
        assert_matches_former(emb)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 24))
    def test_random_embeddings_match_former(self, seed, size):
        assert_matches_former(tr.random_acceptable_embedding(random.Random(seed), size))

    def test_forks_of_equal_and_unequal_dx(self):
        # hub 1 at (1, 0): children 2..5 at slopes 1/4, 1/4, 0, -1/4 with dx
        # 1, 2, 1, 1/2; 2 and 3 tie on slope and go by id
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1, 3: 1, 4: 1, 5: 1},
                               [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5)])
        coords = {0: (0, 0), 1: (1, 0), 2: (2, F(1, 4)), 3: (3, F(1, 2)), 4: (2, 0),
                  5: (F(3, 2), F(-1, 8))}
        emb = tr.AcceptableEmbedding.make(t, coords)
        assert emb.children == {0: (1,), 1: (2, 3, 4, 5), 2: (), 3: (), 4: (), 5: ()}
        assert_matches_former(emb)

    @pytest.mark.parametrize("r", [0, 300, -300, 600, -600, 640, -640])
    def test_references_at_ladder_size(self, r):
        # crotches and lofts with up to 640 children, on a path of up to 642
        emb = tr.catalog_tree(-641, r)
        d = assert_matches_former(emb)
        text = fr.serialize_front(d)
        assert text == fr.serialize_front(former_build_front(emb))
        assert text == fr.serialize_front(ref_build_front(emb))

    def test_many_random_embeddings_match_both_references(self):
        rng = random.Random(2828)
        for _ in range(3000):
            emb = tr.random_acceptable_embedding(rng, 40)
            d = tr.build_front(emb)
            assert d == former_build_front(emb) == ref_build_front(emb)

    def test_deep_catalog_front(self):
        d = tr.catalog_front(-1281, 0)
        assert len(d.events) == 2 * 1281
        assert fr.invariant_pair(fr.OrientedFront.default(d)) == (-1281, 0)


class TestSigmaConvention:
    def test_sigma_regression_on_three_path(self):
        # The module-wide sign convention is frozen: the (+,-,+) path
        # must build to r = SIGMA under the default orientation.
        emb = path_embedding([1, -1, 1])
        _, r = front_invariants(emb)
        assert r == tr.SIGMA == 1


class TestMoves:
    def test_move_end_edge(self):
        t = tr.SignedTree.make(
            {0: 1, 1: -1, 2: 1, 3: -1, 4: 1},
            [(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        moved = tr.move_end_edge(t, (3, 4), 1)
        assert moved.counts() == t.counts()
        assert (1, 4) in moved.edges

    def test_sign_mismatch(self):
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1}, [(0, 1), (1, 2)])
        with pytest.raises(SignMismatch):
            tr.move_end_edge(t, (1, 2), 0)  # attachment -, target +

    def test_not_end_edge(self):
        t = tr.SignedTree.make(
            {0: 1, 1: -1, 2: 1, 3: -1}, [(0, 1), (1, 2), (2, 3)]
        )
        with pytest.raises(NotEndEdge):
            tr.move_end_edge(t, (1, 2), 3)

    @pytest.mark.parametrize("edge", [(0, 2), (1, 1), (1, 7)])
    def test_no_such_edge(self, edge):
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1}, [(0, 1), (1, 2)])
        with pytest.raises(NotATree, match="no edge"):
            tr.move_end_edge(t, edge, 0)

    def test_target_is_end_vertex(self):
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1}, [(0, 1), (1, 2)])
        with pytest.raises(SignMismatch, match="its own end vertex"):
            tr.move_end_edge(t, (1, 2), 2)

    def test_target_is_attachment(self):
        # moving the end edge 1-2 onto 1 would move nothing
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1}, [(0, 1), (1, 2)])
        with pytest.raises(SignMismatch, match="already attached"):
            tr.move_end_edge(t, (1, 2), 1)
        with pytest.raises(SignMismatch, match="already attached"):
            tr.move_end_edge(t, (2, 1), 1)

    def test_replay_checks_each_move_where_it_is_made(self):
        t = tr.SignedTree.make(
            {0: 1, 1: -1, 2: 1, 3: -1, 4: 1},
            [(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        moves = [((3, 4), 1), ((1, 4), 3)]  # 4 onto 1, then back onto 3
        assert tr.move_end_edge(tr.move_end_edge(t, *moves[0]), *moves[1]) == t
        assert tr.replay_moves(t, moves) == t
        assert tr.replay_moves(t, moves[:1]) == tr.move_end_edge(t, *moves[0])
        assert tr.replay_moves(t, []) == t
        with pytest.raises(NotATree, match="no edge"):
            tr.replay_moves(t, [moves[0], moves[0]])  # 3-4 is gone after the first
        with pytest.raises(SignMismatch, match="already attached"):
            tr.replay_moves(t, [moves[0], ((4, 1), 1)])


class TestNormalization:
    def test_one_vertex(self):
        t = tr.SignedTree.make({4: -1}, [])
        assert tr.normalize_to_almost_linear(t) == (t, [])

    def test_already_almost_linear(self):
        t = tr.SignedTree.make({0: 1, 1: -1}, [(0, 1)])
        out, moves = tr.normalize_to_almost_linear(t)
        assert out.is_almost_linear()
        assert moves == []

    def test_binary_tree(self):
        t = tr.SignedTree.make(
            {0: 1, 1: -1, 2: -1, 3: 1, 4: 1, 5: 1, 6: 1},
            [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
        )
        out, moves = tr.normalize_to_almost_linear(t)
        assert out.is_almost_linear()
        assert out.counts() == t.counts()
        cur = t
        for mv in moves:
            cur = tr.move_end_edge(cur, *mv)
        assert cur.edges == out.edges

    def test_fuzz_reaches_broom(self):
        rng = random.Random(99)
        for _ in range(80):
            t = tr.random_signed_tree(rng, 12)
            out, _ = tr.normalize_to_almost_linear(t)
            assert out.is_almost_linear()
            assert out.counts() == t.counts()


class TestNormalizationReference:
    @settings(max_examples=150, deadline=None)
    @given(signed_trees())
    def test_random_trees_match_reference(self, t):
        assert_matches_reference(t)

    def test_catalog_trees_match_reference(self):
        for n in range(1, 16):
            for r in range(-(n - 1), n, 2):
                assert_matches_reference(tr.catalog_tree(-n, r).tree)

    def test_records_replay_through_move_end_edge(self):
        # the catalog path with its ids reversed: a path, but not the broom
        n = 162
        t = tr.catalog_tree(1 - n, 0).tree
        t = tr.SignedTree.make({n - 1 - v: s for v, s in t.signs},
                               [(n - 1 - u, n - 1 - w) for u, w in t.edges])
        out, moves = tr.normalize_to_almost_linear(t)
        assert len(moves) > 100
        cur = t
        for mv in moves:
            cur = tr.move_end_edge(cur, *mv)
        assert cur == out == broom_of(t)

    def test_large_catalog_tree_reaches_broom(self):
        t = tr.catalog_tree(-641, 0).tree
        out, moves = tr.normalize_to_almost_linear(t)
        assert out == tr.canonical_broom([s for _, s in t.signs], t.vertices)
        assert len(moves) == 0


class TestHubsNotAdjacent:
    """Trees whose smallest + and smallest - vertex are not adjacent."""

    def test_path_reaches_broom(self):
        # the hubs 0 and 1 sit at the ends of a path
        t = tr.SignedTree.make({0: 1, 2: -1, 3: 1, 1: -1}, [(0, 2), (2, 3), (3, 1)])
        assert ref_normalize(t) is None
        # the broom is 0-1-3-2: the path already has 1-3 and 3-2
        assert assert_replays_to_broom(t) == [((2, 0), 1)]

    @settings(max_examples=200, deadline=None)
    @given(signed_trees())
    def test_random_trees_reach_broom(self, t):
        assert_replays_to_broom(t)

    def test_small_trees_against_search(self):
        rng = random.Random(12)
        apart = 0
        for _ in range(200):
            t = tr.random_signed_tree(rng, 7)
            ids = t.vertices
            rng.shuffle(ids)  # so that the hubs are often apart
            new_id = dict(zip(t.vertices, ids))
            t = tr.SignedTree.make({new_id[v]: s for v, s in t.signs},
                                   [tuple(new_id[v] for v in e) for e in t.edges])
            apart += not hubs_adjacent(t)
            assert ref_broom_reachable(t) is not None
            assert_replays_to_broom(t)
        assert apart >= 30


def labelled_signed_trees(n):
    """Every tree on vertices 0..n-1 (n >= 2), from its Pruefer sequence,
    once with each sign of vertex 0."""
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = degree.index(1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        edges.append(tuple(v for v in range(n) if degree[v] == 1))
        adj = {v: [] for v in range(n)}
        for u, w in edges:
            adj[u].append(w)
            adj[w].append(u)
        for root_sign in (1, -1):
            signs, todo = {0: root_sign}, [0]
            while todo:
                u = todo.pop()
                for w in adj[u]:
                    if w not in signs:
                        signs[w] = -signs[u]
                        todo.append(w)
            yield tr.SignedTree.make(signs, edges)


class TestDirectWalk:
    """The walk straight to the broom, against the double-star reference and
    the breadth-first optimum."""

    def test_every_small_tree(self):
        trees = brooms = total = ref_total = 0
        for n in range(2, 7):
            for t in labelled_signed_trees(n):
                moves = assert_replays_to_broom(t)
                ref = len(ref_double_star_normalize(t)[1])
                assert len(moves) <= ref
                trees += 1
                brooms += not moves
                total += len(moves)
                ref_total += ref
        # one broom per signing of 0..n-1 that has both signs
        assert (trees, brooms) == (2882, sum(2**n - 2 for n in range(2, 7)))
        assert (total, ref_total) == (8924, 16028)

    def test_tree_without_broom_edge(self):
        # the broom is 0-1-4-2-5-3 with 6 on the hub 3; the tree has none of
        # its path edges, so the end vertex 4 first moves next to 2
        t = tr.SignedTree.make({0: 1, 1: -1, 2: -1, 3: -1, 4: 1, 5: 1, 6: 1},
                               [(3, 4), (0, 3), (0, 2), (3, 6), (1, 5), (1, 6)])
        assert not any(tuple(sorted(e)) in t.edges
                       for e in [(0, 1), (1, 4), (4, 2), (2, 5), (5, 3)])
        moves = assert_replays_to_broom(t)
        assert moves[0] == ((3, 4), 2)
        assert len(moves) <= len(ref_double_star_normalize(t)[1])

    def test_hub_leaves_go_straight_to_the_hub(self):
        # the broom is 2-0-3-1-4-6 with 5 on the hub 6; the walk grows from
        # 1-4, where most edges meet.  Growing left, 0 sheds its hub leaf 5
        # straight onto the placed hub and 2 onto 1, by sign, before moving
        t = tr.SignedTree.make({0: 1, 1: 1, 2: -1, 3: -1, 4: -1, 5: -1, 6: 1},
                               [(0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (4, 6)])
        assert assert_replays_to_broom(t) == [((0, 5), 6), ((0, 2), 1), ((4, 0), 3), ((1, 2), 0)]
        assert ref_broom_reachable(t) == 4

    def test_catalog_trees_get_no_move(self):
        for n in range(1, 16):
            for r in range(-(n - 1), n, 2):
                assert tr.normalize_to_almost_linear(tr.catalog_tree(-n, r).tree)[1] == []
        assert tr.normalize_to_almost_linear(tr.catalog_tree(-641, 0).tree)[1] == []

    def test_sample_against_search(self):
        # 401 moves by the double-star reference, 199 at the optimum
        rng = random.Random(5)
        sample = [tr.random_signed_tree(rng, 7) for _ in range(150)]
        total = optimum = 0
        for t in sample:
            moves = assert_replays_to_broom(t)
            fewest = ref_broom_reachable(t)
            assert fewest <= len(moves)
            total += len(moves)
            optimum += fewest
        assert sum(len(ref_double_star_normalize(t)[1]) for t in sample) == 401
        assert optimum == 199
        assert total <= 401
        assert total == optimum  # on this sample the walk is optimal


class TestNormalizationErrors:
    """Result checks raise typed errors, so they hold under ``python -O``."""

    def test_broom_not_reached(self, monkeypatch):
        t = tr.SignedTree.make(
            {0: 1, 1: -1, 2: 1, 3: -1, 4: -1}, [(0, 1), (1, 2), (2, 3), (2, 4)]
        )
        assert t != broom_of(t)
        monkeypatch.setattr(tr._TreeWork, "walk_to_broom", lambda self, order, leaves: [])
        with pytest.raises(PatternMismatch, match="did not reach the broom"):
            tr.normalize_to_almost_linear(t)

    def test_not_almost_linear(self, monkeypatch):
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1}, [(0, 1), (1, 2)])
        monkeypatch.setattr(tr.SignedTree, "is_almost_linear", lambda self: False)
        with pytest.raises(PatternMismatch, match="almost linear"):
            tr.normalize_to_almost_linear(t)

    def test_catalog_front_invariants(self, monkeypatch):
        monkeypatch.setattr(tr, "invariant_pair", lambda of: (0, 0))
        with pytest.raises(BadInvariants, match="catalog front invariants"):
            tr.catalog_front(-3, 0)

    @pytest.mark.parametrize("signs,ids", [([1], [0]), ([1, 1], [0, 1])])
    def test_broom_needs_both_signs(self, signs, ids):
        with pytest.raises(BadSigning, match="both signs"):
            tr.canonical_broom(signs, ids)

    def test_move_to_missing_vertex(self):
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1}, [(0, 1), (1, 2)])
        with pytest.raises(NotATree, match="no vertex"):
            tr.move_end_edge(t, (1, 2), 7)


class TestCatalog:
    def test_basic(self):
        assert fr.serialize_front(tr.catalog_front(-1, 0)) == "L 1\nR 1"

    def test_examples(self):
        for tb, r in [(-2, 1), (-5, 2), (-3, 0), (-4, -3)]:
            d = tr.catalog_front(tb, r)
            of = fr.OrientedFront.default(d)
            assert fr.invariant_pair(of) == (tb, r)
            assert fr.trace_components(d).n_components == 1

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            tr.catalog_tree(-2, 0)
        with pytest.raises(OutOfRange):
            tr.catalog_front(1, 0)

    def test_catalog_coordinates(self):
        # path vertices get ints, equal to and hashing like the former
        # Fractions, so the embedding and its text are the former ones
        for tb, r in [(-1, 0), (-6, 3), (-9, -4), (-41, 0), (-40, 7)]:
            emb = tr.catalog_tree(tb, r)
            former = tr.AcceptableEmbedding.make(
                emb.tree, {v: (F(x), F(y)) for v, (x, y) in emb.coord_map.items()})
            assert emb == former and hash(emb) == hash(former)
            assert tr.serialize_tree(emb) == tr.serialize_tree(former)
            assert emb.grid == former.grid and emb.children == former.children
            assert all(type(x) is int for x, _ in emb.coord_map.values())

    def test_catalog_tree_is_almost_linear(self):
        for tb, r in [(-1, 0), (-4, 1), (-7, 0), (-9, -4)]:
            emb = tr.catalog_tree(tb, r)
            assert emb.tree.is_almost_linear()
            v = len(emb.tree.vertices)
            plus, minus = emb.tree.counts()
            assert v == 1 - tb and tr.SIGMA * (plus - minus) == r


# ---------------------------------------------------------------------------
# Embeddings born on their grid: catalog_tree and spread_embedding write the
# int columns and the scale directly.  Each must be the embedding that make
# builds from its own coord_map, and from the Fraction coordinates the former
# constructions made, which are rebuilt here.


def former_catalog_coords(tree):
    """catalog_tree's former coordinates: path vertex i at (i, 0), hub leaf j
    at (len(path), Fraction(k - 1 - 2j, 8 (k + 1)))."""
    signs = [s for _, s in tree.signs]
    _, order, leaves = tr._broom(signs, range(len(signs)))
    coords = {v: (i, 0) for i, v in enumerate(order)}
    k = len(leaves)
    for j, v in enumerate(leaves):
        coords[v] = (len(order), F(k - 1 - 2 * j, 8 * (k + 1)))
    return coords


def former_dfs_order(t, root):
    """_dfs_order as it was, with a set of the vertices seen."""
    order, stack, seen = [], [root], set()
    while stack:
        u = stack.pop()
        seen.add(u)
        order.append(u)
        stack.extend(w for w in reversed(t.neighbors(u)) if w not in seen)
    return order


def former_spread_coords(t):
    """spread_embedding's former coordinates: the i-th vertex of the order at
    (Fraction(i), Fraction(i % 3 - 1, 4 n))."""
    order = former_dfs_order(t, min(v for v in t.vertices if t.valence(v) == 1))
    return {v: (F(i), F(i % 3 - 1, 4 * len(order))) for i, v in enumerate(order)}


def former_serialize_tree(tree, coords):
    """serialize_tree as it was, from the coordinates."""
    sm = tree.sign_map
    return "\n".join([f"v {v} {F(coords[v][0])} {F(coords[v][1])} {'+' if sm[v] > 0 else '-'}"
                      for v in tree.vertices] + [f"e {u} {w}" for u, w in tree.edges])


def assert_grid_born(emb, former):
    """``emb`` equals, hashes and reads like make's embedding of its own
    coord_map and of the former coordinates, and survives a pickle round
    trip."""
    text = tr.serialize_tree(emb)
    assert text == former_serialize_tree(emb.tree, former)
    assert math.gcd(emb.scale, *emb.xs, *emb.ys) == 1
    assert emb.scale == math.lcm(*(F(c).denominator for xy in former.values() for c in xy))
    for other in (tr.AcceptableEmbedding.make(emb.tree, emb.coord_map),
                  tr.AcceptableEmbedding.make(emb.tree, former)):
        assert emb == other and hash(emb) == hash(other)
        assert (emb.xs, emb.ys, emb.scale) == (other.xs, other.ys, other.scale)
        assert emb.grid == other.grid and emb.children == other.children
        assert emb.leftmost == other.leftmost == ref_leftmost(other)
        assert emb.coord_map == other.coord_map == former and emb.coords == other.coords
        assert tr.serialize_tree(other) == text
    copied = pickle.loads(pickle.dumps(emb))
    assert copied == emb and hash(copied) == hash(emb)
    assert set(vars(copied)) == {"tree", "xs", "ys", "scale"}
    assert copied.coord_map == emb.coord_map and copied.children == emb.children
    assert tr.serialize_tree(copied) == text


def ladder_rs(t):
    """The least, middle and greatest r of |tb| = t (t odd), and the even r
    nearest +-t/2, whose catalog trees have hub leaves at fractional y."""
    half = t // 2 + (t // 2) % 2
    return [-(t - 1), -half, 0, half, t - 1]


class TestGridBorn:
    def assert_catalog(self, tb, r):
        emb = tr.catalog_tree(tb, r)
        former = former_catalog_coords(emb.tree)
        assert_grid_born(emb, former)
        # every x and each path vertex's y is an int, as it was
        assert all(type(x) is int for x, _ in emb.coord_map.values())
        assert all(type(y) is int for v, (_, y) in emb.coord_map.items()
                   if type(former[v][1]) is int)

    def test_catalog_to_40(self):
        built = 0
        for tb in range(-1, -41, -1):
            for r in range(tb + 1, -tb, 2):
                self.assert_catalog(tb, r)
                built += 1
        assert built == 40 * 41 // 2

    @pytest.mark.parametrize("t", [161, 641])
    def test_catalog_at_ladder_size(self, t):
        for r in ladder_rs(t):
            self.assert_catalog(-t, r)

    def test_spread_embedding(self):
        rng = random.Random(3636)
        for _ in range(300):
            t = tr.random_signed_tree(rng, 40)
            assert tr._dfs_order(t, t.vertices[0]) == former_dfs_order(t, t.vertices[0])
            assert_grid_born(tr.spread_embedding(t), former_spread_coords(t))

    def test_made_embedding_keeps_the_callers_coordinates(self):
        t = tr.SignedTree.make({0: 1, 1: -1, 2: 1}, [(0, 1), (1, 2)])
        coords = {2: (2.5, -0.25), 0: (0, 0), 1: (1.0, F(1, 4))}
        emb = tr.AcceptableEmbedding.make(t, coords)
        assert (emb.xs, emb.ys, emb.scale) == ((0, 4, 10), (0, 1, -1), 4)
        assert dict(emb.coord_map) == coords and type(emb.coord_map[2][0]) is float
        assert emb.coords == ((0, (0, 0)), (1, (1.0, F(1, 4))), (2, (2.5, -0.25)))
        # a copy derives its views from the grid, equal in value
        copied = copy.deepcopy(emb)
        assert copied.coord_map == {0: (0, 0), 1: (1, F(1, 4)), 2: (F(5, 2), F(-1, 4))}
        assert copied.coords == emb.coords and type(copied.coord_map[1][0]) is int


class TestGridConstructorChecks:
    """The dataclass's own constructor takes the grid and runs every check;
    make's embedding of the same coordinates fails the same way."""

    PATH = tr.SignedTree.make({0: 1, 1: -1, 2: 1}, [(0, 1), (1, 2)])

    @pytest.mark.parametrize("xs, ys, scale, condition, message", [
        ((0, 1), (0, 0), 1, 0, "coordinates must cover exactly the vertex set"),
        ((0, 2, 4), (0, 1, 0), 1, 2, "edge 0-1 slope not strictly between +-1/2"),
        ((0, 2, 2), (0, 0, 1), 2, 2, "edge 1-2 slope not strictly between +-1/2"),
        ((0, 8, 0), (0, 0, 1), 8, 3, "vertex 1 has 2 edges on its left"),
        ((1, 0, 2), (0, 0, 0), 1, 4, "left-most vertex 1 is not an end vertex"),
    ], ids=["missing vertex", "slope 1/2", "vertical edge", "two left edges",
            "left-most vertex of valence 2"])
    def test_refusals(self, xs, ys, scale, condition, message):
        with pytest.raises(NotAcceptable) as direct:
            tr.AcceptableEmbedding(self.PATH, xs, ys, scale)
        assert direct.value.condition == condition
        assert str(direct.value) == f"acceptability condition {condition} failed: {message}"
        coords = {v: (F(x, scale), F(y, scale)) for v, x, y in zip(range(3), xs, ys)}
        with pytest.raises(NotAcceptable) as made:
            tr.AcceptableEmbedding.make(self.PATH, coords)
        assert str(made.value) == str(direct.value)

    @pytest.mark.parametrize("xs, ys, scale", [
        ((0, 2, 4), (0, 0, 0), 2),  # not in lowest terms: the grid of (0, 1, 2) / 1
        ((0, 1, 2), (0, 0, 0), 0),
        ((0, -1, -2), (0, 0, 0), -1),
        ((0, 1, 2.0), (0, 0, 0), 1),
        ((0, 1, 2), (0, 0, True), 1),
        ((0, 1, F(2)), (0, 0, 0), 1),
        ([0, 1, 2], (0, 0, 0), 1),
        ((0, 1, 2), (0, 0, 0), 1.0),
    ], ids=["common factor", "zero scale", "negative scale", "float", "bool", "Fraction",
            "list", "float scale"])
    def test_grid_form_refusals(self, xs, ys, scale):
        with pytest.raises(NotAcceptable) as exc:
            tr.AcceptableEmbedding(self.PATH, xs, ys, scale)
        assert exc.value.condition == 0
        assert "grid is not int tuples over a positive scale in lowest terms" in str(exc.value)

    def test_grid_constructor_accepts_the_canonical_grid(self):
        emb = tr.AcceptableEmbedding(self.PATH, (0, 4, 8), (0, 0, 1), 4)
        assert emb == tr.AcceptableEmbedding.make(self.PATH, {0: (0, 0), 1: (1, 0),
                                                              2: (2, F(1, 4))})
        assert emb.leftmost == 0 and emb.children == {0: (1,), 1: (2,), 2: ()}


class TestNormalizeToCatalog:
    def test_single_edge_empty_record(self):
        emb = tr.parse_tree(EDGE)
        front, moves = tr.normalize_front_to_catalog(emb)
        assert fr.serialize_front(front) == "L 1\nR 1"
        assert moves == []

    def test_moves_are_the_tree_moves(self):
        # a broom embedded off the catalog coordinates needs no move
        emb = tr.parse_tree("v 0 0 0 +\nv 1 1 1/8 -\nv 2 2 0 +\ne 0 1\ne 1 2")
        assert emb.coords != tr.catalog_tree(-2, 1).coords
        assert tr.normalize_front_to_catalog(emb)[1] == []
        rng = random.Random(5)
        for _ in range(20):
            emb = tr.random_acceptable_embedding(rng, 12)
            _, moves = tr.normalize_front_to_catalog(emb)
            assert moves == tr.normalize_to_almost_linear(emb.tree)[1]

    def test_confluence_fuzz(self):
        rng = random.Random(314)
        groups = {}
        for _ in range(120):
            emb = tr.random_acceptable_embedding(rng, 12)
            groups.setdefault(tr.expected_invariants(emb.tree), []).append(emb)
        pairs = 0
        for inv, embs in groups.items():
            target = fr.serialize_front(tr.catalog_front(*inv))
            for emb in embs:
                front, _ = tr.normalize_front_to_catalog(emb)
                assert fr.serialize_front(front) == target
                pairs += 1
        assert pairs >= 60


# ---------------------------------------------------------------------------
# Reference: SignedTree's check and adjacency and AcceptableEmbedding's
# children pass as they were while a tree's edges were a frozenset of
# two-element frozensets: five passes over the edges for the tree, and the
# children in a pass of their own after the conditions' pass.


def ref_adjacency(signs, edges):
    adj = {v: [] for v, _ in signs}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    for ws in adj.values():
        ws.sort()
    return {v: tuple(ws) for v, ws in adj.items()}


def ref_check_tree(signs, edges):
    sm = dict(signs)
    verts = set(sm)
    if any(s not in (1, -1) for s in sm.values()):
        raise BadSigning("vertex signs must be +1 or -1")
    for e in edges:
        if len(e) != 2 or not e <= verts:
            raise NotATree(f"bad edge {set(e)}")
    if len(edges) != len(verts) - 1:
        raise NotATree(f"{len(edges)} edges on {len(verts)} vertices is not a tree")
    if verts:
        adj, root = ref_adjacency(signs, edges), min(verts)
        seen, frontier = {root}, [root]
        while frontier:
            for w in adj[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != len(verts):
            raise NotATree("edge set is not connected")
    for u, w in edges:
        if sm[u] == sm[w]:
            raise BadSigning(f"adjacent vertices {u}, {w} share sign")


def ref_children(emb):
    g = emb.grid
    kids = {v: [] for v in g}
    for u, w in fset(emb.tree.edges):
        left, right = (u, w) if g[u][0] < g[w][0] else (w, u)
        kids[left].append(right)
    for v, ws in kids.items():
        if len(ws) > 1:
            x, y = g[v]
            m = math.lcm(*(g[w][0] - x for w in ws))
            ws.sort(key=lambda w: ((y - g[w][1]) * (m // (g[w][0] - x)), w))
    return {v: tuple(ws) for v, ws in kids.items()}


def assert_matches_former_tree(emb):
    """The tree's edges are the former ones as sorted pairs, its neighbors
    the former adjacency, and the embedding's children the former pass's."""
    t = emb.tree
    assert ref_check_tree(t.signs, fset(t.edges)) is None
    assert t.edges == tuple(sorted(tuple(sorted(e)) for e in fset(t.edges)))
    assert all(u < w for u, w in t.edges)
    assert {v: t.neighbors(v) for v in t.vertices} == ref_adjacency(t.signs, fset(t.edges))
    assert emb.children == ref_children(emb)


def tree_outcome(fn, signs, edges):
    try:
        fn(signs, edges)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def assert_raises_like_reference(signs, edges):
    """The error of SignedTree(signs, edges) on sorted int pairs is the
    former check's on their frozensets.  Where edges join equal signs, the
    former check named the first one its frozenset yielded, either way
    round; the tree names the first pair, in order."""
    got = tree_outcome(tr.SignedTree, signs, edges)
    want = tree_outcome(ref_check_tree, signs, fset(edges))
    if want is not None and want[1].startswith("adjacent vertices"):
        sm = dict(signs)
        shared = [(u, w) for u, w in edges if sm[u] == sm[w]]
        named = {f"adjacent vertices {a}, {b} share sign"
                 for u, w in shared for a, b in ((u, w), (w, u))}
        assert want[1] in named
        assert got == (BadSigning, "adjacent vertices {}, {} share sign".format(*shared[0]))
    else:
        assert got == want
    return got


@st.composite
def malformed_trees(draw):
    """(signs, edges) of a random tree with one defect drawn from a few kinds,
    the edges as sorted int pairs."""
    t = draw(signed_trees(max_vertices=12))
    signs, edges = dict(t.signs), list(t.edges)
    defect = draw(st.sampled_from(("one-element", "dropped", "extra", "cycle", "sign")))
    k = draw(st.integers(0, len(edges) - 1))
    u, w = edges.pop(k)
    if defect == "one-element":
        edges.append((u, u))  # a frozenset of one element in the former form
    elif defect == "extra":
        edges += [(u, w), (u, max(signs) + 1)]  # an endpoint that is not a vertex
    elif defect == "cycle":
        # the right count on the same vertices: a chord closes a cycle on one
        # side of the cut edge, and the other side is cut off
        adj = ref_adjacency(t.signs, edges)
        for start in (u, w):
            side, todo = {start}, [start]
            while todo:
                for x in adj[todo.pop()]:
                    if x not in side:
                        side.add(x)
                        todo.append(x)
            chords = [(a, b) for a in sorted(side) for b in sorted(side) if a < b and b not in adj[a]]
            if chords:
                edges.append(draw(st.sampled_from(chords)))
                break
    elif defect == "sign":
        edges.append((u, w))
        v = draw(st.sampled_from(sorted(signs)))
        signs[v] = -signs[v]  # every edge at v joins two equal signs
    return tuple(sorted(signs.items())), tuple(sorted(edges))


SIGNS4 = ((0, 1), (1, -1), (2, 1), (3, -1))
PATH4 = ((0, 1), (1, 2), (2, 3))

# Edges that are not a sorted tuple of distinct int pairs (u, w), u < w, on
# the 4-path, each with what the former check made of their frozenset form:
# None where it read a tree (the bool as vertex 1, the float as vertex 2).
NOT_PAIRS = {
    "frozenset of frozensets": (fset(PATH4), None),
    "list": (list(PATH4), None),
    "reversed pair": (((0, 1), (2, 1), (2, 3)), None),
    "unsorted": (((1, 2), (0, 1), (2, 3)), None),
    "repeated pair": (((0, 1), (1, 2), (1, 2), (2, 3)), None),
    "3-tuple": (((0, 1), (1, 2, 3)), NotATree),
    "1-tuple": (((0, 1), (1,), (2, 3)), NotATree),
    "list pair": (((0, 1), [1, 2], (2, 3)), None),
    "bool vertex": (((0, True), (1, 2), (2, 3)), None),
    "str vertex": (((0, 1), (1, 2), (2, "3")), NotATree),
    "float vertex": (((0, 1), (1, 2.0), (2, 3)), None),
}


class TestSignedTreeAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(signed_trees())
    def test_neighbors_match_reference(self, t):
        want = ref_adjacency(t.signs, fset(t.edges))
        assert {v: t.neighbors(v) for v in t.vertices} == want
        assert t.neighbors(max(t.vertices) + 1) == ()

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 0)], [(0, 1), (1, 2), (2, 1)], [(0, 1), (0, 1)]],
                             ids=["reversed pair", "reversed in a tree", "same pair"])
    def test_repeated_pair_is_not_a_tree(self, edges):
        # a set of edges would keep one copy: a tree, or a miscounted non-tree
        with pytest.raises(NotATree, match="repeated edge"):
            tr.SignedTree.make({0: 1, 1: -1, 2: 1}, edges)

    def test_one_vertex_tree_has_no_embedding(self):
        with pytest.raises(NotAcceptable, match="at least one edge"):
            tr.spread_embedding(tr.SignedTree.make({0: 1}, []))

    @settings(max_examples=300, deadline=None)
    @given(malformed_trees())
    def test_malformed_input_raises_like_reference(self, case):
        assert assert_raises_like_reference(*case) is not None

    @pytest.mark.parametrize(
        "signs, edges, error",
        [
            ({0: 1, 1: -1, 2: 1}, [(0, 1), (2, 2)], NotATree),  # one-element edge
            ({0: 1, 1: -1, 2: 1, 3: -1}, [(0, 1), (1, 2), (0, 2)], NotATree),  # disconnected
            ({0: 1, 1: -1, 2: -1}, [(0, 1), (1, 2)], BadSigning),  # same-sign edge
            ({0: 1, 1: -1, 2: 1}, [(0, 1)], NotATree),  # wrong edge count
            ({0: 1, 1: -1, 2: 1, 3: 1}, [(0, 2), (2, 3), (0, 3)], NotATree),  # both: count first
            ({0: 1, 1: 1, 2: -1, 3: 1}, [(0, 1), (2, 3), (0, 2)], BadSigning),
            ({0: 1, 1: -1}, [(0, 5)], NotATree),  # an endpoint that is not a vertex
            ({0: 1, 1: 2}, [(0, 1)], BadSigning),  # a sign that is not +-1
            ({0: 1, 1: -1, 2: 1, 3: -1}, [(0, 1), (0, 3), (2, 3)], None),
        ],
    )
    def test_each_defect_raises_like_reference(self, signs, edges, error):
        got = assert_raises_like_reference(tuple(sorted(signs.items())), tuple(sorted(edges)))
        assert (got and got[0]) is error

    @pytest.mark.parametrize("edges, former", NOT_PAIRS.values(), ids=NOT_PAIRS.keys())
    def test_direct_construction_refuses_what_is_not_sorted_int_pairs(self, edges, former):
        with pytest.raises(NotATree) as exc:
            tr.SignedTree(SIGNS4, edges)
        assert type(exc.value) is NotATree
        if edges == NOT_PAIRS["repeated pair"][0]:
            assert str(exc.value) == "repeated edge 1-2"
        got = tree_outcome(ref_check_tree, SIGNS4, fset(edges))
        assert (got and got[0]) is former

    @pytest.mark.parametrize("edges", [3, None, [5, (0, 1)], [(0, 1, 2)], [(0,), (1, 2)],
                                       [(0, "1"), (1, 2)], [(0, 1), ("1", "2")]],
                             ids=["int", "None", "int edge", "3-tuple", "1-tuple", "str end",
                                  "str edge"])
    def test_make_refuses_what_is_not_int_pairs(self, edges):
        with pytest.raises(NotATree) as exc:
            tr.SignedTree.make({0: 1, 1: -1, 2: 1}, edges)
        assert type(exc.value) is NotATree

    def test_a_repeat_in_make_and_in_direct_construction(self):
        with pytest.raises(NotATree) as made:
            tr.SignedTree.make(dict(SIGNS4), [(0, 1), (2, 1), (1, 2), (2, 3)])
        assert str(made.value) == "repeated edge 1-2"
        with pytest.raises(NotATree, match="repeated edge 1-2"):
            tr.SignedTree(SIGNS4, NOT_PAIRS["repeated pair"][0])

    def test_malformed_pairs_are_checked_before_signs(self):
        # make finds a repeat first, as it did before it sorted pairs
        with pytest.raises(NotATree, match="repeated edge 0-1"):
            tr.SignedTree.make({0: 1, 1: 0}, [(0, 1), (1, 0)])
        with pytest.raises(BadSigning):
            tr.SignedTree(((0, 1), (1, 0)), ((0, 1),))


class TestPairsAgainstFormer:
    """Trees, neighbors and children against the former frozenset code."""

    def test_catalog_grid(self):
        built = 0
        for tb in range(-1, -14, -1):
            for r in range(tb + 1, -tb):
                if fr.in_unknot_range(tb, r):
                    assert_matches_former_tree(tr.catalog_tree(tb, r))
                    built += 1
        assert built == 13 * 14 // 2

    @pytest.mark.parametrize("r", [0, 300, -300, 600, -600, 640, -640])
    def test_catalog_at_ladder_size(self, r):
        emb = tr.catalog_tree(-641, r)
        assert_matches_former_tree(emb)
        assert emb.tree == tr.SignedTree.make(dict(emb.tree.signs), fset(emb.tree.edges))

    def test_random_embeddings(self):
        rng = random.Random(2929)
        for _ in range(3000):
            assert_matches_former_tree(tr.random_acceptable_embedding(rng, 40))

    @pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy,
                                           copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_copies_rebuild_neighbors_and_children(self, roundtrip):
        emb = tr.random_acceptable_embedding(random.Random(29), 30)
        t = emb.tree
        kids, adj = dict(emb.children), {v: t.neighbors(v) for v in t.vertices}
        t2, emb2 = roundtrip(t), roundtrip(emb)
        assert t2 == t and "_adjacency" not in vars(t2)
        assert {v: t2.neighbors(v) for v in t.vertices} == adj
        assert emb2 == emb and "children" not in vars(emb2)
        assert emb2.children == kids == ref_children(emb2)


# ---------------------------------------------------------------------------
# The shared pair index, freeze and walk (_index, _pairs, _reach) against the
# seven loops they replaced, kept here as references: SignedTree's
# connectivity walk, _TreeWork's index and freeze, walk_to_broom's parent
# map, the foliation working copy's index, freeze and same-sign walk
# (_Work.index, _Work.freeze, _Work._joined) and to_elliptic_form's table
# of each point's partners in the pool.


def former_connected(adj, root):
    """SignedTree.__post_init__: the points a walk from root reaches."""
    seen, frontier = {root}, [root]
    while frontier:
        for w in adj[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def former_tree_work_index(vertices, neighbors):
    """_TreeWork.__init__: each vertex to the set of its neighbors."""
    return {v: set(neighbors(v)) for v in vertices}


def former_tree_work_freeze(adj):
    """_TreeWork.freeze, less the tree it builds."""
    edges = sorted((u, w) for u, ws in adj.items() for w in ws if u < w)
    return tuple(edges)


def former_parent(adj, root):
    """walk_to_broom: each vertex's neighbor towards root, breadth first."""
    parent = {root: root}
    queue = [root]
    for u in queue:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def former_work_index(pairs):
    """_Work.index(): each endpoint to the set of its partners."""
    adj = defaultdict(set)
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def former_work_freeze(adj):
    """The indexed branch of _Work.freeze, less the state it builds."""
    return tuple(sorted((u, v) for u, vs in adj.items() for v in vs if u < v))


def former_joined(adj, sing, u, v, sign):
    """_Work._joined: whether a path of sign-``sign`` pairs joins u to v."""
    stack, seen = [u], {u}
    while stack:
        x = stack.pop()
        if x == v:
            return True
        for w in adj.get(x, ()):
            if w not in seen and sing[w][1] == sign:
                seen.add(w)
                stack.append(w)
    return False


def former_partners(pairs, free):
    """to_elliptic_form: each point's partners in ``free``, in pair order."""
    partners = defaultdict(list)
    for u, v in pairs:
        if v in free:
            partners[u].append(v)
        if u in free:
            partners[v].append(u)
    return partners


@st.composite
def pair_graphs(draw):
    """Points 0..n-1, some on no pair, a list of pairs among them with
    repeated pairs, cycles and self-loops, a sign per point and a root."""
    n = draw(st.integers(1, 12))
    point = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(point, point), max_size=3 * n))
    signs = draw(st.lists(st.sampled_from("+-"), min_size=n, max_size=n))
    return n, pairs, signs, draw(point)


@settings(max_examples=300, deadline=None)
@given(pair_graphs())
def test_pair_index_freeze_and_walk_match_the_loops_they_replaced(graph):
    n, pairs, signs, root = graph
    index, former = tr._index(pairs), former_work_index(pairs)
    # the same sets, filled in the same order, so they iterate alike
    assert index == former and all(list(index[v]) == list(former[v]) for v in former)
    def neighbors(v):
        return [w if u == v else u for u, w in pairs if v in (u, w)]

    assert index == {v: ws for v, ws in former_tree_work_index(range(n), neighbors).items() if ws}
    assert tr._pairs(index) == former_work_freeze(index) == former_tree_work_freeze(index)
    assert tr._pairs(index) == tuple(sorted({(min(e), max(e)) for e in pairs if e[0] != e[1]}))
    adj = {v: index.get(v, set()) for v in range(n)}
    parent = tr._reach(root, adj)
    assert list(parent.items()) == list(former_parent(adj, root).items())
    assert parent.keys() == former_connected(adj, root)
    # the same-sign walk, as a mapping and through the working copy that reads it
    sing = {v: "e" + s for v, s in enumerate(signs)}
    same = {v: [w for w in adj[v] if signs[w] == signs[v]] for v in range(n)}
    work = fo._Work(fo.FoliationState(-1, 0, (), tuple(sorted(sing.items())), tuple(pairs)))
    work.index()
    for v in range(n):
        joined = former_joined(index, sing, root, v, signs[root])
        assert (v in tr._reach(root, same)) == work._joined(root, v) == joined
    free = set(range(0, n, 2))
    partners = tr._index(e for e in pairs if e[0] in free or e[1] in free)
    table = former_partners(pairs, free)
    assert all({m for m in partners[v] if m in free} == set(table[v]) for v in range(n))


# ---------------------------------------------------------------------------
# Former: SignedTree's check as it was while it built the adjacency of every
# tree and walked it once with _reach for connectivity, and the valence that
# read the adjacency.  The check is now one union-find pass and valence an
# end count, and neither builds the adjacency.


def former_check(signs, edges):
    """SignedTree.__post_init__ with its adjacency-plus-_reach connectivity check."""
    sm = dict(signs)
    us, ws = tr._ends(edges)
    if not set(sm.values()) <= {1, -1}:
        raise BadSigning("vertex signs must be +1 or -1")
    if not (all(map(lambda u, w: u < w, us, ws)) and sm.keys() >= {*us, *ws}):
        raise NotATree("bad edge {}".format(
            next(set(e) for e in edges if e[0] == e[1] or not sm.keys() >= set(e))))
    if len(edges) != len(sm) - 1:
        raise NotATree(f"{len(edges)} edges on {len(sm)} vertices is not a tree")
    if len(tr._reach(signs[0][0], ref_adjacency(signs, edges))) != len(sm):
        raise NotATree("edge set is not connected")
    if any(sm[u] == sm[w] for u, w in edges):
        u, w = next(e for e in edges if sm[e[0]] == sm[e[1]])
        raise BadSigning(f"adjacent vertices {u}, {w} share sign")


def two_colouring(ids, edges):
    """Signs that alternate along every edge of a forest, each component's
    least id +1; a cycle of odd length keeps what its walk gave first."""
    adj = tr._index(edges)
    signs = {}
    for root in ids:
        if root not in signs:
            signs[root] = 1
            for v in tr._reach(root, adj):
                for w in adj[v]:
                    signs.setdefault(w, -signs[v])
    return signs


@st.composite
def pair_lists(draw):
    """1-40 points with distinct ids, and a sorted list of distinct pairs
    (u, w), u < w, among them: mostly V - 1 of them, so the connectivity
    check is reached, and cycles, forests and isolated points are all
    drawn; the signs are random or alternate along the pairs."""
    ids = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=40)))
    n = len(ids)
    every = [(u, w) for k, u in enumerate(ids) for w in ids[k + 1:]]
    size = draw(st.sampled_from([n - 1] * 3 + [max(0, n - 2), n]))
    size = min(size, len(every))
    edges = tuple(sorted(draw(st.lists(st.sampled_from(every), min_size=size, max_size=size,
                                       unique=True)) if every else []))
    if draw(st.booleans()):
        signs = two_colouring(ids, edges)
    else:
        signs = {v: draw(st.sampled_from((1, -1))) for v in ids}
    return tuple(sorted(signs.items())), edges


@settings(max_examples=300, deadline=None)
@given(pair_lists())
def test_tree_check_accepts_and_rejects_as_the_former_one(case):
    signs, edges = case
    want = tree_outcome(former_check, signs, edges)
    assert tree_outcome(tr.SignedTree, signs, edges) == want
    if want is None:
        t = tr.SignedTree(signs, edges)
        assert "_adjacency" not in vars(t)
        assert {v: t.valence(v) for v in t.vertices} == {
            v: len(ws) for v, ws in ref_adjacency(signs, edges).items()}
        assert "_adjacency" not in vars(t)
        assert all(t.valence(v) == len(t.neighbors(v)) for v in t.vertices)
        assert dict(t._adjacency) == ref_adjacency(signs, edges)


@pytest.mark.parametrize("n, edges, message", [
    (5, ((0, 1), (0, 3), (1, 2), (2, 3)), "edge set is not connected"),  # a square, a point
    (6, ((0, 1), (0, 2), (1, 2), (3, 4), (4, 5)), "edge set is not connected"),  # triangle, path
    # two disjoint paths have one edge too few: the count names them first
    (6, ((0, 1), (1, 2), (3, 4), (4, 5)), "4 edges on 6 vertices is not a tree"),
])
def test_disconnected_edge_sets_are_refused_as_before(n, edges, message):
    signs = tuple((v, 1 - 2 * (v % 2)) for v in range(n))
    assert tree_outcome(tr.SignedTree, signs, edges) == (NotATree, message)
    assert tree_outcome(former_check, signs, edges) == (NotATree, message)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 60))
def test_valence_is_the_number_of_neighbors(seed, size):
    emb = tr.random_acceptable_embedding(random.Random(seed), size)
    t = tr.SignedTree(emb.tree.signs, emb.tree.edges)
    assert [t.valence(v) for v in t.vertices] == [
        len(ws) for ws in ref_adjacency(t.signs, t.edges).values()]
    assert all(t.valence(v) == len(t.neighbors(v)) for v in t.vertices)
    assert t.valence(max(t.vertices) + 1) == 0 == len(t.neighbors(max(t.vertices) + 1))


def test_valence_costs_o1_once_counted(monkeypatch):
    """valence reads one end count per tree: is_almost_linear on the 642-vertex
    broom reads it for every vertex and counts the ends once."""
    t = tr.catalog_tree(-641, 0).tree
    counted = []
    counter = tr.Counter

    def counting(*args):
        counted.append(args)
        return counter(*args)

    monkeypatch.setattr(tr, "Counter", counting)
    fresh = tr.SignedTree(t.signs, t.edges)
    assert fresh.is_almost_linear() and tr.spread_embedding(fresh).tree is fresh
    assert len(counted) == 1


def test_built_and_embedded_trees_have_no_adjacency():
    emb = tr.catalog_tree(-641, 0)
    assert "_adjacency" not in vars(emb.tree)
    _, skeleton = fo.run_pipeline(-641, 0)
    assert "_adjacency" not in vars(skeleton.tree)
    # reading neighbors builds it
    assert emb.tree.neighbors(0) == ref_adjacency(emb.tree.signs, emb.tree.edges)[0]
    assert "_adjacency" in vars(emb.tree)
