"""Signed acceptable tree embeddings and tree-based wavefronts.

A signed tree alternates vertex signs along edges.  An acceptable planar
embedding has at least one edge, straight edges of slope strictly between
-1/2 and 1/2, at most one edge attached on the left of any vertex, and an
end vertex as its left-most vertex.  Such an embedding determines a closed
front (the tree-based wavefront) built by an anchor step at the left-most
vertex and an induction over right-attached edges, reflecting each right
subtree in the horizontal axis as it is entered.

In the event model the induction portions are:

    n = 0   a capping right cusp
    n = 1   a two-cusp zig-zag whose sense matches the vertex sign
    n >= 2  a branching portion: the first branch opens with a loft cusp
            plus a compensating zig-zag, later branches with bare lofts
            (easy chirality uses stacked crotch cusps plus one zig-zag)

Reflection is tracked as a parity flag: a reflected subtree emits the
vertically mirrored event templates and flips the roles of the strand
pair it acts on.  A visit of vertex v, whose incoming edge's strand pair
sits at positions (p, p+1) with parity phi = +-1, emits a fixed template
in s = sign(v) * phi, written as signed int keys: the event L q is the key
q and R q is -q (positions are at least 1).  The reflected column is the
one for phi < 0:

    portion                  keys                      reflected
    leaf                     -p                        -p
    one child, s > 0         p, -(p+1)                 p+2, -(p+1)
    one child, s < 0         p+1, -p                   p+1, -(p+2)
    crotch, n >= 2, s < 0    p+1, p+3, ..., p+2n-3,    p+1 (n-1 times),
                             p+1, -p                   p+2n-1, -(p+2n)
    lofts, n >= 2, s > 0     a loft p+2 before         a loft p before
                             each inner child, the     each inner child, the
                             first one followed by     first one followed by
                             p, -(p+1)                 p+4, -(p+3)

A single child is visited at p with phi.  A crotch's child i (numbered
from the top) is visited at p + 2(n-1-i) with phi.  Of the lofts'
children, the inner ones (all but the last) are visited at p+1 with -phi,
and the last one at p with phi.  The resulting front always has

    tb = -(V - 1),      r = SIGMA * (V_plus - V_minus)

which expected_invariants returns in closed form; the construction is
validated against it exhaustively in the test suite.

Trees and embeddings are checked once, when built.  A tree's edges are a
sorted tuple of distinct int pairs (u, w) with u < w, checked in bulk
passes over their two columns, so each vertex's neighbors come out in
order without a sort.  An embedding stores its exact integer grid: int
columns in vertex order over one scale, the lcm of the coordinates'
reduced denominators.  Every slope, left-edge, left-most and child-order
test is an exact int comparison on it, and ``coords`` and ``coord_map``
are views that make ints or ``Fraction``s only when read.  ``make``
derives the grid from rational coordinates; the catalog and
spread_embedding write theirs directly, through the same checked
constructor.  One pass over the edges checks each slope and the left edges
and collects each vertex's right ends, its children in the front; the
left-most vertex is the one that is no edge's right end.  Normalization
copies its tree once into a mutable adjacency, grows the canonical broom's
path on it from an edge the tree already has, moving each vertex at most
twice, and builds one tree at the end.

Graphs of pairs, here and in ``foliation``, have one index, one freeze and
one walk: ``_index`` maps each end of some pairs to the set of its
partners, ``_pairs`` freezes such an index back to the sorted tuple of its
pairs (u, w) with u < w, and ``_reach`` maps each point reachable from a
root to its neighbor towards the root, breadth first.  The
normalization's working copy and its frozen tree and the broom walk's
parent map use them.  Three loops stay their own, each for its order: the
ordered neighbor table (increasing tuples without a sort, which sets cannot
give), ``_dfs_order`` (its preorder is spread_embedding's x order) and
walk_to_broom's branch list (its order is the move order).

A tree's check walks no graph: its V - 1 edges are connected exactly when
they close no cycle, which one union-find pass over the sorted edges finds,
and a valence is read from one count of the edge ends.  So the neighbor
table is built only where neighbors are read (normalization, ``_dfs_order``
and is_almost_linear), and a tree that is only built, embedded and turned
into a front has none.
"""

from __future__ import annotations

import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from operator import eq, le, lt
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
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
from .fronts import (
    CROSS,
    INT_TOKEN,
    LEFT,
    RIGHT,
    FrontDiagram,
    FrontEvent,
    OrientedFront,
    fields_state,
    in_unknot_range,
    invariant_pair,
)

# Global sign convention: r = SIGMA * (V_plus - V_minus) under the default
# front orientation.  Pinned by measurement on the 3-path (+,-,+) and frozen;
# a regression test guards it.
SIGMA = 1
# a coordinate in the tree format: what str() writes for an int, a Fraction or
# a float; Fraction() alone also takes "+1", "1_0", non-ASCII digits and
# exponents of any length ("1e-99999999" would build 10**99999999)
RATIONAL_TOKEN = re.compile(r"-?[0-9]+(?:/[0-9]+|(?:\.[0-9]+)?(?:[eE][-+]?[0-9]{1,3})?)")
VERTEX_TOKENS = (INT_TOKEN, RATIONAL_TOKEN, RATIONAL_TOKEN)  # id, x, y


@dataclass(frozen=True)
class SignedTree:
    """Abstract tree with alternating vertex signs, checked when built.

    ``signs`` is a tuple of (vertex, sign) pairs, each vertex once and in
    increasing order, each sign +1 or -1; ``edges`` is a sorted tuple of
    distinct int pairs (u, w) with u < w.  ``make`` sorts the signs, each
    edge's ends and the edges.
    """

    signs: tuple[tuple[int, int], ...]  # sorted (vertex, sign) pairs
    edges: tuple[tuple[int, int], ...]  # sorted (u, w) pairs, u < w

    @staticmethod
    def make(signs: dict[int, int], edges: Iterable[tuple[int, int]]) -> "SignedTree":
        try:
            pairs = tuple(sorted((u, w) if u < w else (w, u) for u, w in edges))
        except (TypeError, ValueError):  # an edge that is not a pair, or ends that do not compare
            raise NotATree("each edge must be a pair of int vertex ids") from None
        return SignedTree(tuple(sorted(signs.items())), pairs)

    __getstate__ = fields_state  # the cached views are rebuilt on use

    @cached_property
    def sign_map(self) -> Mapping[int, int]:
        return MappingProxyType(dict(self.signs))

    @property
    def vertices(self) -> list[int]:
        return [v for v, _ in self.signs]

    @cached_property
    def _adjacency(self) -> Mapping[int, tuple[int, ...]]:
        """Neighbors of each vertex in increasing order: a vertex's pairs (u, v)
        come before its pairs (v, w), each run in order, as the edges are sorted.
        Not ``_index``: its sets would need a sort per vertex for this order.

        Built only when ``neighbors`` is first read (by normalization,
        ``_dfs_order`` and ``is_almost_linear``): the check and ``valence``
        do without it, so a tree that is only built and embedded has none.
        """
        adj: dict[int, list[int]] = {v: [] for v, _ in self.signs}
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        return MappingProxyType({v: tuple(ws) for v, ws in adj.items()})

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in increasing order."""
        return self._adjacency.get(v, ())

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The u and the w column of the edges (``_ends``)."""
        return _ends(self.edges)

    @cached_property
    def _valences(self) -> Counter:
        """Each vertex's number of edge ends; a vertex on no edge is missing."""
        return Counter(chain(*self._columns))

    def valence(self, v: int) -> int:
        return self._valences[v]

    def __post_init__(self):
        sm, edges = self.sign_map, self.edges
        us, ws = self._columns
        if not set(sm.values()) <= {1, -1}:
            raise BadSigning("vertex signs must be +1 or -1")
        if not (all(map(lt, us, ws)) and sm.keys() >= {*us, *ws}):
            raise NotATree("bad edge {}".format(
                next(set(e) for e in edges if e[0] == e[1] or not sm.keys() >= set(e))))
        if len(edges) != len(sm) - 1:
            raise NotATree(f"{len(edges)} edges on {len(sm)} vertices is not a tree")
        # V - 1 edges are connected exactly when they close no cycle: one
        # union-find pass, halving each path it climbs
        up: dict[int, int] = {}  # a vertex to its parent; a root has none
        for u, w in zip(us, ws):
            while u in up:
                up[u] = u = up.get(up[u], up[u])
            while w in up:
                up[w] = w = up.get(up[w], up[w])
            if u == w:
                raise NotATree("edge set is not connected")
            up[u] = w
        # the vertices are now edge ends, so ints: one C-level sort of the
        # sorted keys refuses a repeated (a shorter map) or unsorted vertex
        if len(sm) != len(self.signs) or sorted(sm) != [*sm]:
            raise BadSigning("signs must list each vertex once, in increasing order")
        if any(map(eq, map(sm.__getitem__, us), map(sm.__getitem__, ws))):
            u, w = next(e for e in edges if sm[e[0]] == sm[e[1]])
            raise BadSigning(f"adjacent vertices {u}, {w} share sign")
        # a bool vertex equals its int, so no check above sees it: one
        # C-level type pass over the keys refuses it
        if {*map(type, sm)} != {int}:
            raise BadSigning(f"vertex {next(v for v in sm if type(v) is not int)!r} is not an int")

    def counts(self) -> tuple[int, int]:
        """(V_plus, V_minus)."""
        vals = [s for _, s in self.signs]
        return vals.count(1), vals.count(-1)

    def is_almost_linear(self) -> bool:
        """At most one vertex of valence > 2, with at most one non-end edge there."""
        big = [v for v in self.vertices if self.valence(v) > 2]
        return not big or len(big) == 1 and sum(
            self.valence(w) > 1 for w in self.neighbors(big[0])) <= 1


def _ends(edges) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The u and the w column of a sorted tuple of distinct int pairs (u, w)
    with u <= w (u == w is a bad edge, named later); NotATree otherwise."""
    if type(edges) is not tuple:
        raise NotATree(f"edges must be a sorted tuple of int pairs, not a {type(edges).__name__}")
    if set(map(type, edges)) <= {tuple} and set(map(len, edges)) <= {2}:
        us, ws = tuple(zip(*edges)) or ((), ())
        if (set(map(type, us + ws)) <= {int} and all(map(le, us, ws))
                and all(map(lt, edges, edges[1:]))):
            return us, ws
    k, e = next((k, e) for k, e in enumerate(edges) if not (
        type(e) is tuple and len(e) == 2 and set(map(type, e)) == {int} and e[0] <= e[1]
        and (k == 0 or edges[k - 1] < e)))
    raise NotATree(f"repeated edge {e[0]}-{e[1]}" if k and edges[k - 1] == e else
                   f"edge {k}, {e!r}, is not an int pair (u, w), u < w, in sorted order")


def _index(pairs: Iterable[tuple]) -> defaultdict:
    """Each end of ``pairs`` to the set of its partners, added in pair order."""
    index = defaultdict(set)
    for u, w in pairs:
        index[u].add(w)
        index[w].add(u)
    return index


def _pairs(index: Mapping) -> tuple[tuple, ...]:
    """An index frozen back to the sorted tuple of its pairs (u, w), u < w."""
    return tuple(sorted((u, w) for u, ws in index.items() for w in ws if u < w))


def _reach(root, neighbors: Mapping) -> dict:
    """Each point reachable from ``root`` to its neighbor towards ``root``
    (``root`` to itself), breadth first; ``neighbors[x]`` is read once for
    each point x reached, so it needs no key for a point not reached."""
    parent, queue = {root: root}, [root]
    for u in queue:
        for w in neighbors[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


@dataclass(frozen=True)
class AcceptableEmbedding:
    """A signed tree with planar coordinates meeting the four conditions;
    the edge slopes lie strictly between -1/2 and 1/2.

    Stored on its exact integer grid: ``tree.vertices[i]`` sits at
    ``(xs[i], ys[i]) / scale``, with ``scale`` the lcm of the coordinates'
    reduced denominators, so equal coordinates give equal fields.
    """

    tree: SignedTree
    xs: tuple[int, ...]  # grid columns in vertex order
    ys: tuple[int, ...]
    scale: int

    @staticmethod
    def make(tree: SignedTree,
             coords: Mapping[int, tuple[Fraction, Fraction]]) -> "AcceptableEmbedding":
        """The embedding at rational ``coords``, which it keeps as ``coord_map``;
        its grid is each coordinate times the lcm of all their denominators.
        NotAcceptable(0) for a coordinate that is not rational."""
        if coords.keys() != tree.sign_map.keys():
            raise NotAcceptable(0, "coordinates must cover exactly the vertex set")
        cs = [c for x, y in map(coords.__getitem__, tree.vertices) for c in (x, y)]
        if not set(map(type, cs)) <= {int, Fraction}:
            cs = list(map(_rational, cs))
        # an int is its own numerator over 1, so only the Fractions set the scale
        scale = lcm(*{c.denominator for c in cs if type(c) is not int})
        g = [c * scale if type(c) is int else c.numerator * (scale // c.denominator) for c in cs]
        emb = AcceptableEmbedding(tree, tuple(g[::2]), tuple(g[1::2]), scale)
        emb.__dict__["coord_map"] = MappingProxyType(dict(coords))
        return emb

    __getstate__ = fields_state  # the cached views are rebuilt on use

    @cached_property
    def coord_map(self) -> Mapping[int, tuple[Fraction, Fraction]]:
        """Each vertex's (x, y): an int where the scale divides, else a Fraction."""
        s = self.scale
        exact = lambda c: c // s if c % s == 0 else Fraction(c, s)  # noqa: E731
        return MappingProxyType({v: (exact(x), exact(y)) for v, (x, y) in self.grid.items()})

    coords = property(lambda self: tuple(sorted(self.coord_map.items())), doc="coord_map's items")

    @cached_property
    def grid(self) -> Mapping[int, tuple[int, int]]:
        """Each vertex's (x, y) times ``scale``."""
        return MappingProxyType(dict(zip(self.tree.vertices, zip(self.xs, self.ys))))

    def __post_init__(self):
        xs, ys, s = self.xs, self.ys, self.scale
        if not (type(xs) is type(ys) is tuple and set(map(type, (*xs, *ys, s))) == {int}
                and s > 0 and gcd(s, *xs, *ys) == 1):
            raise NotAcceptable(0, "grid is not int tuples over a positive scale in lowest terms")
        if not len(xs) == len(ys) == len(self.tree.signs):
            raise NotAcceptable(0, "coordinates must cover exactly the vertex set")
        if not self.tree.edges:
            raise NotAcceptable(1, "embedding needs at least one edge")
        # children's pass checks conditions 2 and 3 before leftmost reads it
        if len(self.children[self.leftmost]) != 1:
            raise NotAcceptable(4, f"left-most vertex {self.leftmost} is not an end vertex")

    @cached_property
    def leftmost(self) -> int:
        """The one vertex that is no edge's right end.

        Once conditions 2 and 3 hold, the V - 1 edges have V - 1 distinct
        right ends, and each edge's right end has a larger x than its left
        end.  So every vertex but one has a neighbor of smaller x, and that
        one is the unique vertex of least x.  Its id is the sum of all the
        ids less the sum of the right ends, which ``children`` lists.
        """
        return sum(self.tree.vertices) - sum(chain.from_iterable(self.children.values()))

    @cached_property
    def children(self) -> Mapping[int, tuple[int, ...]]:
        """Each vertex's right ends from the top (steepest slope first): its
        children in the front, where its one left neighbor is its parent.

        The one pass over the edges that finds them checks each slope
        (condition 2) and that no vertex has two left edges (condition 3).
        """
        vs, X, Y = self.tree.vertices, self.xs, self.ys
        if vs != [*range(len(vs))]:  # else a vertex id is its index in the columns
            X, Y = dict(zip(vs, X)), dict(zip(vs, Y))
        kids: dict[int, list[int]] = {v: [] for v in vs}
        for u, w in self.tree.edges:
            dx, dy = X[w] - X[u], Y[w] - Y[u]
            if abs(dy) * 2 >= abs(dx):  # so is an edge with dx = 0
                raise NotAcceptable(2, f"edge {u}-{w} slope not strictly between +-1/2")
            if dx < 0:
                u, w = w, u
            kids[u].append(w)
        if len(set(chain.from_iterable(kids.values()))) != len(self.tree.edges):
            crowded, n = min((v, n) for v, n in Counter(chain(*kids.values())).items() if n > 1)
            raise NotAcceptable(3, f"vertex {crowded} has {n} edges on its left")
        for v, ws in kids.items():
            if len(ws) > 1:
                # slope times the lcm m of the fork's dx: an exact int key
                x, y = X[v], Y[v]
                m = lcm(*(X[w] - x for w in ws))
                ws.sort(key=lambda w: ((y - Y[w]) * (m // (X[w] - x)), w))
        return MappingProxyType({v: tuple(ws) for v, ws in kids.items()})


def _rational(c) -> Fraction:
    """The exact value of a coordinate that is neither an int nor a Fraction;
    NotAcceptable(0) for a bool, a string or what is not a rational number."""
    if not isinstance(c, (bool, str)):
        try:
            return Fraction(c)
        except (TypeError, ValueError, OverflowError):
            pass
    raise NotAcceptable(0, f"{c!r} is not a rational number")


# ---------------------------------------------------------------------------
# Front construction


def build_front(emb: AcceptableEmbedding) -> FrontDiagram:
    """Construct the tree-based wavefront of an acceptable signed embedding.

    Each vertex is expanded once, into the keys of its template (see the
    module docstring; ``L p`` is the int ``p`` and ``R p`` is ``-p``) and the
    visits of its right children, pushed in reverse front order; a work
    stack replays them, so a child's events come before whatever follows its
    visit.  Deep trees need no recursion.  Each distinct key becomes one
    event at the end, shared by all its occurrences.
    """
    signs, children = emb.tree.sign_map, emb.children
    keys: list[int] = [1]
    # a loft key to emit, or a (v, p, phi) visit: the strand pair of the
    # edge into v sits at positions (p, p+1), reflected if phi < 0
    work: list = [(children[emb.leftmost][0], 1, 1)]
    while work:
        item = work.pop()
        if type(item) is int:
            keys.append(item)
            continue
        v, p, phi = item
        kids = children[v]
        n = len(kids)
        if n == 0:
            keys.append(-p)
        elif n == 1:
            if signs[v] * phi > 0:  # downward zig-zag
                keys += (p, -p - 1) if phi > 0 else (p + 2, -p - 1)
            else:  # upward zig-zag
                keys += (p + 1, -p) if phi > 0 else (p + 1, -p - 2)
            work.append((kids[0], p, phi))
        elif signs[v] * phi < 0:
            # stacked crotch cusps plus one compensating zig-zag
            if phi > 0:
                keys += range(p + 1, p + 2 * n - 2, 2)
                keys += (p + 1, -p)
            else:
                keys += [p + 1] * (n - 1)
                keys += (p + 2 * n - 1, -p - 2 * n)
            # child i at p + 2(n - 1 - i), either way up: the last one at p
            work += zip(reversed(kids), range(p, p + 2 * n, 2), repeat(phi))
        else:
            # nested lofts; the first branch carries the compensating zig-zag
            loft = p + 2 if phi > 0 else p
            keys.append(loft)  # then a downward zig-zag on the outer strand
            keys += (p, -p - 1) if phi > 0 else (p + 4, -p - 3)
            work.append((kids[-1], p, phi))
            for c in kids[-2:0:-1]:  # each inner branch after the first opens with a loft
                work += ((c, p + 1, -phi), loft)
            work.append((kids[0], p + 1, -phi))
    made = {k: FrontEvent(LEFT, k) if k > 0 else FrontEvent(RIGHT, -k) for k in set(keys)}
    return FrontDiagram(tuple(map(made.__getitem__, keys)))


def expected_invariants(t: SignedTree) -> tuple[int, int]:
    """Closed-form invariants of the tree-based front: (-(V-1), SIGMA*(V+ - V-))."""
    plus, minus = t.counts()
    return -(plus + minus - 1), SIGMA * (plus - minus)


# ---------------------------------------------------------------------------
# Tree moves and normalization


Move = tuple[tuple[int, int], int]  # ((attach, leaf), target) of an end-edge move


class _TreeWork:
    """Mutable copy of a SignedTree that end-edge moves are applied to in place.

    Each move costs O(1); only the tree frozen at the end is built and checked.
    """

    def __init__(self, t: SignedTree):
        self.tree = t
        self.adj = _index(t.edges)

    def freeze(self) -> SignedTree:
        return SignedTree(self.tree.signs, _pairs(self.adj))

    def end_of(self, edge: tuple[int, int]) -> tuple[int, int]:
        """(attachment, end vertex) of an end edge; either on a single-edge tree."""
        u, w = edge if type(edge) in (tuple, list) and len(edge) == 2 else (None, None)
        if {type(u), type(w)} != {int} or w not in self.adj.get(u, ()):  # ends are int ids
            raise NotATree(f"no edge {edge}")
        if len(self.adj[u]) > 1 and len(self.adj[w]) > 1:
            raise NotEndEdge(f"edge {u}-{w} has no end vertex")
        return (u, w) if len(self.adj[w]) == 1 else (w, u)

    def move(self, edge: tuple[int, int], target: int) -> None:
        """Re-attach an end edge to another vertex of the same sign."""
        attach, leaf = self.end_of(edge)
        sm = self.tree.sign_map
        if target == leaf:
            raise SignMismatch("cannot attach an end edge to its own end vertex")
        if target == attach:
            raise SignMismatch(f"end edge {attach}-{leaf} is already attached to {target}")
        if type(target) is not int or target not in sm:  # an unhashable target is none
            raise NotATree(f"no vertex {target}")
        if sm[target] != sm[attach]:
            raise SignMismatch(
                f"target {target} has sign {sm[target]:+d}, attachment requires {sm[attach]:+d}"
            )
        self.adj[attach].discard(leaf)
        self.adj[leaf].discard(attach)
        self.adj[target].add(leaf)
        self.adj[leaf].add(target)

    def walk_to_broom(self, order: Sequence[int], leaves: Sequence[int]) -> list[Move]:
        """Move end edges until this copy is the broom of path ``order`` and hub leaves ``leaves``.

        The built path starts from a broom-path edge the tree already has (the
        one whose ends have the most edges), or one a single move makes, and
        grows outward from both ends, towards the hub first.  A next
        path vertex x not adjacent to the end of the path first sheds the
        branch beyond it, leaves first, onto the end or its path neighbor by
        sign (onto the hub once it is placed, for hub leaves); then x moves
        onto the end.  Built vertices never move, so no vertex moves more
        than twice.  Returns the moves.  The branch beyond x is listed by its
        own breadth-first loop, not ``_reach``: it must not walk back through
        x's parent, and its order is the order the moves are made and printed.
        """
        sm, adj = self.tree.sign_map, self.adj
        seeds = [i for i in range(len(order) - 1) if order[i + 1] in adj[order[i]]]
        if seeds:
            # where most edges meet; the one nearer the hub on a tie
            lo = max(seeds, key=lambda i: (len(adj[order[i]]) + len(adj[order[i + 1]]), i))
        else:
            # an end vertex, moved next below: some majority path vertex is one,
            # or the q of them would span 2q edges among the 2q path vertices
            lo = next(i for i in range(0, len(order), 2) if len(adj[order[i]]) == 1)
        hi, last, hub = lo + 1, len(order) - 1, order[-1]
        parent = _reach(order[hi], adj)  # each vertex's neighbor towards the built path
        moves: list[Move] = []

        def shift(v: int, target: int) -> None:
            self.move((parent[v], v), target)
            moves.append(((parent[v], v), target))
            parent[v] = target

        if not seeds:
            shift(order[lo], order[hi])
        hub_leaves = set(leaves)
        while lo > 0 or hi < last:
            right = hi < last  # towards the hub first
            x, end, near = (order[hi + 1], order[hi], order[hi - 1]) if right else (
                order[lo - 1], order[lo], order[lo + 1])
            if x not in adj[end]:
                branch = [x]
                for v in branch:
                    branch.extend(w for w in adj[v] if w != parent[v])
                for v in reversed(branch[1:]):
                    if v in hub_leaves and hi == last:
                        shift(v, hub)
                    else:
                        shift(v, end if sm[end] == sm[parent[v]] else near)
                shift(x, end)
            lo, hi = (lo, hi + 1) if right else (lo - 1, hi)
        for v in leaves:
            if hub not in adj[v]:
                shift(v, hub)
        return moves


def replay_moves(t: SignedTree, moves: Iterable[Move]) -> SignedTree:
    """Apply end-edge moves in order to one working copy of t and build one tree.

    Each move is checked against the tree the moves before it left, as
    move_end_edge checks it; only the final tree is built and checked.
    """
    work = _TreeWork(t)
    for move in moves:  # a move that is no (edge, target) pair fails as an edge, named
        edge, target = move if type(move) in (tuple, list) and len(move) == 2 else (move, None)
        work.move(edge, target)
    return work.freeze()


def move_end_edge(t: SignedTree, edge: tuple[int, int], target: int) -> SignedTree:
    """Re-attach an end edge to another vertex of the same sign."""
    return replay_moves(t, [(edge, target)])


def _broom(signs: Sequence[int], ids: Sequence) -> tuple[tuple[tuple, ...], list, list]:
    """The canonical broom's sorted (u, w) edges with u < w, its path order
    (hub last) and its hub leaves; no tree."""
    plus = sorted(v for v, s in zip(ids, signs) if s == 1)
    minus = sorted(v for v, s in zip(ids, signs) if s == -1)
    maj, mino = (plus, minus) if len(plus) >= len(minus) else (minus, plus)
    if not mino:
        raise BadSigning(
            f"a broom needs vertices of both signs, got {len(plus)} '+' and {len(minus)} '-'"
        )
    q = len(mino)
    order = [x for pair in zip(maj[:q], mino) for x in pair]
    leaves = maj[q:]
    edges = chain(zip(order, order[1:]), zip(repeat(order[-1]), leaves))
    return tuple(sorted((u, w) if u < w else (w, u) for u, w in edges)), order, leaves


def canonical_broom(signs: Sequence[int], ids: Sequence[int]) -> SignedTree:
    """The canonical almost-linear tree on a given sign multiset.

    A broom: an alternating path ending in a hub at the right, with all
    excess majority-sign vertices hanging off the hub as leaves.  For a
    balanced multiset it is the plain alternating path starting with +.
    A multiset without both signs has no broom (BadSigning).
    """
    return SignedTree.make(dict(zip(ids, signs)), _broom(signs, ids)[0])


def normalize_to_almost_linear(t: SignedTree) -> tuple[SignedTree, list[Move]]:
    """Reduce a signed tree to the canonical broom by legal end-edge moves.

    One walk on a working copy builds the broom's path outward from an edge
    the tree already has (``_TreeWork.walk_to_broom``), so an edge already
    where the broom wants it is never moved and the broom itself gets no
    move.  The moves replay as ``replay_moves(t, moves)``, and each one as
    ``move_end_edge(t, *move)``.
    """
    if len(t.vertices) <= 1:
        return t, []
    edges, order, leaves = _broom([s for _, s in t.signs], t.vertices)
    work = _TreeWork(t)
    moves = work.walk_to_broom(order, leaves)
    out = work.freeze()
    if out.edges != edges:
        raise PatternMismatch("normalization did not reach the broom")
    if not out.is_almost_linear():
        raise PatternMismatch("normalized tree is not almost linear")
    return out, moves


# ---------------------------------------------------------------------------
# Catalog


def catalog_tree(tb: int, r: int) -> AcceptableEmbedding:
    """Canonical acceptable embedding realizing (tb, r); OutOfRange otherwise."""
    if not in_unknot_range(tb, r):
        raise OutOfRange(f"(tb, r) = ({tb}, {r}) is not realized by an unknot")
    v_total = 1 - tb
    n_plus = (v_total + SIGMA * r) // 2
    signs = [1] * n_plus + [-1] * (v_total - n_plus)
    edges, order, leaves = _broom(signs, range(v_total))
    # path vertex i at (i, 0); the hub's leaves hang off it at the right end,
    # numbered from the top: leaf j at (len(order), (k - 1 - 2j) / d)
    k = len(leaves)
    nums, d = range(k - 1, -k, -2), 8 * (k + 1)
    s = d // gcd(d, *nums)  # the least common denominator
    xs, ys = [0] * v_total, [0] * v_total
    for i, v in enumerate(order):
        xs[v] = i * s
    for v, n in zip(leaves, nums):
        xs[v], ys[v] = len(order) * s, n * s // d
    return AcceptableEmbedding(SignedTree(tuple(enumerate(signs)), edges), tuple(xs), tuple(ys), s)


def _checked_front(emb: AcceptableEmbedding, inv: tuple[int, int]) -> FrontDiagram:
    d = build_front(emb)
    got = invariant_pair(OrientedFront.default(d))
    if got != inv:
        raise BadInvariants(f"catalog front invariants {got} != {inv}")
    return d


def catalog_front(tb: int, r: int) -> FrontDiagram:
    """Canonical front with invariants exactly (tb, r)."""
    return _checked_front(catalog_tree(tb, r), (tb, r))


def normalize_front_to_catalog(emb: AcceptableEmbedding) -> tuple[FrontDiagram, list[Move]]:
    """Normalize a tree-based front to the catalog front of its invariants.

    Also returns the end-edge moves that reduce the tree to the canonical
    broom; re-embedding the broom canonically corresponds to zig-zag
    displacements on the front.
    """
    inv = expected_invariants(emb.tree)
    _, moves = normalize_to_almost_linear(emb.tree)
    return _checked_front(catalog_tree(*inv), inv), moves


# ---------------------------------------------------------------------------
# Text format (.sat)


def parse_tree(text: str) -> AcceptableEmbedding:
    """Parse the line-oriented tree format: v/e lines, # comments."""
    signs: dict[int, int] = {}
    coords: dict[int, tuple[Fraction, Fraction]] = {}
    edges: set[tuple[int, int]] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            vertex = parts[0] == "v" and len(parts) == 5 and parts[4] in ("+", "-")
            if vertex and all(map(re.fullmatch, VERTEX_TOKENS, parts[1:4])):
                vid = int(parts[1])
                if vid in signs:
                    raise ParseError(f"duplicate vertex {vid}", line=ln)
                coords[vid] = (Fraction(parts[2]), Fraction(parts[3]))
                signs[vid] = 1 if parts[4] == "+" else -1
            elif parts[0] == "e" and len(parts) == 3 and all(map(INT_TOKEN.fullmatch, parts[1:])):
                edge = tuple(sorted((int(parts[1]), int(parts[2]))))
                if edge in edges:  # a set of edges would hide the repeat
                    raise ParseError(f"repeated edge {parts[1]}-{parts[2]}", line=ln)
                edges.add(edge)
            else:
                raise ValueError
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"malformed tree line {raw!r}", line=ln) from None
    if not signs:
        raise ParseError("tree file has no vertices")
    tree = SignedTree.make(signs, edges)
    return AcceptableEmbedding.make(tree, coords)


def serialize_tree(emb: AcceptableEmbedding) -> str:
    s = emb.scale  # each coordinate written from the grid as its exact value
    lines = [f"v {v} {Fraction(x, s)} {Fraction(y, s)} {'+' if sign > 0 else '-'}"
             for (v, sign), x, y in zip(emb.tree.signs, emb.xs, emb.ys)]
    lines += [f"e {u} {w}" for u, w in emb.tree.edges]
    return "\n".join(lines)


def spread_embedding(t: SignedTree) -> AcceptableEmbedding:
    """Deterministic acceptable embedding: DFS order on x, small y jitter.

    The root (left-most vertex) is the smallest-id end vertex.
    """
    # a one-vertex tree has no end vertex; the embedding check rejects it
    order = _dfs_order(t, min((v for v, k in t._valences.items() if k == 1), default=t.vertices[0]))
    # vertex i of the order at (i, (i % 3 - 1) / s) on the grid of scale s
    s, at = 4 * len(order), {v: i for i, v in enumerate(order)}
    return AcceptableEmbedding(t, tuple(at[v] * s for v in t.vertices),
                               tuple(at[v] % 3 - 1 for v in t.vertices), s)


def _dfs_order(t: SignedTree, root: int) -> list[int]:
    """Depth-first preorder from root, smaller neighbor ids first; in a tree
    each vertex is pushed once, by its parent, so no set of the vertices
    seen is needed.  Not ``_reach``, which is breadth first: this preorder
    is spread_embedding's x order, so its outputs depend on it."""
    order, stack = [], [(root, None)]
    while stack:
        u, parent = stack.pop()
        order.append(u)
        stack += ((w, u) for w in reversed(t.neighbors(u)) if w != parent)
    return order


# ---------------------------------------------------------------------------
# Fuzzing support


def random_signed_tree(rng: random.Random, max_vertices: int = 14) -> SignedTree:
    n = rng.randint(2, max_vertices)
    signs = {0: rng.choice((1, -1))}
    parents = {v: rng.randrange(1, v) if v > 1 else 0 for v in range(1, n)}
    for v in range(1, n):  # each parent has a smaller id, so its sign is set
        signs[v] = -signs[parents[v]]
    return SignedTree.make(signs, [(parents[v], v) for v in range(1, n)])


def random_acceptable_embedding(rng: random.Random, max_vertices: int = 14) -> AcceptableEmbedding:
    """Random signed tree embedded with the root as the left-most end vertex."""
    t = random_signed_tree(rng, max_vertices)
    n = len(t.vertices)
    # vertex 0 hangs off vertex 1 only, so it is an end vertex
    x_of = {v: i for i, v in enumerate(_dfs_order(t, 0))}
    coords = {v: (x_of[v], Fraction(rng.randrange(-n, n + 1), 4 * n * n)) for v in t.vertices}
    return AcceptableEmbedding.make(t, coords)
