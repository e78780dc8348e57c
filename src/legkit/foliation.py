"""Combinatorial rewrite engine for disk characteristic foliations.

A FoliationState is the combinatorial shadow of the characteristic
foliation on a disk spanning a Legendrian unknot with invariants (tb, r):
a cyclic boundary sequence of singularities, an interior multiset, and
separatrix / arc-family edges.  Leaves other than separatrices are
implicit.  The standardization pipeline is

    init (alternating boundary) -> NAF -> reduced -> elliptic form

with the interior count identity, valid whenever the boundary is in NAF:

    e+ - h+ = (1 - tb + r) / 2,     e- - h- = (1 + tb - r) / 2

Rewrites carry explicit count deltas.  Interior eliminations change the
per-sign counts by (-1, -1), conversions and pair creations by (+1, +1),
so the identity differences are preserved.  The reduced -> elliptic step
absorbs each interior negative hyperbolic into a boundary negative
elliptic (flipping it to hyperbolic); that absorption is the one rewrite
that changes the negative-side difference, which is why the identity is
stated for NAF boundaries only.  The pairing comes from the separatrices:
init_boundary joins each interior negative hyperbolic to one boundary
negative elliptic, and to_elliptic_form absorbs along such a separatrix
wherever one is left.

A state stores only the foliation: tb, r, the boundary cycle, each
singularity once under its id, the separatrices and the rewrite trace.  A
singularity is its tag, one of "e+", "h+", "e-", "h-" (kind, then sign);
whether it lies on the boundary is whether its id is in the boundary
cycle.  A separatrix (and a connection) is a pair of ids (u, v) with
u < v, and a state holds them as a sorted tuple; a logged rewrite is a
RewriteStep tuple.  So a state holds strings and tuples of strings only,
which the garbage collector stops tracking.  A state derives everything
else once, when first asked: the id map, the per-locus tag counts,
boundary alternation, the NAF verdict (positive boundary points
hyperbolic, negative ones elliptic), the connections and their skeleton
tree; counts(), identity_differences(), the is_* checks and
extract_skeleton read them.  A builder that holds one of these views
already hands it over when it makes the state, so no first read rebuilds
it: init_boundary's state starts with its boundary-tag column
(``_btags``), and a working copy that only absorbed hands its id map, still
in id order, to its frozen state (``sing_map``).  Every other view is
derived on first read.  The tag counts are always recounted from the id
map, never carried over from the logged deltas, so they check the trace.
Both the to_elliptic_form and extract_skeleton tests for connections read
the broom's rank pairs; the id pairs (``connections``) are built only
when read, by dump_state for one.  Every boundary fact reads one column, the
boundary points' tags in cycle order (``_btags``), the only per-point
lookup: alternation is one comparison of its sign characters with
"+-" * k or "-+" * k, the NAF verdict one set inclusion and the boundary
tally one count, to_naf's todo list (empty when the verdict holds) and
to_elliptic_form's pool are one filter of it.
The connections (the arc families between elliptic points) exist only in
elliptic form with a reduced interior whose elliptic points can be the
skeleton's vertices (1 - tb of them, signed to give r), where they are
the canonical broom on those points; any other state has none, and so no
skeleton.
The connections and the skeleton come from one cached broom on the ranks
of the sorted elliptic ids: ranks keep the order of the ids, so its sorted
rank pairs are the skeleton tree's edges as they are and name the sorted
connections.  A skeleton is the ``NamedTuple`` ``(tree, ids)``: that signed
tree and the elliptic id of each of its vertices.
Each stage (to_naf, reduce_interior, to_elliptic_form) scans its input
once, copies it once into a private working copy, applies all its
rewrites to it in place and freezes the result once; a stage with nothing
to do returns its input after an O(1) check of the cached facts.  The
copy indexes the separatrices only when a rewrite first walks or tests
them, with the pair index ``trees`` shares (``_index``), and freezes that
index with the shared freeze (``_pairs``); a copy that never indexed
(to_elliptic_form's absorbs, which read each hyperbolic's boundary
partners from a table that lists each point's partners in the pool and
no other) freezes by filtering the input's sorted tuples: its surviving
pairs are the input's own objects and nothing is sorted.  init_boundary
builds its start state directly, as two sorted tuples and no working
copy, from one column of boundary tags whose kinds it checks in one pass.
to_elliptic_form returns its state with the skeleton tree, built and
checked once; no region decomposition is built.  The atomic
rewrites (eliminate, convert, create_pair, rewire) check their arguments
once and are the same code applied to a one-rewrite copy; eliminate
cancels interior points only.
Tightness (no same-sign separatrix cycle) is checked per added same-sign
separatrix, by the shared walk (``_reach``) over one endpoint's same-sign
tree, and needs no walk when an endpoint has no separatrix yet.
init_boundary checks its separatrices in one pass instead: each same-sign
one has an end on no other, so they are stars, which form a forest.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, cycle
from operator import add
from types import MappingProxyType
from typing import NamedTuple, Optional

from .errors import (
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
from .fronts import fields_state, in_unknot_range
from .trees import (SIGMA, AcceptableEmbedding, SignedTree, _broom, _index, _pairs, _reach,
                    spread_embedding)

ELLIPTIC = "e"
HYPERBOLIC = "h"
BOUNDARY = "boundary"
INTERIOR = "interior"
_KINDS = (ELLIPTIC, HYPERBOLIC)  # a tuple: an unhashable kind is refused, not a TypeError
# A singularity's tag: its kind, then its sign; tag[1] is "+" or "-".
_TAGS = ("e+", "h+", "e-", "h-")
_NAF = frozenset(("h+", "e-"))  # the tags a NAF boundary has: + hyperbolic, - elliptic
_FLIP = {"e+": "h+", "h+": "e+", "e-": "h-", "h-": "e-"}  # a conversion's kind flip


class RewriteStep(NamedTuple):
    """One logged rewrite with its count delta (over all loci, per sign/kind)."""

    rule: str
    operands: tuple
    delta: tuple[tuple[str, int], ...]  # e.g. (("e+", 1), ("h+", 1))

    def describe(self) -> str:
        d = " ".join(f"{k}{v:+d}" for k, v in self.delta) or "no count change"
        ops = ",".join(str(o) for o in self.operands)
        return f"{self.rule}({ops}): {d}"


@dataclass(frozen=True)
class FoliationState:
    tb: int
    r: int
    boundary: tuple[str, ...]  # ids in cyclic order
    sing: tuple[tuple[str, str], ...]  # sorted (id, tag)
    separatrices: tuple[tuple[str, str], ...]  # sorted (u, v), u < v
    trace: tuple[RewriteStep, ...] = field(default=(), compare=False)

    __getstate__ = fields_state  # the cached views are rebuilt on use

    @cached_property
    def sing_map(self) -> Mapping[str, str]:
        """Read-only id -> tag view, built once per state."""
        return MappingProxyType(dict(self.sing))

    @cached_property
    def _on_boundary(self) -> frozenset[str]:
        return frozenset(self.boundary)

    @cached_property
    def _btags(self) -> tuple[str, ...]:
        """The boundary points' tags in cycle order: every boundary fact's one
        lookup per point."""
        return tuple(map(self.sing_map.__getitem__, self.boundary))

    @cached_property
    def _tallies(self) -> dict[Optional[str], dict[str, int]]:
        """Tag counts per locus and over all loci (key None)."""
        total = Counter(self.sing_map.values())
        bnd = Counter(self._btags)
        return {None: {t: total[t] for t in _TAGS}, BOUNDARY: {t: bnd[t] for t in _TAGS},
                INTERIOR: {t: total[t] - bnd[t] for t in _TAGS}}

    @cached_property
    def _rank_broom(self) -> tuple[tuple[str, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
        """The sorted elliptic ids, their signs and the canonical broom's
        sorted pairs on their ranks; all empty where there are no
        connections.  Ranks keep the order of the ids, so the pairs name
        sorted id pairs."""
        if not (self.is_elliptic_form() and self.is_reduced()):
            return (), (), ()
        ids, signs = tuple(zip(*[(i, 1 if t == "e+" else -1)
                                 for i, t in self.sing if t[0] == ELLIPTIC])) or ((), ())
        if (len(ids), SIGMA * sum(signs)) != (1 - self.tb, self.r):
            return (), (), ()
        return ids, signs, _broom(signs, range(len(ids)))[0]

    @cached_property
    def connections(self) -> tuple[tuple[str, str], ...]:
        """Elliptic-elliptic arc families: the broom on the elliptic points.

        Only a state in elliptic form whose interior is all positive
        elliptic has them, and only if its elliptic points can be the
        skeleton's vertices: 1 - tb of them, with SIGMA * (plus - minus) = r.
        Any other state has none.
        """
        ids, _, pairs = self._rank_broom
        return tuple((ids[u], ids[w]) for u, w in pairs)

    @cached_property
    def _skeleton(self) -> SkeletonTree:
        """The broom as a signed tree on the ranks, checked when built."""
        ids, signs, pairs = self._rank_broom
        return SkeletonTree(SignedTree(tuple(enumerate(signs)), pairs), ids)

    @cached_property
    def _alternates(self) -> bool:
        signs = "".join(self._btags)[1::2]  # each tag's second character
        half = len(signs) // 2  # an odd cycle cannot alternate, nor match
        return signs == "+-" * half or signs == "-+" * half

    @cached_property
    def _naf(self) -> bool:
        return _NAF.issuperset(self._btags) and self._alternates

    def counts(self, locus: Optional[str] = None) -> dict[str, int]:
        """Tag counts over all loci (None), on the BOUNDARY or in the INTERIOR."""
        if locus not in (None, BOUNDARY, INTERIOR):
            raise BadLocator(f"locus {locus!r} is not None, {BOUNDARY!r} or {INTERIOR!r}")
        return dict(self._tallies[locus])

    def identity_differences(self, locus: Optional[str] = None) -> tuple[int, int]:
        c = self.counts(locus)
        return c["e+"] - c["h+"], c["e-"] - c["h-"]

    def is_naf(self) -> bool:
        return self._naf

    def is_reduced(self) -> bool:
        c = self._tallies[INTERIOR]
        return c["h+"] == 0 and c["e-"] == 0

    def is_elliptic_form(self) -> bool:
        c = self._tallies[INTERIOR]
        return c["h+"] == 0 and c["h-"] == 0 and self._alternates


# The count deltas the rewrites log; per-sign ones keyed by the sign character.
_ELIMINATE_DELTA = {"+": (("e+", -1), ("h+", -1)), "-": (("e-", -1), ("h-", -1))}
_PAIR_DELTA = {"+": (("e+", 1), ("h+", 1)), "-": (("e-", 1), ("h-", 1))}  # convert, create_pair
_ABSORB_DELTA = (("e-", -1),)


def interior_count_targets(tb: int, r: int) -> tuple[int, int]:
    """Reduced-form interior counts (e+, h-) = ((1-tb+r)/2, (-1-tb+r)/2)."""
    return (1 - tb + r) // 2, (-1 - tb + r) // 2


# ---------------------------------------------------------------------------
# State construction


def init_boundary(tb: int, r: int,
                  boundary_kinds: Optional[Sequence[str]] = None) -> FoliationState:
    """Boundary of 2|tb| alternating singularities plus a compensating interior.

    Default kinds are already NAF (positive hyperbolic, negative elliptic)
    and the interior is the reduced-form minimum.  Custom boundary kinds
    model the pre-standardization disk; the interior is then seeded so that
    to_naf followed by reduce_interior lands on the exact reduced counts.
    """
    if not in_unknot_range(tb, r):  # which refuses a bool, a float and tb >= 0
        raise BadInvariants(f"tight pipeline needs (tb, r) in range, got ({tb!r}, {r!r})")
    n = -tb
    e_target, h_target = interior_count_targets(tb, r)

    if boundary_kinds is None:
        boundary_kinds = (HYPERBOLIC, ELLIPTIC) * n
    elif not isinstance(boundary_kinds, Sequence):
        raise BadInvariants(f"boundary_kinds must be a sequence, got {boundary_kinds!r}")
    elif len(boundary_kinds) != 2 * n:
        raise BadInvariants(f"boundary_kinds must list {2 * n} kinds, got {len(boundary_kinds)}")
    elif not all(map(_KINDS.__contains__, boundary_kinds)):
        raise BadInvariants(f"bad kind {next(k for k in boundary_kinds if k not in _KINDS)!r}")
    boundary = [f"b{i}" for i in range(2 * n)]  # signs alternate from b0 = +
    tags = list(map(add, boundary_kinds, cycle("+-")))
    sing = dict(zip(boundary, tags))
    # the pending NAF conversions: positive elliptics, negative hyperbolics;
    # each makes two points of its tag, so the seed is the targets less those
    # (a range of a negative length is empty)
    plus, minus = tags[0::2].count("e+"), tags[1::2].count("h-")
    spine = [f"p{j}" for j in range(e_target)]  # e_target >= 1 in range
    hubs_h = [f"q{j}" for j in range(h_target)]
    sing.update(dict.fromkeys(spine[: max(0, e_target - 2 * plus)], "e+"))
    sing.update(dict.fromkeys(hubs_h[: max(0, h_target - 2 * minus)], "h-"))
    sing.update((f"x{j}", "h+") for j in range(2 * plus - e_target))
    sing.update((f"y{j}", "e-") for j in range(2 * minus - h_target))

    # Separatrices: reduced Legendrian tree (spine alternating with interior
    # negative hyperbolics) plus boundary attachments.  Each is a distinct
    # pair with its lesser id first (b < p < q).
    edges = [(p, q) for j, q in enumerate(hubs_h) for p in spine[j : j + 2]]
    edges += zip(boundary[::2], cycle(spine))
    # Each interior negative hyperbolic shares a separatrix with the boundary
    # negative elliptic that to_elliptic_form absorbs it into.
    edges += zip(reversed(boundary[1::2]), hubs_h)
    separatrices = tuple(sorted(e for e in edges if e[0] in sing and e[1] in sing))
    _check_stars(sing, separatrices)
    return _with(FoliationState(tb, r, tuple(boundary), tuple(sorted(sing.items())), separatrices),
                 _btags=tuple(tags))


def _with(state: FoliationState, **facts) -> FoliationState:
    """``state`` holding, as its cached views, the facts its builder has in
    hand, so that no first read rebuilds them."""
    vars(state).update(facts)
    return state


def _check_stars(sing: Mapping[str, str], separatrices: Sequence[tuple[str, str]]) -> None:
    """Tightness in one pass: each same-sign separatrix needs an end that
    lies on no other same-sign separatrix.  Such separatrices are stars,
    which form a forest; every point of a same-sign cycle (a self-loop
    included) lies on two.  Not a walk (``_reach``) per component: one
    C-level count of the ends is the cheaper check for a start state."""
    same = [e for e in separatrices if sing[e[0]][1] == sing[e[1]][1]]
    on_two = {x for x, k in Counter(chain.from_iterable(same)).items() if k > 1}
    for u, v in filter(on_two.issuperset, same):
        raise TightnessViolation(f"same-sign separatrix {u}-{v} has no free end")


# ---------------------------------------------------------------------------
# Working copy


class _Work:
    """Mutable copy of a FoliationState that rewrites are applied to in place.

    A stage copies its input once, applies all its rewrites here and
    freezes once, so each rewrite costs O(degree) rather than O(n); a stage
    whose input's cached facts show nothing to do makes no copy.  The copy's
    id map starts as a copy of the input's ``sing_map`` (one C-level dict
    copy, in id order), not a rebuild from its pairs.  ``adj``
    is the copy's one separatrix index, a set of neighbours per endpoint
    (``trees._index``), so removing a point touches only its own edges.
    index() builds it when a rewrite first walks or tests it (a link, an
    eliminate, a rewire); until then it is None, and a point dropped before
    then only leaves the id map.  freeze() writes it back with
    ``trees._pairs``.  A copy that never built it (to_elliptic_form's
    absorbs) freezes by filtering its input's sorted tuples, so the
    surviving pairs are the input's own objects and nothing is sorted; its
    id map has only lost points and changed tags in place, so it is still
    in id order, and the frozen state takes it as its ``sing_map``.
    Tightness is checked per added same-sign separatrix: a tight state's
    same-sign separatrices form a forest, so an added edge closes a cycle
    exactly when its endpoints already share a same-sign tree, which an
    endpoint without separatrices cannot.  ``_joined`` finds that tree with
    ``trees._reach``, reading the copy itself as the mapping: ``copy[x]``
    is x's partners of x's own sign.  A rewrite stores tags and logs a
    RewriteStep tuple.
    """

    def __init__(self, state: FoliationState):
        self.state = state
        self.sing = state.sing_map.copy()  # the id-ordered dict, copied at C speed
        self.trace: list[RewriteStep] = []
        self.next_id: dict[str, int] = {}
        self.adj: Optional[defaultdict[str, set[str]]] = None  # see index()

    def _kept(self) -> list[tuple[str, str]]:
        """The input's separatrices whose ends are both still here."""
        sing = self.sing
        return [e for e in self.state.separatrices if e[0] in sing and e[1] in sing]

    def index(self) -> defaultdict[str, set[str]]:
        """``adj``, built on the first call.  It is a plain attribute, not a
        cached property: an instance attribute that a class descriptor
        shadows is slower to read, and the rewrites read it often."""
        if self.adj is None:
            self.adj = _index(self._kept())
        return self.adj

    def freeze(self) -> FoliationState:
        """The copy as a state, which starts with the id map (``sing_map``)
        if this copy never indexed; any other view it derives on first read,
        its tag counts recounted.  The copy is spent: it drops its id map, so
        no later rewrite of it can change the state's."""
        facts = {}
        if self.adj is not None:
            sing, separatrices = tuple(sorted(self.sing.items())), _pairs(self.adj)
        else:
            # a rewrite that adds a point links it, so these are the input's
            # points less the dropped ones, some with a new tag, and the dict
            # is still in id order: the state takes it as its sing_map
            get = self.sing.get
            sing = tuple(p if t == p[1] else (p[0], t)
                         for p in self.state.sing if (t := get(p[0])) is not None)
            separatrices, facts["sing_map"] = tuple(self._kept()), MappingProxyType(self.sing)
        self.sing = None  # so no later rewrite of this copy reaches the state's map
        return _with(replace(self.state, sing=sing, separatrices=separatrices,
                             trace=self.state.trace + tuple(self.trace)), **facts)

    def fresh_id(self, prefix: str) -> str:
        # The probe resumes where the last one stopped.  That is the lowest
        # free id because no stage or atomic rewrite frees an id before it
        # creates one.
        k = self.next_id.get(prefix, 0)
        while f"{prefix}{k}" in self.sing:
            k += 1
        self.next_id[prefix] = k + 1
        return f"{prefix}{k}"

    def link(self, u: str, v: str) -> None:
        adj = self.index()
        if v in adj[u]:
            return
        # an endpoint without separatrices shares no tree with the other one;
        # a self-loop is a cycle all the same
        if (self.sing[v][1] == self.sing[u][1] and (u == v or adj[u] and adj.get(v))
                and self._joined(u, v)):
            raise TightnessViolation(f"same-sign separatrix cycle through {u}")
        adj[u].add(v)
        adj[v].add(u)

    def __getitem__(self, x: str) -> list[str]:
        """x's separatrix partners of x's own sign, read by ``_joined``'s walk."""
        return [w for w in self.adj.get(x, ()) if self.sing[w][1] == self.sing[x][1]]

    def _joined(self, u: str, v: str) -> bool:
        """Whether a path of separatrices of u's sign joins u to v: the walk
        from u over this copy's partners of the same sign (``__getitem__``)
        stays in u's same-sign tree."""
        return v in _reach(u, self)

    def drop(self, x: str) -> None:
        """Remove singularity x with every separatrix at it."""
        del self.sing[x]
        if self.adj is not None:  # no index yet: index() leaves x out
            for w in self.adj.pop(x, ()):
                self.adj[w].remove(x)

    def eliminate(self, e_id: str, h_id: str) -> None:
        e, h = self.sing[e_id], self.sing[h_id]
        if e_id in self.state._on_boundary or h_id in self.state._on_boundary:
            # the boundary cycle keeps its points: tb fixes their number
            raise PatternMismatch(f"eliminate needs interior points, got {e_id}, {h_id}")
        if e[0] != ELLIPTIC or h[0] != HYPERBOLIC:
            raise SignMismatch(f"eliminate needs (elliptic, hyperbolic), got ({e[0]}, {h[0]})")
        if e[1] != h[1]:
            raise SignMismatch("eliminate needs a same-sign pair")
        if h_id not in self.index()[e_id]:
            raise NotConnected(f"{e_id} and {h_id} share no separatrix")
        self.drop(e_id)
        self.drop(h_id)
        self.trace.append(RewriteStep("eliminate", (e_id, h_id), _ELIMINATE_DELTA[e[1]]))

    def convert(self, p_id: str, gamma, tau) -> None:
        p = self.sing[p_id]
        self.sing[p_id] = _FLIP[p]
        prefix = "c" if p[0] == ELLIPTIC else "d"
        for _ in range(2):
            ident = self.fresh_id(prefix)
            self.sing[ident] = p
            self.link(ident, p_id)
        self.trace.append(RewriteStep("convert", (p_id, gamma, tau), _PAIR_DELTA[p[1]]))

    def create_pair(self, leaf, sign: int) -> None:
        s = "+" if sign > 0 else "-"
        e_id, h_id = self.fresh_id("ce"), self.fresh_id("ch")
        self.sing[e_id] = ELLIPTIC + s
        self.sing[h_id] = HYPERBOLIC + s
        self.link(e_id, h_id)
        self.trace.append(RewriteStep("create_pair", (leaf, sign), _PAIR_DELTA[s]))

    def rewire(self, add: Optional[tuple[str, str]], remove: Optional[tuple[str, str]]) -> None:
        if remove is not None:
            u, v = remove
            self.index()[u].remove(v)
            self.adj[v].remove(u)
        if add is not None:
            self.link(*add)
        self.trace.append(RewriteStep("rewire", (add, remove), ()))

    def absorb(self, q: str, m: str) -> None:
        self.sing[m] = "h-"  # m is a boundary negative elliptic
        self.drop(q)
        self.trace.append(RewriteStep("absorb", (q, m), _ABSORB_DELTA))


# ---------------------------------------------------------------------------
# Atomic rewrites


def _known(state: FoliationState, ids, n: int) -> bool:
    """Whether ids is n ids of state's singularities; an unhashable id is none."""
    try:
        return len(ids) == n and all(i in state.sing_map for i in ids)
    except TypeError:
        return False


def _apply(state: FoliationState, rewrite, *args) -> FoliationState:
    """One rewrite on a one-rewrite working copy.  Each atomic rewrite checks
    its arguments once, before this: the working copy checks no argument's
    form, and the stages pass it well-formed ones only."""
    w = _Work(state)
    rewrite(w, *args)
    return w.freeze()


def eliminate(state: FoliationState, e_id: str, h_id: str) -> FoliationState:
    """Cancel a same-sign interior elliptic/hyperbolic pair joined by a separatrix."""
    if not _known(state, (e_id, h_id), 2):
        raise NotConnected(f"unknown singularities {e_id}, {h_id}")
    return _apply(state, _Work.eliminate, e_id, h_id)


def convert(state: FoliationState, p_id: str, gamma, tau) -> FoliationState:
    """Elliptic-hyperbolic conversion at p along transversal leaves gamma, tau.

    p's kind flips and two singularities of p's original kind and sign are
    created on gamma; the per-sign count delta is (+1, +1).
    """
    if gamma == tau:
        raise BadLeaves("gamma and tau must be distinct leaves")
    if not _known(state, (p_id,), 1):
        raise BadLeaves(f"unknown singularity {p_id}")
    return _apply(state, _Work.convert, p_id, gamma, tau)


def create_pair(state: FoliationState, leaf, sign: int) -> FoliationState:
    """Create an elliptic/hyperbolic pair of the given sign on a leaf."""
    if type(sign) is not int or sign not in (1, -1):  # nor True, nor 1.0
        raise SignMismatch(f"create_pair needs sign +1 or -1, got {sign!r}")
    return _apply(state, _Work.create_pair, leaf, sign)


def rewire(state: FoliationState, add: Optional[tuple[str, str]] = None,
           remove: Optional[tuple[str, str]] = None) -> FoliationState:
    """Break or re-route a separatrix connection; count delta zero."""
    if remove is not None and not (_known(state, remove, 2)
                                   and tuple(sorted(remove)) in state.separatrices):
        raise NotConnected(f"no separatrix {remove}")
    if add is not None and not _known(state, add, 2):
        raise NotConnected(f"unknown endpoint in {add}")
    return _apply(state, _Work.rewire, add, remove)


# ---------------------------------------------------------------------------
# Pipeline stages


def to_naf(state: FoliationState) -> FoliationState:
    """Convert boundary singularities until positives are hyperbolic, negatives elliptic."""
    if not state._alternates:
        raise PatternMismatch("boundary signs must alternate")
    todo = [] if state._naf else [b for b, t in zip(state.boundary, state._btags)
                                  if t not in _NAF]
    if todo:
        w = _Work(state)
        for b in todo:
            w.convert(b, "collar-leaf", "L")
        state = w.freeze()
    if not state.is_naf():
        raise PatternMismatch("to_naf did not reach a NAF boundary")
    return state


def _doomed(ids: list[str], keep: int) -> list[str]:
    """The ids beyond the first ``keep`` survivors, sorted.  The survivors
    are the spine/hub ids (p*, q*), the canonical ones, then the others, each
    run in id order."""
    return sorted(sorted(ids, key=lambda i: (i[0] not in "pq", i))[keep:])


def reduce_interior(state: FoliationState) -> FoliationState:
    """Eliminate interior pairs until only positive elliptic and negative hyperbolic remain.

    Requires NAF boundary.  Uses eliminations only, with separatrix rewiring
    (hyperbolic-connection breaking) to put each doomed pair on a shared
    separatrix first.  Lands exactly on the lem-count targets.
    """
    if not state.is_naf():
        raise PatternMismatch("reduce_interior needs a NAF boundary")
    e_target, h_target = interior_count_targets(state.tb, state.r)
    want = {"e+": e_target, "h+": 0, "e-": 0, "h-": h_target}
    if state.counts(INTERIOR) == want:
        return state  # nothing is doomed
    groups: dict[str, list[str]] = {}
    for i, t in state.sing:
        if i not in state._on_boundary:
            groups.setdefault(t, []).append(i)
    # Eliminating a doomed pair leaves the survivors, and so the other
    # doomed ids, unchanged: each list is computed once.
    plan = [
        (_doomed(groups.get(ELLIPTIC + s, []), e), _doomed(groups.get(HYPERBOLIC + s, []), h))
        for s, e, h in (("+", e_target, 0), ("-", 0, h_target))
    ]
    if any(es or hs for es, hs in plan):
        w = _Work(state)
        for es, hs in plan:
            for e_id, h_id in zip(es, hs):
                if h_id not in w.index()[e_id]:
                    w.rewire((e_id, h_id), None)
                w.eliminate(e_id, h_id)
            if len(es) != len(hs):
                raise BadInvariants("interior counts cannot reach the reduced targets")
        state = w.freeze()
    counts = state.counts(INTERIOR)
    if counts != want:
        raise BadInvariants(
            f"reduced interior {counts} misses the targets e+={e_target}, h-={h_target}"
        )
    return state


def to_elliptic_form(state: FoliationState) -> tuple[FoliationState, SkeletonTree]:
    """Absorb interior negative hyperbolics into boundary negative elliptics.

    Each absorption flips the boundary point to hyperbolic and removes the
    interior point; afterwards the interior is all positive elliptic, so
    the state has its connections (FoliationState.connections).  The
    hyperbolics are taken in sorted order, each into a still-elliptic
    boundary point it shares a separatrix with (init_boundary draws one per
    hyperbolic).  Only a hyperbolic with no such separatrix is rewired, to
    the first free point in reversed boundary order.  A state that has its
    connections already is returned as it is.  Returns (state, skeleton):
    the skeleton is extract_skeleton(state), built and checked once and
    cached on the state.
    """
    if not state._rank_broom[2]:  # no connections; their id pairs are not built
        if not (state.is_naf() and state.is_reduced()):
            raise PatternMismatch("to_elliptic_form needs a reduced state with NAF boundary")
        # the NAF boundary's negatives are elliptic until absorbed
        pool = [b for b, t in zip(state.boundary, state._btags) if t == "e-"][::-1]
        free = {m: k for k, m in enumerate(pool)}  # still elliptic -> rank in pool
        partners = defaultdict(list)  # each point's separatrices into the pool
        for u, v in state.separatrices:
            if v in free:
                partners[u].append(v)
            if u in free:
                partners[v].append(u)
        k = 0  # pool[:k] is absorbed already
        w = _Work(state)
        # a NAF boundary has no negative hyperbolic, so every h- is interior;
        # sing is sorted, and an absorb changes no separatrix of a later h-
        for q in (i for i, t in state.sing if t == "h-"):
            shared = [m for m in partners[q] if m in free]
            if shared:
                m = min(shared, key=free.__getitem__)
            else:
                while pool[k] not in free:
                    k += 1
                m = pool[k]
                w.rewire((q, m), None)
            del free[m]
            w.absorb(q, m)
        state = w.freeze()
    return state, extract_skeleton(state)


# ---------------------------------------------------------------------------
# Skeleton extraction


class SkeletonTree(NamedTuple):
    """Extended skeleton: a signed tree on the ranks of its elliptic ids."""

    tree: SignedTree
    ids: tuple[str, ...]  # original singularity id per tree vertex index

    def embedding(self) -> AcceptableEmbedding:
        return spread_embedding(self.tree)


def extract_skeleton(state: FoliationState) -> SkeletonTree:
    """The extended skeleton of a state's connections, as a signed tree.

    Built and checked once per state and cached on it; to_elliptic_form
    builds it for every state it returns.  A state not in elliptic form, or
    with interior negative elliptics, has no skeleton (NotEllipticForm); nor
    has one whose elliptic points are too many or too few, or of the wrong
    signs, for (tb, r) (NotATree).
    """
    if not (state.is_elliptic_form() and state.is_reduced()):
        raise NotEllipticForm("extract_skeleton needs an elliptic-form, reduced state")
    if not state._rank_broom[2]:
        raise NotATree(
            f"the elliptic points cannot form a skeleton with tb={state.tb}, r={state.r}"
        )
    return state._skeleton


def run_pipeline(tb: int, r: int) -> tuple[FoliationState, SkeletonTree]:
    """init -> NAF -> reduced -> elliptic form, with full trace: (state, skeleton)."""
    return to_elliptic_form(reduce_interior(to_naf(init_boundary(tb, r))))


# ---------------------------------------------------------------------------
# Text dump


def dump_state(state: FoliationState) -> str:
    """Deterministic text listing boundary cycle, interior set, and edges.

    A singularity prints as sign then kind (``b0:+h``), its tag reversed.
    """
    sm, on_b = state.sing_map, state._on_boundary
    lines = [f"tb {state.tb} r {state.r}"]
    lines.append("boundary " + " ".join(f"{b}:{sm[b][::-1]}" for b in state.boundary))
    lines.append("interior " + " ".join(f"{i}:{t[::-1]}" for i, t in state.sing if i not in on_b))
    for name, edges in (("separatrix", state.separatrices), ("connection", state.connections)):
        lines += (f"{name} {u}-{v}" for u, v in edges)
    return "\n".join(lines)
