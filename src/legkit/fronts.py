"""Event-based combinatorial model of Legendrian front diagrams.

A front is scanned left to right as a sequence of events acting on a stack
of strands (1-based positions, counted from the bottom):

    L p   left cusp: inserts two strands at positions p, p+1
    R p   right cusp: removes strands p, p+1 (they join at the cusp)
    X p   crossing: strands p, p+1 cross transversally

A closed diagram starts and ends with zero strands.  Arcs are maximal
strand segments between events; tracing arc connectivity through cusps and
crossings decomposes the diagram into components and orients them.  The
classical invariants are computed exactly from the oriented combinatorics:

    tb = -sum(or(p)) - (1/2) * #cusps        (self-crossings only)
    r  = (1/2) * sum(kappa(p))               (cusps only)

where or(p) = +1 iff the rays emanating from a crossing leave on opposite
sides of the vertical line through it, and kappa(p) = +1 iff the ray
emanating from a cusp lies above the ray entering it.

Events, trace records and zig-zags are ``NamedTuple``s, hashed and compared
in C: a ``FrontEvent`` equals the pair ``(kind, position)``, and an ``Arc``
compares on all four fields, ``died`` included.  The trace
(``trace_components``) holds O(events) data as int columns: each arc's
birth and death event, the event, kind and two arcs of each cusp, the event
and four arcs of each crossing, and the component ids, directions and
cycles, but no snapshot of the strand stack.  Arcs are made in (lower,
upper) pairs, so an arc's role is its index's parity.  ``arcs``, ``cusps``
and ``crossings`` are read-only sequences over the columns: ``len`` makes
no record, and the first index or iteration makes every record of its type
once, by mapping ``tuple.__new__`` over the columns, so a trace that nobody
reads as records holds a few objects for the garbage collector and not one
per event.  Every reader in the library reads the columns: the
per-component tallies and ``linking_matrix`` apply the ``or`` and ``kappa``
rules inline, an arc born at event k starts at
``events[k].position + role``, a zig-zag is a left cusp followed at the
next event by a right cusp, and ``FrontDiagram.strand_profile`` gives each
slot's strand count.
``parse_front`` parses each distinct line once, in first-seen order, maps
the lines to their events in one pass, and looks up a line number only for
the line that raises.

A diagram caches its own trace, and a weak registry keyed by the events
lets equal diagrams alive at the same time share it.  No global cache keeps
a trace once its diagrams are gone, so memory follows the live diagrams
and not the number of diagrams ever traced.
"""

from __future__ import annotations

import random
import re
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, repeat
from operator import itemgetter, ne
from typing import NamedTuple, Optional

from .errors import (
    BadDirection,
    BadLocator,
    InvalidPosition,
    NoZigzag,
    NotClosed,
    OpenDiagram,
    ParseError,
    SingleComponent,
)

LEFT = "L"
RIGHT = "R"
CROSS = "X"
_KINDS = (LEFT, RIGHT, CROSS)
_STEP = {LEFT: 2, RIGHT: -2, CROSS: 0}  # each kind's change to the strand count
# an integer in the text formats; int() alone also takes "+1", "1_0" and non-ASCII digits
INT_TOKEN = re.compile(r"-?[0-9]+")

UP = "up"
DOWN = "down"


class FrontEvent(NamedTuple("FrontEvent", [("kind", str), ("position", int)])):
    """One event of a front diagram: kind in {L, R, X}, 1-based position."""

    __slots__ = ()

    def __new__(cls, kind: str, position: int) -> "FrontEvent":
        if kind not in _KINDS:
            raise ParseError(f"unknown event kind {kind!r}")
        # an exact int passes the first test alone; bool is an int subclass
        if type(position) is not int and (isinstance(position, bool) or not isinstance(position, int)):
            raise InvalidPosition(f"position {position!r} must be an integer")
        if position < 1:
            raise InvalidPosition(f"position {position} must be >= 1")
        return tuple.__new__(cls, (kind, position))

    def __str__(self):
        return f"{self.kind} {self.position}"


def fields_state(obj) -> dict:
    """Pickle and copy state of a dataclass: its fields, never what it caches."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class FrontDiagram:
    """A validated closed front diagram.

    ``events`` is the left-to-right event sequence; ``orient_overrides``
    carries optional per-component orientation flips parsed from the text
    format, as ``(component, sign)`` int pairs with sign 1 or -1 (it does
    not affect diagram equality semantics beyond tuple equality, and is
    empty for programmatically built diagrams).
    """

    events: tuple[FrontEvent, ...]
    orient_overrides: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        # a list would build, and fail later when the diagram is hashed
        if type(self.events) is not tuple or type(self.orient_overrides) is not tuple:
            raise ParseError("a diagram's events and orientation overrides must be tuples")
        if not self.events:
            raise ParseError("empty diagram has no component")
        for o in self.orient_overrides:
            # (component, sign): an int and +1 or -1, never a bool; the
            # component's range is checked where it is applied
            if (type(o) is not tuple or len(o) != 2 or o[1] not in (1, -1)
                    or any(isinstance(x, bool) or not isinstance(x, int) for x in o)):
                raise ParseError(f"orientation override {o!r} is not a (component, +1 or -1) pair")
        # anything else, a bare tuple included, skipped FrontEvent's checks
        if set(map(type, self.events)) != {FrontEvent}:
            k, ev = next((k, ev) for k, ev in enumerate(self.events) if type(ev) is not FrontEvent)
            raise ParseError(f"event {k + 1} ({ev!r}) is not a FrontEvent")
        n = 0
        for k, (kind, p) in enumerate(self.events):
            if kind == LEFT:
                if not 1 <= p <= n + 1:
                    raise InvalidPosition(
                        f"event {k + 1} ({kind} {p}): left cusp position must be in 1..{n + 1}")
                n += 2
            else:
                if not 1 <= p <= n - 1:
                    raise InvalidPosition(
                        f"event {k + 1} ({kind} {p}): position must be in 1..{n - 1} ({n} strands)")
                if kind == RIGHT:
                    n -= 2
        if n != 0:
            raise OpenDiagram(f"strand count {n} nonzero after last event")

    @property
    def strand_profile(self) -> tuple[int, ...]:
        """Strand counts n_0 .. n_m (n_j = count after j events)."""
        return tuple(accumulate(map(_STEP.__getitem__, map(itemgetter(0), self.events)), initial=0))

    @cached_property
    def _trace(self) -> ComponentDecomposition:
        """This diagram's trace: an equal live diagram's, or a new one."""
        tr = _live_traces.get(self.events)
        if tr is None:
            tr = _live_traces[self.events] = _decompose(self.events)
        return tr

    __getstate__ = fields_state  # a copy finds or makes its own trace

    def __str__(self):
        return serialize_front(self)


class Arc(NamedTuple):
    """Maximal strand segment between events.

    ``born``/``died`` are 0-based event indices; ``role`` is 0 for the lower
    strand of the creating pair, 1 for the upper.  Arcs live in slots
    born+1 .. died (slot j = gap after j events).
    """

    index: int
    born: int
    role: int
    died: int


class CuspRecord(NamedTuple):
    event: int
    kind: str  # LEFT or RIGHT
    lower: int  # arc index
    upper: int


class CrossingRecord(NamedTuple):
    event: int
    in_lower: int
    in_upper: int
    out_lower: int
    out_upper: int


class Records(Sequence):
    """One record type of a trace, read-only, over the trace's columns.

    ``len`` reads a column and makes no record; the first index or iteration
    makes every record once, in C, and later reads reuse them.  The sequence
    equals the tuple of its records."""

    __slots__ = ("_type", "_columns", "_made")

    def __init__(self, record_type, *columns):
        self._type, self._columns, self._made = record_type, columns, None

    def __len__(self) -> int:
        return len(self._columns[0])

    def _all(self) -> tuple:
        if self._made is None:
            self._made = tuple(map(tuple.__new__, repeat(self._type), zip(*self._columns)))
        return self._made

    def __getitem__(self, i):
        return self._all()[i]

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other):
        return self._all() == (other._all() if isinstance(other, Records) else other)


@dataclass(frozen=True)
class ComponentDecomposition:
    """A front's trace as int columns: each arc's birth and death event, the
    cusp and crossing incidences, per-arc component ids, default directions
    and traversal cycles.  ``arcs``, ``cusps`` and ``crossings`` read the
    columns as records."""

    born: tuple[int, ...]  # arc index -> the event that creates it
    died: tuple[int, ...]  # arc index -> the event that ends it
    cusp_event: tuple[int, ...]  # one entry per cusp, in event order
    cusp_kind: tuple[str, ...]  # LEFT or RIGHT
    cusp_lower: tuple[int, ...]  # arc index
    cusp_upper: tuple[int, ...]
    crossing_event: tuple[int, ...]  # one entry per crossing, in event order
    in_lower: tuple[int, ...]  # arc index
    in_upper: tuple[int, ...]
    out_lower: tuple[int, ...]
    out_upper: tuple[int, ...]
    component_of: tuple[int, ...]  # arc index -> component id
    n_components: int
    # arc index -> True if traversed rightward under the default orientation
    directions: tuple[bool, ...]
    # cycles[c] = arcs of component c in default traversal order, from its
    # lowest arc
    cycles: tuple[tuple[int, ...], ...]

    @cached_property
    def arcs(self) -> Records:
        """Each arc as an ``Arc``; arcs are made in (lower, upper) pairs, so
        an arc's role is its parity."""
        n = len(self.born)
        return Records(Arc, range(n), self.born, (0, 1) * (n // 2), self.died)

    @cached_property
    def cusps(self) -> Records:
        return Records(CuspRecord, self.cusp_event, self.cusp_kind, self.cusp_lower,
                       self.cusp_upper)

    @cached_property
    def crossings(self) -> Records:
        return Records(CrossingRecord, self.crossing_event, self.in_lower, self.in_upper,
                       self.out_lower, self.out_upper)

    __getstate__ = fields_state  # a copy makes its own records


# each live trace by its events; an entry goes with the last holder of its trace
_live_traces: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def trace_components(d: FrontDiagram) -> ComponentDecomposition:
    """The trace of ``d``, cached on ``d``: a repeat call is one attribute
    read, and a diagram traced while an equal one is alive shares its trace.
    A trace lives while some diagram or caller holds it; nothing is bounded
    or evicted, and pickling or copying a diagram leaves its trace behind."""
    return d._trace


def _decompose(events: tuple[FrontEvent, ...]) -> ComponentDecomposition:
    """Scan the event stack for arcs, incidences and arc-end joins, then walk
    the components as cycles.

    Arc end ``2 * a`` is the left (birth) end of arc ``a``, ``2 * a + 1`` its
    right (death) end.  A cusp joins the two ends it creates or removes; at a
    crossing the lower-in arc continues as the upper-out arc.  Every end is
    joined to exactly one other, so each component is a cycle.
    """
    born: list[int] = []
    died: list[int] = []
    join: list[int] = []  # arc end -> the arc end it is joined to
    cusps: list = []  # (event, kind, lower, upper) per cusp, flat
    crossings: list = []  # (event, in_lower, in_upper, out_lower, out_upper) per crossing, flat
    stack: list[int] = []
    for j, (kind, p) in enumerate(events):
        if kind == RIGHT:
            lo, hi = stack[p - 1], stack[p]
            del stack[p - 1 : p + 1]
            died[lo] = died[hi] = j
            join[2 * lo + 1], join[2 * hi + 1] = 2 * hi + 1, 2 * lo + 1
            cusps += (j, RIGHT, lo, hi)
        else:
            lo, hi = len(born), len(born) + 1
            born += (j, j)
            died += (-1, -1)
            join += (-1, -1, -1, -1)
            if kind == LEFT:
                stack[p - 1 : p - 1] = [lo, hi]
                join[2 * lo], join[2 * hi] = 2 * hi, 2 * lo
                cusps += (j, LEFT, lo, hi)
            else:
                a, b = stack[p - 1], stack[p]
                died[a] = died[b] = j
                join[2 * a + 1], join[2 * hi] = 2 * hi, 2 * a + 1
                join[2 * b + 1], join[2 * lo] = 2 * lo, 2 * b + 1
                stack[p - 1], stack[p] = lo, hi
                crossings += (j, a, b, lo, hi)

    # Components are numbered by their lowest arc, which is walked rightward:
    # leave each arc by its far end and enter the next arc by the joined end.
    n = len(born)
    component_of = [-1] * n
    dirs = [True] * n
    cycles: list[tuple[int, ...]] = []
    for anchor in range(n):
        if component_of[anchor] >= 0:
            continue
        comp, cycle = len(cycles), []
        arc, rightward = anchor, True
        while component_of[arc] < 0:
            component_of[arc], dirs[arc] = comp, rightward
            cycle.append(arc)
            end = join[2 * arc + rightward]
            arc, rightward = end >> 1, not end & 1
        cycles.append(tuple(cycle))
    cusps, crossings = tuple(cusps), tuple(crossings)
    return ComponentDecomposition(tuple(born), tuple(died), *(cusps[k::4] for k in range(4)),
                                  *(crossings[k::5] for k in range(5)), tuple(component_of),
                                  len(cycles), tuple(dirs), tuple(cycles))


# ---------------------------------------------------------------------------
# Orientation


@dataclass(frozen=True)
class OrientedFront:
    """A front diagram with a traversal orientation per component.

    The default orientation directs the lowest-indexed arc of each component
    left-to-right; ``reversed_components`` flips the named components.
    """

    diagram: FrontDiagram
    reversed_components: frozenset[int] = frozenset()

    def __post_init__(self):
        n, rev = self.trace.n_components, self.reversed_components
        # a value that is not an int (a bool is no index), else the least int out of range
        bad = rev and ([c for c in rev if type(c) is not int]
                       or sorted(c for c in rev if not 0 <= c < n))
        if bad:
            raise NotClosed(f"no component {bad[0]!r} to reverse (diagram has {n})")

    @staticmethod
    def default(d: FrontDiagram) -> "OrientedFront":
        """Default orientation, with the last ``orient`` line per component
        applied; an ``orient`` line must name a component of ``d``."""
        last = dict(d.orient_overrides)
        of = OrientedFront(d, frozenset(c for c, s in last.items() if s < 0))
        for c in sorted(last):
            _check_component(of, c)
        return of

    @cached_property
    def trace(self) -> ComponentDecomposition:
        return trace_components(self.diagram)

    @cached_property
    def directions(self) -> tuple[bool, ...]:
        """Arc index -> True if traversed rightward."""
        tr, rev = self.trace, self.reversed_components
        # an arc runs its default way unless its component is reversed
        return tuple(map(ne, tr.directions, map(rev.__contains__, tr.component_of)))

    @cached_property
    def _tallies(self) -> tuple[tuple[int, int, int], ...]:
        """Per component: (or sum over its self-crossings, cusp count, kappa
        sum), from one pass over the crossing columns and one over the cusp
        columns."""
        tr, dirs = self.trace, self.directions
        cof, k = tr.component_of, tr.n_components
        ors, n_cusps, kappas = [0] * k, [0] * k, [0] * k
        for a, b in zip(tr.in_lower, tr.in_upper):
            c = cof[a]
            if c == cof[b]:
                # or = +1 iff the two emanating rays leave on opposite sides
                # of the vertical
                ors[c] += 1 if dirs[a] != dirs[b] else -1
        for kind, lo, hi in zip(tr.cusp_kind, tr.cusp_lower, tr.cusp_upper):
            c = cof[lo]
            n_cusps[c] += 1
            # kappa = +1 iff the emanating ray (a left cusp's upper arc, a
            # right cusp's lower) runs rightward, so it lies above the other
            kappas[c] += 1 if dirs[hi if kind == LEFT else lo] else -1
        return tuple(zip(ors, n_cusps, kappas))

    def reverse(self, comp: int) -> "OrientedFront":
        return OrientedFront(self.diagram, self.reversed_components ^ {comp})


def _check_component(of: OrientedFront, comp: int) -> None:
    if type(comp) is not int or not 0 <= comp < of.trace.n_components:  # a bool is no index
        raise NotClosed(f"no component {comp!r} (diagram has {of.trace.n_components})")


def thurston_bennequin(of: OrientedFront, comp: int = 0) -> int:
    """tb of one component: -sum or(p) over self-crossings - half the cusp count."""
    _check_component(of, comp)
    or_sum, n_cusps, _ = of._tallies[comp]
    if n_cusps % 2:
        raise NotClosed(f"component {comp} has an odd cusp count {n_cusps}")
    return -or_sum - n_cusps // 2


def rotation_number(of: OrientedFront, comp: int = 0) -> int:
    """r of one component: half the signed cusp count; negates under reversal."""
    _check_component(of, comp)
    total = of._tallies[comp][2]
    if total % 2:
        raise NotClosed(f"component {comp} has an odd signed cusp count {total}")
    return total // 2


def invariant_pair(of: OrientedFront, comp: int = 0) -> tuple[int, int]:
    return thurston_bennequin(of, comp), rotation_number(of, comp)


def linking_matrix(of: OrientedFront) -> list[list[Optional[int]]]:
    """Pairwise linking numbers; symmetric, diagonal left as None."""
    tr, dirs = of.trace, of.directions
    cof, k = tr.component_of, tr.n_components
    if k < 2:
        raise SingleComponent("linking matrix needs at least 2 components")
    sums = [[0] * k for _ in range(k)]
    for a, b in zip(tr.in_lower, tr.in_upper):
        i, j = cof[a], cof[b]
        if i != j:
            # the crossing sign, under the lesser-slope-over rule: +1 iff
            # both strands run the same horizontal way, so -or
            s = -1 if dirs[a] != dirs[b] else 1
            sums[i][j] += s
            sums[j][i] += s
    for i, row in enumerate(sums):  # the diagonal stays 0
        for j, s in enumerate(row):
            if s % 2:
                raise NotClosed(f"odd crossing-sign sum between components {i} and {j}")
            row[j] = None if i == j else s // 2
    return sums


def transverse_self_linking(of: OrientedFront, comp: int = 0, pushoff: str = "+") -> int:
    """Self-linking of the transverse pushoff: tb - r for '+', tb + r for '-'."""
    tb, r = invariant_pair(of, comp)
    if pushoff == "+":
        return tb - r
    if pushoff == "-":
        return tb + r
    raise BadDirection(f"pushoff must be '+' or '-', got {pushoff!r}")


# ---------------------------------------------------------------------------
# Range oracles


def check_bennequin(tb: int, r: int) -> bool:
    """Bennequin inequality tb <= -chi(F) - |r| for a disk F, chi(F) = 1."""
    return tb <= -1 - abs(r)


def check_parity(tb: int, r: int) -> bool:
    """tb + r must be odd for a closed Legendrian knot."""
    return (tb + r) % 2 == 1


def in_unknot_range(tb: int, r: int) -> bool:
    """True iff (tb, r) = (-|r| - 2k - 1, r) for some k >= 0, with tb and r
    exact ints: a bool or a float is no invariant."""
    return type(tb) is type(r) is int and check_parity(tb, r) and tb <= -abs(r) - 1


# ---------------------------------------------------------------------------
# Zig-zags (stabilization)


def _splice(
    d: FrontDiagram, tr: ComponentDecomposition, arc: int, direction: str, cut: Optional[int] = None
) -> FrontDiagram:
    """``d`` with a zig-zag on ``arc`` right after its birth and, if ``cut`` is
    given, without the zig-zag whose left cusp is event ``cut``.

    ``tr`` is the trace of ``d``.  An event at position p creates its arcs at
    p and p + 1, so an arc starts at ``p + role``, its role being its
    parity.  A zig-zag's two events leave every other position as it was,
    and its arcs come after its carrier's, so removing it keeps every other
    arc's default direction.
    """
    born = tr.born[arc]
    p = d.events[born].position + arc % 2
    # Option B (kink above) raises r on a rightward strand, option A (kink
    # below) lowers it; the roles swap on a leftward strand.
    if (direction == UP) == tr.directions[arc]:
        kink = [FrontEvent(LEFT, p + 1), FrontEvent(RIGHT, p)]
    else:
        kink = [FrontEvent(LEFT, p), FrontEvent(RIGHT, p + 1)]
    events = list(d.events)
    at = born + 1
    if cut is not None:
        del events[cut : cut + 2]
        if cut < at:
            at -= 2
    events[at:at] = kink
    return FrontDiagram(tuple(events))


def insert_zigzag(d: FrontDiagram, arc: int, direction: str) -> FrontDiagram:
    """Insert a two-cusp zig-zag on an arc.

    Direction is the oriented sense under the default orientation: "up"
    yields (tb, r) -> (tb - 1, r + 1), "down" yields (tb - 1, r - 1).
    """
    if direction not in (UP, DOWN):
        raise BadDirection(f"direction must be 'up' or 'down', got {direction!r}")
    tr = trace_components(d)
    if type(arc) is not int or not 0 <= arc < len(tr.born):  # a bool is no index
        raise BadLocator(f"no arc {arc!r} (diagram has {len(tr.born)} arcs)")
    return _splice(d, tr, arc, direction)


class Zigzag(NamedTuple):
    """A detected zig-zag: consecutive (L, R) events forming a kink."""

    event: int  # index of the L event
    option: str  # "A" (kink below) or "B" (kink above)
    carrier_in: int  # arc entering the kink
    carrier_out: int  # arc leaving the kink
    kink_arcs: tuple[int, int]


def find_zigzags(d: FrontDiagram) -> list[Zigzag]:
    """Each left cusp followed at the next event by a right cusp one position
    above or below it, which joins one new arc to the carrier."""
    tr = trace_components(d)
    event, kind, lower, upper = tr.cusp_event, tr.cusp_kind, tr.cusp_lower, tr.cusp_upper
    out = []
    for i, (j, j2) in enumerate(zip(event, event[1:])):  # cusps i and i + 1
        if j2 != j + 1 or kind[i] != LEFT or kind[i + 1] != RIGHT:
            continue
        lo, hi = lower[i], upper[i]
        shift = d.events[j2].position - d.events[j].position
        if shift == 1:
            # option A: R consumes (upper kink arc, original strand)
            out.append(Zigzag(event=j, option="A", carrier_in=upper[i + 1], carrier_out=lo,
                              kink_arcs=(lo, hi)))
        elif shift == -1:
            # option B: R consumes (original strand, lower kink arc)
            out.append(Zigzag(event=j, option="B", carrier_in=lower[i + 1], carrier_out=hi,
                              kink_arcs=(lo, hi)))
    return out


def zigzag_direction(d: FrontDiagram, z: Zigzag) -> str:
    """Oriented direction of a zig-zag under the default orientation."""
    rightward = trace_components(d).directions[z.carrier_in]
    # a kink above (option B) on a rightward strand, or below on a leftward one, is up
    return UP if rightward == (z.option == "B") else DOWN


def displace_zigzag(d: FrontDiagram, from_arc: int, to_arc: int) -> FrontDiagram:
    """Move a zig-zag from one arc to another, preserving (tb, r) exactly:
    one splice of the event list drops its two events and inserts the new
    kink right after the target arc's birth."""
    tr = trace_components(d)
    for arc in (from_arc, to_arc):
        if type(arc) is not int or not 0 <= arc < len(tr.born):  # a bool is no index
            raise BadLocator(f"no arc {arc!r} (diagram has {len(tr.born)} arcs)")
    zigs = [z for z in find_zigzags(d)
            if from_arc in z.kink_arcs or from_arc in (z.carrier_in, z.carrier_out)]
    if not zigs:
        raise NoZigzag(f"arc {from_arc} carries no zig-zag")
    z = zigs[0]
    if to_arc in z.kink_arcs or to_arc in (z.carrier_in, z.carrier_out):
        raise BadLocator("target arc is part of the zig-zag being moved")
    return _splice(d, tr, to_arc, zigzag_direction(d, z), cut=z.event)


# ---------------------------------------------------------------------------
# Text format (.lfd)


def parse_front(text: str) -> FrontDiagram:
    """Parse the line-oriented front format (L/R/X events, orient lines).

    Each distinct line is parsed once, in first-seen order, so the first
    bad line raises; its number is looked up only then.
    """
    lines = text.splitlines()
    made: dict[str, FrontEvent] = {}  # each distinct event line -> its event
    orient: dict[str, tuple[int, int]] = {}  # each distinct orient line -> its override
    for raw in dict.fromkeys(lines):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "orient":
            if len(parts) != 3 or parts[2] not in ("+", "-"):
                bad = f"bad orient line {raw!r}"
            elif not INT_TOKEN.fullmatch(parts[1]):
                bad = f"bad component index {parts[1]!r}"
            else:
                orient[raw] = (int(parts[1]), 1 if parts[2] == "+" else -1)
                continue
        elif len(parts) != 2 or parts[0] not in _KINDS:
            bad = f"malformed event line {raw!r}"
        elif not INT_TOKEN.fullmatch(parts[1]):
            bad = f"bad position {parts[1]!r}"
        else:
            pos = int(parts[1])
            if pos < 1:
                raise InvalidPosition(f"line {lines.index(raw) + 1}: position {pos} must be >= 1")
            made[raw] = FrontEvent(parts[0], pos)
            continue
        raise ParseError(bad, line=lines.index(raw) + 1)
    # each line in order to its event (or override), any other line to None, which is dropped
    overrides = tuple(filter(None, map(orient.get, lines))) if orient else ()
    return FrontDiagram(tuple(filter(None, map(made.get, lines))), overrides)


def serialize_front(d: FrontDiagram) -> str:
    """One event per line, in order; inverse of parse_front."""
    lines = [f"{ev.kind} {ev.position}" for ev in d.events]
    lines += (f"orient {c} {'+' if s > 0 else '-'}" for c, s in d.orient_overrides)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fuzzing support (used by tests and the CLI fuzz command)


def random_closed_front(rng: random.Random, max_events: int = 24) -> FrontDiagram:
    """Generate a random valid closed front diagram (any component count)."""
    events = []
    n = 0
    budget = max(2, max_events)
    while True:
        room = budget - len(events)
        if n == 0:
            if events and (room < 2 or rng.random() < 0.3):
                break
            events.append(FrontEvent(LEFT, 1))
            n = 2
            continue
        # must be able to close: capping takes n/2 right cusps
        must_close = room <= n // 2 + 1
        choices = [RIGHT]
        if not must_close:
            choices += [LEFT, LEFT, CROSS, CROSS]
        kind = rng.choice(choices)
        events.append(FrontEvent(kind, rng.randint(1, n + 1 if kind == LEFT else n - 1)))
        n += 2 if kind == LEFT else (-2 if kind == RIGHT else 0)
    return FrontDiagram(tuple(events))


def random_single_component_front(rng: random.Random, max_events: int = 24) -> FrontDiagram:
    """Rejection-sample random_closed_front down to one component, 200 tries."""
    for _ in range(200):
        d = random_closed_front(rng, max_events)
        if trace_components(d).n_components == 1:
            return d
    raise RuntimeError("failed to generate a single-component front")
