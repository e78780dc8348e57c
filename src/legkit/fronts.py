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

Events and trace records are ``NamedTuple``s, built, hashed and compared in
C: a ``FrontEvent`` equals the pair ``(kind, position)``, and an ``Arc``
compares on all four fields, ``died`` included.  The stack scan writes
plain columns and rows, and each record type is made once over them by
mapping ``tuple.__new__``, so no Python-level constructor runs per record;
the per-component tallies apply the ``or`` and ``kappa`` rules inline on
the unpacked records.  ``parse_front`` parses each distinct line once, in
first-seen order, maps the lines to their events in one pass, and looks up
a line number only for the line that raises.  The trace
(``trace_components``) holds O(events) data: each arc's birth, death and
role, one record per cusp and per crossing, and the component cycles, but
no snapshot of the strand stack.  Its readers take what they need from the
events: an arc born at event k starts at ``events[k].position + role``, a
zig-zag is a left-cusp record followed at the next event by a right-cusp
record, and ``FrontDiagram.strand_profile`` gives each slot's strand count.

A diagram caches its own trace, and a weak registry keyed by the events
lets equal diagrams alive at the same time share it.  No global cache keeps
a trace once its diagrams are gone, so memory follows the live diagrams
and not the number of diagrams ever traced.
"""

from __future__ import annotations

import random
import re
import weakref
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import repeat
from operator import ne
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
                        f"event {k + 1} ({kind} {p}): left cusp position must be in 1..{n + 1}"
                    )
                n += 2
            else:
                if not 1 <= p <= n - 1:
                    raise InvalidPosition(
                        f"event {k + 1} ({kind} {p}): position must be in 1..{n - 1} "
                        f"({n} strands)"
                    )
                if kind == RIGHT:
                    n -= 2
        if n != 0:
            raise OpenDiagram(f"strand count {n} nonzero after last event")

    @property
    def strand_profile(self) -> tuple[int, ...]:
        """Strand counts n_0 .. n_m (n_j = count after j events)."""
        prof = [0]
        n = 0
        for ev in self.events:
            n += 2 if ev.kind == LEFT else (-2 if ev.kind == RIGHT else 0)
            prof.append(n)
        return tuple(prof)

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


@dataclass(frozen=True)
class ComponentDecomposition:
    """Arcs, per-arc component ids, default directions and traversal cycles,
    cusp pairings and crossing incidences."""

    arcs: tuple[Arc, ...]
    component_of: tuple[int, ...]  # arc index -> component id
    n_components: int
    cusps: tuple[CuspRecord, ...]
    crossings: tuple[CrossingRecord, ...]
    # arc index -> True if traversed rightward under the default orientation
    directions: tuple[bool, ...]
    # cycles[c] = arcs of component c in default traversal order, from its
    # lowest arc
    cycles: tuple[tuple[int, ...], ...]


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
    cusps: list = []  # CuspRecord rows, flat, typed once at the end
    crossings: list = []  # CrossingRecord rows, flat
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
    return ComponentDecomposition(
        # arcs are made in (lower, upper) pairs, so an arc's role is its parity
        arcs=tuple(map(tuple.__new__, repeat(Arc), zip(range(n), born, (0, 1) * (n // 2), died))),
        component_of=tuple(component_of),
        n_components=len(cycles),
        cusps=tuple(map(tuple.__new__, repeat(CuspRecord), zip(*[iter(cusps)] * 4))),
        crossings=tuple(map(tuple.__new__, repeat(CrossingRecord), zip(*[iter(crossings)] * 5))),
        directions=tuple(dirs),
        cycles=tuple(cycles),
    )


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
        n = self.trace.n_components
        bad = sorted(c for c in self.reversed_components if not 0 <= c < n)
        if bad:
            raise NotClosed(f"no component {bad[0]} to reverse (diagram has {n})")

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
        sum), from one pass over the crossings and one over the cusps, each
        applying the rule of ``crossing_or`` or ``cusp_kappa`` inline."""
        tr, dirs = self.trace, self.directions
        cof, k = tr.component_of, tr.n_components
        ors, n_cusps, kappas = [0] * k, [0] * k, [0] * k
        for _, a, b, _, _ in tr.crossings:
            c = cof[a]
            if c == cof[b]:
                ors[c] += 1 if dirs[a] != dirs[b] else -1
        for _, kind, lo, hi in tr.cusps:
            c = cof[lo]
            n_cusps[c] += 1
            # the emanating ray: a left cusp's upper arc, a right cusp's lower
            kappas[c] += 1 if dirs[hi if kind == LEFT else lo] else -1
        return tuple(zip(ors, n_cusps, kappas))

    def reverse(self, comp: int) -> "OrientedFront":
        return OrientedFront(self.diagram, self.reversed_components ^ {comp})


def cusp_kappa(of: OrientedFront, cusp: CuspRecord) -> int:
    """kappa = +1 iff the ray emanating from the cusp lies above the entering ray."""
    dirs = of.directions
    if cusp.kind == LEFT:
        # emanating ray = the rightward arc
        return 1 if dirs[cusp.upper] else -1
    # right cusp: emanating ray = the leftward arc
    return 1 if dirs[cusp.lower] else -1


def crossing_or(of: OrientedFront, crossing: CrossingRecord) -> int:
    """or = +1 iff the two emanating rays leave on opposite sides of the vertical."""
    dirs = of.directions
    return 1 if dirs[crossing.in_lower] != dirs[crossing.in_upper] else -1


def crossing_sign(of: OrientedFront, crossing: CrossingRecord) -> int:
    """Knot-theoretic crossing sign; equals -or under the lesser-slope-over rule.

    With contact form dz - y dx the over-strand at a front crossing is the
    branch of lesser slope (smaller y, nearer the viewer at y = -infinity).
    det[t_over, t_under] = d_over * d_under * (y_under - y_over) with
    y_under > y_over, so the sign is +1 exactly when both strands run the
    same horizontal way, i.e. -or.
    """
    return -crossing_or(of, crossing)


def _check_component(of: OrientedFront, comp: int) -> None:
    tr = of.trace
    if not 0 <= comp < tr.n_components:
        raise NotClosed(f"no component {comp} (diagram has {tr.n_components})")


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
    tr = of.trace
    k = tr.n_components
    if k < 2:
        raise SingleComponent("linking matrix needs at least 2 components")
    sums = [[0] * k for _ in range(k)]
    for x in tr.crossings:
        i = tr.component_of[x.in_lower]
        j = tr.component_of[x.in_upper]
        if i != j:
            s = crossing_sign(of, x)
            sums[i][j] += s
            sums[j][i] += s
    out: list[list[Optional[int]]] = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j:
                if sums[i][j] % 2:
                    raise NotClosed(f"odd crossing-sign sum between components {i} and {j}")
                out[i][j] = sums[i][j] // 2
    return out


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
    """True iff (tb, r) = (-|r| - 2k - 1, r) for some k >= 0."""
    return check_parity(tb, r) and tb <= -abs(r) - 1


# ---------------------------------------------------------------------------
# Zig-zags (stabilization)


def _splice(
    d: FrontDiagram, tr: ComponentDecomposition, arc: int, direction: str, cut: Optional[int] = None
) -> FrontDiagram:
    """``d`` with a zig-zag on ``arc`` right after its birth and, if ``cut`` is
    given, without the zig-zag whose left cusp is event ``cut``.

    ``tr`` is the trace of ``d``.  An event at position p creates its arcs at
    p and p + 1, so an arc starts at ``p + role``.  A zig-zag's two events
    leave every other position as it was, and its arcs come after its
    carrier's, so removing it keeps every other arc's default direction.
    """
    rec = tr.arcs[arc]
    p = d.events[rec.born].position + rec.role
    # Option B (kink above) raises r on a rightward strand, option A (kink
    # below) lowers it; the roles swap on a leftward strand.
    if (direction == UP) == tr.directions[arc]:
        kink = [FrontEvent(LEFT, p + 1), FrontEvent(RIGHT, p)]
    else:
        kink = [FrontEvent(LEFT, p), FrontEvent(RIGHT, p + 1)]
    events = list(d.events)
    at = rec.born + 1
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
    if not 0 <= arc < len(tr.arcs):
        raise BadLocator(f"no arc {arc} (diagram has {len(tr.arcs)} arcs)")
    return _splice(d, tr, arc, direction)


@dataclass(frozen=True)
class Zigzag:
    """A detected zig-zag: consecutive (L, R) events forming a kink."""

    event: int  # index of the L event
    option: str  # "A" (kink below) or "B" (kink above)
    carrier_in: int  # arc entering the kink
    carrier_out: int  # arc leaving the kink
    kink_arcs: tuple[int, int]


def find_zigzags(d: FrontDiagram) -> list[Zigzag]:
    """Each left cusp followed at the next event by a right cusp one position
    above or below it, which joins one new arc to the carrier."""
    cusps = trace_components(d).cusps
    out = []
    for left, right in zip(cusps, cusps[1:]):
        if left.kind != LEFT or right.kind != RIGHT or right.event != left.event + 1:
            continue
        shift = d.events[right.event].position - d.events[left.event].position
        kink = (left.lower, left.upper)
        if shift == 1:
            # option A: R consumes (upper kink arc, original strand)
            out.append(Zigzag(event=left.event, option="A", carrier_in=right.upper,
                              carrier_out=left.lower, kink_arcs=kink))
        elif shift == -1:
            # option B: R consumes (original strand, lower kink arc)
            out.append(Zigzag(event=left.event, option="B", carrier_in=right.lower,
                              carrier_out=left.upper, kink_arcs=kink))
    return out


def zigzag_direction(d: FrontDiagram, z: Zigzag) -> str:
    """Oriented direction of a zig-zag under the default orientation."""
    rightward = trace_components(d).directions[z.carrier_in]
    if z.option == "B":
        return UP if rightward else DOWN
    return DOWN if rightward else UP


def displace_zigzag(d: FrontDiagram, from_arc: int, to_arc: int) -> FrontDiagram:
    """Move a zig-zag from one arc to another, preserving (tb, r) exactly:
    one splice of the event list drops its two events and inserts the new
    kink right after the target arc's birth."""
    tr = trace_components(d)
    if not 0 <= from_arc < len(tr.arcs) or not 0 <= to_arc < len(tr.arcs):
        raise BadLocator("arc locator out of range")
    zigs = [
        z
        for z in find_zigzags(d)
        if from_arc in z.kink_arcs or from_arc in (z.carrier_in, z.carrier_out)
    ]
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
    lines.extend(
        f"orient {c} {'+' if s > 0 else '-'}" for c, s in d.orient_overrides
    )
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
