import copy
import gc
import pickle
import random
import weakref
from collections import Counter, defaultdict, namedtuple
from dataclasses import fields, replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legkit import classify
from legkit import foliation
from legkit import fronts as fr
from legkit import lifting as lf
from legkit import render
from legkit import trees
from legkit.errors import (
    BadDirection,
    BadLocator,
    InvalidPosition,
    LegkitError,
    NoZigzag,
    NotClosed,
    OpenDiagram,
    ParseError,
    SingleComponent,
)
from test_lifting import ref_sample
from test_render import nest

BASIC = "L 1\nR 1"
STABILIZED = "L 1\nL 1\nR 2\nR 1"
EYE_X = "L 1\nX 1\nR 1"
NESTED = "L 1\nL 2\nR 2\nR 1"
CLASP = "L 1\nL 2\nX 1\nX 1\nR 2\nR 1"
CANCEL = "L 1\nL 2\nX 1\nX 2\nR 1\nR 1"


# an event-like record that is not a FrontEvent, so it skipped FrontEvent's checks
Event = namedtuple("Event", "kind position")


def oriented(text):
    return fr.OrientedFront.default(fr.parse_front(text))


def former_parse_front(text):
    """The former parse_front: every line split and converted with int()."""
    events, overrides = [], []
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "orient":
            if len(parts) != 3 or parts[2] not in ("+", "-"):
                raise ParseError(f"bad orient line {raw!r}", line=ln)
            try:
                comp = int(parts[1])
            except ValueError:
                raise ParseError(f"bad component index {parts[1]!r}", line=ln) from None
            overrides.append((comp, 1 if parts[2] == "+" else -1))
            continue
        if len(parts) != 2 or parts[0] not in ("L", "R", "X"):
            raise ParseError(f"malformed event line {raw!r}", line=ln)
        try:
            pos = int(parts[1])
        except ValueError:
            raise ParseError(f"bad position {parts[1]!r}", line=ln) from None
        if pos < 1:
            raise InvalidPosition(f"line {ln}: position {pos} must be >= 1")
        events.append(fr.FrontEvent(parts[0], pos))
    if not events:
        raise ParseError("empty diagram has no component")
    return fr.FrontDiagram(tuple(events), tuple(overrides))


def parsed(parse, text):
    """The diagram, or the error's type, line and message."""
    try:
        return parse(text)
    except LegkitError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


# lines that both parsers reject
MALFORMED = ["Q 3", "L", "L 1 2", "L x", "X 1.5", "L 0", "R -2", "R --1", "L -", "orient 0",
             "orient x -", "orient 0 *", "orient 1 - extra", "# only a comment\nR"]


@st.composite
def front_texts(draw):
    """The text of a random closed front whose event lines repeat, with
    trailing comments, blank lines, orient lines and sometimes one injected
    malformed line or one event at an out-of-range position."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = fr.random_closed_front(rng, draw(st.integers(2, 60)))
    k = fr.trace_components(d).n_components
    lines = []
    for ev in d.events:
        lines.append(rng.choice([f"{ev}", f"{ev}  # note", f"  {ev.kind}\t{ev.position} "]))
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "   ", "# a comment"]))
        if rng.random() < 0.1:
            lines.append(f"orient {rng.randint(0, k)} {rng.choice('+-')}")
    fault = draw(st.sampled_from(["none", "none", "malformed", "range"]))
    at = draw(st.integers(0, len(lines)))
    if fault == "malformed":
        lines.insert(at, draw(st.sampled_from(MALFORMED)))
    elif fault == "range":
        lines.insert(at, draw(st.sampled_from(["L 9", "R 7", "X 40", "R 1"])))
    return "\n".join(lines)


def reference_trace(d):
    """The former trace: arcs rebuilt at each death, a constraint graph in
    which cusps flip direction and crossings keep it, and a DFS over it.
    Returns (component_of, directions)."""
    born, died, cusps, crossings, stack = [], {}, [], [], []
    for j, ev in enumerate(d.events):
        p = ev.position
        if ev.kind == fr.LEFT:
            lo, hi = len(born), len(born) + 1
            born += [j, j]
            stack[p - 1 : p - 1] = [lo, hi]
            cusps.append((lo, hi))
        elif ev.kind == fr.RIGHT:
            lo, hi = stack[p - 1], stack[p]
            del stack[p - 1 : p + 1]
            died[lo] = died[hi] = j
            cusps.append((lo, hi))
        else:
            a, b = stack[p - 1], stack[p]
            died[a] = died[b] = j
            c, dd = len(born), len(born) + 1
            born += [j, j]
            stack[p - 1], stack[p] = c, dd
            crossings.append((a, b, c, dd))
    n = len(born)
    adj = [[] for _ in range(n)]
    for lo, hi in cusps:
        adj[lo].append((hi, True))
        adj[hi].append((lo, True))
    for a, b, c, dd in crossings:
        for u, v in ((a, dd), (b, c)):
            adj[u].append((v, False))
            adj[v].append((u, False))
    component_of, dirs, k = [-1] * n, [True] * n, 0
    for anchor in range(n):
        if component_of[anchor] >= 0:
            continue
        component_of[anchor] = k
        frontier = [anchor]
        while frontier:
            u = frontier.pop()
            for v, flip in adj[u]:
                want = dirs[u] != flip
                if component_of[v] < 0:
                    component_of[v], dirs[v] = k, want
                    frontier.append(v)
                assert dirs[v] == want
        k += 1
    return tuple(component_of), tuple(dirs)


def reference_records(d):
    """Every trace record as a dict keyed by field name, from a test-local
    replay of the stack: {"arcs": [...], "cusps": [...], "crossings": [...]}."""
    born, roles, died, stack, cusps, crossings = [], [], {}, [], [], []
    for j, ev in enumerate(d.events):
        p = ev.position
        if ev.kind == fr.RIGHT:
            lo, hi = stack[p - 1], stack[p]
            del stack[p - 1 : p + 1]
            died[lo] = died[hi] = j
            cusps.append(dict(event=j, kind=fr.RIGHT, lower=lo, upper=hi))
            continue
        lo, hi = len(born), len(born) + 1
        born += [j, j]
        roles += [0, 1]
        if ev.kind == fr.LEFT:
            stack[p - 1 : p - 1] = [lo, hi]
            cusps.append(dict(event=j, kind=fr.LEFT, lower=lo, upper=hi))
        else:
            a, b = stack[p - 1], stack[p]
            died[a] = died[b] = j
            stack[p - 1], stack[p] = lo, hi
            crossings.append(dict(event=j, in_lower=a, in_upper=b, out_lower=lo, out_upper=hi))
    arcs = [dict(index=a, born=born[a], role=roles[a], died=died[a]) for a in range(len(born))]
    return {"arcs": arcs, "cusps": cusps, "crossings": crossings}


FormerTrace = namedtuple("FormerTrace", "arcs component_of n_components cusps crossings "
                                        "directions cycles")


def former_decompose(events):
    """The former eager trace: the same stack scan and cycle walk, with every
    Arc, CuspRecord and CrossingRecord made at once."""
    born, died, join, cusps, crossings, stack = [], [], [], [], [], []
    for j, (kind, p) in enumerate(events):
        if kind == fr.RIGHT:
            lo, hi = stack[p - 1], stack[p]
            del stack[p - 1 : p + 1]
            died[lo] = died[hi] = j
            join[2 * lo + 1], join[2 * hi + 1] = 2 * hi + 1, 2 * lo + 1
            cusps += (j, fr.RIGHT, lo, hi)
        else:
            lo, hi = len(born), len(born) + 1
            born += (j, j)
            died += (-1, -1)
            join += (-1, -1, -1, -1)
            if kind == fr.LEFT:
                stack[p - 1 : p - 1] = [lo, hi]
                join[2 * lo], join[2 * hi] = 2 * hi, 2 * lo
                cusps += (j, fr.LEFT, lo, hi)
            else:
                a, b = stack[p - 1], stack[p]
                died[a] = died[b] = j
                join[2 * a + 1], join[2 * hi] = 2 * hi, 2 * a + 1
                join[2 * b + 1], join[2 * lo] = 2 * lo, 2 * b + 1
                stack[p - 1], stack[p] = lo, hi
                crossings += (j, a, b, lo, hi)
    n = len(born)
    component_of, dirs, cycles = [-1] * n, [True] * n, []
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
    return FormerTrace(
        arcs=tuple(map(tuple.__new__, repeat(fr.Arc), zip(range(n), born, (0, 1) * (n // 2), died))),
        component_of=tuple(component_of),
        n_components=len(cycles),
        cusps=tuple(map(tuple.__new__, repeat(fr.CuspRecord), zip(*[iter(cusps)] * 4))),
        crossings=tuple(map(tuple.__new__, repeat(fr.CrossingRecord), zip(*[iter(crossings)] * 5))),
        directions=tuple(dirs),
        cycles=tuple(cycles),
    )


def columns(records, width):
    """The ``width`` columns of a tuple of records."""
    return tuple(tuple(rec[k] for rec in records) for k in range(width))


def check_former(d):
    """d's trace reads as former_decompose's, record types included, its
    columns hold the former records' fields, and its record sequences index
    and compare as the former tuples."""
    tr, want = fr.trace_components(d), former_decompose(d.events)
    for name, value in want._asdict().items():
        assert getattr(tr, name) == value, name
    assert (tr.born, tr.died) == columns(want.arcs, 4)[1::2]
    assert (tr.cusp_event, tr.cusp_kind, tr.cusp_lower, tr.cusp_upper) == columns(want.cusps, 4)
    assert (tr.crossing_event, tr.in_lower, tr.in_upper, tr.out_lower,
            tr.out_upper) == columns(want.crossings, 5)
    for got, typ in ((tr.arcs, fr.Arc), (tr.cusps, fr.CuspRecord),
                     (tr.crossings, fr.CrossingRecord)):
        assert {type(rec) for rec in got} <= {typ}
        assert tuple(got) == got and (got[-1:] == tuple(got)[-1:])


# The former per-record rules, now applied inline by the tallies and
# linking_matrix.


def cusp_kappa(of, cusp):
    """kappa = +1 iff the ray emanating from the cusp lies above the entering ray."""
    dirs = of.directions
    if cusp.kind == fr.LEFT:
        # emanating ray = the rightward arc
        return 1 if dirs[cusp.upper] else -1
    # right cusp: emanating ray = the leftward arc
    return 1 if dirs[cusp.lower] else -1


def crossing_or(of, crossing):
    """or = +1 iff the two emanating rays leave on opposite sides of the vertical."""
    dirs = of.directions
    return 1 if dirs[crossing.in_lower] != dirs[crossing.in_upper] else -1


def crossing_sign(of, crossing):
    """Knot-theoretic crossing sign; equals -or under the lesser-slope-over rule.

    With contact form dz - y dx the over-strand at a front crossing is the
    branch of lesser slope (smaller y, nearer the viewer at y = -infinity).
    det[t_over, t_under] = d_over * d_under * (y_under - y_over) with
    y_under > y_over, so the sign is +1 exactly when both strands run the
    same horizontal way, i.e. -or.
    """
    return -crossing_or(of, crossing)


# The former per-component generator sums: k components cost k passes over
# the crossings or cusps; the library tallies every component in one pass.


def reference_thurston_bennequin(of, comp=0):
    tr = of.trace
    cof = tr.component_of
    or_sum = sum(
        crossing_or(of, x)
        for x in tr.crossings
        if cof[x.in_lower] == comp and cof[x.in_upper] == comp
    )
    n_cusps = sum(1 for c in tr.cusps if cof[c.lower] == comp)
    assert n_cusps % 2 == 0
    return -or_sum - n_cusps // 2


def reference_rotation_number(of, comp=0):
    tr = of.trace
    total = sum(cusp_kappa(of, c) for c in tr.cusps if tr.component_of[c.lower] == comp)
    assert total % 2 == 0
    return total // 2


def reference_linking_matrix(of):
    tr = of.trace
    cof, k = tr.component_of, tr.n_components
    return [[None if i == j else sum(crossing_sign(of, x) for x in tr.crossings
                                     if {cof[x.in_lower], cof[x.in_upper]} == {i, j}) // 2
             for j in range(k)] for i in range(k)]


def reference_traversal(tr, comp, dirs):
    """The lift's former partner walk: the ordered (arc, rightward) cycle of
    one component, from its lowest arc."""
    partner = {}
    for c in tr.cusps:
        end = "born" if c.kind == fr.LEFT else "died"
        partner[(c.lower, end)] = (c.upper, end)
        partner[(c.upper, end)] = (c.lower, end)
    for x in tr.crossings:
        for a, b in ((x.in_lower, x.out_upper), (x.in_upper, x.out_lower)):
            partner[(a, "died")] = (b, "born")
            partner[(b, "born")] = (a, "died")
    start = tr.component_of.index(comp)
    walk = []
    arc, rightward = start, dirs[start]
    while True:
        walk.append((arc, rightward))
        arc, end = partner[(arc, "died" if rightward else "born")]
        rightward = end == "born"
        if arc == start and rightward == dirs[start]:
            return walk


def reference_lift(rf, comp, of, n):
    """legendrian_lift at n samples per arc over the former partner walk:
    each arc's samples (``ref_sample``), backwards on a leftward arc, less
    the last, which is where the next arc starts."""
    xs, ys, zs = [], [], []
    for arc, rightward in reference_traversal(rf.trace, comp, of.directions):
        x, z, y = (a if rightward else a[::-1] for a in ref_sample(rf.curves[arc], n))
        xs.append(x[:-1])
        ys.append(y[:-1])
        zs.append(z[:-1])
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(zs)


# The former readers of the trace's stack snapshots, each over a test-local
# replay of the stack; the library now reads the event records instead.


def reference_stacks(d):
    """stacks[j] = the arc ids, bottom to top, after j events."""
    stack, stacks, made = [], [()], 0
    for ev in d.events:
        p = ev.position
        if ev.kind == fr.RIGHT:
            del stack[p - 1 : p + 1]
        else:
            stack[p - 1 : p - 1 if ev.kind == fr.LEFT else p + 1] = [made, made + 1]
            made += 2
        stacks.append(tuple(stack))
    return stacks


def reference_insert_zigzag(d, arc, direction):
    if direction not in (fr.UP, fr.DOWN):
        raise BadDirection(f"direction must be 'up' or 'down', got {direction!r}")
    tr = fr.trace_components(d)
    if not 0 <= arc < len(tr.arcs):
        raise BadLocator(f"no arc {arc} (diagram has {len(tr.arcs)} arcs)")
    slot = tr.arcs[arc].born + 1
    p = reference_stacks(d)[slot].index(arc) + 1
    if (direction == fr.UP) == tr.directions[arc]:
        kink = [fr.FrontEvent(fr.LEFT, p + 1), fr.FrontEvent(fr.RIGHT, p)]  # option B
    else:
        kink = [fr.FrontEvent(fr.LEFT, p), fr.FrontEvent(fr.RIGHT, p + 1)]  # option A
    events = list(d.events)
    events[slot:slot] = kink
    return fr.FrontDiagram(tuple(events))


def reference_find_zigzags(d):
    tr = fr.trace_components(d)
    stacks = reference_stacks(d)
    by_birth = {}
    for a in tr.arcs:
        by_birth.setdefault(a.born, {})[a.role] = a.index
    out = []
    for i in range(len(d.events) - 1):
        e1, e2 = d.events[i], d.events[i + 1]
        if e1.kind != fr.LEFT or e2.kind != fr.RIGHT:
            continue
        lo, hi = by_birth[i][0], by_birth[i][1]
        if e2.position == e1.position + 1:
            orig = stacks[i + 1][e2.position]
            if tr.arcs[hi].died == i + 1 and tr.arcs[orig].died == i + 1:
                out.append(fr.Zigzag(event=i, option="A", carrier_in=orig, carrier_out=lo,
                                     kink_arcs=(lo, hi)))
        elif e2.position == e1.position - 1:
            orig = stacks[i + 1][e2.position - 1]
            if tr.arcs[lo].died == i + 1 and tr.arcs[orig].died == i + 1:
                out.append(fr.Zigzag(event=i, option="B", carrier_in=orig, carrier_out=hi,
                                     kink_arcs=(lo, hi)))
    return out


def reference_displace_zigzag(d, from_arc, to_arc):
    """Delete the zig-zag, re-trace, find the target by (birth, role), insert."""
    tr = fr.trace_components(d)
    if not 0 <= from_arc < len(tr.arcs) or not 0 <= to_arc < len(tr.arcs):
        raise BadLocator("arc locator out of range")
    zigs = [z for z in reference_find_zigzags(d)
            if from_arc in z.kink_arcs or from_arc in (z.carrier_in, z.carrier_out)]
    if not zigs:
        raise NoZigzag(f"arc {from_arc} carries no zig-zag")
    z = zigs[0]
    if to_arc in z.kink_arcs or to_arc in (z.carrier_in, z.carrier_out):
        raise BadLocator("target arc is part of the zig-zag being moved")
    direction = fr.zigzag_direction(d, z)
    events = list(d.events)
    del events[z.event : z.event + 2]
    reduced = fr.FrontDiagram(tuple(events))
    tgt = tr.arcs[to_arc]
    born = tgt.born if tgt.born < z.event else tgt.born - 2
    matches = [a.index for a in fr.trace_components(reduced).arcs
               if a.born == born and a.role == tgt.role]
    if not matches:
        raise BadLocator("target arc does not survive zig-zag removal")
    return reference_insert_zigzag(reduced, matches[0], direction)


def reference_realize_curves(d):
    """realize_front's curves from a (slot, position) level dict and a
    search of the stack snapshots for each slot knot: strand spacing 1,
    crossing slopes +-1/2, cusp reach 0.3."""
    tr = fr.trace_components(d)
    stacks = reference_stacks(d)
    lv = {}
    for j, stack in enumerate(stacks):
        n = len(stack)
        for p in range(1, n + 1):
            lv[(j, p)] = p - (n + 1) / 2.0

    def endpoint(a, born):
        k = a.born if born else a.died
        ev, slot = d.events[k], k + 1 if born else k
        z = (lv[(slot, ev.position)] + lv[(slot, ev.position + 1)]) / 2
        if ev.kind != fr.CROSS:
            return float(k + 1), z, 0.0, True
        up = a.role == 1 if born else stacks[k][ev.position - 1] == a.index
        return float(k + 1), z, 0.5 if up else -0.5, False

    curves = []
    for a in tr.arcs:
        x0, z0, s0, cusp0 = endpoint(a, True)
        x1, z1, s1, cusp1 = endpoint(a, False)
        pts = [(x0, z0), *((j + 0.5, lv[(j, stacks[j].index(a.index) + 1)])
                           for j in range(a.born + 1, a.died + 1)), (x1, z1)]
        head, tail = (x0, z0, s0), (x1, z1, s1)
        pieces = []
        if cusp0:
            head = render._cusp_end(x0, z0, *pts[1])
            pieces.append(render._cusp_piece(x0, z0, *head[:2]))
        if cusp1:
            tail = render._cusp_end(x1, z1, *pts[-2])
        chain = [head, *((ax, az, (zn - zp) / (xn - xp))
                         for (xp, zp), (ax, az), (xn, zn) in zip(pts, pts[1:], pts[2:])), tail]
        for (xa, za, sa), (xb, zb, sb) in zip(chain, chain[1:]):
            dx = xb - xa
            pieces.append(render.CubicPiece(render._hermite(xa, dx, xb, dx),
                                            render._hermite(za, sa * dx, zb, sb * dx)))
        if cusp1:
            pieces.append(render._cusp_piece(x1, z1, *tail[:2], reverse=True))
        curves.append(tuple(pieces))
    return tuple(curves)


def reference_render_ascii(d):
    """render_ascii over per-slot level dicts of the stack snapshots."""
    stacks = reference_stacks(d)
    m, cell = len(d.events), 4
    levels = [{p: 2 * p - (len(s) + 1) for p in range(1, len(s) + 1)} for s in stacks]
    all_levels = [v for lv in levels for v in lv.values()]
    top, bot = max(all_levels + [1]), min(all_levels + [-1])
    grid = [[" "] * (cell * (m + 1) + 4) for _ in range(top - bot + 1)]
    for j in range(1, m + 1):
        for lv in levels[j].values():
            for c in range(cell * j + 2, cell * j + 5):
                grid[top - lv][c] = "-"
    for k, ev in enumerate(d.events):
        col = cell * (k + 1) + 1
        if ev.kind == fr.LEFT:
            grid[top - (2 * ev.position - len(stacks[k + 1]))][col] = "<"
        elif ev.kind == fr.RIGHT:
            grid[top - (2 * ev.position - len(stacks[k]))][col] = ">"
        else:
            mid = 2 * ev.position - len(stacks[k])
            grid[top - mid][col] = "X"
            lo, hi = top - (mid - 1), top - (mid + 1)
            grid[hi][col - 1], grid[lo][col - 1] = "\\", "/"
            grid[hi][col + 1], grid[lo][col + 1] = "/", "\\"
    return "\n".join("".join(r).rstrip() for r in grid if "".join(r).strip())


def outcome(f, *args):
    """f(*args), or the type of the legkit error it raises."""
    try:
        return f(*args)
    except LegkitError as exc:
        return type(exc)


def check_against_references(d):
    """Zig-zags, realization and ASCII sketch of d equal the references'."""
    assert fr.find_zigzags(d) == reference_find_zigzags(d)
    assert render.realize_front(d).curves == reference_realize_curves(d)
    assert render.render_ascii(d) == reference_render_ascii(d)


class TestParsing:
    def test_basic_roundtrip(self):
        d = fr.parse_front(BASIC)
        assert len(d.events) == 2
        assert d.strand_profile == (0, 2, 0)
        assert fr.serialize_front(d) == BASIC

    def test_comments_and_blank_lines(self):
        d = fr.parse_front("# a comment\n\nL 1  # trailing\nR 1\n")
        assert fr.serialize_front(d) == BASIC

    def test_orient_lines(self):
        d = fr.parse_front("L 1\nR 1\norient 0 -")
        assert d.orient_overrides == ((0, -1),)
        of = fr.OrientedFront.default(d)
        assert of.reversed_components == frozenset({0})

    def test_last_orient_line_wins(self):
        d = fr.parse_front("L 1\nR 1\norient 0 -\norient 0 +")
        assert fr.OrientedFront.default(d).reversed_components == frozenset()

    def test_orient_line_needs_existing_component(self):
        d = fr.parse_front("L 1\nR 1\norient 7 -")
        with pytest.raises(NotClosed):
            fr.OrientedFront.default(d)

    def test_orient_plus_line_needs_existing_component(self):
        # a "+" line reverses nothing, but it must still name a component
        d = fr.parse_front("L 1\nR 1\norient 5 +")
        with pytest.raises(NotClosed, match="no component 5"):
            fr.OrientedFront.default(d)

    @pytest.mark.parametrize("position", [True, 1.5, "1"])
    def test_event_position_must_be_int(self, position):
        with pytest.raises(InvalidPosition):
            fr.FrontEvent("L", position)

    def test_unknown_event_kind(self):
        with pytest.raises(ParseError):
            fr.FrontEvent("Q", 1)

    def test_first_left_cusp_must_be_position_one(self):
        with pytest.raises(InvalidPosition):
            fr.parse_front("L 2")

    def test_open_diagram_rejected(self):
        with pytest.raises(OpenDiagram):
            fr.parse_front("L 1")

    def test_malformed_line(self):
        with pytest.raises(ParseError) as exc:
            fr.parse_front("L 1\nQ 3\nR 1")
        assert exc.value.line == 2

    def test_empty_diagram_rejected(self):
        with pytest.raises(ParseError):
            fr.parse_front("# nothing\n")
        with pytest.raises(ParseError) as exc:
            fr.parse_front("# nothing\norient 0 +\n")
        assert str(exc.value) == "empty diagram has no component" and exc.value.line is None

    def test_crossing_needs_two_strands(self):
        with pytest.raises(InvalidPosition):
            fr.parse_front("L 1\nX 2\nR 1")

    # int() alone takes a sign, underscores, whitespace-free other scripts'
    # digits and full-width digits
    @pytest.mark.parametrize("text, line", [
        ("L +1\nR 1", 1), ("L 1\nR 0_1", 2), ("L 1\nR \u0661", 2), ("L \uff11\nR 1", 1),
        ("L 1\nR 1\norient +0 -", 3), ("L 1\nR 1\norient 0_0 -", 3),
        ("L 1\nR 1\norient \u0660 +", 3), ("L 1\nL 1\nR +1\nR 1", 3),
    ])
    def test_integers_are_ascii_digits(self, text, line):
        with pytest.raises(ParseError) as exc:
            fr.parse_front(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("position", ["0", "-3", "-0", "00"])
    def test_position_below_one_is_invalid(self, position):
        with pytest.raises(InvalidPosition, match="line 2"):
            fr.parse_front(f"L 1\nR {position}\nR 1")

    def test_leading_zeros_and_negative_component(self):
        d = fr.parse_front("L 01\nR 001\norient -2 -")
        assert d == fr.FrontDiagram((fr.FrontEvent("L", 1), fr.FrontEvent("R", 1)), ((-2, -1),))

    @settings(max_examples=200, deadline=None)
    @given(front_texts())
    def test_matches_former_parser(self, text):
        got = parsed(fr.parse_front, text)
        assert got == parsed(former_parse_front, text)
        if isinstance(got, fr.FrontDiagram):
            assert got.orient_overrides == former_parse_front(text).orient_overrides
            # each repeat of an event line gives the same event object
            event_lines = [ln for ln in text.splitlines()
                           if ln.split("#")[0].split()[:1] not in ([], ["orient"])]
            first = {}
            for ln, ev in zip(event_lines, got.events, strict=True):
                assert first.setdefault(ln, ev) is ev

    def test_valid_line_repeats_after_a_failing_line(self):
        # the failing line is remembered by no call: the same valid line
        # parses before it, and in the next call after it
        bad = "L 1\nL 1\nR 2\nL +1\nR 1"
        with pytest.raises(ParseError) as exc:
            fr.parse_front(bad)
        assert exc.value.line == 4
        good = "L 1\nL 1\nR 2\nR 1\nL 1\nR 1  # again\nL 1\nR 1"
        assert fr.parse_front(good) == former_parse_front(good)
        with pytest.raises(InvalidPosition, match="line 5"):
            fr.parse_front("L 1\nR 1\nL 1\nR 1\nR 0\nL 1\nR 1")

    # each distinct line is parsed once, and a line number found only for the
    # line that raises: it must still be the first bad line's
    MALFORMED_CORPUS = [
        "L 1\nL x\nL 1\nL x\nL x\nR 1",  # a bad line, then repeats of it
        "L 1\nR 1\nL 1\nR 1\nR 1",  # a line out of range after repeats of itself
        "L 1\nL 1\nR 2\nR 1\nL 1\nL -\nR 1",  # bad line 6 after five good lines
        "L 1\nL 1\nR 2\nR 1\n" * 40 + "R 0\nR 0",  # below one, after many repeats
        "L 1\nX 1.5\nL 2\nR x\nX 1.5\nR 1",  # two different bad lines
        "L 1\nR x\nL 2\nX 1.5\nR x",
        "L 1\norient 0 -\nR 1\norient 0 -\norient 0 *\norient 0 *",
        "L 1\norient 0 -\nR 1\norient 0 -\norient 0 +\norient 0 -",  # repeated orient lines
        "# a comment\n\nL 1  # cusp\n   \nL 1\nR 2\n# a comment\nR 1\n\nL 1\nQ 1",
        "L 1\r\nL 1\r\nR 2\r\n\r\nR 1\r\nR 1 2\r\n",  # CRLF
        "L 1\r\nL 1\r\nR 2\r\n# note\r\nR 1\r\norient 0 -\r\n",
        "L 1\nL 1\nR 2\nR 1\nL 1\nL 3\nR 1\nR 1",  # a position out of range
        "L 1\nL 2\nR 1\nL 1\nL 2\nR 1",  # open
    ]

    @pytest.mark.parametrize("text", MALFORMED_CORPUS)
    def test_malformed_corpus_matches_former_parser(self, text):
        got = parsed(fr.parse_front, text)
        assert got == parsed(former_parse_front, text)
        if isinstance(got, fr.FrontDiagram):
            assert got.orient_overrides == former_parse_front(text).orient_overrides


class TestTrace:
    def test_basic_two_arcs(self):
        tr = fr.trace_components(fr.parse_front(BASIC))
        assert tr.n_components == 1
        assert len(tr.arcs) == 2

    def test_stabilized_single_component_four_arcs(self):
        tr = fr.trace_components(fr.parse_front(STABILIZED))
        assert tr.n_components == 1
        assert len(tr.arcs) == 4

    def test_nested_eyes_two_components(self):
        tr = fr.trace_components(fr.parse_front(NESTED))
        assert tr.n_components == 2

    def test_merging_right_cusp_is_legal(self):
        # R capping strands of two different components merges them
        d = fr.parse_front("L 1\nL 3\nX 2\nR 2\nR 1")
        assert fr.trace_components(d).n_components == 1


class TestInvariants:
    def test_basic_front(self):
        assert fr.invariant_pair(oriented(BASIC)) == (-1, 0)

    def test_stabilized_front(self):
        of = oriented(STABILIZED)
        assert fr.thurston_bennequin(of) == -2
        assert fr.rotation_number(of) in (-1, 1)

    def test_eye_with_crossing(self):
        of = oriented(EYE_X)
        assert fr.thurston_bennequin(of) == -2
        assert abs(fr.rotation_number(of)) == 1

    def test_tb_orientation_independent_r_negates(self):
        of = oriented(STABILIZED)
        rev = of.reverse(0)
        assert fr.thurston_bennequin(rev) == fr.thurston_bennequin(of)
        assert fr.rotation_number(rev) == -fr.rotation_number(of)

    def test_bad_component(self):
        with pytest.raises(NotClosed):
            fr.thurston_bennequin(oriented(BASIC), 5)

    def test_transverse_self_linking(self):
        of = oriented(BASIC)
        assert fr.transverse_self_linking(of, 0, "+") == -1
        st = oriented(STABILIZED)
        tb, r = fr.invariant_pair(st)
        assert fr.transverse_self_linking(st, 0, "+") == tb - r
        # reversal symmetry: minus pushoff = plus pushoff of the reverse
        assert fr.transverse_self_linking(st, 0, "-") == fr.transverse_self_linking(
            st.reverse(0), 0, "+"
        )

    def test_bad_pushoff(self):
        with pytest.raises(BadDirection, match="pushoff"):
            fr.transverse_self_linking(oriented(BASIC), 0, "up")


class TestLinking:
    def test_disjoint_eyes_link_zero(self):
        lk = fr.linking_matrix(oriented(NESTED))
        assert lk[0][1] == lk[1][0] == 0
        assert lk[0][0] is None

    def test_clasp_links_once(self):
        of = oriented(CLASP)
        assert of.trace.n_components == 2
        lk = fr.linking_matrix(of)
        assert lk[0][1] == 1

    def test_cancelling_crossings(self):
        of = oriented(CANCEL)
        assert of.trace.n_components == 2
        assert fr.linking_matrix(of)[0][1] == 0

    def test_single_component_rejected(self):
        with pytest.raises(SingleComponent):
            fr.linking_matrix(oriented(BASIC))

    def test_symmetry_and_integrality_fuzz(self):
        rng = random.Random(4242)
        found = 0
        while found < 40:
            d = fr.random_closed_front(rng, 20)
            of = fr.OrientedFront.default(d)
            if of.trace.n_components < 2:
                continue
            lk = fr.linking_matrix(of)  # integrality asserted internally
            k = of.trace.n_components
            for i in range(k):
                for j in range(k):
                    if i != j:
                        assert lk[i][j] == lk[j][i]
            found += 1


class TestParityChecks:
    """Parity checks on a trace raise typed errors, so they hold under ``python -O``."""

    CUSPS = ("cusp_event", "cusp_kind", "cusp_lower", "cusp_upper")
    CROSSINGS = ("crossing_event", "in_lower", "in_upper", "out_lower", "out_upper")

    @staticmethod
    def trimmed(monkeypatch, text, columns, n):
        """The oriented front of ``text`` whose trace keeps only the first
        ``n`` entries of each named column."""
        d = fr.parse_front(text)
        real = fr.trace_components(d)
        trace = replace(real, **{k: getattr(real, k)[:n] for k in columns})
        monkeypatch.setattr(fr, "trace_components", lambda diagram: trace)
        return fr.OrientedFront.default(d)

    def test_odd_cusp_count(self, monkeypatch):
        of = self.trimmed(monkeypatch, BASIC, self.CUSPS, 1)
        with pytest.raises(NotClosed, match="odd cusp count"):
            fr.thurston_bennequin(of)

    def test_odd_rotation(self, monkeypatch):
        of = self.trimmed(monkeypatch, BASIC, self.CUSPS, 1)
        with pytest.raises(NotClosed, match="odd signed cusp count"):
            fr.rotation_number(of)

    def test_odd_linking_sum(self, monkeypatch):
        of = self.trimmed(monkeypatch, CLASP, self.CROSSINGS, 1)
        with pytest.raises(NotClosed, match="odd crossing-sign sum"):
            fr.linking_matrix(of)


class TestIndicesAreInts:
    """A component or arc index that is not an int (a bool included) raises
    a typed error, and is never read as the int it equals."""

    @pytest.mark.parametrize("comp", [True, 1.0, "0", None], ids=repr)
    def test_invariant_pair_component(self, comp):
        with pytest.raises(NotClosed, match="no component"):
            fr.invariant_pair(oriented(CLASP), comp)

    @pytest.mark.parametrize("comp", [True, 1.0, "x"], ids=repr)
    def test_reversed_component(self, comp):
        with pytest.raises(NotClosed, match="no component .* to reverse"):
            fr.OrientedFront(fr.parse_front(CLASP), frozenset({comp}))

    @pytest.mark.parametrize("arc", [True, 1.0, "1"], ids=repr)
    def test_insert_zigzag_arc(self, arc):
        with pytest.raises(BadLocator, match="no arc"):
            fr.insert_zigzag(fr.parse_front(BASIC), arc, "up")

    @pytest.mark.parametrize("from_arc, to_arc", [(2.0, 1), (2, 1.0)])
    def test_displace_zigzag_arcs(self, from_arc, to_arc):
        d = fr.insert_zigzag(fr.parse_front(BASIC), 0, "down")  # kink arcs 2 and 3
        moved = fr.displace_zigzag(d, 2, 1)
        assert fr.invariant_pair(fr.OrientedFront.default(moved)) == (-2, -1)
        with pytest.raises(BadLocator, match="no arc"):
            fr.displace_zigzag(d, from_arc, to_arc)


class TestRangeOracles:
    @pytest.mark.parametrize(
        "tb,r,expect",
        [(-1, 0, True), (1, 0, False), (-3, 2, True)],
    )
    def test_bennequin(self, tb, r, expect):
        assert fr.check_bennequin(tb, r) is expect

    def test_parity(self):
        assert fr.check_parity(-1, 0)
        assert not fr.check_parity(-2, 0)
        assert fr.check_parity(-3, 2)

    def test_unknot_range(self):
        assert fr.in_unknot_range(-1, 0)
        assert not fr.in_unknot_range(-2, 0)
        assert fr.in_unknot_range(-3, 2)
        assert not fr.in_unknot_range(-1, 2)


class TestZigzag:
    def test_insert_down_on_basic(self):
        d = fr.parse_front(BASIC)
        d2 = fr.insert_zigzag(d, 0, "down")
        assert fr.invariant_pair(fr.OrientedFront.default(d2)) == (-2, -1)

    def test_insert_up_then_down(self):
        d = fr.parse_front(BASIC)
        d2 = fr.insert_zigzag(fr.insert_zigzag(d, 0, "up"), 0, "down")
        assert fr.invariant_pair(fr.OrientedFront.default(d2)) == (-3, 0)

    def test_bad_locator(self):
        with pytest.raises(BadLocator):
            fr.insert_zigzag(fr.parse_front(BASIC), 99, "up")

    def test_bad_direction(self):
        with pytest.raises(BadDirection, match="direction"):
            fr.insert_zigzag(fr.parse_front(BASIC), 0, "+")

    def test_displace_preserves_invariants(self):
        d = fr.insert_zigzag(fr.parse_front(EYE_X), 0, "down")
        inv = fr.invariant_pair(fr.OrientedFront.default(d))
        z = fr.find_zigzags(d)[0]
        tr = fr.trace_components(d)
        taken = set(z.kink_arcs) | {z.carrier_in, z.carrier_out}
        target = [a.index for a in tr.arcs if a.index not in taken][-1]
        moved = fr.displace_zigzag(d, z.kink_arcs[0], target)
        assert fr.invariant_pair(fr.OrientedFront.default(moved)) == inv

    def test_displace_needs_zigzag(self):
        with pytest.raises(NoZigzag):
            fr.displace_zigzag(fr.parse_front(EYE_X), 0, 1)


class TestProperties:
    def test_parity_fuzz(self):
        rng = random.Random(31337)
        for _ in range(300):
            d = fr.random_single_component_front(rng, 22)
            tb, r = fr.invariant_pair(fr.OrientedFront.default(d))
            assert (tb + r) % 2 == 1, fr.serialize_front(d)

    def test_roundtrip_fuzz(self):
        rng = random.Random(8080)
        for _ in range(200):
            d = fr.random_closed_front(rng, 24)
            assert fr.parse_front(fr.serialize_front(d)) == d

    def test_orientation_reversal_fuzz(self):
        rng = random.Random(5150)
        for _ in range(100):
            d = fr.random_single_component_front(rng, 20)
            of = fr.OrientedFront.default(d)
            assert fr.thurston_bennequin(of.reverse(0)) == fr.thurston_bennequin(of)
            assert fr.rotation_number(of.reverse(0)) == -fr.rotation_number(of)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_directions_match_traversal_and_equal_diagrams_agree(self, seed, data):
        d = fr.random_closed_front(random.Random(seed), 40)
        k = fr.trace_components(d).n_components
        of = fr.OrientedFront(d, data.draw(st.frozensets(st.integers(0, k - 1))))
        # the former partner walk visits every arc once, in its direction
        walked = [step for c in range(k) for step in reference_traversal(of.trace, c, of.directions)]
        assert sorted(walked) == list(enumerate(of.directions))
        twin = fr.OrientedFront(fr.parse_front(fr.serialize_front(d)), of.reversed_components)
        assert twin.diagram == d and twin.diagram is not d
        for c in range(k):
            assert fr.invariant_pair(twin, c) == fr.invariant_pair(of, c)
        if k > 1:
            assert fr.linking_matrix(twin) == fr.linking_matrix(of)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 60))
    def test_trace_matches_reference_and_cycles_walk_every_arc(self, seed, size):
        d = fr.random_closed_front(random.Random(seed), size)
        tr = fr.trace_components(d)
        assert (tr.component_of, tr.directions) == reference_trace(d)
        # each cycle starts at its component's lowest arc, rightward, and
        # follows the former partner walk
        assert sorted(a for cycle in tr.cycles for a in cycle) == list(range(len(tr.arcs)))
        for c, cycle in enumerate(tr.cycles):
            assert cycle[0] == tr.component_of.index(c) and tr.directions[cycle[0]]
            assert list(cycle) == [a for a, _ in reference_traversal(tr, c, tr.directions)]
        for a in tr.arcs:
            assert (a.died > a.born, a.role) == (True, a.index % 2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_lift_matches_reference_under_reversals(self, seed, data):
        d = fr.random_closed_front(random.Random(seed), 30)
        k = fr.trace_components(d).n_components
        of = fr.OrientedFront(d, data.draw(st.frozensets(st.integers(0, k - 1))))
        rf = lf.realize_front(d)
        for c in range(k):
            lc = lf.legendrian_lift(rf, c, of, samples_per_arc=20)
            ref = reference_lift(rf, c, of, 20)
            for got, want in zip((lc.x, lc.y, lc.z), ref):
                assert np.array_equal(got, want)


def check_tallies(d, orientations):
    """invariant_pair of every component and linking_matrix equal the former
    per-component sums under each set of reversed components."""
    k = fr.trace_components(d).n_components
    for rev in orientations:
        of = fr.OrientedFront(d, rev)
        for c in range(k):
            want = (reference_thurston_bennequin(of, c), reference_rotation_number(of, c))
            assert fr.invariant_pair(of, c) == want
        if k > 1:
            assert fr.linking_matrix(of) == reference_linking_matrix(of)


def closed_fronts(max_events, max_crossings):
    """Every closed front of at most ``max_events`` events and at most
    ``max_crossings`` crossings whose strand count returns to zero only after
    its last event (a split front is two smaller ones side by side)."""
    out = []

    def grow(events, n, crossings):
        if n == 0 and events:
            out.append(fr.FrontDiagram(tuple(events)))
            return
        room = max_events - len(events)  # n / 2 right cusps must still fit
        if room >= n // 2 + 2:
            for p in range(1, n + 2):
                grow(events + [fr.FrontEvent(fr.LEFT, p)], n + 2, crossings)
        for p in range(1, n):
            grow(events + [fr.FrontEvent(fr.RIGHT, p)], n - 2, crossings)
            if crossings < max_crossings and room >= n // 2 + 1:
                grow(events + [fr.FrontEvent(fr.CROSS, p)], n, crossings + 1)

    grow([], 0, 0)
    return out


class TestSmallFrontsExhaustively:
    """Every closed front of at most 6 events and at most 2 crossings.

    A knot diagram with at most 2 crossings is an unknot, so each
    single-component one must have (tb, r) in the unknot range, with no tree
    involved.  The even rows are 1, 10 and 468 fronts, 172 of them single
    component; the odd rows carry one crossing.
    """

    def test_every_front(self):
        fronts = closed_fronts(6, 2)
        sizes = [len(d.events) for d in fronts]
        assert {k: sizes.count(k) for k in set(sizes)} == {2: 1, 3: 1, 4: 10, 5: 45, 6: 468}
        knots = []
        for d in fronts:
            assert fr.parse_front(fr.serialize_front(d)) == d
            check_former(d)
            tr = fr.trace_components(d)
            for name, want in reference_records(d).items():
                assert [rec._asdict() for rec in getattr(tr, name)] == want
            k = tr.n_components
            check_tallies(d, (frozenset(), frozenset(range(k))))
            if k == 1:
                knots.append(len(d.events))
                for rev in (frozenset(), frozenset({0})):
                    assert fr.in_unknot_range(*fr.invariant_pair(fr.OrientedFront(d, rev))), d
        assert {k: knots.count(k) for k in set(knots)} == {2: 1, 3: 1, 4: 5, 5: 26, 6: 166}


class TestRecordsAndTalliesMatchReferences:
    """Trace records are tuples, and tb and r come from one tally pass per
    orientation; both must agree with the former per-component sums."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 60), data=st.data())
    def test_random_fronts(self, seed, size, data):
        d = fr.random_closed_front(random.Random(seed), size)
        check_former(d)
        tr = fr.trace_components(d)
        for name, want in reference_records(d).items():
            got = getattr(tr, name)
            assert len(got) == len(want)
            assert [{f: getattr(rec, f) for f in w} for rec, w in zip(got, want)] == want
        k = tr.n_components
        # every component in both orientations, and a mixed orientation
        drawn = data.draw(st.frozensets(st.integers(0, k - 1)))
        check_tallies(d, (frozenset(), frozenset(range(k)), drawn))

    def test_multi_component_fronts(self):
        rng = random.Random(1818)
        seen = set()
        while len(seen) < 4:
            d = fr.random_closed_front(rng, 60)
            k = fr.trace_components(d).n_components
            seen.add(k)
            check_tallies(d, (frozenset(), frozenset(range(k)), frozenset(range(0, k, 2))))


class TestColumnsMatchFormerTrace:
    """The trace's columns, read as records, equal the former eager trace's
    records; ``len`` makes no record, and a copy leaves the records behind."""

    def test_catalog_fronts(self):
        for n in range(1, 14):
            for r in range(-(n - 1), n, 2):
                check_former(trees.catalog_front(-n, r))
        for r in (0, 300, -300, 640, -640):
            check_former(trees.catalog_front(-641, r))

    def test_nested_links(self):
        rng = random.Random(31)
        for _ in range(12):
            parts = [trees.catalog_front(-n, rng.choice(range(-(n - 1), n, 2)))
                     for n in (rng.randint(1, 9) for _ in range(rng.choice((2, 3))))]
            d = parts[-1]
            for outer in reversed(parts[:-1]):
                d = nest(outer, d)
            assert fr.trace_components(d).n_components == len(parts)
            check_former(d)

    def test_len_makes_no_record(self):
        tr = fr._decompose(trees.catalog_front(-41, 10).events)  # a fresh, unshared trace
        seqs = (tr.arcs, tr.cusps, tr.crossings)
        assert tuple(map(len, seqs)) == (len(tr.born), len(tr.cusp_event), len(tr.crossing_event))
        assert [seq._made for seq in seqs] == [None, None, None]
        first = tr.cusps[0]
        assert tr.cusps[0] is first and tr.cusps is seqs[1]  # made once, then reused
        assert tr.arcs._made is None and tr.crossings._made is None

    @pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy,
                                           copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_copies_leave_records_behind(self, roundtrip):
        tr = fr._decompose(trees.catalog_front(-9, 2).events)
        records = tuple(tr.arcs), tuple(tr.cusps), tuple(tr.crossings)  # made and kept on tr
        tr2 = roundtrip(tr)
        assert tr2 == tr and hash(tr2) == hash(tr) and tr2 is not tr
        assert set(vars(tr2)) == {f.name for f in fields(tr)}
        assert {"arcs", "cusps", "crossings"}.isdisjoint(vars(tr2))
        assert (tr2.arcs, tr2.cusps, tr2.crossings) == records
        assert tr2.arcs[0] is not records[0][0]


class TestRecordContracts:
    @pytest.mark.parametrize("position", [0, -3])
    def test_event_position_must_be_positive(self, position):
        with pytest.raises(InvalidPosition):
            fr.FrontEvent("L", position)

    def test_event_is_a_pair(self):
        ev = fr.FrontEvent("L", 1)
        assert repr(ev) == "FrontEvent(kind='L', position=1)"
        assert str(ev) == "L 1"
        assert ev == ("L", 1) and hash(ev) == hash(("L", 1))
        assert (ev.kind, ev.position) == ev

    @pytest.mark.parametrize("args, message", [
        (((("L", 1), ("R", 1)),), "event 1 .* is not a FrontEvent"),
        (([fr.FrontEvent("L", 1), fr.FrontEvent("R", 1)],), "must be tuples"),
        (((fr.FrontEvent("L", 1), fr.FrontEvent("R", 1)), [(0, -1)]), "must be tuples"),
        (((),), "^empty diagram has no component$"),
        (((), ((0, 1),)), "^empty diagram has no component$"),
        # read as a crossing, with (tb, r) = (-2, -1), and serialized to "Q 1"
        (((fr.FrontEvent("L", 1), Event("Q", 1), fr.FrontEvent("R", 1)),),
         r"^event 2 \(Event\(kind='Q', position=1\)\) is not a FrontEvent$"),
        (((Event("L", 1.0), fr.FrontEvent("R", 1)),), "event 1 .* is not a FrontEvent"),
        (((Event("L", True), fr.FrontEvent("R", 1)),), "event 1 .* is not a FrontEvent"),
    ], ids=["bare tuples", "event list", "override list", "no events", "orient only",
            "unknown kind", "float position", "bool position"])
    def test_diagram_of_unchecked_parts_is_rejected(self, args, message):
        # a bare tuple skips FrontEvent's checks; a list would fail on the first hash;
        # no events would fail to render and to round-trip through text
        with pytest.raises(ParseError, match=message):
            fr.FrontDiagram(*args)

    @pytest.mark.parametrize("override", [
        (0, 0),  # read r = 2, but serialized to "orient 0 -", which reparses with r = -2
        (0,),  # a bare ValueError
        ("0", 1),  # a bare TypeError
        (0, True),
        (False, -1),
        (0, 1.0),
        [0, 1],
    ], ids=["sign 0", "no sign", "str component", "bool sign", "bool component", "float sign",
            "list"])
    def test_malformed_orientation_override_is_rejected(self, override):
        with pytest.raises(ParseError, match="orientation override .* is not a"):
            fr.FrontDiagram(trees.catalog_front(-3, 2).events, (override,))

    def test_orientation_override_component_checked_where_applied(self):
        d = fr.FrontDiagram(trees.catalog_front(-3, 2).events, ((-1, 1),))
        with pytest.raises(NotClosed, match="no component -1"):
            fr.OrientedFront.default(d)
        d = fr.FrontDiagram(d.events, ((0, -1),))
        assert fr.invariant_pair(fr.OrientedFront.default(d)) == (-3, -2)
        assert fr.parse_front(fr.serialize_front(d)) == d

    def test_equal_diagrams_share_one_trace(self):
        a = fr.parse_front(CLASP)
        b = fr.FrontDiagram(tuple(fr.FrontEvent(k, p) for k, p in (
            ("L", 1), ("L", 2), ("X", 1), ("X", 1), ("R", 2), ("R", 1))))
        assert a == b and a is not b and a.events[0] is not b.events[0]
        assert hash(a) == hash(b)
        assert fr.trace_components(a) is fr.trace_components(b)

    @pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_pickle_and_deepcopy(self, roundtrip):
        d = trees.catalog_front(-7, 2)
        tr = fr.trace_components(d)
        d2, tr2 = roundtrip(d), roundtrip(tr)
        assert d2 == d and hash(d2) == hash(d)
        assert type(d2.events[0]) is fr.FrontEvent
        assert tr2 == tr and tr2 is not tr
        assert type(tr2.arcs[0]) is fr.Arc and type(tr2.cusps[0]) is fr.CuspRecord
        assert fr.trace_components(d2) is tr


def bowtie_report():
    x, y = np.array([(0, 0), (2, 2), (2, 0), (0, 2)], float).T
    return lf.lagrangian_embeddedness_check(lf.LiftedCurve(x, y, np.zeros_like(x)))


# Each value record of the library: its type, its fields in order and a
# maker of one instance.
VALUE_RECORDS = [
    (render.CubicPiece, ("cx", "cz"),
     lambda: render.realize_front(trees.catalog_front(-3, 2)).curves[0][0]),
    (render.RealizedFront, ("diagram", "curves"), lambda: render.realize_front(fr.parse_front(CLASP))),
    (lf.DoublePointReport, ("point", "area_one", "area_two", "flagged"),
     lambda: bowtie_report().double_points[0]),
    (lf.EmbeddednessReport, ("double_points", "tolerance"), bowtie_report),
    (fr.Zigzag, ("event", "option", "carrier_in", "carrier_out", "kink_arcs"),
     lambda: fr.find_zigzags(fr.parse_front(STABILIZED))[0]),
    (foliation.SkeletonTree, ("tree", "ids"), lambda: foliation.run_pipeline(-5, 2)[1]),
    (classify.ContactStructureTag, ("ambient", "hopf", "at_infinity"),
     lambda: classify.ContactStructureTag.overtwisted(-1, at_infinity=True)),
    (classify.ClassificationVerdict, ("status", "inputs", "representative", "citation", "detail"),
     lambda: classify.classify_tight_unknot((-3, 2), (-3, 2))),
    (classify.ComplementTorusData, ("n", "meridian", "singularity_slope", "pushoff_rotation_rule"),
     lambda: classify.complement_torus_data(3)),
]


@pytest.mark.parametrize("record_type, names, make", VALUE_RECORDS,
                         ids=[t.__name__ for t, _, _ in VALUE_RECORDS])
def test_value_record_contracts(record_type, names, make):
    """A record that only carries values is a NamedTuple: immutable, equal
    and hash-equal by value, and kept whole by pickle and copies."""
    rec = make()
    assert type(rec) is record_type and isinstance(rec, tuple) and rec._fields == names
    with pytest.raises(AttributeError):
        setattr(rec, names[0], rec[0])
    for other in (make(), record_type(*rec), record_type(**rec._asdict())):
        assert other == rec and hash(other) == hash(rec)
    for roundtrip in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        out = roundtrip(rec)
        assert type(out) is record_type and out == rec and hash(out) == hash(rec)


ROUNDTRIPS = pytest.mark.parametrize(
    "roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"])


class TestTraceLifetime:
    """A trace lives on the diagrams that asked for it and dies with them."""

    def test_trace_dies_with_its_diagrams(self):
        a = fr.parse_front(CLASP)
        b = fr.FrontDiagram(tuple(fr.FrontEvent(*ev) for ev in a.events))
        trace = weakref.ref(fr.trace_components(a))
        assert fr.trace_components(b) is trace()
        expected = copy.deepcopy(trace())
        del a
        gc.collect()
        assert trace() is fr.trace_components(b)  # b still holds it
        del b
        gc.collect()
        assert trace() is None
        # a diagram traced later gets a new trace, equal to the dead one
        assert fr.trace_components(fr.parse_front(CLASP)) == expected

    def test_orient_overrides_share_one_trace(self):
        plain = fr.parse_front(CLASP)
        flipped = fr.parse_front(CLASP + "\norient 1 -")
        assert plain != flipped and plain.events == flipped.events
        assert fr.trace_components(flipped) is fr.trace_components(plain)
        lk = [fr.linking_matrix(fr.OrientedFront.default(d))[0][1] for d in (plain, flipped)]
        assert lk == [1, -1]

    @ROUNDTRIPS
    def test_copy_traces_only_on_demand(self, roundtrip):
        d = trees.catalog_front(-7, 2)
        untraced = pickle.dumps(fr.FrontDiagram(d.events))
        old = fr.trace_components(d)
        assert pickle.dumps(d) == untraced  # the trace does not travel
        d2 = roundtrip(d)
        assert set(vars(d2)) == {"events", "orient_overrides"}
        expected = copy.deepcopy(old)
        del d, old
        gc.collect()
        tr2 = fr.trace_components(d2)  # no equal diagram is left to share with
        assert tr2 == expected and tr2 is not expected
        assert fr.trace_components(d2) is tr2
        assert set(vars(d2)) > {"events", "orient_overrides"}


class TestReadersMatchReferences:
    """find_zigzags, insert_zigzag, displace_zigzag, realize_front and
    render_ascii read the event records as the references read the stacks."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 60), data=st.data())
    def test_random_fronts(self, seed, size, data):
        d = fr.random_closed_front(random.Random(seed), size)
        check_against_references(d)
        n = len(fr.trace_components(d).arcs)
        arc = data.draw(st.integers(-1, n))
        direction = data.draw(st.sampled_from([fr.UP, fr.DOWN, "+"]))
        got = outcome(fr.insert_zigzag, d, arc, direction)
        assert got == outcome(reference_insert_zigzag, d, arc, direction)
        # a zig-zag on a random arc, moved from a random arc to every arc
        d = fr.insert_zigzag(d, data.draw(st.integers(0, n - 1)),
                             data.draw(st.sampled_from([fr.UP, fr.DOWN])))
        check_against_references(d)
        near = [a for z in fr.find_zigzags(d) for a in (*z.kink_arcs, z.carrier_in, z.carrier_out)]
        n = len(fr.trace_components(d).arcs)
        from_arc = data.draw(st.one_of(st.sampled_from(near), st.integers(-1, n)))
        for to_arc in range(-1, n + 1):
            got = outcome(fr.displace_zigzag, d, from_arc, to_arc)
            assert got == outcome(reference_displace_zigzag, d, from_arc, to_arc)

    def test_catalog_fronts(self):
        for n in range(1, 14):
            for r in range(-(n - 1), n, 2):
                d = trees.catalog_front(-n, r)
                check_against_references(d)
                arcs = range(len(fr.trace_components(d).arcs))
                for arc in arcs:
                    for direction in (fr.UP, fr.DOWN):
                        got = fr.insert_zigzag(d, arc, direction)
                        assert got == reference_insert_zigzag(d, arc, direction)
                for z in fr.find_zigzags(d):
                    for to_arc in arcs:
                        got = outcome(fr.displace_zigzag, d, z.kink_arcs[0], to_arc)
                        assert got == outcome(reference_displace_zigzag, d, z.kink_arcs[0], to_arc)


# ---------------------------------------------------------------------------
# Normal rulings: an oracle that shares no formula with tb and r.


def ruling_polynomial(d):
    """The ungraded normal-ruling polynomial of a front, as {exponent: count}
    (Chekanov and Pushkar; Fuchs): the sum of z^(switches - right cusps + 1)
    over the normal rulings.

    One sweep, left to right, over the events.  A state is the pairing of
    the strands (``partner[i]`` is the position paired with position i,
    0-based) with the number of rulings that reach it by each switch count.
    A left cusp pairs its two strands; a right cusp needs its two strands
    paired.  Two paired strands never cross.  At a crossing of two unpaired
    strands the ruling passes, each strand keeping its partner, or it
    switches, the two positions keeping theirs, when the two pairs are
    disjoint or nested there.
    """
    states = {(): Counter({0: 1})}
    rights = 0
    for kind, p in d.events:
        i = p - 1  # the lower of the event's two positions
        rights += kind == fr.RIGHT
        after = defaultdict(Counter)
        for partner, counts in states.items():
            if kind == fr.LEFT:
                shifted = [q + 2 if q >= i else q for q in partner]
                after[tuple(shifted[:i] + [i + 1, i] + shifted[i:])].update(counts)
            elif kind == fr.RIGHT:
                if partner[i] == i + 1:
                    rest = partner[:i] + partner[i + 2:]
                    after[tuple(q - 2 if q > i else q for q in rest)].update(counts)
            elif partner[i] != i + 1:
                a, b = partner[i], partner[i + 1]
                passed = list(partner)
                passed[i], passed[i + 1], passed[a], passed[b] = b, a, i + 1, i
                after[tuple(passed)].update(counts)
                if a < i < i + 1 < b or b < a < i or i + 1 < b < a:
                    after[partner].update({s + 1: n for s, n in counts.items()})
        states = after
    return {s - rights + 1: n for s, n in states.get((), {}).items()}


class TestNormalRulings:
    """By the paper's theorem a front of the unknot with (tb, r) other than
    (-1, 0) is a stabilization, and a stabilized front has no normal ruling;
    the standard eye has one, with no switch."""

    def assert_unknot_rulings(self, d):
        tb, r = fr.invariant_pair(fr.OrientedFront.default(d))
        assert ruling_polynomial(d) == ({0: 1} if (tb, r) == (-1, 0) else {}), d

    def test_small_fronts(self):
        eyes = 0
        for d in closed_fronts(6, 2):  # at most 2 crossings: each knot is an unknot
            if fr.trace_components(d).n_components == 1:
                self.assert_unknot_rulings(d)
                eyes += fr.invariant_pair(fr.OrientedFront.default(d)) == (-1, 0)
        assert eyes > 1

    def test_catalog_fronts(self):
        for tb in range(-1, -14, -1):
            for r in range(tb + 1, -tb, 2):
                self.assert_unknot_rulings(trees.catalog_front(tb, r))

    def test_trefoil(self):
        d = fr.parse_front("L 1\nL 3\nX 2\nX 2\nX 2\nR 1\nR 1")
        assert fr.invariant_pair(fr.OrientedFront.default(d))[0] == 1
        assert ruling_polynomial(d) == {0: 2, 2: 1}  # 2 + z^2
