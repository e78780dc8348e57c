"""Classification oracles for topologically trivial Legendrian knots.

Tight ambient structures: two unknots are Legendrian isotopic exactly when
their (tb, r) pairs agree and lie in the admissible range
D = {(-|m| - 2k - 1, m) : k >= 0}; the canonical representative is the
catalog front.

Overtwisted structures xi_h on S^3 are indexed by the Hopf invariant h
(d3 = -h - 1/2).  Loose knots are classified coarsely by (tb, r);
exceptional unknots exist only for h = -1, with classes (1, 0) and
(n, +-(n-1)).  A simultaneous pi-Lutz twist along a transverse link
changes the Hopf invariant to sum(sl_i) + 2 * sum_{i<j} lk_ij, and the
positive transverse pushoff of a Legendrian knot has sl = tb - r.

Tags, verdicts and complement-torus data are ``NamedTuple``s; a verdict's
JSON is its fields as a sorted object.  The integer inputs of
ContactStructureTag.overtwisted, loose_check, classify_loose, d3_from_hopf,
hopf_after_lutz, complement_torus_data and the exceptional classes (h, tb,
both loose pairs, sl, lk, the slope n, the hopf index, up_to's bound and a
pair tested for membership) must be ints, never bools or floats, or they
raise BadInvariants, as does a d3 for hopf_from_d3 that is neither an int
nor a Fraction; a tight invariant pair that is not of ints is an
invalid-invariants verdict.  Every invariant pair, tight or loose, and a
pair tested for membership must be a tuple or list of exactly two items,
read as a tuple, and an at_infinity flag must be a bool, or they raise
BadInvariants.  loose_check and classify_loose check the hopf and the
at_infinity of their tag as ContactStructureTag.overtwisted does, so a tag
built directly from bad parts raises BadInvariants too.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import BadInvariants, DimensionMismatch, NotOvertwisted, ZeroSlope
from .fronts import (
    OrientedFront,
    in_unknot_range,
    invariant_pair,
    linking_matrix,
    serialize_front,
)
from .trees import catalog_front

TIGHT = "tight-standard"
OVERTWISTED = "overtwisted"


class ContactStructureTag(NamedTuple):
    """Ambient contact structure: the standard tight one, or xi_h on S^3."""

    ambient: str  # TIGHT or OVERTWISTED
    hopf: Optional[int] = None  # Hopf invariant for overtwisted structures
    at_infinity: bool = False  # R^3 overtwisted at infinity

    @staticmethod
    def tight() -> "ContactStructureTag":
        return ContactStructureTag(TIGHT, hopf=0)

    @staticmethod
    def overtwisted(h: int, at_infinity: bool = False) -> "ContactStructureTag":
        return _overtwisted(ContactStructureTag(OVERTWISTED, hopf=h, at_infinity=at_infinity))

    @property
    def is_overtwisted(self) -> bool:
        return self.ambient == OVERTWISTED


class ClassificationVerdict(NamedTuple):
    status: str
    inputs: tuple
    representative: Optional[str] = None  # catalog front text
    citation: str = ""
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)  # json writes a tuple as a list


CITE_MAIN = "tight unknots are Legendrian isotopic iff (tb, r) agree"
CITE_RANGE = "admissible unknot range D = {(m, -|m|-2k-1)}"
CITE_LOOSE = "topologically trivial knots with tb <= 0 are loose"
CITE_COARSE = "loose unknots are coarsely classified by (tb, r)"
CITE_COARSE_ISO = "equal invariants and tb < 0 imply Legendrian isotopy"
CITE_DYMARA = "coarse = Legendrian classification in R^3 overtwisted at infinity"
CITE_COMPLEMENT = "complement torus: meridian -n e_theta + e_x, slope n"


def classify_tight_unknot(
    a: tuple[int, int], b: tuple[int, int]
) -> ClassificationVerdict:
    """Decide Legendrian isotopy of tight unknots from their invariant pairs."""
    a, b = _pair(a), _pair(b)
    for pair in (a, b):
        if not in_unknot_range(*pair):
            return ClassificationVerdict("invalid-invariants", (a, b), citation=CITE_RANGE,
                                         detail=f"{pair} is not realized by a tight unknot")
    if a == b:
        rep = serialize_front(catalog_front(*a))
        return ClassificationVerdict(
            status="isotopic", inputs=(a, b), representative=rep, citation=CITE_MAIN
        )
    return ClassificationVerdict(status="not-isotopic", inputs=(a, b), citation=CITE_MAIN)


def loose_check(
    tag: ContactStructureTag, tb: int, topologically_trivial: bool
) -> ClassificationVerdict:
    """One-directional looseness test: trivial knots with tb <= 0 are loose."""
    _overtwisted(tag, "looseness")
    _check_ints("tb", tb)
    if topologically_trivial and tb <= 0:
        return ClassificationVerdict(
            status="loose-class", inputs=(tag.hopf, tb), citation=CITE_LOOSE
        )
    return ClassificationVerdict(
        status="undetermined-by-this-test",
        inputs=(tag.hopf, tb),
        citation=CITE_LOOSE,
        detail="tb > 0 or nontrivial knots may still be loose; the test is one-directional",
    )


def classify_loose(
    tag: ContactStructureTag, a: tuple[int, int], b: tuple[int, int]
) -> ClassificationVerdict:
    """Coarse classification of loose unknots, upgraded to isotopy when possible."""
    _overtwisted(tag, "classify_loose")
    a, b = _pair(a), _pair(b)
    _check_ints("tb and r", *a, *b)
    if a != b:
        status, citation = "not-coarsely-equivalent", CITE_COARSE
    elif a[0] < 0:
        status, citation = "coarsely-equivalent-and-isotopic", CITE_COARSE_ISO
    elif tag.at_infinity:
        status, citation = "coarsely-equivalent-and-isotopic", CITE_DYMARA
    else:
        status, citation = "coarsely-equivalent", CITE_COARSE
    return ClassificationVerdict(status, (a, b), citation=citation)


def _overtwisted(tag: ContactStructureTag, what: str = "") -> ContactStructureTag:
    """tag, if it is overtwisted (NotOvertwisted if not), of an int hopf and
    a bool at_infinity (BadInvariants if not), however it was built."""
    if not tag.is_overtwisted:
        raise NotOvertwisted(f"{what} needs an overtwisted ambient structure")
    _check_ints("hopf", tag.hopf)
    if type(tag.at_infinity) is not bool:  # "no" would read as overtwisted at infinity
        raise BadInvariants(f"at_infinity must be a bool, got {tag.at_infinity!r}")
    return tag


def _check_ints(name: str, *values) -> None:
    for v in values:
        if type(v) is not int:  # a bool or a float is no invariant
            raise BadInvariants(f"{name} must be an integer, got {v!r}")


def _pair(p) -> tuple:
    """p as a tuple, so a list and a tuple of the same pair compare equal."""
    if not isinstance(p, (tuple, list)) or len(p) != 2:  # (-3, 0, 5) is no (tb, r)
        raise BadInvariants(f"an invariant pair must be (tb, r), got {p!r}")
    return tuple(p)


class ExceptionalClasses:
    """Coarse classes of exceptional unknots in xi_h, lazily enumerable."""

    def __init__(self, hopf: int):
        _check_ints("hopf", hopf)
        self.hopf = hopf

    def __contains__(self, pair: tuple[int, int]) -> bool:
        tb, r = _pair(pair)
        _check_ints("tb and r", tb, r)
        if self.hopf != -1:
            return False
        return tb >= 1 and abs(r) == tb - 1

    def up_to(self, n_max: int) -> list[tuple[int, int]]:
        """The classes with tb <= n_max, by rising tb."""
        _check_ints("n_max", n_max)
        if self.hopf != -1 or n_max < 1:
            return []
        out = [(1, 0)]
        for n in range(2, n_max + 1):
            out += [(n, n - 1), (n, -(n - 1))]
        return out

    def is_empty(self) -> bool:
        return self.hopf != -1


def exceptional_unknot_classes(hopf: int) -> ExceptionalClasses:
    """Complete list of exceptional unknot classes in (S^3, xi_h)."""
    return ExceptionalClasses(hopf)


def hopf_after_lutz(sl: Sequence[int], lk) -> int:
    """Hopf invariant after simultaneous pi-Lutz twists along a transverse link.

    ``lk`` is a symmetric k x k matrix (nested sequences, diagonal ignored);
    for k = 1 it may be None or [].
    """
    k = len(sl)
    if k < 1:
        raise DimensionMismatch("need at least one component")
    _check_ints("sl", *sl)
    total = sum(sl)
    if k == 1:
        return total
    if lk is None or len(lk) != k or any(len(row) != k for row in lk):
        raise DimensionMismatch(f"lk must be a {k}x{k} symmetric matrix")
    for i in range(k):
        for j in range(i + 1, k):
            _check_ints("lk", lk[i][j])
            if lk[i][j] != lk[j][i]:
                raise DimensionMismatch("lk must be symmetric")
            total += 2 * lk[i][j]
    return total


def hopf_after_lutz_front(of: OrientedFront) -> int:
    """Hopf invariant of the Lutz twist along the positive transverse pushoff.

    Each component contributes sl_i = tb_i - r_i; pairs contribute twice
    their linking number.
    """
    k = of.trace.n_components
    sl = [tb - r for tb, r in (invariant_pair(of, c) for c in range(k))]
    return hopf_after_lutz(sl, linking_matrix(of) if k > 1 else None)


def d3_from_hopf(h: int) -> Fraction:
    """Gompf d3 invariant of xi_h: exactly -h - 1/2."""
    _check_ints("h", h)
    return -Fraction(h) - Fraction(1, 2)


def hopf_from_d3(d3: Fraction) -> int:
    if type(d3) not in (int, Fraction):  # nor a bool, nor a float
        raise BadInvariants(f"d3 must be an int or a Fraction, got {d3!r}")
    h = -d3 - Fraction(1, 2)
    if h.denominator != 1:
        raise BadInvariants(f"{d3} is not the d3 invariant of any plane field on S^3")
    return int(h)


class ComplementTorusData(NamedTuple):
    """Lattice data of the complementary solid torus for tb = n."""

    n: int
    meridian: tuple[int, int]  # in the (e_theta, e_x) basis
    singularity_slope: int
    pushoff_rotation_rule: str

    def wedge_checks(self) -> tuple[int, int]:
        """(e_theta ^ mu, e_x ^ mu) by exact 2x2 determinants."""
        e_theta, e_x = (1, 0), (0, 1)

        def wedge(u, v):
            return u[0] * v[1] - u[1] * v[0]

        return wedge(e_theta, self.meridian), wedge(e_x, self.meridian)


def complement_torus_data(n: int) -> ComplementTorusData:
    """Meridian and singularity-curve slope of the complement of a tb = n unknot."""
    _check_ints("n", n)
    if n == 0:
        raise ZeroSlope("complement torus data is undefined for slope 0")
    data = ComplementTorusData(
        n=n,
        meridian=(-n, 1),
        singularity_slope=n,
        pushoff_rotation_rule="ruling-curve rotation number equals -r(L)",
    )
    w_theta, w_x = data.wedge_checks()
    if (w_theta, w_x) != (1, n):
        raise BadInvariants(f"wedge checks {(w_theta, w_x)} != (1, {n}): {CITE_COMPLEMENT}")
    return data
