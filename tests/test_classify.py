import itertools
import json
from fractions import Fraction

import pytest

from legkit import classify as cl
from legkit import fronts as fr
from legkit import trees
from legkit.errors import BadInvariants, DimensionMismatch, NotOvertwisted, OutOfRange, ZeroSlope


class TestTightUnknot:
    def test_equal_pairs_isotopic_with_representative(self):
        v = cl.classify_tight_unknot((-1, 0), (-1, 0))
        assert v.status == "isotopic"
        assert v.representative == "L 1\nR 1"

    def test_unequal_pairs(self):
        assert cl.classify_tight_unknot((-3, 0), (-3, 2)).status == "not-isotopic"

    def test_invalid_invariants(self):
        assert cl.classify_tight_unknot((-2, 0), (-1, 0)).status == "invalid-invariants"
        assert cl.classify_tight_unknot((-1, 0), (0, 1)).status == "invalid-invariants"

    def test_equivalence_relation_on_valid_pairs(self):
        pairs = [(-1, 0), (-2, 1), (-3, 0), (-3, 2), (-4, 1)]
        for a in pairs:
            assert cl.classify_tight_unknot(a, a).status == "isotopic"
        for a, b in itertools.combinations(pairs, 2):
            ab = cl.classify_tight_unknot(a, b).status
            ba = cl.classify_tight_unknot(b, a).status
            assert ab == ba == "not-isotopic"
        # transitivity: equal statuses chain trivially on this verdict set
        for a, b, c in itertools.permutations(pairs, 3):
            if (
                cl.classify_tight_unknot(a, b).status == "isotopic"
                and cl.classify_tight_unknot(b, c).status == "isotopic"
            ):
                assert cl.classify_tight_unknot(a, c).status == "isotopic"

    def test_json_record(self):
        payload = json.loads(cl.classify_tight_unknot((-1, 0), (-1, 0)).to_json())
        assert payload["status"] == "isotopic"
        assert payload["representative"] == "L 1\nR 1"
        assert payload["citation"]


class TestLoose:
    def test_tb_zero_trivial_is_loose(self):
        tag = cl.ContactStructureTag.overtwisted(0)
        assert cl.loose_check(tag, 0, True).status == "loose-class"

    def test_positive_tb_undetermined(self):
        tag = cl.ContactStructureTag.overtwisted(-1)
        assert cl.loose_check(tag, 1, True).status == "undetermined-by-this-test"

    def test_tight_rejected(self):
        with pytest.raises(NotOvertwisted):
            cl.loose_check(cl.ContactStructureTag.tight(), 0, True)
        with pytest.raises(NotOvertwisted):
            cl.classify_loose(cl.ContactStructureTag.tight(), (-1, 0), (-1, 0))

    def test_coarse_and_isotopy_upgrades(self):
        tag = cl.ContactStructureTag.overtwisted(2)
        assert (
            cl.classify_loose(tag, (-4, 1), (-4, 1)).status
            == "coarsely-equivalent-and-isotopic"
        )
        assert cl.classify_loose(tag, (-4, 1), (-4, -1)).status == "not-coarsely-equivalent"
        inf = cl.ContactStructureTag.overtwisted(0, at_infinity=True)
        assert (
            cl.classify_loose(inf, (1, 0), (1, 0)).status
            == "coarsely-equivalent-and-isotopic"
        )
        # positive tb, not at infinity: coarse only
        assert cl.classify_loose(tag, (1, 0), (1, 0)).status == "coarsely-equivalent"


class TestExceptional:
    def test_only_minus_one_admits(self):
        for h in range(-5, 6):
            classes = cl.exceptional_unknot_classes(h)
            assert classes.is_empty() == (h != -1)

    def test_membership(self):
        E = cl.exceptional_unknot_classes(-1)
        assert (1, 0) in E
        assert (3, 2) in E and (3, -2) in E
        assert (2, 0) not in E
        assert (-1, 0) not in E

    def test_enumeration(self):
        E = cl.exceptional_unknot_classes(-1)
        pairs = E.up_to(50)
        assert pairs[0] == (1, 0)
        assert len(pairs) == 1 + 2 * 49
        assert all(p in E for p in pairs)

    @pytest.mark.parametrize("n_max", [0, -1, -7])
    def test_enumeration_below_one_is_empty(self, n_max):
        # the smallest class has tb = 1
        assert cl.exceptional_unknot_classes(-1).up_to(n_max) == []
        assert cl.exceptional_unknot_classes(-1).up_to(1) == [(1, 0)]

    def test_parity_of_classes(self):
        E = cl.exceptional_unknot_classes(-1)
        for tb, r in E.up_to(30):
            assert (tb + r) % 2 == 1


class TestLutz:
    def test_single_hopf_fiber(self):
        assert cl.hopf_after_lutz([-1], None) == -1

    def test_k_fibers(self):
        for k in range(1, 11):
            lk = [[1] * k for _ in range(k)]
            assert cl.hopf_after_lutz([-1] * k, lk) == k * (k - 2)

    def test_no_cross_terms(self):
        assert cl.hopf_after_lutz([-3], None) == -3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cl.hopf_after_lutz([-1, -1], [[0]])
        with pytest.raises(DimensionMismatch):
            cl.hopf_after_lutz([-1, -1], [[0, 1], [2, 0]])
        with pytest.raises(DimensionMismatch):
            cl.hopf_after_lutz([], None)

    def test_from_front(self):
        basic = fr.parse_front("L 1\nR 1")
        assert cl.hopf_after_lutz_front(fr.OrientedFront.default(basic)) == -1
        two = fr.parse_front("L 1\nL 3\nR 3\nR 1")  # stacked disjoint eyes
        assert cl.hopf_after_lutz_front(fr.OrientedFront.default(two)) == -2
        clasp = fr.parse_front("L 1\nL 2\nX 1\nX 1\nR 2\nR 1")  # lk = 1
        assert cl.hopf_after_lutz_front(fr.OrientedFront.default(clasp)) == 0


class TestD3:
    def test_values(self):
        assert cl.d3_from_hopf(-1) == Fraction(1, 2)
        assert cl.d3_from_hopf(0) == Fraction(-1, 2)

    def test_inverse(self):
        for h in range(-10, 11):
            assert cl.hopf_from_d3(cl.d3_from_hopf(h)) == h

    def test_not_a_d3_value(self):
        with pytest.raises(BadInvariants, match="not the d3 invariant"):
            cl.hopf_from_d3(Fraction(0))


class TestComplementTorus:
    def test_example(self):
        d = cl.complement_torus_data(2)
        assert d.meridian == (-2, 1)
        assert d.singularity_slope == 2
        assert d.wedge_checks() == (1, 2)

    def test_lattice_identities(self):
        for n in range(-20, 21):
            if n == 0:
                continue
            d = cl.complement_torus_data(n)
            assert d.wedge_checks() == (1, n)

    def test_zero_slope(self):
        with pytest.raises(ZeroSlope):
            cl.complement_torus_data(0)

    def test_wedge_check_is_typed(self, monkeypatch):
        # a typed error, so the check holds under ``python -O``
        monkeypatch.setattr(cl.ComplementTorusData, "wedge_checks", lambda self: (1, 0))
        with pytest.raises(BadInvariants, match="wedge checks"):
            cl.complement_torus_data(3)

    def test_rotation_rule_text(self):
        assert "-r(L)" in cl.complement_torus_data(1).pushoff_rotation_rule


@pytest.mark.parametrize("tb, r", [(-1.0, 0), (-3.0, 0), (-3, 0.0), (-2, True), (-4, True)],
                         ids=repr)
def test_non_int_invariants_are_out_of_range(tb, r):
    # each was read as the int pair it equals, or ended in a bare TypeError
    assert not fr.in_unknot_range(tb, r)
    for build in (trees.catalog_tree, trees.catalog_front):
        with pytest.raises(OutOfRange):
            build(tb, r)
    v = cl.classify_tight_unknot((tb, r), (int(tb), int(r)))
    assert (v.status, v.representative) == ("invalid-invariants", None)


NOT_INTS = {
    "d3_from_hopf(1.5)": lambda: cl.d3_from_hopf(1.5),
    "d3_from_hopf(True)": lambda: cl.d3_from_hopf(True),
    "hopf_after_lutz float sl": lambda: cl.hopf_after_lutz([1.5, 2], [[0, 1], [1, 0]]),
    "hopf_after_lutz bool sl": lambda: cl.hopf_after_lutz([True], None),
    "hopf_after_lutz float lk": lambda: cl.hopf_after_lutz([1, 2], [[0, 0.5], [0.5, 0]]),
    "complement_torus_data(2.5)": lambda: cl.complement_torus_data(2.5),
    "complement_torus_data(True)": lambda: cl.complement_torus_data(True),
    "up_to(2.5)": lambda: cl.exceptional_unknot_classes(-1).up_to(2.5),
    "up_to(True)": lambda: cl.exceptional_unknot_classes(-1).up_to(True),
    "exceptional_unknot_classes(-1.0)": lambda: cl.exceptional_unknot_classes(-1.0),
    "(True, 0) in classes": lambda: (True, 0) in cl.exceptional_unknot_classes(-1),
    "classify_loose float tb": lambda: cl.classify_loose(XI, (-2.0, 1), (-2, 1)),
    "classify_loose bool r": lambda: cl.classify_loose(XI, (2, 1), (2, True)),
    "loose_check bool tb": lambda: cl.loose_check(XI, True, True),
    "loose_check float tb": lambda: cl.loose_check(XI, -1.0, True),
    "overtwisted(True)": lambda: cl.ContactStructureTag.overtwisted(True),
    "overtwisted(-1.0)": lambda: cl.ContactStructureTag.overtwisted(-1.0),
}


@pytest.mark.parametrize("call", NOT_INTS.values(), ids=NOT_INTS.keys())
def test_non_int_inputs_raise(call):
    # each returned a value computed from the float or bool, or ended in a bare TypeError
    with pytest.raises(BadInvariants, match="must be an integer"):
        call()


@pytest.mark.parametrize("d3", [1.5, "1/2"], ids=repr)
def test_hopf_from_d3_of_neither_int_nor_fraction_raises(d3):
    # 1.5 ended in a bare AttributeError, "1/2" in a bare TypeError
    with pytest.raises(BadInvariants, match="must be an int or a Fraction"):
        cl.hopf_from_d3(d3)


def former_to_json(v):
    """A verdict's JSON as the former dataclass built it, field by field."""
    payload = {
        "status": v.status,
        "inputs": list(v.inputs),
        "representative": v.representative,
        "citation": v.citation,
        "detail": v.detail,
    }
    return json.dumps(payload, sort_keys=True)


XI = cl.ContactStructureTag.overtwisted(-1)
XI_INF = cl.ContactStructureTag.overtwisted(2, at_infinity=True)
VERDICTS = {
    "isotopic": lambda: cl.classify_tight_unknot((-3, 2), (-3, 2)),
    "not-isotopic": lambda: cl.classify_tight_unknot((-3, 0), (-3, 2)),
    "invalid-invariants": lambda: cl.classify_tight_unknot((-2, 0), (-1, 0)),
    "loose-class": lambda: cl.loose_check(XI, 0, True),
    "undetermined-by-this-test": lambda: cl.loose_check(XI, 2, True),
    "not-coarsely-equivalent": lambda: cl.classify_loose(XI, (-2, 1), (-2, -1)),
    "coarsely-equivalent-and-isotopic": lambda: cl.classify_loose(XI, (-2, 1), (-2, 1)),
    "coarsely-equivalent-and-isotopic at infinity": lambda: cl.classify_loose(XI_INF, (2, 1), (2, 1)),
    "coarsely-equivalent": lambda: cl.classify_loose(XI, (2, 1), (2, 1)),
}


@pytest.mark.parametrize("name, make", VERDICTS.items(), ids=VERDICTS.keys())
def test_to_json_is_the_former_payload(name, make):
    v = make()
    assert v.status == name.split()[0]
    for w in (v, v._replace(detail="a detail"), v._replace(representative="L 1\nR 1")):
        assert w.to_json() == former_to_json(w)


# Each input that is not a pair of exactly two ints, and an at_infinity that
# is not a bool, raises BadInvariants; each was answered or ended in a bare
# error.  An out-of-range pair of ints is still an invalid-invariants verdict.


def test_classify_loose_refuses_a_triple():
    # answered coarsely-equivalent-and-isotopic
    with pytest.raises(BadInvariants, match=r"must be \(tb, r\)"):
        cl.classify_loose(cl.ContactStructureTag.overtwisted(-1), (-3, 0, 5), (-3, 0, 5))


def test_classify_loose_refuses_empty_pairs():
    # ended in a bare IndexError
    with pytest.raises(BadInvariants, match=r"must be \(tb, r\)"):
        cl.classify_loose(cl.ContactStructureTag.overtwisted(-1), (), ())


def test_classify_tight_unknot_refuses_a_triple():
    # ended in a bare TypeError
    for a, b in (((-3, 0, 5), (-3, 0)), ((-3, 0), (-3,)), ((-3, 0), -3)):
        with pytest.raises(BadInvariants, match=r"must be \(tb, r\)"):
            cl.classify_tight_unknot(a, b)
    assert cl.classify_tight_unknot([-3, 0], (-2, 0)).status == "invalid-invariants"


def test_a_list_and_a_tuple_of_one_pair_are_the_same_pair():
    # answered not-isotopic and not-coarsely-equivalent
    v = cl.classify_tight_unknot([-3, 0], (-3, 0))
    assert (v.status, v.inputs) == ("isotopic", ((-3, 0), (-3, 0)))
    xi = cl.ContactStructureTag.overtwisted(-1)
    assert cl.classify_loose(xi, [-2, 1], (-2, 1)).status == "coarsely-equivalent-and-isotopic"


def test_exceptional_membership_refuses_a_triple():
    # ended in a bare ValueError
    with pytest.raises(BadInvariants, match=r"must be \(tb, r\)"):
        (-3, 0, 5) in cl.exceptional_unknot_classes(-1)
    assert (2, 1) in cl.exceptional_unknot_classes(-1)


# A tag built directly, not by ContactStructureTag.overtwisted, is checked as
# that builds it: the first answered coarsely-equivalent-and-isotopic under
# Dymara's theorem, the second reported its inputs as (1.5, 0).
BAD_TAGS = {
    "classify_loose at_infinity 'no'": lambda: cl.classify_loose(
        cl.ContactStructureTag(cl.OVERTWISTED, -1, "no"), (2, 1), (2, 1)),
    "loose_check hopf 1.5": lambda: cl.loose_check(
        cl.ContactStructureTag(cl.OVERTWISTED, 1.5), 0, True),
}


@pytest.mark.parametrize("call", BAD_TAGS.values(), ids=BAD_TAGS.keys())
def test_tags_built_directly_are_checked(call):
    with pytest.raises(BadInvariants, match="at_infinity must be a bool|must be an integer"):
        call()
    tag = cl.ContactStructureTag(cl.OVERTWISTED, -1, True)
    assert cl.classify_loose(tag, (2, 1), (2, 1)).status == "coarsely-equivalent-and-isotopic"


@pytest.mark.parametrize("flag", ["no", 0, 1, None], ids=repr)
def test_overtwisted_at_infinity_must_be_a_bool(flag):
    # "no" was read as overtwisted at infinity
    with pytest.raises(BadInvariants, match="at_infinity must be a bool"):
        cl.ContactStructureTag.overtwisted(-1, at_infinity=flag)
    assert cl.ContactStructureTag.overtwisted(-1, at_infinity=True).at_infinity is True
