"""Structure checks: profile, suite, recognition, frames, parameters."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pgf.structure
from pgf.constructions import build_group, parse_group_spec, quintuple_coords
from pgf.engine import Backend, FiniteGroup, GroupError
from pgf.fields import structure_constants
from pgf.structure import (
    CheckReport,
    ElemAbelianBasis,
    GeneratorFrame,
    TheoremViolation,
    extract_presentation_params,
    find_central_correction,
    lift_generator_frame,
    recognize_u3,
    verify_class3_profile,
    verify_kappa_commutator_relations,
    verify_structural_suite,
)

from helpers import (
    breadth_mask_oracle,
    build_cyclic,
    breadth_set,
    distinct_centralizers_oracle,
    presentation_params_oracle,
    product_set_sizes,
    relabel,
)


def build(spec):
    return build_group(parse_group_spec(spec))


@pytest.fixture(scope="module")
def hmod31():
    return build("hmod:p=3,m=1")


@pytest.fixture(scope="module")
def hmod51():
    return build("hmod:p=5,m=1")


@pytest.fixture(scope="module")
def quint51():
    return build("quint:p=5,m=1")


@pytest.fixture(scope="module")
def hmod71():
    return build("hmod:p=7,m=1")


@pytest.fixture(scope="module")
def quint71():
    return build("quint:p=7,m=1")


@pytest.fixture(scope="module")
def hmod32():
    return build("hmod:p=3,m=2")


@pytest.fixture(scope="module")
def quint31():
    return build("quint:p=3,m=1")


@pytest.fixture(scope="module")
def quint32():
    return build("quint:p=3,m=2")


# -- profile ---------------------------------------------------------------


def test_profile_hmod_passes(hmod31):
    rep = verify_class3_profile(hmod31)
    assert rep.passed
    assert rep.inferred == {"order": 243, "p": 3, "m": 1}
    assert rep.checks["type_is_square"]["conjugate_type"] == [1, 9]


def test_profile_u3_fails_on_class():
    rep = verify_class3_profile(build("u3:p=3,m=1"))
    assert not rep.passed
    assert rep.checks["class_is_3"] == {"passed": False, "nilpotency_class": 2}


def test_profile_product_fails_on_center():
    # an abelian direct factor enlarges the center but not the derived subgroup
    rep = verify_class3_profile(build("xab:hmod:p=3,m=1,k=1"))
    assert "center_in_derived" in rep.failing()


def test_profile_rejects_non_p_group():
    with pytest.raises(GroupError):
        verify_class3_profile(build_cyclic(6))


def test_profile_odd_type_exponent_is_not_square():
    # conjugate type (1, 3) has an odd p-exponent, so no m exists
    rep = verify_class3_profile(build("u3:p=3,m=1"))
    assert not rep.checks["type_is_square"]["passed"]
    assert "m" not in rep.inferred


# -- structural suite ------------------------------------------------------

SUITE_CHECKS = {
    "order_p5m",
    "derived_index_p2m",
    "center_index_in_derived_pm",
    "center_order_p2m",
    "center_is_gamma3",
    "center_elem_abelian",
    "derived_elem_abelian",
    "central_quotient_exponent_p",
    "breadth_family_generates",
    "outside_derived_centralizers",
    "central_quotient_camina_p3m",
    "quotient_centralizers_elem_abelian_p2m",
    "quotient_centralizer_pairs",
}


def check_suite(g, p, m):
    rep = verify_structural_suite(g)
    assert rep.passed, rep.failing()
    assert set(rep.checks) == SUITE_CHECKS
    # the breadth family is everything outside the derived subgroup
    assert rep.checks["breadth_family_generates"]["family_size"] == p ** (5 * m) - p ** (3 * m)
    # non-central centralizers partition the quotient outside its center
    expected = (p ** (3 * m) - p ** m) // (p ** (2 * m) - p ** m)
    assert rep.checks["quotient_centralizers_elem_abelian_p2m"]["distinct_centralizers"] == expected
    return rep


def test_suite_hmod_3_1(hmod31):
    check_suite(hmod31, 3, 1)


def test_suite_hmod_5_1(hmod51):
    check_suite(hmod51, 5, 1)


def test_suite_hmod_3_2(hmod32):
    check_suite(hmod32, 3, 2)


def test_suite_quint_3_1(quint31):
    check_suite(quint31, 3, 1)


def test_suite_needs_profile():
    with pytest.raises(GroupError):
        verify_structural_suite(build("u3:p=3,m=1"))


def test_suite_report_is_json_ready(hmod31):
    rep = verify_structural_suite(hmod31)
    blob = json.loads(json.dumps(rep.as_dict()))
    assert blob["passed"] is True
    assert blob["inferred"]["m"] == 1


MATRIX = ["hmod31", "quint31", "hmod51", "quint51", "hmod71", "quint71", "hmod32", "quint32"]


@pytest.mark.parametrize("fixture", MATRIX)
def test_quotient_centralizer_scan_matches_per_element_loop(fixture, request):
    g = request.getfixturevalue(fixture)
    qz = g.quotient(g.center())
    scanned = pgf.structure._distinct_noncentral_centralizers(qz)
    assert [c.members.tolist() for c in scanned] == distinct_centralizers_oracle(qz)
    assert all(c.parent is qz for c in scanned)


@pytest.mark.parametrize("spec, swap", [("u3:p=3,m=1", None), ("hmod:p=3,m=1", None),
                                        ("hmat:p=3,m=1", None), ("hmat:p=3,m=1", (1, 3))])
def test_centralizer_walk_matches_per_element_centralizers(spec, swap):
    # hmat:p=3,m=1 has nonabelian centralizers, which settle no element;
    # there C(3) is abelian of order 27 and holds 1, whose centralizer is
    # larger, so with 1 and 3 swapped the walk must not skip the new 3
    g = build(spec)
    if swap:
        perm = np.arange(g.order)
        perm[list(swap)] = swap[::-1]
        g = relabel(g, perm)
    cents = pgf.structure._distinct_noncentral_centralizers(g)
    assert [c.members.tolist() for c in cents] == distinct_centralizers_oracle(g)
    noncentral = np.flatnonzero(~g.center().membership_mask()).tolist()
    first = next((x for x in noncentral if not g.centralizer(x).is_abelian()), None)
    assert pgf.structure._first_nonabelian_centralizer(g) == first
    assert (first is None) == (spec != "hmat:p=3,m=1")


@pytest.mark.parametrize("fixture", MATRIX)
def test_breadth_mask_matches_the_per_element_oracle(fixture, request):
    g = request.getfixturevalue(fixture)
    mask = pgf.structure._derived_centralizer_is_center_mask(g)
    assert np.array_equal(mask, breadth_mask_oracle(g))


@pytest.mark.parametrize("fixture", MATRIX)
def test_centralizer_pairs_match_enumerated_products(fixture, request):
    g = request.getfixturevalue(fixture)
    qz = g.central_quotient()
    cents = pgf.structure._distinct_noncentral_centralizers(qz)
    # pairs that fill G/Z, and pairs with the center and G' that do not
    subs = cents[:3] + [qz.center(), qz.derived_subgroup()]
    enumerated = product_set_sizes(qz, subs)
    pairs = list(itertools.combinations(range(len(subs)), 2))
    formula = [subs[a].order * subs[b].order
               // len(np.intersect1d(subs[a].members, subs[b].members)) for a, b in pairs]
    assert enumerated == formula
    assert [size for (a, b), size in zip(pairs, enumerated) if b < 3] == [qz.order] * 3
    assert min(enumerated) < qz.order
    check = verify_structural_suite(g).checks["quotient_centralizer_pairs"]
    assert check["passed"] == (product_set_sizes(qz, cents) == [qz.order] * check["pairs_checked"])
    assert check["passed"]


@pytest.mark.parametrize("spec", ["hmod:p=3,m=1", "quint:p=3,m=1"])
def test_breadth_mask_is_stored_and_matches_the_breadth_oracle(spec, monkeypatch):
    builds = []
    build_mask = pgf.structure._build_breadth_mask
    monkeypatch.setattr(pgf.structure, "_build_breadth_mask",
                        lambda g: builds.append(g) or build_mask(g))
    g = build(spec)
    verify_structural_suite(g)
    lift_generator_frame(g, strategy="generic")
    mask = pgf.structure._derived_centralizer_is_center_mask(g)
    assert builds == [g]
    assert np.array_equal(np.flatnonzero(mask), breadth_set(g, g.derived_subgroup()))
    with pytest.raises(ValueError):
        mask[0] = not mask[0]


# -- recognition -----------------------------------------------------------


def test_recognize_central_quotients(hmod31, hmod51):
    for g, q in ((hmod31, 3), (hmod51, 5)):
        rec = recognize_u3(g.quotient(g.center()))
        assert rec.recognized and rec.q == q


def test_recognize_u3_builds_directly():
    assert recognize_u3(build("u3:p=3,m=1")).q == 3
    assert recognize_u3(build("u3:p=3,m=2")).q == 9
    assert recognize_u3(build("u3:p=5,m=1")).q == 5


def test_recognize_rejects_class_3(hmod31):
    rec = recognize_u3(hmod31)
    assert not rec.recognized
    assert "class 3" in rec.reason


def test_recognize_rejects_abelian():
    rec = recognize_u3(build_cyclic(27))
    assert not rec.recognized
    assert "class 1" in rec.reason


def test_recognize_rejects_non_cube_order():
    rec = recognize_u3(build("xab:u3:p=3,m=1,k=1"))
    assert not rec.recognized
    assert "cube" in rec.reason


def test_recognize_rejects_wrong_derived_index():
    # order 3^6 is a cube with n=2, but the derived subgroup is still C_3
    rec = recognize_u3(build("xab:u3:p=3,m=1,k=3"))
    assert not rec.recognized
    assert "derived index" in rec.reason


def test_recognition_as_dict():
    blob = recognize_u3(build("u3:p=3,m=1")).as_dict()
    assert blob == {"recognized": True, "q": 3, "n": 1, "reason": None}


# -- central corrections ---------------------------------------------------


def test_correction_for_commuting_pair_is_identity(hmod31):
    x1 = lift_generator_frame(hmod31, "coordinate").x[0]
    assert find_central_correction(hmod31, x1, x1) == hmod31.identity


def test_correction_against_derived_twist(hmod31):
    g = hmod31
    z = g.center()
    frame = lift_generator_frame(g, "coordinate")
    x1 = frame.x[0]
    twist = next(int(i) for i in g.derived_subgroup().members if not z.contains(int(i)))
    v = g.mul(x1, twist)
    assert z.contains(g.commutator(x1, v))
    h = find_central_correction(g, x1, v)
    assert g.derived_subgroup().contains(h)
    assert g.commutator(x1, g.mul(v, h)) == g.identity


def test_correction_rejects_derived_arguments(hmod31):
    g = hmod31
    d = next(int(i) for i in g.derived_subgroup().members if int(i) != g.identity)
    x1 = lift_generator_frame(g, "coordinate").x[0]
    with pytest.raises(GroupError):
        find_central_correction(g, d, x1)


def test_correction_rejects_non_central_bracket(hmod31):
    g = hmod31
    frame = lift_generator_frame(g, "coordinate")
    # [x1, y1] = h1 sits outside the center
    with pytest.raises(GroupError):
        find_central_correction(g, frame.x[0], frame.y[0])


# -- generator frames ------------------------------------------------------


def test_coordinate_frame_frozen_values(quint31):
    """Bracket values pinned by the closed-form product law."""
    g = quint31
    frame = lift_generator_frame(g, "coordinate")
    assert quintuple_coords(g, [frame.h[0]])[0].tolist() == [0, 0, 2, 1, 2]
    assert quintuple_coords(g, [frame.z[0]])[0].tolist() == [0, 0, 0, 2, 0]
    assert quintuple_coords(g, [frame.z[1]])[0].tolist() == [0, 0, 0, 0, 1]


def test_coordinate_frame_m2_pairs_commute(quint32):
    frame = lift_generator_frame(quint32, "coordinate")
    g = quint32
    assert g.commutator(frame.x[0], frame.x[1]) == g.identity
    assert g.commutator(frame.y[0], frame.y[1]) == g.identity


def test_generic_frame_on_hmod(hmod31):
    frame = lift_generator_frame(hmod31, "generic")
    frame.validate()


def test_generic_frame_on_quint(quint31):
    frame = lift_generator_frame(quint31, "generic")
    frame.validate()


def test_generic_frame_m2(hmod32):
    frame = lift_generator_frame(hmod32, "generic")
    frame.validate()


def test_frame_lift_requires_profile():
    with pytest.raises(GroupError):
        lift_generator_frame(build("u3:p=3,m=1"), "coordinate")


def test_frame_lift_unknown_strategy(hmod31):
    with pytest.raises(GroupError):
        lift_generator_frame(hmod31, "sideways")


def test_frame_length_mismatch(hmod31):
    with pytest.raises(GroupError):
        GeneratorFrame(hmod31, (1, 2), (3,), (4,), (5, 6))


def test_frame_validate_rejects_wrong_h(quint31):
    good = lift_generator_frame(quint31, "coordinate")
    bad = GeneratorFrame(quint31, good.x, good.y, (good.z[0],), good.z)
    with pytest.raises(GroupError):
        bad.validate()


def test_frame_validate_rejects_dependent_z(quint31):
    good = lift_generator_frame(quint31, "coordinate")
    bad = GeneratorFrame(quint31, good.x, good.y, good.h, (good.z[0], good.z[0]))
    with pytest.raises(GroupError):
        bad.validate()


def test_frame_validate_rejects_non_generating_xy(quint31):
    good = lift_generator_frame(quint31, "coordinate")
    bad = GeneratorFrame(quint31, (good.h[0],), good.y, good.h, good.z)
    with pytest.raises(GroupError):
        bad.validate()


class AffineProductBackend(Backend):
    """inner x F20, F20 the affine maps t -> alpha t + beta of GF(5): a row
    is (inner index, alpha, beta), and (alpha, beta)(alpha', beta') is
    (alpha alpha', beta alpha' + beta')."""

    def __init__(self, inner):
        self.inner = inner
        self.width = 3
        self.radices = (inner.order, 5, 5)

    def identity_row(self):
        return np.array([self.inner.identity, 1, 0], dtype=np.int64)

    def mul_rows(self, a, b):
        return np.stack([self.inner.mul_many(a[:, 0], b[:, 0]), a[:, 1] * b[:, 1] % 5,
                         (a[:, 2] * b[:, 1] + b[:, 2]) % 5], axis=1)

    def inv_rows(self, a):
        alpha = a[:, 1] ** 3 % 5  # alpha^-1 in GF(5)*
        return np.stack([self.inner.inv_many(a[:, 0]), alpha, -a[:, 2] * alpha % 5], axis=1)


def test_frame_validate_reaches_the_generation_check(hmod31):
    # G = hmod:p=3,m=1 x F20 is outside the class-3 profile: F20 has trivial
    # center and F20' = T, its translations.  With r a translation, s: t -> -t
    # and X, Y, H, Z1, Z2 the coordinate frame of hmod, the m = 2 frame
    # x = ((X, r), (X, r)), y = ((Y, 1), (Y, s)) has h = ((H, 1), (H, [r, s]))
    # and z = (Z1, Z1, Z2, Z2) in the hmod factor.  [r, s] has order 5, prime
    # to 3, so <h, z> = hmod' x T = G', and <z> = Z(hmod) = Z(G).  Every
    # check but the last passes, while modulo the center x and y generate
    # only hmod x <r, s>, <r, s> a dihedral group of order 10.
    f = lift_generator_frame(hmod31, "coordinate")
    cells = np.array(list(itertools.product(range(hmod31.order), range(1, 5), range(5))))
    g = FiniteGroup("hmod:p=3,m=1 x F20", AffineProductBackend(hmod31), cells)

    def element(inner, alpha, beta):
        return int(g.index_of_rows(np.array([[inner, alpha, beta]]))[0])

    x = (element(f.x[0], 1, 1),) * 2
    y = (element(f.y[0], 1, 0), element(f.y[0], 4, 0))
    h = tuple(g.commutator_many(x[0], y).tolist())
    z = tuple(g.commutator_many(h[0], x + y).tolist())
    assert np.array_equal(g.closure_members(list(z)), g.center().members)
    assert np.array_equal(g.closure_members(list(h + z)), g.derived_subgroup().members)
    with pytest.raises(GroupError) as err:
        GeneratorFrame(g, x, y, h, z).validate()
    assert str(err.value) == "x and y entries do not generate the group modulo the derived subgroup"


def normalized_frame(g, xs, ys):
    """The frame of xs, ys with h and z set by the normalizations, unchecked."""
    m = len(xs)
    hs = [g.commutator(xs[0], ys[i]) for i in range(m)]
    zs = [g.commutator(hs[0], v) for v in list(xs) + list(ys)]
    return GeneratorFrame(g, xs, ys, hs, zs)


@pytest.mark.parametrize("fixture", ["quint32", "hmod32"])
def test_frame_validate_reports_the_first_failure_in_checking_order(fixture, request):
    # the relations are read i by i ([x1, y_i], [h1, x_i], [h1, y_i]), then
    # the commuting pairs j by j (x's before y's), then the spans
    g = request.getfixturevalue(fixture)
    f = lift_generator_frame(g, "coordinate")
    x1, x2, y1, y2 = f.x + f.y
    cases = [
        (GeneratorFrame(g, f.x, f.y, (f.h[0], f.z[0]), f.z), "[x1, y2] is not h2"),
        (GeneratorFrame(g, f.x, f.y, f.h, (f.z[0], f.z[0]) + f.z[2:]), "[h1, x2] is not z2"),
        (GeneratorFrame(g, f.x, f.y, f.h, f.z[:2] + (f.z[3], f.z[3])), "[h1, y1] is not z3"),
        (GeneratorFrame(g, f.x, f.y, (f.h[0], f.z[0]), (f.z[1],) + f.z[1:]), "[h1, x1] is not z1"),
        (GeneratorFrame(g, f.x, f.y, (f.h[0], f.z[0]), f.z[:1] + (f.z[0],) + f.z[2:]),
         "[x1, y2] is not h2"),
        (GeneratorFrame(g, (x1, g.mul(x2, f.h[0])), f.y, f.h, f.z), "x1 does not commute with x2"),
        (normalized_frame(g, (x1, g.mul(x2, y1)), f.y), "x1 does not commute with x2"),
        (normalized_frame(g, f.x, (y1, g.mul(y2, x1))), "y1 does not commute with y2"),
        (GeneratorFrame(g, f.x, f.y, f.h, (f.z[0], f.z[0], f.z[2], f.z[3])), "[h1, x2] is not z2"),
    ]
    for frame, message in cases:
        with pytest.raises(GroupError) as err:
            frame.validate()
        assert str(err.value) == message


# -- parameter extraction --------------------------------------------------


def test_extraction_quint_3_1(quint31):
    g = quint31
    frame = lift_generator_frame(g, "coordinate")
    params = extract_presentation_params(g, frame)
    # x1 and y1 cube to the identity, so the power parameters vanish
    assert g.power(frame.x[0], 3) == g.identity
    assert not params.epsilon.any()
    assert not params.nu.any()
    assert params.lam.tolist() == params.mu.tolist() == [[[0, 0]]]


def test_extraction_pins_kappa_words(hmod32):
    g = hmod32
    params = extract_presentation_params(g, lift_generator_frame(g, "coordinate"))
    kappa = structure_constants(g.field)
    for i, j in itertools.product(range(2), repeat=2):
        assert params.gamma[i, j].tolist() == list(kappa[i, j]) + [0, 0]
        assert params.delta[i, j].tolist() == [0, 0] + list(kappa[i, j])
    # the modulus x^2 + 1 gives alpha^2 = -1
    assert params.gamma[1, 1].tolist() == [2, 0, 0, 0]


def test_extraction_support_containments(quint32):
    g = quint32
    params = extract_presentation_params(g, lift_generator_frame(g, "coordinate"))
    assert not params.alpha[:, :, 2:].any()
    assert not params.beta[:, :, :2].any()


def test_extraction_detects_misordered_z(quint31):
    good = lift_generator_frame(quint31, "coordinate")
    swapped = GeneratorFrame(quint31, good.x, good.y, good.h,
                             (good.z[1], good.z[0]))
    with pytest.raises(TheoremViolation):
        extract_presentation_params(quint31, swapped)


def test_extraction_rejects_foreign_kappa(quint31, monkeypatch):
    # the kappa tensor comes from the group's field, which must have the
    # frame's p and m
    from pgf.fields import find_irreducible
    frame = lift_generator_frame(quint31, "coordinate")
    for field in (find_irreducible(3, 2), find_irreducible(5, 1), None):
        monkeypatch.setattr(quint31, "field", field)
        for check in (extract_presentation_params, verify_kappa_commutator_relations):
            with pytest.raises(GroupError, match="kappa tensor does not match"):
                check(quint31, frame)


@pytest.mark.parametrize("fixture", MATRIX)
def test_extraction_matches_the_scalar_oracle(fixture, request):
    g = request.getfixturevalue(fixture)
    kappa = structure_constants(g.field)
    frame = lift_generator_frame(g, "coordinate")
    frames = [frame, pgf.structure.central_shift_frame(g, frame)]
    if frame.m == 1:
        frames.append(lift_generator_frame(g, "generic"))
    for f in frames:
        params = extract_presentation_params(g, f)
        want = presentation_params_oracle(g, f, kappa)
        for name, arr in want.items():
            assert np.array_equal(getattr(params, name), arr), name


@pytest.mark.parametrize("fixture", ["quint32", "hmod32"])
def test_extraction_names_the_first_value_outside_the_span(fixture, request):
    g = request.getfixturevalue(fixture)
    kappa = structure_constants(g.field)
    f = lift_generator_frame(g, "coordinate")
    # a basis of a noncentral subgroup: [h1, x1] = z1 stays in its span
    for z, first in (((f.z[0], f.h[0], f.z[2], f.z[3]), "[h1, x2]"),
                     ((f.z[0], f.z[1], f.z[2], f.h[0]), "[h1, y2]")):
        bad = GeneratorFrame(g, f.x, f.y, f.h, z)
        message = f"{first} lies outside the central span"
        with pytest.raises(TheoremViolation) as err:
            extract_presentation_params(g, bad)
        assert str(err.value) == message
        with pytest.raises(TheoremViolation) as err:
            presentation_params_oracle(g, bad, kappa)
        assert str(err.value) == message


def test_params_as_dict_shape(quint31):
    params = extract_presentation_params(quint31, lift_generator_frame(quint31, "coordinate"))
    blob = json.loads(json.dumps(params.as_dict()))
    assert blob["p"] == 3 and blob["m"] == 1
    assert set(blob) == {"p", "m", "kappa", "alpha", "beta", "gamma", "delta",
                        "lambda", "mu", "epsilon", "nu"}
    assert blob["lambda"] == [[[0, 0]]]


# -- kappa commutator relations -------------------------------------------


@pytest.mark.parametrize("fixture", ["quint31", "hmod31", "hmod51", "quint32", "hmod32"])
def test_kappa_relations_hold(fixture, request):
    g = request.getfixturevalue(fixture)
    frame = lift_generator_frame(g, "coordinate")
    rep = verify_kappa_commutator_relations(g, frame)
    assert rep["passed"], rep
    assert rep["checked"] == 2 * frame.m * frame.m


def test_kappa_relations_counterexample(quint32):
    good = lift_generator_frame(quint32, "coordinate")
    # swapping the z halves misaligns both kappa words
    swapped = GeneratorFrame(quint32, good.x, good.y, good.h,
                             good.z[2:] + good.z[:2])
    rep = verify_kappa_commutator_relations(quint32, swapped)
    assert not rep["passed"]
    assert rep["counterexample"] is not None


def test_kappa_relations_report_the_first_failure(quint32):
    # relations run i, j, then family x before y; checked counts up to
    # the first failure.  Pinned values: the one-relation-at-a-time loop
    # reports the same on these frames
    g, f = quint32, lift_generator_frame(quint32, "coordinate")
    swapped = GeneratorFrame(g, f.x, f.y, f.h, f.z[:2] + (f.z[3], f.z[2]))
    assert verify_kappa_commutator_relations(g, swapped) == {
        "passed": False, "checked": 2,
        "counterexample": {"family": "y", "i": 1, "j": 1, "left": 6561, "right": 6561,
                           "word": 19683}}
    mixed = GeneratorFrame(g, f.x, f.y, (f.h[0], g.mul(f.h[1], f.h[0])), f.z)
    assert verify_kappa_commutator_relations(g, mixed) == {
        "passed": False, "checked": 3,
        "counterexample": {"family": "x", "i": 1, "j": 2, "left": 4374, "right": 5832,
                           "word": 4374}}


# -- frame independence ----------------------------------------------------


def verify_frame_independence(g, frame_a, frame_b):
    """PresentationParams.compare on the parameters read off both frames."""
    return extract_presentation_params(g, frame_a).compare(extract_presentation_params(g, frame_b))


def test_independence_coordinate_vs_generic(quint31, hmod31, hmod51):
    for g in (quint31, hmod31, hmod51):
        a = lift_generator_frame(g, "coordinate")
        b = lift_generator_frame(g, "generic")
        rep = verify_frame_independence(g, a, b)
        assert rep["passed"], rep


def central_shift_frame(g, frame, rng):
    """Shift every x and y by a random central element; brackets survive."""
    zmem = g.center().members
    xs = tuple(g.mul(x, int(zmem[rng.integers(len(zmem))])) for x in frame.x)
    ys = tuple(g.mul(y, int(zmem[rng.integers(len(zmem))])) for y in frame.y)
    shifted = GeneratorFrame(g, xs, ys, frame.h, frame.z)
    shifted.validate()
    return shifted


def test_independence_under_central_shifts(quint31, hmod32):
    rng = np.random.default_rng(7)
    for g, rounds in ((quint31, 5), (hmod32, 2)):
        frame = lift_generator_frame(g, "coordinate")
        for _ in range(rounds):
            other = central_shift_frame(g, frame, rng)
            rep = verify_frame_independence(g, frame, other)
            assert rep["passed"], rep


def derived_shift_frame(g, frame):
    """Shift x1 by a non-central derived element and rebuild h and z.

    The later x's get central corrections so the commuting normalization
    survives; everything downstream is recomputed from the brackets.
    """
    z = g.center()
    twist = next(int(i) for i in g.derived_subgroup().members if not z.contains(int(i)))
    x1 = g.mul(frame.x[0], twist)
    xs = [x1]
    for v in frame.x[1:]:
        xs.append(g.mul(v, find_central_correction(g, x1, v)))
    m = frame.m
    hs = [g.commutator(x1, frame.y[i]) for i in range(m)]
    zs = ([g.commutator(hs[0], xs[i]) for i in range(m)]
          + [g.commutator(hs[0], frame.y[i]) for i in range(m)])
    shifted = GeneratorFrame(g, tuple(xs), frame.y, tuple(hs), tuple(zs))
    shifted.validate()
    return shifted


def test_independence_under_derived_shift(quint31, hmod32):
    for g in (quint31, hmod32):
        frame = lift_generator_frame(g, "coordinate")
        other = derived_shift_frame(g, frame)
        assert other.h != frame.h or other.z != frame.z
        rep = verify_frame_independence(g, frame, other)
        assert rep["passed"], rep
        assert verify_kappa_commutator_relations(g, other)["passed"]


def test_independence_trivial(quint31):
    frame = lift_generator_frame(quint31, "coordinate")
    assert verify_frame_independence(quint31, frame, frame)["passed"]


# -- central basis ---------------------------------------------------------


def test_elem_abelian_basis_rejects_dependent(hmod31):
    z = hmod31.center().members
    nontrivial = int(z[1])
    with pytest.raises(GroupError):
        ElemAbelianBasis(hmod31, [nontrivial, nontrivial])


def test_elem_abelian_basis_rejects_outsider(hmod31):
    frame = lift_generator_frame(hmod31, "coordinate")
    basis = ElemAbelianBasis(hmod31, list(frame.z))
    with pytest.raises(TheoremViolation):
        basis.log_many([frame.x[0]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2))
def test_elem_abelian_basis_roundtrip(exponents):
    g = _BASIS_GROUP["g"]
    basis = _BASIS_GROUP["basis"]
    word = g.identity
    for b, e in zip(basis.basis, exponents):
        word = g.mul(word, g.power(b, e))
    assert basis.log_many([word]).tolist() == [exponents]


_BASIS_GROUP = {}


def _init_basis_group():
    g = build("hmod:p=3,m=1")
    frame = lift_generator_frame(g, "coordinate")
    _BASIS_GROUP["g"] = g
    _BASIS_GROUP["basis"] = ElemAbelianBasis(g, list(frame.z))


_init_basis_group()
