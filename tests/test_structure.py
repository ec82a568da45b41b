"""Structure checks: profile, suite, recognition, frames, parameters."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pgf.structure
from pgf.constructions import build_cyclic, build_group, parse_group_spec, quintuple_coords
from pgf.engine import GroupError
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
    verify_frame_independence,
    verify_kappa_commutator_relations,
    verify_structural_suite,
)

from helpers import breadth_set


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


@pytest.mark.parametrize("step", [None, 7])
@pytest.mark.parametrize("fixture", ["hmod31", "quint51", "hmod32"])
def test_quotient_centralizer_scan_matches_per_element_loop(fixture, step, request, monkeypatch):
    g = request.getfixturevalue(fixture)
    qz = g.quotient(g.center())
    if step:  # chunks of 7 noncentral elements, the last one short
        monkeypatch.setattr(pgf.structure, "CHUNK_PRODUCTS", step * qz.order)
    seen: dict = {}
    for x in np.flatnonzero(~qz.center().membership_mask()):
        c = qz.centralizer(int(x))
        seen.setdefault(tuple(c.members.tolist()), c)
    scanned = pgf.structure._distinct_noncentral_centralizers(qz)
    assert [c.members.tolist() for c in scanned] == [list(k) for k in seen]
    assert all(c.parent is qz for c in scanned)


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


def test_extraction_rejects_foreign_kappa(quint31):
    from pgf.fields import find_irreducible
    frame = lift_generator_frame(quint31, "coordinate")
    wrong = structure_constants(find_irreducible(3, 2))
    with pytest.raises(GroupError):
        extract_presentation_params(quint31, frame, wrong)


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


# -- frame independence ----------------------------------------------------


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
        basis.log(frame.x[0])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2))
def test_elem_abelian_basis_roundtrip(exponents):
    g = _BASIS_GROUP["g"]
    basis = _BASIS_GROUP["basis"]
    word = g.identity
    for b, e in zip(basis.basis, exponents):
        word = g.mul(word, g.power(b, e))
    assert basis.log(word).tolist() == exponents


_BASIS_GROUP = {}


def _init_basis_group():
    g = build("hmod:p=3,m=1")
    frame = lift_generator_frame(g, "coordinate")
    _BASIS_GROUP["g"] = g
    _BASIS_GROUP["basis"] = ElemAbelianBasis(g, list(frame.z))


_init_basis_group()
