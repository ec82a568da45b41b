"""Field layer: reference oracles, frozen small values, exhaustive axioms.

The oracles here (schoolbook polynomial arithmetic, root scans, brute
inverse search) are written independently of the package internals so the
two implementations check each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgf.fields import (
    FieldError,
    FieldOps,
    FieldSpec,
    KappaTensor,
    ff_add,
    ff_inv,
    ff_mul,
    ff_neg,
    ff_pow,
    ff_sub,
    find_irreducible,
    is_irreducible,
    is_prime,
    structure_constants,
)


# -- local oracles ---------------------------------------------------------


def oracle_mul(a, b, modulus, p):
    """Schoolbook product, then long division by the monic modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    m = len(modulus) - 1
    while len(prod) > m:
        lead = prod[-1]
        shift = len(prod) - 1 - m
        for k, c in enumerate(modulus):
            prod[shift + k] = (prod[shift + k] - lead * c) % p
        while prod and prod[-1] == 0:
            prod.pop()
    prod += [0] * (m - len(prod))
    return tuple(prod)


def oracle_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def first_rootfree_modulus(p, m):
    """Ascending scan for the first monic degree-m polynomial without roots.

    For m in {2, 3} rootlessness is a complete irreducibility test, so this
    is an independent oracle for the modulus chooser at those degrees.
    """
    assert m in (2, 3)
    for code in range(p**m):
        coeffs = tuple((code // p**k) % p for k in range(m)) + (1,)
        if all(oracle_eval(coeffs, x, p) != 0 for x in range(p)):
            return coeffs
    raise AssertionError("no rootfree polynomial found")


F31 = find_irreducible(3, 1)
F51 = find_irreducible(5, 1)
F71 = find_irreducible(7, 1)
F32 = find_irreducible(3, 2)
F52 = find_irreducible(5, 2)
F72 = find_irreducible(7, 2)
F33 = find_irreducible(3, 3)
F34 = find_irreducible(3, 4)


def test_oracle_self_check():
    # x * x mod x^2+1 = -1 = 2 over GF(3); pins the oracle before it is used
    assert oracle_mul((0, 1), (0, 1), (1, 0, 1), 3) == (2, 0)
    assert oracle_eval((1, 0, 1), 2, 3) == 2


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_find_irreducible_frozen_moduli():
    assert F31.modulus == (0, 1)
    assert F32.modulus == (1, 0, 1)
    assert F52.modulus == (2, 0, 1)
    assert F72.modulus == (1, 0, 1)
    assert F33.modulus == (1, 2, 0, 1)


def test_find_irreducible_matches_root_scan():
    for p, m in [(3, 2), (5, 2), (7, 2), (3, 3)]:
        assert find_irreducible(p, m).modulus == first_rootfree_modulus(p, m)


def test_is_irreducible_complete_on_quadratics():
    # degree 2: reducible iff it has a root, so the scan is exhaustive truth
    for p in (3, 5):
        for c0 in range(p):
            for c1 in range(p):
                coeffs = (c0, c1, 1)
                has_root = any(oracle_eval(coeffs, x, p) == 0 for x in range(p))
                assert is_irreducible(coeffs, p) == (not has_root)


def test_find_irreducible_rejects_bad_parameters():
    with pytest.raises(FieldError):
        find_irreducible(4, 2)
    with pytest.raises(FieldError):
        find_irreducible(3, 0)
    with pytest.raises(FieldError, match="odd"):
        find_irreducible(2, 3)


def test_spec_rejects_p2_and_reducible_modulus():
    with pytest.raises(FieldError, match="odd"):
        FieldSpec(2, 1, (0, 1))
    with pytest.raises(FieldError):
        FieldSpec(3, 2, (2, 0, 1))  # x^2+2 = (x+1)(x+2) over GF(3)
    with pytest.raises(FieldError):
        FieldSpec(3, 2, (1, 0, 2))  # not monic
    with pytest.raises(FieldError):
        FieldSpec(9, 1, (0, 1))


def test_ff_mul_matches_oracle_exhaustively():
    for spec in (F32, F52, F33):
        for a in spec.elements():
            for b in spec.elements():
                assert ff_mul(a, b, spec) == oracle_mul(a, b, spec.modulus, spec.p)


def test_ff_inv_matches_brute_search():
    spec = F32
    one = spec.one
    for a in spec.elements():
        if a == spec.zero:
            continue
        hits = [b for b in spec.elements() if ff_mul(a, b, spec) == one]
        assert len(hits) == 1
        assert ff_inv(a, spec) == hits[0]
    assert ff_inv(spec.alpha, spec) == (0, 2)


def test_inverse_of_zero_raises():
    with pytest.raises(FieldError, match="zero"):
        ff_inv(F32.zero, F32)


def test_alpha_power_frozen_values():
    assert ff_mul(F32.alpha, F32.alpha, F32) == (2, 0)
    assert ff_pow(F32.alpha, 3, F32) == (0, 2)
    assert ff_pow(F32.alpha, 4, F32) == (1, 0)
    assert ff_mul(F52.alpha, F52.alpha, F52) == (3, 0)
    assert ff_pow(F31.alpha, 0, F31) == (1,)


def test_ff_pow_edge_cases():
    assert ff_pow(F32.zero, 0, F32) == F32.one
    assert ff_pow(F32.zero, 5, F32) == F32.zero
    assert ff_pow(F32.alpha, -1, F32) == ff_inv(F32.alpha, F32)


def test_kappa_frozen_values():
    k32 = structure_constants(F32)
    assert k32[0, 0] == (1, 0)
    assert k32[0, 1] == (0, 1)
    assert k32[1, 0] == (0, 1)
    assert k32[1, 1] == (2, 0)
    k31 = structure_constants(F31)
    assert k31[0, 0] == (1,)
    k52 = structure_constants(F52)
    assert k52[1, 1] == (3, 0)
    assert k32.as_lists() == [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]


def test_kappa_rejects_tampered_entries():
    good = structure_constants(F32).entries
    bad_shape = good[:1]
    with pytest.raises(FieldError):
        KappaTensor(F32, bad_shape)
    swapped = ((good[0][0], (1, 1)), ((0, 1), good[1][1]))
    with pytest.raises(FieldError):
        KappaTensor(F32, swapped)
    wrong = ((good[0][1], good[0][1]), (good[1][0], good[1][1]))
    with pytest.raises(FieldError):
        KappaTensor(F32, wrong)


def test_alternate_modulus_gives_a_field():
    alt = FieldSpec(3, 2, (2, 1, 1))  # x^2+x+2, also irreducible over GF(3)
    assert ff_mul(alt.alpha, alt.alpha, alt) == (1, 2)
    assert structure_constants(alt)[1, 1] == (1, 2)
    for a in alt.elements():
        if a != alt.zero:
            assert ff_mul(a, ff_inv(a, alt), alt) == alt.one


def test_serialize_format():
    assert F32.serialize() == "p=3,m=2,modulus=[1,0,1]"
    assert F31.serialize() == "p=3,m=1,modulus=[0,1]"
    assert FieldSpec(3, 2, (2, 1, 1)).serialize() == "p=3,m=2,modulus=[2,1,1]"


def test_code_roundtrip_and_normalization():
    for spec in (F31, F32, F33):
        for code in range(spec.q):
            assert spec.to_int(spec.from_int(code)) == code
    assert F32.element((4, -1)) == (1, 2)
    with pytest.raises(FieldError):
        F32.element((1, 2, 0))
    with pytest.raises(FieldError):
        F32.from_int(9)
    with pytest.raises(FieldError):
        F32.from_int(-1)


def test_determinism():
    assert find_irreducible(3, 2) == F32
    assert find_irreducible(3, 2).serialize() == F32.serialize()


def test_fieldops_alpha_power_codes():
    ops = FieldOps(F32)
    assert ops.alpha_pow == [1, 3, 2, 6, 1]
    ops1 = FieldOps(F31)
    # degree one: only alpha^0 is meaningful and it must be the unit code
    assert ops1.alpha_pow[0] == 1


@pytest.mark.parametrize("spec", [F31, F51, F71, F32, F52, F33, F34],
                         ids=lambda s: f"q{s.q}")
def test_field_axioms_exhaustive(spec):
    """Every field axiom, over every element tuple, via the vectorized ops."""
    ops = FieldOps(spec)
    q = spec.q
    codes = np.arange(q, dtype=np.int16)
    a, b = np.meshgrid(codes, codes, indexing="ij")
    a, b = a.ravel(), b.ravel()
    assert np.array_equal(ops.add(a, b), ops.add(b, a))
    assert np.array_equal(ops.mul(a, b), ops.mul(b, a))
    assert np.array_equal(ops.sub(a, b), ops.add(a, ops.neg(b)))
    t = np.arange(q * q * q, dtype=np.int64)
    ab, c3 = np.divmod(t, q)
    a3, b3 = np.divmod(ab, q)
    a3 = a3.astype(np.int16)
    b3 = b3.astype(np.int16)
    c3 = c3.astype(np.int16)
    assert np.array_equal(ops.add(ops.add(a3, b3), c3), ops.add(a3, ops.add(b3, c3)))
    assert np.array_equal(ops.mul(ops.mul(a3, b3), c3), ops.mul(a3, ops.mul(b3, c3)))
    assert np.array_equal(
        ops.mul(a3, ops.add(b3, c3)), ops.add(ops.mul(a3, b3), ops.mul(a3, c3))
    )
    zero = spec.to_int(spec.zero)
    one = spec.to_int(spec.one)
    assert zero == 0 and one == 1
    assert np.array_equal(ops.add(codes, zero), codes)
    assert np.array_equal(ops.mul(codes, one), codes)
    assert np.all(ops.add(codes, ops.neg(codes)) == zero)
    assert np.all(ops.mul(codes, zero) == zero)
    prod_table = ops.mul(codes[:, None], codes[None, :])
    # exactly one multiplicative inverse per nonzero element, no zero divisors
    assert np.all((prod_table[1:, 1:] == one).sum(axis=1) == 1)
    assert not np.any(prod_table[1:, 1:] == zero)
    acc = spec.zero
    for _ in range(spec.p):
        acc = ff_add(acc, spec.one, spec)
    assert acc == spec.zero


def test_fieldops_matches_scalar_reference():
    for spec in (F31, F32, F52):
        ops = FieldOps(spec)
        for ac in range(spec.q):
            for bc in range(spec.q):
                a, b = spec.from_int(ac), spec.from_int(bc)
                assert int(ops.mul(ac, bc)) == spec.to_int(ff_mul(a, b, spec))
                assert int(ops.add(ac, bc)) == spec.to_int(ff_add(a, b, spec))


SPECS = [F31, F51, F71, F32, F52, F72, F33, F34]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_mul_group_laws(data):
    spec = data.draw(st.sampled_from(SPECS))
    q = spec.q
    a = spec.from_int(data.draw(st.integers(0, q - 1)))
    b = spec.from_int(data.draw(st.integers(0, q - 1)))
    c = spec.from_int(data.draw(st.integers(0, q - 1)))
    assert ff_mul(a, b, spec) == ff_mul(b, a, spec)
    assert ff_mul(ff_mul(a, b, spec), c, spec) == ff_mul(a, ff_mul(b, c, spec), spec)
    assert ff_mul(a, ff_add(b, c, spec), spec) == ff_add(
        ff_mul(a, b, spec), ff_mul(a, c, spec), spec
    )
    assert ff_sub(a, b, spec) == ff_add(a, ff_neg(b, spec), spec)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_pow_is_a_homomorphism_of_exponents(data):
    spec = data.draw(st.sampled_from(SPECS))
    a = spec.from_int(data.draw(st.integers(0, spec.q - 1)))
    i = data.draw(st.integers(0, 12))
    j = data.draw(st.integers(0, 12))
    assert ff_pow(a, i + j, spec) == ff_mul(ff_pow(a, i, spec), ff_pow(a, j, spec), spec)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_inverse(data):
    spec = data.draw(st.sampled_from(SPECS))
    code = data.draw(st.integers(1, spec.q - 1))
    a = spec.from_int(code)
    assert ff_mul(a, ff_inv(a, spec), spec) == spec.one
    # Fermat style order bound: a^(q-1) = 1
    assert ff_pow(a, spec.q - 1, spec) == spec.one


def test_fieldops_large_prime_product_does_not_wrap():
    # 190 * 190 = 36100 overflows int16; the product is 1 in GF(191)
    ops = FieldOps(find_irreducible(191, 1))
    a = np.array([190], dtype=np.int16)
    assert ops.mul(a, a).tolist() == [1]


def test_fieldops_rejects_codes_beyond_int16():
    with pytest.raises(FieldError, match="int16"):
        FieldOps(find_irreducible(32771, 1))


# the prime fields past the int16 product range, and the spec matrix
OPS_SPECS = [find_irreducible(191, 1), find_irreducible(193, 1), F31, F51, F71, F32,
             FieldSpec(3, 2, (2, 1, 1))]
OPS = {spec: FieldOps(spec) for spec in OPS_SPECS}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_fieldops_match_scalar_ops(data):
    spec = data.draw(st.sampled_from(OPS_SPECS))
    ops = OPS[spec]
    # the top codes are where an int16 product would wrap
    code = st.integers(0, spec.q - 1) | st.integers(max(0, spec.q - 16), spec.q - 1)
    codes = data.draw(st.lists(st.tuples(code, code), min_size=1, max_size=8))
    a, b = np.array(codes, dtype=np.int16).T
    pairs = [(spec.from_int(x), spec.from_int(y)) for x, y in codes]
    assert ops.add(a, b).tolist() == [spec.to_int(ff_add(x, y, spec)) for x, y in pairs]
    assert ops.sub(a, b).tolist() == [spec.to_int(ff_sub(x, y, spec)) for x, y in pairs]
    assert ops.mul(a, b).tolist() == [spec.to_int(ff_mul(x, y, spec)) for x, y in pairs]
    assert ops.neg(a).tolist() == [spec.to_int(ff_neg(x, spec)) for x, _ in pairs]


# GF(31) is the largest field whose q**3 - 1 fits the int16 fma index,
# GF(37) the first whose index must go wide
FMA_SPECS = [F31, F71, F52, F32, FieldSpec(3, 2, (2, 1, 1)), find_irreducible(31, 1),
             find_irreducible(37, 1)]


@pytest.mark.parametrize("spec", FMA_SPECS, ids=lambda s: f"q{s.q}-{s.serialize()}")
def test_fma_is_add_of_mul_on_every_triple(spec):
    ops = FieldOps(spec)
    q = spec.q
    acc, a, b = np.indices((q, q, q), dtype=np.int16).reshape(3, -1)
    got = ops.fma(acc, a, b)
    assert np.array_equal(got, ops.add(acc, ops.mul(a, b)))
    assert got.dtype == np.int16
