"""Construction tests: packing oracles, frozen structure values, spec strings.

Matrix backends are checked against literal d x d integer matrix products,
the five-coordinate product against a scalar transcription of its defining
polynomial, both written here rather than shared with the implementation.
"""

import functools

import numpy as np
import pytest

from pgf.constructions import (
    GroupSpec,
    H_SLOTS,
    MatrixBackend,
    PatternedU5Backend,
    _pack_positions,
    build_direct_product_with_elem_abelian,
    build_group,
    build_h_matrix,
    build_h_mod_center,
    build_quintuple,
    build_u3,
    identification_map,
    parse_group_spec,
    patterned_row,
    quintuple_coords,
    quintuple_generator_indices,
    quintuple_index,
    u3_named_elements,
)
import pgf.constructions
import pgf.engine
from pgf.engine import TABLE_CAP, CapExceeded, FiniteGroup, GroupError, is_homomorphism
from pgf.fields import FieldError, FieldOps, FieldSpec, ff_add, ff_mul, ff_sub, find_irreducible

from helpers import (
    build_cyclic,
    feeding_corner,
    from_closure,
    matrix_product_oracle,
    quintuple_commutator_oracle,
    verify_quintuple_identification,
)

F31 = find_irreducible(3, 1)
F51 = find_irreducible(5, 1)
F71 = find_irreducible(7, 1)
F32 = find_irreducible(3, 2)


# -- oracles ---------------------------------------------------------------


def unpack_matrix(row, d):
    m = np.eye(d, dtype=np.int64)
    for t, (r, c) in enumerate(_pack_positions(d)):
        m[r, c] = int(row[t])
    return m


def pack_matrix(m, d):
    return np.array([m[r, c] for (r, c) in _pack_positions(d)], dtype=np.int64)


def quint_mul_scalar(g, h, p):
    a, b, c, d, e = (int(t) for t in g)
    x, y, z, u, v = (int(t) for t in h)
    return (
        (a + x) % p,
        (b + y) % p,
        (c + z + b * x) % p,
        (d + u + a * z + (a * b - c) * x) % p,
        (e + v + c * y + b * (x * y - z)) % p,
    )


@pytest.mark.parametrize("d,p", [(3, 3), (3, 7), (5, 3), (5, 5)])
def test_matrix_backend_is_matrix_multiplication(d, p):
    spec = find_irreducible(p, 1)
    back = MatrixBackend(FieldOps(spec), d)
    rng = np.random.default_rng(2)
    a = rng.integers(0, p, (60, back.width)).astype(np.int16)
    b = rng.integers(0, p, (60, back.width)).astype(np.int16)
    got = back.mul_rows(a, b)
    for k in range(60):
        want = (unpack_matrix(a[k], d) @ unpack_matrix(b[k], d)) % p
        assert np.array_equal(got[k], pack_matrix(want, d) % p)
    inv = back.inv_rows(a)
    for k in range(60):
        prod = (unpack_matrix(a[k], d) @ unpack_matrix(inv[k], d)) % p
        assert np.array_equal(prod, np.eye(d, dtype=np.int64))


def test_matrix_backend_extension_field_against_scalar_ops():
    back = MatrixBackend(FieldOps(F32), 3)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 9, (40, 3)).astype(np.int16)
    b = rng.integers(0, 9, (40, 3)).astype(np.int16)
    got = back.mul_rows(a, b)
    for k in range(40):
        a21, a31, a32 = (F32.from_int(int(t)) for t in a[k])
        b21, b31, b32 = (F32.from_int(int(t)) for t in b[k])
        c21 = ff_add(a21, b21, F32)
        c31 = ff_add(ff_add(a31, b31, F32), ff_mul(a32, b21, F32), F32)
        c32 = ff_add(a32, b32, F32)
        assert [F32.from_int(int(t)) for t in got[k]] == [c21, c31, c32]


def test_quintuple_backend_matches_scalar_formula():
    g = build_quintuple(F31)
    rng = np.random.default_rng(9)
    xs = rng.integers(0, g.order, 300)
    ys = rng.integers(0, g.order, 300)
    prods = g.mul_many(xs, ys)
    for i, j, k in zip(xs[:120], ys[:120], prods[:120]):
        want = quint_mul_scalar(g.rows[i], g.rows[j], 3)
        assert tuple(int(t) for t in g.rows[k]) == want


def test_quintuple_extension_field_against_scalar_ops():
    g = build_quintuple(F32)
    rng = np.random.default_rng(1)
    xs = rng.integers(0, g.order, 80)
    ys = rng.integers(0, g.order, 80)
    prods = g.mul_many(xs, ys)
    f = F32
    for i, j, k in zip(xs, ys, prods):
        a, b, c, d, e = (f.from_int(int(t)) for t in g.rows[i])
        x, y, z, u, v = (f.from_int(int(t)) for t in g.rows[j])
        cc = ff_add(ff_add(c, z, f), ff_mul(b, x, f), f)
        abc = ff_sub(ff_mul(a, b, f), c, f)
        dd = ff_add(ff_add(d, u, f), ff_add(ff_mul(a, z, f), ff_mul(abc, x, f), f), f)
        ee = ff_add(
            ff_add(e, v, f),
            ff_add(ff_mul(c, y, f),
                   ff_mul(b, ff_sub(ff_mul(x, y, f), z, f), f), f), f)
        want = (ff_add(a, x, f), ff_add(b, y, f), cc, dd, ee)
        assert tuple(f.from_int(int(t)) for t in g.rows[k]) == want


# -- u3 --------------------------------------------------------------------


def test_u3_small_structure():
    g = build_u3(F31)
    assert g.order == 27
    assert g.kind == "u3"
    assert g.nilpotency_class() == 2
    assert g.conjugate_type() == [1, 3]
    assert g.center().order == 3
    assert g.exponent() == 3
    assert g.derived_subgroup().same_as(g.center())


def test_u3_extension_field():
    g = build_u3(F32)
    assert g.order == 729
    assert g.center().order == 9
    assert g.conjugate_type() == [1, 9]
    assert g.exponent() == 3
    assert len(g.generators) == 4


def test_u3_exponent_is_p_at_25():
    g = build_u3(find_irreducible(5, 2))
    assert g.order == 15625
    assert g.exponent() == 5


def test_u3_named_elements_and_relations():
    g = build_u3(F32)
    named = u3_named_elements(g)
    assert len(named["x"]) == 2 and len(named["y"]) == 2 and len(named["h"]) == 3
    # relations were checked at build; spot-check the cross commutator again
    assert g.commutator(named["x"][1], named["y"][1]) == named["h"][2]
    assert g.commutator(named["x"][0], named["y"][0]) == named["h"][0]
    z = g.center()
    for h in named["h"]:
        assert z.contains(h)


# -- quintuple -------------------------------------------------------------


def test_quintuple_structure():
    g = build_quintuple(F31)
    assert g.order == 243
    assert g.nilpotency_class() == 3
    assert g.conjugate_type() == [1, 9]
    z = g.center()
    assert z.order == 9
    assert g.gamma(3).same_as(z)
    der = g.derived_subgroup()
    assert der.order == 27
    assert np.all(g.rows[der.members][:, :2] == 0)
    # mixed elements can have order p^2, e.g. (1,1,0,0,0), but every cube
    # is central: the exponent of G/Z is p
    assert g.exponent() == 9
    assert g.quotient(g.center()).exponent() == 3


def test_quintuple_frozen_commutators():
    g = build_quintuple(F31)
    x1 = quintuple_index(g, (1, 0, 0, 0, 0))
    y1 = quintuple_index(g, (0, 1, 0, 0, 0))
    h1 = g.commutator(x1, y1)
    assert tuple(g.rows[h1]) == (0, 0, 2, 1, 2)
    z1 = g.commutator(h1, x1)
    z2 = g.commutator(h1, y1)
    assert tuple(g.rows[z1]) == (0, 0, 0, 2, 0)
    assert tuple(g.rows[z2]) == (0, 0, 0, 0, 1)


def test_quintuple_commutator_oracle_agrees_with_engine():
    g = build_quintuple(F31)
    ops = g.backend.ops
    rng = np.random.default_rng(3)
    xs = rng.integers(0, g.order, 4000)
    ys = rng.integers(0, g.order, 4000)
    got = g.rows[g.commutator_many(xs, ys)]
    want = quintuple_commutator_oracle(ops, g.rows[xs], g.rows[ys])
    assert np.array_equal(got, want)


def test_quintuple_centralizer_shape():
    g = build_quintuple(F31)
    x1 = quintuple_index(g, (1, 0, 0, 0, 0))
    cx = g.centralizer(x1)
    assert cx.order == 27
    rows = g.rows[cx.members]
    assert np.all(rows[:, 1] == 0) and np.all(rows[:, 2] == 0)


# -- hmat ------------------------------------------------------------------


def test_hmat_structure():
    g = build_h_matrix(F31)
    assert g.order == 729
    assert g.nilpotency_class() == 4
    series = [s.order for s in g.lower_central_series()]
    assert series == [729, 81, 27, 3, 1]
    z = g.center()
    assert z.order == 3
    assert z.same_as(g.gamma(4))
    der = g.derived_subgroup()
    rows = g.rows[der.members]
    assert np.all(rows[:, H_SLOTS["a"]] == 0) and np.all(rows[:, H_SLOTS["b"]] == 0)
    assert len(g.generators) == 4


def test_hmat_rows_satisfy_pattern():
    g = build_h_matrix(F31)
    r = g.rows
    ops = g.backend.ops
    assert np.array_equal(r[:, H_SLOTS["a2"]], r[:, H_SLOTS["a"]])
    assert np.array_equal(r[:, H_SLOTS["b2"]], r[:, H_SLOTS["b"]])
    assert np.array_equal(r[:, H_SLOTS["c2"]], r[:, H_SLOTS["c"]])
    want = ops.sub(ops.mul(r[:, H_SLOTS["a"]], r[:, H_SLOTS["b"]]), r[:, H_SLOTS["c"]])
    assert np.array_equal(r[:, H_SLOTS["ab_c"]], want)


def test_pattern_backend_rejects_untied_rows():
    back = PatternedU5Backend(FieldOps(F31))
    row = patterned_row(back.ops, 1, 1, 0, 0, 0, 0).copy()
    row[H_SLOTS["a2"]] = 2
    with pytest.raises(GroupError, match="tied"):
        back.check_rows(row[None, :])
    row2 = patterned_row(back.ops, 1, 1, 0, 0, 0, 0).copy()
    row2[H_SLOTS["ab_c"]] = 0
    with pytest.raises(GroupError, match="derived"):
        back.check_rows(row2[None, :])


class UntyingU5Backend(PatternedU5Backend):
    """Unties a2 on every product that lands on the identity's chart code,
    a code the closure knows before its first wave."""

    def mul_rows(self, a, b):
        out = super().mul_rows(a, b)
        lands = ~out.any(axis=1)
        out[lands, H_SLOTS["a2"]] = 1
        return out


def test_closure_proof_checks_products_it_already_knows():
    back = UntyingU5Backend(FieldOps(F31))
    gens = np.array([patterned_row(back.ops, 1, 0, 0, 0, 0, 0),
                     patterned_row(back.ops, 0, 1, 0, 0, 0, 0)])
    with pytest.raises(GroupError, match="tied"):
        from_closure("untied", back, gens)


def test_chart_build_proves_its_products_are_pattern_rows(monkeypatch):
    # the chart build's only proof is the constructor's closure over the
    # generators: each product must equal a stored pattern row, and the
    # untied identity does not
    monkeypatch.setattr(pgf.constructions, "PatternedU5Backend", UntyingU5Backend)

    def built(self):
        raise AssertionError("the constructor accepted an untied product")

    monkeypatch.setattr(FiniteGroup, "center", built)
    with pytest.raises(GroupError, match="closure violation"):
        build_h_matrix(F31)


CHART_CASES = [("u3", F31), ("u3", F71), ("u3", F32), ("hmat", F31), ("hmat", F51), ("hmat", F32)]


@pytest.mark.parametrize("kind,field", CHART_CASES,
                         ids=[f"{k}:q={f.q}" for k, f in CHART_CASES])
def test_chart_build_matches_breadth_first_closure(kind, field):
    g = {"u3": build_u3, "hmat": build_h_matrix}[kind](field)
    closed = from_closure(g.name, g.backend, g.rows[g.generators])
    assert np.array_equal(g.rows, closed.rows)
    assert np.array_equal(g.codes, closed.codes)
    assert g.generators == closed.generators


def test_chart_generator_indices_are_chart_codes():
    assert build_h_matrix(F32).generators == [9, 27, 59049, 177147, 6561, 81]
    assert build_u3(F32).generators == [81, 243, 1, 3]
    # hmat's generators modulo F; the corner generator's image is the identity
    assert build_h_mod_center(F32).generators == [0, 9, 27, 729, 6561, 19683]


def test_hmat_two_generators_suffice():
    # the a-seed and b-seed alone generate: commutators reach every corner
    g = build_h_matrix(F31)
    ops = g.backend.ops
    a_seed = g.index_of_rows(patterned_row(ops, 1, 0, 0, 0, 0, 0)[None, :])[0]
    b_seed = g.index_of_rows(patterned_row(ops, 0, 1, 0, 0, 0, 0)[None, :])[0]
    assert len(g.closure_members([a_seed, b_seed])) == g.order


# -- hmod and the identification ------------------------------------------


def test_hmod_structure():
    g = build_h_mod_center(F31)
    assert g.order == 243
    assert g.kind == "hmod"
    assert g.nilpotency_class() == 3
    assert g.conjugate_type() == [1, 9]
    assert g.center().order == 9
    assert g.derived_subgroup().order == 27
    assert not g.camina_check()


HMOD_ORACLE_CASES = [F31, F51, F32, FieldSpec(3, 2, (2, 1, 1))]


@pytest.mark.parametrize("field", HMOD_ORACLE_CASES, ids=["q3", "q5", "q9", "q9-alt"])
def test_hmod_equals_the_quotient_of_hmat(field):
    # the oracle: hmat enumerated, divided by its center through the engine
    g = build_h_mod_center(field)
    hm = build_h_matrix(field)
    quo = hm.quotient(hm.center())
    assert np.array_equal(g.rows, hm.rows[quo.backend.leaders])
    assert g.generators == quo.generators
    assert [g.describe(i) for i in (0, 1, g.order - 1)] == [quo.describe(i) for i in (0, 1, quo.order - 1)]
    ids = np.arange(g.order)
    assert is_homomorphism(g, quo, ids, g.generators, ids)
    assert is_homomorphism(quo, g, ids, quo.generators, ids)


def test_hmod_build_allocates_no_memo_table():
    # 3125 is within TABLE_CAP: the build's closure proof runs unmemoized
    g = build_group("hmod:p=5,m=1")
    assert g.order <= TABLE_CAP
    assert g._table is None


@pytest.mark.parametrize("spec", ["hmod:p=3,m=2", "hmod:p=7,m=1"])
def test_hmod_build_multiplies_at_most_three_rows_per_element(monkeypatch, spec):
    rows = []
    mul_rows = MatrixBackend.mul_rows
    monkeypatch.setattr(MatrixBackend, "mul_rows", lambda self, a, b: rows.append(len(a)) or mul_rows(self, a, b))
    g = build_group(spec)
    assert 0 < sum(rows) <= 3 * g.field.q**5


def test_hmod_refuses_a_corner_that_feeds_another_entry(monkeypatch):
    monkeypatch.setattr(pgf.constructions, "HModBackend", feeding_corner(pgf.constructions.HModBackend))
    with pytest.raises(GroupError, match="corner entry feeds"):
        build_h_mod_center(F31)


def _dropped(rows, k):
    return np.delete(rows, k, axis=0)


def _doubled_b(rows, k):
    # y_k becomes 2 * y_0, which lies in <y_0>
    out = rows.copy()
    out[k] = patterned_row(FieldOps(F32), 0, 2, 0, 0, 0, 0)
    return out


def _untied(rows, k):
    out = rows.copy()
    out[k, H_SLOTS["a2"]] = 0
    return out


@pytest.mark.parametrize("edit,k,match", [
    (_dropped, 2, "do not generate"),      # y_0
    (_dropped, 3, "do not generate"),      # y_1
    (_doubled_b, 3, "do not generate"),
    (_untied, 0, "tied"),
], ids=["drop-y0", "drop-y1", "y1-in-span-of-y0", "untied-x0"])
def test_hmod_rejects_a_dropped_or_wrong_generator(monkeypatch, edit, k, match):
    gen_rows = pgf.constructions._h_generator_rows
    monkeypatch.setattr(pgf.constructions, "_h_generator_rows", lambda ops, m: edit(gen_rows(ops, m), k))
    with pytest.raises(GroupError, match=match):
        build_h_mod_center(F32)


def test_gamma4_check_needs_corner_entries_spanning_the_field():
    ops = FieldOps(F32)
    u5 = PatternedU5Backend(ops)
    gens = pgf.constructions._h_generator_rows(ops, 2)
    pgf.constructions._check_gamma4(u5, gens)
    # the a-axis and the corner commute, so every commutator vanishes
    with pytest.raises(GroupError, match="span"):
        pgf.constructions._check_gamma4(u5, gens[[0, 1, 5]])
    # one a-generator and one b-generator: the corner entries of the
    # weight-4 commutators lie in GF(3), a line of GF(9)
    with pytest.raises(GroupError, match="span"):
        pgf.constructions._check_gamma4(u5, gens[[0, 2]])
    # a product whose corner feeds entry e has weight-4 commutators off it
    with pytest.raises(GroupError, match="leaves the corner axis"):
        pgf.constructions._check_gamma4(feeding_corner(PatternedU5Backend)(ops), gens)


def test_central_leaders_scan_finds_what_a_full_scan_finds():
    g = build_h_mod_center(F31)
    ops = g.backend.ops
    u5 = PatternedU5Backend(ops)
    gens = pgf.constructions._h_generator_rows(ops, 1)

    def full_scan(gens):
        keep = np.ones(g.order, dtype=bool)
        for t in gens:
            t = np.broadcast_to(t, g.rows.shape)
            keep &= np.all(u5.mul_rows(g.rows, t) == u5.mul_rows(t, g.rows), axis=1)
        return g.rows[keep]

    def codes(rows):
        return sorted(g.backend.encode(rows).tolist())

    for subset in ([0, 1, 2, 3], [0, 2], [0, 3], [0]):
        got = pgf.constructions._central_leaders(u5, g.rows, gens[subset])
        assert codes(got) == codes(full_scan(gens[subset]))
    assert codes(pgf.constructions._central_leaders(u5, g.rows, gens)) == [g.identity]
    # the a-axis must commute with the first generator
    with pytest.raises(GroupError, match="a-axis"):
        pgf.constructions._central_leaders(u5, g.rows, gens[[1, 0]])


# -- dense charts ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def cached_build(build, field):
    return build(field)


@pytest.mark.parametrize("field", [F31, F32], ids=["q3", "q9"])
def test_hmat_index_is_the_chart_code(field):
    hm = cached_build(build_h_matrix, field)
    q = field.q
    a, b, c, d, e, f = np.indices((q,) * 6).reshape(6, -1)
    rows = patterned_row(hm.backend.ops, a, b, c, d, e, f)
    want = d + a * q + f * q**2 + e * q**3 + c * q**4 + b * q**5
    assert np.array_equal(hm.index_of_rows(rows), want)
    # the same element order as the packed 10-slot code
    packed = hm.rows.astype(np.int64) @ (q ** np.arange(10, dtype=np.int64))
    assert bool(np.all(np.diff(packed) > 0))


@pytest.mark.parametrize("field", [F31, F32], ids=["q3", "q9"])
def test_hmod_coset_id_is_the_chart_code(field):
    # hmod's elements are the pattern rows with f = 0, indexed by the chart
    # code over (d, a, e, c, b)
    g = cached_build(build_h_mod_center, field)
    q = field.q
    a, b, c, d, e = np.indices((q,) * 5).reshape(5, -1)
    ids = d + a * q + e * q**2 + c * q**3 + b * q**4
    assert np.array_equal(quintuple_coords(g, ids), np.stack([a, b, c, d, e], axis=1))
    rows = patterned_row(g.backend.ops, a, b, c, d, e, 0)
    assert np.array_equal(g.index_of_rows(rows), ids)
    assert np.array_equal(g.rows[ids], rows)
    # the same element order as hmat's chart code, f = 0
    hm_codes = PatternedU5Backend(g.backend.ops).encode(g.rows)
    assert bool(np.all(np.diff(hm_codes) > 0))


@pytest.mark.parametrize("field", [F31, F32], ids=["q3", "q9"])
def test_hmat_lookup_rejects_rows_off_the_chart(field):
    hm = cached_build(build_h_matrix, field)
    ops = hm.backend.ops
    q = field.q
    untied = patterned_row(ops, 1, 1, 0, 0, 0, 0).copy()
    untied[H_SLOTS["a2"]] = 2
    past = patterned_row(ops, 0, 0, 0, 0, 0, 0).copy()
    past[H_SLOTS["b"]] = past[H_SLOTS["b2"]] = q
    below = patterned_row(ops, 0, 0, 0, 0, 0, 0).copy()
    below[H_SLOTS["d"]] = -1
    codes = hm.backend.encode(np.stack([untied, past, below]))
    # the untied row has a valid chart code; the others leave 0..n-1
    assert 0 <= codes[0] < hm.order and codes[1] == hm.order and codes[2] == -1
    for row in (untied, past, below):
        with pytest.raises(GroupError, match="universe"):
            hm.index_of_rows(row[None, :])


@pytest.mark.parametrize("field", [F31, F32], ids=["q3", "q9"])
def test_hmod_lookup_rejects_rows_off_the_chart(field):
    g = cached_build(build_h_mod_center, field)
    ops = g.backend.ops
    untied = patterned_row(ops, 1, 1, 0, 0, 0, 0).copy()
    untied[H_SLOTS["a2"]] = 2
    # a pattern row of hmat that is not a coset leader; its code ignores f
    cornered = patterned_row(ops, 0, 0, 0, 0, 0, 1)
    codes = g.backend.encode(np.stack([untied, cornered]))
    assert 0 <= codes[0] < g.order and codes[1] == g.identity
    for row in (untied, cornered):
        with pytest.raises(GroupError, match="universe"):
            g.index_of_rows(row[None, :])


@pytest.mark.parametrize("spec", ["u3:p=17,m=1", "hmat:p=5,m=1"])
def test_products_past_the_memo_table_match_integer_matrices(spec):
    g = build_group(spec)
    assert g.order > TABLE_CAP
    assert g.rows.flags.c_contiguous
    rng = np.random.default_rng(11)
    i, j = rng.integers(0, g.order, (2, 3000))
    assert g.mul_many(i, j).tolist() == matrix_product_oracle(g, i, j)
    assert g.mul_many(j, i).tolist() == matrix_product_oracle(g, j, i)


def test_products_are_computed_chunk_by_chunk(monkeypatch):
    g = build_h_matrix(F51)
    sizes = []
    mul_rows = g.backend.mul_rows
    monkeypatch.setattr(g.backend, "mul_rows", lambda a, b: sizes.append(len(a)) or mul_rows(a, b))
    monkeypatch.setattr(pgf.engine, "CHUNK_PRODUCTS", 1000)
    i = np.arange(2500) * 7 % g.order
    got = g.mul_many(i, i[::-1])
    assert sizes == [1000, 1000, 500]
    assert got.tolist() == matrix_product_oracle(g, i, i[::-1])


def test_hmod_coordinate_roundtrip():
    g = build_h_mod_center(F31)
    for idx in (0, 1, 100, 242):
        coords = quintuple_coords(g, [idx])[0]
        assert quintuple_index(g, coords) == idx


def test_identification_small():
    q5 = build_quintuple(F31)
    hm = build_h_mod_center(F31)
    rep = verify_quintuple_identification(hm, q5)
    assert rep["passed"] and rep["exhaustive"]
    assert rep["pairs_checked"] == 243 * len(hm.generators)
    phi = identification_map(hm, q5)
    assert phi[hm.identity] == q5.identity
    named_h = quintuple_generator_indices(hm)
    named_q = quintuple_generator_indices(q5)
    assert [int(phi[t]) for t in named_h["x"]] == named_q["x"]
    assert [int(phi[t]) for t in named_h["y"]] == named_q["y"]


def test_identification_rejects_mismatched_fields():
    q5 = build_quintuple(F51)
    hm = build_h_mod_center(F31)
    with pytest.raises(GroupError):
        identification_map(hm, q5)


# -- products --------------------------------------------------------------


def test_direct_product_with_elem_abelian():
    base = build_u3(F31)
    g = build_direct_product_with_elem_abelian(base, 2)
    assert g.order == 27 * 9
    assert g.kind == "xab"
    assert g.center().order == 3 * 9
    assert g.nilpotency_class() == 2
    assert g.exponent() == 3
    assert g.conjugate_type() == [1, 3]
    assert build_direct_product_with_elem_abelian(base, 0) is base


def test_product_of_quotient_group():
    hm = build_h_mod_center(F31)
    g = build_direct_product_with_elem_abelian(hm, 1)
    assert g.order == 243 * 3
    assert g.nilpotency_class() == 3
    assert g.center().order == 27


# -- cyclic ----------------------------------------------------------------


def test_build_cyclic():
    g = build_cyclic(27)
    assert g.order == 27
    assert g.exponent() == 27
    assert g.nilpotency_class() == 1


# -- spec strings ----------------------------------------------------------


def test_parse_roundtrip():
    for text in (
        "u3:p=3,m=2",
        "quint:p=5,m=1",
        "hmat:p=3,m=1",
        "hmod:p=7,m=1",
        "u3:p=3,m=2,modulus=[2,1,1]",
        "xab:hmod:p=3,m=1,k=2",
        "xab:xab:u3:p=3,m=1,k=1,k=2",
    ):
        assert parse_group_spec(text).canonical() == text


def test_parse_normalizes_spacing_and_order():
    spec = parse_group_spec("  u3:m=2,p=3 ")
    assert spec == GroupSpec("u3", p=3, m=2)
    assert spec.canonical() == "u3:p=3,m=2"
    spec2 = parse_group_spec("u3:modulus=[1,0,1],p=3,m=2")
    assert spec2.modulus == (1, 0, 1)


def test_parse_rejects_garbage():
    for bad in (
        "u3",
        "borel:p=3,m=1",
        "u3:p=3",
        "u3:m=1",
        "u3:p=x,m=1",
        "u3:p=3,m=1,q=9",
        "xab:u3:p=3,m=1",
        "xab:u3:p=3,m=1,k=-1",
        "xab:u3:p=3,m=1,k=two",
    ):
        with pytest.raises(GroupError):
            parse_group_spec(bad)


def test_predicted_orders():
    assert parse_group_spec("u3:p=3,m=2").predicted_order() == 9**3
    assert parse_group_spec("quint:p=3,m=1").predicted_order() == 3**5
    assert parse_group_spec("hmat:p=3,m=2").predicted_order() == 9**6
    assert parse_group_spec("xab:hmod:p=3,m=1,k=2").predicted_order() == 3**7


def test_build_group_dispatch():
    g = build_group("u3:p=3,m=1")
    assert g.name == "u3:p=3,m=1"
    assert g.order == 27
    x = build_group("xab:u3:p=3,m=1,k=1")
    assert x.order == 81
    assert x.name == "xab:u3:p=3,m=1,k=1"


def test_build_group_respects_cap():
    with pytest.raises(CapExceeded):
        build_group("hmat:p=7,m=2")  # 7^12 far beyond the default cap
    with pytest.raises(CapExceeded):
        build_group("u3:p=3,m=1", cap=5)


def test_build_group_rejects_even_characteristic():
    with pytest.raises(FieldError, match="odd"):
        build_group("u3:p=2,m=1")


def test_build_group_explicit_modulus():
    g = build_group("u3:p=3,m=2,modulus=[2,1,1]")
    assert g.field.modulus == (2, 1, 1)
    assert g.order == 729
    assert g.conjugate_type() == [1, 9]
