"""Engine tests against small reference groups defined locally.

The backends here (cyclic addition, 3x3 unitriangular arithmetic, symmetric
group on 3 letters) are independent of the construction module, so the
engine is exercised by representations it was not written around.
"""

import ast
import functools
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pgf.engine
import pgf.isoclinism
from pgf.engine import (
    Backend,
    CapExceeded,
    ConjugacyReport,
    FiniteGroup,
    GroupError,
    Subgroup,
    sorted_unique,
)

from helpers import (
    breadth,
    breadth_set,
    build_cyclic,
    cayley_table,
    class3_identity_oracle,
    conjugacy_flood_oracle,
    from_closure,
    label,
    matrix_product_oracle,
    quotient_flood_oracle,
    relabel,
    stored_rows,
    verify_group_axioms,
)


class CyclicRowBackend(Backend):
    def __init__(self, n):
        self.n = n
        self.width = 1
        self.radices = (n,)

    def mul_rows(self, a, b):
        return (a + b) % self.n

    def inv_rows(self, a):
        return (-a) % self.n


class Heis3Backend(Backend):
    """3x3 unitriangular matrices over Z/pZ as rows (a, b, c).

    Matrix [[1,a,c],[0,1,b],[0,0,1]]; product appends c = c1 + c2 + a1*b2.
    """

    def __init__(self, p):
        self.p = p
        self.width = 3
        self.radices = (p, p, p)

    def mul_rows(self, a, b):
        p = self.p
        out = np.empty_like(a)
        out[:, 0] = (a[:, 0] + b[:, 0]) % p
        out[:, 1] = (a[:, 1] + b[:, 1]) % p
        out[:, 2] = (a[:, 2] + b[:, 2] + a[:, 0] * b[:, 1]) % p
        return out

    def inv_rows(self, a):
        p = self.p
        out = np.empty_like(a)
        out[:, 0] = (-a[:, 0]) % p
        out[:, 1] = (-a[:, 1]) % p
        out[:, 2] = (a[:, 0] * a[:, 1] - a[:, 2]) % p
        return out


class Sym3Backend(Backend):
    """Permutations of {0,1,2} stored as image rows."""

    width = 3
    radices = (3, 3, 3)

    def identity_row(self):
        return np.array([0, 1, 2], dtype=np.int16)

    def mul_rows(self, a, b):
        # apply a first, then b
        return np.take_along_axis(b, a.astype(np.int64), axis=1).astype(np.int16)

    def inv_rows(self, a):
        return np.argsort(a, axis=1).astype(np.int16)


def cyclic(n):
    back = CyclicRowBackend(n)
    gen = np.array([[1]], dtype=np.int16)
    return from_closure(f"C{n}", back, gen)


def heis(p):
    back = Heis3Backend(p)
    gens = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int16)
    return from_closure(f"H{p}", back, gens)


def sym3():
    back = Sym3Backend()
    gens = np.array([[1, 0, 2], [1, 2, 0]], dtype=np.int16)
    return from_closure("S3", back, gens)


# -- basics ----------------------------------------------------------------


def test_cyclic_basics():
    g = cyclic(12)
    assert g.order == 12
    verify_group_axioms(g)
    assert g.is_abelian()
    assert not g.is_prime_power()
    assert g.exponent() == 12
    for k in range(12):
        row = int(g.rows[k, 0])
        assert g.element_order(k) == 12 // np.gcd(12, row)
    assert g.center().order == 12
    assert g.conjugate_type() == [1]
    assert g.nilpotency_class() == 1


def test_cyclic_prime_power():
    g = cyclic(27)
    assert g.is_prime_power()
    assert g.prime == 3
    assert g.exponent() == 27
    assert g.nilpotency_class() == 1
    assert g.derived_subgroup().order == 1


def test_power_matches_modular_arithmetic():
    g = cyclic(12)
    one = g.index_of_rows(np.array([[1]], dtype=np.int16))[0]
    for e in (-5, -1, 0, 1, 7, 25):
        expect = g.index_of_rows(np.array([[e % 12]], dtype=np.int16))[0]
        assert g.power(int(one), e) == expect


def test_heisenberg_structure():
    g = heis(3)
    assert g.order == 27
    verify_group_axioms(g)
    assert not g.is_abelian()
    assert g.nilpotency_class() == 2
    assert g.exponent() == 3
    z = g.center()
    assert z.order == 3
    assert {g.describe(int(i)) for i in z.members} == {"(0,0,0)", "(0,0,1)", "(0,0,2)"}
    der = g.derived_subgroup()
    assert der.same_as(z)
    assert g.conjugate_type() == [1, 3]
    assert g.camina_check()


def test_heisenberg_5():
    g = heis(5)
    assert g.order == 125
    assert g.nilpotency_class() == 2
    assert g.conjugate_type() == [1, 5]
    assert g.exponent() == 5


def test_commutator_orientation():
    # [x,y] = x^-1 y^-1 x y; for x=(1,0,0), y=(0,1,0) this lands on (0,0,1)
    g = heis(3)
    x = int(g.index_of_rows(np.array([[1, 0, 0]], dtype=np.int16))[0])
    y = int(g.index_of_rows(np.array([[0, 1, 0]], dtype=np.int16))[0])
    c = g.commutator(x, y)
    assert g.describe(c) == "(0,0,1)"
    xy = g.mul(x, y)
    yx_c = g.mul(g.mul(y, x), c)
    assert xy == yx_c  # xy = yx[x,y]


def test_closure_and_normal_closure():
    g = heis(3)
    x = int(g.index_of_rows(np.array([[1, 0, 0]], dtype=np.int16))[0])
    line = g.closure_members([x])
    assert len(line) == 3
    normal = g.normal_closure_members([x])
    assert len(normal) == 9
    rows = g.rows[normal]
    assert np.all(rows[:, 1] == 0)


def test_centralizers():
    g = heis(3)
    x = int(g.index_of_rows(np.array([[1, 0, 0]], dtype=np.int16))[0])
    cx = g.centralizer(x)
    assert cx.order == 9
    z0 = int(g.center().members[-1])
    assert g.centralizer(z0).order == 27
    der = g.derived_subgroup()
    assert g.centralizer_in(der, x).order == 3
    assert breadth(g, x) == 1
    assert breadth(g, g.identity) == 0


def test_breadth_set_against_hand_count():
    g = heis(3)
    # A = {(a,0,c)}: abelian, normal; b_A(y) = 1 exactly when the middle
    # coordinate of y is nonzero, which happens for 18 of the 27 elements
    mask = g.rows[:, 1] == 0
    a = g.subgroup(np.nonzero(mask)[0])
    assert a.order == 9
    hits = breadth_set(g, a)
    assert len(hits) == 18
    assert np.all(g.rows[hits, 1] != 0)


def test_breadth_set_rejects_nonabelian_and_nonnormal():
    g = heis(3)
    with pytest.raises(GroupError, match="abelian"):
        breadth_set(g, g.full_subgroup())
    x = int(g.index_of_rows(np.array([[1, 0, 0]], dtype=np.int16))[0])
    line = g.closure([x])
    with pytest.raises(GroupError, match="normal"):
        breadth_set(g, line)


def test_sym3_is_not_nilpotent():
    g = sym3()
    assert g.order == 6
    verify_group_axioms(g)
    assert g.derived_subgroup().order == 3
    assert g.center().order == 1
    assert g.conjugate_type() == [1, 2, 3]
    with pytest.raises(GroupError, match="not nilpotent"):
        g.nilpotency_class()
    assert g.camina_check()  # transposition classes fill the nontrivial coset


def test_camina_rejects_degenerate():
    with pytest.raises(GroupError):
        cyclic(12).camina_check()


def test_gamma_series():
    g = heis(3)
    assert g.gamma(1).order == 27
    assert g.gamma(2).order == 3
    assert g.gamma(3).order == 1
    assert g.gamma(9).order == 1
    with pytest.raises(GroupError):
        g.gamma(0)


# -- quotients -------------------------------------------------------------


def test_quotient_heis_by_center():
    g = heis(3)
    q = g.quotient(g.center())
    assert q.order == 9
    verify_group_axioms(q)
    assert q.is_abelian()
    assert q.exponent() == 3
    assert q.nilpotency_class() == 1
    assert q.identity == 0


def test_quotient_rejects_non_normal():
    g = heis(3)
    x = int(g.index_of_rows(np.array([[1, 0, 0]], dtype=np.int16))[0])
    with pytest.raises(GroupError, match="non-normal"):
        g.quotient(g.closure([x]))


def test_quotient_of_quotient():
    g = heis(3)
    q = g.quotient(g.center())
    qq = q.quotient(q.full_subgroup())
    assert qq.order == 1
    assert qq.nilpotency_class() == 0
    line = q.closure([q.generators[0]])
    q2 = q.quotient(line)  # abelian parent: every subgroup is normal
    assert q2.order == 3


def test_quotient_is_a_homomorphism():
    g = heis(5)
    q = g.quotient(g.center())
    assert q.order == 25
    # the coset id of a parent element is its index in the quotient, because
    # coset leaders come out sorted; fold(x) fold(y) must equal fold(xy)
    fold = q.backend.coset_of
    rng = np.random.default_rng(7)
    xs = rng.integers(0, g.order, 400)
    ys = rng.integers(0, g.order, 400)
    assert np.array_equal(q.mul_many(fold[xs], fold[ys]), fold[g.mul_many(xs, ys)])


# the quotient oracle also runs on the construction families, whose centers
# and derived subgroups give normal subgroups of rank above one


def brute_force_cosets(g, members):
    """Leaders min(xN) over all of N, and each element's coset id."""
    idx = np.arange(g.order, dtype=np.int64)
    rep = g.mul_many(idx[:, None], np.asarray(members)[None, :]).min(axis=1)
    leaders = sorted(set(rep.tolist()))
    pos = {lead: k for k, lead in enumerate(leaders)}
    return np.array(leaders), np.array([pos[r] for r in rep.tolist()])


QUOTIENT_CASES = ("u3:p=3,m=1/Z", "hmat:p=3,m=1/Z", "hmod:p=3,m=1/Z", "quint:p=3,m=1/G'",
                  "(hmat:p=3,m=1/Z)/Z", "hmod:p=3,m=1/1", "hmod:p=3,m=1/G",
                  "u3:p=3,m=1/Z moved", "hmod:p=3,m=1/Z moved", "quint:p=3,m=1/G' moved",
                  "hmod:p=7,m=1/Z")


@functools.lru_cache(maxsize=None)
def quotient_cases() -> dict:
    """Each case's group and normal subgroup.  The moved cases relabel the
    group so that a central element other than the identity is index 0, so
    the least member of N is not the identity; hmod:p=7,m=1 lies past the
    memo table."""
    from pgf.constructions import build_group

    cases = {}
    for spec in ("u3:p=3,m=1", "hmat:p=3,m=1", "hmod:p=3,m=1", "hmod:p=7,m=1"):
        g = build_group(spec)
        cases[f"{spec}/Z"] = g, g.center()
    g = build_group("quint:p=3,m=1")
    cases["quint:p=3,m=1/G'"] = g, g.derived_subgroup()  # normal, not central
    q = cases["hmat:p=3,m=1/Z"][0].quotient(cases["hmat:p=3,m=1/Z"][1])
    cases["(hmat:p=3,m=1/Z)/Z"] = q, q.center()
    g = cases["hmod:p=3,m=1/Z"][0]
    cases["hmod:p=3,m=1/1"] = g, g.trivial_subgroup()
    cases["hmod:p=3,m=1/G"] = g, g.full_subgroup()
    for label in ("u3:p=3,m=1/Z", "hmod:p=3,m=1/Z"):
        g = center_moved_off_the_identity(cases[label][0])
        cases[f"{label} moved"] = g, g.center()
    g = center_moved_off_the_identity(cases["quint:p=3,m=1/G'"][0])
    cases["quint:p=3,m=1/G' moved"] = g, g.derived_subgroup()
    return cases


@pytest.mark.parametrize("label", QUOTIENT_CASES)
def test_quotient_leaders_match_brute_force(label):
    g, n_sub = quotient_cases()[label]
    q = g.quotient(n_sub)
    oracles = [quotient_flood_oracle]
    if g.order <= pgf.engine.TABLE_CAP:  # n * |N| products past it
        oracles.append(brute_force_cosets)
    for oracle in oracles:
        leaders, coset_of = oracle(g, n_sub.members)
        assert np.array_equal(q.backend.leaders, leaders)
        assert np.array_equal(q.backend.coset_of, coset_of)
    assert q.order * n_sub.order == g.order


@pytest.mark.parametrize("label", QUOTIENT_CASES)
def test_quotient_cosets_are_laid_out_one_coset_per_row(label):
    g, n_sub = quotient_cases()[label]
    cosets = g.quotient(n_sub).backend.cosets
    _, coset_of = brute_force_cosets(g, n_sub.members)
    # row c holds coset c: its members, ascending, are those brute force puts there
    by_coset = np.argsort(coset_of, kind="stable").reshape(cosets.shape)
    assert np.array_equal(np.sort(cosets, axis=1), by_coset)
    # N's own row is N's listing, from the identity; every row is n_k * y_c in that order
    z = cosets[coset_of[g.identity]]
    assert z[0] == g.identity
    assert np.array_equal(g.mul_many(z[None, :], cosets[:, :1]), cosets)
    if np.all(g.center().contains_many(n_sub.members)):  # central N: also y_c * n_k
        assert np.array_equal(g.mul_many(cosets[:, :1], z[None, :]), cosets)


def test_quotient_oracle_covers_a_noncentral_subgroup_of_rank_above_one():
    g, der = quotient_cases()["quint:p=3,m=1/G'"]
    assert not der.same_as(g.center())
    # no element of G' has order |G'|, so G' is not cyclic
    assert g.element_orders()[der.members].max() < der.order


def _quotient_rows(spec):
    """(group, center, rows sent through mul_many by group.quotient(center))."""
    from pgf.constructions import build_group

    g = build_group(spec)
    z = g.center()
    rows = []
    plain = g.mul_many

    def counting(i, j):
        out = plain(i, j)
        rows.append(np.size(out))
        return out

    g.mul_many = counting
    g.quotient(z)
    return g, z, sum(rows)


def test_quotient_cost_is_one_span():
    # the span lists each element once as a coset member, plus one candidate
    # per coset representative and span generator (at most rank(N) + d)
    g, z, rows = _quotient_rows("hmat:p=3,m=1")
    n, k, d = g.order, z.order, len(g.nontrivial_generators)
    rank = 1  # Z(hmat) is cyclic of order p
    normality = 2 * k * d  # conjugating N by each generator
    assert rows == normality + 1_008 == 1_032
    assert rows - normality <= n + (n // k + k) * (rank + d)
    assert rows < n * k  # the cost of x*k for every k
    # a flood along each of N's basis elements would take n * rank(N)
    g, z, rows = _quotient_rows("hmod:p=3,m=1")
    assert len(g.basis(z.members)) == 2
    assert rows - 2 * z.order * len(g.nontrivial_generators) == 270 < g.order * 2


def brute_force_center(g):
    """Elements whose row of the full Cayley table equals their column,
    bypassing the generator shortcut of center()."""
    table = cayley_table(g)
    return np.flatnonzero((table == table.T).all(axis=1))


@pytest.mark.parametrize("chunk", [pgf.engine.CHUNK_PRODUCTS, 7])
@pytest.mark.parametrize("spec", ["hmat:p=3,m=1", "u3:p=3,m=2", "hmod:p=3,m=1"])
def test_center_matches_brute_force(spec, chunk, monkeypatch):
    from pgf.constructions import build_group

    g = build_group(spec)
    assert g.order <= 729
    monkeypatch.setattr(pgf.engine, "CHUNK_PRODUCTS", chunk)
    g._center = None
    assert np.array_equal(g.center().members, brute_force_center(g))


@pytest.mark.parametrize("spec", ["hmat:p=3,m=1", "hmod:p=3,m=1"])
def test_inverse_table_built_in_slices(spec, monkeypatch):
    from pgf.constructions import build_group

    g = build_group(spec)
    monkeypatch.setattr(pgf.engine, "CHUNK_PRODUCTS", 7)
    g._inv = None
    idx = np.arange(g.order)
    assert np.all(g.mul_many(idx, g.inv_many(idx)) == g.identity)
    assert np.all(g.mul_many(g.inv_many(idx), idx) == g.identity)


def test_inverses_computed_only_for_the_rows_asked(monkeypatch):
    from pgf.constructions import build_group

    g = build_group("hmat:p=3,m=1")
    g._inv = None
    inverted = []
    inv_rows = g.backend.inv_rows
    monkeypatch.setattr(g.backend, "inv_rows", lambda a: inverted.append(len(a)) or inv_rows(a))
    monkeypatch.setattr(pgf.engine, "CHUNK_PRODUCTS", 2)
    few = np.array([[40, 5], [17, 5], [40, 600]])
    got = g.inv_many(few)
    assert inverted == [2, 2]  # the distinct rows 5, 17, 40, 600, two per slice
    assert got.shape == few.shape
    assert np.all(g.mul_many(few, got) == g.identity)
    assert g.inv(17) == got[1, 0] and inverted == [2, 2]
    idx = np.arange(g.order)
    assert np.all(g.mul_many(idx, g.inv_many(idx)) == g.identity)
    assert sum(inverted) == g.order


def test_central_quotient_is_built_once():
    g = heis(5)
    q = g.central_quotient()
    assert g.central_quotient() is q
    assert np.array_equal(q.backend.leaders, g.quotient(g.center()).backend.leaders)


# -- spanning sets -----------------------------------------------------------


def oracle_span(table, identity, elems) -> np.ndarray:
    """Mask of <elems>: right products by elems from the table until nothing
    new appears (in a finite group, those words reach every inverse)."""
    elems = np.asarray(elems, dtype=np.int64)
    span = np.zeros(len(table), dtype=bool)
    span[identity] = True
    while True:
        grown = span.copy()
        grown[table[np.flatnonzero(span)][:, elems]] = True
        if np.array_equal(grown, span):
            return span
        span = grown


def oracle_basis(table, identity, members, floor) -> list:
    """The greedy picks, one member at a time in ascending order: a member
    joins when it lies outside the span of the floor's picks and the
    earlier picks."""
    base = oracle_basis(table, identity, floor, []) if len(floor) else []
    picks = []
    span = oracle_span(table, identity, base)
    for x in sorted(set(members)):
        if not span[x]:
            picks.append(x)
            span = oracle_span(table, identity, base + picks)
    return picks


SPAN_CASES = ("heis(3)", "heis(5)", "sym3", "cyclic(12)", "hmod:p=3,m=1", "hmod:p=3,m=1/Z")


@functools.lru_cache(maxsize=None)
def span_cases() -> dict:
    from pgf.constructions import build_group

    g = build_group("hmod:p=3,m=1")
    groups = {"heis(3)": heis(3), "heis(5)": heis(5), "sym3": sym3(), "cyclic(12)": cyclic(12),
              "hmod:p=3,m=1": g, "hmod:p=3,m=1/Z": g.quotient(g.center())}
    return {name: (h, cayley_table(h)) for name, h in groups.items()}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_closure_matches_brute_force(data):
    g, table = span_cases()[data.draw(st.sampled_from(SPAN_CASES))]
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=5))
    if gens and data.draw(st.booleans()):  # a redundant generator: a product of two others
        gens.append(int(table[data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens))]))
    if gens and data.draw(st.booleans()):
        gens.append(data.draw(st.sampled_from(gens)))
    if data.draw(st.booleans()):
        gens.append(g.identity)
    gens = data.draw(st.permutations(gens))
    want = np.flatnonzero(oracle_span(table, g.identity, gens))
    assert np.array_equal(g.closure_members(gens), want)
    # the span lists each member once: a coset met twice in a wave is kept once
    assert np.array_equal(np.sort(pgf.engine._Span(g, gens).members), want)


def oracle_normal_closure(table, identity, elems) -> np.ndarray:
    """<elems>^G: the span of every conjugate g^-1 x g of the span's members
    x, from the table, until it stops growing."""
    n = len(table)
    inv = np.argmax(table == identity, axis=1)
    span = oracle_span(table, identity, elems)
    while True:
        members = np.flatnonzero(span)
        conj = table[table[inv[:, None], members[None, :]], np.arange(n)[:, None]]
        grown = oracle_span(table, identity, np.unique(conj))
        if np.array_equal(grown, span):
            return members
        span = grown


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_normal_closure_matches_brute_force(data):
    g, table = span_cases()[data.draw(st.sampled_from(SPAN_CASES))]
    elems = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    assert np.array_equal(g.normal_closure_members(elems),
                          oracle_normal_closure(table, g.identity, elems))


@pytest.mark.parametrize("label", SPAN_CASES)
def test_closure_edge_cases(label):
    g, table = span_cases()[label]
    e = g.identity
    everything = np.arange(g.order)
    assert g.closure_members([]).tolist() == [e]
    assert g.closure_members([e, e]).tolist() == [e]
    assert np.array_equal(g.closure_members(g.generators * 2 + [e]), everything)
    assert np.array_equal(g.closure_members(everything[::-1]), everything)
    x = int(everything[-1])
    assert np.array_equal(g.closure_members([x, x, table[x, x], e]),
                          np.flatnonzero(oracle_span(table, e, [x])))


def test_closure_cost_is_n_plus_cosets_times_rank():
    from pgf.constructions import build_group

    g = build_group("hmat:p=3,m=1")
    gens, n, k = g.generators, g.order, len(g.generators)
    table = cayley_table(g)
    # each generator adds [<g_1..g_i> : <g_1..g_i-1>] - 1 coset representatives
    orders = [int(oracle_span(table, g.identity, gens[:i]).sum()) for i in range(k + 1)]
    reps = sum(b // a - 1 for a, b in zip(orders, orders[1:]))
    rows = []
    plain = g.mul_many

    def counting(i, j):
        out = plain(i, j)
        rows.append(np.size(out))
        return out

    g.mul_many = counting
    assert len(g.closure_members(gens)) == n
    # one product per element of a new coset and one per candidate, against
    # the n * k of multiplying every element by every generator
    assert sum(rows) <= n + reps * k < n * k


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_basis_matches_greedy_oracle(data):
    g, table = span_cases()[data.draw(st.sampled_from(SPAN_CASES))]
    index = st.integers(0, g.order - 1)
    members = data.draw(st.none() | st.lists(index, max_size=12))
    floor = data.draw(st.none() | st.lists(index, max_size=4))
    picks = g.basis(members, floor)
    everything = range(g.order) if members is None else members
    assert picks == oracle_basis(table, g.identity, everything, floor or [])
    # the picks and the floor span exactly <members, floor>
    assert np.array_equal(oracle_span(table, g.identity, picks + (floor or [])),
                          oracle_span(table, g.identity, list(everything) + (floor or [])))


def test_basis_of_a_subgroup_over_itself_is_empty():
    g = heis(3)
    z = g.center().members
    assert g.basis(z, floor=z) == []
    assert g.basis([]) == []
    assert len(g.basis(z)) == 1
    assert len(g.basis()) == 2


def test_constructor_rejects_bad_index_rows():
    from pgf.constructions import build_group

    q = build_group("hmod:p=7,m=1").central_quotient()  # rows are coset ids, int64 like every index row
    assert q.order == 7**3 and q.rows.dtype == np.int64 and np.array_equal(q.rows[:, 0], np.arange(q.order))
    with pytest.raises(GroupError, match="duplicate"):
        FiniteGroup("dup", q.backend, np.vstack([q.rows, q.rows[-1:]]))
    with pytest.raises(GroupError, match="identity"):
        FiniteGroup("no identity", q.backend, np.delete(q.rows, q.identity, axis=0))
    again = FiniteGroup("copy", q.backend, q.rows[::-1], generators=q.generators)
    assert again.rows.dtype == np.int64
    assert np.array_equal(again.rows, q.rows) and again.identity == q.identity


MEMBERSHIP_CASES = ["heis3", "cyclic12", "quint:p=3,m=1", "hmat:p=3,m=1", "xab:u3:p=3,m=1,k=1"]


@functools.lru_cache(maxsize=None)
def membership_case(name):
    from pgf.constructions import build_group

    g = {"heis3": lambda: heis(3), "cyclic12": lambda: cyclic(12)}.get(name, lambda: build_group(name))()
    assert g._dense
    return g, stored_rows(g)


def assert_membership_matches_stored_rows(g, stored, rows):
    rows = np.asarray(rows, dtype=g.rows.dtype)
    want = [stored.get(tuple(row)) for row in rows.tolist()]
    if None in want:
        with pytest.raises(GroupError, match="closure violation"):
            g.index_of_rows(rows)
    else:
        assert g.index_of_rows(rows).tolist() == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dense_membership_matches_a_dict_of_stored_rows(data):
    # a stored row, a row of in-radix digits, or a stored row with one
    # entry moved: to its radix or past it, below zero, or to another
    # in-radix value (for hmat, an untied entry or a wrong ab-c)
    g, stored = membership_case(data.draw(st.sampled_from(MEMBERSHIP_CASES)))
    radices = g.backend.radices
    rows = []
    for _ in range(data.draw(st.integers(1, 3))):
        row = g.rows[data.draw(st.integers(0, g.order - 1))].astype(np.int64)
        col = data.draw(st.integers(0, len(radices) - 1))
        r = radices[col]
        kind = data.draw(st.sampled_from(["stored", "digits", "radix", "negative", "other"]))
        if kind == "digits":
            row = np.array([data.draw(st.integers(0, t - 1)) for t in radices])
        elif kind == "radix":
            row[col] = r + data.draw(st.integers(0, 2))
        elif kind == "negative":
            row[col] = -data.draw(st.integers(1, r))
        elif kind == "other":
            row[col] = (row[col] + data.draw(st.integers(1, r - 1))) % r
        rows.append(row)
    assert_membership_matches_stored_rows(g, stored, rows)


@pytest.mark.parametrize("name", MEMBERSHIP_CASES)
def test_dense_membership_rejects_each_kind_of_row_off_the_chart(name):
    from pgf.constructions import H_SLOTS

    g, stored = membership_case(name)
    e, radices = g.rows[g.identity].astype(np.int64), g.backend.radices
    top = int(np.argmax(g.backend.encode(np.eye(len(radices), dtype=np.int64))))
    moved = [e.copy() for _ in range(3)]
    moved[0][0] = radices[0]  # a digit at its radix
    moved[1][top], moved[1][0] = 1, -1  # a negative digit
    moved[2][top] = radices[top]  # a code past n - 1
    if g.kind == "hmat":
        for slot in ("a2", "ab_c"):  # untied, and a wrong derived entry
            moved.append(e.copy())
            moved[-1][H_SLOTS[slot]] = 1
    codes = g.backend.encode(np.array(moved))
    assert codes[2] >= g.order
    if top != 0:  # the first two have valid codes: only the digit bounds reject them
        assert 0 <= codes[0] < g.order and 0 <= codes[1] < g.order
    for row in moved:
        assert stored.get(tuple(row.tolist())) is None
        assert_membership_matches_stored_rows(g, stored, [row])
    assert_membership_matches_stored_rows(g, stored, g.rows[::7])


# -- subgroup validation ---------------------------------------------------


def test_subgroup_validation():
    g = cyclic(27)
    with pytest.raises(GroupError, match="Lagrange"):
        g.subgroup([0, 1])
    g12 = cyclic(12)
    three = g12.index_of_rows(np.array([[0], [1], [2]], dtype=np.int16))
    with pytest.raises(GroupError, match="closed"):
        g12.subgroup(three)
    four = g12.index_of_rows(np.array([[0], [3], [6], [9]], dtype=np.int16))
    sub = g12.subgroup(four)
    assert sub.order == 4
    assert sub.is_abelian()


def test_subgroup_validation_is_exact_past_1024_members():
    from pgf.constructions import build_group
    g = build_group("quint:p=3,m=2")
    # a maximal subgroup: the Frattini subgroup and all but one basis pick over it
    frattini = g.closure_members(np.concatenate([g.derived_subgroup().members,
                                                 g.power_many(np.arange(g.order), g.prime)]))
    picks = g.basis(floor=frattini)
    members = g.closure_members(np.concatenate([frattini, picks[:-1]]))
    assert len(members) == g.order // 3 > 1024
    assert np.array_equal(g.subgroup(members).members, members)
    # an inverse pair {y, y^-1} swapped for a non-member pair {x, x^-1}: the
    # order, the identity and inversion are as in a subgroup, products are not
    y, x = int(members[1]), picks[-1]
    pairs = np.array([y, g.inv(y)]), np.array([x, g.inv(x)])
    bad = np.concatenate([members[~np.isin(members, pairs[0])], pairs[1]])
    assert not np.isin(pairs[1], members).any()
    assert len(bad) == len(members) and g.identity in bad
    with pytest.raises(GroupError, match="closed"):
        g.subgroup(bad)


def test_elementary_abelian_detection():
    g = heis(3)
    assert g.center().is_elementary_abelian()
    c27 = cyclic(27)
    assert not c27.full_subgroup().is_elementary_abelian()
    c12sub = cyclic(12).closure(
        [int(cyclic(12).index_of_rows(np.array([[6]], dtype=np.int16))[0])]
    )
    assert c12sub.order == 2


def test_membership_helpers():
    g = heis(3)
    z = g.center()
    mask = z.membership_mask()
    assert mask.sum() == 3
    assert bool(np.all(z.contains_many(z.members)))
    outside = np.setdiff1d(np.arange(g.order), z.members)
    assert not bool(np.any(z.contains_many(outside)))


# -- universes, caps, labels -----------------------------------------------


def test_explicit_universe_matches_closure():
    p = 3
    rows = np.array(
        [[a, b, c] for a in range(p) for b in range(p) for c in range(p)],
        dtype=np.int16,
    )
    g1 = FiniteGroup("H3-full", Heis3Backend(p), rows)
    g2 = heis(p)
    assert np.array_equal(g1.codes, g2.codes)
    assert g1.conjugate_type() == g2.conjugate_type()
    assert g1.generators  # greedy generation found something


def test_duplicate_universe_rejected():
    rows = np.zeros((2, 1), dtype=np.int16)
    with pytest.raises(GroupError, match="duplicate"):
        FiniteGroup("bad", CyclicRowBackend(5), rows)


def test_cap_enforcement():
    with pytest.raises(CapExceeded):
        from_closure("C12", CyclicRowBackend(12), np.array([[1]], dtype=np.int16), cap=10)
    rows = np.arange(12, dtype=np.int16)[:, None]
    with pytest.raises(CapExceeded):
        FiniteGroup("C12", CyclicRowBackend(12), rows, cap=10)


def test_index_of_rows_rejects_foreign_rows():
    g = heis(3)
    sub_rows = g.rows[g.center().members]
    small = FiniteGroup("Z", Heis3Backend(3), sub_rows, generators=None)
    with pytest.raises(GroupError, match="universe"):
        small.index_of_rows(np.array([[1, 0, 0]], dtype=np.int16))


def test_mul_many_broadcasting():
    g = heis(3)
    a = np.arange(3, dtype=np.int64)[:, None]
    b = np.arange(4, dtype=np.int64)[None, :]
    out = g.mul_many(a, b)
    assert out.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert out[i, j] == g.mul(i, j)


# -- product memo ------------------------------------------------------------


def _built(spec):
    from pgf.constructions import build_group
    return build_group(spec)


def _cayley_oracle(g, i, j):
    return cayley_table(g)[i, j].tolist()


MEMO_CASES = {
    "hmod:p=3,m=1": (lambda: _built("hmod:p=3,m=1"), _cayley_oracle),
    "hmod:p=5,m=1": (lambda: _built("hmod:p=5,m=1"), matrix_product_oracle),
    "central quotient of hmod:p=7,m=1": (lambda: _built("hmod:p=7,m=1").central_quotient(),
                                         _cayley_oracle),
}


def raw_product_calls(monkeypatch, g) -> list:
    """(calling function, index pairs) of each _mul_index_raw call of g
    from now on (a quotient's products also call its parent's)."""
    calls = []
    raw = FiniteGroup._mul_index_raw

    def spy(self, i, j):
        if self is g:
            calls.append((sys._getframe(1).f_code.co_name, len(i)))
        return raw(self, i, j)

    monkeypatch.setattr(FiniteGroup, "_mul_index_raw", spy)
    return calls


def test_memo_entries_fit_int16():
    # an entry holds a product index plus one, at most TABLE_CAP
    assert pgf.engine.TABLE_CAP < 2 ** 15


@pytest.mark.parametrize("label", list(MEMO_CASES))
def test_memo_products_match_an_oracle_on_the_miss_and_the_hit_call(label, monkeypatch):
    build, oracle = MEMO_CASES[label]
    g = build()
    n = g.order
    assert n <= pgf.engine.TABLE_CAP and g._table is None
    rng = np.random.default_rng(21)
    i, j = rng.integers(0, n, (2, 3000))
    # the last index, as a product (n-1 * e) and as a factor on both sides
    i = np.concatenate([i, [n - 1, n - 1, g.identity, 0]])
    j = np.concatenate([j, [g.identity, n - 1, n - 1, n - 1]])
    want = oracle(g, i, j)
    calls = raw_product_calls(monkeypatch, g)

    def sent():
        return sum(rows for _, rows in calls)

    assert g.mul_many(i, j).tolist() == want
    assert sent() == len(i)  # a fresh table: every pair misses, repeats included
    assert g.mul_many(i, j).tolist() == want
    assert g.mul_many(i.reshape(2, -1), j.reshape(2, -1)).ravel().tolist() == want
    assert sent() == len(i)  # the repeated calls are all hits
    # a call mixing hits and misses sends exactly its misses
    k, m = rng.integers(0, n, (2, 500))
    known = np.isin(k * n + m, i * n + j)
    assert g.mul_many(k, m).tolist() == oracle(g, k, m)
    assert sent() == len(i) + np.count_nonzero(~known)


def test_memo_stores_no_product_under_an_index_out_of_range():
    g = heis(3)
    n = g.order
    for i, j in [(0, n), (1, -1), (-1, 0), (n, 0)]:
        with pytest.raises(IndexError):
            g.mul_many(i, j)
    assert not np.any(g._table)


def test_memo_keeps_the_hooks_the_bench_tracer_reads(monkeypatch):
    # perfbench's tracer reads _table_cap to tell memoized groups apart, and
    # counts the memo misses at _mul_index_raw called straight from mul_many
    g = heis(3)
    assert g._table_cap == pgf.engine.TABLE_CAP >= g.order
    calls = raw_product_calls(monkeypatch, g)
    a = np.arange(g.order)
    g.mul_many(a, a[::-1])
    g.mul_many(a, a[::-1])
    assert calls == [("mul_many", g.order)]


def test_labels_and_describe():
    g = heis(3)
    seen = {label(g, i) for i in range(g.order)}
    assert len(seen) == g.order
    assert g.describe(g.identity) == "(0,0,0)"


# -- conjugacy report sanity ----------------------------------------------


def test_conjugacy_report_validators():
    with pytest.raises(GroupError):
        ConjugacyReport(
            class_of=np.zeros(6, dtype=np.int64),
            class_reps=[0],
            class_sizes=[5],
            conjugate_type=[5],
        )
    with pytest.raises(GroupError):
        ConjugacyReport(
            class_of=np.zeros(6, dtype=np.int64),
            class_reps=[0, 1],
            class_sizes=[2, 4],
            conjugate_type=[2, 4],
        )


def test_class_sizes_partition():
    g = heis(5)
    rep = g.conjugacy_classes()
    assert sum(rep.class_sizes) == g.order
    assert g.class_size_of()[g.identity] == 1
    sizes = np.asarray(rep.class_sizes)
    assert np.all((sizes == 1) | (sizes == 5))
    # centralizer order times class size is the group order
    for cls, r in enumerate(rep.class_reps[:10]):
        assert g.centralizer(int(r)).order * rep.class_sizes[cls] == g.order


# -- relabeling invariance -------------------------------------------------

def test_relabel_preserves_invariants():
    g = heis(3)
    rng = np.random.default_rng(11)
    perm = rng.permutation(g.order)
    h = relabel(g, perm)
    verify_group_axioms(h)
    assert h.order == g.order
    assert h.nilpotency_class() == g.nilpotency_class()
    assert h.conjugate_type() == g.conjugate_type()
    assert h.center().order == g.center().order
    assert sorted(h.element_orders().tolist()) == sorted(g.element_orders().tolist())


def test_relabel_rejects_non_permutation():
    g = cyclic(12)
    with pytest.raises(GroupError):
        relabel(g, np.zeros(12, dtype=np.int64))


# -- invariants against the Cayley table -----------------------------------

INVARIANT_CASES = ("u3:p=3,m=1", "u3:p=5,m=1", "quint:p=3,m=1", "hmod:p=3,m=1", "hmat:p=3,m=1",
                   "hmod:p=3,m=1/Z", "quint:p=3,m=1/Z", "hmat:p=3,m=1/Z", "(hmat:p=3,m=1/Z)/Z")


@functools.lru_cache(maxsize=None)
def invariant_groups() -> dict:
    """Each group of INVARIANT_CASES with its Cayley table; the central
    quotients are dense index charts."""
    from pgf.constructions import build_group

    groups = {}
    for label in INVARIANT_CASES:  # "S/Z" follows S, and "(S/Z)/Z" follows S/Z
        if label.endswith("/Z"):
            g = groups[label[1:-3] if label.startswith("(") else label[:-2]]
            groups[label] = g.quotient(g.center())
        else:
            groups[label] = build_group(label)
    assert all(g.order <= 729 for g in groups.values())
    return {label: (g, cayley_table(g)) for label, g in groups.items()}


def oracle_conjugacy(table, identity):
    """(class_of, class_reps, class_sizes): the class of x is every
    g^-1 x g, read off the table, and its least member is its rep."""
    idx = np.arange(len(table))
    inv = np.argmax(table == identity, axis=1)
    conj = table[table[inv[None, :], idx[:, None]], idx[None, :]]  # conj[x, g] = g^-1 x g
    reps, class_of = np.unique(conj.min(axis=1), return_inverse=True)
    return class_of, reps.tolist(), np.bincount(class_of).tolist()


def oracle_lower_central_series(table, identity):
    """gamma_(k+1) as the subgroup the brackets [a, g], a in gamma_k, span,
    until a term repeats or is trivial."""
    n = len(table)
    idx = np.arange(n)
    inv = np.argmax(table == identity, axis=1)
    comm = table[table[table[inv[:, None], inv[None, :]], idx[:, None]], idx[None, :]]
    series = [idx]
    while len(series[-1]) > 1:
        nxt = np.flatnonzero(oracle_span(table, identity, np.unique(comm[series[-1]])))
        if np.array_equal(nxt, series[-1]):
            break
        series.append(nxt)
    return series


def oracle_element_orders(table, identity):
    n = len(table)
    orders, power = np.ones(n, dtype=np.int64), np.arange(n)
    while (alive := power != identity).any():
        power[alive] = table[power[alive], np.flatnonzero(alive)]
        orders[alive] += 1
    return orders


@pytest.mark.parametrize("label", INVARIANT_CASES)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_invariants_match_the_cayley_table(label, data):
    g, table = invariant_groups()[label]
    if g.order <= 243 and data.draw(st.booleans(), label="relabel"):
        perm = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(g.order)
        g = relabel(g, perm)
        table = cayley_table(g)
    e = g.identity
    rep = g.conjugacy_classes()
    class_of, reps, sizes = oracle_conjugacy(table, e)
    assert np.array_equal(rep.class_of, class_of)
    assert (rep.class_reps, rep.class_sizes) == (reps, sizes)
    assert rep.conjugate_type == sorted(set(sizes))
    series = oracle_lower_central_series(table, e)
    assert [term.members.tolist() for term in g.lower_central_series()] == [t.tolist() for t in series]
    assert np.array_equal(g.element_orders(), oracle_element_orders(table, e))
    # |C_A(x)| for a subgroup A spanned by a few drawn elements
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3), label="A")
    members = np.flatnonzero(oracle_span(table, e, gens))
    want = (table[:, members] == table[members, :].T).sum(axis=1)
    assert np.array_equal(g.centralizer_orders_in(g.subgroup(members)), want)


# -- the cosets of the center ------------------------------------------------


def center_moved_off_the_identity(g):
    """g relabeled so that a central element other than the identity is
    index 0, the least member of Z and so the leader of Z's own coset."""
    z = g.center().members
    perm = np.random.default_rng(22).permutation(g.order)
    at = int(np.flatnonzero(perm == z[z != g.identity][0])[0])
    perm[[0, at]] = perm[[at, 0]]
    h = relabel(g, perm)
    assert h.center().members[0] == 0 != h.identity
    return h


@pytest.mark.parametrize("moved", [False, True], ids=["as built", "center moved off the identity"])
@pytest.mark.parametrize("label", INVARIANT_CASES)
def test_center_cosets_match_the_cayley_table(label, moved):
    g, table = invariant_groups()[label]
    if moved:
        g = center_moved_off_the_identity(g)
        table = cayley_table(g)
    chart = pgf.engine._CenterCosets(g)
    idx = np.arange(g.order)
    inv = np.argmax(table == g.identity, axis=1)
    for s in range(g.order):  # s^-1 x s, read off the table
        assert np.array_equal(chart.conjugation(s), table[table[inv[s], idx], s])
    commute = table == table.T
    for x in range(g.order):
        assert np.array_equal(chart.centralizer(x), np.flatnonzero(commute[x]))


def test_center_cosets_agree_with_the_per_element_flood_on_hmod_7():
    g = _built("hmod:p=7,m=1")
    assert g.order > pgf.engine.TABLE_CAP and g._center_cosets() is not None
    class_of, reps, sizes = conjugacy_flood_oracle(g)
    rep = g.conjugacy_classes()
    assert np.array_equal(rep.class_of, class_of)
    assert (rep.class_reps, rep.class_sizes) == (reps, sizes)
    everything = g.full_subgroup()
    for x in [g.identity, 1, *reps[1:4], *reps[-3:], g.order - 1]:
        assert np.array_equal(g.centralizer(x).members, g.centralizer_in(everything, x).members)


def test_center_cosets_count_their_products_on_hmod_7(monkeypatch):
    g = _built("hmod:p=7,m=1")
    calls = raw_product_calls(monkeypatch, g)

    def sent():
        total = sum(rows for _, rows in calls)
        calls.clear()
        return total

    z = g.center()
    # 2 * |candidates| products per generator; the corner generator, the
    # identity, is skipped
    assert g.nontrivial_generators == g.generators[1:] and g.generators[0] == g.identity
    assert sent() == 34_398
    q = g.central_quotient()
    d = len(g.nontrivial_generators)
    # one span of G over Z, plus the normality check
    assert sent() == 16_890 + 2 * z.order * d == 17_184
    g.conjugacy_classes()
    # the chart reads the quotient's cosets and adds |Z|^2; then 2 |G/Z| per
    # generator (100,842 by element)
    assert sent() == z.order ** 2 + 2 * q.order * d == 4_459
    g.centralizer(5)
    assert sent() == 2 * q.order == 686  # 33,614 by element


def test_a_center_larger_than_its_quotient_takes_no_chart():
    # zmul would hold |Z|^2 = n^2 entries for an abelian group
    g = build_cyclic(pgf.engine.TABLE_CAP + 1)
    assert g._center_cosets() is None
    assert g.conjugate_type() == [1]
    assert g.centralizer(1).order == g.order


# -- identity suite --------------------------------------------------------


def test_class3_identities_exhaustive_on_heisenberg():
    g = heis(3)
    rep = g.check_class3_identities()
    for name, entry in rep.items():
        assert entry["passed"], name
        assert entry["counterexample"] is None
        assert entry["checked"] > 0
    assert set(rep) == {
        "central_pair_triple_vanishes",
        "central_commutator_swap",
        "product_expansion",
        "power_expansion",
        "power_commutator_collapse",
    }
    assert rep["product_expansion"]["checked"] == 27 ** 3
    assert rep["power_expansion"]["checked"] == 27 ** 2
    assert rep == class3_identity_oracle(g)


class SkewedCommutatorGroup(FiniteGroup):
    """A group whose commutator_many reports [u, v] = w once skew = (u, v, w)."""

    skew = None

    def commutator_many(self, a, b):
        out = super().commutator_many(a, b)
        if self.skew is not None:
            u, v, w = self.skew
            a, b = np.broadcast_arrays(a, b)
            out[(a == u) & (b == v)] = w
        return out


def skewed(g: FiniteGroup, u, v, w) -> SkewedCommutatorGroup:
    """g with [u, v] misreported as w (elements given by their rows); its
    series and center are computed first, from the true commutators."""
    s = SkewedCommutatorGroup(g.name, g.backend, g.rows, generators=g.generators)
    s.nilpotency_class()
    s.center()
    s.skew = tuple(int(s.index_of_rows(np.array([r], dtype=s.rows.dtype))[0]) for r in (u, v, w))
    return s


def test_class3_identities_first_counterexample_matches_oracle():
    # z^2 is central, so [z^2, (1,2,2)] is the identity; report z^2 instead
    g = skewed(heis(3), [0, 0, 2], [1, 2, 2], [0, 0, 2])
    assert g.nilpotency_class() == 2
    assert g.center().order == 3
    rep = g.check_class3_identities()
    assert not any(entry["passed"] for entry in rep.values())
    # the first failing triple in flat order, whose exponents (i, j, k)
    # come from its flat index
    assert rep["power_commutator_collapse"]["counterexample"] == ("(0,0,1)", "(2,1,0)", "(1,2,2)")
    assert rep == class3_identity_oracle(g, skew=g.skew)


def u3_31():
    from pgf.constructions import build_group
    return build_group("u3:p=3,m=1")


def u3_31_skewed():
    g = u3_31()
    x, y = (g.rows[k].tolist() for k in g.generators[:2])
    return skewed(g, x, y, g.rows[g.identity].tolist())


SKEWED_CASES = {
    "heis(3), [(1,0,0), (0,1,0)] = (0,0,0)": lambda: skewed(heis(3), [1, 0, 0], [0, 1, 0], [0, 0, 0]),
    "heis(3), [(0,1,0), (1,1,1)] = (2,0,1)": lambda: skewed(heis(3), [0, 1, 0], [1, 1, 1], [2, 0, 1]),
    "heis(3), [(2,2,2), (0,0,1)] = (0,0,1)": lambda: skewed(heis(3), [2, 2, 2], [0, 0, 1], [0, 0, 1]),
    "u3:p=3,m=1, [x, y] = e for its first two generators": u3_31_skewed,
    "cyclic(9), [(3), (1)] = (3)": lambda: skewed(cyclic(9), [3], [1], [3]),
    "cyclic(3), [(1), (2)] = (1)": lambda: skewed(cyclic(3), [1], [2], [1]),
}
IDENTITY_CASES = {
    "heis(3)": lambda: heis(3),
    "u3:p=3,m=1": u3_31,
    "cyclic(3)": lambda: cyclic(3),
    "cyclic(9)": lambda: cyclic(9),
    "cyclic(27)": lambda: cyclic(27),
    **SKEWED_CASES,
}


@pytest.mark.parametrize("path", ["exhaustive", "sampled"])
@pytest.mark.parametrize("label", list(IDENTITY_CASES))
def test_class3_identities_match_brute_force(label, path, monkeypatch):
    # whole reports, counterexamples included; the sampled path replays the
    # engine's draws on a group below the exhaustive limit
    g = IDENTITY_CASES[label]()
    kw = {}
    if path == "sampled":
        monkeypatch.setattr(pgf.engine, "IDENTITY_EXHAUSTIVE_LIMIT", g.order - 1)
        kw = {"samples": 600}
    rep = g.check_class3_identities(**kw)
    assert rep == class3_identity_oracle(g, skew=getattr(g, "skew", None), **kw)
    if label in SKEWED_CASES and path == "exhaustive":
        assert not all(entry["passed"] for entry in rep.values())


def test_class3_identities_exhaustive_counts_on_hmod():
    from pgf.constructions import build_group
    rep = build_group("hmod:p=3,m=1").check_class3_identities()
    assert all(entry["passed"] for entry in rep.values())
    checked = {name: entry["checked"] for name, entry in rep.items()}
    assert checked == {
        "central_pair_triple_vanishes": 3_011_499,
        "central_commutator_swap": 5_845_851,
        "product_expansion": 243 ** 3,
        "power_expansion": 243 ** 2,
        "power_commutator_collapse": 243 ** 3,
    }
    assert sum(checked.values()) == 37_614_213


class CountingGroup(FiniteGroup):
    """Counts the products asked of mul_many outside commutator_many, and
    the pairs asked of commutator_many."""

    def __init__(self, *args, **kw):
        self.products = self.pairs = self._inside = 0
        super().__init__(*args, **kw)

    def mul_many(self, i, j):
        out = super().mul_many(i, j)
        if not self._inside:
            self.products += out.size
        return out

    def commutator_many(self, a, b):
        self._inside += 1
        try:
            out = super().commutator_many(a, b)
        finally:
            self._inside -= 1
        self.pairs += out.size
        return out


def test_class3_identities_tabulate_each_product_once():
    h = heis(5)
    g = CountingGroup("H5", Heis3Backend(5), h.rows, generators=h.generators)
    assert g.nilpotency_class() == 2  # the series is not part of the suite
    g.products = g.pairs = 0
    rep = g.check_class3_identities()
    n, p = g.order, g.prime
    assert rep["product_expansion"]["checked"] == n ** 3
    # the two n x n tables, plus the center (two products per element and
    # generator) and the power table (p - 2 rows of n)
    assert g.pairs == n * n
    assert n * n <= g.products <= n * n + 2 * n * len(g.generators) + (p - 2) * n


def test_class3_identities_sampled_path_asks_each_bracket_once(monkeypatch):
    # heis(5) has order 125, so the limit is lowered to take the sampled path
    monkeypatch.setattr(pgf.engine, "IDENTITY_EXHAUSTIVE_LIMIT", 100)
    h = heis(5)
    g = CountingGroup("H5", Heis3Backend(5), h.rows, generators=h.generators)
    assert g.nilpotency_class() == 2  # so every [a, b] is central
    g.center()
    g.products = g.pairs = 0
    s, p = 500, g.prime
    rep = g.check_class3_identities(samples=s)
    assert rep == class3_identity_oracle(heis(5), samples=s)
    # the triples ask [a,c], [b,c], [a,b], [[a,b],c] once each; the swap
    # four brackets per triple ([a,b] is always central here); the product
    # expansion three brackets and six products; the collapse two brackets.
    # The pairs ask [a,b], [[a,b],a], [[a,b],b] once each and, for each s,
    # [a^s,b] and [a,b^s] with one product each.  The power table takes
    # p - 2 rows of n products.
    assert g.pairs == (4 + 4 + 3 + 2 + 3 + 2 * p) * s
    assert g.products == 6 * s + 2 * p * s + (p - 2) * g.order


def test_class3_identities_sampled_path(monkeypatch):
    # heis(5) has order 125, so the limit is lowered to take the sampled path
    monkeypatch.setattr(pgf.engine, "IDENTITY_EXHAUSTIVE_LIMIT", 100)
    rep = heis(5).check_class3_identities(samples=500)
    assert all(entry["passed"] for entry in rep.values())
    assert rep["product_expansion"]["checked"] == 500
    assert rep == class3_identity_oracle(heis(5), samples=500)
    assert rep == heis(5).check_class3_identities(samples=500)  # the draws are fixed


def test_class3_identities_reject_bad_input():
    with pytest.raises(GroupError):
        sym3().check_class3_identities()
    with pytest.raises(GroupError):
        cyclic(12).check_class3_identities()


def test_axioms_sampled_path():
    g = cyclic(2048)
    verify_group_axioms(g, samples=2000, seed=5)
    assert g.exponent() == 2048


# -- index sets --------------------------------------------------------------


@st.composite
def index_arrays(draw):
    """int16/int64 arrays: as drawn, sorted, strictly increasing or 2-D,
    with values from a span of 7 (heavy duplicates) up to the full dtype."""
    dtype = np.dtype(draw(st.sampled_from(["int16", "int64"])))
    top = draw(st.sampled_from([3, 1000, int(np.iinfo(dtype).max)]))
    a = np.array(draw(st.lists(st.integers(-top, top), max_size=60)), dtype=dtype)
    layout = draw(st.sampled_from(["drawn", "sorted", "increasing", "2-D"]))
    if layout == "sorted":
        a = np.sort(a)
    elif layout == "increasing":
        a = np.unique(a, return_index=True)[0]
    elif layout == "2-D" and len(a) % 2 == 0:
        a = a.reshape(2, -1)
    return a


@given(index_arrays())
@example(np.array([], dtype=np.int64))
@example(np.array([5], dtype=np.int16))
@example(np.arange(12, dtype=np.int64).reshape(3, 4))
@example(np.full(40, 9, dtype=np.int16))
@settings(max_examples=300, deadline=None)
def test_sorted_unique_matches_numpy(a):
    out = sorted_unique(a)
    assert out.dtype == a.dtype
    assert np.array_equal(out, np.unique(a))
    assert not np.shares_memory(out, a)


SORT_PATH_KEYWORDS = {"return_index", "return_inverse", "return_counts", "axis"}


def hash_path_calls(source: str, filename: str = "<source>") -> list:
    """np.unique calls without a sort-path keyword, and np.union1d calls."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
            continue
        keywords = {k.arg for k in node.keywords}
        if node.func.attr == "union1d" or (node.func.attr == "unique"
                                           and not keywords & SORT_PATH_KEYWORDS):
            found.append(f"{filename}:{node.lineno} np.{node.func.attr}")
    return found


def test_hash_path_guard_flags_plain_unique_and_union():
    source = ("a = np.unique(x)\nb = np.union1d(x, y)\n"
              "c = np.unique(x, return_index=True)\nd = np.unique(x, axis=0)\n")
    assert hash_path_calls(source) == ["<source>:1 np.unique", "<source>:2 np.union1d"]


def test_index_sets_avoid_numpy_hash_path():
    # a plain np.unique returns the same values as sorted_unique, only much
    # slower on numpy 2.4, so no other test would notice it coming back
    paths = sorted(pathlib.Path(pgf.__file__).parent.glob("*.py"))
    assert any(path.name == "engine.py" for path in paths)
    found = [hit for path in paths for hit in hash_path_calls(path.read_text(), path.name)]
    assert found == []


RANDOM_MODULES = ("numpy.random", "random")


def random_accesses(source: str, filename: str = "<source>") -> list:
    """Reads of np.random or numpy.random, and imports of numpy.random or of
    the standard random module, by line."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if ((isinstance(node, ast.Attribute) and node.attr == "random"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
                or (isinstance(node, ast.ImportFrom) and not node.level
                    and node.module in RANDOM_MODULES)
                or (isinstance(node, ast.Import)
                    and any(a.name in RANDOM_MODULES for a in node.names))):
            lines.append(node.lineno)
    return [f"{filename}:{n}" for n in sorted(lines)]


def test_random_guard_flags_numpy_random():
    source = ("a = np.random.default_rng(0)\nb = rng.random()\n"
              "from numpy.random import default_rng\nc = numpy.random.rand()\n")
    assert random_accesses(source) == ["<source>:1", "<source>:3", "<source>:4"]


def test_random_guard_flags_the_random_module():
    source = ("import random\nfrom random import Random\nimport randomness\n"
              "from .random import x\nimport os, random as r\n")
    assert random_accesses(source) == ["<source>:1", "<source>:2", "<source>:5"]


def test_isoclinism_verdicts_draw_no_random_numbers():
    # a verdict or witness check that samples would depend on its seed
    path = pathlib.Path(pgf.isoclinism.__file__)
    assert random_accesses(path.read_text(), path.name) == []


@pytest.mark.parametrize("module", ["structure", "cli", "constructions", "report", "fields"])
def test_module_draws_no_random_numbers(module):
    # every verdict and report is a function of its spec; the sampled
    # identity suite in engine.py is the one place that draws
    path = pathlib.Path(pgf.engine.__file__).with_name(f"{module}.py")
    assert random_accesses(path.read_text(), path.name) == []


# -- one constructor, one span loop ------------------------------------------

SPAN_LOOP_HOMES = {"basis", "normal_closure_members"}  # methods of FiniteGroup
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def span_breaches(source: str, filename: str = "<source>") -> list:
    """__new__ calls, any from_closure (defined or called: the engine's one
    closure is closure_members), and loops calling closure_members anywhere
    but in FiniteGroup.basis and FiniteGroup.normal_closure_members."""
    tree = ast.parse(source, filename)
    homes = {id(inner)
             for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "FiniteGroup"
             for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in SPAN_LOOP_HOMES
             for inner in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__new__":
            found.append(f"{filename}:{node.lineno} __new__")
        elif "from_closure" in (getattr(node, "name", None), getattr(node, "attr", None),
                                getattr(node, "id", None)):
            found.append(f"{filename}:{node.lineno} from_closure")
        elif isinstance(node, LOOPS) and id(node) not in homes and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "closure_members" for call in ast.walk(node)):
            found.append(f"{filename}:{node.lineno} closure_members in a loop")
    return found


def test_span_guard_flags_new_and_closure_loops():
    source = '''class FiniteGroup:
    def basis(self):
        while True:
            self.closure_members([])

    def other(self):
        for x in range(3):
            self.closure_members([x])

def basis(g):
    return [g.closure_members([x]) for x in range(3)]

g = FiniteGroup.__new__(FiniteGroup)
while g:
    g = None
'''
    assert span_breaches(source) == ["<source>:7 closure_members in a loop",
                                     "<source>:11 closure_members in a loop",
                                     "<source>:13 __new__"]


def test_span_guard_flags_from_closure():
    source = '''class FiniteGroup:
    @classmethod
    def from_closure(cls, rows):
        return cls(rows)

def from_closure(rows):
    return FiniteGroup.from_closure(rows)

g = from_closure([])
'''
    assert sorted(span_breaches(source)) == ["<source>:3 from_closure", "<source>:6 from_closure",
                                             "<source>:7 from_closure", "<source>:9 from_closure"]


def test_one_constructor_and_one_span_loop():
    # a second initializer or a second greedy span loop returns the same
    # groups and picks, so only the source shows it coming back
    paths = sorted(pathlib.Path(pgf.__file__).parent.glob("*.py"))
    assert any(path.name == "engine.py" for path in paths)
    found = [hit for path in paths for hit in span_breaches(path.read_text(), path.name)]
    assert found == []
