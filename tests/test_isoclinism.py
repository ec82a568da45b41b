"""Commutation maps, isomorphism search, and isoclinism decisions."""

import json
import math

import numpy as np
import pytest

import pgf.constructions
from pgf import isoclinism
from pgf.cli import main as cli_main
from pgf.constructions import (
    build_direct_product_with_elem_abelian,
    build_group,
    identification_map,
    parse_group_spec,
    u3_named_elements,
)
from pgf.engine import CapExceeded, FiniteGroup, GroupError, is_homomorphism
from pgf.isoclinism import (
    SearchConfig,
    _build_commutation_map,
    _force_theta,
    _search_bijections,
    _search_generators,
    _single_valued,
    are_isoclinic,
    are_isomorphic,
    commutation_map,
    conjugate_type_isoclinism_consistency,
    verify_isoclinism_witness,
    verify_isomorphism,
)
from pgf.structure import recognize_u3

from helpers import (
    bracket_table,
    build_cyclic,
    cayley_table,
    image_members,
    inverted,
    square_on_all_pairs,
    theta_from_all_brackets,
    verify_quintuple_identification,
)


@pytest.fixture(scope="module")
def u3_31():
    return build_group("u3:p=3,m=1")


@pytest.fixture(scope="module")
def hmod31():
    return build_group("hmod:p=3,m=1")


@pytest.fixture(scope="module")
def quint31():
    return build_group("quint:p=3,m=1")


@pytest.fixture(scope="module")
def u3_times_c3():
    return build_group("xab:u3:p=3,m=1,k=1")


# -- commutation map ---------------------------------------------------------


def test_commutation_map_identity_row_and_column(u3_31):
    cm = commutation_map(u3_31)
    e = cm.quotient.identity
    d = len(cm.gens)
    assert cm.columns.shape == (cm.quotient.order, d)
    assert np.array_equal(cm.columns, bracket_table(cm)[:, cm.gens])
    assert np.all(cm.columns[e, :] == u3_31.identity)
    assert np.all(cm.columns[cm.gens, np.arange(d)] == u3_31.identity)


@pytest.mark.parametrize("spec", ["u3:p=3,m=1", "u3:p=3,m=2"])
def test_commutation_map_brackets_give_corner_elements(spec):
    # the bracket of the i-th and j-th standard generators lands on the
    # corner element whose field coordinate is alpha^(i+j), 0-based
    g = build_group(spec)
    named = u3_named_elements(g)
    cm = commutation_map(g)
    coset = cm.quotient.backend.coset_of
    m = g.field.m
    for i in range(m):
        for j in range(m):
            got = bracket_table(cm)[coset[named["x"][i]], coset[named["y"][j]]]
            assert got == named["h"][i + j]


def test_commutation_map_image_fills_derived_subgroup(hmod31):
    cm = commutation_map(hmod31)
    image = image_members(cm)
    assert np.array_equal(hmod31.closure_members(image), cm.derived.members)
    # here the bracket values already exhaust the derived subgroup
    assert np.array_equal(image, cm.derived.members)
    # the generator columns alone generate it
    assert np.array_equal(hmod31.closure_members(cm.columns.ravel()), cm.derived.members)


def test_commutation_map_resampling_catches_a_noncentral_subgroup():
    # posing the (normal, not central) derived subgroup as the center makes
    # the bracket on its cosets ill defined; the first (basis element,
    # generator) pair that fails to commute is the one named
    g = build_group("quint:p=3,m=1")
    g._center = g.derived_subgroup()
    with pytest.raises(GroupError, match=r"not well defined: center element 9 "
                                         r"does not commute with generator 1$"):
        commutation_map(g)


@pytest.mark.parametrize("spec", ["u3:p=3,m=1", "hmod:p=3,m=1", "quint:p=3,m=1",
                                  "xab:u3:p=3,m=1,k=1"])
def test_stored_commutation_map_equals_a_fresh_build(spec):
    g = build_group(spec)
    cm = commutation_map(g)
    assert are_isoclinic(g, g).outcome == "isoclinic"
    assert commutation_map(g) is cm
    assert g.central_quotient() is cm.quotient
    fresh = _build_commutation_map(build_group(spec))
    assert np.array_equal(cm.gens, fresh.gens)
    assert np.array_equal(cm.columns, fresh.columns)
    assert np.array_equal(cm.quotient.backend.leaders, fresh.quotient.backend.leaders)
    assert np.array_equal(cm.derived.members, fresh.derived.members)
    assert np.array_equal(cm.basis, fresh.basis)
    # the basis is made of column values, found at its positions, and
    # generates the derived subgroup
    assert np.array_equal(cm.columns.flat[cm.positions], cm.basis)
    assert np.array_equal(g.closure_members(cm.basis), cm.derived.members)


def test_commutation_map_stored_once_per_resampling(u3_31):
    cm = commutation_map(u3_31)
    assert commutation_map(u3_31) is cm
    with pytest.raises(ValueError):
        cm.columns[0, 0] = u3_31.identity


def test_commutation_map_failed_build_is_not_stored():
    g = build_group("quint:p=3,m=1")
    g._center = g.derived_subgroup()
    for _ in range(2):
        with pytest.raises(GroupError, match="not well defined"):
            commutation_map(g)


def test_isoclinic_command_builds_each_map_once(capsys, monkeypatch):
    counts = {"quotients": 0, "maps": 0}
    quotient, build = FiniteGroup.quotient, isoclinism._build_commutation_map

    def counted_quotient(self, *args, **kwargs):
        counts["quotients"] += 1
        return quotient(self, *args, **kwargs)

    def counted_build(*args):
        counts["maps"] += 1
        return build(*args)

    monkeypatch.setattr(FiniteGroup, "quotient", counted_quotient)
    monkeypatch.setattr(isoclinism, "_build_commutation_map", counted_build)
    reports = []
    for _ in range(2):
        counts.update(quotients=0, maps=0)
        assert cli_main(["isoclinic", "hmod:p=3,m=1", "quint:p=3,m=1"]) == 0
        # one central quotient per group; the hmod build takes none
        assert counts == {"quotients": 2, "maps": 2}
        report = json.loads(capsys.readouterr().out)
        assert report.pop("timings")
        reports.append(report)
    assert reports[0] == reports[1]
    assert [c["passed"] for c in reports[0]["checks"]] == [True, True, True]


# -- isomorphism -------------------------------------------------------------


def test_self_isomorphism_is_identity(u3_31):
    res = are_isomorphic(u3_31, u3_31)
    assert res.outcome == "isomorphic"
    assert np.array_equal(res.mapping, np.arange(u3_31.order))
    assert verify_isomorphism(u3_31, u3_31, res.mapping)


def test_abelian_vs_nonabelian_refuted(u3_31):
    cube = build_direct_product_with_elem_abelian(build_cyclic(3), 2)
    assert cube.order == u3_31.order == 27
    res = are_isomorphic(u3_31, cube)
    assert res.outcome == "refuted"
    assert "abelian" in res.reason


def test_matrix_quotient_isomorphic_to_quintuple(hmod31, quint31):
    res = are_isomorphic(hmod31, quint31)
    assert res.outcome == "isomorphic"
    assert res.nodes > 0
    assert verify_isomorphism(hmod31, quint31, res.mapping)
    again = are_isomorphic(hmod31, quint31)
    assert np.array_equal(res.mapping, again.mapping)


def test_exponent_refutes_same_order_pair(u3_31):
    c27 = build_cyclic(27)
    res = are_isomorphic(u3_31, c27)
    assert res.outcome == "refuted"
    assert "abelian" in res.reason or "exponent" in res.reason


def test_budget_exhaustion_is_inconclusive_not_refuted(hmod31, quint31):
    res = are_isomorphic(hmod31, quint31, SearchConfig(max_nodes=1))
    assert res.outcome == "inconclusive"
    assert "budget" in res.reason


def test_exhausted_node_budget_is_named(hmod31, quint31):
    res = are_isomorphic(hmod31, quint31, SearchConfig(max_nodes=3))
    assert res.outcome == "inconclusive"
    assert res.reason == "node budget of 3 exhausted"
    assert res.nodes == 4


def test_exhausted_time_budget_is_named(hmod31, quint31):
    res = are_isomorphic(hmod31, quint31, SearchConfig(time_limit=1e-9))
    assert res.outcome == "inconclusive"
    assert res.reason == "time budget of 1e-09 s exhausted"
    assert res.nodes == 1


def test_search_exhaustion_refutes_without_invariant_pruning(monkeypatch, u3_31):
    # with the invariant refuter silenced the candidate buckets still empty
    # out, because no cyclic-group element shares a noncentral fingerprint
    monkeypatch.setattr(isoclinism, "_isomorphism_refuter", lambda a, b: None)
    c27 = build_cyclic(27)
    res = are_isomorphic(u3_31, c27)
    assert res.outcome == "refuted"
    assert "search" in res.reason


# hmod and quint pairs, with their coordinate identification, within the
# product memo table (3,1) and past it (7,1), (3,2)
IDENTIFIED = [(3, 1), (7, 1), (3, 2)]


@pytest.fixture(scope="module")
def built():
    """build_group, once per spec in this module."""
    cache = {}

    def get(spec):
        if spec not in cache:
            cache[spec] = build_group(spec)
        return cache[spec]
    return get


def swapped(mapping, i, j):
    bad = mapping.copy()
    bad[[i, j]] = bad[[j, i]]
    return bad


@pytest.mark.parametrize("p,m", IDENTIFIED)
def test_verify_isomorphism_rejects_tampering(built, p, m):
    hmod, quint = built(f"hmod:p={p},m={m}"), built(f"quint:p={p},m={m}")
    good = identification_map(hmod, quint)
    assert verify_isomorphism(hmod, quint, good)
    assert not verify_isomorphism(hmod, quint, swapped(good, 1, 2))
    assert not verify_isomorphism(hmod, quint, good[:-1])
    assert not verify_isomorphism(hmod, quint, np.zeros_like(good))
    # an entry outside 0..n-1 is rejected, not an index error (n) or an
    # index numpy wraps around (-1)
    for entry in (quint.order, -1):
        bad = good.copy()
        bad[good == quint.order - 1] = entry
        assert not verify_isomorphism(hmod, quint, bad)


@pytest.mark.parametrize("p,m", IDENTIFIED)
def test_identification_rejects_a_swapped_map(monkeypatch, built, p, m):
    hmod, quint = built(f"hmod:p={p},m={m}"), built(f"quint:p={p},m={m}")
    good = identification_map(hmod, quint)
    assert verify_quintuple_identification(hmod, quint)["passed"]
    monkeypatch.setattr(pgf.constructions, "identification_map", lambda a, b: swapped(good, 1, 2))
    with pytest.raises(GroupError, match="homomorphism law"):
        verify_quintuple_identification(hmod, quint)


def test_isomorphism_result_serializes(u3_31):
    d = are_isomorphic(u3_31, u3_31).as_dict()
    assert d["outcome"] == "isomorphic"
    assert d["mapping"] == list(range(27))
    d = are_isomorphic(u3_31, build_cyclic(27)).as_dict()
    assert d["mapping"] is None and d["reason"]


# -- isoclinism --------------------------------------------------------------


def test_isoclinic_reflexive_identity_witness(u3_31):
    res = are_isoclinic(u3_31, u3_31)
    assert res.outcome == "isoclinic"
    assert np.array_equal(res.witness.phi, np.arange(9))
    assert np.array_equal(res.witness.theta_src, res.witness.theta_dst)
    assert verify_isoclinism_witness(u3_31, u3_31, res.witness)


def test_isoclinic_to_direct_product_with_c3(u3_31, u3_times_c3):
    res = are_isoclinic(u3_31, u3_times_c3)
    assert res.outcome == "isoclinic"
    assert verify_isoclinism_witness(u3_31, u3_times_c3, res.witness)
    assert conjugate_type_isoclinism_consistency(u3_31, u3_times_c3)
    assert u3_31.conjugate_type() == [1, 3]
    assert u3_times_c3.conjugate_type() == [1, 3]


def test_isoclinic_refuted_immediately_on_frame_sizes(u3_31, hmod31):
    res = are_isoclinic(u3_31, hmod31)
    assert res.outcome == "refuted"
    assert "9 vs 27" in res.reason


def test_abelian_groups_are_all_isoclinic():
    c27 = build_cyclic(27)
    cube = build_direct_product_with_elem_abelian(build_cyclic(3), 2)
    res = are_isoclinic(c27, cube)
    assert res.outcome == "isoclinic"
    assert verify_isoclinism_witness(c27, cube, res.witness)


def test_matrix_quotient_isoclinic_to_quintuple(hmod31, quint31):
    res = are_isoclinic(hmod31, quint31)
    assert res.outcome == "isoclinic"
    assert verify_isoclinism_witness(hmod31, quint31, res.witness)
    assert conjugate_type_isoclinism_consistency(hmod31, quint31)
    # both central quotients carry the unitriangular structure
    for g in (hmod31, quint31):
        rec = recognize_u3(g.quotient(g.center()))
        assert rec.recognized and rec.q == 3


def test_witness_inversion_is_symmetric(u3_31, u3_times_c3):
    res = are_isoclinic(u3_31, u3_times_c3)
    inv = inverted(res.witness)
    assert verify_isoclinism_witness(u3_times_c3, u3_31, inv)
    back = inverted(inv)
    assert np.array_equal(back.phi, res.witness.phi)
    assert np.array_equal(back.theta_src, res.witness.theta_src)
    assert np.array_equal(back.theta_dst, res.witness.theta_dst)


def test_conjugate_types_of_quotient_and_its_central_product(hmod31):
    wide = build_group("xab:hmod:p=3,m=1,k=1")
    res = are_isoclinic(hmod31, wide)
    assert res.outcome == "isoclinic"
    assert conjugate_type_isoclinism_consistency(hmod31, wide)
    assert hmod31.conjugate_type() == [1, 9]
    assert wide.conjugate_type() == [1, 9]


def test_isoclinism_budget_exhaustion_inconclusive(hmod31, quint31):
    res = are_isoclinic(hmod31, quint31, SearchConfig(max_nodes=1))
    assert res.outcome == "inconclusive"
    assert "budget" in res.reason


WITNESS_PAIRS = ([("u3:p=3,m=1", "xab:u3:p=3,m=1,k=1")]
                 + [(f"hmod:p={p},m={m}", f"quint:p={p},m={m}") for p, m in IDENTIFIED])


@pytest.mark.parametrize("specs", WITNESS_PAIRS, ids="/".join)
def test_verify_rejects_tampered_witness(built, specs):
    g, h = map(built, specs)
    w = are_isoclinic(g, h).witness
    assert verify_isoclinism_witness(g, h, w)
    tampered = type(w)(swapped(w.phi, 0, 1), w.theta_src, w.theta_dst)
    assert not verify_isoclinism_witness(g, h, tampered)
    tampered = type(w)(w.phi, w.theta_src, swapped(w.theta_dst, 0, 1))
    assert not verify_isoclinism_witness(g, h, tampered)
    # G' is elementary abelian and p odd, so squaring theta keeps it a
    # bijective homomorphism: only the commuting square rejects it
    squared = h.power_many(w.theta_dst, 2)
    assert np.array_equal(np.sort(squared), commutation_map(h).derived.members)
    assert is_homomorphism(g, h, w.theta_src, commutation_map(g).basis, squared)
    assert not verify_isoclinism_witness(g, h, type(w)(w.phi, w.theta_src, squared))
    for entry in (len(w.phi), -1):
        bad_phi = w.phi.copy()
        bad_phi[w.phi == len(w.phi) - 1] = entry
        tampered = type(w)(bad_phi, w.theta_src, w.theta_dst)
        assert not verify_isoclinism_witness(g, h, tampered)


@pytest.mark.parametrize("specs", WITNESS_PAIRS, ids="/".join)
def test_forced_theta_matches_the_all_brackets_oracle(built, specs):
    g, h = map(built, specs)
    am, bm = commutation_map(g), commutation_map(h)
    phi = are_isoclinic(g, h).witness.phi
    assert np.array_equal(_force_theta(am, bm, phi).theta_dst,
                          theta_from_all_brackets(am, bm, phi))
    bad = swapped(phi, 1, 2)
    assert theta_from_all_brackets(am, bm, bad) is None
    forced = _force_theta(am, bm, bad)
    assert forced is None or not verify_isoclinism_witness(g, h, forced)
    # _induced_map drops an assignment through _single_valued, which
    # returns None when one source carries two images
    assert _single_valued(np.array([4, 4], dtype=np.int32), np.array([1, 2], dtype=np.int32)) is None
    src, dst = _single_valued(np.array([4, 2, 4]), np.array([1, 3, 1]))
    assert src.tolist() == [2, 4] and dst.tolist() == [3, 1]


# a pair and the node budget of its phi enumeration: the whole tree at
# (3,1), its first 100 nodes at (5,1) and 200 at (3,2), where two of the
# three forced theta fail the square
COLUMN_PAIRS = [(("u3:p=3,m=1", "xab:u3:p=3,m=1,k=1"), 10 ** 6),
                (("hmod:p=3,m=1", "quint:p=3,m=1"), 10 ** 6),
                (("hmod:p=5,m=1", "quint:p=5,m=1"), 100),
                (("hmod:p=3,m=2", "quint:p=3,m=2"), 200)]


@pytest.mark.parametrize("specs,nodes", COLUMN_PAIRS, ids=["/".join(s) for s, _ in COLUMN_PAIRS])
def test_column_verdict_matches_the_full_table_verdict(built, specs, nodes):
    # every phi the search yields, with theta forced, with theta^2 (a
    # bijective homomorphism that only the square rejects) and with the
    # theta forced by each column alone (at (3,2), some of those meet the
    # square on their own column and fail it on another): the square on
    # the generator columns and on all pairs of the bracket table agree
    g, h = map(built, specs)
    am, bm = commutation_map(g), commutation_map(h)
    ta, tb = bracket_table(am), bracket_table(bm)
    phis: list = []
    try:
        _search_bijections(am.quotient, bm.quotient, isoclinism._Budget(SearchConfig(max_nodes=nodes)),
                           lambda phi: phis.append(phi.copy()) or False)
    except isoclinism._BudgetExceeded:
        pass
    verdicts = []
    for phi in phis:
        w = _force_theta(am, bm, phi)
        if w is None:
            assert theta_from_all_brackets(am, bm, phi) is None
            continue
        cands = [w, type(w)(phi, w.theta_src, h.power_many(w.theta_dst, 2))]
        bl = bm.quotient.backend.leaders
        for k, s in enumerate(am.gens):
            amap = isoclinism._induced_map(g, h, am.columns[:, k].tolist(),
                                           h.commutator_many(bl[phi], bl[phi[s]]).tolist())
            if amap is not None:
                cands.append(type(w)(phi, w.theta_src, amap[w.theta_src]))
        for cand in cands:
            theta_ok = (np.array_equal(np.sort(cand.theta_dst), bm.derived.members)
                        and is_homomorphism(g, h, cand.theta_src, am.basis, cand.theta_dst))
            verdicts.append(verify_isoclinism_witness(g, h, cand))
            assert verdicts[-1] == (theta_ok and square_on_all_pairs(ta, tb, cand))
    assert any(verdicts) and not all(verdicts)


def test_search_cap_requires_override(monkeypatch, u3_31, u3_times_c3):
    import pgf.isoclinism as iso
    monkeypatch.setattr(iso, "SEARCH_CAP", 8)
    with pytest.raises(CapExceeded, match="allow_large"):
        are_isoclinic(u3_31, u3_times_c3)
    res = are_isoclinic(u3_31, u3_times_c3, allow_large=True)
    assert res.outcome == "isoclinic"


def test_search_config_rejects_empty_budgets():
    with pytest.raises(GroupError):
        SearchConfig(max_nodes=0)
    with pytest.raises(GroupError):
        SearchConfig(time_limit=0.0)


def test_witness_serializes_as_index_tables(u3_31, u3_times_c3):
    res = are_isoclinic(u3_31, u3_times_c3)
    d = res.as_dict()
    assert d["outcome"] == "isoclinic"
    w = d["witness"]
    assert sorted(w) == ["phi", "theta_dst", "theta_src"]
    assert sorted(w["phi"]) == list(range(9))
    assert all(isinstance(v, int) for v in w["theta_src"])


# the acceptance spec matrix, both moduli at (3, 2), and xab extensions
SPEC_MATRIX = ([f"{fam}:p={p},m={m}" for fam in ("u3", "quint", "hmat", "hmod")
                for p, m in ((3, 1), (5, 1), (7, 1), (3, 2))]
               + ["quint:p=3,m=2,modulus=[2,1,1]", "hmod:p=3,m=2,modulus=[2,1,1]",
                  "xab:u3:p=3,m=1,k=1"]
               + [f"xab:hmod:p={p},m={m},k=1" for p, m in ((3, 1), (5, 1), (7, 1), (3, 2))])


@pytest.mark.parametrize("spec", SPEC_MATRIX)
def test_search_depth_is_the_frattini_rank(spec):
    # Burnside's basis theorem: every minimal generating set of a p-group
    # has log_p |G : Phi(G)| elements, Phi(G) = <G', G^p>
    g = build_group(spec)
    q = g.quotient(g.center())
    p = q.prime
    powers = q.power_many(np.arange(q.order), p)
    phi = q.closure_members(np.concatenate([q.derived_subgroup().members, powers]))
    d = round(math.log(q.order // len(phi), p))
    assert p ** d * len(phi) == q.order
    gens = _search_generators(q)
    assert len(gens) == d
    assert len(q.closure_members(gens)) == q.order
    if spec.startswith("hmod:p=3,m=2"):
        assert d == 4  # a plain basis of this quotient has 6 elements


SMALL_MATRIX = [s for s in SPEC_MATRIX if parse_group_spec(s).predicted_order() <= 243]


@pytest.mark.parametrize("spec", SMALL_MATRIX)
def test_edge_proof_matches_the_cayley_table_oracle(spec):
    # the edge proof on generators against every product of the n x n
    # table, for an inner automorphism of g and of G' and their mutants
    g = build_group(spec)
    table = cayley_table(g)
    x = next(s for s in g.generators if not g.center().contains(s))
    rng = np.random.default_rng(0)
    for domain, gens in ((np.arange(g.order), g.generators),
                         (g.derived_subgroup().members, g.basis(g.derived_subgroup().members))):
        good = g.conjugate_many(domain, x)
        mutants = [swapped(good, *rng.choice(len(domain), 2, replace=False)) for _ in range(8)]
        verdicts = []
        for image in [good] + mutants:
            full = np.full(g.order, -1)
            full[domain] = image
            oracle = np.array_equal(full[table[np.ix_(domain, domain)]], table[np.ix_(image, image)])
            verdicts.append(is_homomorphism(g, g, domain, gens, image))
            assert verdicts[-1] == oracle
        # a transposition fixes a subgroup of order n - 2, which divides n
        # only for n <= 4: then it may be an automorphism (on G' = C3 of u3)
        assert verdicts[0] and (len(domain) <= 4 or not any(verdicts[1:]))
