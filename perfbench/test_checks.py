"""Each output check accepts a right answer and rejects a doctored one.

    python3 -m pytest perfbench/test_checks.py

The right answers are written from the mathematics, in the shape pgf's
reports take; each doctored copy changes one thing the check must catch.
"""

import copy

import pytest

import checks

HMOD31 = checks.parse_spec("hmod:p=3,m=1")
HMOD32 = checks.parse_spec("hmod:p=3,m=2,modulus=[2,1,1]")
U3 = checks.parse_spec("u3:p=3,m=1")
XAB = checks.parse_spec("xab:u3:p=3,m=1,k=1")


def summary(spec, modulus):
    return {**checks.expected_invariants(spec), "field_modulus": list(modulus)}


def verify_report(spec, modulus):
    names = ["a2:class_is_3", "structural:center_is_gamma3", "presentation:kappa_relations"]
    return {**summary(spec, modulus), "spec": "s",
            "checks": [{"name": n, "passed": True, "witness": {}} for n in names]}


def params_doc(p, m, modulus):
    kappa = checks.kappa_words(p, m, modulus)
    return {"params": {
        "p": p, "m": m, "kappa": kappa,
        "gamma": [[kappa[i][j] + [0] * m for j in range(m)] for i in range(m)],
        "delta": [[[0] * m + kappa[i][j] for j in range(m)] for i in range(m)],
    }}


def isoclinic_report():
    witness = {"phi": [3, 1, 2, 0, 4, 5, 6, 7, 8], "theta_src": [0, 3, 6],
               "theta_dst": [0, 6, 3]}
    return {**summary(U3, [0, 1]), "checks": [
        {"name": "isoclinic", "passed": True,
         "witness": {"outcome": "isoclinic", "partner_summary": summary(XAB, [0, 1]),
                     "witness": witness}},
        {"name": "witness_reverifies", "passed": True, "witness": {}},
        {"name": "conjugate_types_agree", "passed": True, "witness": {}},
    ]}


def refuted_report():
    return {**summary(U3, [0, 1]), "checks": [
        {"name": "isoclinic", "passed": False,
         "witness": {"outcome": "refuted", "reason": "central quotient orders 9 vs 27",
                     "partner_summary": summary(HMOD31, [0, 1]), "witness": None}},
    ]}


def identities_report(n):
    counts = {"product_expansion": n ** 3, "power_commutator_collapse": n ** 3,
              "power_expansion": n ** 2}
    return {name: {"passed": True, "checked": counts.get(name, 7), "counterexample": None}
            for name in checks.IDENTITIES}


def test_kappa_words_by_hand():
    # GF(9) = GF(3)[x] / (x^2 + x + 2): alpha^2 = -alpha - 2 = 2 alpha + 1
    assert checks.kappa_words(3, 2, [2, 1, 1]) == [[[1, 0], [0, 1]], [[0, 1], [1, 2]]]
    # x^2 + 1: alpha^2 = -1 = 2
    assert checks.kappa_words(3, 2, [1, 0, 1]) == [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]
    assert checks.kappa_words(7, 1, [0, 1]) == [[[1]]]


def test_irreducibility():
    assert checks.is_irreducible([2, 1, 1], 3)
    assert checks.is_irreducible([1, 0, 1], 3)
    assert not checks.is_irreducible([2, 0, 1], 3)      # x^2 - 1
    assert not checks.is_irreducible([0, 1, 1], 3)      # x (x + 1)
    assert not checks.is_irreducible([1, 0, 2], 3)      # not monic


def test_spec_parsing():
    assert HMOD32 == checks.Spec("hmod", 3, 2, (2, 1, 1))
    assert XAB == checks.Spec("xab", 3, 1, None, 1)
    assert checks.slug("hmod:p=3,m=2,modulus=[2,1,1]") == "hmod-p-3-m-2-modulus-2-1-1"


@pytest.mark.parametrize("key, value", [
    ("order", 3 ** 4), ("class", 2), ("conjugate_type", [1, 3]), ("center_order", 27),
    ("derived_order", 9), ("gamma3_order", 3), ("field_modulus", [2, 0, 1]),
])
def test_invariants_rejects(key, value):
    report = {**summary(HMOD31, [0, 1]), "checks": []}
    assert checks.check_invariants(0, report, HMOD31) == []
    report[key] = value
    assert checks.check_invariants(0, report, HMOD31)


def test_invariants_rejects_exit_code_and_wrong_modulus():
    report = {**summary(HMOD32, [2, 1, 1]), "checks": []}
    assert checks.check_invariants(0, report, HMOD32) == []
    assert checks.check_invariants(1, report, HMOD32)
    assert checks.check_invariants(0, {**report, "field_modulus": [1, 0, 1]}, HMOD32)


def test_verify_rejects_failed_or_missing_checks():
    report, doc = verify_report(HMOD32, [2, 1, 1]), params_doc(3, 2, [2, 1, 1])
    assert checks.check_verify(0, report, HMOD32, doc) == []
    bad = copy.deepcopy(report)
    bad["checks"][1]["passed"] = False
    assert checks.check_verify(0, bad, HMOD32, doc)
    bad = copy.deepcopy(report)
    del bad["checks"][2]
    assert checks.check_verify(0, bad, HMOD32, doc)
    assert checks.check_verify(0, report, HMOD32, None)


@pytest.mark.parametrize("field, i, j", [("gamma", 1, 1), ("delta", 0, 1), ("kappa", 1, 0)])
def test_params_rejects_doctored_word(field, i, j):
    doc = params_doc(3, 2, [2, 1, 1])
    assert checks.check_params(doc, HMOD32, [2, 1, 1]) == []
    word = doc["params"][field][i][j]
    word[-1] = (word[-1] + 1) % 3
    assert checks.check_params(doc, HMOD32, [2, 1, 1])


def test_params_rejects_words_of_the_other_modulus():
    doc = params_doc(3, 2, [1, 0, 1])
    assert checks.check_params(doc, HMOD32, [2, 1, 1])


def test_isoclinic_accepts_and_rejects():
    assert checks.check_isoclinic(0, isoclinic_report(), U3, XAB, "isoclinic") == []
    doctored = []
    r = isoclinic_report()
    r["checks"][0]["witness"]["witness"]["phi"][0] = 1          # not a permutation
    doctored.append(r)
    r = isoclinic_report()
    r["checks"][0]["witness"]["witness"]["theta_dst"] = [0, 3, 3]
    doctored.append(r)
    r = isoclinic_report()
    r["checks"][0]["witness"]["witness"]["theta_src"].pop()
    doctored.append(r)
    r = isoclinic_report()
    r["checks"][0]["witness"]["partner_summary"]["conjugate_type"] = [1, 9]
    doctored.append(r)
    r = isoclinic_report()
    r["checks"][2]["passed"] = False
    doctored.append(r)
    r = isoclinic_report()
    r["checks"][0]["witness"]["outcome"] = "inconclusive"
    doctored.append(r)
    for r in doctored:
        assert checks.check_isoclinic(0, r, U3, XAB, "isoclinic")
    assert checks.check_isoclinic(1, isoclinic_report(), U3, XAB, "isoclinic")


def test_witness_needs_equal_conjugate_types():
    inv_u3 = checks.expected_invariants(U3)
    inv_h = checks.expected_invariants(HMOD31)
    witness = {"phi": list(range(9)), "theta_src": [0, 1, 2], "theta_dst": [0, 1, 2]}
    assert checks.check_witness(witness, inv_u3, inv_u3) == []
    assert checks.check_witness(witness, inv_u3, inv_h)


def test_refutation_accepts_and_rejects():
    assert checks.check_isoclinic(1, refuted_report(), U3, HMOD31, "refuted") == []
    assert checks.check_isoclinic(0, refuted_report(), U3, HMOD31, "refuted")
    r = refuted_report()
    r["checks"][0]["witness"]["reason"] = "central quotient orders 9 vs 9"
    assert checks.check_isoclinic(1, r, U3, HMOD31, "refuted")
    r = refuted_report()
    r["checks"][0]["witness"]["outcome"] = "isoclinic"
    assert checks.check_isoclinic(1, r, U3, HMOD31, "refuted")


def test_identities_accepts_and_rejects():
    assert checks.check_identities(identities_report(243), 243, True, 10 ** 4) == []
    r = identities_report(243)
    r["power_expansion"]["passed"] = False
    assert checks.check_identities(r, 243, True, 10 ** 4)
    r = identities_report(243)
    r["central_commutator_swap"]["counterexample"] = ["a", "b", "c"]
    assert checks.check_identities(r, 243, True, 10 ** 4)
    r = identities_report(243)
    r["product_expansion"]["checked"] -= 1
    assert checks.check_identities(r, 243, True, 10 ** 4)
    # a sampled run must check exactly the promised number of tuples
    assert checks.check_identities(identities_report(243), 243, False, 10 ** 4)


def test_search_outcomes():
    inv = checks.expected_invariants(checks.parse_spec("quint:p=3,m=2"))
    assert checks.classify_search({"outcome": "inconclusive"}, inv, inv) == ("failed", [])
    assert checks.classify_search({"outcome": "refuted"}, inv, inv)[0] == "wrong"
    witness = {"phi": list(range(729)), "theta_src": list(range(729)),
               "theta_dst": list(range(729))}
    assert checks.classify_search({"outcome": "isoclinic", "witness": witness}, inv, inv) \
        == ("ok", [])
    witness["phi"][0] = 1
    assert checks.classify_search({"outcome": "isoclinic", "witness": witness}, inv, inv)[0] \
        == "wrong"
