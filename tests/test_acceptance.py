"""End-to-end acceptance: one criterion per test, one PASS/FAIL line each.

Each test prints its verdict line on the live terminal (bypassing capture),
so a full run reads as a nine-line scorecard.  Budgets are wall-clock and
generous only where the criterion grants them.
"""

import json
import time

import numpy as np
import pytest

from pgf.cli import main as cli_main
from pgf.constructions import build_group
from pgf.fields import FieldOps, structure_constants
from pgf.isoclinism import (
    are_isoclinic,
    are_isomorphic,
    conjugate_type_isoclinism_consistency,
    verify_isoclinism_witness,
    verify_isomorphism,
)
from pgf import structure as st

from helpers import build_cyclic, quintuple_commutator_oracle, verify_quintuple_identification

FOUR_PAIRS = ((3, 1), (5, 1), (7, 1), (3, 2))
ALT_MODULUS = ",modulus=[2,1,1]"


def announce(capsys, number, title, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\nFAIL criterion {number}: {title}")
        raise
    with capsys.disabled():
        print(f"\nPASS criterion {number}: {title}")


def run_cli(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(scope="session")
def groups():
    built = {
        "u3_31": build_group("u3:p=3,m=1"),
        "u3xc3": build_group("xab:u3:p=3,m=1,k=1"),
        "hmod31": build_group("hmod:p=3,m=1"),
        "hmod51": build_group("hmod:p=5,m=1"),
        "hmod32": build_group("hmod:p=3,m=2"),
        "hmod32b": build_group("hmod:p=3,m=2" + ALT_MODULUS),
        "quint31": build_group("quint:p=3,m=1"),
        "quint32": build_group("quint:p=3,m=2"),
        "quint32b": build_group("quint:p=3,m=2" + ALT_MODULUS),
    }
    return built


def test_criterion_1_conjugate_type(capsys):
    def body():
        for p, m in FOUR_PAIRS:
            order = p ** (5 * m)
            budget = 1.0 if order <= 16807 else 600.0
            t0 = time.perf_counter()
            code, d = run_cli(capsys, ["invariants", f"hmod:p={p},m={m}"])
            elapsed = time.perf_counter() - t0
            assert code == 0
            assert d["order"] == order
            assert d["class"] == 3
            assert d["conjugate_type"] == [1, p ** (2 * m)]
            assert elapsed <= budget, f"({p},{m}) took {elapsed:.2f}s > {budget}s"

    announce(capsys, 1, "class 3 with conjugate type (1, p^2m) at all four (p, m)",
             body)


def test_criterion_2_structural_suite(capsys):
    def body():
        for p, m in FOUR_PAIRS:
            t0 = time.perf_counter()
            code, d = run_cli(capsys, ["verify", f"hmod:p={p},m={m}", "structural"])
            elapsed = time.perf_counter() - t0
            assert code == 0, [c["name"] for c in d["checks"] if not c["passed"]]
            assert elapsed <= 600.0

    announce(capsys, 2, "full structural suite passes at all four (p, m)", body)


def test_criterion_3_quintuple_identification(capsys, groups):
    def body():
        rep = verify_quintuple_identification(groups["hmod31"], groups["quint31"])
        assert rep["passed"] and rep["exhaustive"]
        rep = verify_quintuple_identification(build_group("hmod:p=5,m=1"),
                                              build_group("quint:p=5,m=1"))
        assert rep["passed"] and rep["exhaustive"]
        rep = verify_quintuple_identification(groups["hmod32"], groups["quint32"])
        assert rep["passed"] and rep["exhaustive"]
        assert rep["pairs_checked"] >= 10 ** 5
        t0 = time.perf_counter()
        iso = are_isomorphic(groups["hmod31"], groups["quint31"])
        elapsed = time.perf_counter() - t0
        assert iso.outcome == "isomorphic"
        assert verify_isomorphism(groups["hmod31"], groups["quint31"], iso.mapping)
        assert elapsed <= 60.0

    announce(capsys, 3, "matrix quotient identified with the quintuple model, "
             "explicit isomorphism found", body)


def test_criterion_4_u3_recognition(capsys, groups):
    def body():
        for key, (p, m) in (("hmod31", (3, 1)), ("hmod51", (5, 1)),
                            ("hmod32", (3, 2))):
            g = groups[key]
            rec = st.recognize_u3(g.quotient(g.center()))
            assert rec.recognized and rec.q == p ** m
            assert not st.recognize_u3(g).recognized
        g71 = build_group("hmod:p=7,m=1")
        rec = st.recognize_u3(g71.quotient(g71.center()))
        assert rec.recognized and rec.q == 7
        assert not st.recognize_u3(g71).recognized

    announce(capsys, 4, "central quotients recognized as unitriangular of "
             "order q^3, the groups themselves rejected", body)


def _presentation_battery(g):
    """Criterion-5 verdicts on one group; raises on any failure."""
    profile = st.verify_class3_profile(g)
    assert profile.passed
    m = profile.inferred["m"]
    frame = st.lift_generator_frame(g, "coordinate", profile)
    generic = st.lift_generator_frame(g, "generic", profile)
    params = st.extract_presentation_params(g, frame)
    rel = st.verify_kappa_commutator_relations(g, frame)
    assert rel["passed"] and rel["checked"] == 2 * m * m
    alpha = np.array(params.alpha)
    beta = np.array(params.beta)
    assert not np.any(alpha[:, :, m:])
    assert not np.any(beta[:, :, :m])
    others = [st.central_shift_frame(g, frame)]
    if m == 1:
        others.append(generic)
    for other in others:
        res = params.compare(st.extract_presentation_params(g, other))
        assert res["passed"], res["mismatched"]
    return params


def test_criterion_5_presentation(capsys, groups):
    def body():
        for key in ("hmod31", "hmod51", "hmod32"):
            _presentation_battery(groups[key])

    announce(capsys, 5, "frames lift, parameters extract, bracket relations "
             "and frame independence hold at (3,1), (5,1), (3,2)", body)


def test_criterion_6_isoclinism(capsys, groups):
    def body():
        t0 = time.perf_counter()
        res = are_isoclinic(groups["u3_31"], groups["u3xc3"])
        elapsed = time.perf_counter() - t0
        assert res.outcome == "isoclinic"
        assert elapsed <= 120.0
        assert verify_isoclinism_witness(groups["u3_31"], groups["u3xc3"], res.witness)
        assert conjugate_type_isoclinism_consistency(groups["u3_31"], groups["u3xc3"])
        t0 = time.perf_counter()
        ref = are_isoclinic(groups["u3_31"], groups["hmod31"])
        elapsed = time.perf_counter() - t0
        assert ref.outcome == "refuted"
        assert "central quotient orders" in ref.reason
        assert elapsed <= 10.0

    announce(capsys, 6, "isoclinic to the direct product with C3, refutation "
             "against the larger quotient immediate", body)


def test_criterion_7_identity_suite(capsys, groups):
    def body():
        matrix = [
            groups["u3_31"], build_group("u3:p=5,m=1"), build_group("u3:p=3,m=2"),
            groups["u3xc3"], build_cyclic(27),
            groups["hmod31"], groups["hmod51"], build_group("hmod:p=7,m=1"),
            groups["hmod32"], groups["quint31"], groups["quint32"],
        ]
        for g in matrix:
            assert g.nilpotency_class() <= 3
            rep = g.check_class3_identities(samples=10 ** 4)
            assert all(entry["passed"] for entry in rep.values()), g.name
            n = g.order
            if n <= 300:
                assert rep["product_expansion"]["checked"] == n ** 3
            else:
                assert rep["product_expansion"]["checked"] >= 10 ** 4

    announce(capsys, 7, "class-3 commutator identities hold on every "
             "class-at-most-3 group in the matrix", body)


def test_criterion_8_commutator_oracle(capsys, groups):
    def body():
        q31 = groups["quint31"]
        ops = FieldOps(q31.field)
        n = q31.order
        i = np.repeat(np.arange(n, dtype=np.int64), n)
        j = np.tile(np.arange(n, dtype=np.int64), n)
        want = q31.rows[q31.commutator_many(i, j)]
        got = quintuple_commutator_oracle(ops, q31.rows[i], q31.rows[j])
        assert np.array_equal(want, got)
        q32 = groups["quint32"]
        rng = np.random.default_rng(0)
        i = rng.integers(0, q32.order, 10 ** 5)
        j = rng.integers(0, q32.order, 10 ** 5)
        want = q32.rows[q32.commutator_many(i, j)]
        got = quintuple_commutator_oracle(FieldOps(q32.field),
                                          q32.rows[i], q32.rows[j])
        assert np.array_equal(want, got)

    announce(capsys, 8, "closed-form commutator equals the generic one on all "
             "pairs at (3,1) and 1e5 sampled pairs at (3,2)", body)


def _battery_32(capsys, groups, alt):
    """Criteria 1-5 verdicts at (3,2), for the modulus-independence check."""
    tag = ALT_MODULUS if alt else ""
    spec = "hmod:p=3,m=2" + tag
    hm = groups["hmod32b" if alt else "hmod32"]
    qu = groups["quint32b" if alt else "quint32"]
    verdicts = {}
    code, d = run_cli(capsys, ["invariants", spec])
    verdicts["c1"] = (code == 0 and d["class"] == 3
                      and d["conjugate_type"] == [1, 81])
    conjugate_type = d["conjugate_type"]
    code, d = run_cli(capsys, ["verify", spec, "structural"])
    verdicts["c2"] = code == 0
    rep = verify_quintuple_identification(hm, qu)
    verdicts["c3"] = bool(rep["passed"])
    rec = st.recognize_u3(hm.quotient(hm.center()))
    verdicts["c4"] = bool(rec.recognized and rec.q == 9
                          and not st.recognize_u3(hm).recognized)
    try:
        params = _presentation_battery(hm)
        verdicts["c5"] = True
    except AssertionError:
        params = None
        verdicts["c5"] = False
    kappa = structure_constants(hm.field).as_lists()
    return {"verdicts": verdicts, "conjugate_type": conjugate_type,
            "kappa": kappa, "params": params}


def test_criterion_9_modulus_independence(capsys, groups):
    def body():
        default = _battery_32(capsys, groups, alt=False)
        other = _battery_32(capsys, groups, alt=True)
        assert all(default["verdicts"].values()), default["verdicts"]
        assert default["verdicts"] == other["verdicts"]
        assert default["conjugate_type"] == other["conjugate_type"]
        # the tensors live in different coordinate charts and need not agree
        assert default["kappa"] != other["kappa"]

    announce(capsys, 9, "second irreducible modulus reproduces every verdict "
             "and the conjugate type at (3,2)", body)
