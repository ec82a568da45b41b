"""Output checks for the pgf benchmark, computed apart from pgf.

Every expected value here comes from the mathematics, not from a stored
copy of an earlier run: group orders and invariants from the group family
and (p, m), field words from polynomial arithmetic mod p written out
below.  Each check returns a list of problems; an empty list means the
output is right.  The module uses the standard library only, so it shares
no code path with the program it checks.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

IDENTITIES = (
    "central_pair_triple_vanishes",
    "central_commutator_swap",
    "product_expansion",
    "power_expansion",
    "power_commutator_collapse",
)
SUITES = ("a2", "structural", "presentation")


@dataclass(frozen=True)
class Spec:
    family: str           # u3 | hmat | hmod | quint | xab
    p: int
    m: int
    modulus: tuple | None
    k: int = 0            # rank of the elementary abelian factor of xab


def parse_spec(text: str) -> Spec:
    """Parse the spec strings the workloads use, e.g. 'xab:u3:p=3,m=1,k=1'."""
    family, _, rest = text.partition(":")
    inner = None
    if family == "xab":
        inner, _, rest = rest.partition(":")
        if inner != "u3":
            raise ValueError(f"unsupported xab base {inner!r}")
    fields = dict(re.findall(r"(\w+)=(\[[^\]]*\]|[^,]+)", rest))
    modulus = None
    if "modulus" in fields:
        modulus = tuple(int(c) for c in fields["modulus"].strip("[]").split(","))
    return Spec(family, int(fields["p"]), int(fields["m"]), modulus, int(fields.get("k", 0)))


def slug(text: str) -> str:
    """File-name form of a spec: alphanumeric runs joined by '-'."""
    return "-".join(re.findall(r"[0-9A-Za-z]+", text))


# -- invariants from (family, p, m) alone ----------------------------------

def expected_invariants(spec: Spec) -> dict:
    """Order, class, conjugate type and series orders the mathematics forces.

    hmod and quint are the class-3 groups of the paper: order p^5m,
    conjugate type (1, p^2m), center = gamma_3 of order p^2m, derived
    subgroup of order p^3m.  u3 is the Heisenberg group over GF(q) and xab
    adds a direct factor (Z/pZ)^k, which is central.
    """
    p, m = spec.p, spec.m
    q = p ** m
    if spec.family in ("hmod", "quint"):
        return {"order": p ** (5 * m), "class": 3, "conjugate_type": [1, p ** (2 * m)],
                "center_order": p ** (2 * m), "derived_order": p ** (3 * m),
                "gamma3_order": p ** (2 * m)}
    if spec.family in ("u3", "xab"):
        extra = p ** spec.k if spec.family == "xab" else 1
        return {"order": q ** 3 * extra, "class": 2, "conjugate_type": [1, q],
                "center_order": q * extra, "derived_order": q, "gamma3_order": 1}
    raise ValueError(f"no expected invariants for family {spec.family!r}")


# -- polynomial arithmetic over GF(p) ---------------------------------------

def _poly_mulmod(a: list, b: list, modulus: list, p: int) -> list:
    """a * b reduced mod the monic modulus, coefficients lowest degree first."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        if c:
            for t in range(m + 1):
                prod[d - m + t] = (prod[d - m + t] - c * modulus[t]) % p
    return (prod + [0] * m)[:m]


def is_irreducible(modulus: list, p: int) -> bool:
    """Whether no monic polynomial of degree 1 .. m // 2 divides the monic
    modulus of degree m (trial division; desk-scale p and m)."""
    m = len(modulus) - 1
    if m < 1 or modulus[-1] % p != 1:
        return False
    for d in range(1, m // 2 + 1):
        for code in range(p ** d):
            div = [(code // p ** t) % p for t in range(d)] + [1]
            rem = list(modulus)
            for top in range(m, d - 1, -1):
                c = rem[top] % p
                if c:
                    for t in range(d + 1):
                        rem[top - d + t] = (rem[top - d + t] - c * div[t]) % p
            if not any(r % p for r in rem[:d]):
                return False
    return True


def kappa_words(p: int, m: int, modulus: list) -> list:
    """kappa[i][j] = coordinates of alpha^(i+j) in the power basis, i, j < m."""
    one = [1] + [0] * (m - 1)
    alpha = [0, 1] + [0] * (m - 2) if m > 1 else [0]
    powers = [one]
    for _ in range(2 * m - 2):
        powers.append(_poly_mulmod(powers[-1], alpha, modulus, p))
    return [[powers[i + j] for j in range(m)] for i in range(m)]


# -- report checks -----------------------------------------------------------

def check_summary(summary: dict, spec: Spec, where: str = "") -> list:
    problems = []
    for key, want in expected_invariants(spec).items():
        if summary.get(key) != want:
            problems.append(f"{where}{key} is {summary.get(key)!r}, expected {want!r}")
    modulus = summary.get("field_modulus")
    if not isinstance(modulus, list) or len(modulus) != spec.m + 1 \
            or not is_irreducible(modulus, spec.p):
        problems.append(f"{where}field_modulus {modulus!r} is not a monic irreducible "
                        f"of degree {spec.m} over GF({spec.p})")
    elif spec.modulus is not None and tuple(modulus) != spec.modulus:
        problems.append(f"{where}field_modulus {modulus!r}, asked for {list(spec.modulus)!r}")
    return problems


def check_invariants(rc: int, report: dict, spec: Spec) -> list:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    problems = check_summary(report, spec)
    if report.get("checks") != []:
        problems.append("invariants report carries checks")
    return problems


def check_params(params_doc: dict | None, spec: Spec, modulus: list) -> list:
    """gamma/delta in a params file must be the kappa words of the modulus."""
    if params_doc is None:
        return ["no params file was written"]
    params = params_doc.get("params") or {}
    p, m = spec.p, spec.m
    if params.get("p") != p or params.get("m") != m:
        return [f"params file is for p={params.get('p')}, m={params.get('m')}"]
    kappa = kappa_words(p, m, modulus)
    problems = []
    if params.get("kappa") != kappa:
        problems.append(f"kappa {params.get('kappa')!r}, expected {kappa!r}")
    gamma, delta = params.get("gamma"), params.get("delta")
    for i in range(m):
        for j in range(m):
            word = kappa[i][j]
            try:
                g, d = gamma[i][j], delta[i][j]
            except (TypeError, IndexError):
                return problems + [f"gamma/delta lack entry ({i}, {j})"]
            if g != word + [0] * m:
                problems.append(f"gamma[{i}][{j}] = {g!r}, expected {word + [0] * m!r}")
            if d != [0] * m + word:
                problems.append(f"delta[{i}][{j}] = {d!r}, expected {[0] * m + word!r}")
    return problems


def check_verify(rc: int, report: dict, spec: Spec, params_doc: dict | None) -> list:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    problems = check_summary(report, spec)
    checks = report.get("checks") or []
    for suite in SUITES:
        mine = [c for c in checks if c.get("name", "").startswith(suite + ":")]
        if not mine:
            problems.append(f"suite {suite} reported no checks")
        for c in mine:
            if c.get("passed") is not True or c["name"].endswith(":skipped"):
                problems.append(f"check {c['name']} did not pass")
    if not problems:
        problems += check_params(params_doc, spec, report["field_modulus"])
    return problems


def _is_permutation(xs, n: int) -> bool:
    return isinstance(xs, list) and sorted(xs) == list(range(n))


def _distinct_ints(xs, n: int) -> bool:
    return (isinstance(xs, list) and len(xs) == n and len(set(xs)) == n
            and all(isinstance(x, int) and x >= 0 for x in xs))


def check_witness(witness: dict | None, inv_a: dict, inv_b: dict) -> list:
    """Shape of an isoclinism witness between groups with these invariants."""
    if not isinstance(witness, dict):
        return ["isoclinic outcome without a witness"]
    problems = []
    quot = inv_a["order"] // inv_a["center_order"]
    if not _is_permutation(witness.get("phi"), quot):
        problems.append(f"phi is not a permutation of range({quot})")
    for key in ("theta_src", "theta_dst"):
        if not _distinct_ints(witness.get(key), inv_a["derived_order"]):
            problems.append(f"{key} does not hold {inv_a['derived_order']} distinct members")
    if inv_a["conjugate_type"] != inv_b["conjugate_type"]:
        problems.append("isoclinic groups with different conjugate types")
    return problems


def check_isoclinic(rc: int, report: dict, spec_a: Spec, spec_b: Spec, expect: str) -> list:
    """A decision of `pgf isoclinic`; expect is 'isoclinic' or 'refuted'."""
    checks = report.get("checks") or []
    if not checks or checks[0].get("name") != "isoclinic":
        return ["no isoclinic check in the report"]
    info = checks[0].get("witness") or {}
    outcome = info.get("outcome")
    if outcome != expect:
        return [f"outcome {outcome!r} (exit {rc}), expected {expect!r}"]
    inv_a, inv_b = expected_invariants(spec_a), expected_invariants(spec_b)
    problems = check_summary(report, spec_a, "a.")
    problems += check_summary(info.get("partner_summary") or {}, spec_b, "b.")
    if expect == "refuted":
        if rc != 1:
            problems.append(f"exit code {rc}, expected 1")
        qa = inv_a["order"] // inv_a["center_order"]
        qb = inv_b["order"] // inv_b["center_order"]
        if qa == qb:
            raise ValueError("refutation expected between equal central quotient orders")
        if f"{qa} vs {qb}" not in (info.get("reason") or ""):
            problems.append(f"refutation reason {info.get('reason')!r} does not name "
                            f"the central quotient orders {qa} vs {qb}")
        return problems
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    problems += check_witness(info.get("witness"), inv_a, inv_b)
    for c in checks[1:]:
        if c.get("passed") is not True:
            problems.append(f"check {c.get('name')} did not pass")
    if {c.get("name") for c in checks[1:]} != {"witness_reverifies", "conjugate_types_agree"}:
        problems.append("witness re-verification checks missing")
    return problems


def check_identities(report: dict, order: int, exhaustive: bool, samples: int) -> list:
    """Every class-3 identity passes, on every tuple the mode promises."""
    problems = []
    for name in IDENTITIES:
        entry = report.get(name) or {}
        if entry.get("passed") is not True or entry.get("counterexample") is not None:
            problems.append(f"identity {name} failed: {entry.get('counterexample')!r}")
    triples = order ** 3 if exhaustive else samples
    pairs = order ** 2 if exhaustive else samples
    for name, want in (("product_expansion", triples), ("power_commutator_collapse", triples),
                       ("power_expansion", pairs)):
        got = (report.get(name) or {}).get("checked")
        if got != want:
            problems.append(f"{name}.checked is {got!r}, expected {want}")
    return problems


def classify_search(result: dict, inv_a: dict, inv_b: dict) -> tuple[str, list]:
    """An in-process are_isoclinic answer between isoclinic groups.

    Returns ('ok', []) for a well-formed witness, ('failed', []) for an
    inconclusive search, and ('wrong', problems) otherwise: refuting an
    isoclinic pair is a wrong answer.
    """
    outcome = result.get("outcome")
    if outcome == "inconclusive":
        return "failed", []
    if outcome == "isoclinic":
        problems = check_witness(result.get("witness"), inv_a, inv_b)
        return ("wrong", problems) if problems else ("ok", [])
    return "wrong", [f"outcome {outcome!r} for an isoclinic pair"]


def load_params(workdir: Path, spec_text: str) -> dict | None:
    path = workdir / f"params-{slug(spec_text)}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())
