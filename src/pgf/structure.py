"""Structure checks for class-3 groups of square conjugate type.

The target profile: nilpotency class 3, conjugate type (1, p^(2m)), center
inside the derived subgroup.  Groups with that profile have a rigid shape
(characteristic subgroup orders, elementary abelian slices, a Camina central
quotient); verify_structural_suite certifies the shape piece by piece.  On
top of the profile sit canonical generator frames and the residue parameters
read off a frame, which pin down the group's presentation up to the choices
a frame leaves open.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .engine import CHUNK_PRODUCTS, FiniteGroup, GroupError, Subgroup, sorted_unique
from .fields import KappaTensor, structure_constants
from .constructions import quintuple_generator_indices


class TheoremViolation(GroupError):
    """A structurally guaranteed object or relation failed to materialize."""


@dataclass
class CheckReport:
    """Named boolean verdicts with witnessing data.

    checks maps a check name to a dict holding at least "passed"; the other
    keys are witnesses (orders, indices, counterexamples).  Everything is
    reproducible from the group alone.
    """

    title: str
    checks: dict
    inferred: dict

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def failing(self) -> list:
        return [k for k, c in self.checks.items() if not c["passed"]]

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "inferred": dict(self.inferred),
            "checks": {k: dict(v) for k, v in self.checks.items()},
        }


def _p_exponent(p: int, n: int):
    """e with p^e == n, or None."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e if n == 1 else None


class ElemAbelianBasis:
    """Coordinate map of an elementary abelian subgroup from a basis.

    Enumerates all p^k products of basis powers once; log_many then answers
    exponent rows by table lookup.  Construction fails if the claimed basis
    is dependent (fewer than p^k distinct products).
    """

    def __init__(self, group: FiniteGroup, basis):
        self.group = group
        self.basis = [int(b) for b in basis]
        p = group.prime
        self.p = p
        elems = np.array([group.identity], dtype=np.int64)
        coords = np.zeros((1, 0), dtype=np.int64)
        for b in self.basis:
            powers = np.array([group.power(b, k) for k in range(p)], dtype=np.int64)
            elems = group.mul_many(elems[:, None], powers[None, :]).ravel()
            coords = np.hstack([
                np.repeat(coords, p, axis=0),
                np.tile(np.arange(p, dtype=np.int64), len(coords))[:, None],
            ])
        order = np.argsort(elems, kind="stable")
        self._elems = elems[order]
        self._coords = coords[order]
        if len(sorted_unique(self._elems)) != p ** len(self.basis):
            raise GroupError("basis elements are dependent; their products collide")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def log_many(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._elems, idx), len(self._elems) - 1)
        bad = self._elems[pos] != idx
        if np.any(bad):
            i = int(idx[np.nonzero(bad)[0][0]] if idx.ndim else idx)
            raise TheoremViolation(
                f"element {i} lies outside the span of the basis")
        return self._coords[pos]

    def log(self, i: int) -> np.ndarray:
        return self.log_many(np.array([i], dtype=np.int64))[0]


def verify_class3_profile(g: FiniteGroup) -> CheckReport:
    """Certify class 3, conjugate type (1, p^(2m)), and Z(G) <= G'.

    Failures are verdicts, not exceptions.  inferred carries p and, when the
    conjugate type determines it, the half-exponent m.
    """
    if not g.is_prime_power():
        raise GroupError("profile checks need a p-group")
    checks: dict = {}
    inferred: dict = {"order": int(g.order)}

    try:
        ncl = g.nilpotency_class()
    except GroupError:
        ncl = None
    checks["class_is_3"] = {"passed": ncl == 3, "nilpotency_class": ncl}

    ct = [int(c) for c in g.conjugate_type()] if g.order > 1 else [1]
    m = None
    ok = False
    if g.order > 1:
        p = g.prime
        inferred["p"] = int(p)
        if len(ct) == 2 and ct[0] == 1:
            e = _p_exponent(p, ct[1])
            if e is not None and e >= 2 and e % 2 == 0:
                ok = True
                m = e // 2
    checks["type_is_square"] = {"passed": ok, "conjugate_type": ct}
    if m is not None:
        inferred["m"] = m

    z = g.center()
    der = g.derived_subgroup()
    inside = bool(np.all(der.contains_many(z.members)))
    checks["center_in_derived"] = {
        "passed": inside,
        "center_order": int(z.order),
        "derived_order": int(der.order),
    }
    return CheckReport("class3-square-profile", checks, inferred)


def _derived_centralizer_is_center_mask(g: FiniteGroup) -> np.ndarray:
    """Mask of x with C_{G'}(x) = Z(G), vectorized over the group, built
    once, stored on g and read-only.

    For h in G' the bracket [h, x] lands in gamma_3 = Z and is linear in h
    modulo Z, so C_{G'}(x) = Z exactly when the m vectors [h_i, x], for a
    basis h_1..h_m of G' over Z, are independent in Z.
    """
    return g.remember("breadth_mask", lambda: _build_breadth_mask(g))


def _build_breadth_mask(g: FiniteGroup) -> np.ndarray:
    p, z, der = g.prime, g.center(), g.derived_subgroup()
    zb = ElemAbelianBasis(g, g.basis(z.members))
    hb = g.basis(der.members, floor=z.members)
    n = g.order
    idx = np.arange(n, dtype=np.int64)
    vecs = [zb.log_many(g.commutator_many(np.full(n, h, dtype=np.int64), idx))
            for h in hb]
    dependent = np.zeros(n, dtype=bool)
    for coeffs in itertools.product(range(p), repeat=len(hb)):
        if not any(coeffs):
            continue
        comb = np.zeros((n, zb.dim), dtype=np.int64)
        for c, v in zip(coeffs, vecs):
            comb += c * v
        dependent |= ~np.any(comb % p, axis=1)
    mask = ~dependent
    mask.setflags(write=False)
    return mask


def verify_structural_suite(g: FiniteGroup, profile: CheckReport | None = None) -> CheckReport:
    """Certify the full consequence suite of the class-3 square-type profile.

    Subgroup orders and indices, the center as third lower-central term,
    elementary abelian slices, exponent of the central quotient, the
    generating family of maximal-breadth elements, centralizer slices
    outside the derived subgroup, and the Camina central quotient with its
    partition into elementary abelian centralizers.
    """
    if profile is None:
        profile = verify_class3_profile(g)
    if not profile.passed:
        raise GroupError(
            f"structural suite needs the class-3 square-type profile; failing: {profile.failing()}")
    p = g.prime
    m = profile.inferred["m"]
    n = g.order
    z = g.center()
    der = g.derived_subgroup()
    checks: dict = {}

    checks["order_p5m"] = {"passed": n == p ** (5 * m), "order": n, "expected": p ** (5 * m)}
    checks["derived_index_p2m"] = {
        "passed": n // der.order == p ** (2 * m) and n % der.order == 0,
        "index": n // der.order,
    }
    checks["center_index_in_derived_pm"] = {
        "passed": der.order // z.order == p ** m and der.order % z.order == 0,
        "index": der.order // z.order,
    }
    checks["center_order_p2m"] = {"passed": z.order == p ** (2 * m), "center_order": z.order}
    checks["center_is_gamma3"] = {"passed": z.same_as(g.gamma(3))}
    checks["center_elem_abelian"] = {"passed": z.is_elementary_abelian()}
    checks["derived_elem_abelian"] = {"passed": der.is_elementary_abelian()}

    qz = g.central_quotient()
    checks["central_quotient_exponent_p"] = {
        "passed": qz.exponent() == p,
        "exponent": int(qz.exponent()),
    }

    # maximal-breadth family: everything whose derived centralizer is the center
    if checks["center_is_gamma3"]["passed"] and checks["derived_elem_abelian"]["passed"]:
        b_mask = _derived_centralizer_is_center_mask(g)
    else:
        b_mask = g.centralizer_orders_in(der) == z.order
    b_idx = np.nonzero(b_mask)[0]
    checks["breadth_family_generates"] = {
        "passed": bool(len(b_idx)) and len(g.closure_members(g.basis(b_idx))) == n,
        "family_size": int(len(b_idx)),
    }

    # outside the derived subgroup: C_G(x) meets G' in Z and has order p^{3m}
    corders = n // g.class_size_of()
    outside = ~der.membership_mask()
    slice_ok = bool(np.all(b_mask[outside]))
    order_ok = bool(np.all(corders[outside] == p ** (3 * m)))
    checks["outside_derived_centralizers"] = {
        "passed": slice_ok and order_ok,
        "slice_equals_center": slice_ok,
        "centralizer_order_ok": order_ok,
    }

    qder = qz.derived_subgroup()
    camina = (qder.order not in (1, qz.order)) and qz.camina_check()
    checks["central_quotient_camina_p3m"] = {
        "passed": camina and qz.order == p ** (3 * m),
        "quotient_order": int(qz.order),
        "camina": bool(camina),
    }

    cents = _distinct_noncentral_centralizers(qz)
    qcen = qz.center()
    ea_ok = all(c.order == p ** (2 * m) and c.is_elementary_abelian() for c in cents)
    checks["quotient_centralizers_elem_abelian_p2m"] = {
        "passed": ea_ok,
        "distinct_centralizers": len(cents),
    }
    pair_ok = True
    for a, b in itertools.combinations(cents, 2):
        inter = np.intersect1d(a.members, b.members, assume_unique=True)
        if not np.array_equal(inter, qcen.members):
            pair_ok = False
            break
        prods = sorted_unique(qz.mul_many(a.members[:, None], b.members[None, :]))
        if len(prods) != qz.order:
            pair_ok = False
            break
    checks["quotient_centralizer_pairs"] = {
        "passed": pair_ok,
        "pairs_checked": len(cents) * (len(cents) - 1) // 2,
    }

    inferred = {"p": int(p), "m": int(m), "order": int(n)}
    return CheckReport("class3-square-structure", checks, inferred)


def _distinct_noncentral_centralizers(g: FiniteGroup) -> list:
    """Distinct C(x) over noncentral x, in order of first x, scanned in chunks."""
    idx = np.arange(g.order, dtype=np.int64)
    xs = np.flatnonzero(~g.center().membership_mask())
    step = max(1, CHUNK_PRODUCTS // g.order)
    seen: dict = {}
    for start in range(0, len(xs), step):
        x = xs[start:start + step, None]
        for row in g.mul_many(x, idx) == g.mul_many(idx, x):
            if (key := row.tobytes()) not in seen:
                seen[key] = Subgroup(g, idx[row], check=False)
    return list(seen.values())


@dataclass
class U3Recognition:
    recognized: bool
    q: int | None
    n: int | None
    reason: str | None

    def as_dict(self) -> dict:
        return {"recognized": self.recognized, "q": self.q, "n": self.n,
                "reason": self.reason}


def recognize_u3(g: FiniteGroup) -> U3Recognition:
    """Decide whether g is the 3x3 unitriangular group over a field of p^n elements.

    Recognition is by the abelian-centralizer criterion: a Camina p-group of
    class 2, exponent p, order p^(3n), derived index p^(2n), all of whose
    non-central elements have abelian centralizers, is that group.  The
    first failing criterion becomes the rejection reason.
    """
    if g.order == 1:
        return U3Recognition(False, None, None, "trivial group")
    if not g.is_prime_power():
        return U3Recognition(False, None, None, "order is not a prime power")
    p = g.prime
    try:
        ncl = g.nilpotency_class()
    except GroupError:
        return U3Recognition(False, None, None, "not nilpotent")
    if ncl != 2:
        return U3Recognition(False, None, None, f"nilpotency class {ncl}, need 2")
    if g.exponent() != p:
        return U3Recognition(False, None, None, f"exponent {g.exponent()}, need {p}")
    e = _p_exponent(p, g.order)
    if e % 3 != 0:
        return U3Recognition(False, None, None, f"order p^{e} is not a cube")
    n3 = e // 3
    der = g.derived_subgroup()
    if g.order // der.order != p ** (2 * n3):
        return U3Recognition(
            False, None, None,
            f"derived index p^{_p_exponent(p, g.order // der.order)}, need p^{2 * n3}")
    if not g.camina_check():
        return U3Recognition(False, None, None, "a class outside the derived subgroup is not a full coset")
    bad = _first_nonabelian_centralizer(g)
    if bad is not None:
        return U3Recognition(False, None, None, f"non-abelian centralizer at element {bad}")
    return U3Recognition(True, p ** n3, n3, None)


def _first_nonabelian_centralizer(g: FiniteGroup):
    """Least non-central element with a non-abelian centralizer, or None.

    Scans centralizers; an element y of an abelian centralizer C with
    |C_G(y)| = |C| has C_G(y) = C (C commutes with y, so C <= C_G(y)), so
    the whole of C settles in one step when centralizer orders agree.
    """
    corders = g.order // g.class_size_of()
    alive = ~g.center().membership_mask()
    while np.any(alive):
        x = int(np.nonzero(alive)[0][0])
        c = g.centralizer(x)
        if not c.is_abelian():
            return x
        mem = c.members
        settled = mem[corders[mem] == c.order]
        alive[settled] = False
        alive[x] = False
    return None


def find_central_correction(g: FiniteGroup, u: int, v: int) -> int:
    """Smallest-index h in G' with [u, v*h] = 1.

    In a group with the class-3 square-type profile such an h exists for any
    u, v outside G' whose bracket is central; a missing correction is
    therefore reported as a TheoremViolation.
    """
    der = g.derived_subgroup()
    if der.contains(u) or der.contains(v):
        raise GroupError("correction needs both elements outside the derived subgroup")
    if not g.center().contains(g.commutator(u, v)):
        raise GroupError("correction needs a central bracket")
    cand = g.mul_many(v, der.members)
    comm = g.commutator_many(np.full(len(cand), u, dtype=np.int64), cand)
    hits = np.nonzero(comm == g.identity)[0]
    if not len(hits):
        raise TheoremViolation(
            f"no h in the derived subgroup makes [{u}, {v}*h] trivial")
    return int(der.members[hits[0]])


@dataclass(frozen=True)
class GeneratorFrame:
    """Canonical generators x, y (m each), h (m), z (2m) by element index.

    Normalizations tie the families together: h_i = [x_1, y_i],
    z_i = [h_1, x_i], z_{m+i} = [h_1, y_i], and x_1 (resp. y_1) commutes
    with the later x's (resp. y's).  The x, y images generate the group
    modulo the derived subgroup, h spans the derived subgroup over the
    center, and z is a basis of the center.
    """

    group: FiniteGroup
    x: tuple
    y: tuple
    h: tuple
    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(int(i) for i in self.x))
        object.__setattr__(self, "y", tuple(int(i) for i in self.y))
        object.__setattr__(self, "h", tuple(int(i) for i in self.h))
        object.__setattr__(self, "z", tuple(int(i) for i in self.z))
        m = len(self.x)
        if not (len(self.y) == m and len(self.h) == m and len(self.z) == 2 * m and m >= 1):
            raise GroupError("frame needs m x's, m y's, m h's and 2m z's")

    @property
    def m(self) -> int:
        return len(self.x)

    def validate(self) -> None:
        """Check every frame invariant; raise GroupError on the first failure."""
        g = self.group
        m = self.m
        for i in range(m):
            if g.commutator(self.x[0], self.y[i]) != self.h[i]:
                raise GroupError(f"[x1, y{i + 1}] is not h{i + 1}")
            if g.commutator(self.h[0], self.x[i]) != self.z[i]:
                raise GroupError(f"[h1, x{i + 1}] is not z{i + 1}")
            if g.commutator(self.h[0], self.y[i]) != self.z[m + i]:
                raise GroupError(f"[h1, y{i + 1}] is not z{m + i + 1}")
        for j in range(1, m):
            if g.commutator(self.x[0], self.x[j]) != g.identity:
                raise GroupError(f"x1 does not commute with x{j + 1}")
            if g.commutator(self.y[0], self.y[j]) != g.identity:
                raise GroupError(f"y1 does not commute with y{j + 1}")
        zspan = g.closure_members(list(self.z))
        if not np.array_equal(zspan, g.center().members):
            raise GroupError("z entries do not form a basis of the center")
        hz = g.closure_members(list(self.h) + list(self.z))
        if not np.array_equal(hz, g.derived_subgroup().members):
            raise GroupError("h entries do not span the derived subgroup over the center")
        # G' sits inside the Frattini subgroup of a p-group, so generating
        # modulo G' is the same as generating outright
        if len(g.closure_members(list(self.x) + list(self.y))) != g.order:
            raise GroupError("x and y entries do not generate the group modulo the derived subgroup")


def lift_generator_frame(g: FiniteGroup, strategy: str = "coordinate",
                         profile: CheckReport | None = None) -> GeneratorFrame:
    """Build a validated generator frame on a class-3 square-type group.

    coordinate: reads x and y off the five-coordinate layout (quint and hmod
    kinds).  generic: takes the first element whose derived-subgroup
    centralizer is exactly the center as x_1, grows x_2..x_m out of its
    centralizer in index order keeping them independent over the center,
    picks y_1 as the first element outside C(x_1)G', grows the y's the same
    way, then applies central corrections so the leading generator commutes
    with the rest.  Both strategies finish with h_i = [x_1, y_i],
    z_i = [h_1, x_i], z_{m+i} = [h_1, y_i] and full validation.
    """
    if profile is None:
        profile = verify_class3_profile(g)
    if not profile.passed:
        raise GroupError(
            f"frame lifting needs the class-3 square-type profile; failing: {profile.failing()}")
    m = profile.inferred["m"]
    if strategy == "coordinate":
        named = quintuple_generator_indices(g)
        xs, ys = list(named["x"]), list(named["y"])
    elif strategy == "generic":
        xs, ys = _generic_frame_xy(g, m)
    else:
        raise GroupError(f"unknown frame strategy: {strategy!r}")
    hs = [g.commutator(xs[0], ys[i]) for i in range(m)]
    zs = ([g.commutator(hs[0], xs[i]) for i in range(m)]
          + [g.commutator(hs[0], ys[i]) for i in range(m)])
    frame = GeneratorFrame(g, tuple(xs), tuple(ys), tuple(hs), tuple(zs))
    frame.validate()
    return frame


def central_shift_frame(g: FiniteGroup, frame: GeneratorFrame,
                        seed: int = 0) -> GeneratorFrame:
    """A distinct valid frame: each x_i and y_i times a central element.

    Central shifts leave every bracket unchanged, so h and z carry over
    verbatim; only the power relations can move.  The leading x is forced
    off its original value so the result never collapses back onto the
    input frame.
    """
    rng = np.random.default_rng(seed)
    z = g.center()

    def shift(idx: int) -> int:
        return g.mul(int(idx), int(z.members[rng.integers(z.order)]))

    xs = [shift(v) for v in frame.x]
    ys = [shift(v) for v in frame.y]
    if tuple(xs) == tuple(frame.x) and tuple(ys) == tuple(frame.y):
        xs[0] = g.mul(int(frame.x[0]), int(z.members[1]))
    shifted = GeneratorFrame(g, tuple(xs), tuple(ys), frame.h, frame.z)
    shifted.validate()
    return shifted


def _generic_frame_xy(g: FiniteGroup, m: int):
    z = g.center()
    der = g.derived_subgroup()
    b_mask = _derived_centralizer_is_center_mask(g)
    seeds = np.nonzero(b_mask)[0]
    if not len(seeds):
        raise TheoremViolation("no element has derived centralizer equal to the center")
    x1 = int(seeds[0])
    xs = _centralizer_picks(g, x1, m, z)
    # G' is normal, so C(x1)G' is the subgroup the two bases span
    reach = g.closure_members(g.basis(g.centralizer(x1).members) + g.basis(der.members))
    out = np.setdiff1d(np.arange(g.order, dtype=np.int64), reach, assume_unique=True)
    if not len(out):
        raise TheoremViolation(
            "the seed centralizer and the derived subgroup exhaust the group")
    y1 = int(out[0])
    ys = _centralizer_picks(g, y1, m, z)
    return _commuting_corrections(g, xs), _commuting_corrections(g, ys)


def _centralizer_picks(g: FiniteGroup, seed: int, m: int, z: Subgroup) -> list:
    """seed plus m-1 centralizer members independent over the center."""
    floor = np.append(z.members, seed)
    picks = [seed] + g.basis(g.centralizer(seed).members, floor=floor)[:m - 1]
    if len(picks) < m:
        raise TheoremViolation("the seed centralizer cannot carry the frame")
    return picks


def _commuting_corrections(g: FiniteGroup, picks: list) -> list:
    """Central corrections making the leading pick commute with the rest."""
    out = [picks[0]]
    for v in picks[1:]:
        if g.commutator(picks[0], v) != g.identity:
            v = g.mul(v, find_central_correction(g, picks[0], v))
        out.append(int(v))
    return out


@dataclass(eq=False)
class PresentationParams:
    """Residue parameters of the canonical presentation read off a frame.

    alpha, beta, gamma, delta, lam, mu have shape (m, m, 2m); epsilon and nu
    have shape (m, 2m).  All entries are residues mod p.  gamma and delta
    are pinned to the kappa tensor and alpha (resp. beta) is supported on
    the first (resp. last) m z-coordinates; both facts are enforced here
    because the structure guarantees them.
    """

    p: int
    m: int
    kappa: list
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    epsilon: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        p, m = self.p, self.m
        for name in ("alpha", "beta", "gamma", "delta", "lam", "mu"):
            a = np.asarray(getattr(self, name), dtype=np.int64)
            setattr(self, name, a)
            if a.shape != (m, m, 2 * m):
                raise GroupError(f"{name} must have shape (m, m, 2m)")
            if np.any(a < 0) or np.any(a >= p):
                raise GroupError(f"{name} entries must be residues mod {p}")
        for name in ("epsilon", "nu"):
            a = np.asarray(getattr(self, name), dtype=np.int64)
            setattr(self, name, a)
            if a.shape != (m, 2 * m):
                raise GroupError(f"{name} must have shape (m, 2m)")
            if np.any(a < 0) or np.any(a >= p):
                raise GroupError(f"{name} entries must be residues mod {p}")
        for i in range(m):
            for j in range(m):
                kword = list(self.kappa[i][j]) + [0] * m
                if self.gamma[i, j].tolist() != kword:
                    raise TheoremViolation(
                        f"gamma[{i}][{j}] = {self.gamma[i, j].tolist()} is not the kappa word {kword}")
                dword = [0] * m + list(self.kappa[i][j])
                if self.delta[i, j].tolist() != dword:
                    raise TheoremViolation(
                        f"delta[{i}][{j}] = {self.delta[i, j].tolist()} is not the kappa word {dword}")
                if np.any(self.alpha[i, j, m:]):
                    raise TheoremViolation(
                        f"alpha[{i}][{j}] = {self.alpha[i, j].tolist()} leaves the first m z-coordinates")
                if np.any(self.beta[i, j, :m]):
                    raise TheoremViolation(
                        f"beta[{i}][{j}] = {self.beta[i, j].tolist()} leaves the last m z-coordinates")

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "kappa": [[list(map(int, c)) for c in row] for row in self.kappa],
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
            "gamma": self.gamma.tolist(),
            "delta": self.delta.tolist(),
            "lambda": self.lam.tolist(),
            "mu": self.mu.tolist(),
            "epsilon": self.epsilon.tolist(),
            "nu": self.nu.tolist(),
        }


def _group_kappa(g: FiniteGroup, kappa) -> KappaTensor:
    if kappa is None:
        if g.field is None:
            raise GroupError("no field on the group; pass the kappa tensor explicitly")
        kappa = structure_constants(g.field)
    return kappa


def _word(g: FiniteGroup, elems, coeffs) -> int:
    acc = g.identity
    for e, c in zip(elems, coeffs):
        acc = g.mul(acc, g.power(int(e), int(c)))
    return acc


def _zlog(zb: ElemAbelianBasis, idx: int, what: str) -> np.ndarray:
    try:
        return zb.log(idx)
    except TheoremViolation:
        raise TheoremViolation(f"{what} lies outside the central span") from None


def extract_presentation_params(g: FiniteGroup, frame: GeneratorFrame,
                                kappa: KappaTensor | None = None) -> PresentationParams:
    """Solve each presentation relation for its z-exponent vector.

    Brackets among the frame families and the p-th powers of x and y are all
    central; their coordinates in the z-basis are the parameters.  The mixed
    x-y brackets are measured against their kappa-word normal forms, so
    those parameters capture only the central correction.
    """
    kappa = _group_kappa(g, kappa)
    m = frame.m
    p = g.prime
    if kappa.spec.m != m or kappa.spec.p != p:
        raise GroupError("kappa tensor does not match the group's field parameters")
    zb = ElemAbelianBasis(g, list(frame.z))
    shape = (m, m, 2 * m)
    alpha = np.zeros(shape, dtype=np.int64)
    beta = np.zeros(shape, dtype=np.int64)
    gamma = np.zeros(shape, dtype=np.int64)
    delta = np.zeros(shape, dtype=np.int64)
    lam = np.zeros(shape, dtype=np.int64)
    mu = np.zeros(shape, dtype=np.int64)
    epsilon = np.zeros((m, 2 * m), dtype=np.int64)
    nu = np.zeros((m, 2 * m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            gamma[i, j] = _zlog(zb, g.commutator(frame.h[i], frame.x[j]),
                                f"[h{i + 1}, x{j + 1}]")
            delta[i, j] = _zlog(zb, g.commutator(frame.h[i], frame.y[j]),
                                f"[h{i + 1}, y{j + 1}]")
            alpha[i, j] = _zlog(zb, g.commutator(frame.x[i], frame.x[j]),
                                f"[x{i + 1}, x{j + 1}]")
            beta[i, j] = _zlog(zb, g.commutator(frame.y[i], frame.y[j]),
                               f"[y{i + 1}, y{j + 1}]")
            yword = _word(g, frame.y, kappa[i, j])
            lam[i, j] = _zlog(
                zb,
                g.mul(g.commutator(frame.x[i], frame.y[j]),
                      g.inv(g.commutator(frame.x[0], yword))),
                f"[x{i + 1}, y{j + 1}] against its kappa word")
            xword = _word(g, frame.x, kappa[i, j])
            mu[i, j] = _zlog(
                zb,
                g.mul(g.commutator(frame.x[j], frame.y[i]),
                      g.inv(g.commutator(xword, frame.y[0]))),
                f"[x{j + 1}, y{i + 1}] against its kappa word")
    for i in range(m):
        epsilon[i] = _zlog(zb, g.power(frame.x[i], p), f"x{i + 1}^p")
        nu[i] = _zlog(zb, g.power(frame.y[i], p), f"y{i + 1}^p")
    return PresentationParams(p=p, m=m, kappa=kappa.as_lists(),
                              alpha=alpha, beta=beta, gamma=gamma, delta=delta,
                              lam=lam, mu=mu, epsilon=epsilon, nu=nu)


def verify_kappa_commutator_relations(g: FiniteGroup, frame: GeneratorFrame,
                                      kappa: KappaTensor | None = None) -> dict:
    """Check [h_i, x_j] = [h_j, x_i] = kappa word in z_1..z_m, and the
    y-family twin in z_{m+1}..z_{2m}, for all i, j."""
    kappa = _group_kappa(g, kappa)
    m = frame.m
    checked = 0
    for i in range(m):
        for j in range(m):
            for fam, zslice in (("x", frame.z[:m]), ("y", frame.z[m:])):
                gens = frame.x if fam == "x" else frame.y
                left = g.commutator(frame.h[i], gens[j])
                right = g.commutator(frame.h[j], gens[i])
                word = _word(g, zslice, kappa[i, j])
                checked += 1
                if not (left == right == word):
                    return {
                        "passed": False,
                        "checked": checked,
                        "counterexample": {"family": fam, "i": i + 1, "j": j + 1,
                                           "left": int(left), "right": int(right),
                                           "word": int(word)},
                    }
    return {"passed": True, "checked": checked, "counterexample": None}


def verify_frame_independence(g: FiniteGroup, frame_a: GeneratorFrame,
                              frame_b: GeneratorFrame,
                              kappa: KappaTensor | None = None) -> dict:
    """Extract parameters from both frames and compare everything except
    epsilon and nu, which legitimately depend on the frame."""
    kappa = _group_kappa(g, kappa)
    pa = extract_presentation_params(g, frame_a, kappa)
    pb = extract_presentation_params(g, frame_b, kappa)
    mismatched = [
        name for name, attr in (("alpha", "alpha"), ("beta", "beta"),
                                ("gamma", "gamma"), ("delta", "delta"),
                                ("lambda", "lam"), ("mu", "mu"))
        if not np.array_equal(getattr(pa, attr), getattr(pb, attr))
    ]
    return {
        "passed": not mismatched,
        "mismatched": mismatched,
        "epsilon_agrees": bool(np.array_equal(pa.epsilon, pb.epsilon)),
        "nu_agrees": bool(np.array_equal(pa.nu, pb.nu)),
    }
