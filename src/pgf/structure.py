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

from .engine import FiniteGroup, GroupError, Subgroup, sorted_unique
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
        powers = _power_table(group, self.basis, p - 1)
        elems = np.array([group.identity], dtype=np.int64)
        coords = np.zeros((1, 0), dtype=np.int64)
        for k in range(len(self.basis)):
            elems = group.mul_many(elems[:, None], powers[None, :, k]).ravel()
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

    def contains_many(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        return self._elems[np.minimum(np.searchsorted(self._elems, idx), len(self._elems) - 1)] == idx

    def log_many(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        bad = ~self.contains_many(idx)
        if np.any(bad):
            i = int(idx[np.nonzero(bad)[0][0]] if idx.ndim else idx)
            raise TheoremViolation(
                f"element {i} lies outside the span of the basis")
        return self._coords[np.searchsorted(self._elems, idx)]


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
    basis h_1..h_m of G' over Z, are independent in Z.  [h, xw] = [h, x]
    for central w, so the brackets are read once per coset of Z, on the
    leaders of G/Z, and the verdict is spread over each coset.
    """
    return g.remember("breadth_mask", lambda: _build_breadth_mask(g))


def _build_breadth_mask(g: FiniteGroup) -> np.ndarray:
    p, z, der = g.prime, g.center(), g.derived_subgroup()
    zb = ElemAbelianBasis(g, g.basis(z.members))
    hb = g.basis(der.members, floor=z.members)
    quotient = g.central_quotient().backend
    leaders = quotient.leaders
    vecs = [zb.log_many(g.commutator_many(h, leaders)) for h in hb]
    dependent = np.zeros(len(leaders), dtype=bool)
    for coeffs in itertools.product(range(p), repeat=len(hb)):
        if not any(coeffs):
            continue
        comb = np.zeros((len(leaders), zb.dim), dtype=np.int64)
        for c, v in zip(coeffs, vecs):
            comb += c * v
        dependent |= ~np.any(comb % p, axis=1)
    mask = ~dependent[quotient.coset_of]
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
    # the profile puts Z inside G', which sits inside the Frattini subgroup,
    # so the family generates G exactly when its cosets generate G/Z
    checks["breadth_family_generates"] = {
        "passed": bool(len(b_idx)) and len(qz.closure_members(qz.backend.coset_of[b_idx])) == qz.order,
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
        # |AB| = |A||B| / |A n B| for subgroups A and B
        if not np.array_equal(inter, qcen.members) or a.order * b.order // len(inter) != qz.order:
            pair_ok = False
            break
    checks["quotient_centralizer_pairs"] = {
        "passed": pair_ok,
        "pairs_checked": len(cents) * (len(cents) - 1) // 2,
    }

    inferred = {"p": int(p), "m": int(m), "order": int(n)}
    return CheckReport("class3-square-structure", checks, inferred)


def _distinct_noncentral_centralizers(g: FiniteGroup) -> list:
    """Distinct C(x) over noncentral x, in order of first x: the walk skips
    only elements with the centralizer of an earlier one."""
    seen: dict = {}
    for _, c, _ in _centralizer_walk(g):
        seen.setdefault(c.members.tobytes(), c)
    return list(seen.values())


def _centralizer_walk(g: FiniteGroup):
    """(x, C(x), whether C(x) is abelian) for noncentral x in index order.

    An element y of an abelian C = C(x) with |C_G(y)| = |C| has C_G(y) = C
    (C commutes with y, so C <= C_G(y)), so all such y are skipped.
    """
    corders = g.order // g.class_size_of()
    alive = ~g.center().membership_mask()
    while np.any(alive):
        x = int(np.argmax(alive))
        c = g.centralizer(x)
        abelian = c.is_abelian()
        yield x, c, abelian
        if abelian:
            alive[c.members[corders[c.members] == c.order]] = False
        alive[x] = False


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
    """Least non-central element with a non-abelian centralizer, or None:
    the walk settles only the members of abelian centralizers."""
    return next((x for x, _, abelian in _centralizer_walk(g) if not abelian), None)


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
        """Check every frame invariant; raise GroupError on the first failure
        (the brackets come from one commutator_many call)."""
        g = self.group
        m = self.m
        rels = []  # (a, b, the value [a, b] must take, the failure message)
        for i in range(m):
            rels += [(self.x[0], self.y[i], self.h[i], f"[x1, y{i + 1}] is not h{i + 1}"),
                     (self.h[0], self.x[i], self.z[i], f"[h1, x{i + 1}] is not z{i + 1}"),
                     (self.h[0], self.y[i], self.z[m + i], f"[h1, y{i + 1}] is not z{m + i + 1}")]
        for j in range(1, m):
            rels += [(self.x[0], self.x[j], g.identity, f"x1 does not commute with x{j + 1}"),
                     (self.y[0], self.y[j], g.identity, f"y1 does not commute with y{j + 1}")]
        a, b, want, messages = zip(*rels)
        bad = np.flatnonzero(g.commutator_many(a, b) != np.asarray(want))
        if len(bad):
            raise GroupError(messages[bad[0]])
        zspan = g.closure_members(list(self.z))
        if not np.array_equal(zspan, g.center().members):
            raise GroupError("z entries do not form a basis of the center")
        hz = g.closure_members(list(self.h) + list(self.z))
        if not np.array_equal(hz, g.derived_subgroup().members):
            raise GroupError("h entries do not span the derived subgroup over the center")
        # the checks above prove Z = <z> <= <h, z> = G', and G' sits inside
        # the Frattini subgroup of a p-group, so x and y generate G exactly
        # when their cosets generate G/Z
        qz = g.central_quotient()
        if len(qz.closure_members(qz.backend.coset_of[list(self.x + self.y)])) != qz.order:
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
    hs = g.commutator_many(xs[0], ys[:m]).tolist()
    zs = g.commutator_many(hs[0], xs[:m] + ys[:m]).tolist()
    frame = GeneratorFrame(g, tuple(xs), tuple(ys), tuple(hs), tuple(zs))
    frame.validate()
    return frame


def central_shift_frame(g: FiniteGroup, frame: GeneratorFrame) -> GeneratorFrame:
    """A distinct valid frame: each x_i and y_i times the central z_1.

    Central shifts leave every bracket unchanged, so h and z carry over
    verbatim.  On the class-3 profile Z is elementary abelian, so
    (x z_1)^p = x^p z_1^p = x^p and no relation moves either: the frame
    names other elements that satisfy the same presentation, and the
    parameters read off it must agree with those of frame, epsilon and nu
    included.
    """
    shift = g.mul_many(frame.x + frame.y, frame.z[0]).tolist()
    shifted = GeneratorFrame(g, tuple(shift[:frame.m]), tuple(shift[frame.m:]), frame.h, frame.z)
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
    c1 = g.centralizer(x1).members
    xs = _centralizer_picks(g, x1, c1, m, z)
    # G' is normal, so C(x1)G' is the subgroup their members generate
    reach = g.closure_members(np.concatenate([c1, der.members]))
    out = np.setdiff1d(np.arange(g.order, dtype=np.int64), reach, assume_unique=True)
    if not len(out):
        raise TheoremViolation(
            "the seed centralizer and the derived subgroup exhaust the group")
    y1 = int(out[0])
    ys = _centralizer_picks(g, y1, g.centralizer(y1).members, m, z)
    return _commuting_corrections(g, xs), _commuting_corrections(g, ys)


def _centralizer_picks(g: FiniteGroup, seed: int, cent, m: int, z: Subgroup) -> list:
    """seed plus m-1 members of its centralizer cent independent over the center."""
    floor = np.append(z.members, seed)
    picks = [seed] + g.basis(cent, floor=floor)[:m - 1]
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

    def compare(self, other: "PresentationParams") -> dict:
        """Compare everything except epsilon and nu, which legitimately
        depend on the frame."""
        a, b = self.as_dict(), other.as_dict()
        mismatched = [n for n in ("alpha", "beta", "gamma", "delta", "lambda", "mu") if a[n] != b[n]]
        return {"passed": not mismatched, "mismatched": mismatched,
                "epsilon_agrees": a["epsilon"] == b["epsilon"], "nu_agrees": a["nu"] == b["nu"]}

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


def _frame_kappa(g: FiniteGroup, frame: GeneratorFrame) -> KappaTensor:
    """The kappa tensor of g's field, which must have the frame's p and m."""
    if g.field is None or (g.field.m, g.field.p) != (frame.m, g.prime):
        raise GroupError("kappa tensor does not match the group's field parameters")
    return structure_constants(g.field)


def _power_table(g: FiniteGroup, elems, top: int) -> np.ndarray:
    """table[c, k] = elems[k]^c for c = 0..top, one mul_many per row past 1."""
    rows = [np.full(len(elems), g.identity, dtype=np.int64), np.asarray(elems, dtype=np.int64)]
    while len(rows) <= top:
        rows.append(g.mul_many(rows[-1], rows[1]))
    return np.stack(rows[:top + 1])


def _words(g: FiniteGroup, table: np.ndarray, coeffs) -> np.ndarray:
    """prod_k elems[k]^c[k], multiplied in order of k, for each row c of
    coeffs (residues mod p), read off the power table of elems."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    acc = table[coeffs[..., 0], 0]
    for k in range(1, table.shape[1]):
        acc = g.mul_many(acc, table[coeffs[..., k], k])
    return acc


def _zlog(zb: ElemAbelianBasis, vals: np.ndarray, names: list) -> np.ndarray:
    """z-coordinates of vals, or the name of the first one outside their span."""
    inside = zb.contains_many(vals)
    if not inside.all():
        raise TheoremViolation(f"{names[int(np.argmin(inside))]} lies outside the central span")
    return zb.log_many(vals)


def extract_presentation_params(g: FiniteGroup, frame: GeneratorFrame) -> PresentationParams:
    """Solve each presentation relation for its z-exponent vector.

    Brackets among the frame families and the p-th powers of x and y are all
    central; their coordinates in the z-basis are the parameters.  The mixed
    x-y brackets are measured against their kappa-word normal forms, so
    those parameters capture only the central correction.  The brackets come
    from one commutator_many call, read in the order of the names below.
    """
    kappa = _frame_kappa(g, frame)
    m, p = frame.m, g.prime
    zb = ElemAbelianBasis(g, list(frame.z))
    x, y, h = (np.asarray(f, dtype=np.int64) for f in (frame.x, frame.y, frame.h))
    i, j = np.divmod(np.arange(m * m), m)
    words = np.asarray(kappa.entries, dtype=np.int64)[i, j]
    xpow, ypow = _power_table(g, x, p), _power_table(g, y, p)
    left = np.stack([h[i], h[i], x[i], y[i], x[i], x[j], np.full(m * m, x[0]), _words(g, xpow, words)])
    right = np.stack([x[j], y[j], x[j], y[j], y[j], y[i], _words(g, ypow, words), np.full(m * m, y[0])])
    br = g.commutator_many(left, right)
    # lambda and mu: [x_i, y_j] over [x_1, y-word] and [x_j, y_i] over [x-word, y_1]
    corrected = g.mul_many(br[4:6], g.inv_many(br[6:8]))
    vals = np.concatenate([np.stack([*br[:4], *corrected], axis=1).ravel(),
                           np.stack([xpow[p], ypow[p]], axis=1).ravel()])
    kw = " against its kappa word"
    names = [t.format(a=a + 1, b=b + 1) for a, b in zip(i, j) for t in (
        "[h{a}, x{b}]", "[h{a}, y{b}]", "[x{a}, x{b}]", "[y{a}, y{b}]", "[x{a}, y{b}]" + kw,
        "[x{b}, y{a}]" + kw)] + [t.format(a=a + 1) for a in range(m) for t in ("x{a}^p", "y{a}^p")]
    coords = _zlog(zb, vals, names)
    gamma, delta, alpha, beta, lam, mu = coords[:6 * m * m].reshape(m, m, 6, 2 * m).transpose(2, 0, 1, 3)
    epsilon, nu = coords[6 * m * m:].reshape(m, 2, 2 * m).transpose(1, 0, 2)
    return PresentationParams(p=p, m=m, kappa=kappa.as_lists(),
                              alpha=alpha, beta=beta, gamma=gamma, delta=delta,
                              lam=lam, mu=mu, epsilon=epsilon, nu=nu)


def verify_kappa_commutator_relations(g: FiniteGroup, frame: GeneratorFrame) -> dict:
    """Check [h_i, x_j] = [h_j, x_i] = kappa word in z_1..z_m, and the
    y-family twin in z_{m+1}..z_{2m}, for all i, j, read in the order i, j,
    family; checked counts the relations up to the first failure."""
    kappa = _frame_kappa(g, frame)
    m = frame.m
    h, z = np.asarray(frame.h, dtype=np.int64), np.asarray(frame.z, dtype=np.int64)
    gens = np.asarray([frame.x, frame.y], dtype=np.int64).T  # gens[k, family]
    i, j = np.divmod(np.arange(m * m), m)
    words = np.asarray(kappa.entries, dtype=np.int64)[i, j]
    table = _power_table(g, z, g.prime - 1)
    word = np.stack([_words(g, table[:, :m], words), _words(g, table[:, m:], words)], axis=1)
    left, right = g.commutator_many(np.stack([h[i], h[j]])[:, :, None],
                                    np.stack([gens[j], gens[i]]))
    bad = np.flatnonzero(((left != right) | (right != word)).ravel())
    if not len(bad):
        return {"passed": True, "checked": 2 * m * m, "counterexample": None}
    k = int(bad[0])
    (a, b), fam = divmod(k // 2, m), k % 2
    return {"passed": False, "checked": k + 1, "counterexample": {
        "family": "xy"[fam], "i": a + 1, "j": b + 1, "left": int(left.flat[k]),
        "right": int(right.flat[k]), "word": int(word.flat[k])}}
