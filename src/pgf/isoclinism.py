"""Isoclinism in the sense of P. Hall, with explicit verifiable witnesses.

The commutation map of a group descends to its central quotient; two groups
are isoclinic when an isomorphism pair (phi on the central quotients, theta
on the derived subgroups) makes the two commutation maps commute.  A map is
stored as the brackets of every coset with the generators of G/Z, and the
square is proved on those edges.  The decision procedures search phi by
backtracking over generator images; theta is never searched, it is forced
by phi through the square on a basis of the derived subgroup, and
verify_isoclinism_witness judges the whole witness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .engine import CapExceeded, FiniteGroup, GroupError, Subgroup, is_homomorphism, sorted_unique

SEARCH_CAP = 729


@dataclass(frozen=True)
class SearchConfig:
    """Budgets for the backtracking searches."""

    max_nodes: int = 10 ** 6
    time_limit: float = 120.0

    def __post_init__(self):
        if self.max_nodes <= 0 or self.time_limit <= 0:
            raise GroupError("search budgets must be positive")


class _BudgetExceeded(Exception):
    pass


class _Budget:
    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        self.nodes = 0
        self.deadline = time.perf_counter() + cfg.time_limit
        self.fired: str | None = None    # the budget that stopped the search

    def tick(self):
        self.nodes += 1
        if self.nodes > self.cfg.max_nodes:
            self.fired = f"node budget of {self.cfg.max_nodes} exhausted"
        elif time.perf_counter() > self.deadline:
            self.fired = f"time budget of {self.cfg.time_limit:g} s exhausted"
        if self.fired:
            raise _BudgetExceeded


@dataclass(frozen=True)
class CommutationMap:
    """The bracket over the central quotient, on generator columns.

    gens = _search_generators(quotient) generate G/Z, and columns[i, k] is
    the parent element index of [x, s] for any representatives x, s of
    cosets i and gens[k]; independence of the choice is proved on
    construction.  basis holds the least-index column values that generate
    G', positions one flat column position of each, so
    columns.flat[positions] == basis.
    """

    quotient: FiniteGroup
    derived: Subgroup
    gens: np.ndarray
    columns: np.ndarray
    basis: np.ndarray
    positions: np.ndarray


def commutation_map(g: FiniteGroup) -> CommutationMap:
    """The bracket of coset leaders of the central quotient with its
    generators, built once and stored on g; its columns are read-only."""
    return g.remember("commutation_map", lambda: _build_commutation_map(g))


def _build_commutation_map(g: FiniteGroup) -> CommutationMap:
    # [xz, yw] = [x, y] for central z, w, while z in Z not commuting with x
    # gives [z, x] != [e, x]; so the bracket is well defined on the cosets
    # of Z exactly when a basis of Z commutes with every generator of g
    zb = np.asarray(g.basis(g.center().members), dtype=np.int64)
    gens = np.asarray(g.nontrivial_generators, dtype=np.int64)
    bad = np.argwhere(g.mul_many(zb[:, None], gens[None, :]) != g.mul_many(gens[None, :], zb[:, None]))
    if len(bad):
        k, s = bad[0]
        raise GroupError(f"bracket table is not well defined: center element {zb[k]} "
                         f"does not commute with generator {gens[s]}")
    qz = g.central_quotient()
    leaders = qz.backend.leaders
    qgens = np.asarray(_search_generators(qz), dtype=np.int64)
    columns = g.commutator_many(leaders[:, None], leaders[qgens][None, :])
    der = g.derived_subgroup()
    values = sorted_unique(columns)
    if not bool(np.all(der.contains_many(values))):
        raise GroupError("bracket table leaves the derived subgroup")
    # the [x, s] generate a normal subgroup N ([x, s]^y = [xy, s][y, s]^-1),
    # and G/N is abelian (Z and the s generate G and are central mod N), so
    # the values generate G'
    basis = np.asarray(g.basis(values), dtype=np.int64)
    flat = columns.ravel()
    positions = np.array([int(np.argmax(flat == b)) for b in basis], dtype=np.int64)
    columns.setflags(write=False)
    return CommutationMap(qz, der, qgens, columns, basis, positions)


def _fingerprints(g: FiniteGroup) -> np.ndarray:
    """(order, class size) per element, stacked as columns."""
    return np.stack([g.element_orders(), g.class_size_of()], axis=1)


def _single_valued(src: np.ndarray, dst: np.ndarray):
    """The pairs src[k] -> dst[k] as a map (sorted distinct sources and
    their images), or None when one source carries two images."""
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    starts = np.nonzero(np.r_[True, src[1:] != src[:-1]])[0]
    if np.any(np.maximum.reduceat(dst, starts) != np.minimum.reduceat(dst, starts)):
        return None
    return src[starts], dst[starts]


def _induced_map(a: FiniteGroup, b: FiniteGroup, srcs, imgs):
    """Homomorphism <srcs> -> b extending srcs[i] -> imgs[i], or None.

    Grows the closure of the assigned generators, propagating images along
    products; any conflict kills the assignment.
    """
    amap = np.full(a.order, -1, dtype=np.int64)
    amap[a.identity] = b.identity
    for s, i in zip(srcs, imgs):
        if amap[s] != -1 and amap[s] != i:
            return None
        amap[s] = i
    srcs_arr = np.asarray(srcs, dtype=np.int64)
    imgs_arr = np.asarray(imgs, dtype=np.int64)
    frontier = sorted_unique(np.concatenate([[a.identity], srcs_arr]))
    while len(frontier) and len(srcs_arr):
        pairs = _single_valued(a.mul_many(frontier[:, None], srcs_arr[None, :]).ravel(),
                               b.mul_many(amap[frontier][:, None], imgs_arr[None, :]).ravel())
        if pairs is None:
            return None
        new_src, new_img = pairs
        known = amap[new_src] != -1
        if np.any(amap[new_src[known]] != new_img[known]):
            return None
        fresh = ~known
        amap[new_src[fresh]] = new_img[fresh]
        frontier = new_src[fresh]
    return amap


def _search_generators(a: FiniteGroup) -> list:
    """The generators whose images the search assigns, one per level.

    On a p-group they are a basis over the Frattini subgroup
    Phi = <G', G^p>, so the search has exactly d = log_p |G : Phi| levels;
    on any other group, a plain basis.
    """
    if a.order == 1 or not a.is_prime_power():
        return a.basis()
    powers = a.power_many(np.arange(a.order), a.prime)
    return a.basis(floor=np.concatenate([a.derived_subgroup().members, powers]))


def _search_bijections(a: FiniteGroup, b: FiniteGroup, budget: _Budget, on_found):
    """Backtrack over generator images; call on_found for each isomorphism.

    on_found returns True to stop the search.  Returns True when stopped by
    on_found, False when the tree is exhausted.  Candidate images carry the
    same (order, class size) fingerprint as the source generator and are
    tried in ascending index order, so the first witness is the
    lexicographically least.
    """
    gens = _search_generators(a)
    fpa = _fingerprints(a)
    fpb = _fingerprints(b)
    buckets: dict = {}
    for idx, fp in enumerate(map(tuple, fpb.tolist())):
        buckets.setdefault(fp, []).append(idx)

    def injective(amap) -> bool:
        picked = amap[amap != -1]
        return len(sorted_unique(picked)) == len(picked)

    def rec(level, srcs, imgs, induced):
        # induced: the injective map that srcs -> imgs induces, built and
        # checked by the caller
        if level == len(gens):
            return not np.any(induced == -1) and on_found(induced)
        g = gens[level]
        for h in buckets.get(tuple(fpa[g].tolist()), []):
            budget.tick()
            amap = _induced_map(a, b, srcs + [g], imgs + [h])
            # a bijection restricts injectively to every subgroup, so a
            # collision on the partial span already kills this branch
            if amap is None or not injective(amap):
                continue
            if rec(level + 1, srcs + [g], imgs + [h], amap):
                return True
        return False

    root = np.full(a.order, -1, dtype=np.int64)  # no generator assigned: the identity only
    root[a.identity] = b.identity
    return rec(0, [], [], root)


@dataclass
class IsomorphismResult:
    outcome: str                       # isomorphic | refuted | inconclusive
    mapping: np.ndarray | None = None
    reason: str | None = None
    nodes: int = 0

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "reason": self.reason,
            "nodes": self.nodes,
            "mapping": None if self.mapping is None else self.mapping.tolist(),
        }


def _isomorphism_refuter(a: FiniteGroup, b: FiniteGroup):
    """First cheap invariant separating a from b, or None."""
    if a.order != b.order:
        return f"orders {a.order} vs {b.order}"
    if a.is_abelian() != b.is_abelian():
        return "one group is abelian, the other is not"
    if a.exponent() != b.exponent():
        return f"exponents {a.exponent()} vs {b.exponent()}"

    def ncl(g):
        try:
            return g.nilpotency_class()
        except GroupError:
            return None

    if ncl(a) != ncl(b):
        return f"nilpotency classes {ncl(a)} vs {ncl(b)}"
    if a.conjugate_type() != b.conjugate_type():
        return f"conjugate types {a.conjugate_type()} vs {b.conjugate_type()}"
    if a.center().order != b.center().order:
        return f"center orders {a.center().order} vs {b.center().order}"
    if a.derived_subgroup().order != b.derived_subgroup().order:
        return f"derived orders {a.derived_subgroup().order} vs {b.derived_subgroup().order}"
    la = [s.order for s in a.lower_central_series()]
    lb = [s.order for s in b.lower_central_series()]
    if la != lb:
        return f"lower central orders {la} vs {lb}"
    ha = np.unique(_fingerprints(a), axis=0, return_counts=True)
    hb = np.unique(_fingerprints(b), axis=0, return_counts=True)
    if not (np.array_equal(ha[0], hb[0]) and np.array_equal(ha[1], hb[1])):
        return "element (order, class size) histograms differ"
    return None


def are_isomorphic(a: FiniteGroup, b: FiniteGroup,
                   cfg: SearchConfig | None = None) -> IsomorphismResult:
    """Explicit isomorphism search with invariant refutation up front.

    Budget exhaustion is reported as inconclusive, never as refutation.
    """
    cfg = cfg or SearchConfig()
    if a is b:
        return IsomorphismResult("isomorphic", np.arange(a.order, dtype=np.int64))
    reason = _isomorphism_refuter(a, b)
    if reason is not None:
        return IsomorphismResult("refuted", reason=reason)
    budget = _Budget(cfg)
    found: list = []

    def grab(amap):
        found.append(amap.copy())
        return True

    try:
        _search_bijections(a, b, budget, grab)
    except _BudgetExceeded:
        return IsomorphismResult("inconclusive", reason=budget.fired,
                                 nodes=budget.nodes)
    if found:
        return IsomorphismResult("isomorphic", found[0], nodes=budget.nodes)
    return IsomorphismResult("refuted", reason="generator-image search exhausted",
                             nodes=budget.nodes)


def verify_isomorphism(a: FiniteGroup, b: FiniteGroup, mapping: np.ndarray) -> bool:
    """Re-check a claimed isomorphism, exactly at every order: a bijection
    onto b's elements that respects products on the edges x -> x*s, s in
    a.generators (engine.is_homomorphism)."""
    mapping = np.asarray(mapping, dtype=np.int64)
    if mapping.shape != (a.order,) or a.order != b.order:
        return False
    if np.any((mapping < 0) | (mapping >= b.order)) or len(sorted_unique(mapping)) != b.order:
        return False
    return is_homomorphism(a, b, np.arange(a.order), a.generators, mapping)


@dataclass
class IsoclinismWitness:
    """phi on central-quotient indices; theta on derived-subgroup members.

    theta is stored as aligned arrays: theta_src holds the sorted member
    indices of the first group's derived subgroup, theta_dst their images.
    """

    phi: np.ndarray
    theta_src: np.ndarray
    theta_dst: np.ndarray

    def theta_of(self, idx) -> np.ndarray:
        """theta at members of the first group's derived subgroup."""
        lookup = np.full(self.theta_src[-1] + 1, -1, dtype=self.theta_dst.dtype)
        lookup[self.theta_src] = self.theta_dst
        return lookup[idx]

    def as_dict(self) -> dict:
        return {
            "phi": self.phi.tolist(),
            "theta_src": self.theta_src.tolist(),
            "theta_dst": self.theta_dst.tolist(),
        }


@dataclass
class IsoclinismResult:
    outcome: str                       # isoclinic | refuted | inconclusive
    witness: IsoclinismWitness | None = None
    reason: str | None = None
    nodes: int = 0

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "reason": self.reason,
            "nodes": self.nodes,
            "witness": None if self.witness is None else self.witness.as_dict(),
        }


def _force_theta(am: CommutationMap, bm: CommutationMap, phi: np.ndarray):
    """theta forced by phi through the commuting square; None on a conflict.

    theta([x, s]) = [phi(x), phi(s)] fixes theta on am.basis, each value
    read at its column position and its image bracketed on the leaders of
    H/Z, and _induced_map extends that to <am.basis> = G'.  Whether the
    result is a bijection that makes the square commute is left to
    verify_isoclinism_witness.
    """
    i, k = np.divmod(am.positions, len(am.gens))
    h, bl = bm.derived.parent, bm.quotient.backend.leaders
    images = h.commutator_many(bl[phi[i]], bl[phi[am.gens[k]]])
    amap = _induced_map(am.derived.parent, h, am.basis.tolist(), images.tolist())
    if amap is None:
        return None
    src = am.derived.members
    return IsoclinismWitness(phi.copy(), src.copy(), amap[src])


def verify_isoclinism_witness(g: FiniteGroup, h: FiniteGroup,
                              witness: IsoclinismWitness) -> bool:
    """The one judge of a witness, exact on the commutation maps stored on
    g and h (a rebuild would rerun the same deterministic code): phi with
    verify_isomorphism on the central quotients, theta as a bijection of
    the derived subgroups that respects products on the edges of the
    map's basis of G' (engine.is_homomorphism), and theta([x, s]) =
    [phi(x), phi(s)] on the columns, x in G/Z and s in am.gens.

    The columns prove the square on every pair x, y, y a word in the gens:
    [x, ab] = [x, b][x, a][[x, a], b], and [phi(x), phi(a)] lies in the
    coset phi([x, a]), so the square on (x, a), (x, b) and ([x, a], b)
    gives it on (x, ab), by induction on word length.
    """
    am = commutation_map(g)
    bm = commutation_map(h)
    if not verify_isomorphism(am.quotient, bm.quotient, witness.phi):
        return False
    src = am.derived.members
    if not (np.array_equal(witness.theta_src, src)
            and np.array_equal(np.sort(witness.theta_dst), bm.derived.members)
            and is_homomorphism(g, h, src, am.basis, witness.theta_dst)):
        return False
    bl = bm.quotient.backend.leaders
    forced = h.commutator_many(bl[witness.phi][:, None], bl[witness.phi[am.gens]][None, :])
    return bool(np.array_equal(witness.theta_of(am.columns), forced))


def are_isoclinic(g: FiniteGroup, h: FiniteGroup,
                  cfg: SearchConfig | None = None,
                  allow_large: bool = False) -> IsoclinismResult:
    """Search an isoclinism witness; refute on mismatched frame sizes.

    phi ranges over isomorphisms of the central quotients found by
    backtracking; each complete phi forces theta, and the witness is
    returned only once verify_isoclinism_witness accepts it.  Exhausting
    the phi tree refutes; budget exhaustion is inconclusive.
    """
    cfg = cfg or SearchConfig()
    gq = g.order // g.center().order
    hq = h.order // h.center().order
    gd = g.derived_subgroup().order
    hd = h.derived_subgroup().order
    if gq != hq:
        return IsoclinismResult("refuted",
                                reason=f"central quotient orders {gq} vs {hq}")
    if gd != hd:
        return IsoclinismResult("refuted",
                                reason=f"derived subgroup orders {gd} vs {hd}")
    if not allow_large and (gq > SEARCH_CAP or gd > SEARCH_CAP):
        raise CapExceeded(
            f"isoclinism search on central quotients of order {gq} and derived "
            f"subgroups of order {gd} exceeds the default cap {SEARCH_CAP}; "
            f"pass allow_large=True (pgf isoclinic --force) to override")
    am = commutation_map(g)
    bm = commutation_map(h)
    if g is h:
        n = am.quotient.order
        witness = IsoclinismWitness(np.arange(n, dtype=np.int64),
                                    am.derived.members.copy(),
                                    am.derived.members.copy())
        return IsoclinismResult("isoclinic", witness)
    reason = _isomorphism_refuter(am.quotient, bm.quotient)
    if reason is not None:
        return IsoclinismResult("refuted", reason=f"central quotients: {reason}")
    budget = _Budget(cfg)
    box: list = []

    def try_phi(phi):
        witness = _force_theta(am, bm, phi)
        if witness is None:
            return False
        if not verify_isoclinism_witness(g, h, witness):
            return False
        box.append(witness)
        return True

    try:
        _search_bijections(am.quotient, bm.quotient, budget, try_phi)
    except _BudgetExceeded:
        return IsoclinismResult("inconclusive", reason=budget.fired,
                                nodes=budget.nodes)
    if box:
        return IsoclinismResult("isoclinic", box[0], nodes=budget.nodes)
    return IsoclinismResult("refuted", reason="no central-quotient isomorphism carries the bracket",
                            nodes=budget.nodes)


def conjugate_type_isoclinism_consistency(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Isoclinic groups share their conjugate type; check it."""
    return g.conjugate_type() == h.conjugate_type()
