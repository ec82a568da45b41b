"""Group utilities that only the tests use, built on the engine's public API.

from_closure builds a group as the breadth-first closure of generator rows,
an oracle for the builders that enumerate a full coordinate chart; relabel
renames the elements of a group by a permutation (through RelabeledBackend,
on the one FiniteGroup constructor), build_cyclic builds Z/n,
verify_quintuple_identification proves the corner-dropping map hmod ->
quint an isomorphism, breadth and breadth_set measure
centralizer indices, label gives an element's canonical byte encoding,
cayley_table tabulates every product without mul_many, verify_group_axioms
checks the group laws through mul_many, class3_identity_oracle
evaluates the class-3 identity suite tuple by tuple on the Cayley table,
and quintuple_commutator_oracle evaluates the quint commutator in closed
form.  stored_rows maps each stored row to its index, with no encode,
matrix_product_oracle multiplies the stored rows of a unitriangular matrix
group over a prime field as integer matrices and looks the products up
there, and feeding_corner mutates a 5x5 backend so that the corner entry
(4,0) feeds entry (4,1).  bracket_table tabulates every bracket of a commutation map's
coset leaders, the n^2 pairs its generator columns stand for;
theta_from_all_brackets forces an isoclinism's theta from every pair of
that table, square_on_all_pairs checks a witness's commuting square on
every pair, image_members lists the table's distinct values, and inverted
turns a witness G -> H into one H -> G.  The structure oracles redo, one
element, pair or entry at a time, what structure.py derives from a group
identity or in one batched call: breadth_mask_oracle,
distinct_centralizers_oracle, product_set_sizes and
presentation_params_oracle.  conjugacy_flood_oracle finds the
classes by conjugating every element by each generator; the engine does so
only inside the memo table, and past it reads the cosets of the center.
quotient_flood_oracle finds the cosets of a quotient by flooding labels
along right multiplication by a basis of N, n * rank(N) products; the
engine reads them off one Dimino span instead.
"""

import itertools
import math

import numpy as np

import pgf.constructions
import pgf.engine
from pgf.constructions import H_SLOTS
from pgf.engine import (
    DEFAULT_CAP,
    Backend,
    CapExceeded,
    FiniteGroup,
    GroupError,
    Subgroup,
    is_homomorphism,
    sorted_unique,
)
from pgf.fields import FieldOps
from pgf.structure import TheoremViolation


def from_closure(name: str, backend: Backend, generator_rows: np.ndarray,
                 cap: int = DEFAULT_CAP, **kw) -> FiniteGroup:
    """Breadth-first closure of generator rows under multiplication.

    Each wave multiplies the frontier by every generator.  Every product
    passes check_rows, so a closure that completes proves the backend's row
    invariant closed under multiplication; a generator's products whose
    codes are already known are then dropped before the survivors of all
    generators are merged, so a wave holds its new elements rather than all
    its products.  The rows are sorted by code once, when the group is
    built.  No engine closure runs: the generators are taken as given.
    """
    gen_rows = np.ascontiguousarray(generator_rows, dtype=backend.identity_row().dtype)
    backend.check_rows(gen_rows)
    rows = np.vstack([backend.identity_row()[None, :], gen_rows])
    codes, first = np.unique(backend.encode(rows), return_index=True)
    frontier = rows[first]
    blocks = [frontier]
    while len(frontier):
        fresh_rows, fresh_codes = [], []
        for g in gen_rows:
            prod = backend.mul_rows(frontier, np.broadcast_to(g, frontier.shape))
            backend.check_rows(prod)
            pcodes = backend.encode(prod)
            pos = np.minimum(np.searchsorted(codes, pcodes), len(codes) - 1)
            new = codes[pos] != pcodes
            fresh_rows.append(prod[new])
            fresh_codes.append(pcodes[new])
        fcodes, ffirst = np.unique(np.concatenate(fresh_codes), return_index=True)
        if not len(fcodes):
            break
        frontier = np.vstack(fresh_rows)[ffirst]
        blocks.append(frontier)
        codes = np.insert(codes, np.searchsorted(codes, fcodes), fcodes)
        if len(codes) > cap:
            raise CapExceeded(f"closure exceeded cap {cap}")
    gen_idx = np.searchsorted(codes, backend.encode(gen_rows))
    return FiniteGroup(name, backend, np.vstack(blocks), generators=gen_idx.tolist(), cap=cap,
                       assume_generates=True, **kw)


class RelabeledBackend(Backend):
    """A permuted copy of another group's index set."""

    def __init__(self, base: FiniteGroup, perm: np.ndarray):
        self.base = base
        self.perm = perm
        inv = np.empty(len(perm), dtype=np.int64)
        inv[perm] = np.arange(len(perm), dtype=np.int64)
        self.inv_perm = inv
        self.width = 1
        self.radices = (base.order,)

    def identity_row(self):
        return np.array([self.inv_perm[self.base.identity]], dtype=np.int64)

    def mul_rows(self, a, b):
        prod = self.base.mul_many(self.perm[a[:, 0]], self.perm[b[:, 0]])
        return self.inv_perm[prod][:, None]

    def inv_rows(self, a):
        return self.inv_perm[self.base.inv_many(self.perm[a[:, 0]])][:, None]

    def describe_row(self, row):
        return self.base.describe(int(self.perm[int(row[0])]))


def relabel(g: FiniteGroup, perm) -> FiniteGroup:
    """The same group with element perm[i] renamed to i."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(g.order)):
        raise GroupError("relabeling must be a permutation")
    backend = RelabeledBackend(g, perm)
    return FiniteGroup(f"{g.name} (relabeled)", backend, np.arange(g.order)[:, None],
                       generators=backend.inv_perm[g.generators].tolist(),
                       field=g.field, assume_generates=True)


def build_cyclic(n: int, name: str | None = None) -> FiniteGroup:
    """The cyclic group of order n, rows 0..n-1 under addition mod n."""

    class _Cyclic(Backend):
        def __init__(self, n):
            self.n = n
            self.width = 1
            self.radices = (n,)

        def mul_rows(self, a, b):
            return (a + b) % self.n

        def inv_rows(self, a):
            return (-a) % self.n

    if n > np.iinfo(np.int16).max:
        raise GroupError(f"cyclic order {n} too large for int16 coordinates")
    rows = np.arange(n, dtype=np.int16)[:, None]
    return FiniteGroup(name or f"cyclic{n}", _Cyclic(n), rows, generators=[1 % n])


def verify_quintuple_identification(hmod: FiniteGroup, quint: FiniteGroup) -> dict:
    """Check that dropping the corner entry is an isomorphism hmod -> quint.

    identification_map proves the map a bijection, and the homomorphism law
    is proved on the edges x -> x*s for every x and every s in
    hmod.generators (engine.is_homomorphism), so the check is exhaustive at
    every order: it covers every product with order * len(generators) pairs.
    """
    phi = pgf.constructions.identification_map(hmod, quint)  # a test may substitute the map
    n = hmod.order
    if not is_homomorphism(hmod, quint, np.arange(n), hmod.generators, phi):
        raise GroupError("identification fails the homomorphism law")
    return {
        "order": n,
        "bijective": True,
        "exhaustive": True,
        "pairs_checked": n * len(hmod.generators),
        "passed": True,
    }


def breadth(g: FiniteGroup, x: int) -> int:
    """log_p of the index of the centralizer of x."""
    if not g.is_prime_power():
        raise GroupError("breadth needs a p-group")
    index = g.order // g.centralizer(x).order
    b = round(math.log(index, g.prime))
    if g.prime**b != index:
        raise GroupError("centralizer index is not a prime power")
    return b


def breadth_set(g: FiniteGroup, a: Subgroup) -> np.ndarray:
    """Indices achieving the maximal breadth relative to subgroup a.

    a must be abelian and normal; b_a(x) = log_p [a : C_a(x)].
    """
    if not g.is_prime_power():
        raise GroupError("breadth needs a p-group")
    if not a.is_abelian():
        raise GroupError("breadth set needs an abelian subgroup")
    for gen in g.generators:
        if not bool(np.all(a.contains_many(g.conjugate_many(a.members, gen)))):
            raise GroupError("breadth set needs a normal subgroup")
    counts = g.centralizer_orders_in(a)
    return np.nonzero(counts == counts.min())[0]


def label(g: FiniteGroup, i: int) -> bytes:
    """Canonical element encoding (the coordinate row's bytes)."""
    return g.rows[i].tobytes()


def cayley_table(g: FiniteGroup) -> np.ndarray:
    """The full Cayley table, table[i, j] = i * j.

    It comes straight from the backend's row products and a binary search
    of the sorted codes, bypassing mul_many and its memo table."""
    n = g.order
    rows = np.ascontiguousarray(g.rows)
    prods = g.backend.mul_rows(np.repeat(rows, n, axis=0), np.tile(rows, (n, 1)))
    return np.searchsorted(g.codes, g.backend.encode(prods)).reshape(n, n)


def conjugacy_flood_oracle(g: FiniteGroup):
    """(class_of, class_reps, class_sizes): each element conjugated by each
    generator (2n products per generator), and every label flooded to the
    least index of its orbit, one step along each conjugation at a time."""
    n = g.order
    idx = np.arange(n, dtype=np.int64)
    moves = []
    for s in g.generators:
        img = g.conjugate_many(idx, s)
        back = np.empty(n, dtype=np.int64)
        back[img] = idx
        moves += [img, back]
    labels = idx
    while True:
        new = labels.copy()
        for img in moves:
            new = np.minimum(new, new[img])
        if np.array_equal(new, labels):
            break
        labels = new
    reps, class_of = np.unique(labels, return_inverse=True)
    return class_of, reps.tolist(), np.bincount(class_of).tolist()


def quotient_flood_oracle(g: FiniteGroup, members):
    """(leaders, coset_of) of G/N for N the subgroup with these members:
    right multiplication by each pick of N's basis (n products each), and
    every label flooded to the least index of its orbit, the coset xN."""
    n = g.order
    idx = np.arange(n, dtype=np.int64)
    moves = [g.mul_many(idx, k) for k in g.basis(members)]
    labels = idx
    while True:
        new = labels.copy()
        for img in moves:
            new = np.minimum(new, new[img])
        if np.array_equal(new, labels):
            break
        labels = new
    leaders, coset_of = np.unique(labels, return_inverse=True)
    return leaders, coset_of


ASSOC_EXHAUSTIVE_LIMIT = 1000


def verify_group_axioms(g: FiniteGroup, samples: int = 10**5, seed: int = 0) -> None:
    """Identity/inverse laws exhaustively; associativity exhaustively up to
    ASSOC_EXHAUSTIVE_LIMIT elements, by seeded sampling beyond."""
    n = g.order
    idx = np.arange(n, dtype=np.int64)
    e = g.identity
    if not bool(np.all(g.mul_many(idx, e) == idx)) or not bool(np.all(g.mul_many(e, idx) == idx)):
        raise GroupError("identity law fails")
    inv = g.inv_many(idx)
    if not bool(np.all(g.mul_many(idx, inv) == e)) or not bool(np.all(g.mul_many(inv, idx) == e)):
        raise GroupError("inverse law fails")
    if n <= ASSOC_EXHAUSTIVE_LIMIT:
        pairs_a = np.repeat(idx, n)
        pairs_b = np.tile(idx, n)
        ab = g.mul_many(pairs_a, pairs_b)
        for c in range(n):
            left = g.mul_many(ab, c)
            right = g.mul_many(pairs_a, g.mul_many(pairs_b, c))
            if not bool(np.all(left == right)):
                raise GroupError(f"associativity fails with c={c}")
    else:
        rng = np.random.default_rng(seed)
        a = rng.integers(0, n, samples)
        b = rng.integers(0, n, samples)
        c = rng.integers(0, n, samples)
        if not bool(np.all(g.mul_many(g.mul_many(a, b), c) == g.mul_many(a, g.mul_many(b, c)))):
            raise GroupError("associativity fails on a sampled triple")


def class3_identity_oracle(g: FiniteGroup, samples: int = 10**4, skew=None) -> dict:
    """The report of FiniteGroup.check_class3_identities, computed tuple by
    tuple in plain Python from cayley_table(g).

    Inverses, powers, commutators and the center come from the table alone.
    skew = (u, v, w) makes [u, v] read w, as a group that misreports one
    commutator would.  Tuples run in flat order when the order is at most
    pgf.engine.IDENTITY_EXHAUSTIVE_LIMIT, read at call time; otherwise they
    replay the engine's default_rng(0) draws (three arrays of triples, then
    two of pairs).  The exponents (i, j, k) of the t-th triple are the
    base-p digits of t mod p**3.
    """
    table = cayley_table(g).tolist()
    n, e = g.order, g.identity
    p = g.prime if n > 1 else 3
    inv = [row.index(e) for row in table]
    comm = [[table[table[table[inv[x]][inv[y]]][x]][y] for y in range(n)] for x in range(n)]
    if skew is not None:
        comm[skew[0]][skew[1]] = skew[2]
    central = [all(table[z][y] == table[y][z] for y in range(n)) for z in range(n)]

    def power(x, s):
        out = e
        for _ in range(s):
            out = table[out][x]
        return out

    def br(x, y):
        return comm[x][y]

    def mul(x, y):
        return table[x][y]

    names = ("central_pair_triple_vanishes", "central_commutator_swap", "product_expansion",
             "power_expansion", "power_commutator_collapse")
    report = {name: {"passed": True, "checked": 0, "counterexample": None} for name in names}

    def record(name, ok, tup):
        entry = report[name]
        entry["checked"] += 1
        if not ok and entry["passed"]:
            entry["passed"] = False
            entry["counterexample"] = tuple(g.describe(x) for x in tup)

    if n <= pgf.engine.IDENTITY_EXHAUSTIVE_LIMIT:
        triples = itertools.product(range(n), repeat=3)
        pairs = itertools.product(range(n), repeat=2)
    else:
        rng = np.random.default_rng(0)
        draws = [rng.integers(0, n, samples).tolist() for _ in range(5)]
        triples, pairs = zip(*draws[:3]), zip(*draws[3:])
    for t, (a, b, c) in enumerate(triples):
        if central[br(a, c)] and central[br(b, c)]:
            record(names[0], br(br(a, b), c) == e, (a, b, c))
        if central[br(a, b)]:
            record(names[1], br(br(a, c), b) == br(br(b, c), a), (a, b, c))
        ok = br(mul(a, b), c) == mul(mul(br(a, c), br(b, c)), br(br(a, c), b))
        ok = ok and br(a, mul(b, c)) == mul(mul(br(a, b), br(a, c)), br(br(a, b), c))
        record(names[2], ok, (a, b, c))
        i, j, k = t % p**3 // (p * p), t % (p * p) // p, t % p
        lhs = br(br(power(a, i), power(b, j)), power(c, k))
        record(names[4], lhs == power(br(br(a, b), c), i * j * k % p), (a, b, c))
    for a, b in pairs:
        ok = True
        for s in range(p):
            binom = s * (s - 1) // 2 % p
            ok = ok and br(power(a, s), b) == mul(power(br(a, b), s), power(br(br(a, b), a), binom))
            ok = ok and br(a, power(b, s)) == mul(power(br(a, b), s), power(br(br(a, b), b), binom))
        record(names[3], ok, (a, b))
    return report


def quintuple_commutator_oracle(ops: FieldOps, ga, gb):
    """Closed-form [g,h] = g^-1 h^-1 g h for the quintuple product rule.

    Independent of the engine's commutator: evaluates the polynomial
      (0, 0, bx-ay, 2az-2cx+a^2*y-bx^2, 2(c-ab)y-2b(z-xy)-ay^2+b^2*x).
    """
    a, b, c = ga[:, 0], ga[:, 1], ga[:, 2]
    x, y, z = gb[:, 0], gb[:, 1], gb[:, 2]

    def two(t):
        return ops.add(t, t)

    cc = ops.sub(ops.mul(b, x), ops.mul(a, y))
    dd = ops.add(
        ops.sub(two(ops.mul(a, z)), two(ops.mul(c, x))),
        ops.sub(ops.mul(ops.mul(a, a), y), ops.mul(b, ops.mul(x, x))),
    )
    ee = ops.add(
        ops.sub(
            ops.sub(two(ops.mul(ops.sub(c, ops.mul(a, b)), y)),
                    two(ops.mul(b, ops.sub(z, ops.mul(x, y))))),
            ops.mul(a, ops.mul(y, y)),
        ),
        ops.mul(ops.mul(b, b), x),
    )
    out = np.zeros_like(ga)
    out[:, 2] = cc
    out[:, 3] = dd
    out[:, 4] = ee
    return out


def stored_rows(g: FiniteGroup) -> dict:
    """Each stored row of g, as a tuple of ints, mapped to its index."""
    return {tuple(row): k for k, row in enumerate(g.rows.tolist())}


def matrix_product_oracle(g: FiniteGroup, i, j) -> list:
    """Indices of g.rows[i] * g.rows[j] for a group of d x d lower
    unitriangular matrices over a prime field, each row packing the
    below-diagonal entries (1,0), (2,0), (2,1), (3,0), ...: the rows are
    unpacked, multiplied as integer matrices mod p, repacked and looked up
    in stored_rows (None for a product outside the stored rows).  For
    hmod, whose rows lead the cosets of hmat's corner axis, each product's
    corner entry is zeroed before the lookup."""
    if g.field.m != 1:
        raise ValueError("the integer matrix product needs a prime field")
    d = g.backend.d
    r, c = np.array([(r, c) for r in range(d) for c in range(r)]).T

    def unpack(rows):
        m = np.broadcast_to(np.eye(d, dtype=np.int64), (len(rows), d, d)).copy()
        m[:, r, c] = rows
        return m

    prod = unpack(g.rows[i]) @ unpack(g.rows[j]) % g.field.p
    if g.kind == "hmod":
        prod[:, d - 1, 0] = 0  # hmat modulo its corner axis
    index = stored_rows(g)
    return [index.get(tuple(row)) for row in prod[:, r, c].tolist()]


def feeding_corner(base):
    """A subclass of the 5x5 matrix backend base whose product adds
    a_(4,0) * b_(1,0) to entry (4,1): the corner feeds another entry."""

    class FeedingCorner(base):
        def __init__(self, ops):
            super().__init__(ops)
            e = H_SLOTS["e"]
            self.middle[e] = self.middle[e] + [(H_SLOTS["f"], H_SLOTS["a"])]

    return FeedingCorner


def bracket_table(cm) -> np.ndarray:
    """table[i, j] = [x, y] for the leaders x, y of cosets i, j of the
    central quotient of a commutation map: all n^2 brackets."""
    leaders = cm.quotient.backend.leaders
    return cm.derived.parent.commutator_many(leaders[:, None], leaders[None, :])


def theta_from_all_brackets(am, bm, phi):
    """theta forced by phi through every pair of cosets, as the images of
    am.derived.members, or None: the all-brackets construction, an oracle
    for the basis-forced theta of isoclinism._force_theta.

    am and bm are commutation maps.  Each bracket value [x, y] must carry
    one image [phi(x), phi(y)] over the whole table, and theta is read
    off those pairs, so the values must fill G' (ValueError otherwise).
    theta must then be a bijection onto H' that respects all |G'|^2
    products of G'.
    """
    theta: dict = {}
    forced = bracket_table(bm)[np.ix_(phi, phi)]
    for x, y in zip(bracket_table(am).ravel().tolist(), forced.ravel().tolist()):
        if theta.setdefault(x, y) != y:
            return None
    src = am.derived.members
    if sorted(theta) != src.tolist():
        raise ValueError("the bracket values do not fill the derived subgroup")
    dst = np.array([theta[x] for x in src.tolist()], dtype=np.int64)
    if not np.array_equal(np.sort(dst), bm.derived.members):
        return None
    a, b = np.repeat(np.arange(len(src)), len(src)), np.tile(np.arange(len(src)), len(src))
    lhs = [theta[x] for x in am.derived.parent.mul_many(src[a], src[b]).tolist()]
    if lhs != bm.derived.parent.mul_many(dst[a], dst[b]).tolist():
        return None
    return dst


def square_on_all_pairs(am_table, bm_table, witness) -> bool:
    """theta([x, y]) = [phi(x), phi(y)] on every pair of cosets, read off
    the two bracket_tables."""
    return bool(np.array_equal(witness.theta_of(am_table),
                               bm_table[np.ix_(witness.phi, witness.phi)]))


def image_members(cm) -> np.ndarray:
    """The distinct bracket values of a commutation map, sorted."""
    return sorted_unique(bracket_table(cm))


def inverted(witness):
    """The isoclinism witness H -> G undoing a witness G -> H."""
    phi_inv = np.empty_like(witness.phi)
    phi_inv[witness.phi] = np.arange(len(witness.phi), dtype=np.int64)
    order = np.argsort(witness.theta_dst, kind="stable")
    return type(witness)(phi_inv, witness.theta_dst[order], witness.theta_src[order])


def breadth_mask_oracle(g: FiniteGroup) -> np.ndarray:
    """Whether C_{G'}(x) = Z(G), for each of the n elements x, with Z(G)
    inside G'.

    [hw, x] = [h, x] for central w, so C_{G'}(x) = Z exactly when [h, x]
    is not trivial for one h of each coset of Z in G' other than Z.  Those
    h are picked from G' one coset at a time, and each is bracketed with
    every element of the group.
    """
    zmem = g.center().members
    covered = g.center().membership_mask()
    idx = np.arange(g.order, dtype=np.int64)
    mask = np.ones(g.order, dtype=bool)
    for h in g.derived_subgroup().members.tolist():
        if not covered[h]:
            covered[g.mul_many(h, zmem)] = True
            mask &= g.commutator_many(np.full(g.order, h), idx) != g.identity
    return mask


def distinct_centralizers_oracle(g: FiniteGroup) -> list:
    """The members of the distinct C(x) over noncentral x, in order of
    first x: one centralizer per element, from its own 2n products."""
    idx = np.arange(g.order, dtype=np.int64)
    seen: dict = {}
    for x in np.flatnonzero(~g.center().membership_mask()).tolist():
        row = g.mul_many(x, idx) == g.mul_many(idx, x)
        seen.setdefault(tuple(idx[row].tolist()), None)
    return [list(k) for k in seen]


def product_set_sizes(g: FiniteGroup, subgroups) -> list:
    """|AB| for each pair (A, B) of subgroups in itertools.combinations
    order, by enumerating the |A||B| products."""
    return [len(sorted_unique(g.mul_many(a.members[:, None], b.members[None, :])))
            for a, b in itertools.combinations(subgroups, 2)]


def presentation_params_oracle(g: FiniteGroup, frame, kappa) -> dict:
    """The parameter arrays of structure.extract_presentation_params by
    name, one scalar group call per bracket, product, inverse and power,
    entry by entry in the engine's order.

    z-coordinates come from a dict over the p^(2m) words in the z's; the
    first value outside their span raises TheoremViolation with the
    engine's message.
    """
    p, m = g.prime, frame.m

    def word(elems, coeffs):
        acc = g.identity
        for e, c in zip(elems, coeffs):
            acc = g.mul(acc, g.power(int(e), int(c)))
        return acc

    coords = {word(frame.z, c): list(c) for c in itertools.product(range(p), repeat=2 * m)}
    if len(coords) != p ** (2 * m):
        raise GroupError("the z entries are dependent")

    def zlog(v, what):
        if v not in coords:
            raise TheoremViolation(f"{what} lies outside the central span")
        return coords[v]

    x, y, h = frame.x, frame.y, frame.h
    out = {name: np.zeros((m, m, 2 * m), dtype=np.int64)
           for name in ("gamma", "delta", "alpha", "beta", "lam", "mu")}
    for i in range(m):
        for j in range(m):
            k = kappa[i, j]
            out["gamma"][i, j] = zlog(g.commutator(h[i], x[j]), f"[h{i + 1}, x{j + 1}]")
            out["delta"][i, j] = zlog(g.commutator(h[i], y[j]), f"[h{i + 1}, y{j + 1}]")
            out["alpha"][i, j] = zlog(g.commutator(x[i], x[j]), f"[x{i + 1}, x{j + 1}]")
            out["beta"][i, j] = zlog(g.commutator(y[i], y[j]), f"[y{i + 1}, y{j + 1}]")
            out["lam"][i, j] = zlog(
                g.mul(g.commutator(x[i], y[j]), g.inv(g.commutator(x[0], word(y, k)))),
                f"[x{i + 1}, y{j + 1}] against its kappa word")
            out["mu"][i, j] = zlog(
                g.mul(g.commutator(x[j], y[i]), g.inv(g.commutator(word(x, k), y[0]))),
                f"[x{j + 1}, y{i + 1}] against its kappa word")
    out["epsilon"] = np.zeros((m, 2 * m), dtype=np.int64)
    out["nu"] = np.zeros((m, 2 * m), dtype=np.int64)
    for i in range(m):
        out["epsilon"][i] = zlog(g.power(x[i], p), f"x{i + 1}^p")
        out["nu"][i] = zlog(g.power(y[i], p), f"y{i + 1}^p")
    return out
