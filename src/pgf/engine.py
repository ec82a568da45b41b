"""Index-based finite group engine.

A FiniteGroup stores its element universe as a numpy coordinate matrix, one
row per element, sorted by an integer row code (the backend's encode,
mixed-radix over the columns by default).  The element index is the row
position, so indexing is canonical and deterministic for a given
construction.  All group arithmetic funnels through a Backend, which knows
how to multiply and invert coordinate rows in bulk; hot loops (closure,
conjugacy, centralizers, series) are expressed as vectorized index
operations on top of it.

Rows are stored row-major: a product gathers its operands one cache line
per row.  When the sorted codes are exactly 0..n-1 the universe is a dense
coordinate chart: an element's code is its index, and a row is an element
exactly when its code lies in 0..n-1, its entries lie in their column
radices and backend.check_rows accepts it.  The constructor asserts the
last two on every stored row, and encode is one to one on the rows that
pass both, so index_of_rows gathers no stored row.  Every universe pgf
builds is a dense chart: the full coordinate universes (quint, u3, hmat,
hmod on its pattern rows with corner entry 0, xab) and the
quotients, whose rows are their coset ids.  Only a universe a caller
builds from a sparse set of rows looks codes up with a binary search.

A quotient G/N takes the least member of each coset as its leader, and
numbers the cosets by their leaders.  The cosets come from one Dimino
span grown from N through the generators of G, which lists G as whole
cosets Ny, each in one fixed order of N starting at the identity (the
coset table of G/N: Holt, Eick & O'Brien, Handbook of Computational Group
Theory, 2005, ch. 5).  So building G/N costs about n products (plus the
normality check), not the n * |N| of multiplying the group by every
member of N, and the quotient keeps that layout for the cosets of the
center.

Products are memoized when the order is at most TABLE_CAP, in a flat
np.zeros(n * n) int16 table whose entry i*n + j holds the index of i * j
plus one, 0 meaning not yet computed.  It is read with take and written
with put, only the misses going to the row arithmetic.  np.zeros maps
zero pages as they are first touched, so a group pays for the pages its
products reach, not for a pass that fills all n * n entries before the
first read (19.5 MB at order 3125); TABLE_CAP stays below 2**15 so that
every entry fits in int16.  Larger groups multiply on demand from the
coordinate rows, CHUNK_PRODUCTS at a time.  The class-3 identity suite,
exhaustive up to order 300, walks its triples one a-plane at a time over
n x n tables.  Element enumeration is refused beyond a hard cap (default
10**6).

A group derives these once and stores them: its center, conjugacy
classes, lower central series, element orders, inverses (row by row, as
they are asked for) and central quotient G/Z.  remember(key, build) stores
what other modules derive from the group the same way: the commutation
map of isoclinism and the maximal-breadth mask of structure, each stored
once per group and read-only.  Past the memo table a group also stores
itself as the cosets of its center (_CenterCosets): for central z,
(xz)^g = x^g z and C(xz) = C(x), so conjugation and centralizers are read
off the transversal of G/Z that the quotient's coset layout holds, |G/Z|
products per side instead of n.  The loops over the generators (center,
series, classes, normal closures, normality checks) read
nontrivial_generators, the declared generators without repeats and the
identity, which moves nothing.

There is one constructor, __init__, for every universe.  It takes the row
dtype from backend.identity_row(): int16 for coordinate rows, int64 for
rows that hold element indices (coset ids of quotients, products).
Given generators without assume_generates, it proves with one Dimino
closure that they span the universe; on a dense chart each product is
compared with a stored row, so the stored rows are also proved closed.
The closure reads no product twice, so it runs past the memo table, and a
group leaves its constructor without one.

There is one closure, Dimino's (_Span), grown by whole cosets: about n
products plus one per coset representative and generator, not the n * k
of a breadth-first closure.  There is one loop that picks elements by
span, _Span.extend, which skips the members a span already holds: every
closure grows through it, and so does FiniteGroup.basis, whose picks give
the default generators, the bases of the structure checks and the search
generators of the isoclinism search.
There is one homomorphism check, is_homomorphism, on the edges x -> x*s
for s in a generating set: n * d products, exact at every order.

Sets of element indices are deduplicated by sorted_unique (a sort and an
adjacent compare, skipped for strictly increasing input), never by a plain
np.unique, whose hash table path on numpy 2.4 is far slower on a shared
2-core Xeon: 521 ms against 8 ms for 531,441 sorted int64 indices, and
1,068 ms against 46 ms when each value appears four times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CAP = 10**6
TABLE_CAP = 4096
IDENTITY_EXHAUSTIVE_LIMIT = 300
CHUNK_PRODUCTS = 2**16  # rows or products per side in one pass of a chunked scan


class GroupError(ValueError):
    """Domain error in a group-engine operation."""


class CapExceeded(GroupError):
    """Element enumeration exceeded the configured hard cap."""


class Backend:
    """Row arithmetic for one element representation.

    Subclasses define width (column count), radices (per-column code radix,
    least significant first), identity_row, mul_rows, inv_rows.  check_rows
    may assert a representation invariant on freshly produced rows.
    """

    width: int
    radices: tuple[int, ...]

    def identity_row(self) -> np.ndarray:
        return np.zeros(self.width, dtype=np.int16)

    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inv_rows(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def check_rows(self, rows: np.ndarray) -> None:
        pass

    def describe_row(self, row: np.ndarray) -> str:
        return "(" + ",".join(str(int(v)) for v in row) + ")"

    def encode(self, rows: np.ndarray) -> np.ndarray:
        codes = rows[:, 0].astype(np.int64)
        mult = 1
        for k in range(1, len(self.radices)):
            mult *= self.radices[k - 1]
            codes += rows[:, k].astype(np.int64) * mult
        return codes


def _as_index_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64)


def sorted_unique(a) -> np.ndarray:
    """The sorted distinct values of a, flattened, in a's dtype and always
    as a new array: np.unique(a) without its hash table path."""
    a = np.asarray(a).ravel()
    if len(a) > 1 and not bool(np.all(a[1:] > a[:-1])):
        a = np.sort(a)
        return a[np.concatenate(([True], a[1:] != a[:-1]))]
    return a.copy()


@dataclass
class ConjugacyReport:
    """Conjugacy data: per-element class ids plus derived summaries."""

    class_of: np.ndarray
    class_reps: list[int]
    class_sizes: list[int]
    conjugate_type: list[int]

    def __post_init__(self):
        n = len(self.class_of)
        if sum(self.class_sizes) != n:
            raise GroupError("class sizes do not partition the group")
        for s in self.class_sizes:
            if n % s != 0:
                raise GroupError("class size does not divide the group order")
        if self.conjugate_type != sorted(set(self.class_sizes)):
            raise GroupError("conjugate type inconsistent with class sizes")


class Subgroup:
    """A subgroup given by the sorted index array of its members."""

    def __init__(self, parent: "FiniteGroup", members, check: bool = True):
        self.parent = parent
        self.members = sorted_unique(_as_index_array(members))
        if check:
            self._validate()

    def _validate(self):
        """Exact at every size: a finite non-empty set closed under products
        is a subgroup, so the members form one exactly when the subgroup
        they generate (one Dimino closure) is the members."""
        g = self.parent
        mem = self.members
        k = len(mem)
        if k == 0 or mem[0] < 0 or mem[-1] >= g.order:
            raise GroupError("subgroup members out of range")
        if g.order % k != 0:
            raise GroupError(f"Lagrange violation: {k} does not divide {g.order}")
        if not np.array_equal(g.closure_members(mem), mem):
            raise GroupError("subgroup not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.members)

    def contains(self, i: int) -> bool:
        return bool(self.contains_many([i])[0])

    def contains_many(self, idx) -> np.ndarray:
        idx = _as_index_array(idx)
        pos = np.searchsorted(self.members, idx)
        pos = np.minimum(pos, len(self.members) - 1)
        return self.members[pos] == idx

    def membership_mask(self) -> np.ndarray:
        mask = np.zeros(self.parent.order, dtype=bool)
        mask[self.members] = True
        return mask

    def is_abelian(self) -> bool:
        return _commute_pairwise(self.parent, self.parent.basis(self.members))

    def is_elementary_abelian(self) -> bool:
        """Abelian with a basis of elements of order dividing p: (ab)^p =
        a^p b^p for commuting a, b, so then every member has such order."""
        g = self.parent
        basis = g.basis(self.members)
        return _commute_pairwise(g, basis) and bool(np.all(g.power_many(basis, g.prime) == g.identity))

    def same_as(self, other: "Subgroup") -> bool:
        return self.parent is other.parent and np.array_equal(self.members, other.members)


class FiniteGroup:
    """A finite group on an indexed, canonically ordered element universe."""

    def __init__(
        self,
        name: str,
        backend: Backend,
        rows: np.ndarray,
        generators=None,
        cap: int = DEFAULT_CAP,
        field=None,
        kind: str | None = None,
        assume_generates: bool = False,
    ):
        rows = np.ascontiguousarray(rows, dtype=backend.identity_row().dtype)
        if len(rows) > cap:
            raise CapExceeded(f"group order {len(rows)} exceeds cap {cap}")
        codes = backend.encode(rows)
        order = np.argsort(codes, kind="stable")
        rows = np.ascontiguousarray(rows[order])
        codes = codes[order]
        if len(codes) > 1 and bool(np.any(codes[1:] == codes[:-1])):
            raise GroupError("duplicate elements in universe")
        backend.check_rows(rows)
        self.name = name
        self.backend = backend
        self.rows = rows  # row-major: a gather of whole rows reads each once
        self.codes = codes
        self.order = len(rows)
        self._radices = np.asarray(backend.radices)
        self._least_radix = min(backend.radices)
        self._dense = _is_dense(codes)
        if self._dense and len(rows) and not self._in_radices(rows):
            raise GroupError("a stored row of a dense chart leaves its column radices")
        self.field = field
        self.kind = kind
        try:
            self.identity = int(self.index_of_rows(backend.identity_row()[None, :])[0])
        except GroupError:
            raise GroupError("identity not present in the universe") from None
        n = self.order
        self._table = None
        self._table_cap = TABLE_CAP
        self._inv = None
        self._orders = None
        self._center = None
        self._classes = None
        self._lcs = None
        self._memo: dict = {}
        if generators is None:
            generators = self.basis()
            assume_generates = True
        self.generators = [int(g) for g in generators]
        for g in self.generators:
            if not 0 <= g < n:
                raise GroupError("generator index out of range")
        self.nontrivial_generators = [g for g in dict.fromkeys(self.generators) if g != self.identity]
        # center/series/conjugacy shortcuts all lean on the generators
        # actually generating, so an unverified explicit list is checked
        # here; Dimino reads no product twice, so the proof skips the memo
        # table and a group leaves its constructor without one
        if not assume_generates and np.count_nonzero(_Span(self, self.generators, memo=False).known) != n:
            raise GroupError("declared generators do not generate the group")

    # -- primitive operations ---------------------------------------------

    def index_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Element indices of coordinate rows; GroupError for a row outside
        the universe.

        On a dense chart the code is the index, and membership is the test
        of the module docstring: check_rows rejects a row that encodes to a
        valid code without being an element (say, an hmat row whose tied
        entries disagree).  Otherwise the code is looked up in the sorted
        codes by binary search.
        """
        rows = np.asarray(rows)
        codes = self.backend.encode(rows)
        if self._dense:
            if not len(codes) or (codes.min() >= 0 and codes.max() < self.order and self._in_radices(rows)):
                try:
                    self.backend.check_rows(rows)
                    return codes
                except GroupError:
                    pass
        else:
            pos = np.minimum(np.searchsorted(self.codes, codes), self.order - 1)
            if bool(np.all(self.codes[pos] == codes)):
                return pos
        raise GroupError("product left the element universe (closure violation)")

    def _in_radices(self, rows: np.ndarray) -> bool:
        """Whether every entry of the (non-empty) rows lies in 0..radix-1
        of its column.  Whole-array bounds come first: a reduction along
        the columns of a row-major block is slow."""
        return bool(rows.min() >= 0 and (rows.max() < self._least_radix
                                         or np.all(rows.max(axis=0) < self._radices)))

    def _mul_index_raw(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Products, CHUNK_PRODUCTS at a time (all at once would peak memory)."""
        if len(i) > CHUNK_PRODUCTS:
            return np.concatenate([self._mul_index_raw(i[s:s + CHUNK_PRODUCTS], j[s:s + CHUNK_PRODUCTS])
                                   for s in range(0, len(i), CHUNK_PRODUCTS)])
        return self.index_of_rows(self.backend.mul_rows(self.rows.take(i, axis=0), self.rows.take(j, axis=0)))

    def mul_many(self, i, j) -> np.ndarray:
        """Products i * j of element indices in 0..n-1, broadcast together.

        Up to TABLE_CAP they are memoized (module docstring).  A read does
        not check its indices, which would cost as much as the read; the
        misses are checked before they are stored, so no entry is ever
        stored under a pair it is not the product of.
        """
        i = _as_index_array(i)
        j = _as_index_array(j)
        if i.shape != j.shape:  # broadcast_arrays costs more than a small batch's read
            i, j = np.broadcast_arrays(i, j)
        shape = i.shape
        i = i.ravel()
        j = j.ravel()
        n = self.order
        if n <= self._table_cap:
            if self._table is None:
                self._table = np.zeros(n * n, dtype=np.int16)  # product + 1; 0 is unknown
            flat = i * n + j
            out = self._table.take(flat).astype(np.int64)
            out -= 1
            miss = out < 0
            if miss.any():
                im, jm = i[miss], j[miss]
                if im.view(np.uint64).max() >= n or jm.view(np.uint64).max() >= n:
                    raise IndexError(f"element index out of range 0..{n - 1}")
                prod = self._mul_index_raw(im, jm)
                self._table.put(flat[miss], prod + 1)
                out[miss] = prod
            return out.reshape(shape)
        return self._mul_index_raw(i, j).reshape(shape)

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_many(i, j))

    def inv_many(self, i) -> np.ndarray:
        """Inverses, each row inverted (in CHUNK_PRODUCTS slices) and checked
        against the universe the first time it is asked for."""
        i = _as_index_array(i)
        if self._inv is None:
            self._inv = np.full(self.order, -1, dtype=np.int64)
        out = self._inv[i]
        miss = out < 0
        if miss.any():
            new = sorted_unique(i[miss])
            for s in range(0, len(new), CHUNK_PRODUCTS):  # all rows at once would peak memory
                part = new[s:s + CHUNK_PRODUCTS]
                self._inv[part] = self.index_of_rows(self.backend.inv_rows(self.rows.take(part, axis=0)))
            out = self._inv[i]
        return out

    def inv(self, i: int) -> int:
        return int(self.inv_many(i))

    def describe(self, i: int) -> str:
        return self.backend.describe_row(self.rows[i])

    def conjugate_many(self, x, g) -> np.ndarray:
        """g^-1 * x * g, vectorized."""
        g = _as_index_array(g)
        return self.mul_many(self.mul_many(self.inv_many(g), x), g)

    def commutator_many(self, a, b) -> np.ndarray:
        """[a, b] = a^-1 b^-1 a b, vectorized."""
        left = self.mul_many(self.inv_many(a), self.inv_many(b))
        return self.mul_many(self.mul_many(left, a), b)

    def commutator(self, a: int, b: int) -> int:
        return int(self.commutator_many(a, b))

    def power_many(self, i, e: int) -> np.ndarray:
        i = _as_index_array(i)
        e = int(e)
        if e < 0:
            return self.power_many(self.inv_many(i), -e)
        out = np.full(i.shape, self.identity, dtype=np.int64)
        base = i
        while e:
            if e & 1:
                out = self.mul_many(out, base)
            if e > 1:
                base = self.mul_many(base, base)
            e >>= 1
        return out

    def power(self, i: int, e: int) -> int:
        return int(self.power_many(i, e))

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            n = self.order
            orders = np.ones(n, dtype=np.int64)
            cur = np.arange(n, dtype=np.int64)
            alive = cur != self.identity
            base = np.arange(n, dtype=np.int64)
            while alive.any():
                idx = np.nonzero(alive)[0]
                cur[idx] = self.mul_many(cur[idx], base[idx])
                orders[idx] += 1
                alive[idx] = cur[idx] != self.identity
            self._orders = orders
        return self._orders

    def element_order(self, i: int) -> int:
        return int(self.element_orders()[i])

    def exponent(self) -> int:
        return int(math.lcm(*sorted_unique(self.element_orders()).tolist()))

    @property
    def prime(self) -> int:
        """Smallest prime factor of the order (the prime, for p-groups)."""
        n = self.order
        if n == 1:
            raise GroupError("trivial group has no prime")
        d = 2
        while d * d <= n:
            if n % d == 0:
                return d
            d += 1
        return n

    def is_prime_power(self) -> bool:
        if self.order == 1:
            return True
        p = self.prime
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

    def is_abelian(self) -> bool:
        return _commute_pairwise(self, self.generators)

    # -- subgroup machinery ------------------------------------------------

    def subgroup(self, members) -> Subgroup:
        return Subgroup(self, members)

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, [self.identity], check=False)

    def full_subgroup(self) -> Subgroup:
        return Subgroup(self, np.arange(self.order), check=False)

    def closure_members(self, gens) -> np.ndarray:
        """Members of the subgroup generated by gens, as a sorted index array
        (Dimino's closure, see _Span)."""
        return np.flatnonzero(_Span(self, gens).known)

    def closure(self, gens) -> Subgroup:
        return Subgroup(self, self.closure_members(gens), check=False)

    def basis(self, members=None, floor=None) -> list[int]:
        """Least-index picks that span <members> over <floor>.

        Walks the sorted members (default: the whole group) and picks the
        least one outside the span of floor and the earlier picks, so the
        picks together with floor generate <members, floor>.  On a p-group
        with floor the Frattini subgroup, the picks are a minimal generating
        set: d = log_p |G : Phi(G)| of them (Burnside's basis theorem).
        Each pick grows the one span by its new cosets.
        """
        members = np.arange(self.order) if members is None else sorted_unique(_as_index_array(members))
        span = _Span(self, [] if floor is None else floor)
        start = len(span.used)
        span.extend(members)
        return span.used[start:]

    def normal_closure_members(self, members) -> np.ndarray:
        """Smallest normal subgroup containing members, as a sorted index array.

        Grows one span: whenever a conjugate of one of its generators falls
        outside it, the conjugate joins it.  At the fixed point every
        conjugate of every generator lies in the subgroup, which therefore is
        normal (conjugation by the group's generators reaches all
        conjugations).
        """
        span = _Span(self, members)
        while True:
            used = np.asarray(span.used, dtype=np.int64)
            # used itself heads the list, so it is never empty; its members are known
            conj = np.concatenate([used] + [self.conjugate_many(used, g) for g in self.nontrivial_generators])
            fresh = sorted_unique(conj[~span.known[conj]])
            if not len(fresh):
                return np.flatnonzero(span.known)
            for s in fresh.tolist():
                span.add(s)

    def center(self) -> Subgroup:
        if self._center is None:
            mask = np.ones(self.order, dtype=bool)
            for g in self.nontrivial_generators:
                cand = np.flatnonzero(mask)
                mask[cand[self.mul_many(cand, g) != self.mul_many(g, cand)]] = False
            self._center = Subgroup(self, np.flatnonzero(mask), check=False)
        return self._center

    def centralizer(self, x: int) -> Subgroup:
        """C(x).  C(xz) = C(x) for central z, so past the memo table C(x)
        is the union of the cosets of Z whose representatives commute with x:
        2 |G/Z| products (_CenterCosets)."""
        chart = self._center_cosets()
        if chart is None:
            return self.centralizer_in(self.full_subgroup(), x)
        return Subgroup(self, chart.centralizer(x), check=False)

    def centralizer_in(self, a: Subgroup, x: int) -> Subgroup:
        if a.parent is not self:
            raise GroupError("subgroup belongs to a different group")
        mem = a.members
        ok = self.mul_many(mem, x) == self.mul_many(x, mem)
        return Subgroup(self, mem[ok], check=False)

    # -- conjugacy ---------------------------------------------------------

    def conjugacy_classes(self) -> ConjugacyReport:
        """Classes as connected components of the generator-conjugation maps.

        Conjugation by each generator is a permutation of the index set;
        min-label flooding along those permutations (both directions) makes
        every element carry the least index of its class, so class ids come
        out ordered by their minimal representatives.  Inside the memo table
        the permutation conjugates every element (2n products, mostly table
        reads).  Past it, (xz)^g = x^g z for central z fixes the permutation
        by its values on one representative of each coset of Z: 2 |G/Z|
        products per generator (_CenterCosets).  The flood leaves each
        class's least index on itself, so those fixed points are the class
        representatives, and their running count numbers the classes.
        """
        if self._classes is None:
            n = self.order
            chart = self._center_cosets()
            idx = np.arange(n, dtype=np.int64)
            moves = []
            for g in self.nontrivial_generators:
                img = self.conjugate_many(idx, g) if chart is None else chart.conjugation(g)
                back = np.empty(n, dtype=np.int64)
                back[img] = idx
                moves.append(img)
                moves.append(back)
            labels = _flood_min(moves, n)
            is_rep = labels == idx
            class_of = (np.cumsum(is_rep) - 1)[labels]
            sizes = np.bincount(class_of)
            self._classes = ConjugacyReport(
                class_of=class_of,
                class_reps=np.flatnonzero(is_rep).tolist(),
                class_sizes=sizes.tolist(),
                conjugate_type=sorted(set(sizes.tolist())),
            )
        return self._classes

    def conjugate_type(self) -> list[int]:
        return self.conjugacy_classes().conjugate_type

    def class_size_of(self) -> np.ndarray:
        rep = self.conjugacy_classes()
        return np.asarray(rep.class_sizes, dtype=np.int64)[rep.class_of]

    # -- series and class --------------------------------------------------

    def derived_subgroup(self) -> Subgroup:
        return self.lower_central_series()[1] if self.order > 1 else self.trivial_subgroup()

    def lower_central_series(self) -> list[Subgroup]:
        """gamma_1 >= gamma_2 >= ..., ending at the first repeated term.

        Each step commutates a generating set of the previous term against
        the group generators; the normal closure of those values is the next
        term, since [H, G] is generated as a normal subgroup by commutators
        of generators.
        """
        if self._lcs is None:
            series = [self.full_subgroup()]
            gen_arr = np.asarray(self.nontrivial_generators, dtype=np.int64)
            while True:
                prev = series[-1]
                prev_gens = gen_arr if len(series) == 1 else prev.members
                if len(gen_arr) and len(prev_gens):
                    comms = self.commutator_many(
                        np.repeat(prev_gens, len(gen_arr)), np.tile(gen_arr, len(prev_gens))
                    )
                    seed = sorted_unique(comms)
                else:
                    seed = np.array([self.identity], dtype=np.int64)
                nxt = self.normal_closure_members(seed)
                if len(nxt) == len(prev.members) and np.array_equal(nxt, prev.members):
                    break
                series.append(Subgroup(self, nxt, check=False))
                if len(nxt) == 1:
                    break
            self._lcs = series
        return self._lcs

    def nilpotency_class(self) -> int:
        series = self.lower_central_series()
        if series[-1].order != 1:
            raise GroupError(f"{self.name} is not nilpotent")
        return len(series) - 1 if len(series) > 1 else 0

    def gamma(self, k: int) -> Subgroup:
        """k-th lower central term (1-based); constant once the series hits 1."""
        series = self.lower_central_series()
        if k < 1:
            raise GroupError("lower central index must be >= 1")
        return series[min(k, len(series)) - 1]

    def _center_cosets(self) -> "_CenterCosets | None":
        """The chart of G on the cosets of its center, built once; None
        inside the memo table, whose reads keep the per-element paths cheap,
        and when |Z| > |G/Z|, where the |Z|^2 products of zmul would
        outnumber the n of the whole group."""
        if self.order <= self._table_cap:
            return None
        return self.remember("center_cosets",
                             lambda: _CenterCosets(self) if self.center().order ** 2 <= self.order else None)

    def remember(self, key, build):
        """build(), run on the first call with this key; later calls read
        the stored result.  A build that raises stores nothing."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- quotient ----------------------------------------------------------

    def central_quotient(self) -> "FiniteGroup":
        """G/Z(G), built once."""
        return self.remember("central_quotient", lambda: self.quotient(self.center()))

    def quotient(self, n_sub: Subgroup, name: str | None = None) -> "FiniteGroup":
        """G/N for a normal subgroup N, its elements the cosets xN.

        Each coset is represented by its least member, min(xN), and coset
        ids are ordered by those leaders.  The cosets come from one Dimino
        span (_Span) grown from N and then through the generators of G:
        it lists G coset by coset, each coset Ny as n_k * y in the span's
        one order of N, which starts at the identity.  That costs about n
        products (plus one per coset representative and generator) for
        every N, instead of the n * |N| of multiplying the group by every
        member of N; the normality check adds 2 * |N| products per
        generator of G.
        """
        if n_sub.parent is not self:
            raise GroupError("subgroup belongs to a different group")
        mem = n_sub.members
        for g in self.nontrivial_generators:
            if not bool(np.all(n_sub.contains_many(self.conjugate_many(mem, g)))):
                raise GroupError("quotient by a non-normal subgroup")
        span = _Span(self, [])
        span.extend(mem)
        span.extend(self.nontrivial_generators)
        qb = QuotientBackend(self, span.members.reshape(-1, len(mem)))
        return FiniteGroup(name or f"{self.name} / {n_sub.order}", qb, np.arange(len(qb.leaders))[:, None],
                           generators=sorted_unique(qb.coset_of[self.generators]).tolist(),
                           field=self.field, assume_generates=True)

    # -- structural predicates --------------------------------------------

    def centralizer_orders_in(self, a: Subgroup) -> np.ndarray:
        """|C_A(x)| for every element x, vectorized over the whole group."""
        mem = a.members
        n = self.order
        counts = np.zeros(n, dtype=np.int64)
        chunk = max(1, 4 * 10**6 // max(1, len(mem)))
        for start in range(0, n, chunk):
            xs = np.arange(start, min(start + chunk, n), dtype=np.int64)
            left = self.mul_many(xs[:, None], mem[None, :])
            right = self.mul_many(mem[None, :], xs[:, None])
            counts[xs] = (left == right).sum(axis=1)
        return counts

    def camina_check(self) -> bool:
        """Whether every class outside the derived subgroup is a full coset."""
        der = self.derived_subgroup()
        if der.order == 1 or der.order == self.order:
            raise GroupError("Camina check is undefined for degenerate derived subgroups")
        sizes = self.class_size_of()
        outside = ~der.membership_mask()
        return bool(np.all(sizes[outside] == der.order))

    # -- identity suite ----------------------------------------------------

    def check_class3_identities(self, samples: int = 10**4) -> dict:
        """Commutator identities valid in nilpotency class <= 3 (odd p).

        Exhaustive over all element tuples when the order n is at most
        IDENTITY_EXHAUSTIVE_LIMIT (read at call time), otherwise over the
        random tuples of default_rng(0), which go through mul_many and
        commutator_many, each bracket asked once per tuple: [[a,b],c]
        serves three identities, and [[a,b],a], [[a,b],b] every exponent s.
        Returns a report dict per identity: {passed, checked,
        counterexample}, the counterexample being the first failing tuple
        in order.  Both paths read the powers x^s, s < p, from one table
        built as x^s = x^(s-1) * x: (p - 2) * n products.

        The exhaustive path tabulates M[x, y] = x*y and C[x, y] = [x, y],
        n x n int32, through mul_many and commutator_many, so every product
        is computed (and its row checked against the universe) once.  It
        walks the triples one a-plane at a time: each plane checks every
        (b, c) as n x n gathers from M and C, most of them reads of the
        plane T[b, c] = [[a, b], c] = C[C[a]] (T.T is [[a, c], b]).  Planes
        run in increasing a, so the first failure of the first failing plane
        is the first failing triple in flat order a*n**2 + b*n + c.  The
        exponents (i, j, k) of power_commutator_collapse are the base-p
        digits of that flat index mod p**3, which depend on a only through
        the residue a*n**2 mod p**3 (0 once n >= p**2): their tables are
        built once per residue.  The n**2 pairs are read from M and C in
        one pass.
        """
        if self.nilpotency_class() > 3:
            raise GroupError("identity suite requires nilpotency class <= 3")
        if not self.is_prime_power():
            raise GroupError("identity suite requires a p-group")
        n = self.order
        p = self.prime if n > 1 else 3
        e = self.identity
        zmask = self.center().membership_mask()
        pow_t = np.empty((p, n), dtype=np.int64)  # pow_t[s, x] = x^s, one row of n products per s
        pow_t[0], pow_t[1] = e, np.arange(n)
        for s in range(2, p):
            pow_t[s] = self.mul_many(pow_t[s - 1], pow_t[1])
        names = (
            "central_pair_triple_vanishes",
            "central_commutator_swap",
            "product_expansion",
            "power_expansion",
            "power_commutator_collapse",
        )
        report = {name: {"passed": True, "checked": 0, "counterexample": None} for name in names}

        def record(name, checked, bad, tuples):
            entry = report[name]
            entry["checked"] += int(checked)
            if entry["passed"] and bad.any():
                k = int(bad.argmax())
                entry["passed"] = False
                entry["counterexample"] = tuple(self.describe(int(t[k])) for t in tuples)

        if n > IDENTITY_EXHAUSTIVE_LIMIT:
            mul, comm = self.mul_many, self.commutator_many
            rng = np.random.default_rng(0)
            a, b, c = (rng.integers(0, n, samples) for _ in range(3))
            # triple commutator vanishes when both inner commutators are central
            cac, cbc, cab = comm(a, c), comm(b, c), comm(a, b)
            cond = zmask[cac] & zmask[cbc]
            cabc = comm(cab, c)
            triple = cabc[cond]
            record(names[0], len(triple), triple != e, (a[cond], b[cond], c[cond]))
            # central [a,b] makes [[a,t],b] and [[b,t],a] agree
            cond = zmask[cab]
            aa, bb, tt = a[cond], b[cond], c[cond]
            ok = comm(comm(aa, tt), bb) == comm(comm(bb, tt), aa)
            record(names[1], len(ok), ~ok, (aa, bb, tt))
            # [ab,c] = [a,c][b,c][[a,c],b] and [a,bc] = [a,b][a,c][[a,b],c]
            ok = comm(mul(a, b), c) == mul(mul(cac, cbc), comm(cac, b))
            ok &= comm(a, mul(b, c)) == mul(mul(cab, cac), cabc)
            record(names[2], samples, ~ok, (a, b, c))
            # [a^i,b^j,c^k] = [[a,b],c]^(ijk), (i, j, k) cycling through GF(p)^3
            t = np.arange(samples) % p**3
            i, j, k = t // (p * p), t // p % p, t % p
            ok = comm(comm(pow_t[i, a], pow_t[j, b]), pow_t[k, c]) == pow_t[i * j * k % p, cabc]
            record(names[4], samples, ~ok, (a, b, c))
            a, b = rng.integers(0, n, samples), rng.integers(0, n, samples)
        else:
            b, c = np.divmod(np.arange(n * n, dtype=np.int64), n)  # a plane's (b, c), flat
            M = self.mul_many(b, c).astype(np.int32).reshape(n, n)
            C = self.commutator_many(b, c).astype(np.int32).reshape(n, n)
            zC, CT, pw = zmask[C], np.ascontiguousarray(C.T), pow_t.astype(np.int32)
            digits = {}
            for a in range(n):
                ca = C[a]
                T = C[ca]
                at = (np.full(n * n, a), b, c)
                cond = zC[a] & zC
                record(names[0], np.count_nonzero(cond), cond & (T != e), at)
                cond = zmask[ca][:, None]
                record(names[1], n * np.count_nonzero(cond), cond & (T.T != CT[a].take(C)), at)
                ok = C[M[a]] == M.take(M.take(ca * n + C) * n + T.T)
                ok &= ca.take(M) == M.take(M[ca][:, ca] * n + T)
                record(names[2], n * n, ~ok, at)
                r = a * n * n % p**3
                if r not in digits:  # [a^i, b^j] is row i of C[pw[:, a]] at b^j
                    t = (r + np.arange(n * n, dtype=np.int32).reshape(n, n)) % p**3
                    i, j, k = t // (p * p), t // p % p, t % p
                    digits[r] = (i * n + pw.take(j * n + b.reshape(n, n)),
                                 pw.take(k * n + c.reshape(n, n)), i * j * k % p * n)
                ij, kc, ijk = digits[r]
                lhs = C.take(C[pw[:, a]].take(ij) * n + kc)
                record(names[4], n * n, lhs != pw.take(ijk + T), at)
            a, b = b, c  # the n**2 pairs

            def mul(u, v):
                return M.take(u * n + v)

            def comm(u, v):
                return C.take(u * n + v)

        # [a^s,b] = [a,b]^s [[a,b],a]^(s(s-1)/2), and dually in the second slot
        ok = np.ones(len(a), dtype=bool)
        cab = comm(a, b)
        caba, cabb = comm(cab, a), comm(cab, b)
        for s in range(p):
            binom = (s * (s - 1) // 2) % p
            cs = pow_t[s, cab]
            ok &= comm(pow_t[s, a], b) == mul(cs, pow_t[binom, caba])
            ok &= comm(a, pow_t[s, b]) == mul(cs, pow_t[binom, cabb])
        record(names[3], len(a), ~ok, (a, b))
        return report


def _is_dense(codes: np.ndarray) -> bool:
    """Whether sorted codes are exactly 0..n-1, so a code is its index."""
    return np.array_equal(codes, np.arange(len(codes)))


def _flood_min(moves, n: int) -> np.ndarray:
    """Each of 0..n-1 flooded to the least index it reaches along the
    permutations in moves (min-label flooding with path compression)."""
    labels = np.arange(n, dtype=np.int64)
    while True:
        before = labels.copy()
        for img in moves:  # in place: one fewer array of n per move
            np.minimum(labels, labels.take(img), out=labels)
        labels = labels.take(labels)  # path compression
        if np.array_equal(labels, before):
            return labels


class _CenterCosets:
    """G as the cosets of its center Z, for central z: (yz)^g = y^g z and
    C(yz) = C(y), so conjugation and centralizers are fixed by their values
    on one representative y of each coset of G/Z (the lifting step of class
    computation through a central series: Mecky & Neubueser, Bull. Austral.
    Math. Soc. 40, 1989).

    pos is the cosets array of central_quotient(), pos[c, k] = z[k] * y_c
    with z = pos[coset_of[e]] Z's own listing, which starts at the
    identity, and reps[c] = y_c = pos[c, 0]; so the chart costs no product
    beyond the quotient.  slot[pos[c, k]] = k, and zmul[k', k] = slot of
    z[k'] * z[k] (|Z|^2 products).
    """

    def __init__(self, group: FiniteGroup):
        qb = group.central_quotient().backend
        self.group = group
        self.pos, self.coset_of = qb.cosets, qb.coset_of
        self.reps = self.pos[:, 0]
        z = self.pos[self.coset_of[group.identity]]
        self.slot = np.empty(group.order, dtype=np.int64)
        self.slot[self.pos] = np.arange(len(z))
        self.zmul = self.slot[group.mul_many(z[:, None], z[None, :])]

    def conjugation(self, g: int) -> np.ndarray:
        """x -> g^-1 x g on 0..n-1: with y^g = y' z[slot[y^g]] for the
        representative y' of its coset, (y z[k])^g = y' z[zmul[slot[y^g], k]]."""
        cl = self.group.conjugate_many(self.reps, g)
        img = np.empty(self.group.order, dtype=np.int64)
        img[self.pos] = self.pos[self.coset_of[cl][:, None], self.zmul[self.slot[cl]]]
        return img

    def centralizer(self, x: int) -> np.ndarray:
        """Sorted members of C(x): the cosets whose representatives commute with x."""
        g = self.group
        return sorted_unique(self.pos[g.mul_many(self.reps, x) == g.mul_many(x, self.reps)])


class _Span:
    """H = <used>, grown one generator at a time by whole right cosets
    (Dimino; Butler, Fundamental Algorithms for Permutation Groups, 1991).

    known marks H's members; members lists them coset by coset.  add(s)
    makes H <H, s>: the first new coset is H*s, and each new coset H*r
    offers candidates r*t, t in used, whose unknown ones represent the next
    cosets.  A wave computes its cosets H*r and their candidates in one
    mul_many call; while H is {e}, H*r = {r}
    costs no product.  Cosets of one wave with the same least member are
    one coset, kept once.  The result is closed under right multiplication
    by every generator (each r*t lies in a known coset), so it is <used>.
    """

    def __init__(self, group: FiniteGroup, gens, memo: bool = True):
        self.mul = group.mul_many if memo else group._mul_index_raw
        self.known = np.zeros(group.order, dtype=bool)
        self.known[group.identity] = True
        self.members = np.array([group.identity], dtype=np.int64)
        self.used: list[int] = []
        self.extend(gens)

    def extend(self, gens) -> None:
        """add(s) for each s of gens in order, one vectorized filter per
        pick: the members already in H are skipped."""
        gens = _as_index_array(gens).ravel()
        while len(gens := gens[~self.known[gens]]):
            self.add(int(gens[0]))

    def add(self, s: int) -> None:
        if self.known[s]:
            return
        self.used.append(s)
        h, used = self.members, np.asarray(self.used, dtype=np.int64)
        blocks = [h]
        reps = np.array([s], dtype=np.int64)
        while len(reps):
            width = len(h) if len(h) > 1 else 0  # a coset of {e} is its representative
            left = np.concatenate([np.tile(h[:width], len(reps)), np.repeat(reps, len(used))])
            right = np.concatenate([np.repeat(reps, width), np.tile(used, len(reps))])
            prods = self.mul(left, right)
            cosets = prods[:width * len(reps)].reshape(len(reps), width) if width else reps[:, None]
            first = np.unique(cosets.min(axis=1), return_index=True)[1]
            cosets = cosets[first]
            self.known[cosets] = True
            blocks.append(cosets.ravel())
            cand = prods[width * len(reps):].reshape(len(reps), len(used))[first].ravel()
            reps = sorted_unique(cand[~self.known[cand]])
        self.members = np.concatenate(blocks)


def _commute_pairwise(g: FiniteGroup, elems) -> bool:
    """Whether elems commute pairwise: <elems> is abelian exactly then."""
    e = _as_index_array(elems)
    a, b = np.repeat(e, len(e)), np.tile(e, len(e))
    return bool(np.all(g.mul_many(a, b) == g.mul_many(b, a)))


def is_homomorphism(a: FiniteGroup, b: FiniteGroup, domain, gens, image) -> bool:
    """Whether domain[k] -> image[k] respects products, for domain the
    sorted members of a subgroup of a (np.arange(a.order) for a itself)
    and gens a generating set of it.

    Checks phi(x*s) = phi(x)*phi(s) for every x in domain and s in gens:
    x = e gives phi(e) = e, and induction on word length gives phi(x*y) =
    phi(x)*phi(y) for every y in <gens> (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005).  That is |domain| * |gens| products
    on each side, one mul_many call per side, and exact at every order.
    """
    domain, gens, image = (_as_index_array(x) for x in (domain, gens, image))
    prods = a.mul_many(domain[:, None], gens[None, :])
    edges = np.concatenate([gens, prods.ravel()])
    at = np.minimum(np.searchsorted(domain, edges), len(domain) - 1)
    if not np.array_equal(domain[at], edges):
        return False  # a generator or a product outside the domain
    rhs = b.mul_many(image[:, None], image[at[:len(gens)]][None, :])
    return bool(np.array_equal(image[at[len(gens):]], rhs.ravel()))


class QuotientBackend(Backend):
    """Cosets of a normal subgroup of parent, given as cosets, one coset
    per row.  The rows are sorted by their least members, the leaders; a
    row of G/N holds a coset id, the position of its coset in that order,
    and coset_of maps each parent index to its coset id.  Products and
    inverses are taken on the leaders in parent and read back through
    coset_of.  FiniteGroup.quotient stores the ids 0..n-1, so G/N is a
    dense chart.
    """

    def __init__(self, parent: FiniteGroup, cosets: np.ndarray):
        leaders = cosets.min(axis=1)
        order = np.argsort(leaders)
        self.parent = parent
        self.cosets = cosets[order]
        self.leaders = leaders[order]
        self.coset_of = np.empty(parent.order, dtype=np.int64)
        self.coset_of[self.cosets] = np.arange(len(order))[:, None]
        self.width = 1
        self.radices = (len(order),)

    def identity_row(self) -> np.ndarray:
        return np.array([self.coset_of[self.parent.identity]], dtype=np.int64)

    def mul_rows(self, a, b):
        lead = self.leaders
        return self.coset_of.take(self.parent.mul_many(lead.take(a.ravel()), lead.take(b.ravel())))[:, None]

    def inv_rows(self, a):
        return self.coset_of.take(self.parent.inv_many(self.leaders.take(a.ravel())))[:, None]

    def describe_row(self, row) -> str:
        return self.parent.describe(int(self.leaders[row[0]])) + "N"
