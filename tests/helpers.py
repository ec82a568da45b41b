"""Group utilities that only the tests use, built on the engine's public API.

from_closure builds a group as the breadth-first closure of generator rows,
an oracle for the builders that enumerate a full coordinate chart; relabel
renames the elements of a group by a permutation (through RelabeledBackend,
on the one FiniteGroup constructor), breadth and breadth_set measure
centralizer indices, label gives an element's canonical byte encoding, and
cayley_table tabulates every product without mul_many.
"""

import math

import numpy as np

from pgf.engine import DEFAULT_CAP, Backend, CapExceeded, FiniteGroup, GroupError, Subgroup


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
