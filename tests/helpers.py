"""Group utilities that only the tests use, built on the engine's public API.

relabel renames the elements of a group by a permutation (through
RelabeledBackend, on the one FiniteGroup constructor), breadth and
breadth_set measure centralizer indices, and label gives an element's
canonical byte encoding.
"""

import math

import numpy as np

from pgf.engine import Backend, FiniteGroup, GroupError, Subgroup


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
