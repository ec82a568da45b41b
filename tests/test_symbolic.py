"""Symbolic proofs over Z[coordinates] for the quint and hmat product rules.

The rule of QuintupleBackend and the 5x5 matrix product are polynomial
maps, so an identity between polynomials with integer coefficients holds
over every field, GF(p^m) included.  For quint, the rule is associative
with inverse (-a, -b, ab - c, -d, -e), and quintuple_commutator_oracle's
closed form is g^-1 h^-1 g h.  For hmat, the product of two patterned
matrices is patterned, the corner entry (4,0) feeds no other entry of a
product or an inverse in U5 (so hmod, hmat with its corner zeroed, is a
quotient of hmat), and dropping the corner from a patterned product is the
quint rule.  Each symbolic rule is tied to the engine by evaluating it on
every pair of quint:p=3,m=1, or of hmat:p=3,m=1 against
PatternedU5Backend.mul_rows.  A rule with one mutated coefficient, or a
pattern with one mutated tie, fails both the proofs and the tie.
"""

import numpy as np
import pytest

from pgf.constructions import H_SLOTS, MatrixBackend, PatternedU5Backend, build_group
from pgf.fields import FieldOps, find_irreducible

from helpers import feeding_corner, quintuple_commutator_oracle

sympy = pytest.importorskip("sympy")

G = sympy.symbols("a b c d e")
H = sympy.symbols("x y z u v")
K = sympy.symbols("r s t w k")


# the coefficients of the rule's nonlinear terms, by monomial in (a..e, x..v)
COEFFS = {"bx": 1, "az": 1, "abx": 1, "cx": -1, "cy": 1, "bxy": 1, "bz": -1}


def quint_rule(g, h, coeffs=COEFFS):
    """(a,b,c,d,e)(x,y,z,u,v) as in QuintupleBackend's docstring."""
    a, b, c, d, e = g
    x, y, z, u, v = h
    k = coeffs
    return (a + x, b + y, c + z + k["bx"] * b * x,
            d + u + k["az"] * a * z + k["abx"] * a * b * x + k["cx"] * c * x,
            e + v + k["cy"] * c * y + k["bxy"] * b * x * y + k["bz"] * b * z)


def quint_inverse(g):
    a, b, c, d, e = g
    return (-a, -b, a * b - c, -d, -e)


class PolynomialOps:
    """The FieldOps calls of quintuple_commutator_oracle on sympy
    expressions: arithmetic in Z[coordinates]."""

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b


def vanishes(exprs) -> bool:
    return all(sympy.expand(t) == 0 for t in exprs)


def associative(coeffs=COEFFS) -> bool:
    left = quint_rule(quint_rule(G, H, coeffs), K, coeffs)
    right = quint_rule(G, quint_rule(H, K, coeffs), coeffs)
    return vanishes(p - q for p, q in zip(left, right))


def inverse_holds() -> bool:
    return all(vanishes(quint_rule(*pair)) for pair in ((G, quint_inverse(G)), (quint_inverse(G), G)))


def closed_form_holds(coeffs=COEFFS) -> bool:
    """g^-1 h^-1 g h under the rule equals the oracle's closed form."""
    inv = quint_rule(quint_inverse(G), quint_inverse(H), coeffs)
    comm = quint_rule(quint_rule(inv, G, coeffs), H, coeffs)
    rows = [np.array([list(G)], dtype=object), np.array([list(H)], dtype=object)]
    closed = quintuple_commutator_oracle(PolynomialOps(), *rows)[0]
    return vanishes(p - q for p, q in zip(comm, closed))


def engine_agrees(coeffs=COEFFS) -> bool:
    """The rule against QuintupleBackend.mul_rows and the closed form
    against the engine's commutator, on every pair of quint:p=3,m=1."""
    g = build_group("quint:p=3,m=1")
    n, p = g.order, g.field.p
    i, j = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    a, b = g.rows[i].astype(np.int64), g.rows[j].astype(np.int64)
    rule = sympy.lambdify(G + H, quint_rule(G, H, coeffs), "numpy")
    products = np.stack(np.broadcast_arrays(*rule(*a.T, *b.T)), axis=1) % p
    comm = quintuple_commutator_oracle(g.backend.ops, g.rows[i], g.rows[j])
    return (np.array_equal(products, g.backend.mul_rows(g.rows[i], g.rows[j]))
            and np.array_equal(comm, g.rows[g.commutator_many(i, j)]))


def test_quint_rule_is_associative_with_its_inverse():
    assert associative()
    assert inverse_holds()


def test_commutator_closed_form_is_the_commutator():
    assert closed_form_holds()


def test_rule_and_closed_form_match_the_engine_on_all_pairs():
    assert engine_agrees()


@pytest.mark.parametrize("term", list(COEFFS))
def test_a_mutated_coefficient_fails_the_proofs_and_the_tie(term):
    # doubled, each coefficient moves by a unit mod 3
    mutated = {**COEFFS, term: 2 * COEFFS[term]}
    assert not associative(mutated)
    assert not closed_form_holds(mutated)
    assert not engine_agrees(mutated)


# -- hmat: the pattern and its corner ------------------------------------------

POSITIONS = [(r, c) for r in range(5) for c in range(r)]  # MatrixBackend's packed order
A6 = sympy.symbols("a b c d e f")
X6 = sympy.symbols("x y z u v w")

# the coefficients of the pattern's tied entries, as PatternedU5Backend
# checks them: (3,2) = a, (4,3) = b, (4,2) = c, (3,1) = ab - c
TIES = {"a2": 1, "b2": 1, "c2": 1, "ab": 1, "c": -1}


def pattern(params, ties=TIES):
    """The patterned 5x5 matrix of free parameters (a, b, c, d, e, f)."""
    a, b, c, d, e, f = params
    k = ties
    m = sympy.eye(5)
    m[1, 0], m[2, 0], m[2, 1], m[3, 0], m[4, 0], m[4, 1] = a, c, b, d, f, e
    m[3, 1] = k["ab"] * a * b + k["c"] * c
    m[3, 2], m[4, 3], m[4, 2] = k["a2"] * a, k["b2"] * b, k["c2"] * c
    return m


def free_parameters(m):
    """(a, b, c, d, e, f) of a patterned matrix."""
    return m[1, 0], m[2, 1], m[2, 0], m[3, 0], m[4, 1], m[4, 0]


def pattern_closed(ties=TIES) -> bool:
    """A patterned product is the patterned matrix of its free entries."""
    prod = pattern(A6, ties) * pattern(X6, ties)
    return vanishes(prod - pattern(free_parameters(prod), ties))


def corner_feeds_nothing() -> bool:
    """In U5, no entry of A*B or of A^-1 but (4,0) holds A's or B's (4,0)
    entry; A^-1 is the finite Neumann series of A - I, checked against A."""
    a, b = (sympy.Matrix(5, 5, lambda r, c: sympy.Symbol(f"{name}{r}{c}") if r > c else int(r == c))
            for name in "ab")
    n = a - sympy.eye(5)
    inv = sum(((-n) ** k for k in range(1, 5)), sympy.eye(5))
    corner = {a[4, 0], b[4, 0]}
    prod = a * b
    return vanishes(a * inv - sympy.eye(5)) and not any(
        (prod[rc].free_symbols | inv[rc].free_symbols) & corner for rc in POSITIONS if rc != (4, 0))


def corner_dropped_is_the_quint_rule(ties=TIES) -> bool:
    prod = pattern(A6, ties) * pattern(X6, ties)
    return vanishes(p - q for p, q in zip(free_parameters(prod)[:5], quint_rule(A6[:5], X6[:5])))


def pattern_backend_agrees(ties=TIES, back_class=PatternedU5Backend) -> bool:
    """The symbolic patterned product against the backend's mul_rows, and
    the corner lemma against it (zeroing both operands' corners moves the
    product at (4,0) alone), on every pair of hmat:p=3,m=1."""
    g = build_group("hmat:p=3,m=1")
    back = back_class(g.backend.ops)
    n, p, f = g.order, g.field.p, H_SLOTS["f"]
    prod = pattern(A6, ties) * pattern(X6, ties)
    rule = sympy.lambdify(A6 + X6, [prod[rc] for rc in POSITIONS], "numpy")
    params = g.rows[:, [H_SLOTS[t] for t in "abcdef"]].astype(np.int64)
    cornerless = g.rows.copy()
    cornerless[:, f] = 0
    step = 81
    for s in range(0, n, step):  # step * n pairs at a time
        i, j = np.repeat(np.arange(s, s + step), n), np.tile(np.arange(n), step)
        got = back.mul_rows(g.rows[i], g.rows[j])
        want = np.stack(np.broadcast_arrays(*rule(*params[i].T, *params[j].T)), axis=1) % p
        if not np.array_equal(want, got):
            return False
        moved = back.mul_rows(cornerless[i], cornerless[j]) != got
        if np.any(np.delete(moved, f, axis=1)):
            return False
    return True


def test_patterned_product_is_patterned():
    assert pattern_closed()


def test_corner_feeds_no_other_entry():
    assert corner_feeds_nothing()
    # the backend agrees: slot f is in no middle pair
    f = H_SLOTS["f"]
    middle = MatrixBackend(FieldOps(find_irreducible(3, 1)), 5).middle
    assert not any(f in pair for pairs in middle for pair in pairs)


def test_dropping_the_corner_is_the_quint_rule():
    assert corner_dropped_is_the_quint_rule()


def test_pattern_and_corner_match_the_backend_on_all_pairs():
    assert pattern_backend_agrees()


def test_a_corner_that_feeds_another_entry_fails_the_tie():
    assert not pattern_backend_agrees(back_class=feeding_corner(PatternedU5Backend))


@pytest.mark.parametrize("tie", list(TIES))
def test_a_mutated_tie_fails_the_proof_and_the_tie(tie):
    # doubled, each coefficient moves by a unit mod 3
    mutated = {**TIES, tie: 2 * TIES[tie]}
    assert not pattern_closed(mutated)
    assert not pattern_backend_agrees(mutated)
