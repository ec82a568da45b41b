"""Symbolic proofs over Z[coordinates] for the quint product rule.

The rule of QuintupleBackend is a polynomial map, so an identity between
polynomials with integer coefficients holds over every field, GF(p^m)
included.  Two facts are proved here: the rule is associative with
inverse (-a, -b, ab - c, -d, -e), and quintuple_commutator_oracle's closed
form is g^-1 h^-1 g h.  The symbolic rule is tied to the engine by
evaluating it, and the closed form, on every pair of quint:p=3,m=1.  A
rule with one mutated coefficient fails both the proofs and the tie.
"""

import numpy as np
import pytest

from pgf.constructions import build_group

from helpers import quintuple_commutator_oracle

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
