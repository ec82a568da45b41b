"""Concrete group families over GF(p^m) and the spec-string registry.

Four families share one coordinate discipline (element entries are field
codes, q-ary):

  u3     3x3 lower unitriangular matrices, order q^3
  quint  5-coordinate group (a,b,c,d,e) with polynomial multiplication,
         order q^5
  hmat   patterned subgroup of the 5x5 lower unitriangular group whose
         repeated entries tie rows together, order q^6
  hmod   hmat modulo its center, order q^5, built on the pattern rows with
         corner entry 0, one per coset of the center

plus `xab`, the direct product of any of these with an elementary abelian
group of rank k.  Group spec strings like "u3:p=3,m=2" name a family plus
field parameters and parse into GroupSpec.

u3, quint, hmat and hmod enumerate their full coordinate chart by code, so
a generator's index is its code.  The constructor's closure over the
generators proves that they generate the chart; for hmat and hmod, each
product must equal a stored pattern row, so the pattern is
multiplication-closed.  hmod never enumerates hmat: build_h_mod_center
proves on rows that its chart is hmat modulo the center.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .engine import DEFAULT_CAP, Backend, CapExceeded, FiniteGroup, GroupError, sorted_unique
from .fields import FieldOps, FieldSpec, find_irreducible


# -- backends --------------------------------------------------------------


def _pack_positions(d: int) -> list[tuple[int, int]]:
    return [(r, c) for r in range(d) for c in range(r)]


def _columns(rows: np.ndarray) -> np.ndarray:
    """The columns of a row matrix, each contiguous: field ops on them run
    about three times faster than on the strided columns of the rows."""
    return np.ascontiguousarray(rows.T)


class MatrixBackend(Backend):
    """d x d lower unitriangular matrices over GF(q), packed row-major.

    A row stores the below-diagonal entries as field codes in the order
    (1,0), (2,0), (2,1), (3,0), ...  Inversion uses the finite Neumann
    series of the nilpotent part.
    """

    def __init__(self, ops: FieldOps, d: int):
        self.ops = ops
        self.d = d
        self.positions = _pack_positions(d)
        self.pos_index = {rc: t for t, rc in enumerate(self.positions)}
        self.width = len(self.positions)
        self.radices = (ops.q,) * self.width
        # per packed slot, the (slotA, slotB) pairs of the middle terms
        self.middle = [
            [(self.pos_index[(r, l)], self.pos_index[(l, c)]) for l in range(c + 1, r)]
            for (r, c) in self.positions
        ]

    def mul_rows(self, a, b):
        ops = self.ops
        a, b = _columns(a), _columns(b)
        out = np.empty_like(a)
        for t in range(self.width):
            acc = ops.add(a[t], b[t])
            for ta, tb in self.middle[t]:
                acc = ops.fma(acc, a[ta], b[tb])
            out[t] = acc
        return out.T

    def inv_rows(self, a):
        # (I + N)^-1 = I - N + N^2 - ... with N nilpotent of degree < d
        ops = self.ops
        a = _columns(a)
        acc = ops.neg(a)
        power = a
        sign = 1
        for _ in range(2, self.d):
            nxt = np.zeros_like(a)
            for t in range(self.width):
                col = nxt[t]
                for ta, tb in self.middle[t]:
                    col = ops.fma(col, power[ta], a[tb])
                nxt[t] = col
            power = nxt
            acc = ops.add(acc, power) if sign else ops.sub(acc, power)
            sign ^= 1
        return acc.T


# packed slots of the 5x5 case, by name: a=(1,0)=0, c=(2,0)=1, b=(2,1)=2,
# d=(3,0)=3, ab-c=(3,1)=4, a=(3,2)=5, f=(4,0)=6, e=(4,1)=7, c=(4,2)=8, b=(4,3)=9
H_SLOTS = {"a": 0, "c": 1, "b": 2, "d": 3, "ab_c": 4, "a2": 5, "f": 6, "e": 7, "c2": 8, "b2": 9}


# the six free slots of the chart code, least significant first
H_CHART = ("d", "a", "f", "e", "c", "b")
# hmod's chart: the same without the corner f
HMOD_CHART = ("d", "a", "e", "c", "b")


class PatternedU5Backend(MatrixBackend):
    """The 5x5 unitriangular backend restricted to the tied-entry pattern.

    check_rows asserts the ties (a2, b2, c2 equal a, b, c) and the derived
    entry ab-c, the four slots the chart code does not read, so
    index_of_rows accepts exactly the pattern rows.  Every product goes
    through it, so the constructor's closure proof over the generators
    also proves the pattern multiplication-closed.

    A row's code is its six-parameter chart code, radix q per free slot,
    least significant first in the order H_CHART = (d, a, f, e, c, b), so
    the q^6 elements fill 0..q^6-1 and the group is a dense chart.  Among
    pattern rows this is the order of the packed 10-slot code: its five
    most significant slots (b2, c2, e, f, a2) hold b, c, e, f, a, the next
    one holds ab-c, which those fix, then comes d, and the three lowest
    slots repeat b, c, a.  So the element indices are those of the packed
    code.
    """

    chart = H_CHART

    def __init__(self, ops: FieldOps):
        super().__init__(ops, 5)

    def encode(self, rows):
        q = self.ops.q
        codes = np.zeros(len(rows), dtype=np.int64)
        for name in reversed(self.chart):
            codes *= q
            codes += rows[:, H_SLOTS[name]]
        return codes

    def check_rows(self, rows):
        ops = self.ops
        s = H_SLOTS
        if not (
            np.array_equal(rows[:, s["a2"]], rows[:, s["a"]])
            and np.array_equal(rows[:, s["b2"]], rows[:, s["b"]])
            and np.array_equal(rows[:, s["c2"]], rows[:, s["c"]])
        ):
            raise GroupError("tied entries of a patterned row disagree")
        want = ops.sub(ops.mul(rows[:, s["a"]], rows[:, s["b"]]), rows[:, s["c"]])
        if not np.array_equal(rows[:, s["ab_c"]], want):
            raise GroupError("derived entry of a patterned row disagrees")


class HModBackend(PatternedU5Backend):
    """hmat modulo its corner axis F (the rows whose only nonzero entry is
    f), on the pattern rows with f = 0: one row per coset of F.

    Slot f = (4,0) is in no middle pair (build_h_mod_center checks it), so
    f feeds no other entry of a product or an inverse: zeroing f after the
    5x5 product is the product of U5/F, and F is central in U5.  check_rows
    also asserts f = 0, and the code is the chart code over HMOD_CHART =
    (d, a, e, c, b), which orders these rows as hmat's codes order them.
    A row reads as its 5x5 pattern row followed by "N", the coset it leads.
    """

    chart = HMOD_CHART

    def mul_rows(self, a, b):
        out = super().mul_rows(a, b)
        out[:, H_SLOTS["f"]] = 0
        return out

    def inv_rows(self, a):
        out = super().inv_rows(a)
        out[:, H_SLOTS["f"]] = 0
        return out

    def check_rows(self, rows):
        super().check_rows(rows)
        if np.any(rows[:, H_SLOTS["f"]]):
            raise GroupError("a row of hmat modulo its corner axis has a nonzero corner entry")

    def describe_row(self, row) -> str:
        return super().describe_row(row) + "N"


def patterned_row(ops: FieldOps, a, b, c, d, e, f):
    """Complete six free parameters (field codes) to a packed 10-slot row."""
    a, b, c, d, e, f = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.int16) for v in (a, b, c, d, e, f))
    )
    out = np.empty(a.shape + (10,), dtype=np.int16)
    s = H_SLOTS
    out[..., s["a"]] = a
    out[..., s["c"]] = c
    out[..., s["b"]] = b
    out[..., s["d"]] = d
    out[..., s["ab_c"]] = ops.sub(ops.mul(a, b), c)
    out[..., s["a2"]] = a
    out[..., s["f"]] = f
    out[..., s["e"]] = e
    out[..., s["c2"]] = c
    out[..., s["b2"]] = b
    return out


class QuintupleBackend(Backend):
    """Rows (a,b,c,d,e) of field codes with the polynomial product rule

      (a,b,c,d,e)(x,y,z,u,v) =
        (a+x, b+y, c+z+bx, d+u+az+(ab-c)x, e+v+cy+b(xy-z))
    """

    def __init__(self, ops: FieldOps):
        self.ops = ops
        self.width = 5
        self.radices = (ops.q,) * 5

    def mul_rows(self, g, h):
        ops = self.ops
        a, b, c, d, e = _columns(g)
        x, y, z, u, v = _columns(h)
        out = np.empty((5, len(a)), dtype=g.dtype)
        out[0] = ops.add(a, x)
        out[1] = ops.add(b, y)
        out[2] = ops.fma(ops.add(c, z), b, x)
        abc = ops.sub(ops.mul(a, b), c)
        out[3] = ops.fma(ops.fma(ops.add(d, u), a, z), abc, x)
        out[4] = ops.fma(ops.fma(ops.add(e, v), c, y), b, ops.sub(ops.mul(x, y), z))
        return out.T

    def inv_rows(self, g):
        ops = self.ops
        out = ops.neg(g)
        out[:, 2] = ops.sub(ops.mul(g[:, 0], g[:, 1]), g[:, 2])
        return out


class ProductBackend(Backend):
    """Direct product of a built group with (Z/pZ)^k; the first coordinate
    is an element index of the inner group, the rest are mod-p digits."""

    def __init__(self, inner: FiniteGroup, p: int, k: int):
        self.inner = inner
        self.p = p
        self.k = k
        self.width = 1 + k
        self.radices = (inner.order,) + (p,) * k

    def identity_row(self):
        row = np.zeros(self.width, dtype=np.int64)
        row[0] = self.inner.identity
        return row

    def mul_rows(self, a, b):
        out = np.empty_like(a)
        out[:, 0] = self.inner.mul_many(a[:, 0], b[:, 0])
        out[:, 1:] = (a[:, 1:] + b[:, 1:]) % self.p
        return out

    def inv_rows(self, a):
        out = np.empty_like(a)
        out[:, 0] = self.inner.inv_many(a[:, 0])
        out[:, 1:] = (-a[:, 1:]) % self.p
        return out

    def describe_row(self, row):
        digits = ",".join(str(int(v)) for v in row[1:])
        return f"({self.inner.describe(int(row[0]))};{digits})"


# -- builders --------------------------------------------------------------


def _chart_rows(q: int, width: int) -> np.ndarray:
    """All q^width rows of field codes, laid out by code (column 0 least
    significant), so a row's index is its code."""
    return np.indices((q,) * width, dtype=np.int16).reshape(width, -1)[::-1].T


def build_u3(field: FieldSpec, cap: int = DEFAULT_CAP, name: str | None = None) -> FiniteGroup:
    """3x3 unitriangular group over GF(q) with its 2m standard generators."""
    q = field.q
    if q**3 > cap:
        raise CapExceeded(f"u3 order {q**3} exceeds cap {cap}")
    ops = FieldOps(field)
    back = MatrixBackend(ops, 3)
    apow = ops.alpha_pow
    gens = [[0, 0, apow[i]] for i in range(field.m)]
    gens += [[apow[i], 0, 0] for i in range(field.m)]
    g = FiniteGroup(
        name or f"u3:p={field.p},m={field.m}", back, _chart_rows(q, 3),
        generators=back.encode(np.array(gens, dtype=np.int16)).tolist(),
        cap=cap, field=field, kind="u3",
    )
    _check_u3_relations(g, ops)
    return g


def u3_named_elements(g: FiniteGroup) -> dict:
    """Index lists of the standard u3 elements: x[i], y[i], h[i] (0-based i).

    x_i carries alpha^i next to the diagonal on one side, y_i on the other,
    h_i = [x_0, y_i] sits in the corner.
    """
    if g.kind != "u3":
        raise GroupError("named elements are defined for the u3 family")
    ops = FieldOps(g.field)
    m = g.field.m
    apow = ops.alpha_pow
    rows_x = np.array([[0, 0, apow[i]] for i in range(m)], dtype=np.int16)
    rows_y = np.array([[apow[i], 0, 0] for i in range(m)], dtype=np.int16)
    rows_h = np.array([[0, apow[i], 0] for i in range(2 * m - 1)], dtype=np.int16)
    return {
        "x": g.index_of_rows(rows_x).tolist(),
        "y": g.index_of_rows(rows_y).tolist(),
        "h": g.index_of_rows(rows_h).tolist(),
    }


def _check_u3_relations(g: FiniteGroup, ops: FieldOps):
    """Defining relations of the u3 presentation, on the nose."""
    named = u3_named_elements(g)
    xs, ys, hs = named["x"], named["y"], named["h"]
    m = g.field.m
    p = g.field.p
    e = g.identity
    for i in range(m):
        for j in range(m):
            if g.commutator(xs[i], ys[j]) != hs[i + j]:
                raise GroupError(f"u3 relation [x_{i},y_{j}] = h_{i+j} fails")
            if g.commutator(xs[i], xs[j]) != e or g.commutator(ys[i], ys[j]) != e:
                raise GroupError("u3 same-side generators fail to commute")
    for h in hs:
        for t in xs + ys:
            if g.commutator(h, t) != e:
                raise GroupError("u3 corner elements are not central")
    for t in xs + ys + hs:
        if g.power(t, p) != e:
            raise GroupError("u3 generator fails x^p = 1")


def build_quintuple(field: FieldSpec, cap: int = DEFAULT_CAP, name: str | None = None) -> FiniteGroup:
    """The 5-coordinate group of order q^5 on its full coordinate universe."""
    q = field.q
    n = q**5
    if n > cap:
        raise CapExceeded(f"quint order {n} exceeds cap {cap}")
    ops = FieldOps(field)
    back = QuintupleBackend(ops)
    rows = _chart_rows(q, 5)
    apow = ops.alpha_pow
    gen_rows = np.zeros((2 * field.m, 5), dtype=np.int16)
    for i in range(field.m):
        gen_rows[i, 0] = apow[i]
        gen_rows[field.m + i, 1] = apow[i]
    g = FiniteGroup(
        name or f"quint:p={field.p},m={field.m}", back, rows,
        generators=back.encode(gen_rows).tolist(), cap=cap, field=field, kind="quint",
    )
    zrows = g.rows[g.center().members]
    if not (g.center().order == q * q and np.all(zrows[:, :3] == 0)):
        raise GroupError("quintuple center is not the last two coordinate axes")
    return g


def quintuple_generator_indices(g: FiniteGroup) -> dict:
    """x[i] and y[i] generator indices for quint and hmod groups."""
    m = g.field.m
    apow = FieldOps(g.field).alpha_pow
    if g.kind == "quint":
        xr = np.zeros((m, 5), dtype=np.int16)
        yr = np.zeros((m, 5), dtype=np.int16)
        for i in range(m):
            xr[i, 0] = apow[i]
            yr[i, 1] = apow[i]
        return {"x": g.index_of_rows(xr).tolist(), "y": g.index_of_rows(yr).tolist()}
    if g.kind == "hmod":
        xs = [quintuple_index(g, (apow[i], 0, 0, 0, 0)) for i in range(m)]
        ys = [quintuple_index(g, (0, apow[i], 0, 0, 0)) for i in range(m)]
        return {"x": xs, "y": ys}
    raise GroupError("generator frame indices exist for quint and hmod kinds")


def _h_generator_rows(ops: FieldOps, m: int) -> np.ndarray:
    """hmat's 2m+2 generators: x_i (a = alpha^i), y_i (b = alpha^i), then
    c = 1 and f = 1, as pattern rows."""
    apow = ops.alpha_pow
    gens = [patterned_row(ops, apow[i], 0, 0, 0, 0, 0) for i in range(m)]
    gens += [patterned_row(ops, 0, apow[i], 0, 0, 0, 0) for i in range(m)]
    gens += [patterned_row(ops, 0, 0, 1, 0, 0, 0), patterned_row(ops, 0, 0, 0, 0, 0, 1)]
    return np.array(gens)


def build_h_matrix(field: FieldSpec, cap: int = DEFAULT_CAP, name: str | None = None) -> FiniteGroup:
    """The patterned 5x5 group of order q^6, generated by 2m+2 elements."""
    q = field.q
    if q**6 > cap:
        raise CapExceeded(f"hmat order {q**6} exceeds cap {cap}")
    ops = FieldOps(field)
    back = PatternedU5Backend(ops)
    chart = dict(zip(H_CHART, _chart_rows(q, 6).T))
    g = FiniteGroup(
        name or f"hmat:p={field.p},m={field.m}", back,
        patterned_row(ops, *(chart[t] for t in "abcdef")),
        generators=back.encode(_h_generator_rows(ops, field.m)).tolist(),
        cap=cap, field=field, kind="hmat",
    )
    z = g.center()
    zrows = g.rows[z.members]
    free = [H_SLOTS[t] for t in ("a", "b", "c", "d", "e")]
    if not (z.order == q and np.all(zrows[:, free] == 0)):
        raise GroupError("patterned group center is not the corner axis")
    return g


def build_h_mod_center(field: FieldSpec, cap: int = DEFAULT_CAP, name: str | None = None) -> FiniteGroup:
    """hmat modulo its center, of order q^5, on the q^5 pattern rows with
    f = 0 (HModBackend): hmat's q^6 elements are never enumerated.

    That this chart is hmat/Z(hmat), with the generators of hmat/Z being
    the images of hmat's, is proved here on rows, F being the corner axis:
    - F is central and zeroing f a homomorphism with kernel F, because
      slot f is in no middle pair of the 5x5 product (checked on the
      backend, no product needed);
    - the constructor's closure over the images of hmat's generators
      checks each product against the pattern, so the pattern rows with
      f = 0 form a group modulo F, and the pattern, their preimage, is the
      group hmat;
    - gamma_4(hmat) = F: the weight-4 commutators of hmat's generators
      vanish off the corner and their corner entries span GF(q)
      (_check_gamma4).  So F lies in the subgroup the generators generate,
      which therefore is hmat;
    - Z(hmat) = F: no row but the identity commutes with every generator
      of hmat (_central_leaders).
    """
    q = field.q
    if q**5 > cap:
        raise CapExceeded(f"hmod order {q**5} exceeds cap {cap}")
    ops = FieldOps(field)
    back, u5 = HModBackend(ops), PatternedU5Backend(ops)
    f = H_SLOTS["f"]
    if any(f in pair for pairs in back.middle for pair in pairs):
        raise GroupError("the corner entry feeds another entry of a product")
    gens = _h_generator_rows(ops, field.m)
    u5.check_rows(gens)
    chart = dict(zip(HMOD_CHART, _chart_rows(q, 5).T))
    g = FiniteGroup(
        name or f"hmod:p={field.p},m={field.m}", back,
        patterned_row(ops, *(chart[t] for t in "abcde"), 0),
        # the chart code skips the corner: the codes of the generators' images
        generators=sorted_unique(back.encode(gens)).tolist(),
        cap=cap, field=field, kind="hmod",
    )
    _check_gamma4(u5, gens)
    if len(_central_leaders(u5, g.rows, gens)) != 1:
        raise GroupError("patterned group center is not the corner axis")
    return g


def _commute(u5: PatternedU5Backend, rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Whether each row commutes with the row g, in U5."""
    g = np.broadcast_to(g, rows.shape)
    return np.all(u5.mul_rows(rows, g) == u5.mul_rows(g, rows), axis=1)


def _commutators(u5: PatternedU5Backend, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] = (yx)^-1 (xy), row by row, in U5."""
    return u5.mul_rows(u5.inv_rows(u5.mul_rows(y, x)), u5.mul_rows(x, y))


def _check_gamma4(u5: PatternedU5Backend, gens: np.ndarray) -> None:
    """gamma_4 of <gens> is the corner axis F, or GroupError.

    gamma_4 is generated modulo gamma_5 by the left-normed commutators
    [[[g, h], k], l] of the generators.  When these lie in F, which is
    central, the weight-5 ones vanish, so gamma_5 = gamma_6 and, the group
    being nilpotent, gamma_5 = 1: gamma_4 is generated by them.  It is F
    exactly when their corner entries span GF(q) additively.
    """
    f = H_SLOTS["f"]
    w = gens
    for _ in range(3):
        w = _commutators(u5, np.repeat(w, len(gens), axis=0), np.tile(gens, (len(w), 1)))
    if np.any(np.delete(w, f, axis=1)):
        raise GroupError("a weight-4 commutator of the generators leaves the corner axis")
    ops = u5.ops
    span = np.zeros(ops.q, dtype=bool)
    span[0] = True
    for v in sorted_unique(w[:, f]).tolist():
        if not span[v]:  # the span grows by its shifts by v, 2v, ..., (p-1)v
            shifted = np.flatnonzero(span)
            for _ in range(ops.spec.p - 1):
                shifted = ops.add(shifted, v)
                span[shifted] = True
    if not span.all():
        raise GroupError("the weight-4 commutators do not span the corner axis")


def _central_leaders(u5: PatternedU5Backend, rows: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """The rows (pattern rows with f = 0, one per coset of the corner axis
    F) that commute with every row of gens, in U5.

    For the first generator g the scan reads only the q^4 rows with a = 0.
    The a-axis rows T, one per value of a, are checked to commute with g.
    Slot a is additive (no middle pair), so each row x is x' * t with t in
    T of the same a and x' = x * t^-1 of a = 0, a pattern row up to F; F is
    central, so x commutes with g exactly when x' does, and the rows that
    commute with g are those of C0 * T, for C0 the rows of a = 0 that do.
    """
    ops = u5.ops
    g, rest = gens[0], gens[1:]
    axis = patterned_row(ops, np.arange(ops.q), 0, 0, 0, 0, 0)
    if not _commute(u5, axis, g).all():
        raise GroupError("the a-axis does not commute with the first generator")
    base = rows[rows[:, H_SLOTS["a"]] == 0]
    c0 = base[_commute(u5, base, g)]
    cand = u5.mul_rows(np.repeat(c0, len(axis), axis=0), np.tile(axis, (len(c0), 1)))
    cand[:, H_SLOTS["f"]] = 0
    for g in rest:
        cand = cand[_commute(u5, cand, g)]
    return cand


def build_direct_product_with_elem_abelian(
    inner: FiniteGroup, k: int, cap: int = DEFAULT_CAP, name: str | None = None
) -> FiniteGroup:
    """inner x (Z/pZ)^k; k = 0 returns inner unchanged."""
    if k < 0:
        raise GroupError("abelian rank k must be >= 0")
    if k == 0:
        return inner
    p = inner.prime
    n = inner.order * p**k
    if n > cap:
        raise CapExceeded(f"product order {n} exceeds cap {cap}")
    back = ProductBackend(inner, p, k)
    codes = np.arange(n, dtype=np.int64)
    rows = np.empty((n, 1 + k), dtype=np.int64)
    rows[:, 0] = codes % inner.order
    rest = codes // inner.order
    for t in range(k):
        rows[:, 1 + t] = (rest // p**t) % p
    gens = []
    for gi in inner.generators:
        row = back.identity_row().copy()
        row[0] = gi
        gens.append(row)
    for t in range(k):
        row = back.identity_row().copy()
        row[1 + t] = 1
        gens.append(row)
    # the chart is dense, so a generator's code is its index
    return FiniteGroup(
        name or f"{inner.name} x C{p}^{k}", back, rows,
        generators=back.encode(np.array(gens, dtype=np.int64)).tolist(),
        field=inner.field, kind="xab", assume_generates=True,
    )


# -- hmod <-> quint identification ----------------------------------------


def quintuple_coords(g: FiniteGroup, idx) -> np.ndarray:
    """(a,b,c,d,e) field codes of elements of a quint or hmod group."""
    idx = np.asarray(idx, dtype=np.int64)
    if g.kind == "quint":
        return g.rows[idx].astype(np.int64)
    if g.kind == "hmod":
        return g.rows[idx][:, [H_SLOTS[t] for t in "abcde"]].astype(np.int64)
    raise GroupError("five-coordinate view exists for quint and hmod kinds")


def quintuple_index(g: FiniteGroup, coords) -> int:
    """Element index of given (a,b,c,d,e) codes in a quint or hmod group."""
    coords = np.asarray(coords, dtype=np.int16).reshape(1, 5)
    if g.kind == "quint":
        return int(g.index_of_rows(coords)[0])
    if g.kind == "hmod":
        row = patterned_row(g.backend.ops, *coords[0].tolist(), 0)
        return int(g.index_of_rows(row[None, :])[0])
    raise GroupError("five-coordinate view exists for quint and hmod kinds")


def identification_map(hmod: FiniteGroup, quint: FiniteGroup) -> np.ndarray:
    """The coordinate bijection hmod -> quint: drop the corner entry."""
    if hmod.kind != "hmod" or quint.kind != "quint":
        raise GroupError("identification runs from an hmod group to a quint group")
    if hmod.field != quint.field:
        raise GroupError("identification needs matching fields")
    coords = quintuple_coords(hmod, np.arange(hmod.order))
    phi = quint.index_of_rows(coords.astype(np.int16))
    if len(sorted_unique(phi)) != hmod.order or hmod.order != quint.order:
        raise GroupError("identification map is not a bijection")
    return phi


# -- spec strings ----------------------------------------------------------

KINDS = ("u3", "quint", "hmat", "hmod")

_MOD_RE = re.compile(r"modulus=\[([0-9,\s-]*)\]")


@dataclass(frozen=True)
class GroupSpec:
    """Parsed form of a group spec string such as "hmod:p=3,m=2"."""

    kind: str
    p: int | None = None
    m: int | None = None
    modulus: tuple | None = None
    k: int = 0
    inner: "GroupSpec | None" = None

    def canonical(self) -> str:
        if self.kind == "xab":
            return f"xab:{self.inner.canonical()},k={self.k}"
        base = f"{self.kind}:p={self.p},m={self.m}"
        if self.modulus is not None:
            base += ",modulus=[" + ",".join(str(c) for c in self.modulus) + "]"
        return base

    def field(self) -> FieldSpec:
        if self.kind == "xab":
            return self.inner.field()
        if self.modulus is not None:
            return FieldSpec(self.p, self.m, self.modulus)
        return find_irreducible(self.p, self.m)

    def predicted_order(self) -> int:
        if self.kind == "xab":
            return self.inner.predicted_order() * self.inner.field().p**self.k
        exp = {"u3": 3, "quint": 5, "hmod": 5, "hmat": 6}[self.kind]
        return self.field().q**exp


def parse_group_spec(text: str) -> GroupSpec:
    text = text.strip()
    kind, sep, rest = text.partition(":")
    if not sep:
        raise GroupError(f"group spec {text!r} needs '<kind>:<params>'")
    if kind == "xab":
        inner_text, ksep, ktext = rest.rpartition(",k=")
        if not ksep:
            raise GroupError("xab spec needs a trailing ',k=<count>'")
        try:
            k = int(ktext)
        except ValueError:
            raise GroupError(f"bad abelian rank {ktext!r}") from None
        if k < 0:
            raise GroupError("abelian rank k must be >= 0")
        return GroupSpec("xab", k=k, inner=parse_group_spec(inner_text))
    if kind not in KINDS:
        raise GroupError(f"unknown group kind {kind!r}")
    modulus = None
    mmatch = _MOD_RE.search(rest)
    if mmatch:
        modulus = tuple(int(t) for t in mmatch.group(1).split(","))
        rest = (rest[: mmatch.start()] + rest[mmatch.end():]).strip(",")
    params = {}
    for part in filter(None, rest.split(",")):
        key, eq, val = part.partition("=")
        if not eq or key not in ("p", "m"):
            raise GroupError(f"bad group spec parameter {part!r}")
        try:
            params[key] = int(val)
        except ValueError:
            raise GroupError(f"bad value in group spec parameter {part!r}") from None
    if "p" not in params or "m" not in params:
        raise GroupError(f"group spec {text!r} must give p and m")
    return GroupSpec(kind, p=params["p"], m=params["m"], modulus=modulus)


def build_group(spec, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Build the group named by a GroupSpec or a spec string."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if spec.predicted_order() > cap:
        raise CapExceeded(
            f"{spec.canonical()} has order {spec.predicted_order()}, cap is {cap}"
        )
    name = spec.canonical()
    if spec.kind == "xab":
        inner = build_group(spec.inner, cap=cap)
        return build_direct_product_with_elem_abelian(inner, spec.k, cap=cap, name=name)
    field = spec.field()
    builder = {
        "u3": build_u3,
        "quint": build_quintuple,
        "hmat": build_h_matrix,
        "hmod": build_h_mod_center,
    }[spec.kind]
    return builder(field, cap=cap, name=name)
