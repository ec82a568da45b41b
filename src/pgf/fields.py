"""Exact arithmetic in GF(p^m) and the structure-constant tensor kappa.

A field element is a coordinate tuple (c0, ..., c_{m-1}) with 0 <= ci < p,
representing c0 + c1*alpha + ... + c_{m-1}*alpha^{m-1}, where alpha is the
residue class of x modulo a fixed monic irreducible polynomial of degree m.
The modulus is stored as a coefficient tuple (c0, ..., cm) with cm == 1.
For m == 1 the modulus is the polynomial x and the field degenerates to the
prime field Z/pZ.

Elements also have an integer code: code = c0 + c1*p + ... + c_{m-1}*p^{m-1}.
Codes enumerate the field in a canonical order (0 is zero, 1 is one, p is
alpha) and are what the group engine stores in its coordinate arrays.

The kappa tensor collects the coordinates of small powers of alpha:
kappa[i][j] are the coordinates of alpha^(i+j) for 0-based i, j < m.  It is
symmetric in (i, j) and is the data that drives the commutator bookkeeping
in the presentation machinery.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

Coeffs = tuple[int, ...]


class FieldError(ValueError):
    """Invalid field parameter or domain error (e.g. inverting zero)."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over Z/pZ (little-endian coefficient lists)


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        a = _poly_trim(a)
        if len(a) - 1 < dm:
            break
        lead = a[-1]
        shift = len(a) - 1 - dm
        for k, ck in enumerate(mod):
            a[shift + k] = (a[shift + k] - lead * ck) % p
        a = _poly_trim(a)
    return a


def _poly_divides(d: list[int], a: list[int], p: int) -> bool:
    return not _poly_mod(a, d, p) if d else False


def is_irreducible(coeffs: Coeffs, p: int) -> bool:
    """Exact irreducibility of a monic polynomial over Z/pZ by trial division.

    Intended for small degrees (the constructions use m <= 4); a degree-d
    factor test only needs monic divisors of degree <= deg/2.
    """
    c = _poly_trim(list(coeffs))
    deg = len(c) - 1
    if deg < 1 or c[-1] != 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        # all monic polynomials of degree d
        for code in range(p**d):
            div = [(code // p**k) % p for k in range(d)] + [1]
            if _poly_divides(div, c, p):
                return False
    return True


def find_irreducible(p: int, m: int) -> "FieldSpec":
    """Smallest monic irreducible modulus of degree m over Z/pZ.

    "Smallest" orders candidates by the base-p integer value of their
    non-leading coefficients (c0, ..., c_{m-1}), so repeated calls always
    return the same modulus.  For m == 1 the modulus is x itself.
    """
    if not is_prime(p):
        raise FieldError(f"p must be prime, got {p}")
    if m < 1:
        raise FieldError(f"m must be >= 1, got {m}")
    if m == 1:
        return FieldSpec(p, 1, (0, 1))
    for code in range(p**m):
        coeffs = tuple((code // p**k) % p for k in range(m)) + (1,)
        if is_irreducible(coeffs, p):
            return FieldSpec(p, m, coeffs)
    raise FieldError(f"no irreducible polynomial of degree {m} over GF({p})")  # unreachable


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of GF(p^m): an odd prime p, degree m, monic irreducible modulus."""

    p: int
    m: int
    modulus: Coeffs

    def __post_init__(self):
        if not is_prime(self.p):
            raise FieldError(f"p must be prime, got {self.p}")
        if self.p == 2:
            raise FieldError("p must be odd")
        if self.m < 1:
            raise FieldError(f"m must be >= 1, got {self.m}")
        mod = tuple(int(c) % self.p for c in self.modulus)
        if len(mod) != self.m + 1 or mod[-1] != 1:
            raise FieldError(f"modulus must be monic of degree {self.m}")
        if not is_irreducible(mod, self.p):
            raise FieldError(f"modulus {mod} is reducible over GF({self.p})")
        object.__setattr__(self, "modulus", mod)

    @property
    def q(self) -> int:
        return self.p**self.m

    @property
    def zero(self) -> Coeffs:
        return (0,) * self.m

    @property
    def one(self) -> Coeffs:
        return (1,) + (0,) * (self.m - 1)

    @property
    def alpha(self) -> Coeffs:
        """Residue class of x.  For m == 1 this is 0 (only alpha^0 is ever used)."""
        if self.m == 1:
            return (0,)
        return (0, 1) + (0,) * (self.m - 2)

    def element(self, coords) -> Coeffs:
        c = tuple(int(v) % self.p for v in coords)
        if len(c) != self.m:
            raise FieldError(f"expected {self.m} coordinates, got {len(c)}")
        return c

    def from_int(self, code: int) -> Coeffs:
        if not 0 <= code < self.q:
            raise FieldError(f"element code {code} out of range")
        return tuple((code // self.p**k) % self.p for k in range(self.m))

    def to_int(self, a: Coeffs) -> int:
        return sum(int(c) * self.p**k for k, c in enumerate(a))

    def elements(self):
        for code in range(self.q):
            yield self.from_int(code)

    def serialize(self) -> str:
        mods = ",".join(str(c) for c in self.modulus)
        return f"p={self.p},m={self.m},modulus=[{mods}]"


def ff_add(a: Coeffs, b: Coeffs, spec: FieldSpec) -> Coeffs:
    return tuple((x + y) % spec.p for x, y in zip(a, b))


def ff_neg(a: Coeffs, spec: FieldSpec) -> Coeffs:
    return tuple((-x) % spec.p for x in a)


def ff_sub(a: Coeffs, b: Coeffs, spec: FieldSpec) -> Coeffs:
    return tuple((x - y) % spec.p for x, y in zip(a, b))


def ff_mul(a: Coeffs, b: Coeffs, spec: FieldSpec) -> Coeffs:
    prod = _poly_mul(list(a), list(b), spec.p)
    red = _poly_mod(prod, list(spec.modulus), spec.p)
    red += [0] * (spec.m - len(red))
    return tuple(red)


def ff_pow(a: Coeffs, e: int, spec: FieldSpec) -> Coeffs:
    if e < 0:
        return ff_pow(ff_inv(a, spec), -e, spec)
    out = spec.one
    base = a
    while e:
        if e & 1:
            out = ff_mul(out, base, spec)
        base = ff_mul(base, base, spec)
        e >>= 1
    return out


def ff_inv(a: Coeffs, spec: FieldSpec) -> Coeffs:
    """Multiplicative inverse via a^(q-2); inverting zero is a domain error."""
    if all(c == 0 for c in a):
        raise FieldError("zero has no multiplicative inverse")
    inv = ff_pow(a, spec.q - 2, spec)
    if ff_mul(a, inv, spec) != spec.one:
        raise FieldError(f"inverse computation failed for {a}")  # modulus not irreducible
    return inv


@dataclass(frozen=True)
class KappaTensor:
    """Coordinates of alpha^(i+j) in the power basis, for 0-based i, j < m.

    entries[i][j] is the m-tuple of coordinates of alpha^(i+j).  Symmetric:
    entries[i][j] == entries[j][i].
    """

    spec: FieldSpec
    entries: tuple[tuple[Coeffs, ...], ...]

    def __post_init__(self):
        m = self.spec.m
        if len(self.entries) != m or any(len(r) != m for r in self.entries):
            raise FieldError("kappa tensor must be m x m")
        for i in range(m):
            for j in range(m):
                if self.entries[i][j] != self.entries[j][i]:
                    raise FieldError(f"kappa tensor not symmetric at ({i},{j})")
                # coordinates in the power basis are the element they encode,
                # so the defining property is a direct comparison
                if self.entries[i][j] != ff_pow(self.spec.alpha, i + j, self.spec):
                    raise FieldError(f"kappa entry ({i},{j}) does not encode alpha^{i + j}")

    def __getitem__(self, ij) -> Coeffs:
        i, j = ij
        return self.entries[i][j]

    def as_lists(self):
        return [[list(c) for c in row] for row in self.entries]


def structure_constants(spec: FieldSpec) -> KappaTensor:
    """The kappa tensor of spec: kappa[i][j] = coordinates of alpha^(i+j)."""
    m = spec.m
    rows = tuple(
        tuple(ff_pow(spec.alpha, i + j, spec) for j in range(m)) for i in range(m)
    )
    return KappaTensor(spec, rows)


class FieldOps:
    """Vectorized field arithmetic on integer element codes.

    Every field, prime or not, takes the same exact path: the binary ops
    read flat q*q tables (add, sub, mul) with `take` at a*q + b, and neg
    reads a length-q table.  fma(acc, a, b) = acc + a*b reads one flat q**3
    table, built from those on its first use, at (acc*q + a)*q + b.  A flat
    index is computed in int16 while it fits (to q = 181 for q*q, q = 31
    for q**3) and in intp beyond (wider inputs keep their own dtype), so it
    never wraps.  The q*q tables are built once, vectorized in int64 over
    the coordinate vectors: a*b is the sum of b_k * (a * alpha^k), and the
    a * alpha^k come from shifting a by alpha and reducing by the modulus.
    Codes are int16, so q must stay below 2**15.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        p, m = spec.p, spec.m
        q = self.q = spec.q
        if q > np.iinfo(np.int16).max:
            raise FieldError(f"GF({q}) element codes do not fit int16 coordinates")
        # a numpy scalar q makes a*q + b compute in a dtype at least as wide
        # as its own, which holds q*q - 1
        self._q = (np.int16 if q * q - 1 <= np.iinfo(np.int16).max else np.intp)(q)
        self._q3 = (np.int16 if q**3 - 1 <= np.iinfo(np.int16).max else np.intp)(q)
        weight = p ** np.arange(m, dtype=np.int64)
        coords = np.arange(q, dtype=np.int64)[:, None] // weight % p
        # shifted[a, k] are the coordinates of a * alpha^k, k < m
        shifted = [coords]
        for _ in range(1, m):
            prev = shifted[-1]
            nxt = np.zeros_like(prev)
            nxt[:, 1:] = prev[:, :-1]
            nxt -= prev[:, -1:] * np.asarray(spec.modulus[:m], dtype=np.int64)
            shifted.append(nxt % p)
        prod = np.einsum("bk,akj->abj", coords, np.stack(shifted, axis=1)) % p

        def flat(table):
            return (table @ weight).astype(np.int16).ravel()

        self._add = flat((coords[:, None, :] + coords[None, :, :]) % p)
        self._sub = flat((coords[:, None, :] - coords[None, :, :]) % p)
        self._mul = flat(prod)
        self._neg = flat(-coords % p)
        # codes of alpha^0 .. alpha^(2m): enough for every seed and kappa use
        self.alpha_pow = [spec.to_int(ff_pow(spec.alpha, k, spec)) for k in range(2 * m + 1)]

    def add(self, a, b):
        return self._add.take(a * self._q + b)

    def sub(self, a, b):
        return self._sub.take(a * self._q + b)

    def mul(self, a, b):
        return self._mul.take(a * self._q + b)

    def fma(self, acc, a, b):
        return self._fma.take((acc * self._q3 + a) * self._q3 + b)

    def neg(self, a):
        return self._neg.take(a)

    @functools.cached_property
    def _fma(self):
        # entry acc*q*q + (a*q + b) is add[acc, mul[a*q + b]]
        return self._add.reshape(self.q, self.q)[:, self._mul].ravel()
