"""Exact scalar arithmetic: F_{p^r}, truncated Witt rings and Teichmüller digits.

Representations
---------------
The residue field F_{p^r} is presented as F_p[g]/(m(g)) for a fixed monic
irreducible m of degree r, chosen deterministically (see find_modulus).
An FqElem stores the r coefficients of the basis 1, g, ..., g^{r-1}, each
reduced into [0, p).  The series rings store a coefficient as that tuple
alone; fq_mul, neg_mod and fq_inv are the product, negation and inverse
of such tuples, the inverse (the only one for F_q) by extended Euclid on
the field modulus.

The length-L truncated Witt ring W_L(F_{p^r}) is realized as
Z[g]/(p^L, m(g)): a WittElem stores r integer coefficients reduced into
[0, p^L).  Ring operations are plain polynomial arithmetic; Witt coordinates
are never materialized.  A WittElem carries its length L as `prec` (the
number of known p-adic digits), which every caller gives; truncations of
different lengths mix, and binary operations return the minimum precision of
their operands.

Both are one presentation, Z[g]/(n, m(g)) with n = p or n = p^prec, so their
ring operations (sum, difference, negation, product, power, printing) are
written once, in a private base class, and PrimeConfig.fq and .witt reduce an
int or a coefficient sequence by one routine.  Each class keeps only its n,
its coercion of the other operand, equality, hashing and inversion.

Teichmüller lifts come from one module-level table that holds, for each
digit of each field, its lift at the largest precision asked for so far; the
lift at precision k is that lift reduced mod p^k, so a field of q elements
never has more than q entries.  A missing or too short entry is computed in
closed form, 0, 1 or -1 mod p^k for [0], [1] or [p-1] and a^(p^(k-1)) mod
p^k for another digit when r = 1, and otherwise by fixpoint iteration
x -> x^(p^r), which gains at least one p-adic digit per step, so `prec`
iterations always suffice.  Teichmüller digits are read as coefficient
tuples from plain int coefficients by digit_coeffs, which digit_decompose
and p-adic normalization at r > 1 share, and at r = 1 from single ints by digit_runs,
which p-adic normalization calls once for all its buckets.  Rational
numbers are stdlib fractions.Fraction throughout.

One distinct-degree ladder, _FpPolys.ladder (von zur Gathen and Shoup
1992), yields gcd(f, x^(q^d) - x) for d = 1, 2, ..., each x^(q^d) mod f
the q-th power of the last by square-and-multiply.  Its first gcd holds
the roots in F_q (fq_poly_roots), split into linear factors by Berlekamp's
trace algorithm (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 14); its first d whose gcd is not 1 is the least degree of an
irreducible factor, which find_modulus and Newton's field extension read.
All of it works on raw coefficient values (ints when r = 1, r-tuples
otherwise), not on FqElem objects, in time polynomial in deg f and log q.

All values are immutable; operations are pure functions of their operands
and the shared PrimeConfig.  The lift table only caches such a function.
Every value class of the package derives from _Frozen, defined here, and
copies and pickles; the records among them (PrimeConfig, Certificate,
ExpandOptions, RootBranch) derive from _Record.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import DivisionByZero, NotAUnit, ZeroPolynomial

__all__ = [
    "PrimeConfig",
    "FqElem",
    "WittElem",
    "find_modulus",
    "is_prime",
    "teichmueller",
    "digit_coeffs",
    "digit_runs",
    "digit_decompose",
    "fq_poly_roots",
    "subfield_embedding",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z/q, coefficient lists low degree first
# ---------------------------------------------------------------------------

def _poly_reduce(c, modulus, q):
    """Reduce c by a monic modulus, coefficients mod q."""
    c = [x % q for x in c]
    r = len(modulus) - 1
    for i in range(len(c) - 1, r - 1, -1):
        t = c[i]
        if t:
            c[i] = 0
            for j in range(r):
                c[i - r + j] = (c[i - r + j] - t * modulus[j]) % q
    del c[r:]
    while len(c) < r:
        c.append(0)
    return c


def _poly_mulmod(a, b, modulus, q):
    """a * b reduced by a monic modulus, coefficients mod q."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _poly_reduce(out, modulus, q)


def _square_multiply(base, e, mul):
    """base^e (e >= 1) under the product `mul`.

    Starts from the base's power at e's lowest set bit and squares no further
    than e's top bit: bit_length(e) - 1 squarings, popcount(e) - 1 products.
    """
    while not e & 1:
        base = mul(base, base)
        e >>= 1
    result = base
    while e > 1:
        e >>= 1
        base = mul(base, base)
        if e & 1:
            result = mul(result, base)
    return result


def _poly_powmod(a, e, modulus, q):
    """a^e (e >= 0) reduced by a monic modulus, coefficients mod q."""
    if e == 0:
        return _poly_reduce([1], modulus, q)
    return _square_multiply(_poly_reduce(list(a), modulus, q), e,
                            lambda x, y: _poly_mulmod(x, y, modulus, q))


def fq_mul(cfg, a, b) -> tuple:
    """The product of two F_q elements given as coefficient tuples."""
    if cfg.r == 1:
        return (a[0] * b[0] % cfg.p,)
    return tuple(_poly_mulmod(a, b, cfg.modulus, cfg.p))


def neg_mod(c, n) -> tuple:
    """The negative of the coefficient tuple c, each entry reduced mod n."""
    return tuple([-x % n for x in c])


def fq_inv(cfg, a) -> tuple:
    """The inverse of a nonzero F_q element given as a coefficient tuple.

    Extended Euclid on the field modulus and a over F_p: O(r^2) int
    operations and no F_q products.
    """
    p, r = cfg.p, cfg.r
    if r == 1:
        return (pow(a[0], -1, p),)
    # Euclid on f = m and g = a, kept without high zeros, and the cofactors
    # s * a = f, t * a = g mod m, whose degrees stay below r
    f, s, g, t = [c % p for c in cfg.modulus], [0] * r, list(a), [1] + [0] * (r - 1)
    while True:
        while not g[-1]:
            g.pop()
        if len(g) == 1:
            u = pow(g[0], -1, p)
            return tuple([x * u % p for x in t])
        u = pow(g[-1], -1, p)
        while len(f) >= len(g):         # f -= c x^k g and s -= c x^k t
            c, k = f[-1] * u % p, len(f) - len(g)
            f = [(x - c * y) % p for x, y in zip(f, [0] * k + g)][:-1]
            s = [(x - c * y) % p for x, y in zip(s, [0] * k + t)]
            while not f[-1]:
                f.pop()
        f, s, g, t = g, t, f, s


class _FpPolys:
    """Polynomials over F_p as int lists low degree first, for root finding.

    Values are ints in [0, p), so the products are `_poly_mulmod`'s.  The
    monic gcd and the root search are written once on the value operations;
    `_FqPolys` replaces those operations for F_q with r > 1.  Every modulus
    f is monic and every polynomial reduced by f has deg(f) entries.
    """

    r = 1
    zero, one = 0, 1
    basis = (1,)                        # of F_q over F_p, for the traces

    def __init__(self, p):
        self.p = self.q = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def reduce(self, c, f):
        return _poly_reduce(c, f, self.p)

    def mulmod(self, a, b, f):
        return _poly_mulmod(a, b, f, self.p)

    def powmod(self, a, e, f):
        return _square_multiply(self.reduce(a, f), e,
                                lambda x, y: self.mulmod(x, y, f))

    def monic(self, f):
        """f without zero high coefficients, divided by its leading one."""
        f = list(f)
        while f and f[-1] == self.zero:
            f.pop()
        if len(f) == 1:
            return [self.one]
        if f and f[-1] != self.one:
            u = self.inv(f[-1])
            f = [self.mul(u, c) for c in f]
        return f

    def gcd(self, a, b):
        """The monic gcd of a nonzero a and any b."""
        a, b = self.monic(a), self.monic(b)
        while b:
            a, b = b, self.monic(self.reduce(a, b))
        return a

    def ladder(self, f):
        """(d, gcd(f, x^(q^d) - x)) for d = 1, ..., deg f // 2, for a monic f:
        distinct-degree factorization (von zur Gathen and Shoup 1992).  The
        gcd at d holds the irreducible factors whose degree divides d, so the
        first d whose gcd is not 1 is the least factor degree.  x^(q^d) mod f
        is the q-th power of the previous one, O(log q) products."""
        y = [self.zero, self.one]
        for d in range(1, (len(f) - 1) // 2 + 1):
            y = self.powmod(y, self.q, f)
            yield d, self.gcd(f, [y[0], self.sub(y[1], self.one)] + y[2:])

    def least_degree(self, f):
        """The least degree of an irreducible factor of a monic f."""
        return next((d for d, g in self.ladder(f) if len(g) > 1), len(f) - 1)

    def roots(self, f):
        """The distinct roots in F_q of a nonzero f with f(0) != 0.

        Past degree 1 they are the roots of the ladder's first gcd, h =
        gcd(f, x^q - x), which has no repeated root.
        """
        f = self.monic(f)
        if len(f) > 2:
            f = next(self.ladder(f))[1]
        return self._split(f, 0)

    def _split(self, h, k, frob=None):
        """The roots of a monic h that has distinct roots, all in F_q, on
        which Tr(b x) is constant for the basis elements b before basis[k].

        Berlekamp's trace algorithm (1970): T = Tr(basis[k] x) mod h, where
        Tr(y) = y + y^p + ... + y^(p^(r-1)), takes a value c in F_p at each
        root, and gcd(h, T - c) gathers the roots with value c.  The trace
        form is nondegenerate, so the basis separates any two roots.  As
        y -> y^p is a ring map, Tr(b x) = sum b^(p^i) x^(p^i): `frob` holds
        x^(p^i) mod a multiple of h for i < r, computed once (None: here)
        by the first split and reduced by each factor.
        """
        if len(h) <= 2:
            return [self.sub(self.zero, h[0])] if len(h) == 2 else []
        if frob is None:
            frob = [self.reduce([self.zero, self.one], h)]
            for _ in range(self.r - 1):
                frob.append(self.powmod(frob[-1], self.p, h))
        else:
            frob = [self.reduce(y, h) for y in frob]
        terms, b = frob, self.basis[k]
        if k:                           # b^(p^i) x^(p^i); at k = 0, b = 1
            terms = []
            for y in frob:
                terms.append([self.mul(b, v) for v in y])
                b = _square_multiply(b, self.p, self.mul)
        trace = [functools.reduce(self.add, col) for col in zip(*terms)]
        # T - c = u (T/u - c/u) for T's leading coefficient u, and T/u - c/u
        # is monic: one inversion serves every c
        u = next((v for v in reversed(trace[1:]) if v != self.zero), None)
        if u is None:                   # T is constant on the roots of h
            return self._split(h, k + 1, frob)
        w = self.inv(u)
        trace = [self.mul(w, v) for v in trace]
        out, left, shift = [], len(h) - 1, self.zero
        for _ in range(self.p):
            g = self.gcd(h, [self.sub(trace[0], shift)] + trace[1:])
            if len(g) > 1:
                out += self._split(g, k + 1, frob)
                left -= len(g) - 1
                if not left:
                    break
            shift = self.add(shift, w)
        return out


class _FqPolys(_FpPolys):
    """Polynomials over F_q: a value is its r-tuple of generator basis
    coefficients (at r = 1 `_FpPolys` is faster), and a product of values
    is `_poly_mulmod` by the field modulus."""

    def __init__(self, cfg):
        self.cfg, self.p, self.q, self.r = cfg, cfg.p, cfg.q, cfg.r
        self.zero = (0,) * cfg.r
        self.one = (1,) + self.zero[1:]
        self.basis = tuple(self.zero[:i] + (1,) + self.zero[i + 1:]
                           for i in range(cfg.r))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return fq_mul(self.cfg, a, b)

    def inv(self, a):
        return fq_inv(self.cfg, a)

    def reduce(self, c, f):
        c, d = list(c), len(f) - 1
        for i in range(len(c) - 1, d - 1, -1):
            t = c[i]
            if t != self.zero:
                for j in range(d):
                    if f[j] != self.zero:
                        c[i - d + j] = self.sub(c[i - d + j], self.mul(t, f[j]))
        del c[d:]
        return c + [self.zero] * (d - len(c))

    def mulmod(self, a, b, f):
        out = [self.zero] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u != self.zero:
                for j, v in enumerate(b):
                    if v != self.zero:
                        out[i + j] = self.add(out[i + j], self.mul(u, v))
        return self.reduce(out, f)


def _fp_irreducible(coeffs, p):
    """Whether a monic f of degree >= 1 over F_p has no factor of lower degree."""
    return _FpPolys(p).least_degree(list(coeffs)) == len(coeffs) - 1


def _int_digits(n, p, width):
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


@functools.lru_cache(maxsize=None)
def find_modulus(p: int, r: int) -> tuple:
    """Deterministic monic irreducible of degree r over F_p.

    Scans monic polynomials ordered by their coefficient vector read as a
    base-p integer (constant coefficient least significant) and returns the
    first irreducible one.  Degree 1 yields the polynomial x.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("extension degree must be >= 1")
    for n in range(p ** r):
        coeffs = tuple(_int_digits(n, p, r) + [1])
        if _fp_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("unreachable: irreducibles of every degree exist")


class _Frozen:
    """Base of every value class: slots set once, by the constructor (through
    _set, or object.__setattr__ on a hot path), and restored by __setstate__,
    so that every value copies and pickles."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setstate__(self, state):  # a slots-only state: (None, {slot: value})
        self._set(**state[1])


class _Record(_Frozen):
    """A value compared, hashed and printed by its __slots__, as a frozen
    dataclass by its fields."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({body})"


class PrimeConfig(_Record):
    """Fixed arithmetic context: prime p and extension degree r.

    `modulus` is the monic degree-r integer polynomial whose reduction mod p
    presents F_{p^r}; all scalar arithmetic happens under exactly one config.
    `l_max` bounds the Witt precision any internal normalization may request.
    """

    __slots__ = ("p", "r", "modulus", "l_max")

    def __init__(self, p: int, r: int, modulus: tuple, l_max: int = 128):
        self._set(p=p, r=r, modulus=modulus, l_max=l_max)

    @staticmethod
    def make(p: int, r: int = 1, l_max: int = 128,
             modulus: tuple | None = None) -> "PrimeConfig":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if r < 1:
            raise ValueError("r must be >= 1")
        if l_max < 1:
            raise ValueError("l_max must be >= 1")
        if modulus is None:
            modulus = find_modulus(p, r)
        else:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree r")
            if not _fp_irreducible(tuple(c % p for c in modulus), p):
                raise ValueError("modulus is reducible mod p")
        return PrimeConfig(p=p, r=r, modulus=modulus, l_max=l_max)

    @property
    def q(self) -> int:
        return self.p ** self.r

    def same_field(self, other: "PrimeConfig") -> bool:
        return (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)

    # constructors ---------------------------------------------------------

    def _coeffs(self, value, n) -> tuple:
        """An int or a coefficient sequence as r coefficients mod (n, m(g))."""
        if isinstance(value, int):
            return (value % n,) + (0,) * (self.r - 1)
        coeffs = [int(v) % n for v in value]
        if len(coeffs) > self.r:
            coeffs = _poly_reduce(coeffs, self.modulus, n)
        return tuple(coeffs + [0] * (self.r - len(coeffs)))

    def fq(self, value) -> "FqElem":
        if isinstance(value, FqElem):
            if not self.same_field(value.cfg):
                raise ValueError("field mismatch")
            return value
        return FqElem(self, self._coeffs(value, self.p))

    def fq_gen(self) -> "FqElem":
        if self.r == 1:
            return self.fq(0)
        return self.fq([0, 1])

    def fq_elements(self):
        """All p^r field elements, lexicographic by coefficient vector."""
        for n in range(self.q):
            yield self.fq(_int_digits(n, self.p, self.r))

    def witt(self, value, prec: int) -> "WittElem":
        if isinstance(value, WittElem):
            if not self.same_field(value.cfg):
                raise ValueError("field mismatch")
            if value.prec == prec:
                return value
            value = value.coeffs
        return WittElem(self, self._coeffs(value, self.p ** prec), prec)


class _ResidueElem(_Frozen):
    """Element of Z[g]/(n, m(g)) for the config's modulus m; immutable.

    The ring arithmetic of FqElem (n = p) and WittElem (n = p^prec).  A
    subclass supplies `_n` (the coefficient modulus), `_new` (an element of
    its own ring from reduced coefficients), `_binary` (the other operand
    coerced, both aligned to one ring, and that ring's n), equality, hashing
    and `inv`.
    """

    __slots__ = ("cfg", "coeffs")

    def __init__(self, cfg: PrimeConfig, coeffs: tuple):
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        a, b, n = self._binary(other)
        return a._new(tuple((x + y) % n for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other):
        a, b, n = self._binary(other)
        return a._new(tuple((x - y) % n for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return self._new(neg_mod(self.coeffs, self._n))

    def __mul__(self, other):
        a, b, n = self._binary(other)
        return a._new(tuple(_poly_mulmod(a.coeffs, b.coeffs, a.cfg.modulus, n)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return self._new(tuple(_poly_powmod(self.coeffs, e, self.cfg.modulus, self._n)))

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        """Generator-basis coefficients, highest power first: 2*g^2+g+1."""
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                gpow = "g" if i == 1 else f"g^{i}"
                parts.append(gpow if c == 1 else f"{c}*{gpow}")
        return "+".join(parts) if parts else "0"


class FqElem(_ResidueElem):
    """Element of F_{p^r} in the generator basis; immutable."""

    __slots__ = ()

    @property
    def _n(self) -> int:
        return self.cfg.p

    def _new(self, coeffs):
        return FqElem(self.cfg, coeffs)

    def _binary(self, other):
        if not isinstance(other, FqElem):
            other = self.cfg.fq(other)
        elif not self.cfg.same_field(other.cfg):
            raise ValueError("field mismatch")
        return self, other, self.cfg.p

    def __eq__(self, other):
        return (isinstance(other, FqElem)
                and self.cfg.same_field(other.cfg)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.cfg.p, self.cfg.modulus, self.coeffs))

    def sort_key(self):
        return self.coeffs[::-1]

    def inv(self) -> "FqElem":
        if self.is_zero():
            raise DivisionByZero("inverse of zero in F_q")
        return FqElem(self.cfg, fq_inv(self.cfg, self.coeffs))

    def frobenius(self) -> "FqElem":
        return self ** self.cfg.p

    def pth_root(self) -> "FqElem":
        """Inverse of frobenius: x^(p^(r-1))."""
        return self ** (self.cfg.p ** (self.cfg.r - 1))


class WittElem(_ResidueElem):
    """Element of W_prec(F_{p^r}) = Z[g]/(p^prec, modulus); immutable."""

    __slots__ = ("prec",)

    def __init__(self, cfg: PrimeConfig, coeffs: tuple, prec: int):
        super().__init__(cfg, coeffs)
        object.__setattr__(self, "prec", prec)

    @property
    def pk(self) -> int:
        return self.cfg.p ** self.prec

    _n = pk

    def _new(self, coeffs):
        return WittElem(self.cfg, coeffs, self.prec)

    def _binary(self, other):
        if not isinstance(other, WittElem):
            other = self.cfg.witt(other, prec=self.prec)
        elif not self.cfg.same_field(other.cfg):
            raise ValueError("field mismatch")
        prec = min(self.prec, other.prec)
        return self.at_prec(prec), other.at_prec(prec), self.cfg.p ** prec

    def __eq__(self, other):
        return (isinstance(other, WittElem)
                and self.cfg.same_field(other.cfg)
                and self.prec == other.prec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.cfg.p, self.cfg.modulus, self.prec, self.coeffs))

    def at_prec(self, prec: int) -> "WittElem":
        if prec == self.prec:
            return self
        if prec > self.prec:
            raise ValueError("cannot raise Witt precision")
        pk = self.cfg.p ** prec
        return WittElem(self.cfg, tuple(c % pk for c in self.coeffs), prec)

    def residue(self) -> FqElem:
        p = self.cfg.p
        return FqElem(self.cfg, tuple(c % p for c in self.coeffs))

    def inv(self) -> "WittElem":
        """Unit inverse by Hensel lifting of the residue inverse."""
        if self.residue().is_zero():
            raise NotAUnit("Witt element has zero residue")
        z = self.cfg.witt(list(self.residue().inv().coeffs), prec=self.prec)
        two = self.cfg.witt(2, prec=self.prec)
        known = 1
        while known < self.prec:
            z = z * (two - self * z)
            known *= 2
        return z

    def __repr__(self):
        return f"WittElem({self}, prec={self.prec})"


# (p, modulus, digit coeffs) -> (prec, lift coeffs mod p^prec)
_LIFTS = {}


def _int_lift(coeffs, p):
    """Exact integer Teichmüller lift of the digit `coeffs`, or None when it
    does not exist."""
    if not any(coeffs[1:]):
        c0 = coeffs[0]
        if c0 == 0 or c0 == 1:
            return c0
        if c0 == p - 1 and p > 2:
            return -1
    return None


def _lift(cfg: PrimeConfig, coeffs: tuple, prec: int) -> tuple:
    """Teichmüller lift coefficients of the digit `coeffs`, correct mod p^prec.

    The result may be the lift at a higher precision, so a caller that needs
    coefficients in [0, p^prec) reduces them itself.
    """
    key = (cfg.p, cfg.modulus, coeffs)
    entry = _LIFTS.get(key)
    if entry is not None and entry[0] >= prec:
        return entry[1]
    pk = cfg.p ** prec
    lift = _int_lift(coeffs, cfg.p)
    if lift is not None:
        lift = (lift % pk,) + coeffs[1:]
    elif cfg.r == 1:
        lift = (pow(coeffs[0], pk // cfg.p, pk),)
    else:
        x = [c % pk for c in coeffs]
        for _ in range(prec):
            nxt = _poly_powmod(x, cfg.q, cfg.modulus, pk)
            if nxt == x:
                break
            x = nxt
        lift = tuple(x)
    _LIFTS[key] = (prec, lift)
    return lift


def teichmueller(a: FqElem, prec: int) -> WittElem:
    """Multiplicative lift of a to W_prec: the fixpoint of x -> x^(p^r).

    Read from the lift table (see the module docstring); the result carries
    a's own config.
    """
    cfg = a.cfg
    pk = cfg.p ** prec
    return WittElem(cfg, tuple(c % pk for c in _lift(cfg, a.coeffs, prec)), prec)


def digit_coeffs(cfg: PrimeConfig, coeffs, prec: int, count: int) -> list:
    """The first `count` Teichmüller digits of the Witt vector with int
    coefficients `coeffs` (known mod p^prec), as coefficient tuples.

    Digit i is d = (c mod p) for the current coefficients c, after which
    c becomes (c - [d]) / p; digit i is only determined mod p^(prec-i), so
    count is at most prec.  No FqElem or WittElem is built.
    """
    # The coefficients are never reduced: subtracting the lift of digit d
    # leaves them divisible by p, and a lift read at a higher precision than
    # rem moves them by multiples of p^rem, which no later digit sees.
    p, digits, cur = cfg.p, [], coeffs
    for rem in range(prec, prec - count, -1):
        d = tuple([x % p for x in cur])
        digits.append(d)
        if any(d):
            cur = [x - y for x, y in zip(cur, _lift(cfg, d, rem))]
        cur = [x // p for x in cur]
    return digits


def digit_runs(cfg: PrimeConfig, runs, step: int) -> list:
    """The nonzero Teichmüller digits of plain ints at r = 1, as (exponent,
    coefficient tuple) pairs.

    A run (e, x, prec, count) is an int x known mod p^prec whose digit i
    sits at exponent e + i*step; x is reduced mod p^prec, its first `count`
    digits are read as in digit_coeffs, and the run ends early once x is 0,
    since every further digit is then 0.  [0] = 0 and [1] = 1
    need no lift (the floor division drops them); any other lift is read
    from the table once per digit and higher precision, which serves every
    lower one.  Equal digits of one call share one tuple.
    """
    p, lifts, digits, out = cfg.p, {}, {}, []
    for e, x, prec, count in runs:
        x %= p ** prec
        for rem in range(prec, prec - count, -1):
            if not x:
                break
            d = x % p
            if d:
                out.append((e, digits.setdefault(d, (d,))))
                if d > 1:
                    lift = lifts.get(d)
                    if lift is None or lift[0] < rem:
                        lift = lifts[d] = (rem, _lift(cfg, (d,), rem)[0])
                    x -= lift[1]
            x //= p
            e += step
    return out


def digit_decompose(c: WittElem) -> tuple:
    """Teichmüller digits (d_0, ..., d_{prec-1}) with c = sum [d_i] p^i.

    The digits of `digit_coeffs` as FqElems; digit i is only determined
    modulo p^(prec-i), and the returned tuple always has length c.prec.
    """
    cfg = c.cfg
    return tuple(FqElem(cfg, d) for d in digit_coeffs(cfg, c.coeffs, c.prec, c.prec))


def _poly_ring(cfg, coeffs):
    """The polynomial ring for root finding over cfg's field and the
    FqElem coefficients as its values: `_FpPolys` on ints at r = 1,
    `_FqPolys` on r-tuples otherwise."""
    values = [cfg.fq(c).coeffs for c in coeffs]
    if cfg.r == 1:
        return _FpPolys(cfg.p), [v[0] for v in values]
    return _FqPolys(cfg), values


def fq_poly_roots(coeffs) -> set:
    """Roots in F_{p^r} of the polynomial with the given FqElem coefficients.

    Coefficients run low degree first.  A zero constant coefficient gives the
    root 0 and is divided out; the rest are the roots of gcd(f, x^q - x),
    split by traces (see `_FpPolys.roots`), in time polynomial in deg f and
    log q.  Raises ZeroPolynomial when every coefficient vanishes.
    """
    coeffs = list(coeffs)
    if not coeffs or all(c.is_zero() for c in coeffs):
        raise ZeroPolynomial("all coefficients are zero")
    cfg = coeffs[0].cfg
    F, values = _poly_ring(cfg, coeffs)
    low = next(i for i, v in enumerate(values) if v != F.zero)
    roots = {FqElem(cfg, v if cfg.r > 1 else (v,)) for v in F.roots(values[low:])}
    if low:
        roots.add(cfg.fq(0))
    return roots


@functools.lru_cache(maxsize=None)
def _embedding_image(small: PrimeConfig, big: PrimeConfig) -> FqElem:
    """Image of the small field's generator inside the big field.

    Deterministic: the lexicographically smallest root of the small modulus.
    """
    if big.p != small.p or big.r % small.r != 0:
        raise ValueError("no subfield embedding")
    poly = [big.fq(c) for c in small.modulus]
    roots = fq_poly_roots(poly)
    if not roots:
        raise AssertionError("subfield modulus must split in the extension")
    return min(roots, key=lambda x: x.sort_key())


def subfield_embedding(a: FqElem, big: PrimeConfig) -> FqElem:
    """Embed a in the extension field described by `big` (small r | big r)."""
    if a.cfg.same_field(big):
        return a
    gen = _embedding_image(a.cfg, big)
    acc = big.fq(0)
    for c in reversed(a.coeffs):
        acc = acc * gen + big.fq(c)
    return acc


def rational_p_val(x: Fraction, p: int):
    """p-adic valuation of a rational; float('inf') for zero."""
    if x == 0:
        return float("inf")
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v
