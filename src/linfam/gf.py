"""Finite fields F_q, q = p^s, in a polynomial-basis representation.

Elements are encoded as integers in [0, q): the base-p digits of the code
are the coefficients of the residue polynomial, constant term first.  A
FieldSpec owns the arithmetic tables and every element operation on the
encodings.  Moduli default to a fixed Conway-polynomial table for
q <= 64 (so encodings are reproducible across runs) and may be overridden.
"""
from __future__ import annotations

import json
from math import isqrt
from typing import Iterable

from .budget import Budget, ensure
from .cyclo import Cyc
from .errors import DivisionByZero, DomainError, GeneratorSearchFailed

_MAX_Q = 4096

# Conway polynomials C_{p,s} for q = p^s <= 64, coefficients constant-first,
# leading coefficient included.  Degree-1 entries are x - g with g the least
# primitive root mod p.
CONWAY: dict[int, tuple[int, ...]] = {
    2: (1, 1),
    3: (1, 1),
    4: (1, 1, 1),
    5: (3, 1),
    7: (4, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    11: (9, 1),
    13: (11, 1),
    16: (1, 1, 0, 0, 1),
    17: (14, 1),
    19: (17, 1),
    23: (18, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    29: (27, 1),
    31: (28, 1),
    32: (1, 0, 1, 0, 0, 1),
    37: (35, 1),
    41: (35, 1),
    43: (40, 1),
    47: (42, 1),
    49: (3, 6, 1),
    53: (51, 1),
    59: (57, 1),
    61: (59, 1),
    64: (1, 1, 0, 1, 1, 0, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# --- polynomials over F_p, coefficient lists constant-first -----------------

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pmod(a, mod, p):
    a = list(a)
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) >= len(mod):
        c = a[-1] * inv_lead % p
        if c:
            off = len(a) - len(mod)
            for i, mc in enumerate(mod):
                a[off + i] = (a[off + i] - c * mc) % p
        a.pop()
    return _ptrim(a)


def _poly_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(mod) - 1
    if deg < 1 or mod[-1] % p == 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            div = []
            c = code
            for _ in range(d):
                div.append(c % p)
                c //= p
            div.append(1)
            if not _pmod(mod, div, p):
                return False
    return True


class FieldSpec:
    """Arithmetic context for F_q; equality is by (p, s, modulus)."""

    __slots__ = ("p", "s", "q", "modulus", "_exp", "_log", "_neg", "_trace",
                 "_add", "_hash")

    def __init__(self, p: int, s: int, modulus: Iterable[int] | None = None):
        if not is_prime(p):
            raise DomainError(f"p={p} is not prime")
        if s < 1:
            raise DomainError("s must be >= 1")
        q = p ** s
        if q > _MAX_Q:
            raise DomainError(f"q={q} beyond supported size {_MAX_Q}")
        if modulus is None:
            modulus = CONWAY.get(q)
            if modulus is None:
                modulus = _search_irreducible(p, s)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise DomainError("modulus must be monic of degree s")
        if not _poly_irreducible(modulus, p):
            raise DomainError(f"modulus {modulus} reducible over F_{p}")
        self.p, self.s, self.q, self.modulus = p, s, q, modulus
        self._hash = hash((p, s, modulus))
        self._build_tables()

    # encoding -------------------------------------------------------------

    def coeffs_of(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.s):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, coeffs: Iterable[int]) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + (c % self.p)
        return a

    # table construction ---------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _pmul(list(self.coeffs_of(a)), list(self.coeffs_of(b)), self.p)
        return self.encode(_pmod(prod, list(self.modulus), self.p))

    def _build_tables(self):
        p, s, q = self.p, self.s, self.q
        if s == 1 or q > 256:
            self._add = None
        else:
            self._add = [[self.encode(tuple((x + y) % p for x, y in
                                            zip(self.coeffs_of(a), self.coeffs_of(b))))
                          for b in range(q)] for a in range(q)]
        self._neg = tuple(self.encode(tuple((-x) % p for x in self.coeffs_of(a)))
                          for a in range(q))
        gen = None
        for g in range(1, q):
            x, order = g, 1
            while x != 1:
                x = self._raw_mul(x, g)
                order += 1
            if order == q - 1:
                gen = g
                break
        if gen is None:
            raise GeneratorSearchFailed(f"no generator for q={q}")
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for k in range(q - 1):
            exp[k] = x
            log[x] = k
            x = self._raw_mul(x, gen)
        for k in range(q - 1, 2 * (q - 1)):
            exp[k] = exp[k - (q - 1)]
        self._exp, self._log = exp, log
        trace = []
        for a in range(q):
            t, x = 0, a
            for _ in range(s):
                t = self.add(t, x)
                x = self.pow(x, p)
            trace.append(self.coeffs_of(t)[0])
        self._trace = tuple(trace)

    # element arithmetic on integer encodings ------------------------------

    def add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        if self._add is not None:
            return self._add[a][b]
        return self.encode(tuple((x + y) % self.p for x, y in
                                 zip(self.coeffs_of(a), self.coeffs_of(b))))

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[(self.q - 1) - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by zero")
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._log[b] + (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def trace(self, a: int) -> int:
        """Trace into the prime field: a + a^p + ... + a^(p^(s-1))."""
        return self._trace[a]

    def elements(self) -> range:
        return range(self.q)

    # identity -------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldSpec(p={self.p}, s={self.s}, modulus={self.modulus})"

    # serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"p": self.p, "s": self.s, "modulus": list(self.modulus)})

    @classmethod
    def from_json(cls, text: str) -> "FieldSpec":
        d = json.loads(text)
        return field(d["p"] ** d["s"], modulus=tuple(d["modulus"]))


def _search_irreducible(p: int, s: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree s over F_p."""
    for code in range(p ** s):
        c, low = code, []
        for _ in range(s):
            low.append(c % p)
            c //= p
        cand = tuple(low) + (1,)
        if _poly_irreducible(cand, p):
            return cand
    raise GeneratorSearchFailed(f"no irreducible of degree {s} over F_{p}")


_FIELDS: dict[tuple[int, tuple[int, ...] | None], FieldSpec] = {}


def prime_power(q: int, budget: Budget | None = None) -> tuple[int, int]:
    """(p, s) with q = p^s; DomainError when q is not a prime power.  Trial
    division checks the budget's clock after every 65536 divisors."""
    if q < 2:
        raise DomainError(f"q={q} is not a prime power")
    b, top, p = ensure(budget), isqrt(q) + 1, q
    for lo in range(2, top, 65536):
        if lo > 2:
            b.check_clock("prime power test", f"{lo - 2} trial divisors")
        d = next((d for d in range(lo, min(lo + 65536, top)) if q % d == 0), 0)
        if d:
            p = d
            break
    s, rest = 0, q
    while rest % p == 0:
        rest //= p
        s += 1
    if rest != 1:
        raise DomainError(f"q={q} is not a prime power")
    return p, s


def field(q: int, modulus: tuple[int, ...] | None = None) -> FieldSpec:
    """Shared FieldSpec for the given order (cached)."""
    key = (q, tuple(modulus) if modulus is not None else None)
    spec = _FIELDS.get(key)
    if spec is None:
        spec = FieldSpec(*prime_power(q), modulus)
        _FIELDS[key] = spec
    return spec


def char_root(p: int, j: int) -> Cyc:
    """The root of unity w^j in exact cyclotomic coordinates."""
    if not is_prime(p):
        raise DomainError(f"p={p} is not prime")
    return Cyc.root(p, j)
