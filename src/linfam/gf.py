"""Finite fields F_q, q = p^s, in a polynomial-basis representation.

Elements are encoded as integers in [0, q): the base-p digits of the code
are the coefficients of the residue polynomial, constant term first.  A
FieldSpec owns the arithmetic tables and every element operation on the
encodings.  Moduli default to a fixed Conway-polynomial table for
q <= 64 (so encodings are reproducible across runs), to least_irreducible
beyond it, and may be overridden.  The polynomial helpers work over any
FieldSpec: F_{p^s} is built on field(p), and extremal.singer_cycle builds
F_{q^n} on field(q) with the same searches.
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


# --- polynomials over a field F, coefficient tuples constant-first ----------

def digits(a: int, base: int, n: int) -> tuple[int, ...]:
    """The n base-`base` digits of a, least significant first."""
    out = []
    for _ in range(n):
        out.append(a % base)
        a //= base
    return tuple(out)


def poly_mod(F: "FieldSpec", a, f) -> tuple[int, ...]:
    """a modulo the monic f, as its len(f) - 1 low coefficients."""
    a, d = list(a), len(f) - 1
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top]
        if c:
            for k in range(d):
                a[top - d + k] = F.sub(a[top - d + k], F.mul(c, f[k]))
    return tuple(a[:d])


def poly_mulmod(F: "FieldSpec", a, b, f) -> tuple[int, ...]:
    """a * b modulo the monic f."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = F.add(prod[i + j], F.mul(x, y))
    return poly_mod(F, prod, f)


def poly_irreducible(F: "FieldSpec", f) -> bool:
    """Trial division of the monic f by every monic polynomial of at most
    half its degree; a degree-1 f takes no arithmetic."""
    return all(any(poly_mod(F, f, digits(c, F.q, d) + (1,)))
               for d in range(1, (len(f) - 1) // 2 + 1) for c in range(F.q ** d))


def least_irreducible(F: "FieldSpec", n: int) -> tuple[int, ...]:
    """The monic irreducible of degree n whose low coefficients, read as
    constant-first base-q digits, code the least integer."""
    return next(f for f in (digits(c, F.q, n) + (1,) for c in range(F.q ** n))
                if poly_irreducible(F, f))


def first_generator(elements: Iterable, one, mul, order: int):
    """The first of the elements whose powers under mul first return to
    one at the order-th; GeneratorSearchFailed when none does."""
    for g in elements:
        x, k = g, 1
        while x != one:
            x, k = mul(x, g), k + 1
        if k == order:
            return g
    raise GeneratorSearchFailed(f"no element of multiplicative order {order}")


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
        self.p, self.s, self.q = p, s, q
        # F_{p^s} = F_p[x]/(modulus) computes on field(p); the prime field's
        # modulus has degree 1, which the search and the test take without
        # arithmetic, so it serves as its own base
        base = field(p) if s > 1 else self
        if modulus is None:
            modulus = CONWAY.get(q) or least_irreducible(base, s)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise DomainError("modulus must be monic of degree s")
        if not poly_irreducible(base, modulus):
            raise DomainError(f"modulus {modulus} reducible over F_{p}")
        self.modulus = modulus
        self._hash = hash((p, s, modulus))
        self._build_tables(base)

    # encoding -------------------------------------------------------------

    def coeffs_of(self, a: int) -> tuple[int, ...]:
        return digits(a, self.p, self.s)

    def encode(self, coeffs: Iterable[int]) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + (c % self.p)
        return a

    # table construction ---------------------------------------------------

    def _build_tables(self, base: "FieldSpec"):
        p, s, q = self.p, self.s, self.q
        if s == 1 or q > 256:
            self._add = None
        else:
            self._add = [[self.encode(tuple((x + y) % p for x, y in
                                            zip(self.coeffs_of(a), self.coeffs_of(b))))
                          for b in range(q)] for a in range(q)]
        self._neg = tuple(self.encode(tuple((-x) % p for x in self.coeffs_of(a)))
                          for a in range(q))
        if s == 1:
            def mul(a, b):
                return a * b % p
        else:
            def mul(a, b):
                return self.encode(poly_mulmod(base, self.coeffs_of(a),
                                               self.coeffs_of(b), self.modulus))
        gen = first_generator(range(1, q), 1, mul, q - 1)
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for k in range(q - 1):
            exp[k] = x
            log[x] = k
            x = mul(x, gen)
        for k in range(q - 1, 2 * (q - 1)):
            exp[k] = exp[k - (q - 1)]
        self._exp, self._log = exp, log
        # Tr(sum_i c_i x^i) = sum_i c_i Tr(x^i), x^i being encoded as p^i
        trace = [0]
        for i in range(s):
            t, x = 0, p ** i
            for _ in range(s):
                t = self.add(t, x)
                x = self.pow(x, p)
            trace = [(u + c * t) % p for c in range(p) for u in trace]
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
        return other is self or (
            isinstance(other, FieldSpec)
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
