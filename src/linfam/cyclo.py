"""Exact arithmetic in the cyclotomic field Q(w), w a primitive p-th root of unity.

Values are coefficient vectors over the power basis 1, w, ..., w^(p-2); the
relation 1 + w + ... + w^(p-1) = 0 eliminates w^(p-1), so the representation
is unique.  Coefficients are exact (int or Fraction; Python arithmetic mixes
the two transparently).  For p = 2 the field degenerates to Q with w = -1.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


class Cyc:
    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != p - 1:
            raise DomainError(f"need {p - 1} coefficients for p={p}")

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Cyc":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def from_rational(cls, p: int, x) -> "Cyc":
        return cls(p, (x,) + (0,) * (p - 2))

    @classmethod
    def root(cls, p: int, j: int) -> "Cyc":
        """w^j, reduced to the power basis."""
        j %= p
        if j == p - 1:
            return cls(p, (-1,) * (p - 1))
        c = [0] * (p - 1)
        c[j] = 1
        return cls(p, c)

    @classmethod
    def from_root_counts(cls, p: int, counts) -> "Cyc":
        """sum_j counts[j] * w^j for a length-p vector of scalars."""
        if len(counts) != p:
            raise DomainError("need one count per residue")
        top = counts[p - 1]
        return cls(p, tuple(counts[j] - top for j in range(p - 1)))

    # helpers --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.p != self.p:
                raise DomainError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc.from_rational(self.p, other)
        return None

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.p, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.p, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Cyc(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc(self.p, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        acc = [0] * p
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    acc[(i + j) % p] += a * b
        return Cyc.from_root_counts(p, acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return Cyc(self.p, tuple(a / other for a in self.coeffs))
        return NotImplemented

    def conj(self) -> "Cyc":
        """Complex conjugate: w^j -> w^(p-j)."""
        p = self.p
        acc = [0] * p
        for j, a in enumerate(self.coeffs):
            acc[(p - j) % p] += a
        return Cyc.from_root_counts(p, acc)

    # predicates and conversion -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    __bool__ = lambda self: not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"not rational: {self!r}")
        return Fraction(self.coeffs[0])

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"Cyc(p={self.p}, {list(self.coeffs)})"
