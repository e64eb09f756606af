"""Sparse multivariate polynomials over the rationals.

Every scalar in this package is one of ``int``, ``fractions.Fraction`` or
:class:`Poly`.  Arithmetic is exact everywhere; floats are never produced.
A :class:`Poly` stores a mapping from monomials to nonzero rational
coefficients, where a monomial is a sorted tuple of ``(variable, exponent)``
pairs.  The empty monomial is the constant term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Mono = tuple  # tuple[tuple[str, int], ...], sorted by variable name
Scalar = Union[int, Fraction, "Poly"]

_ONE: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged = {}
    for name, exp in a:
        merged[name] = exp
    for name, exp in b:
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted((n, e) for n, e in merged.items() if e))


class Poly:
    """Polynomial with Fraction coefficients, normalized (no zero terms)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def const(value) -> "Poly":
        value = Fraction(value)
        return Poly({_ONE: value} if value else {})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): Fraction(1)})

    @staticmethod
    def _coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = Poly._coerce(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, 0) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Poly._coerce(other))

    def __rsub__(self, other):
        return Poly._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Fraction(other)
            if not other:
                return Poly()
            return Poly({m: c * other for m, c in self.terms.items()})
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                new = out.get(mono, 0) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, Poly):
            const = other.constant_value()
            if const is None:
                raise TypeError("polynomial division only by constants")
            other = const
        other = Fraction(other)
        return Poly({m: c / other for m, c in self.terms.items()})

    # -- predicates and views --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_value(self):
        """The constant value if this polynomial has no variables, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and _ONE in self.terms:
            return self.terms[_ONE]
        return None

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return (self - other).is_zero
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    def coeffs_by_power(self, name: str) -> dict:
        """Split into polynomials indexed by the power of one variable."""
        out: dict = {}
        for mono, coeff in self.terms.items():
            power = 0
            rest = []
            for var, exp in mono:
                if var == name:
                    power = exp
                else:
                    rest.append((var, exp))
            bucket = out.setdefault(power, {})
            bucket[tuple(rest)] = bucket.get(tuple(rest), 0) + coeff
        return {p: Poly({m: c for m, c in t.items() if c}) for p, t in out.items()}

    def subs(self, assignment: dict):
        """Substitute scalars or polynomials for variables; exact."""
        result: Scalar = Poly()
        for mono, coeff in self.terms.items():
            term: Scalar = Poly.const(coeff)
            for var, exp in mono:
                factor = assignment.get(var)
                if factor is None:
                    factor = Poly.var(var)
                term = term * (Poly._coerce(factor) ** exp)
            result = result + term
        return result

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            factors = "*".join(
                name if exp == 1 else f"{name}^{exp}" for name, exp in mono
            )
            parts.append(f"{coeff}*{factors}" if factors else f"{coeff}")
        return " + ".join(parts)


# -- scalar helpers ------------------------------------------------------


def scalar_is_zero(s: Scalar) -> bool:
    if isinstance(s, Poly):
        return s.is_zero
    return s == 0


def scalar_div(s: Scalar, k) -> Scalar:
    """Exact division of a scalar by a nonzero rational."""
    if isinstance(s, Poly):
        return s / k
    value = Fraction(s, k) if isinstance(k, int) else Fraction(s) / k
    return int(value) if value.denominator == 1 else value


def normalize_scalar(s: Scalar) -> Scalar:
    """Collapse integral Fractions to int; leave everything else alone."""
    # an exact type test: isinstance goes through ABCMeta for every int
    if type(s) is Fraction and s.denominator == 1:
        return int(s)
    return s


def eliminate_linear(value: Scalar, var: str, numerator: Scalar, denominator: Scalar) -> Scalar:
    """Substitute ``var := numerator/denominator`` and clear denominators.

    Returns ``denominator**K * value[var := numerator/denominator]`` with K
    the degree of ``value`` in ``var``.  The result is zero exactly when
    ``value`` vanishes on the locus ``denominator*var == numerator`` (away
    from ``denominator == 0``).
    """
    if not isinstance(value, Poly):
        return value
    den = Poly._coerce(denominator)
    if den.is_zero:
        raise ZeroDivisionError("denominator is identically zero")
    num = Poly._coerce(numerator)
    buckets = value.coeffs_by_power(var)
    top = max(buckets) if buckets else 0
    result = Poly()
    for power, part in buckets.items():
        result = result + part * (num ** power) * (den ** (top - power))
    return result
