"""Sparse multivariate polynomials over the rationals.

Every scalar in this package is one of ``int``, ``fractions.Fraction``,
:class:`Poly` or :class:`Lanes`.  Arithmetic is exact everywhere; floats are
never produced.

A :class:`Poly` stores a dict from monomials to nonzero coefficients.

* Int first: a coefficient that is an integer is stored as an ``int``;
  only a non-integral coefficient is a ``Fraction``.  Every operation
  passes its coefficients through the rule of :func:`normalize_scalar`,
  so sums and products of int-only polynomials never build a ``Fraction``.
* Packed monomials (Monagan & Pearce, "Polynomial division using dynamic
  arrays, heaps, and packed exponent vectors", CASC 2007): a monomial is
  one ``int`` holding a 16-bit exponent field per variable, so the product
  of two monomials is one integer addition and the constant monomial is 0.
  :meth:`Poly.var` assigns a variable its field the first time it sees the
  name, from a module-wide name -> index table that only grows.  The order
  of registration fixes only the packing, never a printed result:
  ``coeffs_by_power`` and ``__repr__`` read the fields by name.
* Guard bits: the top bit of every field stays clear, so exponents are
  below 2**15.  Each field of a sum of two such monomials is below 2**16
  and cannot carry into its neighbour; a multiplication whose product
  monomial has a guard bit set raises ``OverflowError`` instead of
  producing a wrong monomial.  ``__pow__`` squares its base only up to
  the top bit of n, so ``p ** n`` raises exactly when n times p's degree
  in some variable reaches 2**15, that is, when the result does not fit.
* Units: ``p * 1`` and ``p * -1``, on either side, are ``p`` itself and
  ``-p``, and so are ``p / 1`` and ``p / -1``.  Their coefficients are
  already normalized, so the general product or quotient would give the
  same terms; it is not run.

A :class:`Lanes` holds one int/Fraction scalar per numeric trial, so that
one pass of the engine evaluates all trials at once.  It stores no scalar
objects but three tuples over a common layout: the int numerators, the
positive int denominators (None when every one is 1), and per-lane flags
marking the lanes that are a Fraction (None when none is).  Its operators
are C-level ``map`` calls over those tuples:

* ``+`` and ``-`` add the numerators directly when the two denominator
  tuples are equal and cross-multiply otherwise; ``*`` and ``**`` act on
  numerators and denominators alike.  None of them reduces a lane.
* ``*`` by the int 1 or -1, on either side, returns the Lanes itself or
  its negation, with no broadcast tuple and no product; :func:`scalar_div`
  by the int 1 or -1 reduces the Lanes or its negation, with no quotient.
  ``True`` is not an int here and stays refused, as every bool is.
* Reduction, by ``map(math.gcd, ...)``, happens only in :func:`scalar_div`
  and :func:`normalize_scalar`; the engine normalizes every coefficient it
  stores and every integral it returns, so an unreduced lane is short-lived.
* A lane keeps the type a run on its scalar alone gives: it becomes a
  Fraction when it meets one (``Fraction(n, 1)`` included, as ``int +
  Fraction`` is a Fraction), and an int again only when scalar_div or
  normalize_scalar leaves it integral.
* A ``Fraction`` is built only when a lane is read: indexing, iteration
  and ``repr``.

So each lane reads as exactly the value and type that a run on that
lane's scalar alone holds.  A Lanes is true when any lane is nonzero: a
class drops a term only when the term is zero in every lane.
"""

from __future__ import annotations

import operator
import threading
from fractions import Fraction
from itertools import repeat
from math import gcd
from typing import Union

Mono = int  # packed exponent vector, _FIELD_BITS bits per variable
Scalar = Union[int, Fraction, "Poly", "Lanes"]

_ONE: Mono = 0
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1

# name -> field index, and the names in field order; both only grow
_INDEX: dict = {}
_NAMES: list = []
# the top bit of every registered field
_GUARD = 0
_REGISTER = threading.Lock()


def _shift(name: str) -> int:
    """Bit offset of the field of ``name``, registering the name if new."""
    global _GUARD
    index = _INDEX.get(name)
    if index is None:
        with _REGISTER:
            index = _INDEX.get(name)
            if index is None:
                index = len(_NAMES)
                _NAMES.append(name)
                _GUARD |= 1 << (_FIELD_BITS * (index + 1) - 1)
                _INDEX[name] = index
    return _FIELD_BITS * index


def _decode(mono: Mono) -> tuple:
    """The monomial as a tuple of ``(name, exponent)`` pairs sorted by name."""
    pairs = []
    index = 0
    while mono:
        exp = mono & _FIELD_MASK
        if exp:
            pairs.append((_NAMES[index], exp))
        mono >>= _FIELD_BITS
        index += 1
    pairs.sort()
    return tuple(pairs)


def _overflow(mono: Mono) -> OverflowError:
    names = [
        name for index, name in enumerate(_NAMES)
        if mono >> (_FIELD_BITS * (index + 1) - 1) & 1
    ]
    return OverflowError(
        f"exponent of {', '.join(names)} reaches 2**{_FIELD_BITS - 1}"
    )


class Poly:
    """Polynomial with int/Fraction coefficients over packed monomials.

    ``terms`` maps each packed monomial to its nonzero coefficient, an
    ``int`` whenever the coefficient is integral.  See the module docstring
    for the packing, the guard bits and the int-first rule.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def _of(terms: dict) -> "Poly":
        """Trusted constructor: takes ownership of a normalized ``terms``."""
        poly = object.__new__(Poly)
        poly.terms = terms
        return poly

    @staticmethod
    def const(value) -> "Poly":
        if type(value) is not int:
            value = normalize_scalar(Fraction(value))
        return Poly._of({_ONE: value} if value else {})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly._of({1 << _shift(name): 1})

    @staticmethod
    def _coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = Poly._coerce(other)
        terms = dict(self.terms)
        get = terms.get
        for mono, coeff in other.terms.items():
            new = get(mono, 0) + coeff
            if not new:
                terms.pop(mono, None)
            elif type(new) is Fraction and new.denominator == 1:
                terms[mono] = new.numerator
            else:
                terms[mono] = new
        return Poly._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Poly._coerce(other))

    def __rsub__(self, other):
        return Poly._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if type(other) is not int:
                other = normalize_scalar(Fraction(other))
            if not other:
                return Poly._of({})
            if other == 1:
                return self
            if other == -1:
                return -self
            return Poly._of({
                m: normalize_scalar(c * other) for m, c in self.terms.items()
            })
        guard = _GUARD
        right = other.terms.items()
        if len(self.terms) == 1 == len(right):
            # two monomials: one product and nothing to collect
            ((m1, c1),), ((m2, c2),) = self.terms.items(), right
            mono = m1 + m2
            if mono & guard:
                raise _overflow(mono)
            return Poly._of({mono: normalize_scalar(c1 * c2)})
        out: dict = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                mono = m1 + m2
                if mono & guard:
                    raise _overflow(mono)
                out[mono] = get(mono, 0) + c1 * c2
        return Poly._of({
            m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for m, c in out.items() if c
        })

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other):
        if type(other) is not int:
            other = normalize_scalar(Fraction(other))
        if other == 1:
            return self
        if other == -1:
            return -self
        return Poly._of({m: scalar_div(c, other) for m, c in self.terms.items()})

    # -- predicates and views --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return (self - other).is_zero
        return NotImplemented

    __hash__ = None

    def coeffs_by_power(self, name: str) -> dict:
        """Split into polynomials indexed by the power of one variable."""
        index = _INDEX.get(name)
        if index is None:
            return {0: Poly(self.terms)} if self.terms else {}
        shift = _FIELD_BITS * index
        out: dict = {}
        for mono, coeff in self.terms.items():
            power = (mono >> shift) & _FIELD_MASK
            out.setdefault(power, {})[mono - (power << shift)] = coeff
        return {p: Poly._of(t) for p, t in out.items()}

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = []
        for mono, coeff in sorted((_decode(m), c) for m, c in self.terms.items()):
            factors = "*".join(
                name if exp == 1 else f"{name}^{exp}" for name, exp in mono
            )
            parts.append(f"{coeff}*{factors}" if factors else f"{coeff}")
        return " + ".join(parts)


# -- lanes -----------------------------------------------------------------

# the lane scalars
_RATIONAL = frozenset((int, Fraction))


def _lanes(nums: tuple, dens, flags) -> "Lanes":
    """Trusted constructor: takes ownership of the three tuples."""
    lanes = object.__new__(Lanes)
    lanes.nums = nums
    lanes.dens = dens
    lanes.flags = flags
    return lanes


def _broadcast(value, width: int):
    """``value`` in each of ``width`` lanes, or None if a lane cannot hold it."""
    kind = type(value)
    if kind is int:
        return _lanes((value,) * width, None, None)
    if kind is Fraction:
        den = value.denominator
        return _lanes((value.numerator,) * width, None if den == 1 else (den,) * width,
                      (True,) * width)
    return None


def _either(f, g):
    """Fraction flags of a sum or product of two Lanes: a lane is a Fraction
    when it is one in either operand."""
    if f is None or f is g:
        return g
    if g is None:
        return f
    return tuple(map(operator.or_, f, g))


def _reduced(nums, dens: tuple) -> "Lanes":
    """The Lanes of nums[i]/dens[i], dens positive, each lane in lowest
    terms and an int exactly when it is integral."""
    common = tuple(map(gcd, nums, dens))
    nums = tuple(map(operator.floordiv, nums, common))
    dens = tuple(map(operator.floordiv, dens, common))
    if dens.count(1) == len(dens):
        return _lanes(nums, None, None)
    return _lanes(nums, dens, tuple(map(operator.ne, dens, repeat(1))))


def _sum(op):
    """``op`` (add or sub) of two Lanes: numerators add directly over equal
    denominator tuples and cross-multiplied otherwise, unreduced."""

    def combine(a: "Lanes", b: "Lanes") -> "Lanes":
        an, ad, bn, bd = a.nums, a.dens, b.nums, b.dens
        if ad is bd or ad == bd:
            return _lanes(tuple(map(op, an, bn)), ad, _either(a.flags, b.flags))
        if ad is None:
            nums, dens = map(op, map(operator.mul, an, bd), bn), bd
        elif bd is None:
            nums, dens = map(op, an, map(operator.mul, bn, ad)), ad
        else:
            nums = map(op, map(operator.mul, an, bd), map(operator.mul, bn, ad))
            dens = tuple(map(operator.mul, ad, bd))
        return _lanes(tuple(nums), dens, _either(a.flags, b.flags))

    return combine


def _product(a: "Lanes", b: "Lanes") -> "Lanes":
    ad, bd = a.dens, b.dens
    dens = bd if ad is None else ad if bd is None else tuple(map(operator.mul, ad, bd))
    return _lanes(tuple(map(operator.mul, a.nums, b.nums)), dens, _either(a.flags, b.flags))


def _lanewise(combine):
    """``combine`` of two Lanes, as the forward and the reflected method
    that take an int, a Fraction or a Lanes of the same length."""

    def forward(self, other):
        if type(other) is Lanes:
            if len(other.nums) != len(self.nums):
                raise ValueError(f"{len(self)} lanes against {len(other)}")
            return combine(self, other)
        other = _broadcast(other, len(self.nums))
        return NotImplemented if other is None else combine(self, other)

    def reflected(self, other):
        other = _broadcast(other, len(self.nums))
        return NotImplemented if other is None else combine(other, self)

    return forward, reflected


class Lanes:
    """One int/Fraction scalar per numeric trial; see the module docstring.

    Lane i is ``nums[i]/dens[i]``: an int when ``flags`` is None or
    ``flags[i]`` is false (its denominator is then 1), else a Fraction.
    ``dens`` is None when every denominator is 1; denominators are
    positive, and a lane need not be in lowest terms until
    :func:`normalize_scalar` or :func:`scalar_div` reduces it.

    Immutable.  ``+ - * **`` and negation act lane by lane with an int, a
    Fraction or another Lanes of the same length; a Poly is refused.
    Indexing, iteration and ``repr`` read lanes as int/Fraction scalars;
    ``==`` compares those with another Lanes or a tuple.
    """

    __slots__ = ("nums", "dens", "flags")

    def __init__(self, values):
        values = tuple(values)
        kinds = set(map(type, values))
        if not kinds <= _RATIONAL:
            raise TypeError(f"a lane holds an int or a Fraction, not {kinds - _RATIONAL}")
        if Fraction not in kinds:
            self.nums, self.dens, self.flags = values, None, None
            return
        dens = tuple(v.denominator for v in values)
        self.nums = tuple(v.numerator for v in values)
        self.dens = None if dens.count(1) == len(dens) else dens
        self.flags = tuple(type(v) is Fraction for v in values)

    __add__, __radd__ = _lanewise(_sum(operator.add))
    __sub__, __rsub__ = _lanewise(_sum(operator.sub))

    def __mul__(self, other):
        if type(other) is Lanes:
            if len(other.nums) != len(self.nums):
                raise ValueError(f"{len(self)} lanes against {len(other)}")
            return _product(self, other)
        if type(other) is int and (other == 1 or other == -1):
            return self if other == 1 else -self
        other = _broadcast(other, len(self.nums))
        return NotImplemented if other is None else _product(self, other)

    # a lane product commutes in value, in lane type and in layout
    __rmul__ = __mul__

    def __neg__(self):
        return _lanes(tuple(map(operator.neg, self.nums)), self.dens, self.flags)

    def __pow__(self, n):
        if type(n) is not int:
            return NotImplemented
        if n < 0:
            raise ValueError("negative power of Lanes: an int lane has no inverse")
        dens = self.dens
        return _lanes(tuple(map(pow, self.nums, repeat(n))),
                      None if dens is None else tuple(map(pow, dens, repeat(n))), self.flags)

    def __bool__(self):
        return any(self.nums)

    def __len__(self):
        return len(self.nums)

    def __getitem__(self, i):
        flags = self.flags
        if flags is None or not flags[i]:
            return self.nums[i]
        return Fraction(self.nums[i], 1 if self.dens is None else self.dens[i])

    def __iter__(self):
        if self.flags is None:
            return iter(self.nums)
        return map(self.__getitem__, range(len(self.nums)))

    def __eq__(self, other):
        if type(other) is Lanes or isinstance(other, tuple):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Lanes({list(self)!r})"


# -- scalar helpers ------------------------------------------------------


def scalar_is_zero(s: Scalar) -> bool:
    """Whether s is zero; a Lanes is zero when it is zero in every lane."""
    if isinstance(s, Poly):
        return s.is_zero
    if type(s) is Lanes:
        return not any(s.nums)
    return s == 0


def scalar_div(s: Scalar, k) -> Scalar:
    """Exact division of a scalar by a nonzero rational, lane by lane for
    a Lanes dividend or divisor."""
    if type(s) is Lanes or type(k) is Lanes:
        return _lane_quotient(s, k)
    if isinstance(s, Poly):
        return s / k
    value = Fraction(s, k) if isinstance(k, int) else Fraction(s) / k
    return int(value) if value.denominator == 1 else value


def _lane_quotient(s, k) -> Lanes:
    """``scalar_div`` of each lane: reduced, and an int when integral."""
    if type(k) is int and (k == 1 or k == -1):  # then s is the Lanes
        return normalize_scalar(s if k == 1 else -s)
    width = len(s) if type(s) is Lanes else len(k)
    a = s if type(s) is Lanes else _broadcast(s, width)
    b = k if type(k) is Lanes else _broadcast(k, width)
    if a is None or b is None:
        raise TypeError(f"cannot divide {type(s).__name__} by {type(k).__name__} in lanes")
    if len(b.nums) != width:
        raise ValueError(f"{width} lanes against {len(b.nums)}")
    if not all(b.nums):
        raise ZeroDivisionError("division by zero in a lane")
    nums = a.nums if b.dens is None else tuple(map(operator.mul, a.nums, b.dens))
    dens = b.nums if a.dens is None else tuple(map(operator.mul, a.dens, b.nums))
    if min(dens, default=1) < 0:  # a negative divisor: its sign moves up
        nums = [-x if d < 0 else x for x, d in zip(nums, dens)]
        dens = tuple(map(abs, dens))
    return _reduced(nums, dens)


def normalize_scalar(s: Scalar) -> Scalar:
    """Collapse integral Fractions to int, in every lane of a Lanes (which
    reduces each lane); leave everything else alone."""
    # an exact type test: isinstance goes through ABCMeta for every int
    if type(s) is Fraction and s.denominator == 1:
        return int(s)
    if type(s) is Lanes and s.flags is not None:
        if s.dens is None:
            return _lanes(s.nums, None, None)
        return _reduced(s.nums, s.dens)
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