"""Graded-commutative exterior algebra over exact scalars.

The algebra models the real cohomology of a product of four-dimensional
tori.  A :class:`Space` is an ordered list of factors, each contributing
four anticommuting degree-one generators; an :class:`ExteriorClass` is a
finite sum of monomials in those generators with scalar coefficients
(``int``/``Fraction``/:class:`~thetachi.poly.Poly`).

Sign conventions, fixed once and validated by the regression pins in the
test suite:

* monomial keys are sorted tuples of generator indices; the sign of any
  product is the parity of the merge permutation;
* fiber integration strips the fiber generators from the front of the
  monomial; moving them there is sign-free, because the four generators are
  contiguous and each crosses the same generators below the fiber;
* total integration reads off the coefficient of the full top monomial in
  listed order, which integrates to +1.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .poly import Poly, Scalar, normalize_scalar, scalar_div, scalar_is_zero

GENERATORS_PER_FACTOR = 4


class SpaceMismatch(ValueError):
    """Raised when classes or morphisms on different spaces are combined."""


@dataclass(frozen=True)
class Factor:
    """One torus factor: a kind ("A" or "Ah") plus a bookkeeping label."""

    kind: str
    label: str

    def generator_names(self) -> tuple:
        if self.kind == "A":
            base = ("f1v", "f2v", "f3v", "f4v")
        elif self.kind == "Ah":
            base = ("f1", "f2", "f3", "f4")
        else:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        return tuple(f"{self.label}.{g}" for g in base)


@dataclass(frozen=True)
class Space:
    """An ordered product of factors; generator indices are contiguous."""

    factors: tuple

    def __post_init__(self):
        labels = [f.label for f in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")

    @property
    def ngens(self) -> int:
        return GENERATORS_PER_FACTOR * len(self.factors)

    def factor_range(self, position: int) -> range:
        lo = GENERATORS_PER_FACTOR * position
        return range(lo, lo + GENERATORS_PER_FACTOR)

    def generator_names(self) -> tuple:
        names = []
        for factor in self.factors:
            names.extend(factor.generator_names())
        return tuple(names)

    def without(self, position: int) -> "Space":
        rest = self.factors[:position] + self.factors[position + 1:]
        return Space(rest)

    def relabeled(self, other: "Space") -> "Space":
        """The same space with another space's labels; kinds must agree."""
        mine = tuple(f.kind for f in self.factors)
        theirs = tuple(f.kind for f in other.factors)
        if mine != theirs:
            raise SpaceMismatch(f"cannot relabel kinds {mine} as {theirs}")
        return other


def merge_sign(a: tuple, b: tuple):
    """Merge two sorted index tuples; return (key, sign) or None on overlap.

    The sign is the parity of the shuffle bringing the concatenation a+b
    into sorted order.
    """
    if not a:
        return b, 1
    if not b:
        return a, 1
    merged = []
    crossings = 0
    i = j = 0
    na = len(a)
    while i < na and j < len(b):
        x, y = a[i], b[j]
        if x == y:
            return None
        if x < y:
            merged.append(x)
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            crossings += na - i
            merged.append(y)
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged), (-1 if crossings & 1 else 1)


class ExteriorClass:
    """Inhomogeneous element of the exterior algebra of a Space."""

    __slots__ = ("space", "terms")

    def __init__(self, space: Space, terms=None):
        self.space = space
        self.terms = {}
        if terms:
            ngens = space.ngens
            for key, coeff in terms.items():
                if key and (key[0] < 0 or key[-1] >= ngens):
                    raise SpaceMismatch(f"monomial {key} outside space range")
                if not scalar_is_zero(coeff):
                    self.terms[key] = normalize_scalar(coeff)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(space: Space) -> "ExteriorClass":
        return ExteriorClass(space)

    @staticmethod
    def unit(space: Space, coeff: Scalar = 1) -> "ExteriorClass":
        return ExteriorClass(space, {(): coeff})

    @staticmethod
    def generator(space: Space, index: int) -> "ExteriorClass":
        if not 0 <= index < space.ngens:
            raise IndexError(f"generator {index} outside space")
        return ExteriorClass(space, {(index,): 1})

    @staticmethod
    def monomial(space: Space, indices: Iterable[int], coeff: Scalar = 1) -> "ExteriorClass":
        key = tuple(sorted(indices))
        if len(set(key)) != len(key):
            return ExteriorClass.zero(space)
        return ExteriorClass(space, {key: coeff})

    # -- linear structure ---------------------------------------------------

    def _check(self, other: "ExteriorClass"):
        if self.space != other.space:
            raise SpaceMismatch("classes live on different spaces")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = ExteriorClass.unit(self.space, other)
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return ExteriorClass(self.space, terms)

    __radd__ = __add__

    def __neg__(self):
        return ExteriorClass(self.space, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = ExteriorClass.unit(self.space, other)
        return self + (-other)

    def scaled(self, scalar: Scalar) -> "ExteriorClass":
        if scalar_is_zero(scalar):
            return ExteriorClass.zero(self.space)
        return ExteriorClass(self.space, {k: c * scalar for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, ExteriorClass):
            return wedge(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        # scalars commute past classes
        return self.scaled(other)

    def __truediv__(self, k):
        return ExteriorClass(self.space, {key: scalar_div(c, k) for key, c in self.terms.items()})

    # -- grading ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> tuple:
        return tuple(sorted({len(k) for k in self.terms}))

    def part(self, degree: int) -> "ExteriorClass":
        return ExteriorClass(
            self.space, {k: c for k, c in self.terms.items() if len(k) == degree}
        )

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def coefficient(self, indices: Iterable[int]) -> Scalar:
        return self.terms.get(tuple(sorted(indices)), 0)

    def __eq__(self, other):
        if not isinstance(other, ExteriorClass):
            return NotImplemented
        if self.space != other.space:
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(
            scalar_is_zero(self.terms[k] - other.terms[k]) for k in self.terms
        )

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.space.generator_names()
        parts = []
        for key in sorted(self.terms, key=lambda k: (len(k), k)):
            mono = "^".join(names[i] for i in key) or "1"
            parts.append(f"({self.terms[key]})*{mono}")
        return " + ".join(parts)


def wedge(a: ExteriorClass, b: ExteriorClass) -> ExteriorClass:
    """Graded-commutative product; overlapping monomials vanish."""
    a._check(b)
    out: dict = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            merged = merge_sign(ka, kb)
            if merged is None:
                continue
            key, sign = merged
            out[key] = out.get(key, 0) + (ca * cb if sign > 0 else -(ca * cb))
    return ExteriorClass(a.space, out)


def integrate(c: ExteriorClass) -> Scalar:
    """Coefficient of the full top monomial in listed order (0 if absent)."""
    top = tuple(range(c.space.ngens))
    return c.terms.get(top, 0)


def fiber_integrate(c: ExteriorClass, fiber_position: int) -> ExteriorClass:
    """Integrate over one factor of a product space.

    Keeps only the monomials containing all four generators of the fiber
    factor, strips them, and reindexes onto the complementary space.
    """
    if not 0 <= fiber_position < len(c.space.factors):
        raise SpaceMismatch(f"no factor at position {fiber_position}")
    fiber = c.space.factor_range(fiber_position)
    lo, hi = fiber.start, fiber.stop
    target = c.space.without(fiber_position)
    out: dict = {}
    for key, coeff in c.terms.items():
        rest = tuple(
            idx if idx < lo else idx - GENERATORS_PER_FACTOR
            for idx in key
            if not lo <= idx < hi
        )
        if len(key) - len(rest) != GENERATORS_PER_FACTOR:
            continue
        # sign-free: each earlier generator is crossed by all four fiber ones
        out[rest] = out.get(rest, 0) + coeff
    return ExteriorClass(target, out)


def relabel(c: ExteriorClass, new_space: Space) -> ExteriorClass:
    """The same class on a space with identical factor kinds, new labels."""
    c.space.relabeled(new_space)
    return ExteriorClass(new_space, c.terms)


def exp_even(c: ExteriorClass) -> ExteriorClass:
    """Exponential of a nilpotent even class: 1 + c + c^2/2! + ...

    The input must be purely of even degree >= 2; the series truncates at
    the top degree of the space.
    """
    for deg in c.degrees():
        if deg % 2 != 0 or deg == 0:
            raise ValueError(f"exp_even needs even positive degrees, got {deg}")
    result = ExteriorClass.unit(c.space)
    power = ExteriorClass.unit(c.space)
    factorial = 1
    for k in range(1, c.space.ngens // 2 + 1):
        power = wedge(power, c)
        if power.is_zero:
            break
        factorial *= k
        result = result + power / factorial
    return result


class MorphismH1:
    """Pullback action of a torus morphism on degree-one cohomology.

    ``rows[j]`` lists ``(source_index, scalar)`` pairs expressing the
    pullback of the target's j-th generator, and ``images[j]`` is that
    degree-one class.  The pullback of arbitrary classes is the
    multiplicative extension, so degree is preserved.
    """

    __slots__ = ("source", "target", "rows", "images")

    def __init__(self, source: Space, target: Space, rows):
        if len(rows) != target.ngens:
            raise SpaceMismatch("one row per target generator required")
        clean = []
        for row in rows:
            entries = []
            for idx, coeff in row:
                if not 0 <= idx < source.ngens:
                    raise SpaceMismatch(f"source index {idx} out of range")
                if not scalar_is_zero(coeff):
                    entries.append((idx, coeff))
            clean.append(tuple(entries))
        self.source = source
        self.target = target
        self.rows = tuple(clean)
        self.images = tuple(
            ExteriorClass(source, {(i,): c for i, c in row}) for row in self.rows
        )

    def pullback(self, c: ExteriorClass) -> ExteriorClass:
        if c.space != self.target:
            raise SpaceMismatch("class does not live on the morphism target")
        out: dict = {}
        for key, coeff in c.terms.items():
            term = ExteriorClass.unit(self.source, coeff)
            for j in key:
                term = wedge(term, self.images[j])
                if term.is_zero:
                    break
            for mono, value in term.terms.items():
                out[mono] = out.get(mono, 0) + value
        return ExteriorClass(self.source, out)

    def after(self, inner: "MorphismH1") -> "MorphismH1":
        """Composite self∘inner as a map of spaces (pullbacks compose)."""
        if inner.target != self.source:
            raise SpaceMismatch("composition mismatch")
        rows = [
            sorted((i, c) for (i,), c in inner.pullback(image).terms.items())
            for image in self.images
        ]
        return MorphismH1(inner.source, self.target, rows)

    def __repr__(self):
        tnames = self.target.generator_names()
        snames = self.source.generator_names()
        lines = []
        for j, row in enumerate(self.rows):
            image = " + ".join(f"({c})*{snames[i]}" for i, c in row) or "0"
            lines.append(f"{tnames[j]} -> {image}")
        return "MorphismH1[" + "; ".join(lines) + "]"
