"""Graded-commutative exterior algebra over exact scalars.

The algebra models the real cohomology of a product of four-dimensional
tori.  A :class:`Space` is the ordered tuple of its factor kinds, ``"A"``
for the surface and ``"Ah"`` for its dual, and nothing else: integrating
out the first factor of AxA lands on the same space as A.  Each factor
contributes four anticommuting degree-one generators, named only for
printing (the kind, numbered from 1 when it repeats: ``A1.f1v``).  An
:class:`ExteriorClass` is a finite sum of monomials in those generators
with scalar coefficients (``int``/``Fraction``/:class:`~thetachi.poly.Poly`,
or :class:`~thetachi.poly.Lanes` for many numeric trials at once).

A monomial is stored as an ``int`` bitset, bit i for generator i, so the
monomial is the product of its generators in increasing index order (the
bitmap representation of basis blades).  The public API speaks in sorted
index tuples; ``ExteriorClass.terms`` is keyed by bitsets.

Sign conventions, fixed once and validated by the regression pins in the
test suite:

* the product of monomials a and b is zero when ``a & b``, else ``a | b``
  times the parity of the merge permutation: the number of pairs
  (x in a, y in b) with x > y.  That count's parity is the parity of
  ``a & crossing(b)``, where ``crossing(b)`` sets bit x exactly when an
  odd number of generators of b lie below x;
* fiber integration strips the fiber generators from the front of the
  monomial; moving them there is sign-free, because the four generators are
  contiguous and each crosses the same generators below the fiber;
* total integration reads off the coefficient of the full top monomial in
  listed order, which integrates to +1.

The contraction kernels ``pushforward`` and ``integrate_product`` give
``fiber_integrate(wedge(a, b).part(degree), position)`` and
``integrate(wedge(a, b))`` without building the product.  They keep both
rules: a pair of terms takes its sign from b's crossing mask exactly as in
``wedge``, and the fiber strip after it stays sign-free.  Because the strip
acts bitwise, the stripped key of ``ka | kb`` is the union of the stripped
keys of ``ka`` and ``kb``, so each term is stripped once, not each pair.

Every accumulation follows one rule: a key's first term is stored as
computed, negated where its sign is odd, and later terms add to it
(``term if prev is None else prev + term``).  Starting each sum from int 0
instead would make a ``Poly`` coerce the 0 and copy its dict, and a
``Lanes`` broadcast the 0 across its lanes, for every key; ``0 + x`` and
``x`` are the same value of the same type for every scalar, so the rule
changes no result, and it needs no knowledge of the scalar types.  The
classes' ``+``, the morphisms' tables and composites, and ``abelian``'s
transform and Mukai class builder keep the same rule.

All values are immutable and all operations are pure functions.  A class
owns its term dict: every builder hands ``ExteriorClass._of`` a dict made
for it, which nothing changes afterwards.  There is one kind of internal
state: a :class:`MorphismH1` fills a write-once table of basis images as
its pullback meets new monomials.  The table is a function of the
morphism's immutable rows, so it never changes a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .poly import Scalar, normalize_scalar, scalar_div, scalar_is_zero

GENERATORS_PER_FACTOR = 4


class SpaceMismatch(ValueError):
    """Raised when classes or morphisms on different spaces are combined."""


# generator stems of each factor kind: A carries f1v..f4v, its dual Ah f1..f4
_STEMS = {"A": ("f1v", "f2v", "f3v", "f4v"), "Ah": ("f1", "f2", "f3", "f4")}


@dataclass(frozen=True)
class Space:
    """An ordered product of factors, given by their kinds ("A" or "Ah").

    A space is its kinds: two spaces with the same kinds in the same order
    are equal.  Generator indices are contiguous, four per factor, left
    factor first.
    """

    kinds: tuple

    def __post_init__(self):
        for kind in self.kinds:
            if kind not in _STEMS:
                raise ValueError(f"unknown factor kind {kind!r}")

    @property
    def ngens(self) -> int:
        return GENERATORS_PER_FACTOR * len(self.kinds)

    def offset(self, position: int) -> int:
        """Index of the first generator of the factor at ``position``."""
        if not 0 <= position < len(self.kinds):
            raise SpaceMismatch(f"no factor at position {position}")
        return GENERATORS_PER_FACTOR * position

    def generator_names(self) -> tuple:
        """``<factor>.<stem>`` per generator.  A factor is named by its kind,
        numbered from 1 in order when the kind occurs more than once
        (A1, A2 on AxA; A, Ah1, Ah2 on AxAhxAh)."""
        seen: dict = {}
        names = []
        for kind in self.kinds:
            seen[kind] = seen.get(kind, 0) + 1
            label = f"{kind}{seen[kind]}" if self.kinds.count(kind) > 1 else kind
            names.extend(f"{label}.{stem}" for stem in _STEMS[kind])
        return tuple(names)

    def without(self, position: int) -> "Space":
        return Space(self.kinds[:position] + self.kinds[position + 1:])


def _bits(indices) -> int:
    """Bitset of an iterable of generator indices."""
    key = 0
    for i in indices:
        key |= 1 << i
    return key


def _indices(key: int) -> tuple:
    """Sorted index tuple of a bitset."""
    out = []
    while key:
        low = key & -key
        out.append(low.bit_length() - 1)
        key ^= low
    return tuple(out)


def _crossing(key: int) -> int:
    """Mask with bit x set when an odd number of bits of key lie below x.

    ``-(2 << y)`` sets every bit above y; a negative result is fine, since
    it is only ever and-ed with a nonnegative key.
    """
    mask = 0
    while key:
        low = key & -key
        mask ^= -(low << 1)
        key ^= low
    return mask


def merge_sign(a: tuple, b: tuple):
    """Merge two sorted index tuples; return (key, sign) or None on overlap.

    The sign is the parity of the shuffle bringing the concatenation a+b
    into sorted order, computed by the same crossing-mask test as wedge.
    """
    ka, kb = _bits(a), _bits(b)
    if ka & kb:
        return None
    sign = -1 if (ka & _crossing(kb)).bit_count() & 1 else 1
    return _indices(ka | kb), sign


class ExteriorClass:
    """Inhomogeneous element of the exterior algebra of a Space."""

    __slots__ = ("space", "terms")

    def __init__(self, space: Space, terms=None):
        """Validate sorted index-tuple keys and store them as bitsets."""
        self.space = space
        self.terms = {}
        if terms:
            ngens = space.ngens
            for key, coeff in terms.items():
                if key and (key[0] < 0 or key[-1] >= ngens):
                    raise SpaceMismatch(f"monomial {key} outside space range")
                if any(x >= y for x, y in zip(key, key[1:])):
                    raise ValueError(f"monomial {key} is not strictly increasing")
                if coeff:
                    self.terms[_bits(key)] = normalize_scalar(coeff)

    @classmethod
    def _of(cls, space: Space, terms: dict) -> "ExteriorClass":
        """Trusted constructor: bitset keys, zero coefficients dropped.

        Takes ownership of ``terms``: the caller passes a dict it built for
        this call and neither keeps nor changes it afterwards.  When every
        value is a nonzero int the dict is kept as given; otherwise a new
        dict is built without the zeros, each non-int value normalized.
        """
        self = object.__new__(cls)
        self.space = space
        for c in terms.values():
            if type(c) is not int or not c:
                terms = {
                    k: c if type(c) is int else normalize_scalar(c)
                    for k, c in terms.items() if c
                }
                break
        self.terms = terms
        return self

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(space: Space) -> "ExteriorClass":
        return ExteriorClass._of(space, {})

    @staticmethod
    def unit(space: Space, coeff: Scalar = 1) -> "ExteriorClass":
        return ExteriorClass._of(space, {0: coeff})

    @staticmethod
    def generator(space: Space, index: int) -> "ExteriorClass":
        if not 0 <= index < space.ngens:
            raise IndexError(f"generator {index} outside space")
        return ExteriorClass._of(space, {1 << index: 1})

    @staticmethod
    def monomial(space: Space, indices: Iterable[int], coeff: Scalar = 1) -> "ExteriorClass":
        """The product of the generators ``indices`` in increasing order,
        times ``coeff``; zero when an index repeats."""
        indices = tuple(indices)
        if len(set(indices)) != len(indices):
            return ExteriorClass.zero(space)
        if indices and (min(indices) < 0 or max(indices) >= space.ngens):
            raise SpaceMismatch(f"monomial {tuple(sorted(indices))} outside space range")
        return ExteriorClass._of(space, {_bits(indices): coeff})

    # -- linear structure ---------------------------------------------------

    def _check(self, other: "ExteriorClass"):
        if self.space != other.space:
            raise SpaceMismatch("classes live on different spaces")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        get = terms.get
        for key, coeff in other.terms.items():
            prev = get(key)
            terms[key] = coeff if prev is None else prev + coeff
        return ExteriorClass._of(self.space, terms)

    def __neg__(self):
        return ExteriorClass._of(self.space, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, scalar: Scalar) -> "ExteriorClass":
        if scalar_is_zero(scalar):
            return ExteriorClass.zero(self.space)
        return ExteriorClass._of(self.space, {k: c * scalar for k, c in self.terms.items()})

    def __truediv__(self, k):
        return ExteriorClass._of(
            self.space, {key: scalar_div(c, k) for key, c in self.terms.items()}
        )

    # -- grading ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> tuple:
        return tuple(sorted({k.bit_count() for k in self.terms}))

    def part(self, degree: int) -> "ExteriorClass":
        return ExteriorClass._of(
            self.space, {k: c for k, c in self.terms.items() if k.bit_count() == degree}
        )

    def coefficient(self, indices: Iterable[int]) -> Scalar:
        key = tuple(sorted(indices))
        if len(set(key)) != len(key) or (key and key[0] < 0):
            return 0
        return self.terms.get(_bits(key), 0)

    def __eq__(self, other):
        if not isinstance(other, ExteriorClass):
            return NotImplemented
        if self.space != other.space:
            return False
        # equal coefficients are equal scalars; the converse needs the test
        # below (a Lanes coefficient never compares equal to an int)
        if self.terms == other.terms:
            return True
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
        monomials = sorted((k.bit_count(), _indices(k), k) for k in self.terms)
        parts = []
        for _, indices, key in monomials:
            mono = "^".join(names[i] for i in indices) or "1"
            parts.append(f"({self.terms[key]})*{mono}")
        return " + ".join(parts)


def wedge(a: ExteriorClass, b: ExteriorClass) -> ExteriorClass:
    """Graded-commutative product; overlapping monomials vanish."""
    a._check(b)
    right = [(kb, _crossing(kb), cb) for kb, cb in b.terms.items()]
    out: dict = {}
    get = out.get
    for ka, ca in a.terms.items():
        for kb, crossing, cb in right:
            if ka & kb:
                continue
            key = ka | kb
            term = ca * cb
            if (ka & crossing).bit_count() & 1:
                term = -term
            prev = get(key)
            out[key] = term if prev is None else prev + term
    return ExteriorClass._of(a.space, out)


def integrate(c: ExteriorClass) -> Scalar:
    """Coefficient of the full top monomial in listed order (0 if absent)."""
    return c.terms.get((1 << c.space.ngens) - 1, 0)


def _fiber_masks(space: Space, fiber_position: int) -> tuple:
    """(fiber, low): the bits of one factor's generators and of those below."""
    lo = space.offset(fiber_position)
    return ((1 << GENERATORS_PER_FACTOR) - 1) << lo, (1 << lo) - 1


def _strip(key: int, low: int) -> int:
    """key with the fiber block just above ``low`` removed, later bits shifted
    down onto the complementary space.

    Sign-free: each earlier generator is crossed by all four fiber ones.  The
    map is injective on keys holding the whole fiber, and bitwise, so it
    sends a disjoint union to the union of the images.
    """
    return (key & low) | ((key >> GENERATORS_PER_FACTOR) & ~low)


def fiber_integrate(c: ExteriorClass, fiber_position: int) -> ExteriorClass:
    """Integrate over one factor of a product space.

    Keeps only the monomials containing all four generators of the fiber
    factor, strips them, and reindexes onto the complementary space.
    """
    fiber, low = _fiber_masks(c.space, fiber_position)
    return ExteriorClass._of(c.space.without(fiber_position), {
        _strip(key, low): coeff for key, coeff in c.terms.items() if key & fiber == fiber
    })


def pushforward(a: ExteriorClass, b: ExteriorClass, fiber_position: int,
                degree=None) -> ExteriorClass:
    """``fiber_integrate(wedge(a, b).part(degree), fiber_position)`` in one pass.

    b's terms are grouped by the fiber generators they hold (and by degree
    when ``degree`` is given).  Each term of a meets only the group that
    completes its fiber bits to the whole fiber and its degree to
    ``degree``; the rest of the product would be thrown away.  ``degree``
    None keeps every degree.  Grouping a term costs more than looking one
    up, so the smaller class is best passed as b.
    """
    a._check(b)
    fiber, low = _fiber_masks(a.space, fiber_position)
    groups: dict = {}
    for kb, cb in b.terms.items():
        slot = (kb & fiber, None if degree is None else kb.bit_count())
        groups.setdefault(slot, []).append((kb, _crossing(kb), _strip(kb, low), cb))
    out: dict = {}
    get = out.get
    for ka, ca in a.terms.items():
        partners = groups.get(
            (fiber ^ (ka & fiber), None if degree is None else degree - ka.bit_count())
        )
        if partners is None:
            continue
        rest = _strip(ka, low)
        for kb, crossing, kb_rest, cb in partners:
            if ka & kb:
                continue
            key = rest | kb_rest
            term = ca * cb
            if (ka & crossing).bit_count() & 1:
                term = -term
            prev = get(key)
            out[key] = term if prev is None else prev + term
    return ExteriorClass._of(a.space.without(fiber_position), out)


def integrate_product(a: ExteriorClass, b: ExteriorClass) -> Scalar:
    """``integrate(wedge(a, b))``: each term of a meets only its complement in b."""
    a._check(b)
    top = (1 << a.space.ngens) - 1
    get = b.terms.get
    total = None
    for ka, ca in a.terms.items():
        kb = top ^ ka
        cb = get(kb)
        if cb is None:
            continue
        term = ca * cb
        if (ka & _crossing(kb)).bit_count() & 1:
            term = -term
        total = term if total is None else total + term
    return normalize_scalar(total) if total else 0


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
    pullback of the target's j-th generator (repeated indices add up).
    The pullback of arbitrary classes is the multiplicative extension, so
    degree is preserved: a monomial expands one generator at a time, each
    appended on the right of the partial source monomials, whose sign is
    the parity of the generators already present above the new one.

    The pullback is linear, so it is applied through a table of basis
    images: the image of a target monomial, a column of the compound
    matrix of the rows (its entries are the Cauchy-Binet minors), is
    expanded the first time the monomial is met and stored, and every
    pullback is the sum of its coefficients times their images.  The rows
    are an immutable tuple, so an image never goes stale; the table only
    grows, holds at most 2^ngens(target) entries, and an entry is written
    once (threads that race on a key store equal images and keep the
    first).
    """

    __slots__ = ("source", "target", "rows", "_images")

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
                    entries.append((idx, normalize_scalar(coeff)))
            clean.append(tuple(entries))
        self.source = source
        self.target = target
        self.rows = tuple(clean)
        self._images: dict = {}  # target key -> ((source key, scalar), ...)

    def _image(self, key: int) -> tuple:
        """Pullback of the target monomial ``key`` with coefficient 1, stored."""
        rows = self.rows
        partial = {0: 1}
        rest = key
        while rest and partial:
            low = rest & -rest
            rest ^= low
            grown: dict = {}
            get = grown.get
            for mono, value in partial.items():
                if not value:
                    continue
                for i, a in rows[low.bit_length() - 1]:
                    bit = 1 << i
                    if mono & bit:
                        continue
                    term = value * a
                    if (mono >> i).bit_count() & 1:
                        term = -term
                    prev = get(mono | bit)
                    grown[mono | bit] = term if prev is None else prev + term
            partial = grown
        image = tuple((mono, value) for mono, value in partial.items() if value)
        return self._images.setdefault(key, image)

    def pullback(self, c: ExteriorClass) -> ExteriorClass:
        if c.space != self.target:
            raise SpaceMismatch("class does not live on the morphism target")
        images = self._images
        out: dict = {}
        get = out.get
        for key, coeff in c.terms.items():
            image = images.get(key)
            if image is None:
                image = self._image(key)
            for mono, a in image:
                prev = get(mono)
                out[mono] = coeff * a if prev is None else prev + coeff * a
        return ExteriorClass._of(self.source, out)

    def after(self, inner: "MorphismH1") -> "MorphismH1":
        """Composite self∘inner as a map of spaces (pullbacks compose)."""
        if inner.target != self.source:
            raise SpaceMismatch("composition mismatch")
        rows = []
        for row in self.rows:
            image: dict = {}
            get = image.get
            for j, c in row:
                for i, a in inner.rows[j]:
                    prev = get(i)
                    image[i] = c * a if prev is None else prev + c * a
            rows.append(sorted(image.items()))
        return MorphismH1(inner.source, self.target, rows)

    def __repr__(self):
        tnames = self.target.generator_names()
        snames = self.source.generator_names()
        lines = []
        for j, row in enumerate(self.rows):
            image = " + ".join(f"({c})*{snames[i]}" for i, c in row) or "0"
            lines.append(f"{tnames[j]} -> {image}")
        return "MorphismH1[" + "; ".join(lines) + "]"
