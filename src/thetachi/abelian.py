"""Atlas for a polarized abelian surface and its dual.

Names the standard spaces (A, Ah, AxA, AxAh, AxAxAh, AxAhxAh, AhxAh) as
``SP_*`` constants, each just its tuple of factor kinds, so a pushforward
from AxA lands on ``SP_A`` itself.  Builds the named classes
(polarization, point class, Poincare class), the morphism library
(addition and scaled addition, multiplication by N, the polarization
morphisms in both directions and their products), and the cohomological
Fourier-Mukai transform, a fixed linear map applied through the cached
transforms of the basis monomials: one table serves both directions.

Conventions pinned here and enforced by the regression tests:

* ``lambda_hat`` is *defined* as the degree-two part of the Fourier-Mukai
  transform of ``lambda``; in coordinates it equals
  ``-(d f3^f4 + e f1^f2)``.
* The dual polarization generator ``H_hat`` is ``-lambda_hat(H)``, so its
  coefficient pattern is positive and its self-intersection is ``2de``.
* The pullback of the morphism A -> Ah attached to a polarization is
  contraction of degree-one generators with ``lambda``; for the opposite
  direction Ah -> A it is contraction with ``H_hat`` (sign set by
  ``PHI_HAT_SIGN``), which makes both composites equal multiplication by
  ``-chi(lambda) = -de`` on degree one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exterior import (
    GENERATORS_PER_FACTOR,
    ExteriorClass,
    MorphismH1,
    Space,
    SpaceMismatch,
    exp_even,
    integrate,
    integrate_product,
    pushforward,
)
from .poly import Scalar, scalar_is_zero

# Flip to -1 to corrupt the dual-direction contraction; the identity suite
# (fmtl, phis) must then fail.  Used as a negative control in tests.
PHI_HAT_SIGN = 1


# -- spaces ----------------------------------------------------------------

SP_A = Space(("A",))
SP_AH = Space(("Ah",))
SP_AxA = Space(("A", "A"))
SP_AxAH = Space(("A", "Ah"))
SP_AxAxAH = Space(("A", "A", "Ah"))
SP_AxAHxAH = Space(("A", "Ah", "Ah"))
SP_AHxAH = Space(("Ah", "Ah"))


@dataclass(frozen=True)
class Polarization:
    """Diagonal polarization d*f1v^f2v + e*f3v^f4v; chi = d*e.

    Numeric instances take positive integers with d*e = n; symbolic
    instances may carry polynomial entries.
    """

    d: Scalar
    e: Scalar

    @property
    def chi(self) -> Scalar:
        return self.d * self.e


# -- named classes ----------------------------------------------------------

# the key of the product of the four generators of the factor at offset 0
_FACTOR_BITS = (1 << GENERATORS_PER_FACTOR) - 1


def two_form(sp: Space, position: int, coeffs: dict) -> ExteriorClass:
    """Degree-two class on one factor from local-index coefficients."""
    for i, j in coeffs:
        if not 0 <= i < j < 4:
            raise ValueError(f"bad local index pair {(i, j)}")
    off = sp.offset(position)
    return ExteriorClass._of(sp, {
        ((1 << i) | (1 << j)) << off: c for (i, j), c in coeffs.items()
    })


def polarization_class(sp: Space, position: int, pol: Polarization) -> ExteriorClass:
    return two_form(sp, position, {(0, 1): pol.d, (2, 3): pol.e})


def dual_polarization_class(sp: Space, position: int, pol: Polarization) -> ExteriorClass:
    """H_hat = -lambda_hat = d*f3^f4 + e*f1^f2 on an Ah factor."""
    return two_form(sp, position, {(2, 3): pol.d, (0, 1): pol.e})


def point_class(sp: Space, position: int) -> ExteriorClass:
    return ExteriorClass._of(sp, {_FACTOR_BITS << sp.offset(position): 1})


def poincare_class(sp: Space, first: int, second: int) -> ExteriorClass:
    """Sum over i of (first-factor generator i) ^ (second-factor generator i)."""
    if first == second:  # each product repeats a generator
        return ExteriorClass.zero(sp)
    off1, off2 = sp.offset(first), sp.offset(second)
    return ExteriorClass._of(sp, {(1 << (off1 + i)) | (1 << (off2 + i)): 1 for i in range(4)})


def mukai_class(sp: Space, position: int, rank: Scalar, c1: ExteriorClass, chi: Scalar) -> ExteriorClass:
    """rank + c1 + chi * (point class); c1 must already live on sp."""
    if c1.space != sp:
        raise SpaceMismatch("classes live on different spaces")
    top = _FACTOR_BITS << sp.offset(position)
    terms = {0: rank} if rank else {}
    get = terms.get
    for key, c in c1.terms.items():
        prev = get(key)
        terms[key] = c if prev is None else prev + c
    if chi:
        prev = get(top)
        terms[top] = chi if prev is None else prev + chi
    return ExteriorClass._of(sp, terms)


# -- morphisms ---------------------------------------------------------------


def projection(source: Space, positions: tuple, target: Space) -> MorphismH1:
    """Pullback along the projection of a product onto chosen factors."""
    return factorwise(source, target, [(p, None) for p in positions])


def addition(source: Space, pos1: int, pos2: int, target: Space, scale: Scalar = 1) -> MorphismH1:
    """Pullback of (a, b) -> a + scale*b between matching factors."""
    off1 = source.offset(pos1)
    off2 = source.offset(pos2)
    rows = [[(off1 + i, 1), (off2 + i, scale)] for i in range(4)]
    return MorphismH1(source, target, rows)


def _phi_rows(pol: Polarization):
    # contraction of f1..f4 with lambda = d f1v^f2v + e f3v^f4v
    d, e = pol.d, pol.e
    return ([(1, d)], [(0, -d)], [(3, e)], [(2, -e)])


def _phi_hat_rows(pol: Polarization):
    # contraction of f1v..f4v with H_hat = d f3^f4 + e f1^f2, times the pin
    d, e = pol.d * PHI_HAT_SIGN, pol.e * PHI_HAT_SIGN
    return ([(1, e)], [(0, -e)], [(3, d)], [(2, -d)])


def make_phi(pol: Polarization, direction: str) -> MorphismH1:
    """Polarization morphism on degree one.

    ``direction`` is "A->Ah" (contraction with lambda) or "Ah->A"
    (contraction with the dual generator).  Composing the two directions
    gives multiplication by -chi(lambda) on degree one.
    """
    if scalar_is_zero(pol.chi):
        raise ValueError("degenerate polarization: d*e = 0")
    if direction == "A->Ah":
        return MorphismH1(SP_A, SP_AH, _phi_rows(pol))
    if direction == "Ah->A":
        return MorphismH1(SP_AH, SP_A, _phi_hat_rows(pol))
    raise ValueError(f"unknown direction {direction!r}")


def factorwise(source: Space, target: Space, assignments) -> MorphismH1:
    """Product of per-factor maps.

    ``assignments[t]`` is ``(source_position, local_rows_or_None)``; None
    means the identity between matching factors, otherwise four local rows
    of ``(local_source_index, scalar)`` pairs.
    """
    rows = []
    for t_pos in range(len(target.kinds)):
        s_pos, local = assignments[t_pos]
        s_off = source.offset(s_pos)
        if local is None:
            for i in range(4):
                rows.append([(s_off + i, 1)])
        else:
            for row in local:
                rows.append([(s_off + i, c) for i, c in row])
    return MorphismH1(source, target, rows)


def one_times_phi(pol: Polarization) -> MorphismH1:
    """(1 x Phi_lambda): AxA -> AxAh, identity on the first factor."""
    return factorwise(SP_AxA, SP_AxAH, [(0, None), (1, _phi_rows(pol))])


def one_times_phi_hat(pol: Polarization) -> MorphismH1:
    """(1 x Phi_hat): AxAh -> AxA, identity on the first factor."""
    return factorwise(SP_AxAH, SP_AxA, [(0, None), (1, _phi_hat_rows(pol))])


def f_map(pol: Polarization) -> MorphismH1:
    """f = m o (1 x Phi_hat): AxAh -> A, (x, y) -> x + Phi_hat(y)."""
    return M_AxA.after(one_times_phi_hat(pol))


# -- parameter-free atlas objects, built once -----------------------------------

M_AxA = addition(SP_AxA, 0, 1, SP_A)
P1_AxA = projection(SP_AxA, (0,), SP_A)
P2_AxA = projection(SP_AxA, (1,), SP_A)
P1_AxAH = projection(SP_AxAH, (0,), SP_A)
C1_P = poincare_class(SP_AxAH, 0, 1)
FM_KERNEL = exp_even(C1_P)  # exp(c1(P)), the Fourier-Mukai kernel
OMEGA = point_class(SP_A, 0)


# -- Fourier-Mukai transform --------------------------------------------------


def fm_transform(c: ExteriorClass) -> ExteriorClass:
    """Cohomological Fourier-Mukai transform of an even class on A.

    Computes the fiber integral over A of (pullback of c) ^ exp(c1(P)).
    Degree 0 goes to degree 4, degree 4 to degree 0, degree 2 to degree 2.
    """
    return _transform(c, "fm_transform", SP_A, SP_AH)


def fm_transform_back(c: ExteriorClass) -> ExteriorClass:
    """Transform with the transposed Poincare kernel, from Ah back to A."""
    return _transform(c, "fm_transform_back", SP_AH, SP_A)


@lru_cache(maxsize=None)
def _transform_image(key: int) -> tuple:
    """Transform of the basis monomial ``key``, as ``((key, int), ...)``.

    Serves both directions.  A space is only its kinds, and the Poincare
    class sums generator i of one factor times generator i of the other,
    so the transposed kernel on AhxA has the same bitset terms as exp(c1(P))
    on AxAh, and the image of a monomial is the same bitset either way.
    Both factors of the product are even, so they commute; the small
    pulled-back monomial goes second, where ``pushforward`` groups its terms.
    """
    basis = ExteriorClass._of(SP_A, {key: 1})
    return tuple(pushforward(FM_KERNEL, P1_AxAH.pullback(basis), 0).terms.items())


def _transform(c: ExteriorClass, name: str, source: Space, target: Space) -> ExteriorClass:
    """Sum over the terms of c of coefficient times the basis image.

    Exact: the pullback and the pushforward against the fixed kernel are
    both linear over the scalar ring, so the transform of c is the
    coefficient-weighted sum of the transforms of its monomials, and the
    kernel's coefficients are ints, so the images carry no rounding and no
    scalar type of their own.  Each image is computed once.

    The source is a module constant, so an identity test settles the usual
    case before the equality test.  An odd key is refused where the loop
    meets it; ``out`` is local, so no partial sum escapes the refusal.
    """
    if c.space is not source and c.space != source:
        raise ValueError(f"{name} expects a class on the {source.kinds[0]} space")
    out: dict = {}
    get = out.get
    for key, coeff in c.terms.items():
        if key.bit_count() & 1:
            raise ValueError("transform defined on even classes only")
        for image_key, a in _transform_image(key):
            prev = get(image_key)
            out[image_key] = coeff * a if prev is None else prev + coeff * a
    return ExteriorClass._of(target, out)


def lambda_hat(pol: Polarization) -> ExteriorClass:
    """Degree-two part of fm(lambda); equals -(d f3^f4 + e f1^f2)."""
    return hat_of(polarization_class(SP_A, 0, pol))


def hat_of(c2: ExteriorClass) -> ExteriorClass:
    """Degree-two Fourier-Mukai image of a degree-two class on A."""
    return fm_transform(c2).part(2)


# -- pairing ------------------------------------------------------------------


def mukai_pair(x: ExteriorClass, y: ExteriorClass) -> Scalar:
    """Mukai pairing of even classes: ∫(x2 y2 - x0 y4 - x4 y0)."""
    if x.space != y.space or len(x.space.kinds) != 1:
        raise ValueError("pairing needs two classes on one four-torus")
    x0, y0 = x.coefficient(()), y.coefficient(())
    x4, y4 = integrate(x), integrate(y)
    # the complement of a degree-two monomial on A has degree two
    mid = integrate_product(x.part(2), y)
    return mid - x0 * y4 - x4 * y0
