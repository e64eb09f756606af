"""Exact evaluators for the theta-bundle Euler-characteristic formulas.

On the orthogonality locus the closed forms (1/2) c1^2/d * binom(d, d_v)
and d_v^2/d * binom(d, d_v), d = d_v + d_w, are integer sums of
binom(d-1, d_w-1) and binom(d-1, d_v-1), and are evaluated as such; with
binom(m, -1) = 0 the degenerate d_v = 0 and d_w = 0 fibers fall out of
the same sums.  One int kernel, ``row_forms``, evaluates all three from r,
chi and d of both vectors and their one binomial: per form it decides the
domain by tests, without raising, and returns the value, the branch and
the degenerate-fiber count it was checked against.  ``pairs`` keeps those
entries per row and renders them through ``form_results``; the theta
evaluators wrap the same entries into ``ChiResult``s and raise
``FormulaError`` where a form is undefined.  Every value is an int except
chi_hilbert's, which carries chi(D)/n; nothing is ever rounded.  The
binomial coefficient takes an int top of either sign: it is the
product-formula polynomial in its top argument evaluated there, the
extension that matches the Riemann-Roch polynomials the closed forms
abbreviate.  It is computed by ``math.comb`` (with the reflection formula
for negative tops), so a large top with a large bottom index stays fast;
``binom_past_digit_limit`` tells from the arguments alone when a binomial
would be too long to print.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .mukai import MukaiVector, euler_chi_tensor


class FormulaError(ValueError):
    """Precondition failure of a formula evaluator."""


def binom(a: int, b: int) -> int:
    """a(a-1)...(a-b+1)/b! for int a and int b >= 0.

    Uses math.comb, through binom(a, b) = (-1)^b binom(b-a-1, b) for a < 0;
    any other top raises TypeError.
    """
    if b < 0:
        raise FormulaError(f"binomial lower index must be nonnegative, got {b}")
    return math.comb(a, b) if a >= 0 else (-1) ** b * math.comb(b - a - 1, b)


def binom_past_digit_limit(top: int, k: int) -> bool:
    """Whether binom(top, k), int top and 0 <= k, has provably too many
    digits to print, decided before ``math.comb`` spends the time to build it.

    A negative top is reflected as ``binom`` reflects it: binom(top, k) has
    the digits of binom(k - top - 1, k).  Then binom(m, j) >= (m/j)^j with
    j = min(k, m - k) gives at least j * floor(log2(m // j)) bits, from
    integer arithmetic only.  A value of b bits with 3 * b > 10 * limit has
    more than ``limit`` decimal digits, since log10(2) > 3/10.  A limit of 0
    means no limit.
    """
    if top < 0:
        top = k - top - 1
    limit = sys.get_int_max_str_digits()
    j = min(k, top - k)
    return limit > 0 and j > 0 and 3 * j * ((top // j).bit_length() - 1) > 10 * limit


@dataclass(frozen=True)
class ChiResult:
    """Exact value of one Euler-characteristic formula plus provenance."""

    formula_id: str
    value: int | Fraction
    inputs: dict
    branch: str = "generic"
    cross_check: dict = field(default_factory=dict)

    @property
    def integral(self) -> bool:
        return self.value.denominator == 1

    def to_json_dict(self) -> dict:
        out = {
            "formula": self.formula_id,
            "value": str(self.value),
            "integral": self.integral,
            "branch": self.branch,
            "inputs": {k: str(v) for k, v in self.inputs.items()},
        }
        if self.cross_check:
            out["cross_check"] = {k: str(v) for k, v in self.cross_check.items()}
        return out


def _require_orthogonal(v: MukaiVector, w: MukaiVector):
    chi_vw = euler_chi_tensor(v, w)
    if chi_vw != 0:
        raise FormulaError(
            f"vectors are not orthogonal: chi(v (x) w) = {chi_vw}"
        )


def _pair_inputs(v: MukaiVector, w: MukaiVector) -> dict:
    return {"v": v.text(), "w": w.text(), "n": v.n}


def _row_binom(dv_: int, dw_: int):
    """binom(d-1, d_v-1), d = d_v + d_w: the one binomial of the closed forms.

    binom refuses a negative lower index, so binom(d-1, -1) = 0 is taken
    here.  None where no closed form is defined (d_v or d_w negative, or
    d = 0), so nothing is built for a row that is undefined.
    """
    if dv_ < 0 or dw_ < 0 or dv_ + dw_ == 0:
        return None
    return binom(dv_ + dw_ - 1, dv_ - 1) if dv_ else 0


# A form entry is the row kernel's decision for one closed form of a pair:
# (value, branch, check) where the form is defined, ``check`` being the
# degenerate-fiber count the value was tested against (None on a branch with
# no such test), and (None, message, args) where it is not, with
# ``message.format(*args)`` the text of the FormulaError its evaluator
# raises.  Deciding a domain raises nothing and formats no message.


def _square_form(formula_id: str, special_v: int, special_w: int, dv_: int, dw_: int,
                 binom_v) -> tuple:
    """special_v binom(d-1, d_w-1) + special_w binom(d-1, d_v-1) as a form
    entry, where special_v and special_w (r^2 or chi^2) are the
    degenerate-fiber counts and ``binom_v`` is ``_row_binom(d_v, d_w)``."""
    if dv_ < 0 or dw_ < 0:
        return None, "negative dimension invariant: d_v={}, d_w={}", (dv_, dw_)
    if dv_ + dw_ == 0:
        return None, "d_v + d_w = 0: both moduli degenerate", ()
    # c1^2/2 = special_v d_w + special_w d_v on the orthogonality locus;
    # binom(d-1, d_w-1) = binom(d-1, d_v-1) d_w/d_v spares a binom.
    binom_w = binom_v * dw_ // dv_ if dv_ else 1
    value = special_v * binom_w + special_w * binom_v
    if dv_ and dw_:
        return value, "generic", None
    expected = special_v if dv_ == 0 else special_w
    if value != expected:
        return (None, "{}: generic value {} disagrees with the degenerate-fiber count {}",
                (formula_id, value, expected))
    return value, "special_dv0" if dv_ == 0 else "special_dw0", expected


def _albanese_form(dv_: int, dw_: int, binom_v) -> tuple:
    """d_v * binom_v as a form entry, with ``binom_v`` = ``_row_binom(d_v, d_w)``."""
    if dv_ < 1:
        return None, "d_v must be at least 1, got {}", (dv_,)
    if dw_ < 0:
        return None, "d_w must be nonnegative, got {}", (dw_,)
    return dv_ * binom_v, "generic", None


def _arbitrary_form(dv_: int, dw_: int, binom_v) -> tuple:
    """chi_arbitrary_det as a form entry: the Albanese-fiber value, or d_v
    where d_w = 0, checked against the former where both are defined."""
    if dw_ == 0:
        if dv_ < 1:
            return dv_, "special_dw0", None
        generic = _albanese_form(dv_, 0, binom_v)[0]
        if generic != dv_:
            return (None, "chi_arbitrary_det: generic value {} disagrees "
                          "with the finite-fiber count {}", (generic, dv_))
        return dv_, "special_dw0", generic
    if dv_ < 1:
        return None, "chi_arbitrary_det needs d_v >= 1 or d_w = 0, got d_v={}", (dv_,)
    return _albanese_form(dv_, dw_, binom_v)


def row_forms(r_v: int, chi_v: int, dv_: int, r_w: int, chi_w: int, dw_: int) -> tuple:
    """The form entries of chi_fixed_det, chi_fixed_fm_det and
    chi_arbitrary_det (``_FORM_IDS``) of an orthogonal pair, from r, chi and
    d of each vector; the one binomial of the three is built once."""
    binom_v = _row_binom(dv_, dw_)
    return (
        _square_form("chi_fixed_det", r_v * r_v, r_w * r_w, dv_, dw_, binom_v),
        _square_form("chi_fixed_fm_det", chi_v * chi_v, chi_w * chi_w, dv_, dw_, binom_v),
        _arbitrary_form(dv_, dw_, binom_v),
    )


# the closed forms of row_forms, with the name of each one's checked count
_CHECK_NAMES = {"chi_fixed_det": "r^2", "chi_fixed_fm_det": "chi^2",
                "chi_arbitrary_det": "generic"}
_FORM_IDS = tuple(_CHECK_NAMES)


def _form_result(formula_id: str, entry: tuple, inputs: dict) -> ChiResult:
    """The ChiResult of a defined form entry; raises its FormulaError otherwise."""
    value, branch, check = entry
    if value is None:
        raise FormulaError(branch.format(*check))
    cross = {} if check is None else {_CHECK_NAMES[formula_id]: check}
    return ChiResult(formula_id, value, inputs, branch, cross)


def form_results(forms: tuple, v: MukaiVector, w: MukaiVector) -> tuple:
    """The ChiResults of the entries of ``row_forms`` of (v, w), None where undefined."""
    inputs = _pair_inputs(v, w)
    return tuple(None if entry[0] is None else _form_result(formula_id, entry, inputs)
                 for formula_id, entry in zip(_FORM_IDS, forms))


def _evaluate(index: int, v: MukaiVector, w: MukaiVector) -> ChiResult:
    """The closed form ``_FORM_IDS[index]`` of (v, w) as a ChiResult."""
    _require_orthogonal(v, w)
    entry = row_forms(v.r, v.chi, v.d, w.r, w.chi, w.d)[index]
    return _form_result(_FORM_IDS[index], entry, _pair_inputs(v, w))


def chi_fixed_det(v: MukaiVector, w: MukaiVector) -> ChiResult:
    """Theta Euler characteristic on the fixed-determinant moduli space.

    Generic value: (1/2) c1(v (x) w)^2 / (d_v + d_w) * binom(d_v+d_w, d_v),
    evaluated as r_v^2 binom(d-1, d_w-1) + r_w^2 binom(d-1, d_v-1).
    When d_v = 0 the moduli space is r_v^2 reduced points and the generic
    value must agree with r_v^2 (symmetrically for d_w = 0 with r_w^2).
    """
    return _evaluate(0, v, w)


def chi_fixed_fm_det(v: MukaiVector, w: MukaiVector) -> ChiResult:
    """Same formula with c1(v_hat (x) w_hat) of the transformed vectors:
    chi_v^2 binom(d-1, d_w-1) + chi_w^2 binom(d-1, d_v-1).

    The d = 0 special fibers consist of chi^2 points instead of r^2.
    """
    return _evaluate(1, v, w)


def chi_arbitrary_det(v: MukaiVector, w: MukaiVector) -> ChiResult:
    """Albanese-fiber value for the pair (v, w); equals chi on the full
    moduli space of the partner vector.

    Generic branch is the value of chi_albanese_fiber(d_v, d_w).  When
    d_w = 0 the partner moduli space is a finite set and the value is d_v;
    both branches are evaluated and must agree where both are defined.
    """
    return _evaluate(2, v, w)


def chi_albanese_fiber(dv_: int, dw_: int) -> ChiResult:
    """d_v^2/(d_v+d_w) * binom(d_v+d_w, d_v) = d_v * binom(d_v+d_w-1, d_v-1);
    the Albanese-fiber value.

    Defined for d_v >= 1; at d_v = 1 the fiber is a point and the value
    is 1 regardless of d_w.
    """
    return _form_result("chi_albanese_fiber", _albanese_form(dv_, dw_, _row_binom(dv_, dw_)),
                        {"d_v": dv_, "d_w": dw_})


@dataclass(frozen=True)
class KummerClass:
    """Line-bundle data D_(n) (x) E^r on a generalized Kummer variety."""

    chiD: int
    r: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise FormulaError("n must be at least 1")

    @property
    def top(self) -> int:
        """chi(D) - (r^2 - 1) n - 1, the top of the Kummer binomial."""
        return self.chiD - (self.r**2 - 1) * self.n - 1


def chi_kummer(kc: KummerClass) -> ChiResult:
    """n * binom(chi(D) - (r^2 - 1) n - 1, n - 1) on the Kummer fiber."""
    value = kc.n * binom(kc.top, kc.n - 1)
    return ChiResult(
        "chi_kummer", value, {"n": kc.n, "chiD": kc.chiD, "r": kc.r}
    )


def chi_hilbert(kc: KummerClass) -> ChiResult:
    """(chi(D)/n) * binom(chi(D) - (r^2 - 1) n - 1, n - 1) on the Hilbert scheme."""
    value = Fraction(kc.chiD, kc.n) * binom(kc.top, kc.n - 1)
    return ChiResult("chi_hilbert", value, {"n": kc.n, "chiD": kc.chiD, "r": kc.r})


def etale_cover_residual(kc: KummerClass, hilbert: ChiResult, kummer: ChiResult) -> Fraction:
    """chi_hilbert - (chiD/n^2) chi_kummer from the two results of ``kc``;
    zero by the etale-cover identity.  Both results build binom(top, n - 1)
    of the one ``KummerClass.top``, so the residual checks the rational
    weights chi(D)/n and n, not a second route to the binomial."""
    return hilbert.value - Fraction(kc.chiD, kc.n * kc.n) * kummer.value


def beauville_bogomolov(kc: KummerClass) -> int:
    """B(c1(D_(n) (x) E^r)) = 2 chi(D) - 2 n r^2 on the Kummer fiber.

    Restricted to n >= 3, where the second cohomology decomposition
    holds literally; ``kummer`` prints no ``bb_cross_value`` for n < 3.
    """
    if kc.n < 3:
        raise FormulaError("Beauville-Bogomolov bookkeeping needs n >= 3")
    return 2 * kc.chiD - 2 * kc.n * kc.r**2


def chi_from_bb(kc: KummerClass, kummer: ChiResult) -> ChiResult:
    """n * binom(B/2 + n - 1, n - 1), given ``kummer`` = ``chi_kummer(kc)``.

    Refused unless B/2 + n - 1 is ``kc.top``; then the value is the Kummer
    value, reported with B as its cross-check, and no binomial is built
    again.  Comparing the tops is no weaker than comparing the values:
    equal tops give equal binomials, while distinct tops can too
    (binom(2, 2) = binom(-1, 2) = 1).
    """
    b = beauville_bogomolov(kc)
    top = b // 2 + kc.n - 1
    if top != kc.top:
        raise FormulaError(
            f"Beauville-Bogomolov top {top} disagrees with the Kummer top {kc.top}"
        )
    return ChiResult(
        "chi_from_bb", kummer.value, {"n": kc.n, "chiD": kc.chiD, "r": kc.r}, "generic",
        {"B": b},
    )
