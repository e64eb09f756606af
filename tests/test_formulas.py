import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetachi import formulas, identities
from thetachi.abelian import SP_A, Polarization, hat_of, lambda_hat, polarization_class
from thetachi.formulas import (
    FormulaError,
    KummerClass,
    beauville_bogomolov,
    binom,
    binom_past_digit_limit,
    chi_albanese_fiber,
    chi_arbitrary_det,
    chi_fixed_det,
    chi_fixed_fm_det,
    chi_from_bb,
    chi_hilbert,
    chi_kummer,
    etale_cover_residual,
    form_results,
    row_forms,
)
from thetachi.mukai import MukaiVector, c1_tensor, euler_chi_tensor, fm_vector
from thetachi.pairs import enumerate_rows
from thetachi.poly import Poly


def test_binom_values():
    assert binom(5, 2) == 10
    for k in (-7, -1, 0, 3, 11):
        assert binom(k, 0) == 1
    assert binom(-1, 2) == 1  # (-1)(-2)/2
    assert binom(-9, 4) == 495
    with pytest.raises(FormulaError):
        binom(3, -1)


def test_binom_past_digit_limit_reflects_a_negative_top():
    # binom(a, k) = (-1)^k binom(k - a - 1, k) for a < 0, so both have the
    # same digits; the process-wide limit is read, never changed
    limit = sys.get_int_max_str_digits()
    for a in range(-12, 0):
        for k in range(0, 9):
            assert binom_past_digit_limit(a, k) == binom_past_digit_limit(k - a - 1, k)
    # binom(3j, j) is bounded below by 2^j, refused once 3 j > 10 limit
    edge = 10 * limit // 3 + 1
    for k, refused in ((edge - 1, False), (edge, True)):
        for a in (-2 * k - 1, -2 * k - 2, -5 * k):
            assert binom_past_digit_limit(a, k) == binom_past_digit_limit(k - a - 1, k)
        assert binom_past_digit_limit(-2 * k - 1, k) is refused
        assert binom_past_digit_limit(-5 * k, k)
    assert abs(binom(-2 * edge - 1, edge)) >= 10**limit
    assert sys.get_int_max_str_digits() == limit


def test_binom_refuses_non_int_tops():
    with pytest.raises(TypeError):
        binom(Poly.var("a"), 2)
    with pytest.raises(TypeError):
        binom(Fraction(1, 2), 2)


V1 = MukaiVector(1, 0, -1, 1)


def w_family(k):
    return MukaiVector(2, k, 2, 1)


def test_chi_fixed_det_worked_family():
    for k in (3, 5, 7, 9):
        result = chi_fixed_det(V1, w_family(k))
        assert result.value == k * k
        assert result.integral and result.branch == "generic"


def test_chi_fixed_det_symmetry():
    left = chi_fixed_det(V1, w_family(3))
    right = chi_fixed_det(w_family(3), V1)
    assert left.value == right.value == 9


def test_chi_fixed_det_degenerate_branch():
    v = MukaiVector(2, 1, 1, 2)
    w = MukaiVector(2, 1, -3, 2)
    result = chi_fixed_det(v, w)
    assert result.value == 4  # r^2
    assert result.branch == "special_dv0"
    assert result.cross_check == {"r^2": 4}
    # symmetric call hits the d_w = 0 side with the same value
    assert chi_fixed_det(w, v).value == 4


def test_chi_fixed_det_errors():
    with pytest.raises(FormulaError):
        chi_fixed_det(V1, MukaiVector(2, 4, 3, 1))  # not orthogonal
    iso_v = MukaiVector(1, 1, 1, 1)
    iso_w = MukaiVector(1, -1, 1, 1)
    assert iso_v.d == iso_w.d == 0
    with pytest.raises(FormulaError):
        chi_fixed_det(iso_v, iso_w)  # d_v + d_w = 0
    neg = MukaiVector(1, 0, 5, 1)  # d_v = -5
    partner = MukaiVector(1, 1, -5, 1)
    with pytest.raises(FormulaError):
        chi_fixed_det(neg, partner)


def test_chi_fixed_fm_det_values():
    assert chi_fixed_fm_det(V1, w_family(3)).value == 9
    v = MukaiVector(2, 1, 1, 2)
    w = MukaiVector(2, 1, -3, 2)
    result = chi_fixed_fm_det(v, w)
    assert result.value == 1  # chi^2
    assert result.branch == "special_dv0"
    assert result.cross_check == {"chi^2": 1}
    assert chi_fixed_fm_det(w, v).value == chi_fixed_fm_det(v, w).value
    assert chi_fixed_fm_det(w_family(5), V1).value == 25


def test_chi_albanese_fiber_values():
    for dw in (0, 1, 5, 12):
        assert chi_albanese_fiber(1, dw).value == 1
    assert chi_albanese_fiber(2, 3).value == 8
    assert chi_albanese_fiber(5, 3).value == 175
    with pytest.raises(FormulaError):
        chi_albanese_fiber(0, 3)
    with pytest.raises(FormulaError):
        chi_albanese_fiber(2, -1)


def test_albanese_k3_match_in_dimension_two():
    # a two-dimensional fiber is a K3 surface: value must be 2 d_w + 2
    for dw in range(0, 15):
        assert chi_albanese_fiber(2, dw).value == 2 * dw + 2


def test_chi_kummer_values():
    for chiD, r in ((7, 5), (0, 0), (-3, 2)):
        assert chi_kummer(KummerClass(chiD, r, 1)).value == 1
    assert chi_kummer(KummerClass(3, 0, 2)).value == 8
    assert chi_kummer(KummerClass(4, 1, 2)).value == 6
    assert chi_kummer(KummerClass(7, 2, 5)).value == 5 * binom(-9, 4)
    with pytest.raises(FormulaError):
        KummerClass(3, 0, 0)


def test_chi_hilbert_values():
    for chiD in (-2, 1, 9):
        assert chi_hilbert(KummerClass(chiD, 3, 1)).value == chiD
    assert chi_hilbert(KummerClass(4, 0, 2)).value == 10
    assert chi_hilbert(KummerClass(3, 0, 2)).value == 6  # (3/2) * binom(4, 1)
    for n in (0, -2):
        with pytest.raises(FormulaError, match="^n must be at least 1$"):
            chi_hilbert(KummerClass(3, 0, n))


def series_product(a, b):
    """Product of two int power series truncated to the length of a."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def series_power(u, m):
    """u**m for an int power series u with u[0] == 1 and any int m, truncated
    to the length of u; a negative m inverts u term by term, all in ints."""
    if m < 0:
        inverse = [1]
        for k in range(1, len(u)):
            inverse.append(-sum(u[j] * inverse[k - j] for j in range(1, k + 1)))
        u, m = inverse, -m
    out = [1] + [0] * (len(u) - 1)
    for _ in range(m):
        out = series_product(out, u)
    return out


def egl_hilbert_value(chiD, r, n):
    """The z^n coefficient of (1 + t)^chi(D), where t inverts
    z = t (1 + t)^(r^2 - 1): the Ellingsrud-Goettsche-Lehn series (J.
    Algebraic Geom. 10, 2001) on a surface with chi(O) = 0.  The inverse is
    the fixed point of t = z (1 + t)^(1 - r^2); each pass fixes one more
    coefficient of t."""
    t = [0] * (n + 1)
    for _ in range(n):
        t = [0] + series_power([1] + t[1:], 1 - r * r)[:n]
    return series_power([1] + t[1:], chiD)[n]


@given(st.integers(-30, 60), st.integers(-4, 4), st.integers(1, 6))
def test_chi_hilbert_is_the_egl_series_coefficient(chiD, r, n):
    """chi(A^[n], D_(n) (x) E^r) read off the generating series by series
    reversion, with no binomial coefficient on the way."""
    assert chi_hilbert(KummerClass(chiD, r, n)).value == egl_hilbert_value(chiD, r, n)


@given(st.integers(-30, 60), st.integers(-4, 4))
def test_chi_kummer_is_riemann_roch_on_the_kummer_k3(chiD, r):
    """At n = 2 the Kummer fiber is a K3 surface, where chi(L) = L^2/2 + 2.
    Restricted to it, D_(2) has square 4 chi(D) and E square -8 (half the
    sum of the sixteen (-2)-curves), orthogonal to D_(2), so
    chi = 2 chi(D) - 4 r^2 + 2."""
    assert chi_kummer(KummerClass(chiD, r, 2)).value == 2 * chiD - 4 * r * r + 2


def test_etale_cover_consistency():
    for n in range(1, 6):
        for r in range(0, 3):
            for chiD in range(-4, 12):
                kc = KummerClass(chiD, r, n)
                assert etale_cover_residual(kc, chi_hilbert(kc), chi_kummer(kc)) == 0


def test_kummer_albanese_crosswalk():
    for n in range(1, 8):
        for r in range(0, 4):
            for chiD in range(r * r * n + 1, r * r * n + 12):
                kum = chi_kummer(KummerClass(chiD, r, n)).value
                alb = chi_albanese_fiber(n, chiD - r * r * n).value
                assert kum == alb


@given(st.integers(1, 6), st.integers(-4, 4), st.integers(0, 5), st.booleans())
def test_chi_kummer_is_chi_arbitrary_det_of_the_hilbert_vector(n, r, excess, negative):
    """v = (1, 0, -n) is the Hilbert-scheme vector, with d_v = n, and
    w = (r, kH, n r) with k^2 >= r^2 is orthogonal to it, with
    d_w = n (k^2 - r^2) >= 0; the Albanese-fiber value of the pair is the
    Kummer value of chi(D) = n k^2.  d_v, d_w and orthogonality come from
    ``MukaiVector``, not by hand."""
    k = (abs(r) + excess) * (-1 if negative else 1)
    v, w = MukaiVector(1, 0, -n, n), MukaiVector(r, k, n * r, n)
    assert euler_chi_tensor(v, w) == 0
    assert chi_arbitrary_det(v, w).value == chi_kummer(KummerClass(n * k * k, r, n)).value


def test_chi_arbitrary_det_branches():
    v = MukaiVector(-2, 0, 1, 2)  # d_v = 2
    w0 = MukaiVector(2, 1, 1, 2)  # d_w = 0
    assert euler_chi_tensor(v, w0) == 0
    result = chi_arbitrary_det(v, w0)
    assert result.value == 2 and result.branch == "special_dw0"
    assert result.cross_check == {"generic": 2}

    w = w_family(3)
    generic = chi_arbitrary_det(V1, w)
    assert generic.value == chi_albanese_fiber(1, 5).value == 1
    with pytest.raises(FormulaError):
        chi_arbitrary_det(V1, MukaiVector(2, 4, 3, 1))
    # d_v = 0 with d_w > 0 is outside the formula's domain
    iso = MukaiVector(2, 1, 1, 2)
    with pytest.raises(FormulaError):
        chi_arbitrary_det(iso, MukaiVector(2, 1, -3, 2))


def test_evaluator_error_texts():
    cases = [
        (chi_fixed_det, V1, MukaiVector(2, 4, 3, 1),
         "vectors are not orthogonal: chi(v (x) w) = 1"),
        (chi_fixed_fm_det, MukaiVector(1, 0, 5, 1), MukaiVector(1, 1, -5, 1),
         "negative dimension invariant: d_v=-5, d_w=6"),
        (chi_fixed_det, MukaiVector(1, 1, 1, 1), MukaiVector(1, -1, 1, 1),
         "d_v + d_w = 0: both moduli degenerate"),
        (chi_arbitrary_det, MukaiVector(2, 1, 1, 2), MukaiVector(2, 1, -3, 2),
         "chi_arbitrary_det needs d_v >= 1 or d_w = 0, got d_v=0"),
        (chi_arbitrary_det, MukaiVector(1, 1, -5, 1), MukaiVector(1, 0, 5, 1),
         "d_w must be nonnegative, got -5"),
    ]
    for evaluator, v, w, text in cases:
        with pytest.raises(FormulaError) as raised:
            evaluator(v, w)
        assert str(raised.value) == text
    for (dv_, dw_), text in (((0, 3), "d_v must be at least 1, got 0"),
                             ((2, -1), "d_w must be nonnegative, got -1")):
        with pytest.raises(FormulaError) as raised:
            chi_albanese_fiber(dv_, dw_)
        assert str(raised.value) == text
    # the cross-checks, which hold on every orthogonal pair, fed a wrong binomial
    for entry, text in (
        (formulas._square_form("chi_fixed_det", 4, 9, 0, 3, 5),
         "chi_fixed_det: generic value 49 disagrees with the degenerate-fiber count 4"),
        (formulas._arbitrary_form(2, 0, 3),
         "chi_arbitrary_det: generic value 6 disagrees with the finite-fiber count 2"),
    ):
        with pytest.raises(FormulaError) as raised:
            formulas._form_result("chi_fixed_det", entry, {})
        assert str(raised.value) == text


def test_degenerate_branch_counts_on_constructed_instances():
    """Isotropic-side values: r^2 for the determinant side, chi^2 for the
    transform side, across 100+ constructed orthogonal instances."""
    checked = 0
    for n in (1, 2, 3):
        for k in range(1, 5):
            square = n * k * k
            for r in (t for t in range(1, square + 1) if square % t == 0):
                v = MukaiVector(r, k, square // r, n)  # <v, v> = 0
                for rw in range(-3, 4):
                    for kw in range(-3, 4):
                        numer = -(rw * v.chi + 2 * n * v.k * kw)
                        if numer % v.r:
                            continue
                        w = MukaiVector(rw, kw, numer // v.r, n)
                        if w.d <= 0:
                            continue
                        assert chi_fixed_det(v, w).value == v.r**2
                        assert chi_fixed_fm_det(v, w).value == v.chi**2
                        checked += 1
    assert checked >= 100


def test_beauville_bogomolov():
    assert beauville_bogomolov(KummerClass(5, 0, 3)) == 10  # 2 chiD
    assert beauville_bogomolov(KummerClass(4, 1, 3)) == 2
    with pytest.raises(FormulaError):
        beauville_bogomolov(KummerClass(4, 1, 2))
    for n in range(3, 13):
        for r in range(-3, 4):
            for chiD in range(-20, 21):
                kc = KummerClass(chiD, r, n)
                kummer = chi_kummer(kc)
                bb = n * binom(beauville_bogomolov(kc) // 2 + n - 1, n - 1)
                assert chi_from_bb(kc, kummer).value == bb == kummer.value


def test_chi_result_serialization():
    result = chi_fixed_det(V1, w_family(3))
    blob = result.to_json_dict()
    assert blob["value"] == "9"
    assert blob["integral"] is True
    assert blob["inputs"]["n"] == "1"
    # hilbert values are integral across a wide junk-input sweep
    for n in range(1, 6):
        for chiD in range(-6, 10):
            for r in range(0, 4):
                assert chi_hilbert(KummerClass(chiD, r, n)).integral


def test_non_integral_values_survive_exactly():
    from thetachi.formulas import ChiResult

    res = ChiResult("probe", Fraction(10, 3), {})
    assert not res.integral
    assert res.to_json_dict()["value"] == "10/3"


# -- the closed forms as integer binomial sums --------------------------------


def test_tensor_squares_are_binomial_weights_symbolically():
    """On chi(v (x) w) = 0, c1(v (x) w)^2/2 = r^2 d_w + r'^2 d_v and
    c1(v_hat (x) w_hat)^2/2 = chi^2 d_w + chi'^2 d_v: the identities that
    turn (1/2) c1^2/d * binom(d, d_v) into the binomial sums the evaluators
    compute.  Proved with a general lambda' and chi' eliminated; attaching
    each weight to the other binomial must leave a nonzero residual."""
    p = identities._ORTHOGONAL_SPEC.symbolic_params()
    r, rp, chi, chip = p["r"], p["rp"], p["chi"], p["chip"]
    pol = Polarization(p["d"], p["e"])
    lam, lamp = polarization_class(SP_A, 0, pol), identities._alpha_class(p)
    d_v = identities._half_square(lam) - r * chi
    d_w = identities._half_square(lamp) - rp * chip
    half_square = identities._half_square(lamp.scaled(r) + lam.scaled(rp))
    half_square_hat = identities._half_square(
        hat_of(lamp).scaled(chi) + lambda_hat(pol).scaled(chip)
    )

    def residual(label, value):
        return identities._first_nonzero({label: value}, p["constraint"])

    assert residual("main", half_square - (r * r * d_w + rp * rp * d_v)) == "0"
    assert residual("two", half_square_hat - (chi * chi * d_w + chip * chip * d_v)) == "0"
    # negative control: the binomials swapped
    assert residual("main", half_square - (r * r * d_v + rp * rp * d_w)) != "0"
    assert residual("two", half_square_hat - (chi * chi * d_v + chip * chip * d_w)) != "0"


def reference_closed_forms(v, w) -> tuple:
    """(main, two, three) by the rational expressions the binomial sums
    replaced: (1/2) c1^2 * binom(d, d_v)/d and d_v^2 * binom(d, d_v)/d, the
    degenerate d_w = 0 value d_v of theorem three, None where undefined."""
    dv_, dw_ = v.d, w.d
    total = dv_ + dw_
    main = two = three = None
    if dv_ >= 0 and dw_ >= 0 and total > 0:
        binomial = Fraction(binom(total, dv_), total)
        main = Fraction(c1_tensor(v, w).square(), 2) * binomial
        two = Fraction(c1_tensor(fm_vector(v), fm_vector(w)).square(), 2) * binomial
        if dv_ >= 1:
            three = dv_**2 * binomial
    if dw_ == 0:
        three = dv_
    return main, two, three


def _evaluate_or_none(evaluator, v, w):
    try:
        return evaluator(v, w)
    except FormulaError:
        return None


_EVALUATORS = (("main", chi_fixed_det), ("two", chi_fixed_fm_det), ("three", chi_arbitrary_det))


def check_against_reference(v, w) -> set:
    """Assert the int evaluators and the row kernel's entries equal the
    reference on (v, w); return the "theorem:branch" outcomes reached,
    "undef" for None."""
    rows = form_results(row_forms(v.r, v.chi, v.d, w.r, w.chi, w.d), v, w)
    reached = set()
    for (tag, evaluator), row, expected in zip(_EVALUATORS, rows, reference_closed_forms(v, w)):
        result = _evaluate_or_none(evaluator, v, w)
        if expected is None:
            assert result is None and row is None
            reached.add(f"{tag}:undef")
            continue
        assert type(result.value) is int and result.value == expected
        assert (row.value, row.branch, row.cross_check) == (
            result.value, result.branch, result.cross_check
        )
        reached.add(f"{tag}:{result.branch}")
    return reached


@st.composite
def orthogonal_pairs(draw):
    """(v, w) with chi(v (x) w) = 0: w is an integer combination of the
    three cross products that span the kernel of w -> chi(v (x) w)."""
    n = draw(st.integers(1, 3))
    r, k, chi = draw(st.integers(-3, 6)), draw(st.integers(-4, 4)), draw(st.integers(-9, 9))
    s, t, u = (draw(st.integers(-2, 2)) for _ in range(3))
    w = (s * 2 * n * k + t * r, -s * chi + u * r, -t * chi - u * 2 * n * k)
    v, w = MukaiVector(r, k, chi, n), MukaiVector(*w, n)
    assert euler_chi_tensor(v, w) == 0
    return v, w


@given(orthogonal_pairs())
def test_int_closed_forms_match_rational_reference(pair):
    check_against_reference(*pair)


def test_reference_oracle_reaches_every_branch():
    pairs = [
        (V1, w_family(3)),  # generic
        (MukaiVector(2, 1, 1, 2), MukaiVector(2, 1, -3, 2)),  # d_v = 0
        (MukaiVector(2, 1, -3, 2), MukaiVector(2, 1, 1, 2)),  # d_w = 0
        (MukaiVector(1, 1, 1, 1), MukaiVector(1, -1, 1, 1)),  # d_v = d_w = 0
        (MukaiVector(1, 0, 5, 1), MukaiVector(1, 1, -5, 1)),  # d_v < 0
    ]
    reached = set().union(*(check_against_reference(v, w) for v, w in pairs))
    assert reached >= {
        f"{tag}:{branch}"
        for tag in ("main", "two")
        for branch in ("generic", "special_dv0", "special_dw0", "undef")
    } | {"three:generic", "three:special_dw0", "three:undef"}


@given(orthogonal_pairs())
def test_closed_form_symmetries(pair):
    v, w = pair
    values = [
        None if result is None else result.value
        for result in (
            _evaluate_or_none(chi_fixed_det, v, w),
            _evaluate_or_none(chi_fixed_det, w, v),
            _evaluate_or_none(chi_fixed_fm_det, v, w),
            _evaluate_or_none(chi_fixed_det, fm_vector(v), fm_vector(w)),
        )
    ]
    assert values[0] == values[1]
    assert values[2] == values[3]


def test_closed_forms_build_one_binomial_per_row(monkeypatch):
    # the three closed forms of a row share binom(d-1, d_v-1): a generic row
    # (d_v, d_w >= 1) makes exactly one math.comb call, a degenerate one at
    # most one
    rows, _ = enumerate_rows(2, 3, 3, 5)
    real_comb = math.comb
    calls = []

    def comb(n, k):
        calls.append((n, k))
        return real_comb(n, k)

    monkeypatch.setattr(formulas.math, "comb", comb)
    generic = 0
    for row in rows:
        calls.clear()
        v, w = row.v, row.w
        assert row_forms(v.r, v.chi, v.d, w.r, w.chi, w.d) == row.forms
        if v.d >= 1 and w.d >= 1:
            generic += 1
            assert calls == [(v.d + w.d - 1, v.d - 1)]
        else:
            assert len(calls) <= 1
    assert generic > 100
