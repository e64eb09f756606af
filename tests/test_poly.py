import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetachi import poly as poly_module
from thetachi.poly import (
    Lanes,
    Poly,
    eliminate_linear,
    normalize_scalar,
    scalar_div,
    scalar_is_zero,
)

x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")


def test_construction_and_normalization():
    p = x * x - x * x
    assert p.is_zero
    assert (x + 1 - x - 1).is_zero
    assert Poly.const(0).is_zero
    assert not (x + y).is_zero


def test_arithmetic_values():
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 2) ** 3 == x**3 + 6 * x**2 + 12 * x + 8
    assert (x * 6) / 3 == 2 * x
    q = x / 2 + x / 2
    assert q == x


def test_mixed_scalars():
    assert 2 + x - x == 2
    assert Poly.const(Fraction(1, 2)) * 2 == 1
    assert (x * Fraction(3, 4)) * Fraction(4, 3) == x


def test_coeffs_by_power():
    p = x**2 * y + 2 * x + 5
    buckets = p.coeffs_by_power("x")
    assert buckets[0] == 5
    assert buckets[1] == 2
    assert buckets[2] == y


def test_eliminate_linear():
    # on the locus z = -(x + y) / 2, the poly 2z + x + y vanishes
    p = 2 * z + x + y
    assert scalar_is_zero(eliminate_linear(p, "z", -(x + y), 2))
    # quadratic occurrence: 4z^2 - (x+y)^2 also vanishes there
    q = 4 * z * z - (x + y) ** 2
    assert scalar_is_zero(eliminate_linear(q, "z", -(x + y), 2))
    # and a poly that does not vanish stays nonzero
    assert not scalar_is_zero(eliminate_linear(z + x, "z", -(x + y), 2))
    with pytest.raises(ZeroDivisionError):
        eliminate_linear(z, "z", x, Poly.const(0))


def test_scalar_div_exact():
    assert scalar_div(6, 3) == 2
    assert scalar_div(7, 2) == Fraction(7, 2)
    assert scalar_div(x * 4, 2) == 2 * x


small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def polys(draw):
    terms = draw(st.lists(
        st.tuples(st.sampled_from(["x", "y", "z"]),
                  st.integers(min_value=0, max_value=2), small_ints),
        max_size=4,
    ))
    p = Poly.const(draw(small_ints))
    for name, exp, coeff in terms:
        p = p + Poly.var(name) ** exp * coeff
    return p


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == 0


# -- an independent reference: {sorted (name, exp) tuple: Fraction} ---------
# It shares no code with thetachi.poly; results are compared through repr,
# which spells out every term in a fixed order.

NAMES = ("x", "y", "z", "u", "v")


def ref_add(a, b):
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, Fraction(0)) + coeff
    return {m: c for m, c in out.items() if c}


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def ref_mono_mul(m1, m2):
    exps = dict(m1)
    for name, exp in m2:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted(exps.items()))


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = ref_mono_mul(m1, m2)
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_pow(a, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_coeffs_by_power(a, name):
    out = {}
    for mono, coeff in a.items():
        power = dict(mono).get(name, 0)
        rest = tuple((n, e) for n, e in mono if n != name)
        out.setdefault(power, {})[rest] = coeff
    return out


def ref_repr(a):
    if not a:
        return "Poly(0)"
    parts = []
    for mono, coeff in sorted(a.items()):
        factors = "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in mono)
        parts.append(f"{coeff}*{factors}" if factors else f"{coeff}")
    return " + ".join(parts)


def assert_int_first(p):
    """Every integral coefficient is stored as an int."""
    for coeff in p.terms.values():
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1)


fractions_ = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=3)
)


@st.composite
def poly_pairs(draw):
    """A Poly and the same polynomial as a reference dict."""
    terms = draw(st.lists(
        st.tuples(fractions_, st.dictionaries(
            st.sampled_from(NAMES), st.integers(min_value=1, max_value=3), max_size=3)),
        max_size=5,
    ))
    poly, ref = Poly(), {}
    for coeff, exps in terms:
        term = Poly.const(coeff)
        for name, exp in exps.items():
            term = term * Poly.var(name) ** exp
        poly = poly + term
        ref = ref_add(ref, {tuple(sorted(exps.items())): coeff} if coeff else {})
    return poly, ref


@given(poly_pairs(), poly_pairs(), st.integers(min_value=0, max_value=3),
       st.sampled_from(NAMES + ("never_registered",)))
def test_against_reference(pa, pb, n, name):
    (a, ra), (b, rb) = pa, pb
    cases = [
        (a, ra),
        (a + b, ref_add(ra, rb)),
        (a - b, ref_add(ra, ref_neg(rb))),
        (a * b, ref_mul(ra, rb)),
        (a ** n, ref_pow(ra, n)),
    ]
    for poly, ref in cases:
        assert repr(poly) == ref_repr(ref)
        assert_int_first(poly)
    buckets = a.coeffs_by_power(name)
    expected = ref_coeffs_by_power(ra, name)
    assert sorted(buckets) == sorted(expected)
    for power, part in buckets.items():
        assert repr(part) == ref_repr(expected[power])
    assert "never_registered" not in poly_module._INDEX


def test_int_first_normalization():
    half = Fraction(1, 2)
    results = [
        Poly.const(Fraction(4, 2)),
        Poly.const(3),
        x,
        (x * Fraction(3, 2)) * 2,
        x * 6 / 3,
        x / 2 + x / 2,
        (x * half + y) * (2 * x),
        (x * half) * (y * Fraction(2, 3)) * 3,
        (x * half) * (y * 2),  # two monomials, an integral Fraction product
        eliminate_linear(z * z * half + x, "z", x, 2),
        eliminate_linear(z * Fraction(1, 3) + x * half, "z", 3 * x, 2),
    ]
    for p in results:
        assert_int_first(p)
    assert Poly.const(Fraction(4, 2)).terms == {0: 2}
    part = ((x * half + y) * (2 * x)).coeffs_by_power("x")[2]
    assert part.terms == {0: 1} and type(part.terms[0]) is int
    # z/3 + x/2 at z = 3x/2, times 2: Fraction inputs, an int output
    assert results[-1] == 2 * x
    assert all(type(c) is int for c in results[-1].terms.values())


@given(poly_pairs(), st.sampled_from((1, -1)))
def test_poly_times_a_unit_is_the_general_product(pair, unit):
    # p * 1, p * -1 and p divided by either skip the product: the terms, each
    # with its type, are those of the product with the constant polynomial
    p, _ = pair
    general = p * Poly.const(unit)
    for result in (p * unit, unit * p, p / unit, p * Fraction(unit)):
        assert {m: (type(c), c) for m, c in result.terms.items()} == {
            m: (type(c), c) for m, c in general.terms.items()}


def test_exponent_overflow_is_refused():
    x = Poly.var("x")
    # x^(2^14) fits a field: __pow__ squares no further than the top bit
    product = Poly.const(1)
    for _ in range(1 << 14):
        product = product * x
    assert x ** (1 << 14) == product
    assert repr(x ** (1 << 14)) == f"1*x^{1 << 14}"
    with pytest.raises(OverflowError):
        x ** (1 << 15)
    # two fields registered one after the other: hi is the neighbour of lo
    lo, hi = Poly.var("ovf_lo"), Poly.var("ovf_hi")
    top = lo ** ((1 << 14) - 1)
    top = top * top * lo  # lo^(2^15 - 1), the largest exponent a field holds
    assert repr(top) == f"1*ovf_lo^{(1 << 15) - 1}"
    with pytest.raises(OverflowError):
        top * lo
    with pytest.raises(OverflowError):
        (top + hi) * (lo + 1)
    # a full field does not leak into its neighbour
    assert (top * hi).coeffs_by_power("ovf_hi") == {1: top}
    assert repr(top * hi * hi) == f"1*ovf_hi^2*ovf_lo^{(1 << 15) - 1}"
    # eliminate_linear raises powers of the numerator
    with pytest.raises(OverflowError):
        eliminate_linear(z * z, "z", lo ** (1 << 13) * lo ** (1 << 13), 1)


# -- Lanes against per-lane scalars ---------------------------------------

# ints and Fractions, integral ones among them: a lane must keep the type
# the same computation on its scalar alone gives, Fraction(3, 1) included
rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=6),
    st.integers(-30, 30).map(Fraction),
)
lane_values = st.lists(rationals, min_size=1, max_size=5)


def typed(values) -> list:
    return [(type(v), v) for v in values]


def assert_lanes(result, expected):
    assert type(result) is Lanes
    assert typed(result) == typed(expected)


@given(lane_values, st.data())
def test_lanes_match_per_lane_scalars(values, data):
    lanes = Lanes(values)
    others = data.draw(st.lists(rationals, min_size=len(values), max_size=len(values)))
    scalar = data.draw(rationals)
    for op in (operator.add, operator.sub, operator.mul):
        assert_lanes(op(lanes, Lanes(others)), [op(x, y) for x, y in zip(values, others)])
        assert_lanes(op(lanes, scalar), [op(x, scalar) for x in values])
        assert_lanes(op(scalar, lanes), [op(scalar, x) for x in values])
    assert_lanes(-lanes, [-x for x in values])
    for n in range(4):
        assert_lanes(lanes**n, [x**n for x in values])
    assert_lanes(normalize_scalar(lanes), [normalize_scalar(x) for x in values])
    assert scalar_is_zero(lanes) is all(scalar_is_zero(x) for x in values)
    assert bool(lanes) is any(values)
    nonzero = [x if x else 1 for x in others]
    divisor = scalar if scalar else 7
    assert_lanes(scalar_div(lanes, divisor), [scalar_div(x, divisor) for x in values])
    assert_lanes(scalar_div(lanes, Lanes(nonzero)),
                 [scalar_div(x, y) for x, y in zip(values, nonzero)])
    assert_lanes(scalar_div(scalar, Lanes(nonzero)), [scalar_div(scalar, y) for y in nonzero])


@given(lane_values, st.sampled_from((1, -1)), st.data())
def test_lanes_times_a_unit_is_the_general_product(values, unit, data):
    # Lanes * 1, Lanes * -1 (either side) and scalar_div by either skip the
    # broadcast: each equals the general path, through a Lanes of units, in
    # every lane's value and type and in the layout, on int lanes, on
    # Fraction-flagged lanes with denominators and on unreduced lanes
    others = data.draw(st.lists(rationals, min_size=len(values), max_size=len(values)))
    units = Lanes([unit] * len(values))
    for lanes in (Lanes(values), Lanes(values) * Lanes(others)):
        for result, general in ((lanes * unit, lanes * units), (unit * lanes, units * lanes),
                                (scalar_div(lanes, unit), scalar_div(lanes, units))):
            assert_lanes(result, list(general))
            assert (result.nums, result.dens, result.flags) == (
                general.nums, general.dens, general.flags)


def test_lanes_refuse_what_a_lane_cannot_hold():
    lanes = Lanes([1, Fraction(1, 2)])
    assert repr(lanes) == "Lanes([1, Fraction(1, 2)])"
    assert 2 * lanes == Lanes([2, 1])  # multiplication, never tuple repetition
    assert lanes + lanes == Lanes([2, 1])  # addition, never concatenation
    with pytest.raises(ValueError):
        lanes + Lanes([1, 2, 3])
    with pytest.raises(TypeError):
        lanes * Poly.var("x")
    with pytest.raises(TypeError):
        lanes * True  # a bool is no int lane, though True == 1
    with pytest.raises(TypeError):
        True * lanes
    with pytest.raises(TypeError):
        lanes ** Fraction(1, 2)
    with pytest.raises(TypeError):
        lanes + 0.5
    with pytest.raises(ValueError):
        lanes ** -1  # an int lane would become a float
    with pytest.raises(TypeError):
        Lanes([1, 0.5])
    with pytest.raises(TypeError):
        scalar_div(Poly.var("x"), lanes)


def assert_layout(lanes):
    """Denominators positive, and 1 in every lane that reads as an int."""
    dens = lanes.dens or (1,) * len(lanes)
    flags = lanes.flags or (False,) * len(lanes)
    assert len(lanes.nums) == len(dens) == len(flags)
    assert all(d > 0 and (flag or d == 1) for d, flag in zip(dens, flags))


BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": scalar_div}


@given(st.data())
def test_lane_chains_match_per_lane_chains(data):
    # a chain of 3-6 steps on Lanes against the same chain run on each lane's
    # scalar; the other operand of a step is its own Lanes (its own
    # denominators) or one scalar, on either side, and divisors may be negative
    width = data.draw(st.integers(1, 5))
    of_width = st.lists(rationals, min_size=width, max_size=width)
    values = data.draw(of_width)
    lanes = Lanes(values)
    for _ in range(data.draw(st.integers(3, 6))):
        step = data.draw(st.sampled_from(("+", "-", "*", "/", "**", "normalize")))
        if step == "normalize":
            lanes, values = normalize_scalar(lanes), [normalize_scalar(v) for v in values]
        elif step == "**":
            n = data.draw(st.integers(0, 3))
            lanes, values = lanes**n, [v**n for v in values]
        else:
            op = BINARY[step]
            if data.draw(st.booleans()):
                others = data.draw(of_width)
                if step == "/":
                    others = [o if o else -1 for o in others]
                other = Lanes(others)
            else:
                other = data.draw(rationals)
                if step == "/" and not other:
                    other = Fraction(-3, 1)
                others = [other] * width
            if data.draw(st.booleans()) and (step != "/" or all(values)):
                lanes, values = op(other, lanes), [op(o, v) for o, v in zip(others, values)]
            else:
                lanes, values = op(lanes, other), [op(v, o) for v, o in zip(values, others)]
        assert_lanes(lanes, values)
        assert_layout(lanes)
        assert bool(lanes) is any(values)


@given(lane_values, st.data())
def test_normalize_scalar_reduces_every_lane(values, data):
    others = data.draw(st.lists(rationals, min_size=len(values), max_size=len(values)))
    # products and cross-multiplied sums leave lanes unreduced
    lanes = Lanes(values) * Lanes(others) + Lanes(others) * Fraction(5, 3)
    normal = normalize_scalar(lanes)
    assert_lanes(normal, [normalize_scalar(x * y + y * Fraction(5, 3))
                          for x, y in zip(values, others)])
    dens = normal.dens or (1,) * len(normal)
    assert all(d > 0 and gcd(n, d) == 1 for n, d in zip(normal.nums, dens))


def test_lane_division_by_a_zero_lane_raises():
    with pytest.raises(ZeroDivisionError):
        scalar_div(Fraction(1, 2), 0)  # as one trial alone
    dividend = Lanes([1, Fraction(1, 2), -3])
    for divisor in (Lanes([2, 0, 3]), Lanes([Fraction(1, 2), Fraction(0), -1]), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            scalar_div(dividend, divisor)
    with pytest.raises(ZeroDivisionError):
        scalar_div(5, Lanes([1, 0]))
