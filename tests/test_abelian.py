"""Atlas tests: polarization morphisms, the Fourier-Mukai transform and its
pinned sign conventions, pairing preservation, and the double transform."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import thetachi.abelian as abelian
from thetachi.abelian import (
    M_AxA,
    Polarization,
    SP_A,
    SP_AH,
    SP_AxAH,
    addition,
    dual_polarization_class,
    f_map,
    fm_transform,
    fm_transform_back,
    lambda_hat,
    make_phi,
    mukai_class,
    mukai_pair,
    one_times_phi_hat,
    point_class,
    poincare_class,
    polarization_class,
    projection,
    two_form,
)
from thetachi.exterior import (
    ExteriorClass,
    MorphismH1,
    Space,
    SpaceMismatch,
    exp_even,
    fiber_integrate,
    integrate,
    wedge,
)
from thetachi.poly import Lanes, Poly


def det4(rows):
    """4x4 integer determinant by permutation expansion (test-local oracle)."""
    total = 0
    for perm in itertools.permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(4):
            prod *= rows[i].get(perm[i], 0)
        total += sign * prod
    return total


def matrix_of(phi):
    return [dict(row) for row in phi.rows]


# -- spaces ------------------------------------------------------------------

# the transposed kernel's space AhxA; the transform table has no space of
# its own for it, so the unfused check below builds it here
SP_AHxA = Space(("Ah", "A"))

# generator names of the seven standard spaces and of AhxA, as their
# classes print them
GENERATOR_NAMES = {
    "SP_A": "A.f1v A.f2v A.f3v A.f4v",
    "SP_AH": "Ah.f1 Ah.f2 Ah.f3 Ah.f4",
    "SP_AxA": "A1.f1v A1.f2v A1.f3v A1.f4v A2.f1v A2.f2v A2.f3v A2.f4v",
    "SP_AxAH": "A.f1v A.f2v A.f3v A.f4v Ah.f1 Ah.f2 Ah.f3 Ah.f4",
    "SP_AHxA": "Ah.f1 Ah.f2 Ah.f3 Ah.f4 A.f1v A.f2v A.f3v A.f4v",
    "SP_AxAxAH": "A1.f1v A1.f2v A1.f3v A1.f4v A2.f1v A2.f2v A2.f3v A2.f4v "
                 "Ah.f1 Ah.f2 Ah.f3 Ah.f4",
    "SP_AxAHxAH": "A.f1v A.f2v A.f3v A.f4v Ah1.f1 Ah1.f2 Ah1.f3 Ah1.f4 "
                  "Ah2.f1 Ah2.f2 Ah2.f3 Ah2.f4",
    "SP_AHxAH": "Ah1.f1 Ah1.f2 Ah1.f3 Ah1.f4 Ah2.f1 Ah2.f2 Ah2.f3 Ah2.f4",
}


@pytest.mark.parametrize("name", GENERATOR_NAMES)
def test_standard_space_generator_names(name):
    sp = SP_AHxA if name == "SP_AHxA" else getattr(abelian, name)
    assert " ".join(sp.generator_names()) == GENERATOR_NAMES[name]


def test_integrating_out_a_factor_lands_on_the_standard_space():
    """A space is its kinds: no relabeling after a fiber integral."""
    assert abelian.SP_AxA.without(0) == SP_A
    assert abelian.SP_AxAxAH.without(0) == SP_AxAH
    assert abelian.SP_AxAHxAH.without(0) == abelian.SP_AHxAH


def test_phi_rows_match_contraction():
    pol = Polarization(1, 5)  # d=1, e=5
    phi = make_phi(pol, "A->Ah")
    # f3 -> e f4v, f4 -> -e f3v
    assert matrix_of(phi)[2] == {3: 5}
    assert matrix_of(phi)[3] == {2: -5}
    assert matrix_of(phi)[0] == {1: 1}
    assert matrix_of(phi)[1] == {0: -1}


def test_phi_product_square_value():
    pol = Polarization(1, 2)
    phi = make_phi(pol, "A->Ah")
    f3 = ExteriorClass.generator(SP_AH, 2)
    f4 = ExteriorClass.generator(SP_AH, 3)
    value = wedge(phi.pullback(f3), phi.pullback(f4))
    assert value == ExteriorClass.monomial(SP_A, (2, 3), 4)  # e^2 f3v^f4v


def test_phi_composition_is_minus_chi():
    for d, e in ((1, 1), (2, 3), (-1, 4)):
        pol = Polarization(d, e)
        phi = make_phi(pol, "A->Ah")
        phi_hat = make_phi(pol, "Ah->A")
        for j in range(4):
            gen = ExteriorClass.generator(SP_AH, j)
            assert phi.after(phi_hat).pullback(gen) == gen.scaled(-d * e)
            gen = ExteriorClass.generator(SP_A, j)
            assert phi_hat.after(phi).pullback(gen) == gen.scaled(-d * e)


def test_principal_phi_has_unit_determinant():
    phi = make_phi(Polarization(1, 1), "A->Ah")
    assert abs(det4(matrix_of(phi))) == 1


def test_degenerate_polarization_rejected():
    with pytest.raises(ValueError):
        make_phi(Polarization(0, 3), "A->Ah")


def test_addition_pullback_degree_one():
    from thetachi.abelian import SP_AxA

    m = addition(SP_AxA, 0, 1, SP_A)
    f1 = ExteriorClass.generator(SP_A, 0)
    assert m.pullback(f1) == ExteriorClass(SP_AxA, {(0,): 1, (4,): 1})


@pytest.mark.parametrize("degree", range(5))
def test_f_map_is_addition_after_one_times_phi_hat(degree):
    """f = m o (1 x Phi_hat) on classes of every degree (AxAh -> AxA -> A)."""
    cls = ExteriorClass(SP_A, {
        key: i + 2 for i, key in enumerate(itertools.combinations(range(4), degree))
    })
    for pol in (Polarization(1, 1), Polarization(2, 3)):
        pulled = f_map(pol).pullback(cls)
        assert not pulled.is_zero
        assert pulled == one_times_phi_hat(pol).pullback(M_AxA.pullback(cls))


def decoded_terms(c):
    """c.terms with each bitset key decoded to its sorted index tuple."""
    return {
        tuple(i for i in range(c.space.ngens) if key >> i & 1): coeff
        for key, coeff in c.terms.items()
    }


def test_mult_by_scales_each_degree():
    # [N]* on H^1 multiplies every generator by N
    triple = MorphismH1(SP_A, SP_A, [[(i, 3)] for i in range(SP_A.ngens)])
    pol = Polarization(1, 2)
    lam = polarization_class(SP_A, 0, pol)
    assert triple.pullback(lam) == lam.scaled(9)
    assert triple.pullback(point_class(SP_A, 0)) == point_class(SP_A, 0).scaled(81)
    # consistency with the scaled-addition pullback restricted to one slot
    from thetachi.abelian import SP_AxA

    mr = addition(SP_AxA, 0, 1, SP_A, 3)
    m_then = mr.pullback(lam)
    second_only = ExteriorClass(
        SP_AxA, {k: c for k, c in decoded_terms(m_then).items() if min(k) >= 4}
    )
    pushed = fiber_integrate(wedge(point_class(SP_AxA, 0), second_only), 0)
    assert pushed == triple.pullback(lam)


def test_scaled_addition_intersections():
    from thetachi.abelian import SP_AxA

    pol = Polarization(2, 3)
    lam = polarization_class(SP_A, 0, pol)
    alpha = ExteriorClass(SP_A, {(0, 2): 5, (1, 3): -2})
    p1 = projection(SP_AxA, (0,), SP_A)
    for r in (-2, 0, 1, 3):
        mr = addition(SP_AxA, 0, 1, SP_A, r)
        m = addition(SP_AxA, 0, 1, SP_A)
        pushed = fiber_integrate(wedge(mr.pullback(point_class(SP_A, 0)), p1.pullback(alpha)), 0)
        assert pushed == alpha.scaled(r * r)
        pushed = fiber_integrate(wedge(mr.pullback(point_class(SP_A, 0)), m.pullback(lam)), 0)
        assert pushed == lam.scaled((r - 1) ** 2)


# -- Fourier-Mukai transform ---------------------------------------------------


def test_fm_unit_and_point():
    assert fm_transform(ExteriorClass.unit(SP_A)) == point_class(SP_AH, 0)
    assert fm_transform(point_class(SP_A, 0)) == ExteriorClass.unit(SP_AH)


def test_fm_lambda_is_lambda_hat():
    pol = Polarization(2, 7)
    image = fm_transform(polarization_class(SP_A, 0, pol))
    expected = ExteriorClass(SP_AH, {(2, 3): -2, (0, 1): -7})
    assert image == expected
    assert lambda_hat(pol) == expected
    # H_hat = -lambda_hat has square 2de
    h_hat = dual_polarization_class(SP_AH, 0, pol)
    assert h_hat == -expected
    assert integrate(wedge(h_hat, h_hat)) == 2 * 2 * 7


def test_lambda_hat_square_matches_lambda_square():
    for d, e in ((1, 1), (3, 5), (-2, 3)):
        pol = Polarization(d, e)
        lam = polarization_class(SP_A, 0, pol)
        lh = lambda_hat(pol)
        assert integrate(wedge(lam, lam)) == integrate(wedge(lh, lh))


def test_fm_degree_shifts():
    pol = Polarization(1, 3)
    assert fm_transform(ExteriorClass.unit(SP_A)).degrees() == (4,)
    assert fm_transform(point_class(SP_A, 0)).degrees() == (0,)
    assert fm_transform(polarization_class(SP_A, 0, pol)).degrees() == (2,)


def test_fm_rejects_odd_classes():
    with pytest.raises(ValueError):
        fm_transform(ExteriorClass.generator(SP_A, 0))


EVEN_BASIS_A = [ExteriorClass.unit(SP_A)] + [
    ExteriorClass.monomial(SP_A, pair) for pair in itertools.combinations(range(4), 2)
] + [point_class(SP_A, 0)]


def test_double_transform_is_identity_on_even_basis():
    """Frozen regression: transform A -> Ah -> A is +1 times the identity."""
    for basis_cls in EVEN_BASIS_A:
        roundtrip = fm_transform_back(fm_transform(basis_cls))
        assert roundtrip == basis_cls


def test_llp_integral():
    pol = Polarization(1, 1)
    lam = polarization_class(SP_AxAH, 0, pol)
    lh = projection(SP_AxAH, (1,), SP_AH).pullback(lambda_hat(pol))
    cP = poincare_class(SP_AxAH, 0, 1)
    value = integrate(wedge(wedge(lam, lh), wedge(cP, cP) / 2))
    assert value == 2  # lambda^2 = 2de = 2


even_coeff = st.integers(min_value=-7, max_value=7)


@st.composite
def even_classes(draw):
    cls = ExteriorClass.unit(SP_A, draw(even_coeff))
    for pair in itertools.combinations(range(4), 2):
        cls = cls + ExteriorClass.monomial(SP_A, pair, draw(even_coeff))
    return cls + point_class(SP_A, 0).scaled(draw(even_coeff))


@given(even_classes(), even_classes())
def test_fm_preserves_mukai_pairing(x, y):
    assert mukai_pair(fm_transform(x), fm_transform(y)) == mukai_pair(x, y)


@given(even_classes(), even_classes())
def test_pairing_symmetric(x, y):
    assert mukai_pair(x, y) == mukai_pair(y, x)


TRANSFORM_COEFFS = {
    "int": even_coeff,
    "Fraction": st.builds(Fraction, even_coeff, st.integers(min_value=1, max_value=4)),
    "Poly": st.builds(lambda c, k: Poly.var("x") * c + k, even_coeff, even_coeff),
}
EVEN_KEYS = [key for size in (0, 2, 4) for key in itertools.combinations(range(4), size)]
ODD_KEYS = [key for size in (1, 3) for key in itertools.combinations(range(4), size)]


@pytest.mark.parametrize("coeff", TRANSFORM_COEFFS.values(), ids=TRANSFORM_COEFFS)
@pytest.mark.parametrize("transform, kernel_space", [
    (fm_transform, SP_AxAH), (fm_transform_back, SP_AHxA),
], ids=["forward", "back"])
@given(data=st.data())
def test_transform_table_matches_unfused_definition(transform, kernel_space, coeff, data):
    """The table of transform images gives fiber_integrate(kernel ^ p1*c)
    over the first factor, built here from a fresh kernel and projection;
    a class with an odd term is refused."""
    source = Space(kernel_space.kinds[:1])
    keys = data.draw(st.lists(st.sampled_from(EVEN_KEYS), unique=True))
    c = ExteriorClass(source, {key: data.draw(coeff) for key in keys})
    kernel = exp_even(poincare_class(kernel_space, 0, 1))
    p1 = projection(kernel_space, (0,), source)
    assert transform(c) == fiber_integrate(wedge(kernel, p1.pullback(c)), 0)
    odd = c + ExteriorClass.monomial(source, data.draw(st.sampled_from(ODD_KEYS)))
    with pytest.raises(ValueError):
        transform(odd)


# -- bitset class builders against the validating constructor ------------------

STANDARD_SPACES = [getattr(abelian, name) for name in GENERATOR_NAMES if name != "SP_AHxA"]
# per scalar kind, coefficients that mix with one another; zeros included
BUILDER_COEFFS = {
    "int": (0, 3, -1, 2),
    "Fraction": (Fraction(0), Fraction(1, 2), Fraction(4, 2), Fraction(-3, 5)),
    "Poly": (Poly(), Poly.var("x") + 1, Poly.const(2), -Poly.var("y")),
    "Lanes": (Lanes((0, 0)), Lanes((2, 2)), Lanes((Fraction(1, 2), 3)), Lanes((Fraction(2, 1), 0))),
}


def assert_same_class(built, reference):
    """Same space, the same terms in the same order, and each coefficient of
    the same type and repr (a Lanes' repr shows each lane's type)."""
    assert built.space == reference.space
    assert list(built.terms) == list(reference.terms)
    assert built.terms == reference.terms
    for key, coeff in built.terms.items():
        assert type(coeff) is type(reference.terms[key])
        assert repr(coeff) == repr(reference.terms[key])


def offset(position):
    return 4 * position


@pytest.mark.parametrize("kind", BUILDER_COEFFS)
@pytest.mark.parametrize("sp", STANDARD_SPACES, ids=lambda sp: "x".join(sp.kinds))
def test_builders_match_the_validating_constructor(sp, kind):
    values = BUILDER_COEFFS[kind]
    for position in range(len(sp.kinds)):
        off = offset(position)
        block = tuple(range(off, off + 4))
        for a, b in itertools.product(values, repeat=2):
            coeffs = {(2, 3): a, (0, 1): b, (1, 3): a}
            assert_same_class(two_form(sp, position, coeffs), ExteriorClass(sp, {
                (off + i, off + j): c for (i, j), c in coeffs.items()}))
            pol = Polarization(a, b)
            assert_same_class(polarization_class(sp, position, pol),
                              ExteriorClass(sp, {(off, off + 1): a, (off + 2, off + 3): b}))
            assert_same_class(dual_polarization_class(sp, position, pol),
                              ExteriorClass(sp, {(off + 2, off + 3): a, (off, off + 1): b}))
        assert_same_class(point_class(sp, position), ExteriorClass(sp, {block: 1}))
        for second in range(len(sp.kinds)):
            reference = ExteriorClass.zero(sp)
            if second != position:
                for i in range(4):
                    pair = tuple(sorted((off + i, offset(second) + i)))
                    reference = reference + ExteriorClass(sp, {pair: 1})
            assert_same_class(poincare_class(sp, position, second), reference)
        # the sum mukai_class replaces, on a c1 that also has degree-zero
        # and top terms, so merged coefficients add up and may cancel
        for rank, chi, c in itertools.product(values, repeat=3):
            c1 = ExteriorClass(sp, {(): c, (off, off + 2): rank, block: c})
            reference = (ExteriorClass(sp, {(): rank}) + c1
                         + ExteriorClass(sp, {block: 1}).scaled(chi))
            assert_same_class(mukai_class(sp, position, rank, c1, chi), reference)
    for index in range(sp.ngens):
        assert_same_class(ExteriorClass.generator(sp, index), ExteriorClass(sp, {(index,): 1}))
    for size in (0, 1, 2, 3):
        for indices in itertools.permutations(range(0, sp.ngens, 3), size):
            for coeff in values:
                assert_same_class(ExteriorClass.monomial(sp, indices, coeff),
                                  ExteriorClass(sp, {tuple(sorted(indices)): coeff}))


def test_builders_keep_their_errors():
    pol = Polarization(1, 2)
    for pair in ((1, 0), (2, 2), (0, 4), (-1, 1)):
        with pytest.raises(ValueError, match="bad local index pair"):
            two_form(SP_A, 0, {pair: 1})
    h = polarization_class(SP_AxAH, 0, pol)
    for sp in (SP_A, SP_AxAH):
        for position in (-1, len(sp.kinds)):
            for build in (
                lambda: two_form(sp, position, {(0, 1): 1}),
                lambda: polarization_class(sp, position, pol),
                lambda: dual_polarization_class(sp, position, pol),
                lambda: point_class(sp, position),
                lambda: poincare_class(sp, 0, position),
                lambda: poincare_class(sp, position, 0),
                lambda: mukai_class(sp, position, 1, ExteriorClass.zero(sp), 1),
            ):
                with pytest.raises(SpaceMismatch):
                    build()
    with pytest.raises(SpaceMismatch):  # the validating constructor agrees
        ExteriorClass(SP_A, {(4, 5): 1})
    for index in (4, -1):
        with pytest.raises(IndexError):
            ExteriorClass.generator(SP_A, index)
    with pytest.raises(SpaceMismatch):
        mukai_class(SP_A, 0, 1, h, 1)
    for indices in ((0, 4), (-1, 2)):
        with pytest.raises(SpaceMismatch):
            ExteriorClass.monomial(SP_A, indices)
    # a repeated index gives zero, before any range check
    for indices in ((1, 1), (2, 0, 2), (9, 9)):
        zero = ExteriorClass.monomial(SP_A, indices, 5)
        assert zero.is_zero and zero.space == SP_A
