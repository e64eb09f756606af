import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetachi import abelian
from thetachi.abelian import SP_A, SP_AH
from thetachi.exterior import ExteriorClass, Space
from thetachi.mukai import (
    LatticeError,
    MukaiVector,
    NSClass,
    c1_tensor,
    euler_chi_tensor,
    fm_vector,
    fm_vector_via_engine,
    h2_vanishing_direction,
    is_positive,
    is_primitive,
    mukai_pairing,
    parse_vector,
)


def test_ns_class_squares():
    h = NSClass(1, 2)
    assert h.square() == 4
    assert NSClass(3, 1).square() == 18


def test_pairing_examples():
    # ideal sheaves of n' points: <v, v> = 2n' in any ambient lattice
    for n in (1, 2, 5):
        v = MukaiVector(1, 0, -3, n)
        assert mukai_pairing(v, v) == 6
    # rank-zero classes pair through the surface form only
    assert mukai_pairing(MukaiVector(0, 1, 4, 1), MukaiVector(0, 1, -2, 1)) == 2
    # isotropic example: (2, H, 1) at n = 2
    v = MukaiVector(2, 1, 1, 2)
    assert mukai_pairing(v, v) == 0 and v.d == 0


def test_pairing_requires_matching_lattices():
    with pytest.raises(LatticeError):
        mukai_pairing(MukaiVector(1, 0, 0, 1), MukaiVector(1, 0, 0, 2))
    with pytest.raises(LatticeError):
        mukai_pairing(MukaiVector(1, 0, 0, 1), MukaiVector(1, 0, 0, 1, "Ah"))


def test_dv_examples():
    assert MukaiVector(1, 0, -4, 7).d == 4
    assert MukaiVector(1, 0, -1, 1).d == 1
    for k in range(-3, 4):
        assert MukaiVector(2, k, 2, 1).d == k * k - 4


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(1, 9), st.sampled_from(("A", "Ah")))
def test_d_is_half_the_self_pairing(r, k, chi, n, side):
    # the pairing-based definition is the oracle for the stored d
    v = MukaiVector(r, k, chi, n, side)
    pairing = mukai_pairing(v, v)
    assert pairing % 2 == 0
    assert v.d == pairing // 2
    # d is not a field: equality, hash and repr ignore it, replace recomputes it
    fresh = MukaiVector(r, k, chi, n, side)
    assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
    assert "d" not in {f.name for f in dataclasses.fields(v)}
    assert dataclasses.replace(v, chi=chi + 1).d == v.d - r


def test_euler_chi_tensor_examples():
    v = MukaiVector(1, 0, -1, 1)
    w = MukaiVector(2, 3, 2, 1)
    assert euler_chi_tensor(v, w) == 0
    assert euler_chi_tensor(MukaiVector(1, 0, 0, 1), MukaiVector(1, 0, 0, 1)) == 0
    assert euler_chi_tensor(MukaiVector(2, 1, 1, 2), MukaiVector(2, 1, -3, 2)) == 0
    assert euler_chi_tensor(v, MukaiVector(2, 4, 3, 1)) == 1


def test_c1_tensor_examples():
    v = MukaiVector(1, 0, -1, 1)
    w = MukaiVector(2, 3, 2, 1)
    c1 = c1_tensor(v, w)
    assert (c1.k, c1.square()) == (3, 18)
    zero = c1_tensor(MukaiVector(0, 2, 1, 1), MukaiVector(0, 5, 3, 1))
    assert zero.k == 0
    c1 = c1_tensor(MukaiVector(2, 1, 1, 2), MukaiVector(2, 1, -3, 2))
    assert (c1.k, c1.square()) == (4, 64)


def test_tensor_invariants_random():
    import random

    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 4)
        v = MukaiVector(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6), n)
        w = MukaiVector(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6), n)
        assert euler_chi_tensor(v, w) == -mukai_pairing(v.dual(), w)
        assert euler_chi_tensor(v, w) == euler_chi_tensor(w, v)
        assert mukai_pairing(v, w) == mukai_pairing(w, v)
        assert c1_tensor(v, w) == c1_tensor(w, v)


def test_fm_vector_examples():
    assert fm_vector(MukaiVector(1, 0, 0, 1)) == MukaiVector(0, 0, 1, 1, "Ah")
    assert fm_vector(MukaiVector(0, 0, 1, 1)) == MukaiVector(1, 0, 0, 1, "Ah")
    v = MukaiVector(2, -3, 5, 2)
    assert fm_vector(fm_vector(v)) == v  # frozen global sign: +identity


# The engine image of (1, 1, 1) for n = 2, 1 - H' + omega, by the side the
# vector starts on: H' is H_hat = f3^f4 + 2 f1^f2 on Ah, H = f1v^f2v +
# 2 f3v^f4v on A.  Each transform is looked up at call time, so a patched
# one is used.
_IMAGE_OF_111 = {
    "A": {(): 1, (2, 3): -1, (0, 1): -2, (0, 1, 2, 3): 1},
    "Ah": {(): 1, (0, 1): -1, (2, 3): -2, (0, 1, 2, 3): 1},
}
_LEAVING = {"A": ("fm_transform", SP_AH), "Ah": ("fm_transform_back", SP_A)}


def _oracle_on_image(monkeypatch, side, terms, space=None):
    name, target = _LEAVING[side]
    image = ExteriorClass(target if space is None else space, terms)
    monkeypatch.setattr(abelian, name, lambda c: image)
    return fm_vector_via_engine(MukaiVector(1, 1, 1, 2, side))


@pytest.mark.parametrize("side, space", [
    ("A", None),
    ("Ah", None),
    # the target's kinds on a fresh object, not the module constant SP_AH
    ("A", Space(("Ah",))),
], ids=["A", "Ah", "equal-space"])
def test_fm_vector_via_engine_reads_back_the_exact_image(monkeypatch, side, space):
    # the control for the refusals below: each differs from this image only
    # where it says
    v = MukaiVector(1, 1, 1, 2, side)
    assert _oracle_on_image(monkeypatch, side, _IMAGE_OF_111[side], space) == fm_vector(v)


def test_oracle_sweep_compares_no_space_by_equality(monkeypatch):
    # the standard spaces are module constants, so the transform's source
    # test and the oracle's target test settle by identity
    rng = random.Random(31)
    vectors = [
        MukaiVector(rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-10, 10),
                    rng.randint(1, 4), side)
        for side in ("A", "Ah") for _ in range(200)
    ]
    images = [fm_vector_via_engine(v) for v in vectors]  # fills the image tables
    calls = []
    space_eq = Space.__eq__

    def counted(self, other):
        calls.append(other)
        return space_eq(self, other)

    monkeypatch.setattr(Space, "__eq__", counted)
    assert [fm_vector_via_engine(v) for v in vectors] == images == list(map(fm_vector, vectors))
    assert calls == []


@pytest.mark.parametrize("side, terms, space", [
    # H_hat = f3^f4 + 2 f1^f2 for n = 2: H_hat's support, not a multiple
    ("A", {(): 1, (2, 3): 1, (0, 1): 3}, None),
    # a non-integer multiple of H_hat
    ("A", {(2, 3): Fraction(1, 2), (0, 1): 1}, None),
    # a Fraction rank
    ("A", {(): Fraction(1, 2), (0, 1, 2, 3): 1}, None),
    # a Fraction Euler characteristic
    ("A", {(): 1, (0, 1, 2, 3): Fraction(3, 2)}, None),
    # the exact image plus a stray 5 f1
    ("A", {**_IMAGE_OF_111["A"], (0,): 5}, None),
    # the exact image plus a stray f1^f2^f3
    ("A", {**_IMAGE_OF_111["A"], (0, 1, 2): 1}, None),
    # k_hat = 0 (no f3^f4), and f1^f3 off H_hat's support
    ("A", {(): 1, (0, 2): 1, (0, 1, 2, 3): 1}, None),
    # the back transform: the exact image plus a stray f2v^f3v^f4v
    ("Ah", {**_IMAGE_OF_111["Ah"], (1, 2, 3): -2}, None),
    # the exact image, but on the space the vector started on
    ("A", _IMAGE_OF_111["A"], SP_A),
], ids=["not-a-multiple", "fraction-k", "fraction-rank", "fraction-chi",
        "stray-degree-1", "stray-degree-3", "off-support", "back-stray-degree-3",
        "wrong-space"])
def test_fm_vector_via_engine_refuses_images_off_the_lattice(monkeypatch, side, terms, space):
    with pytest.raises(LatticeError):
        _oracle_on_image(monkeypatch, side, terms, space)


@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10),
       st.integers(1, 4), st.sampled_from(["A", "Ah"]))
def test_engine_transform_twice_is_the_identity(r, k, chi, n, side):
    # the engine's own sign, not the closed form's: (r, k, chi) -> (chi, -k, r)
    # applied twice must give v back on its own side
    v = MukaiVector(r, k, chi, n, side)
    assert fm_vector_via_engine(fm_vector_via_engine(v)) == v


@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10),
       st.integers(1, 4))
def test_fm_vector_is_an_isometry(r, k, chi, n):
    v = MukaiVector(r, k, chi, n)
    w = MukaiVector(k, chi if chi else 1, r, n)
    assert fm_vector(v).d == v.d
    assert mukai_pairing(fm_vector(v), fm_vector(w)) == mukai_pairing(v, w)


def test_admissibility_examples():
    v23 = MukaiVector(2, 3, 2, 1)
    assert is_primitive(v23) and is_positive(v23)
    assert not is_primitive(MukaiVector(2, 2, 2, 1))
    # rank zero, k > 0, chi != 0, pairing 2 not in {0, 4}: positive
    v = MukaiVector(0, 1, 3, 1)
    assert mukai_pairing(v, v) == 2
    assert is_positive(v)
    # rank zero with pairing 4 fails the positivity clause
    v4 = MukaiVector(0, 1, 3, 2)
    assert mukai_pairing(v4, v4) == 4
    assert not is_positive(v4)
    assert not is_positive(MukaiVector(0, -1, 3, 1))  # ineffective c1
    assert not is_positive(MukaiVector(0, 1, 0, 3))  # chi = 0
    assert not is_positive(MukaiVector(-1, 0, 0, 1))  # negative rank
    assert is_primitive(MukaiVector(0, 1, 0, 1))
    assert not is_primitive(MukaiVector(0, 0, 0, 1))


def test_h2_direction_sign():
    v = MukaiVector(1, 0, -1, 1)
    w = MukaiVector(2, 3, 2, 1)
    assert h2_vanishing_direction(v, w) == 1
    assert h2_vanishing_direction(v, MukaiVector(2, -3, 2, 1)) == -1
    assert h2_vanishing_direction(v, MukaiVector(2, 0, 2, 1)) == 0


def test_text_and_json_round_trip():
    v = parse_vector(" 2, -3 , 5", 4)
    assert v == MukaiVector(2, -3, 5, 4)
    assert v.text() == "2,-3,5"
    assert (v.r, v.k, v.chi, v.n, v.side) == (2, -3, 5, 4, "A")
    with pytest.raises(ValueError):
        parse_vector("1,2", 1)
    with pytest.raises(ValueError):
        parse_vector("a,b,c", 1)
    with pytest.raises(ValueError):
        MukaiVector(1, 0, 0, 0)


def test_hilbert_scheme_convention():
    # Pic0 x Hilb^n carries v = (1, 0, -n): d_v = n for every ambient lattice
    for n_points in (1, 2, 3, 7):
        assert MukaiVector(1, 0, -n_points, 1).d == n_points
        assert MukaiVector(1, 0, -n_points, 3).d == n_points
