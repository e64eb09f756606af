"""Error clauses of the public contracts: wrong spaces, bad factors,
degenerate inputs, and malformed construction all fail loudly."""

import json
import time

import pytest

from thetachi.abelian import (
    Polarization,
    SP_A,
    SP_AH,
    fm_transform,
    fm_transform_back,
    make_phi,
    two_form,
)
from thetachi.cli import main
from thetachi.exterior import (
    ExteriorClass,
    MorphismH1,
    Space,
    SpaceMismatch,
)
from thetachi.mukai import NSClass
from thetachi.poly import Poly


def test_poly_error_paths():
    x = Poly.var("x")
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(TypeError):
        x / (x + 1)


def test_space_construction_errors():
    with pytest.raises(ValueError):
        Space(("B",))


def test_class_construction_errors():
    with pytest.raises(IndexError):
        ExteriorClass.generator(SP_A, 4)
    with pytest.raises(SpaceMismatch):
        ExteriorClass(SP_A, {(0, 9): 1})
    assert ExteriorClass.monomial(SP_A, (1, 1)).is_zero  # repeated index


def test_morphism_construction_errors():
    with pytest.raises(SpaceMismatch):
        MorphismH1(SP_A, SP_AH, [[(0, 1)]])  # wrong row count
    with pytest.raises(SpaceMismatch):
        MorphismH1(SP_A, SP_AH, [[(9, 1)], [(1, 1)], [(2, 1)], [(3, 1)]])
    phi = make_phi(Polarization(1, 1), "A->Ah")
    psi = make_phi(Polarization(1, 1), "A->Ah")
    with pytest.raises(SpaceMismatch):
        phi.after(psi)  # Ah target cannot feed an A source


def test_atlas_errors():
    with pytest.raises(ValueError):
        make_phi(Polarization(1, 1), "sideways")
    with pytest.raises(ValueError):
        two_form(SP_A, 0, {(1, 0): 1})
    with pytest.raises(ValueError):
        fm_transform(ExteriorClass.unit(SP_AH))
    with pytest.raises(ValueError):
        fm_transform_back(ExteriorClass.unit(SP_A))


def test_lattice_and_formula_guards():
    with pytest.raises(ValueError):
        NSClass(1, 0)


def test_huge_components_stay_exact_and_fast(capsys):
    # binomials with a huge top and a huge bottom index must stay exact and
    # take well under a second each; the time bound is generous for slow hosts
    big = 100_000
    start = time.perf_counter()
    assert main(["eval", "--n", "1", "--v", f"1,0,{-big}", "--w", "0,1,0"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    # d_v = big, d_w = 1: the dimension binomial is 1, so each value is c1^2/2
    assert [results[t]["value"] for t in ("main", "two", "three")] == [
        "1", str(big**2), str(big**2)
    ]
    assert main(["kummer", "--n", str(big), "--chiD", "3", "--r", "0"]) == 0
    kummer = json.loads(capsys.readouterr().out)["kummer"]
    # n binom(n + 2, n - 1) = n * n(n+1)(n+2)/6
    assert kummer["value"] == str(big * big * (big + 1) * (big + 2) // 6)
    assert time.perf_counter() - start < 5
