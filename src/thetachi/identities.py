"""Registry of the displayed cohomological identities, re-derived mechanically.

Every identity is evaluated by the exterior-algebra engine and compared to
its closed form: its check returns an ordered ``{label: residual}`` dict,
each residual an exact scalar or class equal to LHS - RHS.  One driver,
``run_identity``, eliminates chi' when the parameters carry an
orthogonality constraint and reports the first residual that is not
identically zero (or "0" when all are).  Each identity runs in two modes:

* symbolic - the parameters are polynomial variables; the linear
  orthogonality constraint is eliminated by exact rational substitution
  with the denominator cleared (never by ideal reduction);
* numeric - seeded pseudo-random integer parameters in [-9, 9], with
  degenerate values excluded and orthogonality solved exactly.

The same identity code serves both modes; only the scalars differ.  Each
identity declares its parameters once, as a ``ParamSpec``, and both the
symbolic parameters and the seeded sampler are derived from it.  Only two
numeric draws are bespoke, because they need a condition the symbolic
proof does not impose: the d_w = 0 quotient locus of ``dw0_chern`` and the
integral Mukai pairs of the ``assembly_*`` checks.

The numeric trials of an identity are columns from the draw to the
output:

* ``Identity.sample(rng, trials)`` returns ``{name: column}``.  Every
  draw reads ``_top_bytes``, a whole block of Mersenne Twister words per
  ``getrandbits`` call, and a word's top byte fixes what ``randint`` or
  ``choice`` would draw from it.  A ``ParamSpec`` or ``dw0_chern`` draw
  takes the values of successive ``randint(-9, 9)`` calls from
  ``_draws``; the Mukai pairs of ``assembly_*`` map each byte through the
  table of the range they draw from.
* Each column becomes one ``Lanes`` parameter and the check runs once.
  The parts that must stay exact per trial go through ``_per_lane``, which
  runs them lane by lane: the integral ``MukaiVector``s and closed forms of
  ``assembly_*``.
* A residual that is zero in every lane is zero in each; any other
  residual is split into its lanes (``_residuals``), so each trial's
  residual text is the one ``run_identity`` reports for that trial alone.

One run per identity gives its symbolic report, its columns and each
trial's residual text, and two renderings read it.  ``run_suite`` builds
every ``IdentityReport``: it is the API and the test oracle.  ``verify``
(``report_blocks``) writes text: a passing trial from one template per
identity, any other report through ``IdentityReport.to_json_text``, which
is ``jsontext.dumps`` of its ``to_json_dict``.

Registry keys (sec4_table, ..., assembly_three) are the stable interface
tokens used by the command-line ``verify --only`` filter.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain

from . import abelian as ab
from . import formulas
from .abelian import (
    C1_P,
    M_AxA,
    OMEGA,
    P1_AxA,
    P1_AxAH,
    P2_AxA,
    Polarization,
    SP_A,
    SP_AH,
    SP_AHxAH,
    SP_AxA,
    SP_AxAH,
    SP_AxAHxAH,
    SP_AxAxAH,
    addition,
    f_map,
    factorwise,
    fm_transform,
    hat_of,
    make_phi,
    mukai_class,
    mukai_pair,
    one_times_phi,
    polarization_class,
    projection,
    two_form,
)
from .exterior import (
    ExteriorClass,
    exp_even,
    integrate_product,
    pushforward,
    wedge,
)
from .jsontext import dumps, quote
from .mukai import MukaiVector
from .poly import Lanes, Poly, eliminate_linear, scalar_div, scalar_is_zero


class UnknownIdentity(KeyError):
    pass


class SideCondition(ValueError):
    """Unsatisfiable side condition (e.g. r = 0 where division is needed)."""


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    mode: str
    instantiation: dict
    residual: str
    passed: bool
    trial: int | None = None

    def to_json_dict(self) -> dict:
        out = {
            "identity": self.identity_id,
            "mode": self.mode,
            "instantiation": {k: str(v) for k, v in sorted(self.instantiation.items())},
            "residual": self.residual,
            "pass": self.passed,
        }
        if self.trial is not None:
            out["trial"] = str(self.trial)
        return out

    def to_json_text(self) -> str:
        """``to_json_dict()`` as ``json.dumps`` renders it, with ``indent=2``,
        as an item of a top-level list.  Indenting every line is exact: a
        string's newlines are escaped, so each newline is the layout's."""
        return "  " + dumps(self.to_json_dict()).replace("\n", "\n  ")


# -- shared builders ----------------------------------------------------------


# coefficient suffix -> local index pair of the six two-forms on A
_PAIRS = {"12": (0, 1), "13": (0, 2), "14": (0, 3), "23": (1, 2), "24": (1, 3), "34": (2, 3)}


def _alpha_class(coeffs: dict, prefix: str = "a") -> ExteriorClass:
    """General degree-two class on A from six coefficients a12..a34
    (x12..x34 for prefix "x")."""
    return two_form(SP_A, 0, {pair: coeffs[prefix + key] for key, pair in _PAIRS.items()})


def _polarization(d, e) -> tuple:
    """The polarization (d, e) and its class lambda = d f1^f2 + e f3^f4 on A."""
    pol = Polarization(d, e)
    return pol, polarization_class(SP_A, 0, pol)


# c1(P)^2/2 on AxAh, whose pushforward against p1*alpha defines alpha-hat
_CP_HALF_SQUARE = wedge(C1_P, C1_P) / 2

# Parameter-free morphisms and classes of the checks below, built once so
# that the morphisms' tables of basis images live for the whole process.
# Nothing here reads a parameter or PHI_HAT_SIGN: f_map, make_phi,
# one_times_phi and scaled additions stay per call.
# On AxAxAh: m12, p1 and p13*exp(c1(P)) of the two-parameter bundle.
_M12 = addition(SP_AxAxAH, 0, 1, SP_A)
_P1_AxAxAH = projection(SP_AxAxAH, (0,), SP_A)
_P13_KERNEL = projection(SP_AxAxAH, (0, 2), SP_AxAH).pullback(ab.FM_KERNEL)
# On AxAhxAh: q1 and q12*c1(P) ^ q13*c1(P) of the double Poincare pushforward.
_Q1 = projection(SP_AxAHxAH, (0,), SP_A)
_Q_POINCARE = wedge(projection(SP_AxAHxAH, (0, 1), SP_AxAH).pullback(C1_P),
                    projection(SP_AxAHxAH, (0, 2), SP_AxAH).pullback(C1_P))
_P2_AxAH = projection(SP_AxAH, (1,), SP_AH)


def _half_square(c: ExteriorClass):
    """Integral of c^2/2 over A: chi(A, L) for c = c1(L), and lam^2/2 in d_v."""
    return scalar_div(integrate_product(c, c), 2)


def _per_lane(fn, *args):
    """fn(*args), or the Lanes of fn on each lane when an argument is a
    Lanes (the others shared): integral objects and branches stay per trial."""
    width = next((len(a) for a in args if type(a) is Lanes), None)
    if width is None:
        return fn(*args)
    return Lanes([fn(*(a[i] if type(a) is Lanes else a for a in args))
                  for i in range(width)])


# Random.randint(a, b) and Random.choice(seq) draw through CPython's
# Random._randbelow_with_getrandbits(w), w = b - a + 1 or len(seq): with
# k = w.bit_length(), getrandbits(k) is the top k bits of one 32-bit
# Mersenne Twister word, drawn again while they read w or more.
# getrandbits(32 m) packs the next m words little-endian, so byte 4j + 3 is
# the top byte of word j, and for w below 256 that byte fixes the word's
# draw: a 256-entry table per range maps it to the draw, or to None when
# the word is rejected.
_REFILL_WORDS = 256


def _draw_table(a: int, b: int) -> tuple:
    """``table[byte]``: the value ``randint(a, b)`` draws from a word whose
    top byte is ``byte``, or None when it rejects the word; b - a < 255."""
    width = b - a + 1
    shift = 8 - width.bit_length()
    return tuple(a + (byte >> shift) if byte >> shift < width else None for byte in range(256))


_FREE_DRAW = _draw_table(-9, 9)
_NONZERO_DRAW = tuple(value or None for value in _FREE_DRAW)
_N_DRAW = _draw_table(1, 4)
_K_DRAW = _draw_table(-3, 3)
# for each n in 1..4, the draw of choice(divisors of n), which is
# divisors[randint(0, len(divisors) - 1)]; ``get`` leaves None as None
_DIVISOR_DRAW = {
    n: tuple(map(dict(enumerate(divisors)).get, _draw_table(0, len(divisors) - 1)))
    for n, divisors in ((n, [t for t in range(1, n + 1) if n % t == 0]) for n in range(1, 5))
}
# _draws keeps the accepted words of _FREE_DRAW as signed bytes and
# deletes the rejected ones, in one bytes.translate per block
_DIGIT = bytes(0 if value is None else value & 0xFF for value in _FREE_DRAW)
_REJECTED = bytes(byte for byte, value in enumerate(_FREE_DRAW) if value is None)


def _top_bytes(rng, words: int):
    """The top bytes of successive 32-bit words of ``rng``, one bytes block
    per ``getrandbits`` call.

    The first block holds ``words`` words and every later one
    ``_REFILL_WORDS``, so the stream never runs dry; block by block gives
    the same words as one larger draw.  Words drawn past the last one used
    are lost: each identity's generator is discarded after its draws.
    """
    count = words
    while True:
        yield rng.getrandbits(32 * count).to_bytes(4 * count, "little")[3::4]
        count = _REFILL_WORDS


def _draws(rng, words: int):
    """The values of successive ``rng.randint(-9, 9)`` calls, read from the
    blocks of ``_top_bytes(rng, words)``."""
    return chain.from_iterable(
        array("b", top.translate(_DIGIT, _REJECTED)) for top in _top_bytes(rng, words)
    )


def _orthogonality_constraint(p):
    """chi' := -(r' chi + lambda.lambda')/r, as (numerator, denominator).

    lambda = d f1^f2 + e f3^f4 and lambda' has coefficients a12..a34, so
    lambda.lambda' = d a34 + e a12.
    """
    if scalar_is_zero(p["r"]):
        raise SideCondition("cannot eliminate chi' when r = 0")
    return -(p["rp"] * p["chi"] + p["d"] * p["a34"] + p["e"] * p["a12"]), p["r"]


# -- parameter specs ------------------------------------------------------------

FREE, NONZERO, SOLVED = "free", "nonzero", "solved"


@dataclass(frozen=True)
class ParamSpec:
    """Ordered parameters of one identity, each FREE, NONZERO or SOLVED.

    Both modes are derived from the one declaration.  Symbolically every
    name is a polynomial variable; numerically FREE draws from [-9, 9],
    NONZERO from [-9, 9] minus 0, in spec order.  The SOLVED name is chi',
    fixed by the orthogonality of v = (r, lambda, chi) and
    w = (r', lambda', chi'): it is eliminated symbolically and solved as an
    exact Fraction numerically, so it must follow the names it depends on.
    """

    params: tuple  # of (name, kind)

    def symbolic_params(self) -> dict:
        out = {name: Poly.var(name) for name, _ in self.params}
        for name, kind in self.params:
            if kind == SOLVED:
                out["constraint"] = (name, *_orthogonality_constraint(out))
        return out

    def sample(self, rng, trials: int) -> dict:
        """``{name: column}`` of ``trials`` draws.  Trial by trial, each name
        in spec order takes the next value of ``_draws``, a NONZERO name the
        next nonzero one; the SOLVED name is an exact Fraction per trial."""
        drawn = [(name, kind == NONZERO) for name, kind in self.params if kind != SOLVED]
        columns = {name: [] for name, _ in drawn}
        slots = [(columns[name].append, nonzero) for name, nonzero in drawn]
        # a slot keeps a word's value with odds 19/32, or 18/32 if NONZERO
        take = _draws(rng, 16 * len(slots) * trials // 9).__next__
        for _ in range(trials):
            for append, nonzero in slots:
                value = take()
                while nonzero and not value:
                    value = take()
                append(value)
        for name, kind in self.params:
            if kind == SOLVED:
                lanes = {key: Lanes(column) for key, column in columns.items()}
                columns[name] = list(map(Fraction, *_orthogonality_constraint(lanes)))
        return columns


_DE = (("d", NONZERO), ("e", NONZERO))
_ALPHA = tuple((f"a{key}", FREE) for key in _PAIRS)
_VW = (("r", NONZERO), ("rp", FREE), ("chi", FREE), ("chip", SOLVED))
_DE_SPEC = ParamSpec(_DE)
_DE_ALPHA_SPEC = ParamSpec(_DE + _ALPHA)
_DE_ALPHA_R_SPEC = ParamSpec(_DE + _ALPHA + (("r", FREE),))
# v/w data with a general lambda' (six coefficients)
_ORTHOGONAL_SPEC = ParamSpec(_DE + _ALPHA + _VW)
# independent diagonal forms lambda = (d, e) and lambda' = (a12, a34)
_DIAGONAL_PAIR_SPEC = ParamSpec(
    (("d", FREE), ("e", FREE), ("a12", FREE), ("a34", FREE)) + _VW
)
_ISOMETRY_SPEC = ParamSpec(tuple(
    (f"{prefix}{key}", FREE)
    for prefix in ("x", "y")
    for key in ("0", *_PAIRS, "top")
))


# -- bundle builders, shared by prop_split* and assembly_* -----------------------
# v = (r, lambda, chi) and w = (r', lambda', chi'), lambda the class of pol.
# ``_vector_pair`` builds their Mukai classes, and a check builds only the d it
# reads; each builder takes (pol, lambda, r, chi, v class, w class).


def _vector_pair(r, lam, chi, rp, lamp, chip) -> tuple:
    """(v class, w class) of v = (r, lam, chi) and w = (r', lam', chi') on A."""
    return mukai_class(SP_A, 0, r, lam, chi), mukai_class(SP_A, 0, rp, lamp, chip)


def _dimension_invariant(rank, c1, euler):
    """The dimension invariant d = ∫c1^2/2 - rank chi of (rank, c1, chi) on A."""
    return _half_square(c1) - rank * euler


def _translation_bundle_c1(pol, lam, r, chi, v_cls, w_cls) -> ExteriorClass:
    """c1 on A: -p2![m_r*v . m*exp(-lam) . p1*(exp(lam) w)]_(3)."""
    mr = addition(SP_AxA, 0, 1, SP_A, r)
    return -pushforward(
        wedge(mr.pullback(v_cls), M_AxA.pullback(exp_even(-lam))),
        P1_AxA.pullback(wedge(exp_even(lam), w_cls)),
        0,
        6,
    )


def _dual_bundle_c1(pol, lam, r, chi, v_cls, w_cls) -> ExteriorClass:
    """c1 on Ah: -p2![f*v . p1*w . exp(chi c1(P))]_(3)."""
    return -pushforward(
        wedge(f_map(pol).pullback(v_cls), P1_AxAH.pullback(w_cls)),
        exp_even(C1_P.scaled(chi)),
        0,
        6,
    )


def _two_parameter_bundle_chi(pol, lam, r, chi, v_cls, w_cls):
    """chi = c1^4/24 on AxAh, c1 = -p23![m12*v . p13*exp(c1(P)) . p1*w]_(3)."""
    # the kernel and p1*w are small; m12*v is pushed against their product
    kernel_w = wedge(_P13_KERNEL, _P1_AxAxAH.pullback(w_cls))
    c1 = -pushforward(_M12.pullback(v_cls), kernel_w, 0, 6)
    square = wedge(c1, c1)
    return scalar_div(integrate_product(square, square), 24)


# -- individual identities ----------------------------------------------------
# Each check function takes a params dict and returns {label: residual}, in
# report order; a residual is a scalar or an ExteriorClass, zero when the
# identity holds.  run_identity eliminates chi' and judges them.


def _check_sec4_table(params) -> dict:
    """Six pushforwards over the first factor of AxA for m and m_r."""
    _, lam = _polarization(params["d"], params["e"])
    r = params["r"]
    alpha = _alpha_class(params)
    mr = addition(SP_AxA, 0, 1, SP_A, r)
    m_lam, m_omega = M_AxA.pullback(lam), M_AxA.pullback(OMEGA)
    mr_lam, mr_omega = mr.pullback(lam), mr.pullback(OMEGA)
    p1_omega, p1_alpha = P1_AxA.pullback(OMEGA), P1_AxA.pullback(alpha)

    rows = [
        ("m_lam.p1_omega", m_lam, p1_omega, lam),
        ("mr_lam.p1_omega", mr_lam, p1_omega, lam.scaled(r * r)),
        ("mr_omega.m_lam", mr_omega, m_lam, lam.scaled((r - 1) ** 2)),
        ("mr_lam.m_omega", mr_lam, m_omega, lam.scaled((r - 1) ** 2)),
        ("m_omega.p1_alpha", m_omega, p1_alpha, alpha),
        ("mr_omega.p1_alpha", mr_omega, p1_alpha, alpha.scaled(r * r)),
    ]
    return {
        label: pushforward(left, right, 0) - expected
        for label, left, right, expected in rows
    }


def _check_sec4_lemma(params) -> dict:
    """p2!(mr*lam . m*lam . p1*alpha) = (r-1)^2 (∫alpha lam) lam + r lam^2 alpha."""
    _, lam = _polarization(params["d"], params["e"])
    r = params["r"]
    alpha = _alpha_class(params)
    mr = addition(SP_AxA, 0, 1, SP_A, r)

    pushed = pushforward(
        wedge(mr.pullback(lam), M_AxA.pullback(lam)), P1_AxA.pullback(alpha), 0
    )
    int_alpha_lam = integrate_product(alpha, lam)
    lam_sq = integrate_product(lam, lam)
    expected = lam.scaled(int_alpha_lam * (r - 1) ** 2) + alpha.scaled(r * lam_sq)
    return {"lemma": pushed - expected}


def _check_mstar(params) -> dict:
    """Addition pullback of lambda splits as p1 + p2 + Poincare pullback."""
    pol, lam = _polarization(params["d"], params["e"])
    r = params["r"]
    mr = addition(SP_AxA, 0, 1, SP_A, r)
    p1_lam, p2_lam = P1_AxA.pullback(lam), P2_AxA.pullback(lam)
    poincare_pulled = one_times_phi(pol).pullback(C1_P)
    return {
        "m_star": M_AxA.pullback(lam) - p1_lam - p2_lam - poincare_pulled,
        "mr_star": mr.pullback(lam) - p1_lam - p2_lam.scaled(r * r)
        - poincare_pulled.scaled(r),
    }


def _check_fmp(params) -> dict:
    """Phi* of the half-square Poincare pushforward of alpha."""
    pol, lam = _polarization(params["d"], params["e"])
    alpha = _alpha_class(params)
    pushed = pushforward(P1_AxAH.pullback(alpha), _CP_HALF_SQUARE, 0)
    left = make_phi(pol, "A->Ah").pullback(pushed)
    int_alpha_lam = integrate_product(alpha, lam)
    expected = lam.scaled(-int_alpha_lam) + alpha.scaled(_half_square(lam))
    return {"fmp": left - expected}


def _check_phis(params) -> dict:
    """Both composites of the polarization morphisms are multiplication by -de."""
    pol, _ = _polarization(params["d"], params["e"])
    phi = make_phi(pol, "A->Ah")
    phi_hat = make_phi(pol, "Ah->A")
    chi = pol.chi
    res = {}
    # Ah -> A -> Ah, then A -> Ah -> A
    for tag, space, composite in (("ah", SP_AH, phi.after(phi_hat)),
                                  ("a", SP_A, phi_hat.after(phi))):
        for j in range(4):
            gen = ExteriorClass.generator(space, j)
            res[f"{tag}_gen{j}"] = composite.pullback(gen) + gen.scaled(chi)
    return res


def _check_prop_split(params) -> dict:
    """First Chern class of the translation-correlation bundle on A.

    The engine evaluates -p2![m_r*v . m*exp(-lam) . p1*(exp(lam) w)]_(3);
    under orthogonality this equals +d_v c1(v (x) w).  The overall sign is
    fixed by the engine's regression pins; only the square of this class
    feeds the Euler characteristics, so downstream values are insensitive
    to it.
    """
    pol, lam = _polarization(params["d"], params["e"])
    r, chi, rp = params["r"], params["chi"], params["rp"]
    lamp = _alpha_class(params)  # general two-form as c1 of the partner
    v_cls, w_cls = _vector_pair(r, lam, chi, rp, lamp, params["chip"])
    c1_bundle = _translation_bundle_c1(pol, lam, r, chi, v_cls, w_cls)
    c1_tensor_cls = lamp.scaled(r) + lam.scaled(rp)
    return {"prop_split": c1_bundle - c1_tensor_cls.scaled(_dimension_invariant(r, lam, chi))}


def _check_sec5_a(params) -> dict:
    pol, lam = _polarization(params["d"], params["e"])
    lamp = _alpha_class(params)
    lamp_hat, p1_lamp = hat_of(lamp), P1_AxAH.pullback(lamp)
    lam_dot = integrate_product(lam, lamp)
    pushed = pushforward(f_map(pol).pullback(OMEGA), p1_lamp, 0)
    return {
        "push_f_omega":
            pushed - lamp_hat.scaled(_half_square(lam)) + hat_of(lam).scaled(lam_dot),
        "hat_definition": pushforward(_CP_HALF_SQUARE, p1_lamp, 0) - lamp_hat,
    }


def _check_sec5_b(params) -> dict:
    pol, lam = _polarization(params["d"], params["e"])
    lam_hat = hat_of(lam)
    f_lam = f_map(pol).pullback(lam)
    pushed = pushforward(f_lam, P1_AxAH.pullback(OMEGA), 0)
    return {
        "push_f_lam": pushed + lam_hat.scaled(_half_square(lam)),
        "hat_via_f": pushforward(_CP_HALF_SQUARE, f_lam, 0) - lam_hat,
    }


def _check_sec5_c(params) -> dict:
    pol, lam = _polarization(params["d"], params["e"])
    pushed = pushforward(f_map(pol).pullback(OMEGA), C1_P, 0)
    return {"push_f_omega_cP": pushed + hat_of(lam).scaled(2)}


def _check_sec5_d(params) -> dict:
    pol, lam = _polarization(params["d"], params["e"])
    lamp = _alpha_class(params)
    pushed = pushforward(wedge(f_map(pol).pullback(lam), P1_AxAH.pullback(lamp)), C1_P, 0)
    return {"push_f_lam_lamp_cP": pushed + hat_of(lamp).scaled(integrate_product(lam, lam))}


def _check_fmtl(params) -> dict:
    """Coordinate value of the dual-polarization class.

    p2!(f*omega . c1(P)) must equal 2d f3^f4 + 2e f1^f2 on the dual side,
    and that class must be -2 lambda_hat for the transform-defined hat.
    """
    pol, lam = _polarization(params["d"], params["e"])
    value = pushforward(f_map(pol).pullback(OMEGA), C1_P, 0)
    explicit = two_form(SP_AH, 0, {(2, 3): 2 * pol.d, (0, 1): 2 * pol.e})
    return {
        "coordinates": value - explicit,
        "hat_relation": value + hat_of(lam).scaled(2),
    }


def _check_prop_split1(params) -> dict:
    """Dual-side analogue of prop_split, with the same engine-fixed sign."""
    pol, lam = _polarization(params["d"], params["e"])
    r, chi, chip = params["r"], params["chi"], params["chip"]
    lamp = _alpha_class(params)
    v_cls, w_cls = _vector_pair(r, lam, chi, params["rp"], lamp, chip)
    c1_bundle = _dual_bundle_c1(pol, lam, r, chi, v_cls, w_cls)
    c1_tensor_hat = hat_of(lamp).scaled(chi) + hat_of(lam).scaled(chip)
    return {"prop_split1": c1_bundle - c1_tensor_hat.scaled(_dimension_invariant(r, lam, chi))}


def _check_llp(params) -> dict:
    """lam . lam_hat . c1(P)^2/2 integrates to lam^2 over the product."""
    pol, lam = _polarization(params["d"], params["e"])
    lam_prod = polarization_class(SP_AxAH, 0, pol)
    lam_hat = _P2_AxAH.pullback(hat_of(lam))
    lam_sq = integrate_product(lam, lam)
    value = integrate_product(wedge(lam_prod, lam_hat), _CP_HALF_SQUARE)
    return {"llp": value - lam_sq}


def _check_bl(params) -> dict:
    """Double-Poincare pushforward pulled back along Phi x 1."""
    pol, lam = _polarization(params["d"], params["e"])

    pushed = pushforward(_Q_POINCARE, _Q1.pullback(lam), 0)  # lives on Ah1 x Ah2
    phi_times_one = factorwise(
        SP_AxAH, SP_AHxAH, [(0, ab._phi_rows(pol)), (1, None)]
    )
    left = phi_times_one.pullback(pushed)
    return {"bl": left + C1_P.scaled(_half_square(lam))}


def _check_prop_split2(params) -> dict:
    """chi of the two-parameter correlation bundle equals (d_v d_w)^2.

    lambda = (d, e) and lambda' = (a12, a34) are independent diagonal
    forms.  Symbolically all four coefficients are free, so one proof
    covers non-proportional forms as well as lambda' = 0 and
    lambda = a lambda'.
    """
    pol, lam = _polarization(params["d"], params["e"])
    r, chi, rp, chip = params["r"], params["chi"], params["rp"], params["chip"]
    lamp = two_form(SP_A, 0, {(0, 1): params["a12"], (2, 3): params["a34"]})
    v_cls, w_cls = _vector_pair(r, lam, chi, rp, lamp, chip)
    chi_bundle = _two_parameter_bundle_chi(pol, lam, r, chi, v_cls, w_cls)
    d_v, d_w = _dimension_invariant(r, lam, chi), _dimension_invariant(rp, lamp, chip)
    return {"prop_split2": chi_bundle - (d_v * d_w) ** 2}


def _check_dw0_chern(params) -> dict:
    """Chern class of the pulled-back theta bundle on the isogeny cover.

    c1 = -(chi' lam + chi lam'), and chi(A, c1) = chi'^2 d_v + chi^2 d_w
    under orthogonality.  The numeric draws lie on the d_w = 0 locus, where
    this is the finite-cover count chi'^2 d_v, i.e. the quotient value d_v.
    """
    _, lam = _polarization(params["d"], params["e"])
    r, chi, rp, chip = params["r"], params["chi"], params["rp"], params["chip"]
    lamp = _alpha_class(params)
    v_cls, w_cls = _vector_pair(r, lam, chi, rp, lamp, chip)

    c1 = -pushforward(M_AxA.pullback(w_cls), P1_AxA.pullback(v_cls), 0, 6)
    expected = -(lam.scaled(chip) + lamp.scaled(chi))
    d_v, d_w = _dimension_invariant(r, lam, chi), _dimension_invariant(rp, lamp, chip)

    return {
        "chern_class": c1 - expected,
        "euler_value": _half_square(c1) - (chip * chip * d_v + chi * chi * d_w),
    }


def _check_fm_isometry(params) -> dict:
    """The transform preserves the Mukai pairing of even classes."""
    def build(prefix):
        return (
            ExteriorClass.unit(SP_A, params[f"{prefix}0"])
            + _alpha_class(params, prefix)
            + OMEGA.scaled(params[f"{prefix}top"])
        )

    x, y = build("x"), build("y")
    fx, fy = fm_transform(x), fm_transform(y)
    return {"pairing": mukai_pair(fx, fy) - mukai_pair(x, y)}


# -- assembly checks (numeric only) -------------------------------------------


def _check_assembly(identity_id, bundle_chi, theorem, base_is_dw, params) -> dict:
    """Theorem-level assembly: Albanese value x bundle chi / d^4.

    d is d_v, or d_w when ``base_is_dw``.  ``theorem`` names the closed-form
    evaluator, looked up in ``formulas`` when the check runs.
    """
    d0, e0, k, kp = params["d0"], params["e0"], params["k"], params["kp"]
    r, chi = params["r"], params["chi"]
    pol, lam = _polarization(d0 * k, e0 * k)
    _, lamp = _polarization(d0 * kp, e0 * kp)
    v_cls, w_cls = _vector_pair(r, lam, chi, params["rp"], lamp, params["chip"])
    chi_bundle = bundle_chi(pol, lam, r, chi, v_cls, w_cls)
    vectors = (params[name] for name in ("r", "k", "chi", "rp", "kp", "chip", "n"))
    residual = _per_lane(partial(_assembly_residual, theorem, base_is_dw), chi_bundle, *vectors)
    return {identity_id: residual}


def _assembly_residual(theorem, base_is_dw, chi_bundle, r, k, chi, rp, kp, chip, n):
    """One trial, from integral v = (r, kH, chi) and w = (r', k'H, chi')."""
    v, w = MukaiVector(r, k, chi, n), MukaiVector(rp, kp, chip, n)
    base, other = (w.d, v.d) if base_is_dw else (v.d, w.d)
    assembled = Fraction(formulas.chi_albanese_fiber(base, other).value) * chi_bundle / base**4
    return assembled - getattr(formulas, theorem)(v, w).value


# -- samplers ------------------------------------------------------------------


def _sample_dw0(rng, trials: int) -> dict:
    """Orthogonal draws on the quotient locus: diagonal lambda' with d_w = 0
    and chi' != 0, from the nonzero values of ``_draws``."""
    # about 13.4 nonzero values per trial, one in 18/32 words
    take = filter(None, _draws(rng, 24 * trials)).__next__
    columns = {"d": [], "e": [], "a12": [], "a13": [0] * trials, "a14": [0] * trials,
               "a23": [0] * trials, "a24": [0] * trials, "a34": [], "r": [], "rp": [],
               "chip": [], "chi": []}
    appends = [columns[name].append for name in ("d", "e", "a12", "a34", "r", "rp", "chip", "chi")]
    for _ in range(trials):
        while True:
            rp, chip, a12 = take(), take(), take()
            if (rp * chip) % a12 == 0 and -9 <= (rp * chip) // a12 <= 9:
                break
        d, e, r = take(), take(), take()
        a34 = rp * chip // a12  # d_w = a12 a34 - r' chi' = 0
        # orthogonality fixes chi once r is drawn; solve exactly
        chi = Fraction(-(d * a34 + e * a12 + r * chip), rp)
        for append, value in zip(appends, (d, e, a12, a34, r, rp, chip, chi)):
            append(value)
    return columns


def _sample_vector_pair(rng, trials: int, need_dw_positive: bool,
                        need_k_nonzero: bool = False) -> dict:
    """Integer orthogonal Mukai vectors with d_v >= 1 (and d_w if asked).

    Each value is the draw ``randint`` or ``choice`` makes on ``rng``, read
    from the top bytes of ``_top_bytes`` through its range's table."""
    names = ("n", "d0", "e0", "r", "k", "chi", "rp", "kp", "chip")
    columns = {name: [] for name in names}
    appends = [columns[name].append for name in names]
    # from 80 to 100 words a trial, whatever the need; refills cover the rest
    byte = chain.from_iterable(_top_bytes(rng, 96 * trials)).__next__

    def draw(table):
        """The next draw of ``table``'s range: one word per attempt."""
        value = table[byte()]
        while value is None:
            value = table[byte()]
        return value

    for _ in range(trials):
        while True:
            n = draw(_N_DRAW)
            d0 = draw(_DIVISOR_DRAW[n])
            e0 = n // d0
            r = draw(_NONZERO_DRAW)
            k = draw(_K_DRAW)
            if need_k_nonzero and k == 0:
                continue
            chi = draw(_FREE_DRAW)
            rp = draw(_FREE_DRAW)
            kp = draw(_K_DRAW)
            numer = -(rp * chi + 2 * n * k * kp)
            if numer % r != 0:
                continue
            # v = (r, k, chi), w = (rp, kp, chip): r divides numer, so r chip =
            # numer and chi(v (x) w) = rp chi + 2n k kp + r chip is 0 exactly;
            # d of each in ints, as MukaiVector.d gives it
            chip = numer // r
            d_v, d_w = n * k * k - r * chi, n * kp * kp - rp * chip
            if d_v < 1 or d_w < 0 or (need_dw_positive and d_w < 1):
                continue
            break
        for append, value in zip(appends, (n, d0, e0, r, k, chi, rp, kp, chip)):
            append(value)
    return columns


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """A registered check with its numeric draw and, unless the identity is
    numeric-only, its symbolic parameters."""

    identity_id: str
    check: callable
    sample: callable
    symbolic_params: callable | None  # None: numeric-only identity


REGISTRY: dict = {}


def _register(identity_id, check, spec=None, sample=None):
    """Derive both modes from ``spec``; ``sample`` replaces only the numeric draw."""
    REGISTRY[identity_id] = Identity(
        identity_id,
        check,
        sample or spec.sample,
        spec.symbolic_params if spec is not None else None,
    )


_register("sec4_table", _check_sec4_table, _DE_ALPHA_R_SPEC)
_register("sec4_lemma", _check_sec4_lemma, _DE_ALPHA_R_SPEC)
_register("mstar", _check_mstar, _DE_ALPHA_R_SPEC)
_register("fmp", _check_fmp, _DE_ALPHA_SPEC)
_register("phis", _check_phis, _DE_SPEC)
_register("prop_split", _check_prop_split, _ORTHOGONAL_SPEC)
_register("sec5_a", _check_sec5_a, _DE_ALPHA_SPEC)
_register("sec5_b", _check_sec5_b, _DE_SPEC)
_register("sec5_c", _check_sec5_c, _DE_SPEC)
_register("sec5_d", _check_sec5_d, _DE_ALPHA_SPEC)
_register("fmtl", _check_fmtl, _DE_SPEC)
_register("prop_split1", _check_prop_split1, _ORTHOGONAL_SPEC)
_register("llp", _check_llp, _DE_SPEC)
_register("bl", _check_bl, _DE_SPEC)
_register("prop_split2", _check_prop_split2, _DIAGONAL_PAIR_SPEC)
_register("dw0_chern", _check_dw0_chern, _ORTHOGONAL_SPEC, sample=_sample_dw0)
_register("fm_isometry", _check_fm_isometry, _ISOMETRY_SPEC)


def _register_assembly(identity_id, bundle_chi, theorem, base_is_dw=False, **need):
    _register(identity_id,
              partial(_check_assembly, identity_id, bundle_chi, theorem, base_is_dw),
              sample=partial(_sample_vector_pair, **need))


_register_assembly("assembly_main", lambda *b: _half_square(_translation_bundle_c1(*b)),
                   "chi_fixed_det", need_dw_positive=False)
_register_assembly("assembly_two", lambda *b: _half_square(_dual_bundle_c1(*b)),
                   "chi_fixed_fm_det", need_dw_positive=False, need_k_nonzero=True)
_register_assembly("assembly_three", _two_parameter_bundle_chi,
                   "chi_arbitrary_det", base_is_dw=True, need_dw_positive=True)

ALL_IDENTITIES = tuple(REGISTRY)


# -- drivers --------------------------------------------------------------------


def _describe_instantiation(params) -> dict:
    """The report's view of ``params``, in their order: ints as they are,
    Fractions as text, a Poly as "symbolic", and the constraint as the
    "eliminated" substitution."""
    out = {}
    for key, value in params.items():
        if key == "constraint":
            var, num, den = value
            out["eliminated"] = f"{var} := ({num!r})/({den!r})"
        elif isinstance(value, Poly):
            out[key] = "symbolic"
        elif isinstance(value, Fraction):
            out[key] = str(value)
        else:
            out[key] = value
    return out


def _on_locus(value, constraint):
    """value with chi' := numerator/denominator substituted, denominator cleared."""
    if isinstance(value, ExteriorClass):
        return ExteriorClass._of(
            value.space, {k: _on_locus(c, constraint) for k, c in value.terms.items()}
        )
    if isinstance(value, Poly):
        return eliminate_linear(value, *constraint)
    return value


def _is_zero(value) -> bool:
    return value.is_zero if isinstance(value, ExteriorClass) else scalar_is_zero(value)


def _first_nonzero(residuals: dict, constraint) -> str:
    """"label: repr" of the first residual that is not exactly zero, else "0"."""
    for label, value in residuals.items():
        if constraint is not None:
            value = _on_locus(value, constraint)
        if not _is_zero(value):
            return f"{label}: {value!r}"
    return "0"


def _lane(value, i: int):
    """Lane i of a residual: the scalar or class a run of trial i alone holds."""
    if isinstance(value, ExteriorClass):
        return ExteriorClass._of(value.space, {k: _lane(c, i) for k, c in value.terms.items()})
    return value[i] if type(value) is Lanes else value


def _residuals(identity: Identity, columns: dict, trials: int) -> list:
    """The residual text of each of the ``trials`` trials in ``columns``,
    as ``run_identity`` judges that trial alone, from one check on their
    Lanes.  A residual that is zero in every lane is zero in each, so it
    is dropped before any lane is split out."""
    params = {name: Lanes(column) for name, column in columns.items()}
    live = {label: value for label, value in identity.check(params).items()
            if not _is_zero(value)}
    if not live:
        return ["0"] * trials
    return [_first_nonzero({label: _lane(value, trial) for label, value in live.items()}, None)
            for trial in range(trials)]


def _trial_template(identity_id: str, keys: list) -> str:
    """``IdentityReport.to_json_text`` of a passing numeric trial as one
    %-format: its values in the order of the sorted ``keys``, then its
    trial index.  A column value is an int or a Fraction, whose text needs
    no JSON escape.

    The report is rendered with a slot in place of every value: a run of
    NULs longer than the id and every key, so no other quoted string of
    the report contains the slot's quoted text."""
    slot = "\0" * (1 + max(map(len, [identity_id, *keys])))
    report = IdentityReport(identity_id, "numeric", dict.fromkeys(keys, slot), "0", True, slot)
    return report.to_json_text().replace("%", "%%").replace(quote(slot), '"%s"')


def _report(identity_id, mode, params, residual: str, trial) -> IdentityReport:
    return IdentityReport(
        identity_id, mode, _describe_instantiation(params), residual, residual == "0", trial
    )


def run_identity(identity_id: str, params: dict | None = None,
                 mode: str = "symbolic", trial: int | None = None) -> IdentityReport:
    """Run one registered identity and report the exact residual."""
    if identity_id not in REGISTRY:
        raise UnknownIdentity(identity_id)
    identity = REGISTRY[identity_id]
    if mode == "symbolic":
        if identity.symbolic_params is None:
            raise SideCondition(f"{identity_id} has no symbolic mode")
        if params is None:
            params = identity.symbolic_params()
    elif mode == "numeric":
        if params is None:
            raise ValueError("numeric mode needs sampled parameters")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _report(identity_id, mode, params,
                   _first_nonzero(identity.check(params), params.get("constraint")), trial)


def _selected(trials: int, only) -> list:
    """The ids to run, sorted and each once; raises on bad arguments."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    selected = sorted(set(ALL_IDENTITIES if only is None else only))
    for identity_id in selected:
        if identity_id not in REGISTRY:
            raise UnknownIdentity(identity_id)
    return selected


def _run(seed: int, trials: int, identity_id: str) -> tuple:
    """One identity's run, ``(identity_id, symbolic, columns, residuals)``:
    its symbolic report as a list of none or one, the columns of its
    ``trials`` numeric trials, drawn from its own seeded generator, and
    each trial's residual text."""
    identity = REGISTRY[identity_id]
    symbolic = ([] if identity.symbolic_params is None
                else [run_identity(identity_id, None, "symbolic")])
    if not trials:
        return identity_id, symbolic, {}, []
    columns = identity.sample(random.Random(f"{seed}:{identity_id}"), trials)
    return identity_id, symbolic, columns, _residuals(identity, columns, trials)


def _runs(seed: int, trials: int, only):
    """The run of each selected identity, made when it is reached; the
    arguments are checked at once."""
    return map(partial(_run, seed, trials), _selected(trials, only))


def _trial_report(identity_id: str, columns: dict, trial: int, residual: str) -> IdentityReport:
    return _report(identity_id, "numeric",
                   {name: column[trial] for name, column in columns.items()}, residual, trial)


def _run_reports(run: tuple) -> list:
    """The ``IdentityReport``s of one run: symbolic first, then by trial."""
    identity_id, symbolic, columns, residuals = run
    return symbolic + [_trial_report(identity_id, columns, trial, residual)
                       for trial, residual in enumerate(residuals)]


def run_suite(seed: int, trials: int, only=None) -> list:
    """Run every selected identity symbolically once and numerically `trials` times.

    Deterministic for a fixed seed: each identity draws from its own
    seeded generator.  Reports are sorted by identity, symbolic first, then
    by trial; an id repeated in ``only`` runs once.  All draws of an
    identity are made first, as columns, then checked in one lane pass.
    """
    return [report for run in _runs(seed, trials, only) for report in _run_reports(run)]


def _report_block(run: tuple) -> tuple:
    """``(texts, passed)`` of one run: the ``to_json_text`` of each of its
    reports and how many pass.  A passing trial is rendered from the
    identity's template, built only when the run has trials; only a trial
    with a nonzero residual builds its ``IdentityReport``."""
    identity_id, symbolic, columns, residuals = run
    keys = sorted(columns)
    template = _trial_template(identity_id, keys) if residuals else None
    rows = zip(*[columns[key] for key in keys], range(len(residuals)))
    texts = [report.to_json_text() for report in symbolic]
    texts += [template % row if residual == "0"
              else _trial_report(identity_id, columns, row[-1], residual).to_json_text()
              for row, residual in zip(rows, residuals)]
    return texts, sum(report.passed for report in symbolic) + residuals.count("0")


def report_blocks(seed: int, trials: int, only=None):
    """The reports of ``run_suite(seed, trials, only)`` as text, one block
    per identity: an iterator of ``(texts, passed)``, the
    ``to_json_text`` of each report and how many pass.  The arguments are
    checked at once, and each identity runs when its block is reached."""
    return map(_report_block, _runs(seed, trials, only))


def suite_passed(reports) -> bool:
    return all(rep.passed for rep in reports)
