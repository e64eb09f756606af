import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from thetachi import cli, identities, poly
from thetachi.identities import (
    ALL_IDENTITIES,
    REGISTRY,
    SideCondition,
    UnknownIdentity,
    run_identity,
    run_suite,
    suite_passed,
)
from thetachi.formulas import FormulaError
from thetachi.mukai import MukaiVector, euler_chi_tensor
from thetachi.poly import Lanes, Poly

EXPECTED_IDS = {
    "sec4_table", "sec4_lemma", "mstar", "fmp", "phis", "prop_split",
    "sec5_a", "sec5_b", "sec5_c", "sec5_d", "fmtl", "prop_split1",
    "llp", "bl", "prop_split2", "dw0_chern", "fm_isometry",
    "assembly_main", "assembly_two", "assembly_three",
}


def rows(columns) -> list:
    """The per-trial dicts of a column draw."""
    names = list(columns)
    return [dict(zip(names, values)) for values in zip(*columns.values())]


def columns_of(samples) -> dict:
    """The columns of per-trial dicts that share their keys."""
    return {name: [sample[name] for sample in samples] for name in samples[0]}


def test_registry_contents():
    assert set(ALL_IDENTITIES) == EXPECTED_IDS


def test_small_suite_all_pass():
    reports = run_suite(seed=7, trials=4)
    assert suite_passed(reports)
    symbolic_ids = {r.identity_id for r in reports if r.mode == "symbolic"}
    assert symbolic_ids == EXPECTED_IDS - {"assembly_main", "assembly_two", "assembly_three"}
    numeric = [r for r in reports if r.mode == "numeric"]
    assert len(numeric) == 4 * len(EXPECTED_IDS)
    assert all(r.residual == "0" for r in reports)


def test_suite_deterministic():
    first = run_suite(seed=11, trials=5, only=("sec4_lemma", "llp", "assembly_main"))
    second = run_suite(seed=11, trials=5, only=("sec4_lemma", "llp", "assembly_main"))
    assert first == second
    different = run_suite(seed=12, trials=5, only=("assembly_main",))
    assert [r.instantiation for r in different] != [
        r.instantiation for r in first if r.identity_id == "assembly_main"
    ]


def test_reports_sorted():
    reports = run_suite(seed=3, trials=2)
    keys = [
        (r.identity_id, 0 if r.mode == "symbolic" else 1, r.trial if r.trial is not None else -1)
        for r in reports
    ]
    assert keys == sorted(keys)


def test_empty_subset():
    assert run_suite(seed=1, trials=3, only=()) == []


def test_repeated_ids_run_once():
    once = run_suite(seed=4, trials=2, only=("llp", "assembly_main"))
    assert run_suite(seed=4, trials=2, only=("assembly_main", "llp", "llp", "assembly_main")) \
        == once
    assert len(once) == 5
    texts = [text for block, _ in identities.report_blocks(4, 2, ("llp", "llp"))
             for text in block]
    assert texts == [rep.to_json_text() for rep in once[2:]]


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        run_suite(seed=1, trials=1, only=("sec4_lemma", "bogus"))
    with pytest.raises(UnknownIdentity):
        run_identity("nope", None, "symbolic")


def test_symbolic_with_pinned_scale():
    # scaled-addition lemma with the scale pinned to 2, other symbols free
    params = REGISTRY["sec4_lemma"].symbolic_params()
    params["r"] = 2
    report = run_identity("sec4_lemma", params, "symbolic")
    assert report.passed
    assert report.instantiation["r"] == 2


def test_numeric_llp_example():
    report = run_identity("llp", {"d": 1, "e": 1}, "numeric")
    assert report.passed


def test_numeric_prop_split2_worked_pair():
    # v = (1, 0, -1), w = (2, 3H, 2) at n = 1: chi of the correlation
    # bundle is (d_v d_w)^2 = 25
    params = {
        "d": 0, "e": 0, "a12": 3, "a34": 3,
        "r": 1, "chi": -1, "rp": 2, "chip": 2,
    }
    report = run_identity("prop_split2", params, "numeric")
    assert report.passed


def test_numeric_prop_split2_independent_forms():
    # lambda = (1, 2) and lambda' = (3, -1) are not proportional; with
    # v = (1, lambda, 1) and w = (1, lambda', -6): lambda.lambda' = 5,
    # d_v = 1, d_w = 3, so chi of the bundle is 9
    params = {
        "d": 1, "e": 2, "a12": 3, "a34": -1,
        "r": 1, "chi": 1, "rp": 1, "chip": -6,
    }
    assert params["d"] * params["a34"] != params["e"] * params["a12"]
    report = run_identity("prop_split2", params, "numeric")
    assert report.passed and report.residual == "0"
    params["chip"] = -5  # breaks orthogonality, so the identity fails
    report = run_identity("prop_split2", params, "numeric")
    assert not report.passed
    assert report.residual == "prop_split2: -14"


def test_assembly_needs_numeric_mode():
    with pytest.raises(SideCondition):
        run_identity("assembly_main", None, "symbolic")
    rng = random.Random(5)
    [params] = rows(REGISTRY["assembly_main"].sample(rng, 1))
    report = run_identity("assembly_main", params, "numeric", trial=0)
    assert report.passed and report.trial == 0


def test_orthogonality_elimination_rejects_zero_denominator():
    params = REGISTRY["prop_split"].symbolic_params()
    params["constraint"] = ("chip", Poly.var("chi"), Poly.const(0))
    with pytest.raises(ZeroDivisionError):
        run_identity("prop_split", params, "symbolic")


def test_corrupted_sign_convention_fails_fmtl(phi_hat_minus):
    with phi_hat_minus():
        reports = run_suite(seed=42, trials=1, only=("fmtl", "phis", "sec4_lemma"))
        by_id = {}
        for report in reports:
            by_id.setdefault(report.identity_id, []).append(report.passed)
        assert not any(by_id["fmtl"])
        assert not any(by_id["phis"])
        assert all(by_id["sec4_lemma"])  # insensitive to the dual-side sign
    assert suite_passed(run_suite(seed=42, trials=1, only=("fmtl", "phis")))


def test_failure_reports_first_nonzero_label(phi_hat_minus):
    with phi_hat_minus():
        reports = run_suite(seed=42, trials=2, only=("fmtl",))
    assert len(reports) == 3
    for report in reports:
        assert report.residual.startswith("coordinates: ")
        assert not report.passed


def test_failure_text_matches_golden(phi_hat_minus):
    # failure residuals are the one output whose bytes pass through
    # ExteriorClass.__repr__: pin every report of a sign-corrupted suite
    golden = Path(__file__).parent / "golden" / "run_suite_phi_hat_minus_seed42_trials3.json"
    with phi_hat_minus():
        reports = run_suite(seed=42, trials=3)
    assert len(reports) == 77
    assert sum(not rep.passed for rep in reports) == 22
    out = json.dumps([dataclasses.asdict(rep) for rep in reports], indent=2)
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("identity_id,label", [
    ("prop_split", "prop_split"),
    ("prop_split1", "prop_split1"),
    ("prop_split2", "prop_split2"),
    ("dw0_chern", "euler_value"),  # its Chern class holds off the locus
])
def test_symbolic_proof_needs_the_elimination(identity_id, label):
    params = REGISTRY[identity_id].symbolic_params()
    assert run_identity(identity_id, params, "symbolic").residual == "0"
    del params["constraint"]
    report = run_identity(identity_id, params, "symbolic")
    assert not report.passed
    assert report.residual.startswith(f"{label}: ")


def test_numeric_samplers_satisfy_side_conditions():
    rng = random.Random(123)
    for params, on_locus, split2 in zip(rows(REGISTRY["prop_split"].sample(rng, 25)),
                                        rows(REGISTRY["dw0_chern"].sample(rng, 25)),
                                        rows(REGISTRY["prop_split2"].sample(rng, 25))):
        lam_dot = params["d"] * params["a34"] + params["e"] * params["a12"]
        assert params["rp"] * params["chi"] + lam_dot + params["r"] * params["chip"] == 0
        params = on_locus
        assert params["a12"] * params["a34"] - params["rp"] * params["chip"] == 0
        assert params["chip"] != 0
        lam_dot = split2["d"] * split2["a34"] + split2["e"] * split2["a12"]
        assert (
            split2["rp"] * split2["chi"] + lam_dot + split2["r"] * split2["chip"]
            == 0
        )
    # the assembly draws, checked by mukai's pairing and d_v
    for identity_id in ("assembly_main", "assembly_two", "assembly_three"):
        for params in rows(REGISTRY[identity_id].sample(rng, 200)):
            n = params["n"]
            v = MukaiVector(params["r"], params["k"], params["chi"], n)
            w = MukaiVector(params["rp"], params["kp"], params["chip"], n)
            assert euler_chi_tensor(v, w) == 0
            assert v.d >= 1
            assert w.d >= (1 if identity_id == "assembly_three" else 0)
            if identity_id == "assembly_two":
                assert params["k"] != 0
            assert params["d0"] * params["e0"] == n


def test_instantiation_values_are_reportable():
    reports = run_suite(seed=9, trials=2, only=("prop_split",))
    for report in reports:
        for value in report.instantiation.values():
            assert isinstance(value, (str, int))
        blob = report.to_json_dict()
        assert blob["pass"] is True


def test_trial_zero_report_shape():
    reports = run_suite(seed=2, trials=0, only=("llp",))
    assert len(reports) == 1 and reports[0].mode == "symbolic"
    reports = run_suite(seed=2, trials=0, only=("assembly_main",))
    assert reports == []


def test_numeric_mode_requires_params():
    with pytest.raises(ValueError):
        run_identity("llp", None, "numeric")
    with pytest.raises(ValueError):
        run_identity("llp", {"d": 1, "e": 1}, "approximate")


def test_correlation_bundle_sign_is_plus_dv():
    """Executable record of the pinned sign: the engine value of the
    translation-correlation Chern class is +d_v c1(v (x) w), not its
    negative.  Checked on an instance where the two differ."""
    from thetachi.abelian import (
        SP_A,
        SP_AxA,
        addition,
        point_class,
        projection,
        two_form,
    )
    from thetachi.exterior import ExteriorClass, fiber_integrate, wedge

    # v = (1, 0, chi), w = (0, lam', -0) with chi' = -r' chi; r = 1
    chi = 3
    lamp = two_form(SP_A, 0, {(0, 1): 2, (2, 3): 5})
    v_cls = ExteriorClass.unit(SP_A, 1) + point_class(SP_A, 0).scaled(chi)
    w_cls = lamp + point_class(SP_A, 0).scaled(0)
    m = addition(SP_AxA, 0, 1, SP_A)
    p1 = projection(SP_AxA, (0,), SP_A)
    inner = wedge(m.pullback(v_cls), p1.pullback(w_cls))
    c1_bundle = -fiber_integrate(inner.part(6), 0)
    d_v = -chi  # lam = 0, so d_v = -r chi
    c1_tensor_cls = lamp  # r lam' + r' lam with r = 1, r' = 0
    assert c1_bundle == c1_tensor_cls.scaled(d_v)
    assert c1_bundle != c1_tensor_cls.scaled(-d_v)



def test_samplers_match_symbolic_params():
    """Both modes of every symbolic identity name the same parameters, and
    every numeric draw satisfies orthogonality exactly where the symbolic
    run eliminates chi'."""
    rng = random.Random(2024)
    for identity_id in ALL_IDENTITIES:
        identity = REGISTRY[identity_id]
        if identity.symbolic_params is None:
            continue
        symbolic = identity.symbolic_params()
        orthogonal = symbolic.pop("constraint", None) is not None
        for params in rows(identity.sample(rng, 20)):
            assert params.keys() == symbolic.keys(), identity_id
            if orthogonal:
                lam_dot = params["d"] * params["a34"] + params["e"] * params["a12"]
                assert (
                    params["r"] * params["chip"] + params["rp"] * params["chi"] + lam_dot
                    == 0
                ), identity_id


# -- the lane pass against per-trial runs -----------------------------------

# their draws are bespoke: the d_w = 0 locus and integral Mukai pairs
BESPOKE_DRAWS = ("dw0_chern", "assembly_main", "assembly_two", "assembly_three")


def test_every_identity_checks_all_trials_in_one_lane_pass(monkeypatch):
    # numeric trials have one path: a single check call on Lanes parameters
    calls = []
    for identity_id in ALL_IDENTITIES:
        identity = REGISTRY[identity_id]

        def check(params, identity_id=identity_id, check=identity.check):
            types = {type(v) for name, v in params.items() if name != "constraint"}
            calls.append((identity_id, types))
            return check(params)

        monkeypatch.setitem(REGISTRY, identity_id, dataclasses.replace(identity, check=check))
    reports = run_suite(seed=1, trials=3)
    assert suite_passed(reports)
    numeric = [identity_id for identity_id, types in calls if types == {Lanes}]
    assert sorted(numeric) == sorted(EXPECTED_IDS)
    assert all(types == {Poly} for identity_id, types in calls if types != {Lanes})
    assert len(calls) - len(numeric) == sum(
        REGISTRY[i].symbolic_params is not None for i in ALL_IDENTITIES)
    assert "laned" not in {field.name for field in dataclasses.fields(identities.Identity)}


def per_trial_reports(identity_id, seed, trials) -> list:
    """The numeric reports of run_suite, one run_identity per trial of the
    per-trial draw."""
    rng = random.Random(f"{seed}:{identity_id}")
    return [
        run_identity(identity_id, oracle_trial(identity_id, rng), "numeric", trial)
        for trial in range(trials)
    ]


def report_json(reports) -> str:
    return json.dumps([dataclasses.asdict(rep) for rep in reports])


def lane_reports(identity_id, seed, trials) -> list:
    return [rep for rep in run_suite(seed, trials, only=(identity_id,)) if rep.mode == "numeric"]


def column_run(identity_id, columns, trials) -> tuple:
    """The run of hand-edited ``columns``, without a symbolic report."""
    return identity_id, [], columns, identities._residuals(REGISTRY[identity_id], columns, trials)


def column_reports(identity_id, columns, trials) -> list:
    """run_suite's numeric reports of hand-edited ``columns``."""
    return identities._run_reports(column_run(identity_id, columns, trials))


def assert_rendered_as(identity_id, columns, reports):
    """verify's text of ``columns`` is the text of ``reports``, and counts
    their passes."""
    texts, passed = identities._report_block(column_run(identity_id, columns, len(reports)))
    assert texts == [rep.to_json_text() for rep in reports]
    assert passed == sum(rep.passed for rep in reports)


def assert_block_is_run_suite(identity_id, seed, trials):
    """verify's text of one identity is run_suite's reports, rendered."""
    [(texts, passed)] = identities.report_blocks(seed, trials, (identity_id,))
    reports = run_suite(seed, trials, (identity_id,))
    assert texts == [rep.to_json_text() for rep in reports]
    assert passed == sum(rep.passed for rep in reports)


@pytest.mark.parametrize("identity_id", sorted(EXPECTED_IDS))
def test_lane_pass_equals_per_trial_runs(identity_id, phi_hat_minus):
    for seed in (1, 2, 3):
        assert report_json(lane_reports(identity_id, seed, 5)) == report_json(
            per_trial_reports(identity_id, seed, 5))
        assert_block_is_run_suite(identity_id, seed, 5)
    # with the dual-side sign corrupted some residuals are nonzero, in some
    # trials only: their texts must come out of the right lane
    with phi_hat_minus():
        for seed in (1, 2, 3):
            assert report_json(lane_reports(identity_id, seed, 5)) == report_json(
                per_trial_reports(identity_id, seed, 5))
            assert_block_is_run_suite(identity_id, seed, 5)


def test_lane_pass_splits_failures_by_trial(phi_hat_minus):
    with phi_hat_minus():
        reports = lane_reports("prop_split1", 42, 50)
    assert 0 < sum(rep.passed for rep in reports) < len(reports)
    assert len({rep.residual for rep in reports}) > 2


def test_lane_pass_keeps_each_lane_type_off_the_locus():
    # chi' moved off orthogonality stays a Fraction: a scalar residual of
    # integral value prints as Fraction(n, 1) in a per-trial run, and so in
    # a lane; a half step puts non-integral coefficients into the classes
    residuals = []
    for identity_id in ("prop_split", "prop_split1", "prop_split2"):
        rng = random.Random(f"off:{identity_id}")
        samples = rows(REGISTRY[identity_id].sample(rng, 12))
        for trial, sample in enumerate(samples):
            if trial % 2 == 0:
                sample["chip"] += 1 if trial % 4 else Fraction(1, 2)
        laned = column_reports(identity_id, columns_of(samples), 12)
        single = [run_identity(identity_id, sample, "numeric", trial)
                  for trial, sample in enumerate(samples)]
        assert report_json(laned) == report_json(single)
        assert_rendered_as(identity_id, columns_of(samples), single)
        assert all(rep.passed for rep in laned[1::2])
        assert sum(not rep.passed for rep in laned[::2]) >= 3
        residuals += [rep.residual for rep in laned]
    assert any(", 1)" in text for text in residuals)  # Fraction(n, 1)
    assert any("/2)*" in text for text in residuals)  # a non-integral coefficient


def test_per_lane_applies_to_each_lane_and_shares_scalars():
    assert identities._per_lane(divmod, 7, 2) == (3, 1)
    lanes = identities._per_lane(lambda a, b, c: (a - b) * c, Lanes([5, 1, 2]), 1, Lanes([1, 2, 3]))
    assert type(lanes) is Lanes and lanes == (4, 0, 3)


def test_dw0_chern_lanes_mixed_on_and_off_the_quotient_locus():
    # every third trial stays on the d_w = 0 locus; the next leaves it but
    # stays orthogonal (a34 + 1, chi re-solved), so the identity holds
    # there too; the third moves chi off orthogonality
    rng = random.Random("mixed:dw0_chern")
    samples = rows(REGISTRY["dw0_chern"].sample(rng, 15))
    for trial, sample in enumerate(samples):
        if trial % 3 == 1:
            sample["a34"] += 1
            lam_dot = sample["d"] * sample["a34"] + sample["e"] * sample["a12"]
            sample["chi"] = Fraction(-(lam_dot + sample["r"] * sample["chip"]), sample["rp"])
        elif trial % 3 == 2:
            sample["chi"] += 1
    laned = column_reports("dw0_chern", columns_of(samples), 15)
    single = [run_identity("dw0_chern", sample, "numeric", trial)
              for trial, sample in enumerate(samples)]
    assert report_json(laned) == report_json(single)
    assert_rendered_as("dw0_chern", columns_of(samples), single)
    assert all(rep.passed for rep in laned[0::3] + laned[1::3])
    assert not any(rep.passed for rep in laned[2::3])
    assert all(rep.residual.startswith("euler_value: ") for rep in laned[2::3])


@pytest.mark.parametrize("identity_id", BESPOKE_DRAWS[1:])
def test_assembly_lanes_mixed_with_failing_trials(identity_id):
    # the polarization's e0 feeds only the engine and n only the closed
    # forms: moving e0 off n/d0 in every other trial makes those trials
    # fail with a non-integral Fraction residual.  The other trials move
    # chi' along orthogonality, (chi - r t, chi' + r' t), where d_v and d_w
    # stay in the sampler's range, and keep passing.
    rng = random.Random(f"mixed:{identity_id}")
    samples = rows(REGISTRY[identity_id].sample(rng, 12))
    moved = 0
    for trial, sample in enumerate(samples):
        if trial % 2 == 0:
            sample["e0"] += 1
            continue
        n, r, rp = sample["n"], sample["r"], sample["rp"]
        for t in (1, -1):
            v = MukaiVector(r, sample["k"], sample["chi"] - r * t, n)
            w = MukaiVector(rp, sample["kp"], sample["chip"] + rp * t, n)
            if rp and v.d >= 1 and w.d >= (identity_id == "assembly_three"):
                sample["chi"], sample["chip"] = v.chi, w.chi
                moved += 1
                break
    assert moved >= 2
    laned = column_reports(identity_id, columns_of(samples), 12)
    single = [run_identity(identity_id, sample, "numeric", trial)
              for trial, sample in enumerate(samples)]
    assert report_json(laned) == report_json(single)
    assert_rendered_as(identity_id, columns_of(samples), single)
    assert all(rep.passed for rep in laned[1::2])
    assert sum(not rep.passed for rep in laned[::2]) >= 4
    assert any(not rep.residual.endswith(", 1)") for rep in laned[::2] if not rep.passed)


def test_assembly_lane_refuses_a_pair_the_closed_form_refuses(monkeypatch):
    # chi' moved alone breaks orthogonality; the closed form raises in that
    # lane just as in a run of that trial alone, in both renderings
    rng = random.Random("mixed:refused")
    samples = rows(REGISTRY["assembly_main"].sample(rng, 4))
    samples[2]["chip"] += 1
    with pytest.raises(FormulaError, match="not orthogonal"):
        run_identity("assembly_main", samples[2], "numeric", 2)
    monkeypatch.setitem(REGISTRY, "assembly_main", dataclasses.replace(
        REGISTRY["assembly_main"], sample=lambda rng, trials: columns_of(samples)))
    with pytest.raises(FormulaError, match="not orthogonal"):
        run_suite(0, 4, ("assembly_main",))
    with pytest.raises(FormulaError, match="not orthogonal"):
        list(identities.report_blocks(0, 4, ("assembly_main",)))


@pytest.mark.parametrize("found", [1, -1])
def test_phi_hat_minus_restores_the_sign_it_found(phi_hat_minus, found):
    from thetachi import abelian

    before = abelian.PHI_HAT_SIGN
    abelian.PHI_HAT_SIGN = found
    try:
        with phi_hat_minus():
            assert abelian.PHI_HAT_SIGN == -1
        assert abelian.PHI_HAT_SIGN == found
    finally:
        abelian.PHI_HAT_SIGN = before
        abelian._transform_image.cache_clear()


def table_draw(rng, table):
    """A draw through a range's table, one getrandbits(32) word per attempt."""
    while True:
        value = table[rng.getrandbits(32) >> 24]
        if value is not None:
            return value


def test_randint_helper_reproduces_random_randint():
    # _sample_vector_pair draws through the per-range tables: one word per
    # attempt must give Random.randint's values and leave the generator in
    # the same state, for every range they draw from, seeded as run_suite seeds
    ranges = ((-9, 9, identities._FREE_DRAW), (1, 4, identities._N_DRAW),
              (-3, 3, identities._K_DRAW))
    for seed in range(300):
        for key in (seed, f"{seed}:assembly_main"):
            ours, theirs = random.Random(key), random.Random(key)
            for step in range(60):
                a, b, table = ranges[(seed + step) % 3]
                assert table_draw(ours, table) == theirs.randint(a, b)
            assert ours.getstate() == theirs.getstate()
            # the nonzero table redraws a zero as _oracle_nonzero does
            for _ in range(60):
                assert table_draw(ours, identities._NONZERO_DRAW) == _oracle_nonzero(theirs)
            assert ours.getstate() == theirs.getstate()


def test_choice_helper_reproduces_random_choice():
    # _sample_vector_pair picks d0 through the divisor table of n:
    # Random.choice is seq[_randbelow(len(seq))], so values and final state
    # must agree, for one, two and three divisors
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for step in range(40):
            n = step % 4 + 1
            divisors = [t for t in range(1, n + 1) if n % t == 0]
            assert table_draw(ours, identities._DIVISOR_DRAW[n]) == theirs.choice(divisors)
        assert ours.getstate() == theirs.getstate()


# -- the column draws against the per-trial draws ---------------------------

# (need_dw_positive, need_k_nonzero) of each integral Mukai-pair draw
PAIR_NEEDS = {
    "assembly_main": (False, False),
    "assembly_two": (False, True),
    "assembly_three": (True, False),
}


def _oracle_nonzero(rng) -> int:
    while True:
        value = rng.randint(-9, 9)
        if value:
            return value


def oracle_trial(identity_id, rng) -> dict:
    """One trial's parameters as the per-trial samplers drew them, with
    ``Random.randint`` and ``Random.choice``: the column draws' oracle."""
    if identity_id == "dw0_chern":
        while True:
            rp, chip, a12 = _oracle_nonzero(rng), _oracle_nonzero(rng), _oracle_nonzero(rng)
            if (rp * chip) % a12 == 0 and -9 <= (rp * chip) // a12 <= 9:
                break
        params = {"d": _oracle_nonzero(rng), "e": _oracle_nonzero(rng),
                  "a12": a12, "a13": 0, "a14": 0, "a23": 0, "a24": 0,
                  "a34": rp * chip // a12, "r": _oracle_nonzero(rng), "rp": rp, "chip": chip}
        lam_dot = params["d"] * params["a34"] + params["e"] * params["a12"]
        params["chi"] = Fraction(-(lam_dot + params["r"] * chip), rp)
        return params
    if identity_id in PAIR_NEEDS:
        need_dw_positive, need_k_nonzero = PAIR_NEEDS[identity_id]
        while True:
            n = rng.randint(1, 4)
            d0 = rng.choice([t for t in range(1, n + 1) if n % t == 0])
            r = _oracle_nonzero(rng)
            k = rng.randint(-3, 3)
            if need_k_nonzero and k == 0:
                continue
            chi, rp, kp = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-3, 3)
            numer = -(rp * chi + 2 * n * k * kp)
            if numer % r != 0:
                continue
            chip = numer // r
            d_v, d_w = n * k * k - r * chi, n * kp * kp - rp * chip
            if d_v < 1 or d_w < 0 or (need_dw_positive and d_w < 1):
                continue
            return {"n": n, "d0": d0, "e0": n // d0, "r": r, "k": k, "chi": chi,
                    "rp": rp, "kp": kp, "chip": chip}
    spec = REGISTRY[identity_id].sample.__self__
    assert isinstance(spec, identities.ParamSpec)
    out = {}
    for name, kind in spec.params:
        if kind == identities.FREE:
            out[name] = rng.randint(-9, 9)
        elif kind == identities.NONZERO:
            out[name] = _oracle_nonzero(rng)
        else:
            out[name] = Fraction(-(out["rp"] * out["chi"] + out["d"] * out["a34"]
                                   + out["e"] * out["a12"]), out["r"])
    return out


def typed(columns) -> dict:
    """Columns with each value's type, so that Fraction(n, 1) != n."""
    return {name: [(type(v), v) for v in column] for name, column in columns.items()}


def assert_columns_match_oracle(identity_id, seed, trials):
    key = f"{seed}:{identity_id}"
    oracle_rng = random.Random(key)
    oracle = columns_of([oracle_trial(identity_id, oracle_rng) for _ in range(trials)])
    drawn = REGISTRY[identity_id].sample(random.Random(key), trials)
    assert typed(drawn) == typed(oracle), (identity_id, seed, trials)


@pytest.mark.parametrize("identity_id", sorted(EXPECTED_IDS))
def test_column_draws_match_per_trial_draws(identity_id):
    # one getrandbits call per block of words, read as a walk over the spec
    # (ParamSpec, dw0_chern) or through the per-range tables (the Mukai
    # pairs), gives the values and types that one sampler call per trial gave
    for seed in range(40):
        for trials in (1, 3, 200):
            assert_columns_match_oracle(identity_id, seed, trials)


@pytest.mark.parametrize("identity_id", sorted(EXPECTED_IDS))
def test_column_draws_match_per_trial_draws_at_the_trial_cap(identity_id):
    # MAX_TRIALS trials run past the first block of words into the refills
    from thetachi.cli import MAX_TRIALS

    for seed in (0, 1, 42):
        assert_columns_match_oracle(identity_id, seed, MAX_TRIALS)


def test_draw_stream_refills_block_by_block():
    # a first block of one word runs dry at once; every later value comes
    # from a refill, and each is the value of one Random.randint(-9, 9)
    for seed in range(20):
        stream = identities._draws(random.Random(seed), 1)
        rng = random.Random(seed)
        count = 3 * identities._REFILL_WORDS
        assert [next(stream) for _ in range(count)] == [
            rng.randint(-9, 9) for _ in range(count)]


def test_split_lane_checks_build_no_fraction(monkeypatch):
    # the common-denominator lanes build a Fraction only when a lane is
    # read; prop_split* and dw0_chern read none, so a warm check builds none
    # at all.  Each draw solves one parameter as a Fraction: chi' for
    # prop_split*, chi for the d_w = 0 draw of dw0_chern
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    for identity_id, solved in (("prop_split", "chip"), ("prop_split1", "chip"),
                                ("prop_split2", "chip"), ("dw0_chern", "chi")):
        identity = REGISTRY[identity_id]
        rng = random.Random(f"42:{identity_id}")
        params = {name: Lanes(column) for name, column in identity.sample(rng, 200).items()}
        assert any(type(v) is Fraction and v.denominator > 1 for v in params[solved])
        identity.check(params)  # warm-up: module-level caches
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counting)
            residuals = identity.check(params)
        assert built == [], identity_id
        assert all(identities._is_zero(value) for value in residuals.values())


def test_warm_lane_check_broadcasts_no_unit(monkeypatch):
    # Lanes * 1, Lanes * -1 and scalar_div by either return the operand or
    # its negation: a warm 200-trial check broadcasts no unit, only the
    # other int scalars it meets (2, in the half-squares of d_v)
    identity = REGISTRY["prop_split"]
    columns = identity.sample(random.Random("1:prop_split"), 200)
    params = {name: Lanes(column) for name, column in columns.items()}
    identity.check(params)  # warm-up: module-level caches
    seen = []
    real = poly._broadcast

    def broadcast(value, width):
        seen.append(value)
        return real(value, width)

    monkeypatch.setattr(poly, "_broadcast", broadcast)
    residuals = identity.check(params)
    assert 2 in seen
    assert [value for value in seen if type(value) is int and abs(value) == 1] == []
    assert all(identities._is_zero(value) for value in residuals.values())


# calls of identities._half_square in one check: each d_v, d_w read, plus
# the half-square of a bundle class (assembly_main/two, dw0_chern's c1)
HALF_SQUARES = {"prop_split": 1, "prop_split1": 1, "prop_split2": 2, "dw0_chern": 3,
                "assembly_main": 1, "assembly_two": 1, "assembly_three": 0}


@pytest.mark.parametrize("identity_id,expected", sorted(HALF_SQUARES.items()))
def test_checks_build_only_the_d_they_read(monkeypatch, identity_id, expected):
    identity = REGISTRY[identity_id]
    columns = identity.sample(random.Random(f"42:{identity_id}"), 8)
    params = {name: Lanes(column) for name, column in columns.items()}
    calls = []
    real = identities._half_square

    def half_square(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(identities, "_half_square", half_square)
    residuals = identity.check(params)
    assert all(identities._is_zero(value) for value in residuals.values())
    assert len(calls) == expected


def test_a_run_without_trials_builds_no_trial_template(monkeypatch, capsys):
    calls = []
    real = identities._trial_template

    def trial_template(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(identities, "_trial_template", trial_template)
    blocks = list(identities.report_blocks(42, 0))
    assert len(blocks) == len(ALL_IDENTITIES) and calls == []
    assert cli.main(["verify", "--only", "assembly_main", "--trials", "0"]) == 0
    assert capsys.readouterr().out == "[]\n" and calls == []
    list(identities.report_blocks(42, 1, ("fmp",)))
    assert len(calls) == 1
