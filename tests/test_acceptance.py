"""Acceptance criteria, one test per criterion.

Every equality is exact (tolerance zero) and all arithmetic is
arbitrary-precision.  Each test prints one PASS/FAIL line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import hashlib
import json
import random
import time
from pathlib import Path

from thetachi.abelian import (
    Polarization,
    SP_A,
    SP_AH,
    fm_transform,
    make_phi,
    poincare_class,
    polarization_class,
)
from thetachi.exterior import ExteriorClass, integrate, wedge
from thetachi.formulas import (
    KummerClass,
    chi_albanese_fiber,
    chi_arbitrary_det,
    chi_fixed_det,
    chi_fixed_fm_det,
    chi_hilbert,
    chi_kummer,
)
from thetachi.identities import run_suite, suite_passed
from thetachi.mukai import (
    SIDE_A,
    SIDE_AH,
    MukaiVector,
    fm_vector,
    fm_vector_via_engine,
    mukai_pairing,
)
from thetachi.pairs import enumerate_rows, rows_to_csv, rows_to_json

from fractions import Fraction

ROOT = Path(__file__).resolve().parent.parent


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def test_ac1_identity_suite_green_and_fast():
    start = time.time()
    reports = run_suite(seed=42, trials=200)
    elapsed = time.time() - start
    failures = [r for r in reports if not r.passed]
    ok = not failures and elapsed < 30.0
    report(
        "AC-1 identity suite (seed 42, 200 trials)",
        ok,
        f"{len(reports)} reports, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_ac2_worked_family():
    v = MukaiVector(1, 0, -1, 1)
    values = {
        k: int(chi_fixed_det(v, MukaiVector(2, k, 2, 1)).value) for k in (3, 5, 7, 9)
    }
    ok = values == {3: 9, 5: 25, 7: 49, 9: 81}
    report("AC-2 worked family chi = k^2", ok, str(values))


def test_ac3_degenerate_branches():
    v = MukaiVector(2, 1, 1, 2)
    w = MukaiVector(2, 1, -3, 2)
    main_result = chi_fixed_det(v, w)
    two_result = chi_fixed_fm_det(v, w)
    dv2 = MukaiVector(-2, 0, 1, 2)  # d_v = 2
    dw0 = MukaiVector(2, 1, 1, 2)  # d_w = 0
    three_result = chi_arbitrary_det(dv2, dw0)
    ok = (
        main_result.value == 4
        and main_result.cross_check == {"r^2": 4}
        and two_result.value == 1
        and two_result.cross_check == {"chi^2": 1}
        and three_result.value == dv2.d == 2
    )
    report(
        "AC-3 degenerate branches (r^2, chi^2, d_v)",
        ok,
        f"main={main_result.value} two={two_result.value} three={three_result.value}",
    )


def test_ac4_kummer_cross_check():
    checked = 0
    for n in range(1, 13):
        for r in range(0, 4):
            for chiD in range(r * r * n + 1, r * r * n + 21):
                kum = chi_kummer(KummerClass(chiD, r, n)).value
                alb = chi_albanese_fiber(n, chiD - r * r * n).value
                assert kum == alb, (n, r, chiD)
                checked += 1
    report("AC-4 Kummer vs Albanese-fiber crosswalk", True, f"{checked} triples")


def test_ac5_hilbert_consistency():
    checked = 0
    for n in range(1, 13):
        for r in range(0, 4):
            for chiD in range(r * r * n + 1, r * r * n + 21):
                kc = KummerClass(chiD, r, n)
                hil = chi_hilbert(kc).value
                kum = chi_kummer(kc).value
                assert hil == Fraction(chiD, n * n) * kum, (n, r, chiD)
                checked += 1
    report("AC-5 etale-cover consistency", True, f"{checked} triples")


def test_ac6_fm_oracle_agreement():
    checked = 0
    for side in (SIDE_A, SIDE_AH):
        for n in (1, 2, 3, 4):
            for r in range(-10, 11):
                for k in range(-10, 11):
                    for chi in range(-10, 11):
                        v = MukaiVector(r, k, chi, n, side)
                        assert fm_vector(v) == fm_vector_via_engine(v), v
                        checked += 1
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(1, 4)
        v = MukaiVector(rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-10, 10), n)
        w = MukaiVector(rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-10, 10), n)
        assert fm_vector(v).d == v.d
        assert mukai_pairing(fm_vector(v), fm_vector(w)) == mukai_pairing(v, w)
    report("AC-6 transform closed form vs engine", True,
           f"{checked} vectors on both sides + 500 random pairs")


def test_ac7_engine_pins():
    from thetachi.abelian import SP_AxAH

    cP = poincare_class(SP_AxAH, 0, 1)
    pin1 = integrate(wedge(wedge(cP, cP), wedge(cP, cP)) / 24) == 1

    pol = Polarization(3, 5)
    lam = polarization_class(SP_A, 0, pol)
    hat = fm_transform(lam)
    pin2 = hat == ExteriorClass(SP_AH, {(2, 3): -3, (0, 1): -5})

    pin3 = integrate(wedge(hat.part(2), hat.part(2))) == integrate(wedge(lam, lam))

    phi = make_phi(pol, "A->Ah")
    phi_hat = make_phi(pol, "Ah->A")
    pin4 = all(
        phi.after(phi_hat).pullback(ExteriorClass.generator(SP_AH, j))
        == ExteriorClass.generator(SP_AH, j).scaled(-15)
        and phi_hat.after(phi).pullback(ExteriorClass.generator(SP_A, j))
        == ExteriorClass.generator(SP_A, j).scaled(-15)
        for j in range(4)
    )
    ok = pin1 and pin2 and pin3 and pin4
    report(
        "AC-7 engine pins (Poincare top, lambda_hat, hat square, phi composite)",
        ok,
        f"pins={[pin1, pin2, pin3, pin4]}",
    )


# per AC-8 box: pair count and sha256 of the CSV bytes, as in the first three
# lines of perfbench/golden/SHA256SUMS
AC8_BOXES = {
    1: (3669, "e3f080aeed13b419ff9537f93bf2abb141f49162ef7a7bf272ef3a79b148dff4"),
    2: (2393, "0aa1eb78dcd8abe01bfd8c23c51a00f880f56d74c963abf5773a8c15db66b0da"),
    3: (2321, "f79d1d58f09b3993f22b4f5291ad2f1eed5deaa4abd26d7306ea8a59a8043233"),
}


def test_ac8_integrality_audit():
    total_pairs = 0
    violations = []
    drifted = []
    for n, (pairs, digest) in AC8_BOXES.items():
        rows, summary = enumerate_rows(n, max_rank=4, max_k=4, max_chi=6)
        total_pairs += len(rows)
        violations.extend(summary["nonintegral_rows"])
        got = hashlib.sha256(rows_to_csv(rows, summary).encode()).hexdigest()
        if (len(rows), got) != (pairs, digest):
            drifted.append(f"n={n}: {len(rows)} pairs, sha256 {got[:12]}")
    report(
        "AC-8 integrality audit (n<=3, rank<=4, |k|<=4, |chi|<=6)",
        not violations and not drifted and total_pairs == 8383,
        f"{total_pairs} pairs, {len(violations)} non-integral, drifted: {drifted}",
    )


# per AC-8 box: sha256 of the ``enumerate --format json`` bytes
AC8_JSON_SHA256 = {
    1: "561268754f71ea6830916af0816c54a2577671140423a101c6411b45223cb718",
    2: "d886382b5eea70925742544d4aa2b3d23ea92a60f9363e1d2e02b6edca2549cc",
    3: "04d3425663cb67c77b0d04bf6ed7a4867b9d182da3713bbe7720f73666edcbbe",
}


def test_ac8_json_digests():
    drifted = []
    for n, digest in AC8_JSON_SHA256.items():
        rows, summary = enumerate_rows(n, max_rank=4, max_k=4, max_chi=6)
        got = hashlib.sha256(rows_to_json(rows, summary).encode()).hexdigest()
        if got != digest:
            drifted.append(f"n={n}: sha256 {got[:12]}")
    report("AC-8 JSON output pinned (n<=3, rank<=4, |k|<=4, |chi|<=6)", not drifted,
           f"drifted: {drifted}")


def test_ac8_pins_match_benchmark_goldens():
    sums = (ROOT / "perfbench" / "golden" / "SHA256SUMS").read_text().splitlines()
    assert sums[:3] == [
        f"{digest}  enumerate_n{n}_r4_k4_c6.csv" for n, (_, digest) in AC8_BOXES.items()
    ]


def test_ac9_determinism(tmp_path):
    outputs = []
    for _ in range(2):
        rows, summary = enumerate_rows(2, max_rank=3, max_k=2, max_chi=4)
        outputs.append(rows_to_csv(rows, summary).encode())
    enum_ok = outputs[0] == outputs[1]

    serialized = []
    for _ in range(2):
        reports = run_suite(seed=42, trials=5)
        serialized.append(json.dumps([r.to_json_dict() for r in reports]))
    verify_ok = serialized[0] == serialized[1] and suite_passed(
        run_suite(seed=42, trials=1)
    )
    report("AC-9 byte-identical reruns", enum_ok and verify_ok)
