#!/usr/bin/env python3
"""Mutation gate: the test suite must catch drift in each sign convention,
bitset or contraction kernel, table of basis images, first term of a
key's sum in the pullback, partner-search branch, mirror row of an
unordered pair, closed-form binomial sum, degenerate-branch label of a
row, the whole-image check of the engine transform oracle, the
dimension invariant d_v, the column draw, per-range draw table and lane
split of the numeric trials, the per-lane helper, the per-lane Fraction
flags of the lanes, the sign of a lane product by -1, the JSON
renderer's key separator and booleans, the verify
trial template, the bitset key of a class builder, the identity block of
a product of per-factor maps, the shortcut of class equality, the Euler
value of dw0_chern, the order of the Mukai classes the identity checks
share, the reflection of a negative binomial top in the digit-limit
bound, the Beauville-Bogomolov top comparison, and the CLI's
closed-stderr guard and usage-error exit status listed in MUTANTS.

Copies the repository into a temporary directory and runs the Tier-1 suite
there, under the Hypothesis profile "gate" (no shrinking), first unmutated
(it must pass), then once per mutant with that one source edit applied,
one subprocess at a time.  Prints a kill matrix: for each mutant, the
number of failing tests in each test file.  Exits 1 if the unmutated copy
fails, a mutant's pattern does not occur exactly once, or any mutant
survives; else 0.

Usage: python scripts/mutation_gate.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# every mutant breaks the gate's own pattern test by construction, so that
# test alone would kill it; it is left out of the runs.  The "gate" profile
# (tests/conftest.py) generates the same examples as Tier-1's but does not
# shrink a failing one: the gate only counts failing tests.
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "-rfE", "--hypothesis-profile=gate",
         "--deselect", "tests/test_scripts.py::test_mutation_gate_patterns_occur_once")
TIMEOUT_S = 900
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out", "*.egg-info"
)

# (name, file, pattern, replacement); each pattern occurs exactly once
MUTANTS = (
    ("wedge crossing mask", "src/thetachi/exterior.py",
     "mask ^= -(low << 1)", "mask ^= -low"),
    ("pullback append parity", "src/thetachi/exterior.py",
     "if (mono >> i).bit_count() & 1:", "if (mono & ((1 << i) - 1)).bit_count() & 1:"),
    ("fiber_integrate shift", "src/thetachi/exterior.py",
     "((key >> GENERATORS_PER_FACTOR) & ~low)",
     "((key >> (GENERATORS_PER_FACTOR - 1)) & ~low)"),
    ("PHI_HAT_SIGN = -1", "src/thetachi/abelian.py",
     "PHI_HAT_SIGN = 1\n", "PHI_HAT_SIGN = -1\n"),
    ("fm_vector middle sign", "src/thetachi/mukai.py",
     "MukaiVector(v.chi, -v.k, v.r, v.n, _OTHER_SIDE[v.side])",
     "MukaiVector(v.chi, v.k, v.r, v.n, _OTHER_SIDE[v.side])"),
    ("engine oracle checks only the readback", "src/thetachi/mukai.py",
     "if image.space != target or terms != _lattice_terms(other, v.n, r_hat, k_hat, chi_hat):",
     "if False:"),
    ("d_v sign of r chi", "src/thetachi/mukai.py",
     "- self.r * self.chi", "+ self.r * self.chi"),
    ("exp_even factorial", "src/thetachi/exterior.py",
     "factorial *= k", "factorial *= 1"),
    ("Poly guard test removed", "src/thetachi/poly.py",
     "                if mono & guard:", "                if False:"),
    ("Poly normalization removed", "src/thetachi/poly.py",
     "m: c.numerator if type(c) is Fraction and c.denominator == 1 else c\n", "m: c\n"),
    ("partner exact division dropped", "src/thetachi/pairs.py",
     "if remainder == 0 and (j := ", "if (j := "),
    ("rank-0 column cut to one", "src/thetachi/pairs.py",
     "yield from columns.get((r_w, k_w), ())\n", "yield from columns.get((r_w, k_w), ())[:1]\n"),
    ("mirror row of a partner dropped", "src/thetachi/pairs.py",
     "partners[j].append(i)", "pass"),
    ("pushforward complement lookup", "src/thetachi/exterior.py",
     "(fiber ^ (ka & fiber), None", "(fiber, None"),
    ("integrate_product sign operands", "src/thetachi/exterior.py",
     "if (ka & _crossing(kb)).bit_count() & 1:", "if (kb & _crossing(ka)).bit_count() & 1:"),
    ("pullback table wrong key", "src/thetachi/exterior.py",
     "image = images.get(key)\n", "image = images.get(key & -key)\n"),
    ("transform table drops coefficient", "src/thetachi/abelian.py",
     "out[image_key] = coeff * a if prev is None else prev + coeff * a",
     "out[image_key] = a if prev is None else prev + a"),
    ("pullback first term drops coefficient", "src/thetachi/exterior.py",
     "out[mono] = coeff * a if prev is None", "out[mono] = a if prev is None"),
    ("negative Kummer top not reflected", "src/thetachi/formulas.py",
     "top = k - top - 1", "pass"),
    ("closed-form binomials swapped", "src/thetachi/formulas.py",
     "value = special_v * binom_w + special_w * binom_v",
     "value = special_v * binom_v + special_w * binom_w"),
    ("row branch labels swapped", "src/thetachi/formulas.py",
     'value, "special_dv0" if dv_ == 0 else "special_dw0", expected',
     'value, "special_dw0" if dv_ == 0 else "special_dv0", expected'),
    ("lane split misaligned", "src/thetachi/identities.py",
     "return value[i] if type(value) is Lanes else value",
     "return value[i - 1] if type(value) is Lanes else value"),
    ("per-lane helper misaligned", "src/thetachi/identities.py",
     "fn(*(a[i] if type(a) is Lanes else a for a in args))",
     "fn(*(a[i - 1] if type(a) is Lanes else a for a in args))"),
    ("lane flags keep the left operand's", "src/thetachi/poly.py",
     "return tuple(map(operator.or_, f, g))", "return f"),
    ("Lanes unit path drops the sign", "src/thetachi/poly.py",
     "return self if other == 1 else -self", "return self if other == 1 else self"),
    ("JSON true and false swapped", "src/thetachi/jsontext.py",
     'if value is True:\n        return "true"\n    if value is False:\n        return "false"',
     'if value is True:\n        return "false"\n    if value is False:\n        return "true"'),
    ("JSON key separator", "src/thetachi/jsontext.py",
     '": "', '":"'),
    ("two_form key wrong bit", "src/thetachi/abelian.py",
     "((1 << i) | (1 << j)) << off", "((1 << i) | (2 << j)) << off"),
    ("factorwise identity block reversed", "src/thetachi/abelian.py",
     "rows.append([(s_off + i, 1)])", "rows.append([(s_off + 3 - i, 1)])"),
    ("class equality shortcut on support", "src/thetachi/exterior.py",
     "if self.terms == other.terms:", "if self.terms.keys() == other.terms.keys():"),
    ("dw0 euler_value drops the d_w term", "src/thetachi/identities.py",
     "chip * chip * d_v + chi * chi * d_w", "chip * chip * d_v"),
    ("column walk keeps a NONZERO zero", "src/thetachi/identities.py",
     "while nonzero and not value:", "while False:"),
    ("draw table keeps a rejected word", "src/thetachi/identities.py",
     "if byte >> shift < width else None", "if byte >> shift <= width else None"),
    ("trial template index off by one", "src/thetachi/identities.py",
     "rows = zip(*[columns[key] for key in keys], range(len(residuals)))",
     "rows = zip(*[columns[key] for key in keys], range(1, len(residuals) + 1))"),
    ("Mukai pair builder swaps v and w", "src/thetachi/identities.py",
     "return mukai_class(SP_A, 0, r, lam, chi), mukai_class(SP_A, 0, rp, lamp, chip)",
     "return mukai_class(SP_A, 0, rp, lamp, chip), mukai_class(SP_A, 0, r, lam, chi)"),
    ("Beauville-Bogomolov top off by one", "src/thetachi/formulas.py",
     "top = b // 2 + kc.n - 1\n", "top = b // 2 + kc.n\n"),
    ("stderr writer None guard removed", "src/thetachi/cli.py",
     "if sys.stderr is not None:", "if True:"),
    ("usage error exits 1", "src/thetachi/cli.py",
     '_write_stderr(f"error: {exc}")\n        return EXIT_USAGE',
     '_write_stderr(f"error: {exc}")\n        return EXIT_VERIFY_FAIL'),
)

_FAILED = re.compile(r"^(?:FAILED|ERROR) (tests/[^:\s]+)")


def run_tier1(tree: Path) -> tuple:
    """(returncode, Counter of failing tests per test file) of Tier-1 in tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(tree / "src"), env.get("PYTHONPATH")))
    )
    try:
        result = subprocess.run(
            [sys.executable, *TIER1], cwd=tree, env=env,
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, Counter()
    failing = Counter(
        match.group(1) for line in result.stdout.splitlines()
        if (match := _FAILED.match(line))
    )
    return result.returncode, failing


def pattern_counts(tree: Path) -> dict:
    """{mutant name: occurrences of its pattern in its file} for tree."""
    return {
        name: (tree / path).read_text(encoding="utf-8").count(pattern)
        for name, path, pattern, _ in MUTANTS
    }


def main() -> int:
    bad = {name: count for name, count in pattern_counts(ROOT).items() if count != 1}
    if bad:
        print(f"error: mutant patterns must occur exactly once: {bad}")
        return 1
    with tempfile.TemporaryDirectory(prefix="mutation_gate_") as tmp:
        base = Path(tmp) / "base"
        shutil.copytree(ROOT, base, ignore=IGNORED)
        code, failing = run_tier1(base)
        if code != 0:
            print(f"error: Tier-1 fails on the unmutated copy (exit {code}): {dict(failing)}")
            return 1
        rows = []
        for name, path, pattern, replacement in MUTANTS:
            tree = Path(tmp) / "mutant"
            shutil.copytree(base, tree, ignore=IGNORED)
            target = tree / path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(pattern, replacement), encoding="utf-8")
            start = time.perf_counter_ns()
            code, failing = run_tier1(tree)
            elapsed_s = (time.perf_counter_ns() - start) // 1_000_000_000
            shutil.rmtree(tree)
            status = "timeout" if code is None else ("killed" if code != 0 else "SURVIVED")
            rows.append((name, status, failing, elapsed_s))
            print(f"{name}: {status} ({sum(failing.values())} failing tests, {elapsed_s} s)",
                  file=sys.stderr)

    files = sorted({f for _, _, failing, _ in rows for f in failing})
    short = [f.removeprefix("tests/test_").removesuffix(".py") for f in files]
    width = max(len(name) for name, *_ in rows)
    print(f"{'mutant':<{width}}  {'status':<8}  " + "  ".join(short))
    for name, status, failing, _ in rows:
        cells = "  ".join(f"{failing[f]:>{len(s)}}" for f, s in zip(files, short))
        print(f"{name:<{width}}  {status:<8}  {cells}")
    survivors = [name for name, status, *_ in rows if status == "SURVIVED"]
    if survivors:
        print(f"survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(rows)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
