"""The four benchmark workloads and the gates that check their outputs.

A workload is built once from the seed and then run as repeated, identical
passes.  A pass is a fixed list of short units (``units()``), timed one by
one.  A unit returns ``(ops, attempted, failed)``: the operations it
completed, the operations it should have completed, and how many of them
failed a correctness gate.  ``run()`` performs one whole pass and returns
the totals.  ``warm()`` runs a small slice of the same code first, so that
lazily built caches (the Fourier-Mukai kernels) are filled before anything
is timed.

The workloads call the program only through the ``thetachi`` CLI entry
point and public module attributes (``cli.main``, ``mukai.fm_vector``),
never through names bound here, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import random
import sys
import traceback
from pathlib import Path

from thetachi import cli, mukai

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SUMS = GOLDEN_DIR / "SHA256SUMS"

# verify: the AC-1 run, 20 identities x 200 trials + 17 symbolic reports
VERIFY_TRIALS = 200
IDENTITY_IDS = (
    "sec4_table", "sec4_lemma", "mstar", "fmp", "phis", "prop_split",
    "sec5_a", "sec5_b", "sec5_c", "sec5_d", "fmtl", "prop_split1", "llp",
    "bl", "prop_split2", "dw0_chern", "fm_isometry", "assembly_main",
    "assembly_two", "assembly_three",
)
NUMERIC_ONLY = frozenset(("assembly_main", "assembly_two", "assembly_three"))
IDENTITIES = len(IDENTITY_IDS)
SYMBOLIC_REPORTS = IDENTITIES - len(NUMERIC_ONLY)
# symbolic: one `verify --all --trials 0` (~80 ms) is a unit; a pass
# repeats it
SYMBOLIC_REPS = 16
# oracle: the AC-6 ranges, r, k, chi in [-10, 10] and n in 1..4
ORACLE_VECTORS = 5000
ORACLE_RANGE = 10
ORACLE_CHUNK = 250  # vectors per timed unit
# enumerate: the three AC-8 boxes plus one larger box, as
# (n, max_rank, max_k, max_chi)
ENUMERATE_BOXES = ((1, 4, 4, 6), (2, 4, 4, 6), (3, 4, 4, 6), (2, 5, 5, 8))


def run_cli(argv) -> tuple:
    """``thetachi <argv>`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _report_raise(what: str):
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# -- gates ---------------------------------------------------------------------


def expected_reports(trials: int, only=None) -> int:
    """Reports of ``verify --trials <trials>``, for ``--only <only>`` or --all."""
    if only is None:
        return IDENTITIES * trials + SYMBOLIC_REPORTS
    return trials + (only not in NUMERIC_ONLY)


def check_verify(code: int, stdout: str, trials: int, only=None) -> tuple:
    """(attempted, failed) for the output of one ``verify`` run.

    The run is ``--all``, or ``--only <only>`` for one identity.  A report
    fails unless it says ``"pass": true`` with residual ``"0"``; missing or
    extra reports fail, and a nonzero exit fails at least one.
    """
    expected = expected_reports(trials, only)
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError:
        return expected, expected
    if not isinstance(reports, list):
        return expected, expected
    bad = sum(
        1 for rep in reports
        if not isinstance(rep, dict) or rep.get("pass") is not True
        or rep.get("residual") != "0"
    )
    attempted = max(expected, len(reports))
    failed = bad + abs(len(reports) - expected)
    if code != 0:
        failed = max(failed, 1)
    return attempted, min(failed, attempted)


def _csv_rows(text: str) -> list:
    lines = text.splitlines()
    return [line for line in lines[1:] if not line.startswith("#")]


def check_enumerate(code: int, data: bytes, golden: bytes, golden_sha256: str) -> tuple:
    """(emitted rows, attempted, failed) for one ``enumerate`` CSV.

    A row fails when it differs from the golden row at its position, is
    missing, or carries a ``nonintegral`` flag.  Any other byte difference
    (header, trailer, newlines) fails at least one row, and a nonzero exit
    fails them all.
    """
    got = _csv_rows(data.decode("utf-8", errors="replace"))
    want = _csv_rows(golden.decode("utf-8"))
    attempted = max(len(got), len(want), 1)
    failed = 0
    for i in range(attempted):
        row = got[i] if i < len(got) else None
        if row is None or i >= len(want) or row != want[i] or "nonintegral" in row:
            failed += 1
    if code != 0:
        failed = attempted
    elif data != golden or hashlib.sha256(data).hexdigest() != golden_sha256:
        failed = max(failed, 1)
    return len(got), attempted, failed


# -- workloads -----------------------------------------------------------------


class Workload:
    """A pass is ``units()`` run in order; ``run()`` totals one pass."""

    def units(self) -> list:
        raise NotImplementedError

    def run(self) -> tuple:
        total = [0, 0, 0]
        for unit in self.units():
            for i, value in enumerate(unit()):
                total[i] += value
        return tuple(total)


class Verify(Workload):
    """``thetachi verify --seed S --trials 200`` on all 20 identities.

    A pass is the AC-1 run.  Each identity is one ``--only`` call, and so
    one timed unit; every identity draws from its own seeded generator, so
    the reports are those of ``verify --all``.
    """

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def _verify(self, trials: int, only=None) -> tuple:
        expected = expected_reports(trials, only)
        which = ["--all"] if only is None else ["--only", only]
        try:
            code, stdout = run_cli(
                ["verify", *which, "--seed", str(self.seed), "--trials", str(trials)]
            )
        except Exception:
            _report_raise("verify")
            return 0, expected, expected
        attempted, failed = check_verify(code, stdout, trials, only)
        return attempted - failed, attempted, failed

    def warm(self):
        self._verify(1)

    def units(self) -> list:
        return [
            lambda ident=ident: self._verify(VERIFY_TRIALS, ident)
            for ident in IDENTITY_IDS
        ]


class Symbolic(Verify):
    """``thetachi verify --all --trials 0`` repeated: proof-only reports."""

    def warm(self):
        self._verify(0)

    def units(self) -> list:
        return [lambda: self._verify(0)] * SYMBOLIC_REPS


class Oracle(Workload):
    """The AC-6 transform oracle over seed-drawn vectors on both sides."""

    def __init__(self, seed: int, scratch: Path):
        rng = random.Random(seed)
        span = ORACLE_RANGE
        self.vectors = [
            mukai.MukaiVector(
                rng.randint(-span, span), rng.randint(-span, span),
                rng.randint(-span, span), rng.randint(1, 4),
                rng.choice((mukai.SIDE_A, mukai.SIDE_AH)),
            )
            for _ in range(ORACLE_VECTORS)
        ]

    def _check(self, vectors) -> tuple:
        failed = 0
        for v in vectors:
            try:
                if mukai.fm_vector(v) != mukai.fm_vector_via_engine(v):
                    failed += 1
            except Exception:
                if failed == 0:
                    _report_raise(f"oracle on {v}")
                failed += 1
        return len(vectors) - failed, len(vectors), failed

    def warm(self):
        self._check(self.vectors[:50])

    def units(self) -> list:
        return [
            lambda start=start: self._check(self.vectors[start:start + ORACLE_CHUNK])
            for start in range(0, len(self.vectors), ORACLE_CHUNK)
        ]


def box_name(box) -> str:
    return "enumerate_n{}_r{}_k{}_c{}.csv".format(*box)


def enumerate_argv(box, out: Path) -> list:
    n, max_rank, max_k, max_chi = box
    return ["enumerate", "--n", str(n), "--max-rank", str(max_rank),
            "--max-k", str(max_k), "--max-chi", str(max_chi), "--out", str(out)]


def load_golden() -> dict:
    """Golden CSV bytes by file name, checked against SHA256SUMS."""
    sums = {}
    for line in GOLDEN_SUMS.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        sums[name] = digest
    golden = {}
    for box in ENUMERATE_BOXES:
        name = box_name(box)
        data = gzip.decompress((GOLDEN_DIR / f"{name}.gz").read_bytes())
        if hashlib.sha256(data).hexdigest() != sums[name]:
            raise ValueError(f"golden file {name} does not match SHA256SUMS")
        golden[name] = (data, sums[name])
    return golden


class Enumerate(Workload):
    """``thetachi enumerate`` on the AC-8 boxes and one larger box."""

    def __init__(self, seed: int, scratch: Path):
        self.scratch = scratch
        self.golden = load_golden()

    def run_box(self, box) -> tuple:
        name = box_name(box)
        out = self.scratch / name
        data, digest = self.golden[name]
        try:
            code, _ = run_cli(enumerate_argv(box, out))
            got = out.read_bytes()
        except Exception:
            _report_raise(f"enumerate {name}")
            rows = len(_csv_rows(data.decode("utf-8")))
            return 0, rows, rows
        return check_enumerate(code, got, data, digest)

    def warm(self):
        self.run_box(ENUMERATE_BOXES[0])

    def units(self) -> list:
        return [lambda box=box: self.run_box(box) for box in ENUMERATE_BOXES]


WORKLOADS = {
    "verify": Verify,
    "symbolic": Symbolic,
    "oracle": Oracle,
    "enumerate": Enumerate,
}
