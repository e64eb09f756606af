"""Command-line front end.

Subcommands:

* ``eval``      - evaluate the theta Euler characteristics for one pair;
* ``enumerate`` - tabulate all admissible orthogonal pairs in a box;
* ``verify``    - run the identity suite and report exact residuals;
* ``kummer``    - Kummer / Hilbert-scheme values and their consistency.

Exit status: 0 on success (all identities pass for ``verify``), 1 on a
verification failure, 2 on usage or input errors, 141 (128 + SIGPIPE, the
status a shell reports for a writer killed by SIGPIPE) when stdout is
closed before the output is written.  A closed stderr loses the messages
but changes neither stdout nor the exit status.  Every number in every
output is an exact decimal string; no floating point appears anywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import stat
import sys
from itertools import islice

from .formulas import (
    FormulaError,
    KummerClass,
    binom_past_digit_limit,
    chi_arbitrary_det,
    chi_fixed_det,
    chi_fixed_fm_det,
    chi_from_bb,
    chi_hilbert,
    chi_kummer,
    etale_cover_residual,
)
from .identities import ALL_IDENTITIES, report_blocks
from .jsontext import dumps
from .mukai import euler_chi_tensor, h2_vanishing_direction, is_positive, is_primitive, parse_vector
from .pairs import DigitLimitError, csv_lines, find_partners, json_chunks, stream_rows

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 128 + signal.SIGPIPE

# Size caps, refused with exit 2 before any work.  The box volume
# (max_rank+1)(2 max_k+1)(2 max_chi+1) bounds the vector scan and the
# vectors held in memory; it admits the rank<=12, |k|<=12, |chi|<=24 audit
# box (15,925 cells).  verify's time and output grow linearly with
# --trials; the cap is ten times the 200 trials of the acceptance run.
MAX_BOX_VOLUME = 20_000
MAX_TRIALS = 2_000
# enumerate writes its output this many CSV lines or JSON rows at a time
WRITE_BLOCK = 2048

CONVENTIONS = {
    "hilbert_scheme_vector": "Pic0 x Hilb^n is represented by v = (1, 0, -n), giving d_v = n",
    "lambda_hat": "degree-two part of the transform of lambda; -(d f3^f4 + e f1^f2)",
    "dual_polarization": "H_hat = -lambda_hat(H); H_hat^2 = 2n",
    "fm_vector": "(r, k, chi) -> (chi, -k, r) in the H_hat basis",
}


class UsageError(Exception):
    """Input a command refuses: ``main`` writes ``error: <message>`` and returns 2."""


def _write_stderr(text: str) -> None:
    """Print ``text`` to stderr, or drop it when stderr is closed: ``sys.stderr``
    is None (fd 2 was closed at startup) or the write raises OSError."""
    if sys.stderr is not None:
        try:
            print(text, file=sys.stderr)
        except OSError:
            pass


_PRINT_REFUSAL = "a value has {} and cannot be printed"
_WRITE_REFUSAL = "a value has {} and cannot be written"


def _too_long(refusal: str) -> UsageError:
    """``refusal``, with ``{}`` standing for the digit count, for a value past
    the process-wide ``sys.get_int_max_str_digits()``."""
    return UsageError(refusal.format(f"more than {sys.get_int_max_str_digits()} decimal digits"))


def _format(build, refusal: str) -> str:
    """The text that ``build()`` returns.

    ``str()`` of an int past the digit limit raises ValueError, which is
    refused as ``_too_long(refusal)``.  ``build`` only formats values that
    are already computed, so no other ValueError can arise.
    """
    try:
        return build()
    except ValueError:
        raise _too_long(refusal) from None


def _emit(build) -> int:
    """Print the JSON of the payload that ``build()`` returns."""
    print(_format(lambda: dumps(build()), _PRINT_REFUSAL))
    return EXIT_OK


EVALUATORS = {"main": chi_fixed_det, "two": chi_fixed_fm_det, "three": chi_arbitrary_det}


def cmd_eval(args) -> int:
    try:
        v = parse_vector(args.v, args.n)
        w = parse_vector(args.w, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    chi_vw = euler_chi_tensor(v, w)
    if chi_vw != 0:
        raise UsageError(_format(
            lambda: f"vectors are not orthogonal: chi(v (x) w) = {chi_vw} (must be 0)",
            "vectors are not orthogonal: chi(v (x) w) has {} (must be 0)",
        ))
    d_v, d_w = v.d, w.d
    # for d_v, d_w >= 1 every value printed is at least binom(d-1, min-1);
    # past the digit limit nothing is evaluated and _emit's refusal is given
    oversized = min(d_v, d_w) >= 1 and binom_past_digit_limit(
        d_v + d_w - 1, min(d_v, d_w) - 1
    )
    results = {}
    for name, evaluate in () if oversized else EVALUATORS.items():
        if args.theorem not in (name, "all"):
            continue
        try:
            results[name] = evaluate(v, w)
        except FormulaError as exc:
            if args.theorem != "all":
                raise UsageError(str(exc)) from None
            results[name] = {"error": str(exc)}
    if args.verbose:
        _write_stderr("conventions in use:\n" + "\n".join(
            f"  {key}: {value}" for key, value in CONVENTIONS.items()))
    if oversized:
        raise _too_long(_PRINT_REFUSAL)
    return _emit(lambda: {
        "n": str(args.n),
        "v": v.text(),
        "w": w.text(),
        "d_v": str(d_v),
        "d_w": str(d_w),
        "orthogonal": True,
        "results": {
            name: result if isinstance(result, dict) else result.to_json_dict()
            for name, result in results.items()
        },
        "admissibility": {
            name: {
                "primitive": is_primitive(x),
                "positive": is_positive(x),
                "h2_vanishing_direction": str(h2_vanishing_direction(x, y)),
            }
            for name, x, y in (("v", v, w), ("w", w, v))
        },
        "conventions": CONVENTIONS,
    })


def _create_beside(target: str) -> tuple:
    """(descriptor, path) of a new empty file in ``target``'s directory,
    open for writing.  It is created with mode 0o666 less the umask, as
    ``open(target, "w")`` would create ``target``."""
    directory, name = os.path.split(target)
    attempt = 0
    while True:
        path = os.path.join(directory, f".{name}.{os.getpid()}-{attempt}.tmp")
        try:
            return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), path
        except FileExistsError:
            attempt += 1


def _write_blocks(handle, chunks) -> None:
    """Write the text of ``chunks``, ``WRITE_BLOCK`` chunks per call."""
    write = handle.write
    while block := "".join(islice(chunks, WRITE_BLOCK)):
        write(block)


def _write_out(out: str, chunks) -> None:
    """Write the text of ``chunks`` to the file ``out``.

    The text goes to a new file beside ``os.path.realpath(out)``, so a
    symlink is written through, and that file replaces the target only
    once every chunk is written: a refused or failed run leaves no file,
    and an existing ``out`` as it was.  A new ``out`` gets the mode that
    ``open(out, "w")`` gives; an existing one keeps its permission bits.
    An ``out`` that exists and is not a regular file, such as a FIFO or a
    terminal, cannot be replaced and is written directly.

    The chunks build and render rows as they are drawn, and the one
    ValueError that can raise is ``str()`` of an int past the digit limit,
    refused as ``_too_long(_WRITE_REFUSAL)``.
    """
    target = os.path.realpath(out)
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(out, "w", encoding="utf-8") as handle:
                _write_blocks(handle, chunks)
            return
        fd, temp = _create_beside(target)
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                _write_blocks(handle, chunks)
            os.replace(temp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp)
            raise
    except ValueError:
        raise _too_long(_WRITE_REFUSAL) from None
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def cmd_enumerate(args) -> int:
    if args.n < 1:
        raise UsageError("n must be at least 1")
    if min(args.max_rank, args.max_k, args.max_chi) < 0:
        raise UsageError("--max-rank, --max-k and --max-chi must be nonnegative")
    volume = (args.max_rank + 1) * (2 * args.max_k + 1) * (2 * args.max_chi + 1)
    if volume > MAX_BOX_VOLUME:
        raise UsageError(
            f"the box has {volume} cells, (max-rank+1)(2 max-k+1)(2 max-chi+1); "
            f"at most {MAX_BOX_VOLUME} are allowed"
        )
    try:
        vectors, partners = find_partners(args.n, args.max_rank, args.max_k, args.max_chi)
    except DigitLimitError:
        raise _too_long(_WRITE_REFUSAL) from None
    rows, summary = stream_rows(args.n, vectors, partners)
    render = csv_lines if args.format == "csv" else json_chunks
    _write_out(args.out, render(rows, summary))
    print(
        f"wrote {summary['pairs']} pairs ({summary['vectors']} vectors) to {args.out}; "
        f"nonintegral: {len(summary['nonintegral_rows'])}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    unknown = [name for name in args.only or () if name not in ALL_IDENTITIES]
    if unknown:
        raise UsageError(f"unknown identities: {', '.join(unknown)}")
    if args.trials > MAX_TRIALS:
        raise UsageError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    # the ids are checked above, so only a negative --trials can raise here
    try:
        blocks = report_blocks(args.seed, args.trials, args.only)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # stdout carries the pure JSON array, written one identity at a time;
    # the human summary goes to stderr
    write = sys.stdout.write
    write("[")
    separator = "\n"
    reports = passed = 0
    for texts, block_passed in blocks:
        if texts:
            write(separator + ",\n".join(texts))
            separator = ",\n"
        reports += len(texts)
        passed += block_passed
    write("\n]\n" if reports else "]\n")
    _write_stderr(f"identities: {passed}/{reports} passed")
    return EXIT_OK if passed == reports else EXIT_VERIFY_FAIL


def cmd_kummer(args) -> int:
    try:
        kc = KummerClass(args.chiD, args.r, args.n)
    except FormulaError as exc:
        raise UsageError(str(exc)) from None
    # the Kummer value prints n times this binomial
    if binom_past_digit_limit(kc.top, args.n - 1):
        raise _too_long(_PRINT_REFUSAL)
    kummer = chi_kummer(kc)
    hilbert = chi_hilbert(kc)
    residual = etale_cover_residual(kc, hilbert, kummer)
    bb = chi_from_bb(kc, kummer) if args.n >= 3 else None

    def payload():
        out = {
            "n": str(args.n),
            "chiD": str(args.chiD),
            "r": str(args.r),
            "kummer": kummer.to_json_dict(),
            "hilbert": hilbert.to_json_dict(),
            "pull1_residual": str(residual),
        }
        if bb is not None:
            out["bb_cross_value"] = bb.to_json_dict()
        return out

    return _emit(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetachi",
        description="Exact theta-bundle Euler characteristics on abelian-surface moduli",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the formulas for one pair")
    p_eval.add_argument("--n", type=int, required=True, help="H^2 = 2n")
    p_eval.add_argument("--v", required=True,
                        help="vector as r,k,chi; write a negative rank as --v=-1,0,1")
    p_eval.add_argument("--w", required=True,
                        help="vector as r,k,chi; write a negative rank as --w=-1,0,1")
    p_eval.add_argument("--theorem", choices=(*EVALUATORS, "all"),
                        default="all")
    p_eval.add_argument("--verbose", action="store_true",
                        help="print the convention banner to stderr")
    p_eval.set_defaults(func=cmd_eval)

    p_enum = sub.add_parser("enumerate", help="tabulate admissible orthogonal pairs")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--max-rank", type=int, required=True)
    p_enum.add_argument("--max-k", type=int, required=True)
    p_enum.add_argument("--max-chi", type=int, required=True)
    p_enum.add_argument("--out", required=True, help="output file path")
    p_enum.add_argument("--format", choices=("csv", "json"), default="csv")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    scope = p_verify.add_mutually_exclusive_group()
    scope.add_argument("--all", action="store_true",
                       help="run every registered identity (default)")
    scope.add_argument("--only", nargs="+", metavar="ID",
                       help=f"subset of: {', '.join(ALL_IDENTITIES)}")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.set_defaults(func=cmd_verify)

    p_kummer = sub.add_parser("kummer", help="Kummer and Hilbert-scheme values")
    p_kummer.add_argument("--n", type=int, required=True)
    p_kummer.add_argument("--chiD", type=int, required=True)
    p_kummer.add_argument("--r", type=int, required=True)
    p_kummer.set_defaults(func=cmd_kummer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; normalize other codes
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except UsageError as exc:
        _write_stderr(f"error: {exc}")
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout (``| head``); point fd 1 at the null
        # device so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
