"""Enumeration of admissible orthogonal vector pairs and their theta values.

Scans a box of Mukai vectors and keeps the primitive positive ones.  The
Euler pairing chi(v (x) w) = r_w chi_v + 2n k_v k_w + r_v chi_w is linear in
chi_w, so each vector v finds its orthogonal partners by solving for them,
one (r_w, k_w) column of the box at a time: for r_v != 0 a column holds at
most one partner, whose chi_w is looked up when the division is exact; for
r_v = 0 the pairing does not involve chi_w, so the whole column is a
partner or none of it is.  Per r_w only the interval of k_w whose solved
chi_w lies in the box is walked, so the cost follows the number of
candidate partners, not the number of columns or of pairs of vectors.
d_v is computed once per vector (``MukaiVector.d``).  The search asserts
the orthogonality of each pair it finds, once.  Every pair is found before
any row is built, and a pair whose values provably have more digits than
``int`` -> ``str`` allows stops the scan, so a refused box builds no row.

A row is lean: its two vectors, which carry d_v and d_w, the
``formulas.row_forms`` entries of the three theta Euler characteristics
(value or None, and branch) and a flags tuple shared by every row with
the same flags.  Its ``ChiResult``s are built only for the JSON output.
Values become text only in ``rows_to_csv``, which makes each vector's
text once, and ``rows_to_json``, which renders the rows' ``to_json_dict``
payload through ``jsontext.dumps``, the bytes of ``json.dumps`` with
``indent=2``.
Output is deterministic: rows come out in the lexicographic order of their
integer key, and every number is rendered as an exact decimal string.
"""

from __future__ import annotations

import functools
import sys

from .formulas import binom_past_digit_limit, form_results, row_forms
from .jsontext import dumps
from .mukai import MukaiVector, euler_chi_tensor, h2_vanishing_direction, is_positive, is_primitive

CSV_COLUMNS = (
    "n", "v_r", "v_k", "v_chi", "w_r", "w_k", "w_chi",
    "d_v", "d_w", "chi_main", "chi_two", "chi_three", "flags",
)
# flag tags of chi_main, chi_two, chi_three, and of the h2 direction
_FORMULA_TAGS = ("main", "two", "three")
_H2_FLAGS = {1: "h2_pos", 0: "h2_zero", -1: "h2_neg"}


class DigitLimitError(ValueError):
    """A pair's values provably have more digits than ``int`` -> ``str`` allows."""


class PairRow:
    """One orthogonal pair: its vectors, the ``formulas.row_forms`` entries
    of its three closed forms and its flags."""

    __slots__ = ("v", "w", "forms", "flags")

    def __init__(self, v: MukaiVector, w: MukaiVector, forms: tuple, flags: tuple):
        self.v = v
        self.w = w
        self.forms = forms
        self.flags = flags

    def to_json_dict(self) -> dict:
        out = {
            "n": str(self.v.n),
            "v": self.v.text(),
            "w": self.w.text(),
            "d_v": str(self.v.d),
            "d_w": str(self.w.d),
        }
        results = form_results(self.forms, self.v, self.w)
        for name, result in zip(("chi_main", "chi_two", "chi_three"), results):
            out[name] = None if result is None else result.to_json_dict()
        out["flags"] = list(self.flags)
        return out


def admissible_vectors(n: int, max_rank: int, max_k: int, max_chi: int):
    """Primitive positive vectors in the box, lexicographically ordered."""
    out = []
    for r in range(0, max_rank + 1):
        for k in range(-max_k, max_k + 1):
            for chi in range(-max_chi, max_chi + 1):
                v = MukaiVector(r, k, chi, n)
                if is_primitive(v) and is_positive(v):
                    out.append(v)
    return out


@functools.cache  # a finite key space; rows with the same flags share one tuple
def _flags(key: tuple) -> tuple:
    """The flags of a row with ``key`` = (d_v < 0, d_w < 0, h2 direction,
    and per closed form None where it is undefined, else its branch, or the
    branch in a 1-tuple where its value is not an integer)."""
    dv_neg, dw_neg, h2, *states = key
    flags = ["dv_neg"] * dv_neg + ["dw_neg"] * dw_neg
    flags.extend(f"{tag}_undef" for tag, state in zip(_FORMULA_TAGS, states) if state is None)
    for tag, state in zip(_FORMULA_TAGS, states):
        if state is None:
            continue
        branch = state if type(state) is str else state[0]
        if branch != "generic":
            flags.append(f"{tag}_{branch}")
        if branch is not state:
            flags.append(f"nonintegral_{tag}")
    flags.append(_H2_FLAGS[h2])
    return tuple(flags)


def build_row(v: MukaiVector, w: MukaiVector) -> PairRow:
    """The row of an orthogonal pair; enumerate_rows tests the orthogonality."""
    dv_, dw_ = v.d, w.d
    forms = (main, main_branch, _), (two, two_branch, _), (three, three_branch, _) = row_forms(
        v.r, v.chi, dv_, w.r, w.chi, dw_)
    key = (dv_ < 0, dw_ < 0, h2_vanishing_direction(v, w),
           None if main is None else main_branch if main.denominator == 1 else (main_branch,),
           None if two is None else two_branch if two.denominator == 1 else (two_branch,),
           None if three is None else three_branch if three.denominator == 1 else (three_branch,))
    return PairRow(v, w, forms, _flags(key))


def _solutions(base: int, step: int, bound: int, max_k: int) -> range:
    """The k in [-max_k, max_k] with |base + step k| <= bound, ascending."""
    if step == 0:
        return range(-max_k, max_k + 1) if abs(base) <= bound else range(0)
    if step < 0:  # |base + step k| = |-base + |step| k|
        base, step = -base, -step
    return range(max(-max_k, -((bound + base) // step)),
                 min(max_k, (bound - base) // step) + 1)


def _partners(v: MukaiVector, box: tuple, columns: dict, position: dict):
    """Positions of the vectors w with chi(v (x) w) = 0, in the box order.

    ``box`` is (max_rank, max_k, max_chi); ``columns`` maps each (r, k) of
    the box to the positions of its vectors by ascending chi, and
    ``position`` maps (r, k, chi) to a position.  With rest = r_w chi_v +
    2n k_v k_w, a partner has r_v chi_w = -rest, so |rest| <= r_v max_chi
    keeps chi_w in the box: per r_w only that interval of k_w is walked.
    For r_v = 0 the bound is 0 and the interval is the one k_w with
    rest = 0 (positivity makes k_v > 0), whose whole column pairs with v.
    """
    max_rank, max_k, max_chi = box
    r_v, chi_v, twice_nk = v.r, v.chi, 2 * v.n * v.k
    bound = r_v * max_chi  # ranks in the box are nonnegative
    for r_w in range(max_rank + 1):
        base = r_w * chi_v
        for k_w in _solutions(base, twice_nk, bound, max_k):
            if r_v == 0:
                yield from columns.get((r_w, k_w), ())
                continue
            chi_w, remainder = divmod(-(base + twice_nk * k_w), r_v)
            if remainder == 0 and (j := position.get((r_w, k_w, chi_w))) is not None:
                yield j


def enumerate_rows(n: int, max_rank: int, max_k: int, max_chi: int):
    """All ordered orthogonal pairs of admissible vectors in the box.

    Returns (rows, summary); rows are in the lexicographic order of
    (r_v, k_v, chi_v, r_w, k_w, chi_w) and the summary carries the counts
    and the integrality audit.  All pairs are found
    before any row is built, so DigitLimitError, raised at the first pair
    whose values provably have more than ``sys.get_int_max_str_digits()``
    digits, comes before any value is computed.
    """
    vectors = admissible_vectors(n, max_rank, max_k, max_chi)
    # binom(m, j) < 2^m: no pair with d_v + d_w <= 10 * limit / 3 can be
    # past it (binom_past_digit_limit)
    small_d = 10 * sys.get_int_max_str_digits() // 3
    columns: dict = {}
    for i, v in enumerate(vectors):
        columns.setdefault((v.r, v.k), []).append(i)
    position = {(v.r, v.k, v.chi): i for i, v in enumerate(vectors)}
    found = []
    # v in box order, then each partner in box order: the rows' order
    for v in vectors:
        for j in _partners(v, (max_rank, max_k, max_chi), columns, position):
            w = vectors[j]
            # the search solved for w; a pair off the pairing is a search bug
            if euler_chi_tensor(v, w) != 0:
                raise AssertionError(f"partner search paired {v.text()} with {w.text()}")
            # for d_v, d_w >= 1 the row holds d_v binom(d-1, d_v-1), the one
            # binomial its closed forms build
            if (v.d + w.d > small_d and v.d >= 1 and w.d >= 1
                    and binom_past_digit_limit(v.d + w.d - 1, v.d - 1)):
                raise DigitLimitError(f"the values of {v.text()} and {w.text()} are too long to print")
            found.append((v, w))
    rows = [build_row(v, w) for v, w in found]
    # rows share their flags tuples (_flags): each distinct one is read once
    distinct = {id(row.flags): row.flags for row in rows}
    nonintegral = {key for key, flags in distinct.items()
                   if any(flag.startswith("nonintegral") for flag in flags)}
    violations = [row for row in rows if id(row.flags) in nonintegral] if nonintegral else []
    summary = {
        "n": str(n),
        "vectors": str(len(vectors)),
        "pairs": str(len(rows)),
        "nonintegral_rows": [
            {"v": row.v.text(), "w": row.w.text(), "flags": list(row.flags)}
            for row in violations
        ],
    }
    return rows, summary


def rows_to_csv(rows, summary) -> str:
    lines = [",".join(CSV_COLUMNS)]
    # "r,k,chi" of each vector and the text of each flags tuple, made once;
    # keyed by id, as the rows keep every vector and tuple alive
    texts: dict = {}
    for row in rows:
        v, w, (main, two, three), flags = row.v, row.w, row.forms, row.flags
        v_text = texts.get(id(v)) or texts.setdefault(id(v), v.text())
        w_text = texts.get(id(w)) or texts.setdefault(id(w), w.text())
        flag_text = texts.get(id(flags)) or texts.setdefault(id(flags), ";".join(flags) or "-")
        lines.append(f"{v.n},{v_text},{w_text},{v.d},{w.d},"
                     f"{'' if main[0] is None else main[0]},{'' if two[0] is None else two[0]},"
                     f"{'' if three[0] is None else three[0]},{flag_text}")
    lines.append(f"# pairs={summary['pairs']} vectors={summary['vectors']} "
                 f"nonintegral={len(summary['nonintegral_rows'])}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows, summary) -> str:
    payload = {
        "rows": [row.to_json_dict() for row in rows],
        "summary": summary,
    }
    return dumps(payload) + "\n"
