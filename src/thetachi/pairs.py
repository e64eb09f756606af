"""Enumeration of admissible orthogonal vector pairs and their theta values.

Scans a box of Mukai vectors, keeps the primitive positive ones, forms all
ordered orthogonal pairs, and tabulates the three theta Euler
characteristics together with branch and integrality flags.  Output is
deterministic: rows are sorted lexicographically by their integer key and
every number is rendered as an exact decimal string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .formulas import (
    ChiResult,
    FormulaError,
    chi_arbitrary_det,
    chi_fixed_det,
    chi_fixed_fm_det,
)
from .mukai import MukaiVector, check_assumptions, dv, euler_chi_tensor, is_positive, is_primitive

CSV_COLUMNS = (
    "n", "v_r", "v_k", "v_chi", "w_r", "w_k", "w_chi",
    "d_v", "d_w", "chi_main", "chi_two", "chi_three", "flags",
)


@dataclass(frozen=True)
class PairRow:
    v: MukaiVector
    w: MukaiVector
    d_v: int
    d_w: int
    chi_main: ChiResult | None
    chi_two: ChiResult | None
    chi_three: ChiResult | None
    flags: tuple

    def sort_key(self):
        return (self.v.n, self.v.r, self.v.k, self.v.chi,
                self.w.r, self.w.k, self.w.chi)

    def csv_fields(self) -> tuple:
        return (
            str(self.v.n),
            str(self.v.r), str(self.v.k), str(self.v.chi),
            str(self.w.r), str(self.w.k), str(self.w.chi),
            str(self.d_v), str(self.d_w),
            *("" if result is None else str(result.value)
              for result in (self.chi_main, self.chi_two, self.chi_three)),
            ";".join(self.flags) or "-",
        )

    def to_json_dict(self) -> dict:
        out = {
            "n": str(self.v.n),
            "v": self.v.text(),
            "w": self.w.text(),
            "d_v": str(self.d_v),
            "d_w": str(self.d_w),
        }
        for name, result in (
            ("chi_main", self.chi_main),
            ("chi_two", self.chi_two),
            ("chi_three", self.chi_three),
        ):
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


def _evaluate(fn, v, w, flags, tag):
    try:
        return fn(v, w)
    except FormulaError:
        flags.append(f"{tag}_undef")
        return None


def build_row(v: MukaiVector, w: MukaiVector) -> PairRow:
    flags: list = []
    d_v, d_w = dv(v), dv(w)
    if d_v < 0:
        flags.append("dv_neg")
    if d_w < 0:
        flags.append("dw_neg")
    chi_main = _evaluate(chi_fixed_det, v, w, flags, "main")
    chi_two = _evaluate(chi_fixed_fm_det, v, w, flags, "two")
    chi_three = _evaluate(chi_arbitrary_det, v, w, flags, "three")
    for name, result in (("main", chi_main), ("two", chi_two), ("three", chi_three)):
        if result is None:
            continue
        if result.branch != "generic":
            flags.append(f"{name}_{result.branch}")
        if not result.integral:
            flags.append(f"nonintegral_{name}")
    direction = check_assumptions(v, w).h2_vanishing_direction
    flags.append({1: "h2_pos", 0: "h2_zero", -1: "h2_neg"}[direction])
    return PairRow(v, w, d_v, d_w, chi_main, chi_two, chi_three, tuple(flags))


def enumerate_rows(n: int, max_rank: int, max_k: int, max_chi: int):
    """All ordered orthogonal pairs of admissible vectors in the box.

    Returns (rows, summary); rows are sorted by their integer key and the
    summary carries the counts and the integrality audit.
    """
    vectors = admissible_vectors(n, max_rank, max_k, max_chi)
    rows = []
    # vectors are lexicographic and w varies fastest, so rows are in sort_key order
    for v in vectors:
        for w in vectors:
            if euler_chi_tensor(v, w) != 0:
                continue
            rows.append(build_row(v, w))
    violations = [
        row for row in rows
        if any(flag.startswith("nonintegral") for flag in row.flags)
    ]
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
    lines.extend(",".join(row.csv_fields()) for row in rows)
    lines.append(f"# pairs={summary['pairs']} vectors={summary['vectors']} "
                 f"nonintegral={len(summary['nonintegral_rows'])}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows, summary) -> str:
    payload = {
        "rows": [row.to_json_dict() for row in rows],
        "summary": summary,
    }
    return json.dumps(payload, indent=2) + "\n"
