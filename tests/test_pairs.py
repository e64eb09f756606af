import json
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from thetachi import pairs
from thetachi.formulas import (
    FormulaError,
    binom_past_digit_limit,
    chi_arbitrary_det,
    chi_fixed_det,
    chi_fixed_fm_det,
    form_results,
)
from thetachi.mukai import MukaiVector, euler_chi_tensor, h2_vanishing_direction
from thetachi.pairs import (
    DigitLimitError,
    admissible_vectors,
    build_row,
    enumerate_rows,
    rows_to_csv,
    rows_to_json,
)


def brute_pairs(n, max_rank, max_k, max_chi):
    """Every ordered (v, w) with r_w chi_v + 2n k_v k_w + r_v chi_w = 0, O(V^2)."""
    vectors = admissible_vectors(n, max_rank, max_k, max_chi)
    return [
        (v, w) for v in vectors for w in vectors
        if w.r * v.chi + 2 * n * v.k * w.k + v.r * w.chi == 0
    ]


bound = st.integers(0, 4)


def row_key(row):
    """The integer key whose lexicographic order the rows come out in."""
    return (row.v.n, row.v.r, row.v.k, row.v.chi, row.w.r, row.w.k, row.w.chi)


@given(st.integers(1, 4), bound, bound, bound)
@example(1, 2, 3, 4)
@example(2, 4, 4, 4)
# lopsided boxes: one chi value, one k value, many ranks
@example(1, 12, 4, 0)
@example(3, 9, 0, 5)
@example(2, 10, 3, 1)
@example(1, 8, 0, 0)
def test_partner_search_matches_brute_force(n, max_rank, max_k, max_chi):
    rows, summary = enumerate_rows(n, max_rank, max_k, max_chi)
    assert [(row.v, row.w) for row in rows] == brute_pairs(n, max_rank, max_k, max_chi)
    assert summary["pairs"] == str(len(rows))


@pytest.mark.parametrize("box", [(1, 2, 3, 4), (2, 4, 4, 4)])
def test_brute_force_examples_cover_whole_columns_and_negative_chi(box):
    # the explicit examples above reach both branches of the search
    pairs = brute_pairs(*box)
    columns = {}
    for v, w in pairs:
        if v.r == 0:
            columns.setdefault((v, w.r, w.k), []).append(w)
    assert any(len(column) >= 2 for column in columns.values())
    assert any(v.chi < 0 and w.chi < 0 for v, w in pairs)
    assert any(v.r > 0 and w.r > 0 for v, w in pairs)


@pytest.mark.parametrize("box", [(1, 2, 3, 4), (2, 4, 4, 4), (1, 12, 4, 0), (3, 3, 3, 5)])
def test_each_unordered_pair_is_asserted_once(monkeypatch, box):
    # the pairing is symmetric: one assertion per unordered pair, so the
    # rows (v, w) and (w, v) share one, and a self-orthogonal v has one row
    asserted = []
    built = []

    def counted_chi(v, w):
        asserted.append((v, w))
        return euler_chi_tensor(v, w)

    def counted_row(v, w):
        built.append((v, w))
        return build_row(v, w)

    monkeypatch.setattr(pairs, "euler_chi_tensor", counted_chi)
    monkeypatch.setattr(pairs, "build_row", counted_row)
    rows, _ = enumerate_rows(*box)
    diagonal = sum(row.v == row.w for row in rows)
    assert diagonal > 0
    assert len(asserted) == (len(rows) + diagonal) // 2
    assert built == [(row.v, row.w) for row in rows]
    self_orthogonal = MukaiVector(1, 0, 0, box[0])
    assert [(row.v, row.w) for row in rows].count((self_orthogonal, self_orthogonal)) == 1


def brute_refuses(n, max_rank, max_k, max_chi):
    """Whether some ordered orthogonal pair has a row binomial past the digit
    limit, from a scan of every ordered pair."""
    return any(
        v.d >= 1 and w.d >= 1 and binom_past_digit_limit(v.d + w.d - 1, v.d - 1)
        for v, w in brute_pairs(n, max_rank, max_k, max_chi)
    )


# (digit limit, box) at n = 10^9: the 640 boxes sit on either side of the
# smallest refused box of ranks up to 1 and 2
@pytest.mark.parametrize("limit, box", [
    (640, (1, 1, 92)), (640, (1, 1, 93)), (640, (2, 1, 46)), (640, (2, 1, 47)),
    (640, (1, 2, 40)), (4300, (1, 1, 100)),
])
def test_digit_limit_refuses_what_an_ordered_scan_refuses(monkeypatch, limit, box):
    n = 1_000_000_000
    built = []

    def counted_row(v, w):
        built.append((v, w))
        return build_row(v, w)

    monkeypatch.setattr(pairs, "build_row", counted_row)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        expected = brute_refuses(n, *box)
        try:
            rows, _ = enumerate_rows(n, *box)
        except DigitLimitError:
            rows = None
    finally:
        sys.set_int_max_str_digits(saved)
    assert (rows is None) == expected == (box in ((1, 1, 93), (2, 1, 47)))
    # a refused box builds no row, an accepted one each row once
    assert len(built) == (0 if rows is None else len(rows))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rows_come_out_in_sort_key_order(n):
    rows, _ = enumerate_rows(n, 3, 3, 5)
    keys = [row_key(row) for row in rows]
    assert len(keys) > 100
    assert all(a < b for a, b in zip(keys, keys[1:]))  # sorted, no repeats


def test_admissible_vectors_filtering():
    vectors = admissible_vectors(1, 2, 2, 2)
    assert all(v.r >= 0 for v in vectors)
    assert MukaiVector(1, 0, -1, 1) in vectors
    assert MukaiVector(2, 2, 2, 1) not in vectors  # not primitive
    assert MukaiVector(0, -1, 1, 1) not in vectors  # ineffective rank-0


def test_rows_are_recomputable_and_sorted():
    rows, summary = enumerate_rows(1, 2, 3, 4)
    assert int(summary["pairs"]) == len(rows)
    keys = [row_key(row) for row in rows]
    assert keys == sorted(keys)
    # spot-check one row against a fresh evaluation
    target = next(
        row for row in rows
        if row.v == MukaiVector(1, 0, -1, 1) and row.w == MukaiVector(2, 3, 2, 1)
    )
    assert target.forms[0][0] == chi_fixed_det(target.v, target.w).value == 9
    # the swapped ordered pair is present as well
    assert any(
        row.v == MukaiVector(2, 3, 2, 1) and row.w == MukaiVector(1, 0, -1, 1)
        for row in rows
    )


def test_isotropic_pair_row_flags_undefined_values():
    # d_v = d_w = 0: the quotient formulas are outside their domain
    row = build_row(MukaiVector(1, 1, 1, 1), MukaiVector(1, -1, 1, 1))
    assert row.forms[0][0] is None and row.forms[1][0] is None
    assert "main_undef" in row.flags and "two_undef" in row.flags
    summary = {"pairs": "1", "vectors": "2", "nonintegral_rows": []}
    fields = rows_to_csv([row], summary).splitlines()[1].split(",")
    assert fields[9] == "" and fields[10] == ""
    blob = row.to_json_dict()
    assert blob["chi_main"] is None


def test_negative_invariant_row_flags():
    # d_v = -5 with an orthogonal positive partner: flagged, not fabricated
    row = build_row(MukaiVector(1, 0, 5, 1), MukaiVector(1, 1, -5, 1))
    assert "dv_neg" in row.flags
    assert row.forms[0][0] is None and "main_undef" in row.flags


def test_special_branch_rows_flagged():
    row = build_row(MukaiVector(2, 1, 1, 2), MukaiVector(2, 1, -3, 2))
    assert "main_special_dv0" in row.flags
    assert "two_special_dv0" in row.flags
    assert row.forms[0][0] == 4 and row.forms[1][0] == 1


def test_csv_and_json_render_exact_strings():
    rows, summary = enumerate_rows(1, 1, 1, 2)
    csv_text = rows_to_csv(rows, summary)
    header, *body = csv_text.strip().splitlines()
    assert header.split(",") == [
        "n", "v_r", "v_k", "v_chi", "w_r", "w_k", "w_chi",
        "d_v", "d_w", "chi_main", "chi_two", "chi_three", "flags",
    ]
    assert body[-1].startswith("#")
    payload = json.loads(rows_to_json(rows, summary))
    assert payload["summary"]["pairs"] == str(len(rows))


# (v, w) reaching each special branch and undefined case of a row
HAND_PAIRS = [
    ((2, 1, 1, 2), (2, 1, -3, 2)),  # d_v = 0: special_dv0
    ((2, 1, -3, 2), (2, 1, 1, 2)),  # d_w = 0: special_dw0
    ((-2, 0, 1, 2), (2, 1, 1, 2)),  # d_w = 0, d_v = 2: three special_dw0 cross-checked
    ((1, 0, 5, 1), (1, 1, -5, 1)),  # d_v < 0
    ((1, 1, -5, 1), (1, 0, 5, 1)),  # d_w < 0
    ((1, 1, 1, 1), (1, -1, 1, 1)),  # d_v = d_w = 0
]
_EVALUATORS = (("chi_main", "main", chi_fixed_det), ("chi_two", "two", chi_fixed_fm_det),
               ("chi_three", "three", chi_arbitrary_det))


def _evaluate(evaluator, v, w):
    try:
        return evaluator(v, w)
    except FormulaError:
        return None


def reference_flags(v, w, results) -> tuple:
    """The flags of a row, from the public evaluators' results."""
    flags = ["dv_neg"] * (v.d < 0) + ["dw_neg"] * (w.d < 0)
    flags += [f"{tag}_undef" for (_, tag, _), result in zip(_EVALUATORS, results)
              if result is None]
    for (_, tag, _), result in zip(_EVALUATORS, results):
        if result is not None and result.branch != "generic":
            flags.append(f"{tag}_{result.branch}")
    flags.append({1: "h2_pos", 0: "h2_zero", -1: "h2_neg"}[h2_vanishing_direction(v, w)])
    return tuple(flags)


def test_rows_match_the_public_evaluators():
    rows, _ = enumerate_rows(2, 3, 3, 5)
    hand = [(MukaiVector(*v), MukaiVector(*w)) for v, w in HAND_PAIRS]
    assert all(euler_chi_tensor(v, w) == 0 for v, w in hand)
    reached = set()
    for row in rows + [build_row(v, w) for v, w in hand]:
        v, w = row.v, row.w
        results = [_evaluate(evaluator, v, w) for _, _, evaluator in _EVALUATORS]
        assert row.flags == reference_flags(v, w, results)
        expected_json = {
            "n": str(v.n), "v": v.text(), "w": w.text(), "d_v": str(v.d), "d_w": str(w.d),
        }
        for (name, tag, _), got, result in zip(_EVALUATORS, form_results(row.forms, v, w),
                                               results):
            if result is None:
                assert got is None
                reached.add(f"{tag}:undef")
                expected_json[name] = None
                continue
            assert type(got.value) is int
            assert (got.formula_id, got.value, got.branch, got.cross_check, got.inputs) == (
                result.formula_id, result.value, result.branch, result.cross_check, result.inputs)
            assert got.to_json_dict() == result.to_json_dict()
            reached.add(f"{tag}:{result.branch}")
            expected_json[name] = result.to_json_dict()
        expected_json["flags"] = list(row.flags)
        assert row.to_json_dict() == expected_json
    assert reached >= {
        f"{tag}:{branch}" for tag in ("main", "two")
        for branch in ("generic", "special_dv0", "special_dw0", "undef")
    } | {"three:generic", "three:special_dw0", "three:undef"}


@pytest.mark.parametrize("box", [(1, 1, 1, 2), (2, 2, 1, 3), (1, 0, 1, 1)])
def test_json_rows_render_as_the_whole_payload(box):
    # each row is rendered on its own, indented to its depth; json.dumps of
    # the whole payload is the oracle, also with no rows and with an audit
    # entry in the summary
    rows, summary = enumerate_rows(*box)
    audited = dict(summary, nonintegral_rows=[{"v": "1,0,-1", "w": "2,3,2", "flags": ["x"]}])
    for payload_summary in (summary, audited):
        payload = {"rows": [row.to_json_dict() for row in rows], "summary": payload_summary}
        assert rows_to_json(rows, payload_summary) == json.dumps(payload, indent=2) + "\n"
    assert (len(rows) == 0) == (box == (1, 0, 1, 1))


def test_summary_is_complete_before_any_row():
    # the counts come from the partner lists, and no row adds to the summary
    vectors, partners = pairs.find_partners(1, 2, 1, 3)
    stream, summary = pairs.stream_rows(1, vectors, partners)
    expected = {"n": "1", "vectors": str(len(vectors)),
                "pairs": str(sum(map(len, partners))), "nonintegral_rows": []}
    assert summary == expected
    assert sum(1 for _ in stream) == int(summary["pairs"]) > 0
    assert summary == expected
