import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from thetachi.formulas import chi_fixed_det
from thetachi.mukai import MukaiVector
from thetachi.pairs import (
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rows_come_out_in_sort_key_order(n):
    rows, _ = enumerate_rows(n, 3, 3, 5)
    keys = [row.sort_key() for row in rows]
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
    keys = [row.sort_key() for row in rows]
    assert keys == sorted(keys)
    # spot-check one row against a fresh evaluation
    target = next(
        row for row in rows
        if row.v == MukaiVector(1, 0, -1, 1) and row.w == MukaiVector(2, 3, 2, 1)
    )
    assert target.chi_main.value == chi_fixed_det(target.v, target.w).value == 9
    # the swapped ordered pair is present as well
    assert any(
        row.v == MukaiVector(2, 3, 2, 1) and row.w == MukaiVector(1, 0, -1, 1)
        for row in rows
    )


def test_isotropic_pair_row_flags_undefined_values():
    # d_v = d_w = 0: the quotient formulas are outside their domain
    row = build_row(MukaiVector(1, 1, 1, 1), MukaiVector(1, -1, 1, 1))
    assert row.chi_main is None and row.chi_two is None
    assert "main_undef" in row.flags and "two_undef" in row.flags
    fields = row.csv_fields()
    assert fields[9] == "" and fields[10] == ""
    blob = row.to_json_dict()
    assert blob["chi_main"] is None


def test_negative_invariant_row_flags():
    # d_v = -5 with an orthogonal positive partner: flagged, not fabricated
    row = build_row(MukaiVector(1, 0, 5, 1), MukaiVector(1, 1, -5, 1))
    assert "dv_neg" in row.flags
    assert row.chi_main is None and "main_undef" in row.flags


def test_special_branch_rows_flagged():
    row = build_row(MukaiVector(2, 1, 1, 2), MukaiVector(2, 1, -3, 2))
    assert "main_special_dv0" in row.flags
    assert "two_special_dv0" in row.flags
    assert row.chi_main.value == 4 and row.chi_two.value == 1


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
