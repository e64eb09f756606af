"""The JSON renderer and the verify report template against ``json.dumps``.

``json.dumps(value, indent=2)`` is the oracle: every output of the CLI was
rendered by it before, and must stay byte-identical.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetachi import cli, identities
from thetachi.identities import IdentityReport
from thetachi.jsontext import dumps

# characters json.dumps escapes or that stress its ASCII escaping: quotes,
# backslashes, control characters, DEL, non-ASCII (BMP and astral) and
# lone surrogates
_AWKWARD = st.sampled_from([
    '"', "\\", "/", "\x00", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
    "\xe9", "\u2028", "\ufeff", "\U0001f600", "\ud800", "\udbff", "\udc00", "\udfff",
])
_CHARS = st.one_of(
    _AWKWARD,
    st.characters(exclude_categories=()),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
)
texts = st.text(_CHARS, max_size=12)
values = st.recursive(
    st.one_of(texts, st.sampled_from([True, False, None])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=100)
@given(values)
def test_dumps_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], [{}], {"a": []}, [[], {}, [[]]], "", True, False, None,
    {"a": {"b": {"c": ["x", None, True, False]}}},
])
def test_dumps_fixed_forms(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    0, 7, -3, 1.5, float("nan"), Fraction(1, 2), Fraction(4, 1),
    [1], {"a": 2}, {"a": [Fraction(1, 3)]}, [{"x": [0.0]}],
    {1: "a"}, {None: "a"}, {True: "a"}, ("a",), b"a",
])
def test_dumps_refuses_numbers_and_other_types(value):
    with pytest.raises(TypeError):
        dumps(value)


def verify_stdout(reports) -> str:
    """stdout of ``verify`` when its suite gives ``reports``, rendered by
    ``to_json_text`` in blocks of two after an empty block."""
    blocks = [([], 0)] + [
        ([report.to_json_text() for report in reports[i:i + 2]],
         sum(report.passed for report in reports[i:i + 2]))
        for i in range(0, len(reports), 2)
    ]
    out = io.StringIO()
    with mock.patch.object(cli, "report_blocks", lambda *args: blocks), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["verify", "--trials", "1"])
    return out.getvalue()


scalars = st.one_of(st.integers(-10**30, 10**30), st.fractions(), texts)
reports = st.builds(
    IdentityReport,
    identity_id=texts,
    mode=st.one_of(st.sampled_from(["symbolic", "numeric"]), texts),
    instantiation=st.dictionaries(texts, scalars, max_size=5),
    residual=st.one_of(st.sampled_from(["0", 'x "quoted"\nline two', "a\\b\t"]), texts),
    passed=st.booleans(),
    trial=st.one_of(st.none(), st.integers(-5, 10**6)),
)


@given(st.lists(reports, max_size=4))
def test_verify_report_template_matches_json_dumps(drawn):
    assert verify_stdout(drawn) == json.dumps([r.to_json_dict() for r in drawn], indent=2) + "\n"


def test_verify_report_template_fixed_shapes():
    fixed = [
        IdentityReport("fmp", "symbolic", {}, "0", True),
        IdentityReport("fmp", "numeric", {"b": 2, "a": Fraction(-1, 3)}, "0", True, 0),
        IdentityReport("fmtl", "numeric", {"r": 1}, 'c "deg 2"\n-1', False, 17),
        IdentityReport("llp", "numeric", {}, "", False, None),
    ]
    for drawn in ([], fixed[:1], fixed):
        expected = json.dumps([r.to_json_dict() for r in drawn], indent=2) + "\n"
        assert verify_stdout(drawn) == expected
        for report in drawn:
            assert report.to_json_text() == "  " + json.dumps(
                report.to_json_dict(), indent=2).replace("\n", "\n  ")


def as_report_item(report) -> str:
    """``json.dumps`` of the report as an item of a top-level list."""
    return "  " + json.dumps(report.to_json_dict(), indent=2).replace("\n", "\n  ")


@given(identity_id=texts,
       instantiation=st.dictionaries(
           texts, st.one_of(st.integers(-10**30, 10**30), st.fractions()), max_size=5),
       trial=st.integers(0, 10**6))
def test_trial_template_matches_the_report_text(identity_id, instantiation, trial):
    keys = sorted(instantiation)
    template = identities._trial_template(identity_id, keys)
    text = template % (*[instantiation[key] for key in keys], trial)
    report = IdentityReport(identity_id, "numeric", instantiation, "0", True, trial)
    assert text == report.to_json_text()
    assert text == as_report_item(report)


def test_rendered_trials_match_json_dumps_when_some_fail():
    # odd trials leave orthogonality, so their reports take the failing path
    identity = identities.REGISTRY["prop_split2"]
    columns = identity.sample(random.Random(3), 6)
    columns["chip"] = [chip + trial % 2 for trial, chip in enumerate(columns["chip"])]
    run = ("prop_split2", [], columns, identities._residuals(identity, columns, 6))
    reports = identities._run_reports(run)
    texts, passed = identities._report_block(run)
    assert [report.passed for report in reports] == [True, False] * 3
    assert passed == 3
    assert texts == [report.to_json_text() for report in reports]
    assert texts == [as_report_item(report) for report in reports]
    # a run of each trial alone shares no lane code with the column run
    single = [identities.run_identity(
        "prop_split2", {name: column[trial] for name, column in columns.items()},
        "numeric", trial) for trial in range(6)]
    assert texts == [as_report_item(report) for report in single]
    assert '"pass": false' in texts[1] and '"trial": "5"' in texts[5]


def test_verify_with_no_reports_prints_an_empty_list(capsys):
    # assembly_main has no symbolic mode, so zero trials make no report
    assert cli.main(["verify", "--only", "assembly_main", "--trials", "0"]) == 0
    assert capsys.readouterr().out == "[]\n"
