"""SolveReport.to_json against the standard library's writer.

to_json has its own encoder; it must write exactly the bytes of
json.dumps(to_dict(), sort_keys=True, indent=2) + "\\n", on real reports
and on any nested JSON value a report field can hold.
"""

import json
import sys
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from dmdst import Config, gen_instar, run_augmenting_search
from dmdst.report import _any_int_length


def stdlib_text(report) -> str:
    with _any_int_length():
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def test_writer_matches_stdlib_on_corpus_reports(corpus_results):
    """Both solvers' corpus reports, traced and untraced, with and without
    a certificate."""
    results, _ = corpus_results
    reports = [r for s in results for r in (s.local, s.augment)]
    reports += [replace(r, potential_trace=None, layers_trace=None) for r in reports]
    for report in reports:
        assert report.to_json() == stdlib_text(report)
    certified = sum(r.certificate is not None for r in reports)
    assert 0 < certified < len(reports)
    assert {r.algorithm for r in reports} == {"local", "augment"}


def test_writer_matches_stdlib_past_the_int_digit_limit():
    """At epsilon 1e-310, c is about 10**310: the traced potential of a
    20-vertex in-star (Delta 19) runs to some 5,900 digits."""
    g = gen_instar(20)
    report = run_augmenting_search(g, Config.for_graph(g, epsilon=1e-310), trace=True)
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)
    limit = get_limit()
    assert max(row["phi"] for row in report.layers_trace) > 10 ** limit
    assert report.to_json() == stdlib_text(report)
    assert get_limit() == limit


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10 ** 40), 10 ** 40)
    | st.floats()
    | st.text()
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(st.booleans(), max_size=5)
        | st.lists(st.integers(), max_size=5)
        | st.dictionaries(st.text(), inner, max_size=5)
    ),
    max_leaves=30,
)


@given(json_values, st.dictionaries(st.text(), json_values, max_size=4))
def test_writer_matches_stdlib_on_nested_values(trace, config):
    """Empty lists and dicts, lists of bools (which must not be written as
    ints), floats with nan and infinities, None and non-ASCII strings,
    nested in the two report fields that hold free-form values."""
    g = gen_instar(3)
    report = replace(
        run_augmenting_search(g, Config.for_graph(g)), layers_trace=[trace], config=config
    )
    assert report.to_json() == stdlib_text(report)


def test_writer_rejects_non_str_keys_and_unknown_types():
    g = gen_instar(3)
    report = run_augmenting_search(g, Config.for_graph(g))
    with pytest.raises(TypeError):
        replace(report, config={1: 2}).to_json()
    with pytest.raises(TypeError):
        replace(report, config={"x": {1, 2}}).to_json()
