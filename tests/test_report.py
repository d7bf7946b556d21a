"""SolveReport.to_json: one line of compact JSON that reads back to itself.

to_json is json.dumps(to_dict(), sort_keys=True, separators=(",", ":"))
plus a newline, under a lifted int-digit limit; from_json must read that
text back to a report that writes the same bytes.
"""

import sys
from dataclasses import replace

import pytest

from dmdst import Config, SolveReport, gen_instar, run_augmenting_search


def test_reports_are_one_line_and_round_trip(corpus_results):
    """Both solvers' corpus reports, traced and untraced, with and without
    a certificate."""
    results, _ = corpus_results
    reports = [r for s in results for r in (s.local, s.augment)]
    reports += [replace(r, potential_trace=None, layers_trace=None) for r in reports]
    for report in reports:
        text = report.to_json()
        assert text.endswith("\n") and text.count("\n") == 1
        assert SolveReport.from_json(text).to_json() == text
    certified = sum(r.certificate is not None for r in reports)
    assert 0 < certified < len(reports)
    assert {r.algorithm for r in reports} == {"local", "augment"}
    assert any(r.potential_trace or r.layers_trace for r in reports)


def test_report_round_trips_past_the_int_digit_limit():
    """At epsilon 1e-310, c is about 10**310: the traced potential of a
    20-vertex in-star (Delta 19) runs to some 5,900 digits.  Both calls
    restore the limit they lift."""
    g = gen_instar(20)
    report = run_augmenting_search(g, Config.for_graph(g, epsilon=1e-310), trace=True)
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)
    limit = get_limit()
    assert max(row["phi"] for row in report.layers_trace) > 10 ** limit
    text = report.to_json()
    assert get_limit() == limit
    again = SolveReport.from_json(text)
    assert get_limit() == limit
    assert again.layers_trace == report.layers_trace
    assert again.to_json() == text


def test_writer_rejects_unknown_types():
    g = gen_instar(3)
    report = run_augmenting_search(g, Config.for_graph(g))
    with pytest.raises(TypeError):
        replace(report, config={"x": {1, 2}}).to_json()
