"""Self-time arithmetic and the tail-percentile rule of the benchmark.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import (  # noqa: E402
    Span,
    Tracer,
    nearest_rank,
    outermost,
    self_times,
    summarize,
    tail_percentile,
    union_length,
)
from layers import unattributed_share  # noqa: E402


def _span(id_, parent, start, end, name="layer"):
    return Span(id_, parent, name, start, end)


# ------------------------------------------------------------- self time
def test_self_time_without_children_is_the_duration():
    assert self_times([_span("a", None, 1.0, 3.5)]) == {"a": 2.5}


def test_nested_children_are_subtracted_once_per_level():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("child", "root", 2.0, 6.0),
        _span("grandchild", "child", 3.0, 4.0),
    ]
    selfs = self_times(spans)
    assert selfs["root"] == pytest.approx(6.0)
    assert selfs["child"] == pytest.approx(3.0)
    assert selfs["grandchild"] == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_count_their_union():
    # Two workers under one parent, busy 1-5 and 3-8: 7s covered, not 9.
    spans = [
        _span("parent", None, 0.0, 10.0),
        _span("w1", "parent", 1.0, 5.0),
        _span("w2", "parent", 3.0, 8.0),
    ]
    assert self_times(spans)["parent"] == pytest.approx(3.0)


def test_children_outside_the_parent_are_clipped():
    # A forked child that outlives the call that started it.
    spans = [
        _span("parent", None, 0.0, 4.0),
        _span("child", "parent", 3.0, 9.0),
    ]
    assert self_times(spans)["parent"] == pytest.approx(3.0)


def test_self_time_is_never_negative():
    spans = [
        _span("parent", None, 0.0, 2.0),
        _span("a", "parent", -1.0, 3.0),
        _span("b", "parent", 0.5, 1.5),
    ]
    assert self_times(spans)["parent"] == 0.0


def test_union_length_merges_touching_and_skips_empty_intervals():
    assert union_length([(0, 1), (1, 2), (5, 5), (4, 6), (4.5, 5.5)]) == 4


def test_outermost_drops_same_layer_reentry_and_excluded_ancestors():
    spans = [
        Span("acq", None, "kernels.setup", 0.0, 2.0),
        Span("ens", "acq", "kernels.setup", 0.5, 1.5),
        Span("lone", None, "kernels.setup", 3.0, 4.0),
        Span("merge", None, "calipack.merge", 5.0, 9.0),
        Span("app1", "merge", "calipack.append", 6.0, 7.0),
        Span("app2", None, "calipack.append", 10.0, 11.0),
    ]
    assert [s.id for s in outermost(spans, "kernels.setup")] == ["acq", "lone"]
    excluded = frozenset({"calipack.merge"})
    assert [s.id for s in outermost(spans, "calipack.append", excluded)] == ["app2"]


def test_unattributed_share_uses_layer_coverage_across_processes():
    spans = [
        Span("op", None, "op.campaign", 0.0, 10.0),
        Span("c1", None, "suite.run_cell", 1.0, 4.0),  # worker 1
        Span("c2", None, "suite.run_cell", 2.0, 6.0),  # worker 2, overlapping
        Span("x", None, "container.campaign", 0.0, 10.0),  # not a layer
    ]
    assert unattributed_share(spans) == pytest.approx(0.5)


# ------------------------------------------------------------ percentile
@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50), (50, 80), (100, 90), (199, 94), (200, 95),
     (1000, 99), (10_000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_rule_leaves_exactly_enough_samples_beyond():
    for n in range(20, 400):
        pct = tail_percentile(n)
        values = sorted(range(n))
        beyond = sum(1 for v in values if v > nearest_rank(values, pct))
        assert beyond >= 10
        # No higher rung of the ladder would still have ten beyond.
        higher = [p for p in (99.99, 99.9, *range(99, 49, -1)) if p > pct]
        for p in higher:
            assert sum(1 for v in values if v > nearest_rank(values, p)) < 10


def test_summarize_reports_median_tail_and_count():
    summary = summarize(float(v) for v in range(1, 101))
    assert summary.n == 100
    assert summary.median == 50.5
    assert summary.tail_pct == 90
    assert summary.tail == 90.0


# ---------------------------------------------------------------- tracer
class _Target:
    def work(self, x):
        return x * 2


def test_tracer_wraps_restores_and_collects(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.wrap(_Target, "work", "layer.work",
                on_call=lambda t, result, args, kwargs: t.count("n", result))
    assert _Target().work(3) == 6
    tracer.active = False
    assert _Target().work(4) == 8  # passes through, records nothing
    tracer.active = True
    tracer.uninstall()
    assert "wrapper" not in _Target.work.__qualname__
    data = tracer.collect()
    assert [s.name for s in data.spans] == ["layer.work"]
    assert data.counters == {"n": 6.0}
