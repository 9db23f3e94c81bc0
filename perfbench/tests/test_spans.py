"""Self-time and tail arithmetic of the span recorder."""

import pytest

from spans import Recorder, Span, patched, self_times, tail


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.x", 1.5, 2.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.y", 5.0, 6.0, 3, 0),
        Span("b.z", 8.5, 9.0, 3, 0),
        Span("other", 20.0, 21.0, None, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 2.5, 1.0, 0.5, 1.0])


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        Span("p", 0.0, 4.0, None, 0),
        Span("c1", -1.0, 2.0, 0, 0),
        Span("c2", 1.0, 3.0, 0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_recorder_nests_spans_and_restores_patches():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    rec = Recorder()
    with patched([(Owner, "work", rec.traced(Owner.work, "work", lambda a, k, r: {"out": r}))]):
        with rec.span("outer"):
            assert Owner.work(1) == 2
    assert Owner.work(1) == 2 and len(rec.spans) == 2
    outer, inner = rec.spans
    assert inner.parent == 0 and outer.parent is None and inner.attrs == {"out": 2}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_tail_reports_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 1001)]
    p50, ptail, pct, n = tail(values)
    assert (p50, ptail, pct, n) == (500.0, 990.0, 99.0, 1000)
    # 100 samples: p90 leaves exactly 10 above it; p95 leaves 5.
    assert tail(values[:100])[1:] == (90.0, 90.0, 100)
    # Too few samples for any tail: falls back to the median.
    assert tail([3.0, 1.0, 2.0]) == (2.0, 2.0, 50.0, 3)
    assert tail([]) == (0.0, 0.0, 0.0, 0)
