"""ProgressTracker behavior: counters, ticker rate-limiting, failure lines.

The tracker is the sweep's only user-facing feedback channel, so its edge
cases matter: a tight cache-hit loop must not flood the terminal, a failing
job must surface its label and error class *immediately* (not after the
sweep), and ``summary()`` must attribute warm-sweep time to ``lookup_s``
instead of reporting a thousand cache hits as free.
"""

from __future__ import annotations

import io

from repro.pipeline.progress import ProgressTracker


def _lines(stream: io.StringIO):
    """Ticker output split into rendered lines (the ticker uses ``\\r``)."""
    return [s.strip() for s in stream.getvalue().replace("\r", "\n").split("\n") if s.strip()]


class TestCounters:
    def test_computed_vs_cached_attribution(self):
        t = ProgressTracker(total=4)
        t.update(from_cache=False, seconds=1.5)
        t.update(from_cache=False, seconds=0.5)
        t.update(from_cache=True, seconds=0.01)
        t.update(from_cache=True, seconds=0.02, ok=False)
        assert (t.done, t.computed, t.cache_hits, t.failures) == (4, 2, 2, 1)
        assert t.compute_seconds == 2.0
        assert abs(t.lookup_seconds - 0.03) < 1e-12
        assert t.hit_rate == 0.5

    def test_summary_fields(self):
        t = ProgressTracker(total=2)
        t.update(from_cache=False, seconds=0.25)
        t.update(from_cache=True, seconds=0.125)
        s = t.summary()
        assert s["total"] == 2 and s["done"] == 2
        assert s["computed"] == 1 and s["cache_hits"] == 1
        assert s["compute_s"] == 0.25
        assert s["lookup_s"] == 0.125
        assert s["failures"] == 0
        assert s["elapsed_s"] >= 0 and s["jobs_per_s"] >= 0
        assert s["hit_rate"] == 0.5

    def test_empty_tracker_summary(self):
        s = ProgressTracker(total=0).summary()
        assert s["done"] == 0 and s["hit_rate"] == 0.0 and s["lookup_s"] == 0.0


class TestTicker:
    def test_rate_limit_suppresses_intermediate_lines(self):
        stream = io.StringIO()
        t = ProgressTracker(total=100, stream=stream, min_interval=3600.0)
        for _ in range(99):
            t.update(from_cache=True, seconds=0.0)
        # 99 sub-interval updates → at most one ticker line.
        assert len(_lines(stream)) <= 1
        t.update(from_cache=True, seconds=0.0)
        # The completing update bypasses the rate limit.
        lines = _lines(stream)
        assert lines[-1].startswith("[100/100]")
        assert len(lines) <= 2

    def test_zero_interval_prints_every_update(self):
        stream = io.StringIO()
        t = ProgressTracker(total=3, stream=stream, min_interval=0.0)
        for _ in range(3):
            t.update(from_cache=False, seconds=0.0)
        assert len(_lines(stream)) == 3

    def test_no_stream_is_silent_noop(self):
        t = ProgressTracker(total=1)  # stream=None
        t.update(from_cache=False, ok=False, label="x")  # must not raise
        assert t.failures == 1

    def test_finish_forces_final_line_and_returns_summary(self):
        stream = io.StringIO()
        t = ProgressTracker(total=5, stream=stream, min_interval=3600.0)
        t.update(from_cache=True)
        t.update(from_cache=True)
        summary = t.finish()
        # elapsed_s/jobs_per_s recompute live; the counter fields are stable.
        for key in ("total", "done", "computed", "cache_hits", "failures",
                    "compute_s", "lookup_s", "hit_rate"):
            assert summary[key] == t.summary()[key]
        # finish() must render even though the interval hasn't elapsed and
        # the sweep is incomplete (the runner calls it on early exit too).
        assert _lines(stream)[-1].startswith("[2/5]")

    def test_ticker_shows_label(self):
        stream = io.StringIO()
        t = ProgressTracker(total=1, stream=stream, min_interval=0.0)
        t.update(from_cache=False, label="opt-6.7b/rtn W4A16")
        assert "opt-6.7b/rtn W4A16" in _lines(stream)[-1]


class TestFailureReporting:
    def test_failure_prints_label_and_error_class_immediately(self):
        stream = io.StringIO()
        # Interval high enough that an ordinary ticker line cannot sneak in.
        t = ProgressTracker(total=100, stream=stream, min_interval=3600.0)
        t.update(from_cache=True)  # consumes the first (always-printed) tick
        t.update(
            from_cache=False, ok=False,
            label="opt-6.7b/rtn W3A16", error_type="ValueError",
        )
        lines = _lines(stream)
        failed = [s for s in lines if s.startswith("FAILED")]
        assert failed == ["FAILED opt-6.7b/rtn W3A16 (ValueError)"]

    def test_failure_without_label_or_type_still_readable(self):
        stream = io.StringIO()
        t = ProgressTracker(total=2, stream=stream, min_interval=3600.0)
        t.update(from_cache=True)
        t.update(from_cache=False, ok=False)
        assert "FAILED <unlabeled job> (Error)" in _lines(stream)

    def test_rate_limited_cache_storm_cannot_hide_failure(self):
        stream = io.StringIO()
        t = ProgressTracker(total=1000, stream=stream, min_interval=3600.0)
        for _ in range(500):
            t.update(from_cache=True)
        t.update(from_cache=False, ok=False, label="bad", error_type="OSError")
        for _ in range(499):
            t.update(from_cache=True)
        lines = _lines(stream)
        assert any(s.startswith("FAILED bad (OSError)") for s in lines)
        # ...while the storm itself stayed rate-limited: first tick, the
        # failure line + its tick is suppressed (sub-interval), final tick.
        assert len(lines) <= 4
