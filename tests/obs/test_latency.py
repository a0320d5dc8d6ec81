"""Property tests for the latency rollups (:mod:`repro.obs.latency`).

The nearest-rank quantile is the number every SLO decision in the
metrics plane hangs off (:class:`repro.obs.metrics.SloMonitor`,
the serve report and its JSON artifact), so its edge cases are pinned as
properties over random samples: membership, rank bounds at ``q`` of
0/1, monotonicity in ``q``, and the skip-don't-crash contract of
:func:`repro.obs.latency.rollup_by` on records with missing keys.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.latency import quantile, rollup_by, summarize_latencies

finite_floats = st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
samples = st.lists(finite_floats, min_size=1, max_size=64)
qs = st.floats(min_value=1e-9, max_value=1.0,
               allow_nan=False, allow_infinity=False)


class TestQuantileProperties:
    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    @given(q=st.floats(allow_nan=True, allow_infinity=True))
    def test_q_outside_unit_interval_raises(self, q):
        if not 0 < q <= 1:
            with pytest.raises(ValueError):
                quantile([1.0], q)

    @given(x=finite_floats, q=qs)
    def test_single_element_is_that_element(self, x, q):
        assert quantile([x], q) == x

    @given(xs=samples, q=qs)
    def test_result_is_a_sample_member(self, xs, q):
        assert quantile(xs, q) in xs

    @given(xs=samples)
    def test_q1_is_max_and_tiny_q_is_min(self, xs):
        assert quantile(xs, 1.0) == max(xs)
        assert quantile(xs, 1e-9) == min(xs)

    @given(xs=samples, q1=qs, q2=qs)
    def test_monotone_in_q(self, xs, q1, q2):
        lo, hi = sorted((q1, q2))
        assert quantile(xs, lo) <= quantile(xs, hi)

    @given(xs=samples, q=qs)
    def test_nearest_rank_definition(self, xs, q):
        ordered = sorted(xs)
        rank = math.ceil(q * len(ordered))
        assert quantile(xs, q) == ordered[rank - 1]

    @given(xs=samples, q=qs)
    def test_invariant_under_permutation(self, xs, q):
        assert quantile(list(reversed(xs)), q) == quantile(xs, q)


class TestRollupProperties:
    @given(lats=st.lists(finite_floats, max_size=32))
    def test_summary_count_matches(self, lats):
        summary = summarize_latencies(lats)
        assert summary["count"] == len(lats)
        if lats:
            assert summary["p50_ms"] <= summary["p99_ms"] \
                <= summary["max_ms"]

    @given(records=st.lists(st.fixed_dictionaries(
        {},
        optional={"endpoint": st.sampled_from(["a", "b"]),
                  "latency_s": finite_floats}),
        max_size=32))
    def test_rollup_skips_incomplete_records(self, records):
        rollups = rollup_by(records, "endpoint")
        complete = [r for r in records
                    if "endpoint" in r and "latency_s" in r]
        assert sum(s["count"] for s in rollups.values()) == len(complete)
        assert set(rollups) == {r["endpoint"] for r in complete}
        assert list(rollups) == sorted(rollups)

    def test_rollup_on_missing_key_is_empty(self):
        records = [{"latency_s": 0.1}, {"tenant": "pro"}]
        assert rollup_by(records, "endpoint") == {}
