"""Property tests for the telemetry's JSON form.

The drills compare serialised summaries bitwise across runs, and the
reports write them out.  Both hinge on the laws pinned here with
hypothesis, for :class:`RequestTelemetry`, :class:`MetricsRegistry` and
:class:`EngineResult`:

* ``to_dict`` output survives an actual ``json.dumps``/``loads`` cycle
  unchanged (including ``None`` timestamps and nested lists);
* key order is deterministic, so equal values serialise to equal bytes.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import EngineResult, MetricsRegistry, RequestTelemetry

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)
opt_time = st.none() | st.floats(
    allow_nan=False, allow_infinity=False, min_value=0.0, max_value=1e6
)
counts = st.integers(min_value=0, max_value=1 << 20)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
)


@st.composite
def telemetry_records(draw):
    tm = RequestTelemetry(
        request_id=draw(counts),
        arrival=draw(finite),
        prompt_len=draw(counts),
        executed_len=draw(counts),
        outcome=draw(
            st.sampled_from(
                ("queued", "running", "completed", "rejected", "shed",
                 "deadline_exceeded")
            )
        ),
        first_chunk_start=draw(opt_time),
        first_token=draw(opt_time),
        finish=draw(opt_time),
        chunk_seconds=draw(st.lists(finite, max_size=5)),
        decode_seconds=draw(finite),
        plan_hits=draw(counts),
        plan_misses=draw(counts),
        plan_fallbacks=draw(counts),
        kept_kv_ratios=draw(
            st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5)
        ),
        generated=draw(st.lists(counts, max_size=8)),
        degradation_level=draw(
            st.sampled_from(("sparse", "widened", "dense", "shed"))
        ),
        transitions=draw(
            st.lists(
                st.fixed_dictionaries(
                    {
                        "chunk": counts,
                        "from": names,
                        "to": names,
                        "reason": names,
                    }
                ),
                max_size=3,
            )
        ),
        retries=draw(counts),
        cra_violations=draw(counts),
        faults_injected=draw(counts),
        shared_tokens=draw(counts),
        kv_bytes_peak=draw(counts),
    )
    return tm


@st.composite
def registries(draw):
    reg = MetricsRegistry()
    for name, value in draw(
        st.dictionaries(names, finite, max_size=6)
    ).items():
        reg.inc(name, value)
    for name, values in draw(
        st.dictionaries(names, st.lists(finite, max_size=4), max_size=4)
    ).items():
        for v in values:
            reg.observe(name, v)
    for tm in draw(st.lists(telemetry_records(), max_size=3)):
        reg.requests.append(tm)
    return reg


class TestRequestTelemetryRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(telemetry_records())
    def test_survives_json_and_key_order_is_stable(self, tm):
        d = tm.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(tm)]
        assert d == {f: getattr(tm, f) for f in d}
        assert json.loads(json.dumps(d)) == d
        assert json.dumps(d) == json.dumps(tm.to_dict())


class TestMetricsRegistryRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(registries())
    def test_roundtrip_preserves_counters_series_requests(self, reg):
        d = reg.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["requests"] == [tm.to_dict() for tm in reg.requests]
        for name, value in d["counters"].items():
            assert reg.counter(name) == value

    @settings(max_examples=30, deadline=None)
    @given(registries())
    def test_serialised_keys_sorted(self, reg):
        d = reg.to_dict()
        assert list(d["counters"]) == sorted(d["counters"])
        assert list(d["series"]) == sorted(d["series"])

    @settings(max_examples=30, deadline=None)
    @given(registries(), registries())
    def test_merge_sums_counters_and_concatenates(self, a, b):
        merged = MetricsRegistry()
        merged.merge(a)
        merged.merge(b)
        for name in set(a.to_dict()["counters"]) | set(b.to_dict()["counters"]):
            assert merged.counter(name) == pytest.approx(
                a.counter(name) + b.counter(name)
            )
        assert len(merged.requests) == len(a.requests) + len(b.requests)


class TestEngineResultRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(registries())
    def test_roundtrip_through_json(self, reg):
        res = EngineResult(
            telemetry=reg, method="sample",
            memory={"arena": {"capacity": 4}},
        )
        d = res.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["telemetry"] == reg.to_dict()
        assert d["method"] == "sample"
        assert json.dumps(d) == json.dumps(res.to_dict())
