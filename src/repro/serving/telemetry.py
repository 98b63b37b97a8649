"""Request-level and engine-level serving telemetry.

The executing engine produces two kinds of signal the simulator never had:
*per-request* timelines (queue delay, TTFT, chunk latencies, plan-cache
behaviour, kept-KV ratios) and *engine-wide* counters (admissions,
rejections, plan-cache hit rate, dense fallbacks).  Both live here, in a
:class:`MetricsRegistry` that experiments can export as JSON or Markdown --
the serving-side observability the paper's Appendix A.6 engineering
discussion presumes.

Every record is **losslessly JSON-serialisable**: ``to_dict`` emits
:class:`RequestTelemetry`, :class:`MetricsRegistry`, and (via
:meth:`~repro.serving.engine.EngineResult.to_dict`) whole engine results
with stable key ordering -- the form the drills compare bitwise.
:meth:`MetricsRegistry.merge` folds one registry into another -- how the
fleet aggregates per-worker registries into one fleet-wide view.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..audit import contracts
from ..errors import ConfigError

__all__ = ["OUTCOMES", "TERMINAL_OUTCOMES", "RequestTelemetry", "MetricsRegistry"]

OUTCOMES = (
    "queued",
    "running",
    "completed",
    "rejected",
    "shed",
    "deadline_exceeded",
)

#: Outcomes a request can legitimately end a run in; anything else after
#: :meth:`~repro.serving.engine.ServingEngine.run` returns is a wedged
#: request (the chaos invariants treat it as a breach).
TERMINAL_OUTCOMES = ("completed", "rejected", "shed", "deadline_exceeded")


@dataclass
class RequestTelemetry:
    """One request's serving timeline and execution statistics.

    Times are on the engine's virtual clock (seconds).  ``None`` fields mean
    the event has not happened (yet, or ever -- a rejected request has no
    ``first_token``).

    Attributes
    ----------
    request_id, arrival, prompt_len:
        Identity: copied from the originating workload request
        (``prompt_len`` is the workload's *paper-scale* length).
    executed_len:
        Tokens the engine actually prefilled (after ``length_scale``).
    outcome:
        ``queued`` / ``running`` / ``completed`` / ``rejected`` / ``shed``
        / ``deadline_exceeded``.
    first_chunk_start, first_token, finish:
        Timeline anchors; ``first_token`` marks the end of prefill.
    chunk_seconds:
        Per-prefill-chunk latency, in scheduling order.
    decode_seconds:
        Total decode time.
    plan_hits, plan_misses, plan_fallbacks:
        Sparse-plan cache behaviour for this request (fallbacks are
        attention calls that degraded to dense after a plan failed
        validation or the runtime CRA guard).
    kept_kv_ratios:
        Mean kept-KV ratio of each executed sparse plan.
    element_densities:
        Score elements the packed kernel computed for each executed sparse
        plan, as a share of the dense causal count (mean over heads).
    generated:
        Token ids the engine decoded after prefill.
    degradation_level:
        Current rung of the engine's degradation ladder (``"sparse"`` /
        ``"widened"`` / ``"dense"`` / ``"shed"``).
    transitions:
        Ladder transitions, each ``{"chunk", "from", "to", "reason"}`` --
        the audit trail the recovery invariants check.
    retries:
        Prefill-chunk retry attempts consumed by transient failures.
    cra_violations:
        Runtime CRA-guard trips (plan invalid at execution time, reported
        coverage below alpha, or a kernel failure); each one forces a
        dense fallback for that attention call.
    faults_injected:
        Fault-injection events that actually fired on this request.
    shared_tokens:
        Prompt tokens adopted from the prefix-sharing registry instead of
        being prefetched (paged KV backend only; 0 elsewhere).
    kv_bytes_peak:
        Peak resident KV bytes this request's block tables referenced
        (paged backend; shared blocks counted once per referencing table).
    """

    request_id: int
    arrival: float
    prompt_len: int
    executed_len: int = 0
    outcome: str = "queued"
    first_chunk_start: float | None = None
    first_token: float | None = None
    finish: float | None = None
    chunk_seconds: list[float] = field(default_factory=list)
    decode_seconds: float = 0.0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_fallbacks: int = 0
    kept_kv_ratios: list[float] = field(default_factory=list)
    element_densities: list[float] = field(default_factory=list)
    generated: list[int] = field(default_factory=list)
    degradation_level: str = "sparse"
    transitions: list[dict] = field(default_factory=list)
    retries: int = 0
    cra_violations: int = 0
    faults_injected: int = 0
    shared_tokens: int = 0
    kv_bytes_peak: int = 0

    @property
    def ttft(self) -> float | None:
        """Arrival to first token (queueing + executed prefill)."""
        if self.first_token is None:
            return None
        return self.first_token - self.arrival

    @property
    def queue_delay(self) -> float | None:
        """Arrival to the start of the first executed chunk."""
        if self.first_chunk_start is None:
            return None
        return self.first_chunk_start - self.arrival

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_seconds)

    @property
    def mean_kept_kv(self) -> float:
        if not self.kept_kv_ratios:
            return 0.0
        return float(np.mean(self.kept_kv_ratios))

    @property
    def mean_element_density(self) -> float:
        if not self.element_densities:
            return 0.0
        return float(np.mean(self.element_densities))

    def to_dict(self) -> dict:
        """Lossless JSON record: every field, declaration order.

        Unlike :meth:`as_dict` (a rounded reporting view with derived
        columns), this is the serialised form: every field as it is,
        including ``None`` timestamps and the full ``transitions`` audit
        trail.  Keys are emitted in dataclass declaration order, so
        serialised records are byte-stable across processes and runs.
        """
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                value = list(value)
            out[f.name] = value
        return out

    def as_dict(self) -> dict:
        """JSON-friendly flat record."""
        return {
            "request_id": self.request_id,
            "arrival": self.arrival,
            "prompt_len": self.prompt_len,
            "executed_len": self.executed_len,
            "outcome": self.outcome,
            "queue_delay_s": self.queue_delay,
            "ttft_s": self.ttft,
            "finish_s": self.finish,
            "n_chunks": self.n_chunks,
            "decode_seconds": self.decode_seconds,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_fallbacks": self.plan_fallbacks,
            "mean_kept_kv": round(self.mean_kept_kv, 4),
            "mean_element_density": round(self.mean_element_density, 4),
            "n_generated": len(self.generated),
            "degradation_level": self.degradation_level,
            "n_transitions": len(self.transitions),
            "retries": self.retries,
            "cra_violations": self.cra_violations,
            "faults_injected": self.faults_injected,
            "shared_tokens": self.shared_tokens,
            "kv_bytes_peak": self.kv_bytes_peak,
        }


class MetricsRegistry:
    """Engine-wide metrics: counters, observation series, request records.

    ``inc``/``observe`` are the usual two metric primitives (monotone
    counter, value series); request records are first-class because the
    serving experiments report per-request TTFT tables, not just aggregates.
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._series: dict[str, list[float]] = {}
        self.requests: list[RequestTelemetry] = []

    # ------------------------------------------------------------ primitives
    def inc(self, name: str, value: float = 1.0) -> None:
        if contracts.enabled():
            contracts.check_counter_increment(name, value)
        self._counters[name] = self._counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def observe(self, name: str, value: float) -> None:
        self._series.setdefault(name, []).append(float(value))

    def series(self, name: str) -> list[float]:
        return list(self._series.get(name, ()))

    # -------------------------------------------------------------- requests
    def new_request(
        self, request_id: int, arrival: float, prompt_len: int
    ) -> RequestTelemetry:
        tm = RequestTelemetry(
            request_id=request_id, arrival=arrival, prompt_len=prompt_len
        )
        self.requests.append(tm)
        return tm

    def by_outcome(self, outcome: str) -> list[RequestTelemetry]:
        if outcome not in OUTCOMES:
            raise ConfigError(
                f"unknown outcome {outcome!r}; expected one of {OUTCOMES}"
            )
        return [t for t in self.requests if t.outcome == outcome]

    @property
    def completed(self) -> list[RequestTelemetry]:
        return self.by_outcome("completed")

    # --------------------------------------------------------------- summary
    def plan_cache_hit_rate(self) -> float:
        hits = self.counter("plan_cache_hits")
        misses = self.counter("plan_cache_misses")
        total = hits + misses
        return hits / total if total else 0.0

    def summary(self) -> dict:
        """Aggregate view: admission counts, TTFT stats, cache behaviour."""
        done = self.completed
        ttfts = np.asarray([t.ttft for t in done if t.ttft is not None])
        delays = np.asarray(
            [t.queue_delay for t in done if t.queue_delay is not None]
        )
        chunk_s = [s for t in done for s in t.chunk_seconds]
        kept = [t.mean_kept_kv for t in done if t.kept_kv_ratios]
        dens = [t.mean_element_density for t in done if t.element_densities]
        out = {
            "n_requests": len(self.requests),
            "n_completed": len(done),
            "n_rejected": len(self.by_outcome("rejected")),
            "n_shed": len(self.by_outcome("shed")),
            "mean_ttft_s": float(ttfts.mean()) if ttfts.size else 0.0,
            "p50_ttft_s": float(np.percentile(ttfts, 50)) if ttfts.size else 0.0,
            "p95_ttft_s": float(np.percentile(ttfts, 95)) if ttfts.size else 0.0,
            "mean_queue_delay_s": float(delays.mean()) if delays.size else 0.0,
            "makespan_s": float(
                max((t.finish for t in done if t.finish is not None), default=0.0)
            ),
            "mean_chunk_seconds": float(np.mean(chunk_s)) if chunk_s else 0.0,
            "plan_cache_hit_rate": self.plan_cache_hit_rate(),
            "plan_fallbacks": self.counter("plan_fallbacks"),
            "mean_kept_kv_ratio": float(np.mean(kept)) if kept else 0.0,
            "mean_element_density": float(np.mean(dens)) if dens else 0.0,
            # Robustness: deadlines, retries, CRA guard, breaker, ladder.
            "n_deadline_exceeded": len(self.by_outcome("deadline_exceeded")),
            "n_degraded": sum(1 for t in self.requests if t.transitions),
            "chunk_retries": self.counter("chunk_retries"),
            "cra_guard_violations": self.counter("cra_guard_violations"),
            "circuit_breaker_trips": self.counter("circuit_breaker_trips"),
            "breaker_dense_chunks": self.counter("breaker_dense_chunks"),
            "faults_injected": self.counter("faults_injected"),
            # Paged KV memory subsystem (all zero on the contiguous
            # backend, keeping contiguous summaries backward-comparable).
            "prefix_cache_hits": self.counter("prefix_cache_hits"),
            "prefix_tokens_reused": self.counter("prefix_tokens_reused"),
            "arena_exhaustion_events": self.counter("arena_exhaustion_events"),
            "memory_pressure_relief": self.counter("memory_pressure_relief"),
            "memory_breaker_trips": self.counter("memory_breaker_trips"),
            "memory_breaker_rejections": self.counter(
                "memory_breaker_rejections"
            ),
            "memory_sheds": self.counter("memory_sheds"),
        }
        return out

    # ----------------------------------------------------------- round-trip
    def to_dict(self) -> dict:
        """Lossless JSON snapshot with stable key ordering.

        Counters and series are emitted sorted by name; requests keep
        insertion order.
        """
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "series": {
                k: list(self._series[k]) for k in sorted(self._series)
            },
            "requests": [t.to_dict() for t in self.requests],
        }

    def merge(self, other: "MetricsRegistry", *, requests: bool = True) -> None:
        """Fold ``other`` into this registry: counters sum, series extend,
        request records append (skipped with ``requests=False`` -- the
        fleet keeps one authoritative, re-stamped record per request and
        merges only the workers' counter streams)."""
        for name in sorted(other._counters):
            self.inc(name, other._counters[name])
        for name in sorted(other._series):
            self._series.setdefault(name, []).extend(other._series[name])
        if requests:
            self.requests.extend(other.requests)

    # --------------------------------------------------------------- exports
    def to_markdown(self) -> str:
        """Summary block plus a per-request Markdown table."""
        summ = self.summary()
        lines = ["### Serving telemetry", ""]
        lines += [f"- **{k}**: {_fmt(v)}" for k, v in summ.items()]
        if self.requests:
            cols = list(self.requests[0].as_dict())
            lines += ["", "| " + " | ".join(cols) + " |"]
            lines.append("|" + "|".join("---" for _ in cols) + "|")
            for t in self.requests:
                rec = t.as_dict()
                lines.append("| " + " | ".join(_fmt(rec[c]) for c in cols) + " |")
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
