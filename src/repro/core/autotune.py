"""Runtime hyperparameter autotuning (paper Appendix A.6, future work).

The paper's limitation section proposes "autotuning of these hyperparameters
during task runtime, enabling SampleAttention to consistently achieve high
accuracy and low latency across diverse sequence lengths".  This module
implements that extension at two levels:

* :class:`AutotunedSampleAttentionBackend` -- per request, bisect the
  largest CRA threshold ``alpha`` whose plan still fits a caller-supplied
  *density budget* (maximum accuracy subject to a latency target, decided
  at runtime from the request's own sampled statistics).  Tuned alphas are
  memoised per ``(s_q, s_k)`` shape class in a bounded LRU, so repeated
  shapes pay for the bisection once.
* :class:`KernelTuner` -- a *shape-class kernel tuner* for the serving
  engine's packed dispatch path: per (packed-rows bucket, KV-length
  bucket, density bucket, head-group-count bucket) class it picks the
  kernel knobs -- ``block_size`` / ``kernel_mode`` / thread fan-out --
  seeded from BENCH_kernel.json history and refined online from observed
  dispatch timings.  Only the numerics-free knob (thread fan-out) is
  *applied* by the engine mid-run; ``block_size`` and ``kernel_mode`` are
  the tuner's *recommendation* for planners and offline configuration
  (changing them mid-request would change plan geometry / kernel numerics
  and break the packed-vs-per-request parity gate).

The alpha search runs once per shape class on the first layer's q/k
(stage-1 sampling is reused across candidate alphas, so the extra cost is
a handful of stage-2 sorts) and the chosen alpha is applied to every layer
of that request, mirroring how the static configuration is applied.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..backends import AttentionBackend
from ..config import SampleAttentionConfig
from ..core.filtering import select_kv_indices
from ..core.plan import SparsePlan
from ..core.sample_attention import sample_attention
from ..core.sampling import sample_column_scores, sampled_row_indices
from ..errors import ConfigError

__all__ = [
    "AutotunedSampleAttentionBackend",
    "KernelTuner",
    "TunedDispatch",
]


# --------------------------------------------------------------------------
# Shape-class kernel tuner (serving packed-dispatch path)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TunedDispatch:
    """One shape class's kernel-knob decision.

    ``num_threads`` is the knob the serving engine applies to the next
    packed dispatch (numerics-free: thread fan-out only partitions the
    (item, q-block) unit schedule).  ``block_size`` and ``kernel_mode``
    are the class's recommendation for plan construction and the
    per-request fallback path -- reported, not silently applied mid-run.
    ``source`` records where the decision came from: ``"default"`` (no
    history), ``"seed"`` (BENCH_kernel.json), ``"explore"`` (candidate
    being measured), or ``"online"`` (exploit best observed timing).
    """

    block_size: int
    kernel_mode: str
    num_threads: int
    source: str = "default"


class KernelTuner:
    """Plan-aware shape-class tuner over the packed kernel's knobs.

    Classes are coarse buckets -- log2 of packed query rows, log2 of the
    longest KV in the dispatch, density decile, and head-group count --
    so a serving run concentrates its observations onto a handful of
    classes instead of never re-seeing a shape.

    Seeding: when ``bench_path`` names a BENCH_kernel.json (the PR-4
    kernel bench, any schema version), each case's fastest measured
    variant contributes its ``block_size`` (and ``kernel_mode="fast"``
    whenever the fast path beat the reference kernel) to the matching
    KV-length bucket.  Online refinement: every observed dispatch timing
    updates an EMA of seconds-per-packed-row for the thread-count
    candidate it ran under; each class first *explores* every candidate
    once (deterministic round-robin -- no RNG, so seeded serving runs
    stay reproducible), then *exploits* the best EMA.

    Thread candidates are derated to the host: fan-out beyond
    ``os.cpu_count()`` can only lose on a CPU-bound kernel, so candidates
    above it are not offered (on a 1-core host the tuner deterministically
    picks 1 and the packed path stays serial).
    """

    def __init__(
        self,
        *,
        default_block_size: int = 64,
        default_kernel_mode: str = "fast",
        thread_candidates: tuple[int, ...] | None = None,
        bench_path: str | os.PathLike | None = None,
        ema: float = 0.3,
        max_classes: int = 256,
    ) -> None:
        if not 0.0 < ema <= 1.0:
            raise ConfigError(f"ema must be in (0, 1], got {ema}")
        if max_classes < 1:
            raise ConfigError(f"max_classes must be >= 1, got {max_classes}")
        cpus = os.cpu_count() or 1
        if thread_candidates is None:
            thread_candidates = tuple(
                t for t in (1, 2, 4, 8) if t == 1 or t <= cpus
            )
        if not thread_candidates or min(thread_candidates) < 1:
            raise ConfigError(
                f"thread_candidates must be >= 1, got {thread_candidates!r}"
            )
        self.default_block_size = default_block_size
        self.default_kernel_mode = default_kernel_mode
        self.thread_candidates = tuple(thread_candidates)
        self.ema = ema
        self.max_classes = max_classes
        #: class -> {threads: EMA seconds-per-row}; bounded LRU.
        self._observed: OrderedDict[tuple, dict[int, float]] = OrderedDict()
        #: class -> number of explore choices handed out so far.
        self._explored: dict[tuple, int] = {}
        #: KV-length bucket -> (block_size, kernel_mode) seeded from bench.
        self._seeded: dict[int, tuple[int, str]] = {}
        self.observations = 0
        if bench_path is not None:
            self._seed_from_bench(bench_path)

    # -------------------------------------------------------------- seeding
    def _seed_from_bench(self, path: str | os.PathLike) -> None:
        """Best-effort seed from a BENCH_kernel.json; absent or malformed
        history is not an error (the tuner just starts from defaults)."""
        try:
            report = json.loads(Path(path).read_text(encoding="utf-8"))
            cases = report.get("cases", [])
        except (OSError, json.JSONDecodeError, AttributeError):
            return
        best: dict[int, tuple[float, int, str]] = {}
        for case in cases:
            try:
                seconds = case["seconds"]
                fast = float(seconds["fast"])
                ref = float(seconds.get("reference", np.inf))
                bucket = self._len_bucket(int(case["seq_len"]))
                block = int(case.get("block_size", self.default_block_size))
            except (KeyError, TypeError, ValueError):
                continue
            mode = "fast" if fast <= ref else "reference"
            t = min(fast, ref)
            if bucket not in best or t < best[bucket][0]:
                best[bucket] = (t, block, mode)
        for bucket, (_, block, mode) in best.items():
            self._seeded[bucket] = (block, mode)

    # -------------------------------------------------------------- classes
    @staticmethod
    def _len_bucket(n: int) -> int:
        return int(max(n, 1)).bit_length()

    def shape_class(
        self,
        packed_rows: int,
        s_k_max: int,
        density: float,
        head_groups: int,
    ) -> tuple:
        """Bucketed class key for one packed dispatch."""
        return (
            self._len_bucket(packed_rows),
            self._len_bucket(s_k_max),
            min(9, max(0, int(float(density) * 10.0))),
            int(head_groups),
        )

    def choose(self, cls: tuple) -> TunedDispatch:
        """The knob decision for one dispatch of shape class ``cls``."""
        seeded = self._seeded.get(cls[1])
        block, mode = seeded if seeded is not None else (
            self.default_block_size,
            self.default_kernel_mode,
        )
        source = "seed" if seeded is not None else "default"
        cands = self.thread_candidates
        if len(cands) == 1:
            return TunedDispatch(block, mode, cands[0], source)
        n = self._explored.get(cls, 0)
        if n < len(cands):
            # Deterministic exploration: measure each candidate once.
            self._explored[cls] = n + 1
            return TunedDispatch(block, mode, cands[n], "explore")
        timings = self._observed.get(cls, {})
        if not timings:
            return TunedDispatch(block, mode, cands[0], source)
        threads = min(timings.items(), key=lambda kv: (kv[1], kv[0]))[0]
        return TunedDispatch(block, mode, threads, "online")

    def observe(
        self, cls: tuple, threads: int, seconds: float, rows: int
    ) -> None:
        """Fold one observed dispatch timing into the class's EMA."""
        if rows <= 0 or seconds < 0.0:
            return
        per_row = seconds / rows
        timings = self._observed.get(cls)
        if timings is None:
            if len(self._observed) >= self.max_classes:
                self._observed.popitem(last=False)
            timings = {}
            self._observed[cls] = timings
        else:
            self._observed.move_to_end(cls)
        prev = timings.get(threads)
        timings[threads] = (
            per_row if prev is None
            else (1.0 - self.ema) * prev + self.ema * per_row
        )
        self.observations += 1

    def table(self) -> list[dict]:
        """The tuner's shape-class table (docs / bench reporting)."""
        rows = []
        for cls, timings in self._observed.items():
            choice = self.choose(cls)
            rows.append(
                {
                    "class": {
                        "rows_bucket": cls[0],
                        "s_k_bucket": cls[1],
                        "density_decile": cls[2],
                        "head_groups": cls[3],
                    },
                    "block_size": choice.block_size,
                    "kernel_mode": choice.kernel_mode,
                    "num_threads": choice.num_threads,
                    "source": choice.source,
                    "ema_seconds_per_row": {
                        str(t): v for t, v in sorted(timings.items())
                    },
                }
            )
        return rows


class AutotunedSampleAttentionBackend(AttentionBackend):
    """SampleAttention with per-request alpha autotuning.

    Parameters
    ----------
    density_budget:
        Target maximum element density (fraction of dense causal cost) per
        layer.  The backend picks the largest ``alpha`` (within
        ``[alpha_min, alpha_max]``) whose plan respects the budget; if even
        ``alpha_min`` exceeds it (e.g. the window alone is bigger), the
        plan at ``alpha_min`` is used -- accuracy is never sacrificed below
        the floor to chase an impossible budget.
    base_config:
        Non-alpha knobs (sampling ratio, window, kernel settings).
    tolerance:
        Bisection resolution on alpha.
    memo_size:
        Bounded LRU over tuned alphas keyed by the ``(s_q, s_k)`` shape
        class (``base_config`` is fixed per backend instance, so shape is
        the class).  A repeated shape reuses the first request's tuned
        alpha instead of re-running the full bisection at layer 0 of
        every request; ``0`` disables memoisation (every request
        re-tunes on its own sampled statistics).
    """

    name = "sample_attention_autotuned"

    def __init__(
        self,
        density_budget: float = 0.35,
        *,
        alpha_min: float = 0.5,
        alpha_max: float = 0.99,
        base_config: SampleAttentionConfig | None = None,
        tolerance: float = 0.005,
        memo_size: int = 16,
    ) -> None:
        super().__init__()
        if not 0.0 < density_budget <= 1.0:
            raise ConfigError(
                f"density_budget must be in (0, 1], got {density_budget}"
            )
        if not 0.0 < alpha_min <= alpha_max <= 1.0:
            raise ConfigError(
                f"need 0 < alpha_min <= alpha_max <= 1, got "
                f"{alpha_min}, {alpha_max}"
            )
        if memo_size < 0:
            raise ConfigError(f"memo_size must be >= 0, got {memo_size}")
        self.density_budget = density_budget
        self.alpha_min = alpha_min
        self.alpha_max = alpha_max
        self.base_config = base_config or SampleAttentionConfig()
        self.tolerance = tolerance
        self.memo_size = memo_size
        self._memo: OrderedDict[tuple[int, int], float] = OrderedDict()
        self.tune_calls = 0  # full bisections actually run (memo misses)
        self._tuned_alpha: float | None = None
        self._tuned_for_sk: int | None = None

    # ----------------------------------------------------------- autotune
    def _plan_density(
        self, column_scores: np.ndarray, alpha: float, s_q: int, s_k: int, rows
    ) -> float:
        selection = select_kv_indices(
            column_scores, alpha, min_keep=self.base_config.min_keep
        )
        cfg = self.base_config.replace(alpha=alpha)
        plan = SparsePlan(
            kv_indices=selection.kv_indices,
            window=max(cfg.window_size(s_k), 1),
            kv_ratio=selection.kv_ratio,
            achieved_share=selection.achieved_share,
            sampled_rows=rows,
            config=cfg,
            s_q=s_q,
            s_k=s_k,
        )
        return plan.element_density()

    def tune(self, q: np.ndarray, k: np.ndarray, *, scale=None) -> float:
        """Bisect the largest alpha whose plan fits the density budget."""
        self.tune_calls += 1
        s_q, s_k = q.shape[1], k.shape[1]
        rows = sampled_row_indices(
            s_q, self.base_config.r_row, from_end=self.base_config.sample_from_end
        )
        stats = sample_column_scores(q, k, rows, scale=scale)
        cols = stats.column_scores

        if self._plan_density(cols, self.alpha_max, s_q, s_k, rows) <= self.density_budget:
            return self.alpha_max
        if self._plan_density(cols, self.alpha_min, s_q, s_k, rows) > self.density_budget:
            return self.alpha_min  # budget unreachable: keep the floor

        lo, hi = self.alpha_min, self.alpha_max
        while hi - lo > self.tolerance:
            mid = 0.5 * (lo + hi)
            if self._plan_density(cols, mid, s_q, s_k, rows) <= self.density_budget:
                lo = mid
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------ prefill
    def _tuned_alpha_for(self, q, k, scale) -> float:
        """Tuned alpha for this shape class: bounded-LRU memo around
        :meth:`tune`, so an identical ``(s_q, s_k)`` (the class, given
        this backend's fixed ``base_config``) bisects once."""
        if self.memo_size == 0:
            return self.tune(q, k, scale=scale)
        key = (int(q.shape[1]), int(k.shape[1]))
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            return hit
        alpha = self.tune(q, k, scale=scale)
        self._memo[key] = alpha
        if len(self._memo) > self.memo_size:
            self._memo.popitem(last=False)
        return alpha

    def prefill(self, q, k, v, *, scale=None, layer=0):
        # Re-tune when a new request (different length) arrives or at the
        # first layer of each request (memoised per shape class).
        if layer == 0 or self._tuned_for_sk != k.shape[1]:
            self._tuned_alpha = self._tuned_alpha_for(q, k, scale)
            self._tuned_for_sk = k.shape[1]
        cfg = self.base_config.replace(alpha=self._tuned_alpha)
        res = sample_attention(q, k, v, cfg, scale=scale)
        self._record(
            density=res.kernel.density,
            mean_kv_ratio=res.plan.mean_kv_ratio,
            tuned_alpha=self._tuned_alpha,
            window=res.plan.window,
        )
        return res.output
