"""Runtime hyperparameter autotuning (paper Appendix A.6, future work).

The paper's limitation section proposes "autotuning of these hyperparameters
during task runtime, enabling SampleAttention to consistently achieve high
accuracy and low latency across diverse sequence lengths".
:class:`AutotunedSampleAttentionBackend` implements that extension: per
request, bisect the largest CRA threshold ``alpha`` whose plan still fits a
caller-supplied *density budget* (maximum accuracy subject to a latency
target, decided at runtime from the request's own sampled statistics).
Tuned alphas are memoised per ``(s_q, s_k)`` shape class in a bounded LRU,
so repeated shapes pay for the bisection once.

The alpha search runs once per shape class on the first layer's q/k
(stage-1 sampling is reused across candidate alphas, so the extra cost is
a handful of stage-2 sorts) and the chosen alpha is applied to every layer
of that request, mirroring how the static configuration is applied.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..backends import AttentionBackend
from ..config import SampleAttentionConfig
from ..core.filtering import select_kv_indices
from ..core.plan import SparsePlan
from ..core.sample_attention import sample_attention
from ..core.sampling import sample_column_scores, sampled_row_indices
from ..errors import ConfigError

__all__ = ["AutotunedSampleAttentionBackend"]


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
            density=res.kernel.element_density,
            mean_kv_ratio=res.plan.mean_kv_ratio,
            tuned_alpha=self._tuned_alpha,
            window=res.plan.window,
        )
        return res.output
