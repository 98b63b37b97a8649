"""Attention-backend interface.

The transformer substrate (:mod:`repro.model`) calls attention through this
small protocol so that full attention, SampleAttention and every baseline
are interchangeable *per layer* -- exactly how the paper swaps only the
prefill attention implementation while keeping the decode path dense.

A backend is stateful only for bookkeeping: ``last_stats`` exposes what the
most recent call decided (achieved block density, kept-KV ratios, ...),
which the benchmark harness aggregates across layers.
"""

from __future__ import annotations

import abc

import numpy as np

from .attention.fastpath import fast_block_sparse_attention
from .attention.flash import flash_attention
from .attention.masks import BlockMask
from .config import DEFAULT_CONFIG, SampleAttentionConfig
from .core.providers import make_provider
from .core.sample_attention import sample_attention

__all__ = [
    "AttentionBackend",
    "FullAttentionBackend",
    "SampleAttentionBackend",
    "MaskedAttentionBackend",
]


class AttentionBackend(abc.ABC):
    """Interchangeable prefill attention implementation.

    Subclasses implement :meth:`prefill`; decode-time attention stays dense
    in all methods (the paper keeps an uncompressed KV cache for decoding).
    """

    name: str = "abstract"

    @abc.abstractmethod
    def prefill(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        *,
        scale: float | None = None,
        layer: int = 0,
    ) -> np.ndarray:
        """Compute causal attention output ``(H, S_q, d)`` for one layer."""

    def last_stats(self) -> dict:
        """Bookkeeping for the most recent :meth:`prefill` call."""
        return dict(self._stats)

    def __init__(self) -> None:
        self._stats: dict = {}

    def _record(self, **stats: object) -> None:
        self._stats = stats


class FullAttentionBackend(AttentionBackend):
    """Dense causal attention (:func:`~repro.attention.flash.flash_attention`,
    the packed kernel running an all-rows-dense item)."""

    name = "full"

    def prefill(self, q, k, v, *, scale=None, layer=0):
        out = flash_attention(q, k, v, scale=scale)
        self._record(density=1.0)
        return out


class SampleAttentionBackend(AttentionBackend):
    """The paper's method: adaptive structured sparse prefill attention.

    The backend holds one :class:`~repro.core.providers.PlanProvider`
    instance (``config.provider``) for its lifetime, so stateful providers
    (MInference's offline head profiles) amortise their profiling across
    layers and requests.
    """

    name = "sample_attention"

    def __init__(self, config: SampleAttentionConfig = DEFAULT_CONFIG) -> None:
        super().__init__()
        self.config = config
        self._provider = make_provider(config.provider)

    def prefill(self, q, k, v, *, scale=None, layer=0):
        res = sample_attention(
            q,
            k,
            v,
            self.config,
            scale=scale,
            plan=self._provider.plan(q, k, self.config, scale=scale),
        )
        self._record(
            density=res.kernel.element_density,
            mean_kv_ratio=res.plan.mean_kv_ratio,
            window=res.plan.window,
            n_sampled_rows=int(res.plan.sampled_rows.size),
            plan_summary=res.plan.summary(),
        )
        return res.output


class MaskedAttentionBackend(AttentionBackend):
    """Base class for baselines expressed as a static/block mask policy.

    Subclasses implement :meth:`build_mask`, which may inspect ``q``/``k``
    (content-aware baselines like HyperAttention hash the keys) or ignore
    them (static patterns like BigBird).

    The mask runs through
    :func:`~repro.attention.fast_block_sparse_attention`, whose scratch is
    the calling thread's, so repeated layer calls allocate nothing once
    it is warm.
    """

    name = "masked"

    @abc.abstractmethod
    def build_mask(
        self, q: np.ndarray, k: np.ndarray, *, layer: int = 0
    ) -> BlockMask:
        """Return the block mask to execute for this call."""

    def prefill(self, q, k, v, *, scale=None, layer=0):
        mask = self.build_mask(q, k, layer=layer)
        res = fast_block_sparse_attention(q, k, v, mask, scale=scale)
        self._record(density=res.density)
        return res.output


class ElementMaskedAttentionBackend(AttentionBackend):
    """Base class for baselines whose selection is *token*-granular.

    The gather/scatter kernels of LSH-style methods (HyperAttention,
    Hash-Sparse) reorder tokens so their buckets become contiguous; the
    net effect on the score matrix is an elementwise mask.  We emulate that
    selection exactly on the dense kernel and record the element-level
    causal density as the cost proxy (their theoretical complexity).
    """

    name = "element_masked"

    @abc.abstractmethod
    def build_element_mask(
        self, q: np.ndarray, k: np.ndarray, *, layer: int = 0
    ) -> np.ndarray:
        """Return a boolean ``(H, S_q, S_k)`` mask, ``True`` = attend."""

    def prefill(self, q, k, v, *, scale=None, layer=0):
        from .attention.dense import dense_attention
        from .attention.utils import causal_mask

        mask = self.build_element_mask(q, k, layer=layer)
        res = dense_attention(q, k, v, causal=True, mask=mask, scale=scale)
        s_q, s_k = q.shape[1], k.shape[1]
        reachable = causal_mask(s_q, s_k)
        denom = max(int(reachable.sum()), 1)
        density = float((mask & reachable[None]).sum(axis=(1, 2)).mean() / denom)
        self._record(density=density)
        return res.output
