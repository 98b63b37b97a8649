"""Quickstart: SampleAttention as a drop-in replacement for dense attention.

Builds structured q/k/v with planted column stripes (the pattern real
long-context attention exhibits), plans the adaptive sparse attention, and
compares its output and cost against the dense gold standard.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import SampleAttentionConfig, sample_attention
from repro.attention import dense_attention

rng = np.random.default_rng(0)
H, S, D = 8, 2048, 64

# Structured inputs: every query shares a direction that two "critical"
# key columns align with -- column stripes, like an attention sink or a
# salient fact in a long prompt.
shared = rng.standard_normal(D).astype(np.float32)
shared /= np.linalg.norm(shared)
q = 0.2 * rng.standard_normal((H, S, D)).astype(np.float32) + 4.0 * shared
k = rng.standard_normal((H, S, D)).astype(np.float32) * 0.15
for col in (137, 1490):
    k[:, col] = 24.0 * shared  # stripe logit ~12 >> ln(S): a true heavy hitter
v = rng.standard_normal((H, S, D)).astype(np.float32)

# --- dense gold standard ---------------------------------------------------
ref = dense_attention(q, k, v).output

# --- SampleAttention (paper defaults: alpha=0.95, 5% sampling, 8% window) --
res = sample_attention(q, k, v, SampleAttentionConfig(alpha=0.95))

err = float(np.abs(res.output - ref).max())
mean_err = float(np.abs(res.output - ref).mean())
print("SampleAttention plan:")
for key, val in res.plan.summary().items():
    print(f"  {key:16s} {val}")
print(f"\nmax |sparse - dense| = {err:.4f}, mean = {mean_err:.6f}  (near-lossless)")
print(
    f"computed {res.kernel.computed_elements.mean():,.0f} score elements/head "
    f"vs {res.kernel.total_causal_elements:,} dense "
    f"({100 * res.kernel.element_density:.1f}% of dense causal cost)"
)

# The planted stripes were discovered adaptively, per head:
found = [
    (137 in res.plan.kv_indices[h]) and (1490 in res.plan.kv_indices[h])
    for h in range(H)
]
print(f"planted stripe columns recovered in {sum(found)}/{H} heads")
