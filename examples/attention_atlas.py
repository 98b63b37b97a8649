"""Attention atlas: visualise the window / stripe / sink patterns.

Captures full-attention probabilities from the constructed backbone on a
needle prompt and renders each head of one layer as an ASCII heatmap with
its detected pattern label and oracle sparsity degree -- the textual
analogue of the paper's Figures 2d, 9 and 10.

Run:  python examples/attention_atlas.py             (~30 s on one core)
"""

import numpy as np

from repro.analysis import attention_heatmap, classify_head, dense_probs, oracle_sd
from repro.model import build_model
from repro.tasks import make_needle_case

LAYER = 1

model = build_model("glm-mini")
case = make_needle_case(1024, 0.5, rng=np.random.default_rng(0))
needle_at = case.meta["positions"]["needle"]
print(
    f"prompt: {case.length} tokens, needle planted at position {needle_at} "
    f"(depth {case.meta['depth']:.0%})\n"
)

probs = dense_probs(model, case.prompt)[LAYER]
sd = oracle_sd(probs, alpha=0.95)
for head in range(probs.shape[0]):
    pattern = classify_head(probs[head])
    print(
        f"layer {LAYER} head {head}: label={pattern.label:7s} "
        f"SD(0.95)={sd[head]:.3f}  window-mass={pattern.window:.2f}  "
        f"stripe-mass={pattern.stripe:.2f}  sink-mass={pattern.sink:.2f}"
    )
    print(attention_heatmap(probs, head=head, rows=12, cols=56))
    print()

print(
    "Legend: darker glyphs = more attention mass (log scale). The left\n"
    "column is the BOS sink, vertical lines are column stripes at salient\n"
    "positions (including the needle), and the diagonal band is the local\n"
    "window -- the two patterns SampleAttention's structured mask exploits."
)
