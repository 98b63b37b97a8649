"""Offline hyperparameter profiling (paper Table 1).

Calibrates ``alpha`` / ``r_row`` / ``r_w%`` on a small request set against
the full-attention gold standard, the way the paper fixes its three
hyperparameters per model.

Run:  python examples/profile_hyperparameters.py        (~1 min on one core)
"""

import numpy as np

from repro.core import profile_hyperparameters
from repro.model import build_model
from repro.tasks import make_needle_case

model = build_model("glm-mini")

calibration = [
    make_needle_case(length, depth, rng=np.random.default_rng(i))
    for i, (length, depth) in enumerate(
        [(512, 0.3), (768, 0.7), (1024, 0.5)]
    )
]
report = profile_hyperparameters(
    model,
    calibration,
    alphas=(0.80, 0.95),
    r_rows=(0.02, 0.05),
    r_windows=(0.04, 0.08),
)
print("offline profiling trials (setting, value, score ratio, density):")
for row in report.summary_rows():
    print("  ", row)
print(
    f"\nselected config: alpha={report.config.alpha}, "
    f"r_row={report.config.r_row}, r_window={report.config.r_window}"
)
