"""Experiment definitions: one declaration per table/figure of the paper.

Each exhibit is a declaration over one of three shared measures: accuracy
(models x methods or settings x one case family, scored once in a
:class:`RunTable`), the cost model (lengths x columns, each a function of
:class:`~repro.perf.LatencyModel`), or analysis (each layer's q/k/v
and dense probabilities from one prefill, :func:`~repro.analysis.layer_qkv`,
on needle prompts from :func:`_needle`).  ``scale="quick"`` uses CPU-friendly
sizes (DESIGN.md's ~1/16 length scale); ``scale="full"`` the paper's grids
where feasible.
The CLI and the benchmark suite go through :func:`run_experiments`.
"""

from __future__ import annotations

import functools
import itertools
import time

import numpy as np

from ..analysis import (
    attention_heatmap,
    classify_head,
    cra,
    dense_probs,
    kv_retention_frequency,
    layer_probs,
    layer_qkv,
    model_sparsity_sweep_multi,
    oracle_sd,
    stripe_mask_from_indices,
    topk_stripe_cra,
)
from ..attention import flash_attention
from ..config import SampleAttentionConfig
from ..core import (
    plan_sample_attention,
    sample_attention,
    sample_column_scores,
    sampled_row_indices,
)
from ..errors import ConfigError
from ..model import build_model
from ..perf import CHATGLM2_6B, LatencyModel
from ..serving import ServingEngine, ServingSimulator, poisson_workload
from ..tasks import (
    BABILONG_TASKS,
    LONGBENCH_CATEGORIES,
    babilong_suite,
    evaluate_case,
    longbench_suite,
    make_babilong_case,
    make_needle_case,
    needle_grid,
)
from .drills import run_chaos, run_fleet, run_memory
from .methods import PROVIDER_METHODS, make_backend
from .scale import FULL, QUICK, ExperimentScale, resolve_scale
from .tables import Table

__all__ = [
    "ExperimentScale",
    "QUICK",
    "FULL",
    "EXPERIMENTS",
    "RunTable",
    "run_experiment",
    "run_experiments",
]


# ===========================================================================
# Accuracy: one run table of per-case scores
# ===========================================================================


class RunTable:
    """Every accuracy score of one harness run, plus the models it built
    and the oracle SD sweeps it measured.

    A key is ``(model, method, settings, ordered case ids)``: one fresh
    backend run over one case sequence.  The order is part of the key
    because a backend may carry state from case to case (MInference
    memoises its head profiles), so a score is only ever reused for the
    same computation: a sequence that is a prefix of a stored run is sliced
    from it, and one that extends a stored run continues its backend.
    """

    def __init__(self, seed: int):
        self.seed = seed
        #: model name -> the one model built for it in this run
        self.model = functools.cache(build_model)
        #: key without the case ids -> [(backend, case ids, scores)]
        self._runs: dict[tuple, list[tuple]] = {}
        #: (model name, length) -> alpha -> oracle SD sweep
        self._sweeps: dict[tuple, dict] = {}

    def sparsity(self, model: str, length: int) -> dict:
        """Oracle SD sweeps at ``_SD_ALPHAS`` of ``model`` on this run's
        needle prompt of ``length``: one dense probability capture, read by
        Figure 2 (alpha 0.95) and Table 5 (all three)."""
        key = (model, int(length))
        if key not in self._sweeps:
            self._sweeps[key] = model_sparsity_sweep_multi(
                self.model(model), _needle(length, self.seed).prompt, _SD_ALPHAS
            )
        return self._sweeps[key]

    def scores(self, model: str, method: str, groups, **settings) -> list[list[float]]:
        """Scores of ``method`` on ``model`` over the concatenated case
        ``groups``, one list per group."""
        cases = [c for g in groups for c in g]
        ids = [(c.prompt.tobytes(), c.answer) for c in cases]
        runs = self._runs.setdefault((model, method, tuple(sorted(settings.items()))), [])
        run = next((r for r in runs if r[1][: len(ids)] == ids[: len(r[1])]), None)
        if run is None:
            run = (make_backend(method, seed=self.seed, **settings), [], [])
            runs.append(run)
        backend, done, scores = run
        for case, case_id in zip(cases[len(done) :], ids[len(done) :]):
            scores.append(evaluate_case(self.model(model), backend, case).score)
            done.append(case_id)
        ends = itertools.accumulate(map(len, groups))
        return [scores[end - len(g) : end] for g, end in zip(groups, ends)]


def _mean(scores) -> float:
    return float(np.mean(scores))


def _category_means(cases, scores) -> dict[str, float]:
    by_cat: dict[str, list[float]] = {}
    for case, score in zip(cases, scores):
        by_cat.setdefault(case.category, []).append(score)
    return {c: _mean(s) for c, s in by_cat.items()}


#: The alphas of Table 5's SD columns; Figure 2 reads the 0.95 one.
_SD_ALPHAS = (0.90, 0.95, 0.98)


def _needle(length, rng_seed, depth=0.5):
    return make_needle_case(
        int(length), float(depth), rng=np.random.default_rng(rng_seed)
    )


def _suites(sc: ExperimentScale, seed: int):
    """The LongBench and BABILong analogue suites (Tables 2/3, providers)."""
    return [
        longbench_suite(list(sc.longbench_lengths), sc.cases_per_category, seed=seed),
        babilong_suite(list(sc.babilong_lengths), sc.cases_per_task, seed=seed + 1),
    ]


def _needle_sweep(sc: ExperimentScale, seed: int):
    """Figures 4/8: one group of ``n_depths`` depths per needle length."""
    depths = np.linspace(0.0, 1.0, sc.n_depths)
    return [
        [_needle(s, (seed, int(s), j), d) for j, d in enumerate(depths)]
        for s in sc.needle_lengths
    ]


def _suite_table(title, methods, notes, sc, runs) -> Table:
    """Table 2's layout: LongBench category means, their sum, BABILong."""
    lb, bl = _suites(sc, runs.seed)
    t = Table(
        title,
        ["model", "method", *LONGBENCH_CATEGORIES, "LB_total", "BABILong"],
        notes=notes,
    )
    for model in sc.models:
        for method in methods:
            lb_scores, bl_scores = runs.scores(model, method, [lb, bl])
            cats = _category_means(lb, lb_scores)
            t.add_row(
                model,
                method,
                *[round(cats.get(c, 0.0), 1) for c in LONGBENCH_CATEGORIES],
                round(float(sum(cats.values())), 1),
                round(_mean(bl_scores), 1),
            )
    return t


def _methods_table(title, label_headers, labels, groups, model, methods, runs):
    """Figures 7/8: one row per case group, one column per method's mean."""
    cols = [runs.scores(model, m, groups) for m in methods]
    t = Table(title, [*label_headers, *methods])
    for i, label in enumerate(labels):
        t.add_row(*label, *[round(_mean(col[i]), 1) for col in cols])
    return t


_DETAIL_METHODS = ("full", "sample_attention", "bigbird", "streaming_llm")


def run_table2(sc, runs) -> list[Table]:
    """Accuracy comparison across methods, models and suites (Table 2)."""
    return [
        _suite_table(
            "Table 2: accuracy across sparse methods (LongBench + BABILong analogues)",
            sc.methods,
            "scores are 0-100 per category (LB_total sums six categories, "
            "max 600); paper shape: sample_attention ~= full > bigbird > "
            "streaming/hyper/hash",
            sc,
            runs,
        )
    ]


def run_providers(sc, runs) -> list[Table]:
    """Plan-provider zoo: the SampleAttention pipeline under each pattern
    planner (Table-2-style accuracy per task category plus the plan
    footprint each provider selects)."""
    accuracy = _suite_table(
        "Plan providers: accuracy per task category (LongBench + BABILong)",
        ("full", *PROVIDER_METHODS),
        "same backend/kernels for every row; only the planner differs "
        "(sample_attention = two-stage SampleAttention, "
        "sample_minference = static per-head patterns, sample_vslash = "
        "difference-aware vertical-slash); 'full' is the dense anchor",
        sc,
        runs,
    )
    footprint = Table(
        "Plan providers: selected footprint on a seeded random prefill",
        ["method", "seq_len", "density", "mean_kv_ratio", "window", "rows"],
        notes=(
            "density = fraction of dense-causal score elements the plan "
            "executes; mean_kv_ratio = mean per-head stripe kept-ratio"
        ),
    )
    rng = np.random.default_rng(runs.seed)
    s = int(max(sc.sparsity_lengths))
    q, k, v = (rng.standard_normal((2, s, 16), dtype=np.float32) for _ in range(3))
    for method in PROVIDER_METHODS:
        backend = make_backend(method, seed=runs.seed)
        backend.prefill(q, k, v)
        st = backend.last_stats()
        footprint.add_row(
            method,
            s,
            round(float(st["density"]), 4),
            round(float(st["mean_kv_ratio"]), 4),
            int(st["window"]),
            int(st["n_sampled_rows"]),
        )
    return [accuracy, footprint]


#: Table 3's rows: one knob varied at a time from make_backend's defaults.
#: The three default rows name no setting, so they share one run.
_ABLATION = (
    ("full", {}),
    ("alpha=0.80", {"alpha": 0.80}),
    ("alpha=0.90", {"alpha": 0.90}),
    ("alpha=0.95", {}),
    ("alpha=0.98", {"alpha": 0.98}),
    ("r_w=4%", {"r_window": 0.04}),
    ("r_w=8%", {}),
    ("r_row=2%", {"r_row": 0.02}),
    ("r_row=5%", {}),
    ("r_row=10%", {"r_row": 0.10}),
)


def run_table3(sc, runs) -> list[Table]:
    """Hyperparameter ablation on glm-mini (Table 3)."""
    lb, bl = _suites(sc, runs.seed)
    nd = needle_grid(
        list(sc.needle_lengths), max(sc.n_depths // 2, 3), seed=runs.seed + 2
    )
    t = Table(
        "Table 3: SampleAttention hyperparameter ablation (glm-mini)",
        ["setting", "LongBench_total", "BABILong", "Needle"],
        notes="defaults alpha=0.95, r_w=8%, r_row=5%; one knob varied at a time",
    )
    for label, kw in _ABLATION:
        method = "full" if label == "full" else "sample_attention"
        lb_s, bl_s, nd_s = runs.scores(sc.models[0], method, [lb, bl, nd], **kw)
        lb_total = float(sum(_category_means(lb, lb_s).values()))
        t.add_row(label, round(lb_total, 1), round(_mean(bl_s), 1), round(_mean(nd_s), 1))
    return [t]


def run_fig4(sc, runs) -> list[Table]:
    """Needle-in-a-Haystack scores per method, length and depth (Figure 4)."""
    depths = np.linspace(0.0, 1.0, sc.n_depths)
    t = Table(
        f"Figure 4: needle retrieval scores ({sc.models[0]})",
        ["method", "seq_len", *[f"d{d:.2f}" for d in depths], "mean"],
        notes="cell = score at (length, depth); paper: sample ~= full, "
        "streaming fails deep needles, bigbird partial",
    )
    sweep = _needle_sweep(sc, runs.seed)
    for method in sc.methods:
        for s, scores in zip(sc.needle_lengths, runs.scores(sc.models[0], method, sweep)):
            t.add_row(method, int(s), *[round(v) for v in scores], round(_mean(scores), 1))
    return [t]


def run_fig7(sc, runs) -> list[Table]:
    """BABILong per-task, per-length detail for both models (Figure 7)."""
    labels = [(task, int(s)) for task in BABILONG_TASKS for s in sc.babilong_lengths]
    groups = [
        [
            make_babilong_case(task, s, rng=np.random.default_rng((runs.seed, s, i)))
            for i in range(max(sc.cases_per_task // 2, 2))
        ]
        for task, s in labels
    ]
    return [
        _methods_table(
            f"Figure 7: BABILong detail ({model})",
            ["task", "seq_len"], labels, groups, model, _DETAIL_METHODS, runs,
        )
        for model in sc.models
    ]


def run_fig8(sc, runs) -> list[Table]:
    """Needle per-length detail for both models (Figure 8): the mean of
    Figure 4's depth sweep."""
    labels = [(int(s),) for s in sc.needle_lengths]
    sweep = _needle_sweep(sc, runs.seed)
    return [
        _methods_table(
            f"Figure 8: needle scores vs length ({model})",
            ["seq_len"], labels, sweep, model, _DETAIL_METHODS, runs,
        )
        for model in sc.models
    ]


# ===========================================================================
# Cost model: columns as functions of LatencyModel
# ===========================================================================


def _cost_table(title, lengths, columns, notes, tensor_parallel=1) -> Table:
    """One row per length; ``columns`` maps a header to ``f(model, s)``."""
    model = LatencyModel(CHATGLM2_6B, tensor_parallel=tensor_parallel)
    t = Table(title, ["seq_len", *columns], notes=notes)
    for s in lengths:
        t.add_row(s, *[col(model, s) for col in columns.values()])
    return t


def _attn_s(method, alpha=0.95):
    return lambda m, s: round(m.attention_latency(s, method, alpha=alpha).seconds, 3)


def _ttft_speedup(alpha):
    return lambda m, s: round(m.ttft_speedup_vs_flash(s, alpha=alpha), 2)


_UP_TO_96K = (8192, 16384, 32768, 65536, 98304)
_ATTN_S = {
    "flash_attn_s": _attn_s("flash"),
    "sample95_attn_s": _attn_s("sample", 0.95),
    "sample80_attn_s": _attn_s("sample", 0.80),
}
_TTFT_SPEEDUPS = {
    "ttft_speedup_a0.95": _ttft_speedup(0.95),
    "ttft_speedup_a0.80": _ttft_speedup(0.80),
}


def run_fig1(sc, runs) -> list[Table]:
    """Overview: attention's share of TTFT and SampleAttention's speedup."""
    return [
        _cost_table(
            "Figure 1: attention share of TTFT and SampleAttention speedup "
            "(A100 cost model, ChatGLM2-6B)",
            (8192, 32768, 98304, 262144, 1048576),
            {
                "attn_share_%": lambda m, s: round(100 * m.attention_share(s), 1),
                "speedup_a0.95": lambda m, s: round(m.speedup_vs_flash(s, alpha=0.95), 2),
                "speedup_a0.80": lambda m, s: round(m.speedup_vs_flash(s, alpha=0.80), 2),
            },
            "speedups are attention-stack vs FlashAttention2",
        )
    ]


def run_fig6(sc, runs) -> list[Table]:
    """Attention latency and TTFT scaling from 8K to 1M (cost model)."""
    return [
        _cost_table(
            "Figure 6: latency scaling 8K-1M (A100 cost model)",
            (8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576),
            {
                **_ATTN_S,
                "flash_ttft_s": lambda m, s: round(m.ttft(s, "flash"), 3),
                **_TTFT_SPEEDUPS,
            },
            "paper reports 2.27x / 4.62x TTFT reduction at 1M",
        )
    ]


def run_table4(sc, runs) -> list[Table]:
    """Prefill TTFT breakdown (paper Appendix Table 4; TP=4 serving)."""
    return [
        _cost_table(
            "Table 4: prefill latency breakdown, ChatGLM2-6B, TP=4 (cost model)",
            (32768, 65536, 131072, 262144, 524288, 1048576),
            {
                "ttft_ms": lambda m, s: round(m.ttft(s, "flash") * 1e3, 1),
                "full_attention_ms": lambda m, s: round(
                    m.attention_latency(s, "flash").seconds * 1e3, 1
                ),
                "percent": lambda m, s: round(100 * m.attention_share(s), 1),
            },
            "paper: 1273ms/32% at 32K rising to 87.7% at 1M",
            tensor_parallel=4,
        )
    ]


def run_fig5(sc, runs) -> list[Table]:
    """Attention latency, sampling share, and TTFT, 8K-96K (cost model),
    plus measured substrate wall-clock at CPU scale."""
    latency = _cost_table(
        "Figure 5a/5c: attention latency and TTFT, 8K-96K (A100 cost model)",
        _UP_TO_96K,
        {"sdpa_attn_s": _attn_s("sdpa"), **_ATTN_S, **_TTFT_SPEEDUPS},
        "paper: 2.20x/5.12x attention and 1.62x/2.28x TTFT at 96K",
    )
    sampling = _cost_table(
        "Figure 5b: sampling share of SampleAttention time (cost model)",
        _UP_TO_96K,
        {
            "sampling_fraction": lambda m, s: round(
                m.attention_latency(s, "sample").sampling_fraction, 3
            )
        },
        "decreases with length, as in the paper",
    )
    measured = Table(
        "Figure 5 (measured): substrate kernel wall-clock (CPU, NumPy)",
        ["seq_len", "flash_s", "sample95_s", "plan_density"],
        notes="absolute times are CPU-bound; ratios track achieved density",
    )
    mdl = runs.model(sc.models[0])
    for s in sc.sparsity_lengths:
        prompt = _needle(s, runs.seed).prompt
        q, k, v, _ = layer_qkv(mdl, prompt)[1]
        t0 = time.perf_counter()
        flash_attention(q, k, v)
        t_flash = time.perf_counter() - t0
        t0 = time.perf_counter()
        res = sample_attention(q, k, v, SampleAttentionConfig(alpha=0.95))
        t_sample = time.perf_counter() - t0
        measured.add_row(
            int(s), round(t_flash, 3), round(t_sample, 3), round(res.kernel.element_density, 3)
        )
    return [latency, sampling, measured]


# ===========================================================================
# Analysis: dense attention probabilities on needle prompts
# ===========================================================================


_STRIPE_RATIOS = (0.025, 0.05, 0.1, 0.2, 0.4, 0.8)


def run_fig2(sc, runs) -> list[Table]:
    """Sparsity foundations (Figure 2a-2e): oracle SD per layer, length and
    head, head pattern labels, and the CRA top-k column stripes reach."""
    seed, lengths = runs.seed, sc.sparsity_lengths
    sweeps = {
        (name, s): runs.sparsity(name, s)[0.95] for name in sc.models for s in lengths
    }

    t2a = Table(
        "Figure 2a: SD(alpha=0.95) per layer",
        ["model", "seq_len"] + [f"layer{i}" for i in range(4)],
    )
    t2b = Table(
        "Figure 2b: SD(alpha=0.95) vs sequence length (needle task)",
        ["model", "seq_len", "mean_SD"],
        notes="sparsity increases with context length",
    )
    t2c = Table(
        "Figure 2c: per-head SD disparity at the longest length",
        ["model", "layer", "min_head_SD", "mean_SD", "max_head_SD"],
        notes="paper: one head as low as 27.4% while others reach 99.8%",
    )
    for name in sc.models:
        for s in lengths[:2]:
            t2a.add_row(name, int(s), *[round(float(v), 3) for v in sweeps[name, s].per_layer])
        for s in lengths:
            t2b.add_row(name, int(s), round(sweeps[name, s].mean, 4))
    for name in sc.models:
        for layer, row in enumerate(sweeps[name, lengths[-1]].per_head):
            t2c.add_row(name, layer, *[round(float(v), 3) for v in (row.min(), row.mean(), row.max())])

    # 2d/2e on the first model only: head labels under two contexts, and
    # the CRA the top-k column stripes reach.
    name = sc.models[0]
    mdl = runs.model(name)
    t2d = Table(
        "Figure 2d: head pattern labels under two contexts (layer 1)",
        ["model", "context", *[f"h{i}" for i in range(8)]],
        notes="window/stripe/sink structure is content-dependent",
    )
    for ctx_seed, depth in ((seed, 0.3), (seed + 17, 0.8)):
        probs = dense_probs(mdl, _needle(lengths[0], ctx_seed, depth).prompt)
        t2d.add_row(name, f"ctx{ctx_seed}", *[classify_head(probs[1][h]).label for h in range(8)])
    t2e = Table(
        "Figure 2e: CRA achieved by top-k column stripes (mean over heads)",
        ["model", "ratio", "mean_CRA"],
        notes="a few critical stripes cover most of the score mass",
    )
    prompt = _needle(lengths[0], seed).prompt
    cra_vals = topk_stripe_cra(
        dense_probs(mdl, prompt)[1], _STRIPE_RATIOS, window=max(1, int(0.08 * prompt.size))
    )
    for r, v in zip(_STRIPE_RATIOS, cra_vals.mean(axis=0)):
        t2e.add_row(name, r, round(float(v), 4))
    return [t2a, t2b, t2c, t2d, t2e]


def run_table5(sc, runs) -> list[Table]:
    """SD at several alphas vs sequence length (paper Appendix Table 5)."""
    t = Table(
        "Table 5: average SD vs sequence length (glm-mini, needle task)",
        ["seq_len", "SD_a0.90", "SD_a0.95", "SD_a0.98"],
        notes="paper (ChatGLM2-6B): 91.3/88.0/79.2% at 4K rising with length",
    )
    for s in sc.sparsity_lengths:
        sweeps = runs.sparsity(sc.models[0], s)
        t.add_row(int(s), *[round(100 * sweeps[a].mean, 2) for a in _SD_ALPHAS])
    return [t]


def run_table6(sc, runs) -> list[Table]:
    """Sampling effectiveness: CRA from 5% sampled scores vs full scores
    (paper Appendix Table 6)."""
    mdl = runs.model(sc.models[0])
    s = int(sc.sparsity_lengths[-1])
    prompt = _needle(s, runs.seed).prompt
    t = Table(
        "Table 6: CRA of top-k stripes, full vs 5%-sampled column scores",
        ["layer_head", "ratio", "CRA_full_sampling", "CRA_5pct_sampling"],
        notes="5% sampling closely tracks the full-score selection",
    )
    qkv = layer_qkv(mdl, prompt)
    probs_per_layer = [layer_probs(*entry) for entry in qkv[:2]]
    w = max(1, int(0.08 * s))
    # A deliberately dense head (paper's Layer0-Head0 analogue: slow CRA
    # growth), a mixed stripe+local head, and a pure stripe head (fast
    # saturation).  glm-mini layer 0: head 5 = uniform; layer 1: head 5 =
    # salience_local, head 4 = salience.
    for layer_idx, head in ((0, 5), (1, 5), (1, 4)):
        q, k, _, scale = qkv[layer_idx]
        probs = probs_per_layer[layer_idx][head]
        sampled = sample_column_scores(
            q, k, sampled_row_indices(s, 0.05), scale=scale
        ).column_scores[head]
        order = np.argsort(-sampled, kind="stable")
        c_full = topk_stripe_cra(probs, _STRIPE_RATIOS, window=w)[0]
        for r, full in zip(_STRIPE_RATIOS, c_full):
            mask = stripe_mask_from_indices(s, s, order[: int(np.ceil(r * s))], window=w)
            t.add_row(
                f"L{layer_idx}-H{head}",
                r,
                round(float(full), 4),
                round(float(cra(probs, mask)[0]), 4),
            )
    return [t]


def run_fig9(sc, runs) -> list[Table]:
    """ASCII attention heatmaps across layers (Figures 9/10 analogue)."""
    mdl = runs.model(sc.models[0])
    probs = dense_probs(mdl, _needle(sc.sparsity_lengths[1], runs.seed).prompt)
    tables = []
    for layer in range(mdl.config.n_layers):
        for head in (0, 4, 6):
            t = Table(
                f"Figure 9: layer {layer} head {head} "
                f"({classify_head(probs[layer][head]).label})",
                ["heatmap"],
                notes="log-scaled attention density; left column = sink, "
                "verticals = stripes, diagonal = local window",
            )
            for line in attention_heatmap(probs[layer], head=head, rows=20, cols=48).splitlines():
                t.add_row(line)
            tables.append(t)
    return tables


def run_fig11(sc, runs) -> list[Table]:
    """Retained-KV frequency along the key axis for a dense vs a sparse
    head (Figure 11 analogue)."""
    mdl = runs.model(sc.models[0])
    s = int(sc.sparsity_lengths[1])
    probs = dense_probs(mdl, _needle(s, runs.seed).prompt)[1]
    # The layer-1 heads with the lowest and the highest oracle SD.
    sd = oracle_sd(probs, 0.95)
    dense_head, sparse_head = int(np.argmin(sd)), int(np.argmax(sd))
    freq = kv_retention_frequency(probs[[dense_head, sparse_head]], alpha=0.95)
    t = Table(
        f"Figure 11: retained-KV frequency deciles (layer 1, S={s})",
        ["position_decile", f"dense_head_h{dense_head}", f"sparse_head_h{sparse_head}"],
        notes=f"SD: dense={sd[dense_head]:.3f}, sparse={sd[sparse_head]:.3f}",
    )
    edges = np.linspace(0, s, 11).astype(int)
    for i in range(10):
        lo, hi = edges[i], edges[i + 1]
        t.add_row(f"{i * 10}-{(i + 1) * 10}%", *[round(float(f[lo:hi].mean()), 4) for f in freq])
    return [t]


def run_plan_demo(sc, runs) -> list[Table]:
    """Bonus: a SparsePlan summary per layer (not a paper exhibit, but the
    quickest way to see the adaptive structure the method discovers)."""
    mdl = runs.model(sc.models[0])
    prompt = _needle(sc.sparsity_lengths[1], runs.seed).prompt
    t = Table(
        "SparsePlan summary per layer (alpha=0.95)",
        ["layer", "window", "mean_kv_ratio", "min_kv", "max_kv", "element_density"],
    )
    for i, (q, k, _, scale) in enumerate(layer_qkv(mdl, prompt)):
        summ = plan_sample_attention(
            q, k, SampleAttentionConfig(alpha=0.95), scale=scale
        ).summary()
        t.add_row(
            i,
            summ["window"],
            summ["mean_kv_ratio"],
            summ["min_kv_ratio"],
            summ["max_kv_ratio"],
            summ["element_density"],
        )
    return [t]


# ===========================================================================
# Serving: the queueing simulator and the executed engine
# ===========================================================================


def run_serving(sc, runs) -> list[Table]:
    """Bonus: queueing consequences of faster prefill under load (the
    system-level story behind Table 4's serving context)."""
    lm = LatencyModel(CHATGLM2_6B, tensor_parallel=4)
    requests = poisson_workload(
        np.random.default_rng(runs.seed), rate_per_s=0.15, duration_s=240
    )
    t = Table(
        "Serving simulation: Poisson long-context stream, one TP=4 replica",
        ["method", "mean_ttft_s", "p50_ttft_s", "p95_ttft_s"],
        notes="prefill speedups compound through queueing delay at p95",
    )
    for method, alpha in (("flash", 0.95), ("sample", 0.95), ("sample", 0.80)):
        sim = ServingSimulator(lm, method=method, alpha=alpha)
        summ = sim.summarize(sim.run(requests))
        t.add_row(
            method if method == "flash" else f"{method} a={alpha}",
            round(summ["mean_ttft_s"], 2),
            round(summ["p50_ttft_s"], 2),
            round(summ["p95_ttft_s"], 2),
        )
    return [t]


def run_serve(sc, runs) -> list[Table]:
    """Executed serving: drive the engine end to end on a seeded Poisson
    workload and report executed vs simulator-predicted TTFT side by side.

    The workload is generated at paper-scale prompt lengths (above the
    ~16K crossover where SampleAttention starts winning); the engine
    executes each request at 1/16 substrate scale (DESIGN.md's evaluation
    convention, ``length_scale=16``) with measured wall-clock billing,
    while the simulator bills the same requests on the A100 roofline.
    """
    quick = sc.name == "quick"
    menu = (16384, 32768) if quick else (32768, 65536)
    requests = poisson_workload(
        np.random.default_rng(runs.seed),
        rate_per_s=0.4 if quick else 0.3,
        duration_s=16 if quick else 30,
        prompt_lens=menu,
        decode_tokens=4,
        length_dist="lognormal",
        lognormal_sigma=0.4,
        max_prompt_len=2 * max(menu),
    )
    mdl = runs.model(sc.models[0])
    lm = LatencyModel(CHATGLM2_6B, tensor_parallel=4)

    t1 = Table(
        "Serving engine vs simulator: executed vs predicted TTFT "
        f"({sc.models[0]}, chunked prefill, plan cache)",
        ["method", "engine_mean_ttft_s", "engine_p95_ttft_s", "sim_mean_ttft_s",
         "sim_p95_ttft_s", "plan_hit_rate", "mean_kept_kv", "fallbacks"],
        notes=(
            "engine executes the numpy pipeline at 1/16 substrate scale "
            "(measured wall-clock) after one untimed warm-up request; "
            "simulator bills the A100 roofline at paper scale -- the TTFT "
            "ordering should agree"
        ),
    )

    def engine(method):
        return ServingEngine(
            mdl, method=method, chunk_size=256, length_scale=16, seed=runs.seed
        )

    # The first BLAS-heavy second of a fresh process can run many times
    # slower (BLAS worker threads waking idle CPUs); an untimed request
    # absorbs it so that neither arm pays it.
    engine("sample").run(requests[:1])
    results = {}
    for method in ("sample", "flash"):
        results[method] = res = engine(method).run(requests)
        summ = res.summary()
        sim = ServingSimulator(lm, method=method, alpha=0.95)
        sim_summ = sim.summarize(sim.run(requests))
        t1.add_row(
            method,
            round(summ["mean_ttft_s"], 3),
            round(summ["p95_ttft_s"], 3),
            round(sim_summ["mean_ttft_s"], 3),
            round(sim_summ["p95_ttft_s"], 3),
            round(summ["plan_cache_hit_rate"], 3),
            round(summ["mean_kept_kv_ratio"], 3),
            int(summ["plan_fallbacks"]),
        )

    sample_result = results["sample"]
    columns = ["request_id", "prompt_len", "executed_len", "queue_delay_s",
               "ttft_s", "n_chunks", "plan_hits", "plan_misses", "outcome"]
    t2 = Table(
        "Per-request engine telemetry (method=sample)",
        columns,
        notes="queue delay + executed chunked prefill = TTFT; plan hits "
        "amortise stage-1/2 planning across chunks",
    )
    timed = ("queue_delay_s", "ttft_s")  # None until the event happens
    for record in (tm.as_dict() for tm in sample_result.requests):
        t2.add_row(*[
            ("-" if record[c] is None else round(record[c], 3)) if c in timed else record[c]
            for c in columns
        ])

    t3 = Table(
        "Kernel execution path (method=sample)",
        ["counter", "value"],
        notes="deterministic kernel_* registry counters; per-span wall time "
        "that adds up to engine.run comes from perfbench/run.py --trace 1",
    )
    for name, value in sample_result.telemetry.to_dict()["counters"].items():
        if name.startswith("kernel_"):
            t3.add_row(name, int(value))
    return [t1, t2, t3]


# ===========================================================================
# Registry
# ===========================================================================


def _seeded(runner):
    """A ``runner(scale, seed)`` (the drills, the audit) as a registry entry."""
    return lambda sc, runs: runner(sc, runs.seed)


def _run_audit(scale, seed: int):
    # Imported lazily: repro.audit.campaign renders through harness tables,
    # so a module-level import would cycle back into this module.
    from ..audit.campaign import run_audit_experiment

    return run_audit_experiment(scale=scale, seed=seed)


#: id -> (runner(scale, run table) -> tables, description)
EXPERIMENTS = {
    "fig1": (run_fig1, "TTFT overview: attention share and speedups (cost model)"),
    "fig2": (run_fig2, "Sparsity foundations: SD per layer/length/head, patterns, CRA"),
    "table2": (run_table2, "Accuracy: all methods x 2 models on LongBench/BABILong"),
    "providers": (
        run_providers,
        "Plan-provider zoo: accuracy + plan footprint per pattern planner",
    ),
    "table3": (run_table3, "Hyperparameter ablation (alpha, r_w, r_row)"),
    "fig4": (run_fig4, "Needle-in-a-Haystack grid per method"),
    "fig5": (run_fig5, "Attention latency + sampling overhead, 8K-96K"),
    "fig6": (run_fig6, "Latency scaling 8K-1M"),
    "table4": (run_table4, "TTFT breakdown at TP=4"),
    "table5": (run_table5, "SD vs sequence length at three alphas"),
    "table6": (run_table6, "Sampling effectiveness: 5% vs full column scores"),
    "fig7": (run_fig7, "BABILong detail per model"),
    "fig8": (run_fig8, "Needle detail per model"),
    "fig9": (run_fig9, "Attention heatmaps across layers"),
    "fig11": (run_fig11, "Retained-KV frequency for dense vs sparse heads"),
    "plan": (run_plan_demo, "SparsePlan summaries per layer"),
    "serving": (run_serving, "Queueing/TTFT under a request stream (simulator)"),
    "serve": (run_serve, "Executed serving engine vs simulator prediction"),
    "chaos": (_seeded(run_chaos), "Fault-injection drill: engine recovery under chaos"),
    "memory": (_seeded(run_memory), "Memory drill: paged-KV capacity + pressure recovery"),
    "fleet": (_seeded(run_fleet), "Fleet drill: multi-worker crash recovery + isolation"),
    "audit": (_seeded(_run_audit), "Differential audit: geometry fuzz + AUDIT.json"),
}


def run_experiments(ids, scale="quick", seed: int = 0):
    """Run several experiments over one shared run table, lazily.

    Yields ``(id, tables)`` in order; an accuracy cell two of the ids share
    (see :class:`RunTable`) is evaluated once.  Unknown ids raise before
    anything runs.
    """
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ConfigError(
            f"unknown experiment {unknown[0]!r}; available: {sorted(EXPERIMENTS)}"
        )
    sc, runs = resolve_scale(scale), RunTable(seed)
    return ((i, EXPERIMENTS[i][0](sc, runs)) for i in ids)


def run_experiment(exp_id: str, scale="quick", seed: int = 0) -> list[Table]:
    """Run one registered experiment and return its tables."""
    [(_, tables)] = run_experiments([exp_id], scale, seed)
    return tables
