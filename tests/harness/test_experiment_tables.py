"""Golden tables: every non-drill experiment renders byte-identical Markdown,
whether it runs alone or after others over one shared run table.

Each experiment runs at :data:`TINY` (one model, one length per task
family, one case per category, two needle depths) and its rendered tables
are compared with ``golden/experiment_tables.md``.  Wall-clock cells are
left out: Figure 5's measured substrate table and the ``serve`` experiment.

Regenerate the golden file (only when a table is meant to change) with::

    PYTHONPATH=src python tests/harness/test_experiment_tables.py
"""

from __future__ import annotations

import inspect
from collections import Counter
from pathlib import Path

import pytest

from repro.harness import experiments
from repro.harness.experiments import ExperimentScale, run_experiment, run_experiments

GOLDEN = Path(__file__).parent / "golden" / "experiment_tables.md"

TINY = ExperimentScale(
    name="tiny",
    longbench_lengths=(256,),
    babilong_lengths=(256,),
    needle_lengths=(256,),
    n_depths=2,
    cases_per_category=1,
    cases_per_task=1,
    sparsity_lengths=(128, 256),
    models=("glm-mini",),
)

IDS = (
    "fig1", "fig11", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "plan", "providers", "serving", "table2", "table3", "table4", "table5",
    "table6",
)

_WALL_CLOCK_TITLES = ("Figure 5 (measured)",)


def render(exp_id: str, tables) -> str:
    parts = [f"## {exp_id}"]
    parts += [
        t.to_markdown()
        for t in tables
        if not t.title.startswith(_WALL_CLOCK_TITLES)
    ]
    return "\n\n".join(parts) + "\n"


def golden_sections() -> dict[str, str]:
    text = GOLDEN.read_text(encoding="utf-8")
    sections = {}
    for chunk in text.split("\n## ")[1:]:
        exp_id = chunk.split("\n", 1)[0]
        sections[exp_id] = "## " + chunk.rstrip("\n") + "\n"
    return sections


# The ids whose shared-run tables below come from other ids' cells: alone,
# each fills a fresh run table itself.
@pytest.mark.parametrize("exp_id", ("fig8", "providers", "table2"))
def test_alone_matches_golden(exp_id):
    got = render(exp_id, run_experiment(exp_id, scale=TINY, seed=0))
    assert got == golden_sections()[exp_id]


class _Recorder:
    """Every case evaluation the harness makes, per experiment id, keyed by
    ``(model, method, settings with defaults filled in, case prompt)``."""

    def __init__(self, monkeypatch):
        self.step = None
        self.backends: dict[int, tuple] = {}
        self.made: Counter = Counter()
        self.cells: dict[str, list] = {}
        real_make, real_eval = experiments.make_backend, experiments.evaluate_case
        signature = inspect.signature(real_make)

        def make_backend(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            backend = real_make(*args, **kwargs)
            self.backends[id(backend)] = tuple(sorted(bound.arguments.items()))
            self.made[self.step] += 1
            return backend

        def evaluate_case(model, backend, case, **kwargs):
            cell = (model.config.name, self.backends[id(backend)], case.prompt.tobytes())
            self.cells.setdefault(self.step, []).append(cell)
            return real_eval(model, backend, case, **kwargs)

        monkeypatch.setattr(experiments, "make_backend", make_backend)
        monkeypatch.setattr(experiments, "evaluate_case", evaluate_case)


# table3 first, so the providers/table2/fig8 steps each follow the exhibit
# whose cells they reuse.
_SHARED_ORDER = ("table3", "table2", "providers", "fig4", "fig8") + tuple(
    i for i in IDS if i not in ("table3", "table2", "providers", "fig4", "fig8")
)


@pytest.fixture(scope="module")
def shared():
    with pytest.MonkeyPatch.context() as mp:
        rec = _Recorder(mp)
        rendered = {}
        steps = run_experiments(_SHARED_ORDER, scale=TINY, seed=0)
        for exp_id in _SHARED_ORDER:
            rec.step = exp_id
            _, tables = next(steps)
            rendered[exp_id] = render(exp_id, tables)
    return rec, rendered


class TestSharedRunTable:
    def test_every_table_matches_golden(self, shared):
        _, rendered = shared
        golden = golden_sections()
        assert sorted(golden) == sorted(IDS)
        for exp_id in IDS:
            assert rendered[exp_id] == golden[exp_id], exp_id

    def test_no_accuracy_cell_is_evaluated_twice(self, shared):
        rec, _ = shared
        cells = [c for step in rec.cells.values() for c in step]
        assert cells
        assert len(set(cells)) == len(cells)

    def test_providers_after_table2_evaluates_nothing(self, shared):
        rec, _ = shared
        assert rec.cells["table2"]
        assert "providers" not in rec.cells

    def test_fig8_after_fig4_evaluates_nothing_for_fig4s_model(self, shared):
        rec, _ = shared
        assert {c[0] for c in rec.cells["fig4"]} == {"glm-mini"}
        assert "fig8" not in rec.cells

    def test_table3_evaluates_its_default_config_once(self, shared):
        rec, _ = shared
        # Ten rows, three of them (alpha=0.95, r_w=8%, r_row=5%) the default.
        assert rec.made["table3"] == 8
        per_backend = Counter(c[1] for c in rec.cells["table3"])
        assert len(per_backend) == 8
        assert len(set(per_backend.values())) == 1


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    body = "\n".join(
        render(i, run_experiment(i, scale=TINY, seed=0)) for i in IDS
    )
    GOLDEN.write_text(
        "# Golden experiment tables (TINY scale, seed 0)\n\n" + body,
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
