"""docs/API.md is generated; the committed file must match the generator."""

import importlib.util
from pathlib import Path

DOCS = Path(__file__).resolve().parents[1] / "docs"


def test_api_index_is_in_sync(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "_generate_api_index", DOCS / "generate_api_index.py"
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    out = tmp_path / "API.md"
    generator.main(out)
    capsys.readouterr()
    assert out.read_text() == (DOCS / "API.md").read_text(), (
        "docs/API.md is stale: run `PYTHONPATH=src python docs/generate_api_index.py`"
    )
