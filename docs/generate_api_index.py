"""Regenerate docs/API.md from package ``__all__`` exports.

Run:  python docs/generate_api_index.py
"""

import importlib
import inspect
import io
import pathlib

PACKAGES = [
    "repro",
    "repro.config",
    "repro.vocab",
    "repro.backends",
    "repro.attention",
    "repro.core",
    "repro.baselines",
    "repro.model",
    "repro.memory",
    "repro.analysis",
    "repro.perf",
    "repro.tasks",
    "repro.serving",
    "repro.serving.fleet",
    "repro.harness",
    "repro.audit",
]


API_MD = pathlib.Path(__file__).with_name("API.md")


def main(target: pathlib.Path = API_MD) -> None:
    out = io.StringIO()
    out.write("# API index\n\n")
    out.write(
        "Generated from package `__all__` exports by "
        "`docs/generate_api_index.py`;\nevery item carries a full docstring "
        "in source.\n"
    )
    for name in PACKAGES:
        mod = importlib.import_module(name)
        out.write(f"\n## `{name}`\n\n")
        doc = (inspect.getdoc(mod) or "").strip().splitlines()
        if doc:
            out.write(doc[0] + "\n\n")
        for item in getattr(mod, "__all__", []):
            obj = getattr(mod, item, None)
            d = inspect.getdoc(obj) if obj is not None else None
            first = d.strip().splitlines()[0] if d else ""
            kind = (
                "class"
                if inspect.isclass(obj)
                else ("function" if callable(obj) else "data")
            )
            out.write(f"- **`{item}`** ({kind}) — {first}\n")
    target.write_text(out.getvalue())
    print(f"wrote {target} ({len(out.getvalue())} bytes)")


if __name__ == "__main__":
    main()
