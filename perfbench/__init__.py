"""perfbench: the repository's sparse-vs-dense serving benchmark.

See ``perfbench/README.md``; the entry point is ``perfbench/run.py``.
"""
