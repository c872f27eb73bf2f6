"""Helper for the ablation suite (``bench_ablations.py``).

The paper's figures and tables are ``python -m repro.experiments
<artifact>``; performance is ``bench/`` + ``BENCHMARK.json``. What lives
here are the four ablations nothing else asserts: the reproduced numbers
are printed to stdout — run with ``-s`` to see the tables — and asserted
against the paper's qualitative shape.
"""

from __future__ import annotations


def print_table(title: str, text: str) -> None:
    print(f"\n=== {title} ===")
    print(text)
