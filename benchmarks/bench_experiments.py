"""Regenerate every paper table, figure and ablation (``ALL_EXPERIMENTS``).

Run all:  pytest benchmarks/bench_experiments.py --benchmark-only -q
Run one:  pytest benchmarks/bench_experiments.py --benchmark-only -q -k fig09
Each printed table has the paper's rows (benchmarks) and columns (system
configurations); EXPERIMENTS.md records the expected shapes.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS


@pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
def test_experiment(benchmark, show, name):
    result = benchmark.pedantic(ALL_EXPERIMENTS[name], rounds=1, iterations=1)
    show(result)
