"""Shared machinery for the hierarchical N-body codes (Barnes-Hut, FMM).

Both applications traverse a shared tree of cells: small (sub-block)
records scattered across many pages — the paper's **irregular, low
spatial locality** class.  Each processor re-visits a private *interest
set* of cells every iteration (temporal reuse => remote capacity misses)
that slowly mutates as bodies move, plus a Zipf-hot shared head (tree
roots everyone reads).  Body data is processor-private and owner-homed.

Barnes and FMM differ only in scale and churn: FMM's interaction lists are
larger, sparser, and change faster, which is what pushes its remote
working set beyond any page cache's reach (Fig. 9's FMM row) while Barnes'
fits comfortably in 512 KB.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..patterns import block_runs, sequential_words, zipf_cdf, zipf_sample
from ..record import TraceSpec
from ..regions import Layout, place_partitions, place_round_robin
from .base import Phase, SyntheticBenchmark

CELL_WORDS = 4  # one 16-byte tree-cell record; a quarter of a block


class NBodyBenchmark(SyntheticBenchmark):
    """Tree-walking N-body template; subclasses set the knobs."""

    cells_fraction = 0.6  #: fraction of the dataset holding tree cells
    interest_cells = 1200  #: per-processor persistent interaction set
    churn = 0.15  #: fraction of the interest set replaced per iteration
    zipf_alpha = 0.8  #: popularity skew of the shared hot head
    hot_fraction = 0.35  #: fraction of walk reads drawn from the Zipf head
    cell_write_fraction = 0.06  #: cell updates (centre-of-mass recomputes)
    n_iters = 8

    def _build(
        self, spec: TraceSpec, rng: np.random.Generator, layout: Layout
    ) -> Tuple[List[Phase], Dict[int, int], Dict[str, object]]:
        n = spec.n_procs
        ppn = max(1, n // 8)
        n_nodes = max(1, n // ppn)
        total = self.dataset_bytes(spec.scale)

        cells = self.alloc_partitionable(
            layout, "cells", int(total * self.cells_fraction), n
        )
        bodies = self.alloc_partitionable(
            layout, "bodies", int(total * (1.0 - self.cells_fraction)), n
        )
        body_parts = bodies.partition(n)
        placement = place_partitions(body_parts, ppn)
        placement.update(place_round_robin(cells, n_nodes))

        n_cells = cells.n_words // CELL_WORDS
        interest = min(self.interest_cells, n_cells)
        churn_count = max(1, int(interest * self.churn))

        budget = self.per_proc_budget(spec) // self.n_iters
        walk_reads = max(32, int(budget * 0.66))
        cell_writes = max(4, int(budget * self.cell_write_fraction))
        body_refs = max(16, budget - walk_reads - cell_writes)

        # persistent per-processor interest sets over the cell pool
        interest_sets = [
            rng.integers(0, n_cells, size=interest, dtype=np.int64) for _ in range(n)
        ]

        hot_cdf = zipf_cdf(n_cells, self.zipf_alpha)
        phases: List[Phase] = []
        for it in range(self.n_iters):
            phase: Phase = []
            for p in range(n):
                iset = interest_sets[p]
                # bodies moved: replace part of the interaction set
                idx = rng.integers(0, interest, size=churn_count)
                iset[idx] = rng.integers(0, n_cells, size=churn_count)

                n_hot = int(walk_reads * self.hot_fraction) // 2
                n_cold = (walk_reads - n_hot * 2) // 2
                hot = zipf_sample(rng, hot_cdf, n_hot)
                own = iset[rng.integers(0, interest, size=n_cold)]
                targets = np.concatenate([hot, own])
                rng.shuffle(targets)
                # read 2 of a cell's 4 words: partial-block touches, the
                # low spatial locality the paper highlights
                reads = block_runs(cells, targets * CELL_WORDS, run_words=2)

                widx = iset[rng.integers(0, interest, size=max(1, cell_writes // 1))]
                writes = block_runs(cells, widx * CELL_WORDS, run_words=1)

                body = body_parts[p]
                bcov = min(body.n_words // 2, body_refs // 2)
                breads = sequential_words(body, 0, bcov, 2)
                bwrites = sequential_words(body, 1, max(1, bcov // 2), 4)

                addrs = np.concatenate([reads, breads, writes, bwrites])
                wflags = np.concatenate(
                    [
                        np.zeros(len(reads), dtype=np.uint8),
                        np.zeros(len(breads), dtype=np.uint8),
                        np.ones(len(writes), dtype=np.uint8),
                        np.ones(len(bwrites), dtype=np.uint8),
                    ]
                )
                phase.append((addrs, wflags))
            phases.append(phase)

        meta = {
            "n_cells": n_cells,
            "interest_cells": interest,
            "churn": self.churn,
        }
        return phases, placement, meta


class Barnes(NBodyBenchmark):
    """Barnes-Hut (16K bodies, 3.94 MB): moderate remote working set.

    The whole cell pool is small enough that a 512 KB page cache holds the
    remote working set despite fragmentation (Fig. 9: the PC systems beat
    `NCD`), but a 1/5-of-dataset PC does not — Fig. 6's thrashing case.
    """

    name = "barnes"
    paper_params = "16K bodies"
    paper_mb = 3.94

    interest_cells = 1400
    churn = 0.12
    zipf_alpha = 0.9


class FMM(NBodyBenchmark):
    """FMM (16K bodies, 29.23 MB): a large, sparse remote working set.

    Interaction lists are bigger, flatter, and churn faster than Barnes';
    the remote working set is several MB of partially-used pages, so every
    page cache fragments and `NCD` wins (Fig. 9), while the victim NC
    keeps its edge over `nc` (Figs. 4/7).
    """

    name = "fmm"
    paper_params = "16K bodies"
    paper_mb = 29.23

    cells_fraction = 0.42
    interest_cells = 6000
    churn = 0.3
    zipf_alpha = 0.45
    hot_fraction = 0.15
