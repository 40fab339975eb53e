"""Synthetic Cholesky: sparse supernodal factorisation (tk15.0, 21.37 MB).

The paper's characterisation: **high spatial locality** (supernode panels
are read as dense column blocks) but a **large footprint with an irregular
task schedule**, so the remote working set far exceeds the 16 KB NC.  Page
caches do well — relocated panel pages are fully used (low fragmentation)
— and the many first-time panel reads keep a sizeable *necessary*
component, which is why Cholesky "comes close" to FFT's base-beats-DRAM
behaviour in Fig. 9.  Under page-indexed NCs (`vp`), whole panels collide
in single sets, the degradation seen in Fig. 5.

Model: a pool of 8 KB panels owned round-robin by processors
(owner-homed).  Each task, a processor reads a few panels — chosen by a
skewed (Zipf) popularity so hot panels are re-read (capacity) while the
long tail supplies cold misses — and writes into a private scratch panel.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..patterns import sequential_words, zipf_cdf, zipf_sample
from ..record import TraceSpec
from ..regions import PAGE, Layout
from .base import Phase, SyntheticBenchmark


class Cholesky(SyntheticBenchmark):
    name = "cholesky"
    paper_params = "tk15.0"
    paper_mb = 21.37

    panel_bytes = 8192
    panels_per_task = 3
    zipf_alpha = 0.7
    n_iters = 7

    def _build(
        self, spec: TraceSpec, rng: np.random.Generator, layout: Layout
    ) -> Tuple[List[Phase], Dict[int, int], Dict[str, object]]:
        n = spec.n_procs
        ppn = max(1, n // 8)
        total = self.dataset_bytes(spec.scale)
        pool = self.alloc_partitionable(
            layout, "panels", int(total * 0.85), n * 2
        )
        scratch = self.alloc_partitionable(layout, "scratch", int(total * 0.15), n)
        scratch_parts = scratch.partition(n)

        n_panels = max(n, pool.size // self.panel_bytes)
        panel_words = self.panel_bytes // 4
        pages_per_panel = self.panel_bytes // PAGE

        # panel i is owned (homed) by processor i mod n
        placement: Dict[int, int] = {}
        for i in range(n_panels):
            first_page = pool.first_page + i * pages_per_panel
            node = (i % n) // ppn
            for pg in range(pages_per_panel):
                placement[first_page + pg] = node
        for p, part in enumerate(scratch_parts):
            for pg in part.pages():
                placement[pg] = p // ppn

        budget = self.per_proc_budget(spec) // self.n_iters
        read_len = max(32, int(budget * 0.8) // self.panels_per_task)
        write_len = max(16, int(budget * 0.2))

        # per-processor random panel popularity permutation, so the hot
        # panels differ per processor (an irregular schedule) but overlap
        # across processors through the shared Zipf head
        perms = [rng.permutation(n_panels) for _ in range(n)]
        cdf = zipf_cdf(n_panels, self.zipf_alpha)

        phases: List[Phase] = []
        for it in range(self.n_iters):
            phase: Phase = []
            for p in range(n):
                ranks = zipf_sample(rng, cdf, self.panels_per_task)
                pieces = []
                for r in ranks.tolist():
                    panel = perms[p][r] if r % 2 else r  # mix shared + private heat
                    start = int(panel) * panel_words
                    covered = min(panel_words // 2, read_len)
                    reads = sequential_words(pool, start, covered, stride=2)
                    pieces.append(self.writes_like(reads, False))
                own = scratch_parts[p]
                wcov = min(own.n_words // 2, write_len)
                pieces.append(
                    self.writes_like(sequential_words(own, 0, wcov, 2), True)
                )
                addrs = np.concatenate([s[0] for s in pieces])
                writes = np.concatenate([s[1] for s in pieces])
                phase.append((addrs, writes))
            phases.append(phase)

        meta = {"n_panels": n_panels, "panel_bytes": self.panel_bytes}
        return phases, placement, meta
