"""Synthetic Raytrace: ray tracing the `car` scene (34.86 MB).

The paper's characterisation: **read-dominated, irregular, with a very
large and sparse remote working set** — the scene (BSP tree + primitives)
is by far the biggest dataset in Table 3 and is read in small
partial-block pieces along each ray.  Hot geometry (the upper BSP levels)
is re-read constantly (capacity misses), the long tail is touched rarely
(cold misses, page-cache fragmentation).  Fig. 9/10: read traffic
dominates, `NCD`'s fine-grain 512 KB beats equally-sized page caches, and
the victim-NC advantage over `nc` is modest because write traffic is low.

Model: processors trace rays; each ray reads a handful of Zipf-selected
scene objects (3 blocks each, 2 words read per block) and writes one local
framebuffer pixel.  Popularity is per-processor-permuted beyond the shared
head so working sets overlap only in the hot core.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..patterns import block_runs, sequential_words, zipf_cdf, zipf_sample
from ..record import TraceSpec
from ..regions import Layout, place_partitions, place_round_robin
from .base import Phase, SyntheticBenchmark

OBJECT_BLOCKS = 3
WORDS_PER_BLOCK = 16


class Raytrace(SyntheticBenchmark):
    name = "raytrace"
    paper_params = "car"
    paper_mb = 34.86

    reads_per_ray = 12
    zipf_alpha = 0.62
    n_chunks = 4  # split the frame into a few interleaved phases

    def _build(
        self, spec: TraceSpec, rng: np.random.Generator, layout: Layout
    ) -> Tuple[List[Phase], Dict[int, int], Dict[str, object]]:
        n = spec.n_procs
        ppn = max(1, n // 8)
        n_nodes = max(1, n // ppn)
        total = self.dataset_bytes(spec.scale)

        scene = self.alloc_partitionable(layout, "scene", int(total * 0.88), n)
        fb = self.alloc_partitionable(layout, "framebuffer", int(total * 0.12), n)
        fb_parts = fb.partition(n)
        placement = place_partitions(fb_parts, ppn)
        placement.update(place_round_robin(scene, n_nodes))

        n_objects = scene.n_words // (OBJECT_BLOCKS * WORDS_PER_BLOCK)
        budget = self.per_proc_budget(spec) // self.n_chunks
        # each ray costs reads_per_ray * 2 words read + 1 pixel write
        rays = max(8, budget // (self.reads_per_ray * 2 + 1))

        # per-processor object permutation: only the Zipf head is shared
        perms = [rng.permutation(n_objects) for _ in range(n)]
        cdf = zipf_cdf(n_objects, self.zipf_alpha)

        phases: List[Phase] = []
        for chunk in range(self.n_chunks):
            phase: Phase = []
            for p in range(n):
                n_reads = rays * self.reads_per_ray
                ranks = zipf_sample(rng, cdf, n_reads)
                hot = ranks < max(8, n_objects // 50)
                objs = np.where(hot, ranks, perms[p][ranks])
                # read the first 2 words of 2 of the object's 3 blocks
                first = objs * (OBJECT_BLOCKS * WORDS_PER_BLOCK)
                starts = np.empty(n_reads * 2, dtype=np.int64)
                starts[0::2] = first
                starts[1::2] = first + WORDS_PER_BLOCK
                reads = block_runs(scene, starts, run_words=1)

                fbp = fb_parts[p]
                px = sequential_words(
                    fbp, (chunk * rays) % fbp.n_words, rays, 1
                )

                addrs = np.concatenate([reads, px])
                wflags = np.concatenate(
                    [
                        np.zeros(len(reads), dtype=np.uint8),
                        np.ones(len(px), dtype=np.uint8),
                    ]
                )
                phase.append((addrs, wflags))
            phases.append(phase)

        meta = {"n_objects": n_objects, "rays_per_chunk": rays}
        return phases, placement, meta
