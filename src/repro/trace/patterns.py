"""Vectorised access-pattern primitives for the synthetic generators.

Each primitive returns an int64 numpy array of *byte addresses*.  The
generators compose these into per-processor, per-phase streams which
:mod:`repro.trace.interleave` merges into a machine-wide trace.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError
from .regions import Region, WORD


def sequential_words(region: Region, start_word: int, n: int, stride: int = 1) -> np.ndarray:
    """``n`` word addresses starting at ``start_word``, wrapping in-region.

    A stride of 1 touches every word (maximal spatial locality); stride 2
    halves the reference count while still touching every block.
    """
    if n < 0 or stride <= 0:
        raise TraceError("n must be >= 0 and stride positive")
    words = (start_word + stride * np.arange(n, dtype=np.int64)) % region.n_words
    return region.start + words * WORD


def block_runs(
    region: Region,
    start_words: np.ndarray,
    run_words: int,
    stride: int = 1,
) -> np.ndarray:
    """Concatenated short sequential runs (one per entry of ``start_words``).

    Models panel/boundary/object reads: each run is ``run_words`` long with
    the given stride, so spatial locality is controlled by the run length.
    """
    if run_words <= 0 or stride <= 0:
        raise TraceError("run_words and stride must be positive")
    starts = np.asarray(start_words, dtype=np.int64)
    offs = stride * np.arange(0, run_words, dtype=np.int64)
    words = (starts[:, None] + offs[None, :]).reshape(-1) % region.n_words
    return region.start + words * WORD


def zipf_cdf(n_items: int, alpha: float) -> np.ndarray:
    """The normalised CDF of a bounded power law over ``n_items`` ranks.

    Building it draws no random numbers, so a generator builds it once per
    trace and samples it with :func:`zipf_sample` on every iteration.
    """
    if n_items <= 0:
        raise TraceError("n_items must be positive")
    if alpha < 0:
        raise TraceError("alpha must be >= 0")
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def zipf_sample(rng: np.random.Generator, cdf: np.ndarray, n_samples: int) -> np.ndarray:
    """``n_samples`` ranks drawn by inverting a :func:`zipf_cdf`."""
    return np.searchsorted(cdf, rng.random(n_samples)).astype(np.int64)


def zipf_ranks(rng: np.random.Generator, n_items: int, n_samples: int, alpha: float) -> np.ndarray:
    """Sample item ranks from a bounded power-law (Zipf) distribution.

    Rank 0 is the most popular.  Implemented by inverse-CDF over explicit
    weights, so it is exact and bounded (numpy's ``zipf`` is unbounded).
    """
    return zipf_sample(rng, zipf_cdf(n_items, alpha), n_samples)


def uniform_words(rng: np.random.Generator, region: Region, n: int) -> np.ndarray:
    """``n`` uniformly random word addresses in the region."""
    words = rng.integers(0, region.n_words, size=n, dtype=np.int64)
    return region.start + words * WORD
