"""Seeded input sizes shared by the ladder workloads."""

from __future__ import annotations

import random

GOLDEN = 0.6180339887498949
JITTER = 0.2  # share of its stratum a drawn size may move off the stratum centre
PHASE_JITTER = 0.02


def log_sizes(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n sizes drawn log-uniformly on [lo, hi], one per equal-probability stratum.

    Each draw stays in the central fifth of its stratum, so the size
    quantiles, and with them the cost quantiles the benchmark reports,
    hardly move between seeds while the inputs themselves differ.
    """
    out = []
    for i in range(n):
        u = (i + 0.5 + JITTER * (rng.random() - 0.5)) / n
        out.append(round(lo * (hi / lo) ** u))
    return out


def rank_phases(rng: random.Random, n: int) -> list[float]:
    """Phases in [0, 1) for inputs in size order: a golden-ratio sequence by rank.

    Neighbouring sizes get well-separated phases, so every run covers the
    admissible r range evenly at every scale; the seed moves each phase by
    at most PHASE_JITTER.
    """
    return [(i * GOLDEN + PHASE_JITTER * rng.random()) % 1.0 for i in range(n)]


def admissible_r(t: int) -> list[int]:
    """Rotation numbers r with (-t, r) an unknot pair."""
    return [-(t - 1) + 2 * i for i in range(t)]


def rotate(phase: float, rnd: int, count: int) -> int:
    """Index for round ``rnd``: a golden-ratio walk, so repeats differ and spread."""
    return int(((phase + rnd * GOLDEN) % 1.0) * count)
