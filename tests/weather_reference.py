"""Uncached reference for the link weather, shared by the parity tests.

``FluctuationModel.factor`` memoizes its per-link draws; this module
recomputes them from a fresh ``_link_hash`` generator per draw with
numpy floor and clip, the way the weather was first written, so the
tests can compare the two with ``==``.
"""

import numpy as np

from repro.net.dynamics import DAY_S, FluctuationModel, _link_hash


def uncached_weather(model: FluctuationModel, i: int, j: int, t: float) -> float:
    """The weather factor of link (i, j) at ``t``, no memoization and
    no ``i == j`` shortcut (callers keep their own guard)."""
    bucket = int(np.floor(t / model.noise_period_s))
    frac = t / model.noise_period_s - bucket
    n0 = float(_link_hash(model.seed, i, j, bucket).normal(0.0, model.sigma))
    n1 = float(_link_hash(model.seed, i, j, bucket + 1).normal(0.0, model.sigma))
    noise = n0 * (1.0 - frac) + n1 * frac
    phase = float(_link_hash(model.seed, i, j, -1).uniform(0.0, 2.0 * np.pi))
    diurnal = model.diurnal_amplitude * np.sin(2.0 * np.pi * t / DAY_S + phase)
    return float(np.clip(1.0 + noise + diurnal, model.floor, model.ceiling))
