"""Noise and imbalance models.

The paper's decoupling strategy claims two benefits: pipelining and
*imbalance absorption*.  To measure absorption we need imbalance to
exist in the simulation; this module produces it deterministically.

Two effects are modeled, matching Section I of the paper ("interference
from system noises is unavoidable", "higher temperature variance ...
vary the speed of processors"):

* a **persistent per-rank speed factor** — each rank draws a constant
  multiplicative slowdown from a lognormal distribution, representing
  core-to-core frequency / thermal variance;
* **transient noise** — while computing, a rank loses a random fraction
  of each noise quantum, representing OS daemons and interrupts
  (Petrini et al., SC'03).  Over an interval of nominal length ``t`` the
  expected inflation is ``quantum_fraction``; the realized inflation is
  sampled per compute call so long phases smooth out and short phases
  jitter, as on a real machine.

Both draws come from per-rank ``numpy`` generators seeded from the
config seed and the rank id, so a simulation is reproducible and two
runs that only differ elsewhere see identical noise.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from .config import NoiseConfig


class NoiseModel:
    """Deterministic per-rank compute-time inflation.

    Rank ``r``'s draws come from ``default_rng(SeedSequence(entropy=
    seed, spawn_key=(r,)))``.  Per-rank state lives in rank-indexed
    lists; the generators of all ``nranks`` ranks are derived in one
    :func:`repro.workloads.keyed.generators` batch on the first draw, so
    no rank keeps a ``SeedSequence``.  Ranks outside ``[0, nranks)``
    (direct model queries) get the same streams through small dicts.
    """

    def __init__(self, config: NoiseConfig, nranks: int):
        config.validate()
        self.config = config
        self.nranks = nranks
        self._skew: List[Optional[float]] = [None] * nranks
        self._rngs: List[np.random.Generator] = []   # filled on first draw
        self._skew_outside: Dict[int, float] = {}
        self._rngs_outside: Dict[int, np.random.Generator] = {}

    def _rng(self, rank: int) -> np.random.Generator:
        from ..workloads.keyed import generators, keyed_rng  # lazy: port
        if 0 <= rank < self.nranks:
            if not self._rngs:
                keys = np.arange(self.nranks, dtype=np.int64).reshape(-1, 1)
                self._rngs = list(generators(self.config.seed, (), keys))
            return self._rngs[rank]
        rng = self._rngs_outside.get(rank)
        if rng is None:
            rng = self._rngs_outside[rank] = keyed_rng(
                self.config.seed, (), (rank,))
        return rng

    def persistent_factor(self, rank: int) -> float:
        """Constant speed factor (>= ~1) for ``rank``.

        Lognormal with median 1 and sigma = ``persistent_skew``; floored
        at 1.0 so the *fastest* ranks define the baseline — what matters
        for synchronization cost is the spread, and flooring keeps
        calibrated absolute times stable under noise sweeps.
        """
        inside = 0 <= rank < self.nranks
        factor = (self._skew[rank] if inside
                  else self._skew_outside.get(rank))
        if factor is None:
            sigma = self.config.persistent_skew
            if sigma <= 0:
                factor = 1.0
            else:
                factor = max(1.0, float(self._rng(rank).lognormal(0.0, sigma)))
            if inside:
                self._skew[rank] = factor
            else:
                self._skew_outside[rank] = factor
        return factor

    def inflate(self, rank: int, duration: float) -> float:
        """Actual virtual-time cost of ``duration`` nominal compute seconds."""
        if duration <= 0:
            return 0.0
        skew = self._skew[rank] if 0 <= rank < self.nranks else None
        if skew is None:
            skew = self.persistent_factor(rank)
        actual = duration * skew
        config = self.config
        frac = config.quantum_fraction
        if frac > 0.0:
            # Number of noise quanta this interval spans; each quantum
            # contributes an exponentially-distributed detour with mean
            # `frac * quantum`.  For intervals much longer than a quantum
            # the total concentrates around `frac * duration` (LLN); for
            # short intervals it is bursty.
            rngs = self._rngs
            rng = rngs[rank] if 0 <= rank < len(rngs) else self._rng(rank)
            quanta = duration / config.quantum
            n_events = int(rng.poisson(quanta if quanta > 1e-12 else 1e-12))
            if n_events > 0:
                detours = rng.exponential(
                    frac * config.quantum, size=n_events
                )
                actual += float(detours.sum())
        return actual

    def expected_inflation(self, duration: float) -> float:
        """Mean cost of ``duration`` under transient noise only (analytic).

        Used by the performance model (Eq. 1's ``T_sigma``) to predict
        imbalance cost without running the simulation.
        """
        return duration * (1.0 + self.config.quantum_fraction)

    def expected_max_factor(self, nranks: int) -> float:
        """Approximate E[max of nranks persistent factors].

        For a lognormal(0, sigma) sample of size n the maximum
        concentrates near ``exp(sigma * sqrt(2 ln n))``; this is the
        analytic counterpart of the synchronization penalty a bulk-
        synchronous code pays at each barrier, and grows with scale —
        the paper's core motivation for absorbing imbalance.
        """
        sigma = self.config.persistent_skew
        if sigma <= 0 or nranks <= 1:
            return 1.0
        return math.exp(sigma * math.sqrt(2.0 * math.log(nranks)))
