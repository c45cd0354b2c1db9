"""Deterministic, named random-number streams.

A large simulation draws randomness in many places (job runtimes, failure
arrivals, site selection jitter, ...).  If every component pulled from one
global generator, adding a new component would perturb *every* stream and
make runs impossible to compare.  ``RngRegistry`` hands each named
component its own independent :class:`numpy.random.Generator`, derived
from a single master seed via ``SeedSequence.spawn`` keyed on the
component name — so streams are stable under unrelated code changes and
the whole simulation is reproducible from one integer.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np


def _name_key(name: str) -> int:
    """Map a stream name to a stable 32-bit integer key."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class RngRegistry:
    """Factory for named, independent random streams.

    Parameters
    ----------
    master_seed:
        Single integer from which all streams derive.  Two registries
        built with the same seed produce identical streams for identical
        names, regardless of creation order.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence([self.master_seed, _name_key(name)])
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def names(self) -> List[str]:
        """Names of streams created so far (for debugging)."""
        return sorted(self._streams)

    # -- distribution helpers -------------------------------------------
    # Thin wrappers so call sites stay terse and guard against the
    # degenerate parameters that crop up when calibration constants are
    # scaled down for tests.

    def exponential(self, name: str, mean: float) -> float:
        """One draw from Exp(mean); returns 0 for non-positive mean."""
        if mean <= 0:
            return 0.0
        return float(self.stream(name).exponential(mean))

    def lognormal_from_mean(self, name: str, mean: float, sigma: float) -> float:
        """Lognormal draw parameterised by its *arithmetic* mean.

        ``sigma`` is the shape parameter of the underlying normal.  The
        location ``mu`` is solved so the distribution's mean equals
        ``mean`` — convenient when the paper reports mean runtimes.
        """
        if mean <= 0:
            return 0.0
        mu = np.log(mean) - 0.5 * sigma * sigma
        return float(self.stream(name).lognormal(mu, sigma))

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw on [low, high)."""
        if high <= low:
            return low
        return float(self.stream(name).uniform(low, high))

    def uniforms(self, name: str, low: float, high: float, n: int) -> List[float]:
        """``n`` uniform draws on [low, high) in one call: the same values,
        and the same stream state after, as ``n`` calls of :meth:`uniform`."""
        if high <= low:
            return [low] * n
        return self.stream(name).uniform(low, high, size=n).tolist()

    def bernoulli(self, name: str, p: float) -> bool:
        """True with probability ``p`` (clamped to [0, 1])."""
        p = min(max(p, 0.0), 1.0)
        return bool(self.stream(name).random() < p)

    def choice(self, name: str, options: Sequence, weights: Optional[Iterable[float]] = None):
        """Pick one element of ``options``, optionally weighted."""
        options = list(options)
        if not options:
            raise ValueError("choice() from empty sequence")
        gen = self.stream(name)
        if weights is None:
            idx = int(gen.integers(0, len(options)))
        else:
            w = np.asarray(list(weights), dtype=float)
            if len(w) != len(options):
                raise ValueError("weights length must match options length")
            total = w.sum()
            if total <= 0:
                idx = int(gen.integers(0, len(options)))
            else:
                idx = int(gen.choice(len(options), p=w / total))
        return options[idx]

    def integers(self, name: str, low: int, high: int) -> int:
        """One integer draw on [low, high)."""
        return int(self.stream(name).integers(low, high))

    def shuffled(self, name: str, items: Sequence) -> list:
        """Return a new shuffled list of ``items``."""
        out = list(items)
        self.stream(name).shuffle(out)
        return out
