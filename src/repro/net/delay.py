"""One-way delay models.

The paper's experiments use three delay regimes:

* **Stable** (Azure): variance below 0.1% of the mean — effectively
  constant.  :class:`ConstantDelay`.
* **Emulated jitter**: the Figure 11 sweep draws delays from a Pareto
  distribution with a configured coefficient of variation (the paper's
  "network delay variance" is std/mean).  :class:`ParetoDelay` solves the
  Pareto shape parameter from the requested CV in closed form.
* **Mild uniform jitter** for tests and examples.  :class:`UniformJitterDelay`.

All models return one-way delays in seconds given the topology's base
one-way delay for the datacenter pair.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from repro.net.topology import Topology
from repro.sim.randomness import BatchedStandardExponential, BatchedUniform


class DelayModel(Protocol):
    """Samples a one-way delay (seconds) between two datacenters."""

    def sample(self, src_dc: str, dst_dc: str) -> float: ...

    def mean(self, src_dc: str, dst_dc: str) -> float: ...


class ConstantDelay:
    """Deterministic delays: exactly the topology's base one-way delay.

    Pair delays are memoized: the topology is immutable and ``sample``
    sits on the per-message hot path, so the dict-probe-plus-division
    in ``Topology.one_way`` is paid once per ordered pair.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._cache: dict = {}

    def sample(self, src_dc: str, dst_dc: str) -> float:
        key = (src_dc, dst_dc)
        delay = self._cache.get(key)
        if delay is None:
            delay = self._cache[key] = self._topology.one_way(src_dc, dst_dc)
        return delay

    def mean(self, src_dc: str, dst_dc: str) -> float:
        return self.sample(src_dc, dst_dc)


class UniformJitterDelay:
    """Base delay times a uniform factor in ``[1, 1 + jitter]``."""

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        jitter: float = 0.02,
    ) -> None:
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self._topology = topology
        self._rng = rng
        # The delay stream is exclusive to this model, so uniforms can
        # be pulled from blocks: uniform(0, h) is h * U[0, 1) exactly.
        self._uniform = BatchedUniform(rng)
        self._jitter = jitter

    def sample(self, src_dc: str, dst_dc: str) -> float:
        base = self._topology.one_way(src_dc, dst_dc)
        scale = self._topology.jitter_multiplier(src_dc, dst_dc)
        return base * (
            1.0 + self._jitter * scale * self._uniform.random()
        )

    def mean(self, src_dc: str, dst_dc: str) -> float:
        base = self._topology.one_way(src_dc, dst_dc)
        scale = self._topology.jitter_multiplier(src_dc, dst_dc)
        return base * (1.0 + self._jitter * scale / 2.0)


def pareto_shape_for_cv(cv: float) -> float:
    """Pareto shape α with coefficient of variation ``cv``.

    For a Pareto(α, x_m) distribution, CV² = 1 / (α (α − 2)) for α > 2,
    which inverts to α = 1 + sqrt(1 + 1/CV²).
    """
    if cv <= 0:
        raise ValueError("cv must be positive")
    return 1.0 + math.sqrt(1.0 + 1.0 / (cv * cv))


class ParetoDelay:
    """Pareto-distributed delays with a configured std/mean ratio.

    Matches the Figure 11 emulation: "network delays between datacenters
    follow a Pareto distribution with the same average network delays as
    in Table 1", with variance expressed as std/mean.  The scale x_m is
    chosen so the distribution's mean equals the topology's base delay:
    mean = α x_m / (α − 1).

    Each ordered pair's ``(x_m, α)`` is computed on its first sample
    and memoized: the topology is immutable, and the per-message
    recomputation was a tenth of a lossy Natto run.
    """

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        cv: float,
    ) -> None:
        self._topology = topology
        self._rng = rng
        # ``rng.pareto(a)`` is ``expm1(standard_exponential() / a)``, so
        # one pre-filled standard-exponential block serves every pair's
        # shape parameter with the unbatched draw sequence bit-for-bit.
        self._exp = BatchedStandardExponential(rng)
        self.cv = cv
        self._alpha = pareto_shape_for_cv(cv) if cv > 0 else math.inf
        self._pairs: dict = {}

    def _pair(self, src_dc: str, dst_dc: str) -> tuple:
        """``(x_m, α)`` for one ordered pair; ``(base, inf)`` if constant."""
        base = self._topology.one_way(src_dc, dst_dc)
        if not math.isfinite(self._alpha):
            return base, math.inf
        scale_cv = self._topology.jitter_multiplier(src_dc, dst_dc)
        alpha = self._alpha
        if scale_cv != 1.0:
            alpha = pareto_shape_for_cv(self.cv * scale_cv)
        return base * (alpha - 1.0) / alpha, alpha

    def sample(self, src_dc: str, dst_dc: str) -> float:
        key = (src_dc, dst_dc)
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = self._pair(src_dc, dst_dc)
        x_m, alpha = pair
        if alpha == math.inf:
            return x_m
        # numpy's pareto() samples (X/x_m - 1); rescale back.
        return x_m * (1.0 + math.expm1(self._exp.next() / alpha))

    def mean(self, src_dc: str, dst_dc: str) -> float:
        return self._topology.one_way(src_dc, dst_dc)


def make_delay_model(
    topology: Topology,
    rng: np.random.Generator,
    variance_cv: float = 0.0,
) -> DelayModel:
    """The experiment harness's delay factory.

    ``variance_cv`` is the paper's "network delay variance" knob
    (std/mean, e.g. 0.15 for 15%); zero gives constant delays.
    """
    if variance_cv <= 0.0:
        return ConstantDelay(topology)
    return ParetoDelay(topology, rng, variance_cv)
