"""Tests for delay models."""

import numpy as np
import pytest

from repro.net import ConstantDelay, ParetoDelay, UniformJitterDelay, azure_topology
from repro.net.topology import hybrid_cloud_topology
from repro.net.delay import make_delay_model, pareto_shape_for_cv


def test_constant_delay_equals_topology_base():
    topo = azure_topology()
    model = ConstantDelay(topo)
    assert model.sample("VA", "SG") == topo.one_way("VA", "SG")
    assert model.mean("VA", "SG") == topo.one_way("VA", "SG")


def test_uniform_jitter_bounds():
    topo = azure_topology()
    model = UniformJitterDelay(topo, np.random.default_rng(0), jitter=0.1)
    base = topo.one_way("VA", "WA")
    for _ in range(200):
        sample = model.sample("VA", "WA")
        assert base <= sample <= base * 1.1


def test_uniform_jitter_rejects_negative():
    with pytest.raises(ValueError):
        UniformJitterDelay(azure_topology(), np.random.default_rng(0), -0.1)


def test_pareto_shape_inverts_cv():
    for cv in (0.05, 0.15, 0.4):
        alpha = pareto_shape_for_cv(cv)
        # CV^2 = 1 / (alpha (alpha - 2))
        assert (1.0 / (alpha * (alpha - 2.0))) == pytest.approx(cv * cv)


def test_pareto_delay_matches_requested_mean_and_cv():
    topo = azure_topology()
    model = ParetoDelay(topo, np.random.default_rng(1), cv=0.2)
    base = topo.one_way("VA", "SG")
    samples = np.array([model.sample("VA", "SG") for _ in range(40000)])
    assert samples.mean() == pytest.approx(base, rel=0.03)
    assert samples.std() / samples.mean() == pytest.approx(0.2, rel=0.15)


def test_pareto_delay_never_below_scale():
    topo = azure_topology()
    model = ParetoDelay(topo, np.random.default_rng(2), cv=0.4)
    base = topo.one_way("VA", "WA")
    for _ in range(1000):
        assert model.sample("VA", "WA") > base * 0.3


def test_make_delay_model_zero_variance_is_constant():
    model = make_delay_model(azure_topology(), np.random.default_rng(0), 0.0)
    assert isinstance(model, ConstantDelay)


def test_make_delay_model_positive_variance_is_pareto():
    model = make_delay_model(azure_topology(), np.random.default_rng(0), 0.15)
    assert isinstance(model, ParetoDelay)


def test_invalid_cv_rejected():
    with pytest.raises(ValueError):
        pareto_shape_for_cv(0.0)


class _ReferencePareto:
    """ParetoDelay's per-message formula, recomputed on every draw."""

    def __init__(self, topology, rng, cv):
        self.topology, self.rng, self.cv = topology, rng, cv

    def sample(self, src_dc, dst_dc):
        base = self.topology.one_way(src_dc, dst_dc)
        alpha = pareto_shape_for_cv(
            self.cv * self.topology.jitter_multiplier(src_dc, dst_dc)
        )
        x_m = base * (alpha - 1.0) / alpha
        return x_m * (1.0 + self.rng.pareto(alpha))


@pytest.mark.parametrize("topology", [azure_topology(), hybrid_cloud_topology()],
                         ids=["azure", "hybrid"])
def test_memoized_pareto_draws_equal_the_per_message_formula(topology):
    pairs = [(a, b) for a in topology.datacenters for b in topology.datacenters]
    if topology.jitter_scale:
        assert any(topology.jitter_multiplier(a, b) != 1.0 for a, b in pairs)
    model = ParetoDelay(topology, np.random.default_rng(5), cv=0.2)
    reference = _ReferencePareto(topology, np.random.default_rng(5), cv=0.2)
    # Interleave the pairs in a shuffled order, many draws each, so the
    # memo serves every pair mid-stream.
    order = np.random.default_rng(6).integers(len(pairs), size=5000)
    for index in order:
        src, dst = pairs[index]
        assert model.sample(src, dst) == reference.sample(src, dst)
