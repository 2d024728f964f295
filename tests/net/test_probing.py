"""Tests for Domino-style probing and delay estimation."""

import numpy as np
import pytest

from repro.cluster import Clock, ClockConfig, Node
from repro.faults import FaultInjector, FaultSchedule, blackhole, link_partition
from repro.net import Network, NetworkConfig, azure_topology
from repro.net.delay import ParetoDelay
from repro.net.payload import declare
from repro.net.probing import ClientDelayView, ProbeProxy, ProbeTargetMixin
from repro.obs.core import Observability
from repro.sim import Simulator

Work = declare("Work")


class Server(ProbeTargetMixin, Node):
    def handle_work(self, payload, src):
        pass


def build(delay_model=None, server_clock=None):
    sim = Simulator()
    topo = azure_topology()
    net = Network(sim, topo, delay_model=delay_model)
    server = Server(sim, "leader-sg", "SG", clock=server_clock and server_clock(sim))
    net.register(server)
    proxy = ProbeProxy(sim, net, "VA", ["leader-sg"])
    proxy.start()
    return sim, net, proxy, server


def test_estimate_converges_to_one_way_delay():
    sim, net, proxy, _ = build()
    sim.run(until=2.0)
    estimate = proxy.estimate("leader-sg")
    assert estimate == pytest.approx(0.107, abs=0.002)


def test_no_data_returns_none():
    sim = Simulator()
    net = Network(sim, azure_topology())
    server = Server(sim, "leader-sg", "SG")
    net.register(server)
    proxy = ProbeProxy(sim, net, "VA", ["leader-sg"])
    assert proxy.estimate("leader-sg") is None
    assert proxy.summary("leader-sg") is None


def test_estimate_includes_server_clock_skew():
    skew = 0.004

    def make_clock(sim):
        clock = Clock(sim, ClockConfig(max_offset=0.0))
        clock._offset = skew
        return clock

    sim, net, proxy, server = build(server_clock=make_clock)
    sim.run(until=2.0)
    # The sample is server_recv_clock - proxy_send_clock, so the skew is
    # baked into the estimate: delay + 4 ms.
    assert proxy.estimate("leader-sg") == pytest.approx(0.111, abs=0.002)


def test_p95_sits_in_upper_tail_under_jitter():
    rng = np.random.default_rng(0)
    model = ParetoDelay(azure_topology(), rng, cv=0.1)
    sim, net, proxy, _ = build(delay_model=model)
    sim.run(until=3.0)
    estimate = proxy.estimate("leader-sg")
    base = azure_topology().one_way("VA", "SG")
    assert estimate > base  # p95 of a right-skewed distribution


def test_window_discards_old_samples():
    sim, net, proxy, server = build()
    sim.run(until=2.0)
    summary = proxy.summary("leader-sg")
    # 10 ms probes over a 1 s window -> about 100 retained samples.
    assert 80 <= summary.samples <= 110


def test_client_view_is_stale_between_refreshes():
    sim, net, proxy, _ = build()
    view = ClientDelayView(sim, proxy, refresh_interval=0.1)
    # First probe replies arrive at ~0.214 s (full VA<->SG round trip);
    # the first view refresh that can see data is at 0.3 s.
    sim.run(until=0.45)
    before = view.estimate("leader-sg")
    assert before is not None
    # Proxy keeps probing, view only updates on its own refresh schedule;
    # the cached copy matches some recent proxy state.
    assert before == pytest.approx(0.107, abs=0.005)


def test_view_max_estimate_requires_all_targets():
    sim, net, proxy, _ = build()
    view = ClientDelayView(sim, proxy, refresh_interval=0.1)
    sim.run(until=0.5)
    assert view.max_estimate(["leader-sg"]) is not None
    assert view.max_estimate(["leader-sg", "missing"]) is None


def test_add_target_starts_collecting():
    sim = Simulator()
    net = Network(sim, azure_topology())
    s1 = Server(sim, "s1", "WA")
    s2 = Server(sim, "s2", "PR")
    net.register(s1)
    net.register(s2)
    proxy = ProbeProxy(sim, net, "VA", ["s1"])
    proxy.add_target("s2")
    proxy.start()
    sim.run(until=1.0)
    assert proxy.estimate("s1") == pytest.approx(0.067 / 2, abs=0.002)
    assert proxy.estimate("s2") == pytest.approx(0.080 / 2, abs=0.002)


# ----------------------------------------------------------------------
# The incremental p95 window


def test_incremental_window_matches_a_sort_per_query():
    rng = np.random.default_rng(11)
    topo = azure_topology()
    sim = Simulator()
    net = Network(sim, topo, delay_model=ParetoDelay(topo, rng, cv=0.2))
    for name, dc in (("leader-sg", "SG"), ("leader-wa", "WA")):
        net.register(Server(sim, name, dc))
    proxy = ProbeProxy(sim, net, "VA", ["leader-sg"])
    # An independent log of every sample, taken at the proxy's door.
    log = {"leader-sg": [], "leader-wa": []}
    record, estimates = proxy._record, proxy.estimates

    def logged(target, sample):
        log[target].append((sim.now, sample))
        record(target, sample)

    checked = []

    def check():
        for target, samples in log.items():
            if not samples:
                assert proxy.estimate(target) is None
                continue
            # The window is cut when a sample arrives: keep what the
            # last arrival did not expire.
            cutoff = samples[-1][0] - 1.0
            window = [s for t, s in samples if t >= cutoff]
            values = sorted(window)
            expected = values[min(len(values) - 1, int(len(values) * 0.95))]
            assert proxy.estimate(target) == expected
            assert estimates()[target] == expected
            summary = proxy.summary(target)
            assert summary.p95 == expected
            assert summary.samples == len(window)
            assert summary.mean == sum(window) / len(window)
            checked.append(target)

    def checked_estimates():
        check()
        return estimates()

    proxy._record = logged
    # The client view queries the proxy at every refresh.
    proxy.estimates = checked_estimates
    view = ClientDelayView(sim, proxy, refresh_interval=0.1)
    proxy.start()
    sim.schedule(1.55, lambda: proxy.add_target("leader-wa"))
    sim.run(until=4.5)
    assert view.estimate("leader-wa") is not None
    # Several full windows expired for both targets.
    assert checked.count("leader-sg") >= 40
    assert checked.count("leader-wa") >= 25


# ----------------------------------------------------------------------
# The probe lane: faults, CPU queueing and tracing

ONE_WAY = azure_topology().one_way("VA", "SG")


def lane_build(schedule=(), service_time=0.0):
    sim = Simulator()
    # Pure propagation delays: no pipe transmission time.
    net = Network(sim, azure_topology(),
                  config=NetworkConfig(model_bandwidth=False))
    net.register(Server(sim, "leader-sg", "SG", service_time=service_time))
    proxy = ProbeProxy(sim, net, "VA", ["leader-sg"])
    FaultInjector(sim, net, FaultSchedule(tuple(schedule))).attach()
    sent, samples = [], []
    lane, record = net.probe, proxy._record

    def sending(src, dst_name, sent_clock, on_sample):
        sent.append(sim.now)
        lane(src, dst_name, sent_clock, on_sample)

    def recording(target, sample):
        samples.append((sim.now, sample))
        record(target, sample)

    net.probe = sending
    proxy._record = recording
    return sim, net, proxy, sent, samples


def test_blackholed_probes_are_dropped_and_sampling_resumes():
    sim, net, proxy, sent, samples = lane_build(
        [blackhole(1.005, 0.5, src="proxy-VA", dst="leader-sg")]
    )
    proxy.start()
    sim.run(until=3.0)
    inside = [t for t in sent if 1.005 <= t < 1.505]
    assert len(inside) == 50
    assert net.messages_dropped == len(inside)
    sent_at = [t - 2 * ONE_WAY for t, _ in samples]
    assert not [t for t in sent_at if 1.005 - 1e-9 < t < 1.505 + 1e-9]
    assert [t for t in sent_at if t > 1.505]
    assert all(s == pytest.approx(ONE_WAY) for _, s in samples)


def test_partitioned_probes_are_held_until_heal():
    sim, net, proxy, sent, samples = lane_build(
        [link_partition(1.005, 0.5, "VA", "SG")]
    )
    proxy.start()
    sim.run(until=3.0)
    first_held = min(t for t in sent if t >= 1.005)
    before = [s for t, s in samples if t < 1.505]
    assert before and all(s == pytest.approx(ONE_WAY) for s in before)
    # The oldest held probe reaches the leader at heal time, and its
    # reply (sent after the heal) lands one one-way delay later.
    held = [(t, s) for t, s in samples if s > 2 * ONE_WAY]
    assert held[0] == pytest.approx((1.505 + ONE_WAY, 1.505 - first_held))
    assert max(s for _, s in held) == held[0][1]
    # Once the held backlog drains, samples are back to the base delay.
    assert samples[-1][1] == pytest.approx(ONE_WAY)


def test_probe_waits_behind_queued_one_way_work():
    def first_sample(burst):
        sim, net, proxy, sent, samples = lane_build(service_time=0.001)
        worker = net.register(Node(sim, "worker-va", "VA"))
        for _ in range(burst):
            net.send(worker, "leader-sg", "work", Work())
        proxy.start()
        sim.run(until=0.3)
        return samples[0][1]

    idle = first_sample(0)
    assert idle == pytest.approx(ONE_WAY + 0.001)
    # Twenty 1 ms messages arrive just ahead of the probe.
    assert first_sample(20) - idle == pytest.approx(0.020)


def test_traced_lane_counts_probe_and_reply_messages():
    sim, net, proxy, sent, samples = lane_build()
    obs = Observability().attach(sim)
    target = net.node("leader-sg")
    handled = []

    def counting(payload, src):
        handled.append(src)
        return Server.handle_probe(target, payload, src)

    target.handle_probe = counting
    proxy.start()
    sim.run(until=1.0)
    labeled = obs.metrics.counter("net.messages").labeled()
    assert labeled == {
        "method=probe": len(sent),
        "method=probe.reply": len(handled),
    }
    assert len(handled) > 0 and len(sent) > len(handled)
    assert net.probe_messages == net.messages_sent == len(sent) + len(handled)
    assert obs.metrics.counter("net.bytes").value == net.bytes_sent
    assert obs.metrics.histogram("net.delay").count == net.messages_sent
