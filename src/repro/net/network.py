"""Message delivery between simulated nodes.

The network knows every node by name and, for each ordered datacenter
pair, keeps a FIFO bandwidth pipe.  Sending a message costs:

``transmission (pipe queueing + size/bandwidth)  +  propagation (delay
model sample)  +  retransmission penalty (loss model)``

and delivery additionally waits for the destination node's CPU (its
:class:`~repro.cluster.node.ServiceModel`).  Intra-datacenter messages
skip the bandwidth pipe (they do not cross the WAN link).

Three primitives:

* :meth:`Network.send` — one-way message; dispatched to
  ``handle_<method>`` if the destination defines it, else to
  ``handle_message``.
* :meth:`Network.call` — request/response RPC returning a
  :class:`~repro.sim.Future`.  The handler may return a plain value
  (respond now) or a Future (respond when it resolves).
* :meth:`Network.probe` — the Domino probe lane
  (:mod:`repro.net.probing`).  A probe has every effect on the rest of
  the simulation that a ``call("probe")`` would have: the same delay
  and loss draws, pipe bytes, fault routing, per-pair FIFO floor,
  message and byte totals, and the same heap events (request arrival,
  CPU admission at the target, clock read, reply arrival).  It skips
  the RPC bookkeeping a probe never needs: no :class:`Message`, no
  Future, no pending-call entry, no handler lookup, no ``Reply``.

All three route through :meth:`Network._route`, the one place a
message's arrival time is computed.

Handlers receive ``(payload, src_name)``, where the payload is a declared
:mod:`repro.net.payload` object read by attribute, and are looked up as
``handle_<method>`` on the destination node.  Faults all come from a
:class:`repro.faults.FaultInjector` attached with :meth:`Network.set_faults`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cluster.node import Node
from repro.net.delay import ConstantDelay, DelayModel
from repro.net.loss import LossConfig, LossModel
from repro.net.message import HEADER_BYTES, Message
from repro.net.payload import Probe, ProbeReply, Reply
from repro.net.topology import Topology
from repro.sim import Future, Simulator


@dataclass(frozen=True)
class NetworkConfig:
    """Network-wide knobs.

    Attributes:
        loss: packet-loss configuration (rate 0 disables both the
            retransmission penalty and the Mathis bandwidth cap).
        model_bandwidth: when False, messages never queue on pipes even
            if a loss config is present — used by unit tests that want
            pure propagation delays.
    """

    loss: LossConfig = LossConfig()
    model_bandwidth: bool = True


class _Pipe:
    """FIFO transmission queue for one ordered datacenter pair."""

    __slots__ = ("bandwidth", "_busy_until")

    def __init__(self, bandwidth: float) -> None:
        self.bandwidth = bandwidth
        self._busy_until = 0.0

    def transmit(self, now: float, size_bytes: int) -> float:
        """Queue ``size_bytes``; return the delay until fully on the wire."""
        bandwidth = self.bandwidth
        if bandwidth == float("inf"):
            return 0.0
        busy = self._busy_until
        start = now if now > busy else busy
        end = start + size_bytes / bandwidth
        self._busy_until = end
        return end - now


#: method -> "<method>.reply", interned once per method name instead of
#: an f-string allocation per reply.
_REPLY_METHOD: Dict[str, str] = {}


#: The probe lane's request as the target's CPU model sees it: the lane
#: allocates no per-probe Message, and ``service_time_for`` is asked
#: about this stand-in instead.  Its wire size is the request's.
_PROBE_REQUEST = Message("probe", Probe(0.0), "", "")
#: Wire size of a probe's reply, ``Reply(ProbeReply(server_time))``.
_PROBE_REPLY_BYTES = HEADER_BYTES + Reply(ProbeReply(0.0)).wire_size


class Network:
    """The simulated WAN connecting all nodes."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        delay_model: Optional[DelayModel] = None,
        config: NetworkConfig = NetworkConfig(),
        loss_rng: Any = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.delay_model = delay_model or ConstantDelay(topology)
        # Bound once: the model never changes after construction and the
        # two-step attribute chain is paid per message otherwise.
        self._sample_delay = self.delay_model.sample
        self.config = config
        self._nodes: Dict[str, Node] = {}
        self._pipes: Dict[Tuple[str, str], _Pipe] = {}
        self._pending_calls: Dict[int, Future] = {}
        # (dst_name, method) -> bound handler, or None for the
        # handle_message fallback.  Nodes register once and handlers are
        # bound methods, so the cache never goes stale; it replaces an
        # f-string + getattr per delivered message.
        self._handler_cache: Dict[Tuple[str, str], Optional[Any]] = {}
        # TCP/gRPC semantics: per (src, dst) node pair, messages are
        # delivered in send order — a later message never overtakes an
        # earlier one, though it can be delayed behind it.
        self._last_arrival: Dict[Tuple[str, str], float] = {}
        # Declarative fault schedules (repro.faults): when attached, the
        # injector's network-fault state is consulted per message while
        # at least one fault window is open.  None outside fault runs,
        # so the hot path pays one attribute load and an is-None test.
        self._faults = None
        self.messages_dropped = 0
        self._loss = None
        if config.loss.loss_rate > 0.0:
            if loss_rng is None:
                raise ValueError("a loss RNG is required when loss_rate > 0")
            self._loss = LossModel(config.loss, loss_rng)
        # Config is immutable, so the "does bandwidth matter at all"
        # test is resolved once instead of per message.
        self._bandwidth_capped = (
            config.model_bandwidth
            and config.loss.link_capacity_bytes_per_s != float("inf")
        )
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Probe-lane messages (requests and replies) among
        #: ``messages_sent``: the probe side of the protocol/probe split.
        self.probe_messages = 0

    # ------------------------------------------------------------------
    # Registration

    def register(self, node: Node) -> Node:
        """Add a node; its ``name`` becomes its network address."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        return node

    def node(self, name: str) -> Node:
        return self._nodes[name]

    # ------------------------------------------------------------------
    # Primitives

    def send(self, src: Node, dst_name: str, method: str, payload: Any) -> None:
        """Fire-and-forget message."""
        message = Message(method, payload, src.name, dst_name)
        dst = self._nodes[dst_name]
        self._route(src, dst, message.wire_size, method, payload,
                    partial(self._arrive, message, dst))

    def call(self, src: Node, dst_name: str, method: str, payload: Any) -> Future:
        """Request/response RPC; resolves with the handler's response."""
        message = Message(method, payload, src.name, dst_name)
        future = Future()
        self._pending_calls[message.msg_id] = future
        dst = self._nodes[dst_name]
        self._route(src, dst, message.wire_size, method, payload,
                    partial(self._arrive, message, dst))
        return future

    def probe(
        self,
        src: Node,
        dst_name: str,
        sent_clock: float,
        on_sample: Callable[[str, float], None],
    ) -> None:
        """Probe ``dst_name``'s clock; report ``on_sample(dst_name, sample)``.

        ``sample`` is the target's clock reading at handling time minus
        ``sent_clock`` (the sender's reading at send time), delivered
        when the reply arrives back at ``src``.  Nothing is reported for
        a probe or reply lost to a blackhole.  The target must define
        ``handle_probe`` (:class:`~repro.net.probing.ProbeTargetMixin`).
        """
        self.probe_messages += 1
        dst = self._nodes[dst_name]
        self._route(src, dst, _PROBE_REQUEST.wire_size, "probe", None,
                    partial(self._probe_arrive, src, dst, sent_clock,
                            on_sample))

    # ------------------------------------------------------------------
    # Fault injection

    def set_faults(self, faults) -> None:
        """Attach (or detach with ``None``) a declarative fault state.

        ``faults`` is the network-fault view of a
        :class:`repro.faults.FaultInjector`; while ``faults.active`` is
        True, ``faults.route(src, dst, src_dc, dst_dc, delay)`` is
        consulted per message and may drop it (return ``None``), inflate
        its delay, or floor its arrival time (partition/crash hold).
        """
        self._faults = faults

    # ------------------------------------------------------------------
    # Delivery machinery

    def _route(
        self,
        src: Node,
        dst: Node,
        size: int,
        method: str,
        payload: Any,
        deliver: Callable[[], None],
    ) -> None:
        """Put one message on the wire and post ``deliver`` at its arrival.

        Arrival is propagation (delay model) + retransmission penalty
        (loss model) + (cross-DC only) bandwidth-pipe queueing, then
        fault routing, then the per-pair FIFO floor.  ``payload`` is
        read only by tracing: a ``txn`` attribute (``"<txn_id>.<attempt>"``
        on protocol payloads) gets the message a span; replies and
        infrastructure traffic (probes, Raft internals) are untagged and
        only counted.
        """
        sim = self.sim
        self.messages_sent += 1
        self.bytes_sent += size
        src_dc = src.datacenter
        dst_dc = dst.datacenter
        delay = self._sample_delay(src_dc, dst_dc)
        if self._loss is not None:
            delay += self._loss.retransmission_delay()
        if self._bandwidth_capped and src_dc != dst_dc:
            pipe = self._pipes.get((src_dc, dst_dc))
            if pipe is None:
                pipe = self._pipe(src_dc, dst_dc)
            delay += pipe.transmit(sim._now, size)
        faults = self._faults
        if faults is not None and faults.active:
            routed = faults.route(src.name, dst.name, src_dc, dst_dc, delay)
            if routed is None:
                # Blackhole: the only fault that vaporizes a packet.
                self.messages_dropped += 1
                obs = sim.obs
                if obs.enabled:
                    obs.metrics.counter("net.messages_dropped").inc()
                    obs.tracer.event(
                        "drop",
                        node=src.name,
                        txn=getattr(payload, "txn", None),
                        method=method,
                        dst=dst.name,
                    )
                return
            delay, fault_floor = routed
        else:
            fault_floor = 0.0
        pair = (src.name, dst.name)
        last = self._last_arrival
        arrival = sim._now + delay
        if fault_floor > arrival:
            arrival = fault_floor
        floor = last.get(pair)
        if floor is not None and floor > arrival:
            arrival = floor
        last[pair] = arrival
        obs = sim.obs
        if obs.enabled:
            obs.metrics.counter("net.messages").inc(method=method)
            obs.metrics.counter("net.bytes").inc(size)
            obs.metrics.histogram("net.delay").observe(
                arrival - sim.now, link=f"{src_dc}->{dst_dc}"
            )
            txn = getattr(payload, "txn", None)
            if txn is not None:
                obs.tracer.span(
                    f"net:{method}", node=src.name, txn=txn, dst=dst.name,
                ).finish(at=arrival)
        sim.post_at(arrival, deliver)

    def _pipe(self, src_dc: str, dst_dc: str) -> _Pipe:
        key = (src_dc, dst_dc)
        pipe = self._pipes.get(key)
        if pipe is None:
            rtt = self.topology.rtt(src_dc, dst_dc) / 1000.0
            bandwidth = self.config.loss.effective_bandwidth(rtt)
            pipe = _Pipe(bandwidth)
            self._pipes[key] = pipe
        return pipe

    def _arrive(self, message: Message, dst: Node) -> None:
        cost = dst.service_time_for(message)
        if cost > 0.0:
            cpu_delay = dst.service.admission_delay(cost)
            if cpu_delay > 0:
                self.sim.post(cpu_delay, partial(self._handle, message, dst))
                return
        self._handle(message, dst)

    def _handle(self, message: Message, dst: Node) -> None:
        if message.reply_to is not None:
            future = self._pending_calls.pop(message.reply_to, None)
            if future is not None and not future.done:
                future.set_result(message.payload.result)
            return
        cache = self._handler_cache
        key = (message.dst, message.method)
        try:
            handler = cache[key]
        except KeyError:
            handler = cache[key] = getattr(
                dst, "handle_" + message.method, None
            )
        if handler is None:
            dst.handle_message(message)
            return
        result = handler(message.payload, message.src)
        # A message expects a reply iff it was created by call(); the
        # pending map is the source of truth (send() never registers).
        if message.msg_id in self._pending_calls:
            if isinstance(result, Future):
                result.add_done_callback(
                    lambda f: self._send_reply(message, dst, f.value)
                )
            else:
                self._send_reply(message, dst, result)

    def _send_reply(self, request: Message, dst: Node, result: Any) -> None:
        method = request.method
        reply_method = _REPLY_METHOD.get(method)
        if reply_method is None:
            reply_method = _REPLY_METHOD[method] = method + ".reply"
        payload = Reply(result)
        reply = Message(
            method=reply_method,
            payload=payload,
            src=dst.name,
            dst=request.src,
            reply_to=request.msg_id,
        )
        src = self._nodes[request.src]
        self._route(dst, src, reply.wire_size, reply_method, payload,
                    partial(self._arrive, reply, src))

    # ------------------------------------------------------------------
    # Probe lane: the event shape of call("probe") without its objects

    def _probe_arrive(self, src: Node, dst: Node, sent_clock: float,
                      on_sample: Callable[[str, float], None]) -> None:
        cost = dst.service_time_for(_PROBE_REQUEST)
        if cost > 0.0:
            cpu_delay = dst.service.admission_delay(cost)
            if cpu_delay > 0:
                self.sim.post(cpu_delay, partial(
                    self._probe_handle, src, dst, sent_clock, on_sample
                ))
                return
        self._probe_handle(src, dst, sent_clock, on_sample)

    def _probe_handle(self, src: Node, dst: Node, sent_clock: float,
                      on_sample: Callable[[str, float], None]) -> None:
        # The reply is routed at the clock-read instant, as call() would
        # route it.  The sample is computed here rather than on arrival
        # (same operands, same float); the requester's CPU is not
        # consulted on arrival, as a proxy's service time is zero.
        sample = dst.handle_probe(None, src.name).server_time - sent_clock
        self.probe_messages += 1
        self._route(dst, src, _PROBE_REPLY_BYTES, "probe.reply", None,
                    partial(on_sample, dst.name, sample))
