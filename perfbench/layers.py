"""Outside-in instrumentation of ``repro``'s layers.

Nothing here edits the simulator.  Every counter and timer is a wrapper
set on a class attribute of a ``repro`` module before the cluster is
built, so every instance created afterwards (and every bound method the
simulator caches, such as the network's handler table) goes through it.
The wrappers draw no random numbers and schedule no events, so a
wrapped run is the same simulation as a bare one; the orchestrator
proves that per run by comparing transaction-record fingerprints.  The
one exception is a run whose simulated clock stops advancing: a bare
run would spin forever, a wrapped one is stopped (see
:data:`STALL_SCHEDULES`).

Two instruments:

* :class:`Ledger` — always on.  Counts transactions from outside
  (``ClientDriver.submit`` and the ``StatsCollector.add`` record sink),
  counts attempts, times ``Simulator.run``, and stops a run whose
  simulated clock has stopped advancing.  It costs a few calls per
  transaction and one per ``Simulator.schedule``.
* :class:`Spans` — the traced pass only.  Host self time per layer
  (a span minus its child spans, nesting tracked on a stack) and call
  counts, keyed by the layer names the benchmark reports.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Tuple

#: ``Simulator.schedule`` calls at one simulated instant after which the
#: run counts as stalled.  Normal runs schedule at most tens of timers at
#: one instant; a zero-progress loop (a timer that keeps re-arming with a
#: delay below half an ulp of the current time, so the clock never moves)
#: reaches this in well under a second of host time.
STALL_SCHEDULES = 100_000


class Patcher:
    """Sets wrappers on class attributes and can put the originals back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def wrap(self, cls: type, name: str, make: Callable) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself) by ``make(fn)``."""
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        if isinstance(original, staticmethod):
            setattr(cls, name, staticmethod(make(original.__func__)))
        else:
            setattr(cls, name, make(original))

    def restore(self) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()


class Ledger:
    """Transaction accounting and loop timing, read from outside."""

    def __init__(self) -> None:
        #: txn id -> (simulated submit time, its client process)
        self.submitted: Dict[str, Tuple[float, object]] = {}
        self.records: List[object] = []
        self.attempts = 0
        self.clients: List[object] = []
        self.networks: List[object] = []
        self.sims: List[object] = []
        self.run_entered_at = None
        self.loop_wall_s = 0.0
        #: Live timers cancelled (each one removes a scheduled event).
        self.cancels = 0
        #: Raised from the first ``Simulator.run`` when set (set-up probes).
        self.stop_at_run = None
        #: Simulated time at which the run stopped advancing, if it did.
        self.stalled_at = None
        self._instant = None
        self._same_instant = 0

    def install(self, patcher: Patcher, count_cancels: bool = False) -> None:
        from repro.net.network import Network
        from repro.sim.kernel import Simulator, Timer
        from repro.systems.client import ClientDriver
        from repro.txn.stats import StatsCollector

        ledger = self
        clock = time.perf_counter

        def run(fn):
            def timed_run(sim, *args, **kwargs):
                start = clock()
                if ledger.run_entered_at is None:
                    ledger.run_entered_at = start
                    if ledger.stop_at_run is not None:
                        raise ledger.stop_at_run
                ledger.sims.append(sim)
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    ledger.loop_wall_s += clock() - start
            return timed_run

        def schedule(fn):
            def watched_schedule(sim, delay, callback):
                # A simulation whose clock no longer moves would spin
                # until the deadline; stop it, so its in-flight
                # transactions are reported as unfinished.
                if sim._now == ledger._instant:
                    ledger._same_instant += 1
                    if ledger._same_instant == STALL_SCHEDULES:
                        ledger.stalled_at = sim._now
                        sim.stop()
                else:
                    ledger._instant = sim._now
                    ledger._same_instant = 0
                return fn(sim, delay, callback)
            return watched_schedule

        def submit(fn):
            def counted_submit(client, spec):
                process = fn(client, spec)
                ledger.submitted[spec.txn_id] = (client.sim.now, process)
                return process
            return counted_submit

        def add(fn):
            def sink(stats, record):
                ledger.records.append(record)
                return fn(stats, record)
            return sink

        def keep(instances):
            def make(fn):
                def init(self, *args, **kwargs):
                    fn(self, *args, **kwargs)
                    instances.append(self)
                return init
            return make

        patcher.wrap(Simulator, "run", run)
        patcher.wrap(Simulator, "schedule", schedule)
        patcher.wrap(ClientDriver, "submit", submit)
        patcher.wrap(ClientDriver, "__init__", keep(self.clients))
        patcher.wrap(Network, "__init__", keep(self.networks))
        patcher.wrap(StatsCollector, "add", add)
        if count_cancels:
            def cancel(fn):
                def counted_cancel(timer):
                    # Only a cancel that takes a live entry off the
                    # heap removes an event (the kernel's own rule).
                    if not timer.cancelled and timer._sim is not None:
                        ledger.cancels += 1
                    return fn(timer)
                return counted_cancel

            patcher.wrap(Timer, "cancel", cancel)

    def count_attempts(self, system):
        """Wrap one system instance's ``execute``: one call per attempt."""
        execute = system.execute

        def counted_execute(client, spec, attempt):
            self.attempts += 1
            return execute(client, spec, attempt)

        system.execute = counted_execute
        return system

    def events_fired(self) -> int:
        """Events the kernel fired: scheduled, minus live, minus cancelled."""
        sim = self.sims[0]
        return sim._sequence - sim.pending_events - self.cancels


def _handlers(cls: type) -> Iterator[str]:
    """Message handlers and the Raft apply hook defined on ``cls`` itself."""
    for name, value in vars(cls).items():
        if inspect.isfunction(value) and (
            name.startswith("handle_") or name == "on_apply"
        ):
            yield name


def _public(cls: type) -> Iterator[str]:
    for name, value in vars(cls).items():
        if not name.startswith("_") and inspect.isfunction(value):
            yield name


def _node_classes(package: str) -> Iterator[type]:
    """Every Node subclass defined in the modules of ``package``."""
    from repro.cluster.node import Node

    root = importlib.import_module(package)
    names = [package]
    if hasattr(root, "__path__"):
        names += [
            f"{package}.{info.name}"
            for info in pkgutil.iter_modules(root.__path__)
        ]
    for module_name in names:
        module = importlib.import_module(module_name)
        for value in vars(module).values():
            if (
                inspect.isclass(value)
                and issubclass(value, Node)
                and value.__module__ == module_name
            ):
                yield value


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Spans:
    """Per-layer host self time and call counts for the traced pass."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Child time accumulated by each open span; the bottom entry
        #: collects top-level spans.
        self._stack: List[float] = [0.0]
        #: ``Network.call`` requests whose method is ``probe``.
        self.probe_calls = 0

    def timer(self, key: str) -> Callable:
        """A wrapper factory that charges calls to ``key``."""
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def make(fn):
            def timed(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self_s[key] += elapsed - stack.pop()
                    stack[-1] += elapsed
                    calls[key] += 1
            return timed
        return make

    def resumes(self, key: str) -> Callable:
        """A wrapper factory for generator functions: times each resume.

        The proxy forwards sends, throws and close exactly, so
        ``yield from`` in the caller behaves as with the bare generator.
        """
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def drive(gen):
            value, error = None, None
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    if error is None:
                        yielded = gen.send(value)
                    else:
                        yielded = gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = clock() - start
                    self_s[key] += elapsed - stack.pop()
                    stack[-1] += elapsed
                    calls[key] += 1
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the generator
                    value, error = None, exc

        def make(fn):
            def proxied(*args, **kwargs):
                return drive(fn(*args, **kwargs))
            return proxied
        return make

    def install(self, patcher: Patcher) -> None:
        from repro.cluster.clock import Clock
        from repro.cluster.node import Node, ServiceModel
        from repro.core.timestamps import TimestampAssigner
        from repro.net.network import Network
        from repro.net.probing import (
            ClientDelayView,
            ProbeProxy,
            ProbeTargetMixin,
        )
        from repro.raft.node import RaftReplica
        from repro.sim.kernel import Simulator
        from repro.store.kv import KeyValueStore
        from repro.store.locks import LockTable
        from repro.store.occ import PreparedSet
        from repro.systems.base import TransactionSystem
        from repro.systems.client import ClientDriver
        from repro.txn.stats import StatsCollector
        from repro.workloads.base import Workload

        timer = self.timer
        plan = [
            (Simulator, ("run",), "sim"),
            (Network, ("send",), "net.send"),
            (ProbeTargetMixin, ("handle_probe",), "probing.handle"),
            (ProbeProxy, ("estimate", "summary", "estimates"),
             "probing.estimate"),
            (ClientDelayView, ("estimate", "max_estimate"),
             "probing.estimate"),
            (RaftReplica, ("propose",), "raft.propose"),
            (RaftReplica, tuple(_handlers(RaftReplica)), "raft.handler"),
            (TimestampAssigner, ("assign", "estimate_owd"),
             "core.timestamp"),
            (ClientDriver, ("handle_txn_event",), "client.event"),
            (Clock, ("now",), "cluster.clock"),
            (ServiceModel, ("admission_delay",), "cluster.service"),
            (Node, ("service_time_for",), "cluster.service"),
            (StatsCollector, ("add",), "txn.add"),
            (StatsCollector,
             ("committed", "percentile_latency", "p95_latency", "goodput",
              "abort_summary"),
             "txn.report"),
        ]
        for cls in (KeyValueStore, PreparedSet, LockTable):
            plan.append((cls, tuple(_public(cls)), "store"))
        for package, key in (
            ("repro.core", "core.handler"),
            ("repro.systems.carousel", "carousel.handler"),
            ("repro.systems.twopl", "twopl.handler"),
            ("repro.systems.tapir", "tapir.handler"),
        ):
            for cls in _node_classes(package):
                plan.append((cls, tuple(_handlers(cls)), key))
        for cls in _subclasses(Workload):
            if "next_transaction" in vars(cls):
                plan.append((cls, ("next_transaction",), "workloads"))
        for cls, names, key in plan:
            for name in names:
                patcher.wrap(cls, name, timer(key))

        # ``call`` is timed with ``send`` and also counts probe requests.
        spans = self
        send_timer = timer("net.send")

        def call(fn):
            timed = send_timer(fn)

            def counted_call(network, src, dst_name, method, payload):
                if method == "probe":
                    spans.probe_calls += 1
                return timed(network, src, dst_name, method, payload)
            return counted_call

        patcher.wrap(Network, "call", call)
        for cls in _subclasses(TransactionSystem):
            if "execute" in vars(cls):
                patcher.wrap(cls, "execute", self.resumes("systems.execute"))
