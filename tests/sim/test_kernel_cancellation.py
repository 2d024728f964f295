"""Cancellation bookkeeping: live-event counts and heap compaction."""

from repro.obs.core import Observability
from repro.sim import Simulator


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    keep = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
    drop = [sim.schedule(float(i + 10), lambda: None) for i in range(2)]
    assert sim.pending_events == 5
    drop[0].cancel()
    assert sim.pending_events == 4
    assert keep  # silence unused-variable linters


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    timer.cancel()
    timer.cancel()
    assert sim.pending_events == 1


def test_cancelled_callbacks_never_fire():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    timer = sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(3.0, lambda: fired.append("c"))
    timer.cancel()
    sim.run()
    assert fired == ["a", "c"]


def test_heap_compacts_when_cancelled_dominate():
    sim = Simulator()
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    assert sim.heap_size == 100
    # Cancel until cancelled entries outnumber live ones; the heap must
    # shrink rather than accumulate dead weight.  (Compaction triggers
    # as soon as cancelled entries dominate — at the 51st cancel here —
    # so the raw heap never holds a cancelled majority.)
    for timer in timers[:60]:
        timer.cancel()
    assert sim.pending_events == 40
    assert sim.heap_size < 60
    assert sim.heap_size - sim.pending_events <= sim.pending_events


def test_compaction_preserves_firing_order():
    sim = Simulator()
    order = []
    timers = {}
    for i in range(50):
        timers[i] = sim.schedule(
            float(i + 1), lambda i=i: order.append(i)
        )
    # Cancel most of the even ones to force a compaction mid-schedule.
    cancelled = [i for i in range(0, 50, 2)] + [1, 3, 5]
    for i in cancelled:
        timers[i].cancel()
    sim.run()
    expected = [i for i in range(50) if i not in set(cancelled)]
    assert order == expected


def test_cancel_after_fire_keeps_counter_sane():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    sim.run()
    # Firing removed it from the heap; a late cancel must not make the
    # live-event count go negative.
    timer.cancel()
    assert sim.pending_events == 0
    assert sim.heap_size == 0


def test_cancel_from_callback_before_deadline():
    sim = Simulator()
    fired = []
    victim = sim.schedule(2.0, lambda: fired.append("victim"))
    sim.schedule(1.0, lambda: victim.cancel())
    sim.schedule(3.0, lambda: fired.append("late"))
    sim.run()
    assert fired == ["late"]


def test_determinism_with_heavy_cancellation():
    def run_once():
        sim = Simulator()
        order = []
        timers = []
        for i in range(200):
            timers.append(
                sim.schedule(float(i % 7) + 0.1, lambda i=i: order.append(i))
            )
        for i in range(0, 200, 3):
            timers[i].cancel()
        sim.run()
        return order

    assert run_once() == run_once()


def test_run_until_with_cancelled_head():
    sim = Simulator()
    fired = []
    head = sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    head.cancel()
    sim.run(until=5.0)
    assert fired == [2]
    assert sim.now == 5.0


def test_events_fired_counts_callbacks_that_ran():
    """``sim.events_fired`` equals the callbacks that fired, across
    several ``run`` calls and a ``stop``, excluding cancelled timers
    whether compacted away or lazily skipped; and it matches the
    outside count scheduled − pending − cancelled."""
    sim = Simulator()
    obs = Observability().attach(sim)
    ran = []
    cancels = 0

    def cancel(timer):
        nonlocal cancels
        cancels += not timer.cancelled and timer._sim is not None
        timer.cancel()

    def check():
        fired = obs.metrics.counter("sim.events_fired").value
        assert fired == len(ran)
        assert fired == sim._sequence - sim.pending_events - cancels

    timers = [
        sim.schedule(float(i + 1), lambda i=i: ran.append(i))
        for i in range(100)
    ]
    for i in range(10):
        sim.post(i + 0.5, lambda: ran.append("post"))
    sim.schedule(30.5, lambda: (ran.append("stop"), sim.stop()))
    for timer in timers[40:100]:
        cancel(timer)  # cancelled entries dominate: the heap compacts
    assert sim.heap_size - sim.pending_events < 60
    sim.run(until=20.0)
    check()

    dead = sim.heap_size - sim.pending_events
    cancel(timers[24])
    cancel(timers[29])
    assert sim.heap_size - sim.pending_events == dead + 2  # lazy skips
    sim.run()  # returns at the stop
    assert sim.now == 30.5
    check()

    cancel(timers[20])  # already fired: removes no event
    cancel(timers[36])
    sim.run()
    check()
    assert sim.pending_events == 0
    assert len(ran) == 10 + 1 + 40 - 3
