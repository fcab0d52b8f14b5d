"""Unit tests for FairShareLink and SerialLink."""

import pytest

from repro.sim import Environment, FairShareLink, SerialLink


def test_single_flow_takes_bytes_over_bandwidth():
    env = Environment()
    link = FairShareLink(env, bandwidth=100.0)

    def proc(env):
        yield link.transfer(500.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(5.0)


def test_flow_events_are_named_after_the_link():
    env = Environment()
    link = FairShareLink(env, bandwidth=100.0, name="fabric.n0")
    assert link.transfer(500.0).name == "xfer:fabric.n0"
    assert link.transfer(0.0).name == "xfer:fabric.n0"


def test_two_equal_flows_share_bandwidth():
    env = Environment()
    link = FairShareLink(env, bandwidth=100.0)
    done = {}

    def proc(env, tag):
        yield link.transfer(500.0)
        done[tag] = env.now

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    # Both share 100 B/s → each effectively 50 B/s → 10 s.
    assert done["a"] == pytest.approx(10.0)
    assert done["b"] == pytest.approx(10.0)


def test_total_throughput_never_exceeds_bandwidth():
    env = Environment()
    link = FairShareLink(env, bandwidth=10.0)
    finish = []

    def proc(env, nbytes):
        yield link.transfer(nbytes)
        finish.append(env.now)

    for nbytes in (10.0, 20.0, 30.0):
        env.process(proc(env, nbytes))
    env.run()
    # 60 bytes total through a 10 B/s link: last finisher at exactly 6 s.
    assert max(finish) == pytest.approx(6.0)


def test_short_flow_finishes_first_and_frees_share():
    env = Environment()
    link = FairShareLink(env, bandwidth=100.0)
    done = {}

    def proc(env, tag, nbytes):
        yield link.transfer(nbytes)
        done[tag] = env.now

    env.process(proc(env, "short", 100.0))
    env.process(proc(env, "long", 300.0))
    env.run()
    # Phase 1: both at 50 B/s; short (100 B) done at t=2, long has 200 B left.
    # Phase 2: long alone at 100 B/s → 2 more seconds → t=4.
    assert done["short"] == pytest.approx(2.0)
    assert done["long"] == pytest.approx(4.0)


def test_late_arrival_slows_existing_flow():
    env = Environment()
    link = FairShareLink(env, bandwidth=100.0)
    done = {}

    def first(env):
        yield link.transfer(400.0)
        done["first"] = env.now

    def second(env):
        yield env.timeout(2.0)  # first has 200 B left at t=2
        yield link.transfer(100.0)
        done["second"] = env.now

    env.process(first(env))
    env.process(second(env))
    env.run()
    # t=2..4: both at 50 B/s. second (100 B) done at t=4; first has 100 B
    # left, then alone at 100 B/s → done at t=5.
    assert done["second"] == pytest.approx(4.0)
    assert done["first"] == pytest.approx(5.0)


def test_weighted_flows():
    env = Environment()
    link = FairShareLink(env, bandwidth=90.0)
    done = {}

    def proc(env, tag, nbytes, weight):
        yield link.transfer(nbytes, weight=weight)
        done[tag] = env.now

    env.process(proc(env, "heavy", 120.0, 2.0))
    env.process(proc(env, "light", 60.0, 1.0))
    env.run()
    # heavy gets 60 B/s, light 30 B/s → both finish at t=2.
    assert done["heavy"] == pytest.approx(2.0)
    assert done["light"] == pytest.approx(2.0)


def test_zero_byte_transfer_completes_immediately():
    env = Environment()
    link = FairShareLink(env, bandwidth=1.0)
    ev = link.transfer(0.0)
    assert ev.triggered
    assert link.active_flows == 0


def test_transfer_validation():
    env = Environment()
    link = FairShareLink(env, bandwidth=1.0)
    with pytest.raises(ValueError):
        link.transfer(-1.0)
    with pytest.raises(ValueError):
        link.transfer(1.0, weight=0.0)
    with pytest.raises(ValueError):
        FairShareLink(env, bandwidth=0.0)


def test_bytes_transferred_accounting():
    env = Environment()
    link = FairShareLink(env, bandwidth=10.0)

    def proc(env):
        yield link.transfer(30.0)
        yield link.transfer(20.0)

    env.process(proc(env))
    env.run()
    assert link.bytes_transferred == pytest.approx(50.0)


def test_stream_helper():
    env = Environment()
    link = FairShareLink(env, bandwidth=10.0)

    def proc(env):
        yield from link.stream(20.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(2.0)


# -------------------------------------------------------------- SerialLink ----
def test_serial_link_latency_only():
    env = Environment()
    link = SerialLink(env, latency=0.5)

    def proc(env):
        yield from link.transact()
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(0.5)


def test_serial_link_latency_plus_bytes():
    env = Environment()
    link = SerialLink(env, latency=1.0, bandwidth=10.0)

    def proc(env):
        yield from link.transact(50.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(6.0)


def test_serial_link_serializes_users():
    env = Environment()
    link = SerialLink(env, latency=1.0)
    done = []

    def proc(env):
        yield from link.transact()
        done.append(env.now)

    for _ in range(3):
        env.process(proc(env))
    env.run()
    assert done == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_serial_link_accounting():
    env = Environment()
    link = SerialLink(env, latency=1.0, bandwidth=100.0)

    def proc(env):
        yield from link.transact(100.0)
        yield from link.transact(0.0)

    env.process(proc(env))
    env.run()
    assert link.transactions == 2
    assert link.busy_time == pytest.approx(3.0)


def test_serial_link_validation():
    env = Environment()
    with pytest.raises(ValueError):
        SerialLink(env, latency=-1.0)
    with pytest.raises(ValueError):
        SerialLink(env, latency=0.0, bandwidth=0.0)
    link = SerialLink(env, latency=0.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        # transact is a generator; validation happens on first step
        next(link.transact(-5.0))

