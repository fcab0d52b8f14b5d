"""Window registrations live until ``win_free`` or the end of the launch.

With the cyclic collector switched off, a buffer that a kernel registered
(or that the caller passed in ``kernel_args`` and then dropped) must be
freed by reference counting alone once ``launch`` has returned and its
result is dropped — the runtime's object graph is cyclic, so a registry
entry left behind would pin the buffer until a full collection.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.dcuda import launch
from repro.hw import Cluster, greina


@pytest.fixture
def no_cyclic_gc():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _registered_count(runtime):
    return sum(len(s.windows) + len(s._win_layout) for s in runtime.systems)


def test_buffers_die_when_the_launch_result_is_dropped(no_cyclic_gc):
    own_refs = []

    def kernel(rank, shared):
        own = np.zeros(8)
        own_refs.append(weakref.ref(own))
        win = yield from rank.win_create(own)
        shared_win = yield from rank.win_create(shared)
        # rank ^ 1 shares this rank's device (a shared-memory put);
        # rank ^ 2 sits on the other node (a distributed put).
        yield from rank.put_notify(win, rank.world_rank ^ 1, 0,
                                   np.ones(2), tag=1)
        yield from rank.put_notify(shared_win, rank.world_rank ^ 2, 0,
                                   np.ones(2), tag=2)
        yield from rank.wait_notifications(win, tag=1, count=1)
        yield from rank.wait_notifications(shared_win, tag=2, count=1)
        yield from rank.finish()

    shared = np.zeros(4)
    shared_ref = weakref.ref(shared)
    res = launch(Cluster(greina(2)), kernel, ranks_per_device=2,
                 kernel_args={"shared": shared})
    assert len(own_refs) == 4
    del shared, res
    assert shared_ref() is None
    assert all(ref() is None for ref in own_refs)


def test_a_launch_that_raises_leaves_no_registration(no_cyclic_gc):
    runtimes, registered = [], []
    shared = np.zeros(4)

    def kernel(rank):
        runtimes.append(rank.runtime)
        win = yield from rank.win_create(shared)
        if rank.world_rank == 0:
            # Zero-copy put into the overlapping window of the same-device
            # peer: fills the window layout cache.
            yield from rank.put(win, 1, 0, shared[:2])
            yield from rank.flush(win)
            registered.append(_registered_count(rank.runtime))
            # Waits for a notification nobody sends: a deadlock.
            yield from rank.wait_notifications(win, tag=7, count=1)
        yield from rank.finish()

    with pytest.raises(RuntimeError, match="deadlock"):
        launch(Cluster(greina(1)), kernel, ranks_per_device=2)
    assert registered == [2]  # the window and its layout for rank 1
    assert _registered_count(runtimes[0]) == 0
