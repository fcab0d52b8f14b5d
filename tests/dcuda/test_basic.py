"""End-to-end tests of the dCUDA stack: windows, notified puts/gets,
flush, barrier, shared- vs distributed-memory paths."""

import numpy as np
import pytest

from repro.dcuda import (
    DCUDA_ANY_SOURCE,
    DCUDA_ANY_TAG,
    DCUDA_COMM_DEVICE,
    DCUDA_COMM_WORLD,
    launch,
)
from repro.hw import Cluster, greina


def test_identity_queries():
    out = {}

    def kernel(rank):
        out[rank.world_rank] = (
            rank.comm_rank(), rank.comm_size(),
            rank.comm_rank(DCUDA_COMM_DEVICE),
            rank.comm_size(DCUDA_COMM_DEVICE))
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=2)
    assert out[0] == (0, 4, 0, 2)
    assert out[3] == (3, 4, 1, 2)


def test_put_notify_distributed():
    """Rank 0 (node 0) puts into rank 1's (node 1) window."""
    buffers = {r: np.zeros(8) for r in range(2)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        if r == 0:
            yield from rank.put_notify(win, 1, 2, np.array([7.0, 8.0]),
                                       tag=5)
        else:
            yield from rank.wait_notifications(win, source=0, tag=5, count=1)
            assert buffers[1][2] == 7.0 and buffers[1][3] == 8.0
        yield from rank.win_free(win)
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=1)
    np.testing.assert_array_equal(buffers[1][2:4], [7.0, 8.0])


def test_put_notify_shared_memory():
    """Two ranks on the same device communicate without the network."""
    buffers = {r: np.zeros(8) for r in range(2)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        if r == 0:
            yield from rank.put_notify(win, 1, 0, np.full(4, 3.0), tag=1)
        else:
            yield from rank.wait_notifications(win, source=0, tag=1, count=1)
            assert buffers[1][0] == 3.0
        yield from rank.win_free(win)
        yield from rank.finish()

    result = launch(Cluster(greina(1)), kernel, ranks_per_device=2)
    np.testing.assert_array_equal(buffers[1][:4], 3.0)
    # No network traffic for shared-memory ranks.
    assert result.runtime.cluster.fabric.nic_stats(0)["messages"] == 0


def test_overlapping_windows_zero_copy():
    """Shared-memory ranks registering the same memory: put is a no-op copy
    but the notification still arrives."""
    shared = np.arange(8, dtype=np.float64)

    def kernel(rank):
        win = yield from rank.win_create(shared)  # both register SAME array
        r = rank.world_rank
        if r == 0:
            # Source slice == target slice -> zero copy.
            yield from rank.put_notify(win, 1, 2, shared[2:5], tag=9)
        else:
            yield from rank.wait_notifications(win, source=0, tag=9, count=1)
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=2)
    np.testing.assert_array_equal(shared, np.arange(8))  # untouched


def test_shared_memory_copies_only_unless_aliased():
    """Disjoint and partly overlapping buffers are copied (and charged a
    device copy); only the exact target range is the zero-copy case."""
    shared = np.arange(16, dtype=np.float64)
    got = np.zeros(3)
    took = {}

    def timed(rank, name, op):
        t0 = rank.now
        yield from op
        took[name] = rank.now - t0

    def kernel(rank):
        win = yield from rank.win_create(shared)
        if rank.world_rank == 0:
            yield from timed(rank, "put aliased",
                             rank.put(win, 1, 2, shared[2:10]))
            yield from timed(rank, "put disjoint",
                             rank.put(win, 1, 2, np.arange(2.0, 10.0)))
            # Overlapping but shifted: a real (overlap-safe) copy.
            yield from timed(rank, "put shifted",
                             rank.put(win, 1, 12, shared[10:14]))
            yield from timed(rank, "get aliased",
                             rank.get(win, 1, 5, shared[5:8]))
            yield from timed(rank, "get disjoint", rank.get(win, 1, 0, got))
            yield from rank.flush(win)
        yield from rank.barrier()
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=2)
    expected = np.arange(16, dtype=np.float64)
    expected[12:16] = [10.0, 11.0, 12.0, 13.0]
    np.testing.assert_array_equal(shared, expected)
    np.testing.assert_array_equal(got, [0.0, 1.0, 2.0])
    assert took["put aliased"] < took["put disjoint"]
    assert took["put aliased"] < took["put shifted"]
    assert took["get aliased"] < took["get disjoint"]


def test_get_notify_distributed():
    buffers = {0: np.zeros(4), 1: np.arange(4, dtype=np.float64) + 10.0}
    got = np.zeros(2)

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        if r == 0:
            yield from rank.get_notify(win, 1, 1, got, tag=3)
            yield from rank.wait_notifications(win, source=1, tag=3, count=1)
            np.testing.assert_array_equal(got, [11.0, 12.0])
        yield from rank.barrier()
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=1)
    np.testing.assert_array_equal(got, [11.0, 12.0])


def test_get_shared_memory():
    buffers = {0: np.zeros(4), 1: np.arange(4, dtype=np.float64)}
    out = np.zeros(4)

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        if r == 0:
            yield from rank.get_notify(win, 1, 0, out, tag=2)
            yield from rank.wait_notifications(win, source=1, tag=2, count=1)
        yield from rank.barrier()
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=2)
    np.testing.assert_array_equal(out, np.arange(4))


def test_flush_completes_unnotified_puts():
    buffers = {r: np.zeros(4) for r in range(2)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        if r == 0:
            yield from rank.put(win, 1, 0, np.ones(4))
            yield from rank.flush(win)
        yield from rank.barrier()
        if r == 1:
            np.testing.assert_array_equal(buffers[1], np.ones(4))
        yield from rank.win_free(win)
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=1)


def test_barrier_synchronizes_all_ranks():
    enter = {}
    leave = {}

    def kernel(rank):
        r = rank.world_rank
        yield rank.env.timeout(r * 1e-3)  # staggered arrival
        enter[r] = rank.now
        yield from rank.barrier()
        leave[r] = rank.now
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=3)
    assert all(t >= max(enter.values()) for t in leave.values())


def test_device_barrier_is_local():
    def kernel(rank):
        yield from rank.barrier(DCUDA_COMM_DEVICE)
        yield from rank.finish()

    result = launch(Cluster(greina(2)), kernel, ranks_per_device=2)
    # Device barriers must not touch the network; finish does (1 arrive +
    # 1 release per extra node).
    stats0 = result.runtime.world.messages_sent
    assert stats0 <= 2


def test_wait_any_source_counts():
    """Stencil-style: wait for lsend+rsend notifications with wildcards."""
    n = 4
    buffers = {r: np.zeros(8) for r in range(n)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        lsend = r - 1 >= 0
        rsend = r + 1 < n
        if lsend:
            yield from rank.put_notify(win, r - 1, 0, np.full(2, float(r)),
                                       tag=7)
        if rsend:
            yield from rank.put_notify(win, r + 1, 2, np.full(2, float(r)),
                                       tag=7)
        yield from rank.wait_notifications(win, DCUDA_ANY_SOURCE,
                                           DCUDA_ANY_TAG,
                                           count=int(lsend) + int(rsend))
        yield from rank.win_free(win)
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=2)
    # Interior rank 1 got halo values from 0 (left) and 2 (right).
    np.testing.assert_array_equal(buffers[1][:2], 2.0)
    np.testing.assert_array_equal(buffers[1][2:4], 0.0)


def test_notification_tag_filtering_keeps_mismatches():
    buffers = {r: np.zeros(4) for r in range(2)}
    matched = {}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        if r == 0:
            yield from rank.put_notify(win, 1, 0, np.ones(1), tag=100)
            yield from rank.put_notify(win, 1, 1, np.ones(1), tag=200)
        else:
            # Wait for tag 200 first; the tag-100 notification must survive.
            yield from rank.wait_notifications(win, tag=200, count=1)
            n100 = yield from rank.test_notifications(win, tag=100, count=5)
            matched["n100_after"] = n100
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=1)
    assert matched["n100_after"] == 1


def test_compute_runs_fn_and_charges_time():
    acc = []

    def kernel(rank):
        t0 = rank.now
        val = yield from rank.compute(flops=1e6, fn=lambda: 42)
        acc.append((val, rank.now - t0))
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=1)
    val, dt = acc[0]
    assert val == 42
    assert dt >= 1e6 / greina().gpu.flops_per_sm * 0.99


def test_log_records_collected():
    def kernel(rank):
        yield from rank.log(f"hello from {rank.world_rank}")
        yield from rank.finish()

    result = launch(Cluster(greina(1)), kernel, ranks_per_device=2)
    messages = sorted(m for _, _, m in result.log_records)
    assert messages == ["hello from 0", "hello from 1"]


def test_put_validation():
    buffers = {r: np.zeros(4) for r in range(2)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        if r == 0:
            yield from rank.put_notify(win, 5, 0, np.ones(1))  # bad rank
        yield from rank.finish()

    with pytest.raises(ValueError, match="not a participant"):
        launch(Cluster(greina(2)), kernel, ranks_per_device=1)


def test_ranks_per_device_capped():
    cluster = Cluster(greina(1))
    cap = cluster.cfg.gpu.max_blocks

    def kernel(rank):
        yield from rank.finish()

    with pytest.raises(ValueError, match="in-flight limit|exceeds"):
        launch(cluster, kernel, ranks_per_device=cap + 1)


def test_multiple_windows_translation():
    """Two windows created in sequence get distinct ids and notifications
    match the right window."""
    a = {r: np.zeros(4) for r in range(2)}
    b = {r: np.zeros(4) for r in range(2)}
    got = {}

    def kernel(rank):
        r = rank.world_rank
        win_a = yield from rank.win_create(a[r])
        win_b = yield from rank.win_create(b[r])
        assert win_a.global_id != win_b.global_id
        if r == 0:
            yield from rank.put_notify(win_b, 1, 0, np.full(1, 5.0), tag=0)
        else:
            # Waiting specifically on win_b must match.
            yield from rank.wait_notifications(win_b, count=1)
            got["b"] = b[1][0]
            n_a = yield from rank.test_notifications(win_a, count=1)
            got["a_matches"] = n_a
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=1)
    assert got["b"] == 5.0
    assert got["a_matches"] == 0
