"""Unit tests for the runtime system: rank mapping, window registry,
collective gating, and cross-node synchronization."""

import numpy as np
import pytest

from repro.dcuda import launch
from repro.hw import Cluster, greina
from repro.runtime import DCudaRuntime


def make_runtime(nodes=2, rpd=2):
    cluster = Cluster(greina(nodes))
    rt = DCudaRuntime(cluster, ranks_per_device=rpd)
    return cluster, rt


# ---------------------------------------------------------- rank topology ----
def test_rank_to_node_mapping():
    _, rt = make_runtime(nodes=3, rpd=4)
    assert rt.total_ranks == 12
    assert rt.node_of_rank(0) == 0
    assert rt.node_of_rank(3) == 0
    assert rt.node_of_rank(4) == 1
    assert rt.node_of_rank(11) == 2
    assert rt.state_of(5).device_rank == 1
    assert rt.bm_of(7).state.world_rank == 7


def test_rank_out_of_range():
    _, rt = make_runtime()
    with pytest.raises(ValueError):
        rt.node_of_rank(99)
    with pytest.raises(ValueError):
        rt.check_rank(-1)


def test_ranks_per_device_validation():
    cluster = Cluster(greina(1))
    with pytest.raises(ValueError):
        DCudaRuntime(cluster, ranks_per_device=0)
    with pytest.raises(ValueError):
        DCudaRuntime(cluster, ranks_per_device=10_000)


def test_double_start_rejected():
    cluster = Cluster(greina(1))
    rt = DCudaRuntime(cluster, ranks_per_device=1)
    rt.start()
    with pytest.raises(RuntimeError):
        rt.systems[0].start()


def test_xfer_ids_unique():
    _, rt = make_runtime()
    ids = [rt.next_xfer_id() for _ in range(100)]
    assert len(set(ids)) == 100


# ------------------------------------------------------- window registry ----
def test_window_global_ids_consistent_across_nodes():
    """Windows created collectively in the same order get the same global
    id on every node (the counter-consistency the paper's hash-map
    translation relies on)."""
    gids = {}

    def kernel(rank):
        buf = np.zeros(4)
        win_a = yield from rank.win_create(buf)
        win_b = yield from rank.win_create(np.zeros(2))
        gids.setdefault(rank.world_rank, (win_a.global_id, win_b.global_id))
        yield from rank.finish()

    launch(Cluster(greina(3)), kernel, ranks_per_device=2)
    unique = set(gids.values())
    assert len(unique) == 1  # every rank agrees
    a, b = unique.pop()
    assert a != b


def test_device_and_world_windows_do_not_collide():
    gids = {}

    def kernel(rank):
        w_world = yield from rank.win_create(np.zeros(4))
        w_dev = yield from rank.win_create(np.zeros(4), comm="device")
        gids[rank.world_rank] = (w_world.global_id, w_dev.global_id)
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=1)
    for w, d in gids.values():
        assert w != d
        assert w[0] == "world"
        assert d[0].startswith("device")


def test_window_buffer_lookup_errors():
    _, rt = make_runtime()
    with pytest.raises(KeyError, match="no registration"):
        rt.systems[0].window_buffer(("world", 0), 0)


def test_unknown_communicator_rejected():
    cluster, rt = make_runtime()
    with pytest.raises(ValueError, match="unknown communicator"):
        rt.systems[0]._participants("galaxy")


# ------------------------------------------------------ win_free collective --
def test_win_free_removes_registration():
    cluster = Cluster(greina(2))
    seen = {}

    def kernel(rank):
        win = yield from rank.win_create(np.zeros(4))
        seen["gid"] = win.global_id
        system = rank.runtime.system_of(rank.world_rank)
        seen[rank.world_rank] = [win.global_id in system.windows]
        yield from rank.win_free(win)
        # Freed mid-launch, not only by the end-of-launch release.
        seen[rank.world_rank].append(win.global_id in system.windows)
        yield from rank.finish()

    res = launch(cluster, kernel, ranks_per_device=1)
    assert seen[0] == seen[1] == [True, False]
    for system in res.runtime.systems:
        assert seen["gid"] not in system.windows


# --------------------------------------------------- log records ordering ----
def test_log_records_carry_time_and_rank():
    def kernel(rank):
        yield rank.env.timeout(rank.world_rank * 1e-5)
        yield from rank.log(f"m{rank.world_rank}")
        yield from rank.finish()

    res = launch(Cluster(greina(1)), kernel, ranks_per_device=3)
    assert len(res.log_records) == 3
    for t, r, msg in res.log_records:
        assert msg == f"m{r}"
        assert t >= r * 1e-5
