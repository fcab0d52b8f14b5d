"""Correctness tests for the horizontal-diffusion mini-application."""

import numpy as np
import pytest

from repro.apps import diffusion
from repro.apps.diffusion import (
    ARRAYS,
    DiffusionWorkload,
    reference,
    run_dcuda_diffusion,
    run_mpicuda_diffusion,
)
from repro.hw import Cluster, greina


def small_wl(**kw):
    defaults = dict(ni=12, nj_per_device=8, nk=3, steps=3)
    defaults.update(kw)
    return DiffusionWorkload(**defaults)


def test_reference_changes_field():
    wl = small_wl()
    ref = reference(wl, 1)
    from repro.apps.diffusion import initial_field
    init = initial_field(wl, 1)[:, 1:-1, :]
    assert not np.allclose(ref, init)


@pytest.mark.parametrize("nodes,rpd", [(1, 1), (1, 2), (2, 1), (2, 2),
                                       (3, 2)])
def test_dcuda_matches_reference(nodes, rpd):
    wl = small_wl()
    elapsed, result, _ = run_dcuda_diffusion(Cluster(greina(nodes)), wl, rpd)
    np.testing.assert_allclose(result, reference(wl, nodes), rtol=1e-12)
    assert elapsed > 0


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_mpicuda_matches_reference(nodes):
    wl = small_wl()
    elapsed, result, stats = run_mpicuda_diffusion(Cluster(greina(nodes)),
                                                   wl, nblocks=4)
    np.testing.assert_allclose(result, reference(wl, nodes), rtol=1e-12)
    if nodes > 1:
        assert stats[0]["halo_time"] > 0


def test_variants_agree():
    wl = small_wl(steps=4)
    _, a, _ = run_dcuda_diffusion(Cluster(greina(2)), wl, 2)
    _, b, _ = run_mpicuda_diffusion(Cluster(greina(2)), wl, nblocks=4)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_dcuda_message_count_per_k_level():
    """dCUDA sends one message per k-level per halo (the paper's 26x 1kB
    pattern): on 2 nodes with 1 rank/device, per iteration the boundary
    pair exchanges lap (nk) + fly (nk) + out (2*nk) messages."""
    wl = small_wl(nk=5, steps=2)
    cluster = Cluster(greina(2))
    run_dcuda_diffusion(cluster, wl, 1)
    world = None
    # Count data-bearing fabric messages: each notified put sends meta +
    # payload, so payload messages = total puts = 4*nk per iteration.
    stats0 = cluster.fabric.nic_stats(0)
    stats1 = cluster.fabric.nic_stats(1)
    # node0 sends lap (to nobody: its left is None)... node0's rank 0 is
    # leftmost; it sends out+fly right; node1 sends lap+out left.
    payload_msgs = stats0["messages"] + stats1["messages"]
    # At least 4*nk*steps payload messages plus metas and sync traffic.
    assert payload_msgs >= 2 * (4 * wl.nk * wl.steps)


def test_workload_validation():
    wl = small_wl(nj_per_device=2)
    with pytest.raises(ValueError):
        run_dcuda_diffusion(Cluster(greina(1)), wl, ranks_per_device=4)


def test_field_cache_keeps_only_latest_node_count():
    """The pristine-field cache holds one field: the three requests of a
    weak-scaling point share a key, and older fields would stay alive."""
    from repro.apps import diffusion

    wl = small_wl()
    diffusion.initial_field(wl, 1)
    diffusion.initial_field(wl, 2)
    assert list(diffusion._field_cache) == [(wl, 2)]
    np.testing.assert_array_equal(diffusion.initial_field(wl, 1),
                                  diffusion.initial_field(wl, 1))
    assert list(diffusion._field_cache) == [(wl, 1)]


# --------------------------------------------- stage kernels, bit for bit ---
# The plain expression form of each stage, written independently of the
# kernels (reference() shares the kernels with both variants, so only this
# comparison catches a kernel bug).  Each writes exactly its stage's region.
COEFF = 0.025


def naive_lap(f, j0, j1):
    inp = f["inp"]
    f["lap"][:, j0:j1, 1:-1] = (inp[:, j0:j1, 1:-1] * 4.0
                                - inp[:, j0:j1, 2:] - inp[:, j0:j1, :-2]
                                - inp[:, j0 + 1:j1 + 1, 1:-1]
                                - inp[:, j0 - 1:j1 - 1, 1:-1])


def naive_flx(f, j0, j1):
    inp, lap = f["inp"], f["lap"]
    flux = lap[:, j0:j1, 1:] - lap[:, j0:j1, :-1]
    d = inp[:, j0:j1, 1:] - inp[:, j0:j1, :-1]
    f["flx"][:, j0:j1, :-1] = np.where(flux * d > 0, 0.0, flux)


def naive_fly(f, j0, j1):
    inp, lap = f["inp"], f["lap"]
    flux = lap[:, j0 + 1:j1 + 1, :] - lap[:, j0:j1, :]
    d = inp[:, j0 + 1:j1 + 1, :] - inp[:, j0:j1, :]
    f["fly"][:, j0:j1, :] = np.where(flux * d > 0, 0.0, flux)


def naive_out(f, j0, j1):
    inp, flx, fly = f["inp"], f["flx"], f["fly"]
    div = (flx[:, j0:j1, 1:-1] - flx[:, j0:j1, :-2] + fly[:, j0:j1, 1:-1]
           - fly[:, j0 - 1:j1 - 1, 1:-1])
    f["out"][:, j0:j1, 1:-1] = inp[:, j0:j1, 1:-1] - div * COEFF


#: stage -> (written field, kernel call, naive form, written columns)
STAGES = {
    "lap": ("lap", lambda f, j0, j1: diffusion._stage_lap(
        f["inp"], f["lap"], j0, j1), naive_lap, slice(1, -1)),
    "flx": ("flx", lambda f, j0, j1: diffusion._stage_flx(
        f["inp"], f["lap"], f["flx"], j0, j1), naive_flx, slice(0, -1)),
    "fly": ("fly", lambda f, j0, j1: diffusion._stage_fly(
        f["inp"], f["lap"], f["fly"], j0, j1), naive_fly, slice(None)),
    "out": ("out", lambda f, j0, j1: diffusion._stage_out(
        f["inp"], f["flx"], f["fly"], f["out"], COEFF, j0, j1),
        naive_out, slice(1, -1)),
}


def stage_fields(stage, nk=7, nj=8, ni=9):
    """Fields as the program holds them, plus NaN, inf and zero cells: the
    columns no stage writes are zero in the field a stage writes (lap's
    boundary columns, flx's last column), while inp and out carry non-zero
    boundary columns (initial-field values, by swap parity).  Fields a
    stage only reads are random everywhere."""
    rng = np.random.default_rng(11)
    f = {name: rng.standard_normal((nk, nj + 2, ni)) for name in ARRAYS}
    if stage == "lap":
        f["lap"][:, :, [0, -1]] = 0.0
    f["flx"][:, :, -1] = 0.0
    for name, arr in f.items():
        cells = rng.random(arr.shape)
        interior = np.zeros(arr.shape, dtype=bool)
        interior[:, :, 1:-1] = True
        if name in ("inp", "out", "fly"):
            interior[:] = True
        # Signed zeros make equal neighbours, so the limiter sees d == 0.
        arr[(cells > 0.4) & (cells < 0.5) & interior] = 0.0
        arr[(cells > 0.5) & (cells < 0.55) & interior] = -0.0
        arr[(cells < 0.03) & interior] = np.nan
        arr[(cells > 0.97) & interior] = np.inf
        arr[(cells > 0.985) & interior] = -np.inf
    return f


def bits(a):
    return a.view(np.int64)


@pytest.mark.parametrize("blocks", ["default", "ragged"])
@pytest.mark.parametrize("rows", [(3, 4), (3, 5), (3, 6), (1, 9)],
                         ids=["1row", "2rows", "3rows", "device"])
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_stage_matches_naive_form_bit_for_bit(stage, rows, blocks,
                                              monkeypatch):
    """Each kernel matches the expression form byte for byte, over one or
    several k-blocks, and leaves every cell it does not own as it was."""
    j0, j1 = rows
    field, kernel, naive, cols = STAGES[stage]
    f = stage_fields(stage)
    if blocks == "ragged":
        # kb = 2 k-levels per block: blocks of 2, 2, 2 and 1 over nk = 7.
        monkeypatch.setattr(diffusion, "_BLOCK", 2 * (j1 - j0) * 9)
    expected = {name: a.copy() for name, a in f.items()}
    before = {name: a.copy() for name, a in f.items()}
    with np.errstate(all="ignore"):
        kernel(f, j0, j1)
        naive(expected, j0, j1)
    for name in ARRAYS:
        assert np.array_equal(bits(f[name]), bits(expected[name])), name
    # Every cell outside the write region (seams, boundary columns, other
    # rows, other fields) is byte-identical to before the call.
    outside = np.ones(f[field].shape, dtype=bool)
    outside[:, j0:j1, cols] = False
    assert np.array_equal(bits(f[field])[outside],
                          bits(before[field])[outside])
    for name in ARRAYS:
        if name != field:
            assert np.array_equal(bits(f[name]), bits(before[name])), name
