"""Tests for the weak-scaling drivers on miniature workloads."""

import numpy as np
import pytest

from repro.apps.diffusion import DiffusionWorkload
from repro.apps.particles import ParticleWorkload
from repro.apps.spmv import SpmvWorkload
from repro.bench import (
    particles_weak_scaling,
    spmv_weak_scaling,
    stencil_weak_scaling,
)


def test_stencil_driver_produces_table():
    wl = DiffusionWorkload(ni=8, nj_per_device=6, nk=2, steps=2)
    table = stencil_weak_scaling(node_counts=(1, 2), wl=wl,
                                 ranks_per_device=3, nblocks=4)
    assert table.column("nodes") == [1, 2]
    d = table.column("dcuda [ms]")
    m = table.column("mpi-cuda [ms]")
    halo = table.column("halo exchange [ms]")
    assert all(v > 0 for v in d + m)
    assert halo[0] == 0.0 and halo[1] > 0.0
    assert "grid points per device" in table.notes[0]


def test_particles_driver_produces_table():
    wl = ParticleWorkload(cells_per_node=8, particles_per_node=48, steps=2)
    table = particles_weak_scaling(node_counts=(1, 2), wl=wl,
                                   ranks_per_device=2, nblocks=4)
    assert table.column("nodes") == [1, 2]
    assert all(v > 0 for v in table.column("dcuda [ms]"))


def test_spmv_driver_produces_table():
    wl = SpmvWorkload(n_per_device=16, density=0.2, iters=1)
    table = spmv_weak_scaling(node_counts=(1, 4), wl=wl,
                              ranks_per_device=2, nblocks=4)
    assert table.column("nodes") == [1, 4]
    comm = table.column("communication [ms]")
    assert comm[0] == 0.0 and comm[1] > 0.0


def test_driver_verification_catches_corruption(monkeypatch):
    """verify=True really compares against the reference."""
    import repro.bench.weak_scaling as ws

    wl = DiffusionWorkload(ni=8, nj_per_device=6, nk=2, steps=2)

    original = ws.diffusion_reference
    monkeypatch.setattr(ws, "diffusion_reference",
                        lambda *a, **k: original(*a, **k) + 1.0)
    with pytest.raises(AssertionError):
        ws.stencil_weak_scaling(node_counts=(1,), wl=wl,
                                ranks_per_device=2, nblocks=4)


def test_driver_verify_false_skips_reference():
    wl = DiffusionWorkload(ni=8, nj_per_device=6, nk=2, steps=2)
    table = stencil_weak_scaling(node_counts=(1,), wl=wl,
                                 ranks_per_device=2, nblocks=4,
                                 verify=False)
    assert len(table.rows) == 1


def _stencil_point(ws):
    wl = DiffusionWorkload(ni=8, nj_per_device=6, nk=2, steps=2)
    return ws.scaling_point("stencil", 1, wl=wl, ranks_per_device=2,
                            nblocks=4)


def test_bit_exact_outputs_skip_the_tolerance_check(monkeypatch):
    """Both variants reproduce the reference bit for bit, so the point
    never pays for assert_allclose."""
    import repro.bench.weak_scaling as ws

    calls = []
    monkeypatch.setattr(np.testing, "assert_allclose",
                        lambda *a, **k: calls.append(k))
    _stencil_point(ws)
    assert calls == []


@pytest.mark.parametrize("scale,raises", [(1 + 1e-6, True),
                                          (float("nan"), True),
                                          (1 + 1e-12, False)],
                         ids=["beyond-rtol", "nan", "within-rtol"])
def test_inexact_outputs_take_the_tolerance_check(monkeypatch, scale,
                                                  raises):
    """A reference that differs in one cell sends both outputs through
    assert_allclose, which still decides pass or fail."""
    import repro.bench.weak_scaling as ws

    original = ws.diffusion_reference

    def perturbed(*a, **k):
        ref = original(*a, **k)
        ref[0, 0, 1] *= scale
        return ref

    real = np.testing.assert_allclose
    calls = []

    def spy(*a, **k):
        calls.append(k)
        return real(*a, **k)

    monkeypatch.setattr(ws, "diffusion_reference", perturbed)
    monkeypatch.setattr(np.testing, "assert_allclose", spy)
    if raises:
        with pytest.raises(AssertionError):
            _stencil_point(ws)
        assert len(calls) == 1
    else:
        _stencil_point(ws)
        assert calls == [dict(rtol=1e-9, atol=0.0)] * 2
