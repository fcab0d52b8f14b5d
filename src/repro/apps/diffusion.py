"""Horizontal-diffusion stencil program (the paper's second mini-app).

A simplified version of the COSMO atmospheric model's horizontal diffusion:
four dependent stencils (Laplacian, x-flux with limiter, y-flux with
limiter, output) applied to a 3-D regular grid with a limited number of
vertical k-levels, stored column-major (i contiguous, k slowest).  The
domain is decomposed one-dimensionally along j; sub-domains carry a
one-point halo in both j-directions, and each halo consists of one
continuous storage segment per vertical k-level.

Per loop iteration the program runs three compute phases (lap; flx+fly;
out) and communicates four one-point halos: lap to the left neighbour, fly
to the right neighbour, and out to both.  The dCUDA variant sends one
message per k-level (the paper's 26 separate 1 kB messages), whereas the
MPI-CUDA variant packs each halo into a continuous communication buffer and
sends it as a single message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..dcuda import DRank, launch
from ..hw.cluster import Cluster
from ..mpicuda import MPICudaContext, run_mpicuda
from .decomp import Neighbors1D, block_range

__all__ = ["DiffusionWorkload", "reference", "run_dcuda_diffusion",
           "run_mpicuda_diffusion"]

TAG_LAP = 21
TAG_FLY = 22
TAG_OUT = 23

ARRAYS = ("inp", "out", "lap", "flx", "fly")


@dataclass(frozen=True)
class DiffusionWorkload:
    """Grid dimensions per device and iteration count."""

    ni: int = 32              # contiguous horizontal dimension
    nj_per_device: int = 16   # decomposed horizontal dimension, per device
    nk: int = 4               # vertical levels (halo = nk messages in dCUDA)
    steps: int = 3
    coeff: float = 0.025

    def validate(self, ranks_per_device: int) -> None:
        if self.nj_per_device < ranks_per_device:
            raise ValueError(
                f"{self.nj_per_device} rows per device cannot feed "
                f"{ranks_per_device} ranks")


# ----------------------------------------------------------- numerics -------
# The stages run over contiguous spans of rows.  lap, flx and out take a
# 2-D (k, j*ni + i) view of each field (the fields are C-contiguous, so the
# reshape is a view), where the rows [j0, j1) of one k-level are one flat
# span; fly covers full rows, so its 3-D slices already are such spans.
# Each ufunc's inner loop thus runs over the whole span rather than one
# ni-element row.  k is walked in blocks of about _BLOCK elements per
# operand (at least one k-level), so a whole-device op chain stays in cache
# from one ufunc to the next; a per-rank call is one block.  A span that
# starts or ends at an interior column also covers the row-seam cells
# between consecutive rows (column ni-1 of one row, column 0 of the next),
# which the stage does not own; each stage leaves them as it found them.
# Every owned element goes through the exact same sequence of IEEE-754
# operations as the naive expression form, so results are bit-identical.
# The op chains accumulate directly into the destination (the slabs are
# per-block private, and a stage completes synchronously within one
# callback, so no other simulated actor can observe the intermediate
# states).  ``np.copyto(f, 0.0, where=d > 0)`` is the masked-fill form of
# ``np.where(d > 0, 0.0, f)``.

#: Elements per operand in one k-block.
_BLOCK = 32768


def _stage_lap(inp: np.ndarray, lap: np.ndarray, j0: int, j1: int) -> None:
    """lap = 4*in - sum of 4 neighbours, on rows [j0, j1), interior i."""
    nk, _, ni = inp.shape
    a, b = j0 * ni + 1, j1 * ni - 1
    i2, l2 = inp.reshape(nk, -1), lap.reshape(nk, -1)
    kb = _BLOCK // ((j1 - j0) * ni) or 1
    for k0 in range(0, nk, kb):
        k1 = k0 + kb
        lv = l2[k0:k1, a:b]
        np.multiply(i2[k0:k1, a:b], 4.0, out=lv)
        lv -= i2[k0:k1, a + 1:b + 1]
        lv -= i2[k0:k1, a - 1:b - 1]
        lv -= i2[k0:k1, a + ni:b + ni]
        lv -= i2[k0:k1, a - ni:b - ni]
    # lap's boundary columns are never written, so they are zero: re-zero
    # them on the owned rows (the seams are among them).
    lap[:, j0:j1, ::ni - 1] = 0.0


def _stage_flx(inp: np.ndarray, lap: np.ndarray, flx: np.ndarray,
               j0: int, j1: int) -> None:
    """x-flux with limiter on rows [j0, j1), i in [0, ni-1)."""
    nk, _, ni = inp.shape
    a, b = j0 * ni, j1 * ni - 1
    i2, l2, f2 = inp.reshape(nk, -1), lap.reshape(nk, -1), flx.reshape(nk, -1)
    kb = _BLOCK // ((j1 - j0) * ni) or 1
    for k0 in range(0, nk, kb):
        k1 = k0 + kb
        fv = f2[k0:k1, a:b]
        d, m = np.empty(fv.shape), np.empty(fv.shape, dtype=bool)
        np.subtract(l2[k0:k1, a + 1:b + 1], l2[k0:k1, a:b], out=fv)
        np.subtract(i2[k0:k1, a + 1:b + 1], i2[k0:k1, a:b], out=d)
        np.multiply(fv, d, out=d)
        np.greater(d, 0.0, out=m)
        np.copyto(fv, 0.0, where=m)
    # flx's last column is never written, so it is zero: re-zero it on the
    # owned rows (the seams are among them).
    flx[:, j0:j1, -1] = 0.0


def _stage_fly(inp: np.ndarray, lap: np.ndarray, fly: np.ndarray,
               j0: int, j1: int) -> None:
    """y-flux with limiter on rows [j0, j1) (needs lap/in at j+1).

    Full rows: each 3-D slice is already one contiguous span per k-level,
    which numpy iterates as a single run, so no 2-D view is needed.
    """
    nk, _, ni = inp.shape
    kb = _BLOCK // ((j1 - j0) * ni) or 1
    for k0 in range(0, nk, kb):
        k1 = k0 + kb
        fv = fly[k0:k1, j0:j1]
        d, m = np.empty(fv.shape), np.empty(fv.shape, dtype=bool)
        np.subtract(lap[k0:k1, j0 + 1:j1 + 1], lap[k0:k1, j0:j1], out=fv)
        np.subtract(inp[k0:k1, j0 + 1:j1 + 1], inp[k0:k1, j0:j1], out=d)
        np.multiply(fv, d, out=d)
        np.greater(d, 0.0, out=m)
        np.copyto(fv, 0.0, where=m)


def _stage_out(inp: np.ndarray, flx: np.ndarray, fly: np.ndarray,
               out: np.ndarray, coeff: float, j0: int, j1: int) -> None:
    """out = in - coeff * flux divergence, rows [j0, j1), interior i
    (needs fly at j-1)."""
    nk, _, ni = inp.shape
    a, b = j0 * ni + 1, j1 * ni - 1
    i2, x2, y2, o2 = (inp.reshape(nk, -1), flx.reshape(nk, -1),
                      fly.reshape(nk, -1), out.reshape(nk, -1))
    kb = _BLOCK // ((j1 - j0) * ni) or 1
    # out's boundary columns (the seams among them) hold initial-field
    # values or zeros, depending on the in/out swap parity: keep them.
    kept = out[:, j0:j1, ::ni - 1].copy()
    for k0 in range(0, nk, kb):
        k1 = k0 + kb
        ov = o2[k0:k1, a:b]
        np.subtract(x2[k0:k1, a:b], x2[k0:k1, a - 1:b - 1], out=ov)
        ov += y2[k0:k1, a:b]
        ov -= y2[k0:k1, a - ni:b - ni]
        ov *= coeff
        np.subtract(i2[k0:k1, a:b], ov, out=ov)
    out[:, j0:j1, ::ni - 1] = kept


def _phase_costs(points: int) -> Dict[str, Tuple[float, float]]:
    """(flops, bytes) per phase for *points* owned grid points."""
    return {
        "lap": (5.0 * points, 2.0 * 8.0 * points),
        "flux": (8.0 * points, 5.0 * 8.0 * points),
        "out": (6.0 * points, 4.0 * 8.0 * points),
    }


_field_cache: Dict[tuple, np.ndarray] = {}


def initial_field(wl: DiffusionWorkload, num_nodes: int) -> np.ndarray:
    # The field is a pure function of (workload, nodes); benchmark drivers
    # request it several times per node count (dCUDA run, MPI-CUDA run,
    # reference), so cache the pristine copy and hand out duplicates.  Only
    # the most recent key is kept: the requests of one point share it, and
    # a figure-scale field is tens of MB.
    key = (wl, num_nodes)
    field = _field_cache.get(key)
    if field is None:
        nj = wl.nj_per_device * num_nodes
        rng = np.random.default_rng(7)
        field = np.zeros((wl.nk, nj + 2, wl.ni))
        field[:, 1:-1, :] = rng.standard_normal((wl.nk, nj, wl.ni))
        _field_cache.clear()
        _field_cache[key] = field
    return field.copy()


def reference(wl: DiffusionWorkload, num_nodes: int) -> np.ndarray:
    """Serial reference; returns the interior of the final field."""
    nj = wl.nj_per_device * num_nodes
    inp = initial_field(wl, num_nodes)
    # np.zeros (calloc-backed, lazily zeroed) over zeros_like (eager memset):
    # the boundary rows these stages never write must read as 0.0 either way.
    out = np.zeros(inp.shape)
    lap = np.zeros(inp.shape)
    flx = np.zeros(inp.shape)
    fly = np.zeros(inp.shape)
    for _ in range(wl.steps):
        _stage_lap(inp, lap, 1, nj + 1)
        _stage_flx(inp, lap, flx, 1, nj + 1)
        _stage_fly(inp, lap, fly, 1, nj + 1)
        _stage_out(inp, flx, fly, out, wl.coeff, 1, nj + 1)
        inp, out = out, inp
    return inp[:, 1:-1, :].copy()


def make_device_fields(wl: DiffusionWorkload,
                       num_nodes: int) -> Dict[int, Dict[str, np.ndarray]]:
    """Per-device arrays (nk, nj_per_device+2, ni) for the five fields."""
    field = initial_field(wl, num_nodes)
    per_node: Dict[int, Dict[str, np.ndarray]] = {}
    for node in range(num_nodes):
        lo = node * wl.nj_per_device
        arrays = {"inp": field[:, lo:lo + wl.nj_per_device + 2, :].copy()}
        for name in ("out", "lap", "flx", "fly"):
            arrays[name] = np.zeros(arrays["inp"].shape)
        per_node[node] = arrays
    return per_node


def gather_field(fields: Dict[int, Dict[str, np.ndarray]],
                 name: str) -> np.ndarray:
    return np.concatenate([fields[n][name][:, 1:-1, :]
                           for n in sorted(fields)], axis=1)


# --------------------------------------------------------------- dCUDA ------
def dcuda_diffusion_kernel(rank: DRank, wl: DiffusionWorkload,
                           fields: Dict[int, Dict[str, np.ndarray]],
                           stats: Dict[int, dict]):
    size = rank.comm_size()
    r = rank.comm_rank()
    node = rank.node.index
    rpd = rank.runtime.ranks_per_device
    drank = rank.comm_rank("device")
    neigh = Neighbors1D(r, size)
    arrs = fields[node]
    lo, hi = block_range(wl.nj_per_device, rpd, drank)
    j0, j1 = lo + 1, hi + 1  # owned rows within the device array

    # Fully-overlapping windows: each rank registers the whole device array
    # per field (Fig. 3 — shared-memory halo exchange is zero copy).
    wins = {}
    for name in ARRAYS:
        wins[name] = yield from rank.win_create(arrs[name].reshape(-1))
    yield from rank.barrier()

    nj2 = wl.nj_per_device + 2
    row = wl.ni  # elements per (k, j) row segment

    def flat(name):
        return arrs[name].reshape(-1)

    def seg(name, k, j):
        base = (k * nj2 + j) * row
        return flat(name)[base:base + row]

    left_shared = drank > 0
    right_shared = drank < rpd - 1

    def halo_count(to_left: bool) -> int:
        """Notifications one halo transfer produces: overlapping windows of
        same-device ranks need a single zero-copy notified put, remote
        halos arrive as one message per k-level."""
        return 1 if (left_shared if to_left else right_shared) else wl.nk

    def halo_puts(name, cur_name, to_left, tag):
        """Send one j-row (my first or last) to a neighbour.
        *cur_name* resolves in/out swapping."""
        target = neigh.left if to_left else neigh.right
        my_j = j0 if to_left else j1 - 1
        shared = left_shared if to_left else right_shared
        win = wins[name]
        if shared:
            # Identical addresses: the put moves no data, it is purely the
            # fine-grained synchronization (the paper's no-copy case).
            # Single put: hand the backend generator straight up.
            off = (0 * nj2 + my_j) * row
            return rank.put_notify(win, target, off,
                                   seg(cur_name, 0, my_j), tag=tag)
        return remote_halo_puts(name, cur_name, to_left, tag)

    def remote_halo_puts(name, cur_name, to_left, tag):
        # Device boundary: the neighbour device's halo row, one continuous
        # storage segment per vertical k-level (26 separate 1 kB messages
        # at the paper's problem size).
        target = neigh.left if to_left else neigh.right
        my_j = j0 if to_left else j1 - 1
        win = wins[name]
        tgt_j = nj2 - 1 if to_left else 0
        for k in range(wl.nk):
            off = (k * nj2 + tgt_j) * row
            yield from rank.put_notify(win, target, off,
                                       seg(cur_name, k, my_j), tag=tag)

    costs = _phase_costs((hi - lo) * wl.ni * wl.nk)
    names = {"inp": "inp", "out": "out"}  # logical -> physical (swapped)
    t_start = rank.now
    for _ in range(wl.steps):
        inp, out = arrs[names["inp"]], arrs[names["out"]]
        lap, flx, fly = arrs["lap"], arrs["flx"], arrs["fly"]

        # Phase 1: Laplacian, then lap halo to the left neighbour.
        fl, mb = costs["lap"]
        yield from rank.compute(fl, mb, fn=lambda i=inp, l=lap:
                                _stage_lap(i, l, j0, j1), detail="lap")
        if neigh.left is not None:
            yield from halo_puts("lap", "lap", True, TAG_LAP)
        if neigh.right is not None:
            yield from rank.wait_notifications(wins["lap"], tag=TAG_LAP,
                                               count=halo_count(False))

        # Phase 2: x- and y-fluxes, then fly halo to the right neighbour.
        fl, mb = costs["flux"]
        def _flux(i=inp, l=lap, fx=flx, fy=fly):
            _stage_flx(i, l, fx, j0, j1)
            _stage_fly(i, l, fy, j0, j1)

        yield from rank.compute(fl, mb, fn=_flux, detail="flux")
        if neigh.right is not None:
            yield from halo_puts("fly", "fly", False, TAG_FLY)
        if neigh.left is not None:
            yield from rank.wait_notifications(wins["fly"], tag=TAG_FLY,
                                               count=halo_count(True))

        # Phase 3: output, then out halo to both neighbours.
        fl, mb = costs["out"]
        yield from rank.compute(
            fl, mb,
            fn=lambda i=inp, fx=flx, fy=fly, o=out:
            _stage_out(i, fx, fy, o, wl.coeff, j0, j1), detail="out")
        out_name = names["out"]
        if neigh.left is not None:
            yield from halo_puts(out_name, out_name, True, TAG_OUT)
        if neigh.right is not None:
            yield from halo_puts(out_name, out_name, False, TAG_OUT)
        out_count = ((halo_count(True) if neigh.left is not None else 0)
                     + (halo_count(False) if neigh.right is not None else 0))
        yield from rank.wait_notifications(wins[out_name], tag=TAG_OUT,
                                           count=out_count)
        names["inp"], names["out"] = names["out"], names["inp"]

    elapsed = rank.now - t_start
    for name in ARRAYS:
        yield from rank.win_free(wins[name])
    yield from rank.finish()
    if r == 0:
        stats[node] = {"main_loop": elapsed}
    return names["inp"]


def run_dcuda_diffusion(cluster: Cluster, wl: DiffusionWorkload,
                        ranks_per_device: int):
    wl.validate(ranks_per_device)
    fields = make_device_fields(wl, cluster.num_nodes)
    stats: Dict[int, dict] = {}
    res = launch(cluster, dcuda_diffusion_kernel, ranks_per_device,
                 kernel_args={"wl": wl, "fields": fields, "stats": stats})
    final_name = res.results[0]
    return res.elapsed, gather_field(fields, final_name), res


# ------------------------------------------------------------- MPI-CUDA ------
def mpicuda_diffusion_program(ctx: MPICudaContext, wl: DiffusionWorkload,
                              fields: Dict[int, Dict[str, np.ndarray]],
                              nblocks: int, stats: Dict[int, dict]):
    node = ctx.rank
    neigh = Neighbors1D(node, ctx.size)
    arrs = fields[node]
    nj = wl.nj_per_device
    costs = _phase_costs(nj * wl.ni * wl.nk)
    halo_bytes = wl.nk * wl.ni * 8.0
    halo_time = 0.0
    names = {"inp": "inp", "out": "out"}

    def exchange(name, send_left, send_right, tag):
        """Pack + single-message halo exchange; returns elapsed time."""
        nonlocal halo_time
        t0 = ctx.now
        arr = arrs[name]
        reqs = []
        if send_left and neigh.left is not None:
            # Pack kernel: gather nk strided segments into one buffer.
            buf = yield from ctx.launch(
                nblocks, mem_bytes_per_block=2.0 * halo_bytes / nblocks,
                fn=lambda: np.ascontiguousarray(arr[:, 1, :]), detail="pack")
            ctx.isend(neigh.left, buf, tag=tag)
        if send_right and neigh.right is not None:
            buf = yield from ctx.launch(
                nblocks, mem_bytes_per_block=2.0 * halo_bytes / nblocks,
                fn=lambda: np.ascontiguousarray(arr[:, nj, :]), detail="pack")
            ctx.isend(neigh.right, buf, tag=tag)
        if send_right and neigh.left is not None:
            msg = yield from ctx.recv(source=neigh.left, tag=tag)
            arr[:, 0, :] = msg.payload
        if send_left and neigh.right is not None:
            msg = yield from ctx.recv(source=neigh.right, tag=tag)
            arr[:, nj + 1, :] = msg.payload
        halo_time += ctx.now - t0

    for _ in range(wl.steps):
        inp, out = arrs[names["inp"]], arrs[names["out"]]
        lap, flx, fly = arrs["lap"], arrs["flx"], arrs["fly"]
        fl, mb = costs["lap"]
        yield from ctx.launch(nblocks, fl / nblocks, mb / nblocks,
                              fn=lambda i=inp, l=lap:
                              _stage_lap(i, l, 1, nj + 1), detail="lap")
        yield from exchange("lap", True, False, TAG_LAP)
        fl, mb = costs["flux"]
        yield from ctx.launch(
            nblocks, fl / nblocks, mb / nblocks,
            fn=lambda i=inp, l=lap, fx=flx, fy=fly: (
                _stage_flx(i, l, fx, 1, nj + 1),
                _stage_fly(i, l, fy, 1, nj + 1)), detail="flux")
        yield from exchange("fly", False, True, TAG_FLY)
        fl, mb = costs["out"]
        yield from ctx.launch(
            nblocks, fl / nblocks, mb / nblocks,
            fn=lambda i=inp, fx=flx, fy=fly, o=out:
            _stage_out(i, fx, fy, o, wl.coeff, 1, nj + 1), detail="out")
        yield from exchange(names["out"], True, True, TAG_OUT)
        yield from ctx.loop_overhead()
        names["inp"], names["out"] = names["out"], names["inp"]

    stats[node] = {"halo_time": halo_time}
    return names["inp"]


def run_mpicuda_diffusion(cluster: Cluster, wl: DiffusionWorkload,
                          nblocks: int = 26):
    fields = make_device_fields(wl, cluster.num_nodes)
    stats: Dict[int, dict] = {}
    res = run_mpicuda(cluster, mpicuda_diffusion_program,
                      program_args={"wl": wl, "fields": fields,
                                    "nblocks": nblocks, "stats": stats})
    final_name = res.results[0]
    return res.elapsed, gather_field(fields, final_name), stats
