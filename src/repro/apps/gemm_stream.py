"""Pipelined (microbatched) GEMM forward pass in the streaming-GEMV style.

One *producer* rank streams the input activations ``X`` tile by tile
into every worker's double buffer while the workers multiply: worker *w*
owns a row block of the weight matrix ``W`` and computes its block of
``Y = W @ X`` for tile ``t`` while tile ``t+1`` is already in flight —
the Fig.-1 overlap claim applied to an ML forward pass.  Flow control is
credit-based: a worker acknowledges a consumed buffer slot with a
one-element notified put, and the producer reuses a slot only after
every worker's ack for it arrived, so the double buffer is never
overwritten while a multiply reads it.  The pass ends with an
``all_gather`` over the workers (any algorithm family), leaving the full
``Y`` on every worker.

Run modes isolate the two phases for the overlap-efficiency measurement
(the Fig. 7/8 methodology): ``both`` runs the full pipeline,
``compute`` multiplies preloaded tiles without any traffic, ``stream``
moves the traffic without multiplying.

The host operands are staged once per launch: :func:`run_gemm_pipeline`
draws ``W`` and ``X`` a single time, marks them read-only and hands
every rank the same arrays; a worker multiplies a row-block view of the
shared ``W``.  :func:`gemm_reference` redraws both from the seed, so the
check shares no state with the run it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..dcuda import DRank, launch
from ..dcuda.collectives import all_gather, chunk_bounds, scratch_elems
from ..hw.cluster import Cluster

__all__ = ["GemmWorkload", "gemm_reference", "run_gemm_pipeline",
           "overlap_efficiency", "MODES"]

TAG_TILE = 31
TAG_ACK = 7001
TAG_GATHER = 9000

#: Run modes: full pipeline, compute phase only, streaming phase only.
MODES = ("both", "compute", "stream")


@dataclass(frozen=True)
class GemmWorkload:
    """Shapes of one pipelined forward pass ``Y = W @ X``.

    ``W`` is ``(m, k)`` split row-wise over the workers; ``X`` is
    ``(k, batch)`` streamed in ``tiles`` column tiles.
    """

    m: int = 24
    k: int = 12
    batch: int = 8
    tiles: int = 4
    #: Stream-buffer depth in tiles (credit window): the producer keeps
    #: up to this many tiles in flight per worker before stalling on
    #: acks, so one slow multiply does not serialize the pipeline.
    slots: int = 2
    seed: int = 13

    def validate(self, workers: int) -> None:
        """Check the shapes divide evenly over *workers*.

        Args:
            workers: Computing ranks (total ranks minus the producer).

        Raises:
            ValueError: fewer than one worker, ``m`` not divisible by the
                worker count, or ``batch`` not divisible by ``tiles``.
        """
        if workers < 1:
            raise ValueError("gemm pipeline needs a producer plus at "
                             "least one worker rank")
        if self.m % workers:
            raise ValueError(f"m={self.m} rows do not split over "
                             f"{workers} workers")
        if self.batch % self.tiles:
            raise ValueError(f"batch={self.batch} does not split into "
                             f"{self.tiles} tiles")
        if self.slots < 2:
            raise ValueError("the stream buffer needs at least two "
                             "slots to double-buffer")


def _weights(wl: GemmWorkload) -> np.ndarray:
    return np.random.default_rng(wl.seed).standard_normal((wl.m, wl.k))


def _inputs(wl: GemmWorkload) -> np.ndarray:
    return np.random.default_rng(wl.seed + 1).standard_normal(
        (wl.k, wl.batch))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def gemm_reference(wl: GemmWorkload, workers: int) -> np.ndarray:
    """The serial answer ``W @ X``, computed per (row block, tile) in
    stream order — the exact operation sequence the workers run, so the
    distributed result matches bit-for-bit (BLAS picks different
    blocking for different operand shapes, so a single full-matrix
    multiply would differ in the last bits)."""
    w, x = _weights(wl), _inputs(wl)
    bt = wl.batch // wl.tiles
    rows = wl.m // workers
    y = np.zeros((wl.m, wl.batch))
    for i in range(workers):
        blk = w[i * rows:(i + 1) * rows, :]
        for t in range(wl.tiles):
            y[i * rows:(i + 1) * rows, t * bt:(t + 1) * bt] = \
                blk @ x[:, t * bt:(t + 1) * bt]
    return y


def overlap_efficiency(both: float, compute: float, stream: float) -> float:
    """Fraction of the streaming time hidden behind compute:
    ``(compute + stream - both) / stream`` (1.0 = perfect overlap,
    0.0 = fully serialized)."""
    return (compute + stream - both) / stream if stream > 0 else 0.0


def _gemm_kernel(rank: DRank, wl: GemmWorkload, mode: str, algorithm: str,
                 w: Optional[np.ndarray], x: np.ndarray,
                 ybufs: Dict[int, np.ndarray], stats: Dict[int, dict]):
    p = rank.comm_size()
    r = rank.world_rank
    workers = list(range(1, p))
    nw = len(workers)
    bt = wl.batch // wl.tiles
    tile_elems = wl.k * bt
    stream = mode in ("both", "stream")
    compute = mode in ("both", "compute")
    gathers = mode == "both" and r != 0 and nw > 1

    slots = wl.slots
    xbuf = np.zeros(slots * tile_elems)
    ack = np.zeros(max(nw, 1))
    ybuf = ybufs[r]
    n = ybuf.size
    xwin = yield from rank.win_create(xbuf)
    ackwin = yield from rank.win_create(ack)
    ywin = yield from rank.win_create(ybuf)
    # Window creation is collective, so every rank registers a scratch
    # window, but only the gathering workers ever touch theirs.
    swin = yield from rank.win_create(
        np.zeros(scratch_elems(nw, n) if gathers else 1))
    yield from rank.barrier()
    t0 = rank.now

    if r == 0:
        # Producer: stream tile t into slot t % slots of every worker; a
        # slot is reused only once every worker acked consuming it, so
        # up to `slots` tiles are in flight per worker.
        if stream:
            for t in range(wl.tiles):
                if t >= slots:
                    for w in workers:
                        yield from rank.wait_notifications(
                            ackwin, source=w, tag=TAG_ACK + t - slots,
                            count=1)
                tile = np.ascontiguousarray(
                    x[:, t * bt:(t + 1) * bt]).reshape(-1)
                for w in workers:
                    yield from rank.put_notify(
                        xwin, w, (t % slots) * tile_elems, tile,
                        tag=TAG_TILE + t)
            for t in range(max(wl.tiles - slots, 0), wl.tiles):
                for w in workers:
                    yield from rank.wait_notifications(
                        ackwin, source=w, tag=TAG_ACK + t, count=1)
    else:
        idx = workers.index(r)
        rows = wl.m // nw
        wblock = w[idx * rows:(idx + 1) * rows, :] if compute else None
        yview = ybuf.reshape(wl.m, wl.batch)
        # The weight block stays device-resident across tiles; each tile
        # streams its operands in and the output block out.
        flops = 2.0 * rows * wl.k * bt
        mem = 8.0 * (tile_elems + rows * bt)
        for t in range(wl.tiles):
            if stream:
                yield from rank.wait_notifications(
                    xwin, source=0, tag=TAG_TILE + t, count=1)
                tile = xbuf[(t % slots) * tile_elems:
                            (t % slots + 1) * tile_elems].reshape(wl.k, bt)
            else:
                tile = x[:, t * bt:(t + 1) * bt]
            if compute:
                # Multiply tile t; with streaming on, later tiles are in
                # flight underneath this phase — the overlap under test.
                yield from rank.compute(
                    flops, mem,
                    fn=lambda t=t, tile=tile: yview.__setitem__(
                        (slice(idx * rows, (idx + 1) * rows),
                         slice(t * bt, (t + 1) * bt)), wblock @ tile),
                    detail="gemm_tile")
            if stream:
                yield from rank.put_notify(ackwin, 0, idx,
                                           np.array([float(t)]),
                                           tag=TAG_ACK + t)
    loop = rank.now - t0
    # The gather is timed apart from the pipeline: it is a bulk
    # collective over the finished Y, not part of the overlap window.
    gather = 0.0
    if gathers:
        t1 = rank.now
        yield from all_gather(rank, ywin, swin, workers, ybuf,
                              algorithm=algorithm, tag_base=TAG_GATHER)
        gather = rank.now - t1
    yield from rank.flush()
    yield from rank.barrier()
    yield from rank.finish()
    stats[r] = {"loop": loop, "gather": gather}


def run_gemm_pipeline(cluster: Cluster, wl: GemmWorkload,
                      ranks_per_device: int = 1, mode: str = "both",
                      algorithm: str = "ring"):
    """Run the pipelined forward pass on *cluster*.

    Args:
        cluster: The machine; rank 0 is the producer, the rest workers.
        wl: Workload shapes.
        ranks_per_device: dCUDA ranks per GPU.
        mode: ``both`` | ``compute`` | ``stream`` (see module docstring).
        algorithm: Collective family for the final worker all-gather.

    Returns:
        ``(elapsed, y, stats)`` — the median worker *pipeline* loop time
        (the final gather is timed separately, in each worker's
        ``stats[r]["gather"]``), the full ``Y`` as assembled on worker
        rank 1 (``None`` unless *mode* is ``both``), and the per-rank
        stats dict.

    Raises:
        ValueError: *mode* is unknown or the workload does not divide
            over the available workers.
    """
    if mode not in MODES:
        raise ValueError(f"unknown gemm pipeline mode {mode!r}; "
                         f"expected one of {MODES}")
    total = cluster.platform.place(ranks_per_device).total_ranks
    wl.validate(total - 1)
    # Nothing multiplies in stream mode, so W is not even drawn there.
    w = _read_only(_weights(wl)) if mode != "stream" else None
    x = _read_only(_inputs(wl))
    ybufs = {r: np.zeros(wl.m * wl.batch) for r in range(total)}
    stats: Dict[int, dict] = {}
    launch(cluster, _gemm_kernel, ranks_per_device,
           kernel_args={"wl": wl, "mode": mode, "algorithm": algorithm,
                        "w": w, "x": x, "ybufs": ybufs, "stats": stats})
    loops = sorted(stats[r]["loop"] for r in range(1, total))
    elapsed = loops[len(loops) // 2]
    y: Optional[np.ndarray] = None
    if mode == "both":
        y = ybufs[1].reshape(wl.m, wl.batch).copy()
    return elapsed, y, stats
