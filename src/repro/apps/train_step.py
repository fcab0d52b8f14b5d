"""Data-parallel SGD training step: grads → autotuned allreduce → update.

Every rank holds a full replica of a linear model's weights and a
disjoint shard of the training batch.  One step computes the local
least-squares gradient, allreduces it across the replicas — with the
algorithm family chosen by the
:class:`~repro.dcuda.collectives.CollectiveAutotuner` unless pinned —
and applies the averaged gradient, exactly the loop a data-parallel
training framework runs per batch.

The collective algorithm must be *one* choice on every rank (a mixed
group deadlocks), so the decision is made host-side before launch:
:func:`autotune_step` calibrates from the machine config plus whatever
``Fabric.link_stats()`` the cluster has measured so far (run a probe
step first to feed it real traffic; an idle fabric falls back to the
declared topology).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..dcuda import DRank, launch
from ..dcuda.collectives import (CollectiveAutotuner, CollectiveChoice,
                                 allreduce, scratch_elems)
from ..hw.cluster import Cluster

__all__ = ["TrainWorkload", "train_reference", "autotune_step",
           "run_train_step"]

TAG_STEP_STRIDE = 1000


@dataclass(frozen=True)
class TrainWorkload:
    """One data-parallel linear-regression training configuration."""

    features: int = 12
    samples_per_rank: int = 6
    steps: int = 3
    lr: float = 0.05
    seed: int = 11


def _shard(wl: TrainWorkload, r: int):
    rng = np.random.default_rng(wl.seed + 100 + r)
    x = rng.standard_normal((wl.samples_per_rank, wl.features))
    y = rng.standard_normal(wl.samples_per_rank)
    return x, y


def _init_weights(wl: TrainWorkload) -> np.ndarray:
    return np.random.default_rng(wl.seed).standard_normal(wl.features)


def _grad(wl: TrainWorkload, x: np.ndarray, y: np.ndarray,
          w: np.ndarray) -> np.ndarray:
    return x.T @ (x @ w - y) / wl.samples_per_rank


def train_reference(wl: TrainWorkload, ranks: int) -> np.ndarray:
    """Serial reference: the same steps with the gradients averaged in
    ascending rank order (collective schedules may reassociate the sum,
    so distributed weights match to ``allclose``, not bit-for-bit)."""
    w = _init_weights(wl)
    shards = [_shard(wl, r) for r in range(ranks)]
    for _ in range(wl.steps):
        g = np.zeros(wl.features)
        for x, y in shards:
            g += _grad(wl, x, y, w)
        w = w - wl.lr * g / ranks
    return w


def autotune_step(cluster: Cluster, wl: TrainWorkload,
                  ranks_per_device: int = 1,
                  override: Optional[str] = None) -> CollectiveChoice:
    """The autotuner's decision for this workload's gradient allreduce.

    Args:
        cluster: The machine; its fabric's measured ``link_stats()``
            feed the congestion factor (empty stats fall back to the
            declared topology).
        wl: The training workload (fixes the message size).
        ranks_per_device: dCUDA ranks per GPU.
        override: Pin the family instead of consulting the cost model.

    Returns:
        The :class:`~repro.dcuda.collectives.CollectiveChoice`, costs
        included.
    """
    tuner = CollectiveAutotuner.from_config(
        cluster.cfg, cluster.fabric.link_stats(), override=override)
    placement = cluster.platform.place(ranks_per_device)
    group = list(range(placement.total_ranks))
    return tuner.choose("allreduce", placement, group, wl.features * 8)


def _train_kernel(rank: DRank, wl: TrainWorkload, algorithm: str,
                  weights: Dict[int, np.ndarray], stats: Dict[int, dict]):
    p = rank.comm_size()
    r = rank.world_rank
    group = list(range(p))
    x, y = _shard(wl, r)
    w = weights[r]
    grad = np.zeros(wl.features)
    gwin = yield from rank.win_create(grad)
    swin = yield from rank.win_create(
        np.zeros(scratch_elems(p, wl.features)))
    yield from rank.barrier()
    t0 = rank.now
    comm_time = 0.0
    for step in range(wl.steps):
        # Local gradient: two GEMV passes over the shard.
        yield from rank.compute(
            flops=4.0 * wl.samples_per_rank * wl.features,
            mem_bytes=8.0 * (2 * wl.samples_per_rank * wl.features
                             + 2 * wl.features),
            fn=lambda: np.copyto(grad, _grad(wl, x, y, w)),
            detail="grad")
        tc = rank.now
        yield from allreduce(rank, gwin, swin, group, grad,
                             algorithm=algorithm,
                             tag_base=step * TAG_STEP_STRIDE)
        comm_time += rank.now - tc
        yield from rank.compute(
            flops=2.0 * wl.features, mem_bytes=24.0 * wl.features,
            fn=lambda: np.copyto(w, w - wl.lr * grad / p),
            detail="update")
    loop = rank.now - t0
    yield from rank.flush()
    yield from rank.barrier()
    yield from rank.finish()
    stats[r] = {"loop": loop, "allreduce": comm_time}


def run_train_step(cluster: Cluster, wl: TrainWorkload,
                   ranks_per_device: int = 1, algorithm: str = "auto",
                   override: Optional[str] = None):
    """Run *wl.steps* data-parallel SGD steps on *cluster*.

    Args:
        cluster: The machine.
        wl: The training workload.
        ranks_per_device: dCUDA ranks per GPU.
        algorithm: Collective family for the gradient allreduce;
            ``"auto"`` resolves it host-side via :func:`autotune_step`.
        override: Autotuner pin, forwarded when *algorithm* is ``auto``.

    Returns:
        ``(elapsed, weights, info)`` — median per-rank loop time, the
        final weight replica of rank 0, and a dict with the executed
        ``algorithm``, the autotuner ``choice`` (``None`` when pinned
        per call), and per-rank ``stats``.
    """
    choice: Optional[CollectiveChoice] = None
    if algorithm == "auto":
        choice = autotune_step(cluster, wl, ranks_per_device, override)
        algorithm = choice.algorithm
    total = cluster.platform.place(ranks_per_device).total_ranks
    w0 = _init_weights(wl)
    weights = {r: w0.copy() for r in range(total)}
    stats: Dict[int, dict] = {}
    launch(cluster, _train_kernel, ranks_per_device,
           kernel_args={"wl": wl, "algorithm": algorithm,
                        "weights": weights, "stats": stats})
    loops = sorted(stats[r]["loop"] for r in range(total))
    elapsed = loops[len(loops) // 2]
    return elapsed, weights[0].copy(), {"algorithm": algorithm,
                                        "choice": choice, "stats": stats}
