"""Host-time spans around the public entry points of each repro layer.

Only the traced batch uses this module.  :func:`install` replaces the
functions and methods named in :data:`TARGETS` with wrappers that time
each call, and each *resume* of a generator, as a span on a
:class:`Trace`.  Nothing inside ``src/repro`` changes: the wrappers are
installed from here, and module-level aliases (``from x import f``) are
rebound by identity so every caller goes through them.

A span's layer is the first component of its name.  Its self time is
its duration minus the time covered by its child spans, so the layer
self times of one batch add up to the ``exec.run_specs`` span.  Each
spec point is one request: the spans of a point carry its label.
Coarse spans (one per point, cluster, simulation run, reference ...)
are kept one by one with their parent; the fine per-resume spans are
kept as per-(request, name) rollups, which bounds the memory of a
multi-million-event batch.
"""

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, deque
from pathlib import Path
from types import GeneratorType

#: (module, attribute, span name).  One span name may cover several
#: entry points; the layer is the name's first component.
TARGETS = (
    ("repro.exec.engine", "run_specs", "exec.run_specs"),
    ("repro.exec.executors", "SerialExecutor.next_completion", "exec.point"),
    ("repro.exec.cache", "ResultCache.get", "exec.cache_get"),
    ("repro.exec.cache", "ResultCache.put", "exec.cache_put"),
    ("repro.hw.cluster", "Cluster.__init__", "hw.cluster_build"),
    ("repro.hw.gpu", "Device.compute", "hw.gpu"),
    ("repro.hw.gpu", "Device.copy", "hw.gpu"),
    ("repro.hw.gpu", "Device.bulk_compute", "hw.gpu"),
    ("repro.hw.gpu", "Device.wait", "hw.gpu"),
    ("repro.hw.pcie", "PCIeLink.mapped_post", "hw.pcie"),
    ("repro.hw.pcie", "PCIeLink.mapped_read", "hw.pcie"),
    ("repro.hw.pcie", "PCIeLink.dma_copy", "hw.pcie"),
    ("repro.platform.resolve", "Platform.__init__", "platform.build"),
    ("repro.platform.resolve", "Platform.place", "platform.place"),
    ("repro.sim.core", "Environment.run", "sim.run"),
    ("repro.sim.core", "Environment.process", "sim.spawn"),
    ("repro.sim.link", "FairShareLink.transfer", "sim.link_transfer"),
    ("repro.net.fabric", "Fabric.transmit", "net.transmit"),
    ("repro.net.fabric", "Fabric.send", "net.send"),
    ("repro.runtime.queues", "CircularQueue.enqueue", "runtime.queue"),
    ("repro.runtime.queues", "CircularQueue.enqueue_bulk", "runtime.queue"),
    ("repro.runtime.queues", "CircularQueue.dequeue", "runtime.queue"),
    ("repro.runtime.queues", "CircularQueue.try_dequeue", "runtime.queue"),
    ("repro.runtime.queues", "CircularQueue.drain_all", "runtime.queue"),
    ("repro.runtime.queues", "CircularQueue.park_consume", "runtime.queue"),
    ("repro.runtime.queues", "CircularQueue.park_poll", "runtime.queue"),
    ("repro.runtime.block_manager", "BlockManager.run",
     "runtime.block_manager"),
    ("repro.runtime.block_manager", "BlockManager.incoming_put",
     "runtime.block_manager"),
    ("repro.runtime.block_manager", "BlockManager.incoming_get",
     "runtime.block_manager"),
    ("repro.dcuda.launch", "launch", "dcuda.launch"),
    ("repro.dcuda.notifications", "deliver", "dcuda.deliver"),
    ("repro.dcuda.notifications", "deliver_bulk", "dcuda.deliver"),
    ("repro.dcuda.notifications", "NotificationMatcher.wait", "dcuda.match"),
    ("repro.dcuda.notifications", "NotificationMatcher.test", "dcuda.match"),
    ("repro.dcuda.collectives.algorithms", "allreduce", "dcuda.collective"),
    ("repro.dcuda.collectives.algorithms", "reduce_scatter",
     "dcuda.collective"),
    ("repro.dcuda.collectives.algorithms", "all_gather", "dcuda.collective"),
    ("repro.dcuda.collectives.core", "tree_broadcast", "dcuda.collective"),
    ("repro.dcuda.collectives.core", "tree_reduce", "dcuda.collective"),
    ("repro.dcuda.collectives.core", "hierarchical_broadcast",
     "dcuda.collective"),
    *(("repro.dcuda.device_api", f"DRank.{m}", "dcuda.api")
      for m in ("win_create", "win_free", "put_notify", "put", "get_notify",
                "get", "wait_notifications", "test_notifications", "flush",
                "barrier", "finish")),
    ("repro.dcuda.device_api", "DRank.compute", "dcuda.compute"),
    *((f"repro.comm.{b}", f"{cls}.{op}", f"comm.{b}.{op}")
      for b, cls in (("proxy", "ProxyBackend"), ("device", "DeviceBackend"),
                     ("stream", "StreamBackend"))
      for op in ("put", "get")),
    *(("repro.mpi.comm", f"MPIWorld.{m}", "mpi.p2p")
      for m in ("isend", "send", "irecv", "recv", "iprobe")),
    *(("repro.mpi.collectives", f, "mpi.collective")
      for f in ("barrier", "bcast", "reduce", "allreduce", "scatter",
                "gather", "sendrecv", "allgather")),
    ("repro.mpicuda.runtime", "run_mpicuda", "mpicuda.run"),
    ("repro.mpicuda.runtime", "MPICudaContext.launch", "mpicuda.launch"),
    ("repro.mpicuda.runtime", "MPICudaContext.memcpy", "mpicuda.memcpy"),
    *(("repro.mpicuda.runtime", f"MPICudaContext.{m}", "mpicuda.api")
      for m in ("loop_overhead", "isend", "irecv",
                "send", "recv", "barrier", "bcast", "reduce", "allreduce",
                "allgather")),
    ("repro.apps.diffusion", "run_dcuda_diffusion", "apps.program"),
    ("repro.apps.diffusion", "run_mpicuda_diffusion", "apps.program"),
    ("repro.apps.diffusion", "reference", "apps.reference"),
    ("repro.apps.gemm_stream", "run_gemm_pipeline", "apps.program"),
    ("repro.apps.gemm_stream", "gemm_reference", "apps.reference"),
    ("repro.apps.train_step", "run_train_step", "apps.program"),
    ("repro.apps.train_step", "autotune_step", "apps.program"),
    ("repro.apps.train_step", "train_reference", "apps.reference"),
)

#: Span names recorded one by one (with parent); the rest are rolled up.
COARSE = frozenset((
    "exec.run_specs", "exec.point", "exec.cache_get", "exec.cache_put",
    "point.entry", "hw.cluster_build", "platform.build", "platform.place",
    "sim.run", "dcuda.launch", "mpicuda.run", "apps.program",
    "apps.reference"))

#: Layers reported with ``.self_s`` and ``.share``.  ``point`` is the
#: entrypoint and figure-harness code between exec and the layers.
LAYERS = ("exec", "point", "hw", "platform", "sim", "net", "runtime",
          "dcuda", "comm", "mpi", "mpicuda", "apps")

BACKENDS = ("proxy", "device", "stream")

#: Simulation processes and compute-phase callbacks are attributed by
#: the package of the file that defines their code; kernels written in
#: the entrypoints (exec/points.py) or the figure harness (bench/) count
#: as ``point``.
FILE_LAYER = {"exec": "point", "bench": "point"}


class Trace:
    """Span stack and aggregates of one traced batch."""

    def __init__(self):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        # Frame: [name, start, child time, active depth of name, span id,
        # request at entry].
        self.stack = [[None, self.t0, 0.0, 0, None, ""]]
        self.request = ""
        self.labels = deque()
        self.calls = Counter()
        self.counts = Counter()
        self.depth = Counter()
        self.rollup = {}
        self.spans = []
        self.open_coarse = [None]
        self.envs = {}
        self.queue_stats = []
        self.code_names = {}

    def enter(self, name):
        d = self.depth[name]
        self.depth[name] = d + 1
        sid = None
        if name in COARSE:
            sid = len(self.spans)
            self.spans.append(None)
            self.open_coarse.append(sid)
        frame = [name, self.clock(), 0.0, d, sid, self.request]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = self.clock()
        self.stack.pop()
        name, start, child, d, sid, request = frame
        dur = end - start
        self.stack[-1][2] += dur
        self.depth[name] = d
        key = (request, name)
        rec = self.rollup.get(key)
        if rec is None:
            rec = self.rollup[key] = [0, 0.0, 0.0]
        rec[0] += 1
        if d == 0:  # inclusive time counts the outermost span of a name
            rec[1] += dur
        rec[2] += dur - child
        if sid is not None:
            self.open_coarse.pop()
            self.spans[sid] = (sid, self.open_coarse[-1], request, name,
                               start - self.t0, end - self.t0)

    # -- per-layer metrics -------------------------------------------------
    def totals(self):
        """``name -> [resumes, inclusive s, self s]`` over all requests."""
        out = {}
        for (_req, name), (n, incl, self_s) in self.rollup.items():
            tot = out.setdefault(name, [0, 0.0, 0.0])
            tot[0] += n
            tot[1] += incl
            tot[2] += self_s
        return out

    def metrics(self):
        """The per-layer metric values of this batch, by name."""
        tot = self.totals()

        def incl(name):
            return tot.get(name, (0, 0.0, 0.0))[1]

        def self_s(*names):
            return sum(tot.get(n, (0, 0.0, 0.0))[2] for n in names)

        layer_self = Counter()
        for name, (_n, _i, s) in tot.items():
            layer_self[name.split(".")[0]] += s
        wall = incl("exec.run_specs")
        points = [s[5] - s[4] for s in self.spans if s[3] == "exec.point"]
        transfers = self.calls["sim.link_transfer"]
        envs = self.envs.values()
        qs = self.queue_stats
        m = {
            "exec.specs": self.calls["exec.point"],
            "exec.cache_put_s": incl("exec.cache_put"),
            "exec.cache_get_s": incl("exec.cache_get"),
            "exec.point_s.p50": statistics.median(points),
            "exec.point_s.max": max(points),
            "hw.clusters": self.calls["hw.cluster_build"],
            "hw.cluster_build_s": incl("hw.cluster_build"),
            "platform.place_s": incl("platform.place"),
            "sim.events": sum(e[0] for e in envs),
            "sim.run_s": incl("sim.run"),
            "sim.entries": sum(e[1] for e in envs),
            "sim.max_queue_len": max((e[2] for e in envs), default=0),
            "sim.link_transfers": transfers,
            "sim.link_transfer_s": incl("sim.link_transfer"),
            "sim.link_flows_ge64_frac":
                self.counts["link_ge64"] / transfers if transfers else 0.0,
            "hw.gpu_self_s": self_s("hw.gpu"),
            "hw.pcie_self_s": self_s("hw.pcie"),
            "net.sends": self.calls["net.transmit"],
            "net.bytes": self.counts["net_bytes"],
            "runtime.enqueues": sum(s.enqueues for s in qs),
            "runtime.credit_reloads": sum(s.credit_reloads for s in qs),
            "runtime.full_stalls": sum(s.full_stalls for s in qs),
            "dcuda.notifications": self.calls["dcuda.deliver"],
            "dcuda.deliver_s": incl("dcuda.deliver"),
            "dcuda.match_s": incl("dcuda.match"),
            "dcuda.collective_s": incl("dcuda.collective"),
            "apps.reference_s": incl("apps.reference"),
        }
        for b in BACKENDS:
            m[f"comm.{b}.puts"] = self.calls[f"comm.{b}.put"]
            m[f"comm.{b}.self_s"] = self_s(f"comm.{b}.put", f"comm.{b}.get")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
            m[f"{layer}.share"] = layer_self[layer] / wall
        return m

    def dump(self):
        """JSON-ready spans: coarse spans and fine-span rollups."""
        return {
            "span_fields": ["id", "parent", "request", "name", "start_s",
                            "end_s"],
            "spans": self.spans,
            "rollup_fields": ["request", "name", "spans", "inclusive_s",
                              "self_s"],
            "rollups": [[req, name, *rec]
                        for (req, name), rec in sorted(self.rollup.items())],
        }


# -- wrappers -------------------------------------------------------------
def _resumes(trace, name, gen):
    """Drive *gen* on behalf of its caller, one span per resume."""
    send, throw = gen.send, gen.throw
    value = exc = None
    while True:
        frame = trace.enter(name)
        try:
            item = send(value) if exc is None else throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            trace.exit(frame)
        try:
            value = yield item
            exc = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as e:  # forwarded into gen, as yield from does
            value, exc = None, e


_RESUMES_CODE = _resumes.__code__


def _wrap(trace, fn, name, before=None, after=None):
    """Time each call of *fn*; a generator it returns is timed per resume."""
    calls = trace.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        if before is not None:
            args, kwargs = before(trace, args, kwargs)
        frame = trace.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            trace.exit(frame)
        if after is not None:
            after(trace, args, result)
        if result.__class__ is GeneratorType:
            return _resumes(trace, name, result)
        return result

    return wrapper


def _code_span(trace, code, kind):
    """``<layer>.<kind>`` for code defined in ``src/repro/<layer>/...``."""
    name = trace.code_names.get((code, kind))
    if name is None:
        parts = Path(code.co_filename).parts
        top = len(parts) - 1 - parts[::-1].index("repro")
        layer = parts[top + 1].removesuffix(".py")
        name = trace.code_names[code, kind] = (
            f"{FILE_LAYER.get(layer, layer)}.{kind}")
    return name


def _spawned(trace, args, kwargs):
    """Time a new simulation process per resume, under the layer whose
    file defines its generator (``<layer>.process``)."""
    env, gen, *rest = args
    if gen.gi_code is not _RESUMES_CODE:  # not already a wrapped entry point
        name = _code_span(trace, gen.gi_code, "process")
        args = (env, _resumes(trace, name, gen), *rest)
    return args, kwargs


def _numerics_arg(index):
    """A ``before`` hook timing the ``fn`` argument (the real numpy work
    a compute phase runs up front) under the layer that defines it."""
    def before(trace, args, kwargs):
        if "fn" in kwargs:
            fn = kwargs["fn"]
            if fn is not None:
                kwargs = dict(kwargs, fn=_wrap(
                    trace, fn, _code_span(trace, fn.__code__, "fn")))
        elif len(args) > index and args[index] is not None:
            fn = args[index]
            args = (*args[:index], _wrap(
                trace, fn, _code_span(trace, fn.__code__, "fn")),
                *args[index + 1:])
        return args, kwargs
    return before


def _point_request(trace, args, kwargs):
    if trace.labels:
        trace.request = trace.labels.popleft()
    return args, kwargs


def _link_flows(trace, args, kwargs):
    if args[0].active_flows >= 64:
        trace.counts["link_ge64"] += 1
    return args, kwargs


def _net_bytes(trace, args, kwargs):
    trace.counts["net_bytes"] += (args[3] if len(args) > 3
                                  else kwargs["nbytes"])
    return args, kwargs


def _stats_on(trace, args, kwargs):
    args[0].enable_stats()
    return args, kwargs


def _record_env(trace, args, result):
    env = args[0]
    key = env.__dict__.setdefault("_campaignbench_id", len(trace.envs))
    trace.envs[key] = (env._seq, env.stats.entries, env.stats.max_queue_len)


HOOKS = {
    "exec.point": (_point_request, None),
    "sim.spawn": (_spawned, None),
    "dcuda.compute": (_numerics_arg(3), None),
    "mpicuda.launch": (_numerics_arg(4), None),
    "mpicuda.memcpy": (_numerics_arg(2), None),
    "sim.link_transfer": (_link_flows, None),
    "net.transmit": (_net_bytes, None),
    "sim.run": (_stats_on, _record_env),
}


def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(trace):
    """Wrap every target (and the alias of each) to record on *trace*."""
    from repro.exec.executors import SerialExecutor
    from repro.runtime.queues import CircularQueue

    rebind = {}

    def patch(owner, leaf, wrapper):
        original = owner.__dict__[leaf]
        setattr(owner, leaf, wrapper)
        rebind[id(original)] = (original, wrapper)

    for module, attr, name in TARGETS:
        owner, leaf = _resolve(module, attr)
        before, after = HOOKS.get(name, (None, None))
        patch(owner, leaf, _wrap(trace, owner.__dict__[leaf], name,
                                 before, after))

    submit = SerialExecutor.submit

    def submit_job(self, job):
        trace.labels.append(job.label)
        return submit(self, job)

    patch(SerialExecutor, "submit", submit_job)

    queue_init = CircularQueue.__init__

    def queue_created(self, *args, **kwargs):
        queue_init(self, *args, **kwargs)
        trace.queue_stats.append(self.stats)

    patch(CircularQueue, "__init__", queue_created)

    owner, leaf = _resolve("repro.exec.spec", "resolve_entrypoint")
    resolve = owner.__dict__[leaf]

    def resolve_timed(name):
        # The entrypoint body runs between exec and the layers: "point".
        return _wrap(trace, resolve(name), "point.entry")

    patch(owner, leaf, resolve_timed)

    # Rebind module-level aliases (``from .x import f``) by identity.
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            hit = rebind.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
