"""Benchmark-side tracing: spans around the calls into each layer.

Nothing here changes the program.  :class:`Tracer` keeps a span stack
per thread; the ``install_*`` functions swap a layer's public functions
and methods for wrappers that open a span, call the original and close
the span.  Spans live in memory and are written out once, at the end
(``.perfbench/traces/``).

A layer's *self time* is its span's duration minus the part covered by
child spans.  Every span is either a root (nothing open on its thread,
and not linked to a parent on another thread) or a child, so the self
times of all layers add up exactly — in integer nanoseconds — to the
summed duration of the roots: :meth:`Tracer.reconciles` checks that.

Spans opened in another process (a forked pool worker) call straight
through: the tracer belongs to the process that created it.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter_ns


class Tracer:
    """In-memory span recorder with per-layer aggregates.

    ``rss=True`` samples ``ru_maxrss`` at every span entry and exit and
    charges growth of the high-water mark to the layer whose self time
    was running (the parent at entry, the closing layer at exit).
    ``delays`` maps a layer to seconds spent inside each of its spans:
    the injected-delay self-check.  ``keep`` names layers whose spans
    are recorded one by one (the others are aggregated only).
    """

    def __init__(self, rss: bool = False, keep: tuple[str, ...] = (),
                 sampled: tuple[str, ...] = ()):
        self.pid = os.getpid()
        self.rss = rss
        self.keep = set(keep)
        self.sampled = set(sampled)
        self.delays: dict[str, float] = {}
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[int]] = defaultdict(list)
        self.rss_kb: dict[str, int] = defaultdict(int)
        self.root_ns = 0
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._last_rss = self._maxrss()
        self.misnested = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _maxrss() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge_rss(self, layer: str) -> None:
        now = self._maxrss()
        if now > self._last_rss:
            self.rss_kb[layer] += now - self._last_rss
            self._last_rss = now

    def active(self) -> bool:
        return os.getpid() == self.pid

    # ------------------------------------------------------------------
    def enter(self, layer: str, link=None) -> list:
        """Open a span; ``link`` is a parent frame on another thread."""
        stack = self._stack()
        if self.rss:
            self._charge_rss(stack[-1][0] if stack else "outside")
        parent = stack[-1] if stack else link
        frame = [layer, _now(), 0, parent, link is not None and not stack]
        stack.append(frame)
        delay = self.delays.get(layer)
        if delay:
            # Spin rather than sleep: a slower layer keeps the CPU busy, and
            # a sleeping process comes back to cold caches, which would
            # charge its neighbours for the delay too.
            until = time.perf_counter() + delay
            while time.perf_counter() < until:
                pass
        return frame

    def exit(self, frame: list) -> int:
        """Close ``frame``; returns its duration in nanoseconds."""
        end = _now()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            self.misnested += 1
            if frame in stack:
                del stack[stack.index(frame):]
        else:
            stack.pop()
        layer, start, _, parent, linked = frame
        duration = end - start
        with self._lock:
            child_ns = frame[2]
            if parent is not None:
                parent[2] += duration
            elif not linked:
                self.root_ns += duration
            self.self_ns[layer] += duration - child_ns
            self.incl_ns[layer] += duration
            self.calls[layer] += 1
            if layer in self.sampled:
                self.samples[layer].append(duration - child_ns)
            if layer in self.keep:
                self.spans.append(
                    (layer, start, end, parent[0] if parent is not None else None,
                     threading.get_ident())
                )
        if self.rss:
            self._charge_rss(layer)
        return duration

    def sample(self, key: str, value_ns: int) -> None:
        with self._lock:
            self.samples[key].append(value_ns)

    # ------------------------------------------------------------------
    def wrap(self, fn, layer: str, after=None, link_of=None):
        """A traced stand-in for ``fn``.

        ``after(tracer, args, kwargs, result)`` runs after the span has
        closed, inside a ``trace.measure`` span of its own, so counting
        work (pickle sizes, file sizes) is charged to the tracer.
        ``link_of(args, kwargs)`` returns a parent frame on another
        thread, for work done on behalf of a caller that waits.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            frame = tracer.enter(layer, link_of(args, kwargs) if link_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                measure = tracer.enter("trace.measure")
                try:
                    after(tracer, args, kwargs, result)
                finally:
                    tracer.exit(measure)
            return result

        return traced

    def iterate(self, iterator, layer: str, rows_key: str):
        """Trace every ``next()`` of ``iterator`` as a ``layer`` span."""
        tracer = self

        def traced():
            while True:
                frame = tracer.enter(layer)
                try:
                    row = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                tracer.counts[rows_key] += 1
                yield row

        return traced()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregates as plain JSON (what crosses process boundaries)."""
        return {
            "self_ns": dict(self.self_ns),
            "incl_ns": dict(self.incl_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "rss_kb": dict(self.rss_kb),
            "root_ns": self.root_ns,
            "misnested": self.misnested,
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans (JSONL) and the aggregates."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"aggregates": self.snapshot()}, sort_keys=True) + "\n")
            for layer, start, end, parent, thread in self.spans:
                out.write(
                    json.dumps(
                        {"layer": layer, "start_ns": start, "end_ns": end,
                         "parent": parent, "thread": thread},
                        sort_keys=True,
                    )
                    + "\n"
                )


def diff(after: dict, before: dict) -> dict:
    """Aggregates accrued between two snapshots of one tracer (no samples)."""
    out = {key: {k: v - before[key].get(k, 0) for k, v in after[key].items()}
           for key in ("self_ns", "incl_ns", "calls", "counts", "rss_kb")}
    out["samples"] = {}
    out["root_ns"] = after["root_ns"] - before["root_ns"]
    out["misnested"] = after["misnested"] - before["misnested"]
    return out


def reconciles(snap: dict) -> bool:
    """Self times of all layers sum exactly to the roots' wall time."""
    return snap["misnested"] == 0 and sum(snap["self_ns"].values()) == snap["root_ns"]


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def patch_function(tracer: Tracer, module: str, name: str, layer: str, **opts) -> None:
    """Wrap ``module.name`` in every ``repro`` module that bound it."""
    original = getattr(sys.modules[module], name)
    traced = tracer.wrap(original, layer, **opts)
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name.split(".")[0] == "repro" and getattr(mod, name, None) is original:
            setattr(mod, name, traced)


def patch_method(tracer: Tracer, cls, name: str, layer: str, **opts) -> None:
    """Wrap ``cls.name``; an inherited method is wrapped on ``cls``."""
    original = getattr(cls, name)
    if isinstance(original, property):
        setattr(cls, name, property(tracer.wrap(original.fget, layer, **opts)))
    else:
        setattr(cls, name, tracer.wrap(original, layer, **opts))


def _pickle_sizes(tracer: Tracer, args, kwargs, result) -> None:
    import pickle

    tasks = args[2] if len(args) > 2 else kwargs["tasks"]
    tracer.counts["executor.task_bytes"] += sum(len(pickle.dumps(t)) for t in tasks)
    tracer.counts["executor.result_bytes"] += sum(len(pickle.dumps(r)) for r in result)


def _count_candidates(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["candidates.count"] += len(result)


def _count_copied(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["duplication.copied"] += len(result)


def _count_message(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["network.messages"] += 1


#: Coarse layers whose spans are kept one by one (the rest are aggregated).
MINING_SPANS = ("mine.op", "parallel", "executor", "candidates.gen", "duplication.select",
                "allocation.partition", "kernel.build", "kernel.fold")
REFRESH_SPANS = ("refresh.ingest", "log.append", "delta.band_update", "borderline.fixpoint",
                 "borderline.rescan", "checkpoint", "rules", "publish")


def install_mining(tracer: Tracer, miner_class) -> None:
    """Wrap the mining layers: cluster, network, executor, kernels, ..."""
    import repro.cluster.disk as disk
    import repro.cluster.machine as machine
    import repro.cluster.network as network
    import repro.parallel  # noqa: F401 - loads every miner module
    import repro.perf.config as config
    import repro.perf.kernels as kernels
    import repro.perf.preprocess as preprocess
    import repro.perf.workers  # noqa: F401
    import repro.taxonomy.ops as ops

    patch_method(tracer, miner_class, "mine", "parallel")
    patch_function(tracer, "repro.perf.executor", "execute_per_node", "executor",
                   after=_pickle_sizes)
    patch_function(tracer, "repro.core.candidates", "generate_candidates",
                   "candidates.gen", after=_count_candidates)
    for name in ("select_tree_grain", "select_path_grain", "select_fine_grain"):
        patch_function(tracer, "repro.parallel.duplication", name,
                       "duplication.select", after=_count_copied)
    for name in ("partition_candidates_by_itemset", "partition_candidates_by_root"):
        patch_function(tracer, "repro.parallel.allocation", name, "allocation.partition")
    for name in ("support_counter", "closure_counter", "root_keyed_counter"):
        patch_method(tracer, config.CountingConfig, name, "kernel.build")
    for cls in (kernels.FastSupportCounter, kernels.FastAncestorClosureCounter,
                kernels.FastRootKeyedClosureCounter):
        patch_method(tracer, cls, "add_transaction", "kernel.count")
    patch_method(tracer, kernels._DeferredPairFold, "_flush", "kernel.fold")
    patch_method(tracer, ops.AncestorIndex, "extend", "preprocess.index_extend")
    patch_method(tracer, preprocess.ExtensionCache, "extend", "preprocess.cache_extend")
    patch_method(tracer, preprocess.RewriteCache, "rewrite", "preprocess.rewrite")
    patch_method(tracer, network.Network, "send", "network.send", after=_count_message)
    patch_method(tracer, network.Network, "drain", "network.drain")

    original_scan = disk.LocalDisk.scan

    def scan(self, *args, **kwargs):
        rows = original_scan(self, *args, **kwargs)
        if not tracer.active():
            return rows
        return tracer.iterate(rows, "store.scan", "store.rows")

    disk.LocalDisk.scan = scan

    # Pass intervals: begin_pass -> finish_pass (not part of the span tree).
    begin, finish = machine.Cluster.begin_pass, machine.Cluster.finish_pass
    opened: list[int] = []

    def begin_pass(self, *args, **kwargs):
        opened.append(_now())
        return begin(self, *args, **kwargs)

    def finish_pass(self, *args, **kwargs):
        try:
            return finish(self, *args, **kwargs)
        finally:
            if opened:
                k = int(tracer.counts["cluster.passes"]) + 1
                tracer.counts["cluster.passes"] = k
                tracer.counts[f"cluster.pass{k}_ns"] += _now() - opened.pop()

    machine.Cluster.begin_pass = begin_pass
    machine.Cluster.finish_pass = finish_pass


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def install_refresh(tracer: Tracer) -> None:
    """Wrap the refresh layers: log, band update, rescan, checkpoint, publish."""
    import repro.perf.config as config
    import repro.perf.kernels as kernels
    import repro.refresh.delta as delta
    import repro.refresh.driver as driver
    import repro.refresh.log as log
    import repro.taxonomy.ops as ops


    def log_bytes(tracer, args, kwargs, result):
        record = result[0]
        tracer.counts["log.bytes_written"] += _dir_bytes(args[0].path / record.dir)

    patch_method(tracer, log.TransactionLog, "append", "log.append", after=log_bytes)

    inside = threading.local()
    original_count_over = delta.count_over
    original_fixpoint = delta.levelwise_fixpoint

    def count_over(rows, candidates, k, taxonomy, counting):
        rescan = getattr(inside, "fixpoint", False)
        layer = "borderline.rescan" if rescan else "delta.band_update"
        rows_key = "borderline.rescan_rows" if rescan else "delta.rows"
        if rescan:
            tracer.counts["borderline.rescanned"] += len(candidates)

        def counted():
            for row in rows:
                tracer.counts[rows_key] += 1
                yield row

        frame = tracer.enter(layer)
        try:
            return original_count_over(counted(), candidates, k, taxonomy, counting)
        finally:
            tracer.exit(frame)

    def levelwise_fixpoint(*args, **kwargs):
        inside.fixpoint = True
        frame = tracer.enter("borderline.fixpoint")
        try:
            return original_fixpoint(*args, **kwargs)
        finally:
            tracer.exit(frame)
            inside.fixpoint = False

    delta.count_over = count_over
    delta.levelwise_fixpoint = levelwise_fixpoint

    def json_bytes(tracer, args, kwargs, result):
        tracer.counts["checkpoint.bytes"] += Path(args[0]).stat().st_size

    def snapshot_bytes(tracer, args, kwargs, result):
        tracer.counts["publish.bytes"] += Path(result).stat().st_size

    # Call sites in repro.refresh.driver only: the log's own manifest writes stay
    # inside log.append.
    driver.atomic_write_json = tracer.wrap(driver.atomic_write_json, "checkpoint",
                                           after=json_bytes)
    driver.generate_rules = tracer.wrap(driver.generate_rules, "rules")
    driver.compile_snapshot = tracer.wrap(driver.compile_snapshot, "publish")
    driver.write_snapshot = tracer.wrap(driver.write_snapshot, "publish", after=snapshot_bytes)
    patch_function(tracer, "repro.core.candidates", "generate_candidates",
                   "candidates.gen", after=_count_candidates)
    patch_method(tracer, config.CountingConfig, "support_counter", "kernel.build")
    patch_method(tracer, kernels.FastSupportCounter, "add_transaction", "kernel.count")
    patch_method(tracer, kernels._DeferredPairFold, "_flush", "kernel.fold")
    patch_method(tracer, ops.AncestorIndex, "extend", "preprocess.index_extend")


def install_serve(tracer: Tracer) -> None:
    """Wrap the serving layers inside the server process.

    ``httpd`` is the handler's ``do_POST``; ``admission`` is the
    service's ``query`` (queueing and batching); ``engine`` is
    ``QueryEngine.query``, run on a batch worker thread and linked to
    the admission span of the request that caused it.
    """
    import repro.serve.batch as batch
    import repro.serve.cli as cli
    import repro.serve.engine as engine
    import repro.serve.httpd as httpd

    waiting: dict[int, tuple[list, int]] = {}

    def snapshot_bytes(tracer, args, kwargs, result):
        tracer.counts["snapshot.bytes"] += Path(args[0]).stat().st_size

    cli.load_snapshot = tracer.wrap(cli.load_snapshot, "snapshot.load", after=snapshot_bytes)

    original_make_handler = httpd.make_handler

    def make_handler(service):
        handler = original_make_handler(service)
        handler.do_POST = tracer.wrap(handler.do_POST, "httpd")
        return handler

    httpd.make_handler = make_handler

    original_query = batch.ServeService.query

    def query(self, basket, *args, ctx=None, **kwargs):
        frame = tracer.enter("admission")
        if ctx is not None:
            waiting[id(ctx)] = (frame, _now())
        try:
            return original_query(self, basket, *args, ctx=ctx, **kwargs)
        finally:
            if ctx is not None:
                waiting.pop(id(ctx), None)
            tracer.exit(frame)

    batch.ServeService.query = query

    def engine_parent(args, kwargs):
        obs = kwargs.get("obs")
        entry = waiting.get(id(obs)) if obs is not None else None
        if entry is None:
            return None
        frame, submitted = entry
        tracer.sample("admission.queue_wait", _now() - submitted)
        return frame

    patch_method(tracer, engine.QueryEngine, "query", "engine", link_of=engine_parent)


# ----------------------------------------------------------------------
# The attribution self-check
# ----------------------------------------------------------------------
#: Share of the injected delay by which the delayed layer's charge may miss
#: it, and by which any other layer's self time may grow.
DELAY_TOLERANCE = 0.2


def delay_check(baseline: list[dict], delayed: dict, layer: str,
                per_call_s: float) -> tuple[bool, str]:
    """Was a delay injected into ``layer`` charged to ``layer`` alone?

    ``baseline`` holds undelayed traced snapshots of the same work.  The
    delayed layer's self time must grow by the injected total (within
    ``DELAY_TOLERANCE`` of it) and no other layer's may grow by more than
    ``DELAY_TOLERANCE`` of it.
    """
    injected = per_call_s * delayed["calls"].get(layer, 0) * 1e9
    if injected <= 0:
        return False, f"{layer} never ran, nothing injected"
    layers = set(delayed["self_ns"]).union(*(snap["self_ns"] for snap in baseline))
    growth = {
        key: delayed["self_ns"].get(key, 0)
        - statistics.median(snap["self_ns"].get(key, 0) for snap in baseline)
        for key in layers
    }
    charged = growth.get(layer, 0)
    neighbour, worst = max(
        ((key, value) for key, value in growth.items() if key != layer),
        key=lambda item: item[1],
        default=("-", 0),
    )
    limit = DELAY_TOLERANCE * injected
    ok = abs(charged - injected) <= limit and worst <= limit
    detail = (f"injected {injected / 1e9:.3f} s, charged to {layer} {charged / 1e9:.3f} s, "
              f"largest other growth {neighbour} {worst / 1e9:+.3f} s")
    return ok, detail
