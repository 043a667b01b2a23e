"""Refresh workload: ``RefreshDriver`` over drifting, evicting deltas.

Set-up draws the base rows from pattern pool A and creates an empty
refresh root.  Three set-ups' roots ingest the base (the bootstrap,
timed on its own) and the last one takes the deltas; one more set-up
follows every untraced delta, so that the reported median spans the
run.  Peak RSS is this process's ``VmHWM`` over the delta loop (its
deltas and set-ups), reset when the loop starts and after each
batch-snapshot check so that the check's memory is not counted.  The
deltas are equal-sized and drift between pool A and a second pool B
over the same taxonomy (a triangular mix), and the window is short
enough that the base and every later delta are evicted, so deltas
promote and demote itemsets.  The first ``WINDOW_DELTAS`` deltas fill
the window and evict the base; they are checked but not timed, so that
every timed delta meets a full window of deltas.  The snapshot behind
``CURRENT`` must be byte-equal to ``RefreshDriver.batch_snapshot()``
after the base evicts and at the end.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from pathlib import Path

import common
import serving
import spans

BASE_ROWS = 2000
DELTA_ROWS = 500
WINDOW_DELTAS = 4
MIN_SUPPORT = 0.05
MIN_CONFIDENCE = 0.4
DRIFT_PERIOD = 8          # deltas per A -> B -> A cycle
BOOTSTRAPS = 3
#: Total delay injected into the band update by the attribution self-check.
INJECTED_S = 1.5


def _pools():
    params = common.r30f5_params(BASE_ROWS, shape="preset")
    taxonomy, pool_a = common.population(params)
    _, pool_b = common.population(params, pool_seed=common.POPULATION_SEED + 1)
    return params, taxonomy, pool_a, pool_b


def _delta_rows(params, taxonomy, pool_a, pool_b, seed: int, index: int):
    """Delta ``index``: each row from pool B with the drift share, else A."""
    phase = (index % DRIFT_PERIOD) / DRIFT_PERIOD
    share = 2 * phase if phase < 0.5 else 2 * (1 - phase)
    mix = random.Random(seed * 1_000_003 + index)
    draw = seed * 1009 + 2 * index
    from_a = iter(common.sample_rows(params, taxonomy, pool_a, draw, DELTA_ROWS))
    from_b = iter(common.sample_rows(params, taxonomy, pool_b, draw + 1, DELTA_ROWS))
    return [next(from_b) if mix.random() < share else next(from_a) for _ in range(DELTA_ROWS)]


def _create(root: Path, taxonomy):
    from repro.perf.config import CountingConfig
    from repro.refresh.driver import RefreshDriver

    return RefreshDriver.create(
        root, taxonomy, MIN_SUPPORT, min_confidence=MIN_CONFIDENCE, max_k=None,
        window_deltas=WINDOW_DELTAS, counting=CountingConfig(dedup=False),
    )


def _setup(params, taxonomy, pool_a, seed: int, root: Path):
    """One set-up: ``(base rows, empty driver, seconds, datagen seconds)``."""
    started = time.perf_counter()
    base, gen_s = common.timed(common.sample_rows, params, taxonomy, pool_a, seed, BASE_ROWS)
    driver = _create(root, taxonomy)
    return base, driver, time.perf_counter() - started, gen_s


def _published_matches_batch(driver) -> bool:
    from repro.refresh.driver import read_pointer

    pointer = read_pointer(driver.root)
    batch = driver.batch_snapshot()
    if pointer is None or batch is None:
        return pointer is None and batch is None
    published = (driver.root / pointer["snapshot"]).read_bytes()
    return published == batch.to_jsonl().encode("utf-8")


def _timed_ingest(ingest, driver, rows):
    """One timed ``ingest()``.  Cyclic garbage left from before (the
    harness's, or an earlier ingest's) is collected untimed first, so that
    no op pays for collecting another's."""
    gc.collect()
    return common.timed(ingest, driver, rows)


def run(workload: str, seed: int, seconds: float, trace: bool, result: common.Run) -> None:
    from repro.errors import ReproError

    work = common.work_dir(workload)
    try:
        params, taxonomy, pool_a, pool_b = _pools()
        setup, datagen, bootstrap = [], [], []
        for attempt in range(BOOTSTRAPS):
            base, driver, took, gen_s = _setup(params, taxonomy, pool_a, seed,
                                               work / f"root-{attempt}")
            setup.append(took)
            datagen.append(gen_s)
            summary, took = _timed_ingest(type(driver).ingest, driver, base)
            bootstrap.append(took)
            result.op(summary["published"], f"bootstrap {attempt} published nothing")

        deltas, summaries, snaps = [], [], []
        tracer, traced_ms = None, []
        deadline = time.perf_counter() + seconds
        trace_from = time.perf_counter() + seconds / 2 if trace else None
        index, peak = 0, 0.0
        common.reset_hwm()
        while True:
            index += 1
            rows = _delta_rows(params, taxonomy, pool_a, pool_b, seed, index)
            if (trace_from is not None and tracer is None and deltas
                    and time.perf_counter() >= trace_from):
                tracer = spans.Tracer(keep=spans.REFRESH_SPANS)
                spans.install_refresh(tracer)
                ingest = tracer.wrap(type(driver).ingest, "refresh.ingest")
            before = tracer.snapshot() if tracer else None
            try:
                summary, took = _timed_ingest(ingest if tracer else type(driver).ingest,
                                              driver, rows)
            except ReproError as error:
                result.op(False, f"delta {index}: {error}")
                break
            ok = summary["published"]
            if index == WINDOW_DELTAS or time.perf_counter() >= deadline:
                peak = max(peak, common.hwm_mb())
                ok = ok and _published_matches_batch(driver)
                common.reset_hwm()
            result.op(ok, f"delta {index}: published snapshot differs from batch_snapshot()")
            summaries.append(summary)
            if tracer:
                traced_ms.append(took * 1e3)
                snaps.append(spans.diff(tracer.snapshot(), before))
            else:
                if index > WINDOW_DELTAS:
                    deltas.append(took * 1e3)
                _, _, took, gen_s = _setup(params, taxonomy, pool_a, seed, work / "again")
                setup.append(took)
                datagen.append(gen_s)
                common.cleanup(work / "again")
            if time.perf_counter() >= deadline and deltas and (snaps or not trace):
                break
        peak = max(peak, common.hwm_mb())

        moved = sum(1 for s in summaries if s["promotions"] and s["demotions"])
        p50 = statistics.median(deltas)
        tail, pct = common.tail(deltas)
        delta_rate = DELTA_ROWS * len(deltas) / (sum(deltas) / 1e3)
        setup_s = statistics.median(setup)
        bootstrap_s = statistics.median(bootstrap)
        result.metric("setup_s", setup_s)
        result.metric("peak_rss_mb", peak)
        result.metric("throughput_per_s", delta_rate)
        result.metric("p50_ms", p50)
        result.metric("tail_ms", tail)
        result.report(
            f"refresh_bootstrap_s={bootstrap_s:.3f} s (median of {BOOTSTRAPS}, {BASE_ROWS} base "
            f"rows, {BASE_ROWS / bootstrap_s:.0f} rows/s); "
            f"refresh_delta_p50_ms={p50:.1f} ms, refresh_delta_tail_ms"
            f"(p{pct:.0f})={tail:.1f} ms over {len(deltas)} untraced deltas of {DELTA_ROWS} rows "
            f"after the first {WINDOW_DELTAS}; "
            f"{moved}/{len(summaries)} deltas promoted and demoted; "
            f"{delta_rate:.0f} delta rows ingested per second; "
            f"setup_s={setup_s:.3f} s (median of {len(setup)}); peak_rss_mb={peak:.1f} MB")
        if trace:
            _traced_metrics(driver, params, taxonomy, pool_a, pool_b, seed, index, result,
                            deltas, traced_ms, snaps, summaries[-len(snaps):],
                            statistics.median(datagen), bootstrap_s, base, tracer, ingest)
    finally:
        common.cleanup(work)


def _traced_metrics(driver, params, taxonomy, pool_a, pool_b, seed, index, result, deltas,
                    traced_ms, snaps, summaries, datagen_s, bootstrap_s, base, tracer,
                    ingest) -> None:
    from repro.core.cumulate import cumulate
    from repro.datagen.corpus import TransactionDatabase
    from repro.perf.config import CountingConfig

    def per_delta(key: str, name: str, scale: float) -> float:
        return statistics.median(snap[key].get(name, 0) * scale for snap in snaps)

    def mean(key: str, name: str, scale: float) -> float:
        return sum(snap[key].get(name, 0) for snap in snaps) * scale / len(snaps)

    rescanned = sum(snap["counts"].get("borderline.rescanned", 0) for snap in snaps)
    promoted = sum(s["promotions"] for s in summaries)
    _, batch_s = common.timed(cumulate, TransactionDatabase(base), taxonomy, MIN_SUPPORT,
                              counting=CountingConfig(dedup=False))
    metrics = {
        "datagen.s": datagen_s,
        "bootstrap.batch_ratio": bootstrap_s / batch_s,
        "log.append_ms": per_delta("self_ns", "log.append", 1e-6),
        "log.bytes_written": per_delta("counts", "log.bytes_written", 1),
        "delta.band_update_ms": per_delta("self_ns", "delta.band_update", 1e-6),
        "delta.rows": per_delta("counts", "delta.rows", 1),
        "borderline.rescan_ms": mean("self_ns", "borderline.rescan", 1e-6),
        "borderline.rescanned": mean("counts", "borderline.rescanned", 1),
        "borderline.rescan_rows": mean("counts", "borderline.rescan_rows", 1),
        "borderline.useful_ratio": promoted / rescanned if rescanned else 0.0,
        "checkpoint.ms": per_delta("self_ns", "checkpoint", 1e-6),
        "checkpoint.bytes": per_delta("counts", "checkpoint.bytes", 1),
        "rules.ms": per_delta("self_ns", "rules", 1e-6),
        "publish.ms": per_delta("self_ns", "publish", 1e-6),
        "publish.bytes": per_delta("counts", "publish.bytes", 1),
        "candidates.gen_s": per_delta("self_ns", "candidates.gen", 1e-9),
        "candidates.count": per_delta("counts", "candidates.count", 1),
        "kernel.build_s": per_delta("self_ns", "kernel.build", 1e-9),
        "kernel.count_s": per_delta("self_ns", "kernel.count", 1e-9),
        "kernel.count_calls": per_delta("calls", "kernel.count", 1),
        "kernel.fold_s": per_delta("self_ns", "kernel.fold", 1e-9),
        "preprocess.extend_s": per_delta("self_ns", "preprocess.index_extend", 1e-9),
        "trace.wall_s": sum(snap["root_ns"] for snap in snaps) / 1e9,
        "trace.unattributed_s": sum(snap["self_ns"].get("refresh.ingest", 0)
                                    for snap in snaps) / 1e9,
        "trace.measure_s": sum(snap["self_ns"].get("trace.measure", 0) for snap in snaps) / 1e9,
        "trace.overhead_ratio": statistics.median(traced_ms) / statistics.median(deltas) - 1.0,
    }
    reconciled = all(spans.reconciles(snap) for snap in snaps)
    result.check(reconciled, "traced self times do not sum to the traced ingest wall time")

    # Attribution self-check: the same next delta goes into the live root
    # and into a copy of it, the second time with a delay in one layer.
    import shutil

    from repro.refresh.driver import RefreshDriver

    twin_root = driver.root.parent / "twin"
    shutil.copytree(driver.root, twin_root)
    twin = RefreshDriver.open(twin_root, counting=CountingConfig(dedup=False))
    rows = _delta_rows(params, taxonomy, pool_a, pool_b, seed, index + 1)
    layer = "delta.band_update"
    runs = []
    for target, delay in ((driver, 0.0), (twin, INJECTED_S)):
        before = tracer.snapshot()
        calls = max(1, runs[0]["calls"].get(layer, 0)) if runs else 1
        tracer.delays = {layer: delay / calls} if delay else {}
        summary = ingest(target, rows)
        tracer.delays = {}
        runs.append(spans.diff(tracer.snapshot(), before))
        result.op(summary["published"] and _published_matches_batch(target),
                  "self-check delta: published snapshot differs from batch_snapshot()")
    per_call = INJECTED_S / max(1, runs[0]["calls"].get(layer, 0))
    ok, detail = spans.delay_check(runs[:1], runs[1], layer, per_call)
    result.check(ok, f"injected delay misattributed: {detail}")
    tracer.write(common.TRACES / f"refresh-seed{seed}.jsonl")
    result.report(f"traced: overhead={metrics['trace.overhead_ratio']:+.1%} over {len(snaps)} "
                  f"traced deltas; reconciled={reconciled}; delay check ({layer}): {detail}")

    # What refresh publishes is served: the serving layers are measured on
    # the snapshot behind CURRENT, with baskets drawn from the window.
    from repro.refresh.driver import read_pointer

    published = driver.root / read_pointer(driver.root)["snapshot"]
    served = serving.measure(published, list(driver.log.iter_window()), seed,
                             common.TRACES / f"refresh-seed{seed}-serve", result)
    metrics.update(served["metrics"])
    metrics["trace.reconciled"] = 1.0 if reconciled and served["reconciled"] else 0.0
    metrics["trace.delay_attributed"] = 1.0 if ok and served["delay_ok"] else 0.0
    for name, value in metrics.items():
        result.metric(name, value)
