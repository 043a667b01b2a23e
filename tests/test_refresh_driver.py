"""Refresh driver: publish protocol, crash recovery, rollout handoff.

The driver's contract is the ISSUE's correctness anchor: after every
ingest the published snapshot is byte-identical to a from-scratch batch
mine over the same window, a crash at any protocol stage recovers to
those same bytes, and ``CURRENT`` is never torn.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.errors import StoreFormatError
from repro.faults.refresh import CrashInjected
from repro.obs.registry import MetricsRegistry
from repro.obs.sink import EventSink
from repro.refresh.driver import (
    CURRENT_NAME,
    STAGES,
    STATE_NAME,
    RefreshDriver,
    read_pointer,
    snapshot_name,
)

from tests.test_refresh_determinism import _published, _run_sequence

MIN_SUPPORT = 0.15
MIN_CONFIDENCE = 0.6


def _batches(dataset, sizes):
    rows = list(dataset.database)
    batches, offset = [], 0
    for size in sizes:
        batches.append(rows[offset : offset + size])
        offset += size
    return batches


def _event_types(sink):
    return [json.loads(line)["type"] for line in sink.lines]


class TestPublishProtocol:
    def test_ingest_publishes_batch_identical_snapshot(
        self, small_dataset, tmp_path
    ):
        driver = RefreshDriver.create(
            tmp_path / "root",
            small_dataset.taxonomy,
            MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
            window_deltas=3,
        )
        for batch in _batches(small_dataset, [150, 80, 80, 90]):
            summary = driver.ingest(batch)
            assert summary["published"]
            current = driver.current()
            batch_snapshot = driver.batch_snapshot()
            assert current.to_jsonl() == batch_snapshot.to_jsonl()
            assert summary["version"] == current.version
        pointer = read_pointer(driver.root)
        assert pointer["delta"] == 3
        assert pointer["snapshot"] == f"snapshots/{snapshot_name(3)}"

    def test_eviction_sequence_stays_batch_identical(
        self, small_dataset, tmp_path
    ):
        driver = RefreshDriver.create(
            tmp_path / "root",
            small_dataset.taxonomy,
            MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
            window_deltas=2,
        )
        for batch in _batches(small_dataset, [120, 100, 100, 80]):
            driver.ingest(batch)
            assert driver.current().to_jsonl() == (
                driver.batch_snapshot().to_jsonl()
            )
        # Window of 2 after 4 deltas: the first two are purged.
        assert driver.status()["window_deltas"] == 2
        assert driver.status()["txn_start"] == 220

    def test_publish_skipped_when_no_rules(self, paper_taxonomy, tmp_path):
        sink = EventSink()
        driver = RefreshDriver.create(
            tmp_path / "root",
            paper_taxonomy,
            min_support=0.99,
            sink=sink,
        )
        summary = driver.ingest([(10, 12), (9,), (14,)])
        assert summary["published"] is False and summary["version"] is None
        assert driver.current() is None
        assert not (driver.root / CURRENT_NAME).exists()
        assert "refresh-publish-skipped" in _event_types(sink)

    def test_create_refuses_existing_root(self, paper_taxonomy, tmp_path):
        RefreshDriver.create(tmp_path / "root", paper_taxonomy, 0.2)
        with pytest.raises(StoreFormatError, match="already holds"):
            RefreshDriver.create(tmp_path / "root", paper_taxonomy, 0.2)

    def test_open_rejects_non_root(self, tmp_path):
        with pytest.raises(StoreFormatError, match="not a refresh root"):
            RefreshDriver.open(tmp_path / "nowhere")

    def test_metrics_and_events(self, small_dataset, tmp_path):
        registry = MetricsRegistry()
        sink = EventSink()
        driver = RefreshDriver.create(
            tmp_path / "root",
            small_dataset.taxonomy,
            MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
            registry=registry,
            sink=sink,
        )
        first, second = _batches(small_dataset, [200, 100])
        driver.ingest(first)
        driver.ingest(second)
        assert registry.value("refresh.deltas") == 2
        assert registry.value("refresh.rows_added") == 300
        assert registry.value("refresh.publishes") == 2
        assert registry.value("refresh.window_rows") == 300
        types = _event_types(sink)
        assert types.count("refresh-append") == 2
        assert types.count("refresh-apply") == 2
        assert types.count("refresh-publish") == 2

    def test_status_surface(self, small_dataset, tmp_path):
        driver = RefreshDriver.create(
            tmp_path / "root",
            small_dataset.taxonomy,
            MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
            window_deltas=4,
        )
        driver.ingest(_batches(small_dataset, [250])[0])
        status = driver.status()
        assert status["applied_through"] == 0
        assert status["deltas"] == 1
        assert status["window_rows"] == 250
        assert status["min_support"] == MIN_SUPPORT
        assert status["current"]["delta"] == 0


class TestReopenAndRecovery:
    def test_clean_reopen_is_idempotent(self, small_dataset, tmp_path):
        root = tmp_path / "root"
        driver = RefreshDriver.create(
            root,
            small_dataset.taxonomy,
            MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
        )
        driver.ingest(_batches(small_dataset, [200])[0])
        before = driver.current().to_jsonl()
        reopened = RefreshDriver.open(root)
        assert reopened.applied_through == 0
        assert reopened.current().to_jsonl() == before
        # A clean reopen replays nothing and republishes nothing.
        assert not reopened.registry.value("refresh.recoveries")

    def test_reopen_continues_sequence(self, small_dataset, tmp_path):
        root = tmp_path / "root"
        first, second = _batches(small_dataset, [200, 120])
        driver = RefreshDriver.create(
            root,
            small_dataset.taxonomy,
            MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
        )
        driver.ingest(first)
        reopened = RefreshDriver.open(root)
        reopened.ingest(second)
        assert reopened.current().to_jsonl() == (
            reopened.batch_snapshot().to_jsonl()
        )

    @pytest.mark.parametrize("stage", STAGES)
    def test_crash_then_recover(self, small_dataset, tmp_path, stage):
        batches = _batches(small_dataset, [150, 100, 100, 80])

        clean_root = tmp_path / "clean"
        clean = RefreshDriver.create(
            clean_root,
            small_dataset.taxonomy,
            MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
            window_deltas=2,
        )
        for batch in batches:
            clean.ingest(batch)
        oracle = clean.current().to_jsonl()

        root = tmp_path / f"crash-{stage}"
        driver = RefreshDriver.create(
            root,
            small_dataset.taxonomy,
            MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
            window_deltas=2,
        )
        for batch in batches[:-1]:
            driver.ingest(batch)
        pre_crash = driver.current().version

        def injector(reached):
            if reached == stage:
                raise CrashInjected(stage)

        driver._injector = injector
        with pytest.raises(CrashInjected):
            driver.ingest(batches[-1])

        # Mid-crash: CURRENT is either absent-progress or the previous
        # complete snapshot — never torn, never a partial file.
        from repro.refresh.driver import current_snapshot

        mid = current_snapshot(root)
        assert mid is not None and mid.version == pre_crash

        sink = EventSink()
        recovered = RefreshDriver.open(root, sink=sink)
        assert recovered.applied_through == len(batches) - 1
        assert recovered.current().to_jsonl() == oracle
        assert "refresh-recover" in _event_types(sink)
        # Recovery converged: a second open has nothing left to do.
        again = RefreshDriver.open(root)
        assert again.current().to_jsonl() == oracle
        assert not again.registry.value("refresh.recoveries")


class TestCheckpointCompatibility:
    """``state.json`` is written on one line; a root whose checkpoint
    is in the older indented layout still opens and continues."""

    #: sha256 of the last snapshot the ``test_refresh_determinism`` CLI
    #: sequence publishes: neither the delta counting kernel nor the
    #: checkpoint layout may move a published byte.
    CLI_SEQUENCE_SHA256 = (
        "024c9bf08229f935e189346022fdd36a8fe3608b5d915cf0c4cfb7f7e73dbd16"
    )

    def test_indented_checkpoint_reopens_and_continues(
        self, small_dataset, tmp_path
    ):
        root = tmp_path / "root"
        batches = _batches(small_dataset, [150, 80, 80, 90])
        driver = RefreshDriver.create(
            root,
            small_dataset.taxonomy,
            MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
            window_deltas=2,
        )
        for batch in batches[:2]:
            driver.ingest(batch)
        state_path = root / STATE_NAME
        compact = state_path.read_text(encoding="utf-8")
        assert compact.count("\n") == 1 and compact.endswith("\n")
        state = json.loads(compact)
        state_path.write_text(
            json.dumps(state, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

        reopened = RefreshDriver.open(root)
        assert reopened.applied_through == 1
        assert not reopened.registry.value("refresh.recoveries")
        for batch in batches[2:]:
            summary = reopened.ingest(batch)
            assert summary["published"]
            assert reopened.current().to_jsonl() == (
                reopened.batch_snapshot().to_jsonl()
            )
        # The next checkpoint is written compactly again.
        rewritten = state_path.read_text(encoding="utf-8")
        assert rewritten.count("\n") == 1
        assert json.loads(rewritten)["applied_through"] == 3

    def test_cli_sequence_publishes_pinned_bytes(self, tmp_path):
        root = tmp_path / "root"
        proc = _run_sequence(root, "1")
        assert proc.returncode == 0, proc.stderr
        _, body = _published(root)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        assert digest == self.CLI_SEQUENCE_SHA256


class TestRolloutHandoff:
    def test_roll_forward_reaches_cutover(self, small_dataset, tmp_path):
        """Same-answer snapshots pass the digest gate and cut over.

        The recovery/republish scenario: the serving tier holds a build
        of the same window (answers identical), and roll_forward proves
        equivalence through the shadow gate before promoting the
        refreshed shard set.
        """
        from repro.serve.shard.service import ShardedService

        driver = RefreshDriver.create(
            tmp_path / "root",
            small_dataset.taxonomy,
            MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
        )
        driver.ingest(_batches(small_dataset, [250])[0])
        service = ShardedService(driver.current(), shards=2, replication=1)
        try:
            status = driver.roll_forward(service, window=8, seed=3)
            assert status["state"] == "cutover"
            assert status["probes"] >= 8
            assert status["mismatches"] == 0
            assert service.snapshot.version == driver.current().version
        finally:
            service.close()

    def test_roll_forward_diverging_answers_roll_back(
        self, small_dataset, tmp_path
    ):
        """A rule-set change fails the digest gate; the old set keeps
        serving (the refresh driver reports, the operator decides)."""
        from repro.serve.shard.service import ShardedService

        first, second = _batches(small_dataset, [250, 150])
        driver = RefreshDriver.create(
            tmp_path / "root",
            small_dataset.taxonomy,
            MIN_SUPPORT,
            min_confidence=MIN_CONFIDENCE,
            window_deltas=1,
        )
        driver.ingest(first)
        old = driver.current()
        service = ShardedService(old, shards=2, replication=1)
        try:
            driver.ingest(second)  # window of 1: entirely new rows
            assert driver.current().version != old.version
            status = driver.roll_forward(service, window=8, seed=3)
            assert status["state"] in {"shadow", "rolled_back"}
            assert service.snapshot.version == old.version
        finally:
            service.close()

    def test_roll_forward_requires_publication(self, paper_taxonomy, tmp_path):
        driver = RefreshDriver.create(
            tmp_path / "root", paper_taxonomy, min_support=0.99
        )
        driver.ingest([(10,), (12,)])
        with pytest.raises(StoreFormatError, match="nothing published"):
            driver.roll_forward(object())
