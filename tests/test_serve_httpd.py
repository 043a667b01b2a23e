"""HTTP front end error paths: every rejected or failed request must
surface as an error trace record and an ``slo.errors`` count, so the
SLO error rate sees exactly what clients saw."""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.core.result import Rule
from repro.errors import ServingError
from repro.obs.registry import MetricsRegistry
from repro.serve.batch import ServeService
from repro.serve.httpd import make_server
from repro.serve.snapshot import compile_snapshot
from repro.taxonomy.builder import taxonomy_from_parents


def _snapshot():
    taxonomy = taxonomy_from_parents({1: None, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3})
    rules = [
        Rule(antecedent=(2,), consequent=(6,), support=0.5, confidence=0.8),
        Rule(antecedent=(4,), consequent=(5,), support=0.3, confidence=0.7),
    ]
    return compile_snapshot(rules, taxonomy)


@pytest.fixture()
def served():
    """A live server on an ephemeral port; yields (service, host, port)."""
    registry = MetricsRegistry()
    service = ServeService(_snapshot(), workers=1, registry=registry)
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, *server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.close()


@pytest.fixture()
def sharded_served(tmp_path):
    """A live server over the sharded tier; yields (service, host,
    port, snapshot_path) with the serving snapshot also on disk."""
    from repro.serve.shard.service import ShardedService
    from repro.serve.snapshot import write_snapshot

    snapshot = _snapshot()
    snapshot_path = tmp_path / "next.jsonl"
    write_snapshot(snapshot, snapshot_path)
    service = ShardedService(snapshot, shards=2, replication=1)
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, *server.server_address, snapshot_path
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.close()


def _post(host, port, body: bytes, path="/query"):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def _get(host, port, path):
    """``GET path``; returns (status, content type, body text)."""
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        return response.status, response.getheader("Content-Type"), body
    finally:
        conn.close()


def _error_records(service):
    return [
        record
        for record in service.tracer.records
        if record["status"] == "error"
    ]


class TestQuerySuccess:
    def test_valid_query_traced_and_served(self, served):
        service, host, port = served
        status, payload = _post(
            host, port, json.dumps({"basket": [4], "top_k": 3}).encode()
        )
        assert status == 200
        assert payload["version"] == service.version
        records = service.tracer.records
        assert len(records) == 1 and records[0]["status"] == "ok"
        assert records[0]["path"] == "http"
        assert service.registry.value(
            "slo.requests", path="http", status="ok"
        ) == 1


class TestRejectedBodies:
    def test_malformed_json(self, served):
        service, host, port = served
        status, payload = _post(host, port, b"{not json")
        assert status == 400
        assert "bad JSON" in payload["error"]
        (record,) = _error_records(service)
        assert record["error"] == "bad_json" and record["path"] == "http"
        assert service.registry.value("slo.errors", kind="bad_json") == 1

    def test_missing_basket(self, served):
        service, host, port = served
        status, _ = _post(host, port, json.dumps({"top_k": 3}).encode())
        assert status == 400
        (record,) = _error_records(service)
        assert record["error"] == "bad_request"
        assert service.registry.value("slo.errors", kind="bad_request") == 1

    def test_non_integer_basket(self, served):
        service, host, port = served
        status, _ = _post(
            host, port, json.dumps({"basket": ["spam"]}).encode()
        )
        assert status == 400
        (record,) = _error_records(service)
        assert record["error"] == "bad_request"

    def test_unknown_snapshot_version_pinned(self, served):
        service, host, port = served
        status, payload = _post(
            host,
            port,
            json.dumps({"basket": [4], "version": "not-a-version"}).encode(),
        )
        assert status == 409
        assert "version mismatch" in payload["error"]
        (record,) = _error_records(service)
        assert record["error"] == "version_mismatch"
        assert (
            service.registry.value("slo.errors", kind="version_mismatch") == 1
        )

    def test_pinned_current_version_is_served(self, served):
        service, host, port = served
        status, _ = _post(
            host,
            port,
            json.dumps({"basket": [4], "version": service.version}).encode(),
        )
        assert status == 200
        assert not _error_records(service)


class TestEngineFailureMidBatch:
    def test_engine_exception_becomes_error_span_and_counter(self, served):
        service, host, port = served

        def explode(*args, **kwargs):
            raise ServingError("engine blew up mid-batch")

        service.engine.query = explode
        status, payload = _post(host, port, json.dumps({"basket": [4]}).encode())
        assert status == 400
        assert "engine blew up" in payload["error"]
        (record,) = _error_records(service)
        assert record["path"] == "http"
        assert record["error"] == "serving error"
        # The failed request still reconciles: its phases are stamped up
        # to the failure point and the residual lands in overhead.
        phases = record["phases"]
        assert (
            phases["queue_wait"] + phases["batch_exec"] + phases["overhead"]
            == phases["end_to_end"]
        )
        assert service.registry.value("slo.errors", kind="serving error") == 1
        assert (
            service.registry.value("slo.requests", path="http", status="error")
            == 1
        )

    def test_error_requests_count_toward_totals(self, served):
        service, host, port = served
        _post(host, port, b"broken")
        _post(host, port, json.dumps({"basket": [4]}).encode())
        registry = service.registry
        ok = registry.value("slo.requests", path="http", status="ok")
        bad = registry.value("slo.requests", path="http", status="error")
        assert (ok, bad) == (1, 1)


class TestGetRoutes:
    """The read-only routes that health checks and scrapers depend on."""

    def test_healthz_and_version(self, served):
        service, host, port = served
        status, _, body = _get(host, port, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok", "version": service.version}
        status, _, body = _get(host, port, "/version")
        assert status == 200
        assert json.loads(body) == {"version": service.version}

    def test_metrics_are_prometheus_text_with_unlabelled_serve_series(
        self, served
    ):
        _service, host, port = served
        status, _ = _post(host, port, json.dumps({"basket": [4]}).encode())
        assert status == 200
        status, content_type, body = _get(host, port, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        series = {}
        for line in body.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                series[name] = float(value)
        # Unlabelled series: scrapers sum them by their bare names.
        assert series["repro_serve_batches"] >= 1
        assert series["repro_serve_batched_queries"] >= 1

    def test_shards_only_on_the_sharded_tier(self, served, sharded_served):
        _service, host, port = served
        status, _, body = _get(host, port, "/shards")
        assert status == 404
        assert "no route" in json.loads(body)["error"]
        service, host, port, _path = sharded_served
        status, _, body = _get(host, port, "/shards")
        assert status == 200
        shards = json.loads(body)
        assert shards["version"] == service.version
        assert (shards["partitions"], shards["replication"]) == (2, 1)

    def test_unknown_path_is_404(self, served):
        _service, host, port = served
        status, _, body = _get(host, port, "/nope")
        assert status == 404
        assert json.loads(body) == {"error": "no route /nope"}


class TestRolloutEndpoint:
    """POST /rollout: the operator surface over the rolling rollout."""

    def _rollout(self, host, port, payload):
        return _post(
            host, port, json.dumps(payload).encode("utf-8"), path="/rollout"
        )

    def test_batch_tier_has_no_rollout(self, served):
        _service, host, port = served
        status, body = self._rollout(host, port, {"action": "status"})
        assert status == 400
        assert "sharded tier" in body["error"]

    def test_status_without_rollout_is_null(self, sharded_served):
        _service, host, port, _path = sharded_served
        status, body = self._rollout(host, port, {"action": "status"})
        assert status == 200
        assert body == {"rollout": None}

    def test_rollback_without_rollout_conflicts(self, sharded_served):
        _service, host, port, _path = sharded_served
        status, body = self._rollout(host, port, {"action": "rollback"})
        assert status == 409
        assert "no rollout" in body["error"]

    def test_begin_needs_snapshot_path(self, sharded_served):
        _service, host, port, _path = sharded_served
        status, body = self._rollout(host, port, {"action": "begin"})
        assert status == 400
        assert "snapshot" in body["error"]

    def test_begin_with_unreadable_snapshot(self, sharded_served, tmp_path):
        _service, host, port, _path = sharded_served
        status, body = self._rollout(
            host,
            port,
            {"action": "begin", "snapshot": str(tmp_path / "missing.jsonl")},
        )
        assert status == 400

    def test_unknown_action_rejected(self, sharded_served):
        _service, host, port, _path = sharded_served
        status, body = self._rollout(host, port, {"action": "promote"})
        assert status == 400
        assert "begin" in body["error"]

    def test_bad_json_rejected(self, sharded_served):
        _service, host, port, _path = sharded_served
        status, body = _post(host, port, b"{nope", path="/rollout")
        assert status == 400

    def test_begin_then_rollback(self, sharded_served):
        _service, host, port, path = sharded_served
        status, body = self._rollout(
            host, port, {"action": "begin", "snapshot": str(path), "window": 4}
        )
        assert status == 200
        assert body["rollout"]["state"] == "shadow"

        # A second begin while the shadow runs is a conflict.
        status, body = self._rollout(
            host, port, {"action": "begin", "snapshot": str(path)}
        )
        assert status == 409

        status, body = self._rollout(host, port, {"action": "rollback"})
        assert status == 200
        assert body["rollout"]["state"] == "rolled_back"

        status, body = self._rollout(host, port, {"action": "status"})
        assert status == 200
        assert body["rollout"]["state"] == "rolled_back"

    def test_begin_then_cutover_via_queries(self, sharded_served):
        service, host, port, path = sharded_served
        status, body = self._rollout(
            host, port, {"action": "begin", "snapshot": str(path), "window": 3}
        )
        assert status == 200
        # The shadow snapshot is the serving snapshot re-loaded from
        # disk: every answer digest matches, so the compare window
        # fills and the gate cuts over.
        query = json.dumps({"basket": [4]}).encode("utf-8")
        for _ in range(8):
            code, _body = _post(host, port, query)
            assert code == 200
            if service.rollout.state == "cutover":
                break
        assert service.rollout.state == "cutover"

        status, body = self._rollout(host, port, {"action": "status"})
        assert body["rollout"]["state"] == "cutover"
