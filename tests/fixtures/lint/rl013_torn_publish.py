"""RL013 fixture: raw writes on publish artifacts."""
# repro-analyze: module=repro.perf.fixture_publish

import json

MANIFEST_NAME = "manifest.json"
CURRENT_NAME = "CURRENT"


def raw_manifest_write(manifest_path, payload):
    manifest_path.write_text(json.dumps(payload))  # expect: RL013


def raw_snapshot_write(snapshot_path, body):
    snapshot_path.write_bytes(body)  # expect: RL013


def raw_pointer_write(root, payload):
    (root / CURRENT_NAME).write_text(json.dumps(payload))  # expect: RL013


def raw_named_manifest(store_dir, payload):
    (store_dir / "manifest.json").write_text(json.dumps(payload))  # expect: RL013


def raw_state_write(root, payload):
    (root / "state.json").write_text(json.dumps(payload))  # expect: RL013


def atomic_commit_is_fine(manifest_path, payload):
    from repro.store.atomic import atomic_write_json

    return atomic_write_json(manifest_path, payload)


def ordinary_files_are_fine(report_path, lines, data_dir):
    # Non-artifact writes are ordinary code: reports, logs, data files.
    report_path.write_text("\n".join(lines))
    (data_dir / "rows.bin").write_bytes(b"\x00")
