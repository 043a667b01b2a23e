"""The columnar transaction store: format, writer, reader.

Covers the on-disk contract (round-trips, segmentation, byte-stable
rewrites), the failure surface (corrupt segments, bad manifests,
truncation — all :class:`~repro.errors.StoreFormatError` with its own
exit code), the picklable view handles the process executor relies on,
and the streaming datagen path's row-for-row equivalence with the
in-memory generator.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

from repro.datagen.generator import (
    generate_dataset,
    generate_dataset_to_store,
    iter_transactions,
)
from repro.datagen.params import GeneratorParams
from repro.errors import StoreFormatError, exit_code_for
from repro.store import (
    MANIFEST_NAME,
    TAXONOMY_NAME,
    StoreWriter,
    open_store,
    write_store,
)
from repro.taxonomy.io import load_taxonomy

PARAMS = GeneratorParams(
    num_transactions=200,
    avg_transaction_size=6.0,
    avg_pattern_size=3.0,
    num_patterns=40,
    num_items=300,
    num_roots=10,
    fanout=3.0,
    seed=42,
)


def random_rows(count: int, seed: int = 7) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        size = rng.randrange(0, 12)
        rows.append(tuple(sorted(set(rng.randrange(5000) for _ in range(size)))))
    return rows


class TestRoundTrip:
    def test_rows_survive_write_and_read(self, tmp_path):
        rows = random_rows(257)
        write_store(rows, tmp_path / "s", segment_rows=64)
        store = open_store(tmp_path / "s")
        assert len(store) == 257
        assert store.num_segments == 5  # 4 full segments + a 1-row tail
        assert list(store) == rows
        assert store.total_items() == sum(len(r) for r in rows)

    def test_normalisation_matches_database(self, tmp_path):
        # Writer normalisation (sorted set) must equal TransactionDatabase's.
        write_store([(3, 1, 2, 2), (5, 5)], tmp_path / "s")
        store = open_store(tmp_path / "s")
        assert list(store) == [(1, 2, 3), (5,)]

    def test_random_access_and_views(self, tmp_path):
        rows = random_rows(100)
        write_store(rows, tmp_path / "s", segment_rows=16)
        store = open_store(tmp_path / "s")
        assert store[0] == rows[0]
        assert store.row(99) == rows[99]
        with pytest.raises(IndexError):
            store.row(100)
        view = store.view(start=3, step=4)
        assert list(view) == rows[3::4]
        assert len(view) == len(rows[3::4])
        assert view.total_items() == sum(len(r) for r in rows[3::4])

    def test_empty_transactions_are_preserved(self, tmp_path):
        rows = [(1, 2), (), (7,), ()]
        write_store(rows, tmp_path / "s")
        assert open_store(tmp_path / "s").to_list() == rows

    def test_rewrites_are_byte_stable(self, tmp_path):
        rows = random_rows(90)
        write_store(rows, tmp_path / "a", segment_rows=32)
        write_store(rows, tmp_path / "b", segment_rows=32)
        a_manifest = json.loads((tmp_path / "a" / MANIFEST_NAME).read_text())
        b_manifest = json.loads((tmp_path / "b" / MANIFEST_NAME).read_text())
        assert a_manifest["segments"] == b_manifest["segments"]
        for segment in a_manifest["segments"]:
            assert (
                (tmp_path / "a" / segment["file"]).read_bytes()
                == (tmp_path / "b" / segment["file"]).read_bytes()
            )


class TestWriter:
    def test_refuses_existing_manifest(self, tmp_path):
        write_store([(1,)], tmp_path / "s")
        with pytest.raises(StoreFormatError, match="refusing to overwrite"):
            StoreWriter(tmp_path / "s")

    def test_rejects_out_of_range_items(self, tmp_path):
        writer = StoreWriter(tmp_path / "s")
        with pytest.raises(StoreFormatError, match="item ids"):
            writer.append([-1])
        with pytest.raises(StoreFormatError, match="item ids"):
            writer.append([2**32])

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = StoreWriter(tmp_path / "s")
        writer.append([1])
        writer.close()
        with pytest.raises(StoreFormatError, match="closed"):
            writer.append([2])

    def test_crashed_writer_leaves_no_manifest(self, tmp_path):
        with pytest.raises(RuntimeError):
            with StoreWriter(tmp_path / "s") as writer:
                writer.append([1, 2])
                raise RuntimeError("boom")
        assert not (tmp_path / "s" / MANIFEST_NAME).exists()
        with pytest.raises(StoreFormatError):
            open_store(tmp_path / "s")


class TestCorruption:
    def make_store(self, tmp_path):
        write_store(random_rows(40), tmp_path / "s", segment_rows=16)
        return tmp_path / "s"

    def test_flipped_byte_fails_verification(self, tmp_path):
        path = self.make_store(tmp_path)
        segment = path / "seg-00001.bin"
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF
        segment.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="digest mismatch"):
            open_store(path)
        # verify=False defers the check; scans still work on intact segments.
        store = open_store(path, verify=False)
        assert store[0] is not None

    def test_store_error_has_its_own_exit_code(self, tmp_path):
        path = self.make_store(tmp_path)
        (path / "seg-00000.bin").write_bytes(b"garbage")
        with pytest.raises(StoreFormatError) as excinfo:
            open_store(path)
        assert exit_code_for(excinfo.value) == 18

    def test_manifest_not_json(self, tmp_path):
        path = self.make_store(tmp_path)
        (path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(StoreFormatError, match="not JSON"):
            open_store(path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(StoreFormatError, match="not a store"):
            open_store(tmp_path / "nowhere")

    def test_wrong_schema(self, tmp_path):
        path = self.make_store(tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["schema"] = "somebody.else/v9"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="schema"):
            open_store(path)

    def test_truncated_segment(self, tmp_path):
        path = self.make_store(tmp_path)
        segment = path / "seg-00000.bin"
        segment.write_bytes(segment.read_bytes()[:-8])
        with pytest.raises(StoreFormatError):
            open_store(path)


class TestPickleHandles:
    def test_store_view_pickles_as_a_handle(self, tmp_path):
        rows = random_rows(64)
        write_store(rows, tmp_path / "s", segment_rows=16)
        store = open_store(tmp_path / "s")
        view = store.view(start=1, step=3)
        clone = pickle.loads(pickle.dumps(view))
        assert list(clone) == rows[1::3]
        assert clone.total_items() == view.total_items()
        # The handle is tiny: no row data crosses the pickle boundary.
        assert len(pickle.dumps(view)) < 400


class TestStreamingDatagen:
    def test_iterator_matches_materialised_generator(self):
        dataset = generate_dataset(PARAMS)
        rng = random.Random(PARAMS.seed)
        from repro.taxonomy.generate import generate_taxonomy

        taxonomy = generate_taxonomy(
            num_items=PARAMS.num_items,
            num_roots=PARAMS.num_roots,
            fanout=PARAMS.fanout,
            seed=rng.randrange(2**31),
        )
        streamed = list(iter_transactions(PARAMS, taxonomy, rng=rng))
        assert streamed == list(dataset.database)

    def test_store_generation_is_row_identical(self, tmp_path):
        manifest = generate_dataset_to_store(
            PARAMS, tmp_path / "s", segment_rows=64
        )
        assert manifest.name == MANIFEST_NAME
        store = open_store(tmp_path / "s")
        dataset = generate_dataset(PARAMS)
        assert list(store) == list(dataset.database)
        taxonomy = load_taxonomy(tmp_path / "s" / TAXONOMY_NAME)
        assert taxonomy.items == dataset.taxonomy.items
        assert store.meta["params"]["seed"] == PARAMS.seed
