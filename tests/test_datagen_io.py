"""Unit tests for repro.datagen.io."""

import pytest

from repro.datagen.corpus import TransactionDatabase
from repro.datagen.io import load_transactions_text, save_transactions_text
from repro.errors import TransactionFormatError
from repro.store import open_store, write_store


@pytest.fixture
def database():
    return TransactionDatabase([(1, 2, 3), (), (7,), (100000, 200000)])


class TestTextFormat:
    def test_roundtrip(self, database, tmp_path):
        path = tmp_path / "t.txt"
        save_transactions_text(database, path)
        assert load_transactions_text(path) == database

    def test_empty_database(self, tmp_path):
        path = tmp_path / "empty.txt"
        save_transactions_text(TransactionDatabase([]), path)
        assert len(load_transactions_text(path)) == 0

    def test_blank_line_is_empty_transaction(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 2\n\n3\n")
        db = load_transactions_text(path)
        assert list(db) == [(1, 2), (), (3,)]

    def test_non_integer_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nx y\n")
        with pytest.raises(TransactionFormatError, match=":2"):
            load_transactions_text(path)


class TestCrossFormat:
    def test_generated_data_roundtrips_both(self, small_dataset, tmp_path):
        """Text and the columnar store, the two on-disk formats."""
        db = small_dataset.database
        text_path = tmp_path / "d.txt"
        save_transactions_text(db, text_path)
        write_store(db, tmp_path / "store")
        assert load_transactions_text(text_path) == db
        assert TransactionDatabase(open_store(tmp_path / "store")) == db
