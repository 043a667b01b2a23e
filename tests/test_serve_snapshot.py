"""Snapshot compiler: byte stability, digest verification, rules I/O."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.result import Rule
from repro.errors import EmptyRuleSetError, SnapshotFormatError
from repro.serve.rules_io import (
    read_rules_jsonl,
    rules_to_jsonl,
    write_rules_jsonl,
)
from repro.serve.snapshot import (
    RuleSnapshot,
    ServedRule,
    compile_snapshot,
    load_snapshot,
    parse_snapshot,
    write_snapshot,
)


def _rule(ant, cons, sup=0.4, conf=0.8):
    return Rule(antecedent=tuple(ant), consequent=tuple(cons), support=sup, confidence=conf)


class TestCompile:
    def test_round_trip_is_byte_identical(self, serve_snapshot, tmp_path):
        path = write_snapshot(serve_snapshot, tmp_path / "snap.jsonl")
        text = path.read_text(encoding="utf-8")
        reloaded = load_snapshot(path)
        assert reloaded.to_jsonl() == text
        assert reloaded.version == serve_snapshot.version

    def test_version_independent_of_input_order(self, serve_snapshot):
        rules = [
            Rule(
                antecedent=served.antecedent,
                consequent=served.consequent,
                support=served.support,
                confidence=served.confidence,
            )
            for served in serve_snapshot.rules
        ]
        interests = [served.interest for served in serve_snapshot.rules]
        reordered = list(zip(rules, interests))[::-1]
        rebuilt = compile_snapshot(
            [pair[0] for pair in reordered],
            None,
            interests=[pair[1] for pair in reordered],
            source=serve_snapshot.source,
        )
        # Same rules, no taxonomy: rule lines identical, ids canonical.
        assert [r.antecedent for r in rebuilt.rules] == [
            r.antecedent for r in serve_snapshot.rules
        ]
        assert [r.rule_id for r in rebuilt.rules] == list(
            range(rebuilt.num_rules)
        )

    def test_empty_rule_set_rejected(self, paper_taxonomy):
        with pytest.raises(EmptyRuleSetError):
            compile_snapshot([], paper_taxonomy)

    def test_duplicate_rules_rejected(self, paper_taxonomy):
        with pytest.raises(SnapshotFormatError):
            compile_snapshot([_rule([9], [15]), _rule([9], [15])], paper_taxonomy)

    def test_non_dense_ids_rejected(self):
        served = (
            ServedRule(
                rule_id=3,
                antecedent=(1,),
                consequent=(2,),
                support=0.5,
                confidence=0.9,
                interest=None,
            ),
        )
        with pytest.raises(SnapshotFormatError):
            RuleSnapshot(served, {})

    def test_closures_precomputed_for_whole_universe(self, serve_snapshot):
        # Every taxonomy item and every rule item has a closure key; no
        # query-time tree walks are ever needed.
        # Closure keys are the leaf-to-root path (item first), fixed by
        # the taxonomy — deterministic, though not numerically sorted.
        for item, closure in serve_snapshot.closures.items():
            assert closure[0] == item
            assert len(closure) == len(set(closure))

    def test_index_postings_are_sorted_rule_ids(self, serve_snapshot):
        for item, postings in serve_snapshot.index.items():
            assert list(postings) == sorted(postings)
            for rule_id in postings:
                assert item in serve_snapshot.rules[rule_id].antecedent


class TestGoldenBytes:
    """What ``repro-serve`` loads is pinned byte for byte: the body is
    serialized once and reused, and that may never change a byte."""

    def test_paper_fixture(self, serve_snapshot):
        text = serve_snapshot.to_jsonl()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "3934c01d24755e4e80e4d309041a04a75cc78ebc6adca772181c9653d6d96ee9"
        )
        assert parse_snapshot(text).to_jsonl() == text

    def test_small_dataset(self, small_dataset):
        from repro.core.cumulate import cumulate
        from repro.core.rules import generate_rules

        result = cumulate(small_dataset.database, small_dataset.taxonomy, 0.15)
        rules = generate_rules(result, 0.6, small_dataset.taxonomy)
        snapshot = compile_snapshot(
            rules,
            small_dataset.taxonomy,
            result=result,
            source={"fixture": "small_dataset"},
        )
        assert snapshot.num_rules == 1393
        digest = hashlib.sha256(snapshot.to_jsonl().encode("utf-8")).hexdigest()
        assert digest == (
            "b52b4677aa1d854b6b0d93390208546d0a7acfc8e847cd244c49d5bbb59ec287"
        )


class TestParseRejections:
    def test_digest_mismatch_rejected(self, serve_snapshot):
        lines = serve_snapshot.to_jsonl().splitlines()
        for number, line in enumerate(lines):
            record = json.loads(line)
            if record["type"] == "rule":
                record["conf"] = 0.123
                lines[number] = json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                )
                break
        with pytest.raises(SnapshotFormatError, match="digest mismatch"):
            parse_snapshot("\n".join(lines) + "\n")

    def test_truncated_document_rejected(self, serve_snapshot):
        text = "\n".join(serve_snapshot.to_jsonl().splitlines()[:-1]) + "\n"
        with pytest.raises(SnapshotFormatError, match="end line"):
            parse_snapshot(text)

    def test_wrong_schema_rejected(self):
        with pytest.raises(SnapshotFormatError):
            parse_snapshot('{"type":"meta","schema":"other","v":1}\n' * 4)

    def test_wrong_version_rejected(self, serve_snapshot):
        lines = serve_snapshot.to_jsonl().splitlines()
        meta = json.loads(lines[0])
        meta["v"] = 99
        lines[0] = json.dumps(meta, sort_keys=True, separators=(",", ":"))
        with pytest.raises(SnapshotFormatError, match="version"):
            parse_snapshot("\n".join(lines) + "\n")

    def test_garbage_rejected(self):
        with pytest.raises(SnapshotFormatError):
            parse_snapshot("not json at all\n")


class TestRulesIO:
    def test_round_trip(self, tmp_path):
        rules = [_rule([9], [15], 0.3, 0.7), _rule([4, 7], [15], 0.2, 0.6)]
        interests = [1.5, None]
        path = write_rules_jsonl(rules, tmp_path / "rules.jsonl", interests)
        loaded, loaded_interests = read_rules_jsonl(path)
        assert {(r.antecedent, r.consequent) for r in loaded} == {
            (r.antecedent, r.consequent) for r in rules
        }
        by_key = dict(
            zip([(r.antecedent, r.consequent) for r in loaded], loaded_interests)
        )
        assert by_key[((9,), (15,))] == 1.5
        assert by_key[((4, 7), (15,))] is None

    def test_export_is_byte_stable(self):
        rules = [_rule([9], [15]), _rule([4], [15])]
        assert rules_to_jsonl(rules) == rules_to_jsonl(list(reversed(rules)))

    def test_empty_export_rejected(self):
        with pytest.raises(EmptyRuleSetError):
            rules_to_jsonl([])

    def test_zero_rule_file_rejected(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text(
            '{"rules":0,"schema":"repro.serve.rules","source":{},"type":"meta","v":1}\n'
        )
        with pytest.raises(EmptyRuleSetError):
            read_rules_jsonl(path)

    def test_count_mismatch_rejected(self, tmp_path):
        text = rules_to_jsonl([_rule([9], [15])])
        lines = text.splitlines()
        meta = json.loads(lines[0])
        meta["rules"] = 7
        lines[0] = json.dumps(meta, sort_keys=True, separators=(",", ":"))
        path = tmp_path / "rules.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SnapshotFormatError):
            read_rules_jsonl(path)

    def test_compile_from_file_matches_direct_compile(
        self, serve_snapshot, tmp_path, paper_taxonomy
    ):
        # mine → export → build must produce the identical snapshot bytes
        # as mine → build.
        rules = [
            Rule(
                antecedent=served.antecedent,
                consequent=served.consequent,
                support=served.support,
                confidence=served.confidence,
            )
            for served in serve_snapshot.rules
        ]
        interests = [served.interest for served in serve_snapshot.rules]
        path = write_rules_jsonl(rules, tmp_path / "rules.jsonl", interests)
        loaded_rules, loaded_interests = read_rules_jsonl(path)
        rebuilt = compile_snapshot(
            loaded_rules,
            paper_taxonomy,
            interests=loaded_interests,
            source=serve_snapshot.source,
        )
        assert rebuilt.to_jsonl() == serve_snapshot.to_jsonl()
