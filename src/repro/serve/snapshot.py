"""Snapshot compiler — the immutable artifact the query engine serves.

A *snapshot* freezes one mining run's rule set together with the
taxonomy into a schema-versioned, byte-stable JSONL document
(``{"schema": "repro.serve", "v": 1}``, mirroring the ``repro.obs``
sink convention).  It is the hand-off point of the offline→online
pipeline: miners write rules, the compiler indexes them, the serving
layer memory-maps the result and never touches mining code again.

Three derived structures are compiled in and serialized so the online
path performs **no taxonomy tree walks**:

* **ancestor-closure keys** — for every item, its ``ancestors_or_self``
  tuple.  A basket of leaf items expands to its closure by dictionary
  lookups only, which is what lets a rule stated at any hierarchy level
  (``{Outerwear} => {Hiking Boots}``) match a basket of leaves;
* **antecedent inverted index** — item → sorted rule ids whose
  antecedent contains the item.  Query candidates are the union of the
  postings of the basket's closure items;
* **antecedent bitmasks** — each rule's antecedent as a bitmask over a
  compact item→bit mapping (the ``repro.perf`` k=2 bitmask layer
  applied to serving): a candidate matches exactly when
  ``ant_mask & ~closure_mask == 0``.

Byte stability: every line is serialized with sorted keys and compact
separators, all collections are emitted in sorted order, and the header
records a SHA-256 over the body lines as the snapshot ``version``.
Loading re-derives the index from the rule lines and re-verifies the
digest, so *build → load → re-serialize* is byte-identical and a
corrupted or hand-edited snapshot is rejected
(:class:`~repro.errors.SnapshotFormatError`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.result import MiningResult, Rule
from repro.core.rules import rule_interest
from repro.errors import EmptyRuleSetError, SnapshotFormatError
from repro.taxonomy.hierarchy import Taxonomy

SCHEMA_NAME = "repro.serve"
SCHEMA_VERSION = 1


def _serialize(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ServedRule:
    """One compiled rule: canonical id plus its three scoring signals.

    ``interest`` is the R-interest ratio of
    :func:`repro.core.rules.rule_interest`; ``None`` means no close
    ancestor rule predicts this rule (maximally interesting).
    """

    rule_id: int
    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]
    support: float
    confidence: float
    interest: float | None

    def to_record(self) -> dict:
        return {
            "type": "rule",
            "id": self.rule_id,
            "ant": list(self.antecedent),
            "cons": list(self.consequent),
            "sup": self.support,
            "conf": self.confidence,
            "interest": self.interest,
        }


class RuleSnapshot:
    """An immutable, versioned, query-ready rule index.

    Construct through :func:`compile_snapshot` or :func:`load_snapshot`;
    the constructor derives every index deterministically from the
    canonical rule list and parent map, so two snapshots built from the
    same rules are bit-identical regardless of construction path.
    """

    __slots__ = (
        "rules",
        "parents",
        "closures",
        "index",
        "item_bits",
        "rule_masks",
        "leaves",
        "source",
        "version",
        "_body",
    )

    def __init__(
        self,
        rules: tuple[ServedRule, ...],
        parents: dict[int, int | None],
        source: dict | None = None,
    ):
        if not rules:
            raise EmptyRuleSetError("a snapshot needs at least one rule")
        for position, rule in enumerate(rules):
            if rule.rule_id != position:
                raise SnapshotFormatError(
                    f"rule ids must be dense and ordered: position {position} "
                    f"holds id {rule.rule_id}"
                )
        self.rules = rules
        self.parents = dict(parents)
        self.source = dict(source) if source else {}

        taxonomy = Taxonomy(self.parents) if self.parents else None
        universe = set(self.parents)
        for rule in rules:
            universe.update(rule.antecedent)
            universe.update(rule.consequent)
        closures: dict[int, tuple[int, ...]] = {}
        for item in sorted(universe):
            if taxonomy is not None and item in taxonomy:
                closures[item] = taxonomy.ancestors_or_self(item)
            else:
                closures[item] = (item,)
        self.closures = closures

        postings: dict[int, list[int]] = {}
        for rule in rules:
            for item in rule.antecedent:
                postings.setdefault(item, []).append(rule.rule_id)
        self.index = {
            item: tuple(sorted(rule_ids))
            for item, rule_ids in sorted(postings.items())
        }

        # Bitmask layer: bits only for items that key the index — the
        # closure mask drops everything else, the subset test is exact.
        self.item_bits = {
            item: bit for bit, item in enumerate(sorted(self.index))
        }
        self.rule_masks = tuple(
            self._mask(rule.antecedent) for rule in rules
        )
        if taxonomy is not None:
            self.leaves = taxonomy.leaves
        else:
            self.leaves = tuple(sorted(universe))
        # Serialized once: the digest covers these bytes and to_jsonl
        # writes them.
        self._body = "\n".join(self._body_lines())
        self.version = hashlib.sha256(self._body.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    def _mask(self, items: tuple[int, ...]) -> int:
        mask = 0
        for item in items:
            mask |= 1 << self.item_bits[item]
        return mask

    def closure_mask(self, closure: tuple[int, ...]) -> int:
        """Bitmask of the closure items that key the index."""
        bits = self.item_bits
        mask = 0
        for item in closure:
            bit = bits.get(item)
            if bit is not None:
                mask |= 1 << bit
        return mask

    @property
    def num_rules(self) -> int:
        return len(self.rules)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _body_lines(self) -> list[str]:
        lines = [
            _serialize(
                {
                    "type": "taxonomy",
                    "parents": [
                        [item, parent]
                        for item, parent in sorted(self.parents.items())
                    ],
                }
            )
        ]
        for item, keys in sorted(self.closures.items()):
            lines.append(
                _serialize({"type": "closure", "item": item, "keys": list(keys)})
            )
        for rule in self.rules:
            lines.append(_serialize(rule.to_record()))
        for item, rule_ids in sorted(self.index.items()):
            lines.append(
                _serialize({"type": "index", "item": item, "rules": list(rule_ids)})
            )
        lines.append(_serialize({"type": "end", "rules": len(self.rules)}))
        return lines

    def to_jsonl(self) -> str:
        """The full byte-stable document (meta + header + body)."""
        header = _serialize(
            {
                "type": "header",
                "version": self.version,
                "rules": len(self.rules),
                "items": len(self.closures),
                "index_keys": len(self.index),
                "source": {
                    key: self.source[key] for key in sorted(self.source)
                },
            }
        )
        meta = _serialize({"type": "meta", "schema": SCHEMA_NAME, "v": SCHEMA_VERSION})
        return "\n".join([meta, header, self._body]) + "\n"

    def __repr__(self) -> str:
        return (
            f"RuleSnapshot(rules={len(self.rules)}, items={len(self.closures)}, "
            f"version={self.version[:12]})"
        )


def compile_snapshot(
    rules: list[Rule],
    taxonomy: Taxonomy | None,
    result: MiningResult | None = None,
    interests: list[float | None] | None = None,
    source: dict | None = None,
) -> RuleSnapshot:
    """Compile generated rules (+ taxonomy) into a :class:`RuleSnapshot`.

    Parameters
    ----------
    rules:
        Output of :func:`repro.core.rules.generate_rules` (or
        ``interesting_rules``).  Canonical rule ids are assigned in
        sorted ``(antecedent, consequent)`` order, independent of the
        input ordering.
    taxonomy:
        The classification hierarchy; ``None`` builds a flat snapshot
        (closures degenerate to the item itself).
    result:
        When given, each rule's R-interest ratio is computed from the
        mining result via :func:`repro.core.rules.rule_interest`.
    interests:
        Pre-computed interest ratios aligned with ``rules`` (used when
        building from an exported rules file); mutually exclusive with
        ``result``.
    """
    if not rules:
        raise EmptyRuleSetError(
            "cannot compile a snapshot from zero rules; lower the "
            "confidence/interest thresholds or mine a larger dataset"
        )
    if interests is not None and len(interests) != len(rules):
        raise SnapshotFormatError(
            f"{len(interests)} interest values for {len(rules)} rules"
        )
    by_rule: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[Rule, float | None]]
    by_rule = {}
    if interests is None and result is not None and taxonomy is not None:
        supports = result.large_itemsets()
        by_key = {(rule.antecedent, rule.consequent): rule for rule in rules}
        interests = [
            rule_interest(rule, by_key, supports, taxonomy) for rule in rules
        ]
    for position, rule in enumerate(rules):
        key = (tuple(rule.antecedent), tuple(rule.consequent))
        if key in by_rule:
            raise SnapshotFormatError(f"duplicate rule {key[0]} => {key[1]}")
        by_rule[key] = (
            rule,
            interests[position] if interests is not None else None,
        )
    served = tuple(
        ServedRule(
            rule_id=rule_id,
            antecedent=key[0],
            consequent=key[1],
            support=float(by_rule[key][0].support),
            confidence=float(by_rule[key][0].confidence),
            interest=by_rule[key][1],
        )
        for rule_id, key in enumerate(sorted(by_rule))
    )
    parents = taxonomy.parent_map() if taxonomy is not None else {}
    return RuleSnapshot(served, parents, source=source)


def write_snapshot(snapshot: RuleSnapshot, path: str | Path) -> Path:
    """Write the snapshot document atomically; returns the path written.

    The commit goes through :func:`repro.store.atomic.atomic_write_text`
    so a crashed writer never leaves a torn snapshot where a server (or
    the refresh driver's ``CURRENT`` pointer) could load it.
    """
    from repro.store.atomic import atomic_write_text

    return atomic_write_text(Path(path), snapshot.to_jsonl())


def parse_snapshot(text: str) -> RuleSnapshot:
    """Parse and verify a snapshot document (inverse of ``to_jsonl``)."""
    records: list[dict] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise SnapshotFormatError(
                f"snapshot line {number} is not JSON: {error}"
            ) from None
        if not isinstance(record, dict) or "type" not in record:
            raise SnapshotFormatError(f"snapshot line {number} is not a record")
        records.append(record)
    if len(records) < 4:
        raise SnapshotFormatError("truncated snapshot document")
    meta, header = records[0], records[1]
    if meta.get("type") != "meta" or meta.get("schema") != SCHEMA_NAME:
        raise SnapshotFormatError(
            "snapshot does not start with a repro.serve meta line"
        )
    if meta.get("v") != SCHEMA_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot schema version {meta.get('v')!r} "
            f"(this reader understands v{SCHEMA_VERSION})"
        )
    if header.get("type") != "header" or "version" not in header:
        raise SnapshotFormatError("snapshot header line missing")
    if records[-1].get("type") != "end":
        raise SnapshotFormatError("snapshot end line missing (truncated file?)")

    parents: dict[int, int | None] = {}
    served: list[ServedRule] = []
    try:
        for record in records[2:-1]:
            kind = record["type"]
            if kind == "taxonomy":
                parents = {
                    int(item): (None if parent is None else int(parent))
                    for item, parent in record["parents"]
                }
            elif kind == "rule":
                interest = record["interest"]
                served.append(
                    ServedRule(
                        rule_id=int(record["id"]),
                        antecedent=tuple(int(i) for i in record["ant"]),
                        consequent=tuple(int(i) for i in record["cons"]),
                        support=float(record["sup"]),
                        confidence=float(record["conf"]),
                        interest=None if interest is None else float(interest),
                    )
                )
            elif kind not in ("closure", "index"):
                raise SnapshotFormatError(f"unknown snapshot record type {kind!r}")
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotFormatError(f"malformed snapshot record: {error}") from None
    if int(records[-1].get("rules", -1)) != len(served):
        raise SnapshotFormatError(
            f"end line declares {records[-1].get('rules')} rules, "
            f"found {len(served)}"
        )

    snapshot = RuleSnapshot(tuple(served), parents, source=header.get("source"))
    if snapshot.version != header["version"]:
        raise SnapshotFormatError(
            "snapshot digest mismatch: header records "
            f"{header['version'][:12]}…, content hashes to "
            f"{snapshot.version[:12]}… (corrupted or hand-edited file)"
        )
    return snapshot


def load_snapshot(path: str | Path) -> RuleSnapshot:
    """Load and verify a snapshot written by :func:`write_snapshot`."""
    return parse_snapshot(Path(path).read_text(encoding="utf-8"))
