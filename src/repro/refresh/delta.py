"""Incremental maintainer: exact frequent itemsets under delta updates.

:class:`IncrementalMiner` holds the mining state of the active window:

* ``item_counts`` — the pass-1 census (every item and every ancestor,
  deduplicated per transaction), maintained by adding the census of new
  rows and subtracting the census of evicted rows;
* ``bands`` — per pass ``k``, exact counts for the full candidate set
  of the levelwise recurrence (large + negative border, see
  :mod:`repro.refresh.borderline`), maintained by one counting pass of
  each delta over the tracked candidates.

:meth:`apply_delta` is the whole protocol: update the censuses with one
pass over the new (and expiring) rows only, then re-run the levelwise
fixpoint over the band, scanning the window only for candidates that a
promotion just made reachable.  The resulting
:class:`~repro.core.result.MiningResult` equals a from-scratch batch
:func:`~repro.core.cumulate.cumulate` over the same window — the test
suite sweeps delta sizes (including empty and window-evicting deltas),
seeds and ``PYTHONHASHSEED`` to pin exactly that.

State is checkpointable: :meth:`to_payload` serialises the counters to
a canonical JSON document and :meth:`from_payload` restores them, which
is what lets the refresh driver recover a crash without replaying the
whole window.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.core.counting import count_items
from repro.core.itemsets import Itemset
from repro.core.result import MiningResult, PassResult
from repro.errors import MiningError
from repro.perf.config import CountingConfig
from repro.refresh.borderline import count_over, levelwise_fixpoint
from repro.taxonomy.hierarchy import Taxonomy
from repro.taxonomy.ops import AncestorIndex

#: Schema tag of a serialised miner state (the checkpoint payload).
STATE_SCHEMA = "repro.refresh.miner/v1"


@dataclass(frozen=True)
class DeltaStats:
    """What one :meth:`IncrementalMiner.apply_delta` did."""

    rows_added: int
    rows_evicted: int
    promotions: int
    demotions: int
    rescanned: int
    tracked: int

    def to_json(self) -> dict:
        return {
            "rows_added": self.rows_added,
            "rows_evicted": self.rows_evicted,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "rescanned": self.rescanned,
            "tracked": self.tracked,
        }


class IncrementalMiner:
    """Exact incremental Cumulate over a sliding window (see module doc)."""

    def __init__(
        self,
        taxonomy: Taxonomy,
        min_support: float,
        max_k: int | None = None,
        counting: CountingConfig | None = None,
    ):
        if not 0 < min_support <= 1:
            raise MiningError(
                f"min_support must be in (0, 1], got {min_support}"
            )
        self.taxonomy = taxonomy
        self.min_support = min_support
        self.max_k = max_k
        self.counting = counting if counting is not None else CountingConfig()
        self.n = 0
        self.item_counts: dict[int, int] = {}
        self.bands: dict[int, dict[Itemset, int]] = {}
        self.passes: list[PassResult] = [
            PassResult(k=1, num_candidates=0, large={})
        ]

    # ------------------------------------------------------------------
    @property
    def tracked_itemsets(self) -> int:
        """Band size across passes (large + negative border)."""
        return sum(len(band) for band in self.bands.values())

    def result(self) -> MiningResult:
        """The window's mining result (batch-identical structure)."""
        if self.n <= 0:
            raise MiningError("cannot mine an empty window")
        return MiningResult(
            min_support=self.min_support,
            num_transactions=self.n,
            passes=list(self.passes),
        )

    def large_itemsets(self) -> dict[Itemset, int]:
        merged: dict[Itemset, int] = {}
        for pass_result in self.passes:
            merged.update(pass_result.large)
        return merged

    # ------------------------------------------------------------------
    def apply_delta(
        self,
        added: Iterable[tuple[int, ...]],
        evicted: Iterable[tuple[int, ...]],
        window: Callable[[], Iterable[tuple[int, ...]]],
    ) -> DeltaStats:
        """Fold one delta into the window state.

        Parameters
        ----------
        added:
            The new rows entering the window (sorted, deduplicated
            tuples — the log's normalised form).
        evicted:
            Rows leaving the window (the deltas this append expired).
        window:
            Zero-argument callable yielding the **post-delta** active
            window; only consumed when a borderline promotion needs
            counts for candidates the band never tracked.
        """
        added = [tuple(row) for row in added]
        evicted = [tuple(row) for row in evicted]

        before_large = self.large_itemsets()

        # Pass-1 census: add the new rows' item+ancestor counts,
        # subtract the expiring rows'.  Counter arithmetic over exact
        # integers — zero entries are dropped so the census never grows
        # past the window's live item universe.
        full_index = AncestorIndex(self.taxonomy)
        for rows, sign in ((added, 1), (evicted, -1)):
            if not rows:
                continue
            for item, count in count_items(rows, full_index).items():
                updated = self.item_counts.get(item, 0) + sign * count
                if updated:
                    self.item_counts[item] = updated
                else:
                    self.item_counts.pop(item, None)
        self.n += len(added) - len(evicted)
        if self.n < 0:
            raise MiningError(
                f"window row count went negative ({self.n}); "
                "evictions do not match the log"
            )

        # One pass of the delta rows over every tracked candidate: the
        # band stays an exact census of the new window.
        for k, band in sorted(self.bands.items()):
            candidates = sorted(band)
            for rows, sign in ((added, 1), (evicted, -1)):
                if not rows:
                    continue
                counts = count_over(
                    rows, candidates, k, self.taxonomy, self.counting
                )
                for candidate, hits in counts.items():
                    if hits:
                        band[candidate] += sign * hits

        # Levelwise fixpoint; unknown candidates fall back to a window
        # scan (the targeted partial re-mine).
        fix = levelwise_fixpoint(
            self.item_counts,
            self.n,
            self.min_support,
            self.taxonomy,
            self.bands,
            lambda unknown, k: count_over(
                window(), unknown, k, self.taxonomy, self.counting
            ),
            max_k=self.max_k,
        )
        self.bands = fix.bands
        self.passes = fix.passes

        after_large = self.large_itemsets()
        promotions = sum(
            1 for itemset in after_large if itemset not in before_large
        )
        demotions = sum(
            1 for itemset in before_large if itemset not in after_large
        )
        return DeltaStats(
            rows_added=len(added),
            rows_evicted=len(evicted),
            promotions=promotions,
            demotions=demotions,
            rescanned=fix.total_rescanned,
            tracked=self.tracked_itemsets,
        )

    # ------------------------------------------------------------------
    # Checkpoint serialisation
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """Canonical JSON document of the full miner state."""
        return {
            "schema": STATE_SCHEMA,
            "min_support": self.min_support,
            "max_k": self.max_k,
            "n": self.n,
            "items": [
                [item, count] for item, count in sorted(self.item_counts.items())
            ],
            "bands": [
                [
                    k,
                    [
                        [list(itemset), count]
                        for itemset, count in sorted(band.items())
                    ],
                ]
                for k, band in sorted(self.bands.items())
            ],
            "passes": [
                {
                    "k": pass_result.k,
                    "num_candidates": pass_result.num_candidates,
                    "large": [
                        [list(itemset), count]
                        for itemset, count in sorted(pass_result.large.items())
                    ],
                }
                for pass_result in self.passes
            ],
        }

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        taxonomy: Taxonomy,
        counting: CountingConfig | None = None,
    ) -> "IncrementalMiner":
        """Restore a checkpointed miner (inverse of :meth:`to_payload`)."""
        if payload.get("schema") != STATE_SCHEMA:
            raise MiningError(
                f"not a miner checkpoint (expected schema {STATE_SCHEMA!r}, "
                f"got {payload.get('schema')!r})"
            )
        miner = cls(
            taxonomy,
            float(payload["min_support"]),
            max_k=payload["max_k"],
            counting=counting,
        )
        miner.n = int(payload["n"])
        miner.item_counts = {
            int(item): int(count) for item, count in payload["items"]
        }
        miner.bands = {
            int(k): {
                tuple(int(i) for i in itemset): int(count)
                for itemset, count in entries
            }
            for k, entries in payload["bands"]
        }
        miner.passes = [
            PassResult(
                k=int(entry["k"]),
                num_candidates=int(entry["num_candidates"]),
                large={
                    tuple(int(i) for i in itemset): int(count)
                    for itemset, count in entry["large"]
                },
            )
            for entry in payload["passes"]
        ]
        return miner
