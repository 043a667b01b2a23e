"""Borderline-band algebra: the negative border under ancestor closure.

The incremental maintainer tracks, per pass ``k``, an exact support
count for **every** candidate Cumulate would generate from the current
large (k-1)-itemsets — the large k-itemsets *and* the candidates that
fell short (the negative border).  That band is closed under the same
generation rules as the batch algorithm (`apriori-gen` join + prune,
pass-2 ancestor-pair filter), so as long as the tracked counts are
exact over the active window, re-filtering the band by the current
threshold reproduces the batch large sets without touching the data.

A delta can *promote* borderline itemsets into the large set, which
changes the candidate sets of later passes: candidates that were never
tracked have no count, and the only exact way to obtain one is to scan
the window.  :func:`levelwise_fixpoint` runs the batch levelwise
recurrence over the band, calling back to a window scan **only for the
unknown candidates of a pass** — the targeted partial re-mine.  In the
steady state (no promotion crossing a band boundary) no callback fires
and a delta costs one pass over its own rows.

Counting semantics are identical to the batch miner's: a candidate is
counted in every transaction whose extension with the
candidate-referenced ancestors (:class:`~repro.taxonomy.ops.AncestorIndex`
with a ``keep`` universe) contains it, and its count never depends on
which other candidates are counted alongside, which is what makes the
incremental and batch counts interchangeable.  :func:`count_over` gets
that count by row-bitset intersection under the fast kernel and through
the reference :class:`~repro.core.counting.SupportCounter` under the
naive one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.core.candidates import candidate_item_universe, generate_candidates
from repro.core.itemsets import Itemset, minimum_count
from repro.core.result import PassResult
from repro.perf.config import CountingConfig
from repro.perf.kernels import vertical_support_counts
from repro.taxonomy.hierarchy import Taxonomy
from repro.taxonomy.ops import AncestorIndex

#: ``count_unknown(candidates, k)`` → exact counts over the full window.
CountUnknown = Callable[[list[Itemset], int], dict[Itemset, int]]


def count_over(
    rows: Iterable[tuple[int, ...]],
    candidates: list[Itemset],
    k: int,
    taxonomy: Taxonomy,
    counting: CountingConfig,
) -> dict[Itemset, int]:
    """Exact candidate supports over ``rows`` (batch counting semantics).

    The fast kernel intersects per-item row bitsets
    (:func:`~repro.perf.kernels.vertical_support_counts`); the naive
    kernel extends every row and feeds the reference counter.  Both
    consume ``rows`` once and return a count for every candidate.
    """
    if counting.fast:
        return vertical_support_counts(rows, candidates, k, taxonomy)
    universe = candidate_item_universe(candidates)
    index = AncestorIndex(taxonomy, keep=universe)
    counter = counting.support_counter(candidates, k)
    for row in rows:
        counter.add_transaction(index.extend(row))
    return counter.counts


@dataclass
class Fixpoint:
    """Result of one levelwise pass over the band after a delta."""

    #: k → exact counts for every candidate of that pass (the new band).
    bands: dict[int, dict[Itemset, int]] = field(default_factory=dict)
    #: Batch-identical pass results (``PassResult`` per level).
    passes: list[PassResult] = field(default_factory=list)
    #: Candidates that needed a window scan, per pass (the re-mine cost).
    rescanned: dict[int, int] = field(default_factory=dict)

    @property
    def total_rescanned(self) -> int:
        return sum(self.rescanned.values())


def levelwise_fixpoint(
    item_counts: dict[int, int],
    num_transactions: int,
    min_support: float,
    taxonomy: Taxonomy,
    known_bands: dict[int, dict[Itemset, int]],
    count_unknown: CountUnknown,
    max_k: int | None = None,
) -> Fixpoint:
    """Re-run the batch levelwise recurrence over the tracked bands.

    ``item_counts`` is the exact pass-1 census (items + ancestors) of
    the active window; ``known_bands[k]`` holds exact window counts for
    previously tracked candidates.  Candidates of the new recurrence
    that are not in the known band are counted via ``count_unknown``.

    The returned pass structure mirrors :func:`repro.core.cumulate`
    exactly — same candidates, same counts, same stopping rule — which
    is the induction step of the incremental == batch equivalence proof
    (see ``docs/incremental.md``).
    """
    threshold = minimum_count(min_support, num_transactions)
    fix = Fixpoint()

    large_1 = {
        (item,): count
        for item, count in sorted(item_counts.items())
        if count >= threshold
    }
    fix.passes.append(
        PassResult(k=1, num_candidates=len(item_counts), large=large_1)
    )

    previous: dict[Itemset, int] = large_1
    k = 2
    while previous and (max_k is None or k <= max_k):
        candidates = generate_candidates(sorted(previous), k, taxonomy)
        if not candidates:
            break
        known = known_bands.get(k, {})
        unknown = [c for c in candidates if c not in known]
        fresh: dict[Itemset, int] = {}
        if unknown:
            fresh = count_unknown(unknown, k)
            fix.rescanned[k] = len(unknown)
        band = {
            candidate: (
                known[candidate] if candidate in known else fresh[candidate]
            )
            for candidate in candidates
        }
        fix.bands[k] = band
        large_k = {
            itemset: count
            for itemset, count in sorted(band.items())
            if count >= threshold
        }
        fix.passes.append(
            PassResult(k=k, num_candidates=len(candidates), large=large_k)
        )
        previous = large_k
        k += 1

    return fix
