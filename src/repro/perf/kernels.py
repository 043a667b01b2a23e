"""Prefix-indexed candidate-trie counting kernels.

The probe-preservation contract
-------------------------------
``probes`` and ``generated`` are *semantic* quantities: the number of
candidate lookups the paper's algorithms would perform is what Figure 15
plots and what the cost model prices into every simulated second.  A
faster kernel therefore may not probe less — it may only *work* less.
The kernels here keep the contract by splitting the two concerns:

* **metrics** are computed in closed form: the naive kernels enumerate
  every k-subset of the (filtered, deduplicated) transaction and probe
  each one, so their probe count is ``C(n, k)`` for an ``n``-item
  relevant set — :func:`math.comb` yields the identical number without
  enumerating anything.  The root-keyed counter's k == 2 volume is the
  number of key-member item pairs inside the fragment's extension, so
  for a whole batch of fragments it is a sum over the batch's
  co-occurrence product, read off in one numpy product (see
  :meth:`FastRootKeyedClosureCounter.add_transactions`);
* **counts** are computed candidate-driven: a prefix trie over the
  sorted candidates is intersected with the sorted transaction, and
  only branches whose prefix is contained in the transaction are
  descended.  A candidate is contained in the transaction exactly when
  the naive kernel's enumeration would have hit it (see the per-class
  notes), so the resulting ``counts`` are identical.  The root-keyed
  counter's k == 2 counts come off the same batch product as its
  volume: one integer increment vector in candidate order per counter.
  H-HPGM's per-node replicas hand theirs back, the index sums them and
  one fold writes the sum into the counts — the coordinator's
  sum-reduce.

Each fast counter also memoizes per distinct input: synthetic and real
market-basket corpora repeat transactions heavily, and two transactions
that filter to the same relevant set produce byte-identical outcomes —
the memo replays the stored hit list and adds the closed-form metric
increments at the stored weight.  (The root-keyed k == 2 batch product
needs no memo: it builds each fragment's bit row from an item →
chain-bit table in numpy.)

Equivalence against the naive kernels — ``counts``, ``probes``,
``generated``, and return values, across all three counter classes —
is pinned by the seeded property suite in ``tests/test_perf_kernels.py``.

:func:`vertical_support_counts` stands outside that contract: the
refresh maintainer reads counts only, so it counts a whole row set at
once by intersecting per-item row bitsets, with no probes to report.
The same suite pins its counts to the naive counter's.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Collection, Iterable, Mapping, Sequence
from itertools import chain, repeat
from math import comb

from repro.core.counting import CounterTally, pickled_tally
from repro.core.itemsets import Itemset
from repro.errors import MiningError
from repro.taxonomy.hierarchy import Taxonomy

try:  # optional accelerator — the pure-Python mask path is always exact
    import numpy as _np
except ImportError:  # pragma: no cover - depends on the environment
    _np = None


class CandidateTrie:
    """Uniform-depth prefix trie over sorted candidate k-itemsets.

    Interior levels map an item to its child dict; the final level maps
    the last item to the candidate tuple itself.  :meth:`contained`
    walks the trie against a sorted transaction, at every node iterating
    whichever side is smaller — the node's children (candidate-driven)
    or the transaction's remaining suffix (transaction-driven) — so the
    work adapts to both sparse-candidate and short-transaction regimes.

    k == 2 — the pass that carries nearly all candidates in practice —
    skips the walk entirely and works on **bitmasks**: every item in the
    candidate universe gets a bit, each first item keeps the mask of its
    partners, and one ``&`` per present first item yields all hits; the
    inner loop only runs over actual hits (``int.bit_count`` and the
    low-bit trick keep everything in C).  Bit order is sorted item
    order, so the result is deterministic.
    """

    __slots__ = ("k", "_root", "bit_of", "_item_at", "_partner_mask", "_firsts_mask")

    def __init__(self, candidates: Collection[Itemset], k: int):
        if k <= 0:
            raise MiningError(f"k must be positive, got {k}")
        self.k = k
        root: dict = {}
        if k == 2:
            setdefault = root.setdefault
            for candidate in candidates:
                if len(candidate) != 2:
                    raise MiningError(
                        f"candidate {candidate!r} is not a {k}-itemset"
                    )
                setdefault(candidate[0], {})[candidate[1]] = candidate
        else:
            for candidate in candidates:
                if len(candidate) != k:
                    raise MiningError(
                        f"candidate {candidate!r} is not a {k}-itemset"
                    )
                node = root
                for item in candidate[:-1]:
                    child = node.get(item)
                    if child is None:
                        child = {}
                        node[item] = child
                    node = child
                node[candidate[-1]] = candidate
        self._root = root
        #: item → its single-bit mask (k == 2 only; shared with callers
        #: that pre-build transaction masks, e.g. the root-keyed kernel).
        self.bit_of: dict[int, int] = {}
        self._item_at: list[int] = []
        self._partner_mask: dict[int, int] = {}
        self._firsts_mask = 0
        if k == 2:
            universe = sorted({item for candidate in candidates for item in candidate})
            self._item_at = universe
            bit_of = {item: 1 << index for index, item in enumerate(universe)}
            self.bit_of = bit_of
            for first, children in root.items():
                mask = 0
                for second in children:
                    mask |= bit_of[second]
                self._partner_mask[first] = mask
                self._firsts_mask |= bit_of[first]

    def hit_count_mask(self, mask: int) -> int:
        """k == 2 only: how many candidates ``contained_mask`` would yield.

        One ``&`` + ``bit_count`` per present first item — no per-hit
        work, so callers can report hit totals without materializing
        the hits.
        """
        total = 0
        item_at = self._item_at
        partner_mask = self._partner_mask
        pending = mask & self._firsts_mask
        while pending:
            low = pending & -pending
            pending ^= low
            total += (partner_mask[item_at[low.bit_length() - 1]] & mask).bit_count()
        return total

    def contained_mask(self, mask: int) -> list[Itemset]:
        """k == 2 only: candidates whose both bits are set in ``mask``."""
        out: list[Itemset] = []
        item_at = self._item_at
        partner_mask = self._partner_mask
        append = out.append
        pending = mask & self._firsts_mask
        while pending:
            low = pending & -pending
            pending ^= low
            first = item_at[low.bit_length() - 1]
            hits = partner_mask[first] & mask
            while hits:
                lowest = hits & -hits
                hits ^= lowest
                append((first, item_at[lowest.bit_length() - 1]))
        return out

    def contained(self, items: Sequence[int]) -> list[Itemset]:
        """Candidates fully contained in ``items`` (sorted, distinct).

        Each contained candidate appears exactly once; order is a trie
        walk order (bit order for k == 2), which callers must not rely
        on (hits are folded into commutative count increments).
        """
        n = len(items)
        k = self.k
        if n < k:
            return []
        if k == 2:
            bit_of = self.bit_of
            mask = 0
            for item in items:
                bit = bit_of.get(item)
                if bit:
                    mask |= bit
            return self.contained_mask(mask)
        out: list[Itemset] = []
        position = {item: index for index, item in enumerate(items)}

        def descend(node: dict, start: int, depth: int) -> None:
            # Positions past `limit` cannot leave enough items to finish
            # a k-prefix.
            limit = n - (k - depth) + 1
            last = depth == k - 1
            if len(node) <= limit - start:
                # Candidate-driven: few branches, test each against the
                # transaction's position table.
                for item, child in node.items():
                    index = position.get(item)
                    if index is None or index < start or index >= limit:
                        continue
                    if last:
                        out.append(child)
                    else:
                        descend(child, index + 1, depth + 1)
            else:
                # Transaction-driven: short suffix, test each item
                # against the node's children.
                for index in range(start, limit):
                    child = node.get(items[index])
                    if child is None:
                        continue
                    if last:
                        out.append(child)
                    else:
                        descend(child, index + 1, depth + 1)

        descend(self._root, 0, 0)
        return out


#: Bit rows per block of :func:`_cooccurrence`.  A block's temporaries
#: take about ``9 * width`` bytes per row, and glibc keeps large freed
#: blocks on its heap, so large blocks raise a mine's peak RSS (8,192
#: rows: +25 MB for H-HPGM on a 100k-row R30F5 store); smaller blocks
#: are no slower.
_PRODUCT_ROWS = 1024


def _cooccurrence(masks: Sequence[int], weights: Sequence[int], width: int):
    """Weighted co-occurrence product ``Σ w·x·xᵀ`` of bit-row ``masks``.

    Entry ``(a, b)`` is the total weight of the masks holding both bits
    ``a`` and ``b``.  The total weight bounds every entry and every
    partial sum, so float32 (fast) is exact below 2**24 and float64 far
    beyond; callers read the entries as integers.
    """
    nbytes = (width + 7) // 8
    dtype = _np.float32 if sum(weights) < (1 << 24) else _np.float64
    co = _np.zeros((width, width), dtype=dtype)
    for start in range(0, len(masks), _PRODUCT_ROWS):
        stop = min(start + _PRODUCT_ROWS, len(masks))
        blob = b"".join(mask.to_bytes(nbytes, "little") for mask in masks[start:stop])
        rows = _np.unpackbits(
            _np.frombuffer(blob, dtype=_np.uint8).reshape(stop - start, nbytes),
            axis=1,
            bitorder="little",
        )[:, :width].astype(dtype)
        co += rows.T @ (rows * _np.asarray(weights[start:stop], dtype=dtype)[:, None])
    return co


class _DeferredPairFold:
    """Shared k == 2 deferred count folding for the fast counters.

    Subclasses own ``_counts`` (candidate → count) and ``_trie``; this
    base accumulates ``{extension_mask: weight}`` per call and folds
    everything on the first :attr:`counts` read — through a weighted
    bit-row co-occurrence product when numpy is available (float32 or
    float64 chosen so integer arithmetic stays exact), or an exact
    pure-Python mask loop otherwise.  A counter that already holds its
    increments as one integer vector in candidate order (``_vector``,
    see :class:`FastRootKeyedClosureCounter`) has it written into the
    counts by the same fold.  Integer additions commute, so the result
    is identical to folding per call.
    """

    def _init_fold(self, k: int) -> None:
        self._pending: dict[int, int] = {}
        self._vector = None
        self._cand_bits = None
        if k == 2 and self._trie is not None and _np is not None:
            bit_of = self._trie.bit_of
            ordered = list(self._counts)
            self._cand_bits = (
                ordered,
                _np.fromiter(
                    (bit_of[c[0]].bit_length() - 1 for c in ordered),
                    dtype=_np.intp,
                    count=len(ordered),
                ),
                _np.fromiter(
                    (bit_of[c[1]].bit_length() - 1 for c in ordered),
                    dtype=_np.intp,
                    count=len(ordered),
                ),
            )

    @property
    def counts(self) -> dict[Itemset, int]:
        """Per-candidate supports; folds any deferred increments first."""
        if self._pending or self._vector is not None:
            self._flush()
        return self._counts

    def _flush(self) -> int:
        """Fold the increment vector and all pending (mask, weight) pairs
        into the counts.

        The vector holds one increment per candidate in fold-layout
        order.  For the masks, the numpy path takes one co-occurrence
        product (:func:`_cooccurrence`): entry ``(a, b)`` is exactly the
        increment candidate ``(item_a, item_b)`` would have received
        per call.

        Returns the total weight applied (the sum of all increments),
        summed in exact Python integers.
        """
        pending, self._pending = self._pending, {}
        vector, self._vector = self._vector, None
        if self._cand_bits is not None and len(pending) >= 16:
            _, first_bits, second_bits = self._cand_bits
            co = _cooccurrence(
                list(pending), list(pending.values()), len(self._trie.bit_of)
            )
            folded = co[first_bits, second_bits].astype(_np.int64)
            vector = folded if vector is None else vector + folded
            pending = {}
        counts = self._counts
        total = 0
        if vector is not None:
            for candidate, increment in zip(self._cand_bits[0], vector.tolist()):
                if increment:
                    counts[candidate] += increment
                    total += increment
        for mask, weight in pending.items():
            matched = self._trie.contained_mask(mask)
            total += weight * len(matched)
            for candidate in matched:
                counts[candidate] += weight
        return total


class PairMaskFolder(_DeferredPairFold):
    """Deferred pair counting straight into an *external* counts dict.

    Wraps a ``{pair: count}`` table (mutated in place) for callers that
    already know, per probe batch, the item mask to count against — like
    HPGM's receive phase, where every owned pair whose two items both
    appear in a shipped batch was necessarily part of that batch (the
    sender enumerated **all** pairs of its relevant set bound for this
    node), so one mask captures the batch's entire hit set.
    """

    def __init__(self, counts: dict[Itemset, int]):
        self._counts = counts
        self._trie = CandidateTrie(counts, 2)
        self.bit_of = self._trie.bit_of
        self._init_fold(2)

    def add_mask(self, mask: int, weight: int = 1) -> None:
        """Accumulate one batch occurrence; folded lazily."""
        pending = self._pending
        pending[mask] = pending.get(mask, 0) + weight

    def fold(self) -> int:
        """Flush pending masks into the wrapped counts dict.

        Returns the total number of increments applied — what a naive
        per-batch probe loop would have added to ``increments``.
        """
        if self._pending:
            return self._flush()
        return 0


class FastSupportCounter(_DeferredPairFold):
    """Drop-in for ``SupportCounter(strategy="dict")``, metric-identical.

    The naive dict kernel filters the transaction to the candidate item
    universe, enumerates all ``C(n, k)`` subsets and probes each; a
    candidate hits exactly when it is a subset of the relevant set.  So
    ``generated`` and ``probes`` are both ``C(n, k)`` (closed form) and
    the hit set is the trie intersection — no enumeration needed.  For
    k == 2 the folding is deferred (see :class:`_DeferredPairFold`).
    """

    def __init__(
        self,
        candidates: Collection[Itemset],
        k: int,
        memoize: bool = True,
    ):
        if k <= 0:
            raise MiningError(f"k must be positive, got {k}")
        self.k = k
        self._counts: dict[Itemset, int] = {c: 0 for c in candidates}
        self.probes = 0
        self.generated = 0
        self._universe = {item for c in self._counts for item in c}
        self._trie = CandidateTrie(self._counts, k) if self._counts else None
        self._memo: dict[tuple[int, ...], tuple] | None = {} if memoize else None
        self._init_fold(k)

    def add_transaction(self, transaction: tuple[int, ...], weight: int = 1) -> int:
        """Count one extended, sorted transaction ``weight`` times.

        Returns the per-occurrence hit count (what the naive kernel
        returns from a single call).
        """
        universe = self._universe
        relevant = tuple(item for item in transaction if item in universe)
        if len(relevant) < self.k:
            return 0
        memo = self._memo
        entry = memo.get(relevant) if memo is not None else None
        if self.k == 2:
            if entry is None:
                # Every relevant item is in the trie's bit space: the
                # universe IS the set of candidate items.
                bit_of = self._trie.bit_of
                mask = 0
                for item in relevant:
                    mask |= bit_of[item]
                entry = (
                    comb(len(relevant), 2),
                    mask,
                    self._trie.hit_count_mask(mask),
                )
                if memo is not None:
                    memo[relevant] = entry
            subsets, mask, hits = entry
            self.generated += subsets * weight
            self.probes += subsets * weight
            if mask:
                pending = self._pending
                pending[mask] = pending.get(mask, 0) + weight
            return hits
        if entry is None:
            subsets = comb(len(relevant), self.k)
            matched = tuple(self._trie.contained(relevant)) if self._trie else ()
            entry = (subsets, matched)
            if memo is not None:
                memo[relevant] = entry
        subsets, matched = entry
        self.generated += subsets * weight
        self.probes += subsets * weight
        counts = self._counts
        for candidate in matched:
            counts[candidate] += weight
        return len(matched)


class FastAncestorClosureCounter:
    """Drop-in for :class:`~repro.core.counting.AncestorClosureCounter`.

    The naive kernel extends the fragment with its candidate-referenced
    ancestors (universe-filtered) and enumerates the k-subsets of the
    extension; a candidate hits exactly when it is a subset of the
    extension, and ``probes == generated == C(|extension|, k)``.
    """

    def __init__(
        self,
        candidates: Collection[Itemset],
        k: int,
        ancestor_table: Mapping[int, tuple[int, ...]],
        memoize: bool = True,
    ):
        if k <= 0:
            raise MiningError(f"k must be positive, got {k}")
        self.k = k
        self.counts: dict[Itemset, int] = {c: 0 for c in candidates}
        self.probes = 0
        self.generated = 0
        self._table = ancestor_table
        self._universe = {item for c in self.counts for item in c}
        self._trie = CandidateTrie(self.counts, k) if self.counts else None
        # item → its universe-filtered chain, filled lazily: items repeat
        # across transactions far more often than they first appear.
        self._kept: dict[int, tuple[int, ...]] = {}
        self._memo: dict[tuple[int, ...], tuple[int, tuple[Itemset, ...]]] | None = (
            {} if memoize else None
        )

    def _kept_chain(self, item: int) -> tuple[int, ...]:
        kept = self._kept.get(item)
        if kept is None:
            universe = self._universe
            chain = self._table.get(item, (item,))
            kept = tuple(link for link in chain if link in universe)
            self._kept[item] = kept
        return kept

    def _extend(self, transaction: tuple[int, ...]) -> set[int]:
        extended: set[int] = set()
        for item in transaction:
            extended.update(self._kept_chain(item))
        return extended

    def add_transaction(self, transaction: tuple[int, ...], weight: int = 1) -> int:
        """Count one lowest-large, sorted fragment ``weight`` times."""
        if not self.counts or len(transaction) < self.k:
            return 0
        memo = self._memo
        entry = memo.get(transaction) if memo is not None else None
        if entry is None:
            extended = self._extend(transaction)
            if len(extended) < self.k:
                entry = (0, ())
            else:
                entry = (
                    comb(len(extended), self.k),
                    tuple(self._trie.contained(sorted(extended))),
                )
            if memo is not None:
                memo[transaction] = entry
        subsets, matched = entry
        if subsets == 0 and not matched:
            return 0
        self.generated += subsets * weight
        self.probes += subsets * weight
        counts = self.counts
        for candidate in matched:
            counts[candidate] += weight
        return len(matched)


class FastRootKeyedClosureCounter(_DeferredPairFold):
    """Drop-in for :class:`~repro.core.counting.RootKeyedClosureCounter`.

    The naive kernel groups the (universe-filtered) ancestor extension
    by root and, per owned root key, takes the cross product of per-root
    combinations.  Two facts make the fast path exact:

    * a candidate hits exactly when it is a subset of the full extension
      ``E`` — its root key is then automatically feasible (every chain
      link shares its item's root, so each of the candidate's per-root
      item counts is covered by ``E``'s per-root groups) and it is
      enumerated precisely once, under its own key;
    * the naive enumeration volume per key is the product of
      ``C(|pool_root|, multiplicity)`` over the key's roots, with pools
      filtered to the key's member items — a pure counting expression.

    For k == 2 a fragment matters only through its extension mask ``x``
    (the OR of its items' universe-filtered chain masks): its hits are
    the candidates with both bits in ``x``, and its volume is the
    number of bit pairs ``{i, j} ⊆ x`` whose two items are both members
    of the root key their two roots form — per key, exactly the
    ``C(|pool|, 2)`` or ``|pool_1| * |pool_2|`` above.  So
    :meth:`add_transactions` counts a whole batch at once.  With numpy
    the batch becomes one bit-row matrix ``X`` (a row per fragment,
    the OR of its items' rows in an item → chain-bit table) and one
    co-occurrence product ``G = w·XᵀX``: the candidates' bit pairs of
    ``G`` are the batch's count increments, kept as an integer vector
    in candidate order (int32, or int64 when the batch's total weight
    needs it), and the index's key-member bit pairs of ``G`` sum to its
    volume.  Without numpy each fragment's mask is metered in pure
    Python and joins a ``{extension_mask: weight}`` accumulator.  Either
    way the count fold is **deferred**: the first read of
    :attr:`counts` writes the summed vector, or folds the pending
    masks, at once (see :class:`_DeferredPairFold`).  Every figure is a
    sum of integer increments, so it is identical to counting per
    fragment.

    Replicas (see :class:`~repro.core.counting.RootKeyedClosureCounter`
    for the contract) share the trie, the chain-bit and key-member pair
    tables and the fold layout; each keeps its own probes/generated/hits,
    deferred increments, memo and per-item caches, and its counts are
    sparse (only candidates it hit, k >= 3).  A k == 2 replica's tally
    is therefore just metric totals plus its increment vector (or its
    ``{mask: weight}`` map), and the index sums every node's and folds
    once in :meth:`_flush` — the coordinator's sum-reduce.
    """

    def __init__(
        self,
        candidates: Collection[Itemset],
        k: int,
        ancestor_table: Mapping[int, tuple[int, ...]],
        root_of: Mapping[int, int],
        memoize: bool = True,
    ):
        if k <= 0:
            raise MiningError(f"k must be positive, got {k}")
        self.k = k
        self._counts: dict[Itemset, int] = {c: 0 for c in candidates}
        # The index's candidates in build order: what a pickled counter
        # ships, since a replica's own counts are sparse.
        self._candidates = tuple(self._counts)
        self.probes = 0
        self.generated = 0
        self.hits = 0
        self._table = ancestor_table
        self._root_of = root_of
        self._universe = {item for c in self._counts for item in c}
        self._trie = CandidateTrie(self._counts, k) if self._counts else None
        self._key_items: dict[tuple[int, ...], set[int]] = {}
        # k == 2: bit → mask of its key-member partners and, with numpy,
        # the same pairs as an upper-triangular boolean table plus the
        # item → chain-bit table (:func:`_chain_bit_table`) — the tables
        # of :meth:`add_transactions`, built once per index.
        self._partners: list[int] = []
        self._pair_table = None
        self._chain_rows: dict[int, int] = {}
        self._chain_bits = None
        if k == 2:
            if self._trie is not None:
                self._partners = _key_member_partners(self._trie, root_of)
                if _np is not None:
                    self._pair_table = _upper_pair_table(self._partners)
                    self._chain_rows, self._chain_bits = _chain_bit_table(
                        self._trie, ancestor_table
                    )
        else:
            for candidate in self._counts:
                key = tuple(sorted(root_of[item] for item in candidate))
                self._key_items.setdefault(key, set()).update(candidate)
        # item → its universe-filtered chain (k >= 3: with its root; k ==
        # 2: as a bitmask), filled lazily: items repeat across fragments
        # far more often than they first appear.
        self._kept: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._kept_mask: dict[int, int] = {}
        self._memo: dict[tuple[int, ...], object] | None = {} if memoize else None
        self._init_fold(k)

    def replica(self) -> "FastRootKeyedClosureCounter":
        """A zeroed counter sharing this one's read-only index."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._counts = Counter()
        clone.probes = clone.generated = clone.hits = 0
        clone._pending = {}
        clone._vector = None
        clone._memo = {} if self._memo is not None else None
        clone._kept = {}
        clone._kept_mask = {}
        return clone

    def tally(self) -> CounterTally:
        """Metric totals, non-zero counts and the unfolded increments."""
        return CounterTally(
            probes=self.probes,
            generated=self.generated,
            hits=self.hits,
            counts={c: n for c, n in self._counts.items() if n},
            pending=dict(self._pending),
            vector=self._vector,
        )

    def absorb(self, tally: CounterTally) -> None:
        """Add a replica's tally; its increments join this counter's next
        fold (vectors summed, masks merged)."""
        self.probes += tally.probes
        self.generated += tally.generated
        self.hits += tally.hits
        counts = self._counts
        for candidate, count in tally.counts.items():
            counts[candidate] += count
        pending = self._pending
        for mask, weight in tally.pending.items():
            pending[mask] = pending.get(mask, 0) + weight
        if tally.vector is not None:
            self._vector = _sum_counts(self._vector, tally.vector)

    def __reduce__(self):
        # Rebuilt from its inputs on unpickling; caches are not shipped.
        args = (
            self._candidates,
            self.k,
            self._table,
            self._root_of,
            self._memo is not None,
        )
        return (type(self), args, pickled_tally(self.tally()))

    def __setstate__(self, tally: CounterTally) -> None:
        self.absorb(tally)

    def _extension_mask(self, fragment: tuple[int, ...]) -> int:
        """k == 2: the OR of the fragment's items' chain masks."""
        kept_cache = self._kept_mask
        bit_of = self._trie.bit_of
        extension = 0
        for item in fragment:
            mask = kept_cache.get(item)
            if mask is None:
                mask = 0
                for link in self._table.get(item, (item,)):
                    bit = bit_of.get(link)
                    if bit:
                        mask |= bit
                kept_cache[item] = mask
            extension |= mask
        return extension

    def _meter_pairs(self, batch: dict[int, int]) -> tuple[int, int]:
        """k == 2, pure Python: ``(volume, hits)`` of a
        ``{extension_mask: weight}`` batch.

        Volume counts the key-member bit pairs inside each mask, hits the
        candidate bit pairs, both weighted.
        """
        partners = self._partners
        hit_count_mask = self._trie.hit_count_mask
        ends = hits = 0
        for mask, weight in batch.items():
            # Each pair is met once from either end.
            pair_ends = 0
            pending = mask
            while pending:
                low = pending & -pending
                pending ^= low
                pair_ends += (partners[low.bit_length() - 1] & mask).bit_count()
            ends += weight * pair_ends
            hits += weight * hit_count_mask(mask)
        return ends // 2, hits

    def _count_pairs(self, fragments: Iterable[tuple[int, ...]], weight: int) -> int:
        """k == 2 with numpy: count a batch as one bit-row matrix.

        Row ``r`` of ``X`` is the OR of the chain-bit rows of fragment
        ``r``'s items; ``XᵀX`` is summed over blocks of
        :data:`_PRODUCT_ROWS` rows in float32 (float64 from 2**24 rows
        on), exact because no entry exceeds the row count.  The
        candidates' bit pairs of it, times ``weight``, are the batch's
        increment vector; the key-member pairs sum to its volume.
        """
        rows = [fragment for fragment in fragments if len(fragment) >= 2]
        if not rows:
            return 0
        table = self._chain_bits
        lengths = _np.fromiter(map(len, rows), dtype=_np.intp, count=len(rows))
        ends = _np.cumsum(lengths)
        starts = ends - lengths
        # Items without a chain bit read the table's last row, all zero.
        zero_row = repeat(len(table) - 1)
        items = _np.fromiter(
            map(self._chain_rows.get, chain.from_iterable(rows), zero_row),
            dtype=_np.intp,
            count=int(ends[-1]),
        )
        width = len(self._partners)
        dtype = _np.float32 if len(rows) < (1 << 24) else _np.float64
        co = _np.zeros((width, width), dtype=dtype)
        for first in range(0, len(rows), _PRODUCT_ROWS):
            last = min(first + _PRODUCT_ROWS, len(rows))
            base = starts[first]
            packed = _np.bitwise_or.reduceat(
                table[items[base : ends[last - 1]]], starts[first:last] - base, axis=0
            )
            bits = _np.unpackbits(
                packed, axis=1, count=width, bitorder="little"
            ).astype(dtype)
            co += bits.T @ bits
        _, first_bits, second_bits = self._cand_bits
        vector = co[first_bits, second_bits].astype(_exact_int(len(rows) * weight))
        if weight != 1:
            vector *= weight
        volume = int(co[self._pair_table].astype(_np.int64).sum()) * weight
        hits = int(vector.sum(dtype=_np.int64))
        if hits:
            self._vector = _sum_counts(self._vector, vector)
        self.generated += volume
        self.probes += volume
        self.hits += hits
        return hits

    def _analyze(self, fragment: tuple[int, ...]) -> tuple[int, tuple[Itemset, ...]]:
        kept_cache = self._kept
        by_root: dict[int, set[int]] = {}
        for item in fragment:
            entry = kept_cache.get(item)
            if entry is None:
                chain = self._table.get(item, (item,))
                entry = (
                    self._root_of[item],
                    tuple(link for link in chain if link in self._universe),
                )
                kept_cache[item] = entry
            root, kept = entry
            if kept:
                group = by_root.get(root)
                if group is None:
                    by_root[root] = set(kept)
                else:
                    group.update(kept)
        if not by_root:
            return (0, ())

        key_items = self._key_items
        subsets = 0
        from repro.core.counting import feasible_sorted_multisets

        root_counts = Counter(
            {root: len(items) for root, items in by_root.items()}
        )
        for key in feasible_sorted_multisets(root_counts, self.k):
            members = key_items.get(key)
            if members is None:
                continue
            volume = 1
            for root, count in sorted(Counter(key).items()):
                pool = len(by_root[root] & members)
                volume *= comb(pool, count)
                if volume == 0:
                    break
            subsets += volume

        extension: set[int] = set()
        for group in by_root.values():
            extension.update(group)
        matched = (
            tuple(self._trie.contained(sorted(extension))) if self._trie else ()
        )
        return (subsets, matched)

    def add_transactions(
        self, fragments: Iterable[tuple[int, ...]], weight: int = 1
    ) -> int:
        """Count routed, sorted, lowest-large fragments ``weight`` times each.

        Returns the total hits the batch adds (the sum of its count
        increments).  For k == 2 with numpy the batch is counted by
        :meth:`_count_pairs`; without, each fragment only contributes
        its extension mask (memoized per fragment), the batch's metrics
        come from :meth:`_meter_pairs` and its masks join the deferred
        fold.
        """
        if self._trie is None:
            return 0
        if self._chain_bits is not None:
            return self._count_pairs(fragments, weight)
        k = self.k
        memo = self._memo
        if k != 2:
            total = 0
            counts = self._counts
            for fragment in fragments:
                if len(fragment) < k:
                    continue
                entry = memo.get(fragment) if memo is not None else None
                if entry is None:
                    entry = self._analyze(fragment)
                    if memo is not None:
                        memo[fragment] = entry
                subsets, matched = entry
                self.generated += subsets * weight
                self.probes += subsets * weight
                total += len(matched) * weight
                for candidate in matched:
                    counts[candidate] += weight
            self.hits += total
            return total
        batch: dict[int, int] = {}
        for fragment in fragments:
            if len(fragment) < 2:
                continue
            mask = memo.get(fragment) if memo is not None else None
            if mask is None:
                mask = self._extension_mask(fragment)
                if memo is not None:
                    memo[fragment] = mask
            if mask:
                batch[mask] = batch.get(mask, 0) + weight
        if not batch:
            return 0
        pending = self._pending
        for mask, mask_weight in batch.items():
            pending[mask] = pending.get(mask, 0) + mask_weight
        volume, hits = self._meter_pairs(batch)
        self.generated += volume
        self.probes += volume
        self.hits += hits
        return hits

    def add_transaction(self, fragment: tuple[int, ...], weight: int = 1) -> int:
        """Count one fragment ``weight`` times (``weight >= 1``); returns
        its per-occurrence hit count."""
        return self.add_transactions((fragment,), weight) // weight


def _key_member_partners(trie: CandidateTrie, root_of: Mapping[int, int]) -> list[int]:
    """Bit → mask of the bits it forms a key-member pair with (k == 2).

    Items ``a`` and ``b`` pair when both are members (items of some
    candidate) of the root key ``{root(a), root(b)}``: a same-root key
    pairs its members with each other, a mixed key each member with the
    key's members of the other root.
    """
    bit_of = trie.bit_of
    root_bits: dict[int, int] = {}
    for item, bit in bit_of.items():
        root = root_of[item]
        root_bits[root] = root_bits.get(root, 0) | bit
    # Each key's members, from every first item's partners split by root.
    members: dict[tuple[int, int], int] = {}
    for first, seconds in trie._partner_mask.items():
        first_root = root_of[first]
        for root, bits in root_bits.items():
            shared = seconds & bits
            if shared:
                key = (first_root, root) if first_root <= root else (root, first_root)
                members[key] = members.get(key, 0) | shared | bit_of[first]
    partners = [0] * len(bit_of)
    for (first, second), mask in members.items():
        if first == second:
            sides = ((mask, mask),)
        else:
            one, two = mask & root_bits[first], mask & root_bits[second]
            sides = ((one, two), (two, one))
        for side, others in sides:
            while side:
                low = side & -side
                side ^= low
                partners[low.bit_length() - 1] |= others & ~low
    return partners


def _chain_bit_table(trie: CandidateTrie, table: Mapping[int, tuple[int, ...]]):
    """Item → row of its chain's candidate bits (k == 2, numpy).

    Returns ``(row_of, rows)``: ``rows`` holds one packed little-endian
    bit row per item whose chain (``table``, or the item alone) meets
    the candidates' items, plus a last, all-zero row for every other
    item; ``row_of`` maps an item to its row.
    """
    bit_of = trie.bit_of
    nbytes = (len(bit_of) + 7) // 8
    row_of: dict[int, int] = {}
    masks: list[int] = []
    for item in sorted(set(table).union(bit_of)):
        mask = 0
        for link in table.get(item, (item,)):
            mask |= bit_of.get(link, 0)
        if mask:
            row_of[item] = len(masks)
            masks.append(mask)
    masks.append(0)
    blob = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    return row_of, _np.frombuffer(blob, dtype=_np.uint8).reshape(len(masks), nbytes)


def _exact_int(bound: int):
    """The narrower integer dtype that holds every value up to ``bound``."""
    return _np.int32 if bound < (1 << 31) else _np.int64


def _sum_counts(total, vector):
    """``total + vector`` (``total`` may be ``None``) in an exact dtype."""
    if total is None:
        return vector
    if total.dtype == vector.dtype == _np.int32:
        if int(total.max()) + int(vector.max()) >= (1 << 31):
            return total.astype(_np.int64) + vector
    return total + vector


def _upper_pair_table(partners: Sequence[int]):
    """Boolean table whose entry ``(i, j)``, ``i < j``, marks a pair."""
    width = len(partners)
    nbytes = (width + 7) // 8
    blob = b"".join(mask.to_bytes(nbytes, "little") for mask in partners)
    table = _np.unpackbits(
        _np.frombuffer(blob, dtype=_np.uint8).reshape(width, nbytes),
        axis=1,
        bitorder="little",
    )[:, :width]
    return _np.triu(table, 1).astype(bool)


def vertical_support_counts(
    rows: Iterable[Sequence[int]],
    candidates: Collection[Itemset],
    k: int,
    taxonomy: Taxonomy,
) -> dict[Itemset, int]:
    """Candidate supports over ancestor-extended ``rows`` by tid-bitset AND.

    Counts exactly what ``SupportCounter`` counts over
    ``AncestorIndex(taxonomy, keep=universe).extend(row)`` for every
    row, where ``universe`` is the set of candidate items, but without
    extending or enumerating any row: one pass over ``rows`` (any
    iterable, consumed once) records each item's row positions; each
    distinct item then gets one row bitset, OR-ed into itself and into
    its candidate-referenced ancestors, so an item's bitset marks the
    rows whose extension contains it.  A k-itemset candidate's support
    is the ``bit_count`` of its items' AND; for k > 2, consecutive
    candidates that share a ``k - 1`` prefix (sorted input) share that
    prefix's AND.

    Bitsets are built through a ``bytearray`` and ``int.from_bytes``,
    linear in the number of positions; ``|=`` of single bits on a
    growing int would copy the int per row.  No probes are reported:
    the refresh maintainer that calls this reads counts only.
    """
    bits = dict.fromkeys(chain.from_iterable(candidates), 0)
    universe = bits.keys()
    positions: dict[int, list[int]] = defaultdict(list)
    size = 0
    for row in rows:
        for item in row:
            positions[item].append(size)
        size += 1

    nbytes = (size + 7) >> 3
    for item, where in positions.items():
        lineage = taxonomy.ancestors_or_self(item) if item in taxonomy else (item,)
        if universe.isdisjoint(lineage):
            continue
        row_bits = bytearray(nbytes)
        for position in where:
            row_bits[position >> 3] |= 1 << (position & 7)
        mask = int.from_bytes(row_bits, "little")
        for target in lineage:
            if target in bits:
                bits[target] |= mask

    if k == 2:
        return {
            candidate: (bits[candidate[0]] & bits[candidate[1]]).bit_count()
            for candidate in candidates
        }
    counts: dict[Itemset, int] = {}
    every_row = (1 << size) - 1
    prefix: Itemset | None = None
    prefix_mask = 0
    for candidate in candidates:
        if candidate[:-1] != prefix:
            prefix = candidate[:-1]
            prefix_mask = every_row
            for item in prefix:
                prefix_mask &= bits[item]
        counts[candidate] = (prefix_mask & bits[candidate[-1]]).bit_count()
    return counts
