"""Support-counting kernels shared by the sequential and parallel miners.

Three kernels:

* :func:`count_items` — pass 1: count every item and every ancestor,
  once per transaction.
* :class:`SupportCounter` — pass k >= 2 for Cumulate/Apriori/NPGM/HPGM
  styles: given an (already extended) transaction, find which candidates
  it contains.  Strategy ``"dict"`` (the default) enumerates k-subsets
  and probes a hash map; ``"hashtree"`` traverses a classic Apriori
  hash tree (Stratify's choice).
* :class:`AncestorClosureCounter` — the H-HPGM-family kernel: the
  transaction holds only *lowest large* items, and every generated
  k-itemset is counted together with all of its **ancestor candidates**
  (Figure 5, lines 12/16).  Because valid candidates never pair an item
  with its own ancestor, this closure reproduces Cumulate's containment
  exactly (see DESIGN.md §5).

Every kernel exposes a ``probes`` counter — the number of candidate
lookups performed — which is the workload metric the paper plots in
Figure 15.

The H-HPGM partition kernel also supports *replicas*: one counter is
built per pass as the read-only index, every simulated node counts
into its own :meth:`~RootKeyedClosureCounter.replica`, and the
replicas' :class:`CounterTally` objects are absorbed back into the
index, which folds once — the coordinator reduce of Figures 7/9/11.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import combinations, product

from repro.core.hash_tree import HashTree
from repro.core.itemsets import Itemset
from repro.errors import MiningError
from repro.taxonomy.ops import AncestorIndex


def count_items(
    transactions: Iterable[tuple[int, ...]],
    index: AncestorIndex,
) -> dict[int, int]:
    """Pass-1 counting: each item and each of its ancestors, per transaction.

    Ancestors are deduplicated within a transaction (two siblings only
    count their shared parent once), matching the Section 2 containment
    definition for 1-itemsets.  The per-item ancestor tuples are already
    cached in the :class:`~repro.taxonomy.ops.AncestorIndex`; on top of
    that the (dedup-preserving) extension of each *distinct* transaction
    is computed once and bulk-added via :meth:`collections.Counter.update`
    — synthetic corpora repeat transactions heavily, so pass 1 stops
    re-deriving the same extension thousands of times.
    """
    counts: Counter[int] = Counter()
    extension_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
    for transaction in transactions:
        extended = extension_cache.get(transaction)
        if extended is None:
            extended = index.extend(transaction)
            extension_cache[transaction] = extended
        counts.update(extended)
    return dict(counts)


class SupportCounter:
    """Counts contained candidates for fully extended transactions.

    Parameters
    ----------
    candidates:
        The candidate k-itemsets.  Order is irrelevant.
    k:
        Itemset size.
    strategy:
        ``"dict"`` (default) — enumerate the transaction's k-subsets and
        probe a hash map; the probe metrics every figure reports are
        defined against it.  ``"hashtree"`` — classic Apriori hash tree
        traversal (good when candidates are sparse relative to the
        subset space).
    """

    def __init__(
        self,
        candidates: Collection[Itemset],
        k: int,
        strategy: str = "dict",
    ):
        if k <= 0:
            raise MiningError(f"k must be positive, got {k}")
        if strategy not in ("dict", "hashtree"):
            raise MiningError(f"unknown counting strategy {strategy!r}")
        self.k = k
        self.counts: dict[Itemset, int] = {c: 0 for c in candidates}
        self.probes = 0
        self.generated = 0
        self._universe = {item for c in self.counts for item in c}
        self._tree: HashTree | None = None
        if strategy == "hashtree":
            self._tree = HashTree(k)
            for candidate in self.counts:
                self._tree.insert(candidate)

    def add_transaction(self, transaction: tuple[int, ...]) -> int:
        """Count one extended, sorted transaction; returns hits."""
        if self._tree is not None:
            return self._add_hashtree(transaction)
        return self._add_dict(transaction)

    def _add_dict(self, transaction: tuple[int, ...]) -> int:
        relevant = [item for item in transaction if item in self._universe]
        if len(relevant) < self.k:
            return 0
        hits = 0
        counts = self.counts
        for subset in combinations(relevant, self.k):
            self.generated += 1
            self.probes += 1
            if subset in counts:
                counts[subset] += 1
                hits += 1
        return hits

    def _add_hashtree(self, transaction: tuple[int, ...]) -> int:
        assert self._tree is not None
        before = self._tree.probes
        contained = self._tree.contained_in(transaction)
        self.probes += self._tree.probes - before
        for candidate in contained:
            self.counts[candidate] += 1
        return len(contained)


class AncestorClosureCounter:
    """H-HPGM-family kernel: count itemsets plus their ancestor candidates.

    The transaction (or the routed fragment t″ of it) contains only
    lowest-large items.  Conceptually, the algorithm generates every
    k-itemset of the fragment and increments it *and all of its ancestor
    candidates* (Figure 5, lines 12/16), at most once per transaction.

    Because no valid candidate pairs an item with its own ancestor, that
    closure is exactly the set of candidates *contained in the
    ancestor-extension of the fragment* (DESIGN.md §5), which is how the
    kernel computes it: extend the fragment with its (candidate-
    referenced) ancestors once, then enumerate the k-subsets of the
    extension.  This avoids the ``depth**k`` per-subset product of the
    naive closure enumeration, needs no per-transaction dedup set, and
    probes each relevant combination exactly once.

    Parameters
    ----------
    candidates:
        The candidate k-itemsets owned by this counter.
    k:
        Itemset size.
    ancestor_table:
        Item → ancestors-or-self tuples (nearest first), pre-filtered to
        the items that occur in *any* candidate of the pass so useless
        levels are never enumerated.  Typically built via
        :func:`build_closure_table`.
    """

    def __init__(
        self,
        candidates: Collection[Itemset],
        k: int,
        ancestor_table: Mapping[int, tuple[int, ...]],
    ):
        if k <= 0:
            raise MiningError(f"k must be positive, got {k}")
        self.k = k
        self.counts: dict[Itemset, int] = {c: 0 for c in candidates}
        self.probes = 0
        self.generated = 0
        self._table = ancestor_table
        self._universe = {item for c in self.counts for item in c}

    def add_transaction(self, transaction: tuple[int, ...]) -> int:
        """Count one lowest-large, sorted transaction fragment."""
        if not self.counts or len(transaction) < self.k:
            return 0
        table = self._table
        universe = self._universe
        extended: set[int] = set()
        for item in transaction:
            chain = table.get(item)
            if chain is None:
                if item in universe:
                    extended.add(item)
                continue
            # chain[0] is the item itself; the rest are its ancestors.
            # Everything is filtered to THIS counter's universe: items no
            # candidate of this table references can never complete a
            # probe, so the enumeration work stays proportional to the
            # table — the property that makes small duplicated sets
            # cheap to count everywhere (§3.4).
            if chain[0] in universe:
                extended.add(chain[0])
            extended.update(a for a in chain[1:] if a in universe)
        if len(extended) < self.k:
            return 0
        hits = 0
        counts = self.counts
        for subset in combinations(sorted(extended), self.k):
            self.generated += 1
            self.probes += 1
            if subset in counts:
                counts[subset] += 1
                hits += 1
        return hits


@dataclass
class CounterTally:
    """What one counter replica accumulated, in the form it travels back.

    ``probes``, ``generated`` and ``hits`` are the replica's metric
    totals (``hits`` is the sum of all its count increments — a node's
    ``increments``).  ``counts`` holds its non-zero count increments.
    The fast k == 2 kernel defers its increments instead: ``vector``
    holds them per candidate in the index's order (with numpy; an
    integer array), ``pending`` as a ``{mask: weight}`` map (without);
    the index sums every replica's and folds once.
    """

    probes: int = 0
    generated: int = 0
    hits: int = 0
    counts: dict[Itemset, int] = field(default_factory=dict)
    pending: dict[int, int] = field(default_factory=dict)
    vector: Sequence[int] | None = None

    def __eq__(self, other: object) -> bool:
        # By value: an array's own ``==`` is elementwise.
        if not isinstance(other, CounterTally):
            return NotImplemented
        mine, theirs = self.vector, other.vector
        return (
            (self.probes, self.generated, self.hits, self.counts, self.pending)
            == (other.probes, other.generated, other.hits, other.counts, other.pending)
            and (mine is None) == (theirs is None)
            and (mine is None or list(mine) == list(theirs))
        )


def pickled_tally(tally: CounterTally) -> CounterTally | None:
    """A counter's tally as pickled: ``None`` while nothing was counted,
    so a fresh index ships as no more than its build inputs."""
    return None if tally == CounterTally() else tally


class RootKeyedClosureCounter:
    """H-HPGM partition kernel: per-root-key subset enumeration.

    The naive receiver enumerates every k-subset of its whole routed
    fragment, which re-enumerates cross-tree combinations owned by
    *other* nodes (pure probe misses) — cluster-wide, an order of
    magnitude more probes than one pass over the data needs.  This
    kernel instead groups the (ancestor-extended) fragment by root and
    generates combinations per *owned root key*: for key ``(r1, r2)``
    only mixed pairs across trees r1/r2, for ``(r, r)`` only pairs
    within tree r, and so on.  Every candidate combination is generated
    exactly once cluster-wide — at the node owning its root key — so
    the aggregate probe work matches a single sequential pass, and the
    per-node distribution is exactly the key-ownership workload the
    paper's Figure 15 measures.

    Replica contract (shared with the fast kernel): :meth:`replica`
    returns a zeroed counter over the same read-only index,
    :meth:`tally` reports what a counter accumulated and :meth:`absorb`
    adds a tally in.  A counter pickles as its index's inputs plus its
    tally.

    Parameters
    ----------
    candidates:
        The candidate k-itemsets of this node's partition.
    k:
        Itemset size.
    ancestor_table:
        Item → ancestors-or-self tuples, pass-wide universe filtered
        (see :func:`build_closure_table`).
    root_of:
        Item → root lookup (ancestors share their item's root, so one
        lookup per fragment item suffices).
    """

    def __init__(
        self,
        candidates: Collection[Itemset],
        k: int,
        ancestor_table: Mapping[int, tuple[int, ...]],
        root_of: Mapping[int, int],
    ):
        if k <= 0:
            raise MiningError(f"k must be positive, got {k}")
        self.k = k
        self.counts: dict[Itemset, int] = {c: 0 for c in candidates}
        self.probes = 0
        self.generated = 0
        self.hits = 0
        self._table = ancestor_table
        self._root_of = root_of
        self._universe = {item for c in self.counts for item in c}
        # Per-key item universes: a probe can only hit when every chosen
        # item occurs in some candidate OF THAT KEY, so enumeration pools
        # are filtered per key — this is what keeps counting a small
        # duplicated set cheap even when its items are ubiquitous.
        self._key_items: dict[tuple[int, ...], set[int]] = {}
        for candidate in self.counts:
            key = tuple(sorted(root_of[item] for item in candidate))
            self._key_items.setdefault(key, set()).update(candidate)

    def replica(self) -> "RootKeyedClosureCounter":
        """A zeroed counter sharing this one's read-only index."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.counts = dict.fromkeys(self.counts, 0)
        clone.probes = clone.generated = clone.hits = 0
        return clone

    def tally(self) -> CounterTally:
        """Metric totals plus the non-zero counts accumulated so far."""
        return CounterTally(
            probes=self.probes,
            generated=self.generated,
            hits=self.hits,
            counts={c: n for c, n in sorted(self.counts.items()) if n},
        )

    def absorb(self, tally: CounterTally) -> None:
        """Add a replica's tally into this counter."""
        self.probes += tally.probes
        self.generated += tally.generated
        self.hits += tally.hits
        counts = self.counts
        for candidate, count in sorted(tally.counts.items()):
            counts[candidate] += count

    def __reduce__(self):
        # Rebuilt from its inputs on unpickling; caches are not shipped.
        args = (tuple(self.counts), self.k, self._table, self._root_of)
        return (type(self), args, pickled_tally(self.tally()))

    def __setstate__(self, tally: CounterTally) -> None:
        self.absorb(tally)

    def add_transaction(self, fragment: tuple[int, ...]) -> int:
        """Count one routed, sorted, lowest-large fragment."""
        if not self.counts or len(fragment) < self.k:
            return 0
        table = self._table
        universe = self._universe
        root_of = self._root_of
        by_root: dict[int, set[int]] = {}
        for item in fragment:
            chain = table.get(item, (item,))
            kept = [link for link in chain if link in universe]
            if kept:
                group = by_root.setdefault(root_of[item], set())
                group.update(kept)
        if not by_root:
            return 0

        hits = 0
        counts = self.counts
        key_items = self._key_items
        root_counts = Counter({root: len(items) for root, items in by_root.items()})
        sorted_groups = {
            root: sorted(items) for root, items in sorted(by_root.items())
        }
        for key in feasible_sorted_multisets(root_counts, self.k):
            members = key_items.get(key)
            if members is None:
                continue
            multiplicity = Counter(key)
            pools = [
                combinations(
                    [i for i in sorted_groups[root] if i in members], count
                )
                for root, count in sorted(multiplicity.items())
            ]
            for chosen in product(*pools):
                subset = tuple(sorted(item for part in chosen for item in part))
                self.generated += 1
                self.probes += 1
                if subset in counts:
                    counts[subset] += 1
                    hits += 1
        self.hits += hits
        return hits

    def add_transactions(
        self, fragments: Iterable[tuple[int, ...]], weight: int = 1
    ) -> int:
        """Count each fragment ``weight`` times; returns the total hits."""
        total = 0
        for fragment in fragments:
            for _ in range(weight):
                total += self.add_transaction(fragment)
        return total


def feasible_sorted_multisets(
    available: Counter,
    k: int,
) -> list[tuple[int, ...]]:
    """Sorted multisets of size ``k`` drawable from ``available`` counts.

    Shared by the sender's routing (which root combinations can this
    transaction realise?) and the receiver's keyed enumeration.  The
    per-value usage is maintained incrementally alongside the prefix —
    an O(1) check instead of the O(k) ``prefix.count(value)`` rescan on
    every extension attempt (this runs once per transaction in every
    H-HPGM-family sender *and* receiver).
    """
    values = sorted(available)
    found: list[tuple[int, ...]] = []
    used = dict.fromkeys(values, 0)

    def extend(prefix: list[int], start: int) -> None:
        if len(prefix) == k:
            found.append(tuple(prefix))
            return
        for index in range(start, len(values)):
            value = values[index]
            if used[value] < available[value]:
                used[value] += 1
                prefix.append(value)
                extend(prefix, index)
                prefix.pop()
                used[value] -= 1

    extend([], 0)
    return found


def build_closure_table(
    index: AncestorIndex,
    items: Iterable[int],
    universe: Collection[int],
) -> dict[int, tuple[int, ...]]:
    """Item → (ancestors-or-self ∩ candidate universe) for closure counting.

    Parameters
    ----------
    index:
        Full-taxonomy ancestor index.
    items:
        The items that can occur in rewritten transactions (the large
        items of the previous pass).
    universe:
        Items referenced by at least one candidate this pass; chain
        entries outside it can never complete a candidate and are
        dropped.  The item itself is always kept so subset generation
        stays anchored.
    """
    members = set(universe)
    table: dict[int, tuple[int, ...]] = {}
    for item in items:
        chain = (item,) + tuple(a for a in index.ancestors(item) if a in members)
        table[item] = chain
    return table
