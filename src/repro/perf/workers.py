"""Pure per-node scan workers shared by the serial and process backends.

Each worker is a module-level function (picklable) of one task
dataclass.  It receives the node's local disk plus the broadcast pass
inputs, builds a **fresh** :class:`~repro.cluster.stats.NodeStats`, and
returns everything the miner needs to replay the node's side effects in
the main process: the statistics delta, the local count hits, and the
outgoing messages *in send order*.  Workers never see the ``Network``,
the telemetry or the other nodes — replay in node order therefore
reproduces a serial run's trace, span and invariant behaviour exactly,
whichever backend ran the workers.

The counting semantics (including every ``probes`` / ``generated`` /
``increments`` movement) mirror the serial scan loops of the miners
line by line; the equivalence suite pins serial-naive, serial-fast and
process-fast runs to byte-identical statistics.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from itertools import combinations

from repro.cluster.disk import LocalDisk
from repro.cluster.stats import NodeStats
from repro.core.counting import CounterTally, RootKeyedClosureCounter
from repro.core.itemsets import Itemset
from repro.parallel.allocation import feasible_root_keys, itemset_owner
from repro.perf.config import CountingConfig
from repro.perf.kernels import FastRootKeyedClosureCounter, FastSupportCounter
from repro.perf.preprocess import ExtensionCache, RewriteCache
from repro.taxonomy.ops import AncestorIndex

try:  # optional accelerator for the HPGM pair-routing fast path
    import numpy as _np
except ImportError:  # pragma: no cover - depends on the environment
    _np = None

Payload = tuple[int, ...]
Send = tuple[int, Payload]
RootKeyedCounter = RootKeyedClosureCounter | FastRootKeyedClosureCounter


def apply_stats(target: NodeStats, delta: NodeStats) -> None:
    """Fold a worker's statistics delta into the node's live counters.

    Counter-wise addition: the worker starts from a zeroed
    :class:`NodeStats`, and the live object may already carry receive
    charges from earlier nodes' replayed sends.
    """
    for spec in fields(NodeStats):
        setattr(
            target, spec.name, getattr(target, spec.name) + getattr(delta, spec.name)
        )


# ----------------------------------------------------------------------
# Pass 1 — items plus ancestors, identical for every algorithm
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Pass1Task:
    disk: LocalDisk
    index: AncestorIndex
    counting: CountingConfig


@dataclass
class Pass1Result:
    stats: NodeStats
    counts: dict[int, int]


def pass1_scan(task: Pass1Task) -> Pass1Result:
    """Count items + ancestors over one partition (Cumulate containment).

    The fast kernel counts vertically: one pass over the rows records
    each item's row positions, each item's row bitset (built in linear
    time through a ``bytearray``) is OR-ed into the bitsets of its
    lineage — the item and its ancestors — and a count is the bitset's
    ``bit_count``, the number of rows whose extension holds the item.
    Every extended item of a row is one probe and one increment, so
    both are the summed counts.  The naive kernel extends row by row.
    """
    stats = NodeStats()
    local: dict[int, int] = {}
    index = task.index
    if task.counting.fast:
        positions: dict[int, list[int]] = defaultdict(list)
        size = 0
        for transaction in task.disk.scan(stats):
            stats.extend_items += len(transaction)
            for item in transaction:
                positions[item].append(size)
            size += 1
        nbytes = (size + 7) >> 3
        lineage_bits: dict[int, int] = {}
        for item, where in positions.items():
            row_bits = bytearray(nbytes)
            for position in where:
                row_bits[position >> 3] |= 1 << (position & 7)
            mask = int.from_bytes(row_bits, "little")
            lineage_bits[item] = lineage_bits.get(item, 0) | mask
            for ancestor in index.ancestors(item):
                lineage_bits[ancestor] = lineage_bits.get(ancestor, 0) | mask
        local = {item: mask.bit_count() for item, mask in lineage_bits.items()}
        stats.probes = stats.increments = sum(local.values())
    else:
        for transaction in task.disk.scan(stats):
            stats.extend_items += len(transaction)
            extended = index.extend(transaction)
            stats.probes += len(extended)
            stats.increments += len(extended)
            for item in extended:
                local[item] = local.get(item, 0) + 1
    return Pass1Result(stats=stats, counts=local)


# ----------------------------------------------------------------------
# NPGM — replicated candidates, no communication
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NPGMScanTask:
    disk: LocalDisk
    index: AncestorIndex
    candidates: tuple[Itemset, ...]
    k: int
    fragments: int
    counting: CountingConfig


@dataclass
class NPGMScanResult:
    stats: NodeStats
    counts: dict[Itemset, int]


def npgm_scan(task: NPGMScanTask) -> NPGMScanResult:
    """One NPGM node scan, fragment multipliers applied (Figure 2)."""
    stats = NodeStats()
    counting = task.counting
    counter = counting.support_counter(task.candidates, task.k)
    extender = ExtensionCache(task.index) if counting.dedup else task.index
    if counting.dedup and counting.fast:
        weights = Counter(task.disk.scan(stats))
        for transaction, weight in weights.items():
            stats.extend_items += len(transaction) * weight
            counter.add_transaction(extender.extend(transaction), weight=weight)
    else:
        for transaction in task.disk.scan(stats):
            stats.extend_items += len(transaction)
            counter.add_transaction(extender.extend(transaction))
    fragments = task.fragments
    stats.io_items *= fragments
    stats.io_scans = fragments
    stats.extend_items *= fragments
    stats.itemsets_generated = counter.generated * fragments
    stats.probes = counter.probes * fragments
    stats.increments = sum(counter.counts.values())
    nonzero = {
        itemset: count for itemset, count in sorted(counter.counts.items()) if count
    }
    return NPGMScanResult(stats=stats, counts=nonzero)


# ----------------------------------------------------------------------
# HPGM — per-itemset hash routing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HPGMScanTask:
    disk: LocalDisk
    index: AncestorIndex
    universe: frozenset[int]
    owned: frozenset[Itemset]
    k: int
    me: int
    num_nodes: int
    counting: CountingConfig
    #: Optional ``(index_of, owner_matrix)`` from
    #: :func:`~repro.parallel.allocation.pair_owner_matrix`; enables the
    #: vectorized k == 2 routing path.
    pair_owners: tuple | None = None


@dataclass
class HPGMScanResult:
    stats: NodeStats
    hits: dict[Itemset, int]
    sends: list[Send] = field(default_factory=list)


def _route_pairs(
    relevant: tuple[int, ...],
    index_of: dict[int, int],
    owner_matrix,
    me: int,
    triu_cache: dict[int, tuple],
):
    """Vectorized k == 2 routing of one distinct relevant set.

    Metric- and payload-identical to the naive pair loop: pairs come
    from ``triu_indices`` in ``combinations`` order, so each
    destination's flattened payload preserves the enumeration order,
    and destinations appear in ascending id order (the bincount scan)
    exactly like the naive path's ``sorted(batches.items())``.  Local
    hits are not computed here — the caller counts them through a
    :class:`~repro.perf.kernels.FastSupportCounter` over its owned
    candidates, which matches the naive membership test because every
    owned candidate hashes to ``me``.
    """
    n = len(relevant)
    cached = triu_cache.get(n)
    if cached is None:
        cached = _np.triu_indices(n, 1)
        triu_cache[n] = cached
    ai, aj = cached
    positions = _np.fromiter(
        (index_of[item] for item in relevant), dtype=_np.intp, count=n
    )
    dests = owner_matrix[positions[ai], positions[aj]]
    per_dest = _np.bincount(dests)
    local_probes = int(per_dest[me]) if me < len(per_dest) else 0
    items = _np.asarray(relevant, dtype=_np.int64)
    first_items = items[ai]
    second_items = items[aj]
    batches = []
    for dest, dest_count in enumerate(per_dest.tolist()):
        if not dest_count or dest == me:
            continue
        chosen = dests == dest
        flat = _np.empty(2 * dest_count, dtype=_np.int64)
        flat[0::2] = first_items[chosen]
        flat[1::2] = second_items[chosen]
        batches.append((dest, tuple(flat.tolist())))
    return (n * (n - 1) // 2, local_probes, None, tuple(batches))


def hpgm_scan(task: HPGMScanTask) -> HPGMScanResult:
    """One HPGM node scan: extend, enumerate k-subsets, route by hash.

    With dedup enabled the enumeration + hashing of each distinct
    relevant set runs once; repeats replay the stored local hits and
    batches (sends still appear once per occurrence — message volume is
    Table 6's semantic quantity).  With the fast kernels and k == 2 the
    per-set work itself is vectorized (see :func:`_route_pairs`).
    """
    k = task.k
    me = task.me
    num_nodes = task.num_nodes
    universe = task.universe
    owned = task.owned
    stats = NodeStats()
    hits: dict[Itemset, int] = {}
    sends: list[Send] = []
    extender = ExtensionCache(task.index) if task.counting.dedup else task.index
    memo: dict | None = {} if task.counting.dedup else None
    fast_pairs = (
        task.pair_owners
        if (
            task.counting.fast
            and k == 2
            and task.pair_owners is not None
            and _np is not None
        )
        else None
    )
    if fast_pairs is not None:
        index_of, owner_matrix = fast_pairs
        # Local hits through the deferred-fold counter: each call
        # returns the hit count (for ``increments``) without ever
        # materialising the hit tuples; the per-subset occurrence
        # counts are folded once at the end.
        hit_counter = FastSupportCounter(owned, 2) if owned else None
        triu_cache: dict[int, tuple] = {}
    # Placement is a pure function of the subset; popular subsets recur
    # across transactions far more often than relevant sets do, so the
    # FNV hash is cached per distinct subset (dedup family, like the
    # extension cache above).
    owner_cache: dict[Itemset, int] | None = {} if task.counting.dedup else None
    for transaction in task.disk.scan(stats):
        stats.extend_items += len(transaction)
        extended = extender.extend(transaction)
        relevant = tuple(item for item in extended if item in universe)
        if len(relevant) < k:
            continue
        entry = memo.get(relevant) if memo is not None else None
        if entry is None:
            if fast_pairs is not None:
                entry = _route_pairs(
                    relevant, index_of, owner_matrix, me, triu_cache
                )
            else:
                generated = 0
                local_probes = 0
                local_hits: list[Itemset] = []
                batches: dict[int, list[int]] = {}
                for subset in combinations(relevant, k):
                    generated += 1
                    if owner_cache is None:
                        dest = itemset_owner(subset, num_nodes)
                    else:
                        dest = owner_cache.get(subset)
                        if dest is None:
                            dest = itemset_owner(subset, num_nodes)
                            owner_cache[subset] = dest
                    if dest == me:
                        local_probes += 1
                        if subset in owned:
                            local_hits.append(subset)
                    else:
                        batches.setdefault(dest, []).extend(subset)
                entry = (
                    generated,
                    local_probes,
                    tuple(local_hits),
                    tuple(
                        (dest, tuple(flat))
                        for dest, flat in sorted(batches.items())
                    ),
                )
            if memo is not None:
                memo[relevant] = entry
        generated, local_probes, local_hits, batches = entry
        stats.itemsets_generated += generated
        stats.probes += local_probes
        if local_hits is None:
            if hit_counter is not None:
                stats.increments += hit_counter.add_transaction(relevant)
        else:
            stats.increments += len(local_hits)
            for subset in local_hits:
                hits[subset] = hits.get(subset, 0) + 1
        sends.extend(batches)
    if fast_pairs is not None and hit_counter is not None:
        hits = {
            itemset: count
            for itemset, count in sorted(hit_counter.counts.items())
            if count
        }
    return HPGMScanResult(stats=stats, hits=hits, sends=sends)


# ----------------------------------------------------------------------
# H-HPGM family — lowest-large rewrite, root-key routing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HHPGMScanTask:
    disk: LocalDisk
    replacement: dict[int, int | None]
    root_of: dict[int, int]
    owners: dict[tuple[int, ...], int]
    active_keys: frozenset[tuple[int, ...]]
    useful_for: tuple[frozenset[int], ...]
    #: This node's partition counter and the pass's duplicated-set
    #: counter (``None`` without duplication), each built once per pass
    #: by the miner.  The scan reads them only as indexes: it counts
    #: into its own zeroed :meth:`replica` of each.
    partition: RootKeyedCounter
    duplicated: RootKeyedCounter | None
    k: int
    me: int
    #: Memoize routing per distinct rewritten transaction.
    dedup: bool


@dataclass
class HHPGMScanResult:
    stats: NodeStats
    #: Local-fragment work on this node's partition.
    local: CounterTally
    #: This node's share of the duplicated-set counting (its probes,
    #: generated and hits are the node's own; the counts are reduced at
    #: the coordinator).
    duplicated: CounterTally | None
    sends: list[Send] = field(default_factory=list)


def hhpgm_scan(task: HHPGMScanTask) -> HHPGMScanResult:
    """One H-HPGM node scan: rewrite, count duplicates, route fragments.

    Local fragments (``dest == me``) and the duplicated set are counted
    into zeroed replicas of the miner's counters; their tallies go back
    to be absorbed, so each counter is folded once, in the miner.  When
    no root key keeps a resident candidate (everything duplicated),
    routing is skipped: no fragment could have a destination.
    """
    k = task.k
    me = task.me
    root_of = task.root_of
    owners = task.owners
    active_keys = task.active_keys
    useful_for = task.useful_for
    stats = NodeStats()
    rewriter = RewriteCache(task.replacement)
    route_memo: dict[Payload, tuple[Send, ...]] | None = {} if task.dedup else None
    sends: list[Send] = []
    # The duplicated-set fragments and the local fragments are each
    # counted as one batch once the scan is done.
    duplicated: list[Payload] = []
    local: list[Payload] = []
    for transaction in task.disk.scan(stats):
        stats.extend_items += len(transaction)
        rewritten = rewriter.rewrite(transaction)
        if len(rewritten) < k:
            continue
        if task.duplicated is not None:
            duplicated.append(rewritten)
        if not active_keys:
            continue
        route = route_memo.get(rewritten) if route_memo is not None else None
        if route is None:
            transaction_roots = Counter(root_of[item] for item in rewritten)
            destination_roots: dict[int, set[int]] = {}
            if k == 2:
                # The feasible size-2 keys are exactly the root pairs the
                # transaction can realise — enumerate them directly
                # instead of recursing through the multiset generator.
                roots = sorted(transaction_roots)
                for index, first in enumerate(roots):
                    if transaction_roots[first] >= 2:
                        key = (first, first)
                        if key in active_keys:
                            destination_roots.setdefault(
                                owners[key], set()
                            ).update(key)
                    for second in roots[index + 1 :]:
                        key = (first, second)
                        if key in active_keys:
                            destination_roots.setdefault(
                                owners[key], set()
                            ).update(key)
            else:
                for key in feasible_root_keys(transaction_roots, k):
                    if key in active_keys:
                        destination_roots.setdefault(owners[key], set()).update(key)
            routed: list[Send] = []
            for dest, roots in sorted(destination_roots.items()):
                useful = useful_for[dest]
                fragment = tuple(
                    item
                    for item in rewritten
                    if root_of[item] in roots and item in useful
                )
                if len(fragment) < k:
                    continue
                routed.append((dest, fragment))
            route = tuple(routed)
            if route_memo is not None:
                route_memo[rewritten] = route
        for dest, fragment in route:
            if dest == me:
                local.append(fragment)
            else:
                sends.append((dest, fragment))
    counter = task.partition.replica()
    counter.add_transactions(local)
    dup_tally = None
    if task.duplicated is not None:
        dup_counter = task.duplicated.replica()
        dup_counter.add_transactions(duplicated)
        dup_tally = dup_counter.tally()
    return HHPGMScanResult(
        stats=stats, local=counter.tally(), duplicated=dup_tally, sends=sends
    )
