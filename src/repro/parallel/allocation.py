"""Candidate→node placement: itemset hashing and root-itemset hashing.

Two placement schemes from the paper:

* **HPGM** hashes the candidate itemset itself (Figure 3) — placement
  ignores the hierarchy, so a candidate and its ancestor candidates
  usually land on different nodes.
* **H-HPGM** hashes the candidate's *root itemset* (Figure 5, line 6):
  each item is replaced by the root of its tree, the resulting multiset
  is hashed, and therefore every candidate sharing a root combination —
  in particular a candidate and all of its ancestor candidates — lands
  on one node.

The hash must be identical on every node and across runs, so Python's
randomized ``hash`` is out; :func:`stable_hash` is FNV-1a over the item
ids' bytes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from itertools import product

from repro.core.counting import feasible_sorted_multisets
from repro.core.itemsets import Itemset
from repro.taxonomy.hierarchy import Taxonomy

try:  # optional accelerator for bulk placement (see pair_owner_matrix)
    import numpy as _np
except ImportError:  # pragma: no cover - depends on the environment
    _np = None

RootKey = tuple[int, ...]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def stable_hash(items: Iterable[int]) -> int:
    """Deterministic hash of a sequence of item ids.

    FNV-1a over the ids' bytes, finished with a splitmix64-style
    avalanche so the low bits disperse well (``% num_nodes`` reads
    them); raw FNV-1a leaves consecutive inputs correlated in the low
    bits, which skews candidate placement.  Identical across processes
    and platforms (unlike built-in ``hash`` under hash randomisation):
    every node must agree on every placement decision without
    communicating.
    """
    value = _FNV_OFFSET
    for item in items:
        for _ in range(4):
            value ^= item & 0xFF
            value = (value * _FNV_PRIME) & _MASK
            item >>= 8
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & _MASK
    value ^= value >> 33
    return value


def itemset_owner(itemset: Itemset, num_nodes: int) -> int:
    """HPGM placement: hash of the itemset itself."""
    return stable_hash(itemset) % num_nodes


def root_key(itemset: Itemset, root_of: Mapping[int, int]) -> RootKey:
    """The root itemset of a candidate, as a sorted multiset.

    Multiplicity matters: a candidate with two items from tree 1 has
    root key ``(1, 1)``, distinct from ``(1, 2)`` (the paper's Example 2
    hashes ``{5, 10}`` — roots ``(1, 1)`` — separately from ``{5, 6}`` —
    roots ``(1, 2)``).
    """
    if len(itemset) == 2:
        first, second = root_of[itemset[0]], root_of[itemset[1]]
        return (first, second) if first <= second else (second, first)
    return tuple(sorted(root_of[item] for item in itemset))


def pair_owner_matrix(
    universe: Iterable[int],
    num_nodes: int,
) -> tuple[dict[int, int], "object"] | None:
    """Vectorized HPGM placement for every item pair of a universe.

    Returns ``(index_of, owners)`` where ``owners[index_of[a],
    index_of[b]]`` equals ``itemset_owner((a, b), num_nodes)`` for every
    ``a <= b`` pair, or ``None`` when numpy is unavailable.  The matrix
    replays :func:`stable_hash` exactly — FNV-1a byte rounds and the
    splitmix64 finalizer — in wrapping uint64 arithmetic, so the scan
    workers can route ``C(n, 2)`` subsets with one fancy-indexing read
    instead of one Python hash per subset.  Pinned against
    :func:`itemset_owner` by the equivalence suite.
    """
    if _np is None:
        return None
    items = sorted(universe)
    index_of = {item: position for position, item in enumerate(items)}
    width = len(items)
    if width == 0:
        return index_of, _np.zeros((0, 0), dtype=_np.uint8)
    prime = _np.uint64(_FNV_PRIME)
    byte = _np.uint64(0xFF)
    eight = _np.uint64(8)

    def accumulate(value, item):
        # One item's four FNV-1a byte rounds, vectorized and wrapping.
        for _ in range(4):
            value = (value ^ (item & byte)) * prime
            item = item >> eight
        return value

    column = _np.asarray(items, dtype=_np.uint64)
    first = accumulate(
        _np.full(width, _FNV_OFFSET, dtype=_np.uint64), column.copy()
    )
    value = accumulate(
        _np.repeat(first[:, None], width, axis=1),
        _np.repeat(column[None, :], width, axis=0),
    )
    value ^= value >> _np.uint64(33)
    value *= _np.uint64(0xFF51AFD7ED558CCD)
    value ^= value >> _np.uint64(33)
    value *= _np.uint64(0xC4CEB9FE1A85EC53)
    value ^= value >> _np.uint64(33)
    return index_of, (value % _np.uint64(num_nodes)).astype(_np.uint8)


def root_key_owner(key: RootKey, num_nodes: int) -> int:
    """H-HPGM placement: hash of the root itemset."""
    return stable_hash(key) % num_nodes


def build_root_table(taxonomy: Taxonomy) -> dict[int, int]:
    """Item → root-of-its-tree lookup table."""
    return {item: taxonomy.root_of(item) for item in taxonomy.items}


def group_by_root_key(
    candidates: Iterable[Itemset],
    root_of: Mapping[int, int],
) -> dict[RootKey, list[Itemset]]:
    """Bucket candidates by their root itemset."""
    groups: dict[RootKey, list[Itemset]] = {}
    for candidate in candidates:
        groups.setdefault(root_key(candidate, root_of), []).append(candidate)
    return groups


def feasible_root_keys(
    transaction_roots: Counter[int],
    k: int,
) -> list[RootKey]:
    """Root multisets of size ``k`` realisable by this transaction.

    ``transaction_roots`` counts how many transaction items fall in each
    tree; a key is feasible when no root is used more often than the
    transaction supplies items for it.  Feasible keys drive routing: the
    items of every feasible key's trees form the fragment t″ sent to the
    key's owner.
    """
    return feasible_sorted_multisets(transaction_roots, k)


def partition_candidates_by_itemset(
    candidates: Iterable[Itemset],
    num_nodes: int,
    pair_owners: tuple | None = None,
) -> list[list[Itemset]]:
    """HPGM's partitioning: node → its candidate list.

    ``pair_owners`` — a :func:`pair_owner_matrix` result covering every
    candidate's items — replaces the per-candidate FNV hash with one
    vectorized gather; the placement (and the within-partition order,
    which follows ``candidates``) is identical either way.
    """
    partitions: list[list[Itemset]] = [[] for _ in range(num_nodes)]
    if pair_owners is not None:
        ordered = list(candidates)
        index_of, owners = pair_owners
        first = _np.fromiter(
            (index_of[c[0]] for c in ordered), dtype=_np.intp, count=len(ordered)
        )
        second = _np.fromiter(
            (index_of[c[1]] for c in ordered), dtype=_np.intp, count=len(ordered)
        )
        for candidate, dest in zip(ordered, owners[first, second].tolist()):
            partitions[dest].append(candidate)
        return partitions
    for candidate in candidates:
        partitions[itemset_owner(candidate, num_nodes)].append(candidate)
    return partitions


def partition_candidates_by_root(
    candidates: Iterable[Itemset],
    root_of: Mapping[int, int],
    num_nodes: int,
) -> tuple[list[list[Itemset]], dict[RootKey, int]]:
    """H-HPGM's partitioning.

    Returns the per-node candidate lists and the root-key → owner map
    (which routing consults on the sending side).
    """
    partitions: list[list[Itemset]] = [[] for _ in range(num_nodes)]
    owners: dict[RootKey, int] = {}
    for key, group in sorted(group_by_root_key(candidates, root_of).items()):
        owner = root_key_owner(key, num_nodes)
        owners[key] = owner
        partitions[owner].extend(group)
    return partitions, owners


def ancestor_closure(
    candidate: Itemset,
    candidate_set: frozenset[Itemset] | set[Itemset],
    chains: Mapping[int, tuple[int, ...]],
) -> set[Itemset]:
    """All ancestor candidates of ``candidate`` (itself excluded).

    ``chains`` maps an item to its ancestors-or-self tuple.  Used by the
    PGD/FGD duplicate selectors, which copy a frequent itemset *"and
    their all ancestor itemsets"*.  Each choice of one chain link per
    item is a variant; variants that collapse (two items sharing an
    ancestor) are not k-itemsets and are skipped.
    """
    k = len(candidate)
    closure: set[Itemset] = set()
    for chosen in product(*(chains.get(item, (item,)) for item in candidate)):
        variant = tuple(sorted(set(chosen)))
        if len(variant) == k and variant != candidate and variant in candidate_set:
            closure.add(variant)
    return closure
