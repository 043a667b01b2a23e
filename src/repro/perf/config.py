"""Counting configuration: which kernels count, and how.

One frozen :class:`CountingConfig` is threaded from the public entry
points (``cumulate``, ``make_miner``, ``mine_parallel``, the CLI) down
to every counter construction.  It never changes *what* is counted —
the fast kernels are bound by the probe-preservation contract (see
:mod:`repro.perf.kernels`) — only how much wall-clock time counting
takes.

It is the only way to choose how counting runs: no environment
variable changes it.  Callers that omit it get ``CountingConfig()``;
the benchmark harness, the tests and ``repro-mine --kernel`` pass the
configuration they compare explicitly.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass

from repro.core.counting import (
    AncestorClosureCounter,
    RootKeyedClosureCounter,
    SupportCounter,
)
from repro.core.itemsets import Itemset
from repro.errors import MiningError

KERNELS = ("fast", "naive")


@dataclass(frozen=True)
class CountingConfig:
    """How support counting is executed (never what it reports).

    Attributes
    ----------
    kernel:
        ``"fast"`` — prefix-indexed candidate-trie kernels from
        :mod:`repro.perf.kernels`; ``"naive"`` — the reference
        enumeration kernels from :mod:`repro.core.counting`.  Both
        report identical ``counts`` / ``probes`` / ``generated``.
    dedup:
        Count each distinct (filtered) transaction once and scale its
        hits by multiplicity.  Also enables the routing/extension memos
        in the miners' scan loops.  Metrics are weight-scaled so they
        stay identical to per-transaction counting.

    The data source is not part of the configuration: pass an opened
    :class:`~repro.store.reader.TransactionStore` as ``cumulate``'s
    database, or build the cluster with
    :meth:`~repro.cluster.machine.Cluster.from_store`.
    """

    kernel: str = "fast"
    dedup: bool = True

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise MiningError(
                f"unknown counting kernel {self.kernel!r}; known: {', '.join(KERNELS)}"
            )

    @property
    def fast(self) -> bool:
        return self.kernel == "fast"

    @classmethod
    def naive(cls) -> "CountingConfig":
        """The reference configuration: naive kernels, no dedup."""
        return cls(kernel="naive", dedup=False)

    # ------------------------------------------------------------------
    # Counter factories (the only places kernels are chosen)
    # ------------------------------------------------------------------
    def support_counter(self, candidates: Collection[Itemset], k: int):
        """A pass-k counter for Cumulate/NPGM-style extended transactions."""
        if self.fast:
            from repro.perf.kernels import FastSupportCounter

            return FastSupportCounter(candidates, k, memoize=self.dedup)
        return SupportCounter(candidates, k)

    def closure_counter(
        self,
        candidates: Collection[Itemset],
        k: int,
        ancestor_table: Mapping[int, tuple[int, ...]],
    ):
        """An H-HPGM-family ancestor-closure counter."""
        if self.fast:
            from repro.perf.kernels import FastAncestorClosureCounter

            return FastAncestorClosureCounter(
                candidates, k, ancestor_table, memoize=self.dedup
            )
        return AncestorClosureCounter(candidates, k, ancestor_table)

    def root_keyed_counter(
        self,
        candidates: Collection[Itemset],
        k: int,
        ancestor_table: Mapping[int, tuple[int, ...]],
        root_of: Mapping[int, int],
    ):
        """An H-HPGM partition kernel (per-root-key enumeration)."""
        if self.fast:
            from repro.perf.kernels import FastRootKeyedClosureCounter

            return FastRootKeyedClosureCounter(
                candidates, k, ancestor_table, root_of, memoize=self.dedup
            )
        return RootKeyedClosureCounter(candidates, k, ancestor_table, root_of)
