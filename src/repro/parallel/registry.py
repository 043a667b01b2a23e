"""Algorithm registry and one-call mining entry point."""

from __future__ import annotations

from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Cluster
from repro.datagen.corpus import TransactionDatabase
from repro.errors import MiningError
from repro.parallel.base import ParallelMiner, ParallelRun
from repro.parallel.hhpgm import HHPGM
from repro.parallel.hhpgm_fgd import HHPGMFineGrain
from repro.parallel.hhpgm_pgd import HHPGMPathGrain
from repro.parallel.hhpgm_tgd import HHPGMTreeGrain
from repro.parallel.hpgm import HPGM
from repro.parallel.npgm import NPGM
from repro.perf.config import CountingConfig
from repro.taxonomy.hierarchy import Taxonomy

#: Paper name → miner class, in the paper's order of introduction.
ALGORITHMS: dict[str, type[ParallelMiner]] = {
    "NPGM": NPGM,
    "HPGM": HPGM,
    "H-HPGM": HHPGM,
    "H-HPGM-TGD": HHPGMTreeGrain,
    "H-HPGM-PGD": HHPGMPathGrain,
    "H-HPGM-FGD": HHPGMFineGrain,
}


def make_miner(
    algorithm: str,
    cluster: Cluster,
    taxonomy: Taxonomy,
    counting: CountingConfig | None = None,
) -> ParallelMiner:
    """Instantiate a miner by its paper name (case-insensitive)."""
    try:
        miner_class = ALGORITHMS[algorithm.upper()]
    except KeyError:
        known = ", ".join(ALGORITHMS)
        raise MiningError(f"unknown algorithm {algorithm!r}; known: {known}") from None
    return miner_class(cluster, taxonomy, counting=counting)


def mine_parallel(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    min_support: float,
    algorithm: str = "H-HPGM-FGD",
    config: ClusterConfig | None = None,
    max_k: int | None = None,
    counting: CountingConfig | None = None,
) -> ParallelRun:
    """Mine a database on a freshly built simulated cluster.

    Parameters
    ----------
    database:
        Transactions; partitioned evenly over the nodes' local disks.
        To mine an on-disk columnar store out-of-core, build the
        cluster with :meth:`~repro.cluster.machine.Cluster.from_store`
        and call :func:`make_miner` instead.
    taxonomy:
        Classification hierarchy over the items.
    min_support:
        Fractional minimum support in (0, 1].
    algorithm:
        One of :data:`ALGORITHMS` (default: the paper's best, FGD).
    config:
        Cluster description; defaults to the 16-node SP-2-like preset.
    max_k:
        Optional cap on itemset size.
    counting:
        Optional :class:`~repro.perf.config.CountingConfig` selecting
        the counting kernels (result-preserving; wall-clock only).

    Returns
    -------
    ParallelRun
        The mining result (identical to Cumulate's) plus per-pass
        cluster statistics.
    """
    config = config if config is not None else ClusterConfig.sp2_like()
    cluster = Cluster.from_database(config, database)
    miner = make_miner(algorithm, cluster, taxonomy, counting=counting)
    try:
        return miner.mine(min_support, max_k=max_k)
    finally:
        cluster.close()
