"""Synthetic retail-transaction generation (Srikant–Agrawal method).

The paper evaluates on synthetic datasets "emulating retail transactions"
generated "based on the method described in [SA95]" — the classic Quest
generator extended with a classification hierarchy.  This subpackage
reimplements that recipe:

* :mod:`~repro.datagen.params` — :class:`GeneratorParams` plus the
  paper's named presets (R30F5, R30F3, R30F10) with a scale knob.
* :mod:`~repro.datagen.generator` — potentially-large-itemset driven
  transaction synthesis over the taxonomy's leaves.
* :mod:`~repro.datagen.corpus` — :class:`TransactionDatabase` container.
* :mod:`~repro.datagen.partition` — horizontal partitioning across the
  cluster's local disks, with optional placement skew for ablations.
* :mod:`~repro.datagen.io` — the text on-disk format (the binary one
  is :mod:`repro.store`).
* :mod:`~repro.datagen.adapters` — real-dataset CSV loaders (attribute
  tables, labelled baskets) with deterministic taxonomy induction.
"""

from repro.datagen.adapters import (
    AdaptedDataset,
    load_attribute_csv,
    load_basket_csv,
)
from repro.datagen.corpus import TransactionDatabase
from repro.datagen.generator import SyntheticDataset, generate_dataset, generate_transactions
from repro.datagen.io import load_transactions_text, save_transactions_text
from repro.datagen.params import (
    DATASET_PRESETS,
    GeneratorParams,
    preset,
)
from repro.datagen.partition import partition_evenly, partition_weighted

__all__ = [
    "AdaptedDataset",
    "DATASET_PRESETS",
    "GeneratorParams",
    "SyntheticDataset",
    "TransactionDatabase",
    "generate_dataset",
    "generate_transactions",
    "load_attribute_csv",
    "load_basket_csv",
    "load_transactions_text",
    "partition_evenly",
    "partition_weighted",
    "preset",
    "save_transactions_text",
]
