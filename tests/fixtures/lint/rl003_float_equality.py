# repro-analyze: module=repro.metrics.fixture_rl003
"""RL003 fixture: float equality in the cost model / metrics scope."""

import math


def classify(cv: float, ratio: float) -> str:
    if cv == 0.0:  # expect: RL003
        return "flat"
    if ratio != 1.0:  # expect: RL003
        return "skewed"
    return "balanced"


def clean(cv: float, mean: float) -> bool:
    if math.isclose(cv, 0.0):  # isclose: allowed
        return True
    if mean == 0:  # integer literal: allowed (exact zero guard)
        return True
    return cv < 0.5  # ordering comparison: allowed
