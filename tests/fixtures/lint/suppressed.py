# repro-analyze: module=repro.cluster.cost.fixture_suppressed
# repro-analyze: disable-file=RL003
"""Suppression fixture: every violation below is silenced.

Exercises all three suppression forms — trailing comment, comment-line
above (with a multi-line justification), and file-level.
"""

import time


def inline_suppression(counts: dict):
    for key, value in counts.items():  # repro-analyze: disable=RL001 — test
        yield key, value


def comment_above(clock_reads: list):
    # repro-analyze: disable=RL002 — this fixture documents the comment-above
    # form, whose justification may span several comment lines before the
    # suppressed statement.
    clock_reads.append(time.time())
    return clock_reads


def file_level(x: float) -> bool:
    return x == 1.0
