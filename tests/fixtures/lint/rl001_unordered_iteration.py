# repro-analyze: module=repro.parallel.fixture_rl001
"""RL001 fixture: unordered iteration reaching sends/allocation/results.

Lines carrying a violation are tagged ``# expect: RLxxx``; everything
else is a clean decoy the rule must NOT flag.
"""


def route(network, batches: dict, counts: dict, node_stats):
    for dest, flat in batches.items():  # expect: RL001
        network.send(0, dest, tuple(flat), None, node_stats[dest])
    network.drain(0)
    large = {k: v for k, v in counts.items() if v >= 2}  # expect: RL001
    return large


def assemble(previous: dict, generate_candidates):
    return generate_candidates(previous.keys(), 2)  # expect: RL001


def local_set_iteration(items):
    chosen = {i for i in items if i % 2 == 0}
    for item in chosen:  # expect: RL001
        yield item


def clean(counts: dict, batches: dict):
    total = sum(counts.values())  # reducer: allowed
    top = max(counts.values())  # reducer: allowed
    ordered = sorted(counts.items())  # sorted: allowed
    for key, value in ordered:
        yield key, value, total, top
    members = {k for k in counts}  # set comp: result is unordered anyway
    if "x" in members:
        yield "x", 0, 0, 0
