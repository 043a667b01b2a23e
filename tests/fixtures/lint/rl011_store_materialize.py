"""RL011 fixture: whole-store materialization."""
# repro-analyze: module=repro.perf.fixture_store

from repro.store import open_store


def materialize_with_helper(store):
    return store.to_list()  # expect: RL011


def materialize_view(view_store):
    return view_store.view(0, 100).to_list()  # expect: RL011


def materialize_with_builtin(store):
    return list(store)  # expect: RL011


def materialize_attribute(self_like):
    return tuple(self_like.store)  # expect: RL011


def materialize_fresh_open(path):
    return list(open_store(path))  # expect: RL011


def scanning_is_fine(store):
    # Iteration and views stream rows; nothing is pinned in memory.
    total = sum(len(row) for row in store)
    head = store.view(0, 10)
    return total, head


def unrelated_names_are_fine(rows, mapping):
    # list()/tuple() over non-store operands is ordinary code.
    copied = list(rows)
    pairs = tuple(sorted(mapping))
    return copied, pairs
