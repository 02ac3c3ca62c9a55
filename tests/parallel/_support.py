"""Property-test plumbing shared by the parallel suite.

The properties run under hypothesis when it is importable and fall back
to a fixed set of seeded-random cases otherwise, so the differential
harness keeps its coverage on minimal installs (the package itself only
depends on numpy; hypothesis is a dev extra).
"""

from __future__ import annotations

import numpy as np

from repro.data import TransactionDatabase

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the dev extra ships hypothesis
    HAVE_HYPOTHESIS = False

#: Item universe for generated databases — small enough that pairs and
#: triples collide often, which is where counting bugs hide.
N_ITEMS = 8

#: Cases replayed by the seeded-random fallback path.
FALLBACK_EXAMPLES = 10


def make_db(txns) -> TransactionDatabase:
    """Canonical database over the fixed :data:`N_ITEMS` universe."""
    return TransactionDatabase(
        [tuple(sorted(txn)) for txn in txns], n_items=N_ITEMS
    )


def _random_transactions(rng: np.random.Generator) -> list[set[int]]:
    n_transactions = int(rng.integers(0, 30))
    txns = []
    for _ in range(n_transactions):
        size = int(rng.integers(0, N_ITEMS + 1))
        txns.append(
            {int(i) for i in rng.choice(N_ITEMS, size=size, replace=False)}
        )
    return txns


def given_database(max_examples: int = 10):
    """Decorate ``test(db)`` to run over arbitrary small databases.

    With hypothesis the databases are drawn (and shrunk) from a list-of
    -sets strategy, including the empty database; without it the same
    property replays :data:`FALLBACK_EXAMPLES` seeded-random databases.
    """

    def decorate(test):
        if HAVE_HYPOTHESIS:
            transactions = st.lists(
                st.sets(
                    st.integers(min_value=0, max_value=N_ITEMS - 1),
                    max_size=N_ITEMS,
                ),
                max_size=30,
            )

            def wrapper(txns):
                test(make_db(txns))

            # Copy the identity by hand: functools.wraps would set
            # __wrapped__, and hypothesis would then introspect the
            # original signature (``db``) instead of the wrapper's.
            wrapper.__name__ = test.__name__
            wrapper.__doc__ = test.__doc__
            return settings(max_examples=max_examples, deadline=None)(
                given(transactions)(wrapper)
            )

        def fallback():
            for seed in range(FALLBACK_EXAMPLES):
                rng = np.random.default_rng(seed)
                test(make_db(_random_transactions(rng)))

        fallback.__name__ = test.__name__
        fallback.__doc__ = test.__doc__
        return fallback

    return decorate


def pathological_compositions(n: int) -> list[list[int]]:
    """Segment cut-point lists that stress the shard planner.

    Covers: one giant segment, single-transaction segments, empty
    segments at the start / middle / end, and an uneven three-way split
    — every composition is a valid ``[0, ..., n]`` boundary list.
    """
    compositions = [[0, n]]
    if n > 0:
        compositions.append(list(range(n + 1)))
        compositions.append([0, 0, n // 3, n // 3, n, n])
        compositions.append([0, max(1, n // 5), max(1, n // 5), n])
    else:
        compositions.append([0, 0, 0])
    return compositions
