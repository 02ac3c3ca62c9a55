"""In-memory transaction databases.

A *transaction* is a set of items; items are canonical integer ids in
``range(n_items)``. :class:`TransactionDatabase` is the substrate every
other subsystem (OSSM construction, the miners, the paged view) builds
on. Transactions are stored as sorted tuples of unique ids, which keeps
hashing, prefix joins, and subset tests cheap and deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

import numpy as np

__all__ = ["Transaction", "TransactionDatabase", "Vocabulary"]

Transaction = tuple[int, ...]


def _canonical(items: Iterable[int]) -> Transaction:
    """Return *items* as a sorted tuple of unique non-negative ints."""
    txn = tuple(sorted(set(int(item) for item in items)))
    if txn and txn[0] < 0:
        raise ValueError(f"item ids must be non-negative, got {txn[0]}")
    return txn


class Vocabulary:
    """Bidirectional mapping between item names and canonical item ids.

    Ids are assigned in first-seen order, so encoding the same corpus
    twice yields identical ids. The mapping is intentionally append-only:
    data mined against a vocabulary stays decodable for the lifetime of
    the vocabulary.
    """

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._name_to_id: dict[str, int] = {}
        self._id_to_name: list[str] = []
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        """Return the id for *name*, assigning a fresh one if unseen."""
        item_id = self._name_to_id.get(name)
        if item_id is None:
            item_id = len(self._id_to_name)
            self._name_to_id[name] = item_id
            self._id_to_name.append(name)
        return item_id

    def id_of(self, name: str) -> int:
        """Return the id of *name*; raise ``KeyError`` if unknown."""
        return self._name_to_id[name]

    def name_of(self, item_id: int) -> str:
        """Return the name of *item_id*; raise ``IndexError`` if unknown."""
        return self._id_to_name[item_id]

    def encode(self, names: Iterable[str]) -> Transaction:
        """Translate item names to a canonical transaction, adding new names."""
        return _canonical(self.add(name) for name in names)

    def decode(self, itemset: Iterable[int]) -> tuple[str, ...]:
        """Translate item ids back to names."""
        return tuple(self._id_to_name[item] for item in itemset)

    def __len__(self) -> int:
        return len(self._id_to_name)

    def __contains__(self, name: str) -> bool:
        return name in self._name_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_name)

    def __repr__(self) -> str:
        return f"Vocabulary({len(self)} names)"


class TransactionDatabase:
    """An ordered collection of transactions over ``n_items`` items.

    Order matters: the OSSM segments *contiguous runs* of the collection
    (pages), so a database is a sequence, not a bag. Two databases with
    the same transactions in a different order are equal as mining
    inputs but may segment differently — exactly the phenomenon the
    paper studies.

    A database is immutable after construction, which is what lets
    :meth:`item_supports` cache the flat array of all its items.

    Parameters
    ----------
    transactions:
        Iterable of item iterables. Each is canonicalized to a sorted
        tuple of unique ids.
    n_items:
        Size of the item domain. Defaults to ``max item + 1``. May
        exceed the largest observed item (items with zero support are
        legal and occur in sparse workloads).
    vocabulary:
        Optional :class:`Vocabulary` for decoding results back to names.
    """

    def __init__(
        self,
        transactions: Iterable[Iterable[int]],
        n_items: int | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> None:
        self._transactions: list[Transaction] = [
            _canonical(txn) for txn in transactions
        ]
        observed = max(
            (txn[-1] for txn in self._transactions if txn), default=-1
        )
        if n_items is None:
            n_items = observed + 1
        elif observed >= n_items:
            raise ValueError(
                f"n_items={n_items} but database contains item {observed}"
            )
        self._n_items = int(n_items)
        self.vocabulary = vocabulary
        self._flat: np.ndarray | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_named(
        cls, named_transactions: Iterable[Iterable[str]]
    ) -> "TransactionDatabase":
        """Build a database (and vocabulary) from name-based transactions."""
        vocabulary = Vocabulary()
        encoded = [vocabulary.encode(txn) for txn in named_transactions]
        return cls(encoded, n_items=len(vocabulary), vocabulary=vocabulary)

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._transactions)

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return TransactionDatabase(
                self._transactions[index],
                n_items=self._n_items,
                vocabulary=self.vocabulary,
            )
        return self._transactions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return (
            self._n_items == other._n_items
            and self._transactions == other._transactions
        )

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase({len(self)} transactions, "
            f"{self._n_items} items)"
        )

    # -- basic properties ----------------------------------------------------

    @property
    def n_items(self) -> int:
        """Size of the item domain (``m`` in the paper)."""
        return self._n_items

    @property
    def transactions(self) -> Sequence[Transaction]:
        """Read-only view of the stored transactions."""
        return tuple(self._transactions)

    def average_length(self) -> float:
        """Mean number of items per transaction (0.0 for an empty database)."""
        if not self._transactions:
            return 0.0
        return sum(len(txn) for txn in self._transactions) / len(self)

    def density(self) -> float:
        """Fraction of the ``N × m`` item/transaction matrix that is 1."""
        if not self._transactions or not self._n_items:
            return 0.0
        return self.average_length() / self._n_items

    # -- supports --------------------------------------------------------

    def item_supports(self) -> np.ndarray:
        """Support (absolute count) of every singleton item.

        Returns an ``int64`` vector of length ``n_items``; entry ``x`` is
        the number of transactions containing item ``x``.
        """
        if self._flat is None:
            flat = np.fromiter(
                chain.from_iterable(self._transactions), dtype=np.int64
            )
            flat.setflags(write=False)
            self._flat = flat
        return np.bincount(self._flat, minlength=self._n_items)

    def support(self, itemset: Iterable[int]) -> int:
        """Exact support of *itemset* (number of containing transactions)."""
        target = frozenset(itemset)
        if not target:
            return len(self)
        return sum(1 for txn in self._transactions if target.issubset(txn))

    def supports(self, itemsets: Iterable[Iterable[int]]) -> list[int]:
        """Exact supports for several itemsets in one pass per itemset."""
        return [self.support(itemset) for itemset in itemsets]

    def vertical(self) -> list[np.ndarray]:
        """Tidset representation: for each item, the sorted transaction ids.

        This is the substrate Eclat and the Partition algorithm's local
        phase work on.
        """
        tidlists: list[list[int]] = [[] for _ in range(self._n_items)]
        for tid, txn in enumerate(self._transactions):
            for item in txn:
                tidlists[item].append(tid)
        return [np.asarray(tids, dtype=np.int64) for tids in tidlists]

    def to_matrix(self) -> np.ndarray:
        """Dense boolean ``N × m`` incidence matrix (small databases only)."""
        matrix = np.zeros((len(self), self._n_items), dtype=bool)
        for tid, txn in enumerate(self._transactions):
            matrix[tid, list(txn)] = True
        return matrix

    # -- reordering / splitting ----------------------------------------------

    def reordered(self, order: Sequence[int]) -> "TransactionDatabase":
        """Return a copy with transactions permuted by *order*.

        Theorem 1 allows the collection to be rearranged; this is the
        operation that realizes a rearrangement.
        """
        if sorted(order) != list(range(len(self))):
            raise ValueError("order must be a permutation of range(len(db))")
        return TransactionDatabase(
            (self._transactions[i] for i in order),
            n_items=self._n_items,
            vocabulary=self.vocabulary,
        )

    def split(self, n_parts: int) -> list["TransactionDatabase"]:
        """Split into *n_parts* contiguous, nearly equal-sized databases.

        Used by the Partition algorithm; every transaction lands in
        exactly one part and order is preserved.
        """
        if n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        if n_parts > max(len(self), 1):
            raise ValueError(
                f"cannot split {len(self)} transactions into {n_parts} parts"
            )
        bounds = np.linspace(0, len(self), n_parts + 1).astype(int)
        return [self[int(lo):int(hi)] for lo, hi in zip(bounds, bounds[1:])]

    def concatenated(self, other: "TransactionDatabase") -> "TransactionDatabase":
        """Return a database holding this database's transactions then *other*'s."""
        n_items = max(self._n_items, other._n_items)
        return TransactionDatabase(
            list(self._transactions) + list(other._transactions),
            n_items=n_items,
            vocabulary=self.vocabulary or other.vocabulary,
        )
