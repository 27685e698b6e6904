"""Hash indexes over tables.

The paper's experimental setup gives the fact table a composite index on
``(storeID, itemID, date)`` and every summary table a composite index on its
group-by columns; the refresh function does one index lookup per
summary-delta tuple.  :class:`HashIndex` provides exactly that operation:
map a composite key (a tuple of column values) to the positions of matching
rows.

Indexes are maintained incrementally by :class:`~repro.relational.table.Table`
as rows are inserted and deleted, so a refresh run pays only per-touched-row
index maintenance, as a real RDBMS would.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..errors import TableError
from .stats import charge_access


class HashIndex:
    """A (possibly composite, possibly unique) hash index.

    The index maps key tuples to *row slots* — integer positions into the
    owning table's internal row list.  Deleted slots are tombstoned by the
    table; the index removes slots eagerly so lookups never see dead rows.

    Parameters
    ----------
    columns:
        The indexed column names, in key order.
    positions:
        The tuple positions of those columns in the owning table's schema.
    unique:
        When true, inserting a second row with an existing key raises
        :class:`~repro.errors.TableError`.  Dimension-table primary keys use
        this; fact tables and summary tables do not.
    """

    __slots__ = ("columns", "_positions", "unique", "_buckets", "_owned")

    def __init__(self, columns: Sequence[str], positions: Sequence[int], unique: bool = False):
        if not columns:
            raise TableError("an index must cover at least one column")
        self.columns = tuple(columns)
        self._positions = tuple(positions)
        self.unique = unique
        self._buckets: dict[tuple[Any, ...], list[int]] = {}
        #: ``None`` until the first :meth:`clone`; from then on the keys
        #: whose bucket list this index has copied since, any other bucket
        #: possibly being shared with a twin and so copied before a write.
        self._owned: set[tuple[Any, ...]] | None = None

    def key_of(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Extract this index's key tuple from a full row."""
        positions = self._positions
        return tuple(row[p] for p in positions)

    def add(self, row: Sequence[Any], slot: int) -> None:
        """Register *row* stored at *slot*."""
        self.add_key(self.key_of(row), slot)

    def add_key(self, key: tuple[Any, ...], slot: int) -> None:
        """Register the row with index key *key* stored at *slot*."""
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [slot]
        else:
            if self.unique:
                raise TableError(
                    f"unique index on {self.columns} violated by key {key!r}"
                )
            self._writable(key, bucket).append(slot)

    def remove(self, row: Sequence[Any], slot: int) -> None:
        """Unregister *row* previously stored at *slot*."""
        self.remove_key(self.key_of(row), slot)

    def remove_key(self, key: tuple[Any, ...], slot: int) -> None:
        """Unregister the row with index key *key* stored at *slot*."""
        bucket = self._buckets.get(key)
        if not bucket:
            raise TableError(f"index on {self.columns}: key {key!r} not present")
        bucket = self._writable(key, bucket)
        try:
            bucket.remove(slot)
        except ValueError:
            raise TableError(
                f"index on {self.columns}: slot {slot} not registered for key {key!r}"
            ) from None
        if not bucket:
            del self._buckets[key]

    def keys_of(self, columns: Sequence[Sequence[Any]]) -> list[tuple[Any, ...]]:
        """This index's key tuples for a batch of rows given column-wise
        (what a batch mutator feeds ``add_key``/``remove_key``, in step
        with the rows' slots)."""
        return list(zip(*[columns[p] for p in self._positions]))

    def load(self, keys: Iterable[tuple[Any, ...]], slots: Iterable[int]) -> None:
        """Fill this new index in one pass over a whole table: the rows'
        key tuples, in step with their *slots*.  A unique violation raises
        mid-way, so the table registers the index only once this returns."""
        buckets = self._buckets
        get = buckets.get
        unique = self.unique
        for key, slot in zip(keys, slots):
            bucket = get(key)
            if bucket is None:
                buckets[key] = [slot]
            elif unique:
                raise TableError(
                    f"unique index on {self.columns} violated by key {key!r}"
                )
            else:
                bucket.append(slot)

    def check_addable(self, keys: Iterable[tuple], vacated: Iterable[tuple] = ()) -> None:
        """Raise, with nothing changed, if adding *keys* would break
        uniqueness — among themselves, or against the entries present
        other than the *vacated* ones (removed before *keys* are added)."""
        if self.unique:
            freed = set(vacated)
            seen: set[tuple[Any, ...]] = set()
            for key in keys:
                if (key in self._buckets and key not in freed) or key in seen:
                    raise TableError(
                        f"unique index on {self.columns} violated by key {key!r}"
                    )
                seen.add(key)

    def _writable(self, key: tuple[Any, ...], bucket: list[int]) -> list[int]:
        """*bucket* if this index alone holds it, else a private copy
        installed in its place."""
        owned = self._owned
        if owned is not None and key not in owned:
            bucket = self._buckets[key] = bucket.copy()
            owned.add(key)
        return bucket

    def lookup(self, key: tuple[Any, ...]) -> list[int]:
        """Return the row slots whose key equals *key* (empty when absent)."""
        charge_access("index_lookups", 1)
        return self._buckets.get(key, [])

    def lookup_many(self, keys: Iterable[tuple[Any, ...]]) -> list[list[int]]:
        """The non-empty buckets among *keys*, in order; charged as one
        lookup per key, once for the batch."""
        found = list(map(self._buckets.get, keys))
        charge_access("index_lookups", len(found))
        return list(filter(None, found))

    def lookup_one(self, key: tuple[Any, ...]) -> int | None:
        """Return the single slot for *key*, or ``None`` when absent.

        Raises :class:`~repro.errors.TableError` when more than one row
        matches — callers use this for keys they expect to be unique (e.g.
        a summary table's group-by columns).
        """
        charge_access("index_lookups", 1)
        bucket = self._buckets.get(key)
        if bucket is None:
            return None
        if len(bucket) > 1:
            raise TableError(
                f"index on {self.columns}: key {key!r} matches {len(bucket)} rows, "
                "expected at most one"
            )
        return bucket[0]

    def keys(self) -> Iterable[tuple[Any, ...]]:
        """Iterate over the distinct keys currently present."""
        return self._buckets.keys()

    def __len__(self) -> int:
        """The number of distinct keys."""
        return len(self._buckets)

    def clone(self) -> "HashIndex":
        """A private copy with the same entries, in one ``dict.copy()``:
        the bucket lists are shared, and whichever side writes to one
        first copies it (lookups hand out buckets read-only already)."""
        twin = HashIndex(self.columns, self._positions, unique=self.unique)
        twin._buckets = self._buckets.copy()
        twin._owned = set()
        self._owned = set()
        return twin

    def clear(self) -> None:
        """Drop all entries (used when a table is truncated or rebuilt)."""
        self._buckets.clear()
        self._owned = None
