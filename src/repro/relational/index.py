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

from itertools import chain
from typing import Any, Iterable, Sequence

from ..errors import TableError
from .stats import charge_access


class HashIndex:
    """A (possibly composite, possibly unique) hash index.

    The index maps key tuples to *row slots* — integer positions into the
    owning table's internal row list.  Deleted slots are tombstoned by the
    table; the index removes slots eagerly so lookups never see dead rows.

    There is one representation per ``unique`` value.  A unique index maps
    each key to its one slot, a bare ``int``: a summary table's group-key
    index holds one entry per group, and a container per entry would be
    one garbage-collected object per group for nothing.  Any other index
    maps each key to a list of slots, in the order they were added.
    Callers read either through :meth:`slots_of` and the lookups.

    Parameters
    ----------
    columns:
        The indexed column names, in key order.
    positions:
        The tuple positions of those columns in the owning table's schema.
    unique:
        When true, inserting a second row with an existing key raises
        :class:`~repro.errors.TableError`.  Dimension-table primary keys and
        summary tables' group-by columns use this; fact tables do not.
    """

    __slots__ = ("columns", "_positions", "unique", "_entries", "_owned")

    def __init__(self, columns: Sequence[str], positions: Sequence[int], unique: bool = False):
        if not columns:
            raise TableError("an index must cover at least one column")
        self.columns = tuple(columns)
        self._positions = tuple(positions)
        self.unique = unique
        #: key → slot when unique, key → list of slots otherwise.
        self._entries: dict[tuple[Any, ...], Any] = {}
        #: Non-unique only: ``None`` until the first :meth:`clone`; from
        #: then on the keys whose bucket list this index has copied since,
        #: any other bucket possibly being shared with a twin and so copied
        #: before a write.
        self._owned: set[tuple[Any, ...]] | None = None

    def key_of(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Extract this index's key tuple from a full row."""
        positions = self._positions
        return tuple(row[p] for p in positions)

    def _violation(self, key: tuple[Any, ...]) -> TableError:
        return TableError(
            f"unique index on {self.columns} violated by key {key!r}"
        )

    def add(self, row: Sequence[Any], slot: int) -> None:
        """Register *row* stored at *slot*."""
        self.add_key(self.key_of(row), slot)

    def add_key(self, key: tuple[Any, ...], slot: int) -> None:
        """Register the row with index key *key* stored at *slot*."""
        entries = self._entries
        if self.unique:
            if key in entries:
                raise self._violation(key)
            entries[key] = slot
            return
        bucket = entries.get(key)
        if bucket is None:
            entries[key] = [slot]
        else:
            self._writable(key, bucket).append(slot)

    def remove(self, row: Sequence[Any], slot: int) -> None:
        """Unregister *row* previously stored at *slot*."""
        self.remove_key(self.key_of(row), slot)

    def remove_key(self, key: tuple[Any, ...], slot: int) -> None:
        """Unregister the row with index key *key* stored at *slot*."""
        entries = self._entries
        found = entries.get(key)
        if found is None:
            raise TableError(f"index on {self.columns}: key {key!r} not present")
        if self.unique:
            if found != slot:
                raise self._unregistered(key, slot)
            del entries[key]
            return
        bucket = self._writable(key, found)
        try:
            bucket.remove(slot)
        except ValueError:
            raise self._unregistered(key, slot) from None
        if not bucket:
            del entries[key]

    def _unregistered(self, key: tuple[Any, ...], slot: int) -> TableError:
        return TableError(
            f"index on {self.columns}: slot {slot} not registered for key {key!r}"
        )

    def keys_of(self, columns: Sequence[Sequence[Any]]) -> list[tuple[Any, ...]]:
        """This index's key tuples for a batch of rows given column-wise
        (what a batch mutator feeds ``add_key``/``remove_key``, in step
        with the rows' slots)."""
        return list(zip(*[columns[p] for p in self._positions]))

    def load(self, keys: Iterable[tuple[Any, ...]], slots: Iterable[int]) -> None:
        """Fill this new index in one pass over a whole table: the rows'
        key tuples, in step with their *slots*.  A unique violation raises
        mid-way, so the table registers the index only once this returns."""
        entries = self._entries
        if self.unique:
            keys = keys if isinstance(keys, list) else list(keys)
            expected = len(entries) + len(keys)
            entries.update(zip(keys, slots))
            if len(entries) != expected:
                seen: set[tuple[Any, ...]] = set()
                for key in keys:
                    if key in seen:
                        raise self._violation(key)
                    seen.add(key)
            return
        get = entries.get
        for key, slot in zip(keys, slots):
            bucket = get(key)
            if bucket is None:
                entries[key] = [slot]
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
                if (key in self._entries and key not in freed) or key in seen:
                    raise self._violation(key)
                seen.add(key)

    def _writable(self, key: tuple[Any, ...], bucket: list[int]) -> list[int]:
        """*bucket* if this index alone holds it, else a private copy
        installed in its place."""
        owned = self._owned
        if owned is not None and key not in owned:
            bucket = self._entries[key] = bucket.copy()
            owned.add(key)
        return bucket

    def slots_of(self, key: tuple[Any, ...]) -> list[int]:
        """The row slots filed under *key*, in the order they were added
        (empty when absent); uncharged, and read-only."""
        found = self._entries.get(key)
        if found is None:
            return []
        return [found] if self.unique else found

    def lookup(self, key: tuple[Any, ...]) -> list[int]:
        """Return the row slots whose key equals *key* (empty when absent)."""
        charge_access("index_lookups", 1)
        return self.slots_of(key)

    def lookup_many(self, keys: Iterable[tuple[Any, ...]]) -> list[int]:
        """The slots filed under any of *keys*, key by key in order, as one
        flat list; charged as one lookup per key, once for the batch."""
        found = list(map(self._entries.get, keys))
        charge_access("index_lookups", len(found))
        if self.unique:
            return [slot for slot in found if slot is not None]
        return list(chain.from_iterable(filter(None, found)))

    def probe_any(self, keys: Iterable[tuple[Any, ...]]) -> tuple[bool, int]:
        """Probe *keys* in order up to the first that has an entry: whether
        one did, and how many keys were probed, each charged as one
        lookup.  Dead slots leave the index eagerly, so an entry stands for
        a live row."""
        entries = self._entries
        probed = 0
        hit = False
        for key in keys:
            probed += 1
            if key in entries:
                hit = True
                break
        charge_access("index_lookups", probed)
        return hit, probed

    def lookup_one(self, key: tuple[Any, ...]) -> int | None:
        """Return the single slot for *key*, or ``None`` when absent.

        Raises :class:`~repro.errors.TableError` when more than one row
        matches — callers use this for keys they expect to be unique (e.g.
        a summary table's group-by columns).
        """
        return self.lookup_each((key,))[0]

    def lookup_each(self, keys: Iterable[tuple[Any, ...]]) -> list[int | None]:
        """:meth:`lookup_one` for each of *keys*, in order: one C-level
        pass over a unique index, charged as one lookup per key, once for
        the batch."""
        found = list(map(self._entries.get if self.unique else self._only, keys))
        charge_access("index_lookups", len(found))
        return found

    def _only(self, key: tuple[Any, ...]) -> int | None:
        bucket = self._entries.get(key)
        if bucket is None:
            return None
        if len(bucket) > 1:
            raise TableError(
                f"index on {self.columns}: key {key!r} matches {len(bucket)} "
                "rows, expected at most one"
            )
        return bucket[0]

    def holds(self, columns: Sequence[Sequence[Any]], slots: Sequence[int]) -> bool:
        """Whether each row of a batch given column-wise is filed under
        its key at the slot in step with it in *slots* (uncharged): for a
        unique index, one C-level pass."""
        keys = zip(*[columns[p] for p in self._positions])
        if self.unique:
            return list(map(self._entries.get, keys)) == list(slots)
        return all(slot in self.slots_of(key) for key, slot in zip(keys, slots))

    def keys(self) -> Iterable[tuple[Any, ...]]:
        """Iterate over the distinct keys currently present."""
        return self._entries.keys()

    def __len__(self) -> int:
        """The number of distinct keys."""
        return len(self._entries)

    def clone(self) -> "HashIndex":
        """A private copy with the same entries, in one ``dict.copy()``.
        A unique index's entries are bare slots, so that is all; any other
        index shares its bucket lists with the twin, and whichever side
        writes to one first copies it (lookups hand out buckets read-only
        already)."""
        twin = HashIndex(self.columns, self._positions, unique=self.unique)
        twin._entries = self._entries.copy()
        if not self.unique:
            twin._owned = set()
            self._owned = set()
        return twin

    def clear(self) -> None:
        """Drop all entries (used when a table is truncated or rebuilt)."""
        self._entries.clear()
        self._owned = None
