"""Hash indexes over tables.

The paper's experimental setup gives the fact table a composite index on
``(storeID, itemID, date)`` and every summary table a composite index on its
group-by columns; the refresh function does one index lookup per
summary-delta tuple.  :class:`HashIndex` provides exactly that operation:
map a composite key (a tuple of column values) to the positions of matching
rows.

Indexes are maintained incrementally by :class:`~repro.relational.table.Table`
as rows are inserted and deleted, so a refresh run pays only per-touched-row
index maintenance, as a real RDBMS would; a batch of rows rewrites each
bucket it touches once (:meth:`HashIndex.add_keys`,
:meth:`HashIndex.remove_keys`).

No entry is an object the cyclic garbage collector tracks: a slot is an
``int`` and a bucket of slots is an immutable ``bytes`` value.  The
collector's full passes are proportional to the containers it tracks, and
a 500k-row fact table has some 316k keys (EXPERIMENTS.md, "The fact
index without a Python object per key").
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import compress, repeat
from operator import add, eq, not_
from struct import Struct
from typing import Any, Iterable, Sequence

from ..errors import TableError
from .stats import charge_access

#: One slot as a bucket holds it: a native signed 64-bit integer, the
#: item of ``array('q')``, so a bucket converts to and from an array at
#: C level.
_SLOT = Struct("q")
_pack = _SLOT.pack

#: Past this many bytes (64 slots) :func:`_group` stops re-concatenating
#: a key's run per row and spills the key's further slots to one join at
#: the end, and :meth:`HashIndex.remove_keys` filters a bucket once
#: instead of cutting slots out of it one by one, so a hot key costs
#: linear time.
_SPILL_BYTES = 64 * _SLOT.size


class _Buckets(dict):
    """A non-unique index's key → bucket map.

    A subclass only so that it is not an exact ``dict``: the collector
    untracks an exact dict whose keys and values are all untracked, and
    re-tracks it as a *young* object as soon as a fresh key tuple goes
    in, after which every young pass walks all of its entries.  A
    subclass stays tracked and ages into the oldest generation like any
    other long-lived object, out of the young passes."""

    __slots__ = ()


def _slots(bucket: bytes) -> list[int]:
    return array("q", bucket).tolist()


def _group(runs: dict, keys: Iterable[tuple[Any, ...]],
           slots: Iterable[int]) -> dict:
    """File *slots* into *runs* under their *keys*, in step: each key's
    run is its slots packed as a bucket is, in order.  A run grows by
    concatenation up to ``_SPILL_BYTES``; a key's slots past that are
    joined onto it once, at the end.  One pass, and nothing the collector
    tracks per key (an ``array`` is tracked, so it is not used)."""
    get = runs.get
    spill: dict[tuple[Any, ...], list[bytes]] = {}
    for key, packed in zip(keys, map(_pack, slots)):
        run = get(key)
        if run is None:
            runs[key] = packed
        elif len(run) < _SPILL_BYTES:
            runs[key] = run + packed
        else:
            more = spill.get(key)
            if more is None:
                spill[key] = [packed]
            else:
                more.append(packed)
    for key, more in spill.items():
        runs[key] += b"".join(more)
    return runs


class HashIndex:
    """A (possibly composite, possibly unique) hash index.

    The index maps key tuples to *row slots* — integer positions into the
    owning table's internal row list.  Deleted slots are tombstoned by the
    table; the index removes slots eagerly so lookups never see dead rows.

    There is one representation per ``unique`` value, and neither holds a
    container for the cyclic collector.  A unique index maps each key to
    its one slot, a bare ``int``: a summary table's group-key index holds
    one entry per group.  Any other index maps each key to a *bucket*: one
    immutable ``bytes`` value, the key's slots packed as native ``'q'`` in
    the order they were added.  A write replaces a bucket rather than
    changing it, so a :meth:`clone` shares every bucket with its twin.
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

    __slots__ = ("columns", "_positions", "unique", "_entries")

    def __init__(self, columns: Sequence[str], positions: Sequence[int], unique: bool = False):
        if not columns:
            raise TableError("an index must cover at least one column")
        self.columns = tuple(columns)
        self._positions = tuple(positions)
        self.unique = unique
        #: key → slot when unique, key → bucket otherwise.
        self._entries: dict[tuple[Any, ...], Any] = {} if unique else _Buckets()

    def key_of(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Extract this index's key tuple from a full row."""
        positions = self._positions
        return tuple(row[p] for p in positions)

    def _violation(self, key: tuple[Any, ...]) -> TableError:
        return TableError(
            f"unique index on {self.columns} violated by key {key!r}"
        )

    def _absent(self, key: tuple[Any, ...]) -> TableError:
        return TableError(f"index on {self.columns}: key {key!r} not present")

    def _unregistered(self, key: tuple[Any, ...], slot: int) -> TableError:
        return TableError(
            f"index on {self.columns}: slot {slot} not registered for key {key!r}"
        )

    def add(self, row: Sequence[Any], slot: int) -> None:
        """Register *row* stored at *slot*."""
        self.add_key(self.key_of(row), slot)

    def add_key(self, key: tuple[Any, ...], slot: int) -> None:
        """Register the row with index key *key* stored at *slot*."""
        self.add_keys((key,), (slot,))

    def add_keys(self, keys: Sequence[tuple[Any, ...]], slots: Sequence[int]) -> None:
        """Register a batch of rows: their index *keys*, in step with the
        distinct *slots* they are stored at.  Each bucket the batch touches
        is rewritten once, the batch's slots for it appended in order.  A
        unique violation raises with the index unchanged."""
        entries = self._entries
        if self.unique:
            before = len(entries)
            if not entries.keys().isdisjoint(keys):
                raise self._violation(next(key for key in keys if key in entries))
            entries.update(zip(keys, slots))
            if len(entries) != before + len(keys):
                deque(map(entries.pop, keys, repeat(None)), 0)
                seen: set[tuple[Any, ...]] = set()
                raise self._violation(
                    next(key for key in keys if key in seen or seen.add(key))
                )
            return
        if len(set(keys)) == len(keys):
            packed: Iterable[bytes] = map(_pack, slots)
        else:
            runs = _group({}, keys, slots)
            keys, packed = runs.keys(), runs.values()
        entries.update(zip(
            keys, map(add, map(entries.get, keys, repeat(b"")), packed)
        ))

    def remove(self, row: Sequence[Any], slot: int) -> None:
        """Unregister *row* previously stored at *slot*."""
        self.remove_key(self.key_of(row), slot)

    def remove_key(self, key: tuple[Any, ...], slot: int) -> None:
        """Unregister the row with index key *key* stored at *slot*."""
        self.remove_keys((key,), (slot,))

    def remove_keys(self, keys: Sequence[tuple[Any, ...]], slots: Sequence[int]) -> None:
        """Unregister a batch of rows: their index *keys*, in step with the
        distinct *slots* they were stored at.  Everything is checked
        before anything changes: a key not present, or a slot not filed
        under its key, raises with the index unchanged.  Keys whose bucket
        is exactly the one slot removed leave in one C-level pass; from
        every other touched bucket of up to ``_SPILL_BYTES`` each slot is
        cut out where ``bytes.find`` meets it at a slot boundary, and a
        longer bucket is filtered once."""
        entries = self._entries
        found = list(map(entries.get, keys))
        if None in found:
            raise self._absent(next(compress(keys, map(eq, found, repeat(None)))))
        if self.unique:
            if found != list(slots):
                key, slot = next(pair for pair, held in zip(zip(keys, slots), found)
                                 if pair[1] != held)
                raise self._unregistered(key, slot)
            deque(map(entries.__delitem__, keys), 0)
            return
        whole = list(map(eq, found, map(_pack, slots)))
        rest = list(map(not_, whole))
        size = _SLOT.size
        rewritten: dict[tuple[Any, ...], bytes] = {}
        spilled: dict[tuple[Any, ...], set[int]] = {}
        for key, slot in zip(compress(keys, rest), compress(slots, rest)):
            bucket = rewritten.get(key)
            if bucket is None:
                bucket = entries[key]
                if len(bucket) > _SPILL_BYTES:
                    # Cutting slots out one by one would copy a long bucket
                    # once a slot: it is filtered once instead, below.
                    gone = spilled.get(key)
                    if gone is None:
                        spilled[key] = {slot}
                    else:
                        gone.add(slot)
                    continue
            packed = _pack(slot)
            at = bucket.find(packed)
            while at > 0 and at % size:     # a match across two slots
                at = bucket.find(packed, at + 1)
            if at < 0:
                raise self._unregistered(key, slot)
            rewritten[key] = bucket[:at] + bucket[at + size:]
        for key, gone in spilled.items():
            held = _slots(entries[key])
            kept = [slot for slot in held if slot not in gone]
            if len(kept) != len(held) - len(gone):
                raise self._unregistered(key, min(gone.difference(held)))
            rewritten[key] = array("q", kept).tobytes()
        deque(map(entries.__delitem__, compress(keys, whole)), 0)
        for key, bucket in rewritten.items():
            if bucket:
                entries[key] = bucket
            else:
                del entries[key]

    def keys_of(self, columns: Sequence[Sequence[Any]]) -> list[tuple[Any, ...]]:
        """This index's key tuples for a batch of rows given column-wise
        (what a batch mutator feeds ``add_keys``/``remove_keys``, in step
        with the rows' slots)."""
        return list(zip(*[columns[p] for p in self._positions]))

    def load(self, keys: Iterable[tuple[Any, ...]], slots: Iterable[int]) -> None:
        """Fill this new index in one pass over a whole table: the rows'
        key tuples, in step with their *slots*.  A unique violation raises
        mid-way, so the table registers the index only once this returns.
        A non-unique index's buckets are built by one :func:`_group`."""
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
        _group(entries, keys, slots)

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

    def slots_of(self, key: tuple[Any, ...]) -> list[int]:
        """The row slots filed under *key*, in the order they were added
        (empty when absent); uncharged."""
        found = self._entries.get(key)
        if found is None:
            return []
        return [found] if self.unique else _slots(found)

    def lookup(self, key: tuple[Any, ...]) -> list[int]:
        """Return the row slots whose key equals *key* (empty when absent)."""
        charge_access("index_lookups", 1)
        return self.slots_of(key)

    def lookup_many(self, keys: Iterable[tuple[Any, ...]]) -> list[int]:
        """The slots filed under any of *keys*, key by key in order, as one
        flat list; charged as one lookup per key, once for the batch.  A
        non-unique index's buckets are flattened by one ``bytes.join``."""
        found = list(map(self._entries.get, keys))
        charge_access("index_lookups", len(found))
        if self.unique:
            return [slot for slot in found if slot is not None]
        return _slots(b"".join(filter(None, found)))

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
        if len(bucket) > _SLOT.size:
            raise TableError(
                f"index on {self.columns}: key {key!r} matches "
                f"{len(bucket) // _SLOT.size} rows, expected at most one"
            )
        return _SLOT.unpack(bucket)[0]

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
        """A private copy with the same entries, in one C-level dict copy.
        Neither a slot nor a bucket can change in place, so the twins
        share them and each replaces what it writes.  A unique index's
        map is copied by ``dict.copy()``, which clones the hash table
        even after deletions; building a dict from it (what the
        ``_Buckets`` copy does) re-hashes every key tuple, 2.5x slower at
        310k keys."""
        twin = HashIndex(self.columns, self._positions, unique=self.unique)
        entries = self._entries
        twin._entries = entries.copy() if self.unique else _Buckets(entries)
        return twin

    def clear(self) -> None:
        """Drop all entries (used when a table is truncated or rebuilt)."""
        self._entries.clear()
