"""Bag-semantics tables over one columnar storage backing.

A :class:`Table` stores rows in insertion order, permits duplicates (the
paper's ``pos`` fact table is explicitly a bag), and keeps any number of
:class:`~repro.relational.index.HashIndex` structures in sync as rows are
inserted, updated in place, or deleted.

Every table is backed by a :class:`ColumnStore`: one sequence per column
plus a validity bitmap, with ``append_batch`` / ``take`` / ``gather`` bulk
primitives.  Numeric columns are opportunistically promoted to typed
:mod:`array` storage.  The row API (``scan``/``rows``/``row_at``/``insert``
…) is a view over the columns; batch-aware callers use
:meth:`Table.append_batch` and :meth:`Table.columns` to skip per-row tuple
construction entirely.

Deletions tombstone the row's slot rather than compacting, so slots held by
indexes stay valid; freed slots are recycled by later insertions.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter, deque
from itertools import compress
from operator import itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

from ..errors import TableError
from .index import HashIndex
from .schema import Schema
from .stats import charge_access

Row = tuple[Any, ...]

#: How many leading values are type-probed before attempting typed-array
#: promotion of a column batch.  The :mod:`array` conversion then verifies
#: the rest at C speed (raising ``TypeError``/``OverflowError`` on values
#: that do not fit, which demotes the column back to a plain list).
_PROMOTE_PROBE = 16

#: Row batches at least this long are transposed one column at a time.
#: ``zip(*rows)`` is a call with one argument per row, and past a few
#: thousand rows its cost per row climbs (the argument tuple and one
#: iterator per row fall out of cache), while one ``map(itemgetter(i),
#: rows)`` per column stays linear.  Measured (EXPERIMENTS.md "PR 15"):
#: at 16,384 rows the per-column form is 1.2x (arity 8) to 2.6x (arity 2)
#: faster and at 500,000 x 5 it is 3.1x; below 4,096 rows the star call
#: wins at arity 5 and up, by at most 1.5x (under 0.1 ms a call).  The
#: star call also holds one tracked iterator per row for its duration: a
#: few thousand of them outlive two young collections and count toward
#: CPython's trigger for a full one, which is 30 ms over a heap with no
#: container per index key (one such pass per ``bulk-coarse`` cycle was
#: traced to this), so the star call is kept to batches that cannot
#: set off more than one young collection.
_TRANSPOSE_BY_COLUMN_ROWS = 1_024


def _tally(counts: dict[Any, int], values: Iterable[Any], sign: int = 1) -> None:
    """Add (*sign* 1) or drop (*sign* −1) one occurrence of each of
    *values* in a tracked domain: one ``Counter`` of the batch, then one
    update per distinct value; a value whose count reaches 0 leaves."""
    for value, n in Counter(values).items():
        remaining = counts.get(value, 0) + sign * n
        if remaining > 0:
            counts[value] = remaining
        else:
            counts.pop(value, None)


def transpose_rows(rows: Collection[Sequence[Any]], arity: int) -> list[Sequence[Any]]:
    """The *arity* columns of *rows* (sized and re-iterable: a list, or a
    dict's keys or values), each a tuple or a list."""
    if len(rows) < _TRANSPOSE_BY_COLUMN_ROWS:
        return list(zip(*rows))
    return [list(map(itemgetter(i), rows)) for i in range(arity)]


def _gatherer(slots: Sequence[int]) -> Callable[[Sequence[Any]], Sequence[Any]]:
    """One callable that gathers the values at *slots* from any column:
    an ``itemgetter`` over them, a C-level gather with no call per
    value (``itemgetter`` of one slot returns the bare value)."""
    if len(slots) == 1:
        (slot,) = slots
        return lambda col: (col[slot],)
    return itemgetter(*slots) if slots else lambda col: ()


def _typed_column(values: Sequence[Any]) -> Any:
    """Store a fresh column batch, promoted to a typed array when uniform.

    Only uniformly-``int`` columns become ``array('q')`` and uniformly-
    ``float`` columns become ``array('d')``; anything else (nulls, strings,
    mixed types, overflowing ints) stays a plain list.  The probe checks a
    short prefix and lets the C-level conversion reject the rest.
    """
    # Always copy: the store must own its columns.  Callers may pass (and
    # later mutate, or themselves have borrowed) the source sequence —
    # e.g. a projection passing an input table's column straight through.
    vals = list(values)
    if vals:
        head = vals[:_PROMOTE_PROBE]
        if all(type(v) is int for v in head):
            try:
                return array("q", vals)
            except (TypeError, OverflowError):
                return vals
        if all(type(v) is float for v in head):
            try:
                return array("d", vals)
            except TypeError:
                return vals
    return vals


class ColumnStore:
    """Column-major backing: one sequence per column plus a validity bitmap.

    Columns are plain lists by default; a column whose first batch is
    uniformly ``int`` or ``float`` is promoted to a typed ``array.array``
    (``'q'`` / ``'d'``) and transparently demoted back to a list the first
    time a value arrives that does not fit.  The validity bitmap (one byte
    per slot, ``1`` = live) marks tombstones; a tombstoned slot keeps its
    stale column values, so typed arrays never need to represent nulls.

    A :meth:`clone` records, from then on, every slot its write primitives
    touch (:meth:`written_slots`), so that a reader holding the source can
    tell where the two may differ without comparing them.
    """

    __slots__ = ("_arity", "_columns", "_valid", "_dead", "_written")

    def __init__(self, arity: int) -> None:
        self._arity = arity
        self._columns: list[Any] = [[] for _ in range(arity)]
        self._valid = bytearray()
        self._dead = 0
        #: ``None`` unless this store is a :meth:`clone`; then the slots
        #: written since, one ``add``/``update`` per write primitive call.
        self._written: set[int] | None = None

    def size(self) -> int:
        """Slot capacity (live rows plus tombstones)."""
        return len(self._valid)

    def get(self, slot: int) -> Row | None:
        if not self._valid[slot]:
            return None
        return tuple(col[slot] for col in self._columns)

    def append(self, row: Row) -> int:
        slot = len(self._valid)
        if self._written is not None:
            self._written.add(slot)
        columns = self._columns
        for i, value in enumerate(row):
            col = columns[i]
            try:
                col.append(value)
            except (TypeError, OverflowError):
                col = columns[i] = list(col)
                col.append(value)
        self._valid.append(1)
        return slot

    def set(self, slot: int, row: Row | None) -> None:
        valid = self._valid
        if self._written is not None:
            self._written.add(slot)
        if row is None:
            if valid[slot]:
                valid[slot] = 0
                self._dead += 1
            return
        columns = self._columns
        for i, value in enumerate(row):
            col = columns[i]
            try:
                col[slot] = value
            except (TypeError, OverflowError):
                col = columns[i] = list(col)
                col[slot] = value
        if not valid[slot]:
            valid[slot] = 1
            self._dead -= 1

    def clear(self) -> None:
        if self._written is not None:
            self._written.update(range(len(self._valid)))
        self._columns = [[] for _ in range(self._arity)]
        self._valid = bytearray()
        self._dead = 0

    def iter_live(self) -> Iterator[Row]:
        if self._dead:
            return compress(zip(*self._columns), self._valid)
        return zip(*self._columns)

    def enumerate_live(self) -> Iterator[tuple[int, Row]]:
        rows = zip(*self._columns)
        if self._dead:
            for slot, (v, row) in enumerate(zip(self._valid, rows)):
                if v:
                    yield slot, row
        else:
            yield from enumerate(rows)

    def rows(self) -> list[Row]:
        return list(self.iter_live())

    def slot_list(self) -> list[Row | None]:
        out: list[Row | None] = list(zip(*self._columns))
        if self._dead:
            for slot, v in enumerate(self._valid):
                if not v:
                    out[slot] = None
        return out

    def live_slots(self) -> Sequence[int]:
        slots = range(len(self._valid))
        return list(compress(slots, self._valid)) if self._dead else slots

    def column_lists(self, positions: Sequence[int]) -> list[Any]:
        cols = self._columns
        if self._dead:
            valid = self._valid
            return [list(compress(cols[p], valid)) for p in positions]
        return [cols[p] for p in positions]

    def append_batch(self, columns: Sequence[Sequence[Any]], n: int) -> None:
        base = len(self._valid)
        if self._written is not None:
            self._written.update(range(base, base + n))
        cols = self._columns
        for i, values in enumerate(columns):
            col = cols[i]
            if not base and type(values) in (list, array):
                cols[i] = values[:]  # an empty store keeps the batch's type
                continue
            try:
                col.extend(values)
            except (TypeError, OverflowError):
                # array.extend appends element-wise, so a mid-batch failure
                # leaves a partial prefix behind — drop it before demoting.
                del col[base:]
                col = cols[i] = list(col)
                col.extend(values)
        self._valid.extend(b"\x01" * n)

    def adopt(self, columns: Sequence[Any], n: int) -> None:
        """Make *columns*, *n* rows nobody else holds, this empty store's."""
        self._columns = list(columns)
        self._valid = bytearray(b"\x01") * n
        if self._written is not None:
            self._written.update(range(n))

    def write(self, slots: Sequence[int], positions: Sequence[int],
              columns: Sequence[Sequence[Any]]) -> None:
        """Store *columns*, one per position in *positions*, at *slots*;
        the rows' other values and their liveness stay as they are."""
        if self._written is not None:
            self._written.update(slots)
        cols = self._columns
        for position, values in zip(positions, columns):
            col = cols[position]
            try:
                deque(map(col.__setitem__, slots, values), 0)
            except (TypeError, OverflowError):
                col = cols[position] = list(col)
                deque(map(col.__setitem__, slots, values), 0)

    def fill(self, slots: Sequence[int], columns: Sequence[Sequence[Any]]) -> None:
        """Store the rows given column-wise at *slots*, which become live."""
        self.write(slots, range(self._arity), columns)
        valid = self._valid
        for slot in slots:
            self._dead -= 1 - valid[slot]
            valid[slot] = 1

    def kill(self, slots: Sequence[int]) -> None:
        """Tombstone *slots* (live and distinct: the caller checked)."""
        if self._written is not None:
            self._written.update(slots)
        valid = self._valid
        for slot in slots:
            valid[slot] = 0
        self._dead += len(slots)

    def promote_columns(self) -> int:
        """Promote plain-list columns to typed arrays where possible.

        Fresh ``append_batch`` loads promote automatically; a table built
        row-at-a-time (dimension tables, for instance) accumulates plain
        lists even when every value is uniformly ``int`` or ``float``.
        This catches those up after the build.  Returns how many columns
        were promoted; later writes that do not fit demote as usual.
        """
        promoted = 0
        columns = self._columns
        for i, col in enumerate(columns):
            if isinstance(col, list) and col:
                typed = _typed_column(col)
                if isinstance(typed, array):
                    columns[i] = typed
                    promoted += 1
        return promoted

    def clone(self) -> "ColumnStore":
        """A private copy of the storage: one slice (a memcpy) per column
        and for the bitmap, tombstones and column types included, so slot
        *s* of the twin is slot *s* of this store.  The twin starts an
        empty :meth:`written_slots` record: any slot not in it still holds
        what this store held when cloned."""
        twin = ColumnStore(self._arity)
        twin._columns = [col[:] for col in self._columns]
        twin._valid = self._valid[:]
        twin._dead = self._dead
        twin._written = set()
        return twin

    def written_slots(self) -> set[int] | None:
        """The slots written since this store was cloned from another, or
        ``None`` for a store that was not: it may differ from any other
        store everywhere."""
        return self._written

    def live_among(self, slots: Iterable[int]) -> list[int]:
        """Those of *slots* that hold a live row here, ascending; a slot
        past the end (appended by a clone, or truncated away) holds none."""
        valid = self._valid
        ordered = sorted(slots)
        ordered = ordered[:bisect_left(ordered, len(valid))]
        return list(compress(ordered, map(valid.__getitem__, ordered)))

    def compact(self) -> list[tuple[int, int]]:
        """Fill every tombstone with a row from the tail and truncate;
        returns the ``(old slot, new slot)`` moves made, so the owner can
        re-point its indexes.  One ``memchr`` pass over the bitmap plus
        O(tombstones) work; row order changes."""
        if not self._dead:
            return []
        valid = self._valid
        live = len(valid) - self._dead
        holes = []
        hole = valid.find(0, 0, live)
        while hole >= 0:
            holes.append(hole)
            hole = valid.find(0, hole + 1, live)
        tail = [slot for slot in range(live, len(valid)) if valid[slot]]
        moves = list(zip(tail, holes))
        if self._written is not None:
            self._written.update(tail, holes)
        gather = _gatherer(tail)
        for col in self._columns:
            deque(map(col.__setitem__, holes, gather(col)), 0)
            del col[live:]
        self._valid = bytearray(b"\x01") * live
        self._dead = 0
        return moves

    # Bulk primitives -------------------------------------------------

    def take(
        self, slots: Sequence[int], positions: Sequence[int] | None = None
    ) -> list[list[Any]]:
        """Gather the column values at *slots* (assumed live), one output
        list per column, or per column position asked for: one
        :func:`_gatherer` serves every column."""
        columns = self._columns
        if positions is not None:
            columns = [columns[p] for p in positions]
        gather = _gatherer(slots)
        return [list(gather(col)) for col in columns]

    def gather(self, positions: Sequence[int]) -> list[Any]:
        """Live values of the chosen columns, in slot order.

        Alias of :meth:`column_lists` — the name the batch kernels use.
        """
        return self.column_lists(positions)


class Table:
    """An in-memory bag of rows conforming to a :class:`Schema`.

    Parameters
    ----------
    name:
        Table name, used in error messages and SQL rendering.
    schema:
        The table's schema, or an iterable of column names.
    rows:
        Optional initial rows.
    """

    def __init__(
        self,
        name: str,
        schema: Schema | Iterable[str],
        rows: Iterable[Sequence[Any]] = (),
    ):
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._store = ColumnStore(len(self.schema))
        self._free_slots: list[int] = []
        self._live_count = 0
        self._indexes: dict[tuple[str, ...], HashIndex] = {}
        self._domains: dict[int, dict[Any, int]] = {}
        self._observers: list[Any] = []
        self.insert_many(rows)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """The number of live rows."""
        return self._live_count

    def __iter__(self) -> Iterator[Row]:
        return self.scan()

    @property
    def _rows(self) -> list[Row | None]:
        """Slot-ordered view of the storage (``None`` marks a tombstone).

        Kept for introspection and tests; internal code goes through the
        storage API.  This materialises tuples — treat the result as
        read-only.
        """
        return self._store.slot_list()

    def scan(self) -> Iterator[Row]:
        """Iterate over live rows in slot order.

        Access accounting is charged up front — one increment of the live
        row count per scan, not one per row — so the hot loop is free of
        stats branches.  (Scans in this engine are consumed to exhaustion;
        an abandoned scan therefore still counts all live rows.)
        """
        charge_access("rows_scanned", self._live_count)
        yield from self._store.iter_live()

    def rows(self) -> list[Row]:
        """Materialise the live rows as a list."""
        return self._store.rows()

    def slots(self) -> Iterator[tuple[int, Row]]:
        """Iterate ``(slot, row)`` pairs for live rows in slot order.

        The public replacement for poking the storage internals; does not
        charge access stats (bulk callers charge what they consume).
        """
        return self._store.enumerate_live()

    def row_at(self, slot: int) -> Row:
        """Return the live row stored at *slot*."""
        row = self._store.get(slot)
        if row is None:
            raise TableError(f"table {self.name!r}: slot {slot} is empty")
        return row

    def columns(self, names: Sequence[str] | None = None) -> list[Any]:
        """Live column values in slot order, one sequence per column.

        The batch-scan primitive: kernels consume these directly instead of
        materialising row tuples.  May return internal storage references —
        treat the result as a read-only snapshot, valid until the table's
        next mutation.  Does not charge access stats (callers charge the
        scan themselves, mirroring :meth:`rows`).
        """
        if names is None:
            positions: Sequence[int] = range(len(self.schema))
        else:
            positions = self.schema.positions(names)
        return self._store.column_lists(positions)

    def promote_columns(self) -> int:
        """Promote uniformly-typed plain-list columns to typed arrays.

        The row-at-a-time counterpart to ``append_batch``'s automatic
        promotion: call it once after an incremental build (dimension
        tables are built row by row) to get typed-array storage for the
        numeric columns.  Returns how many columns were promoted.
        """
        return self._store.promote_columns()

    def take(
        self, slots: Sequence[int], names: Sequence[str] | None = None
    ) -> list[list[Any]]:
        """Column-wise gather of the rows stored at *slots*: one output
        list per column, or per column in *names*.

        Every slot must be live; a tombstoned slot, or one outside the
        storage, raises.  Does not charge access stats (callers charge
        what they consume), matching :meth:`columns`.
        """
        positions = None if names is None else self.schema.positions(names)
        self._check_live(slots)
        return self._store.take(slots, positions)

    def _check_live(self, slots: Sequence[int]) -> None:
        """Raise unless every one of *slots* holds a live row."""
        valid = self._store._valid  # noqa: SLF001 — liveness check
        if slots and not 0 <= min(slots) <= max(slots) < len(valid):
            raise TableError(
                f"table {self.name!r}: a slot lies outside 0..{len(valid) - 1}"
            )
        if not all(map(valid.__getitem__, slots)):
            dead = next(slot for slot in slots if not valid[slot])
            raise TableError(f"table {self.name!r}: slot {dead} is empty")

    def written_slots(self) -> set[int] | None:
        """The slots this table's storage has written since :meth:`copy`
        cloned it from another table's — the only places its rows can
        differ from that table's as it was — or ``None`` when the storage
        is no clone (a table built from rows).
        Recorded by the store's own write primitives, below the indexes
        and observers, so it needs nothing from them to be complete."""
        return self._store.written_slots()

    def live_slots(self) -> Sequence[int]:
        """The slots holding a live row, ascending."""
        return self._store.live_slots()

    def live_among(self, slots: Iterable[int]) -> list[int]:
        """Those of *slots* that hold a live row here, ascending; a slot
        that is tombstoned or past the end holds none."""
        return self._store.live_among(slots)

    def take_live(self, slots: Iterable[int]) -> tuple[list[int], list[list[Any]]]:
        """The live rows among *slots* of this table, as (their
        slots, ascending; their columns).  Unlike :meth:`take`, a slot
        that is tombstoned or past the end simply holds no row: this is
        how a table is read at the slots it wrote.  Uncharged."""
        live = self._store.live_among(slots)
        return live, self._store.take(live)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, {list(self.schema.columns)})"

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _check_arity(self, row: Sequence[Any]) -> Row:
        if len(row) != len(self.schema):
            raise TableError(
                f"table {self.name!r}: row arity {len(row)} does not match "
                f"schema arity {len(self.schema)}"
            )
        return tuple(row)

    def insert(self, row: Sequence[Any]) -> int:
        """Insert one row; return the slot it was stored at.  A unique key
        already present raises with nothing written."""
        stored = self._check_arity(row)
        keyed = [(index, index.key_of(stored)) for index in self._indexes.values()]
        for index, key in keyed:
            index.check_addable((key,))
        if self._free_slots:
            slot = self._free_slots.pop()
            self._store.set(slot, stored)
        else:
            slot = self._store.append(stored)
        for index, key in keyed:
            index.add_key(key, slot)
        for position, counts in self._domains.items():
            _tally(counts, (stored[position],))
        self._live_count += 1
        self._notify("inserted", [slot], [(value,) for value in stored])
        charge_access("rows_inserted", 1)
        return slot

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert many rows; return how many were inserted.

        The whole batch is validated before storage is touched, so a bad
        row leaves the table exactly as it was; access accounting is
        charged once for the batch.
        """
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        if set(map(len, rows)) - {len(self.schema)}:
            list(map(self._check_arity, rows))  # raises at the first bad row
        if rows:
            self._insert_columns(
                transpose_rows(rows, len(self.schema)), len(rows)
            )
        charge_access("rows_inserted", len(rows))
        return len(rows)

    def _batch_length(self, columns: Sequence[Sequence[Any]]) -> int:
        """Rows in a column-wise batch, checked against the schema."""
        lengths = set(map(len, columns))
        if len(columns) != len(self.schema) or len(lengths) != 1:
            raise TableError(
                f"table {self.name!r}: ragged column batch (lengths "
                f"{sorted(lengths)}) or not {len(self.schema)} columns"
            )
        return lengths.pop()

    def append_batch(self, columns: Sequence[Sequence[Any]]) -> int:
        """Insert a batch given column-wise; return how many rows.

        :meth:`insert_many` without the transposition: the batch lands as C-level column extends (the sequences
        are copied, never kept), and the first batch of an empty table is
        then promoted to typed arrays where uniform.
        """
        n = self._batch_length(columns)
        if n:
            fresh = not self._store.size()
            self._insert_columns(columns, n)
            if fresh:
                self.promote_columns()
        charge_access("rows_inserted", n)
        return n

    def adopt_batch(self, columns: Sequence[Any]) -> int:
        """:meth:`append_batch` for columns an operator built itself: an
        empty table takes lists and typed arrays over as its
        storage — no copy, no type probe — so the caller holds no other
        reference to them (it passes a slice of a column it borrowed; a
        wholly borrowed batch goes to :meth:`append_batch`, which copies)."""
        n = self._batch_length(columns)
        store = self._store
        if not (n and not store.size()
                and not (self._indexes or self._domains or self._observers)
                and all(type(col) in (list, array) for col in columns)):
            return self.append_batch(columns)
        store.adopt(columns, n)
        self._live_count = n
        charge_access("rows_inserted", n)
        return n

    def _insert_columns(self, columns: Sequence[Sequence[Any]], n: int) -> None:
        """The insert kernel, with no access accounting: unique keys checked
        before anything is written, free slots refilled (most recently
        freed first, as single inserts do), the rest appended in one batch;
        then one bucket rewrite per touched index key
        (:meth:`HashIndex.add_keys`), one ``Counter`` per tracked domain,
        one observer call."""
        store = self._store
        keyed = [(index, index.keys_of(columns)) for index in self._indexes.values()]
        for index, keys in keyed:
            index.check_addable(keys)
        free = self._free_slots
        reuse = min(n, len(free))
        reused: list[int] = []
        if reuse:
            reused = free[-reuse:][::-1]
            del free[-reuse:]
            store.fill(reused, [col[:reuse] for col in columns])
        base = store.size()
        if n > reuse:
            rest = [col[reuse:] for col in columns] if reuse else columns
            store.append_batch(rest, n - reuse)
        slots = reused + list(range(base, base + n - reuse)) \
            if keyed or self._observers else []
        for index, keys in keyed:
            index.add_keys(keys, slots)
        for position, counts in self._domains.items():
            _tally(counts, columns[position])
        self._live_count += n
        self._notify("inserted", slots, columns)

    def _notify(self, event: str, slots: Sequence[int],
                columns: Sequence[Sequence[Any]]) -> None:
        """One ``rows_<event>(slots, columns)`` call per observer: the
        slots a mutation wrote, and the rows it inserted or deleted there
        or left there by an update, column-wise."""
        for observer in self._observers:
            getattr(observer, "rows_" + event)(slots, columns)

    def delete_slot(self, slot: int) -> Row:
        """Delete the row at *slot*; return the removed row."""
        row = self.row_at(slot)
        for index in self._indexes.values():
            index.remove(row, slot)
        self._store.set(slot, None)
        self._free_slots.append(slot)
        for position, counts in self._domains.items():
            _tally(counts, (row[position],), -1)
        self._live_count -= 1
        self._notify("deleted", [slot], [(value,) for value in row])
        charge_access("rows_deleted", 1)
        return row

    def delete_slots(self, slots: Sequence[int]) -> int:
        """Delete many slots as one batch (one gather of the doomed rows, one
        bucket rewrite per touched index key, one ``Counter`` per tracked
        domain, one observer call); an empty or repeated slot raises with
        nothing deleted."""
        slots = list(slots)
        columns = self._take_distinct(slots)
        for index in self._indexes.values():
            index.remove_keys(index.keys_of(columns), slots)
        self._store.kill(slots)
        self._free_slots.extend(slots)
        for position, counts in self._domains.items():
            _tally(counts, columns[position], -1)
        self._live_count -= len(slots)
        self._notify("deleted", slots, columns)
        charge_access("rows_deleted", len(slots))
        return len(slots)

    def _take_distinct(self, slots: list[int]) -> list[list[Any]]:
        """:meth:`take`, refusing a batch that names a slot twice."""
        self._check_distinct(slots)
        return self.take(slots)

    def _check_distinct(self, slots: list[int]) -> None:
        if len(set(slots)) != len(slots):
            raise TableError(
                f"table {self.name!r}: a slot appears twice in one batch"
            )

    def update_slot(self, slot: int, new_row: Sequence[Any]) -> None:
        """Replace the row at *slot* in place, keeping indexes consistent.
        A new key that is unique and taken raises with nothing written."""
        old_row = self.row_at(slot)
        stored = self._check_arity(new_row)
        moves = []
        for index in self._indexes.values():
            old_key, new_key = index.key_of(old_row), index.key_of(stored)
            if old_key != new_key:
                index.check_addable((new_key,))
                moves.append((index, old_key, new_key))
        for index, old_key, new_key in moves:
            index.remove_key(old_key, slot)
            index.add_key(new_key, slot)
        for position, counts in self._domains.items():
            old_value, new_value = old_row[position], stored[position]
            if old_value != new_value:
                _tally(counts, (old_value,), -1)
                _tally(counts, (new_value,))
        self._store.set(slot, stored)
        self._notify("updated", [slot], [(value,) for value in stored])
        charge_access("rows_updated", 1)

    def update_columns(self, slots: Sequence[int], names: Sequence[str],
                       columns: Sequence[Sequence[Any]]) -> int:
        """Overwrite the columns *names* of the rows at *slots* in place,
        one sequence per name in step with *slots*; return how many rows.
        Only columns no index keys on and no domain tracks may be named,
        so no row's keys move.  The batch is validated whole first
        (columns, lengths, live and distinct slots); observers hear one
        ``rows_updated`` with the rows as written, for which only the
        columns not named are gathered, and the store records the slots
        written."""
        slots = list(slots)
        positions = self.schema.positions(names)
        guarded = self._domains.keys() | {
            position for index in self._indexes.values()
            for position in self.schema.positions(index.columns)
        }
        if guarded.intersection(positions):
            raise TableError(f"table {self.name!r}: {list(names)} include an "
                             "indexed or domain-tracked column")
        if len(columns) != len(positions) or set(map(len, columns)) - {len(slots)}:
            raise TableError(f"table {self.name!r}: ragged column batch for "
                             f"{len(slots)} slots and columns {list(names)}")
        if not slots:
            return 0
        self._check_distinct(slots)
        self._check_live(slots)
        store = self._store
        store.write(slots, positions, columns)
        if self._observers:
            new = dict(zip(positions, columns))
            kept = [p for p in range(len(self.schema)) if p not in new]
            new.update(zip(kept, store.take(slots, kept)))
            self._notify("updated", slots, [new[p] for p in sorted(new)])
        charge_access("rows_updated", len(slots))
        return len(slots)

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete all rows satisfying *predicate*; return how many."""
        doomed = [slot for slot, row in self._store.enumerate_live()
                  if predicate(row)]
        for slot in doomed:
            self.delete_slot(slot)
        return len(doomed)

    def truncate(self) -> None:
        """Remove every row but keep schema, index, and domain definitions."""
        self._store.clear()
        self._free_slots.clear()
        self._live_count = 0
        for index in self._indexes.values():
            index.clear()
        for counts in self._domains.values():
            counts.clear()
        if self._observers:
            for observer in self._observers:
                observer.truncated()

    def compact(self) -> int:
        """Make the table dense: every tombstone filled with a row moved
        from the tail, the indexes re-pointed at the moved rows, no free
        slot left.  O(tombstones); the rows are the same bag, so nothing
        is charged, and observers hear only ``rows_moved(sources,
        targets, size)``: where the rows went, and the slot count left.
        Returns the rows moved."""
        store = self._store
        size = store.size()
        moves = store.compact()
        sources: Sequence[int] = ()
        targets: Sequence[int] = ()
        if moves:
            sources, targets = transpose_rows(moves, 2)
            columns = store.take(targets)
            for index in self._indexes.values():
                keys = index.keys_of(columns)
                index.remove_keys(keys, sources)
                index.add_keys(keys, targets)
        self._free_slots.clear()
        if store.size() != size:
            for observer in self._observers:
                observer.rows_moved(sources, targets, store.size())
        return len(moves)

    # ------------------------------------------------------------------
    # Mutation observers
    # ------------------------------------------------------------------

    def attach_observer(self, observer: Any) -> Any:
        """Attach a mutation observer (duck-typed: ``rows_inserted``,
        ``rows_deleted`` and ``rows_updated``, each called with the slots
        written and the rows inserted, deleted or now stored there,
        column-wise; ``rows_moved(sources, targets, size)``;
        ``truncated()``).

        Observers see every mutation path — inserts, slot deletes, in-place
        updates, compaction, truncation, single rows as one-row batches —
        which is what lets a
        :class:`~repro.obs.audit.ViewCertificate` stay consistent through
        refresh and atomic rollback alike.  Copies
        (:meth:`copy`) do not inherit observers.
        """
        self._observers.append(observer)
        return observer

    def detach_observer(self, observer: Any) -> None:
        """Detach a previously attached observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    @property
    def observers(self) -> tuple[Any, ...]:
        """The attached mutation observers."""
        return tuple(self._observers)

    # ------------------------------------------------------------------
    # Domain tracking
    # ------------------------------------------------------------------

    def track_domain(self, column: str) -> None:
        """Maintain the set of distinct values of *column* incrementally.

        Used by index recomputation plans (:mod:`repro.core.recompute`) to
        enumerate candidate index keys for low-cardinality columns (e.g.
        ``date``), and for foreign keys whose dimension a view does not
        join.  Idempotent.  The initial
        counts are one C-level count of the live column, uncharged.
        """
        position = self.schema.position(column)
        if position in self._domains:
            return
        (column,) = self._store.column_lists((position,))
        self._domains[position] = dict(Counter(column))

    def domain(self, column: str) -> tuple[Any, ...] | None:
        """Distinct live values of *column*, or ``None`` when untracked."""
        position = self.schema.position(column)
        counts = self._domains.get(position)
        if counts is None:
            return None
        return tuple(counts.keys())

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def create_index(self, columns: Sequence[str], unique: bool = False) -> HashIndex:
        """Create (or return an existing) hash index on *columns*.

        Built from the store's columns — the key tuples
        from one zip of the indexed columns, the slots from the store's
        liveness, the buckets in one pass (:meth:`HashIndex.load`) — and
        registered only once complete, so a unique violation raises with
        :attr:`indexes` unchanged.  Uncharged, as a build always was.
        """
        key = tuple(columns)
        existing = self._indexes.get(key)
        if existing is not None:
            if existing.unique != unique:
                raise TableError(
                    f"table {self.name!r}: index on {key} already exists with "
                    f"unique={existing.unique}"
                )
            return existing
        positions = self.schema.positions(columns)
        index = HashIndex(key, positions, unique=unique)
        store = self._store
        index.load(zip(*store.column_lists(positions)), store.live_slots())
        self._indexes[key] = index
        return index

    def index_on(self, columns: Sequence[str]) -> HashIndex | None:
        """Return the index on exactly *columns*, or ``None``."""
        return self._indexes.get(tuple(columns))

    @property
    def indexes(self) -> dict[tuple[str, ...], HashIndex]:
        """The table's indexes, keyed by their column tuple."""
        return dict(self._indexes)

    def verify_indexes(self) -> bool:
        """Check every index against a from-scratch rebuild over the live
        rows.

        An exactness probe for tests and audits: incremental maintenance
        (inserts, slot updates, deletes, compaction) must leave each
        index with the same key → slot mapping a fresh build would produce.
        Returns ``False`` on any divergence — including a unique index whose
        table now holds duplicate keys — without charging access stats.
        """
        for index in self._indexes.values():
            rebuilt = HashIndex(
                index.columns,
                self.schema.positions(index.columns),
                unique=index.unique,
            )
            try:
                for slot, row in self._store.enumerate_live():
                    rebuilt.add(row, slot)
            except TableError:
                return False
            live = {key: sorted(index.slots_of(key)) for key in index.keys()}
            fresh = {key: sorted(rebuilt.slots_of(key)) for key in rebuilt.keys()}
            if live != fresh:
                return False
        return True

    def indexes_hold(
        self, slots: Sequence[int], columns: Sequence[Sequence[Any]]
    ) -> bool:
        """Whether every index files each of the rows *columns*, live at
        *slots*, under its key at its slot: :meth:`verify_indexes` for the
        rows of a few slots (what :meth:`take_live` returns), uncharged."""
        return all(
            index.holds(columns, slots) for index in self._indexes.values()
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Table":
        """Return a private deep copy: rows, indexes, tracked domains.

        Observers are not inherited.  The copy keeps the column types (a
        typed array stays a typed array): the storage, the index bucket
        maps, the free-slot list and the domain counts are cloned
        structurally — memcpy-speed, no per-row insert, no row moved — so
        every row keeps its slot, tombstones included, and the clone
        records the slots it writes from here on (:meth:`written_slots`;
        :meth:`compact` is what makes a table dense).  The source is not
        touched.  Charged as one scan of the source plus one insert per
        row, like the row-at-a-time copy it replaces.
        """
        clone = Table(name or self.name, self.schema)
        clone._store = self._store.clone()
        clone._free_slots = self._free_slots.copy()
        clone._live_count = self._live_count
        clone._indexes = {
            key: index.clone() for key, index in self._indexes.items()
        }
        clone._domains = {
            position: counts.copy()
            for position, counts in self._domains.items()
        }
        charge_access("rows_scanned", self._live_count)
        charge_access("rows_inserted", self._live_count)
        return clone

    def column_values(self, column: str) -> list[Any]:
        """Return all live values of *column*, in slot order."""
        position = self.schema.position(column)
        return list(self._store.column_lists((position,))[0])

    def sorted_rows(self) -> list[Row]:
        """Live rows sorted with nulls first — a canonical form for tests."""
        def sort_key(row: Row) -> tuple:
            return tuple((value is not None, value) for value in row)

        return sorted(self.rows(), key=sort_key)
