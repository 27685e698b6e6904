"""The paper's two change workloads (Section 6).

* **Update-generating changes** — "insertions and deletions of an equal
  number of tuples over existing date, store, and item values."  Insertions
  reuse (storeID, itemID, date) triples sampled from existing fact rows
  (hitting existing summary-table groups, hence mostly view *updates*);
  deletions remove sampled existing fact rows.

* **Insertion-generating changes** — "insertions over new dates, but
  existing store and item values."  All changes are insertions dated past
  the current maximum date, so the two date-grouped summary tables receive
  only view *inserts*, while date-less summary tables still receive
  updates.

Both generators read the fact table as it stands and never mutate it;
the returned :class:`~repro.warehouse.changes.ChangeSet` is applied later
by the maintenance run.  Each stages its rows as one lineage batch, the
one delivery a generated change set stands for.
"""

from __future__ import annotations

import random

from ..errors import WorkloadError
from ..warehouse.changes import ChangeSet
from ..warehouse.fact import FactTable
from .generator import RetailConfig


def update_generating_changes(
    pos: FactTable,
    config: RetailConfig,
    size: int,
    rng: random.Random,
) -> ChangeSet:
    """Equal insertions and deletions over existing attribute values."""
    if size % 2:
        raise WorkloadError("update-generating change size must be even")
    existing = pos.table.rows()
    half = size // 2
    if half > len(existing):
        raise WorkloadError(
            f"cannot delete {half} rows from a fact table of {len(existing)}"
        )
    changes = ChangeSet(pos.name, pos.table.schema)
    with changes.batch():
        # Insertions: reuse (storeID, itemID, date) of sampled existing rows
        # so they land in existing groups; fresh quantity and price.
        for template in rng.choices(existing, k=half):
            store_id, item_id, date = template[0], template[1], template[2]
            qty = rng.randint(1, 10)
            price = round(rng.uniform(1.0, 60.0), 2)
            changes.insert((store_id, item_id, date, qty, price))

        # Deletions: distinct existing row occurrences.
        for row in rng.sample(existing, half):
            changes.delete(row)
    return changes


def expiration_changes(
    pos: FactTable,
    n_oldest_dates: int = 1,
) -> ChangeSet:
    """Expire the oldest *n_oldest_dates* days: delete their fact rows.

    The standard warehouse aging policy (keep a rolling window of history).
    This is the worst case for the summary-delta method's MIN/MAX handling:
    every group of a MIN(date)-bearing view whose earliest sale falls in
    the expired window must be recomputed from base data.
    """
    dates = pos.table.column_values("date")
    if not dates:
        return ChangeSet(pos.name, pos.table.schema)
    doomed_dates = set(sorted(set(dates))[:n_oldest_dates])
    position = pos.table.schema.position("date")
    changes = ChangeSet(pos.name, pos.table.schema)
    with changes.batch():
        for row in pos.table.scan():
            if row[position] in doomed_dates:
                changes.delete(row)
    return changes


def insertion_generating_changes(
    pos: FactTable,
    config: RetailConfig,
    size: int,
    rng: random.Random,
    n_new_dates: int = 5,
) -> ChangeSet:
    """Insertions over *new* dates with existing store and item values."""
    if n_new_dates < 1:
        raise WorkloadError("need at least one new date")
    from .generator import sample_identifier

    dates = pos.table.column_values("date")
    max_date = max(dates) if dates else config.n_dates
    changes = ChangeSet(pos.name, pos.table.schema)
    with changes.batch():
        for _ in range(size):
            store_id = sample_identifier(rng, config.n_stores, config.skew)
            item_id = sample_identifier(rng, config.n_items, config.skew)
            date = max_date + rng.randint(1, n_new_dates)
            qty = rng.randint(1, 10)
            price = round(rng.uniform(1.0, 60.0), 2)
            changes.insert((store_id, item_id, date, qty, price))
    return changes
