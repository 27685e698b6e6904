"""Seeded inputs of the cycle benchmark, as plain Python data.

Everything the program under test is given — dimension rows, fact rows,
change batches, view and query specifications — is made here from a
``random.Random`` and handed over as tuples, so a change to
``repro.workload`` cannot move the load.  This module imports nothing from
``repro``; the same seed gives the same inputs.

:class:`FactModel` is the benchmark's own copy of the fact table.  It
produces the Section 6 change mixes of the paper against its own rows and
keeps the totals the correctness checks compare served answers with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

STORES_COLUMNS = ("storeID", "city", "region")
ITEMS_COLUMNS = ("itemID", "name", "category", "cost")
FACT_COLUMNS = ("storeID", "itemID", "date", "qty", "price")
QTY = FACT_COLUMNS.index("qty")

#: Micro-batches one cycle's changes are staged in: one lineage batch per
#: staging call.  Staging row by row instead makes ``obs.lineage`` record
#: one histogram observation per row and view, which at 100,000 changes
#: costs more than the maintenance itself.
MICRO_BATCHES = 100

Row = tuple


@dataclass(frozen=True)
class Domain:
    """The retail star schema's attribute domains (Section 6 of the paper:
    100 x 200 x 25 = 500,000 possible finest-grain groups)."""

    n_stores: int = 100
    n_cities: int = 20
    n_regions: int = 5
    n_items: int = 200
    n_categories: int = 20
    n_dates: int = 25


@dataclass(frozen=True)
class ViewSpec:
    """A summary table: aggregates are ``(output, function, column)`` with
    function one of ``count`` (column ``None``), ``sum`` and ``min``."""

    name: str
    group_by: tuple[str, ...]
    aggregates: tuple[tuple[str, str, str | None], ...]
    dimensions: tuple[str, ...] = ()


@dataclass(frozen=True)
class QuerySpec:
    """An aggregate query of a battery; every query carries ``SUM(qty)`` so
    that its total identifies the fact-table state it was answered from."""

    group_by: tuple[str, ...]
    aggregates: tuple[tuple[str, str, str | None], ...]


COUNT_SUM = (("TotalCount", "count", None), ("TotalQuantity", "sum", "qty"))


def store_rows(domain: Domain) -> list[Row]:
    """``stores(storeID, city, region)`` with storeID -> city -> region."""
    rows = []
    for store in range(1, domain.n_stores + 1):
        city = (store - 1) % domain.n_cities + 1
        region = (city - 1) % domain.n_regions + 1
        rows.append((store, f"city{city:03d}", f"region{region:02d}"))
    return rows


def item_rows(domain: Domain, rng: random.Random) -> list[Row]:
    """``items(itemID, name, category, cost)`` with itemID -> category."""
    rows = []
    for item in range(1, domain.n_items + 1):
        category = (item - 1) % domain.n_categories + 1
        cost = round(rng.uniform(0.5, 50.0), 2)
        rows.append((item, f"item{item:04d}", f"cat{category:02d}", cost))
    return rows


def fact_rows(domain: Domain, count: int, rng: random.Random) -> list[Row]:
    """``pos(storeID, itemID, date, qty, price)``: uniform draws."""
    randint, uniform = rng.randint, rng.uniform
    stores, items, dates = domain.n_stores, domain.n_items, domain.n_dates
    return [
        (randint(1, stores), randint(1, items), randint(1, dates),
         randint(1, 10), round(uniform(1.0, 60.0), 2))
        for _ in range(count)
    ]


def cycle_rng(seed: int, workload: str, cycle: int) -> random.Random:
    """The generator of one cycle's changes (string seeds hash the same on
    every run and platform)."""
    return random.Random(f"{seed}/{workload}/cycle/{cycle}")


class FactModel:
    """The rows the benchmark has handed to the program, kept current."""

    def __init__(self, domain: Domain, rows: Iterable[Row]):
        self.domain = domain
        self.live: list[Row] = list(rows)
        self.sum_qty = sum(row[QTY] for row in self.live)
        self.max_date = max((row[2] for row in self.live), default=domain.n_dates)

    def update_generating(
        self, rng: random.Random, size: int
    ) -> tuple[list[Row], list[Row]]:
        """Equal insertions and deletions over existing store, item and
        date values: inserts land in existing groups, deletes remove
        distinct existing rows."""
        half = size // 2
        live = self.live
        randint, uniform = rng.randint, rng.uniform
        inserts = [
            (row[0], row[1], row[2], randint(1, 10),
             round(uniform(1.0, 60.0), 2))
            for row in rng.choices(live, k=half)
        ]
        doomed = rng.sample(range(len(live)), half)
        deletes = [live[index] for index in doomed]
        # Swap-remove from the highest index down: the row moved into a
        # hole always comes from beyond every index still to be removed.
        for index in sorted(doomed, reverse=True):
            live[index] = live[-1]
            live.pop()
        self._apply(inserts, deletes)
        return inserts, deletes

    def insertion_generating(
        self, rng: random.Random, size: int, new_dates: int = 5
    ) -> tuple[list[Row], list[Row]]:
        """Insertions over *new* dates with existing stores and items."""
        randint, uniform = rng.randint, rng.uniform
        stores, items = self.domain.n_stores, self.domain.n_items
        base = self.max_date
        inserts = [
            (randint(1, stores), randint(1, items),
             base + randint(1, new_dates), randint(1, 10),
             round(uniform(1.0, 60.0), 2))
            for _ in range(size)
        ]
        self._apply(inserts, [])
        return inserts, []

    def _apply(self, inserts: Sequence[Row], deletes: Sequence[Row]) -> None:
        self.live.extend(inserts)
        self.sum_qty += sum(row[QTY] for row in inserts)
        self.sum_qty -= sum(row[QTY] for row in deletes)
        if inserts:
            self.max_date = max(self.max_date, max(row[2] for row in inserts))


def micro_batches(
    inserts: Sequence[Row], deletes: Sequence[Row], parts: int = MICRO_BATCHES
) -> list[tuple[Sequence[Row], Sequence[Row]]]:
    """Split one cycle's changes into *parts* staging calls (empty slices
    are dropped, so small change sets make fewer calls)."""
    batches = []
    for part in range(parts):
        ins = inserts[part * len(inserts) // parts:(part + 1) * len(inserts) // parts]
        dele = deletes[part * len(deletes) // parts:(part + 1) * len(deletes) // parts]
        if ins or dele:
            batches.append((ins, dele))
    return batches


def evaluate(
    queries: Sequence[QuerySpec],
    rows: Iterable[Row],
    stores: Sequence[Row],
    items: Sequence[Row],
) -> list[list[Row]]:
    """Answer *queries* from the model's rows: the reference every battery
    answer of the program is compared with.  Each answer comes back
    sorted, group-by columns first, aggregates in the query's order."""
    city_region = {row[0]: (row[1], row[2]) for row in stores}
    category = {row[0]: (row[2],) for row in items}
    columns = FACT_COLUMNS + ("city", "region", "category")
    wide = [row + city_region[row[0]] + category[row[1]] for row in rows]
    answers = []
    for query in queries:
        positions = [columns.index(column) for column in query.group_by]
        groups: dict[tuple, list[int]] = {}
        for row in wide:
            key = tuple([row[position] for position in positions])
            totals = groups.get(key)
            if totals is None:
                groups[key] = [1, row[QTY]]
            else:
                totals[0] += 1
                totals[1] += row[QTY]
        picks = []
        for _name, function, column in query.aggregates:
            if (function, column) not in (("count", None), ("sum", "qty")):
                raise ValueError(
                    "battery queries aggregate COUNT(*) and SUM(qty), "
                    f"not {function}({column})"
                )
            picks.append(0 if function == "count" else 1)
        answers.append(sorted(
            key + tuple(totals[pick] for pick in picks)
            for key, totals in groups.items()
        ))
    return answers


def answer_total(query: QuerySpec, rows: Iterable[Row]) -> int:
    """``SUM(qty)`` over all groups of one answer."""
    measures = [(function, column) for _name, function, column in query.aggregates]
    position = len(query.group_by) + measures.index(("sum", "qty"))
    return sum(row[position] for row in rows)
