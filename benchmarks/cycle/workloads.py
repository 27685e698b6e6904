"""The four workloads of the cycle benchmark.

Sizes are the paper's (Section 6: ``pos`` of 100,000 to 500,000 tuples,
change sets of 1,000 to 10,000) except ``bulk-coarse``, a catch-up batch
ten times larger over views that have no finest-grain table.  ``why``
says which layers a workload puts the time in; the README has the
measured shares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from inputs import COUNT_SUM, QuerySpec, ViewSpec

#: Figure 1 of the paper, with ``region`` carried in ``sCD_sales`` (the
#: lattice-friendly form of Figure 8) so ``sR_sales`` derives from it.
FIGURE1_VIEWS = (
    ViewSpec("SID_sales", ("storeID", "itemID", "date"), COUNT_SUM),
    ViewSpec("sCD_sales", ("city", "region", "date"), COUNT_SUM, ("stores",)),
    ViewSpec(
        "SiC_sales", ("storeID", "category"),
        (("TotalCount", "count", None), ("EarliestSale", "min", "date"),
         ("TotalQuantity", "sum", "qty")),
        ("items",),
    ),
    ViewSpec("sR_sales", ("region",), COUNT_SUM, ("stores",)),
)

#: Ten COUNT/SUM views, none at the finest grain.  Three are lattice roots
#: (no view derives another root): each root's delta is computed from the
#: raw change set joined to the dimensions, the rest derive below them.
COARSE_VIEWS = (
    ViewSpec("cRCD_sales", ("city", "region", "category", "date"), COUNT_SUM,
             ("stores", "items")),
    ViewSpec("SC_sales", ("storeID", "category"), COUNT_SUM, ("items",)),
    ViewSpec("IR_sales", ("itemID", "region"), COUNT_SUM, ("stores",)),
    ViewSpec("cRD_sales", ("city", "region", "date"), COUNT_SUM, ("stores",)),
    ViewSpec("RCD_sales", ("region", "category", "date"), COUNT_SUM,
             ("stores", "items")),
    ViewSpec("CD_sales", ("category", "date"), COUNT_SUM, ("items",)),
    ViewSpec("RD_sales", ("region", "date"), COUNT_SUM, ("stores",)),
    ViewSpec("S_sales", ("storeID",), COUNT_SUM),
    ViewSpec("I_sales", ("itemID",), COUNT_SUM),
    ViewSpec("R_sales", ("region",), COUNT_SUM, ("stores",)),
)

UNITS = (("units", "sum", "qty"),)
SALES_UNITS = (("sales", "count", None), ("units", "sum", "qty"))

#: Two answers from tiny views, one from a 500-row and one from a
#: 2,000-row view, and one roll-up from the largest view.
FIGURE1_BATTERY = (
    QuerySpec(("region",), UNITS),
    QuerySpec(("city", "region"), SALES_UNITS),
    QuerySpec(("storeID", "date"), UNITS),
    QuerySpec(("category",), SALES_UNITS),
    QuerySpec((), UNITS),
)

#: The first four are answered from small views joined to a dimension, the
#: last rolls the largest view (10k rows) up by dropping ``region``.
COARSE_BATTERY = (
    QuerySpec(("region",), UNITS),
    QuerySpec(("category", "date"), SALES_UNITS),
    QuerySpec(("city",), UNITS),
    QuerySpec(("region", "category"), SALES_UNITS),
    QuerySpec(("city", "category", "date"), UNITS),
)

#: A query no Figure 1 or coarse view can answer (none keeps ``price``):
#: the router falls back to the fact table.  Traced runs time it once.
BASE_FALLBACK_QUERY = QuerySpec(("region",), (("revenue", "sum", "price"),))


@dataclass(frozen=True)
class Workload:
    """Sizes and inputs of one workload; ``BENCHMARK.json`` says why it
    exists."""

    name: str
    pos_rows: int
    views: tuple[ViewSpec, ...]
    battery: tuple[QuerySpec, ...]
    change_kind: str            # "update" or "insert" (Section 6 mixes)
    changes_per_cycle: int
    #: Cycles timed by a run of the default 16 s, which is about what they
    #: and their batteries take (a serving workload runs cycles back to
    #: back for its window instead).  ``--seconds`` scales it, so the work
    #: is fixed by the arguments and is the same on every run of a commit
    #: and on both sides of a comparison.  Set so that one run of each
    #: workload, with set-up and checks, takes ~120 s in all: the driver
    #: makes 92 of them within 57 minutes.
    cycles_at_16s: int = 0
    #: Open-loop queries per second served beside maintenance; 0 for the
    #: batch-window workloads, which answer a battery after each cycle.
    serve_rate: int = 0

    def timed_cycles(self, seconds: float) -> int:
        return max(3, round(self.cycles_at_16s * seconds / 16))

    def served_queries(self, seconds: float) -> int:
        """Open-loop queries of one run.  The serving window is 1.5 times
        the nominal run length (a serving run has no 500k-row set-up and
        check to pay for): each publish gives every query one miss, and
        the window has to hold some forty of them for their median to
        repeat from run to run."""
        return int(self.serve_rate * 1.5 * seconds)

    def scaled(self, divisor: int) -> "Workload":
        """The same workload with table and change sizes divided (the
        harness tests run at 1/50 scale)."""
        return replace(
            self,
            pos_rows=self.pos_rows // divisor,
            changes_per_cycle=max(2, self.changes_per_cycle // divisor // 2 * 2),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("fig9-update", 500_000, FIGURE1_VIEWS, FIGURE1_BATTERY,
                 "update", 10_000, cycles_at_16s=5),
        Workload("fig9-insert", 500_000, FIGURE1_VIEWS, FIGURE1_BATTERY,
                 "insert", 10_000, cycles_at_16s=5),
        Workload("bulk-coarse", 200_000, COARSE_VIEWS, COARSE_BATTERY,
                 "update", 100_000, cycles_at_16s=8),
        Workload("serve-mixed", 100_000, FIGURE1_VIEWS, FIGURE1_BATTERY,
                 "update", 2_000, serve_rate=200),
    )
}

#: Answers slower than this, measured from their due time, count as failed.
#: The slowest answers are 100-150 ms (the roll-up from the 310k-row view;
#: a roll-up beside a refresh), and a full garbage collection during one
#: has been seen to take it to 320 ms: the limit stands clear of that, and
#: catches a reader that is blocked for the length of a refresh.
LATENCY_LIMIT_MS = 1000.0
