"""Seeded retail cycles' counts, pinned exactly.

A maintenance cycle is deterministic for a fixed seed: the tuple-access
totals, every node's summary-delta size, every view's refresh outcome and
the plan and counts of every MIN/MAX recompute repeat run for run.  A
refactor that claims to change no behaviour must leave all four
untouched, with and without the D-lattice.  The counts do not depend on
tracing (each cycle runs under ``trace()``, which ``REPRO_TRACE=0`` turns
into a no-op, and the recompute spans, when recorded, repeat the
callbacks' own counts), nor on which fold ran: the lattice cycles run
again under the ``interpreted`` fixture, with every group-by and
projection on the interpreter (the fused sibling kernel stays compiled),
and repeat the compiled counts.  They are taken under the one refresh
commit, which copies each view before refreshing it.  Off the
interpreter, no fold of a cycle (nor of its warehouse's build) falls
back to the interpreted fold and the fused sibling kernel declines no
group: every workload stays on the compiled kernels.

One cycle per paper workload over the same 20,000-row fact table: the
update-generating and insertion-generating changes of Section 6 (2,000
changes each) and the expiration of the oldest date (Section 2.1), whose
deletions force MIN(date) groups to be recomputed from base data.
"""

from collections import Counter
from contextlib import nullcontext

import pytest

from repro.lattice import maintain_lattice
from repro.lattice import plan
from repro.obs import tracing
from repro.relational import aggregation
from repro.relational.stats import measuring
from repro.workload import (
    RetailConfig,
    build_retail_warehouse,
    expiration_changes,
    generate_retail,
    insertion_generating_changes,
    update_generating_changes,
)

from ..conftest import recorded_recomputes

WORKLOADS = {
    "update": lambda data: update_generating_changes(
        data.pos, data.config, 2_000, data.rng
    ),
    "insertion": lambda data: insertion_generating_changes(
        data.pos, data.config, 2_000, data.rng
    ),
    "expiration": lambda data: expiration_changes(data.pos, 1),
}

DELTA_ROWS = {
    "update": {"SID_sales": 1921, "SiC_sales": 1247, "sCD_sales": 493,
               "sR_sales": 5},
    "insertion": {"SID_sales": 1982, "SiC_sales": 1263, "sCD_sales": 100,
                  "sR_sales": 5},
    "expiration": {"SID_sales": 794, "SiC_sales": 667, "sCD_sales": 20,
                   "sR_sales": 5},
}

# (inserted, updated, deleted, recomputed) per view.
REFRESH = {
    "update": {
        "SID_sales": (0, 1004, 917, 0),
        "SiC_sales": (0, 1018, 0, 229),
        "sCD_sales": (0, 493, 0, 0),
        "sR_sales": (0, 5, 0, 0),
    },
    "insertion": {
        "SID_sales": (1982, 0, 0, 0),
        "SiC_sales": (0, 1263, 0, 0),
        "sCD_sales": (100, 0, 0, 0),
        "sR_sales": (0, 5, 0, 0),
    },
    "expiration": {
        "SID_sales": (0, 0, 794, 0),
        "SiC_sales": (0, 0, 0, 667),
        "sCD_sales": (0, 0, 20, 0),
        "sR_sales": (0, 5, 0, 0),
    },
}

# Per view that recomputes: (plan, groups, probes, gathered_rows) of its
# one recompute call — the same with and without the lattice.  SiC_sales
# takes the ordered probe: MIN(date) is read from the index, no fact row.
RECOMPUTE = {
    "update": {"SiC_sales": ("ordered", 229, 9307, 0)},
    "insertion": {},
    "expiration": {"SiC_sales": ("ordered", 667, 17524, 0)},
}

# Keyed by (workload, use_lattice).  The update and expiration totals count
# the ordered probe's index lookups and its one scan of the items dimension
# per recompute call; no fact row is gathered for a recompute.
ACCESS = {
    ("update", True): {
        "rows_scanned": 36599,
        "rows_inserted": 30785,
        "rows_deleted": 1917,
        "rows_updated": 2749,
        "index_lookups": 17814,
        "total": 89864,
    },
    ("update", False): {
        "rows_scanned": 58185,
        "rows_inserted": 48785,
        "rows_deleted": 1917,
        "rows_updated": 2749,
        "index_lookups": 19972,
        "total": 131608,
    },
    ("insertion", True): {
        "rows_scanned": 35551,
        "rows_inserted": 33551,
        "rows_deleted": 0,
        "rows_updated": 1268,
        "index_lookups": 7314,
        "total": 77684,
    },
    ("insertion", False): {
        "rows_scanned": 57469,
        "rows_inserted": 51551,
        "rows_deleted": 0,
        "rows_updated": 1268,
        "index_lookups": 9350,
        "total": 119638,
    },
    ("expiration", True): {
        "rows_scanned": 28031,
        "rows_inserted": 25211,
        "rows_deleted": 1617,
        "rows_updated": 672,
        "index_lookups": 21392,
        "total": 76923,
    },
    ("expiration", False): {
        "rows_scanned": 36853,
        "rows_inserted": 32438,
        "rows_deleted": 1617,
        "rows_updated": 672,
        "index_lookups": 22213,
        "total": 93793,
    },
}

def run_cycle(workload, use_lattice=True):
    """One seeded cycle: the warehouse, its access totals and the result."""
    data = generate_retail(RetailConfig(pos_rows=20_000))
    warehouse = build_retail_warehouse(data)
    changes = WORKLOADS[workload](data)
    with measuring() as access:
        result = maintain_lattice(
            warehouse.views_over("pos"), changes, use_lattice=use_lattice,
        )
    return warehouse, access, result


def delta_rows(result):
    return {name: len(delta.table) for name, delta in result.deltas.items()}


def refresh_outcomes(result):
    return {
        name: (s.inserted, s.updated, s.deleted, s.recomputed)
        for name, s in result.stats.items()
    }


# (workload, use_lattice, interpreted): every workload with and without
# the lattice, and the lattice cycle again on the interpreter.
CYCLES = [(workload, lattice, False) for workload in WORKLOADS
          for lattice in (True, False)]
CYCLES += [(workload, True, True) for workload in WORKLOADS]


def cycle_id(params):
    workload, use_lattice, interpreted = params
    name = f"{workload}-{'lattice' if use_lattice else 'direct'}"
    return name + "-interpreted" if interpreted else name


def recompute_counts(runs):
    """Per view, the plan and counts of each recompute call in *runs*
    (:func:`recorded_recomputes`)."""
    counts = {}
    for name, run in runs:
        counts.setdefault(name, []).append(
            (run.plan, run.groups, run.probes, run.gathered_rows)
        )
    return {name: tuple(calls) for name, calls in counts.items()}


def counting_fallbacks(patch, fallbacks):
    """Count, into *fallbacks*, the group-bys folded by the interpreter
    and the sibling groups the fused kernel declines."""
    fold_interpreted = aggregation._fold_interpreted
    prepare_fused_scan = plan.prepare_fused_scan

    def counted_fold(*args, **kwargs):
        fallbacks["interpreted_folds"] += 1
        return fold_interpreted(*args, **kwargs)

    def counted_prepare(*args, **kwargs):
        scan = prepare_fused_scan(*args, **kwargs)
        fallbacks["fused_declines"] += scan is None
        return scan

    patch.setattr(aggregation, "_fold_interpreted", counted_fold)
    patch.setattr(plan, "prepare_fused_scan", counted_prepare)


@pytest.fixture(scope="module", params=CYCLES, ids=cycle_id)
def cycle(request):
    workload, use_lattice, interpreted = request.param
    engine = (request.getfixturevalue("interpreted") if interpreted
              else nullcontext)
    fallbacks = Counter()
    with engine(), pytest.MonkeyPatch.context() as patch, \
            recorded_recomputes() as runs:
        counting_fallbacks(patch, fallbacks)
        # ``top`` is a no-op span under ``REPRO_TRACE=0``.
        with tracing.trace(), tracing.span("cycle") as top:
            warehouse, access, result = run_cycle(workload, use_lattice)
    return workload, use_lattice, warehouse, access, result, fallbacks, (
        runs, top
    )


def test_views_converge(cycle):
    _, _, warehouse, _, _, _, _ = cycle
    assert all(warehouse.verify_views().values())


def test_access_units(cycle):
    workload, use_lattice, _, access, _, _, _ = cycle
    assert access.as_dict() == ACCESS[workload, use_lattice]


def test_delta_rows(cycle):
    workload, _, _, _, result, _, _ = cycle
    assert delta_rows(result) == DELTA_ROWS[workload]


def test_refresh_stats(cycle):
    workload, _, _, _, result, _, _ = cycle
    assert refresh_outcomes(result) == REFRESH[workload]


def test_no_fold_leaves_the_kernels(request, cycle):
    """Zero declines off the interpreter; on it, the interpreted fold
    really ran, and the fused kernel still declined nothing."""
    _, _, _, _, _, fallbacks, _ = cycle
    _, _, interpreted = request.node.callspec.params["cycle"]
    assert fallbacks["fused_declines"] == 0
    if interpreted:
        assert fallbacks["interpreted_folds"] > 0
    else:
        assert fallbacks["interpreted_folds"] == 0


def test_recompute_plans_and_counts(cycle):
    """Each recomputing view's plan and counts, from the callback itself
    and — when spans are recorded — from its ``recompute`` span."""
    workload, _, _, _, _, _, (runs, top) = cycle
    expected = {
        view: (counts,) for view, counts in RECOMPUTE[workload].items()
    }
    assert recompute_counts(runs) == expected
    if isinstance(top, tracing.Span):
        spans = {}
        for span in top.find_all("recompute"):
            spans.setdefault(span.tags["view"], []).append((
                span.tags["plan"], span.counters["groups"],
                span.counters["probes"], span.counters["gathered_rows"],
            ))
        assert {view: tuple(runs) for view, runs in spans.items()} == expected
