"""The V-lattice plans of Figure 8 and of a multi-root lattice, pinned
literally: topological order, propagation levels, ``describe()`` and the
Hasse edges.

The order breaks ties generation by generation, in the order the views
are defined, so it is the same in every process whatever the string hash
seed; the last test builds both lattices under three seeds to show it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CountStar, Sum, SummaryViewDefinition, col
from repro.lattice import build_lattice_for_views
from repro.views import MaterializedView
from repro.workload import RetailConfig, generate_retail, retail_view_definitions

SRC = Path(__file__).resolve().parents[2] / "src"

#: (name, group-by, dimensions): ten COUNT/SUM views, none at the finest
#: grain, three of them lattice roots.
COARSE = (
    ("cRCD_sales", ("city", "region", "category", "date"), ("stores", "items")),
    ("SC_sales", ("storeID", "category"), ("items",)),
    ("IR_sales", ("itemID", "region"), ("stores",)),
    ("cRD_sales", ("city", "region", "date"), ("stores",)),
    ("RCD_sales", ("region", "category", "date"), ("stores", "items")),
    ("CD_sales", ("category", "date"), ("items",)),
    ("RD_sales", ("region", "date"), ("stores",)),
    ("S_sales", ("storeID",), ()),
    ("I_sales", ("itemID",), ()),
    ("R_sales", ("region",), ("stores",)),
)

PINS = {
    "figure8": {
        "order": ["SID_sales", "sCD_sales", "SiC_sales", "sR_sales"],
        "levels": [["SID_sales"], ["sCD_sales", "SiC_sales"], ["sR_sales"]],
        "describe": [
            "SID_sales <- base data",
            "sCD_sales <- SID_sales joining [stores]",
            "SiC_sales <- SID_sales joining [items]",
            "sR_sales <- sCD_sales",
        ],
        "hasse": [
            ["SID_sales", "SiC_sales"],
            ["SID_sales", "sCD_sales"],
            ["SiC_sales", "sR_sales"],
            ["sCD_sales", "sR_sales"],
        ],
    },
    "coarse": {
        "order": [
            "cRCD_sales", "SC_sales", "IR_sales", "cRD_sales", "RCD_sales",
            "S_sales", "I_sales", "CD_sales", "RD_sales", "R_sales",
        ],
        "levels": [
            ["cRCD_sales", "SC_sales", "IR_sales"],
            ["cRD_sales", "RCD_sales", "S_sales", "I_sales"],
            ["CD_sales", "RD_sales"],
            ["R_sales"],
        ],
        "describe": [
            "cRCD_sales <- base data",
            "SC_sales <- base data",
            "IR_sales <- base data",
            "cRD_sales <- cRCD_sales",
            "RCD_sales <- cRCD_sales",
            "S_sales <- SC_sales",
            "I_sales <- IR_sales",
            "CD_sales <- RCD_sales",
            "RD_sales <- cRD_sales",
            "R_sales <- RD_sales",
        ],
        "hasse": [
            ["IR_sales", "I_sales"],
            ["IR_sales", "R_sales"],
            ["RCD_sales", "CD_sales"],
            ["RCD_sales", "RD_sales"],
            ["RD_sales", "R_sales"],
            ["SC_sales", "S_sales"],
            ["S_sales", "R_sales"],
            ["cRCD_sales", "RCD_sales"],
            ["cRCD_sales", "cRD_sales"],
            ["cRD_sales", "RD_sales"],
        ],
    },
}


def plans() -> dict:
    """Both lattices' plans, built from materialised views of a seeded
    2,000-row retail warehouse (their row counts are the size hints)."""
    data = generate_retail(RetailConfig(pos_rows=2000, seed=8))
    coarse = [
        SummaryViewDefinition.create(
            name, data.pos, group_by=list(group_by),
            aggregates=[("TotalCount", CountStar()),
                        ("TotalQuantity", Sum(col("qty")))],
            dimensions=list(dimensions),
        )
        for name, group_by, dimensions in COARSE
    ]
    found = {}
    for label, definitions in (
        ("figure8", retail_view_definitions(data.pos)),
        ("coarse", coarse),
    ):
        lattice = build_lattice_for_views(
            [MaterializedView.build(definition) for definition in definitions]
        )
        found[label] = {
            "order": lattice.order,
            "levels": lattice.propagation_levels(),
            "describe": lattice.describe().split("\n"),
            "hasse": sorted([list(edge) for edge in lattice.graph.edges]),
        }
    return found


@pytest.fixture(scope="module")
def built():
    return plans()


@pytest.mark.parametrize("label", sorted(PINS))
@pytest.mark.parametrize("fact", ["order", "levels", "describe", "hasse"])
def test_plan_is_pinned(built, label, fact):
    assert built[label][fact] == PINS[label][fact]


def test_plans_do_not_depend_on_the_hash_seed():
    script = (
        "import json\n"
        "from tests.lattice.test_lattice_pins import plans\n"
        "print(json.dumps(plans()))\n"
    )
    root = SRC.parent
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(SRC), str(root)]))
        result = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert json.loads(result.stdout) == PINS, f"PYTHONHASHSEED={seed}"
