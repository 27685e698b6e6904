"""Six environment switches that once turned off an engine kernel or
path are no longer read.

``REPRO_CODEGEN``, ``REPRO_SHARED_SCAN``, ``REPRO_REFRESH_INDEX``,
``REPRO_COLUMNAR``, ``REPRO_CERTIFICATES`` and ``REPRO_VERSIONED`` set to
``"0"`` used to run the interpreter, the per-child edge pipelines, a
linear-scan refresh locator, row storage, certificate-free views and
in-place refresh.  Each is now inert: with it set while the warehouse is
built and maintained, the update cycle of
:mod:`tests.integration.test_cycle_counts` repeats that file's pinned
counts exactly, every view is certified, and every view has published
its refresh as epoch 1.
"""

import pytest

from .test_cycle_counts import (
    ACCESS,
    DELTA_ROWS,
    REFRESH,
    delta_rows,
    refresh_outcomes,
    run_cycle,
)

RETIRED = [
    "REPRO_CODEGEN",
    "REPRO_SHARED_SCAN",
    "REPRO_REFRESH_INDEX",
    "REPRO_COLUMNAR",
    "REPRO_CERTIFICATES",
    "REPRO_VERSIONED",
]


@pytest.mark.parametrize("name", RETIRED)
def test_switch_set_to_zero_changes_nothing(monkeypatch, name):
    monkeypatch.setenv(name, "0")
    warehouse, access, result = run_cycle("update")
    assert access.as_dict() == ACCESS["update", True]
    assert delta_rows(result) == DELTA_ROWS["update"]
    assert refresh_outcomes(result) == REFRESH["update"]
    for view in warehouse.views_over("pos"):
        assert view.certificate is not None, view.name
        assert view.epoch == 1, view.name
    assert all(warehouse.verify_certificates().values())
