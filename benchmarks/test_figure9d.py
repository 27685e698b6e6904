"""Figure 9(d): elapsed time vs pos size, insertion-generating changes.

Like panel (b) but with new-date insertions: propagate stays flat in pos
size and refresh is insert-dominated throughout.
"""

from repro.bench import (
    check_maintenance_beats_rematerialization,
    check_propagate_flat_in_pos_size,
    format_claims,
    format_panel,
    run_panel,
)


def test_figure9d(benchmark, results_store, save_result):
    panel = benchmark.pedantic(
        lambda: run_panel("d"), rounds=1, iterations=1, warmup_rounds=0
    )
    results_store["d"] = panel

    claims = [
        check_maintenance_beats_rematerialization(panel),
        check_propagate_flat_in_pos_size(panel),
    ]
    report = format_panel(panel) + "\n\n" + format_claims(claims)
    print("\n" + report)
    save_result("figure9d", report)

    assert claims[0].holds, claims[0].evidence
