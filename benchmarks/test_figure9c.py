"""Figure 9(c): elapsed time vs change-set size, insertion-generating changes.

Like panel (a) but all changes are insertions over new dates, so the two
date-grouped summary tables receive only inserts.  The paper: incremental
maintenance "wins with a greater margin" here, the difference being the
refresh times of SID_sales and sCD_sales (down ~50%).
"""

from repro.bench import (
    check_lattice_helps_propagate,
    check_maintenance_beats_rematerialization,
    check_refresh_cheaper_for_insertions,
    format_claims,
    format_panel,
    run_panel,
)


def test_figure9c(benchmark, results_store, save_result):
    panel = benchmark.pedantic(
        lambda: run_panel("c"), rounds=1, iterations=1, warmup_rounds=0
    )
    results_store["c"] = panel

    claims = [
        check_maintenance_beats_rematerialization(panel),
        check_lattice_helps_propagate(panel),
    ]
    # Cross-panel check against 9(a), when it ran in this session.
    if "a" in results_store:
        claims.append(
            check_refresh_cheaper_for_insertions(results_store["a"], panel)
        )
    report = format_panel(panel) + "\n\n" + format_claims(claims)
    print("\n" + report)
    save_result("figure9c", report)

    assert claims[0].holds, claims[0].evidence
