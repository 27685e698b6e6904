"""Figure 9(a): elapsed time vs change-set size, update-generating changes.

Fixed pos = 500,000 tuples (× REPRO_BENCH_SCALE); change sets 1,000–10,000.
Series as in the paper: Propagate (lattice), Summary Delta Maintenance
(propagate + refresh), Rematerialize (lattice), Propagate without lattice.
"""

from repro.bench import (
    check_lattice_benefit_grows_with_change_size,
    check_lattice_helps_propagate,
    check_maintenance_beats_rematerialization,
    format_claims,
    format_panel,
    run_panel,
)


def test_figure9a(benchmark, results_store, save_result):
    panel = benchmark.pedantic(
        lambda: run_panel("a"), rounds=1, iterations=1, warmup_rounds=0
    )
    results_store["a"] = panel

    claims = [
        check_maintenance_beats_rematerialization(panel),
        check_lattice_helps_propagate(panel),
        check_lattice_benefit_grows_with_change_size(panel),
    ]
    report = format_panel(panel) + "\n\n" + format_claims(claims)
    print("\n" + report)
    save_result("figure9a", report)

    # The paper's headline result must reproduce unconditionally.
    assert claims[0].holds, claims[0].evidence
    # The lattice must help propagate on average.
    assert claims[1].holds, claims[1].evidence
