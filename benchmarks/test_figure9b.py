"""Figure 9(b): elapsed time vs pos size, update-generating changes.

Fixed change size = 10,000 (× REPRO_BENCH_SCALE); pos 100,000–500,000.
The paper's observations: propagate is flat in pos size; refresh *drops*
as pos grows (fewer group deletions when groups hold more tuples).
"""

from repro.bench import (
    check_maintenance_beats_rematerialization,
    check_propagate_flat_in_pos_size,
    format_claims,
    format_panel,
    run_panel,
)
from repro.bench.reporting import ShapeClaim, check_deletions_drop_with_pos_size


def check_refresh_drops_with_pos_size(panel) -> ShapeClaim:
    """The ~20% refresh saving at large pos sizes (paper §6, panel (b))."""
    first, last = panel.points[0].refresh_s, panel.points[-1].refresh_s
    return ShapeClaim(
        description="refresh time decreases as pos grows (update-generating)",
        holds=last < first,
        evidence=f"refresh {first:.3f}s at pos={panel.points[0].pos_rows:,} → "
                 f"{last:.3f}s at pos={panel.points[-1].pos_rows:,}",
    )


def test_figure9b(benchmark, results_store, save_result):
    panel = benchmark.pedantic(
        lambda: run_panel("b"), rounds=1, iterations=1, warmup_rounds=0
    )
    results_store["b"] = panel

    claims = [
        check_maintenance_beats_rematerialization(panel),
        check_propagate_flat_in_pos_size(panel),
        check_refresh_drops_with_pos_size(panel),
        check_deletions_drop_with_pos_size(panel),
    ]
    report = format_panel(panel) + "\n\n" + format_claims(claims)
    print("\n" + report)
    save_result("figure9b", report)

    assert claims[0].holds, claims[0].evidence
    # The mechanism behind the paper's falling refresh curve must show even
    # when raw timing is recompute-dominated (see EXPERIMENTS.md).
    assert claims[3].holds, claims[3].evidence
