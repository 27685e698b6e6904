"""Spans: parents, cycle ids, children summing to their parent."""

import json

from spans import Tracer


class Ticks:
    """A clock that advances by a fixed step on every reading."""

    def __init__(self, step):
        self.now, self.step = 0.0, step

    def __call__(self):
        self.now += self.step
        return self.now


def test_children_record_their_parent_and_cycle():
    tracer = Tracer(clock=Ticks(1.0))
    tracer.cycle = 4
    with tracer.span("cycle") as cycle:
        with tracer.span("stage") as stage:
            pass
        with tracer.span("refresh", detail="SID_sales") as refresh:
            with tracer.span("recompute") as recompute:
                pass
    tracer.cycle = None
    with tracer.span("probe", probe=True) as probe:
        pass
    assert cycle.parent is None and probe.parent is None
    assert stage.parent == refresh.parent == cycle.id
    assert recompute.parent == refresh.id
    assert {cycle.cycle, stage.cycle, recompute.cycle} == {4}
    assert probe.cycle is None and probe.probe and not cycle.probe
    assert tracer.children(cycle) == [stage, refresh]


def test_children_sum_to_their_parent_up_to_the_gaps_between_them():
    # Every clock reading costs one tick, so a parent with two leaf
    # children spans 5 ticks of which the children cover 1 + 1.
    tracer = Tracer(clock=Ticks(1.0))
    with tracer.span("cycle") as cycle:
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    assert cycle.seconds == 5.0
    assert tracer.coverage(cycle) == 2.0 / 5.0

    # With work far longer than a clock reading the gaps vanish: this is
    # the 2 % rule the traced run checks on real cycles.
    times = iter([0.0, 0.001, 1.001, 1.002, 3.002, 3.003])
    tracer = Tracer(clock=lambda: next(times))
    with tracer.span("cycle") as cycle:
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    assert abs(1.0 - tracer.coverage(cycle)) < 0.02


def test_seconds_sums_spans_of_one_name_cycle_and_detail():
    tracer = Tracer(clock=Ticks(0.5))
    for cycle in (1, 2):
        tracer.cycle = cycle
        for view in ("big", "small"):
            with tracer.span("refresh", detail=view):
                pass
    assert tracer.seconds("refresh", 1) == 1.0
    assert tracer.seconds("refresh", 2, "big") == 0.5
    assert tracer.seconds("refresh", 3) == 0.0


def test_spans_are_written_as_json_lines(tmp_path):
    tracer = Tracer(clock=Ticks(1.0))
    tracer.cycle = 1
    with tracer.span("cycle"):
        with tracer.span("stage"):
            pass
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in records] == ["cycle", "stage"]
    assert records[1]["parent"] == records[0]["id"]
    assert all(r["end"] > r["start"] and r["cycle"] == 1 for r in records)
