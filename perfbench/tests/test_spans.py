import json

import spbibd.cli
import spbibd.graph
import spbibd.homogeneity

import run
from spans import Recorder, layer_metrics, self_and_total


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    rec = Recorder(clock=fake_clock(0, 1, 2, 4, 5, 6, 7, 10))
    a = rec.open("A")
    b = rec.open("B")
    c = rec.open("C")
    rec.close(c)  # C: 2..4
    rec.close(b)  # B: 1..5
    b = rec.open("B")
    rec.close(b)  # B: 6..7
    rec.close(a)  # A: 0..10
    self_t, total_t, calls = self_and_total(rec.spans)
    assert self_t == {"A": 10 - 4 - 1, "B": (4 - 2) + 1, "C": 2}
    assert total_t == {"A": 10, "B": 5, "C": 2}
    assert calls == {"A": 1, "B": 2, "C": 1}


def test_total_time_counts_a_recursive_span_once():
    rec = Recorder(clock=fake_clock(0, 1, 3, 4))
    outer = rec.open("A")
    inner = rec.open("A")
    rec.close(inner)
    rec.close(outer)
    self_t, total_t, _ = self_and_total(rec.spans)
    assert total_t["A"] == 4
    assert self_t["A"] == 4  # 2 outside the inner span, 2 inside it


def test_install_patches_every_binding_and_uninstall_restores(tmp_path, capsys):
    original = spbibd.graph.classify
    rec = Recorder()
    rec.install()
    try:
        assert spbibd.homogeneity.classify is spbibd.graph.classify is not original
        assert spbibd.cli.classify is spbibd.graph.classify
        path = tmp_path / "gq22.json"
        assert spbibd.cli.main(["generate", "tutte-coxeter", "--out", str(path)]) == 0
        assert spbibd.cli.main(["check-homogeneous", str(path)]) == 0
    finally:
        rec.uninstall()
    capsys.readouterr()
    assert spbibd.homogeneity.classify is spbibd.graph.classify is original
    m = layer_metrics(rec, 0)
    # 30 BFS for all_distances, 30 more in classify
    assert m["graph.bfs_distances.calls"] == 60
    assert m["graph.local_intersection_numbers.calls"] == 30
    assert m["homogeneity.delta_value.calls"] > 0
    assert m["homogeneity.homogeneous_by_bruteforce_s"] > 0
    assert m["search.admissible_ratio"] == 0.0


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    reported = ["cli.import_s", *layer_metrics(Recorder(), 0), "trace_overhead_frac"]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(k, run.per_layer_unit(k)) for k in reported]
