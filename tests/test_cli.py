import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from functools import cache
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from spbibd import generators, graph
from spbibd.cli import _COMMANDS, graph_file_doc, main, parse_graph_file
from spbibd.core import IntersectionArray, edge_masks
from spbibd.correspondence import incidence_graph
from util import hexagonal_prism, hypercube_design, hyperoval_design, hyperoval_dual_design, nearer_planes_plus_one


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture
def gq22_file(tmp_path, capsys):
    path = tmp_path / "gq22.json"
    code, _, _ = run_cli(capsys, "generate", "gq22", "--out", str(path))
    assert code == 0
    return path


def test_generate_writes_design_file(gq22_file):
    doc = json.loads(gq22_file.read_text())
    assert doc["v"] == 15
    assert len(doc["blocks"]) == 15


def test_generate_wq_is_a_generalized_quadrangle(tmp_path, capsys):
    path = tmp_path / "w3.json"
    assert run_cli(capsys, "generate", "wq", "--n", "3", "--out", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "analyze-design", str(path))
    assert code == 0
    sp = json.loads(out)["spbibd"]
    assert (sp["v"], sp["b"], sp["r"], sp["k"], sp["lambda1"]) == (40, 40, 4, 4, 1)


def test_analyze_design_gq22(capsys, gq22_file):
    code, out, _ = run_cli(capsys, "analyze-design", str(gq22_file))
    assert code == 0
    rep = json.loads(out)
    sp = rep["spbibd"]
    assert (sp["v"], sp["b"], sp["r"], sp["k"]) == (15, 15, 3, 3)
    assert (sp["lambda1"], sp["lambda2"], sp["s"], sp["t"]) == (1, 0, 2, 1)
    assert (sp["x"], sp["y"]) == (0, 1)
    assert rep["flags"]["generalized_quadrangle"]
    assert rep["constraints"]["all_pass"]
    assert rep["parameter_homogeneity"]["almost_2p"] and not rep["parameter_homogeneity"]["full_2p"]
    assert rep["parameter_homogeneity"]["almost_2b"] and not rep["parameter_homogeneity"]["full_2b"]


def test_analyze_design_fano_degeneracy(tmp_path, capsys):
    path = tmp_path / "fano.json"
    assert run_cli(capsys, "generate", "fano", "--out", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "analyze-design", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["flags"]["two_design_degenerate"]
    assert rep["spbibd"]["t"] == rep["spbibd"]["k"] == 3
    assert "not_in_scope" in rep["constraints"]


def test_analyze_design_one_point_one_block_is_degenerate(tmp_path, capsys):
    # one point has no pair, so lambda1 is 0 and t is reported as k = 1:
    # the 2-design degeneracy
    path = tmp_path / "one.json"
    write_json(path, {"v": 1, "blocks": [[0]]})
    code, out, _ = run_cli(capsys, "analyze-design", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["spbibd"]["lambda1"] == 0
    assert rep["flags"]["two_design_degenerate"]


def test_analyze_design_negative_verdict_still_exit_zero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    write_json(path, {"v": 3, "blocks": [[0, 1], [0, 1, 2]]})
    code, out, _ = run_cli(capsys, "analyze-design", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["spbibd"]["rejected"] == "not-uniform"


def test_malformed_files_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli(capsys, "analyze-design", str(bad))[0] == 1

    missing = tmp_path / "missing.json"
    write_json(missing, {"v": 3})
    assert run_cli(capsys, "analyze-design", str(missing))[0] == 1

    out_of_range = tmp_path / "range.json"
    write_json(out_of_range, {"v": 3, "blocks": [[0, 3]]})
    code, _, err = run_cli(capsys, "analyze-design", str(out_of_range))
    assert code == 1 and "error" in err

    assert run_cli(capsys, "analyze-graph", str(tmp_path / "nope.json"))[0] == 1

    # graph files refused before any edge is built: one error line each
    refused = {
        "no-vertex.json": ({"n": 0, "edges": []}, "graph needs at least one vertex"),
        "no-edges-field.json": ({"n": 3}, "graph file needs fields 'n' and 'edges'"),
        "no-n-field.json": ({"edges": []}, "graph file needs fields 'n' and 'edges'"),
    }
    for name, (doc, reason) in refused.items():
        path = tmp_path / name
        write_json(path, doc)
        assert run_cli(capsys, "analyze-graph", str(path)) == (1, "", f"error: {path}: {reason}\n")

    # a report that cannot be written is one error line, not a traceback
    good = tmp_path / "one-point.json"
    write_json(good, {"v": 1, "blocks": [[0]]})
    code, out, err = run_cli(capsys, "analyze-design", str(good), "--out", str(tmp_path / "missing" / "x.json"))
    assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err

    # bytes the JSON reader refuses before any field is read: each is one
    # error line, not a traceback
    unreadable = {
        "not-utf8.json": b'{"v": 1, "blocks": [[0]], "x": "\xff"}',
        "too-deep.json": b"[" * 200_000,
        "huge-int.json": b"9" * 5_000,
    }
    for name, content in unreadable.items():
        path = tmp_path / name
        path.write_bytes(content)
        for command in ("analyze-design", "analyze-graph"):
            code, out, err = run_cli(capsys, command, str(path))
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, doc",
    [
        ("analyze-design", {"v": True, "blocks": [[0]]}),
        ("analyze-design", {"v": 2, "blocks": [[0, True]]}),
        ("analyze-graph", {"n": True, "edges": []}),
        ("analyze-graph", {"n": 2, "edges": [[0, True]]}),
        ("analyze-graph", {"n": 2, "edges": [[0, 1]], "partition": [False, True]}),
        ("analyze-graph", {"n": 2, "edges": [[0, 1]], "partition": [0.0, 1.0]}),
    ],
)
def test_json_booleans_and_floats_are_not_integers(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    write_json(path, doc)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "edges, reason",
    [
        ([[0, 1], [1, 1], [2, 5]], "self-loop at vertex 1"),
        # an edge is named as given, not in its sorted orientation
        ([[0, 1], [5, 2], [1, 1]], "edge (5, 2) exceeds vertex range 0..2"),
        ([[0, -1], [2, 2]], "edge (0, -1) exceeds vertex range 0..2"),
        # every edge's type is checked before any edge is built
        ([[1, 1], [0, 1], [0, True]], "edges must be 2-element integer lists"),
        ([[5, 0], [1.0, 2]], "edges must be 2-element integer lists"),
    ],
)
def test_first_bad_edge_of_a_graph_file_decides_the_error(tmp_path, capsys, edges, reason):
    path = tmp_path / "bad.json"
    write_json(path, {"n": 3, "edges": edges})
    assert run_cli(capsys, "analyze-graph", str(path)) == (1, "", f"error: {path}: {reason}\n")


@pytest.mark.parametrize(
    "v, blocks, reason",
    [
        # the first faulty block in canonical (sorted) order, not in file
        # order: an empty block sorts first
        (3, [[0, 5], []], "empty block"),
        (3, [[2, 7], [1], [0, 4]], "block (0, 4) exceeds point range 0..2"),
        # a point or range fault is named before a repeat
        (3, [[0, 1], [0, 1], [5]], "block (5,) exceeds point range 0..2"),
        (3, [], "structure needs at least one block"),
        (0, [], "structure needs at least one point"),
    ],
)
def test_first_bad_block_of_a_design_file_decides_the_error(tmp_path, capsys, v, blocks, reason):
    path = tmp_path / "bad.json"
    write_json(path, {"v": v, "blocks": blocks})
    assert run_cli(capsys, "analyze-design", str(path)) == (1, "", f"error: {path}: {reason}\n")


def test_adjacency_view_is_the_edges_bitsets_with_and_without_a_partition(tmp_path):
    edges = [[0, 1], [0, 2], [3, 1], [3, 2], [4, 1]]
    for partition in (None, [0, 1, 1, 0, 0], [1, 0, 0, 1, 1]):
        path = tmp_path / "g.json"
        write_json(path, {"n": 5, "edges": edges} | ({"partition": partition} if partition else {}))
        g = parse_graph_file(str(path))
        assert list(g.side) == (partition or [0, 1, 1, 0, 0])
        assert g.adjacency_masks == edge_masks(g.num_vertices, g.edges) == edge_masks(5, edges)


def test_a_flipped_partition_keeps_the_cached_bitsets(tmp_path):
    # the CI smoke test's flipped graph: its class 0 does not hold vertex 0,
    # so the parsed graph is the BFS one with the other side; the bitsets
    # that build_bipartite stored come with it, not rebuilt on first use
    path = tmp_path / "flipped.json"
    write_json(path, {"n": 5, "edges": [[0, 1], [0, 2], [3, 1], [3, 2], [4, 1]], "partition": [1, 0, 0, 1, 1]})
    g = parse_graph_file(str(path))
    assert g.side == (1, 0, 0, 1, 1)
    assert "adjacency_masks" in g.__dict__ and "diameter_bound" in g.__dict__
    assert g.adjacency_masks == edge_masks(5, g.edges)


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(("analyze-graph",), id="analyze-graph"),
        pytest.param(("check-homogeneous",), id="check-homogeneous"),
        pytest.param(("check-homogeneous", "--side", "Yprime"), id="check-homogeneous-Yprime"),
        pytest.param(("from-graph", "--points", "Y"), id="from-graph-Y"),
        pytest.param(("from-graph", "--points", "Yprime"), id="from-graph-Yprime"),
    ],
)
def test_graph_without_edges_is_a_one_line_error(tmp_path, capsys, command):
    # the one-vertex graph has an empty class Yprime: every graph command
    # refuses it the same way, whichever class it reads
    path = tmp_path / "one.json"
    write_json(path, {"n": 1, "edges": []})
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert (code, out, err) == (1, "", "error: NoEdgesError: classification needs at least one edge\n")


def test_three_leg_spider_is_not_semiregular_but_its_leaves_are_homogeneous(tmp_path, capsys):
    # the centre and the leaves (class Y) have different arrays; the
    # middle vertices (class Yprime) see a single triple shape
    path = tmp_path / "spider.json"
    write_json(path, {"n": 7, "edges": [[0, 1], [1, 2], [0, 3], [3, 4], [0, 5], [5, 6]]})
    assert run_cli(capsys, "from-graph", str(path)) == (
        1, "", "error: NotSemiregularError: class Y has no common intersection array\n"
    )
    code, out, _ = run_cli(capsys, "check-homogeneous", str(path), "--side", "Yprime")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "2-homogeneous"
    assert rep["bruteforce_counts"] == {"1": [1], "2": [1]}
    assert rep["formula_skipped"] == "graph is not distance-regularized on both sides"


@pytest.mark.parametrize(
    "args",
    [
        ("grid", "--n", "1"),
        ("cycle", "--n", "3"),
        ("path", "--n", "1"),
        ("subdivision", "--n", "1"),
        ("complete", "--v", "0"),
        ("wq", "--n", "1"),
        ("wq", "--n", "4"),
    ],
)
def test_generate_out_of_range_size_is_a_one_line_error(capsys, args):
    code, out, err = run_cli(capsys, "generate", *args)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_generate_wq_names_a_non_prime_within_the_size_limit(capsys):
    assert run_cli(capsys, "generate", "wq", "--n", "6") == (1, "", "error: wq: q must be a prime, got 6\n")


def _address_space_600mb():
    resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))


@pytest.mark.parametrize(
    "args",
    [
        ("cycle", "--n", "100000000"),
        ("path", "--n", "100000000"),
        ("subdivision", "--n", "100000"),
        ("grid", "--n", "100000"),
        ("complete", "--v", "100000", "--b", "100000"),
        ("wq", "--n", "10007"),
        # the size test comes before the prime test: trial division of
        # 2^61 - 1 takes isqrt(q) ~ 1.5e9 steps
        ("wq", "--n", "10000"),
        ("wq", "--n", str(2**61 - 1)),
    ],
    ids=" ".join,
)
def test_generate_refuses_an_oversize_family_before_allocating(args):
    # in a child limited to 600 MB of address space: building first dies
    # with a MemoryError traceback (wq: after a loop of q^4 steps)
    proc = subprocess.run(
        [sys.executable, "-m", "spbibd.cli", "generate", *args],
        capture_output=True,
        text=True,
        preexec_fn=_address_space_600mb,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: {args[0]}: ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(" exceed the limit of 50000 in all\n")
    if args[0] == "cycle":
        assert proc.stderr == (
            "error: cycle: 100000000 vertices and 100000000 edges exceed the limit of 50000 in all\n"
        )


@pytest.fixture(scope="module")
def cycle_25000(tmp_path_factory):
    path = tmp_path_factory.mktemp("cycle") / "c25000.json"
    assert main(["generate", "cycle", "--n", "25000", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize(
    "command",
    [("analyze-graph",), ("from-graph", "--points", "Yprime"), ("check-homogeneous",)],
    ids=" ".join,
)
def test_graph_commands_refuse_layers_that_cannot_fit(cycle_25000, command):
    # generate allows the 25,000-cycle; its distance layers would take about
    # 2e12 bytes.  In a child limited to 600 MB of address space, building
    # them first dies with a MemoryError traceback.
    proc = subprocess.run(
        [sys.executable, "-m", "spbibd.cli", command[0], str(cycle_25000), *command[1:]],
        capture_output=True,
        text=True,
        preexec_fn=_address_space_600mb,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: LayersTooLargeError: the distance layers of 25000 vertices, with a diameter of up to 25000, "
        "would take about 1953203125000 bytes, over the limit of 2147483648\n"
    )


@pytest.mark.parametrize(
    "command, limit",
    [(("analyze-graph",), 10_000), (("from-graph", "--points", "Yprime"), 10_000), (("check-homogeneous",), 4_700)],
    ids=["analyze-graph", "from-graph --points Yprime", "check-homogeneous"],
)
def test_graph_commands_are_not_refused_where_the_layers_fit(tmp_path, capsys, monkeypatch, command, limit):
    # W(3)'s incidence graph: 80 vertices, whose layers (diameter up to 8)
    # take 7,200 bytes, under a limit of 10,000.  Its class scan then runs
    # in runs of one row y (10,000 / 1024 bytes is less than a row of 10)
    # and gives the report of one run.  check-homogeneous, which also
    # counts its brute force in runs, is shown on the 20-cycle, whose
    # layers take 1,050 bytes, under 4,700
    gpath = tmp_path / "g.json"
    if command[0] == "check-homogeneous":
        run_cli(capsys, "generate", "cycle", "--n", "20", "--out", str(gpath))
    else:
        dpath = tmp_path / "w3.json"
        run_cli(capsys, "generate", "wq", "--n", "3", "--out", str(dpath))
        run_cli(capsys, "to-graph", str(dpath), "--out", str(gpath))
    whole = run_cli(capsys, command[0], str(gpath), *command[1:])
    assert whole[0] == 0
    monkeypatch.setattr("spbibd.core.MAX_LAYER_BYTES", limit)
    assert run_cli(capsys, command[0], str(gpath), *command[1:]) == whole


@pytest.mark.parametrize("side", ["Y", "Yprime"])
def test_check_homogeneous_is_not_refused_where_layers_and_scan_fit(tmp_path, capsys, monkeypatch, side):
    # W(5)'s incidence graph: 312 vertices, whose layers (109,512 bytes)
    # fit a limit of 300,000.  Its class scan, 312 rows y of 39 bytes, and
    # its brute force, 780 rows (x, W) of 39 bytes on either side, are
    # counted in runs of about 300,000 / 1024 bytes, and give the report
    # of one run
    dpath, gpath = tmp_path / "w5.json", tmp_path / "w5g.json"
    run_cli(capsys, "generate", "wq", "--n", "5", "--out", str(dpath))
    run_cli(capsys, "to-graph", str(dpath), "--out", str(gpath))
    whole = run_cli(capsys, "check-homogeneous", str(gpath), "--side", side)
    assert whole[0] == 0
    monkeypatch.setattr("spbibd.core.MAX_LAYER_BYTES", 300_000)
    assert run_cli(capsys, "analyze-graph", str(gpath))[0] == 0
    assert run_cli(capsys, "check-homogeneous", str(gpath), "--side", side) == whole


def test_running_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "c8.json"
    run_cli(capsys, "generate", "cycle", "--n", "8", "--out", str(gpath))

    def exhausted(g, side):
        raise MemoryError

    monkeypatch.setattr("spbibd.homogeneity.homogeneity_report_doc", exhausted)
    assert run_cli(capsys, "check-homogeneous", str(gpath)) == (
        1,
        "",
        "error: MemoryError: the command ran out of memory\n",
    )


def test_duplicate_blocks_need_flag(tmp_path, capsys):
    path = tmp_path / "dup.json"
    write_json(path, {"v": 2, "blocks": [[0, 1], [0, 1]]})
    assert run_cli(capsys, "analyze-design", str(path))[0] == 1
    code, out, _ = run_cli(capsys, "analyze-design", str(path), "--allow-repeated")
    assert code == 0
    assert json.loads(out)["spbibd"]["rejected"] == "repeated-blocks"


def test_to_graph_allow_repeated_gives_each_block_a_vertex(tmp_path, capsys):
    design = tmp_path / "c.json"
    graph = tmp_path / "k.json"
    assert run_cli(capsys, "generate", "complete", "--v", "2", "--b", "3", "--out", str(design))[0] == 0
    code, out, err = run_cli(capsys, "to-graph", str(design))
    assert (code, out, err) == (1, "", f"error: {design}: block (0, 1) repeated\n")
    assert run_cli(capsys, "to-graph", str(design), "--allow-repeated", "--out", str(graph))[0] == 0
    doc = json.loads(graph.read_text())
    assert doc["n"] == 5 and len(doc["edges"]) == 6
    code, out, _ = run_cli(capsys, "analyze-graph", str(graph))
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "distance-biregular"
    assert rep["arrays"]["Y"] == {"b": [3, 1, 0], "c": [0, 1, 3]}
    assert rep["arrays"]["Yprime"] == {"b": [2, 2, 0], "c": [0, 1, 2]}


def test_to_graph_then_analyze_graph(tmp_path, capsys, gq22_file):
    gpath = tmp_path / "tc.json"
    assert run_cli(capsys, "to-graph", str(gq22_file), "--out", str(gpath))[0] == 0
    doc = json.loads(gpath.read_text())
    assert doc["n"] == 30 and len(doc["edges"]) == 45
    assert doc["partition"] == [0] * 15 + [1] * 15

    code, out, _ = run_cli(capsys, "analyze-graph", str(gpath))
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "distance-regular"
    assert rep["eccentricities"] == {"Y": 4, "Yprime": 4}
    assert rep["arrays"]["Y"] == {"b": [3, 2, 2, 2, 0], "c": [0, 1, 1, 1, 3]}


def test_from_graph_recovers_gq22(tmp_path, capsys, gq22_file):
    gpath = tmp_path / "tc.json"
    run_cli(capsys, "to-graph", str(gq22_file), "--out", str(gpath))
    dpath = tmp_path / "back.json"
    assert run_cli(capsys, "from-graph", str(gpath), "--points", "Y", "--out", str(dpath))[0] == 0
    assert json.loads(dpath.read_text()) == json.loads(gq22_file.read_text())


def test_to_graph_from_graph_compose_to_identity(tmp_path, capsys, gq22_file):
    gpath = tmp_path / "tc.json"
    run_cli(capsys, "to-graph", str(gq22_file), "--out", str(gpath))
    dpath = tmp_path / "back.json"
    run_cli(capsys, "from-graph", str(gpath), "--points", "Y", "--out", str(dpath))
    gpath2 = tmp_path / "tc2.json"
    assert run_cli(capsys, "to-graph", str(dpath), "--out", str(gpath2))[0] == 0
    assert gpath.read_text() == gpath2.read_text()


def test_from_graph_wrong_eccentricity_exits_nonzero(tmp_path, capsys):
    fpath = tmp_path / "fano.json"
    run_cli(capsys, "generate", "fano", "--out", str(fpath))
    gpath = tmp_path / "heawood.json"
    run_cli(capsys, "to-graph", str(fpath), "--out", str(gpath))
    code, _, err = run_cli(capsys, "from-graph", str(gpath), "--points", "Y")
    assert code == 1
    assert "WrongEccentricity" in err


def test_partition_flip_changes_side_labels(tmp_path, capsys):
    gpath = tmp_path / "sub.json"
    run_cli(capsys, "generate", "subdivision", "--n", "3", "--out", str(gpath))
    doc = json.loads(gpath.read_text())

    code, out, _ = run_cli(capsys, "from-graph", str(gpath), "--points", "Y")
    assert code == 0
    assert json.loads(out)["v"] == 6  # K_{3,3} originals as points

    flipped = dict(doc)
    flipped["partition"] = [1 - p for p in doc["partition"]]
    fpath = tmp_path / "flipped.json"
    write_json(fpath, flipped)
    code, out, _ = run_cli(capsys, "from-graph", str(fpath), "--points", "Y")
    assert code == 0
    assert json.loads(out)["v"] == 9  # file's Y is now the cell class


def test_partition_mismatch_rejected(tmp_path, capsys):
    gpath = tmp_path / "c8.json"
    run_cli(capsys, "generate", "cycle", "--n", "8", "--out", str(gpath))
    doc = json.loads(gpath.read_text())
    doc["partition"] = [0] * 8
    write_json(gpath, doc)
    assert run_cli(capsys, "analyze-graph", str(gpath))[0] == 1


# a star K_{1,2} (vertices 0, 3, 2) with a pendant path 3-1-4; the file's
# class 0 is {1, 2}, the class of vertex 0 is {0, 3, 4}
FLIPPED5 = {"n": 5, "edges": [[0, 1], [0, 2], [3, 1], [3, 2], [4, 1]], "partition": [1, 0, 0, 1, 1]}


def test_flipped_partition_names_the_classes_in_every_report(tmp_path, capsys):
    path = tmp_path / "flipped5.json"
    write_json(path, FLIPPED5)
    code, out, _ = run_cli(capsys, "analyze-graph", str(path))
    assert code == 0
    assert json.loads(out)["counts"]["class_sizes"] == [2, 3]

    code, out, _ = run_cli(capsys, "check-homogeneous", str(path), "--side", "Y")
    assert code == 0
    assert json.loads(out) == {
        "schema": "spbibd.check-homogeneous/1",
        "side": "Y",
        "not_in_scope": "class Y has mixed eccentricities [2, 3]",
    }

    code, out, err = run_cli(capsys, "from-graph", str(path), "--points", "Y")
    assert (code, out) == (1, "")
    assert err == (
        "error: NotSemiregularError: vertex 1 of class Y is not distance-regularized "
        "(witnesses (0, 4) at distance 1)\n"
    )


# graph files with both classes regularized; the first two have classes of
# unequal size, so naming the classes by vertex 0 shows in the reports
_RELABELLED_GRAPHS = {
    "grid3": lambda: incidence_graph(generators.grid_design(3)),
    "subdivision3": lambda: generators.subdivision_complete_bipartite(3),
    "w3": lambda: incidence_graph(generators.symplectic_gq(3)),
    "cube4": lambda: incidence_graph(hypercube_design()),
}


@cache
def _graph_doc(name):
    return graph_file_doc(_RELABELLED_GRAPHS[name]())


@st.composite
def relabelled_graph_files(draw):
    """A graph file and the same file with its vertices permuted, each
    vertex keeping its partition bit."""
    doc = _graph_doc(draw(st.sampled_from(sorted(_RELABELLED_GRAPHS))))
    perm = draw(st.permutations(range(doc["n"])))
    partition = [0] * doc["n"]
    for v, bit in enumerate(doc["partition"]):
        partition[perm[v]] = bit
    edges = [[perm[u], perm[v]] for u, v in doc["edges"]]
    return doc, {"n": doc["n"], "edges": edges, "partition": partition}


def _graph_reports(directory, doc):
    """analyze-graph without its witness, which names vertices, and the
    check-homogeneous report of each side."""
    path, out = directory / "graph.json", directory / "report.json"
    write_json(path, doc)
    reports = []
    for argv in (["analyze-graph"], ["check-homogeneous", "--side", "Y"], ["check-homogeneous", "--side", "Yprime"]):
        assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    del reports[0]["witness"]
    return reports


@settings(derandomize=True, database=None, deadline=None)
@given(relabelled_graph_files())
def test_graph_reports_are_invariant_under_relabelling(files):
    doc, relabelled = files
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        assert _graph_reports(directory, relabelled) == _graph_reports(directory, doc)


_RELABELLED_DESIGNS = {
    "w3": lambda: generators.symplectic_gq(3),
    "grid4": lambda: generators.grid_design(4),
    "cube4": hypercube_design,
    "gq22": generators.gq22,
}


@st.composite
def relabelled_design_files(draw):
    """A design file and the same design with its points permuted and its
    blocks shuffled."""
    d = _RELABELLED_DESIGNS[draw(st.sampled_from(sorted(_RELABELLED_DESIGNS)))]()
    perm = draw(st.permutations(range(d.num_points)))
    blocks = draw(st.permutations([[perm[p] for p in blk] for blk in d.blocks]))
    return {"v": d.num_points, "blocks": [list(b) for b in d.blocks]}, {"v": d.num_points, "blocks": blocks}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(relabelled_design_files())
def test_design_report_is_invariant_under_relabelling(files):
    doc, relabelled = files
    with tempfile.TemporaryDirectory() as tmp:
        reports = []
        for n, content in enumerate((doc, relabelled)):
            path = Path(tmp) / f"design{n}.json"
            write_json(path, content)
            assert main(["analyze-design", str(path), "--out", str(path.with_suffix(".out"))]) == 0
            reports.append(path.with_suffix(".out").read_bytes())
        assert reports[1] == reports[0]


def test_analyze_graph_reports_non_regularity_witness(tmp_path, capsys):
    gpath = tmp_path / "path4.json"
    run_cli(capsys, "generate", "path", "--n", "4", "--out", str(gpath))
    code, out, _ = run_cli(capsys, "analyze-graph", str(gpath))
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "not-distance-regularized"
    w = rep["witness"]
    assert w is not None and w["counts"][0] != w["counts"][1]


def test_from_graph_names_the_witness_of_its_own_class(tmp_path, capsys):
    # both classes of the 8-path are irregular; Y's first witness is at
    # vertex 2, Yprime's at vertex 1
    gpath = tmp_path / "p8.json"
    run_cli(capsys, "generate", "path", "--n", "8", "--out", str(gpath))
    assert run_cli(capsys, "from-graph", str(gpath), "--points", "Yprime") == (
        1,
        "",
        "error: NotSemiregularError: vertex 1 of class Yprime is not distance-regularized "
        "(witnesses (0, 2) at distance 1)\n",
    )


_CLASS_SCAN_MUTANTS = [
    # every pair in count 0 reads the hexagonal prism C6 x K2, cubic but
    # not distance-regularized, as uniform; levels 0 and 1 come from the
    # degrees, so only c_2.. read the mutant
    (
        lambda g, order: [],
        hexagonal_prism(),
        "class scan array (3, 2, 3, 3, 3), (0, 1, 0, 0, 0) miscounts the layers [1, 3, 4, 3, 1] of vertex 0",
    ),
    # every count one too high keeps the 8-cycle uniform, with b_2 = 0 and c_2 = 2
    (
        nearer_planes_plus_one,
        generators.even_cycle(8),
        "class scan array (2, 1, 0, 0, -1), (0, 1, 2, 2, 3) miscounts the layers [1, 2, 2, 2, 1] of vertex 0",
    ),
]


def test_analyze_graph_reports_a_failed_class_scan_cross_check(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "g.json"
    for mutant, g, message in _CLASS_SCAN_MUTANTS:
        monkeypatch.setattr("spbibd.graph.nearer_planes", mutant)
        write_json(gpath, graph_file_doc(g))
        assert run_cli(capsys, "analyze-graph", str(gpath)) == (3, "", f"error: ConsistencyError: {message}\n")


def test_from_graph_reports_a_failed_size_cross_check(tmp_path, capsys, monkeypatch):
    # W(3)'s array given to the Tutte-Coxeter graph's points derives 40
    # points and 40 blocks from 15 + 15 vertices: a defect, exit 3
    real = graph.classify
    w3 = IntersectionArray((4, 3, 3, 3, 0), (0, 1, 1, 1, 4))
    monkeypatch.setattr(graph, "classify", lambda g: real(g)._replace(array_y=w3))
    gpath = tmp_path / "tc.json"
    write_json(gpath, graph_file_doc(generators.tutte_coxeter()))
    assert run_cli(capsys, "from-graph", str(gpath)) == (
        3,
        "",
        "error: ConsistencyError: derived sizes (40, 40) disagree with class sizes (15, 15)\n",
    )


def test_check_homogeneous_tutte(tmp_path, capsys, gq22_file):
    gpath = tmp_path / "tc.json"
    run_cli(capsys, "to-graph", str(gq22_file), "--out", str(gpath))
    code, out, _ = run_cli(capsys, "check-homogeneous", str(gpath), "--side", "Y")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "almost-only"
    assert rep["formula_verdict"] == "almost-only"
    assert rep["delta"] == {"1": "0", "2": "0", "3": "2"}
    assert rep["p2ii"] == {"2": "1", "3": "5"}
    assert rep["bruteforce_counts"]["3"] == [0, 1]


def test_check_homogeneous_subdivision_valency_two_side(tmp_path, capsys):
    gpath = tmp_path / "sub.json"
    run_cli(capsys, "generate", "subdivision", "--n", "3", "--out", str(gpath))
    code, out, _ = run_cli(capsys, "check-homogeneous", str(gpath), "--side", "Y")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "2-homogeneous"
    assert rep["formula_verdict"] is None
    assert "k'" in rep["formula_skipped"]


def test_search_csv_deterministic(tmp_path, capsys):
    args = ["search", "--target", "almost-p", "--max-r", "12", "--max-k", "12"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "r,k,lambda1,t,y,v,b,targets_satisfied,existence=unresolved"
    assert all(line.endswith(",unresolved") for line in lines[1:])


def test_search_bounds_error_exit(capsys):
    code, _, err = run_cli(capsys, "search", "--target", "almost-p", "--max-r", "3", "--max-k", "3")
    assert code == 1
    assert "BoundsTooSmall" in err
    code, out, err = run_cli(
        capsys, "search", "--target", "almost-p", "--max-r", "10", "--max-k", "10", "--force-y", "0"
    )
    assert code == 1 and out == ""
    assert "BoundsTooSmall" in err


def test_reports_are_byte_deterministic(capsys, gq22_file):
    _, out1, _ = run_cli(capsys, "analyze-design", str(gq22_file))
    _, out2, _ = run_cli(capsys, "analyze-design", str(gq22_file))
    assert out1 == out2


def test_human_rendering(capsys, gq22_file):
    code, out, _ = run_cli(capsys, "analyze-design", str(gq22_file), "--human")
    assert code == 0
    assert "generalized_quadrangle: True" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spbibd.cli", "generate", "grid", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["v"] == 9 and len(doc["blocks"]) == 6


# a bad command line -> a word its error line must name; no file is read
USAGE_ERRORS = {
    "no arguments": ((), "a command is required"),
    "unknown command": (("nope",), "'nope'"),
    "unknown option": (("analyze-graph", "g.json", "--verbose"), "'--verbose'"),
    "abbreviated option": (("search", "--target", "full-b", "--max", "12", "--max-k", "12"), "'--max'"),
    "missing required option": (("search", "--target", "full-b", "--max-r", "12"), "--max-k"),
    "missing option value": (("search", "--target", "full-b", "--max-k", "12", "--max-r"), "--max-r"),
    "option as option value": (("search", "--target", "full-b", "--max-r", "--max-k", "12"), "--max-r"),
    "non-integer --max-r": (("search", "--target", "full-b", "--max-r", "twelve", "--max-k", "12"), "'twelve'"),
    "bad --side": (("check-homogeneous", "g.json", "--side", "Z"), "'Z'"),
    "bad --points": (("from-graph", "g.json", "--points", "blocks"), "'blocks'"),
    "bad --target": (("search", "--target", "nope", "--max-r", "12", "--max-k", "12"), "'nope'"),
    "bad family": (("generate", "petersen"), "'petersen'"),
    "extra positional": (("analyze-graph", "g.json", "h.json"), "'h.json'"),
    "flag with a value": (("analyze-design", "d.json", "--human=yes"), "'--human=yes'"),
}


@pytest.mark.parametrize("argv, needle", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_bad_command_lines_are_usage_errors(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    usage, error = err.splitlines()
    command = argv[0] if argv and argv[0] in _COMMANDS else "[-h]"
    assert usage.startswith(f"usage: spbibd {command} ")
    assert error.startswith("spbibd: error: ") and needle in error


def test_equals_form_and_repeated_options_read_as_the_spaced_form(tmp_path, capsys):
    tc = str(tmp_path / "tc.json")
    assert run_cli(capsys, "generate", "tutte-coxeter", "--out", tc)[0] == 0
    spaced_search = ("search", "--target", "full-b", "--max-r", "12", "--max-k", "12")
    cases = [
        (("search", "--target=full-b", "--max-r=12", "--max-k=12"), spaced_search),
        (("search", "--max-k", "9", "--target", "full-b", "--max-r", "12", "--max-k=12"), spaced_search),
        (("check-homogeneous", tc, "--side=Yprime"), ("check-homogeneous", tc, "--side", "Yprime")),
        (("check-homogeneous", "--side", "Y", tc, "--side", "Yprime"), ("check-homogeneous", tc, "--side", "Yprime")),
        (("generate", "grid", "--n", "3", "--n=5"), ("generate", "grid", "--n", "5")),
    ]
    for given, spaced in cases:
        got = run_cli(capsys, *given)
        assert got == run_cli(capsys, *spaced) and got[0] == 0 and got[1], given
    # the last value wins, not the first
    assert run_cli(capsys, "generate", "grid", "--n", "3") != run_cli(capsys, "generate", "grid", "--n", "5")


def test_a_negative_number_after_an_option_is_its_value(capsys):
    code, out, err = run_cli(capsys, "search", "--target", "almost-b", "--max-r", "20", "--max-k", "20", "--force-y", "-1")
    assert (code, out, err) == (1, "", "error: BoundsTooSmallError: force_y = -1; y must be at least 1\n")


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_names_every_command_and_option_of_the_table(capsys, command, flag):
    # help comes before the check for required arguments
    code, out, err = run_cli(capsys, flag) if command is None else run_cli(capsys, command, flag)
    assert (code, err) == (0, "")
    assert out.startswith("usage: spbibd ")
    if command is None:
        assert all(f"  {name} " in out and entry[0] in out for name, entry in _COMMANDS.items())
    else:
        for name, _, _, _, text in _COMMANDS[command][2]:
            assert text in out and (name in out or not name.startswith("-")), name


def test_sparse_design_with_huge_v_is_analyzed_in_small_memory(tmp_path, capsys):
    path = tmp_path / "sparse.json"
    write_json(path, {"v": 10**8, "blocks": [[0, 1], [1, 2]]})
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "analyze-design", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000
    report = json.loads(out)
    assert report["uniform"] == {
        "witness": {"what": "replication", "indices": [0, 1], "values": [1, 2]}
    }
    assert report["spbibd"] == {
        "rejected": "not-uniform",
        "detail": "replication differs: (1, 2) at (0, 1)",
    }


def test_disjoint_pairs_are_analyzed_in_memory_linear_in_v(tmp_path, capsys):
    # 8,000 disjoint pairs: every point has one lambda1-mate, so the flag
    # and non-flag counts may not keep a v-bit set per point (v^2/16 bytes)
    v = 16_000
    path = tmp_path / "pairs.json"
    write_json(path, {"v": v, "blocks": [[p, p + 1] for p in range(0, v, 2)]})
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "analyze-design", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 750 * v
    report = json.loads(out)["spbibd"]
    assert (report["lambda1"], report["s"], report["t"]) == (1, 1, 0)


def test_singleton_blocks_are_analyzed_in_small_memory(tmp_path, capsys):
    # 1500 points in 1500 one-point blocks: no pair of points shares a block
    # and no pair of blocks a point, so nothing may be stored per pair
    path = tmp_path / "singletons.json"
    write_json(path, {"v": 1500, "blocks": [[p] for p in range(1500)]})
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "analyze-design", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5_000_000
    # recorded when every pair was stored (126 MB peak RSS, 2.6-3.9 s)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "de48284a6252198025f422a0c2aa4404125075656344cd7fe63f60d758d67bef"
    )


_GOLDEN_GENERATED = {
    "gq22": ("gq22",),
    "fano": ("fano",),
    "grid3": ("grid", "--n", "3"),
    "tutte": ("tutte-coxeter",),
    "cycle12": ("cycle", "--n", "12"),
    "path8": ("path", "--n", "8"),
    "subdivision4": ("subdivision", "--n", "4"),
    "w3": ("wq", "--n", "3"),
    "grid5": ("grid", "--n", "5"),
}
_GOLDEN_WRITTEN = {
    "nonuniform": {"v": 3, "blocks": [[0, 1], [0, 1, 2]]},
    "repeated": {"v": 4, "blocks": [[0, 1], [0, 1], [2, 3], [2, 3]]},
    # translates of {0, 1, 2} in Z_9: concurrences 2, 1 and 0
    "cyclic9": {"v": 9, "blocks": [[(i + j) % 9 for j in range(3)] for i in range(9)]},
    # (8, 8, 4, 4, 2, 0) of type (3, 3), y = 2: the only report here with
    # the five y > 1 rows of the constraint checklist
    "cube4": {"v": 8, "blocks": [list(blk) for blk in hypercube_design().blocks]},
    # uniform with concurrences {2, 1}, but point 1 of block 0 has one
    # lambda1-mate there where point 0 has two
    "flagcount": {"v": 5, "blocks": [[0, 1, 2], [0, 1, 4], [0, 2, 3], [1, 3, 4], [2, 3, 4]]},
    # the only "neither" verdict among the golden reports
    "desargues": {"n": 20, "edges": [list(e) for e in nx.desargues_graph().edges()]},
    # the q = 4 hyperoval design: y = 2 and c_2 = 4, 2-homogeneous on Y
    # with Delta = 0, 0, 0, neither on Yprime with Delta = 0, 30, 60
    "hyperoval": {"v": 24, "blocks": [list(blk) for blk in hyperoval_design().blocks]},
}
# incidence graphs, written by to-graph from the design file of that name
_GOLDEN_INCIDENCE = {
    "w3-graph": "w3",
    "cube4-graph": "cube4",
    "grid5-graph": "grid5",
    "hyperoval-graph": "hyperoval",
}
# SHA-256 of stdout, recorded before the report records became NamedTuples
# (they were frozen dataclasses serialized by dataclasses.asdict).  Between
# them the reports serialize every record of a report section:
# QuasiSymmetryInfo, SpbibdParams, ConstraintReport with its
# ConstraintChecks, ParameterHomogeneity, IntersectionArray,
# NotRegularizedAt, and NotUniform and NotSpbibd in the rejections.
GOLDEN_REPORTS = {
    ("analyze-design", "gq22"): "d3f1e8bcfee1768f5ee0ad0c97bdad09cae0f3fd476a5a1b883eb6e2a54bd640",
    ("analyze-design", "gq22", "--human"): "5dd2b303682dcc5895d09df77ca26dd6caaaeb3fdae2b8ba050afcf6add2a46b",
    ("analyze-design", "fano"): "3666e4c6a2ae34f26c72a834247a275e6cdb1a257f875e629e650fc9d27a5fa3",
    ("analyze-design", "fano", "--human"): "5e37ab0dccb5eddab860ea17c338ddbb4d1477d9acc50f20b9b8cab3a0c28662",
    ("analyze-design", "grid3"): "ea45a7b8a5453692f42985b9b22875b66af9fbe61b75a3602ac9c19049513467",
    ("analyze-design", "grid3", "--human"): "cf8f5f3c8e56ea922ba0f2964077d69b30d30fb2e780fe75b0d4f23bed4a781d",
    ("analyze-design", "nonuniform"): "e22b996d2d19279645fa67b88a14ecf319e7d0a5a6c865e1ae7fc43f018aec0b",
    ("analyze-design", "nonuniform", "--human"): "33c28d087c1f19ce8f5d0063fabb9267629b0ffb4ace7585374cfb75c97708c9",
    ("analyze-design", "cyclic9"): "2737a669f90a65ee0d59e6987294cc4643eb2e0897874425d07c0f71dd65cc59",
    ("analyze-design", "cyclic9", "--human"): "714a42722a81e340cefbc6f776fc5d51c318b2c1cbee56d310db9aa8648c8744",
    ("analyze-design", "repeated", "--allow-repeated"): "eea9e318f888681c6e2a037775e4b2e79132ee2e0bebe8cb71d49696c5652128",
    ("analyze-design", "repeated", "--allow-repeated", "--human"): (
        "d56032adfda661fe6a074396e30927e308f05265d2c5d66d024c0f9eedd95152"
    ),
    # recorded before the scope inequalities moved to one table in core
    ("analyze-design", "cube4"): "354a081d6fb16739a52a09f92ceab9a96fa8bde6ac496af0e60bca57567dfb92",
    ("analyze-design", "cube4", "--human"): "d202f4baafdea2dac64be673b3d76ebfa30df6c4d5ce032155535fa63a9cc846",
    ("analyze-graph", "tutte"): "454d9dc1472fa0416a500faa5387ff786124db7b3962b927163abfe1217044fe",
    ("analyze-graph", "cycle12"): "0fe85902ce8a7ca095b89f9502043b04535c04953d2357c2f412b66823f068d6",
    ("analyze-graph", "path8"): "d3f7aaebbc57c09e4807877b413170c5d662f97e435ce3398f1cbd6d51514968",
    ("check-homogeneous", "tutte", "--side", "Y"): (
        "523c8c9e24a78639a1bf932ba816e473f2c367c1bd16b60eebfbbc2b2a9705cd"
    ),
    ("check-homogeneous", "tutte", "--side", "Yprime"): (
        "2d0da9cfb61897a947045764013626e6ec524eb2b818c14e7e191b85b5b305c2"
    ),
    ("check-homogeneous", "subdivision4", "--side", "Y"): (
        "7b191424ba479df82601c92b590e7e66d32f3b2d87521d6cd837834b8f058112"
    ),
    ("check-homogeneous", "subdivision4", "--side", "Yprime"): (
        "4aeb47b408a7a976ad3b7688ae6e84058d5348d72c6a0e0b9c3d84df43481276"
    ),
    # recorded before the brute force grouped its y by common neighbours
    # and spbibd_type counted flags through lambda1-mate bitsets
    ("analyze-design", "w3"): "c34be9725237e4db0d492ff3b998b6c673f4441980a892a57d245521623b84a9",
    ("analyze-design", "flagcount"): "c1a82fda79d73ba2f89694d990b544b1e0a8c99b0b91d7e066c1b0c1ad31b9c4",
    ("check-homogeneous", "w3-graph", "--side", "Y"): (
        "0d6787e8408476c0b3dccc6537c75b2a5a2bcfc414ade881cdc9caa8b47f95b9"
    ),
    ("check-homogeneous", "w3-graph", "--side", "Yprime"): (
        "ca39b83ee54d16348a1e04ed563e9f335100632605dafd36f65098a022888637"
    ),
    ("check-homogeneous", "cube4-graph", "--side", "Y"): (
        "8a33c8db493b75b7a91489dcad9fbd12ddb2e52f9d29949e94ddbf82f018c23e"
    ),
    ("check-homogeneous", "cube4-graph", "--side", "Yprime"): (
        "9a117c8cd67edb278d4d6846506250a127c6ee849f65ccc311a811df46c1c397"
    ),
    ("check-homogeneous", "grid5-graph", "--side", "Y"): (
        "76babac5f0c282c571e4493d7fd2079219a4f6235c10cf0280c38c5592195a3c"
    ),
    ("check-homogeneous", "desargues", "--side", "Y"): (
        "0602ecfb0448d45f0e14694b08459d04fbf4a2a8cfc5d394b7ebb2ca31540cd9"
    ),
    ("check-homogeneous", "desargues", "--side", "Yprime"): (
        "e2c85e47860c686dc59087e17d6ef8d8de6cc0e19cff1f03caccfb131443e9d4"
    ),
    # recorded before homogeneous_by_formula became the one formula route
    ("analyze-design", "hyperoval"): "acfdcd08f8f266e2aca8a7f2a842c6dc384227a51130499b55d376a1ca68b33d",
    ("check-homogeneous", "hyperoval-graph", "--side", "Y"): (
        "c0d348e1fb6abefe2c251e55dea8a47c5329c0781b357d933b669bb0cfb4b660"
    ),
    ("check-homogeneous", "hyperoval-graph", "--side", "Yprime"): (
        "8009c4dee8043085f0352c47a9894c2cb9a867a3068166b09c97ea2575a7b84c"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_REPORTS), ids=" ".join)
def test_report_bytes_are_pinned(tmp_path, capsys, argv):
    command, name, *flags = argv

    def golden_file(name):
        path = tmp_path / f"{name}.json"
        if name in _GOLDEN_WRITTEN:
            write_json(path, _GOLDEN_WRITTEN[name])
        elif name in _GOLDEN_INCIDENCE:
            source = golden_file(_GOLDEN_INCIDENCE[name])
            assert run_cli(capsys, "to-graph", str(source), "--out", str(path))[0] == 0
        else:
            assert run_cli(capsys, "generate", *_GOLDEN_GENERATED[name], "--out", str(path))[0] == 0
        return path

    code, out, _ = run_cli(capsys, command, str(golden_file(name)), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORTS[argv]


# The dual of the hyperoval design, (6, 16, 2, 10, 4, 64, 24): a real
# in-scope design that the scope row `t < r` rejects (10 < 6).  PAPER.md
# states only 0 < y <= t < k, whose dual is t*lambda1/y < r, not t < r.
ITEM_1_DEFECT = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: t < r is not closed under duality")


@pytest.fixture
def hyperoval_dual_file(tmp_path):
    path = tmp_path / "hyperoval-dual.json"
    write_json(path, {"v": 64, "blocks": [list(blk) for blk in hyperoval_dual_design().blocks]})
    return path


def test_hyperoval_dual_is_in_scope_and_both_routes_agree(tmp_path, capsys, hyperoval_dual_file):
    code, out, _ = run_cli(capsys, "analyze-design", str(hyperoval_dual_file))
    assert code == 0
    report = json.loads(out)
    assert report["flags"]["in_scope"] is True
    assert [c["name"] for c in report["constraints"]["checks"] if not c["holds"]] == ["t < r"]
    graph_path = tmp_path / "hyperoval-dual-graph.json"
    assert run_cli(capsys, "to-graph", str(hyperoval_dual_file), "--out", str(graph_path))[0] == 0
    verdicts = {}
    for side in ("Y", "Yprime"):
        code, out, _ = run_cli(capsys, "check-homogeneous", str(graph_path), "--side", side)
        assert code == 0
        rep = json.loads(out)
        assert rep["formula_skipped"] is None
        assert rep["formula_verdict"] == rep["verdict"]
        verdicts[side] = rep["verdict"]
    # the block class of the dual is the point class of the hyperoval design
    assert verdicts == {"Y": "neither", "Yprime": "2-homogeneous"}


@ITEM_1_DEFECT
def test_hyperoval_dual_passes_every_constraint(capsys, hyperoval_dual_file):
    code, out, _ = run_cli(capsys, "analyze-design", str(hyperoval_dual_file))
    assert code == 0
    assert json.loads(out)["constraints"]["all_pass"] is True


@ITEM_1_DEFECT
def test_full_b_search_lists_the_hyperoval_dual(capsys):
    code, out, _ = run_cli(capsys, "search", "--target", "full-b", "--max-r", "20", "--max-k", "20")
    assert code == 0
    assert "6,16,2,10,4,64,24" in [",".join(row.split(",")[:7]) for row in out.splitlines()]


def test_cli_import_loads_no_dataclass_machinery():
    # measured against a bare interpreter, so a site that already loads
    # them does not count against the package
    probe = "import sys; {}print(' '.join(sorted(sys.modules)))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}

    def modules(statement):
        proc = subprocess.run(
            [sys.executable, "-c", probe.format(statement)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    bare = modules("")
    loaded = modules("import spbibd.cli; ")
    assert "spbibd.cli" in loaded
    assert not {"dataclasses", "inspect"} & (loaded - bare)
