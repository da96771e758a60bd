import json
import subprocess
import sys
import tracemalloc

import pytest

from spbibd.cli import main


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


@pytest.mark.parametrize("command", ["analyze-graph", "check-homogeneous"])
def test_graph_without_edges_is_a_one_line_error(tmp_path, capsys, command):
    path = tmp_path / "one.json"
    write_json(path, {"n": 1, "edges": []})
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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


def test_duplicate_blocks_need_flag(tmp_path, capsys):
    path = tmp_path / "dup.json"
    write_json(path, {"v": 2, "blocks": [[0, 1], [0, 1]]})
    assert run_cli(capsys, "analyze-design", str(path))[0] == 1
    code, out, _ = run_cli(capsys, "analyze-design", str(path), "--allow-repeated")
    assert code == 0
    assert json.loads(out)["spbibd"]["rejected"] == "repeated-blocks"


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


def test_analyze_graph_reports_non_regularity_witness(tmp_path, capsys):
    gpath = tmp_path / "path4.json"
    run_cli(capsys, "generate", "path", "--n", "4", "--out", str(gpath))
    code, out, _ = run_cli(capsys, "analyze-graph", str(gpath))
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "not-distance-regularized"
    w = rep["witness"]
    assert w is not None and w["counts"][0] != w["counts"][1]


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
