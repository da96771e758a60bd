"""The coset graph of the extended binary Golay code: 4,096 vertices, the
largest distance-regular fixture, and the incidence graph of the square
design (r, k, lambda1, t, y) = (24, 24, 2, 3, 2) with v = b = 2048."""

import json
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest

from spbibd.cli import graph_file_doc, main
from util import golay_coset_graph, nx_graph

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def golay(tmp_path_factory):
    path = tmp_path_factory.mktemp("golay") / "golay.json"
    path.write_text(json.dumps(graph_file_doc(golay_coset_graph())))
    return path


def test_the_fixture_has_the_coset_weights_of_the_golay_code():
    # a coset's distance from the code is its least weight, and the cosets
    # of the extended Golay code have least weights 0, 1, 2, 3 and 4 in
    # 1, 24, C(24, 2), C(24, 3) and C(24, 4) / 6 cosets: the vertex counts
    # k_i of the array {24, 23, 22, 21; 1, 2, 3, 24}
    g = golay_coset_graph()
    assert (g.num_vertices, len(g.edges)) == (4096, 49152)
    distances = nx.single_source_shortest_path_length(nx_graph(g), 0)
    assert Counter(distances.values()) == {0: 1, 1: 24, 2: 276, 3: 2024, 4: 1771}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_analyze_graph_reads_the_golay_array_on_both_classes(golay, capsys):
    code, out = run(capsys, "analyze-graph", str(golay))
    doc = json.loads(out)
    assert (code, doc["kind"], doc["eccentricities"]) == (0, "distance-regular", {"Y": 4, "Yprime": 4})
    array = {"b": [24, 23, 22, 21, 0], "c": [0, 1, 2, 3, 24]}
    assert doc["arrays"] == {"Y": array, "Yprime": array}


def test_from_graph_gives_the_square_design(golay, capsys):
    code, out = run(capsys, "from-graph", str(golay), "--points", "Y")
    doc = json.loads(out)
    assert (code, doc["v"], len(doc["blocks"])) == (0, 2048, 2048)
    assert {len(block) for block in doc["blocks"]} == {24}


def _address_space_400mb():
    resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))


def test_check_homogeneous_counts_the_golay_class_in_bounded_memory(golay):
    # 282,624 rows (x, W) of 512 bytes: 145 MB for each matrix over the
    # whole class, but counted in runs the command fits a 400 MB address
    # space
    proc = subprocess.run(
        [sys.executable, "-m", "spbibd.cli", "check-homogeneous", str(golay), "--side", "Y"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        preexec_fn=_address_space_400mb,
        timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == doc["formula_verdict"] == "almost-only"
    assert doc["bruteforce_counts"] == {"1": [1], "2": [1], "3": [0, 1]}
