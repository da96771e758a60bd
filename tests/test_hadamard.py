"""The Sylvester Hadamard graphs of orders 4, 8 and 16: distance-regular
fixtures with c_2 = n/2 = 2, 4 and 8, read through every command."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from spbibd import graph
from spbibd.cli import graph_file_doc, main
from spbibd.core import IntersectionArray
from spbibd.correspondence import design_from_graph
from spbibd.graph import KIND_DISTANCE_REGULAR, classify, local_intersection_numbers
from spbibd.homogeneity import homogeneity_report
from spbibd.search import enumerate_candidates
from util import bruteforce_oracle, relabeled_graph, sylvester_hadamard_graph

ORDERS = (4, 8, 16)


def hadamard_array(n):
    return IntersectionArray((n, n - 1, n // 2, 1, 0), (0, 1, n // 2, n - 1, n))


@pytest.mark.parametrize("n", ORDERS)
def test_classify_reads_the_hadamard_array(monkeypatch, n):
    g = sylvester_hadamard_graph(n)
    scanned = []
    monkeypatch.setattr(graph, "local_intersection_numbers", lambda g, v: scanned.append(v))
    cls = classify(g)
    assert scanned == []  # both classes are uniform: their arrays come from the class scan
    assert cls.kind == KIND_DISTANCE_REGULAR
    assert cls.array_y == cls.array_yprime == hadamard_array(n)
    assert cls.ecc_y == cls.ecc_yprime == 4
    # the per-vertex kernel agrees at every vertex
    assert {local_intersection_numbers(g, v) for v in range(4 * n)} == {hadamard_array(n)}


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("side", ["Y", "Yprime"])
def test_both_classes_are_two_homogeneous_by_both_routes(n, side):
    g = sylvester_hadamard_graph(n)
    rep = homogeneity_report(g, side)
    counts, verdict = bruteforce_oracle(g, side)
    assert rep.verdict == rep.formula_verdict == verdict == "2-homogeneous"
    assert rep.bruteforce_counts == counts


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("points", ["Y", "Yprime"])
def test_from_graph_gives_the_hadamard_design(tmp_path, capsys, n, points):
    gpath, dpath = tmp_path / "h.json", tmp_path / "d.json"
    gpath.write_text(json.dumps(graph_file_doc(sylvester_hadamard_graph(n))))
    p = design_from_graph(sylvester_hadamard_graph(n), points).params
    assert (p.v, p.b, p.r, p.k, p.lambda1, p.s, p.t, p.y) == (2 * n, 2 * n, n, n, n // 2, n - 1, n - 1, n // 2)
    assert run(capsys, "from-graph", str(gpath), "--points", points, "--out", str(dpath)) == (0, "")
    code, out = run(capsys, "analyze-design", str(dpath))
    rep = json.loads(out)
    assert code == 0 and rep["flags"]["in_scope"]
    assert rep["constraints"]["all_pass"]
    sp = rep["spbibd"]
    assert (sp["v"], sp["b"], sp["r"], sp["k"], sp["lambda1"], sp["t"], sp["y"]) == (
        2 * n, 2 * n, n, n, n // 2, n - 1, n // 2
    )


@pytest.mark.parametrize("target", ["almost-p", "full-p", "almost-b", "full-b"])
def test_every_search_target_lists_the_hadamard_rows(target):
    rows = {(c.r, c.k, c.lambda1, c.t, c.y, c.v, c.b) for c in enumerate_candidates(20, 20, target)}
    for n in ORDERS:
        assert (n, n, n // 2, n - 1, n // 2, 2 * n, 2 * n) in rows


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from(ORDERS), st.randoms(use_true_random=False))
def test_hadamard_verdicts_are_invariant_under_relabelling(n, rng):
    g, perm = relabeled_graph(sylvester_hadamard_graph(n), rng)
    cls = classify(g)
    assert cls.kind == KIND_DISTANCE_REGULAR
    assert cls.array_y == cls.array_yprime == hadamard_array(n)
    side = "Y" if g.side[perm[0]] == 0 else "Yprime"  # the rows' class
    p = design_from_graph(g, side).params
    assert (p.v, p.b, p.lambda1, p.t, p.y) == (2 * n, 2 * n, n // 2, n - 1, n // 2)
    rep = homogeneity_report(g, side)
    assert rep.verdict == rep.formula_verdict == "2-homogeneous"
