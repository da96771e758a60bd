import json

import pytest
import spbibd.cli

import families as fam
import oracle
import run
import workloads as wl


@pytest.fixture(scope="module")
def w3_outcomes(tmp_path_factory):
    """Real outputs of every W(3) command, run in this process."""
    d = tmp_path_factory.mktemp("w3")
    v, blocks = fam.symplectic_gq(3)
    case = wl.write_design(d, "w3", v, blocks)
    runner = run.in_process(spbibd.cli)
    return [runner(c) for c in wl.wq_commands(3, case)]


def test_correct_outputs_pass(w3_outcomes):
    assert run.failures(w3_outcomes) == []


def _tamper(outcome, **changes):
    return run.Outcome(outcome.command, changes.get("code", outcome.code), changes.get("out", outcome.out), outcome.err, outcome.seconds)


def _json_tamper(outcome, edit):
    doc = json.loads(outcome.out)
    edit(doc)
    return _tamper(outcome, out=fam.dump(doc).encode())


def test_every_wrong_output_counts_as_failed(w3_outcomes):
    by_args = {o.command.args[:1] + o.command.args[2:]: o for o in w3_outcomes}
    wrong = [
        _json_tamper(by_args[("analyze-design",)], lambda d: d["spbibd"].update(t=2)),
        _json_tamper(by_args[("analyze-design",)], lambda d: d["parameter_homogeneity"].update(full_2p=True)),
        _tamper(by_args[("to-graph",)], out=by_args[("to-graph",)].out.replace(b"1", b"2", 1)),
        _json_tamper(by_args[("analyze-graph",)], lambda d: d["arrays"]["Y"]["c"].__setitem__(2, 2)),
        _json_tamper(by_args[("analyze-graph",)], lambda d: d.update(kind="distance-biregular")),
        _tamper(by_args[("from-graph", "--points", "Yprime")], out=by_args[("from-graph", "--points", "Y")].out),
        _json_tamper(by_args[("check-homogeneous", "--side", "Y")], lambda d: d.update(verdict="2-homogeneous")),
        _json_tamper(by_args[("check-homogeneous", "--side", "Yprime")], lambda d: d["delta"].update({"3": "7"})),
        _json_tamper(by_args[("check-homogeneous", "--side", "Y")], lambda d: d["bruteforce_counts"].update({"3": [1]})),
        _tamper(by_args[("check-homogeneous", "--side", "Y")], code=1),
        _tamper(by_args[("from-graph", "--points", "Y")], code=None),
    ]
    assert len(run.failures(wrong)) == len(wrong)


def test_expected_rejection_counts_as_success_and_other_errors_fail(tmp_path):
    cube = wl.write_graph(tmp_path, "cube8", 256, fam.hypercube_edges(8))
    facts = oracle.graph_facts(cube.n, cube.edges)
    cmd = wl.from_graph_command(cube.n, cube.edges, cube.path, "Y", facts)
    ok = run.in_process(spbibd.cli)(cmd)
    assert ok.code == 1 and run.failures([ok]) == []
    crashed = run.Outcome(cmd, 1, b"", b"Traceback (most recent call last):\n WrongEccentricityError", 0.0)
    other = run.Outcome(cmd, 1, b"", b"error: NotSemiregularError: no", 0.0)
    assert len(run.failures([crashed, other])) == 2


def test_search_csv_must_match_rows_and_digest():
    check = wl.search_csv("full-b")
    rows = [oracle.SEARCH_HEADER] + ["4,4,2,3,2,8,8,K30+K40,unresolved"] * 9
    assert check(0, ("\n".join(rows) + "\n").encode(), b"") == "full-b: CSV digest differs"
    assert "8 rows" in check(0, ("\n".join(rows[:-1]) + "\n").encode(), b"")


def test_times_are_normalised_by_the_reference_times_around_them():
    got = run.normalised([1.0, 2.0], [0.1, 0.2, 0.2])
    assert got == pytest.approx([run.REF_NOMINAL_S / 0.15, run.REF_NOMINAL_S * 2 / 0.2])


def test_reference_job_runs_and_is_checked():
    assert run.reference_time(run.child_env()) > 0
