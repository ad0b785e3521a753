import json
import re
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

import fixtures
from mgl.cli import build_parser, run
from mgl.domination import DOMINATION_TOL
from mgl.errors import SchemaError
from mgl.bundles import load_bundle
from mgl.graphs import load_graph
from mgl.serialize import dump_report, jsonable


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def p2_spec(tmp_path):
    return write_json(tmp_path / "p2.json", fixtures.P2_GRAPH_DOC)


@pytest.fixture
def diamagnetic_specs(tmp_path):
    graph_doc, bundle_doc = fixtures.diamagnetic_docs()
    return (
        write_json(tmp_path / "graph.json", graph_doc),
        write_json(tmp_path / "bundle.json", bundle_doc),
    )


def test_validate_ok(p2_spec, capsys):
    assert run(["validate", "--graph", p2_spec]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["graph"]["ok"] is True


def test_validate_loop_edge_names_axiom(tmp_path, capsys):
    spec = write_json(
        tmp_path / "loop.json", {"n": 1, "edges": [{"u": 0, "v": 0, "b": 1.0}]}
    )
    assert run(["validate", "--graph", spec]) == 2
    assert "(b1)" in capsys.readouterr().err


def test_validate_missing_file_exit_2(tmp_path):
    assert run(["validate", "--graph", str(tmp_path / "missing.json")]) == 2


def test_validate_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["validate", "--graph", str(bad)]) == 2


def test_validate_failing_bundle_exit_1(tmp_path, p2_spec):
    bundle = write_json(
        tmp_path / "bundle.json",
        {
            "rank": 1,
            "connection": [{"u": 0, "v": 1, "matrix": [[[2.0, 0.0]]]}],
        },
    )
    assert run(["validate", "--graph", p2_spec, "--bundle", bundle]) == 1


def test_dominate_diamagnetic_pass(diamagnetic_specs, tmp_path):
    graph_spec, bundle_spec = diamagnetic_specs
    out = tmp_path / "report.json"
    code = run(
        ["dominate", "--graph", graph_spec, "--bundle", bundle_spec,
         "--samples", "40", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["hypothesis"]["passed"] is True
    for key in ("form", "resolvent", "semigroup"):
        assert report[key]["passed"] is True
    assert report["consistent"] is True
    assert report["metadata"]["seed"] == 42


def test_dominate_counterexample_consistent_failure(tmp_path):
    # Positive killing with zero endomorphism: the sufficient condition
    # fails and all three verdicts fail together; consistency holds.
    graph = write_json(
        tmp_path / "g.json",
        {"n": 3, "edges": [{"u": 0, "v": 1, "b": 1.0}, {"u": 1, "v": 2, "b": 0.5}],
         "killing": [0.5, 0.0, 0.0]},
    )
    bundle = write_json(tmp_path / "b.json", {"rank": 1})
    out = tmp_path / "report.json"
    code = run(
        ["dominate", "--graph", graph, "--bundle", bundle, "--samples", "30",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["hypothesis"]["passed"] is False
    for key in ("form", "resolvent", "semigroup"):
        assert report[key]["passed"] is False
        assert report[key]["witness_vector"] is not None
    assert report["consistent"] is True


def test_dominate_fails_every_level_along_the_worst_fiber(tmp_path):
    # P30, c = 0.5, rank 2, W = [[0.51, s], [s, 0.51]]: every diagonal entry
    # of W is at least c, but lambda_min(W - c) = 0.01 - s < 0 along the
    # fiber direction (1, -1)/sqrt(2), so the pair is not dominated. Axis
    # probes e_{x,j} and random samples miss that direction; the probes
    # along the lambda_min eigenvector of each vertex block catch it at all
    # three levels, so every verdict fails with the hypothesis and the
    # report is consistent.
    n = 30
    graph = write_json(tmp_path / "g.json", {
        "n": n, "edges": [{"u": x, "v": x + 1, "b": 1.0} for x in range(n - 1)],
        "killing": [0.5] * n,
    })
    for s, worst in ((0.02, -1e-3), (0.3, -0.1)):
        endo = fixtures.mat_to_doc(np.array([[0.51, s], [s, 0.51]]))
        bundle = write_json(tmp_path / "b.json", {"rank": 2, "endo": [endo] * n})
        out = tmp_path / "report.json"
        code = run(["dominate", "--graph", graph, "--bundle", bundle,
                    "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["hypothesis"]["passed"] is False
        assert report["hypothesis"]["min_margin"] == pytest.approx(0.01 - s, rel=1e-9)
        for level in ("form", "resolvent", "semigroup"):
            assert report[level]["passed"] is False, (s, level)
            assert report[level]["slack"] < worst, (s, level)
        # The form witness is the vertex probe, along (1, -1)/sqrt(2) up to
        # a phase.
        assert report["form"]["slack"] == pytest.approx(0.01 - s, rel=1e-9)
        witness = np.array(report["form"]["witness_vector"])
        fiber = witness[report["form"]["witness_vertex"]]
        fiber = fiber[..., 0] + 1j * fiber[..., 1]
        assert abs(fiber[0] + fiber[1]) <= 1e-12
        assert report["consistent"] is True
        assert code == 0


def test_dominate_judges_the_hypothesis_with_the_verdict_tolerance(tmp_path):
    # P6, rank 2, W(x) = c I except at vertex 2, where lambda_min(W - c) is
    # -5e-10: inside --tol-domination (1e-9), so the hypothesis passes with
    # the three levels, whose worst slacks are this same margin.
    n = 6
    graph = write_json(tmp_path / "g.json", {
        "n": n, "edges": [{"u": x, "v": x + 1, "b": 1.0} for x in range(n - 1)],
        "killing": [0.5] * n,
    })
    endo = [np.eye(2) * 0.5 for _ in range(n)]
    endo[2] = np.diag([0.5 - 5e-10, 0.5])
    bundle = write_json(tmp_path / "b.json", {
        "rank": 2, "endo": [fixtures.mat_to_doc(w) for w in endo]})
    out = tmp_path / "report.json"
    code = run(["dominate", "--graph", graph, "--bundle", bundle, "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["hypothesis"]["min_margin"] == pytest.approx(-5e-10, rel=1e-6)
    assert report["hypothesis"]["passed"] is True
    for level in ("form", "resolvent", "semigroup"):
        assert report[level]["passed"] is True, level
    assert report["consistent"] is True
    assert code == 0


@pytest.mark.parametrize("flags", [
    ["--alpha", "1e-6"], ["--alpha", "1e-9"], ["--alpha", "1e-11"],
    ["--t", "1e12"], ["--t", "1e14"],
])
def test_dominate_equality_passes_beyond_the_multiplier_rounding(tmp_path, flags):
    # K3, rank 2, identity connection, W = 0 = c: A = B (x) I, dominated with
    # equality. A's zero eigenvalue comes out as -1e-16 against B's exact 0,
    # which 1/(mu + alpha) and exp(-t mu) amplify far beyond --tol-domination
    # at these parameters. The grid verdicts judge the slack beyond the
    # eigensolver's rounding bound of the multiplier, and report it as is.
    graph = write_json(tmp_path / "g.json", {"n": 3, "edges": [
        {"u": 0, "v": 1, "b": 1.0}, {"u": 1, "v": 2, "b": 1.0},
        {"u": 0, "v": 2, "b": 1.0}]})
    bundle = write_json(tmp_path / "b.json", {"rank": 2})
    out = tmp_path / "report.json"
    code = run(["dominate", "--graph", graph, "--bundle", bundle, *flags,
                "--out", str(out)])
    report = json.loads(out.read_text())
    level = "resolvent" if flags[0] == "--alpha" else "semigroup"
    assert report[level]["slack"] < -DOMINATION_TOL
    for level in ("form", "resolvent", "semigroup"):
        assert report[level]["passed"] is True, level
    assert report["consistent"] is True
    assert code == 0


def killed_k3_argv(tmp_path):
    """`dominate` on K3, rank 2, c = 0.5 and W = 0, and its report's path.

    The hypothesis fails and e^{-tB} ~ 0, while e^{-tA} keeps the constant
    sections, so the pair is not dominated at large t.
    """
    graph = write_json(tmp_path / "g.json", {"n": 3, "edges": [
        {"u": 0, "v": 1, "b": 1.0}, {"u": 1, "v": 2, "b": 1.0},
        {"u": 0, "v": 2, "b": 1.0}], "killing": [0.5, 0.5, 0.5]})
    bundle = write_json(tmp_path / "b.json", {"rank": 2})
    out = tmp_path / "report.json"
    return ["dominate", "--graph", graph, "--bundle", bundle, "--out", str(out)], out


def test_dominate_refuses_a_grid_point_that_resolves_nothing(tmp_path, capsys):
    # At t = 1e15 the eigensolvers' rounding allowance (4.5) exceeds
    # max f_B = e^{-0.5 t} and no comparison can fail: an input error that
    # names t, not a PASS. At t = 1e13 the slack, -1.9, fails beyond the
    # allowance, 0.04.
    argv, out = killed_k3_argv(tmp_path)
    assert run([*argv, "--t", "1e15"]) == 2
    err = capsys.readouterr().err
    assert re.search(r"t = 1e\+15 resolves nothing: .* allowance 4\.\d+ reaches "
                     r"max f_B = 0", err), err
    assert not out.exists()
    # A failure decided at any grid point wins over an unresolved one.
    for t in ("1e13", "1e13,1e15"):
        assert run([*argv, "--t", t]) == 0
        report = json.loads(out.read_text())
        assert report["semigroup"]["passed"] is False
        assert report["hypothesis"]["passed"] is False


def test_dominate_failing_witness_fails_beyond_its_allowance(tmp_path):
    # t = 1e15 holds the least slack, -1.94, but within its allowance, 4.5;
    # the verdict fails at t = 1e13 (slack -1.91, allowance 0.04), so that
    # comparison is the witness.
    argv, out = killed_k3_argv(tmp_path)
    assert run([*argv, "--t", "1e13,1e15"]) == 0
    semigroup = json.loads(out.read_text())["semigroup"]
    assert semigroup["passed"] is False
    assert semigroup["witness_param"] == 1e13
    assert semigroup["slack"] == pytest.approx(-1.908, abs=1e-3)


def test_dominate_overflowing_multiplier_is_skipped_without_warning(tmp_path, capsys):
    # A's zero eigenvalue rounds to about -1e-16, so exp(-t mu) overflows at
    # t = 1e20: its allowance is infinite and it is not applied. Warnings
    # are errors under pytest.
    argv, out = killed_k3_argv(tmp_path)
    assert run([*argv, "--t", "1e20"]) == 2
    assert "t = 1e+20 resolves nothing" in capsys.readouterr().err
    assert run([*argv, "--t", "1e13,1e20"]) == 0
    semigroup = json.loads(out.read_text())["semigroup"]
    assert semigroup["passed"] is False
    assert semigroup["witness_param"] == 1e13


def test_spectral_products_run_on_scipys_blas(diamagnetic_specs, tmp_path, monkeypatch):
    # Every dense product on N-sized operands in `semigroup-id` and `dominate`
    # runs on scipy's BLAS, the runtime of its LAPACK, not on numpy's `@`.
    calls = fixtures.counting_blas(monkeypatch, ("dgemm", "zgemm", "dsyrk"))
    reflections = fixtures.counting_lapack(monkeypatch, ("zunmqr", "dormqr"))
    graph, bundle = diamagnetic_specs
    n = fixtures.diamagnetic_docs()[0]["n"]
    out = str(tmp_path / "r.json")
    argv = ["--graph", graph, "--bundle", bundle, "--out", out]
    assert run(["semigroup-id", *argv]) == 0
    # The identities apply Q* from each form's reflectors (?unmqr) and T's real
    # eigenvectors Z by real products, N = 2n on the magnetic form, with
    # every operand passed as f2py reads it, so that none is copied; U is
    # not built for them, so no complex product runs. The Beurling-Deny
    # kernel is S_t = V V^T.
    assert {name for name, _ in reflections} == {"zunmqr", "dormqr"}
    assert ("dgemm", (2 * n, 2 * n), True) in calls
    assert ("dgemm", (n, n), True) in calls
    assert not [call for call in calls if call[0] == "zgemm"]
    assert calls.count(("dsyrk", (n, n), True)) == 4
    assert all(fortran for *_, fortran in calls)
    calls.clear()
    reflections.clear()
    assert run(["dominate", *argv, "--samples", "5"]) == 0
    # The grid verdicts project into and back from both forms' eigenvectors.
    assert ("zgemm", (2 * n, 2 * n), True) in calls
    assert ("dgemm", (n, n), True) in calls
    assert all(fortran for *_, fortran in calls)
    assert not reflections


def test_semigroup_id_catches_a_broken_back_transform(tmp_path, monkeypatch):
    # ?unmqr applies Q P, Q with its first two columns swapped, wherever it
    # applies Q, and (Q P)* wherever it applies Q*; the identities apply only
    # Q*, to project. Q P is still unitary and diagonalizes Q P T P^T Q*
    # exactly: the Laplace and Euler checks, which read only Q, Z and T,
    # agree with it. The form limit compares that spectral calculus with
    # the sparse L, and is the check that catches it.
    # The graph is not a path, so that both forms have Q != I.
    for name in ("zunmqr", "dormqr"):
        routine = getattr(lapack, name)

        def swapped(side, trans, a, tau, c, *args, _routine=routine, **kwargs):
            if trans == "N":
                c[[0, 1]] = c[[1, 0]]
            cq, *rest = _routine(side, trans, a, tau, c, *args, **kwargs)
            if trans != "N":
                cq[[0, 1]] = cq[[1, 0]]
            return cq, *rest

        monkeypatch.setattr(lapack, name, swapped)
    graph_doc, bundle_doc = fixtures.killing_without_endo_docs(n=20, d=2)
    graph = write_json(tmp_path / "g.json", graph_doc)
    bundle = write_json(tmp_path / "b.json", bundle_doc)
    out = tmp_path / "r.json"
    argv = ["semigroup-id", "--graph", graph, "--bundle", bundle, "--out", str(out)]
    assert run(argv) == 1
    report = json.loads(out.read_text())
    assert report["ok"] is False
    for form in ("magnetic", "scalar"):
        section = report[form]
        assert section["laplace_ok"] and section["euler_ok"], form
        assert section["form_limit_ok"] is False, form


def test_commands_fit_their_memory_budgets(tmp_path):
    # Each command's traced peak, in complex N x N arrays, on one n = 150,
    # rank-3 spec (N = 450), against the budgets that README states: one
    # more N x N complex copy anywhere would exceed its command's budget.
    budgets = {"spectrum": 2.3, "semigroup-id": 2.2, "dominate": 3.0,
               "uniqueness": 0.5}
    graph_doc, bundle_doc = fixtures.diamagnetic_docs(n=150, d=3)
    argv = ["--graph", write_json(tmp_path / "g.json", graph_doc),
            "--bundle", write_json(tmp_path / "b.json", bundle_doc),
            "--out", str(tmp_path / "r.json")]
    square = 16 * (150 * 3) ** 2
    for command, budget in budgets.items():
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert run([command, *argv]) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= budget * square, (command, peak / square)


def test_dominate_fault_injection_exit_1(diamagnetic_specs, tmp_path, monkeypatch):
    import mgl.domination
    from mgl.cli import cmd_dominate

    graph_spec, bundle_spec = diamagnetic_specs
    parser = build_parser()
    args = parser.parse_args(
        ["dominate", "--graph", graph_spec, "--bundle", bundle_spec,
         "--samples", "30", "--out", str(tmp_path / "r.json")]
    )
    honest = mgl.domination.check_semigroup_domination

    def flip_semigroup(*args, **kwargs):
        return {**honest(*args, **kwargs), "passed": False}

    monkeypatch.setattr(mgl.domination, "check_semigroup_domination", flip_semigroup)
    assert cmd_dominate(args) == 1


def test_dominate_determinism(diamagnetic_specs, tmp_path):
    graph_spec, bundle_spec = diamagnetic_specs
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["dominate", "--graph", graph_spec, "--bundle", bundle_spec,
            "--samples", "30", "--seed", "7"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def path50_spec(tmp_path):
    g = fixtures.path50_graph()
    doc = {
        "n": 50,
        "edges": [
            {"u": x, "v": y, "b": b}
            for (x, y), b in zip(g.edges.tolist(), g.weights.tolist())
        ],
    }
    return write_json(tmp_path / "path50.json", doc)


def test_uniqueness_path50(tmp_path):
    spec = path50_spec(tmp_path)
    out = tmp_path / "u.json"
    code = run(
        ["uniqueness", "--graph", spec, "--omega", "10,20,30,40,50",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    scalar = [row["scalar"] for row in report["gaps"]]
    assert all(a > b for a, b in zip(scalar, scalar[1:]))
    assert scalar[-1] <= 1e-12
    assert report["illustrative"] is True
    assert set(report) == {"gaps", "criteria", "illustrative", "metadata",
                           "diagnostics"}
    assert set(report["criteria"]) == {"degree_bounded"}
    # A prefix {0..10k-1} of the path has one boundary vertex, and path50's
    # bundle has rank 1. Its block is tridiagonal, so L and U hold at least
    # its N diagonal and N - 1 off-diagonal entries each, and at most dense
    # triangles (SuperLU stores small supernodes dense). The full set
    # factors nothing.
    diagnostics = report["diagnostics"]
    assert diagnostics["route"] == "splu"
    assert [p["k"] for p in diagnostics["prefixes"]] == [1, 2, 3, 4, 5]
    for k, prefix in enumerate(diagnostics["prefixes"][:4], start=1):
        assert prefix["scalar"] == prefix["magnetic"]
        assert prefix["scalar"]["N"] == 10 * k
        assert prefix["scalar"]["boundary"] == 1
        assert 2 * (20 * k - 1) <= prefix["scalar"]["nnz_lu"] <= 10 * k * (10 * k + 1)
    for key in ("scalar", "magnetic"):
        last = diagnostics["prefixes"][-1][key]
        assert last["boundary"] == last["nnz_lu"] == 0


def test_uniqueness_single_full_step(p2_spec, tmp_path):
    out = tmp_path / "u.json"
    assert run(["uniqueness", "--graph", p2_spec, "--omega", "2",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["gaps"][0]["scalar"] <= 1e-12
    assert report["gaps"][0]["magnetic"] <= 1e-12


def test_uniqueness_without_bundle_compares_the_scalar_form(diamagnetic_specs,
                                                            tmp_path):
    # Without --bundle the magnetic column is the trivial line bundle with
    # W = c, whose form is the scalar one. A W = 0 stand-in would be a
    # different, undominated form on this graph, which has killing.
    graph_spec, _ = diamagnetic_specs
    out = tmp_path / "u.json"
    assert run(["uniqueness", "--graph", graph_spec, "--omega", "3,7,11",
                "--out", str(out)]) == 0
    gaps = json.loads(out.read_text())["gaps"]
    assert all(row["scalar"] > 0 for row in gaps)
    for row in gaps:
        assert abs(row["magnetic"] - row["scalar"]) <= 1e-12 * row["scalar"], row


def test_uniqueness_non_increasing_omega_exit_2(tmp_path, capsys):
    spec = path50_spec(tmp_path)
    for omega in ("30,20", "20,20"):
        assert run(["uniqueness", "--graph", spec, "--omega", omega]) == 2
        assert "strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("omega", ["0", "51", "10,60"])
def test_uniqueness_omega_out_of_range_exit_2(tmp_path, capsys, omega):
    spec = path50_spec(tmp_path)
    assert run(["uniqueness", "--graph", spec, "--omega", omega]) == 2
    assert "--omega" in capsys.readouterr().err


def test_uniqueness_determinism(tmp_path):
    spec = path50_spec(tmp_path)
    out1, out2 = tmp_path / "u1.json", tmp_path / "u2.json"
    argv = ["uniqueness", "--graph", spec, "--omega", "10,25,50"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("b", [2e149, 4e149])
def test_uniqueness_singular_block_is_input_error(tmp_path, capsys, b):
    # The edge-dropping block of {0, 1} is b [[1, -1], [-1, 1]] + I, which is
    # singular in floating point: alpha = 1 is lost next to b. A factor may
    # stop on one of these weights and leave a pivot of rounding noise on
    # the other, so alpha is checked against the diagonal before factoring.
    edges = [{"u": 0, "v": 1, "b": b}, {"u": 1, "v": 2, "b": b},
             {"u": 2, "v": 3, "b": 1}]
    spec = write_json(tmp_path / "g.json", {"n": 4, "edges": edges})
    out = tmp_path / "u.json"
    code = run(["uniqueness", "--graph", spec, "--omega", "1,2,3,4",
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("input error: prefix k=2 (2 vertices), scalar form")
    assert "alpha = 1.0 is lost in rounding" in err
    assert not out.exists()


def test_uniqueness_heavy_inner_edge_on_large_prefix_reports(tmp_path):
    # An inner edge of weight 1e14 leaves cond(block + alpha) near 1e14, short
    # of singular. It lies 298 steps from the boundary of the 300-vertex
    # prefix, where the resolvents have decayed far below rounding, so the
    # gaps are those of the same path with that edge at weight 1.
    gaps = []
    for heavy in (1e14, 1.0):
        edges = [{"u": x, "v": x + 1, "b": heavy if x == 0 else 1.0}
                 for x in range(300)]
        spec = write_json(tmp_path / "g.json", {"n": 301, "edges": edges})
        out = tmp_path / "u.json"
        assert run(["uniqueness", "--graph", spec, "--omega", "300",
                    "--out", str(out)]) == 0
        gaps.append(json.loads(out.read_text())["gaps"][0])
    assert gaps[0]["scalar"] > 0.1
    for key in ("scalar", "magnetic"):
        assert gaps[0][key] == pytest.approx(gaps[1][key], rel=1e-12, abs=0)


def uniqueness_argv(tmp_path, graph_doc, bundle_doc):
    return ["uniqueness", "--graph", write_json(tmp_path / "g.json", graph_doc),
            "--bundle", write_json(tmp_path / "b.json", bundle_doc),
            "--out", str(tmp_path / "u.json")]


def test_uniqueness_holds_no_dense_block(tmp_path):
    # On a 1000-vertex rank-2 path the largest prefix with a boundary has
    # 800 vertices, so its magnetic block has N = 1600. That block alone,
    # dense, is one complex N x N array; the sparse factor and the N x |b|
    # panels, with everything the command loads, stay under 0.05 of one.
    argv = uniqueness_argv(tmp_path, *fixtures.path_docs(1000))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * 16 * 1600**2, peak / (16 * 1600**2)


def test_uniqueness_runs_past_the_dense_bound(tmp_path):
    # n * d = 40000 lies beyond DENSE_DIM_BOUND, which only the commands
    # that build a dense spectrum apply. Each gap lies in [0, 1/alpha],
    # since 0 <= R_D <= R_N <= 1/alpha; and a path is a tree, so the
    # connection gauges away and the magnetic gap is the scalar one.
    argv = uniqueness_argv(tmp_path, *fixtures.path_docs(20000))
    assert run(argv) == 0
    first = (tmp_path / "u.json").read_bytes()
    assert run(argv) == 0
    assert (tmp_path / "u.json").read_bytes() == first
    report = json.loads(first)
    assert report["diagnostics"]["prefixes"][3]["magnetic"]["N"] == 32000
    assert report["gaps"][0]["scalar"] > 0.1
    for row in report["gaps"]:
        assert 0.0 <= row["scalar"] <= 1.0 and 0.0 <= row["magnetic"] <= 1.0
        assert row["magnetic"] == pytest.approx(row["scalar"], rel=1e-12, abs=0)


def test_uniqueness_refuses_panels_beyond_the_bound(tmp_path, capsys, monkeypatch):
    # With the bound at 16, prefix {0..9} of this perfect matching is all
    # boundary: the scalar panels need 10 * 10 words, within 16^2, the
    # rank-2 ones 20 * 20, beyond it. The loaders' arrays (20 vertices,
    # (20 + 2 * 10) * 2^2 form-matrix words) fit.
    from mgl import graphs

    monkeypatch.setattr(graphs, "DENSE_DIM_BOUND", 16)
    matching = {"n": 20, "edges": [{"u": x, "v": x + 10, "b": 1.0} for x in range(10)]}
    argv = uniqueness_argv(tmp_path, matching, {"rank": 2})
    assert run(argv + ["--omega", "10,20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: prefix k=1 (10 vertices), magnetic form: "
                          "the N x |b| Woodbury panels need 400 words"), err
    assert not (tmp_path / "u.json").exists()


def test_uniqueness_out_of_memory_names_the_prefix(tmp_path, capsys, monkeypatch):
    import mgl.metrics

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(mgl.metrics, "splu", exhausted)
    assert run(["uniqueness", "--graph", path50_spec(tmp_path), "--omega", "10,20",
                "--out", str(tmp_path / "u.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: prefix k=1 (10 vertices), scalar form: "
                          "the sparse factor and its panels do not fit in memory")
    assert not (tmp_path / "u.json").exists()


def test_uniqueness_out_of_memory_in_the_pencil_names_the_prefix(tmp_path, capsys,
                                                                  monkeypatch):
    # A MemoryError past the factor, here in the eigensolver of the pencil,
    # is the same input error as one in the factor.
    import mgl.metrics

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(mgl.metrics, "eigh", exhausted)
    assert run(["uniqueness", "--graph", path50_spec(tmp_path), "--omega", "10,20",
                "--out", str(tmp_path / "u.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: prefix k=1 (10 vertices), scalar form: "
                          "the sparse factor and its panels do not fit in memory")
    assert not (tmp_path / "u.json").exists()


def _singular(A, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _negated(A, **kwargs):
    return splu(-A, **kwargs)


def _off_diagonal(A, **kwargs):
    factor = splu(A, **kwargs)
    return types.SimpleNamespace(U=factor.U, perm_c=factor.perm_c,
                                 perm_r=factor.perm_r[::-1])


@pytest.mark.parametrize("factor, problem", [
    (_singular, "Factor is exactly singular"),
    (_negated, "a pivot is not finite and positive"),
    (_off_diagonal, "a pivot left the diagonal"),
])
def test_uniqueness_block_that_does_not_factor_is_input_error(
        tmp_path, capsys, monkeypatch, factor, problem):
    # Where SuperLU fails, or its symmetric-mode factor is not that of a
    # positive definite block, the block + alpha may be singular in
    # floating point: an input error, as a failing Cholesky factor was.
    import mgl.metrics

    monkeypatch.setattr(mgl.metrics, "splu", factor)
    assert run(["uniqueness", "--graph", path50_spec(tmp_path), "--omega", "10,20",
                "--out", str(tmp_path / "u.json")]) == 2
    err = capsys.readouterr().err
    assert err == ("input error: prefix k=1 (10 vertices), scalar form: the "
                   "edge-dropping block + alpha = 1.0 does not factor in floating "
                   f"point ({problem})\n")
    assert not (tmp_path / "u.json").exists()


def test_spectrum_outputs(p2_spec, tmp_path, capsys):
    assert run(["spectrum", "--graph", p2_spec]) == 0
    report = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(report["scalar"], [0.0, 2.0], atol=1e-12)

    bundle = write_json(tmp_path / "b.json", fixtures.P2_ANTIPODAL_BUNDLE_DOC)
    assert run(["spectrum", "--graph", p2_spec, "--bundle", bundle]) == 0
    report = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(report["magnetic"], [0.0, 2.0], atol=1e-12)

    single = write_json(
        tmp_path / "single.json", {"n": 1, "edges": [], "killing": [5.0]}
    )
    assert run(["spectrum", "--graph", single]) == 0
    report = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(report["scalar"], [5.0])


def test_library_failure_exits_1_without_report(p2_spec, tmp_path, capsys,
                                               monkeypatch):
    import mgl.forms

    def dstevd(d, e):
        return d, np.eye(len(d)), 3

    monkeypatch.setattr(mgl.forms.lapack, "dstevd", dstevd)
    out = tmp_path / "s.json"
    assert run(["spectrum", "--graph", p2_spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: dstevd failed: LAPACK info = 3\n"
    assert not out.exists()


def test_semigroup_id_passes(p2_spec, tmp_path):
    out = tmp_path / "s.json"
    assert run(["semigroup-id", "--graph", p2_spec, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["scalar"]["laplace_ok"] is True
    assert report["scalar"]["euler_ok"] is True
    assert report["scalar"]["form_limit_ok"] is True
    criteria = report["scalar"]["beurling_deny"]
    assert criteria["positivity"]["form_witness"] == [0, 1]
    for criterion in criteria.values():
        assert criterion["form_ok"] is True and criterion["semigroup_ok"] is True


@pytest.mark.parametrize("measure", [
    [1e12, 1.0, 1.0], [1e150, 1.0, 1.0], [1e-150, 1.0, 1.0], [1e-150, 1e150, 1e-150],
], ids=["1000000000000.0", "1e+150", "1e-150", "1e-150-1e+150-1e-150"])
def test_semigroup_id_form_limit_with_extreme_measure(tmp_path, measure):
    # P3 with measures far apart: u - e^{-tA}u must not be formed as a
    # difference, whose rounding floor eps * max m * |u|^2 / t swamps the
    # first-order term at the small t the suite uses. With measures far apart
    # on both sides, the defect itself lies within the eigensolver's rounding
    # floor, of order N eps |mu|_max |u|_m^2, which shows no ratio.
    doc = {"n": 3, "edges": [{"u": 0, "v": 1, "b": 1.0}, {"u": 1, "v": 2, "b": 1.0}],
           "measure": measure}
    out = tmp_path / "s.json"
    argv = ["semigroup-id", "--graph", write_json(tmp_path / "g.json", doc)]
    assert run(argv + ["--out", str(out)]) == 0
    section = json.loads(out.read_text())["scalar"]
    assert section["form_limit_ok"] is True
    assert 0.35 <= section["form_limit_ratio"] <= 0.65
    # The Beurling-Deny tolerances are relative, so no measure fails them.
    for criterion in section["beurling_deny"].values():
        assert criterion["form_ok"] is True and criterion["semigroup_ok"] is True


def _path_doc(n, heavy_at=0, heavy=1.0, measure=None):
    edges = [{"u": x, "v": x + 1, "b": heavy if x == heavy_at else 1.0}
             for x in range(n - 1)]
    doc = {"n": n, "edges": edges}
    if measure is not None:
        doc["measure"] = measure
    return doc


@pytest.mark.parametrize("doc", [
    _path_doc(50, heavy_at=25, heavy=1e6),
    _path_doc(301, heavy_at=0, heavy=1e14),
    _path_doc(40, measure=[1.0] * 10 + [1e-6] + [1.0] * 29),
], ids=["p50-edge-1e6", "p301-edge-1e14", "p40-measure-1e-6"])
def test_semigroup_id_beurling_deny_within_rounding_passes(tmp_path, doc):
    # Valid specs with c = 0, where the exact row excess is 0 and far kernel
    # entries are about 0. A heavy edge or a light vertex puts the rounding of
    # the eigensystem far above 1e-10 of the kernel scale; it must not fail.
    out = tmp_path / "s.json"
    argv = ["semigroup-id", "--graph", write_json(tmp_path / "g.json", doc)]
    assert run(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for criterion in report["scalar"]["beurling_deny"].values():
        assert criterion["form_ok"] is True and criterion["semigroup_ok"] is True


@pytest.mark.parametrize("alphas", ["-5", "1e-7", "1e-7,5e-7"])
def test_semigroup_id_refuses_vacuous_pass(p2_spec, tmp_path, capsys, alphas):
    # Every alpha is filtered out (by the CLI guard or the Laplace-check
    # floor), so no Laplace residual would be checked: an input error.
    out = tmp_path / "s.json"
    argv = ["semigroup-id", "--graph", p2_spec, "--alpha", alphas]
    assert run(argv + ["--out", str(out)]) == 2
    assert "--alpha" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--samples", "-1"], ["--t", "-1"], ["--alpha", "0"], ["--t", "nan"],
     ["--samples", "0"], ["--tol-domination", "nan"], ["--seed", "-3"],
     # Beyond graphs.DENSE_DIM_BOUND: a sample batch larger than any dense
     # form would fail to allocate (1e12) or exceed numpy's dimension limit.
     ["--samples", "1000000000000"], ["--samples", str(10**23)]],
)
def test_cli_parameters_are_input_errors(tmp_path, capsys, flags):
    graph = write_json(tmp_path / "p3.json", {
        "n": 3, "edges": [{"u": 0, "v": 1, "b": 1.0}, {"u": 1, "v": 2, "b": 1.0}],
    })
    bundle = write_json(tmp_path / "b.json", {"rank": 1})
    assert run(["dominate", "--graph", graph, "--bundle", bundle, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and flags[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["validate", "--samples", "1"], ["spectrum", "--tol-domination", "1e-9"],
     ["uniqueness", "--seed", "3"], ["semigroup-id", "--t", "1"]],
)
def test_commands_refuse_flags_they_do_not_read(p2_spec, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--graph", p2_spec])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err


def test_dominate_reads_all_eight_flags(diamagnetic_specs, tmp_path):
    graph_spec, bundle_spec = diamagnetic_specs
    out = tmp_path / "r.json"
    argv = ["dominate", "--graph", graph_spec, "--bundle", bundle_spec,
            "--out", str(out), "--t", "0.1,1", "--alpha", "2", "--samples", "7",
            "--seed", "5", "--tol-domination", "1e-8"]
    assert sorted(argv[1::2]) == sorted(fixtures.cli_flags()["dominate"])
    assert run(argv) == 0
    assert json.loads(out.read_text())["metadata"] == {
        "seed": 5, "t_grid": [0.1, 1.0], "alpha_grid": [2.0], "samples": 7,
        "tolerance": 1e-8,
    }


def test_readme_flag_table_matches_the_parser():
    # Rows of the form | `cmd`, `cmd` | `--flag`, `--flag` | in the CLI section.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n#")[0]
    table = {}
    for line in section.splitlines():
        cells = line.strip("|").split("|")
        if len(cells) == 2 and "`--" in cells[1]:
            for command in re.findall(r"`([^`]+)`", cells[0]):
                table[command] = sorted(re.findall(r"`([^`]+)`", cells[1]))
    assert table == {name: sorted(flags)
                     for name, flags in fixtures.cli_flags().items()}


def test_dominate_alpha_in_spectrum_is_input_error(p2_spec, tmp_path, capsys):
    # lambda_min = 0 on P2, so alpha = 1e-13 is not inside the resolvent set
    # by the margin the resolvent needs.
    bundle = write_json(tmp_path / "b.json", {"rank": 1})
    out = tmp_path / "r.json"
    code = run(["dominate", "--graph", p2_spec, "--bundle", bundle,
                "--alpha", "1e-13", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: alpha = 1e-13")
    assert not out.exists()


def test_overflowing_edge_weights_are_input_errors(tmp_path, capsys):
    edges = [{"u": 0, "v": 1, "b": 1e308}, {"u": 1, "v": 2, "b": 1e308}]
    doc = {"n": 3, "edges": edges}
    with pytest.raises(SchemaError, match="vertex 1"):
        load_graph(doc)
    spec = write_json(tmp_path / "big.json", doc)
    assert run(["semigroup-id", "--graph", spec]) == 2
    assert "overflow" in capsys.readouterr().err


P3_EDGES = [{"u": 0, "v": 1, "b": 1.0}, {"u": 1, "v": 2, "b": 1.0}]
HUGE = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "graph_doc, bundle_doc",
    [
        ({"n": 3, "edges": [{"u": 0, "v": 1, "b": HUGE}]}, {"rank": 1}),
        ({"n": 3, "edges": P3_EDGES, "killing": [HUGE, 0, 0]}, {"rank": 1}),
        ({"n": 3, "edges": P3_EDGES, "measure": [1, HUGE, 1]}, {"rank": 1}),
        ({"n": 3, "edges": P3_EDGES},
         {"rank": 1, "endo": [[[[0, 0]]], [[[0, HUGE]]], [[[0, 0]]]]}),
        ({"n": 3, "edges": P3_EDGES},
         {"rank": 1, "connection": [{"u": 0, "v": 1, "matrix": [[[HUGE, 0]]]}]}),
    ],
    ids=["b", "killing", "measure", "endo", "connection"],
)
def test_integers_beyond_the_float_range_are_input_errors(tmp_path, capsys, graph_doc,
                                                          bundle_doc):
    graph = write_json(tmp_path / "g.json", graph_doc)
    bundle = write_json(tmp_path / "b.json", bundle_doc)
    with pytest.raises(SchemaError, match="float"):
        load_bundle(load_graph(graph), bundle)
    code = run(["validate", "--graph", graph, "--bundle", bundle,
                "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("input error:") and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "graph_doc, bundle_doc",
    [
        ({"n": 3, "edges": P3_EDGES, "killing": [1e308, 1e308, 0]}, {"rank": 1}),
        ({"n": 3, "edges": P3_EDGES, "measure": [1e-308, 1, 1]}, {"rank": 1}),
        ({"n": 3, "edges": P3_EDGES, "measure": [1e308, 1, 1]}, {"rank": 1}),
        ({"n": 3, "edges": P3_EDGES},
         {"rank": 1, "endo": [[[[1e308, 0.0]]], [[[0.0, 0.0]]], [[[0.0, 0.0]]]]}),
        # Quotients that overflow in the scale checks themselves: 1/m,
        # degree/m and |W|/m.
        ({"n": 3, "edges": P3_EDGES, "measure": [1e-320, 1, 1]}, {"rank": 1}),
        ({"n": 3, "edges": [{"u": 0, "v": 1, "b": 1e300}],
          "measure": [1e-140, 1, 1]}, {"rank": 1}),
        ({"n": 3, "edges": P3_EDGES, "measure": [1e-10, 1, 1]},
         {"rank": 1, "endo": [[[[1e300, 0.0]]], [[[0.0, 0.0]]], [[[0.0, 0.0]]]]}),
    ],
    ids=["killing", "tiny-measure", "huge-measure", "endo", "subnormal-measure",
         "degree-over-measure", "endo-over-measure"],
)
def test_overflowing_scales_are_input_errors(tmp_path, capsys, graph_doc, bundle_doc):
    # Each scale overflows in the form arithmetic (symmetrization, m-weighted
    # norms, eigensolvers) unless the loaders reject it, for every command,
    # without a warning from the check (which pytest makes an error).
    graph = write_json(tmp_path / "g.json", graph_doc)
    bundle = write_json(tmp_path / "b.json", bundle_doc)
    for command in ("validate", "spectrum", "dominate", "uniqueness", "semigroup-id"):
        code = run([command, "--graph", graph, "--bundle", bundle,
                    "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2, (command, err)
        assert err.startswith("input error:") and "vertex 0" in err, command
        assert "Traceback" not in err


K16_GRAPH = {"n": 16, "edges": [{"u": u, "v": v, "b": 1.0}
                                 for u in range(16) for v in range(u + 1, 16)]}


@pytest.mark.parametrize(
    "graph_doc, bundle_doc, sparse_code",
    [({"n": 200000}, {"rank": 1}, 0), ({"n": 6000}, {"rank": 3}, 0),
     # n d^2 = 2^28 endomorphism words fit, but the 120 edges' identity
     # connection and the form matrix, (n + 2E) d^2 = 2^32 words, do not.
     (K16_GRAPH, {"rank": 4096}, 2)],
    ids=["graph", "bundle", "connection"],
)
def test_dense_size_guard_is_input_error(tmp_path, capsys, graph_doc, bundle_doc,
                                         sparse_code):
    # n * d above 16384 would ask the commands that build a dense spectrum
    # for N x N matrices of many GiB (a 320 GB adjacency at n = 200000);
    # they refuse it up front. validate and uniqueness build no dense form,
    # so they run (here every prefix is boundaryless and factors nothing)
    # unless an array of the specs' own would exceed 16384^2 words, which
    # they refuse as soon as the rank is read.
    graph = write_json(tmp_path / "g.json", graph_doc)
    bundle = write_json(tmp_path / "b.json", bundle_doc)
    start = time.perf_counter()
    for command in ("validate", "spectrum", "dominate", "uniqueness", "semigroup-id"):
        code = run([command, "--graph", graph, "--bundle", bundle,
                    "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if command in ("validate", "uniqueness"):
            assert code == sparse_code, (command, err)
            if sparse_code:
                assert err.startswith("input error: the form-matrix blocks need "
                                      "4294967296 words"), (command, err)
            continue
        assert code == 2, (command, err)
        assert err.startswith("input error: form dimension") and "16384" in err, command
    assert time.perf_counter() - start < 10


P3_GRAPH = {"n": 3, "edges": P3_EDGES}
ALL_COMMANDS = ("validate", "spectrum", "dominate", "uniqueness", "semigroup-id")


@pytest.mark.parametrize(
    "graph_doc, bundle_doc, commands, named",
    [
        ({"n": 3, "edges": [P3_EDGES[0], {**P3_EDGES[1], "b": -1.0}]},
         {"rank": 1}, ALL_COMMANDS, "nonnegativity"),
        ({"n": 3, "edges": [*P3_EDGES, {"u": 1, "v": 1, "b": 1.0}]},
         {"rank": 1}, ALL_COMMANDS, "(b1)"),
        ({**P3_GRAPH, "measure": [1.0, 0.0, 1.0]}, {"rank": 1}, ALL_COMMANDS,
         "measure positivity"),
        ({**P3_GRAPH, "killing": [0.0, -0.5, 0.0]}, {"rank": 1}, ALL_COMMANDS,
         "killing nonnegativity"),
        # validate reports a failing bundle check (exit 1 with a report);
        # every command that builds the bundle form refuses the bundle.
        (P3_GRAPH,
         {"rank": 1, "connection": [{"u": 0, "v": 1, "matrix": [[[2.0, 0.0]]]}]},
         ALL_COMMANDS[1:], "unitarity defect"),
        (P3_GRAPH, {"rank": 1, "endo": [[[[-1.0, 0.0]]]] * 3}, ALL_COMMANDS[1:],
         "min endo eigenvalue"),
        # Two entries for one edge, in the same or the reversed orientation.
        (P3_GRAPH, {"rank": 1, "connection": [
            {"u": 0, "v": 1, "matrix": [[[1.0, 0.0]]]},
            {"u": 0, "v": 1, "matrix": [[[-1.0, 0.0]]]}]},
         ALL_COMMANDS, "duplicate connection for edge (0, 1)"),
        (P3_GRAPH, {"rank": 1, "connection": [
            {"u": 0, "v": 1, "matrix": [[[1.0, 0.0]]]},
            {"u": 1, "v": 0, "matrix": [[[-1.0, 0.0]]]}]},
         ALL_COMMANDS, "duplicate connection for edge (0, 1)"),
    ],
    ids=["negative-weight", "loop", "zero-measure", "negative-killing",
         "non-unitary", "negative-endo", "duplicate-connection",
         "reversed-duplicate-connection"],
)
def test_rejected_specs_are_input_errors(tmp_path, capsys, graph_doc, bundle_doc,
                                         commands, named):
    graph = write_json(tmp_path / "g.json", graph_doc)
    bundle = write_json(tmp_path / "b.json", bundle_doc)
    out = tmp_path / "r.json"
    for command in commands:
        code = run([command, "--graph", graph, "--bundle", bundle, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, (command, err)
        assert err.startswith("input error:") and named in err, command
        assert not out.exists(), command


# Bytes that are not UTF-8, and arrays nested past the recursion limit: no
# JSON document at all.
UNREADABLE_SPECS = {"not-utf8": b'\xff\xfe{"n": 2}',
                    "too-deep": b"[" * 200000 + b"]" * 200000}


@pytest.mark.parametrize("command", ALL_COMMANDS)
@pytest.mark.parametrize("flag", ["--graph", "--bundle"])
@pytest.mark.parametrize("content", UNREADABLE_SPECS.values(),
                         ids=list(UNREADABLE_SPECS))
def test_unreadable_spec_files_are_input_errors(tmp_path, capsys, content, flag,
                                                command):
    specs = {"--graph": write_json(tmp_path / "g.json", P3_GRAPH),
             "--bundle": write_json(tmp_path / "b.json", {"rank": 1})}
    (tmp_path / "bad.json").write_bytes(content)
    specs[flag] = str(tmp_path / "bad.json")
    out = tmp_path / "r.json"
    code = run([command, "--graph", specs["--graph"], "--bundle", specs["--bundle"],
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    what = "graph" if flag == "--graph" else "bundle"
    assert err.startswith(f"input error: {what} spec is not valid JSON:"), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "dominate", "semigroup-id"])
def test_dense_commands_out_of_memory_are_input_errors(diamagnetic_specs, tmp_path,
                                                       capsys, monkeypatch, command):
    # A spec inside DENSE_DIM_BOUND can still need more memory than the host
    # has; the dense commands then refuse it like any input error.
    from mgl.forms import FormOperator

    def exhausted(self):
        raise MemoryError

    monkeypatch.setattr(FormOperator, "_symmetrized", exhausted)
    graph, bundle = diamagnetic_specs
    out = tmp_path / "r.json"
    assert run([command, "--graph", graph, "--bundle", bundle, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: the forms of these specs do not fit in memory\n")
    assert not out.exists()


def test_console_entry_point_runs():
    # `python -m` puts the working directory on sys.path, so running from
    # src/ finds the package whether or not it is installed.
    result = subprocess.run(
        [sys.executable, "-m", "mgl.cli", "--help"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1] / "src",
    )
    assert result.returncode == 0
    assert "dominate" in result.stdout


def test_jsonable_encodings():
    blob = jsonable(
        {"z": 1 + 2j, "arr": np.array([1.0, np.inf]), "flag": np.bool_(True)}
    )
    assert blob["z"] == [1.0, 2.0]
    assert blob["arr"] == [1.0, "inf"]
    assert blob["flag"] is True
    # dump is strict JSON and ends with a newline.
    text = dump_report({"a": np.float64(1.5)})
    assert json.loads(text) == {"a": 1.5}
    assert text.endswith("\n")
    with pytest.raises(ValueError):
        dump_report({"a": [1.0, np.nan]})


TRACED_RUN = """
import json, sys
src, bench, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [src, bench]
import mgl.cli
import spans

tracer = spans.Tracer()
tracer.install()
out = {}
for name, argv in commands.items():
    del tracer.spans[:]
    code = mgl.cli.run(argv)
    out[name] = {"code": code, "metrics": spans.layer_metrics(tracer.spans)}
print(json.dumps(out))
"""


def test_traced_benchmark_wraps_cli_layers(diamagnetic_specs, tmp_path):
    # The benchmark's layer tracer wraps mgl functions by name and binds
    # their parameters; a rename must fail here, not silently in a traced run.
    root = Path(__file__).resolve().parents[1]
    graph_spec, bundle_spec = diamagnetic_specs
    specs = ["--graph", graph_spec, "--bundle", bundle_spec]
    commands = {
        "dominate": ["dominate", *specs, "--samples", "5"],
        "semigroup-id": ["semigroup-id", *specs],
        "uniqueness": ["uniqueness", *specs],
    }
    for name, argv in commands.items():
        argv += ["--out", str(tmp_path / f"{name}.json")]
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "src"),
         str(root / "mglbench"), json.dumps(commands)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    runs = json.loads(result.stdout)
    for name in commands:
        assert runs[name]["code"] == 0, name
    for name in ("dominate", "semigroup-id"):
        assert runs[name]["metrics"]["forms.operator_inits"] > 0, name
        assert runs[name]["metrics"]["forms.operator_dim_sum"] > 0, name
    dominate = runs["dominate"]["metrics"]
    assert dominate["forms.evaluate_calls"] > 0
    assert dominate["domination.comparisons"] > 0
    assert runs["semigroup-id"]["metrics"]["forms.evaluate_calls"] > 0
    assert runs["semigroup-id"]["metrics"]["spectral.euler_solves"] > 0
    # uniqueness builds each prefix block from the graph: no form operator
    # and no restricted graph.
    uniqueness = runs["uniqueness"]["metrics"]
    assert uniqueness["forms.operator_inits"] == 0
    assert uniqueness["graphs.restrict_calls"] == 0
    assert uniqueness["metrics.exhaustion_uniqueness_experiment_s"] > 0
