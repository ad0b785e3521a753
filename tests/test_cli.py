import dataclasses
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fixtures
from mgl.cli import build_parser, run
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


def test_dominate_fault_injection_exit_1(diamagnetic_specs, tmp_path, monkeypatch):
    import mgl.cli
    from mgl.cli import cmd_dominate

    graph_spec, bundle_spec = diamagnetic_specs
    parser = build_parser()
    args = parser.parse_args(
        ["dominate", "--graph", graph_spec, "--bundle", bundle_spec,
         "--samples", "30", "--out", str(tmp_path / "r.json")]
    )
    honest = mgl.cli.diamagnetic_report

    def flip_semigroup(*args, **kwargs):
        result = honest(*args, **kwargs)
        failed = dataclasses.replace(result.semigroup, passed=False)
        return dataclasses.replace(result, semigroup=failed)

    monkeypatch.setattr(mgl.cli, "diamagnetic_report", flip_semigroup)
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
    assert set(report) == {"gaps", "criteria", "illustrative", "metadata"}
    assert set(report["criteria"]) == {"degree_bounded"}


def test_uniqueness_single_full_step(p2_spec, tmp_path):
    out = tmp_path / "u.json"
    assert run(["uniqueness", "--graph", p2_spec, "--omega", "2",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["gaps"][0]["scalar"] <= 1e-12
    assert report["gaps"][0]["magnetic"] <= 1e-12


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
    # singular in floating point: alpha = 1 is lost next to b. LAPACK stops
    # on one of these weights and leaves a pivot of rounding noise on the
    # other, so alpha is checked against the diagonal before factoring.
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


@pytest.mark.parametrize("m0", [1e12, 1e150, 1e-150])
def test_semigroup_id_form_limit_with_extreme_measure(tmp_path, m0):
    # P3 with one measure far from the others: u - e^{-tA}u must not be
    # formed as a difference, whose rounding floor eps * max m * |u|^2 / t
    # swamps the first-order term at the small t the suite uses.
    doc = {"n": 3, "edges": [{"u": 0, "v": 1, "b": 1.0}, {"u": 1, "v": 2, "b": 1.0}],
           "measure": [m0, 1.0, 1.0]}
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
    ],
    ids=["killing", "tiny-measure", "huge-measure", "endo"],
)
def test_overflowing_scales_are_input_errors(tmp_path, capsys, graph_doc, bundle_doc):
    # Each scale overflows in the form arithmetic (symmetrization, m-weighted
    # norms, eigensolvers) unless the loaders reject it, for every command.
    graph = write_json(tmp_path / "g.json", graph_doc)
    bundle = write_json(tmp_path / "b.json", bundle_doc)
    for command in ("validate", "spectrum", "dominate", "uniqueness", "semigroup-id"):
        code = run([command, "--graph", graph, "--bundle", bundle,
                    "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2, (command, err)
        assert err.startswith("input error:") and "vertex 0" in err, command
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "graph_doc, bundle_doc",
    [({"n": 200000}, {"rank": 1}), ({"n": 6000}, {"rank": 3})],
    ids=["graph", "bundle"],
)
def test_dense_size_guard_is_input_error(tmp_path, capsys, graph_doc, bundle_doc):
    # n * d above 16384 would ask for dense N x N matrices of many GiB (a
    # 320 GB adjacency at n = 200000); every command refuses it up front.
    graph = write_json(tmp_path / "g.json", graph_doc)
    bundle = write_json(tmp_path / "b.json", bundle_doc)
    start = time.perf_counter()
    for command in ("validate", "spectrum", "dominate", "uniqueness", "semigroup-id"):
        code = run([command, "--graph", graph, "--bundle", bundle,
                    "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2, (command, err)
        assert err.startswith("input error:") and "16384" in err, command
        assert "Traceback" not in err
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
        assert runs[name]["metrics"]["forms.operator_inits"] > 0, name
        assert runs[name]["metrics"]["forms.operator_dim_sum"] > 0, name
    dominate = runs["dominate"]["metrics"]
    assert dominate["forms.evaluate_calls"] > 0
    assert dominate["domination.comparisons"] > 0
    assert runs["semigroup-id"]["metrics"]["forms.evaluate_calls"] > 0
    assert runs["semigroup-id"]["metrics"]["spectral.euler_solves"] > 0
    # uniqueness builds the two host forms once and restricts no graph.
    assert runs["uniqueness"]["metrics"]["forms.operator_inits"] == 2
