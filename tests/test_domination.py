import json

import numpy as np
import pytest

import fixtures
from mgl import (
    WeightedGraph,
    assemble_magnetic_form,
    assemble_scalar_form,
    check_form_domination,
    check_resolvent_domination,
    check_semigroup_domination,
    diamagnetic_report,
    positivity_check,
    sgn_inequality_check,
    trivial_bundle,
)
from mgl.bundles import HermitianBundle
from mgl.cli import run
from mgl.domination import _coordinate_probe_slacks, hypothesis_margins
from mgl.errors import DimensionMismatch


def doubled_p2():
    g = fixtures.p2()
    g2 = WeightedGraph(2, {(0, 1): 2.0})
    A = assemble_magnetic_form(g2, trivial_bundle(g2))
    B = assemble_scalar_form(g)
    return A, B, trivial_bundle(g2)


def test_semigroup_domination_antipodal_equality():
    g = fixtures.p2()
    A = assemble_magnetic_form(g, fixtures.phase_bundle(g, np.pi))
    B = assemble_scalar_form(g)
    verdict = check_semigroup_domination(A, B, rng=0)
    assert verdict.passed
    # Equality case: |e^{-tA}u| matches e^{-tB}|u| on the sign-flipped probe.
    t = 0.5
    u = np.array([1.0, 0.0], dtype=complex)
    lhs = np.abs(A.semigroup(t, u))
    rhs = B.semigroup(t, np.abs(u))
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_semigroup_self_domination_trivial_bundle():
    g = fixtures.path8_weighted()
    bundle = HermitianBundle(g, 1, {}, g.killing[:, None, None] * np.eye(1))
    A = assemble_magnetic_form(g, bundle)
    B = assemble_scalar_form(g)
    verdict = check_semigroup_domination(A, B, rng=0)
    assert verdict.passed


def test_semigroup_domination_doubled_weights_fails():
    A, B, _ = doubled_p2()
    # Pin the derived witness by feeding only the coordinate probe e_0
    # (the built-in basis probes add its mirror image).
    probe = np.zeros((1, 2, 1), dtype=complex)
    probe[0, 0, 0] = 1.0
    verdict = check_semigroup_domination(A, B, t_list=(0.5,), samples=probe, rng=0)
    assert not verdict.passed
    expected = 0.5 * (1 - np.exp(-1.0)) - 0.5 * (1 - np.exp(-2.0))
    assert verdict.slack == pytest.approx(expected, abs=1e-12)
    assert verdict.witness_param == 0.5
    assert verdict.witness_vertex is not None
    assert verdict.witness_vector is not None


def test_resolvent_domination_pass_and_fail():
    g = fixtures.p2()
    A = assemble_magnetic_form(g, fixtures.phase_bundle(g, np.pi))
    B = assemble_scalar_form(g)
    assert check_resolvent_domination(A, B, (0.5, 1.0, 10.0), rng=0).passed

    scalarA = assemble_magnetic_form(g, trivial_bundle(g))
    assert check_resolvent_domination(scalarA, B, rng=0).passed

    A2, B2, _ = doubled_p2()
    verdict = check_resolvent_domination(A2, B2, rng=0)
    assert not verdict.passed
    assert verdict.slack < -1e-3


def test_form_domination_passes_diamagnetic():
    G, bundle = fixtures.diamagnetic_instance(0, n_max=25)
    A = assemble_magnetic_form(G, bundle)
    B = assemble_scalar_form(G)
    verdict = check_form_domination(A, B, bundle, rng=0)
    assert verdict.passed
    assert verdict.slack >= -1e-9
    assert np.isfinite(verdict.detail["max_dominating_energy"])


def test_form_domination_doubled_witness():
    A, B, bundle = doubled_p2()
    # The disjoint pair e_0, e_1 gives Re a = -2 against b = -1.
    e0 = np.array([1.0 + 0j, 0.0])
    e1 = np.array([0.0 + 0j, 1.0])
    assert A.evaluate(e0, e1).real == pytest.approx(-2.0)
    assert B.evaluate(e0.real, e1.real).real == pytest.approx(-1.0)
    verdict = check_form_domination(A, B, bundle, rng=0)
    assert not verdict.passed
    assert verdict.slack <= -1.0 + 1e-12  # at least as bad as the edge probe
    assert verdict.detail["paired_inequality_slack"] <= -1.0 + 1e-12


def test_form_domination_equality_trivial_gauge():
    # Constant section, identity connection, W = c: paired inequality with
    # magnitude equal on both sides.
    g = fixtures.path8_weighted()
    bundle = HermitianBundle(g, 1, {}, g.killing[:, None, None] * np.eye(1))
    A = assemble_magnetic_form(g, bundle)
    B = assemble_scalar_form(g)
    phase = np.exp(0.83j)
    f1 = np.full((g.n, 1), 2.0) * phase
    gfun = np.abs(np.random.default_rng(0).standard_normal(g.n))
    from mgl import pair

    f2 = pair(f1, gfun, bundle)
    lhs = A.evaluate(f1.reshape(-1), f2.reshape(-1)).real
    rhs = B.evaluate(np.abs(f1[:, 0]), gfun).real
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_three_way_agreement_on_families():
    for seed in range(5):
        G, bundle = fixtures.diamagnetic_instance(seed, n_max=25)
        report = diamagnetic_report(G, bundle, samples=40, seed=seed)
        assert report.hypothesis_ok
        assert report.semigroup.passed and report.resolvent.passed
        assert report.form.passed
        assert report.verdicts_agree and report.consistent

    for seed in range(5):
        G2, bundle2, G = fixtures.doubled_pair(seed)
        A = assemble_magnetic_form(G2, bundle2)
        B = assemble_scalar_form(G)
        rng = np.random.default_rng(seed)
        verdicts = [
            check_semigroup_domination(A, B, rng=rng),
            check_resolvent_domination(A, B, rng=rng),
            check_form_domination(A, B, bundle2, rng=rng),
        ]
        assert all(not v.passed for v in verdicts)


def test_domination_implies_dominating_positivity():
    # Whenever the semigroup verdict passes, the scalar side preserves the cone.
    for seed in range(3):
        G, bundle = fixtures.diamagnetic_instance(seed, n_max=20)
        A = assemble_magnetic_form(G, bundle)
        B = assemble_scalar_form(G)
        if check_semigroup_domination(A, B, rng=seed).passed:
            assert positivity_check(B, rng=seed).semigroup_ok


def test_scalar_self_domination_all_fixtures():
    for name, g in fixtures.fixture_graphs().items():
        bundle = HermitianBundle(g, 1, {}, g.killing[:, None, None] * np.eye(1))
        A = assemble_magnetic_form(g, bundle)
        B = assemble_scalar_form(g)
        assert check_semigroup_domination(A, B, (0.1, 1.0), 20, rng=1).passed, name
        assert check_resolvent_domination(A, B, (1.0,), 20, rng=1).passed, name
        assert check_form_domination(A, B, bundle, 20, rng=1).passed, name


def test_diamagnetic_report_hypothesis_failure_is_honest():
    # W = 0 but c(0) = 1: the sufficient condition fails; the report flags
    # it and records the verdicts as they come out (exit condition is
    # consistency, which only binds when the hypothesis holds).
    g = WeightedGraph(2, {(0, 1): 1.0}, killing=[1.0, 0.0])
    report = diamagnetic_report(g, trivial_bundle(g), samples=20, seed=3)
    assert not report.hypothesis_ok
    assert report.hypothesis_margins[0] == pytest.approx(-1.0)
    assert isinstance(report.consistent, bool)


def test_diamagnetic_report_equality_instance():
    g = fixtures.path8_weighted()
    bundle = HermitianBundle(g, 1, {}, g.killing[:, None, None] * np.eye(1))
    report = diamagnetic_report(g, bundle, samples=30, seed=4)
    assert report.hypothesis_ok and report.consistent
    assert report.semigroup.passed and report.resolvent.passed and report.form.passed


def test_hypothesis_margins_values():
    g = fixtures.p2()
    rng = np.random.default_rng(8)
    bundle = fixtures.random_bundle(g, 2, rng)
    margins = hypothesis_margins(g, bundle)
    for x in range(2):
        w = bundle.endo[x] - g.killing[x] * np.eye(2)
        expected = np.linalg.eigvalsh((w + w.conj().T) / 2).min()
        assert margins[x] == pytest.approx(expected)


def test_sgn_inequality_hand_values():
    # a = (2, 0), b = (0, 1), alpha = beta = 1: LHS 2 <= RHS 5.
    a = np.array([2.0, 0.0])
    b = np.array([0.0, 1.0])
    ta = a / 2.0
    tb = b
    lhs = np.linalg.norm(ta - tb) ** 2
    rhs = 0.0 + np.linalg.norm(a - b) ** 2
    assert lhs == pytest.approx(2.0)
    assert rhs == pytest.approx(5.0)


def test_sgn_inequality_random_and_branches():
    assert sgn_inequality_check(1, 500, rng=0) >= -1e-12
    assert sgn_inequality_check(3, 500, rng=1) >= -1e-12
    with pytest.raises(DimensionMismatch):
        sgn_inequality_check(2, 0)


def test_dimension_mismatch_rejected():
    A = assemble_scalar_form(fixtures.p3())
    B = assemble_scalar_form(fixtures.p2())
    with pytest.raises(DimensionMismatch):
        check_semigroup_domination(A, B)


def _unit(n, d, x, j=0):
    out = np.zeros(n * d, dtype=complex)
    out[x * d + j] = 1.0
    return out


def test_coordinate_probes_equal_evaluate_exactly():
    # The probe slacks are entry reads of the form matrices; they must equal
    # the same probes evaluated as Re Q_A(f1, f2) - Q_B(|f1|, |f2|) through
    # FormOperator.evaluate, bit for bit, on every edge and every coordinate.
    rng = np.random.default_rng(90)
    cases = []
    for g in fixtures.fixture_graphs().values():
        for d in (1, 2, 3):
            cases.append((g, fixtures.random_bundle(g, d, rng), g))
    for seed in range(3):
        cases.append(fixtures.doubled_pair(seed))
    for G, bundle, G_scalar in cases:
        A = assemble_magnetic_form(G, bundle)
        B = assemble_scalar_form(G_scalar)
        n, d = A.n, A.d
        edge, diag = _coordinate_probe_slacks(A, B, G.edges)
        assert edge.shape == (len(G.edges),) and diag.shape == (n, d)
        for k, (x, y) in enumerate(G.edges):
            expected = (
                A.evaluate(_unit(n, d, x), _unit(n, d, y)).real
                - B.evaluate(_unit(n, 1, x).real, _unit(n, 1, y).real).real
            )
            assert edge[k] == expected
        for x in range(n):
            for j in range(d):
                e = _unit(n, d, x, j)
                expected = (
                    A.evaluate(e, e).real
                    - B.evaluate(_unit(n, 1, x).real, _unit(n, 1, x).real).real
                )
                assert diag[x, j] == expected


def test_form_level_catches_killing_without_endomorphism(tmp_path):
    # W = 0 with c > 0 (n = 60, rank 3): Q_A(e_{x,j}, e_{x,j}) - Q_B(e_x, e_x)
    # = -c(x), so the form level must fail as the other two levels do, and
    # the three agreeing verdicts make a consistent report with exit 0.
    graph_doc, bundle_doc = fixtures.killing_without_endo_docs()
    c_max = max(graph_doc["killing"])
    paths = []
    for name, doc in (("graph", graph_doc), ("bundle", bundle_doc)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    out = tmp_path / "report.json"
    code = run(["dominate", "--graph", paths[0], "--bundle", paths[1],
                "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["hypothesis"]["passed"] is False
    for key in ("form", "resolvent", "semigroup"):
        assert report[key]["passed"] is False, key
    assert report["form"]["slack"] <= -c_max * (1 - 1e-9)
    assert report["form"]["paired_inequality_slack"] <= -c_max * (1 - 1e-9)
    assert report["consistent"] is True
    assert code == 0
