import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from mgl import (
    WeightedGraph,
    assemble_magnetic_form,
    assemble_scalar_form,
    beurling_deny_check,
    check_form_domination,
    check_resolvent_domination,
    check_semigroup_domination,
    diamagnetic_report,
    sgn_inequality_check,
    trivial_bundle,
)
from mgl.bundles import HermitianBundle, load_bundle, pair
from mgl.cli import run
from mgl.domination import (
    DOMINATION_TOL,
    _edge_probes,
    _vertex_probes,
    hypothesis_margins,
)
from mgl.errors import DimensionMismatch
from mgl.forms import FormOperator
from mgl.graphs import load_graph


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
    # Unitary connections make every edge probe an equality, so the slack is 0.
    assert abs(verdict.slack) <= 1e-9


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
    assert set(verdict.to_report()) == {
        "passed", "slack", "witness_vertex", "witness_param", "witness_vector"}


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
            assert beurling_deny_check(B)["positivity"]["semigroup_ok"]


def test_grid_pass_next_to_failing_hypothesis_is_consistent():
    # A triangle with flux pi and c(0) = 0.01 > W(0) = 0, so that
    # lambda_min(W - c) = -0.01 at vertex 0. The hypothesis and the form level
    # fail; the resolvent level passes on {0.5, 1, 10}. A failing hypothesis
    # forbids domination at some alpha, not at every one: no contradiction.
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0},
                      killing=[0.01, 0.0, 0.0])
    report = diamagnetic_report(g, HermitianBundle(g, 1, {(0, 1): [[-1.0]]}))
    assert report.hypothesis_margins.min() == pytest.approx(-0.01, rel=1e-12)
    assert not report.hypothesis_ok and not report.form.passed
    assert report.resolvent.passed and not report.semigroup.passed
    assert report.consistent


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


@st.composite
def unitary_bundles(draw):
    """A random graph on at most 8 vertices with a rank <= 3 bundle of
    random unitary connections and W(x) = c(x) I + (PSD noise); at one
    vertex, optionally, W(x) - c(x) I gets the eigenvalue -delta.

    delta is 0 or at least 0.3. A smaller violation need not break
    domination at the default grids: for delta = 0.01, resolvent domination
    at alpha in {0.5, 1, 10} held exactly (by the kernel blocks) on most
    random instances and failed only at alpha >= 100.
    """
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    floats = st.floats(0.0, 1.0)
    pairs = {(x, x + 1) for x in range(n - 1)}
    for x, y in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=4)):
        if x != y:
            pairs.add((min(x, y), max(x, y)))
    edges = {e: 0.1 + 1.9 * draw(floats) for e in sorted(pairs)}
    delta = draw(st.sampled_from([0.0, 0.3, 1.0]))
    killing = [delta + draw(floats) for _ in range(n)]
    measure = [0.2 + 2.8 * draw(floats) for _ in range(n)]
    G = WeightedGraph(n, edges, killing, measure)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    connection = {e: fixtures.random_unitary(d, rng) for e in edges}
    endo = np.empty((n, d, d), dtype=complex)
    for x in range(n):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        endo[x] = killing[x] * np.eye(d) + 0.3 * (z @ z.conj().T)
    if delta:
        x = draw(st.integers(0, n - 1))
        w, v = np.linalg.eigh(endo[x] - killing[x] * np.eye(d))
        endo[x] -= (w[0] + delta) * np.outer(v[:, 0], v[:, 0].conj())
    return G, HermitianBundle(G, d, connection, endo)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(unitary_bundles())
def test_every_verdict_equals_the_hypothesis(instance):
    # With unitary connections W(x) >= c(x) I is necessary and sufficient
    # for domination, so each level must reach the hypothesis verdict.
    G, bundle = instance
    report = diamagnetic_report(G, bundle, samples=10, seed=5)
    for verdict in (report.form, report.resolvent, report.semigroup):
        assert verdict.passed == report.hypothesis_ok
    assert report.consistent


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


def _section(n, d, x, fiber):
    out = np.zeros((n, d), dtype=complex)
    out[x] = fiber
    return out.reshape(-1)


def _pair_slack(A, B, f1, f2):
    """Re Q_A(f1, f2) - Q_B(|f1|, |f2|) through FormOperator.evaluate."""
    n, d = A.n, A.d
    g1, g2 = (np.linalg.norm(f.reshape(n, d), axis=1) for f in (f1, f2))
    return A.evaluate(f1, f2).real - B.evaluate(g1, g2).real


def test_fiber_probes_match_evaluate_and_beat_axes():
    # Each probe slack is the slack of its own sections, evaluated as
    # Re Q_A(f1, f2) - Q_B(|f1|, |f2|) through FormOperator.evaluate, and no
    # axis-aligned pair (e_{x,i}, e_{y,j}) or random unit fiber direction
    # gives a smaller slack on that edge or vertex.
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
        edge, edge_fibers = _edge_probes(A, B, G.edges)
        diag, fibers = _vertex_probes(A, B)
        assert edge.shape == (len(G.edges),) and edge_fibers.shape == (len(G.edges), d)
        assert diag.shape == (n,) and fibers.shape == (n, d)
        axes = np.eye(d)
        random = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
        random /= np.linalg.norm(random, axis=1)[:, None]
        for k, (x, y) in enumerate(G.edges):
            f1 = _section(n, d, x, edge_fibers[k])
            # The partner fiber is -L_A(y,x) v / ||L_A(y,x) v||.
            image = A.L[y * d:(y + 1) * d, x * d:(x + 1) * d] @ edge_fibers[k]
            f2 = _section(n, d, y, -image / np.linalg.norm(image))
            expected = _pair_slack(A, B, f1, f2)
            assert abs(edge[k] - expected) <= 1e-12 * max(1, abs(expected))
            for a in axes:
                for b in axes:
                    axis = _pair_slack(A, B, _section(n, d, x, a), _section(n, d, y, b))
                    assert edge[k] <= axis + 1e-12
        for x in range(n):
            f = _section(n, d, x, fibers[x])
            expected = _pair_slack(A, B, f, f)
            assert abs(diag[x] - expected) <= 1e-12 * max(1, abs(expected))
            for a in np.concatenate([axes, random]):
                f = _section(n, d, x, a)
                assert diag[x] <= _pair_slack(A, B, f, f) + 1e-12


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
    keys = [report[level].keys() for level in ("form", "resolvent", "semigroup")]
    assert keys[0] == keys[1] == keys[2]
    assert report["consistent"] is True
    assert code == 0


def _domination_cases():
    """(A, B, bundle) over the fixture set: each scalar form against itself,
    rank-1 to rank-3 bundles, doubled-weight failing pairs and the W = 0
    control family."""
    rng = np.random.default_rng(55)
    cases = []
    for g in fixtures.fixture_graphs().values():
        B = assemble_scalar_form(g)
        cases.append((B, B, trivial_bundle(g)))
        for d in (1, 2, 3):
            bundle = fixtures.random_bundle(g, d, rng)
            cases.append((assemble_magnetic_form(g, bundle), B, bundle))
    pairs = [fixtures.doubled_pair(seed) for seed in range(3)]
    for seed in range(2):
        graph_doc, bundle_doc = fixtures.killing_without_endo_docs(seed, n=20)
        G = load_graph(graph_doc)
        pairs.append((G, load_bundle(G, bundle_doc), G))
    for G, bundle, G_scalar in pairs:
        A = assemble_magnetic_form(G, bundle)
        cases.append((A, assemble_scalar_form(G_scalar), bundle))
    return cases


def _worst_fibers(A, B):
    """Per vertex, a unit lambda_min eigenvector of L_A(x,x) - L_B(x,x) I."""
    d = A.d
    fibers = np.empty((A.n, d), dtype=complex)
    for x in range(A.n):
        block = A.L[x * d:(x + 1) * d, x * d:(x + 1) * d] - B.L[x, x] * np.eye(d)
        fibers[x] = np.linalg.eigh(block)[1][:, 0]
    return fibers


def _pointwise_by_parameter(A, B, params, sections, apply):
    """Reference pointwise check: per-parameter F.semigroup or F.resolvent
    calls on the samples followed by the vertex probes e_x (x) v_x.
    Returns the worst slack with its parameter, vertex and section."""
    n, d = A.n, A.d
    basis = np.zeros((n, n, d), dtype=complex)
    basis[np.arange(n), np.arange(n)] = _worst_fibers(A, B)
    probes = np.concatenate([sections, basis])
    flat = probes.reshape(len(probes), -1).T
    mags = np.linalg.norm(probes, axis=2).T
    best, witness = np.inf, None
    for p in params:
        image = apply(A, p, flat).reshape(n, d, -1)
        slack = apply(B, p, mags).real - np.linalg.norm(image, axis=1)
        x, j = np.unravel_index(np.argmin(slack), slack.shape)
        if slack[x, j] < best:
            best, witness = float(slack[x, j]), (float(p), int(x), probes[j])
    return best, witness


def _form_by_sample(A, B, bundle, sections, rng):
    """Reference for the random part of the form check: one sample at a
    time, every form value a single-vector evaluate. Returns the slack
    Re Q_A(u, f2) - Q_B(|u|, g) of each sample u and its aligned section f2
    of magnitude g."""
    aligned = []
    for u in sections:
        g = np.abs(rng.standard_normal(A.n))
        f2 = pair(u, g, bundle)
        aligned.append(
            A.evaluate(u.reshape(-1), f2.reshape(-1)).real
            - B.evaluate(np.linalg.norm(u, axis=1), g).real
        )
    return np.array(aligned)


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_eigencoordinate_checks_match_per_parameter_route():
    # The pointwise checks project each batch into eigencoordinates once and
    # the form check evaluates all samples in one batch; both must reproduce
    # the per-parameter and per-sample routes: the same verdicts, witnesses
    # and slacks to 1e-12 relative.
    rng = np.random.default_rng(56)
    levels = (
        (check_semigroup_domination, FormOperator.semigroup, (0.0, 0.01, 0.1, 1, 10)),
        (check_resolvent_domination, FormOperator.resolvent, (0.5, 1.0, 10.0)),
    )
    failures = 0
    for A, B, bundle in _domination_cases():
        shape = (5, A.n, A.d)
        sections = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for check, apply, grid in levels:
            verdict = check(A, B, grid, samples=sections)
            slack, (param, vertex, section) = _pointwise_by_parameter(
                A, B, grid, sections, apply
            )
            assert _close(verdict.slack, slack)
            assert verdict.passed == (slack >= -DOMINATION_TOL)
            if not verdict.passed:
                failures += 1
                assert (verdict.witness_param, verdict.witness_vertex) == (param, vertex)
                np.testing.assert_array_equal(verdict.witness_vector, section)
        # At t = 0 the semigroup is the identity: each vertex probe
        # e_x (x) v_x has norm e_x, with slack exactly 0.
        assert check_semigroup_domination(A, B, (0.0,), samples=0).slack == 0.0

        verdict = check_form_domination(A, B, bundle, sections, rng=7)
        aligned = _form_by_sample(A, B, bundle, sections, np.random.default_rng(7))
        edge, _ = _edge_probes(A, B, bundle.graph.edges)
        diag, _ = _vertex_probes(A, B)
        paired = min(aligned.min(), edge.min(initial=np.inf), diag.min())
        assert _close(verdict.slack, paired)
        assert verdict.passed == (paired >= -DOMINATION_TOL)
        if not verdict.passed and verdict.witness_vertex is None:
            np.testing.assert_array_equal(
                verdict.witness_vector, sections[np.argmin(aligned)]
            )
    assert failures >= 10


def _p30(s):
    """P30 with unit weights, c = 0.5, identity connections and, at every
    vertex, W = [[0.51, s], [s, 0.51]]: lambda_min(W - c) = 0.01 - s."""
    n = 30
    G = WeightedGraph(n, {(x, x + 1): 1.0 for x in range(n - 1)}, killing=[0.5] * n)
    endo = np.broadcast_to(np.array([[0.51, s], [s, 0.51]], dtype=complex), (n, 2, 2))
    bundle = HermitianBundle(G, 2, {}, endo)
    return assemble_magnetic_form(G, bundle), assemble_scalar_form(G), bundle


def test_energy_budget_holds_whenever_the_probes_pass():
    # The form check needs no energy budget (for 0 <= g <= |u| and the
    # aligned section f of magnitude g, Q_B(g) + Q_A(u) - Q_A(f) >= 0): with
    # unitary connections that slack is at least
    # 1/2 sum (b_B - b_A)|g(x) - g(y)|^2 + sum c_B g^2 + sum (|u|^2 - g^2)<W s, s>
    # (s = u/|u|), and each term is >= 0 once every edge and vertex probe
    # passes; so the budget can fail only where a probe already fails.
    rng = np.random.default_rng(57)
    cases = _domination_cases() + [_p30(0.02), _p30(0.3)]
    checked = 0
    for A, B, bundle in cases:
        edge, _ = _edge_probes(A, B, bundle.graph.edges)
        diag, _ = _vertex_probes(A, B)
        probes_pass = min(edge.min(initial=np.inf), diag.min()) >= -DOMINATION_TOL
        shape = (20, A.n, A.d)
        sections = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        budget = []
        for u in sections:
            g = rng.random(A.n) * np.linalg.norm(u, axis=1)
            f = pair(u, g, bundle).reshape(-1)
            budget.append(B.quad(g) + A.quad(u.reshape(-1)) - A.quad(f))
        if probes_pass:
            checked += 1
            assert min(budget) >= -DOMINATION_TOL
    assert checked >= 20
