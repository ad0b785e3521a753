import json
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
import oracles
from mgl import (
    HermitianBundle,
    WeightedGraph,
    assemble_magnetic_form,
    assemble_scalar_form,
    beurling_deny_check,
    euler_limit_check,
    form_limit_check,
    laplace_check,
    load_bundle,
    load_graph,
)
from mgl.errors import (
    AlphaInSpectrum,
    AlphaTooSmall,
    DimensionMismatch,
    EigSolverFailure,
    NegativeTime,
    SchemaError,
)
from mgl.cli import run
from mgl.domination import DEFAULT_ALPHA_GRID, DEFAULT_T_GRID
from mgl.forms import FormOperator
from mgl.spectral import _identity_suite, semigroup_identities


def scalar_fixture_forms():
    return {
        name: assemble_scalar_form(g) for name, g in fixtures.fixture_graphs().items()
    }


def perturbed_p2_form():
    """Scalar P2 plus a bump making the off-diagonal entries positive."""
    F = assemble_scalar_form(fixtures.p2())
    return FormOperator(F.L.toarray() + np.array([[0.0, 1.5], [1.5, 0.0]]), F.measure)


def test_semigroup_p2_closed_form():
    F = assemble_scalar_form(fixtures.p2())
    u = np.array([1.0, 0.0])
    t = 0.5
    out = F.semigroup(t, u)
    expected = [0.5 * (1 + np.exp(-2 * t)), 0.5 * (1 - np.exp(-2 * t))]
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_semigroup_identity_at_zero_exact():
    F = assemble_scalar_form(fixtures.path8_weighted())
    u = np.arange(8.0)
    out = F.semigroup(0.0, u)
    assert out.tobytes() == u.tobytes()
    with pytest.raises(NegativeTime):
        F.semigroup(-0.1, u)


def test_semigroup_magnetic_p2_closed_form():
    g = fixtures.p2()
    A = assemble_magnetic_form(g, fixtures.phase_bundle(g, np.pi))
    t = 0.7
    out = A.semigroup(t, np.array([1.0, 0.0], dtype=complex))
    expected = [0.5 * (1 + np.exp(-2 * t)), 0.5 * (np.exp(-2 * t) - 1)]
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_semigroup_contraction_bound():
    # For nonnegative forms the semigroup contracts the m-norm; recorded
    # samples stay within e^{max(0, -lambda) t} of the input norm.
    rng = np.random.default_rng(70)
    for F in scalar_fixture_forms().values():
        growth = np.exp(max(0.0, -F.lower_bound))
        u = rng.standard_normal(F.dim)
        for t in (0.1, 1.0, 10.0):
            out = F.semigroup(t, u)
            assert F.norm(out) <= growth**t * F.norm(u) * (1 + 1e-12)


def test_euler_rejects_negative_time():
    F = assemble_scalar_form(fixtures.p2())
    with pytest.raises(NegativeTime):
        euler_limit_check(F, -1.0, np.array([1.0, 0.0]), 16)


def test_semigroup_law_and_self_adjointness():
    rng = np.random.default_rng(71)
    for F in scalar_fixture_forms().values():
        u = rng.standard_normal(F.dim)
        v = rng.standard_normal(F.dim)
        for s, t in [(0.3, 0.9), (0.05, 0.05)]:
            left = F.semigroup(s, F.semigroup(t, u))
            right = F.semigroup(s + t, u)
            assert F.norm(left - right) <= 1e-10
        lhs = F.inner(F.semigroup(0.4, u), v)
        rhs = F.inner(u, F.semigroup(0.4, v))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_resolvent_examples():
    single = assemble_scalar_form(fixtures.single_vertex(2.0))
    np.testing.assert_allclose(
        single.resolvent(1.0, np.array([1.0])), [1.0 / 3.0]
    )

    F = assemble_scalar_form(fixtures.p2())
    u = np.array([1.0, 0.0])
    out = F.resolvent(1.0, u)
    direct = np.linalg.solve(F.L.toarray() + np.eye(2), u)   # m = 1, so A = L
    np.testing.assert_allclose(out, direct, atol=1e-12)
    residual = F.apply_generator(out) + 1.0 * out - u
    assert F.norm(residual) <= 1e-12

    with pytest.raises(AlphaInSpectrum):
        F.resolvent(-F.lower_bound, u)


def test_resolvent_identity():
    rng = np.random.default_rng(72)
    for F in scalar_fixture_forms().values():
        u = rng.standard_normal(F.dim)
        alpha, beta = 0.7, 2.3
        lhs = F.resolvent(alpha, u) - F.resolvent(beta, u)
        rhs = (beta - alpha) * F.resolvent(alpha, F.resolvent(beta, u))
        assert F.norm(lhs - rhs) <= 1e-10


def test_resolvent_matrix_matches_resolvent():
    rng = np.random.default_rng(75)
    forms = list(scalar_fixture_forms().values())
    g = fixtures.random_graph()
    forms.append(assemble_magnetic_form(g, fixtures.random_bundle(g, 2, rng)))
    for F in forms:
        u = rng.standard_normal((F.dim, 3)) + 1j * rng.standard_normal((F.dim, 3))
        for alpha in (0.5, 2.0):
            want = F.resolvent(alpha, u)
            got = F.resolvent_matrix(alpha) @ u
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_laplace_single_vertex_analytic():
    F = assemble_scalar_form(fixtures.single_vertex(2.0))
    residual = laplace_check(F, 1.0, np.array([1.0]))
    assert residual <= 1e-9  # integral of e^{-3t} = 1/3 matches resolvent


def test_laplace_residual_bound_fixtures():
    rng = np.random.default_rng(73)
    for F in scalar_fixture_forms().values():
        for alpha in (0.5, 2.0):
            u = rng.standard_normal(F.dim)
            assert laplace_check(F, alpha, u) <= 1e-6 * F.norm(u)
    with pytest.raises(AlphaTooSmall):
        laplace_check(assemble_scalar_form(fixtures.p2()), 1e-9, np.array([1.0, 0.0]))


def test_euler_scalar_closed_form():
    F = assemble_scalar_form(fixtures.single_vertex(1.0))
    err = euler_limit_check(F, 1.0, np.array([1.0]), 4096)
    n = 4096.0
    assert err == pytest.approx(abs((n / (n + 1)) ** n - np.exp(-1.0)), rel=1e-6)
    assert err <= 1e-3
    assert euler_limit_check(F, 0.0, np.array([1.0]), 16) == 0.0


def test_euler_doubling_ratio_p2():
    F = assemble_scalar_form(fixtures.p2())
    u = np.array([1.0, 0.3])
    errors = {n: euler_limit_check(F, 1.0, u, n) for n in (256, 512, 1024)}
    for n in (256, 512):
        ratio = errors[2 * n] / errors[n]
        assert 0.4 <= ratio <= 0.75


def euler_fixture_forms():
    rng = np.random.default_rng(75)
    forms = dict(scalar_fixture_forms())
    g = fixtures.random_graph()
    for d in (1, 2, 3):
        forms[f"rank{d}"] = assemble_magnetic_form(g, fixtures.random_bundle(g, d, rng))
    path = fixtures.path50_graph()
    forms["path50"] = assemble_scalar_form(path)
    forms["path50_bundle"] = assemble_magnetic_form(path, fixtures.path50_bundle(path))
    forms["1x1"] = assemble_scalar_form(fixtures.single_vertex(1.0))
    # One vertex of rank 3: T is 3 x 3 and Q is made of two reflectors.
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    forms["1x3"] = FormOperator(g @ g.conj().T, [0.7], d=3)
    return forms


def dense_euler_error(F, t, u, n):
    """Euler error from dense matrices alone: matrix_power and expm."""
    L, m = F.L.toarray(), F.m_diag
    s = n / t
    step = np.linalg.solve(L + s * np.diag(m), s * np.diag(m))
    power = np.linalg.matrix_power(step, n) @ u
    exact = scipy.linalg.expm(-t * (L / m[:, None])) @ u
    diff = power - exact
    return np.sqrt(np.sum(m * np.abs(diff) ** 2))


def test_euler_matches_dense_oracle():
    rng = np.random.default_rng(76)
    for name, F in euler_fixture_forms().items():
        u = rng.standard_normal(F.dim)
        vectors = [u]
        if np.iscomplexobj(F.L):
            # A complex vector, and a real one on the complex form.
            vectors.insert(0, u + 1j * rng.standard_normal(F.dim))
        for u in vectors:
            scale = np.sqrt(np.sum(F.m_diag * np.abs(u) ** 2))
            # n = 1 and 3 take no band power, or K = 2 with a step left
            # over; 33 and 100 leave n % K steps after the band solves.
            for n in (1, 3, 16, 33, 100, 256, 4096):
                got = euler_limit_check(F, 0.7, u, n)
                want = dense_euler_error(F, 0.7, u, n)
                assert abs(got - want) <= 1e-10 * scale, (name, n, got, want)


def _gershgorin_top(F):
    """max_i d_i + |e_(i-1)| + |e_i| of the form's tridiagonal T."""
    d, e = F._tridiagonal
    off = np.abs(e[: d.size - 1])
    return float((d + np.append(off, 0.0) + np.append(0.0, off)).max())


def test_euler_stiff_step_takes_no_band_power(monkeypatch):
    # With t g = 50 at n = 16, (1 + h g) = 4.1 > 2: no band power keeps
    # cond <= 2, so every step is a dpttrs solve, and the error still
    # matches the dense oracle.
    calls = fixtures.counting_lapack(monkeypatch, ("dpttrs", "dpbtrs", "dpbtrf"))
    rng = np.random.default_rng(78)
    for name in ("path8", "rank2"):
        F = euler_fixture_forms()[name]
        F = FormOperator(F.L.toarray() * (50.0 / (0.7 * _gershgorin_top(F))),
                         F.measure, F.d)
        assert _gershgorin_top(F) * 0.7 == pytest.approx(50.0)
        u = rng.standard_normal(F.dim) + 1j * rng.standard_normal(F.dim)
        del calls[:]
        got = euler_limit_check(F, 0.7, u, 16)
        assert [routine for routine, _ in calls] == ["dpttrs"] * 16
        want = dense_euler_error(F, 0.7, u, 16)
        assert abs(got - want) <= 1e-10 * F.norm(u), (name, got, want)


def test_euler_band_solves_replace_steps(monkeypatch):
    # (I + hT)^-n as band solves with (I + hT)^K: at n = 4096 one band
    # factorization, and at most n / 16 band solves plus fewer than 32 steps.
    calls = fixtures.counting_lapack(monkeypatch, ("dpttrs", "dpbtrs", "dpbtrf"))
    F = euler_fixture_forms()["rank2"]
    u = np.random.default_rng(79).standard_normal(F.dim)
    error = euler_limit_check(F, 0.7, u, 4096)
    routines = [routine for routine, _ in calls]
    assert routines.count("dpbtrf") == 1
    assert routines.count("dpbtrs") + routines.count("dpttrs") <= 4096 // 16 + 32
    assert error <= 1e-3 * F.norm(u)


def test_euler_reads_no_eigenvalue():
    # Scaling the cached eigenvalues moves the spectral semigroup only: were
    # the Euler power read off them too, the error would stay small. (It
    # applies Q* from the reduction's reflectors.)
    g = fixtures.random_graph()
    for F in (
        assemble_scalar_form(g),
        assemble_magnetic_form(g, fixtures.random_bundle(g, 2, np.random.default_rng(1))),
    ):
        u = np.random.default_rng(2).standard_normal(F.dim)
        assert _identity_suite(F, [1.0], 42)["euler_ok"]
        assert euler_limit_check(F, 1.0, u, 4096) <= 1e-3 * F.norm(u)
        w, Z = F._eigensystem
        F.__dict__["_eigensystem"] = (w * (1 + 1e-2), Z)
        assert euler_limit_check(F, 1.0, u, 4096) > 1e-3 * F.norm(u)
        assert not _identity_suite(F, [1.0], 42)["euler_ok"]


def test_identity_figures_agree_whichever_way_q_is_applied():
    # Until U is built, Q* is applied from the reduction's reflectors (?unmqr);
    # after, as U Z^T. On each fixture form, built afresh for each route, the
    # Euler errors agree to 1e-10 relative, and the two routes' Laplace
    # residuals differ by at most 1e-13 |u|_m and stay within 1e-12 |u|_m at
    # alpha = 1 and 10. (At alpha = 0.5 the quadrature's truncation alone
    # leaves 1.6e-12 |u|_m on path50, on either route.) The identity suite
    # reads the same verdicts.
    reflected, built = euler_fixture_forms(), euler_fixture_forms()
    rng = np.random.default_rng(77)
    flags = ("laplace_ok", "euler_ok", "form_limit_ok")
    for name, F in reflected.items():
        G = built[name]
        G.eigenvectors
        u = rng.standard_normal(F.dim)
        if np.iscomplexobj(F.L):
            u = u + 1j * rng.standard_normal(F.dim)
        scale = F.norm(u)
        for n in (16, 256, 4096):
            got, want = euler_limit_check(F, 0.7, u, n), euler_limit_check(G, 0.7, u, n)
            assert abs(got - want) <= 1e-10 * want, (name, n, got, want)
        for alpha in (0.5, 1.0, 10.0):
            residuals = [laplace_check(form, alpha, u) for form in (F, G)]
            assert abs(residuals[0] - residuals[1]) <= 1e-13 * scale, (name, alpha)
            assert alpha < 1 or max(residuals) <= 1e-12 * scale, (name, alpha, residuals)
        suites = [_identity_suite(form, [0.5, 1.0, 10.0], 42) for form in (F, G)]
        assert [[suite[flag] for flag in flags] for suite in suites] == [[True] * 3] * 2
        assert "_eigenvectors" not in F.__dict__, name


def test_identity_figures_match_a_dense_oracle():
    # The identity checks compare their routes in T's coordinates; the
    # oracle (tests/oracles.py) takes the same figures from eigh(L, M) in the
    # vertex frame. Euler errors agree to 1e-10 relative, beyond the n eps
    # |u|_m that n sequential solves may round off (at n = 4096 that is up
    # to 4e-9 of an error of order 1e-5 |u|_m). Form-limit defects, for
    # v = u and for another v, agree to 1e-9 relative. Laplace residuals,
    # 0 in exact arithmetic, stay within 1e-12 |u|_m on both sides at
    # alpha = 1 and 10.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(91)
    for name, F in euler_fixture_forms().items():
        L, m = F.L.toarray(), F.m_diag
        u, v = rng.standard_normal((2, F.dim))
        if np.iscomplexobj(F.L):
            u, v = u + 1j * rng.standard_normal(F.dim), v + 1j * rng.standard_normal(F.dim)
        scale = F.norm(u)
        for n in (16, 256, 4096):
            got, want = euler_limit_check(F, 0.7, u, n), oracles.euler_error(L, m, 0.7, u, n)
            assert abs(got - want) <= 1e-10 * want + n * eps * scale, (name, n, got, want)
        for alpha in (1.0, 10.0):
            residuals = laplace_check(F, alpha, u), oracles.laplace_residual(L, m, u, alpha)
            assert max(residuals) <= 1e-12 * scale, (name, alpha, residuals)
        t0 = 1e-3 / np.abs(F.eigenvalues).max()
        t_list = [t0, t0 / 2, 1.0]
        for w in (u, v):
            got = form_limit_check(F, u, w, t_list)
            want = oracles.form_limit_defects(L, m, u, w, t_list)
            assert np.abs(got - want).max() <= 1e-9 * want.min(), (name, got, want)


def test_semigroup_id_applies_no_q_back(monkeypatch, tmp_path):
    # Each identity check projects its vector once, Q* M^1/2 u, from the
    # reduction's reflectors, and compares its routes there: one semigroup-id
    # run calls ?unmqr only with the adjoint trans, once per Laplace alpha,
    # Euler power and form-limit check on each form.
    calls = []
    for name in ("zunmqr", "dormqr"):
        routine = getattr(lapack, name)

        def counting(side, trans, *args, _routine=routine, _name=name, **kwargs):
            calls.append((_name, trans))
            return _routine(side, trans, *args, **kwargs)

        monkeypatch.setattr(lapack, name, counting)
    paths = []
    for name, doc in zip(("graph", "bundle"), fixtures.diamagnetic_docs(d=2)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    argv = ["semigroup-id", "--graph", str(paths[0]), "--bundle", str(paths[1])]
    assert run([*argv, "--out", str(tmp_path / "report.json")]) == 0
    checks = len(DEFAULT_ALPHA_GRID) + 3 + 1
    assert sorted(calls) == [("dormqr", "T")] * checks + [("zunmqr", "C")] * checks


def test_identity_suite_refusal_names_no_flag():
    # A library caller passes no flag: the refusal of alphas at or below the
    # Laplace floor names none (semigroup-id adds --alpha to it).
    with pytest.raises(AlphaTooSmall, match=re.escape(
            "no alpha exceeds the Laplace-check floor 1e-06; filtered: [1e-09]")) as info:
        semigroup_identities(WeightedGraph(2, {(0, 1): 1.0}), None, [1e-9], 0)
    assert "--" not in str(info.value)


def test_euler_reduces_each_form_once(monkeypatch):
    calls = fixtures.counting_lapack(monkeypatch, ("zhetrd", "dsytrd"))
    forms = euler_fixture_forms()
    for F in (forms["rank2"], forms["path50"]):
        u = np.ones(F.dim)
        before = len(calls)
        for n in (256, 512, 4096):
            euler_limit_check(F, 0.7, u, n)
        assert [shape for _, shape in calls[before:]] == [(F.dim, F.dim)]


def test_spectrum_and_euler_share_one_reduction(monkeypatch):
    # Whichever is read first, the eigensystem and the Euler check use the
    # same cached ?hetrd reduction; the eigensystem adds one dstevd on T.
    calls = fixtures.counting_lapack(monkeypatch, ("zhetrd", "dsytrd", "dstevd"))
    g = fixtures.random_graph()
    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(3))
    for spectrum_first in (True, False):
        for F in (assemble_scalar_form(g), assemble_magnetic_form(g, bundle)):
            u = np.ones(F.dim)
            before = len(calls)
            if spectrum_first:
                F.eigenvalues
            error = euler_limit_check(F, 0.7, u, 256)
            F.eigenvectors
            hetrd = "zhetrd" if np.iscomplexobj(F.L) else "dsytrd"
            expected = [(hetrd, (F.dim, F.dim)), ("dstevd", (F.dim,))]
            assert sorted(calls[before:]) == sorted(expected)
            assert error <= 1e-2 * F.norm(u)


def test_semigroup_id_reduces_each_form_once(monkeypatch, tmp_path):
    # One semigroup-id run on a rank-2 spec: one reduction of the magnetic
    # form (zhetrd) and one of the scalar form (dsytrd), read by both the
    # Euler check and the eigensystem; no full eigensolver runs.
    def refuse(*args, **kwargs):
        raise AssertionError("a second eigensolver route ran")

    for name in ("zheevd", "dsyevd"):
        monkeypatch.setattr(lapack, name, refuse)
    calls = fixtures.counting_lapack(monkeypatch, ("zhetrd", "dsytrd"))
    paths = []
    for name, doc in zip(("graph", "bundle"), fixtures.diamagnetic_docs(d=2)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["semigroup-id", "--graph", str(paths[0]), "--bundle", str(paths[1])]
    assert run([*argv, "--out", str(out)]) == 0
    n = json.loads(paths[0].read_text())["n"]
    assert sorted(calls) == [("dsytrd", (n, n)), ("zhetrd", (2 * n, 2 * n))]


def test_euler_refuses_failed_lapack_calls(monkeypatch):
    # A non-finite form fails at the reduction, for real and complex L (an
    # infinity in a complex L already turns to NaN on ingest, with a warning).
    g = fixtures.p3()
    for dtype, bad in ((float, np.nan), (float, np.inf), (complex, np.nan)):
        for entry in ((1, 1), (2, 0)):
            L = assemble_scalar_form(g).L.toarray().astype(dtype)
            L[entry] = bad
            with pytest.raises(EigSolverFailure, match="tridiagonal"):
                euler_limit_check(FormOperator(L, g.measure), 0.7, np.ones(3), 16)
    # I + (t/n)A is not positive definite: dpttrf reports it.
    F = FormOperator(-100.0 * np.eye(2), [1.0, 1.0])
    with pytest.raises(EigSolverFailure, match="dpttrf"):
        euler_limit_check(F, 0.7, np.ones(2), 16)
    for name in ("zhetrd", "dstevd", "zunmqr", "dpttrs", "dpbtrf", "dpbtrs"):
        routine = getattr(lapack, name)

        def failing(*args, _routine=routine, **kwargs):
            return *_routine(*args, **kwargs)[:-1], -1

        with monkeypatch.context() as patch:
            patch.setattr(lapack, name, failing)
            F = euler_fixture_forms()["rank2"]
            with pytest.raises(EigSolverFailure, match="info = -1"):
                # At n = 16 every step is a dpttrs solve; at 4096 the band
                # power is factored and solved with.
                euler_limit_check(F, 0.7, np.ones(F.dim), 4096 if "pb" in name else 16)


def _stepwise_euler_error(F, t, u, n):
    """The Euler error by n sequential dpttrs solves with I + (t/n) T, on
    the form's own reduction, one step at a time."""
    d, e = F._tridiagonal
    h = t / n
    df, ef, info = lapack.dpttrf(1.0 + h * d, h * e)
    assert info == 0

    def steps(y):
        for _ in range(n):
            y, info = lapack.dpttrs(df, ef, y, overwrite_b=1)
            assert info == 0
        return y

    # Both sides in T's coordinates w = Q* M^1/2 u, where the m-norm is the
    # 2-norm.
    w = F._project(u)
    Z = F._eigensystem[1]
    exact = Z @ (np.exp(-t * F.eigenvalues)[:, None] * (Z.T @ w))
    return float(np.linalg.norm(steps(w) - exact))


def test_semigroup_id_on_a_benchmark_shaped_instance(tmp_path):
    # The benchmark's generator at n = 120, rank 2, seed 1: every verdict
    # passes, the Euler errors match stepwise dpttrs solves to 1e-10
    # relative, and a rerun writes the same bytes.
    fixtures.bench_specs().write_instance(tmp_path, "main", 120, 2, 1)
    graph, bundle = tmp_path / "main.graph.json", tmp_path / "main.bundle.json"
    reports = []
    for k in range(2):
        out = tmp_path / f"report{k}.json"
        argv = ["semigroup-id", "--graph", str(graph), "--bundle", str(bundle)]
        assert run([*argv, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["ok"] is True
    g = load_graph(graph, True)
    forms = {"magnetic": assemble_magnetic_form(g, load_bundle(g, bundle, True)),
             "scalar": assemble_scalar_form(g)}
    for key, F in forms.items():
        section = report[key]
        flags = [flag for flag in section if flag.endswith("_ok")]
        assert flags and all(section[flag] for flag in flags), key
        rng = np.random.default_rng(42)
        u = rng.standard_normal(F.dim)
        if np.iscomplexobj(F.L):
            u = u + 1j * rng.standard_normal(F.dim)
        mu = F.eigenvalues
        t = min(1.0, 10.0 / max(abs(mu[0]), abs(mu[-1]), 1e-12))
        for n, got in section["euler_errors"].items():
            want = _stepwise_euler_error(F, t, u, int(n))
            assert abs(got - want) <= 1e-10 * want, (key, n, got, want)
    beurling_deny = report["scalar"]["beurling_deny"]
    assert all(beurling_deny[side][flag] for side in ("positivity", "markov")
               for flag in ("form_ok", "semigroup_ok"))


def test_form_limit_p2_example():
    F = assemble_scalar_form(fixtures.p2())
    u = np.array([1.0, 0.0])
    defects = form_limit_check(F, u, u, [1e-3])
    assert defects[0] <= 1.1e-3
    assert defects[0] == pytest.approx(
        abs((1 - np.exp(-2e-3)) / 2e-3 - 1.0), rel=1e-6
    )


def test_form_limit_kernel_vector():
    F = assemble_scalar_form(fixtures.triangle())  # c = 0: constants in kernel
    ones = np.ones(3)
    defects = form_limit_check(F, ones, ones, [1.0, 0.1, 1e-3])
    assert (defects <= 1e-12).all()


def test_form_limit_linear_convergence():
    rng = np.random.default_rng(74)
    for F in scalar_fixture_forms().values():
        radius = max(abs(F.eigenvalues[-1]), 1e-9)
        u = rng.standard_normal(F.dim)
        v = rng.standard_normal(F.dim)
        t = 0.01 / radius
        defects = form_limit_check(F, u, v, [t, t / 2])
        if defects[0] <= 1e-12:  # degenerate sample (kernel directions)
            continue
        assert 0.35 <= defects[1] / defects[0] <= 0.65


def test_positivity_check_examples():
    report = beurling_deny_check(assemble_scalar_form(fixtures.p2()))["positivity"]
    assert report["form_ok"] and report["semigroup_ok"]
    assert report["max_off_diagonal"] == -1.0 and report["form_witness"] == [0, 1]
    # S_t(0, 1) / S_t(0, 0) = tanh(t) on P2; smallest at the smallest t.
    assert report["min_kernel_ratio"] == pytest.approx(np.tanh(0.01), rel=1e-12)

    single = beurling_deny_check(assemble_scalar_form(fixtures.single_vertex(1.0)))
    report = single["positivity"]
    assert report["form_ok"] and report["semigroup_ok"]
    assert report["form_witness"] is None and report["semigroup_witness"] is None

    report = beurling_deny_check(perturbed_p2_form())["positivity"]
    assert not report["form_ok"] and not report["semigroup_ok"]
    assert report["max_off_diagonal"] == 0.5 and report["form_witness"] == [0, 1]
    # S_t(0, 1) / S_t(0, 0) = -tanh(t / 2): most negative at the largest t.
    assert report["min_kernel_ratio"] == pytest.approx(-np.tanh(5.0), rel=1e-12)
    assert report["semigroup_witness"] == {"t": 10.0, "x": 0, "y": 1}


def test_markov_check_examples():
    F = assemble_scalar_form(fixtures.p2())
    report = beurling_deny_check(F)["markov"]
    assert report["form_ok"] and report["semigroup_ok"]
    assert report["min_row_ratio"] == 0.0
    assert abs(report["max_row_excess"]) <= 1e-15

    ones = np.ones(2)
    np.testing.assert_allclose(F.semigroup(0.5, ones), ones, atol=1e-12)

    killed = assemble_scalar_form(
        fixtures.WeightedGraph(2, {(0, 1): 1.0}, killing=[1.0, 0.0])
    )
    out = killed.semigroup(0.5, ones)
    assert out[0] < 1.0 - 1e-3
    report = beurling_deny_check(killed)["markov"]
    assert report["form_ok"] and report["semigroup_ok"]
    assert report["min_row_ratio"] == 0.0 and report["max_row_excess"] < 0


def test_markov_check_detects_violation():
    # Positive off-diagonal entries break positivity, and with it the
    # sub-Markov property, on both sides; the row figures stay as they are.
    report = beurling_deny_check(perturbed_p2_form())["markov"]
    assert not report["form_ok"] and not report["semigroup_ok"]
    # e^{-tA} 1 = e^{-1.5 t} 1 and sum_y |e^{-tA}(x, y)| = e^{-t/2} on the
    # bumped P2, so the largest scaled excess sits at the smallest t.
    t = 0.01
    exact = np.expm1(-1.5 * t) / (1 + np.exp(-t / 2))
    assert report["max_row_excess"] == pytest.approx(exact, rel=1e-12)
    assert report["semigroup_witness"]["t"] == t

    # A negative killing term keeps positivity but breaks the row criterion.
    F = assemble_scalar_form(fixtures.p2())
    drained = FormOperator(F.L.toarray() - np.diag([0.5, 0.0]), F.measure)
    criteria = beurling_deny_check(drained)
    assert criteria["positivity"]["form_ok"] and criteria["positivity"]["semigroup_ok"]
    report = criteria["markov"]
    assert not report["form_ok"] and not report["semigroup_ok"]
    assert report["min_row_ratio"] == pytest.approx(-0.5 / 1.5, rel=1e-15)
    assert report["form_witness"] == 0 and report["semigroup_witness"]["x"] == 0
    assert report["max_row_excess"] > 1e-3


def test_beurling_deny_rounding_bound_keeps_small_violations():
    # Two vertices with killing 1 and a coupling of +1e-9: at t = 10 the
    # kernel ratio is -tanh(1e-8), far beyond tol = 1e-10, while the
    # eigensolver's rounding bound is about 2e-19 against a kernel of 4.5e-5.
    eps = 1e-9
    criteria = beurling_deny_check(FormOperator(np.array([[1.0, eps], [eps, 1.0]]),
                                                np.ones(2)))
    report = criteria["positivity"]
    assert not report["form_ok"] and not report["semigroup_ok"]
    assert report["min_kernel_ratio"] == pytest.approx(-np.tanh(10 * eps), rel=1e-6)
    assert report["semigroup_witness"]["t"] == 10.0
    # No coupling and killing -1e-9 at vertex 0: e^{-tA} 1 = e^{1e-9 t} there.
    drained = FormOperator(np.diag([-eps, 1.0]), np.ones(2))
    report = beurling_deny_check(drained)["markov"]
    assert not report["form_ok"] and not report["semigroup_ok"]
    rise = np.expm1(10 * eps)
    assert report["max_row_excess"] == pytest.approx(rise / (2 + rise), rel=1e-6)


@pytest.mark.parametrize("w", [1.0, 1e6, 1e12, 1e14, 1e15, 1e17])
def test_beurling_deny_judges_each_component_on_its_own_spectrum(w):
    # Two disjoint edges: a light one whose coupling +0.5 breaks positivity,
    # with kernel ratio -tanh(t / 2), and one of weight w, so |mu|_max = 2w.
    # On the whole form, t = 10 at w = 1e15 had a rounding allowance of 17.8,
    # and the ratio -0.9999 there read as a pass. e^{-tA} is block diagonal,
    # and the light component, on its own eigensystem, resolves every t.
    L = np.zeros((4, 4))
    L[:2, :2] = [[1.0, 0.5], [0.5, 1.0]]
    L[2:, 2:] = w * np.array([[1.0, -1.0], [-1.0, 1.0]])
    report = beurling_deny_check(FormOperator(L, np.ones(4)))["positivity"]
    assert not report["form_ok"] and not report["semigroup_ok"]
    assert report["semigroup_witness"] == {"t": 10.0, "x": 0, "y": 1}
    assert report["min_kernel_ratio"] == pytest.approx(-np.tanh(5.0), rel=1e-12)


@pytest.mark.parametrize("w", [1e14, 1e15])
def test_beurling_deny_refuses_a_form_failure_passed_within_rounding(w):
    # The two blocks of the test above, joined by an edge of weight 1: one
    # component, so |mu|_max = 2w bounds the rounding of the whole kernel.
    # The form fails exactly (the coupling +0.5). At w = 1e14 the kernel
    # fails too, beyond its allowance; at w = 1e15 its ratio -0.050 at
    # t = 0.1 fails tol only, within the allowance 0.20: that resolves
    # nothing, and is refused rather than read as a pass.
    L = np.zeros((4, 4))
    L[:2, :2] = [[1.0, 0.5], [0.5, 1.0]]
    L[2:, 2:] = w * np.array([[1.0, -1.0], [-1.0, 1.0]])
    L[1:3, 1:3] += [[1.0, -1.0], [-1.0, 1.0]]
    F = FormOperator(L, np.ones(4))
    if w < 1e15:
        report = beurling_deny_check(F)["positivity"]
        assert not report["form_ok"] and not report["semigroup_ok"]
        assert report["semigroup_witness"] == {"t": 1.0, "x": 0, "y": 1}
        return
    with pytest.raises(SchemaError, match=r"t = 0.1 resolves nothing: the form criterion "
                       r"fails, and the semigroup figure -0.05 passes only within "
                       r"the eigensolver's rounding allowance 0.2"):
        beurling_deny_check(F)


def test_beurling_deny_refuses_a_markov_failure_passed_within_rounding():
    # A light edge with killing -1e-3 at vertex 0, joined by an edge of
    # weight 1 to an edge of weight w: e^{-tA} >= 0, and its row at 0 exceeds
    # 1 by about 1e-3 t. At w = 1 the rows fail beyond their allowance; at
    # w = 1e14 the largest excess, 4.6e-5 at t = 0.1, fails tol only, within
    # an allowance of 0.018, and is refused rather than read as a pass.
    for w in (1.0, 1e14):
        L = np.zeros((4, 4))
        L[:2, :2] = [[1.0 - 1e-3, -1.0], [-1.0, 1.0]]
        L[2:, 2:] = w * np.array([[1.0, -1.0], [-1.0, 1.0]])
        L[1:3, 1:3] += [[1.0, -1.0], [-1.0, 1.0]]
        F = FormOperator(L, np.ones(4))
        if w == 1.0:
            criteria = beurling_deny_check(F)
            assert criteria["positivity"]["semigroup_ok"]
            assert not criteria["markov"]["form_ok"]
            assert not criteria["markov"]["semigroup_ok"]
            continue
        with pytest.raises(SchemaError, match="t = 0.1 resolves nothing: the form "
                           "criterion fails"):
            beurling_deny_check(F)


def test_beurling_deny_judges_an_unresolved_time_at_a_scaled_one():
    # On P2 with an edge of 1e15, |mu|_max = 2e15 and t = 10 has a rounding
    # allowance of 8.9 |S_t|_2: it is judged at t 10 / |mu|_max = 5e-14,
    # where t |mu|_max = 100, so e^{-tA} is the mean: a kernel ratio of 1.
    F = assemble_scalar_form(WeightedGraph(2, {(0, 1): 1e15}))
    criteria = beurling_deny_check(F, t_list=(10.0,))
    report = criteria["positivity"]
    assert report["semigroup_ok"] and criteria["markov"]["semigroup_ok"]
    assert report["semigroup_witness"] == {"t": 5e-14, "x": 0, "y": 1}
    assert report["min_kernel_ratio"] == pytest.approx(1.0, rel=1e-12)


def test_beurling_deny_refuses_a_time_that_resolves_nothing():
    # On P2, t = 1e17 puts the rounding allowance above |S_t|_2, so no entry
    # or row could fail there; unless another time fails, that is an error.
    F = assemble_scalar_form(fixtures.p2())
    with pytest.raises(SchemaError, match="t = 1e[+]17 resolves nothing"):
        beurling_deny_check(F, t_list=(0.1, 1e17))
    report = beurling_deny_check(perturbed_p2_form(), t_list=(10.0, 1e17))["positivity"]
    assert not report["semigroup_ok"]
    assert report["semigroup_witness"] == {"t": 10.0, "x": 0, "y": 1}


def test_beurling_deny_refuses_an_unresolved_time_when_only_rows_fail():
    # P2 with killing -0.1 at vertex 0: e^{-tA} >= 0, and its row at 0
    # exceeds 1 at t = 0.1. That Markov failure does not decide positivity,
    # so t = 1e17, where e^{-t mu} overflows, is still an error.
    F = FormOperator(np.array([[0.9, -1.0], [-1.0, 1.0]]), np.ones(2))
    report = beurling_deny_check(F, t_list=(0.1,))
    assert report["positivity"]["semigroup_ok"] and not report["markov"]["semigroup_ok"]
    with pytest.raises(SchemaError, match="t = 1e[+]17 resolves nothing"):
        beurling_deny_check(F, t_list=(0.1, 1e17))


def test_positivity_markov_all_scalar_fixtures():
    for name, F in scalar_fixture_forms().items():
        criteria = beurling_deny_check(F)
        for criterion in ("positivity", "markov"):
            assert criteria[criterion]["form_ok"], (name, criterion)
            assert criteria[criterion]["semigroup_ok"], (name, criterion)


def _oracle_figures(L, measure, times=DEFAULT_T_GRID):
    return oracles.beurling_deny_figures(L, measure, times)


@pytest.mark.parametrize("case", ["fixtures", "bumped-p2", "extreme-measure"])
def test_beurling_deny_matches_expm_oracle(case):
    if case == "fixtures":
        pairs = [(oracles.scalar_form_matrix(g), g) for g in
                 fixtures.fixture_graphs().values()]
        forms = [(L, g.measure, assemble_scalar_form(g), DEFAULT_T_GRID)
                 for L, g in pairs]
    elif case == "bumped-p2":
        F = perturbed_p2_form()
        L = oracles.scalar_form_matrix(fixtures.p2()) + np.array([[0, 1.5], [1.5, 0]])
        forms = [(L, F.measure, F, DEFAULT_T_GRID)]
    else:
        forms = []
        for m0 in (1e12, 1e150, 1e-150):
            g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0}, measure=[m0, 1.0, 1.0])
            F = assemble_scalar_form(g)
            # At m0 = 1e-150, |mu|_max is about 2e150: no grid time resolves
            # anything, and each is judged at t 10 / |mu|_max instead.
            stretch = 10.0 / np.abs(F.eigenvalues).max() if m0 < 1 else 1.0
            forms.append((oracles.scalar_form_matrix(g), g.measure, F,
                          [t * stretch for t in DEFAULT_T_GRID]))
    for L, measure, F, times in forms:
        want = _oracle_figures(L, measure, times)
        criteria = beurling_deny_check(F)
        got = {
            "max_off_diagonal": criteria["positivity"]["max_off_diagonal"],
            "min_kernel_ratio": criteria["positivity"]["min_kernel_ratio"],
            "min_row_ratio": criteria["markov"]["min_row_ratio"],
            "max_row_excess": criteria["markov"]["max_row_excess"],
        }
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=0, abs=1e-12), (case, key)


SMALL_ENTRY = st.sampled_from([-1.0, -0.5, 0.0, 0.0, 1.0])


@st.composite
def small_symmetric_forms(draw):
    """A symmetric L on 2-5 vertices with off-diagonal entries in
    {-1, -0.5, 0, 1} and row sums c(x) in {-0.5, 0, 0.5}, and a measure in
    {1, 2}: any violation is large enough to show at t = 0.01."""
    n = draw(st.integers(2, 5))
    L = np.zeros((n, n))
    for x in range(n):
        for y in range(x + 1, n):
            L[x, y] = L[y, x] = draw(SMALL_ENTRY)
    c = [draw(st.sampled_from([-0.5, 0.0, 0.5])) for _ in range(n)]
    L[np.diag_indices(n)] = c - L.sum(axis=1)
    measure = np.array([draw(st.sampled_from([1.0, 2.0])) for _ in range(n)])
    return FormOperator(L, measure)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(F=small_symmetric_forms())
def test_beurling_deny_sides_agree(F):
    criteria = beurling_deny_check(F)
    for criterion in ("positivity", "markov"):
        report = criteria[criterion]
        assert report["form_ok"] == report["semigroup_ok"], (criterion, F.L.toarray())
    off = F.L.toarray()[~np.eye(F.n, dtype=bool)]
    assert criteria["positivity"]["form_ok"] == (off <= 0).all()
    # The largest off-diagonal entry, a non-adjacent pair's 0 included, and
    # the first pair in row-major order that attains it.
    dense = F.L.toarray()
    np.fill_diagonal(dense, -np.inf)
    x, y = np.unravel_index(np.argmax(dense), dense.shape)
    assert criteria["positivity"]["max_off_diagonal"] == dense[x, y]
    assert criteria["positivity"]["form_witness"] == [x, y]


def _phase_form():
    g = fixtures.p2()
    return assemble_magnetic_form(g, HermitianBundle(g, 1, {(0, 1): [[1j]]}))


def _rank2_form():
    g = fixtures.p2()
    return assemble_magnetic_form(g, HermitianBundle(g, 2))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda F: euler_limit_check(F, 1.0, np.ones(2), 0),
     DimensionMismatch, "power n must be >= 1, got 0"),
    (lambda F: form_limit_check(F, np.ones(2), np.ones(2), [1e-3, 0.0]),
     NegativeTime, "form-limit times must be > 0, got 0.0"),
    (lambda F: form_limit_check(F, np.ones(2), np.ones(2), [-1.0]),
     NegativeTime, "form-limit times must be > 0, got -1.0"),
    (lambda F: beurling_deny_check(_phase_form()),
     DimensionMismatch, "the Beurling-Deny check requires a real scalar form"),
    (lambda F: beurling_deny_check(_rank2_form()),
     DimensionMismatch, "the Beurling-Deny check requires a real scalar form"),
    (lambda F: beurling_deny_check(F, t_list=()),
     NegativeTime, "Beurling-Deny times must be >= 0, at least one: ()"),
    (lambda F: beurling_deny_check(F, t_list=(1.0, -0.5)),
     NegativeTime, "Beurling-Deny times must be >= 0, at least one: (1.0, -0.5)"),
], ids=["euler-n", "form-limit-zero", "form-limit-negative", "bd-complex", "bd-rank-2",
        "bd-no-times", "bd-negative-time"])
def test_identity_checks_refuse_their_input_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(assemble_scalar_form(fixtures.p2()))
