import numpy as np
import pytest
import scipy.linalg

import fixtures
from mgl import (
    assemble_magnetic_form,
    assemble_scalar_form,
    euler_limit_check,
    form_limit_check,
    laplace_check,
    markov_check,
    ouhabaz_invariance_check,
    positivity_check,
)
from mgl.errors import (
    AlphaInSpectrum,
    AlphaTooSmall,
    NegativeTime,
    ProjectionNotIdempotent,
)
from mgl.forms import FormOperator
from mgl.spectral import positive_cone_projection, unit_interval_projection


def scalar_fixture_forms():
    return {
        name: assemble_scalar_form(g) for name, g in fixtures.fixture_graphs().items()
    }


def perturbed_p2_form():
    """Scalar P2 plus a bump making the off-diagonal entries positive."""
    F = assemble_scalar_form(fixtures.p2())
    return FormOperator(F.L + np.array([[0.0, 1.5], [1.5, 0.0]]), F.measure)


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
    direct = np.linalg.solve(F.L + np.eye(2), u)   # m = 1, so A = L
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
    return forms


def dense_euler_error(F, t, u, n):
    """Euler error from dense matrices alone: matrix_power and expm."""
    L, m = F.L, F.m_diag
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
        if np.iscomplexobj(F.L):
            u = u + 1j * rng.standard_normal(F.dim)
        scale = np.sqrt(np.sum(F.m_diag * np.abs(u) ** 2))
        for n in (16, 256):
            got = euler_limit_check(F, 0.7, u, n)
            want = dense_euler_error(F, 0.7, u, n)
            assert abs(got - want) <= 1e-10 * scale, (name, n, got, want)


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
    report = positivity_check(assemble_scalar_form(fixtures.p2()), rng=1)
    assert report.semigroup_ok and report.form_ok and report.agree

    report = positivity_check(assemble_scalar_form(fixtures.single_vertex(1.0)), rng=1)
    assert report.semigroup_ok and report.form_ok

    report = positivity_check(perturbed_p2_form(), rng=1)
    assert not report.semigroup_ok and not report.form_ok and report.agree
    assert report.worst_witness is not None


def test_markov_check_examples():
    F = assemble_scalar_form(fixtures.p2())
    report = markov_check(F, rng=2)
    assert report.semigroup_ok and report.form_ok

    ones = np.ones(2)
    np.testing.assert_allclose(F.semigroup(0.5, ones), ones, atol=1e-12)

    killed = assemble_scalar_form(
        fixtures.WeightedGraph(2, {(0, 1): 1.0}, killing=[1.0, 0.0])
    )
    out = killed.semigroup(0.5, ones)
    assert out[0] < 1.0 - 1e-3
    assert markov_check(killed, rng=2).semigroup_ok


def test_markov_check_detects_violation():
    # Positive off-diagonal entries push e^{-tA} out of the unit box, and
    # clamping into the box raises the form: both sides fail together.
    report = markov_check(perturbed_p2_form(), rng=2)
    assert not report.semigroup_ok and not report.form_ok and report.agree
    witness = report.worst_witness
    assert witness is not None
    assert report.worst_entry == pytest.approx(-0.1805, abs=1e-4)
    out = witness.output
    overshoot = max(out.max() - 1.0, -out.min())
    assert report.worst_entry == -overshoot


def test_positivity_markov_all_scalar_fixtures():
    for name, F in scalar_fixture_forms().items():
        assert positivity_check(F, rng=5).semigroup_ok, name
        assert positivity_check(F, rng=5).form_ok, name
        assert markov_check(F, rng=5).semigroup_ok, name


def test_ouhabaz_cone_and_interval_pass():
    F = assemble_scalar_form(fixtures.random_graph())
    rng = np.random.default_rng(75)
    samples = rng.standard_normal((30, F.dim))
    for projection in (positive_cone_projection, unit_interval_projection):
        report = ouhabaz_invariance_check(F, projection, samples)
        assert report.form_ok and report.semigroup_ok and report.agree


def test_ouhabaz_detects_violation():
    F = perturbed_p2_form()
    rng = np.random.default_rng(76)
    samples = np.vstack([rng.standard_normal((20, 2)), [[1.0, -1.0]]])
    report = ouhabaz_invariance_check(F, positive_cone_projection, samples)
    assert not report.form_ok and not report.semigroup_ok and report.agree
    assert report.worst_form_slack < -1e-3
    assert report.escape_witness is not None


def test_ouhabaz_rejects_non_idempotent():
    F = assemble_scalar_form(fixtures.p2())
    samples = np.array([[1.0, -1.0]])
    with pytest.raises(ProjectionNotIdempotent):
        ouhabaz_invariance_check(F, lambda u: u * 0.5, samples)
