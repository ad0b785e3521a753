import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
import oracles
from mgl import (
    WeightedGraph,
    assemble_magnetic_form,
    assemble_scalar_form,
    beurling_deny_check,
    euler_limit_check,
    form_limit_check,
    laplace_check,
    ouhabaz_invariance_check,
)
from mgl.errors import (
    AlphaInSpectrum,
    AlphaTooSmall,
    NegativeTime,
    ProjectionNotIdempotent,
)
from mgl.domination import DEFAULT_T_GRID
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
    drained = FormOperator(F.L - np.diag([0.5, 0.0]), F.measure)
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


def test_positivity_markov_all_scalar_fixtures():
    for name, F in scalar_fixture_forms().items():
        criteria = beurling_deny_check(F)
        for criterion in ("positivity", "markov"):
            assert criteria[criterion]["form_ok"], (name, criterion)
            assert criteria[criterion]["semigroup_ok"], (name, criterion)


def _oracle_figures(L, measure):
    return oracles.beurling_deny_figures(L, measure, DEFAULT_T_GRID)


@pytest.mark.parametrize("case", ["fixtures", "bumped-p2", "extreme-measure"])
def test_beurling_deny_matches_expm_oracle(case):
    if case == "fixtures":
        pairs = [(oracles.scalar_form_matrix(g), g) for g in
                 fixtures.fixture_graphs().values()]
        forms = [(L, g.measure, assemble_scalar_form(g)) for L, g in pairs]
    elif case == "bumped-p2":
        F = perturbed_p2_form()
        L = oracles.scalar_form_matrix(fixtures.p2()) + np.array([[0, 1.5], [1.5, 0]])
        forms = [(L, F.measure, F)]
    else:
        forms = []
        for m0 in (1e12, 1e150, 1e-150):
            g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0}, measure=[m0, 1.0, 1.0])
            forms.append((oracles.scalar_form_matrix(g), g.measure,
                          assemble_scalar_form(g)))
    for L, measure, F in forms:
        want = _oracle_figures(L, measure)
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
        assert report["form_ok"] == report["semigroup_ok"], (criterion, F.L)
    off = F.L[~np.eye(F.n, dtype=bool)]
    assert criteria["positivity"]["form_ok"] == (off <= 0).all()


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
