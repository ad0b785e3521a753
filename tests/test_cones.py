import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from fixtures import ConeContext
import oracles
from mgl import (
    HermitianBundle,
    WeightedGraph,
    absolute_part,
    lattice_inf,
    lattice_sup,
    negative_part,
    pair,
    positive_part,
    project_domination_set,
    symmetrize,
)
from mgl.errors import ComplexInput, DimensionMismatch


def _context(n, rng=None):
    m = 0.5 + rng.random(n) if rng is not None else None
    g = WeightedGraph(n, {}, None, m)
    return g, ConeContext(g)


def test_parts_componentwise():
    g = np.array([3.0, -2.0])
    np.testing.assert_array_equal(positive_part(g), [3.0, 0.0])
    np.testing.assert_array_equal(negative_part(g), [0.0, 2.0])
    np.testing.assert_array_equal(absolute_part(g), [3.0, 2.0])


def test_parts_identity_on_nonnegative():
    g = np.array([0.0, 1.5, 2.0])
    np.testing.assert_array_equal(positive_part(g), g)
    np.testing.assert_array_equal(negative_part(g), np.zeros(3))


def test_parts_reject_complex():
    with pytest.raises(ComplexInput):
        positive_part(np.array([1.0 + 1j]))
    # Complex dtype with exactly zero imaginary part is accepted.
    np.testing.assert_array_equal(positive_part(np.array([1.0 + 0j])), [1.0])


def test_abs_preserves_m_norm():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        _, ctx = _context(n, rng)
        g = rng.standard_normal(n)
        assert ctx.norm(absolute_part(g)) == pytest.approx(ctx.norm(g), rel=1e-14)


def test_moreau_examples():
    g, ctx = _context(2)
    vec = np.array([3.0, -2.0])
    h1, h2 = positive_part(vec), negative_part(vec)
    np.testing.assert_array_equal(h1, [3.0, 0.0])
    np.testing.assert_array_equal(h2, [0.0, 2.0])
    assert ctx.inner(h1, h2) == 0.0

    pos = np.array([1.0, 2.0])
    h1, h2 = positive_part(pos), negative_part(pos)
    np.testing.assert_array_equal(h1, pos)
    np.testing.assert_array_equal(h2, np.zeros(2))


def test_moreau_exactness_random():
    # 1000 random vectors: exact reconstruction, exact m-orthogonality,
    # and bit-for-bit agreement with the explicit clamp oracle.
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        _, ctx = _context(n, rng)
        g = rng.standard_normal(n) * rng.lognormal(0, 2)
        h1, h2 = positive_part(g), negative_part(g)
        assert (g == h1 - h2).all()
        assert ctx.inner(h1, h2) == 0.0
        assert h1.tobytes() == oracles.clamp_positive(g).tobytes()


def test_moreau_matches_qp_oracle_weighted():
    # The clamp is the metric projection in any weighted orthant norm:
    # verify against direct minimization over a fine candidate search.
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        _, ctx = _context(n, rng)
        g = rng.standard_normal(n)
        h1 = positive_part(g)
        # Perturbing any coordinate of the projection must not get closer.
        base = ctx.norm(h1 - g)
        for i in range(n):
            for eps in (-1e-4, 1e-4):
                cand = h1.copy()
                cand[i] = max(cand[i] + eps, 0.0)
                assert ctx.norm(cand - g) >= base - 1e-9


def test_isotonicity_of_positive_part():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        g = rng.standard_normal(n)
        h = g + np.abs(rng.standard_normal(n))
        assert (positive_part(g) <= positive_part(h)).all()


def test_lattice_examples():
    f = np.array([1.0, -2.0])
    g = np.array([0.0, 3.0])
    np.testing.assert_array_equal(lattice_sup(f, g), [1.0, 3.0])
    np.testing.assert_array_equal(lattice_inf(f, g), [0.0, -2.0])
    np.testing.assert_array_equal(lattice_sup(f, f), f)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lattice_formula_vs_componentwise(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    f = rng.standard_normal(n)
    g = rng.standard_normal(n)
    assert np.abs(lattice_sup(f, g) - np.maximum(f, g)).max() <= 1e-14
    assert np.abs(lattice_inf(f, g) - np.minimum(f, g)).max() <= 1e-14
    # f v g + f ^ g = f + g
    assert np.abs(lattice_sup(f, g) + lattice_inf(f, g) - (f + g)).max() <= 1e-14


def _random_instance(rng, n_max=10, d_max=2):
    n = int(rng.integers(1, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    g = WeightedGraph(n, {}, None, 0.5 + rng.random(n))
    bundle = HermitianBundle(g, d)
    ctx = ConeContext(g)
    f1 = fixtures.random_section(n, d, rng)
    gv = rng.standard_normal(n) * 2.0
    return g, bundle, ctx, f1, gv


def test_project_single_vertex_example():
    g = WeightedGraph(1, {})
    bundle = HermitianBundle(g, 1)
    f_hat, g_hat = project_domination_set(
        np.array([[2.0 + 0j]]), np.array([0.0]), bundle
    )
    np.testing.assert_allclose(f_hat, [[1.0]])
    np.testing.assert_allclose(g_hat, [1.0])


def test_project_fixed_point_inside_set():
    rng = np.random.default_rng(31)
    for _ in range(30):
        _, bundle, ctx, f1, _ = _random_instance(rng)
        gv = symmetrize(f1, bundle) + rng.random(bundle.graph.n)
        f_hat, g_hat = project_domination_set(f1, gv, bundle)
        np.testing.assert_allclose(f_hat, f1, atol=1e-13)
        np.testing.assert_allclose(g_hat, gv, atol=1e-13)


def test_project_matches_oracle_and_feasible():
    rng = np.random.default_rng(42)
    for _ in range(100):
        _, bundle, ctx, f1, gv = _random_instance(rng)
        f_hat, g_hat = project_domination_set(f1, gv, bundle)
        fo, go = oracles.project_domination_oracle(f1, gv)
        assert np.abs(f_hat - fo).max() <= 1e-8
        assert np.abs(g_hat - go).max() <= 1e-8
        assert (symmetrize(f_hat, bundle) <= g_hat + 1e-12).all()


def test_project_idempotent():
    rng = np.random.default_rng(43)
    for _ in range(50):
        _, bundle, ctx, f1, gv = _random_instance(rng)
        f_hat, g_hat = project_domination_set(f1, gv, bundle)
        f_again, g_again = project_domination_set(f_hat, g_hat, bundle)
        assert np.abs(f_again - f_hat).max() <= 1e-12
        assert np.abs(g_again - g_hat).max() <= 1e-12


def test_project_variational_inequality():
    rng = np.random.default_rng(44)
    for _ in range(20):
        _, bundle, ctx, f1, gv = _random_instance(rng)
        n, d = bundle.graph.n, bundle.rank
        f_hat, g_hat = project_domination_set(f1, gv, bundle)
        for _ in range(100):
            u = fixtures.random_section(n, d, rng)
            v = symmetrize(u, bundle) + np.abs(rng.standard_normal(n))
            value = ctx.product_inner(
                (f1 - f_hat, gv - g_hat), (u - f_hat, v - g_hat)
            ).real
            assert value <= 1e-9


def test_halfsum_example_and_agreement():
    g = WeightedGraph(1, {})
    bundle = HermitianBundle(g, 1)
    f1 = np.array([[2.0 + 0j]])
    f_hat, g_hat = project_domination_set(f1, np.array([1.0]), bundle)
    np.testing.assert_allclose(f_hat, [[1.5]])
    np.testing.assert_allclose(g_hat, [1.5])

    # g = S(f1): already in the set, returned unchanged.
    f_hat, g_hat = project_domination_set(f1, np.array([2.0]), bundle)
    np.testing.assert_allclose(f_hat, f1)
    np.testing.assert_allclose(g_hat, [2.0])

    # g = 0: half of (f1, S(f1)).
    f_hat, g_hat = project_domination_set(f1, np.array([0.0]), bundle)
    np.testing.assert_allclose(f_hat, 0.5 * f1)
    np.testing.assert_allclose(g_hat, [1.0])


def test_halfsum_agrees_with_general_formula():
    rng = np.random.default_rng(45)
    for _ in range(100):
        _, bundle, ctx, f1, _ = _random_instance(rng)
        gv = rng.random(bundle.graph.n) * symmetrize(f1, bundle)
        # On 0 <= g <= S(f1) the projection is the half-sum
        # ((f1 + f2)/2, (S(f1) + g)/2), with f2 paired to g.
        a = 0.5 * (f1 + pair(f1, gv, bundle)), 0.5 * (symmetrize(f1, bundle) + gv)
        b = project_domination_set(f1, gv, bundle)
        assert np.abs(a[0] - b[0]).max() <= 1e-10
        assert np.abs(a[1] - b[1]).max() <= 1e-10


def test_halfsum_preconditions():
    g = WeightedGraph(1, {})
    bundle = HermitianBundle(g, 1)
    f1 = np.array([[1.0 + 0j]])
    with pytest.raises(ComplexInput):
        project_domination_set(f1, np.array([1j]), bundle)


@pytest.mark.parametrize("op", [lattice_sup, lattice_inf])
def test_lattice_operands_of_different_shapes_are_refused(op):
    message = re.escape("shapes differ: (2,) vs (3,)")
    with pytest.raises(DimensionMismatch, match=message):
        op([1.0, 2.0], [1.0, 2.0, 3.0])
