import re
import types

import numpy as np
import pytest

import fixtures
import oracles
from mgl import forms, metrics
from mgl import (
    EdgeLengths,
    HermitianBundle,
    PseudoMetric,
    WeightedGraph,
    assemble_magnetic_form,
    assemble_scalar_form,
    check_intrinsic,
    degree_edge_lengths,
    exhaustion_uniqueness_experiment,
    path_metric,
    restrict_bundle,
    restrict_dirichlet,
    restrict_neumann,
    strongly_intrinsic_check,
)
from mgl.bundles import load_bundle
from mgl.errors import (
    DimensionMismatch,
    InfiniteEdgeDistance,
    InvariantError,
    NotNested,
)
from mgl.graphs import load_graph
from mgl.metrics import is_intrinsic, is_strongly_intrinsic


def metric_from_edge(value):
    d = np.array([[0.0, value], [value, 0.0]])
    return PseudoMetric(d)


def test_check_intrinsic_examples():
    g = fixtures.p2()
    slack = check_intrinsic(g, metric_from_edge(1.0))
    np.testing.assert_allclose(slack, [0.0, 0.0])
    assert is_intrinsic(g, metric_from_edge(1.0))

    slack = check_intrinsic(g, metric_from_edge(2.0))
    np.testing.assert_allclose(slack, [-3.0, -3.0])
    assert not is_intrinsic(g, metric_from_edge(2.0))

    slack = check_intrinsic(g, PseudoMetric(np.zeros((2, 2))))
    np.testing.assert_allclose(slack, [1.0, 1.0])


def test_check_intrinsic_infinite_edge():
    g = fixtures.p2()
    d = PseudoMetric(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(InfiniteEdgeDistance):
        check_intrinsic(g, d)


def test_pseudo_metric_validation():
    with pytest.raises(InvariantError):
        PseudoMetric(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(InvariantError):
        PseudoMetric(np.array([[0.0, 1.0], [2.0, 0.0]]))
    bad_triangle = np.array(
        [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    )
    with pytest.raises(InvariantError):
        PseudoMetric(bad_triangle)


def test_pseudo_metric_checks_the_triangle_inequality_at_every_size():
    x = np.random.default_rng(7).standard_normal((151, 3))
    d = np.linalg.norm(x[:, None] - x[None], axis=2)
    PseudoMetric(d)
    d[0, 1] = d[1, 0] = d[0, 1] + 5.0
    with pytest.raises(InvariantError, match="triangle"):
        PseudoMetric(d)
    # A violation through a zero distance: d(0, 2) > d(0, 1) + d(1, 2).
    zero_hop = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(InvariantError, match="triangle"):
        PseudoMetric(zero_hop)


def test_path_metric_examples():
    d = path_metric(fixtures.p3(), EdgeLengths.constant(fixtures.p3()))
    assert d[0, 2] == 2.0

    tri = fixtures.triangle()
    sigma = EdgeLengths(tri, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 3.0})
    d = path_metric(tri, sigma)
    assert d[0, 2] == 2.0  # the detour beats the direct edge

    two = fixtures.two_components()
    d = path_metric(two, EdgeLengths.constant(two))
    assert np.isinf(d[0, 4])
    assert np.isfinite(d[0, 2])


def test_path_metric_matches_enumeration():
    rng = np.random.default_rng(81)
    for g in fixtures.fixture_graphs().values():
        if g.n > 8 or len(g.edges) == 0:
            continue
        sigma = EdgeLengths(g, {(x, y): 0.2 + rng.random() for x, y in g.edges})
        d = path_metric(g, sigma)
        for x in range(g.n):
            for y in range(g.n):
                expected = oracles.enumerate_path_distance(g, sigma, x, y)
                if np.isinf(expected):
                    assert np.isinf(d[x, y])
                else:
                    assert d[x, y] == pytest.approx(expected, abs=1e-12)


def test_edge_lengths_validation():
    g = fixtures.p3()
    with pytest.raises(InvariantError):
        EdgeLengths(g, {(0, 1): 1.0})  # missing (1, 2)
    with pytest.raises(InvariantError):
        EdgeLengths(g, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})  # non-edge
    with pytest.raises(InvariantError):
        EdgeLengths(g, {(0, 1): 0.0, (1, 2): 1.0})  # non-positive


def test_strongly_intrinsic_examples():
    g = fixtures.p2()
    slack = strongly_intrinsic_check(g, EdgeLengths.constant(g))
    np.testing.assert_allclose(slack, [0.0, 0.0])

    for name, g in fixtures.zero_killing_graphs().items():
        if len(g.edges) == 0:
            continue
        sigma = degree_edge_lengths(g)
        assert is_strongly_intrinsic(g, sigma), name


def test_strongly_intrinsic_implies_intrinsic():
    rng = np.random.default_rng(82)
    for name, g in fixtures.fixture_graphs().items():
        if len(g.edges) == 0:
            continue
        candidates = [degree_edge_lengths(g)]
        candidates.append(
            EdgeLengths(g, {(x, y): 0.1 + 0.5 * rng.random() for x, y in g.edges})
        )
        for sigma in candidates:
            if is_strongly_intrinsic(g, sigma):
                assert is_intrinsic(g, path_metric(g, sigma)), name


def test_exhaustion_full_subset_zero_gaps():
    g = fixtures.random_graph(n=10)
    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(5))
    report = exhaustion_uniqueness_experiment(g, bundle, [list(range(10))])
    assert report["gaps"][-1]["scalar"] == 0.0
    assert report["gaps"][-1]["magnetic"] == 0.0


def test_exhaustion_boundaryless_prefixes_are_exact_and_free(monkeypatch):
    # No edge leaves a whole component or the full vertex set, so both
    # restrictions coincide: the gaps are exactly 0 and nothing is factored.
    def refuse(*args, **kwargs):
        raise AssertionError("factorization called")

    monkeypatch.setattr(metrics, "splu", refuse)
    g = WeightedGraph(
        6, {(0, 1): 1.0, (1, 2): 0.5, (0, 2): 2.0, (3, 4): 1.5, (4, 5): 0.7},
        killing=[0.1, 0.0, 0.3, 0.0, 0.2, 0.4], measure=[1.0, 2.0, 0.5, 1.5, 1.0, 0.8],
    )
    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(7))
    report = exhaustion_uniqueness_experiment(g, bundle, [[0, 1, 2], list(range(6))])
    assert report["gaps"] == [{"k": 1, "scalar": 0.0, "magnetic": 0.0},
                           {"k": 2, "scalar": 0.0, "magnetic": 0.0}]


def test_exhaustion_path50_regression():
    g = fixtures.path50_graph()
    bundle = fixtures.path50_bundle(g)
    subsets = [list(range(10 * k)) for k in range(1, 6)]
    report = exhaustion_uniqueness_experiment(g, bundle, subsets)
    scalar = np.array([row["scalar"] for row in report["gaps"]])
    magnetic = np.array([row["magnetic"] for row in report["gaps"]])
    assert (np.diff(scalar) < 0).all()
    assert (np.diff(magnetic) < 0).all()
    assert scalar[-1] == 0.0 and magnetic[-1] == 0.0
    # Deg(1) = b(0,1) + b(1,2) = 1 + 0.8 is the largest weighted degree.
    assert report["criteria"] == {"degree_bounded": pytest.approx(1.8, rel=1e-15)}


def test_eigh_reads_a_fortran_ordered_pencil(monkeypatch):
    # The pencil is X[b] copied once, in Fortran order, so that f2py hands it
    # to ?hegvx without copying it again; the Gram matrix is herk's own
    # Fortran output. Both forms, real and complex, on path50's prefixes.
    seen = []
    eigh = metrics.eigh

    def recording(a, b, **kwargs):
        seen.append((a.flags.f_contiguous, b.flags.f_contiguous, b.dtype.kind))
        return eigh(a, b, **kwargs)

    monkeypatch.setattr(metrics, "eigh", recording)
    g = fixtures.path50_graph()
    exhaustion_uniqueness_experiment(g, fixtures.path50_bundle(g), [range(10), range(30)])
    assert {kind for *_, kind in seen} == {"f", "c"}
    assert all(gram and pencil for gram, pencil, _ in seen), seen


def test_chain_measure_sum():
    from mgl import chain_measure_sum

    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0}, measure=[1.0, 2.0, 4.0])
    total = chain_measure_sum(g, [0, 1, 2])
    assert total == 7.0
    assert isinstance(total, float)
    with pytest.raises(InvariantError):
        chain_measure_sum(g, [0, 2])  # not an edge
    with pytest.raises(InvariantError):
        chain_measure_sum(g, [])
    # Vertices are integers: floats and booleans are refused, not truncated.
    for chain in ([0.2, 1.9, 2.5], [False, True]):
        with pytest.raises(InvariantError, match="must be an integer"):
            chain_measure_sum(g, chain)


def test_exhaustion_rejects_non_nested():
    g = fixtures.p3()
    with pytest.raises(NotNested):
        exhaustion_uniqueness_experiment(
            g, HermitianBundle(g, 1), [[0, 1], [1, 2]]
        )
    with pytest.raises(NotNested):
        exhaustion_uniqueness_experiment(
            g, HermitianBundle(g, 1), [[0, 1, 2], [0, 1]]
        )


def test_exhaustion_gap_matches_dense_resolvents():
    # k = 1 scalar gap on path50 (prefix {0..9}) against resolvents built
    # here with numpy alone: R = (M^-1 L + alpha)^-1 for the boundary-folding
    # and the edge-dropping Laplacian, gap = ||M^1/2 (R_D - R_N) M^-1/2||_2.
    g = fixtures.path50_graph()
    report = exhaustion_uniqueness_experiment(
        g, fixtures.path50_bundle(g), [list(range(10)), list(range(20))]
    )
    n, k, alpha = g.n, 10, 1.0
    b = np.zeros((n, n))
    for i in range(n - 1):
        b[i, i + 1] = b[i + 1, i] = 0.8**i
    inner = b[:k, :k]
    m = g.measure[:k]
    root = np.sqrt(m)
    resolvents = []
    for degrees in (b[:k].sum(axis=1), inner.sum(axis=1)):
        lap = np.diag(degrees + g.killing[:k]) - inner
        R = np.linalg.inv(lap / m[:, None] + alpha * np.eye(k))
        resolvents.append(root[:, None] * R / root[None, :])
    expected = np.linalg.norm(resolvents[0] - resolvents[1], 2)
    assert expected > 1e-3
    assert report["gaps"][0]["scalar"] == pytest.approx(expected, rel=1e-10)


def _dense_magnetic_gap(g, bundle, k, alpha=1.0):
    """Dirichlet/Neumann resolvent gap of the bundle form on the prefix
    {0..k-1}, from the definitions with numpy alone.

    Both restricted forms have blocks -b(x,y) Phi(x,y) inside the prefix and
    W(x) plus the weight of the edges at x on the diagonal: every edge for
    the boundary-folding restriction, only the inner ones for the
    edge-dropping one. R = (M^-1 L + alpha)^-1, and the gap is the operator
    norm of M^1/2 (R_N - R_D) M^-1/2.
    """
    d = bundle.rank
    laplacians = []
    for reach in (g.n, k):
        lap = np.zeros((k, d, k, d), dtype=complex)
        for x in range(k):
            lap[x, :, x, :] = bundle.endo[x]
        for edge, b in zip(g.edges.tolist(), g.weights):
            for x, y in (edge, edge[::-1]):
                if x < k and y < reach:
                    lap[x, :, x, :] += b * np.eye(d)
                if x < k and y < k:
                    lap[x, :, y, :] = -b * bundle.phi(x, y)
        laplacians.append(lap.reshape(k * d, k * d))
    m = np.repeat(g.measure[:k], d)
    root = np.sqrt(m)
    folded, dropped = (
        root[:, None]
        * np.linalg.inv(lap / m[:, None] + alpha * np.eye(k * d))
        / root[None, :]
        for lap in laplacians
    )
    return np.linalg.norm(dropped - folded, 2)


def _boundary_1e6_host():
    """Path 0-...-7 with a chord (1, 5); the edge (3, 4) leaving the prefix
    {0, 1, 2, 3} has weight 1e6."""
    edges = {(i, i + 1): 1.0 for i in range(7)}
    edges[(3, 4)] = 1e6
    edges[(1, 5)] = 0.5
    return WeightedGraph(8, edges, killing=np.linspace(0.0, 0.7, 8),
                         measure=np.linspace(0.5, 2.0, 8))


@pytest.mark.parametrize(
    "host, make_bundle, members",
    [(fixtures.path50_graph, fixtures.path50_bundle, range(10)),
     (_boundary_1e6_host,
      lambda g: fixtures.random_bundle(g, 2, np.random.default_rng(3)), range(4))],
    ids=["path50-k1", "boundary-1e6"],
)
def test_exhaustion_gaps_match_40_digit_oracle(host, make_bundle, members):
    # At a boundary weight of 1e6 the host diagonal minus the boundary
    # weight loses about 10 digits in double precision; the gap must not.
    g = host()
    bundle = make_bundle(g)
    row = exhaustion_uniqueness_experiment(g, bundle, [list(members)])["gaps"][0]
    scalar = oracles.exhaustion_gap(g, members)
    magnetic = oracles.exhaustion_gap(g, members, bundle)
    assert min(scalar, magnetic) > 1e-2
    assert row["scalar"] == pytest.approx(scalar, rel=1e-12, abs=0)
    assert row["magnetic"] == pytest.approx(magnetic, rel=1e-12, abs=0)


def test_exhaustion_magnetic_gap_matches_dense_resolvents():
    # k = 1 on path50, and a rank-2 bundle with endomorphisms on a graph
    # with cycles, where the connection does not gauge away.
    g = fixtures.path50_graph()
    bundle = fixtures.path50_bundle(g)
    report = exhaustion_uniqueness_experiment(g, bundle, [list(range(10))])
    expected = _dense_magnetic_gap(g, bundle, 10)
    assert expected > 1e-3
    assert report["gaps"][0]["magnetic"] == pytest.approx(expected, rel=1e-10)

    g = fixtures.random_graph(n=12)
    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(21))
    report = exhaustion_uniqueness_experiment(g, bundle, [list(range(6))])
    expected = _dense_magnetic_gap(g, bundle, 6)
    assert expected > 1e-3
    assert report["gaps"][0]["magnetic"] == pytest.approx(expected, rel=1e-10)


def test_exhaustion_gaps_match_dense_resolvents_on_every_prefix():
    # The sparse factor against numpy's dense inverses, on every prefix of
    # a 120-vertex random graph with a rank-2 bundle. The scalar form is the
    # rank-1 bundle form with W = c and a unit connection.
    g = fixtures.random_graph(n=120)
    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(24))
    scalar = HermitianBundle(g, 1, endo=g.killing[:, None, None])
    # At k = 108, |b| = 104 and 208 are no multiples of SOLVE_BLOCK = 32 and
    # span 4 and 7 blocks, and some members are off the boundary.
    sizes = (24, 48, 72, 96, 108, 119)
    report = exhaustion_uniqueness_experiment(g, bundle, [range(k) for k in sizes])
    blocked = report["diagnostics"]["prefixes"][4]
    for key in ("scalar", "magnetic"):
        columns = blocked[key]["boundary"]
        assert columns % metrics.SOLVE_BLOCK and columns > 2 * metrics.SOLVE_BLOCK
        assert columns < blocked[key]["N"]
    for row, k in zip(report["gaps"], sizes):
        for key, B in (("scalar", scalar), ("magnetic", bundle)):
            expected = _dense_magnetic_gap(g, B, k)
            assert expected > 1e-3
            assert row[key] == pytest.approx(expected, rel=1e-12, abs=0), (k, key)


def test_lattice_gaps_match_dense_resolvents_on_every_prefix():
    # A 30 x 30 rank-2 lattice with Peierls phases: the first r rows have
    # |b| = 60 boundary columns out of N = 60 r, far fewer than N.
    graph_doc, bundle_doc = fixtures.lattice_docs(30, 2)
    g = load_graph(graph_doc)
    bundle = load_bundle(g, bundle_doc)
    scalar = HermitianBundle(g, 1)
    sizes = (180, 360, 540, 720)
    report = exhaustion_uniqueness_experiment(g, bundle, [range(k) for k in sizes])
    for prefix in report["diagnostics"]["prefixes"]:
        assert prefix["scalar"]["boundary"] == 30
        assert prefix["magnetic"]["boundary"] == 60
    for row, k in zip(report["gaps"], sizes):
        for key, B in (("scalar", scalar), ("magnetic", bundle)):
            expected = _dense_magnetic_gap(g, B, k)
            assert expected > 1e-3
            assert row[key] == pytest.approx(expected, rel=1e-12, abs=0), (k, key)


def test_exhaustion_solves_at_most_a_block_of_columns(monkeypatch):
    # The N x |b| solution is filled SOLVE_BLOCK unit columns at a time, so
    # SuperLU's copy of the right-hand side and its work array stay small.
    widths = []
    factor = metrics._factor

    def recording(*args):
        lu = factor(*args)

        def solve(rhs):
            widths.append(rhs.shape[1])
            return lu.solve(rhs)

        return types.SimpleNamespace(solve=solve, shape=lu.shape, nnz=lu.nnz)

    monkeypatch.setattr(metrics, "_factor", recording)
    g = fixtures.random_graph(n=120)
    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(24))
    report = exhaustion_uniqueness_experiment(g, bundle, [range(108)])
    assert [report["diagnostics"]["prefixes"][0][key]["boundary"]
            for key in ("scalar", "magnetic")] == [104, 208]
    block = metrics.SOLVE_BLOCK
    assert max(widths) <= block
    assert sum(widths) == 104 + 208 and len(widths) == -(-104 // block) - (-208 // block)


def test_host_block_is_the_restricted_form():
    # On the rows x*d + j of a subset, the host form matrix is the
    # boundary-folding restriction, and minus the boundary weights on the
    # diagonal it is the edge-dropping one.
    g = fixtures.random_graph(n=12)
    omega = [1, 2, 4, 7, 8, 11]
    outside = [y for y in range(g.n) if y not in omega]
    boundary = np.array([sum(g.weight(x, y) for y in outside) for x in omega])
    assert boundary.all()

    host = assemble_scalar_form(g).L.toarray()[np.ix_(omega, omega)]
    folded = assemble_scalar_form(restrict_dirichlet(g, omega)).L.toarray()
    dropped = assemble_scalar_form(restrict_neumann(g, omega)).L.toarray()
    assert np.abs(host - folded).max() <= 1e-12
    assert np.abs(host - np.diag(boundary) - dropped).max() <= 1e-12

    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(22))
    rows = (np.array(omega)[:, None] * 2 + np.arange(2)).ravel()
    host = assemble_magnetic_form(g, bundle).L.toarray()[np.ix_(rows, rows)]
    cut = np.diag(np.repeat(boundary, 2))
    for fold, expected in ((True, host), (False, host - cut)):
        sub = restrict_bundle(bundle, omega, fold_boundary=fold)
        restricted = assemble_magnetic_form(sub.graph, sub).L.toarray()
        assert np.abs(restricted - expected).max() <= 1e-12


def test_exhaustion_runs_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for name in ("zhetrd", "dsytrd", "dstevd"):
        monkeypatch.setattr(forms.lapack, name, refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    g = fixtures.random_graph(n=12)
    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(23))
    report = exhaustion_uniqueness_experiment(
        g, bundle, [list(range(4)), list(range(8)), list(range(12))]
    )
    assert report["gaps"][0]["scalar"] > 0 and report["gaps"][0]["magnetic"] > 0
    assert report["gaps"][-1]["scalar"] == 0.0 and report["gaps"][-1]["magnetic"] == 0.0


def test_exhaustion_builds_no_form_operator(monkeypatch):
    # Each prefix block is built from the graph's arrays, not sliced out of
    # an assembled host form.
    def refuse(*args, **kwargs):
        raise AssertionError("FormOperator built")

    monkeypatch.setattr(forms.FormOperator, "__init__", refuse)
    g = fixtures.random_graph(n=12)
    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(23))
    report = exhaustion_uniqueness_experiment(
        g, bundle, [list(range(4)), list(range(8)), list(range(12))]
    )
    assert report["gaps"][0]["scalar"] > 0 and report["gaps"][0]["magnetic"] > 0


@pytest.mark.parametrize("call, error, fragment", [
    (lambda g: PseudoMetric(np.zeros((2, 3))),
     DimensionMismatch, "distance matrix must be square, got (2, 3)"),
    (lambda g: PseudoMetric([[0.0, -1.0], [-1.0, 0.0]]),
     InvariantError, "pseudo-metric entries must be nonnegative"),
    (lambda g: PseudoMetric([[0.0, np.nan], [np.nan, 0.0]]),
     InvariantError, "pseudo-metric entries must be nonnegative"),
    (lambda g: EdgeLengths(g, np.ones(3)),
     InvariantError, "edge lengths do not match the graph's edge set"),
    (lambda g: EdgeLengths(g, {(0, 1): 1.0, (1, 0): 2.0, (1, 2): 1.0}),
     InvariantError, "conflicting lengths for edge (0, 1)"),
    (lambda g: EdgeLengths.constant(g)[(0, 2)], KeyError, "(0, 2)"),
    (lambda g: check_intrinsic(g, PseudoMetric(np.zeros((2, 2)))),
     DimensionMismatch, "metric size does not match the graph"),
    (lambda g: path_metric(g, EdgeLengths.constant(fixtures.triangle())),
     InvariantError, "edge lengths do not match the graph's edge set"),
], ids=["metric-shape", "metric-negative", "metric-nan", "lengths-shape",
        "lengths-conflict", "lengths-lookup", "intrinsic-size", "path-metric-edges"])
def test_metric_inputs_are_refused(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(fixtures.p3())
