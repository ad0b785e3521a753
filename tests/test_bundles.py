import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
import oracles
from fixtures import ConeContext
from mgl import (
    EdgeLengths,
    HermitianBundle,
    WeightedGraph,
    bundles,
    load_bundle,
    load_graph,
    pair,
    restrict_bundle,
    symmetrize,
    validate_bundle,
)
from mgl.errors import DimensionMismatch, InvariantError, NegativeG, SchemaError


def test_validate_unit_phase_rank1():
    g = fixtures.p2()
    b = HermitianBundle(g, 1, {(0, 1): [[np.exp(1j * np.pi / 3)]]})
    report = validate_bundle(b)
    assert report["ok"]
    assert report["worst_edge"] == (0, 1)
    assert report["worst_unitarity_defect"] <= 1e-15


def test_validate_nonunitary_defect_three():
    g = fixtures.p2()
    b = HermitianBundle(g, 2, {(0, 1): np.diag([1.0, 2.0])})
    report = validate_bundle(b)
    assert not report["ok"]
    assert report["worst_unitarity_defect"] == pytest.approx(3.0)
    worst = (report["worst_edge"], report["worst_unitarity_defect"])
    assert worst == ((0, 1), pytest.approx(3.0))


def test_validate_indefinite_endo():
    g = fixtures.p2()
    endo = np.zeros((2, 2, 2), dtype=complex)
    endo[0] = np.diag([1.0, -0.5])
    b = HermitianBundle(g, 2, {}, endo)
    report = validate_bundle(b)
    assert not report["ok"]
    assert report["min_endo_eigenvalue"] == pytest.approx(-0.5)


def test_reverse_connection_is_adjoint():
    g = fixtures.triangle()
    rng = np.random.default_rng(3)
    b = fixtures.random_bundle(g, 2, rng)
    for (x, y) in g.edges:
        np.testing.assert_allclose(b.phi(y, x), b.phi(x, y).conj().T)
    # Non-edges and omitted entries act as the identity.
    assert np.array_equal(HermitianBundle(g, 2).phi(0, 1), np.eye(2))


def test_both_orientations_must_agree():
    # Phi_{y,x} given next to Phi_{x,y} must be its adjoint, as WeightedGraph
    # refuses conflicting weights for one edge.
    g = fixtures.p2()
    with pytest.raises(InvariantError, match=r"edge \(0, 1\)"):
        HermitianBundle(g, 1, {(0, 1): [[1]], (1, 0): [[-1]]})
    phi = np.array([[0, 1j], [1, 0]])
    b = HermitianBundle(g, 2, {(1, 0): phi, (0, 1): phi.conj().T})
    assert np.array_equal(b.phi(1, 0), phi)


def test_symmetrize_examples():
    g = fixtures.p2()
    b1 = HermitianBundle(g, 1)
    out = symmetrize(np.array([[3 + 4j], [0]]), b1)
    np.testing.assert_allclose(out, [5.0, 0.0])

    b2 = HermitianBundle(g, 2)
    out = symmetrize(np.array([[1, 1], [0, 0]], dtype=complex), b2)
    np.testing.assert_allclose(out, [np.sqrt(2), 0.0])


def test_symmetrize_norm_preservation():
    g = fixtures.random_graph()
    ctx = ConeContext(g)
    rng = np.random.default_rng(5)
    b = HermitianBundle(g, 3)
    for _ in range(50):
        u = fixtures.random_section(g.n, 3, rng)
        su = symmetrize(u, b)
        assert abs(ctx.norm(su) - ctx.section_norm(u)) <= 1e-12 * ctx.section_norm(u)


def test_pair_hand_example():
    g = fixtures.single_vertex(0.0)
    b = HermitianBundle(g, 1)
    f2 = pair(np.array([[3 + 4j]]), np.array([2.0]), b)
    np.testing.assert_allclose(f2, [[(6 + 8j) / 5]])
    inner = (np.array([[3 + 4j]]) * f2.conj()).sum()
    assert inner == pytest.approx(10.0)


def test_pair_zero_block_uses_first_basis_vector():
    g = fixtures.p2()
    b = HermitianBundle(g, 2)
    f1 = np.zeros((2, 2), dtype=complex)
    f1[1, 1] = 5.0
    f2 = pair(f1, np.array([1.0, 0.0]), b)
    np.testing.assert_allclose(f2[0], [1.0, 0.0])
    np.testing.assert_allclose(f2[1], [0.0, 0.0])


def test_pair_zero_g_gives_zero():
    g = fixtures.p3()
    b = HermitianBundle(g, 2)
    rng = np.random.default_rng(0)
    f2 = pair(fixtures.random_section(3, 2, rng), np.zeros(3), b)
    assert np.abs(f2).max() == 0.0


def test_pair_rejects_negative_g():
    g = fixtures.p2()
    b = HermitianBundle(g, 1)
    with pytest.raises(NegativeG):
        pair(np.ones((2, 1), dtype=complex), np.array([1.0, -0.1]), b)


def test_pair_postconditions_random():
    g = fixtures.random_graph()
    ctx = ConeContext(g)
    b = HermitianBundle(g, 2)
    rng = np.random.default_rng(17)
    for _ in range(50):
        f1 = fixtures.random_section(g.n, 2, rng)
        gfun = np.abs(rng.standard_normal(g.n))
        f2 = pair(f1, gfun, b)
        np.testing.assert_allclose(symmetrize(f2, b), gfun, atol=1e-13)
        lhs = ctx.section_inner(f1, f2)
        rhs = ctx.inner(symmetrize(f1, b), gfun)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        assert oracles.check_paired(f1, f2).ok


def test_check_paired_examples():
    disjoint = oracles.check_paired(
        np.array([[1.0 + 0j], [0.0]]), np.array([[0.0 + 0j], [1.0]])
    )
    assert disjoint.ok

    misaligned = oracles.check_paired(np.array([[1.0 + 0j]]), np.array([[1j]]))
    assert not misaligned.ok
    assert misaligned.worst_vertex == 0
    assert misaligned.worst_defect == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cauchy_schwarz_symmetrization(seed):
    # Cauchy-Schwarz compatibility: |<f1, f2>| <= <S f1, S f2>, slack >= -1e-12.
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    g = fixtures.WeightedGraph(n, {}, None, 0.5 + rng.random(n))
    ctx = ConeContext(g)
    b = HermitianBundle(g, d)
    f1 = fixtures.random_section(n, d, rng)
    f2 = fixtures.random_section(n, d, rng)
    lhs = abs(ctx.section_inner(f1, f2))
    rhs = ctx.inner(symmetrize(f1, b), symmetrize(f2, b)).real
    assert rhs - lhs >= -1e-12 * max(1.0, rhs)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_triangle_homogeneity_lipschitz(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    g = fixtures.WeightedGraph(n, {}, None, 0.5 + rng.random(n))
    ctx = ConeContext(g)
    b = HermitianBundle(g, d)
    f1 = fixtures.random_section(n, d, rng)
    f2 = fixtures.random_section(n, d, rng)
    gfun = np.abs(rng.standard_normal(n))

    # Triangle inequality against nonnegative test functions.
    lhs = ctx.inner(symmetrize(f1 + f2, b), gfun).real
    rhs = ctx.inner(symmetrize(f1, b) + symmetrize(f2, b), gfun).real
    assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))

    # Positive homogeneity for complex scalars.
    alpha = complex(rng.standard_normal(), rng.standard_normal())
    diff = symmetrize(alpha * f1, b) - abs(alpha) * symmetrize(f1, b)
    assert np.abs(diff).max() <= 1e-14 * max(1.0, abs(alpha) * np.abs(f1).max())

    # Lipschitz bound ||S f1 - S f2|| <= ||f1 - f2||.
    lip = ctx.norm(symmetrize(f1, b) - symmetrize(f2, b))
    assert lip <= ctx.section_norm(f1 - f2) + 1e-12


def test_abs_difference_identity():
    # For S(f2) <= S(f1) paired pairs: S(f1 - f2) = S(f1) - S(f2).
    g = fixtures.random_graph()
    b = HermitianBundle(g, 2)
    rng = np.random.default_rng(23)
    for _ in range(50):
        f1 = fixtures.random_section(g.n, 2, rng)
        gfun = rng.random(g.n) * symmetrize(f1, b)
        f2 = pair(f1, gfun, b)
        assert oracles.check_paired(f1, f2).ok
        lhs = symmetrize(f1 - f2, b)
        rhs = symmetrize(f1, b) - symmetrize(f2, b)
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_restrict_bundle_folding():
    g = fixtures.p3()
    rng = np.random.default_rng(9)
    b = fixtures.random_bundle(g, 2, rng)
    folded = restrict_bundle(b, [0, 1], fold_boundary=True)
    plain = restrict_bundle(b, [0, 1], fold_boundary=False)
    # Vertex 1 loses the edge to vertex 2 with b = 1; folding adds I.
    np.testing.assert_allclose(folded.endo[1], plain.endo[1] + np.eye(2))
    np.testing.assert_allclose(folded.endo[0], plain.endo[0])
    assert folded.graph.edges.tolist() == [[0, 1]]
    assert folded.graph.weights.tolist() == [1.0]


def test_load_bundle_defaults_and_errors():
    g = fixtures.p2()
    b = load_bundle(g, {"rank": 1})
    assert np.array_equal(b.phi(0, 1), np.eye(1))
    assert np.abs(b.endo).max() == 0.0

    with pytest.raises(SchemaError):
        load_bundle(g, {"rank": 0})
    with pytest.raises(SchemaError):
        load_bundle(g, {"rank": 1, "connection": [{"u": 0, "v": 1}]})
    with pytest.raises(SchemaError):
        load_bundle(g, {"rank": 1, "endo": [[[0.0, 0.0]]]})
    # Non-finite or overflowing connection entries would reach the
    # unitarity defect as NaN or inf.
    for entry in (float("nan"), 1e308):
        connection = [{"u": 0, "v": 1, "matrix": [[[entry, 0.0]]]}]
        with pytest.raises(SchemaError, match="connection #0"):
            load_bundle(g, {"rank": 1, "connection": connection})
    # Connection on a non-edge is rejected.
    with pytest.raises(SchemaError):
        load_bundle(
            fixtures.p3(),
            {"rank": 1, "connection": [{"u": 0, "v": 2, "matrix": [[[1.0, 0.0]]]}]},
        )


def _fixture_bundle_docs():
    docs = [fixtures.diamagnetic_docs(), fixtures.diamagnetic_docs(seed=3, n=9, d=1),
            fixtures.killing_without_endo_docs(n=12), fixtures.path_docs(8, d=3)]
    return [(load_graph(graph_doc), bundle_doc) for graph_doc, bundle_doc in docs]


def test_bundle_matrices_parse_alike_in_one_conversion_and_one_by_one():
    # All connection matrices, and all endo blocks, parse by one numpy
    # conversion each; matrix by matrix, and cell by cell with complex(re,
    # im), they give the same bits.
    for graph, doc in _fixture_bundle_docs():
        rank = doc["rank"]
        fields = [[entry["matrix"] for entry in doc["connection"]], doc.get("endo")]
        for raws in filter(None, fields):
            fast = bundles._parse_matrices(raws, rank, "m")
            one_by_one = [bundles._matrix_stack([raw], rank)[0] for raw in raws]
            by_cell = [[[complex(re, im) for re, im in row] for row in raw] for raw in raws]
            assert fast.dtype == complex and fast.shape == (len(raws), rank, rank)
            assert fast.tobytes() == np.concatenate(one_by_one).tobytes()
            assert fast.tobytes() == np.array(by_cell, complex).tobytes()
        # A cell of three entries is refused, in either field.
        for field, where in (("connection", "connection #0"), ("endo", "endo #0")):
            if field not in doc:
                continue
            padded = copy.deepcopy(doc)
            cell = (padded[field][0]["matrix"] if field == "connection"
                    else padded[field][0])[0][0]
            cell.append(7.0)
            with pytest.raises(SchemaError, match=f"^{where}: entries must be "
                               r"\[re, im\] float pairs$"):
                load_bundle(graph, padded)


def test_string_cells_are_refused_as_ever():
    # numpy would read the string "1.5" as a number; the loader does not.
    graph, doc = _fixture_bundle_docs()[0]
    for field, where in (("connection", "connection #1"), ("endo", "endo #1")):
        bad = copy.deepcopy(doc)
        matrix = bad[field][1]["matrix"] if field == "connection" else bad[field][1]
        matrix[0][0] = ["1.5", 0.0]
        with pytest.raises(SchemaError, match=f"^{where}: entries must be "
                           r"\[re, im\] float pairs$"):
            load_bundle(graph, bad)


def test_boolean_cells_vertices_and_unknown_entry_keys_are_refused():
    graph, doc = _fixture_bundle_docs()[0]
    for field, where in (("connection", "connection #1"), ("endo", "endo #1")):
        bad = copy.deepcopy(doc)
        matrix = bad[field][1]["matrix"] if field == "connection" else bad[field][1]
        matrix[0][0] = [True, 0]
        with pytest.raises(SchemaError, match=f"^{where}: entries must be "
                           r"\[re, im\] float pairs$"):
            load_bundle(graph, bad)
    for u, v in ((False, True), (0, 1.0)):
        bad = copy.deepcopy(doc)
        bad["connection"][1].update(u=u, v=v)
        with pytest.raises(SchemaError, match="connection #1: vertices"):
            load_bundle(graph, bad)
    bad = copy.deepcopy(doc)
    bad["connection"][1]["phase"] = 0.0
    with pytest.raises(SchemaError, match="connection #1 must be an object with exactly"):
        load_bundle(graph, bad)
    # The mapping constructor refuses the same vertex pairs.
    for key in ((False, True), (0.0, 1.0), (0.5, 1.9)):
        with pytest.raises(DimensionMismatch, match="must be integers"):
            HermitianBundle(fixtures.p2(), 1, {key: [[1.0]]})


def test_vertex_count_and_rank_are_positive_integers():
    # The constructors apply the loaders' integer test: a boolean is not a
    # count, and a float rank is refused as an MglError.
    for n in (True, 2.0, 0, "2"):
        with pytest.raises(InvariantError, match="positive integer"):
            WeightedGraph(n, {})
    assert WeightedGraph(np.int64(2), {}).n == 2
    g = fixtures.p2()
    for rank in (True, 1.5, 0, None):
        with pytest.raises(DimensionMismatch, match="positive integer"):
            HermitianBundle(g, rank)
    assert HermitianBundle(g, np.int64(2)).rank == 2


def _complex(matrix):
    """A matrix of [re, im] cells as a complex array, cell by cell."""
    return np.array([[complex(re, im) for re, im in row] for row in matrix])


def _reverse_every_other(graph_doc, bundle_doc):
    """Copies of the docs with every other edge and connection entry given
    as (v, u), its matrix the adjoint."""
    graph_doc, bundle_doc = copy.deepcopy(graph_doc), copy.deepcopy(bundle_doc)
    for entry in graph_doc["edges"][1::2] + bundle_doc["connection"][1::2]:
        entry["u"], entry["v"] = entry["v"], entry["u"]
    for entry in bundle_doc["connection"][1::2]:
        entry["matrix"] = fixtures.mat_to_doc(_complex(entry["matrix"]).conj().T)
    return graph_doc, bundle_doc


def test_loader_mapping_and_array_constructors_agree():
    # On the fixture specs and a benchmark-shaped instance (n = 600, rank
    # 3), with every other entry reversed, the JSON loaders, the mapping
    # constructors and the array constructors give the same bytes.
    rng = np.random.default_rng(1)
    specs = fixtures.bench_specs()
    bench_graph = specs.random_graph(600, rng)
    for graph_doc, bundle_doc in [
        fixtures.diamagnetic_docs(), fixtures.diamagnetic_docs(seed=3, n=9, d=1),
        fixtures.killing_without_endo_docs(n=12), fixtures.path_docs(8, d=3),
        (bench_graph, specs.random_bundle(bench_graph, 3, rng)),
    ]:
        n, rank = graph_doc["n"], bundle_doc["rank"]
        # The arrays, read off the specs, which list their edges sorted.
        edges = np.array([[e["u"], e["v"]] for e in graph_doc["edges"]], dtype=np.intp)
        weights = np.array([e["b"] for e in graph_doc["edges"]])
        conn = np.array([_complex(e["matrix"]) for e in bundle_doc["connection"]])
        endo = np.array([_complex(m) for m in bundle_doc.get("endo", [])] or
                        np.zeros((n, rank, rank), complex))
        lengths = 1.0 / np.sqrt(weights)

        graph_doc, bundle_doc = _reverse_every_other(graph_doc, bundle_doc)
        pairs = [(e["u"], e["v"]) for e in graph_doc["edges"]]
        loaded = load_graph(graph_doc)
        mapping = WeightedGraph(n, dict(zip(pairs, weights)),
                                graph_doc.get("killing"), graph_doc.get("measure"))
        for g in (loaded, mapping):
            assert g.edges.tobytes() == edges.tobytes()
            assert g.weights.tobytes() == weights.tobytes()
        mats = {(e["u"], e["v"]): _complex(e["matrix"]) for e in bundle_doc["connection"]}
        for b in (load_bundle(loaded, bundle_doc),
                  HermitianBundle(loaded, rank, mats, endo),
                  HermitianBundle(loaded, rank, conn, endo)):
            assert b.connection.tobytes() == conn.tobytes()
            assert b.endo.tobytes() == endo.tobytes()
        assert (EdgeLengths(loaded, dict(zip(pairs, lengths))).lengths.tobytes()
                == EdgeLengths(loaded, lengths).lengths.tobytes() == lengths.tobytes())


@pytest.mark.parametrize("kind", ["non-object", "unknown-key", "invalid-json", "missing"])
def test_load_bundle_spec_preamble_errors(tmp_path, kind):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    source = {
        "non-object": [1, 2],
        "unknown-key": {"rank": 1, "twist": 0},
        "invalid-json": bad,
        "missing": str(tmp_path / "missing.json"),
    }[kind]
    with pytest.raises(SchemaError, match="bundle spec"):
        load_bundle(fixtures.p2(), source)


def test_section_shape_checks():
    g = fixtures.p2()
    b = HermitianBundle(g, 2)
    with pytest.raises(DimensionMismatch):
        symmetrize(np.ones((2, 3)), b)


@pytest.mark.parametrize("make, error, fragment", [
    (lambda g: HermitianBundle(g, 2, np.zeros((1, 1, 1))),
     DimensionMismatch, "connection array has shape (1, 1, 1)"),
    (lambda g: HermitianBundle(g, 2, {(0, 1): np.eye(3)}),
     DimensionMismatch, "connection matrices have shapes [(3, 3)]"),
    (lambda g: HermitianBundle(g, 1, endo=np.zeros((3, 1, 1))),
     DimensionMismatch, "endo field has shape (3, 1, 1)"),
    (lambda g: pair(np.ones((2, 1)), np.ones(3), HermitianBundle(g, 1)),
     DimensionMismatch, "g has shape (3,)"),
    (lambda g: load_bundle(g, {"rank": 2, "connection": [
        {"u": 0, "v": 1, "matrix": [[[1.0, 0.0], [0.0, 0.0]]]}]}),
     SchemaError, "connection #0: matrix must be 2x2"),
    (lambda g: load_bundle(g, {"rank": 1, "connection": {}}),
     SchemaError, "'connection' must be a list"),
], ids=["connection-array", "connection-matrix", "endo", "pair-g", "spec-matrix",
        "spec-connection"])
def test_malformed_bundle_inputs_are_refused(make, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        make(fixtures.p2())
