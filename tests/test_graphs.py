import numpy as np
import pytest

import fixtures
from mgl import (
    EdgeLengths,
    HermitianBundle,
    WeightedGraph,
    assemble_scalar_form,
    load_graph,
    restrict_dirichlet,
    restrict_neumann,
)
from mgl.errors import InvariantError, SchemaError


def test_load_p2_row_sums():
    g = load_graph({"n": 2, "edges": [{"u": 0, "v": 1, "b": 1.0}]})
    assert g.n == 2
    np.testing.assert_array_equal(g.row_sums, [1.0, 1.0])
    np.testing.assert_array_equal(g.killing, [0.0, 0.0])
    np.testing.assert_array_equal(g.measure, [1.0, 1.0])


def test_zero_weight_edge_is_dropped():
    g = load_graph({"n": 3, "edges": [{"u": 0, "v": 1, "b": 1.0},
                                      {"u": 1, "v": 2, "b": 0.0}]})
    np.testing.assert_array_equal(g.edges, [[0, 1]])
    np.testing.assert_array_equal(g.weights, [1.0])
    np.testing.assert_array_equal(g.row_sums, [1.0, 1.0, 0.0])


def test_load_rejects_loop_as_b1():
    with pytest.raises(InvariantError, match=r"\(b1\).*vertex 0"):
        load_graph({"n": 1, "edges": [{"u": 0, "v": 0, "b": 1.0}]})


def test_load_rejects_zero_measure():
    with pytest.raises(InvariantError, match="measure positivity.*vertex 1"):
        load_graph(
            {"n": 2, "edges": [{"u": 0, "v": 1, "b": 1.0}], "measure": [1.0, 0.0]}
        )


def test_load_rejects_negative_weight_and_killing():
    with pytest.raises(InvariantError, match="nonnegativity"):
        load_graph({"n": 2, "edges": [{"u": 0, "v": 1, "b": -1.0}]})
    with pytest.raises(InvariantError, match="killing"):
        load_graph({"n": 1, "edges": [], "killing": [-0.5]})


def test_load_schema_errors():
    with pytest.raises(SchemaError):
        load_graph([1, 2, 3])
    with pytest.raises(SchemaError):
        load_graph({"edges": []})
    with pytest.raises(SchemaError):
        load_graph({"n": 2, "edges": [{"u": 0, "v": 1}]})
    with pytest.raises(SchemaError):
        load_graph({"n": 2, "edges": [{"u": 0, "v": 5, "b": 1.0}]})
    with pytest.raises(SchemaError, match="duplicate"):
        load_graph(
            {"n": 2, "edges": [{"u": 0, "v": 1, "b": 1.0}, {"u": 0, "v": 1, "b": 1.0}]}
        )
    with pytest.raises(SchemaError, match="length n"):
        load_graph({"n": 2, "edges": [], "measure": [1.0]})


def test_conflicting_reverse_duplicate_names_b2():
    with pytest.raises(InvariantError, match=r"\(b2\)"):
        load_graph(
            {"n": 2, "edges": [{"u": 0, "v": 1, "b": 1.0}, {"u": 1, "v": 0, "b": 2.0}]}
        )


@pytest.mark.parametrize(
    "u, v",
    [(False, True), (0, True), (0.0, 1), (0.5, 1.9), ("0", 1), (None, 1), (0, 2**64)],
    ids=["booleans", "boolean", "integral-float", "floats", "string", "null", "huge"],
)
def test_vertex_indices_are_integers_in_range(u, v):
    # A vertex index is an integer: a boolean or a float, even an integral
    # one, is refused rather than read as the integer it converts to.
    with pytest.raises(SchemaError, match=r"edge #0: vertices .* must be integers in 0..1"):
        load_graph({"n": 2, "edges": [{"u": u, "v": v, "b": 1.0}]})
    with pytest.raises(InvariantError, match="must be integers"):
        WeightedGraph(2, {(u, v): 1.0})
    g = fixtures.p2()
    with pytest.raises(InvariantError, match="must be integers"):
        EdgeLengths(g, {(u, v): 1.0})


def test_edge_entries_and_keys_have_the_documented_shape():
    with pytest.raises(SchemaError, match="edge #1 must be an object with exactly the"):
        load_graph({"n": 3, "edges": [{"u": 0, "v": 1, "b": 1.0},
                                      {"u": 1, "v": 2, "b": 1.0, "w": 2.0}]})
    # Keys that are not pairs are refused, not read two vertices at a time.
    with pytest.raises(InvariantError, match="vertex pair"):
        WeightedGraph(4, {(0, 1, 2): 1.0, (3,): 1.0})


def test_a_zero_and_a_positive_weight_on_one_edge_conflict():
    # b(x, y) = b(y, x) fails as well when one orientation is given as zero.
    with pytest.raises(InvariantError, match=r"\(b2\).*edge \(0, 1\)"):
        WeightedGraph(2, {(0, 1): 0.0, (1, 0): 1.0})
    g = WeightedGraph(3, {(1, 0): 2.0, (0, 1): 2.0, (2, 1): 0.0, (1, 2): 0.0})
    assert g.edges.tolist() == [[0, 1]] and g.weights.tolist() == [2.0]


def test_missing_file_is_schema_error(tmp_path):
    with pytest.raises(SchemaError):
        load_graph(tmp_path / "nope.json")


def test_symmetry_bit_identical():
    # Each unordered pair is stored once, as a sorted row (x, y) with x < y,
    # so b(x, y) and b(y, x) read the same stored weight.
    for g in fixtures.fixture_graphs().values():
        assert (g.edges[:, 0] < g.edges[:, 1]).all()
        keys = g.edges[:, 0] * g.n + g.edges[:, 1]
        assert (np.diff(keys) > 0).all()
        for (x, y) in g.edges:
            assert g.weight(x, y) == g.weight(y, x)


def test_weighted_degree_examples():
    g = fixtures.p2()
    assert g.weighted_degrees()[0] == 1.0
    g2 = WeightedGraph(2, {(0, 1): 1.0}, killing=[2.0, 0.0])
    assert g2.weighted_degrees()[0] == 3.0
    lone = WeightedGraph(1, {})
    assert lone.weighted_degrees()[0] == 0.0


def test_edge_lookup_with_int32_vertices_past_46341():
    # The key x * n + y of a vertex pair exceeds the int32 range once
    # n > 46,341; int32 vertices, as scipy's csgraph traversals return them,
    # must still find their edge.
    n = 10**5
    g = WeightedGraph(n, {(i, i + 1): 1.0 for i in range(n - 1)})
    x, y = np.array([60000, 99998], np.int32), np.array([60001, 99999], np.int32)
    np.testing.assert_array_equal(g._edge_index(x, y), [60000, 99998])
    np.testing.assert_array_equal(g._edge_index(y, x), [60000, 99998])
    assert g.weight(np.int32(60000), np.int32(60001)) == 1.0


def test_edge_lookups_refuse_what_is_not_a_vertex():
    # weight, phi and edge-length lookups take vertices by the constructors'
    # test: a boolean or an integral float is no vertex, nor is one out of
    # range; numpy integers are.
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 2.0})
    bundle = HermitianBundle(g, 1)
    lengths = EdgeLengths.constant(g, 3.0)
    lookups = (g.weight, bundle.phi, lambda x, y: lengths[(x, y)])
    for lookup in lookups:
        for x, y in ((True, 2), (1.0, 2.0), (False, True), (1, np.float64(2)),
                     (1, 3), (-1, 0)):
            with pytest.raises(InvariantError, match="must be an integer in 0..2"):
                lookup(x, y)
    assert g.weight(np.int64(1), 2) == g.weight(2, np.int32(1)) == 2.0
    assert g.weight(0, 2) == 0.0
    assert lengths[(np.int8(2), 1)] == 3.0
    np.testing.assert_array_equal(bundle.phi(0, np.uint8(1)), np.eye(1))


def test_restrict_dirichlet_p3_folds_boundary():
    g = fixtures.p3()
    sub = restrict_dirichlet(g, [0, 1])
    assert sub.n == 2
    assert sub.edges.tolist() == [[0, 1]]
    assert sub.weights.tolist() == [1.0]
    np.testing.assert_array_equal(sub.killing, [0.0, 1.0])

    # Dirichlet restriction of the assembled form equals the host form
    # compressed to zero-extended basis functions.
    host = assemble_scalar_form(g).L.toarray()
    compressed = host[np.ix_([0, 1], [0, 1])]
    np.testing.assert_allclose(
        assemble_scalar_form(sub).L.toarray(), compressed, atol=1e-14
    )


def test_restrict_dirichlet_single_vertex():
    g = fixtures.p3()
    sub = restrict_dirichlet(g, [1])
    assert sub.n == 1
    assert sub.edges.shape == (0, 2)
    assert sub.weights.shape == (0,)
    np.testing.assert_array_equal(sub.killing, [2.0])


def test_restrict_full_subset_is_identity():
    g = fixtures.path8_weighted()
    omega = list(range(g.n))
    for restricted in (restrict_dirichlet(g, omega), restrict_neumann(g, omega)):
        np.testing.assert_array_equal(restricted.edges, g.edges)
        np.testing.assert_array_equal(restricted.weights, g.weights)
        np.testing.assert_array_equal(restricted.killing, g.killing)
        np.testing.assert_array_equal(restricted.measure, g.measure)


def test_restrict_neumann_drops_boundary():
    g = fixtures.p3()
    sub = restrict_neumann(g, [0, 1])
    assert sub.edges.tolist() == [[0, 1]]
    assert sub.weights.tolist() == [1.0]
    np.testing.assert_array_equal(sub.killing, [0.0, 0.0])


def test_dirichlet_minus_neumann_diagonal_psd():
    for g in fixtures.fixture_graphs().values():
        if g.n < 3:
            continue
        omega = list(range(g.n - 1))
        ld = assemble_scalar_form(restrict_dirichlet(g, omega)).L.toarray()
        ln = assemble_scalar_form(restrict_neumann(g, omega)).L.toarray()
        diff = ld - ln
        off_diag = diff - np.diag(np.diag(diff))
        assert np.abs(off_diag).max() == 0.0
        assert np.diag(diff).min() >= 0.0


def test_dirichlet_compression_property():
    # restrict-then-assemble equals assemble-then-compress across fixtures.
    for g in fixtures.fixture_graphs().values():
        if g.n < 2:
            continue
        omega = list(range(1, g.n))
        sub = assemble_scalar_form(restrict_dirichlet(g, omega)).L.toarray()
        host = assemble_scalar_form(g).L.toarray()[np.ix_(omega, omega)]
        np.testing.assert_allclose(sub, host, atol=1e-14)


def test_vertex_subset_validation():
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0}, measure=[1.0, 2.0, 4.0])
    # Members are integers: floats and booleans are refused, not truncated.
    for members in ([], [0, 0], [5], [0.7], [True, 2], [False, 1.5]):
        with pytest.raises(InvariantError):
            restrict_dirichlet(g, members)
    # Members come in any order and are read sorted. Both lose their edge
    # to the excluded vertex 1.
    sub = restrict_dirichlet(g, [2, 0])
    np.testing.assert_array_equal(sub.measure, [1.0, 4.0])
    np.testing.assert_array_equal(sub.killing, [1.0, 1.0])
