"""Finite weighted graphs: vertex measure, symmetric edge weights, killing term.

A graph is the data (n, b, c, m) with b symmetric and zero on the diagonal,
c >= 0 and m > 0. Each unordered edge is stored once, as a row (x, y) with
x < y of the (E, 2) array `edges`, sorted lexicographically, with its
weight at the same position of `weights`; the symmetry axiom therefore
holds by construction rather than by check. Everything downstream (forms,
bundles, metrics, restrictions) is computed from these aligned arrays. All
objects are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import contextlib
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InvariantError, SchemaError


# Largest accepted vertex scale: measure, 1/measure, weighted degree and the
# endomorphism size |W(x)|/m(x). Beyond it the form arithmetic (the
# symmetrization of L, m-weighted norms, the eigensolver) can overflow.
MAGNITUDE_BOUND = 1e150

# Largest form dimension n * d of a command that builds a dense spectrum
# (dominate, spectrum, semigroup-id), which they refuse before building any
# form. L is kept sparse, but assembly builds a dense N x N transient, the
# reduction an N x (N+1) buffer, which later holds U, and the eigensystem T's
# real eigenvectors Z. One complex N x N matrix of this size takes 4 GiB,
# and DENSE_DIM_BOUND^2 words also bound each array any command builds from
# the specs: the vertex arrays, the bundle's (n + 2E) d^2 form-matrix
# entries (which bound its endomorphism and connection blocks), and the
# one N x |b| panel of each prefix in uniqueness, whose blocks are factored
# sparse and solved for blocks of unit columns, so that SuperLU's own
# work array holds N x metrics.SOLVE_BLOCK words. The fill of those sparse
# factors is not bounded in advance.
DENSE_DIM_BOUND = 16384


def _frozen(arr):
    arr.setflags(write=False)
    return arr


class WeightedGraph:
    """Immutable weighted graph on vertices 0..n-1.

    Attributes
    ----------
    n : vertex count
    edges : (E, 2) int array of rows (x, y), x < y, sorted lexicographically
    weights : (E,) array of the positive weights b(x, y), aligned with edges
    killing : length-n array of nonnegative killing values c
    measure : length-n array of strictly positive vertex measures m
    row_sums : cached length-n array of sum_y b(x, y)
    """

    __slots__ = ("n", "edges", "weights", "killing", "measure", "row_sums", "_keys")

    def __init__(self, n, edges, killing=None, measure=None):
        """`edges` maps pairs (x, y), in either orientation, to weights b >= 0;
        zero weights are dropped."""
        if not _integers([n]) or n <= 0:
            raise InvariantError(f"vertex count must be a positive integer, got {n!r}")
        edges = dict(edges)
        b = np.array(list(edges.values()), dtype=float)
        edge_rows, weights, _ = _weighted_edges(int(n), list(edges), b)
        self._store(int(n), edge_rows, weights, killing, measure)

    @classmethod
    def _from_arrays(cls, n, edges, weights, killing, measure):
        """Graph from rows that are already sorted, oriented and positive."""
        graph = cls.__new__(cls)
        graph._store(n, edges, weights, killing, measure)
        return graph

    def _store(self, n, edges, weights, killing, measure):
        self.n = n
        self.edges = _frozen(edges)
        self.weights = _frozen(weights)
        self.killing = self._vertex_array(killing, default=0.0, name="killing")
        self.measure = self._vertex_array(measure, default=1.0, name="measure")
        bad = np.flatnonzero(~np.isfinite(self.killing) | (self.killing < 0))
        if bad.size:
            x = bad[0]
            raise InvariantError(
                f"killing nonnegativity violated at vertex {x}: c={self.killing[x]}"
            )
        bad = np.flatnonzero(~np.isfinite(self.measure) | (self.measure <= 0))
        if bad.size:
            x = bad[0]
            raise InvariantError(
                f"measure positivity violated at vertex {x}: m={self.measure[x]}"
            )
        self.row_sums = _frozen(self._incident_sums(self.weights))
        # Sorted rows have sorted keys x * n + y; the sentinel n * n, above
        # every key, keeps the array nonempty for the clamped read in
        # _edge_index.
        self._keys = np.append(edges @ np.array([n, 1]), n * n)

    def _vertex_array(self, values, default, name):
        if values is None:
            return _frozen(np.full(self.n, default))
        arr = np.array(values, dtype=float)
        if arr.shape != (self.n,):
            raise InvariantError(
                f"{name} must have length n={self.n}, got shape {arr.shape}"
            )
        return _frozen(arr)

    def _incident_sums(self, per_edge):
        """Add each per-edge value to both endpoints: a length-n array."""
        return np.bincount(
            self.edges.ravel(), weights=np.repeat(per_edge, 2), minlength=self.n
        )

    def _edge_index(self, x, y):
        """Row of the edge {x, y} in `edges` (either orientation), -1 off it."""
        x, y = np.asarray(x), np.asarray(y)
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        query = lo * np.int64(self.n) + hi  # int64: int32 overflows past n = 46,341
        keys = self._keys
        pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        hit = (lo >= 0) & (hi < self.n) & (keys[pos] == query)
        return np.where(hit, pos, -1)

    def _edge_row(self, x, y) -> int:
        """Row of the edge {x, y} for a public lookup, -1 off it; InvariantError
        unless x and y are vertices, by the constructors' test: a boolean or
        an integral float is none."""
        i = _first_non_vertex([x, y], self.n)
        if i is not None:
            raise InvariantError(
                f"vertex {(x, y)[i]!r} must be an integer in 0..{self.n - 1}")
        return int(self._edge_index(x, y))

    def weight(self, x, y):
        """b(x, y); zero on the diagonal and on non-edges."""
        i = self._edge_row(x, y)
        return float(self.weights[i]) if i >= 0 else 0.0

    def weighted_degrees(self):
        """Deg(x) = (sum_y b(x, y) + c(x)) / m(x) for every vertex x."""
        return (self.row_sums + self.killing) / self.measure

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, edges={len(self.edges)})"


def _integers(values) -> bool:
    """Whether each of `values` is an int or a numpy integer; a boolean is
    neither. The one test of vertex indices, vertex counts and ranks."""
    return all(t is not bool and issubclass(t, (int, np.integer))
               for t in set(map(type, values)))


def _first_non_vertex(values, n):
    """Position of the first of `values` that is not an integer in 0..n-1, or None."""
    if _integers(values) and 0 <= min(values, default=0) and max(values, default=0) < n:
        return None
    return next(i for i, v in enumerate(values) if not (_integers([v]) and 0 <= v < n))


def _vertices(G: WeightedGraph, values, what="vertex subset", subset=True):
    """The nonempty list `values` of vertices of G as a read-only int array;
    InvariantError naming `what` unless each is an integer in 0..n-1. The
    members of a subset must be distinct, and come back sorted."""
    values = list(values)
    if not values:
        raise InvariantError(f"{what} must be nonempty")
    i = _first_non_vertex(values, G.n)
    if i is not None:
        raise InvariantError(
            f"{what}: vertex {values[i]!r} must be an integer in 0..{G.n - 1}")
    members = np.array(values, dtype=np.intp)
    if subset:
        members = np.unique(members)
        if members.size != len(values):
            raise InvariantError(f"{what} contains duplicates")
    return _frozen(members)


def _restriction(G: WeightedGraph, omega):
    """Split the edge set of G along a vertex subset.

    Returns the sorted members, the mask of edges with both ends inside,
    those edges relabeled to member positions (still sorted, since
    relabeling is monotone), and per member the total weight of edges
    leaving the subset.
    """
    members = _vertices(G, omega)
    pos = np.full(G.n, -1)
    pos[members] = np.arange(members.size)
    ends = pos[G.edges]
    inside = ends >= 0
    keep = inside.all(axis=1)
    cut = inside.any(axis=1) & ~keep
    boundary = np.bincount(
        ends[cut][inside[cut]], weights=G.weights[cut], minlength=members.size
    )
    return members, keep, ends[keep], boundary


def _read_spec(source, what: str, keys) -> dict:
    """The spec document `source`, a parsed object or a path to a JSON file.

    Checks that it is an object with no keys outside `keys`; every failure
    is a SchemaError whose message starts with `what`.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise SchemaError(f"cannot read {what}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise SchemaError(f"{what} is not valid JSON: {exc}") from exc
    else:
        doc = source

    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    unknown = set(doc) - set(keys)
    if unknown:
        raise SchemaError(f"{what} has unknown keys: {sorted(unknown)}")
    return doc


def _pair_entries(doc, field: str, value: str, what: str):
    """The pairs (u, v) and the values of the entries of the list doc[field]
    (default empty), each an object with exactly the keys u, v and `value`;
    SchemaError naming `what` and the first entry that is not one."""
    entries = doc.get(field, [])
    if not isinstance(entries, list):
        raise SchemaError(f"'{field}' must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or entry.keys() != {"u", "v", value}:
            raise SchemaError(
                f"{what} #{i} must be an object with exactly the keys u, v, {value}")
    return [(e["u"], e["v"]) for e in entries], [e[value] for e in entries]


def _check_magnitude(values, what: str):
    """SchemaError naming the first vertex where `values` exceeds MAGNITUDE_BOUND
    or is NaN (JSON readers accept NaN)."""
    bad = np.flatnonzero(~(values <= MAGNITUDE_BOUND))
    if bad.size:
        x = bad[0]
        raise SchemaError(
            f"{what} at vertex {x} is {values[x]:.3g}, above {MAGNITUDE_BOUND:.0e}; "
            "larger scales overflow"
        )


def _numbers(values, what: str) -> np.ndarray:
    """A list of JSON numbers as a float array; SchemaError unless each is an
    int or a float (a boolean is neither) within the float range."""
    if all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, values))):
        with contextlib.suppress(OverflowError):
            return np.array(values, dtype=float)
    raise SchemaError(f"{what} must be numbers within the float range")


def _align_pairs(n, pairs, values, graph=None, reverse=None, error=InvariantError,
                 what="edge"):
    """Align k vertex pairs (x, y), each in either orientation, to edge rows.

    Returns (rows, flipped, conflict): each pair's row in `graph.edges` or,
    without a graph, among the pairs' distinct edges in sorted order; the
    mask of the pairs given with x > y; and the position of the first pair
    that repeats an earlier pair's row with another of the (k, ...)
    `values`, or None. `reverse` turns the values of flipped pairs to the
    other orientation. `error` names `what` and the first pair with a
    vertex that is a boolean, not an integer or not in 0..n-1, or that is
    off `graph.edges`; a loop is InvariantError, as axiom (b1).
    """
    if set(map(len, pairs)) - {2}:
        raise error(f"each {what} must be given on a vertex pair (x, y)")
    flat = list(chain.from_iterable(pairs))
    i = _first_non_vertex(flat, n)
    if i is not None:
        i //= 2
        raise error(f"{what} #{i}: vertices {pairs[i]!r} must be integers in 0..{n - 1}")
    ends = np.array(flat, dtype=np.intp).reshape(-1, 2)
    flipped = ends[:, 0] > ends[:, 1]
    ends.sort(axis=1)
    for i in np.flatnonzero(ends[:, 0] == ends[:, 1])[:1]:
        raise InvariantError(
            f"axiom (b1) violated: {what} #{i} is a loop at vertex {ends[i, 0]}")
    if graph is None:
        rows = np.unique(ends @ np.array([n, 1]), return_inverse=True)[1]
    else:
        rows = graph._edge_index(ends[:, 0], ends[:, 1])
    for i in np.flatnonzero(rows < 0)[:1]:
        raise error(f"{what} #{i} on non-edge {tuple(ends[i].tolist())} (b=0 there)")
    if reverse is not None:
        values = values.copy()
        values[flipped] = reverse(values[flipped])
    # Each later pair on a row against the first one there.
    _, first, of_row = np.unique(rows, return_index=True, return_inverse=True)
    later = first[of_row] < np.arange(len(rows))
    differ = values != values[first][of_row]
    conflict = later & differ.any(axis=tuple(range(1, differ.ndim)))
    return rows, flipped, np.argmax(conflict) if conflict.any() else None


def _weighted_edges(n, pairs, b, error=InvariantError):
    """WeightedGraph's sorted edge rows and positive weights from k pairs,
    each in either orientation, and the (k,) weights b; also the pairs'
    rows among their distinct edges, before zero weights are dropped."""
    rows, _, conflict = _align_pairs(n, pairs, b, error=error)
    edges = np.empty((rows.max(initial=-1) + 1, 2), dtype=np.intp)
    edges[rows] = np.sort(np.reshape(pairs, (-1, 2)), axis=1)
    for i in np.flatnonzero(~(np.isfinite(b) & (b >= 0)))[:1]:
        x, y = edges[rows[i]]
        raise InvariantError(
            f"edge-weight nonnegativity violated at edge ({x},{y}): b={b[i]}")
    if conflict is not None:
        x, y = edges[rows[conflict]]
        raise InvariantError(
            f"axiom (b2) violated: conflicting weights for edge ({x}, {y})")
    weights = np.empty(len(edges))
    weights[rows] = b
    return edges[weights > 0], weights[weights > 0], rows


def _check_dense_size(n: int, d: int = 1):
    """SchemaError when the form dimension n * d exceeds DENSE_DIM_BOUND."""
    if n * d > DENSE_DIM_BOUND:
        raise SchemaError(
            f"form dimension n*d = {n}*{d} = {n * d} exceeds {DENSE_DIM_BOUND}; "
            "dense forms of that size do not fit in memory"
        )


def _check_words(words: int, what: str):
    """SchemaError when `what` needs more than DENSE_DIM_BOUND^2 words."""
    if words > DENSE_DIM_BOUND**2:
        raise SchemaError(
            f"{what} need {words} words, above DENSE_DIM_BOUND^2 = "
            f"{DENSE_DIM_BOUND}^2 = {DENSE_DIM_BOUND**2}; arrays of that size "
            "do not fit in memory"
        )


def load_graph(source, dense: bool = False) -> WeightedGraph:
    """Build a validated WeightedGraph from a graph-spec JSON document.

    `source` may be a dict already parsed from JSON, or a path to a JSON
    file. The document format is::

        {"n": int,
         "edges": [{"u": int, "v": int, "b": float}, ...],
         "killing": [float; n],   # optional, default 0
         "measure": [float; n]}   # optional, default 1

    An edge entry has exactly the keys u, v and b, with u and v integers
    (not booleans) in 0..n-1, and each edge appears once, in either
    orientation. Raises SchemaError for malformed documents and
    InvariantError (naming the violated axiom) for well-formed documents
    describing invalid graphs. With `dense`, for a command that builds a
    dense spectrum, n above DENSE_DIM_BOUND is a SchemaError as soon as n
    is read.
    """
    doc = _read_spec(source, "graph spec", ("n", "edges", "killing", "measure"))
    if "n" not in doc or not isinstance(doc["n"], int) or isinstance(doc["n"], bool):
        raise SchemaError("graph spec requires an integer 'n'")
    n = doc["n"]
    if n <= 0:
        raise SchemaError("'n' must be positive")
    if dense:
        _check_dense_size(n)
    _check_words(n, "the vertex arrays")

    pairs, weights = _pair_entries(doc, "edges", "b", "edge")

    vertex = {}
    for field in ("killing", "measure"):
        if field in doc:
            vals = doc[field]
            if not isinstance(vals, list) or len(vals) != n:
                raise SchemaError(f"'{field}' must be a list of length n={n}")
            vertex[field] = _numbers(vals, f"'{field}' entry")

    edges, weights, rows = _weighted_edges(n, pairs, _numbers(weights, "edge weights"),
                                           SchemaError)
    for row in np.flatnonzero(np.bincount(rows) > 1)[:1]:
        x, y = sorted(pairs[np.argmax(rows == row)])
        raise SchemaError(f"duplicate edge ({x}, {y}) in edge list")
    graph = WeightedGraph._from_arrays(
        n, edges, weights, vertex.get("killing"), vertex.get("measure")
    )
    bad = np.flatnonzero(~np.isfinite(graph.row_sums))
    if bad.size:
        raise SchemaError(
            f"edge weights at vertex {bad[0]} overflow: row sum is not finite"
        )
    _check_magnitude(graph.measure, "measure")
    # A quotient beyond the float range is inf, which the bound refuses.
    with np.errstate(over="ignore"):
        _check_magnitude(1.0 / graph.measure, "1/measure")
        _check_magnitude(graph.weighted_degrees(), "weighted degree")
    return graph


def restrict_dirichlet(G: WeightedGraph, omega) -> WeightedGraph:
    """Restrict to a vertex subset, folding boundary edges into the killing term.

    The result's quadratic form on functions over the subset equals the host
    form evaluated on zero-extensions: edges leaving the subset contribute
    c_new(x) = c(x) + sum_{y outside} b(x, y).
    """
    members, keep, rows, boundary = _restriction(G, omega)
    return WeightedGraph._from_arrays(
        len(members), rows, G.weights[keep],
        G.killing[members] + boundary, G.measure[members],
    )


def restrict_neumann(G: WeightedGraph, omega) -> WeightedGraph:
    """Restrict to a vertex subset, dropping boundary edges (induced subgraph)."""
    members, keep, rows, _ = _restriction(G, omega)
    return WeightedGraph._from_arrays(
        len(members), rows, G.weights[keep], G.killing[members], G.measure[members]
    )
