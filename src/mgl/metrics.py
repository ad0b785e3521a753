"""Intrinsic pseudo-metrics, chain measures and exhaustion experiments.

The adaptedness conditions here bound the metric (or edge-length) energy
density (1/m(x)) sum_y b(x,y) len(x,y)^2 by one. The exhaustion experiment
tracks how the resolvent gap between boundary-folding and edge-dropping
restrictions shrinks along a nested family of vertex sets, for the scalar
form and its bundle companion in lockstep. Disconnected vertex pairs carry
the IEEE infinity marker rather than a finite sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, csgraph_from_dense, shortest_path
from scipy.sparse.linalg import splu

from .bundles import HermitianBundle
from .errors import (
    AlphaInSpectrum,
    DimensionMismatch,
    InfiniteEdgeDistance,
    InvariantError,
    NotNested,
    SchemaError,
)
from .forms import _check_bundle, _form_matrix, _gemm
from .graphs import WeightedGraph, _align_pairs, _check_words, _restriction, _vertices

METRIC_TOL = 1e-12


class PseudoMetric:
    """Symmetric nonnegative distance matrix with zero diagonal.

    Entries may be +inf for disconnected pairs. The triangle inequality is
    verified on construction: d must equal its own shortest-path closure.
    """

    __slots__ = ("dist", "n")

    def __init__(self, dist, check: bool = True):
        dist = np.asarray(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise DimensionMismatch(f"distance matrix must be square, got {dist.shape}")
        self.n = dist.shape[0]
        self.dist = dist.copy()
        self.dist.setflags(write=False)
        if check:
            self._validate()

    def _validate(self):
        d = self.dist
        if np.any(np.diag(d) != 0):
            raise InvariantError("pseudo-metric has a nonzero diagonal entry")
        if np.isnan(d).any() or (d < 0).any():
            raise InvariantError("pseudo-metric entries must be nonnegative")
        if np.any(d != d.T):
            raise InvariantError("pseudo-metric is not symmetric")
        # d(x,y) <= d(x,z) + d(z,y) for all z exactly when no path is shorter
        # than d. Infinite entries are no edge; zero ones stay edges.
        graph = csgraph_from_dense(d, null_value=np.inf)
        if np.any(d > shortest_path(graph, directed=False) + METRIC_TOL):
            raise InvariantError("pseudo-metric violates the triangle inequality")

    def __getitem__(self, key):
        return self.dist[key]


class EdgeLengths:
    """Positive symmetric edge lengths defined exactly on edges with b > 0.

    `lengths` is a mapping {(x, y): s} over the edges, in either
    orientation, or an (E,) array aligned with `graph.edges`; it is stored
    as that array.
    """

    __slots__ = ("graph", "lengths")

    def __init__(self, graph: WeightedGraph, lengths):
        if isinstance(lengths, np.ndarray):
            arr = lengths.astype(float)
            if arr.shape != (len(graph.edges),):
                raise InvariantError("edge lengths do not match the graph's edge set")
        else:
            lengths = dict(lengths)
            values = np.array(list(lengths.values()), dtype=float)
            rows, _, conflict = _align_pairs(graph.n, list(lengths), values, graph,
                                             what="edge length")
            if conflict is not None:
                x, y = graph.edges[rows[conflict]]
                raise InvariantError(f"conflicting lengths for edge ({x}, {y})")
            missing = graph.edges[np.bincount(rows, minlength=len(graph.edges)) == 0]
            if missing.size:
                raise InvariantError(f"edge lengths missing on edges: "
                                     f"{list(map(tuple, missing.tolist()))}")
            arr = np.empty(len(graph.edges))
            arr[rows] = values
        if not (np.isfinite(arr) & (arr > 0)).all():
            raise InvariantError("edge lengths must be positive and finite")
        arr.setflags(write=False)
        self.graph = graph
        self.lengths = arr

    @classmethod
    def constant(cls, graph: WeightedGraph, value: float = 1.0):
        return cls(graph, np.full(len(graph.edges), float(value)))

    def __getitem__(self, key):
        row = self.graph._edge_row(*key)
        if row < 0:
            raise KeyError(key)
        return float(self.lengths[row])


def degree_edge_lengths(G: WeightedGraph) -> EdgeLengths:
    """Edge lengths min(Deg(x), Deg(y))^(-1/2), the reciprocal square root
    taken of the larger degree so that both endpoint energy densities are
    controlled. Well-defined on edges since b(x,y) > 0 forces Deg > 0."""
    deg = G.weighted_degrees()[G.edges]
    return EdgeLengths(G, 1.0 / np.sqrt(deg.max(axis=1)))


def _energy_slack(G: WeightedGraph, lengths) -> np.ndarray:
    """Per-vertex slack 1 - (1/m(x)) sum_y b(x,y) len(x,y)^2, edge-aligned lengths."""
    return 1.0 - G._incident_sums(G.weights * lengths**2) / G.measure


def check_intrinsic(G: WeightedGraph, d: PseudoMetric) -> np.ndarray:
    """Per-vertex slack 1 - (1/m(x)) sum_y b(x,y) d(x,y)^2.

    The metric is intrinsic iff the minimum slack is >= -1e-12. Raises
    InfiniteEdgeDistance if d is infinite on an edge with positive weight.
    """
    if d.n != G.n:
        raise DimensionMismatch("metric size does not match the graph")
    on_edges = d.dist[tuple(G.edges.T)]
    if not np.isfinite(on_edges).all():
        raise InfiniteEdgeDistance("pseudo-metric is infinite on an edge")
    return _energy_slack(G, on_edges)


def is_intrinsic(G: WeightedGraph, d: PseudoMetric) -> bool:
    return bool(check_intrinsic(G, d).min() >= -METRIC_TOL)


def path_metric(G: WeightedGraph, sigma: EdgeLengths) -> PseudoMetric:
    """All-pairs shortest-path metric over the edge lengths sigma.

    Disconnected pairs are +inf. The triangle inequality holds by
    construction, so re-validation is skipped.
    """
    if sigma.graph.n != G.n or not np.array_equal(sigma.graph.edges, G.edges):
        raise InvariantError("edge lengths do not match the graph's edge set")
    x, y = G.edges.T
    lengths = csr_matrix((sigma.lengths, (x, y)), shape=(G.n, G.n))
    dist = shortest_path(lengths, method="D", directed=False)
    return PseudoMetric(dist, check=False)


def strongly_intrinsic_check(G: WeightedGraph, sigma: EdgeLengths) -> np.ndarray:
    """Per-vertex slack 1 - (1/m(x)) sum_y b(x,y) sigma(x,y)^2.

    A pass here implies the path metric of sigma passes check_intrinsic,
    since shortest paths only shorten edge lengths.
    """
    return _energy_slack(G, sigma.lengths)


def is_strongly_intrinsic(G: WeightedGraph, sigma: EdgeLengths) -> bool:
    return bool(strongly_intrinsic_check(G, sigma).min() >= -METRIC_TOL)


def chain_measure_sum(G: WeightedGraph, vertices) -> float:
    """Total measure along a combinatorial chain.

    Consecutive vertices must share an edge with positive weight.
    """
    chain = _vertices(G, vertices, "vertex chain", subset=False)
    gaps = np.flatnonzero(G._edge_index(chain[:-1], chain[1:]) < 0)
    if gaps.size:
        a, b = chain[gaps[0]], chain[gaps[0] + 1]
        raise InvariantError(f"chain step ({a},{b}) is not an edge")
    return float(G.measure[chain].sum())


@dataclass(frozen=True)
class UniquenessReport:
    """Gap table of an exhaustion experiment plus the host's degree bound.

    Finite hosts cannot falsify the uniqueness transfer, so the table is
    labeled illustrative. `diagnostics` names the factor route and, per
    prefix and form, the block dimension N, the boundary columns |b| and
    the entries SuperLU stores for L and U (all 0 but N where nothing
    leaves the prefix).
    """

    gaps: list          # dicts {"k", "scalar", "magnetic"}
    criteria: dict
    diagnostics: dict

    def to_report(self) -> dict:
        return {"gaps": self.gaps, "criteria": self.criteria,
                "diagnostics": self.diagnostics, "illustrative": True}


def _factor(A, alpha, where):
    """The SuperLU factor of the CSC block A, which is Hermitian positive
    definite in exact arithmetic, in symmetric mode: a fill-reducing
    ordering of A + A^T applied to rows and columns alike, pivots taken on
    the diagonal. AlphaInSpectrum where SuperLU fails, a pivot leaves the
    diagonal or a pivot is not finite and positive: the LU analogue of a
    failing Cholesky factorization."""
    try:
        factor = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      options={"SymmetricMode": True})
    except RuntimeError as exc:
        problem = str(exc)
    else:
        pivots = factor.U.diagonal()
        if not np.array_equal(factor.perm_r, factor.perm_c):
            problem = "a pivot left the diagonal"
        elif not (np.isfinite(pivots).all() and (pivots.real > 0).all()):
            problem = "a pivot is not finite and positive"
        else:
            return factor
    raise AlphaInSpectrum(
        f"{where}: the edge-dropping block + alpha = {alpha} does not factor "
        f"in floating point ({problem})"
    )


def exhaustion_uniqueness_experiment(
    G: WeightedGraph,
    bundle: HermitianBundle,
    subsets,
    alpha: float = 1.0,
) -> UniquenessReport:
    """Tabulate Dirichlet/Neumann resolvent gaps along a nested exhaustion.

    For each subset the boundary-folding and edge-dropping restrictions of
    the scalar form and of the bundle form are compared through the
    m-weighted operator-norm gap of their resolvents at `alpha`,
    zero-extended to the host. Where no edge leaves a subset (the full
    vertex set, a union of components) both restrictions coincide and the
    gaps are exactly 0. `criteria` holds the largest weighted degree on the
    component of vertex 0. Raises AlphaInSpectrum when an edge-dropping
    block plus `alpha` may be singular in floating point: where `alpha` is
    at most eps times the largest diagonal entry of the block (beyond about
    4.5e15 at alpha = 1), or where the block does not factor. Raises
    SchemaError, naming the subset, where the N x |b| Woodbury panels would
    exceed DENSE_DIM_BOUND^2 words or the factor raises MemoryError. The
    factor's fill is not bounded in advance: under memory overcommit a
    factor that outgrows the host's memory may get the process killed
    instead.
    """
    _check_bundle(G, bundle)
    if alpha <= 0:
        raise AlphaInSpectrum(
            f"alpha = {alpha} must be > 0: the edge-dropping restriction can "
            "have eigenvalue 0"
        )
    subsets = [_vertices(G, om) for om in subsets]
    for a, b in zip(subsets, subsets[1:]):
        if b.size <= a.size or not np.isin(a, b).all():
            raise NotNested(
                "exhaustion subsets must be strictly increasing under inclusion"
            )

    # Each form's potential and connection, as (n, d, d) and (E, d, d) blocks.
    forms = {"scalar": (G.killing[:, None, None], np.ones((len(G.edges), 1, 1))),
             "magnetic": (bundle.endo, bundle.connection)}
    gaps, prefixes = [], []
    for k, omega in enumerate(subsets, start=1):
        members, keep, ends, boundary = _restriction(G, omega)
        row = {"k": k, **dict.fromkeys(forms, 0.0)}
        gaps.append(row)
        prefix = {"k": k}
        prefixes.append(prefix)
        for key, (W, phi) in forms.items():
            d = W.shape[-1]
            cut = np.repeat(boundary, d)
            b = np.flatnonzero(cut)
            prefix[key] = {"N": cut.size, "boundary": b.size, "nnz_lu": 0}
            if not b.size:
                continue  # no edge leaves the subset: both restrictions coincide
            where = f"prefix k={k} ({members.size} vertices), {key} form"
            _check_words(cut.size * b.size, f"{where}: the N x |b| Woodbury panels")
            # The edge-dropping restriction is the form of the inner edges;
            # the boundary-folding one (the host form on zero-extensions) is
            # that plus the boundary weights P on its diagonal. Both
            # resolvents vanish off the members, so the gap of their
            # zero-extensions is that of R = (M^-1/2 L M^-1/2 + alpha)^-1 there.
            A = _form_matrix(members.size, ends, G.weights[keep], W[members], phi[keep])
            scale = 1.0 / np.sqrt(np.repeat(G.measure[members], d))
            A.data *= scale[A.row]
            A.data *= scale[A.col]
            # alpha bounds the spectrum of A + alpha from below. Once it is
            # lost in rounding next to the largest diagonal entry, A + alpha
            # may be singular in floating point.
            diagonal = A.row == A.col
            peak = A.data[diagonal].real.max()
            if not alpha > np.finfo(float).eps * peak:
                raise AlphaInSpectrum(
                    f"{where}: alpha = {alpha} is lost in rounding next to a "
                    f"diagonal entry {peak:.3g} of the edge-dropping block"
                )
            A.data[diagonal] += alpha
            # With X = R_N E_b, T = (P/m)^1/2 on the boundary rows b and
            # Z = X T, the Woodbury identity gives
            # R_N - R_D = Z (I + T X[b] T)^-1 Z*, where nothing cancels, so
            # its norm is the top eigenvalue of the |b| x |b| pencil
            # (Z* Z, I + T X[b] T). The unit columns E_b are built in the
            # factor's type and order, so that the solve casts nothing.
            A = A.tocsc()
            try:
                factor = _factor(A, alpha, where)
                unit = np.zeros((cut.size, b.size), A.dtype, order="F")
                unit[b, np.arange(b.size)] = 1.0
                X = factor.solve(unit)
            except MemoryError as exc:
                raise SchemaError(f"{where}: the sparse factor and its "
                                  "panels do not fit in memory") from exc
            prefix[key]["nnz_lu"] = factor.nnz
            del A, factor, unit
            t = np.sqrt(cut[b]) * scale[b]
            pencil = t[:, None] * X[b] * t + np.eye(b.size)
            X *= t  # Z, in place
            gram = _gemm(X, X, trans_a=2)
            del X
            top = eigh(gram, pencil, eigvals_only=True, overwrite_a=True,
                       overwrite_b=True, subset_by_index=[b.size - 1] * 2)
            row[key] = float(top[0])

    _, labels = connected_components(
        csr_matrix((G.weights, tuple(G.edges.T)), shape=(G.n, G.n)), directed=False
    )
    component = labels == labels[0]
    criteria = {"degree_bounded": float(G.weighted_degrees()[component].max())}
    return UniquenessReport(gaps, criteria, {"route": "splu", "prefixes": prefixes})
