"""Hermitian vector bundles over a weighted graph.

A bundle of rank d attaches the fiber C^d to every vertex, a unitary
connection matrix to every edge with positive weight, and a positive
endomorphism W(x) to every vertex. Sections are (n, d) complex arrays.
The connection is an (E, d, d) array on the edge order of the graph,
holding Phi_{x,y} for the stored orientation x < y; the reverse
direction is the adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativeG, SchemaError
from .graphs import (
    MAGNITUDE_BOUND,
    WeightedGraph,
    _check_dense_size,
    _check_magnitude,
    _read_spec,
    _restriction,
    restrict_neumann,
)

UNITARY_TOL = 1e-10
ENDO_TOL = 1e-10


class HermitianBundle:
    """Rank-d Hermitian bundle: unitary edge maps plus vertex endomorphisms.

    `connection` is either a mapping {(x, y): Phi_{x,y}} over edges, in
    either orientation (the reverse orientation is stored as the adjoint),
    or an (E, d, d) array aligned with `graph.edges`. It is stored as that
    array, with the identity on every edge the mapping omits.
    """

    __slots__ = ("graph", "rank", "connection", "endo")

    def __init__(self, graph: WeightedGraph, rank: int, connection=None, endo=None):
        if rank <= 0:
            raise DimensionMismatch(f"rank must be positive, got {rank}")
        self.graph = graph
        self.rank = int(rank)
        shape = (len(graph.edges), rank, rank)

        if isinstance(connection, np.ndarray):
            conn = connection.astype(complex)
            if conn.shape != shape:
                raise DimensionMismatch(
                    f"connection array has shape {conn.shape}, expected {shape}"
                )
        else:
            conn = np.tile(np.eye(rank, dtype=complex), (len(graph.edges), 1, 1))
            items = list(dict(connection or {}).items())
            pairs = np.array([key for key, _ in items], dtype=int).reshape(-1, 2)
            rows = graph._edge_index(pairs[:, 0], pairs[:, 1])
            for ((x, y), mat), row in zip(items, rows):
                x, y = int(x), int(y)
                key = (x, y) if x < y else (y, x)
                if row < 0:
                    raise DimensionMismatch(
                        f"connection given on non-edge {key} (b=0 there)"
                    )
                mat = np.asarray(mat, dtype=complex)
                if mat.shape != (rank, rank):
                    raise DimensionMismatch(
                        f"connection matrix at edge {key} has shape {mat.shape}, "
                        f"expected ({rank},{rank})"
                    )
                conn[row] = mat if x < y else mat.conj().T
        conn.setflags(write=False)
        self.connection = conn

        if endo is None:
            endo = np.zeros((graph.n, rank, rank), dtype=complex)
        else:
            endo = np.asarray(endo, dtype=complex).copy()
            if endo.shape != (graph.n, rank, rank):
                raise DimensionMismatch(
                    f"endo field has shape {endo.shape}, expected "
                    f"({graph.n},{rank},{rank})"
                )
        endo.setflags(write=False)
        self.endo = endo

    def phi(self, x, y):
        """Connection matrix mapping the fiber at y into the fiber at x."""
        row = self.graph._edge_index(x, y)
        if row < 0:
            return np.eye(self.rank, dtype=complex)
        mat = self.connection[row]
        return mat if x < y else mat.conj().T

    def check_section(self, u):
        u = np.asarray(u, dtype=complex)
        if u.shape != (self.graph.n, self.rank):
            raise DimensionMismatch(
                f"section has shape {u.shape}, expected ({self.graph.n},{self.rank})"
            )
        return u

    def __repr__(self):
        return f"HermitianBundle(n={self.graph.n}, rank={self.rank})"


def trivial_bundle(graph: WeightedGraph, rank: int = 1) -> HermitianBundle:
    """Identity connection, zero endomorphism."""
    return HermitianBundle(graph, rank)


@dataclass(frozen=True)
class BundleValidation:
    """Per-edge unitarity defects and per-vertex endomorphism diagnostics."""

    ok: bool
    edges: np.ndarray           # (E, 2) rows of the graph the defects refer to
    edge_defects: np.ndarray    # (E,) ||Phi* Phi - I||_max per edge row
    endo_min_eigs: np.ndarray   # min eigenvalue of the Hermitian part of W(x)
    endo_herm_defects: np.ndarray  # ||W(x) - W(x)*||_max

    def worst_edge(self):
        if not self.edge_defects.size:
            return None, 0.0
        row = int(np.argmax(self.edge_defects))
        x, y = self.edges[row].tolist()
        return (x, y), float(self.edge_defects[row])


def _max_entry(batch):
    """Largest absolute entry of each matrix in a (k, d, d) batch."""
    return np.abs(batch).max(axis=(1, 2), initial=0.0)


def _adjoint(batch):
    return batch.conj().transpose(0, 2, 1)


def validate_bundle(B: HermitianBundle) -> BundleValidation:
    """Diagnose unitarity of the connection and positivity of the endomorphism.

    Returns a failing report rather than raising, so callers can print the
    per-edge and per-vertex defects.
    """
    phi = B.connection
    gram = np.einsum("eji,ejk->eik", phi.conj(), phi)
    edge_defects = _max_entry(gram - np.eye(B.rank))
    w = B.endo
    herm_defects = _max_entry(w - _adjoint(w))
    min_eigs = np.linalg.eigvalsh((w + _adjoint(w)) / 2)[:, 0]
    ok = (
        (edge_defects <= UNITARY_TOL).all()
        and (min_eigs >= -ENDO_TOL).all()
        and (herm_defects <= ENDO_TOL).all()
    )
    return BundleValidation(
        bool(ok), B.graph.edges, edge_defects, min_eigs, herm_defects
    )


def symmetrize(u, B: HermitianBundle) -> np.ndarray:
    """Pointwise fiber norm of a section: (Su)(x) = |u(x)|.

    Preserves the l2(m) norm: ||Su||_m equals the section norm of u.
    """
    u = B.check_section(u)
    return np.linalg.norm(u, axis=1)


def pair(f1, g, B: HermitianBundle) -> np.ndarray:
    """The section with magnitude g phase-aligned to f1.

    Blockwise g(x) * f1(x)/|f1(x)|; where f1 vanishes the direction falls
    back to the first standard basis vector of the fiber, so the result
    always satisfies S(result) = g and <f1, result> = <S f1, g>.
    """
    f1 = B.check_section(f1)
    g = np.asarray(g, dtype=float)
    if g.shape != (B.graph.n,):
        raise DimensionMismatch(f"g has shape {g.shape}, expected ({B.graph.n},)")
    if (g < 0).any():
        worst = int(np.argmin(g))
        raise NegativeG(f"g must be nonnegative; g({worst}) = {g[worst]}")

    norms = np.linalg.norm(f1, axis=1)
    out = np.zeros_like(f1)
    nz = norms > 0
    out[nz] = (g[nz] / norms[nz])[:, None] * f1[nz]
    out[~nz, 0] = g[~nz]
    return out


@dataclass(frozen=True)
class PairedCheck:
    ok: bool
    worst_vertex: int
    worst_defect: float


def check_paired(f1, f2, tol: float = 1e-10) -> PairedCheck:
    """Check the pointwise phase-alignment condition <f1(x), f2(x)> = |f1(x)||f2(x)|.

    The defect at x is |f1(x)||f2(x)| - Re<f1(x), f2(x)>, which is nonnegative
    by Cauchy-Schwarz and zero exactly on paired sections.
    """
    f1 = np.asarray(f1, dtype=complex)
    f2 = np.asarray(f2, dtype=complex)
    if f1.shape != f2.shape or f1.ndim != 2:
        raise DimensionMismatch(f"sections have shapes {f1.shape} vs {f2.shape}")
    inner = np.einsum("xj,xj->x", f1, f2.conj())
    prods = np.linalg.norm(f1, axis=1) * np.linalg.norm(f2, axis=1)
    defects = prods - inner.real
    worst = int(np.argmax(defects))
    return PairedCheck(bool(defects[worst] <= tol), worst, float(defects[worst]))


def restrict_bundle(B: HermitianBundle, omega, fold_boundary: bool = False):
    """Restrict a bundle to a vertex subset of its graph.

    With fold_boundary=True the weights of edges leaving the subset are
    added (times the identity) to the endomorphism, which is what makes the
    restricted magnetic form agree with the host form on zero-extensions.
    """
    omega, keep, _, boundary = _restriction(B.graph, omega)
    endo = B.endo[omega.members]
    if fold_boundary:
        endo = endo + boundary[:, None, None] * np.eye(B.rank)
    sub = restrict_neumann(B.graph, omega)
    return HermitianBundle(sub, B.rank, B.connection[keep], endo)


def load_bundle(graph: WeightedGraph, source) -> HermitianBundle:
    """Build a HermitianBundle from a bundle-spec JSON document.

    Format::

        {"rank": int,
         "connection": [{"u": int, "v": int, "matrix": [[[re, im], ...], ...]}],
         "endo": [matrix; n]}

    Omitted connection entries default to the identity; an omitted endo
    field defaults to zero matrices. Complex entries are [re, im] pairs.
    """
    doc = _read_spec(source, "bundle spec", ("rank", "connection", "endo"))
    rank = doc.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank <= 0:
        raise SchemaError("bundle spec requires a positive integer 'rank'")
    _check_dense_size(graph.n, rank)

    def parse_matrix(raw, where):
        try:
            mat = np.asarray(
                [[complex(cell[0], cell[1]) for cell in row] for row in raw]
            )
        except (TypeError, IndexError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{where}: entries must be [re, im] float pairs") from exc
        if mat.shape != (rank, rank):
            raise SchemaError(f"{where}: matrix must be {rank}x{rank}")
        return mat

    connection = {}
    raw_conn = doc.get("connection", [])
    if not isinstance(raw_conn, list):
        raise SchemaError("'connection' must be a list")
    for i, entry in enumerate(raw_conn):
        if not isinstance(entry, dict) or not {"u", "v", "matrix"} <= set(entry):
            raise SchemaError(f"connection #{i} must have keys u, v, matrix")
        u, v = entry["u"], entry["v"]
        if not isinstance(u, int) or not isinstance(v, int):
            raise SchemaError(f"connection #{i}: u and v must be integers")
        if (u, v) in connection or (v, u) in connection:
            edge = (min(u, v), max(u, v))
            raise SchemaError(f"duplicate connection for edge {edge}")
        mat = parse_matrix(entry["matrix"], f"connection #{i}")
        # A unitary has entries of modulus at most 1; larger ones (or NaN)
        # overflow in the unitarity defect.
        if not (np.abs(mat) <= MAGNITUDE_BOUND).all():
            raise SchemaError(
                f"connection #{i}: matrix entries must be finite and at most "
                f"{MAGNITUDE_BOUND:.0e} in modulus"
            )
        connection[(u, v)] = mat

    endo = None
    if "endo" in doc:
        raw_endo = doc["endo"]
        if not isinstance(raw_endo, list) or len(raw_endo) != graph.n:
            raise SchemaError(f"'endo' must be a list of length n={graph.n}")
        endo = np.stack(
            [parse_matrix(raw, f"endo #{x}") for x, raw in enumerate(raw_endo)]
        )
        _check_magnitude(_max_entry(endo) / graph.measure, "|W(x)|/m(x)")

    try:
        return HermitianBundle(graph, rank, connection, endo)
    except DimensionMismatch as exc:
        raise SchemaError(str(exc)) from exc
