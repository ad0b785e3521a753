"""Hermitian vector bundles over a weighted graph.

A bundle of rank d attaches the fiber C^d to every vertex, a unitary
connection matrix to every edge with positive weight, and a positive
endomorphism W(x) to every vertex. Sections are (n, d) complex arrays.
The connection is an (E, d, d) array on the edge order of the graph,
holding Phi_{x,y} for the stored orientation x < y; the reverse
direction is the adjoint.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import DimensionMismatch, InvariantError, NegativeG, SchemaError
from .graphs import (
    MAGNITUDE_BOUND,
    WeightedGraph,
    _align_pairs,
    _check_dense_size,
    _check_magnitude,
    _check_words,
    _integers,
    _numbers,
    _pair_entries,
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
        if not _integers([rank]) or rank <= 0:
            raise DimensionMismatch(f"rank must be a positive integer, got {rank!r}")
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
            connection = dict(connection or {})
            shapes = set(map(np.shape, connection.values())) - {(rank, rank)}
            if shapes:
                raise DimensionMismatch(
                    f"connection matrices have shapes {sorted(shapes)}, "
                    f"expected ({rank},{rank})")
            mats = np.array(list(connection.values()), complex).reshape(-1, rank, rank)
            rows, flipped, conflict = _align_pairs(
                graph.n, list(connection), mats, graph, _adjoint, DimensionMismatch,
                "connection")
            if conflict is not None:
                x, y = graph.edges[rows[conflict]]
                raise InvariantError(
                    f"conflicting connection for edge ({x}, {y}): Phi_(y,x) given "
                    "in both orientations is not the adjoint of Phi_(x,y)"
                )
            conn = _connection_array(graph, rank, rows, flipped, mats)
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
        row = self.graph._edge_row(x, y)
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


def _max_entry(batch):
    """Largest absolute entry of each matrix in a (k, d, d) batch."""
    return np.abs(batch).max(axis=(1, 2), initial=0.0)


def _adjoint(batch):
    return batch.conj().transpose(0, 2, 1)


def validate_bundle(B: HermitianBundle) -> dict:
    """Diagnose unitarity of the connection and positivity of the endomorphism.

    Returns the `bundle` section of the `validate` report, failing rather
    than raising: `ok`; the `rank`; the edge (x, y) whose defect
    ||Phi* Phi - I||_max is largest as `worst_edge`, with that defect as
    `worst_unitarity_defect` (None and 0.0 on a graph without edges); the
    least eigenvalue of the Hermitian parts of the W(x) as
    `min_endo_eigenvalue`; and the largest ||W(x) - W(x)*||_max as
    `max_endo_hermiticity_defect`.
    """
    phi = B.connection
    gram = np.einsum("eji,ejk->eik", phi.conj(), phi)
    edge_defects = _max_entry(gram - np.eye(B.rank))
    w = B.endo
    herm_defect = float(_max_entry(w - _adjoint(w)).max())
    min_eig = float(np.linalg.eigvalsh((w + _adjoint(w)) / 2)[:, 0].min())
    worst = int(np.argmax(edge_defects)) if edge_defects.size else None
    return {
        "ok": bool((edge_defects <= UNITARY_TOL).all() and min_eig >= -ENDO_TOL
                   and herm_defect <= ENDO_TOL),
        "rank": B.rank,
        "worst_unitarity_defect": 0.0 if worst is None else float(edge_defects[worst]),
        "worst_edge": None if worst is None else tuple(B.graph.edges[worst].tolist()),
        "min_endo_eigenvalue": min_eig,
        "max_endo_hermiticity_defect": herm_defect,
    }


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


def restrict_bundle(B: HermitianBundle, omega, fold_boundary: bool = False):
    """Restrict a bundle to a vertex subset of its graph.

    With fold_boundary=True the weights of edges leaving the subset are
    added (times the identity) to the endomorphism, which is what makes the
    restricted magnetic form agree with the host form on zero-extensions.
    """
    members, keep, _, boundary = _restriction(B.graph, omega)
    endo = B.endo[members]
    if fold_boundary:
        endo = endo + boundary[:, None, None] * np.eye(B.rank)
    sub = restrict_neumann(B.graph, members)
    return HermitianBundle(sub, B.rank, B.connection[keep], endo)


def _connection_array(graph, rank, rows, flipped, mats):
    """The (E, d, d) connection: mats, oriented x < y, at rows; I elsewhere."""
    conn = np.tile(np.eye(rank, dtype=complex), (len(graph.edges), 1, 1))
    conn[rows] = np.where(flipped[:, None, None], _adjoint(mats), mats)
    return conn


def _matrix_stack(raws, rank):
    """The complex (k, rank, rank) stack of k matrices of [re, im] cells, by
    one numpy conversion, and None; or None and why it is not one."""
    try:
        rows = list(chain.from_iterable(raws))
        cells = list(chain.from_iterable(rows))
        # complex(re, im) stores re and im as they are: a view of the pairs.
        mats = _numbers(list(chain.from_iterable(cells)), "cells").view(complex)
    except (TypeError, ValueError, SchemaError):
        mats = None
    if mats is None or set(map(len, cells)) - {2}:
        return None, "entries must be [re, im] float pairs"
    if (set(map(len, raws)) | set(map(len, rows))) - {rank}:
        return None, f"matrix must be {rank}x{rank}"
    return mats.reshape(-1, rank, rank), None


def _parse_matrices(raws, rank, what):
    """_matrix_stack of the k matrices `raws`; if that fails, SchemaError
    naming the first of them that fails alone."""
    mats, _ = _matrix_stack(raws, rank)
    for i, raw in enumerate(raws if mats is None else ()):
        why = _matrix_stack([raw], rank)[1]
        if why:
            raise SchemaError(f"{what} #{i}: {why}")
    return mats


def load_bundle(graph: WeightedGraph, source, dense: bool = False) -> HermitianBundle:
    """Build a HermitianBundle from a bundle-spec JSON document.

    Format::

        {"rank": int,
         "connection": [{"u": int, "v": int, "matrix": [[[re, im], ...], ...]}],
         "endo": [matrix; n]}

    Omitted connection entries default to the identity; an omitted endo
    field defaults to zero matrices. Complex entries are [re, im] pairs of
    numbers (not booleans), and a connection entry has exactly the keys u,
    v and matrix. Each edge takes at most one entry, in either orientation;
    (v, u) stores the adjoint of the matrix at the edge (u, v). As soon as
    the rank is read, and before any block is built, the (n + 2E) d^2
    entries of the bundle's form matrix must fit in DENSE_DIM_BOUND^2 words
    and, with `dense`, n * d in DENSE_DIM_BOUND. Every malformed document,
    non-edge and repeated edge is a SchemaError.
    """
    doc = _read_spec(source, "bundle spec", ("rank", "connection", "endo"))
    rank = doc.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank <= 0:
        raise SchemaError("bundle spec requires a positive integer 'rank'")
    if dense:
        _check_dense_size(graph.n, rank)
    _check_words((graph.n + 2 * len(graph.edges)) * rank * rank,
                 "the form-matrix blocks")

    pairs, raws = _pair_entries(doc, "connection", "matrix", "connection")
    mats = _parse_matrices(raws, rank, "connection")
    # A unitary has entries of modulus at most 1; larger ones (or NaN)
    # overflow in the unitarity defect.
    for i in np.flatnonzero(~(np.abs(mats) <= MAGNITUDE_BOUND).all(axis=(1, 2)))[:1]:
        raise SchemaError(f"connection #{i}: matrix entries must be finite and at most "
                          f"{MAGNITUDE_BOUND:.0e} in modulus")
    rows, flipped, _ = _align_pairs(graph.n, pairs, mats, graph, _adjoint, SchemaError,
                                    "connection")
    for x, y in graph.edges[np.bincount(rows, minlength=len(graph.edges)) > 1][:1]:
        raise SchemaError(f"duplicate connection for edge ({x}, {y})")

    endo = None
    if "endo" in doc:
        raw_endo = doc["endo"]
        if not isinstance(raw_endo, list) or len(raw_endo) != graph.n:
            raise SchemaError(f"'endo' must be a list of length n={graph.n}")
        endo = _parse_matrices(raw_endo, rank, "endo")
        with np.errstate(over="ignore"):  # inf is refused like any excess
            _check_magnitude(_max_entry(endo) / graph.measure, "|W(x)|/m(x)")

    return HermitianBundle(
        graph, rank, _connection_array(graph, rank, rows, flipped, mats), endo
    )
