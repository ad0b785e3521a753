"""Shared graph and bundle fixtures for the whole test suite."""

from __future__ import annotations

import argparse
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import blas, lapack

from mgl import HermitianBundle, WeightedGraph
from mgl.cli import build_parser


@dataclass(frozen=True)
class ConeContext:
    """Carries the graph whose measure defines the l2(m) inner product."""

    graph: WeightedGraph

    def inner(self, u, v):
        """m-weighted inner product of scalar functions, conjugate in v."""
        u = np.asarray(u)
        v = np.asarray(v)
        return np.sum(self.graph.measure * u * np.conj(v))

    def norm(self, u):
        return float(np.sqrt(np.abs(self.inner(u, u))))

    def section_inner(self, u, v):
        """m-weighted inner product of (n, d) sections, conjugate in v."""
        u = np.asarray(u)
        v = np.asarray(v)
        return np.sum(self.graph.measure[:, None] * u * np.conj(v))

    def section_norm(self, u):
        return float(np.sqrt(np.abs(self.section_inner(u, u))))

    def product_inner(self, pair_a, pair_b):
        """Inner product on (section, scalar function) pairs."""
        return self.section_inner(pair_a[0], pair_b[0]) + self.inner(
            pair_a[1], pair_b[1]
        )


def p2():
    return WeightedGraph(2, {(0, 1): 1.0})


def p3():
    return WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0})


def single_vertex(c=2.0):
    return WeightedGraph(1, {}, killing=[c])


def triangle():
    return WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})


def star5():
    return WeightedGraph(5, {(0, k): 1.0 for k in range(1, 5)})


def path8_weighted():
    rng = np.random.default_rng(808)
    edges = {(i, i + 1): 0.2 + rng.random() for i in range(7)}
    return WeightedGraph(8, edges, killing=rng.random(8), measure=0.5 + rng.random(8))


def two_components():
    edges = {(0, 1): 1.0, (1, 2): 0.5, (0, 2): 2.0, (3, 4): 1.5, (4, 5): 0.7}
    return WeightedGraph(6, edges)


def random_graph(n=12, density=0.25, seed=1234, with_killing=True):
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1): 0.1 + rng.random() for i in range(n - 1)}
    for x in range(n):
        for y in range(x + 2, n):
            if rng.random() < density:
                edges[(x, y)] = 0.1 + rng.random()
    killing = rng.random(n) if with_killing else None
    return WeightedGraph(n, edges, killing, 0.5 + rng.random(n))


def fixture_graphs():
    """The graph fixture set exercised by the cross-cutting property tests."""
    return {
        "p2": p2(),
        "p3": p3(),
        "single_c2": single_vertex(2.0),
        "triangle": triangle(),
        "star5": star5(),
        "path8": path8_weighted(),
        "random12": random_graph(),
        "two_components": two_components(),
    }


def zero_killing_graphs():
    return {
        name: g
        for name, g in fixture_graphs().items()
        if not g.killing.any()
    }


def random_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_section(n, d, rng):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


def random_bundle(G, d, rng, psd_scale=0.3):
    """Random unitary connection with endomorphism c*I + PSD noise."""
    conn = {(x, y): random_unitary(d, rng) for x, y in G.edges}
    endo = np.empty((G.n, d, d), dtype=complex)
    for x in range(G.n):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        endo[x] = G.killing[x] * np.eye(d) + psd_scale * (z @ z.conj().T)
    return HermitianBundle(G, d, conn, endo)


def phase_bundle(G, theta):
    """Rank-1 bundle with the constant phase e^{i theta} on every edge."""
    conn = {(x, y): np.array([[np.exp(1j * theta)]]) for x, y in G.edges}
    return HermitianBundle(G, 1, conn)


def diamagnetic_instance(seed, n_max=60, d_max=3, density=0.1):
    """Seeded random graph + bundle satisfying W(x) >= c(x) I pointwise."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    edges = {(i, i + 1): 0.1 + rng.random() for i in range(n - 1)}
    for x in range(n):
        for y in range(x + 2, n):
            if rng.random() < density:
                edges[(x, y)] = 0.1 + rng.random()
    G = WeightedGraph(n, edges, rng.random(n), 0.5 + rng.random(n))
    return G, random_bundle(G, d, rng)


def doubled_pair(seed, n_max=12):
    """Counterexample pair: bundle form over doubled weights vs scalar form.

    Returns (G_doubled, bundle over it, G_original); the bundle form over
    the doubled graph is not dominated by the scalar form of the original.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    edges = {(i, i + 1): 0.1 + rng.random() for i in range(n - 1)}
    for x in range(n):
        for y in range(x + 2, n):
            if rng.random() < 0.2:
                edges[(x, y)] = 0.1 + rng.random()
    m = 0.5 + rng.random(n)
    G = WeightedGraph(n, edges, None, m)
    G2 = WeightedGraph(n, {e: 2 * b for e, b in edges.items()}, None, m)
    return G2, HermitianBundle(G2, 1), G


def path50_graph(q=0.8):
    """Regression fixture: 50-vertex path with geometrically decaying weights.

    A uniform path keeps the Dirichlet/Neumann resolvent gap constant along
    prefix exhaustions (the boundary perturbation has fixed strength), so
    the regression fixture decays the weights to make the gap shrink.
    """
    return WeightedGraph(50, {(i, i + 1): q**i for i in range(49)})


def path50_bundle(G, seed=42):
    rng = np.random.default_rng(seed)
    conn = {
        (x, y): np.array([[np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))]])
        for x, y in G.edges
    }
    return HermitianBundle(G, 1, conn)


# JSON documents for CLI tests.

P2_GRAPH_DOC = {"n": 2, "edges": [{"u": 0, "v": 1, "b": 1.0}]}

P2_ANTIPODAL_BUNDLE_DOC = {
    "rank": 1,
    "connection": [{"u": 0, "v": 1, "matrix": [[[-1.0, 0.0]]]}],
}


def mat_to_doc(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def diamagnetic_docs(seed=11, n=14, d=2):
    """Graph/bundle spec documents for a diamagnetic CLI fixture."""
    rng = np.random.default_rng(seed)
    edges = [
        {"u": i, "v": i + 1, "b": float(0.1 + rng.random())} for i in range(n - 1)
    ]
    killing = [float(v) for v in rng.random(n)]
    measure = [float(v) for v in 0.5 + rng.random(n)]
    graph_doc = {"n": n, "edges": edges, "killing": killing, "measure": measure}

    connection = [
        {"u": e["u"], "v": e["v"], "matrix": mat_to_doc(random_unitary(d, rng))}
        for e in edges
    ]
    endo = []
    for x in range(n):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        endo.append(mat_to_doc(killing[x] * np.eye(d) + 0.3 * (z @ z.conj().T)))
    bundle_doc = {"rank": d, "connection": connection, "endo": endo}
    return graph_doc, bundle_doc


def killing_without_endo_docs(seed=0, n=60, d=3):
    """Spec documents with c > 0 and W = 0, so W(x) >= c(x) I fails.

    A path 0-1-...-(n-1) plus 2n random vertex pairs, weights and measures
    in [0.5, 1.5), killing in [0, 1) and a random unitary on every edge.
    At the vertex with the largest c the coordinate section e_{x,j} gives
    Q_A(e_{x,j}, e_{x,j}) - Q_B(e_x, e_x) = -c(x), so every domination
    level must fail.
    """
    rng = np.random.default_rng(seed)
    pairs = {(x, x + 1) for x in range(n - 1)}
    for x, y in rng.integers(0, n, size=(2 * n, 2)).tolist():
        if x != y:
            pairs.add((min(x, y), max(x, y)))
    edges = [
        {"u": x, "v": y, "b": float(b)}
        for (x, y), b in zip(sorted(pairs), rng.uniform(0.5, 1.5, len(pairs)))
    ]
    graph_doc = {
        "n": n,
        "edges": edges,
        "killing": rng.uniform(0.0, 1.0, n).tolist(),
        "measure": rng.uniform(0.5, 1.5, n).tolist(),
    }
    connection = [
        {"u": e["u"], "v": e["v"], "matrix": mat_to_doc(random_unitary(d, rng))}
        for e in edges
    ]
    return graph_doc, {"rank": d, "connection": connection}


def path_docs(n, seed=0, d=2):
    """Spec documents for the path 0-1-...-(n-1), weights in [0.5, 1.5), no
    killing or endomorphism, and a random unitary on every edge.

    A path is a tree, so the connection gauges away: the bundle form is
    unitarily equivalent to d copies of the scalar one, by a unitary that
    is block diagonal over the vertices.
    """
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, n - 1)
    z = rng.standard_normal((n - 1, d, d)) + 1j * rng.standard_normal((n - 1, d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=1, axis2=2)
    unitaries = q * (phases / np.abs(phases))[:, None, :]
    cells = np.stack([unitaries.real, unitaries.imag], axis=-1).tolist()
    graph_doc = {"n": n, "edges": [{"u": x, "v": x + 1, "b": float(b)}
                                   for x, b in enumerate(weights)]}
    connection = [{"u": x, "v": x + 1, "matrix": matrix}
                  for x, matrix in enumerate(cells)]
    return graph_doc, {"rank": d, "connection": connection}


def lattice_docs(L, rank, flux=0.1):
    """Spec documents for the L x L square lattice, vertex (r, c) at
    r * L + c, with unit weights and measures and no killing or
    endomorphism (W = c = 0). A horizontal edge in row r carries the
    Landau-gauge Peierls phase exp(2 pi i flux r) times I, a vertical edge
    the cyclic shift of the fibre (sigma_x at rank 2, 1 at rank 1), so
    every plaquette has flux `flux`. The prefix of the first r rows has
    boundary columns |b| = L * rank.
    """
    grid = np.arange(L * L).reshape(L, L)
    horizontal = np.stack([grid[:, :-1].ravel(), grid[:, 1:].ravel()], axis=1)
    vertical = np.stack([grid[:-1].ravel(), grid[1:].ravel()], axis=1)
    phases = np.exp(2j * np.pi * flux * (horizontal[:, 0] // L))
    shift = np.roll(np.eye(rank), 1, axis=0)
    matrices = np.concatenate([phases[:, None, None] * np.eye(rank),
                               np.broadcast_to(shift, (len(vertical), rank, rank))])
    pairs = np.concatenate([horizontal, vertical]).tolist()
    cells = np.stack([matrices.real, matrices.imag], axis=-1).tolist()
    graph_doc = {"n": L * L, "edges": [{"u": x, "v": y, "b": 1.0} for x, y in pairs]}
    connection = [{"u": x, "v": y, "matrix": matrix}
                  for (x, y), matrix in zip(pairs, cells)]
    return graph_doc, {"rank": rank, "connection": connection}


def cli_flags():
    """{command: option strings it declares, -h/--help aside}, read from the
    `mgl` parser itself."""
    parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {
        name: [flag for action in sub._actions for flag in action.option_strings
               if flag not in ("-h", "--help")]
        for name, sub in commands.items()
    }


def counting_lapack(monkeypatch, names):
    """Patch each named LAPACK wrapper to record (name, shape of its first
    argument) per call; return the record."""
    calls = []
    for name in names:
        routine = getattr(lapack, name)

        def counting(a, *args, _routine=routine, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _routine(a, *args, **kwargs)

        monkeypatch.setattr(lapack, name, counting)
    return calls


def counting_blas(monkeypatch, names):
    """Patch each named scipy BLAS wrapper to record, per call, (name, shape
    of its operand a, after alpha, and whether every array operand is
    Fortran-contiguous, so that f2py copies none); return the record."""
    calls = []
    for name in names:
        routine = getattr(blas, name)

        def counting(alpha, a, *args, _routine=routine, _name=name, **kwargs):
            arrays = [x for x in (a, *args) if isinstance(x, np.ndarray)]
            fortran = all(x.flags.f_contiguous for x in arrays)
            calls.append((_name, np.shape(a), fortran))
            return _routine(alpha, a, *args, **kwargs)

        monkeypatch.setattr(blas, name, counting)
    return calls


def bench_specs():
    """The benchmark's instance generator, mglbench/specs.py (numpy only)."""
    path = Path(__file__).resolve().parents[1] / "mglbench" / "specs.py"
    spec = importlib.util.spec_from_file_location("bench_specs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
