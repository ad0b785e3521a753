"""Three-level domination verifier: semigroup, resolvent, and form checks.

A bundle form is dominated by a scalar form when the pointwise fiber norm
of anything the bundle semigroup produces stays below what the scalar
semigroup produces from the pointwise norms. The three checks here probe
that statement at the semigroup, resolvent, and form level on parameter
grids and random samples; the theory says the three verdicts must agree,
and the verifier reports worst-case slacks and witnesses either way. Each
check returns its report: the dict {passed, slack, allowance,
witness_vector, witness_param, witness_vertex} that `_verdict` describes.

Deterministic probes are always added to the random samples, because
known violations concentrate there: at each vertex x the section e_x (x) v_x
along the worst fiber direction v_x (the lambda_min eigenvector of
L_A(x,x) - L_B(x,x) I), and for the form level also the phase-aligned pair
across each edge given by the top singular pair of its block of L_A.
The form level checks Re Q_A(f1, f2) >= Q_B(|f1|, |f2|) on aligned pairs
alone, since every section of a finite graph lies in both form domains;
its vertex and edge probes decide that inequality exactly.
"""

from __future__ import annotations

import numpy as np

from .bundles import HermitianBundle, pair
from .errors import DimensionMismatch, SchemaError
from .forms import FormOperator, _gemm, assemble_magnetic_form, assemble_scalar_form
from .graphs import WeightedGraph

DEFAULT_T_GRID = (0.01, 0.1, 1.0, 10.0)
DEFAULT_ALPHA_GRID = (0.5, 1.0, 10.0)
DOMINATION_TOL = 1e-9
# The most columns that the grid verdicts project into eigencoordinates and
# take back to the vertices at once. They take N // 12 where that is fewer
# (at least one), so that their three N-row blocks and the samples fit in
# the N^2 / 2 complex words of dstevd's workspace, freed by then: dominate
# peaks at its eigensystem however many samples and vertices.
VERDICT_BLOCK = 256


def _verdict(passed, slack, allowance, vector=None, param=None, vertex=None) -> dict:
    """The report of one domination check.

    `slack` is the minimum of (dominating side - dominated side) over the
    comparisons, or, when a grid verdict fails, over those that fail; the
    check passes when none fails. `allowance` is what the comparison that
    gives the slack was judged against: it fails when slack < -allowance.
    A witness is recorded only on failure.
    """
    return {"passed": passed, "slack": slack, "allowance": allowance,
            "witness_vector": vector, "witness_param": param,
            "witness_vertex": vertex}


def _check_compatible(A: FormOperator, B: FormOperator):
    if B.d != 1:
        raise DimensionMismatch("the dominating form must be scalar")
    if A.n != B.n:
        raise DimensionMismatch(
            f"vertex counts differ: {A.n} (bundle side) vs {B.n} (scalar side)"
        )


def _sections(A: FormOperator, B: FormOperator, samples, rng) -> np.ndarray:
    """(k, n, d) sample sections: `samples` complex Gaussian draws, or the
    given array, after checking that B can dominate A."""
    _check_compatible(A, B)
    if isinstance(samples, (int, np.integer)):
        rng = np.random.default_rng(rng)
        shape = (int(samples), A.n, A.d)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.asarray(samples, dtype=complex)


def _vertex_section(n: int, d: int, x: int, fiber) -> np.ndarray:
    """The (n, d) section e_x (x) fiber, supported at vertex x."""
    out = np.zeros((n, d), dtype=complex)
    out[x] = fiber
    return out


def _blocks(F: FormOperator, rows, cols) -> np.ndarray:
    """The d x d blocks L(rows[i], cols[i]) of F's form matrix, read from its
    stored entries: a (len(rows), d, d) array."""
    d, j = F.d, np.arange(F.d)
    # Entry (i, a d + b) of these indexes L(rows[i] d + a, cols[i] d + b). Two
    # 2-D index arrays give a sparse array of their shape, even when empty.
    r = np.repeat(rows[:, None] * d + j, d, axis=1)
    c = np.tile(cols[:, None] * d + j, d)
    return F.L[r, c].toarray().reshape(-1, d, d)


def _vertex_probes(A: FormOperator, B: FormOperator):
    """Worst fiber direction at each vertex.

    Returns the (n,) smallest eigenvalues of L_A(x,x) - L_B(x,x) I and (n, d)
    unit eigenvectors v_x for them. Since Q(u, v) = <Lu, v>, the smallest
    eigenvalue is the slack Q_A(f, f) - Q_B(|f|, |f|) of f = e_x (x) v_x, the
    least over all unit sections supported at x.
    """
    v = np.arange(A.n)
    shifted = _blocks(A, v, v) - B.L.diagonal().real[:, None, None] * np.eye(A.d)
    w, vectors = np.linalg.eigh(shifted)
    return w[:, 0], vectors[:, :, 0]


def _edge_probes(A: FormOperator, B: FormOperator, edges):
    """Worst phase-aligned pair across each edge row (x, y).

    With the top singular pair L_A(y,x) v = s w of the block, the pair
    f1 = e_x (x) v, f2 = -e_y (x) w has disjoint supports and
    Re Q_A(f1, f2) - Q_B(|f1|, |f2|) = -L_B(x,y) - ||L_A(x,y)||_2, the least
    over all unit pairs on x and y. Returns the (E,) slacks and the (E, d)
    fiber vectors v of f1.
    """
    x, y = edges.T
    _, s, vh = np.linalg.svd(_blocks(A, y, x))
    return -_blocks(B, y, x)[:, 0, 0].real - s[:, 0], vh[:, 0, :].conj()


def _eigencoordinates(F: FormOperator, cols, fibers, probes: range, blocks):
    """U* M^1/2 u for each column u of an (N, k) batch, then for the sections
    e_x (x) fibers[x] of the vertices x in `probes`, given an (n, d) array of
    fiber vectors: the first k + len(probes) columns of blocks[0], with
    blocks[1] as scratch.

    The samples are scaled into the scratch block and projected by one ?gemm
    into the output. The column of vertex x is m_sqrt(x) U[x d : x d + d]*
    fibers[x], written as d multiplies of strided rows of U.
    """
    U, d, k = F.eigenvectors, F.d, cols.shape[1]
    y, scratch = blocks[0][:, : k + len(probes)], blocks[1]
    vertices = slice(probes.start, probes.stop)
    if k:
        scaled = np.multiply(cols, F.m_sqrt[:, None], out=scratch[:, :k])
        _gemm(U, scaled, trans_a=2, out=y[:, :k])
    # conj(U^T conj(f)) avoids a conjugated copy of U.
    sections = y[:, k:]
    weights = F.m_sqrt[::d][vertices, None] * np.conj(fibers[vertices])
    for j in range(d):
        rows = U[d * probes.start + j : d * probes.stop : d].T
        out = sections if j == 0 else scratch[:, : len(probes)]
        np.multiply(rows, weights[:, j], out=out)
        if j:
            sections += out
    np.conjugate(sections, out=sections)
    return y


def _image(F: FormOperator, scalars, y, blocks):
    """U diag(scalars) y for eigencoordinates y, in blocks[2], with the scaled
    copy of y in blocks[1]: M^-1/2 times it is the spectral image."""
    m = y.shape[1]
    scaled = np.multiply(y, scalars[:, None], out=blocks[1][:, :m])
    return _gemm(F.eigenvectors, scaled, out=blocks[2][:, :m])


def _pointwise_verdict(
    A, B, name, params, samples, rng, tol, multiplier, slope
) -> dict:
    """Shared body of the semigroup- and resolvent-level checks.

    `multiplier(F, p)` is the spectral multiplier of the operator at
    parameter p (named `name` in messages), and `slope(f, p)` its absolute
    slope at the eigenvalues, given its values f. An empty grid checks
    nothing: SchemaError.
    At each p the fiber norms of the A-side image of every sample and of
    every vertex probe e_x (x) v_x are compared with the B-side image of
    their pointwise norms (e_x for the probe). The samples, then the probes,
    are taken a block of columns at a time: each side projects a block
    into eigencoordinates once and takes it back once per parameter, in
    three reused N x w blocks (eigencoordinates, their scaled copy, the
    product) with w = min(VERDICT_BLOCK, N // 12). Of
    equal slacks the first parameter wins, then the least vertex, then the
    least column. A comparison fails only beyond tol plus its rounding
    bound: with delta the eigensolvers' bound on U f(mu) U* summed over both
    sides (FormOperator._rounding_bound), delta |u|_m / m(x)^1/2 at vertex x
    for the column u; tol plus that is the comparison's allowance. A failing
    verdict's slack, allowance and witness are those of the least comparison
    that fails; a passing one reports the plain minimum and its allowance.
    Where no comparison fails but at some p delta reaches max f_B, the B
    side's norm, that p resolves nothing: SchemaError, since a PASS there
    would check nothing. A p whose delta is infinite, where exp(-t mu)
    overflows, is not applied: no comparison could fail there.
    """
    if len(params) == 0:
        raise SchemaError(f"the {name} grid is empty: nothing would be compared")
    n, d = A.n, A.d
    sections = _sections(A, B, samples, rng)
    _, fibers = _vertex_probes(A, B)
    k = len(sections)
    flat = sections.reshape(k, A.dim).T  # (n*d, k), one section per column
    mags = np.linalg.norm(sections, axis=2).T  # (n, k)
    # Rounding may leave an eigenvalue just below 0, where exp(-t mu)
    # overflows at a huge t.
    with np.errstate(over="ignore"):
        scalars = [(multiplier(A, p), multiplier(B, p)) for p in params]
    deltas = [
        A._rounding_bound(fa, slope(fa, p)) + B._rounding_bound(fb, slope(fb, p))
        for (fa, fb), p in zip(scalars, params)
    ]
    # |u|_m of each sample, then of each probe (a unit fiber vector at x).
    squares = _gemm(mags**2, B.measure[:, None], trans_a=1)[:, 0]
    m_norms = np.sqrt(np.concatenate([squares, B.measure]))

    width = max(1, min(VERDICT_BLOCK, A.dim // 12))
    ones = np.ones((n, 1))
    blocks_a, blocks_b = (
        np.split(np.empty((F.dim, 3 * width), np.result_type(F.eigenvectors, c, f),
                          order="F"), 3, axis=1)
        for F, c, f in ((A, flat, fibers), (B, mags, ones))
    )
    best = (np.inf, None, None, None, None)
    failed = False
    for start in range(0, k + n, width):
        cols = slice(start, start + width)
        probes = range(n)[max(start - k, 0) : max(start + width - k, 0)]
        ya = _eigencoordinates(A, flat[:, cols], fibers, probes, blocks_a)
        yb = _eigencoordinates(B, mags[:, cols], ones, probes, blocks_b)
        m = ya.shape[1]
        for i, (fa, fb) in enumerate(scalars):
            if not np.isfinite(deltas[i]):
                continue
            # Fiber norms from the real view of the product: per column, the
            # 2d real parts of each vertex's fiber, squared and summed.
            parts = _image(A, fa, ya, blocks_a).T.view(float).reshape(m, n, -1)
            norms = np.square(parts, out=parts).sum(axis=2)
            np.sqrt(norms, out=norms)
            norms *= A.m_isqrt[::d]
            slack = _image(B, fb, yb, blocks_b).real
            slack *= B.m_isqrt[:, None]
            slack -= norms.T
            # A bound on U f(mu) U* reaches vertex x of the column u times
            # m(x)^-1/2 |u|_m. The norms are spent: their array takes it.
            bound = np.multiply(B.m_isqrt[:, None], m_norms[start : start + m],
                                out=norms.T)
            bound *= -deltas[i]
            bound -= tol
            beyond = slack < bound
            if beyond.any() and not failed:
                failed, best = True, (np.inf, None, None, None, None)
            if failed:
                slack[~beyond] = np.inf
            x, j = np.unravel_index(np.argmin(slack), slack.shape)
            best = min(best, (float(slack[x, j]), i, int(x), start + int(j),
                              -float(bound[x, j])))
    slack, i, vertex, column, allowance = best
    if not failed:
        for p, (_, fb), delta in zip(params, scalars, deltas):
            if delta >= fb.max():
                raise SchemaError(
                    f"{name} = {p:g} resolves nothing: the eigensolvers' rounding "
                    f"allowance {delta:.3g} reaches max f_B = {fb.max():.3g}"
                )
        return _verdict(True, slack, allowance)
    if column < k:
        section = sections[column].copy()
    else:
        section = _vertex_section(n, d, column - k, fibers[column - k])
    return _verdict(False, slack, allowance, section, float(params[i]), vertex)


def check_semigroup_domination(
    A: FormOperator,
    B: FormOperator,
    t_list=DEFAULT_T_GRID,
    samples=100,
    rng=None,
    tol: float = DOMINATION_TOL,
) -> dict:
    """Pointwise check |e^{-tA}u|(x) <= (e^{-tB}|u|)(x) over grids and samples."""
    return _pointwise_verdict(
        A, B, "t", t_list, samples, rng, tol, FormOperator._semigroup_multiplier,
        lambda f, t: t * f,
    )


def check_resolvent_domination(
    A: FormOperator,
    B: FormOperator,
    alpha_list=DEFAULT_ALPHA_GRID,
    samples=100,
    rng=None,
    tol: float = DOMINATION_TOL,
) -> dict:
    """Pointwise check |(A+a)^-1 u|(x) <= ((B+a)^-1 |u|)(x) over grids and samples."""
    return _pointwise_verdict(
        A, B, "alpha", alpha_list, samples, rng, tol,
        FormOperator._resolvent_multiplier,
        lambda f, alpha: f * f,
    )


def check_form_domination(
    A: FormOperator,
    B: FormOperator,
    bundle: HermitianBundle,
    samples=100,
    rng=None,
    tol: float = DOMINATION_TOL,
) -> dict:
    """Form-level check Re Q_A(f1, f2) >= Q_B(|f1|, |f2|) on phase-aligned pairs.

    The slack is one minimum over three sets of pairs: each sample u with
    its phase-aligned section of a random magnitude g, the worst disjointly
    supported pair across every edge, and the worst section at every vertex
    paired with itself.
    """
    rng = np.random.default_rng(rng)
    sections = _sections(A, B, samples, rng)
    k, n, d = len(sections), A.n, A.d
    mags = np.linalg.norm(sections, axis=2)
    g = np.abs(rng.standard_normal((k, n)))
    aligned = np.array([pair(u, gj, bundle) for u, gj in zip(sections, g)])
    sample_slack = (
        A.evaluate(sections.reshape(k, A.dim).T, aligned.reshape(k, A.dim).T).real
        - B.evaluate(mags.T, g.T).real
    )
    edges = bundle.graph.edges
    edge_slack, edge_fibers = _edge_probes(A, B, edges)
    vertex_slack, vertex_fibers = _vertex_probes(A, B)

    slacks = np.concatenate([sample_slack, edge_slack, vertex_slack])
    j = int(np.argmin(slacks))
    slack = float(slacks[j])
    if slack >= -tol:
        return _verdict(True, slack, tol)
    if j < k:
        return _verdict(False, slack, tol, sections[j].copy())
    j -= k
    if j < len(edges):
        x, y = edges[j].tolist()
        return _verdict(False, slack, tol, _vertex_section(n, d, x, edge_fibers[j]),
                        None, y)
    j -= len(edges)
    return _verdict(False, slack, tol, _vertex_section(n, d, j, vertex_fibers[j]),
                    None, j)


def hypothesis_margins(G: WeightedGraph, bundle: HermitianBundle) -> np.ndarray:
    """Per-vertex min eigenvalue of the Hermitian part of W(x) - c(x) I."""
    w = bundle.endo - G.killing[:, None, None] * np.eye(bundle.rank)
    return np.linalg.eigvalsh((w + w.conj().transpose(0, 2, 1)) / 2)[:, 0]


def diamagnetic_report(
    G: WeightedGraph,
    bundle: HermitianBundle,
    t_list=DEFAULT_T_GRID,
    alpha_list=DEFAULT_ALPHA_GRID,
    samples: int = 100,
    seed: int = 42,
    tol: float = DOMINATION_TOL,
) -> dict:
    """Run the hypothesis check and all three domination checks: the
    `dominate` report.

    On a finite graph the hypothesis <W(x)v, v> >= c(x)|v|^2 per vertex is
    necessary and sufficient for the bundle form to be dominated by the
    scalar form. So the report is `consistent` when the form verdict equals
    the hypothesis verdict and a passing hypothesis comes with passing grid
    verdicts. A failing hypothesis forbids domination at some t or alpha,
    not at every one, so a grid verdict may still pass next to it.
    `verdicts_agree` tells whether the three verdicts are the same. The
    margins, the per-vertex min eigenvalues of W(x) - c(x) I, are judged
    with the verdicts' `tol`; they equal the form level's vertex probe
    slacks.
    """
    margins = hypothesis_margins(G, bundle)
    hyp_ok = bool((margins >= -tol).all())

    A = assemble_magnetic_form(G, bundle)
    B = assemble_scalar_form(G)
    rng = np.random.default_rng(seed)
    sem = check_semigroup_domination(A, B, t_list, samples, rng, tol)
    res = check_resolvent_domination(A, B, alpha_list, samples, rng, tol)
    frm = check_form_domination(A, B, bundle, samples, rng, tol)
    grid = res["passed"] and sem["passed"]
    return {
        "hypothesis": {"passed": hyp_ok, "margins": margins,
                       "min_margin": float(margins.min())},
        "form": frm,
        "resolvent": res,
        "semigroup": sem,
        "consistent": frm["passed"] == hyp_ok and (grid or not hyp_ok),
        "verdicts_agree": len({frm["passed"], res["passed"], sem["passed"]}) == 1,
        "metadata": {
            "seed": seed,
            "t_grid": list(t_list),
            "alpha_grid": list(alpha_list),
            "samples": samples,
            "tolerance": tol,
        },
    }
