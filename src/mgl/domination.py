"""Three-level domination verifier: semigroup, resolvent, and form checks.

A bundle form is dominated by a scalar form when the pointwise fiber norm
of anything the bundle semigroup produces stays below what the scalar
semigroup produces from the pointwise norms. The three checks here probe
that statement at the semigroup, resolvent, and form level on parameter
grids and random samples; the theory says the three verdicts must agree,
and the verifier reports worst-case slacks and witnesses either way.

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

from dataclasses import dataclass

import numpy as np

from .bundles import HermitianBundle, pair
from .errors import DimensionMismatch
from .forms import FormOperator, assemble_magnetic_form, assemble_scalar_form
from .graphs import WeightedGraph

DEFAULT_T_GRID = (0.01, 0.1, 1.0, 10.0)
DEFAULT_ALPHA_GRID = (0.5, 1.0, 10.0)
DOMINATION_TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of one domination check.

    `slack` is the minimum of (dominating side - dominated side) over all
    sampled comparisons; the check passes when it stays above -tolerance.
    A witness is recorded only on failure.
    """

    passed: bool
    slack: float
    witness_vector: np.ndarray | None = None
    witness_param: float | None = None
    witness_vertex: int | None = None

    def to_report(self) -> dict:
        return {
            "passed": self.passed,
            "slack": self.slack,
            "witness_vertex": self.witness_vertex,
            "witness_param": self.witness_param,
            "witness_vector": None
            if self.witness_vector is None
            else np.asarray(self.witness_vector),
        }


def _as_rng(rng) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


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
        rng = _as_rng(rng)
        shape = (int(samples), A.n, A.d)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.asarray(samples, dtype=complex)


def _vertex_section(n: int, d: int, x: int, fiber) -> np.ndarray:
    """The (n, d) section e_x (x) fiber, supported at vertex x."""
    out = np.zeros((n, d), dtype=complex)
    out[x] = fiber
    return out


def _vertex_probes(A: FormOperator, B: FormOperator):
    """Worst fiber direction at each vertex.

    Returns the (n,) smallest eigenvalues of L_A(x,x) - L_B(x,x) I and (n, d)
    unit eigenvectors v_x for them. Since Q(u, v) = <Lu, v>, the smallest
    eigenvalue is the slack Q_A(f, f) - Q_B(|f|, |f|) of f = e_x (x) v_x, the
    least over all unit sections supported at x.
    """
    v = np.arange(A.n)
    blocks = A.L.reshape(A.n, A.d, A.n, A.d)[v, :, v, :]
    shifted = blocks - np.diagonal(B.L).real[:, None, None] * np.eye(A.d)
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
    blocks = A.L.reshape(A.n, A.d, A.n, A.d)[y, :, x, :]
    _, s, vh = np.linalg.svd(blocks)
    return -B.L[y, x].real - s[:, 0], vh[:, 0, :].conj()


def _pointwise_verdict(A, B, params, samples, rng, tol, multiplier) -> Verdict:
    """Shared body of the semigroup- and resolvent-level checks.

    `multiplier(F, p)` is the spectral multiplier of the operator at
    parameter p, or None where that operator is exactly the identity. At
    each p the fiber norms of the A-side image of every sample and of every
    vertex probe e_x (x) v_x are compared with the B-side image of their
    pointwise norms (e_x for the probe). Each side projects its columns into
    eigencoordinates once, so a parameter costs one back-transform per side.
    """
    n, d = A.n, A.d
    sections = _sections(A, B, samples, rng)
    _, fibers = _vertex_probes(A, B)
    k = len(sections)
    flat = sections.reshape(k, A.dim).T  # (n*d, k), one section per column
    mags = np.linalg.norm(sections, axis=2).T  # (n, k)
    ya = np.concatenate(
        [A._eigencoordinates(flat), A._section_eigencoordinates(fibers)], axis=1
    )
    yb = np.concatenate(
        [B._eigencoordinates(mags), B._section_eigencoordinates(np.ones((n, 1)))],
        axis=1,
    )

    best = np.inf
    witness = (None, None, None)
    for p in params:
        fa, fb = multiplier(A, p), multiplier(B, p)
        if fa is None:
            # The identity compares the sections themselves; each vertex
            # probe, with its unit fiber vector, then has slack 0.
            lhs = np.linalg.norm(flat.reshape(n, d, k), axis=1)
            slack = np.concatenate([mags - lhs, np.zeros((n, n))], axis=1)
        else:
            lhs = np.linalg.norm(
                A._from_eigencoordinates(fa, ya).reshape(n, d, -1), axis=1
            )
            slack = B._from_eigencoordinates(fb, yb).real - lhs
        idx = np.unravel_index(np.argmin(slack), slack.shape)
        if slack[idx] < best:
            best = float(slack[idx])
            witness = (int(idx[1]), float(p), int(idx[0]))
    if best >= -tol:
        return Verdict(True, best)
    column, param, vertex = witness
    if column < k:
        section = sections[column].copy()
    else:
        section = _vertex_section(n, d, column - k, fibers[column - k])
    return Verdict(False, best, section, param, vertex)


def check_semigroup_domination(
    A: FormOperator,
    B: FormOperator,
    t_list=DEFAULT_T_GRID,
    samples=100,
    rng=None,
    tol: float = DOMINATION_TOL,
) -> Verdict:
    """Pointwise check |e^{-tA}u|(x) <= (e^{-tB}|u|)(x) over grids and samples."""
    return _pointwise_verdict(
        A, B, t_list, samples, rng, tol, FormOperator._semigroup_multiplier
    )


def check_resolvent_domination(
    A: FormOperator,
    B: FormOperator,
    alpha_list=DEFAULT_ALPHA_GRID,
    samples=100,
    rng=None,
    tol: float = DOMINATION_TOL,
) -> Verdict:
    """Pointwise check |(A+a)^-1 u|(x) <= ((B+a)^-1 |u|)(x) over grids and samples."""
    return _pointwise_verdict(
        A, B, alpha_list, samples, rng, tol, FormOperator._resolvent_multiplier
    )


def check_form_domination(
    A: FormOperator,
    B: FormOperator,
    bundle: HermitianBundle,
    samples=100,
    rng=None,
    tol: float = DOMINATION_TOL,
) -> Verdict:
    """Form-level check Re Q_A(f1, f2) >= Q_B(|f1|, |f2|) on phase-aligned pairs.

    The slack is one minimum over three sets of pairs: each sample u with
    its phase-aligned section of a random magnitude g, the worst disjointly
    supported pair across every edge, and the worst section at every vertex
    paired with itself.
    """
    rng = _as_rng(rng)
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
        return Verdict(True, slack)
    if j < k:
        return Verdict(False, slack, sections[j])
    j -= k
    if j < len(edges):
        x, y = edges[j].tolist()
        return Verdict(False, slack, _vertex_section(n, d, x, edge_fibers[j]), None, y)
    j -= len(edges)
    return Verdict(False, slack, _vertex_section(n, d, j, vertex_fibers[j]), None, j)


def sgn_inequality_check(d: int, trials: int, rng=None) -> float:
    """Worst slack of the radial-rescaling inequality on random fiber pairs.

    For a, b in C^d and 0 <= alpha <= |a|, 0 <= beta <= |b|, the rescaled
    vectors a~ = alpha a/|a| (zero if a = 0) and b~ analogously satisfy
    |a~ - b~|^2 <= |alpha - beta|^2 + |a - b|^2. Returns the minimum of
    (right side - left side); nonnegative up to rounding when the
    inequality holds. Zero-vector branches are included in the sampling.
    """
    if trials < 1:
        raise DimensionMismatch("trials must be >= 1")
    rng = _as_rng(rng)
    worst = np.inf
    for k in range(trials):
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        if k % 7 == 3:
            a = np.zeros(d, dtype=complex)
        if k % 11 == 5:
            b = np.zeros(d, dtype=complex)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        alpha = rng.random() * na
        beta = rng.random() * nb
        ta = (alpha / na) * a if na > 0 else np.zeros(d, dtype=complex)
        tb = (beta / nb) * b if nb > 0 else np.zeros(d, dtype=complex)
        lhs = np.linalg.norm(ta - tb) ** 2
        rhs = (alpha - beta) ** 2 + np.linalg.norm(a - b) ** 2
        worst = min(worst, float(rhs - lhs))
    return worst


@dataclass(frozen=True)
class DominationReport:
    """Joint outcome of the hypothesis check and the three-level verifier."""

    hypothesis_ok: bool
    hypothesis_margins: np.ndarray  # min eig of W(x) - c(x) I per vertex
    form: Verdict
    resolvent: Verdict
    semigroup: Verdict
    metadata: dict

    @property
    def verdicts_agree(self) -> bool:
        outcomes = {self.form.passed, self.resolvent.passed, self.semigroup.passed}
        return len(outcomes) == 1

    @property
    def consistent(self) -> bool:
        """The form verdict equals the hypothesis verdict, and a passing
        hypothesis comes with passing grid verdicts.

        A failing hypothesis forbids domination at some t or alpha, not at
        every one, so a grid verdict may still pass next to it.
        """
        hyp = self.hypothesis_ok
        grid = self.resolvent.passed and self.semigroup.passed
        return self.form.passed == hyp and (grid or not hyp)

    def to_report(self) -> dict:
        return {
            "hypothesis": {
                "passed": self.hypothesis_ok,
                "margins": self.hypothesis_margins,
                "min_margin": float(self.hypothesis_margins.min()),
            },
            "form": self.form.to_report(),
            "resolvent": self.resolvent.to_report(),
            "semigroup": self.semigroup.to_report(),
            "consistent": self.consistent,
            "verdicts_agree": self.verdicts_agree,
            "metadata": self.metadata,
        }


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
) -> DominationReport:
    """Run the hypothesis check and all three domination checks.

    On a finite graph the hypothesis <W(x)v, v> >= c(x)|v|^2 per vertex is
    necessary and sufficient for the bundle form to be dominated by the
    scalar form, so a form verdict that differs from the hypothesis, or a
    failing grid verdict next to a passing hypothesis, marks the report
    inconsistent. The margins are judged with the verdicts' `tol`;
    they equal the form level's vertex probe slacks.
    """
    margins = hypothesis_margins(G, bundle)
    hyp_ok = bool((margins >= -tol).all())

    A = assemble_magnetic_form(G, bundle)
    B = assemble_scalar_form(G)
    rng = np.random.default_rng(seed)
    sem = check_semigroup_domination(A, B, t_list, samples, rng, tol)
    res = check_resolvent_domination(A, B, alpha_list, samples, rng, tol)
    frm = check_form_domination(A, B, bundle, samples, rng, tol)

    metadata = {
        "seed": seed,
        "t_grid": list(t_list),
        "alpha_grid": list(alpha_list),
        "samples": samples,
        "tolerance": tol,
    }
    return DominationReport(hyp_ok, margins, frm, res, sem, metadata)
