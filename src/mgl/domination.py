"""Three-level domination verifier: semigroup, resolvent, and form checks.

A bundle form is dominated by a scalar form when the pointwise fiber norm
of anything the bundle semigroup produces stays below what the scalar
semigroup produces from the pointwise norms. The three checks here probe
that statement at the semigroup, resolvent, and form level on parameter
grids and random samples; the theory says the three verdicts must agree,
and the verifier reports worst-case slacks and witnesses either way.

Deterministic probes (coordinate sections; for the form level also
disjointly supported edge pairs and each coordinate section paired with
itself) are always added to the random samples: known violations
concentrate there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundles import HermitianBundle, pair
from .errors import DimensionMismatch
from .forms import FormOperator, assemble_magnetic_form, assemble_scalar_form
from .graphs import WeightedGraph

DEFAULT_T_GRID = (0.01, 0.1, 1.0, 10.0)
DEFAULT_ALPHA_GRID = (0.5, 1.0, 10.0)
DOMINATION_TOL = 1e-9
HYPOTHESIS_TOL = 1e-10


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
    detail: dict = field(default_factory=dict)

    def to_report(self) -> dict:
        out = {
            "passed": self.passed,
            "slack": self.slack,
            "witness_vertex": self.witness_vertex,
            "witness_param": self.witness_param,
            "witness_vector": None
            if self.witness_vector is None
            else np.asarray(self.witness_vector),
        }
        out.update(self.detail)
        return out


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


def _coordinate_section(n: int, d: int, x: int, j: int = 0) -> np.ndarray:
    """The (n, d) section e_{x,j}: 1 at fiber coordinate j of vertex x."""
    out = np.zeros((n, d), dtype=complex)
    out[x, j] = 1.0
    return out


def _coordinate_probe_slacks(A: FormOperator, B: FormOperator, edges):
    """Paired-inequality slacks Re Q_A(f1, f2) - Q_B(|f1|, |f2|) on coordinates.

    For an edge row (x, y) the pair is f1 = e_{x,0}, f2 = e_{y,0}, with
    disjoint supports; for a vertex x and fiber index j it is
    f1 = f2 = e_{x,j}. Both sides are single entries of the form matrices,
    since Q(u, v) = <Lu, v>. Returns the (E,) and (n, d) slack arrays.
    """
    x, y = edges.T
    d = A.d
    edge = A.L[y * d, x * d].real - B.L[y, x].real
    diag = np.diagonal(A.L).real.reshape(A.n, d) - np.diagonal(B.L).real[:, None]
    return edge, diag


def _first_min(values):
    """The minimum of a 1-D array as a float and its first index; (inf, None)
    for an empty array."""
    if not values.size:
        return np.inf, None
    j = int(np.argmin(values))
    return float(values[j]), j


def _probe_witness(n: int, d: int, edges, k: int):
    """Section f1 and witness vertex of coordinate probe k (edge rows first)."""
    if k < len(edges):
        x, vertex = edges[k].tolist()
        return _coordinate_section(n, d, x), vertex
    vertex, j = divmod(k - len(edges), d)
    return _coordinate_section(n, d, vertex, j), vertex


def _pointwise_verdict(A, B, params, samples, rng, tol, multiplier) -> Verdict:
    """Shared body of the semigroup- and resolvent-level checks.

    `multiplier(F, p)` is the spectral multiplier of the operator at
    parameter p, or None where that operator is exactly the identity. At
    each p the fiber norms of the A-side image of every sample and of every
    coordinate section e_{x,0} are compared with the B-side image of their
    pointwise norms (e_x for e_{x,0}). Each side projects its columns into
    eigencoordinates once, so a parameter costs one back-transform per side.
    """
    n, d = A.n, A.d
    sections = _sections(A, B, samples, rng)
    k = len(sections)
    flat = sections.reshape(k, A.dim).T  # (n*d, k), one section per column
    mags = np.linalg.norm(sections, axis=2).T  # (n, k)
    ya = np.concatenate(
        [A._eigencoordinates(flat), A._coordinate_eigencoordinates()], axis=1
    )
    yb = np.concatenate(
        [B._eigencoordinates(mags), B._coordinate_eigencoordinates()], axis=1
    )

    best = np.inf
    witness = (None, None, None)
    for p in params:
        fa, fb = multiplier(A, p), multiplier(B, p)
        if fa is None:
            # The identity compares the sections themselves; each coordinate
            # section e_{x,0} then has slack exactly 0.
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
        section = _coordinate_section(n, d, column - k)
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
    """Form-level domination in three sub-checks.

    (1) pointwise norms of samples land in the scalar form's domain
        (automatic on finite graphs; the largest energy is recorded);
    (2) for 0 <= g <= |u| the phase-aligned section of magnitude g obeys
        the energy budget Q_A(aligned) <= Q_B(g) + Q_A(u);
    (3) Re Q_A(f1, f2) >= Q_B(|f1|, |f2|) on phase-aligned pairs, including
        disjointly supported coordinate pairs on every edge and every
        coordinate section e_{x,j} paired with itself.
    """
    rng = _as_rng(rng)
    sections = _sections(A, B, samples, rng)
    k, n = len(sections), A.n
    mags = np.linalg.norm(sections, axis=2)
    g = np.empty((k, n))
    g_free = np.empty((k, n))
    budget = np.empty_like(sections)
    aligned = np.empty_like(sections)
    # Per sample, g is drawn before g_free; this order fixes the random
    # stream that a seed produces.
    for j, u in enumerate(sections):
        g[j] = rng.random(n) * mags[j]
        budget[j] = pair(u, g[j], bundle)
        g_free[j] = np.abs(rng.standard_normal(n))
        aligned[j] = pair(u, g_free[j], bundle)

    flat_u = sections.reshape(k, A.dim).T
    max_energy = float(np.max(B.quad(mags.T), initial=0.0))
    budget_slack, j = _first_min(
        B.quad(g.T) + A.quad(flat_u) - A.quad(budget.reshape(k, A.dim).T)
    )
    budget_witness = None if j is None else sections[j]
    aligned_slack, j = _first_min(
        A.evaluate(flat_u, aligned.reshape(k, A.dim).T).real
        - B.evaluate(mags.T, g_free.T).real
    )
    aligned_witness = None if j is None else sections[j]

    # Coordinate pairs are paired by definition and concentrate the
    # violations of failing instances: disjointly supported pairs across
    # every edge, and e_{x,j} against itself, which catches W(x) < c(x).
    edge, diag = _coordinate_probe_slacks(A, B, bundle.graph.edges)
    probes = np.concatenate([edge, diag.ravel()])
    probe = int(np.argmin(probes))
    if probes[probe] < aligned_slack:
        aligned_slack = float(probes[probe])
    else:
        probe = None

    overall = min(budget_slack, aligned_slack)
    passed = overall >= -tol
    if passed:
        witness = witness_vertex = None
    elif budget_slack <= aligned_slack:
        witness, witness_vertex = budget_witness, None
    elif probe is None:
        witness, witness_vertex = aligned_witness, None
    else:
        witness, witness_vertex = _probe_witness(A.n, A.d, bundle.graph.edges, probe)
    return Verdict(
        passed,
        float(overall),
        witness,
        None,
        witness_vertex,
        detail={
            "max_dominating_energy": max_energy,
            "energy_budget_slack": budget_slack,
            "paired_inequality_slack": aligned_slack,
        },
    )


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
        """Every verdict equals the hypothesis verdict."""
        verdicts = (self.form, self.resolvent, self.semigroup)
        return all(v.passed == self.hypothesis_ok for v in verdicts)

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
    scalar form, so any verdict that differs from the hypothesis marks the
    report inconsistent.
    """
    margins = hypothesis_margins(G, bundle)
    hyp_ok = bool((margins >= -HYPOTHESIS_TOL).all())

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
