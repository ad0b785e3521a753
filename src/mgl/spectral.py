"""Semigroups, resolvents, their analytic identities, and order criteria.

All semigroup and resolvent evaluations go through the FormOperator's
cached spectral decomposition. The two identity checks deliberately take
independent routes: the Laplace check integrates the spectrally computed
semigroup with composite Gauss-Legendre quadrature and compares against
the resolvent, while the Euler check raises the resolvent to a power by
repeated solves against one sparse LU factorization of L + sM, built from
the form matrix and the measure alone, and compares against the
spectrally computed semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    AlphaTooSmall,
    DimensionMismatch,
    NegativeTime,
    ProjectionNotIdempotent,
)
from .domination import DEFAULT_T_GRID, _as_rng
from .forms import FormOperator

TRUNCATION = 1e-12
DEFAULT_PANELS = 64
DEFAULT_NODES = 12


@dataclass(frozen=True)
class SemigroupSample:
    """One recorded application of e^{-tA}."""

    t: float
    input: np.ndarray
    output: np.ndarray


def _quadrature_grid(alpha: float, panels: int, nodes: int):
    # Geometrically graded panel edges resolve the stiff modes near t = 0
    # that a uniform layout of the same panel count would smear.
    if panels < 2 or nodes < 2:
        raise DimensionMismatch("quadrature needs at least 2 panels and 2 nodes")
    T = -np.log(TRUNCATION) / alpha
    edges = np.empty(panels + 1)
    edges[0] = 0.0
    ratio = np.power(1e-8, (panels - np.arange(1, panels + 1)) / (panels - 1))
    edges[1:] = T * ratio
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = np.diff(edges) / 2
    mid = (edges[:-1] + edges[1:]) / 2
    ts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return ts, ws


def _laplace_floor(F: FormOperator) -> float:
    """The value laplace_check needs alpha to exceed: max(0, -lambda_min) + 1e-6."""
    return max(0.0, -F.lower_bound) + 1e-6


def laplace_check(
    F: FormOperator,
    alpha: float,
    u,
    panels: int = DEFAULT_PANELS,
    nodes: int = DEFAULT_NODES,
) -> float:
    """Residual of the Laplace-transform identity for the resolvent.

    Integrates e^{-t alpha} e^{-tA} u over [0, T] (T chosen so that
    e^{-alpha T} <= 1e-12) with composite Gauss-Legendre quadrature and
    returns the m-norm distance to (A + alpha)^-1 u.
    """
    if alpha <= _laplace_floor(F):
        raise AlphaTooSmall(
            f"alpha = {alpha} must exceed max(0, -lambda_min) by at least 1e-6"
        )
    u = np.asarray(u)
    ts, ws = _quadrature_grid(alpha, panels, nodes)
    # In eigencoordinates the integrand is a decaying scalar exponential
    # per mode, so the quadrature acts on exp(-(alpha + mu_i) t).
    decay = np.exp(-np.outer(alpha + F.eigenvalues, ts))
    mode_integrals = decay @ ws
    integral = F._apply_function(mode_integrals, u)
    return F.norm(integral - F.resolvent(alpha, u))


def euler_limit_check(F: FormOperator, t: float, u, n: int) -> float:
    """Error of the Euler approximation (n/t)^n (A + n/t)^-n u to e^{-tA} u.

    With s = n/t, (A + s)^-1 = (L + sM)^-1 M, so the resolvent power is n
    repeated solves against a single sparse LU factorization of the
    Hermitian positive-definite matrix L + sM (with the factor s folded
    into each step, which also avoids overflow). It reads only the form
    matrix and the measure; the semigroup side is spectral.
    """
    if n < 1:
        raise DimensionMismatch(f"power n must be >= 1, got {n}")
    if t < 0:
        raise NegativeTime(f"time must be nonnegative, got {t}")
    if t == 0:
        return 0.0
    u = np.asarray(u)
    u = u.astype(np.result_type(F.L, u))
    weight = n / t * F.m_diag
    shifted = scipy.sparse.csc_matrix(F.L, dtype=u.dtype) + scipy.sparse.diags(weight)
    # A symmetric fill-reducing ordering with diagonal pivots keeps the
    # factors of this Hermitian positive-definite matrix sparse.
    lu = scipy.sparse.linalg.splu(
        shifted,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    y = u
    for _ in range(n):
        y = lu.solve(weight * y)
    return F.norm(y - F.semigroup(t, u))


def form_limit_check(F: FormOperator, u, v, t_list) -> np.ndarray:
    """Defects |(1/t) <u - e^{-tA}u, v>_m - Q(u, v)| for each t.

    u - e^{-tA}u is applied as the spectral multiplier 1 - exp(-t mu),
    evaluated by expm1: a difference of the nearly equal vectors u and
    e^{-tA}u would lose every digit at small t and large measures.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    target = F.evaluate(u, v)
    defects = np.empty(len(t_list))
    for i, t in enumerate(t_list):
        if t <= 0:
            raise NegativeTime(f"form-limit times must be > 0, got {t}")
        diff = F._apply_function(-np.expm1(-t * F.eigenvalues), u)
        defects[i] = abs(F.inner(diff, v) / t - target)
    return defects


def _require_scalar_real(F: FormOperator, what: str):
    if F.d != 1 or np.iscomplexobj(F.L):
        raise DimensionMismatch(f"{what} requires a real scalar form")


@dataclass(frozen=True)
class OrderReport:
    """Outcome of a semigroup order-property check with its form-side twin."""

    semigroup_ok: bool
    form_ok: bool
    worst_entry: float
    worst_witness: SemigroupSample | None
    worst_form_slack: float

    @property
    def agree(self) -> bool:
        return self.semigroup_ok == self.form_ok


def _order_check(F, t_list, tol, inputs, violation, signed, form_map) -> OrderReport:
    """Shared body of the positivity and Markov checks.

    Semigroup side: the largest violation(e^{-tA}u) over the columns u of
    `inputs`, which lie in the convex set. Form side: the smallest
    Q(v) - Q(form_map(v)) over the columns v of `signed`, with form_map the
    projection onto the set.
    """
    worst = -np.inf
    witness = None
    for t in t_list:
        out = F.semigroup(t, inputs)
        excess = violation(out)
        idx = np.unravel_index(np.argmax(excess), excess.shape)
        if excess[idx] > worst:
            worst = float(excess[idx])
            witness = SemigroupSample(
                float(t), inputs[:, idx[1]].copy(), out[:, idx[1]].copy()
            )
    semigroup_ok = worst <= tol

    worst_form = float((F.quad(signed) - F.quad(form_map(signed))).min())
    form_ok = worst_form >= -tol
    return OrderReport(bool(semigroup_ok), bool(form_ok), -worst,
                       None if semigroup_ok else witness, worst_form)


def _box_overshoot(out):
    """Distance of each entry to the unit interval [0, 1]."""
    return np.maximum(out - 1.0, 0.0) + np.maximum(-out, 0.0)


def positivity_check(
    F: FormOperator, t_list=DEFAULT_T_GRID, samples: int = 100, rng=None,
    tol: float = 1e-10,
) -> OrderReport:
    """Positivity preservation of e^{-tA} against the form criterion.

    Semigroup side: min entry of e^{-tA}u over nonnegative samples u.
    Form side: Q(|u|) <= Q(u) on random sign-mixed samples.
    """
    _require_scalar_real(F, "positivity check")
    rng = _as_rng(rng)
    nonneg = rng.random((F.dim, samples))
    signed = rng.standard_normal((F.dim, samples))
    return _order_check(F, t_list, tol, nonneg, np.negative, signed, np.abs)


def markov_check(
    F: FormOperator, t_list=DEFAULT_T_GRID, samples: int = 100, rng=None,
    tol: float = 1e-10,
) -> OrderReport:
    """Invariance of {0 <= u <= 1} under e^{-tA}.

    The form-side twin reuses the unit-interval clamp: Q(clamp u) <= Q(u)
    on samples pushed slightly outside the box. `worst_entry` is minus the
    largest overshoot.
    """
    _require_scalar_real(F, "Markov check")
    rng = _as_rng(rng)
    box = rng.random((F.dim, samples))
    wide = rng.standard_normal((F.dim, samples)) * 1.5 + 0.5
    return _order_check(
        F, t_list, tol, box, _box_overshoot, wide, unit_interval_projection
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Invariance criterion vs direct semigroup membership for a convex set."""

    form_ok: bool
    semigroup_ok: bool
    worst_form_slack: float
    worst_escape: float
    form_witness: np.ndarray | None
    escape_witness: SemigroupSample | None

    @property
    def agree(self) -> bool:
        return self.form_ok == self.semigroup_ok


def ouhabaz_invariance_check(
    F: FormOperator,
    projection,
    samples,
    t_list=DEFAULT_T_GRID,
    tol: float = 1e-9,
) -> InvarianceReport:
    """Compare Re Q(Pu, u - Pu) >= 0 with direct invariance of the set.

    `projection` maps vectors onto a closed convex set; idempotency is
    verified on the samples first. Membership of e^{-tA}(Pu) is measured
    by the m-distance to its own projection.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    projected = np.stack([projection(s) for s in samples])
    for p in projected:
        again = projection(p)
        if F.norm(again - p) > 1e-10 * max(1.0, F.norm(p)):
            raise ProjectionNotIdempotent(
                "projection(projection(u)) differs from projection(u)"
            )

    worst_slack = np.inf
    form_witness = None
    for s, p in zip(samples, projected):
        slack = F.evaluate(p, s - p).real
        if slack < worst_slack:
            worst_slack = float(slack)
            form_witness = s
    form_ok = worst_slack >= -tol

    worst_escape = 0.0
    escape_witness = None
    for p in projected:
        for t in t_list:
            out = F.semigroup(t, p)
            dist = F.norm(np.asarray(projection(out)) - out)
            if dist > worst_escape:
                worst_escape = float(dist)
                escape_witness = SemigroupSample(float(t), p.copy(), out.copy())
    semigroup_ok = worst_escape <= tol

    return InvarianceReport(
        bool(form_ok),
        bool(semigroup_ok),
        worst_slack,
        worst_escape,
        None if form_ok else form_witness,
        None if semigroup_ok else escape_witness,
    )


def positive_cone_projection(u):
    """Projection onto the nonnegative orthant (any weighted l2 norm)."""
    return np.maximum(np.asarray(u, dtype=float), 0.0)


def unit_interval_projection(u):
    """Projection onto {0 <= u <= 1} (any weighted l2 norm)."""
    return np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
