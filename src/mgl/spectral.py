"""Semigroups, resolvents, their analytic identities, and order criteria.

Semigroups and resolvents go through the FormOperator's cached spectral
decomposition. Every identity figure is a norm or an inner product, which
the unitary Q of the form's reduction Q T Q* and T's unitary eigenvectors
Z leave unchanged: so each identity check projects its vector,
w = Q* M^1/2 u (`FormOperator._project`), compares its two routes in T's
coordinates and applies no Q back. The form remembers the last vector it
projected, so the suite's checks of one form apply Q* once between them;
`semigroup_identities` projects the magnetic form's u before the suite and
then releases that form's reflectors, so that its dstevd runs without
them. The routes are independent: Laplace integrates the semigroup's modes
e^{-t (alpha + mu)} (composite Gauss-Legendre) against the resolvent's
1 / (alpha + mu); the form limit weighs Z^T w by 1 - e^{-t mu} against
Q(u, v) read from L. Euler and the eigensystem share the form's one
Householder reduction (?hetrd) and diverge after it: the eigensystem runs
dstevd on T; Euler applies (I + hT)^-n, h = t/n, to w as n // K dpbtrs
solves with the band matrix (I + hT)^K, built in band storage by K
products with the tridiagonal step, and n % K dpttrs solves with the step
itself. K, a power of two up to EULER_BAND, is the largest for which T's
Gershgorin interval bounds cond((I + hT)^K) by 2, so a band solve rounds
no worse than a step solve. The Euler power reads neither eigenvalues nor
eigenvectors, only its target Z e^{-t mu} Z^T w does; the identity checks
build no U, which only the Beurling-Deny kernel reads.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

import numpy as np
from scipy.linalg import blas, lapack
from scipy.sparse.csgraph import connected_components

from .errors import AlphaTooSmall, DimensionMismatch, NegativeTime, SchemaError
from .forms import (FormOperator, _columns, _gemm, _lapack, assemble_magnetic_form,
                    assemble_scalar_form)

TRUNCATION = 1e-12
# The Laplace check's composite Gauss-Legendre rule: panels, nodes per panel.
LAPLACE_PANELS = 64
LAPLACE_NODES = 12
# The widest power (I + hT)^K, a band of half-width K, that the Euler check
# factors.
EULER_BAND = 32
# Relative tolerance of the Beurling-Deny figures, and the times of their
# semigroup side.
BEURLING_DENY_TOL = 1e-10
BEURLING_DENY_TIMES = (0.01, 0.1, 1.0, 10.0)


@cache
def _legendre_rule():
    """One panel's Gauss-Legendre nodes and weights on [-1, 1], read-only.
    Computed on the first Laplace check, not at import: leggauss runs an
    eigensolver on numpy's own BLAS, whose first call costs every command,
    `uniqueness` too, 0.8 MiB of RSS."""
    rule = np.polynomial.legendre.leggauss(LAPLACE_NODES)
    for part in rule:
        part.setflags(write=False)
    return rule


def _quadrature_grid(alpha: float):
    # Geometrically graded panel edges resolve the stiff modes near t = 0
    # that a uniform layout of the same panel count would smear.
    T = -np.log(TRUNCATION) / alpha
    steps = LAPLACE_PANELS - np.arange(1, LAPLACE_PANELS + 1)
    edges = np.append(0.0, T * np.power(1e-8, steps / (LAPLACE_PANELS - 1)))
    x, w = _legendre_rule()
    half = np.diff(edges) / 2
    mid = (edges[:-1] + edges[1:]) / 2
    ts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return ts, ws


def _laplace_floor(F: FormOperator) -> float:
    """The value laplace_check needs alpha to exceed: max(0, -lambda_min) + 1e-6."""
    return max(0.0, -F.lower_bound) + 1e-6


def laplace_check(F: FormOperator, alpha: float, u) -> float:
    """Residual of the Laplace-transform identity for the resolvent.

    Integrates e^{-t alpha} e^{-tA} u over [0, T] (T chosen so that
    e^{-alpha T} <= 1e-12) with composite Gauss-Legendre quadrature and
    returns the m-norm distance to (A + alpha)^-1 u, mode by mode in T's
    eigencoordinates.
    """
    if alpha <= _laplace_floor(F):
        raise AlphaTooSmall(
            f"alpha = {alpha} must exceed max(0, -lambda_min) by at least 1e-6"
        )
    ts, ws = _quadrature_grid(alpha)
    # In eigencoordinates the integrand is a decaying scalar exponential
    # per mode, so the quadrature acts on exp(-(alpha + mu_i) t), tabulated
    # one panel of nodes at a time, so that the table stays N x LAPLACE_NODES.
    rates = alpha + F.eigenvalues
    mode_integrals = np.zeros(F.dim)
    panels = (LAPLACE_PANELS, LAPLACE_NODES)
    for t, w in zip(ts.reshape(panels), ws.reshape(panels)):
        decay = np.multiply.outer(-t, rates)
        np.exp(decay, out=decay)
        mode_integrals += _gemm(decay.T, w[:, None])[:, 0]
    # Q and Z are unitary: the m-norm of the two routes' difference is the
    # 2-norm of their multipliers' difference times y = Z^T Q* M^1/2 u.
    y = _gemm(F._eigensystem[1], F._project(u), trans_a=1)
    diff = (mode_integrals - 1.0 / rates)[:, None] * y
    return float(np.sqrt(np.sum(diff * diff)))


def _euler_power(d, e, h: float, n: int) -> int:
    """K for the Euler check: the largest power of two K <= min(EULER_BAND, n)
    with ((1 + h g_hi) / (1 + h min(0, g_lo)))^K <= 2, where [g_lo, g_hi] is
    the Gershgorin interval of T = tridiag(e, d, e). The ratio bounds
    cond(I + hT) where I + hT is positive definite, so cond((I + hT)^K) <= 2;
    K is 1 where 1 + h g_lo may be <= 0."""
    off = np.abs(e[: d.size - 1])
    radius = np.append(off, 0.0) + np.append(0.0, off)
    bottom = 1.0 + h * min(0.0, float((d - radius).min()))
    if not bottom > 0:
        return 1
    ratio = (1.0 + h * float((d + radius).max())) / bottom
    K = 1
    while 2 * K <= min(EULER_BAND, n) and ratio ** (2 * K) <= 2.0:
        K *= 2
    return K


def _band_cholesky(d, e, h: float, K: int):
    """The Cholesky factor (dpbtrf) of B = (I + hT)^K in LAPACK's upper band
    storage, whose row w - o holds B's superdiagonal o at the columns j of
    its entries B(j - o, j), w = min(K, N - 1) being B's half-width.

    B is built in that storage by K products with the step S = I + hT, whose
    off-diagonal is f = he: entry (i, j) of B S is
    B(i, j - 1) f(j - 1) + B(i, j) S(j, j) + B(i, j + 1) f(j),
    so a product is three shifted whole-array operations on the storage.
    Row K + 1 holds B's subdiagonal, which B's symmetry copies from its
    first superdiagonal before each product.
    """
    N = d.size
    step, f = 1.0 + h * d, h * e[: N - 1]
    band = np.zeros((K + 2, N))
    band[K] = 1.0
    for k in range(K):
        top = K - k - 1  # the top row of S^(k + 1), of half-width k + 1
        band[K + 1, :-1] = band[K - 1, 1:]
        power = band[top:].copy()
        band[top:] *= step
        band[top:K + 1, 1:] += power[1:, :-1] * f
        band[top + 1:K + 1, :-1] += power[:-2, 1:] * f
    width = min(K, N - 1)
    band = np.asfortranarray(band[K - width:K + 1])
    return _lapack(lapack.dpbtrf, band, overwrite_ab=1)[0]


def euler_limit_check(F: FormOperator, t: float, u, n: int) -> float:
    """Error of the Euler approximation (n/t)^n (A + n/t)^-n u to e^{-tA} u.

    With h = t/n and the form's Householder reduction M^-1/2 L M^-1/2 = Q T Q*,
    T real tridiagonal, both sides are compared in T's coordinates
    w = Q* M^1/2 u (`FormOperator._project`), where Q and Z are unitary, so
    the 2-norm of the difference is the m-norm of the error. The power is
    (I + hT)^-n w, applied to real columns (the real and imaginary parts):
    n // K dpbtrs solves
    with one dpbtrf of the band matrix (I + hT)^K, then n % K dpttrs solves
    with the dpttrf of I + hT, which is factored in any case, so that a step
    that is not positive definite is refused. K (`_euler_power`) is the
    largest power of two up to min(EULER_BAND, n) for which T's Gershgorin
    interval bounds cond((I + hT)^K) by 2: a band solve then rounds like a
    step solve, and the error stays of order n eps. At the semigroup-id
    times t = min(1, 10 / |mu|_max), K is 8, 16 and 32 for n = 256, 512
    and 4096 on the benchmark's instances.
    e^{-tA} u is spectral, Z e^{-t mu} Z^T w, two real products; the power
    reads no eigenvalue. Q* is applied at most once, from the reduction's
    reflectors (?unmqr) or as Z U* where U is already built, and not at all
    where the form remembers u's projection; Q is not applied.
    """
    if n < 1:
        raise DimensionMismatch(f"power n must be >= 1, got {n}")
    if t < 0:
        raise NegativeTime(f"time must be nonnegative, got {t}")
    if t == 0:
        return 0.0
    d, e = F._tridiagonal
    h = t / n
    df, ef = _lapack(lapack.dpttrf, 1.0 + h * d, h * e)
    K = _euler_power(d, e, h, n)
    blocks, rest = divmod(n, K) if K > 1 else (0, n)
    band = _band_cholesky(d, e, h, K) if blocks else None
    w = F._project(u)
    # e^{-tA} u in T's coordinates, Z e^{-t mu} Z^T w: Q is unitary, so the
    # m-norm of the two routes' difference is its 2-norm here.
    Z = F._eigensystem[1]
    exact = _gemm(Z, F._semigroup_multiplier(t)[:, None] * _gemm(Z, w, trans_a=1))
    for _ in range(blocks):
        w = _lapack(lapack.dpbtrs, band, w, overwrite_b=1)[0]
    for _ in range(rest):
        w = _lapack(lapack.dpttrs, df, ef, w, overwrite_b=1)[0]
    diff = w - exact
    return float(np.sqrt(np.sum(diff * diff)))


def form_limit_check(F: FormOperator, u, v, t_list) -> np.ndarray:
    """Defects |(1/t) <u - e^{-tA}u, v>_m - Q(u, v)| for each t.

    u - e^{-tA}u is applied as the spectral multiplier 1 - exp(-t mu),
    evaluated by expm1, in T's eigencoordinates: a difference of the nearly
    equal vectors u and e^{-tA}u would lose every digit at small t and large
    measures. Q(u, v) is read from L.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    target = F.evaluate(u, v)
    # <(1 - e^{-tA}) u, v>_m = sum (1 - e^{-t mu}) y_u conj(y_v), with
    # y = Z^T Q* M^1/2 u as Q and Z are unitary; u is projected once where
    # it is v.
    y = _gemm(F._eigensystem[1], F._project(np.column_stack(
        [u] if v is u else [u, v])), trans_a=1)
    y = _columns(y, np.result_type(F.L.dtype, u, v, 1.0))
    product = y[:, 0] * y[:, -1].conj()
    defects = np.empty(len(t_list))
    for i, t in enumerate(t_list):
        if t <= 0:
            raise NegativeTime(f"form-limit times must be > 0, got {t}")
        value = np.sum(-np.expm1(-t * F.eigenvalues) * product)
        defects[i] = abs(complex(value) / t - target)
    return defects


def _resolution(F: FormOperator, t: float):
    """|S_t|_2 = max e^{-t mu} and the eigensolver's rounding allowance on S_t,
    n eps (2 + t |mu|_max) |S_t|_2 (FormOperator._rounding_bound); both are
    infinite where e^{-t mu} overflows."""
    with np.errstate(over="ignore"):
        top = np.exp(-t * F.eigenvalues).max()
    return top, F._rounding_bound(top, t * top)


def _semigroup_side(F: FormOperator, t: float, delta: float, part):
    """beurling_deny_check's semigroup side at one t, with rounding bound
    delta, on the form of one component; `part` maps its vertices to the
    whole graph's for the witnesses. Each figure comes with its witness and
    with delta on the figure's scale. S_t is normalised in place."""
    U, mu, w = F.eigenvectors, F.eigenvalues, F.m_sqrt
    # S = V V^T, V = U e^{-t mu/2}, by one dsyrk on scipy's BLAS (see
    # forms._gemm), which fills the upper triangle; the mirror makes S
    # exactly symmetric. V's buffer then holds each N x N temporary in turn.
    scratch = U * np.exp(-0.5 * t * mu)
    S = blas.dsyrk(1.0, scratch)
    _mirror_upper(S)
    s = np.sqrt(np.diagonal(S))
    scale = 1.0 + _gemm(np.abs(S, out=scratch), w[:, None])[:, 0] / w
    rise = _gemm(S, w[:, None])[:, 0] / w - 1.0
    rows_ok = bool((rise <= BEURLING_DENY_TOL * scale
                    + delta * np.linalg.norm(w) / w).all())
    x = int(np.argmax(rise / scale))
    excess = (float(rise[x] / scale[x]), {"t": float(t), "x": int(part[x])},
              float(delta * np.linalg.norm(w) / (w[x] * scale[x])))
    margin = np.outer(BEURLING_DENY_TOL * s, s, out=scratch)
    margin += S
    kernel_ok = bool(margin.min() >= -delta)
    # One product s(x) s(y) per entry keeps the normalised S_t exactly
    # symmetric, so the witness is the first, x < y, of its two entries,
    # and S_t^T, which is C-ordered, is searched in place of S_t.
    s[s == 0] = 1.0
    S /= np.outer(s, s, out=scratch)
    np.fill_diagonal(S, np.inf)
    x, y = np.unravel_index(np.argmin(S.T), S.shape)
    kernel = (float(S[x, y]), {"t": float(t), "x": int(part[x]), "y": int(part[y])},
              float(delta / (s[x] * s[y])))
    return kernel_ok, rows_ok, kernel, excess


def _mirror_upper(S):
    """Copies the upper triangle of the Fortran-ordered square S into its
    zero lower triangle, 64 columns at a time, so that each transposed
    panel is copied in cache."""
    for j in range(0, S.shape[0], 64):
        S[j + 64:, j:j + 64] = S[j:j + 64, j + 64:].T
        corner = S[j:j + 64, j:j + 64]
        corner += np.triu(corner, 1).T


def beurling_deny_check(F: FormOperator) -> dict:
    """The first Beurling-Deny criteria of a real scalar form, decided exactly.

    e^{-tA} >= 0 for all t iff every off-diagonal entry of L is <= 0; it is
    sub-Markov iff also L 1 >= 0. Form figures: the largest off-diagonal
    entry of L, and the smallest row sum over the row's absolute sum.
    Semigroup figures, from S_t = V V^T, V = U e^{-t mu/2}, which has the
    entry signs of e^{-tA}: the smallest S_t(x, y) / sqrt(S_t(x, x) S_t(y, y))
    over x != y, and the largest (e^{-tA} 1 - 1)(x) / (1 + sum_y |e^{-tA}(x, y)|).
    e^{-tA} is block diagonal over the connected components of L, so S_t
    is exactly 0 between them, and each component is decided on its own
    eigensystem, with its own |mu|_max: a heavy component does not blur a
    light one.
    The eigensolver's backward error leaves S_t off by up to
    delta_t = n eps (2 + t |mu|_max) |S_t|_2 (FormOperator._rounding_bound), so
    a semigroup verdict fails only beyond BEURLING_DENY_TOL times the
    figure's scale plus delta_t (times |m^1/2|_2 / m(x)^1/2 for a row).
    Where delta_t reaches |S_t|_2 = max e^{-t mu}, no entry or row could
    fail: that t resolves nothing, and the component is judged at
    t min(1, 10 / |mu|_max) instead, as the Euler check's t is scaled (a
    witness reports the time used). There t |mu|_max <= 10 max
    BEURLING_DENY_TIMES = 100, so delta_t < |S_t|_2 for every n below 4e13
    and e^{-t mu} cannot overflow: every time is judged. Where a form
    verdict, which is exact, fails and its semigroup figure fails
    BEURLING_DENY_TOL but passes within delta_t, that figure resolves
    nothing, and SchemaError names its t, the figure and its allowance.
    (delta_t is normwise: it cannot see a coupling far below n eps |mu|_max
    within one component.) Markov verdicts include their side's positivity
    verdict.
    """
    if F.d != 1 or np.iscomplexobj(F.L):
        raise DimensionMismatch("the Beurling-Deny check requires a real scalar form")
    count, labels = connected_components(F.L, directed=False)
    sides = []
    for c in range(count):
        part = np.flatnonzero(labels == c)
        form = F
        if count > 1:
            form = FormOperator(F.L[part][:, part].toarray(), F.measure[part])
        stretch = 10.0 / max(np.abs(form.eigenvalues).max(), 10.0)
        for t in BEURLING_DENY_TIMES:
            top, delta = _resolution(form, t)
            if not delta < top:
                t *= stretch
                top, delta = _resolution(form, t)
            sides.append(_semigroup_side(form, t, delta, part))
    kernel_ok = all(side[0] for side in sides)
    kernels = [side[2] for side in sides]
    if count > 1:
        # S_t is 0 between components: the first such pair, in row-major order.
        y = int(np.flatnonzero(labels != labels[0])[0])
        kernels.append((0.0, {"t": BEURLING_DENY_TIMES[0], "x": 0, "y": y}, 0.0))
    kernel = min(kernels, key=itemgetter(0))
    excess = max((side[3] for side in sides), key=itemgetter(0))
    # The stored off-diagonal entries of L and, if some vertices are not
    # adjacent, the first such pair in row-major order, whose entry is 0.
    L = F.L.tocoo()
    off = L.row != L.col
    x, y, value = L.row[off], L.col[off], L.data[off]
    gaps = np.flatnonzero(np.bincount(x, minlength=F.n) < F.n - 1)
    if gaps.size:
        row = gaps[0]
        col = np.setdiff1d(np.arange(F.n), np.append(y[x == row], row))[0]
        x, y, value = np.append(x, row), np.append(y, col), np.append(value, 0.0)
    top = float(value.max(initial=-np.inf))
    first = np.lexsort((y, x, value < top))  # row-major, the largest first
    positive = top <= 0
    row_abs = abs(F.L).sum(axis=1)
    rows = np.divide(F.L.sum(axis=1), row_abs, out=np.zeros(F.n), where=row_abs > 0)
    r = int(np.argmin(rows))
    markov_form_ok = positive and bool(rows[r] >= -BEURLING_DENY_TOL)
    markov_semigroup_ok = kernel_ok and all(side[1] for side in sides)
    for form_ok, semigroup_ok, beyond_tol, (figure, witness, allowance) in (
        (positive, kernel_ok, kernel[0] < -BEURLING_DENY_TOL, kernel),
        (markov_form_ok, markov_semigroup_ok, excess[0] > BEURLING_DENY_TOL, excess),
    ):
        if not form_ok and semigroup_ok and beyond_tol:
            raise SchemaError(
                f"Beurling-Deny time t = {witness['t']:g} resolves nothing: the "
                f"form criterion fails, and the semigroup figure {figure:.3g} "
                f"passes only within the eigensolver's rounding allowance "
                f"{allowance:.3g}"
            )
    return {
        "positivity": {
            "form_ok": positive,
            "max_off_diagonal": top,
            "form_witness": [int(x[first[0]]), int(y[first[0]])] if F.n > 1 else None,
            "semigroup_ok": kernel_ok,
            "min_kernel_ratio": kernel[0],
            "semigroup_witness": kernel[1] if F.n > 1 else None,
        },
        "markov": {
            "form_ok": markov_form_ok,
            "min_row_ratio": float(rows[r]),
            "form_witness": r,
            "semigroup_ok": markov_semigroup_ok,
            "max_row_excess": excess[0],
            "semigroup_witness": excess[1],
        },
    }


def _suite_vector(form, seed):
    """The identity suite's u: standard normal from `seed`, complex on a
    complex form."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(form.dim)
    if np.iscomplexobj(form.L):
        u = u + 1j * rng.standard_normal(form.dim)
    return u


def _identity_suite(form, alphas, seed):
    """The identity checks of one form on a random u from `seed`, with
    verdicts. Every check projects u; the form remembers the projection, so
    Q* is applied once, or not at all where u was projected before."""
    u = _suite_vector(form, seed)
    norm_u = form.norm(u)
    radius = max(abs(form.eigenvalues[0]), abs(form.eigenvalues[-1]), 1e-12)

    floor = _laplace_floor(form)
    kept = [alpha for alpha in alphas if alpha > floor]
    if not kept:
        raise AlphaTooSmall(
            f"no alpha exceeds the Laplace-check floor {floor:.6g}; "
            f"filtered: {list(alphas)}"
        )
    laplace = {str(alpha): laplace_check(form, alpha, u) for alpha in kept}
    laplace_ok = all(r <= 1e-6 * norm_u for r in laplace.values())

    t = min(1.0, 10.0 / radius)
    errors = {n: euler_limit_check(form, t, u, n) for n in (256, 512, 4096)}
    euler_ok = (
        errors[512] <= 0.75 * errors[256] + 1e-15
        and errors[4096] <= 1e-3 * norm_u
    )

    t0 = 1e-3 / radius
    defects = form_limit_check(form, u, u, [t0, t0 / 2])
    # Q(u, u) read off the spectrum, sum mu |y|^2, is only as exact as the
    # eigensolver's bound on U diag(mu) U*; a defect within it shows no ratio.
    floor = form._rounding_bound(form.eigenvalues, 1.0) * norm_u**2
    ratio = defects[1] / defects[0] if defects[0] > floor else 0.5
    form_limit_ok = 0.35 <= ratio <= 0.65

    return {
        "laplace_residuals": laplace,
        "laplace_ok": laplace_ok,
        "euler_errors": {str(k): v for k, v in errors.items()},
        "euler_ok": euler_ok,
        "form_limit_defects": list(defects),
        "form_limit_ratio": ratio,
        "form_limit_ok": form_limit_ok,
    }


def semigroup_identities(G, bundle, alphas, seed) -> dict:
    """The `semigroup-id` report: the identity checks of the magnetic form
    (none without a bundle) and of the scalar form, which carries its
    Beurling-Deny criteria; `ok` if every identity holds and the scalar
    semigroup is sub-Markov. AlphaTooSmall if no alpha exceeds a form's
    Laplace-check floor, so that no Laplace residual would be checked.

    The suite reads the magnetic form's Q only through the projection of
    its u, which is taken right after the reduction and remembered; the
    reflectors are then released, before the suite's first eigenvalue read,
    so that dstevd runs beside Z and its workspace only. The scalar form
    keeps its reflectors: its Beurling-Deny kernel builds U from them."""
    report = {}
    if bundle is not None:
        magnetic = assemble_magnetic_form(G, bundle)
        magnetic._project(_suite_vector(magnetic, seed))
        magnetic._release_reflectors()
        report["magnetic"] = _identity_suite(magnetic, alphas, seed)
        del magnetic
    # The scalar form is built after the magnetic one is freed, so that at
    # most one spectrum is held at a time.
    scalar = assemble_scalar_form(G)
    report["scalar"] = _identity_suite(scalar, alphas, seed)
    # A WeightedGraph has b >= 0 and c >= 0: only the semigroup side can fail.
    criteria = report["scalar"]["beurling_deny"] = beurling_deny_check(scalar)
    flags = ("laplace_ok", "euler_ok", "form_limit_ok")
    report["ok"] = criteria["markov"]["semigroup_ok"] and all(
        section[flag] for section in report.values() for flag in flags)
    return report
