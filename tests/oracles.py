"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's assembled matrices and
closed-form lattice formulas: forms are evaluated by literal double sums,
clamps by explicit per-entry branches, the domination-set projection by
per-vertex KKT bisection, shortest paths by exhaustive enumeration,
exhaustion gaps by 40-digit resolvents, semigroup kernels by a 30-digit
matrix exponential instead of an eigendecomposition, and the semigroup
identities on the generalized eigensystem of (L, M) in the vertex frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg
from scipy.integrate import quad


def scalar_form_value(G, u, v):
    """Literal double-sum evaluation of the scalar energy form."""
    u = np.asarray(u)
    v = np.asarray(v)
    total = 0.0 + 0.0j
    for x in range(G.n):
        for y in range(G.n):
            b = G.weight(x, y)
            if b:
                total += 0.5 * b * (u[x] - u[y]) * np.conj(v[x] - v[y])
        total += G.killing[x] * u[x] * np.conj(v[x])
    return total


def scalar_generator_apply(G, u):
    """(M^-1 L u)(x) = (sum_y b(x, y) (u(x) - u(y)) + c(x) u(x)) / m(x),
    summed literally over the graph's weights."""
    u = np.asarray(u)
    out = np.zeros(G.n, dtype=np.result_type(u, float))
    for x in range(G.n):
        for y in range(G.n):
            b = G.weight(x, y)
            if b:
                out[x] += b * (u[x] - u[y])
        out[x] = (out[x] + G.killing[x] * u[x]) / G.measure[x]
    return out


def magnetic_form_value(G, B, u):
    """Literal double-sum evaluation of the bundle energy (quadratic)."""
    u = np.asarray(u, dtype=complex)
    total = 0.0
    for x in range(G.n):
        for y in range(G.n):
            b = G.weight(x, y)
            if b:
                diff = u[x] - B.phi(x, y) @ u[y]
                total += 0.5 * b * np.vdot(diff, diff).real
        total += np.vdot(u[x], B.endo[x] @ u[x]).real
    return total


def clamp_positive(g):
    """Per-entry positive part with an explicit branch."""
    g = np.asarray(g, dtype=float)
    out = np.empty_like(g)
    for i, gi in enumerate(g):
        out[i] = gi if gi > 0.0 else 0.0
    return out


def project_domination_oracle(f1, g):
    """Per-vertex projection onto {|u(x)| <= v(x)} by KKT bisection.

    For each vertex the optimal bound t minimizes the convex piecewise
    quadratic (|z| - t)_+^2 + (t - s)^2 over t >= 0; its derivative is
    monotone, so 200 bisection steps pin the root to machine precision.
    The optimal section entry is the radial clamp of z to length t.
    """
    f1 = np.asarray(f1, dtype=complex)
    g = np.asarray(g, dtype=float)
    n = f1.shape[0]
    f_hat = np.zeros_like(f1)
    g_hat = np.zeros(n)
    for x in range(n):
        z = f1[x]
        s = g[x]
        r = float(np.linalg.norm(z))

        def slope(t):
            return -2.0 * max(r - t, 0.0) + 2.0 * (t - s)

        if slope(0.0) >= 0.0:
            t = 0.0
        else:
            lo, hi = 0.0, max(r, s) + 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if slope(mid) >= 0.0:
                    hi = mid
                else:
                    lo = mid
            t = 0.5 * (lo + hi)
        g_hat[x] = t
        if r > 0.0:
            f_hat[x] = (min(r, t) / r) * z
    return f_hat, g_hat


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
    inner = np.einsum("xj,xj->x", f1, f2.conj())
    prods = np.linalg.norm(f1, axis=1) * np.linalg.norm(f2, axis=1)
    defects = prods - inner.real
    worst = int(np.argmax(defects))
    return PairedCheck(bool(defects[worst] <= tol), worst, float(defects[worst]))


def enumerate_path_distance(G, sigma, start, goal):
    """Shortest sigma-length over all simple paths, by exhaustive DFS."""
    if start == goal:
        return 0.0
    best = np.inf
    visited = [False] * G.n
    visited[start] = True

    def dfs(x, acc):
        nonlocal best
        if acc >= best:
            return
        for y in range(G.n):
            if visited[y] or G.weight(x, y) == 0:
                continue
            length = acc + sigma[(x, y)]
            if y == goal:
                best = min(best, length)
            else:
                visited[y] = True
                dfs(y, length)
                visited[y] = False

    dfs(start, 0.0)
    return best


def exhaustion_gap(G, members, B=None, alpha=1.0, dps=40):
    """||M^1/2 (R_N - R_D) M^-1/2||_2 on the vertex set `members`, at `dps` digits.

    Both Laplacians are assembled entry by entry: -b(x,y) Phi(x,y) between
    members, and on the diagonal W(x) (c(x) I without a bundle) plus b(x,y)
    for every edge at x (boundary-folding, D) or for the edges inside only
    (edge-dropping, N). M^1/2 R M^-1/2 = (M^-1/2 L M^-1/2 + alpha)^-1 is
    inverted and the two are subtracted in `dps`-digit arithmetic, so the
    difference keeps far more than double precision unless the gap is below
    10^-(dps-16) of the resolvents. The 2-norm is the largest |eigenvalue|
    of the Hermitian difference.
    """
    members = list(members)
    pos = {x: i for i, x in enumerate(members)}
    d = 1 if B is None else B.rank
    size = len(members) * d
    with mpmath.workdps(dps):
        root = [mpmath.sqrt(G.measure[x]) for x in members for _ in range(d)]

        def resolvent(fold):
            lap = mpmath.zeros(size, size)

            def add(i, j, b, block):
                for a in range(d):
                    for c in range(d):
                        lap[i * d + a, j * d + c] += (
                            mpmath.mpf(b) * mpmath.mpc(complex(block[a, c])))

            for i, x in enumerate(members):
                add(i, i, 1.0, G.killing[x] * np.eye(d) if B is None else B.endo[x])
                for y in range(G.n):
                    b = G.weight(x, y)
                    if b and (fold or y in pos):
                        add(i, i, b, np.eye(d))
                    if b and y in pos:
                        add(i, pos[y], -b, np.eye(d) if B is None else B.phi(x, y))
            for r in range(size):
                for c in range(size):
                    lap[r, c] /= root[r] * root[c]
                lap[r, r] += alpha
            return mpmath.inverse(lap)

        eig = mpmath.eighe(resolvent(False) - resolvent(True), eigvals_only=True)
        return float(max(abs(e) for e in eig))


def scalar_form_matrix(G):
    """The scalar form matrix, entry by entry: -b(x,y) off the diagonal and
    sum_y b(x,y) + c(x) on it."""
    L = np.zeros((G.n, G.n))
    for x in range(G.n):
        for y in range(G.n):
            if y != x:
                L[x, y] = -G.weight(x, y)
                L[x, x] += G.weight(x, y)
        L[x, x] += G.killing[x]
    return L


def beurling_deny_figures(L, measure, t_list, dps=30):
    """Beurling-Deny figures of the form L on the measure, from mpmath's expm.

    Form side: the largest off-diagonal entry of L, and the smallest row sum
    over the row's absolute sum. Semigroup side, over t in t_list, with
    S = expm(-t M^-1/2 L M^-1/2) at `dps` digits and the kernel
    K(x, y) = S(x, y) sqrt(m(y) / m(x)) of e^{-tA}: the smallest
    S(x, y) / sqrt(S(x, x) S(y, y)) over x != y, and the largest
    (sum_y K(x, y) - 1) / (1 + sum_y |K(x, y)|). An empty extremum is +-inf.
    scipy's double-precision expm cannot serve here: at a measure of 1e-150
    it returns NaN, and scaling and squaring by hand loses every digit of
    the slow modes.
    """
    n = len(measure)
    figures = {"max_off_diagonal": -np.inf, "min_kernel_ratio": np.inf,
               "min_row_ratio": np.inf, "max_row_excess": -np.inf}
    for x in range(n):
        total = sum(L[x, y] for y in range(n))
        scale = sum(abs(L[x, y]) for y in range(n))
        ratio = total / scale if scale > 0 else 0.0
        figures["min_row_ratio"] = min(figures["min_row_ratio"], ratio)
        for y in range(n):
            if y != x:
                figures["max_off_diagonal"] = max(figures["max_off_diagonal"], L[x, y])
    with mpmath.workdps(dps):
        root = [mpmath.sqrt(mpmath.mpf(m)) for m in measure]
        for t in t_list:
            H = mpmath.matrix(n, n)
            for x in range(n):
                for y in range(n):
                    H[x, y] = -mpmath.mpf(t) * mpmath.mpf(L[x, y]) / (root[x] * root[y])
            S = mpmath.expm(H)
            for x in range(n):
                K = [S[x, y] * root[y] / root[x] for y in range(n)]
                excess = (sum(K) - 1) / (1 + sum(abs(k) for k in K))
                figures["max_row_excess"] = max(figures["max_row_excess"], excess)
                for y in range(n):
                    if y != x:
                        ratio = S[x, y] / mpmath.sqrt(S[x, x] * S[y, y])
                        figures["min_kernel_ratio"] = min(
                            figures["min_kernel_ratio"], ratio)
    return {key: float(value) for key, value in figures.items()}


def _modes(L, m, u):
    """eigh(L, M), M = diag(m), in the vertex frame (L V = M V diag(lam),
    V* M V = I), and u's coordinates V* M u in it, in which the m-norm is
    the 2-norm."""
    lam, V = scipy.linalg.eigh(L, np.diag(m))
    return lam, V, V.conj().T @ (m * np.asarray(u))


def _m_norm(x, m):
    return float(np.sqrt(np.sum(m * np.abs(x) ** 2)))


def laplace_residual(L, m, u, alpha):
    """|int_0^inf e^{-alpha s} e^{-sA} u ds - (A + alpha)^-1 u|_m, A = M^-1 L:
    the integral mode by mode by QUADPACK (scipy's adaptive quad on the
    infinite interval), the resolvent by a dense solve of
    (L + alpha M) x = M u."""
    lam, V, c = _modes(L, m, u)
    integrals = np.array([
        quad(lambda s, rate=alpha + mu: np.exp(-rate * s), 0, np.inf,
             epsabs=0, epsrel=1e-13)[0] for mu in lam])
    resolvent = np.linalg.solve(L + alpha * np.diag(m), m * np.asarray(u))
    return _m_norm(V @ (integrals * c) - resolvent, m)


def euler_error(L, m, t, u, n):
    """|(I + (t/n) A)^-n u - e^{-tA} u|_m, A = M^-1 L, on eigh(L, M)'s modes."""
    lam, V, c = _modes(L, m, u)
    return _m_norm(V @ (((1.0 + t / n * lam) ** -n - np.exp(-t * lam)) * c), m)


def form_limit_defects(L, m, u, v, t_list):
    """|(1/t) <u - e^{-tA} u, v>_m - v* L u| for each t, on eigh(L, M)'s modes,
    with 1 - e^{-t lam} by expm1."""
    lam, V, cu = _modes(L, m, u)
    cv = V.conj().T @ (m * np.asarray(v))
    target = np.vdot(v, L @ u)
    return np.array([abs(np.sum(-np.expm1(-t * lam) * cu * cv.conj()) / t - target)
                     for t in t_list])
