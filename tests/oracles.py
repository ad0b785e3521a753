"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's assembled matrices and
closed-form lattice formulas: forms are evaluated by literal double sums,
clamps by explicit per-entry branches, the domination-set projection by
per-vertex KKT bisection, shortest paths by exhaustive enumeration,
exhaustion gaps by 40-digit resolvents, and semigroup kernels by a 30-digit
matrix exponential instead of an eigendecomposition.
"""

from __future__ import annotations

import mpmath
import numpy as np


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
