"""Order operations in the weighted orthant of l2(X, m).

Positive/negative parts (the orthogonal decomposition g = g+ - g-),
lattice sup/inf via the absolute-value identity, and the exact metric
projection onto the set of pairs (section, bound) whose pointwise fiber
norm is dominated by the bound. All operations are pure; the vertex
measure only enters through inner products, never through the clamps.
"""

from __future__ import annotations

import numpy as np

from .bundles import HermitianBundle, pair, symmetrize
from .errors import ComplexInput, DimensionMismatch


def _require_real(g) -> np.ndarray:
    arr = np.asarray(g)
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise ComplexInput("input must be real-valued")
        arr = arr.real
    return np.asarray(arr, dtype=float)


def _real_pair(f, g):
    f = _require_real(f)
    g = _require_real(g)
    if f.shape != g.shape:
        raise DimensionMismatch(f"shapes differ: {f.shape} vs {g.shape}")
    return f, g


def positive_part(g) -> np.ndarray:
    """Componentwise max(g, 0)."""
    return np.maximum(_require_real(g), 0.0)


def negative_part(g) -> np.ndarray:
    """Componentwise max(-g, 0), so that g = positive_part - negative_part."""
    return np.maximum(-_require_real(g), 0.0)


def absolute_part(g) -> np.ndarray:
    """|g| = positive_part(g) + negative_part(g)."""
    g = _require_real(g)
    return np.maximum(g, 0.0) + np.maximum(-g, 0.0)


def lattice_sup(f, g) -> np.ndarray:
    """Lattice supremum (f + g + |f - g|) / 2, the componentwise max."""
    f, g = _real_pair(f, g)
    return 0.5 * (f + g + np.abs(f - g))


def lattice_inf(f, g) -> np.ndarray:
    """Lattice infimum (f + g - |f - g|) / 2, the componentwise min."""
    f, g = _real_pair(f, g)
    return 0.5 * (f + g - np.abs(f - g))


def project_domination_set(f1, g, B: HermitianBundle):
    """Metric projection of (f1, g) onto {(u, v) : |u(x)| <= v(x) for all x}.

    Uses the exact lattice formula: the projected section is half the
    section paired to (min(S(f1), g) + S(f1))^+, and the projected bound
    is half of (max(S(f1), g) + g)^+. The constraint and the squared distance
    both decompose over vertices, so the measure drops out. Where
    0 <= g <= S(f1) this is the half-sum ((f1 + f2)/2, (S(f1) + g)/2), f2 the
    section paired to g.
    """
    g = _require_real(g)
    f1 = B.check_section(f1)
    s = symmetrize(f1, B)
    magnitudes = positive_part(lattice_inf(s, g) + s)
    f_hat = 0.5 * pair(f1, magnitudes, B)
    g_hat = 0.5 * positive_part(lattice_sup(s, g) + g)
    return f_hat, g_hat
