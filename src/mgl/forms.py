"""Assembly of scalar and magnetic energy forms as Hermitian matrices.

Form-matrix blocks are written in one place, `_form_matrix`, from edge
arrays, potentials and a connection, as a sparse COO array: the two
assemblers densify it for FormOperator, the exhaustion experiment factors
it sparse for each subset's inner edges.

A FormOperator couples the form matrix L (so that Q(u, v) = <Lu, v> in the
unweighted pairing) with the diagonal measure matrix M. L is kept sparse,
as a CSR array: form values and every block a caller reads come from its
stored entries. The generator in the m-weighted inner product is
A = M^-1 L; it is diagonalized through the honest Hermitian matrix
M^-1/2 L M^-1/2, which is densified once, into the columns 1: of a zeroed
N x (N+1) buffer that its Householder reduction Q T Q* (?hetrd)
overwrites; the buffer's columns :-1 are then Q's reflectors as ?unmqr and
?ungqr read them. Each step is computed on first use and cached: the
reduction; T's eigensystem w, Z (dstevd), which gives the eigenvalues; and
the eigenvectors U = Q Z, built in the reduction's buffer, which then holds
U instead of the reflectors (where every reflector is the identity, U is
Z). The semigroup and the resolvent transform vectors only: they apply
Q* and Q from the reflectors (?unmqr) and Z by real products, and Q as
U Z^T only once U exists. The identity checks only project, w = Q* M^1/2 u
(`_project`), and apply no Q back; the form remembers its last projected
vector, so a check that projects the same u again applies no Q*. An owner
that needs no Q beyond that projection may drop the reflectors before
dstevd runs (`_release_reflectors`): the buffer is then freed, and any
later use of Q, U included, raises EigSolverFailure. So each form is
reduced once, whichever reads it first, U is built only where
`eigenvectors` is read (the domination verdicts, Beurling-Deny, the
reconstruction defect and the resolvent matrix), and callers that only
read L (form probes) never hold a dense N x N array. Instances are
immutable.
"""

from __future__ import annotations

import threading
from functools import cached_property

import numpy as np
from scipy.linalg import blas, lapack
from scipy.sparse import coo_array, csr_array

from .bundles import HermitianBundle, validate_bundle
from .errors import (
    AlphaInSpectrum,
    BundleInvalid,
    DimensionMismatch,
    EigSolverFailure,
    NegativeTime,
)
from .graphs import WeightedGraph

# Workspace per column of the matrix that ?hetrd reduces or that ?ungqr
# forms, so that both run blocked (?hetrd unless the matrix is already
# tridiagonal); half the rows of each panel of Q Z.
_EIGH_BLOCK = 64


def _lapack(routine, *args, **kwargs):
    """A LAPACK wrapper's outputs before info; EigSolverFailure if info != 0."""
    *out, info = routine(*args, **kwargs)
    if info != 0:
        raise EigSolverFailure(f"{routine.__name__} failed: LAPACK info = {info}")
    return out


def _gemm(a, b, trans_a=0, trans_b=0, out=None):
    """op(a) op(b) on scipy's BLAS (?gemm), where op is the identity (0), the
    transpose (1) or the conjugate transpose (2); a Fortran-ordered result,
    or the Fortran block `out`, overwritten with it.

    numpy's `@` runs on a second OpenBLAS runtime, whose idle threads,
    between scipy's LAPACK calls, cost up to 8 ms per switch on two cores;
    so every dense product on N-sized operands runs here. f2py copies an
    operand that is not Fortran-ordered: pass a C-ordered one as its
    transposed view, flipping trans. A real a times a complex b runs as two
    real products, one part at a time, so that a is not cast to complex.
    """
    if np.iscomplexobj(b) and not np.iscomplexobj(a):
        real = _gemm(a, b.real, trans_a, trans_b)
        if out is None:
            out = np.empty(real.shape, complex, order="F")
        out.real = real
        del real
        out.imag = _gemm(a, b.imag, trans_a, trans_b)
        if trans_b == 2:
            np.negative(out.imag, out=out.imag)
        return out
    gemm = blas.zgemm if np.iscomplexobj(a) else blas.dgemm
    if out is None:
        return gemm(1.0, a, b, trans_a=trans_a, trans_b=trans_b)
    return gemm(1.0, a, b, trans_a=trans_a, trans_b=trans_b, c=out, overwrite_c=1)


def _real_rows(x):
    """A Fortran-ordered (k, N) array as the real (2k, N) array of its real
    and imaginary parts, interleaved by row, without a copy; a real x as is."""
    return x.T.view(float).T


def _columns(x, dtype):
    """The (N, k) array x as Fortran-ordered columns of `dtype`: a complex
    column as two real ones, its real and imaginary parts, or two real
    columns as one complex column."""
    return np.asfortranarray(np.ascontiguousarray(x).view(dtype))


class FormOperator:
    """Hermitian form matrix with a measure-symmetrized eigensystem, computed
    on first use.

    Parameters
    ----------
    L : (N, N) dense array, Hermitian up to rounding; symmetrized on ingest
        and kept as a read-only CSR array, so the caller's array is not held
    measure : (n,) strictly positive vertex measures
    d : fiber dimension, with N = n * d (1 for scalar forms)

    Reading `eigenvalues` or `lower_bound` the first time runs the reduction
    and dstevd, and reading `eigenvectors` the first time also builds U; each
    raises EigSolverFailure if a step fails.
    """

    def __init__(self, L, measure, d=1):
        L = np.asarray(L)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise DimensionMismatch(f"form matrix must be square, got {L.shape}")
        measure = np.asarray(measure, dtype=float)
        if measure.ndim != 1 or (measure <= 0).any():
            raise DimensionMismatch("measure must be a strictly positive vector")
        if L.shape[0] != measure.size * d:
            raise DimensionMismatch(
                f"matrix size {L.shape[0]} != n*d = {measure.size * d}"
            )

        # Averaging with the adjoint makes L exactly Hermitian; the sparse
        # sum adds the same two entries as the dense one would.
        L = csr_array(L)
        self.L = (L + L.conj().T) * 0.5
        for part in (self.L.data, self.L.indices, self.L.indptr):
            part.setflags(write=False)
        self.measure = measure
        self.d = int(d)
        self.n = measure.size
        self.dim = L.shape[0]

        self.m_diag = np.repeat(measure, d)
        self.m_sqrt = np.sqrt(self.m_diag)
        self.m_isqrt = 1.0 / self.m_sqrt
        # Reentrant: `_apply_function` holds it across `_project` and
        # `_reflect`, which take it too.
        self._lock = threading.RLock()
        # The last single vector that `_project` took, scaled and cast, and
        # its projection.
        self._projection = None

    def _symmetrized(self):
        """M^-1/2 L M^-1/2, the Hermitian matrix that is reduced.

        Densified from L's entries into the columns 1: of a zeroed Fortran
        N x (N+1) buffer, which ?hetrd overwrites with the reflectors.
        """
        # L is exactly Hermitian; the scaling may leave the result off by an
        # ulp across the diagonal, which ?hetrd ignores: it reads one triangle.
        L = self.L.tocoo()
        a_sym = np.zeros((self.dim, self.dim + 1), L.dtype, order="F")[:, 1:]
        a_sym[L.row, L.col] = self.m_isqrt[L.row] * L.data * self.m_isqrt[L.col]
        return a_sym

    @cached_property
    def _tridiagonal(self):
        """Householder reduction M^-1/2 L M^-1/2 = Q T Q* (?hetrd, lower), in
        place: T's real diagonals (the subdiagonal is one 0 when T is 1 x 1,
        as the LAPACK wrappers that read it require). Q's reflectors stay in
        the buffer, which waits in `_householder`, with their tau, until
        `eigenvectors` takes it. ?hetrd leaves reflector i below the
        subdiagonal of column i, column i+1 of the buffer; so the buffer's
        columns :-1, with tau led by a 0 (the identity), are ?ungqr's
        reflectors for all N rows."""
        a = self._symmetrized()
        # LAPACK does not check its input.
        if not np.isfinite(a).all():
            raise EigSolverFailure("matrix to reduce to tridiagonal form is not finite")
        hetrd = lapack.zhetrd if np.iscomplexobj(a) else lapack.dsytrd
        # An already tridiagonal matrix (a path's scalar form) has identity
        # reflectors, which the unblocked reduction, run with lwork = N, skips;
        # the blocked one would still do its O(N^3) update.
        L = self.L.tocoo()
        tridiagonal = (np.abs(L.row - L.col) <= 1).all()
        lwork = self.dim if tridiagonal else _EIGH_BLOCK * self.dim
        c, d, e, tau = _lapack(hetrd, a, lower=1, lwork=lwork, overwrite_a=1)
        if c is not a:
            raise EigSolverFailure(f"{hetrd.__name__} copied its buffer")
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise EigSolverFailure("tridiagonal reduction has non-finite entries")
        self._householder = a.base[:, :-1], np.append(0, tau)
        return d, e if e.size else np.zeros(1)

    @cached_property
    def _eigensystem(self):
        """T = Z diag(w) Z^T by divide and conquer (dstevd): the eigenvalues
        and T's real, Fortran-ordered eigenvectors Z."""
        w, Z = _lapack(lapack.dstevd, *self._tridiagonal)
        if not np.isfinite(w).all():
            raise EigSolverFailure("eigendecomposition returned non-finite eigenvalues")
        w.setflags(write=False)
        Z.setflags(write=False)
        return w, Z

    @property
    def eigenvalues(self):
        return self._eigensystem[0]

    @property
    def eigenvectors(self):
        # Building U consumes the reflectors: one thread builds it, and a
        # concurrent first read waits for it.
        with self._lock:
            return self._eigenvectors

    @cached_property
    def _eigenvectors(self):
        """U = Q Z, built inside the reduction's buffer: ?ungqr turns the
        reflectors into Q there, then Q Z overwrites Q a panel of rows at a
        time. The buffer is taken from `_householder` first, so nothing reads
        it as reflectors again, and the remembered projection goes with it,
        so that Q* and Q are applied the same way. Where every tau is 0 (an
        already tridiagonal matrix with a real subdiagonal), Q = I and U is Z
        itself."""
        Z = self._eigensystem[1]
        try:
            q, tau = self.__dict__.pop("_householder")
        except KeyError:
            raise EigSolverFailure("the reflectors were released, or consumed by "
                                   "a failed eigenvector build") from None
        self._projection = None
        if not tau.any():
            return Z
        ungqr = lapack.zungqr if np.iscomplexobj(q) else lapack.dorgqr
        lwork = _EIGH_BLOCK * self.dim
        U = _lapack(ungqr, q, tau, lwork=lwork, overwrite_a=1)[0]
        if U is not q:
            raise EigSolverFailure(f"{ungqr.__name__} copied its buffer")
        # Each panel of rows is copied into a Fortran block and multiplied,
        # by ?gemm, into a second one. Z is real: a complex row enters as two
        # real rows, its real and imaginary parts. A panel has 2 _EIGH_BLOCK
        # rows, or N / 4 if fewer, so that the two blocks together stay within
        # the N^2 / 2 words of dstevd's workspace, which is freed by now.
        height = max(1, min(2 * _EIGH_BLOCK, self.dim // 4))
        blocks = np.empty((2, height * self.dim), U.dtype)
        for start in range(0, self.dim, height):
            rows = U[start : start + height]
            panel, out = (b[: rows.size].reshape(rows.shape, order="F") for b in blocks)
            panel[...] = rows
            blas.dgemm(1.0, _real_rows(panel), Z, c=_real_rows(out), overwrite_c=1)
            rows[...] = out
        U.setflags(write=False)
        return U

    def _reflect(self, x, adjoint):
        """Q* x (`adjoint`) or Q x, with Q from the reduction Q T Q*, for
        Fortran-ordered columns x of L's dtype, which may be overwritten.

        While the buffer still holds the reflectors, ?unmqr applies them, with
        the minimal workspace, so that it runs unblocked: a blocked call would
        first form a triangular factor per panel, which costs more than a
        few columns do. Once U is built, Q = U Z^T. Building U overwrites the
        reflectors, so a caller that applies Q* and then Q holds the lock
        across both, and both apply Q the same way. After
        `_release_reflectors`, with no U built, EigSolverFailure."""
        self._tridiagonal  # leaves the reflectors in `_householder`
        with self._lock:
            if "_householder" in self.__dict__:
                q, tau = self._householder
                unmqr = lapack.zunmqr if np.iscomplexobj(q) else lapack.dormqr
                trans = ("C" if np.iscomplexobj(q) else "T") if adjoint else "N"
                return _lapack(unmqr, "L", trans, q, tau, x, max(1, x.shape[1]),
                               overwrite_c=1)[0]
            U, Z = self._eigenvectors, self._eigensystem[1]
            if adjoint:
                return _gemm(Z, _gemm(U, x, trans_a=2))
            return _gemm(U, _gemm(Z, x, trans_a=1))

    def _project(self, u):
        """w = Q* M^1/2 u, a vector or an (N, k) batch u in T's coordinates,
        as Fortran-ordered real columns, a complex column entering as two,
        its real and imaginary parts. Q is unitary, so the m-norms and
        m-inner products of u are the 2-norms and inner products of w.

        The last single vector projected, (N,) or (N, 1), is remembered with
        its w: a vector of the same values and type gets a copy of that w,
        and no Q* is applied, also after `_release_reflectors`. Batches of
        k > 1 columns are never remembered."""
        u = self._check_vector(u)
        v = self.m_sqrt[:, None] * u.reshape(self.dim, -1)
        v = v.astype(np.result_type(self.L.dtype, v), copy=False)
        with self._lock:
            last = self._projection
            if (last is not None and last[0].dtype == v.dtype
                    and np.array_equal(last[0], v)):
                return np.array(last[1], order="F")
            # ?unmqr overwrites its columns, which may be v's own memory.
            key = v.copy() if v.shape[1] == 1 else None
            w = _columns(self._reflect(_columns(v, self.L.dtype), True), float)
            if key is not None:
                self._projection = key, np.array(w, order="F")
        return w

    def _release_reflectors(self):
        """Drops the reduction's reflectors, and with them the N x (N+1)
        buffer, unless U already holds it; the reduction runs first if it
        has not. Only the remembered projection (`_project`) still reads Q
        afterwards: `_reflect`, and so the semigroup and the resolvent, and
        the first read of `eigenvectors` raise EigSolverFailure. For an owner
        that projects one vector and then needs only T and its eigensystem,
        so that dstevd does not run beside the buffer."""
        self._tridiagonal  # a later first read would leave new reflectors
        with self._lock:
            self.__dict__.pop("_householder", None)

    @property
    def lower_bound(self) -> float:
        return float(self.eigenvalues[0])

    def _rounding_bound(self, scalars, slopes) -> float:
        """The eigensolver's error bound on U diag(f(mu)) U* in operator norm,
        for a spectral multiplier f with values `scalars` and absolute slopes
        `slopes` at the eigenvalues: N eps (2 max |f| + |mu|_max max |f'|).

        The reduction and dstevd are backward stable, so U is unitary to
        N eps and each eigenvalue is off by at most N eps |mu|_max, which
        moves f by that times its slope.
        """
        eps = self.dim * np.finfo(float).eps
        top = np.abs(self.eigenvalues).max()
        return float(eps * (2.0 * np.abs(scalars).max() + top * np.abs(slopes).max()))

    def reconstruction_defect(self) -> float:
        """Max-norm distance between U diag(mu) U* and the symmetrized matrix."""
        U, w = self.eigenvectors, self.eigenvalues
        defect = _gemm(U * w[None, :], U, trans_b=2) - self._symmetrized()
        return float(np.abs(defect).max())

    # -- form evaluation ---------------------------------------------------

    def _check_vector(self, u):
        u = np.asarray(u)
        if u.shape[0] != self.dim:
            raise DimensionMismatch(
                f"vector has leading dimension {u.shape[0]}, expected {self.dim}"
            )
        return u

    def evaluate(self, u, v):
        """Q(u, v) = <Lu, v>: linear in u, conjugate-linear in v.

        For (N, k) batches u and v it returns the (k,) array of the values
        Q(u_j, v_j) on paired columns.
        """
        u = self._check_vector(u)
        v = self._check_vector(v)
        if u.ndim == 1:
            return complex(np.vdot(v, self.L @ u))
        if u.shape != v.shape:
            raise DimensionMismatch(f"batches have shapes {u.shape} vs {v.shape}")
        return np.einsum("ij,ij->j", v.conj(), self.L @ u)

    # -- spectral calculus ---------------------------------------------------

    def _apply_function(self, scalars, u):
        """The spectral calculus M^-1/2 U diag(scalars) U* M^1/2 u, for a
        vector or an (N, k) batch u, as Q Z diag(scalars) Z^T Q*: U itself is
        not built for it."""
        Z = self._eigensystem[1]
        with self._lock:
            y = _gemm(Z, scalars[:, None] * _gemm(Z, self._project(u), trans_a=1))
            y = self._reflect(_columns(y, self.L.dtype), False)
        y = _columns(y, np.result_type(self.L.dtype, self.m_sqrt, u))
        return (self.m_isqrt[:, None] * y).reshape(u.shape)

    def _semigroup_multiplier(self, t):
        """exp(-t mu), the spectral multiplier of e^{-tA}."""
        if t < 0:
            raise NegativeTime(f"semigroup time must be nonnegative, got {t}")
        return np.exp(-t * self.eigenvalues)

    def semigroup(self, t, u):
        """e^{-tA} u via the cached spectral decomposition; exactly u at t = 0,
        where the spectrum is not read."""
        if t == 0:
            return np.array(self._check_vector(u), copy=True)
        scalars = self._semigroup_multiplier(t)
        return self._apply_function(scalars, self._check_vector(u))

    def _resolvent_multiplier(self, alpha):
        """1/(mu + alpha), the spectral multiplier of (A + alpha)^-1."""
        if alpha <= -self.lower_bound + 1e-12:
            raise AlphaInSpectrum(
                f"alpha = {alpha} is not strictly above -lambda_min = "
                f"{-self.lower_bound}"
            )
        return 1.0 / (self.eigenvalues + alpha)

    def resolvent(self, alpha, u):
        """(A + alpha)^-1 u for alpha strictly inside the resolvent set."""
        scalars = self._resolvent_multiplier(alpha)
        u = self._check_vector(u)
        return self._apply_function(scalars, u)

    def resolvent_matrix(self, alpha):
        """The matrix of (A + alpha)^-1, M^-1/2 U diag(1/(mu + alpha)) U* M^1/2."""
        U = self.eigenvectors
        core = _gemm(U * self._resolvent_multiplier(alpha)[None, :], U, trans_b=2)
        return self.m_isqrt[:, None] * core * self.m_sqrt[None, :]

    # -- m-weighted geometry -------------------------------------------------

    def inner(self, u, v):
        """m-weighted inner product on the flat space, conjugate in v."""
        return complex(np.sum(self.m_diag * np.asarray(u) * np.conj(v)))

    def norm(self, u):
        return float(np.sqrt(abs(self.inner(u, u).real)))

    def __repr__(self):
        return f"FormOperator(dim={self.dim}, d={self.d})"


def _form_matrix(n, edges, weights, potential, connection):
    """Form matrix on n vertices as a COO array, rows x d + j: the diagonal
    blocks (sum of incident weights) I + potential[x], the block -b Phi at
    each edge row (x, y) and its adjoint at (y, x), each d x d block stored
    whole and once (so there are no duplicate entries). Real when both
    inputs are."""
    d = potential.shape[-1]
    degree = np.bincount(edges.ravel(), weights=np.repeat(weights, 2), minlength=n)
    upper = -weights[:, None, None] * connection
    blocks = np.concatenate([degree[:, None, None] * np.eye(d) + potential,
                             upper, upper.conj().transpose(0, 2, 1)])
    v, (x, y) = np.arange(n), edges.T
    fiber = np.arange(d)
    rows = np.concatenate([v, x, y])[:, None, None] * d + fiber[:, None]
    cols = np.concatenate([v, y, x])[:, None, None] * d + fiber[None, :]
    rows, cols = (np.broadcast_to(ix, blocks.shape).ravel() for ix in (rows, cols))
    return coo_array((blocks.ravel(), (rows, cols)), shape=(n * d, n * d))


def _check_bundle(G: WeightedGraph, B: HermitianBundle):
    """DimensionMismatch unless B is over G; BundleInvalid unless it validates."""
    if B.graph is not G:
        raise DimensionMismatch("bundle is defined over a different graph")
    report = validate_bundle(B)
    if not report["ok"]:
        raise BundleInvalid(
            f"bundle failed validation (worst unitarity defect "
            f"{report['worst_unitarity_defect']:.3g} at edge {report['worst_edge']}; "
            f"min endo eigenvalue {report['min_endo_eigenvalue']:.3g})"
        )


def assemble_scalar_form(G: WeightedGraph) -> FormOperator:
    """Form matrix of the scalar energy with killing term.

    Q(u, v) = 1/2 sum_{x,y} b(x,y)(u(x)-u(y))(conj v(x)-conj v(y))
              + sum_x c(x) u(x) conj v(x),
    realized as L = diag(row sums + c) - (weight matrix).
    """
    unit = np.ones((len(G.edges), 1, 1))
    # FormOperator takes a dense L: mglbench/spans.py reads its len().
    L = _form_matrix(G.n, G.edges, G.weights, G.killing[:, None, None], unit).toarray()
    return FormOperator(L, G.measure, d=1)


def assemble_magnetic_form(G: WeightedGraph, B: HermitianBundle) -> FormOperator:
    """Block form matrix of the bundle energy with endomorphism term.

    Diagonal blocks are (sum_y b(x,y)) I + W(x); the block at (x, y) is
    -b(x,y) Phi_{x,y}. The quadratic form equals
    1/2 sum_{x,y} b(x,y) |u(x) - Phi_{x,y} u(y)|^2 + sum_x <W(x)u(x), u(x)>.
    """
    _check_bundle(G, B)
    L = _form_matrix(G.n, G.edges, G.weights, B.endo, B.connection).toarray()
    return FormOperator(L, G.measure, d=B.rank)
