import itertools
import json
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array

import fixtures
import oracles
from mgl import forms
from mgl import (
    FormOperator,
    HermitianBundle,
    WeightedGraph,
    assemble_magnetic_form,
    assemble_scalar_form,
    restrict_dirichlet,
)
from mgl.cli import run
from mgl.errors import BundleInvalid, DimensionMismatch, EigSolverFailure


def test_scalar_assembly_examples():
    np.testing.assert_array_equal(
        assemble_scalar_form(fixtures.p2()).L.toarray(), [[1.0, -1.0], [-1.0, 1.0]]
    )
    np.testing.assert_array_equal(
        assemble_scalar_form(fixtures.single_vertex(5.0)).L.toarray(), [[5.0]]
    )
    restricted = restrict_dirichlet(fixtures.p3(), [0, 1])
    np.testing.assert_array_equal(
        assemble_scalar_form(restricted).L.toarray(), [[1.0, -1.0], [-1.0, 2.0]]
    )


def test_scalar_assembly_vs_double_sum():
    rng = np.random.default_rng(61)
    for g in fixtures.fixture_graphs().values():
        F = assemble_scalar_form(g)
        for _ in range(10):
            u = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            v = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            direct = oracles.scalar_form_value(g, u, v)
            scale = max(1.0, abs(direct))
            assert abs(F.evaluate(u, v) - direct) <= 1e-12 * scale


def test_magnetic_assembly_antipodal_p2():
    g = fixtures.p2()
    A = assemble_magnetic_form(g, fixtures.phase_bundle(g, np.pi))
    np.testing.assert_allclose(A.L.toarray(), [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)
    ones = np.array([1.0, 1.0])
    assert A.evaluate(ones, ones).real == pytest.approx(4.0)


def test_magnetic_phase_quadratic_values():
    g = fixtures.p2()
    ones = np.array([1.0, 1.0], dtype=complex)
    for theta in (0.0, np.pi / 2, np.pi):
        A = assemble_magnetic_form(g, fixtures.phase_bundle(g, theta))
        expected = 2.0 - 2.0 * np.cos(theta)
        assert A.evaluate(ones, ones).real == pytest.approx(expected, abs=1e-12)
        assert A.evaluate(ones, ones).real == pytest.approx(
            oracles.magnetic_form_value(g, fixtures.phase_bundle(g, theta), ones[:, None]),
            abs=1e-12,
        )


def test_trivial_bundle_reduces_to_scalar():
    g = fixtures.path8_weighted()
    d = 2
    A = assemble_magnetic_form(
        g, HermitianBundle(g, d, {}, g.killing[:, None, None] * np.eye(d))
    )
    B = assemble_scalar_form(g)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        emb = np.zeros((g.n, d), dtype=complex)
        emb[:, 0] = u
        emb = emb.reshape(-1)
        assert A.evaluate(emb, emb).real == pytest.approx(B.evaluate(u, u).real, rel=1e-12)


def test_magnetic_assembly_vs_double_sum():
    rng = np.random.default_rng(62)
    g = fixtures.random_graph()
    bundle = fixtures.random_bundle(g, 2, rng)
    A = assemble_magnetic_form(g, bundle)
    for _ in range(100):
        u = fixtures.random_section(g.n, 2, rng)
        direct = oracles.magnetic_form_value(g, bundle, u)
        u = u.reshape(-1)
        got = A.evaluate(u, u).real
        assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))


def test_magnetic_rejects_invalid_bundle():
    g = fixtures.p2()
    bad = HermitianBundle(g, 2, {(0, 1): np.diag([1.0, 2.0])})
    with pytest.raises(BundleInvalid):
        assemble_magnetic_form(g, bad)
    with pytest.raises(DimensionMismatch):
        assemble_magnetic_form(fixtures.p3(), HermitianBundle(g, 1))


def test_evaluate_form_examples():
    F = assemble_scalar_form(fixtures.p2())
    assert F.evaluate([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert F.evaluate([0.0, 0.0], [1.0, 2.0]) == 0.0
    with pytest.raises(DimensionMismatch):
        F.evaluate([1.0, 0.0, 0.0], [1.0, 0.0])


def test_evaluate_form_conjugate_symmetry_and_reality():
    rng = np.random.default_rng(64)
    g = fixtures.random_graph()
    bundle = fixtures.random_bundle(g, 2, rng)
    A = assemble_magnetic_form(g, bundle)
    assert np.abs(A.L.toarray() - A.L.toarray().conj().T).max() <= 1e-12
    for _ in range(20):
        u = fixtures.random_section(g.n, 2, rng).reshape(-1)
        v = fixtures.random_section(g.n, 2, rng).reshape(-1)
        quv = A.evaluate(u, v)
        qvu = A.evaluate(v, u)
        assert abs(quv - np.conj(qvu)) <= 1e-12 * max(1.0, abs(quv))
        quu = A.evaluate(u, u)
        assert abs(quu.imag) <= 1e-12 * max(1.0, abs(quu))
        # Lower-bound inequality from the cached spectrum.
        assert quu.real >= A.lower_bound * A.norm(u) ** 2 - 1e-10


def test_generator_eigenvalue_examples():
    F = assemble_scalar_form(fixtures.p2())
    np.testing.assert_allclose(F.eigenvalues, [0.0, 2.0], atol=1e-12)

    heavy = WeightedGraph(2, {(0, 1): 1.0}, measure=[2.0, 2.0])
    np.testing.assert_allclose(
        assemble_scalar_form(heavy).eigenvalues, [0.0, 1.0], atol=1e-12
    )

    g = fixtures.p2()
    A = assemble_magnetic_form(g, fixtures.phase_bundle(g, np.pi))
    np.testing.assert_allclose(A.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_generator_pairing_and_reconstruction():
    rng = np.random.default_rng(65)
    for g in fixtures.fixture_graphs().values():
        F = assemble_scalar_form(g)
        assert (np.diff(F.eigenvalues) >= -1e-14).all()
        assert F.reconstruction_defect() <= 1e-10
        for _ in range(5):
            u = rng.standard_normal(g.n)
            v = rng.standard_normal(g.n)
            lhs = F.inner(oracles.scalar_generator_apply(g, u), v)
            rhs = F.evaluate(u, v)
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_gauge_invariance():
    # Conjugating the connection and the endomorphism by per-vertex
    # unitaries while rotating the section leaves the energy unchanged.
    rng = np.random.default_rng(66)
    g = fixtures.random_graph()
    d = 2
    bundle = fixtures.random_bundle(g, d, rng)
    A = assemble_magnetic_form(g, bundle)
    gauges = [fixtures.random_unitary(d, rng) for _ in range(g.n)]
    conn = {
        (x, y): gauges[x] @ bundle.phi(x, y) @ gauges[y].conj().T
        for (x, y) in g.edges
    }
    endo = np.stack(
        [gauges[x] @ bundle.endo[x] @ gauges[x].conj().T for x in range(g.n)]
    )
    A_gauged = assemble_magnetic_form(g, HermitianBundle(g, d, conn, endo))
    for _ in range(20):
        u = fixtures.random_section(g.n, d, rng)
        rotated = np.stack([gauges[x] @ u[x] for x in range(g.n)])
        u, rotated = u.reshape(-1), rotated.reshape(-1)
        q0 = A.evaluate(u, u).real
        q1 = A_gauged.evaluate(rotated, rotated).real
        assert abs(q1 - q0) <= 1e-11 * max(1.0, abs(q0))


def test_diamagnetic_form_inequality():
    # With W(x) >= c(x) I the bundle energy dominates the scalar energy of
    # the pointwise norms.
    rng = np.random.default_rng(67)
    for seed in range(10):
        G, bundle = fixtures.diamagnetic_instance(seed, n_max=20, d_max=3)
        A = assemble_magnetic_form(G, bundle)
        B = assemble_scalar_form(G)
        assert A.lower_bound >= -1e-10
        assert B.lower_bound >= -1e-10
        for _ in range(10):
            u = fixtures.random_section(G.n, bundle.rank, rng)
            mags = np.linalg.norm(u, axis=1)
            u = u.reshape(-1)
            assert A.evaluate(u, u).real >= B.evaluate(mags, mags).real - 1e-10


def test_spectrum_is_computed_on_first_read(monkeypatch):
    calls = fixtures.counting_lapack(monkeypatch, ("zhetrd", "dsytrd"))
    g = fixtures.random_graph()
    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(69))
    A = assemble_magnetic_form(g, bundle)
    u = np.ones(A.dim)
    repr(A)
    A.evaluate(u, u)
    assert calls == []
    assert A.lower_bound == A.eigenvalues[0]
    assert A.eigenvectors.shape == (A.dim, A.dim)
    assert calls == [("zhetrd", (A.dim, A.dim))]
    assert A.reconstruction_defect() <= 1e-12

    def failing(d, e, **kwargs):
        # What LAPACK returns when divide and conquer does not converge.
        return d, np.eye(len(d)), 1

    monkeypatch.setattr(forms.lapack, "dstevd", failing)
    B = assemble_scalar_form(g)
    ones = np.ones(g.n)
    assert B.evaluate(ones, ones).real == pytest.approx(g.killing.sum(), rel=1e-12)
    with pytest.raises(EigSolverFailure, match="info = 1"):
        B.lower_bound


def test_lapack_eigensystem_matches_numpy():
    # The eigensystem (?hetrd, dstevd, then U = Q Z from ?ungqr's Q) against
    # the independent np.linalg.eigh on the fixture set, plus a complex form
    # with N = 300 and a real one with N = 320, large enough that ?ungqr runs
    # blocked and Q Z takes several row panels for both dtypes.
    rng = np.random.default_rng(71)
    forms_ = []
    for g in fixtures.fixture_graphs().values():
        forms_.append(assemble_scalar_form(g))
        forms_ += [
            assemble_magnetic_form(g, fixtures.random_bundle(g, d, rng))
            for d in (1, 3)
        ]
    big = fixtures.random_graph(n=100)
    forms_.append(assemble_magnetic_form(big, fixtures.random_bundle(big, 3, rng)))
    assert forms_[-1].dim == 300 and np.iscomplexobj(forms_[-1].L)
    forms_.append(assemble_scalar_form(fixtures.random_graph(n=320)))
    assert forms_[-1].dim == 320 and not np.iscomplexobj(forms_[-1].L)
    for F in forms_:
        w, U = F.eigenvalues, F.eigenvectors
        expected = np.linalg.eigh(F._symmetrized())[0]
        assert np.abs(w - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
        assert np.abs(U.conj().T @ U - np.eye(F.dim)).max() <= 1e-12
        assert F.reconstruction_defect() <= 1e-12


def test_nonfinite_form_fails_at_the_first_spectral_read(monkeypatch):
    # LAPACK does not check its input: a NaN or infinity in L must raise
    # EigSolverFailure before any LAPACK call, while the form itself, which
    # needs no spectrum, still evaluates (to the non-finite value).
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on a non-finite matrix")

    g = fixtures.p3()
    ones = np.ones(3)
    with monkeypatch.context() as patch:
        for name in ("dsytrd", "zhetrd", "dstevd"):
            patch.setattr(forms.lapack, name, refuse)
        for dtype, bad in ((float, np.nan), (float, np.inf), (complex, np.nan)):
            L = assemble_scalar_form(g).L.toarray().astype(dtype)
            L[1, 1] = bad
            F = FormOperator(L, g.measure)
            assert not np.isfinite(F.evaluate(ones, ones).real)
            with pytest.raises(EigSolverFailure):
                F.eigenvalues
    # A finite form whose T is finite but whose top eigenvalue, 8e307 times
    # 1 + sqrt(2), overflows fails after dstevd.
    calls = fixtures.counting_lapack(monkeypatch, ("dstevd",))
    for dtype in (float, complex):
        L = 8e307 * (np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1)).astype(dtype)
        F = FormOperator(L, np.ones(3))
        with pytest.raises(EigSolverFailure, match="non-finite eigenvalues"):
            F.eigenvalues
    assert len(calls) == 2


def test_gemm_matches_numpy():
    # op(a) op(b) on scipy's BLAS against numpy's `@`, for real, complex and
    # mixed operands in either memory order, every op, and single columns.
    rng = np.random.default_rng(89)
    ops = {0: lambda x: x, 1: lambda x: x.T, 2: lambda x: x.conj().T}

    def draw(shape, dtype, order, trans):
        x = rng.standard_normal(shape[::-1] if trans else shape)
        if dtype is complex:
            x = x + 1j * rng.standard_normal(x.shape)
        return np.asarray(x, order=order)

    types = (float, complex)
    cases = itertools.product(types, types, "CF", ops, ops, (1, 6))
    for a_type, b_type, order, trans_a, trans_b, k in cases:
        a = draw((7, 30), a_type, order, trans_a)
        b = draw((30, k), b_type, order, trans_b)
        c = forms._gemm(a, b, trans_a, trans_b)
        ref = ops[trans_a](a) @ ops[trans_b](b)
        assert c.shape == (7, k) and c.flags.f_contiguous
        assert np.iscomplexobj(c) == np.iscomplexobj(ref)
        assert np.abs(c - ref).max() <= 1e-13 * np.abs(ref).max()


def test_gemm_copies_no_fortran_operand():
    # f2py copies an operand that is not Fortran-ordered; a C-ordered one
    # passed as its transposed view, and a real a against a complex b, are
    # not copied. Only the (N, 2) result and b's parts are allocated.
    rng = np.random.default_rng(97)
    a = np.asfortranarray(fixtures.random_section(400, 400, rng))
    b = np.asfortranarray(fixtures.random_section(400, 2, rng))
    real = np.asfortranarray(a.real)
    for args in ((a, b), (a, b, 2), (np.ascontiguousarray(a).T, b, 1), (real, b),
                 (np.ascontiguousarray(real).T, b, 1), (real, b.real)):
        tracemalloc.start()
        forms._gemm(*args)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < args[0].nbytes / 10


def test_evaluate_batches_match_columns():
    # (N, k) batches give the (k,) values Q(u_j, v_j) of paired columns.
    rng = np.random.default_rng(57)
    for g in fixtures.fixture_graphs().values():
        forms = [assemble_scalar_form(g)] + [
            assemble_magnetic_form(g, fixtures.random_bundle(g, d, rng))
            for d in (1, 2, 3)
        ]
        for F in forms:
            u, v = rng.standard_normal((2, F.dim, 4)) + 1j * rng.standard_normal(
                (2, F.dim, 4)
            )
            columns = np.array([F.evaluate(u[:, j], v[:, j]) for j in range(4)])
            quads = np.array([F.evaluate(u[:, j], u[:, j]).real for j in range(4)])
            batch = F.evaluate(u, v)
            assert batch.shape == (4,)
            assert (np.abs(batch - columns) <= 1e-12 * np.maximum(1, abs(columns))).all()
            batch = F.evaluate(u, u).real
            assert (np.abs(batch - quads) <= 1e-12 * np.maximum(1, abs(quads))).all()
    with pytest.raises(DimensionMismatch):
        F.evaluate(u, v[:, :3])


def test_form_matrix_is_sparse_and_the_eigensystem_fits_its_memory_budget():
    # L keeps only the assembled entries: the n diagonal blocks and both
    # orientations of every edge block, and no dense N x N array outlives
    # assembly. A cold eigensystem then holds at most the reduction buffer,
    # T's real eigenvectors Z and dstevd's workspace, 2.0 complex N^2 words,
    # and keeps U, which is the buffer, and Z: 1.5.
    rng = np.random.default_rng(75)
    g = fixtures.random_graph(n=150, density=0.05, seed=76)
    bundle = fixtures.random_bundle(g, 3, rng)
    tracemalloc.start()
    try:
        F = assemble_magnetic_form(g, bundle)
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        F.eigenvectors
        held, peak = (size - kept for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    square = 16 * F.dim**2  # bytes of one complex N x N array
    assert F.dim == 450 and isinstance(F.L, csr_array)
    assert F.L.nnz == (g.n + 2 * len(g.edges)) * 9
    assert kept <= 0.1 * square
    assert peak <= 2.1 * square
    assert held <= 1.55 * square


def _spy(monkeypatch, names, record):
    """Patch each named LAPACK wrapper to call record(args, outputs) per call."""
    for name in names:
        routine = getattr(forms.lapack, name)

        def spy(*args, _routine=routine, **kwargs):
            out = _routine(*args, **kwargs)
            record(args, out)
            return out

        monkeypatch.setattr(forms.lapack, name, spy)


def _reduced_forms():
    g = fixtures.random_graph()
    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(81))
    return assemble_scalar_form(g), assemble_magnetic_form(g, bundle)


def test_back_transform_overwrites_its_own_buffer(monkeypatch):
    # U is the very buffer that ?hetrd overwrote with the reflectors: ?ungqr
    # forms Q there and Q Z overwrites it, so U costs no N x N copy. The
    # buffer is then no longer at hand as reflectors.
    written = []
    _spy(monkeypatch, ("zhetrd", "dsytrd"), lambda args, out: written.append(out[0]))
    for F in _reduced_forms():
        F.eigenvalues
        assert hasattr(F, "_householder")
        U = F.eigenvectors
        assert np.shares_memory(U, written[-1]) and U.flags.f_contiguous
        assert U.shape == (F.dim, F.dim) and not hasattr(F, "_householder")
        assert not U.flags.writeable
    assert len(written) == 2


def test_q_is_formed_only_where_eigenvectors_are_read(monkeypatch, tmp_path):
    # semigroup-id applies Q* from its reflectors (?unmqr) for the identities
    # and forms it (?ungqr) only for the scalar form's Beurling-Deny kernel,
    # never for the magnetic form; dominate forms Q once per form, and
    # spectrum, which reads no eigenvector, never does. Neither applies Q
    # from its reflectors. The graph is not a path, so that both forms have
    # Q != I.
    calls = fixtures.counting_lapack(monkeypatch, ("zungqr", "dorgqr"))
    reflections = fixtures.counting_lapack(monkeypatch, ("zunmqr", "dormqr"))
    graph_doc, bundle_doc = fixtures.killing_without_endo_docs(n=20, d=2)
    specs = []
    for flag, doc in (("--graph", graph_doc), ("--bundle", bundle_doc)):
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        specs += [flag, str(path)]
    specs += ["--out", str(tmp_path / "r.json")]
    n = graph_doc["n"]
    scalar, magnetic = ("dorgqr", (n, n)), ("zungqr", (2 * n, 2 * n))
    for argv, formed, reflected in (
        (["semigroup-id"], [scalar], {"zunmqr", "dormqr"}),
        (["dominate", "--samples", "10"], [scalar, magnetic], set()),
        (["spectrum"], [], set()),
    ):
        calls.clear()
        reflections.clear()
        assert run([*argv, *specs]) == 0
        assert sorted(calls) == formed
        assert {name for name, _ in reflections} == reflected


def test_a_failed_eigenvector_build_is_not_run_again(monkeypatch):
    # ?ungqr may have overwritten the reflectors before it failed: a second
    # read of `eigenvectors` must not build U from what is left of them.
    def failing(a, tau, **kwargs):
        return a, None, -1

    F = _reduced_forms()[0]
    with monkeypatch.context() as patch:
        patch.setattr(forms.lapack, "dorgqr", failing)
        with pytest.raises(EigSolverFailure, match="info = -1"):
            F.eigenvectors
    with pytest.raises(EigSolverFailure, match="consumed by a failed eigenvector"):
        F.eigenvectors
    assert F.lower_bound == F.eigenvalues[0]


def test_a_remembered_projection_outlives_released_reflectors(monkeypatch):
    # The last single vector projected, (N,) or (N, 1), is remembered with its
    # w. After `_release_reflectors` it still projects, to a copy of w bit for
    # bit and with no ?unmqr; every other use of Q raises EigSolverFailure,
    # never a KeyError or a stale result. A batch is never remembered, not
    # even its columns one by one. The eigenvalues are still read.
    calls = fixtures.counting_lapack(monkeypatch, ("zunmqr", "dormqr"))
    rng = np.random.default_rng(88)
    for F in _reduced_forms():
        u = rng.standard_normal(F.dim)
        if np.iscomplexobj(F.L):
            u = u + 1j * rng.standard_normal(F.dim)
        batch = rng.standard_normal((F.dim, 2))
        w = F._project(u)
        F._project(batch)
        assert len(calls) == 2
        F._release_reflectors()
        assert "_householder" not in F.__dict__
        for again in (u, u.copy(), u[:, None]):
            got = F._project(again)
            assert got.tobytes() == w.tobytes() and got.flags.f_contiguous
            got[...] = 0  # a copy: the remembered w stays
        assert len(calls) == 2
        other = u.copy()
        other[-1] += 1.0
        refused = [other, batch, batch[:, :1], batch[:, 1]]
        if not np.iscomplexobj(F.L):
            refused.append(u + 0j)  # the same values, projected as two columns
        for vector in refused:
            with pytest.raises(EigSolverFailure, match="released"):
                F._project(vector)
        for read in (lambda: F.eigenvectors, lambda: F.semigroup(0.3, u),
                     lambda: F.resolvent(1.0, u), lambda: F.eigenvectors):
            with pytest.raises(EigSolverFailure, match="released"):
                read()
        u[0] += 1.0  # the same array, changed in place
        with pytest.raises(EigSolverFailure, match="released"):
            F._project(u)
        assert len(calls) == 2 and F.lower_bound == F.eigenvalues[0]
        calls.clear()
    # Released before any spectral read, the reduction runs first, so that no
    # later read leaves new reflectors.
    F = _reduced_forms()[1]
    F._release_reflectors()
    assert F.eigenvalues.size == F.dim
    with pytest.raises(EigSolverFailure, match="released"):
        F.eigenvectors


def test_reflectors_are_read_where_the_reduction_wrote_them(monkeypatch):
    # ?ungqr reads Q's reflectors from the very buffer that ?hetrd overwrote,
    # not from a copy of them, and forms Q there.
    written, read = [], []
    _spy(monkeypatch, ("zhetrd", "dsytrd"), lambda args, out: written.append(out[0]))
    _spy(monkeypatch, ("zungqr", "dorgqr"),
         lambda args, out: read.append((args[0], out[0])))
    for F in _reduced_forms():
        F.eigenvectors
        reflectors, q = read[-1]
        assert reflectors.shape == (F.dim, F.dim) and q is reflectors
        assert np.shares_memory(reflectors, written[-1])
    assert len(written) == len(read) == 2


def test_spectrum_forms_no_eigenvectors(monkeypatch):
    # The eigenvalues are dstevd's alone: reading them, or lower_bound,
    # forms no Q and no U, and leaves the reflectors in the buffer.
    def refuse(*args, **kwargs):
        raise AssertionError("Q was formed for the eigenvalues")

    for name in ("zungqr", "dorgqr"):
        monkeypatch.setattr(forms.lapack, name, refuse)
    for F in _reduced_forms():
        assert F.lower_bound == F.eigenvalues[0]
        assert "_eigenvectors" not in F.__dict__ and hasattr(F, "_householder")


def test_concurrent_first_reads_share_one_eigenvector_build():
    # Building U consumes the reflectors: first reads of `eigenvectors` from
    # several threads get the one U that a single build made. A semigroup
    # applied while U is built either reads the reflectors before the build
    # takes them, or U after it: it returns one of the two sequential
    # results, bit for bit. ?unmqr and ?ungqr release the GIL, and on N = 400
    # the build takes long enough for them to overlap.
    g = fixtures.random_graph(n=200, density=0.02, seed=85)
    bundle = fixtures.random_bundle(g, 2, np.random.default_rng(86))
    before, after, *racing = (assemble_magnetic_form(g, bundle) for _ in range(10))
    u = np.random.default_rng(87).standard_normal((before.dim, 64))
    before.eigenvalues
    after.eigenvectors
    sequential = [before.semigroup(0.3, u), after.semigroup(0.3, u)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for F in [F for _ in range(3) for F in _reduced_forms()]:
            F.eigenvalues
            built = []
            threads = [threading.Thread(target=lambda: built.append(F.eigenvectors))
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(built) == 4 and all(U is built[0] for U in built)
            assert F.reconstruction_defect() <= 1e-12
        for F in racing:
            F.eigenvalues
            applied = []
            threads = [
                threading.Thread(target=lambda: applied.append(F.semigroup(0.3, u))),
                threading.Thread(target=lambda: F.eigenvectors),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert any(np.array_equal(applied[0], result) for result in sequential)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_projections_are_each_their_own_vector():
    # Threads projecting different single vectors through one form share its
    # remembered projection: each gets its own vector's w, bit for bit, never
    # a w remembered for another vector.
    F = _reduced_forms()[1]
    vectors = np.random.default_rng(89).standard_normal((6, F.dim))
    expected = [F._project(v).tobytes() for v in vectors]
    wrong = []

    def project(i):
        for _ in range(40):
            if F._project(vectors[i]).tobytes() != expected[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=project, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_reduction_overwrites_its_own_buffer():
    # The reduction holds the one N x (N+1) buffer that ?hetrd overwrites,
    # plus its workspace and a finiteness mask: no second N x N array.
    rng = np.random.default_rng(75)
    g = fixtures.random_graph(n=150, density=0.05, seed=76)
    F = assemble_magnetic_form(g, fixtures.random_bundle(g, 3, rng))
    tracemalloc.start()
    try:
        F._tridiagonal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.dim == 450
    assert peak <= 1.3 * 16 * F.dim**2


def test_tridiagonal_matrices_are_reduced_unblocked(monkeypatch):
    # A path's scalar form is already tridiagonal: ?hetrd gets lwork = N, so
    # that it runs unblocked and skips its identity reflectors (every tau is
    # 0), where the blocked reduction would still do its O(N^3) update. A
    # wider band, as a path's rank-2 form or a random graph has, gets the
    # blocked workspace. The eigenvalues match numpy's either way.
    lworks = []
    for name in ("zhetrd", "dsytrd"):
        routine = getattr(forms.lapack, name)

        def recording(*args, _routine=routine, **kwargs):
            lworks.append(kwargs["lwork"])
            return _routine(*args, **kwargs)

        monkeypatch.setattr(forms.lapack, name, recording)
    n = 200
    rng = np.random.default_rng(83)
    path = WeightedGraph(n, {(x, x + 1): 0.5 + rng.random() for x in range(n - 1)},
                         killing=rng.random(n), measure=0.5 + rng.random(n))
    cases = [
        (assemble_scalar_form(path), n),
        (assemble_magnetic_form(path, fixtures.random_bundle(path, 2, rng)),
         forms._EIGH_BLOCK * 2 * n),
        (assemble_scalar_form(fixtures.random_graph(n=n)), forms._EIGH_BLOCK * n),
    ]
    for F, lwork in cases:
        expected = np.linalg.eigvalsh(F._symmetrized())
        assert np.abs(F.eigenvalues - expected).max() <= 1e-12 * np.abs(expected).max()
        assert lworks.pop() == lwork and not lworks
    assert not cases[0][0]._householder[1].any()


def test_eigenvectors_of_an_unreflected_matrix_are_z(monkeypatch):
    # Where every tau of the reduction is 0 (a path's scalar form), Q = I and
    # U is dstevd's Z itself: ?ungqr and the Q Z panels are skipped. A random
    # graph, and a rank-1 path whose non-real phases ?hetrd rotates away
    # (tau != 0), still form Q.
    calls = fixtures.counting_lapack(monkeypatch, ("zungqr", "dorgqr"))
    n = 60
    rng = np.random.default_rng(19)
    path = WeightedGraph(n, {(x, x + 1): 0.5 + rng.random() for x in range(n - 1)},
                         killing=rng.random(n), measure=0.5 + rng.random(n))
    cases = [
        (assemble_scalar_form(path), []),
        (assemble_scalar_form(fixtures.random_graph(n=n)), ["dorgqr"]),
        (assemble_magnetic_form(path, fixtures.phase_bundle(path, 0.7)), ["zungqr"]),
    ]
    for F, expected in cases:
        U, Z = F.eigenvectors, F._eigensystem[1]
        assert [name for name, _ in calls] == expected
        assert "_householder" not in F.__dict__
        assert np.shares_memory(U, Z) == (not expected)
        defect = F.reconstruction_defect()
        assert defect <= 1e-12 * np.abs(F.eigenvalues).max(), defect
        calls.clear()


def test_csr_route_matches_the_dense_route(monkeypatch):
    # On the fixture set (scalar, ranks 1-3), M^-1/2 L M^-1/2 densified from
    # the CSR entries has the bits of the dense route applied to the
    # assembled matrix, (M^-1/2 ((L + L*) / 2)) M^-1/2, so the eigenvalues are
    # the same bits. U = Q Z, with Q applied to all N rows of Z, led by an
    # identity reflector, equals Q applied to the rows 1: of Z to 1e-14.
    assembled = []
    init = FormOperator.__init__

    def recording(self, L, *args, **kwargs):
        assembled.append(np.array(L))
        init(self, L, *args, **kwargs)

    monkeypatch.setattr(FormOperator, "__init__", recording)
    rng = np.random.default_rng(79)
    for g in fixtures.fixture_graphs().values():
        for d in (0, 1, 2, 3):
            F = (assemble_magnetic_form(g, fixtures.random_bundle(g, d, rng))
                 if d else assemble_scalar_form(g))
            L = assembled[-1]
            L = L + L.conj().T
            L *= 0.5
            dense = np.multiply(F.m_isqrt[:, None], L, order="F")
            dense *= F.m_isqrt[None, :]
            assert F._symmetrized().tobytes() == dense.tobytes()

            hetrd = forms.lapack.zhetrd if d else forms.lapack.dsytrd
            lwork = forms._EIGH_BLOCK * F.dim
            c, diag, off, tau = hetrd(dense, lower=1, lwork=lwork)[:4]
            w, Z = forms.lapack.dstevd(diag, off if off.size else np.zeros(1))[:2]
            assert F.eigenvalues.tobytes() == w.tobytes()
            U = Z.astype(c.dtype, order="F")
            if tau.size:
                unmqr = forms.lapack.zunmqr if d else forms.lapack.dormqr
                U[1:] = unmqr("L", "N", c[1:, :-1], tau, U[1:], lwork)[0]
            assert np.abs(F.eigenvectors - U).max() <= 1e-14


@pytest.mark.parametrize("L, measure, d, fragment", [
    (np.zeros((2, 3)), [1.0, 1.0], 1, "form matrix must be square, got (2, 3)"),
    (np.eye(2), [1.0, 0.0], 1, "measure must be a strictly positive vector"),
    (np.eye(3), [1.0, 1.0], 1, "matrix size 3 != n*d = 2"),
    (np.eye(2), [1.0, 1.0], 2, "matrix size 2 != n*d = 4"),
], ids=["non-square", "zero-measure", "size", "size-rank-2"])
def test_form_operator_refuses_inconsistent_shapes(L, measure, d, fragment):
    with pytest.raises(DimensionMismatch, match=re.escape(fragment)):
        FormOperator(L, measure, d=d)
