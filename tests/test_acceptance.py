"""Acceptance criteria, one test per criterion, one printed line each.

Expected values come from the independent oracles in oracles.py or from
closed forms frozen in the module tests; tolerances are pinned here and
never relaxed at runtime.
"""

import numpy as np
import pytest

import fixtures
from fixtures import ConeContext
import oracles
from mgl import (
    HermitianBundle,
    EdgeLengths,
    WeightedGraph,
    assemble_magnetic_form,
    assemble_scalar_form,
    beurling_deny_check,
    check_form_domination,
    check_resolvent_domination,
    check_semigroup_domination,
    diamagnetic_report,
    euler_limit_check,
    form_limit_check,
    laplace_check,
    negative_part,
    pair,
    path_metric,
    positive_part,
    project_domination_set,
    symmetrize,
)
from mgl.cli import run
from mgl.forms import FormOperator
from mgl.metrics import (
    degree_edge_lengths,
    exhaustion_uniqueness_experiment,
    is_intrinsic,
    is_strongly_intrinsic,
)
from mgl.serialize import dump_report


def _criterion(num, name, ok, extra=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def diamagnetic_family():
    """100 seeded random instances with W = cI + PSD, reports cached."""
    reports = []
    for seed in range(100):
        G, bundle = fixtures.diamagnetic_instance(seed, n_max=60, d_max=3)
        reports.append(diamagnetic_report(G, bundle, samples=100, seed=seed))
    return reports


def test_criterion_1_moreau_exactness():
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        g = WeightedGraph(n, {}, None, 0.1 + rng.random(n) * 5)
        ctx = ConeContext(g)
        vec = rng.standard_normal(n) * rng.lognormal(0, 1.5)
        h1, h2 = positive_part(vec), negative_part(vec)
        ok &= bool((vec == h1 - h2).all())
        ok &= ctx.inner(h1, h2) == 0.0
        ok &= h1.tobytes() == oracles.clamp_positive(vec).tobytes()
    _criterion(1, "positive-part decomposition exactness (1000 vectors)", ok)


def test_criterion_2_projection_vs_oracle():
    rng = np.random.default_rng(1002)
    worst_oracle = 0.0
    worst_idem = 0.0
    worst_vi = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 3))
        g = WeightedGraph(n, {}, None, 0.5 + rng.random(n))
        ctx = ConeContext(g)
        bundle = HermitianBundle(g, d)
        f1 = fixtures.random_section(n, d, rng)
        gv = rng.standard_normal(n) * 2.0

        f_hat, g_hat = project_domination_set(f1, gv, bundle)
        fo, go = oracles.project_domination_oracle(f1, gv)
        worst_oracle = max(
            worst_oracle, np.abs(f_hat - fo).max(), np.abs(g_hat - go).max()
        )

        f2, g2 = project_domination_set(f_hat, g_hat, bundle)
        worst_idem = max(
            worst_idem, np.abs(f2 - f_hat).max(), np.abs(g2 - g_hat).max()
        )

        for _ in range(100):
            u = fixtures.random_section(n, d, rng)
            v = symmetrize(u, bundle) + np.abs(rng.standard_normal(n))
            value = ctx.product_inner(
                (f1 - f_hat, gv - g_hat), (u - f_hat, v - g_hat)
            ).real
            worst_vi = min(worst_vi, -value)
    ok = worst_oracle <= 1e-8 and worst_idem <= 1e-12 and worst_vi >= -1e-9
    _criterion(
        2,
        "domination-set projection vs oracle (200 instances)",
        ok,
        f"oracle diff {worst_oracle:.2e}, idem {worst_idem:.2e}, "
        f"VI slack {worst_vi:.2e}",
    )


def test_criterion_3_diamagnetic_domination(diamagnetic_family):
    worst = min(
        min(r["semigroup"]["slack"], r["resolvent"]["slack"], r["form"]["slack"])
        for r in diamagnetic_family
    )
    ok = all(
        r["hypothesis"]["passed"]
        and r["semigroup"]["passed"]
        and r["resolvent"]["passed"]
        and r["form"]["passed"]
        for r in diamagnetic_family
    )
    ok &= worst >= -1e-9
    _criterion(
        3,
        "diamagnetic domination on 100 random instances",
        ok,
        f"worst slack {worst:.2e}",
    )


def test_criterion_4_three_way_consistency(diamagnetic_family):
    agree_pass = all(r["verdicts_agree"] and r["consistent"]
                     for r in diamagnetic_family)

    counter_ok = True
    worst_violation = 0.0
    for seed in range(20):
        G2, bundle2, G = fixtures.doubled_pair(seed)
        A = assemble_magnetic_form(G2, bundle2)
        B = assemble_scalar_form(G)
        rng = np.random.default_rng(2000 + seed)
        sem = check_semigroup_domination(A, B, rng=rng)
        res = check_resolvent_domination(A, B, rng=rng)
        frm = check_form_domination(A, B, bundle2, rng=rng)
        counter_ok &= not sem["passed"] and not res["passed"] and not frm["passed"]
        counter_ok &= frm["slack"] <= -1e-2
        worst_violation = max(worst_violation, -frm["slack"])

    # The hand-derived P2 witness: Re a(e0, e1) = -2 < b(e0, e1) = -1.
    g = fixtures.p2()
    g2 = WeightedGraph(2, {(0, 1): 2.0})
    A = assemble_magnetic_form(g2, HermitianBundle(g2, 1))
    B = assemble_scalar_form(g)
    e0 = np.array([1.0 + 0j, 0.0])
    e1 = np.array([0.0 + 0j, 1.0])
    witness_ok = (
        abs(A.evaluate(e0, e1).real - (-2.0)) <= 1e-12
        and abs(B.evaluate(e0.real, e1.real).real - (-1.0)) <= 1e-12
    )

    ok = agree_pass and counter_ok and witness_ok
    _criterion(
        4,
        "three-way verdict agreement incl. 20 counterexample pairs",
        ok,
        f"max form violation {worst_violation:.2e}",
    )


def _identity_forms():
    forms = {
        name: assemble_scalar_form(g)
        for name, g in fixtures.fixture_graphs().items()
    }
    g = fixtures.p2()
    forms["p2_antipodal"] = assemble_magnetic_form(g, fixtures.phase_bundle(g, np.pi))
    rg = fixtures.random_graph()
    forms["random12_rank2"] = assemble_magnetic_form(
        rg, fixtures.random_bundle(rg, 2, np.random.default_rng(14))
    )
    return forms


def test_criterion_5_analytic_identities():
    rng = np.random.default_rng(1005)
    laplace_ok = euler_ok = limit_ok = True
    worst_laplace = 0.0
    for name, F in _identity_forms().items():
        u = rng.standard_normal(F.dim)
        if np.iscomplexobj(F.L):
            u = u + 1j * rng.standard_normal(F.dim)
        u = u / F.norm(u)

        for alpha in (0.5, 2.0):
            res = laplace_check(F, alpha, u)
            worst_laplace = max(worst_laplace, res)
            laplace_ok &= res <= 1e-6

        radius = max(abs(F.eigenvalues[0]), abs(F.eigenvalues[-1]), 1e-9)
        t = min(1.0, 10.0 / radius)
        errs = {n: euler_limit_check(F, t, u, n) for n in (256, 512, 1024, 4096)}
        for n in (256, 512):
            if errs[n] > 1e-12:
                euler_ok &= errs[2 * n] <= 0.75 * errs[n]
        euler_ok &= errs[4096] <= 1e-3

        v = rng.standard_normal(F.dim)
        if np.iscomplexobj(F.L):
            v = v + 1j * rng.standard_normal(F.dim)
        t0 = 1e-3 / radius
        defects = form_limit_check(F, u, v, [t0, t0 / 2])
        if defects[0] > 1e-13:
            limit_ok &= 0.35 <= defects[1] / defects[0] <= 0.65

    ok = laplace_ok and euler_ok and limit_ok
    _criterion(
        5,
        "Laplace / Euler / form-limit identities on the fixture set",
        ok,
        f"worst Laplace residual {worst_laplace:.2e}",
    )


def test_criterion_6_beurling_deny():
    ok = True
    for name, g in fixtures.fixture_graphs().items():
        criteria = beurling_deny_check(assemble_scalar_form(g))
        for criterion in criteria.values():
            ok &= criterion["form_ok"] and criterion["semigroup_ok"]
        ok &= criteria["positivity"]["max_off_diagonal"] <= 0
        ok &= criteria["positivity"]["min_kernel_ratio"] >= -1e-10

    F = assemble_scalar_form(fixtures.p2())
    perturbed = FormOperator(
        F.L.toarray() + np.array([[0.0, 1.5], [1.5, 0.0]]), F.measure
    )
    bad = beurling_deny_check(perturbed)["positivity"]
    ok &= (not bad["semigroup_ok"]) and (not bad["form_ok"])
    _criterion(6, "exact Beurling-Deny criteria, form and semigroup sides agree", ok)


def test_criterion_7_intrinsic_metrics():
    strong_ok = implication_ok = enumeration_ok = True
    for name, g in fixtures.zero_killing_graphs().items():
        if len(g.edges) == 0:
            continue
        strong_ok &= is_strongly_intrinsic(g, degree_edge_lengths(g))

    rng = np.random.default_rng(1007)
    for name, g in fixtures.fixture_graphs().items():
        if len(g.edges) == 0:
            continue
        for sigma in (
            degree_edge_lengths(g),
            EdgeLengths(g, {(x, y): 0.1 + 0.4 * rng.random() for x, y in g.edges}),
        ):
            if is_strongly_intrinsic(g, sigma):
                implication_ok &= is_intrinsic(g, path_metric(g, sigma))

        if g.n <= 8:
            sigma = EdgeLengths(g, {(x, y): 0.2 + rng.random() for x, y in g.edges})
            d = path_metric(g, sigma)
            for x in range(g.n):
                for y in range(g.n):
                    expected = oracles.enumerate_path_distance(g, sigma, x, y)
                    if np.isinf(expected):
                        enumeration_ok &= bool(np.isinf(d[x, y]))
                    else:
                        enumeration_ok &= abs(d[x, y] - expected) <= 1e-12
    ok = strong_ok and implication_ok and enumeration_ok
    _criterion(7, "intrinsic-metric suite (degree lengths, implication, paths)", ok)


def test_criterion_8_exhaustion_regression():
    g = fixtures.path50_graph()
    bundle = fixtures.path50_bundle(g, seed=42)
    subsets = [list(range(10 * k)) for k in range(1, 6)]
    report1 = exhaustion_uniqueness_experiment(g, bundle, subsets)
    report2 = exhaustion_uniqueness_experiment(g, bundle, subsets)

    scalar = np.array([row["scalar"] for row in report1["gaps"]])
    magnetic = np.array([row["magnetic"] for row in report1["gaps"]])
    ok = bool((np.diff(scalar) < 0).all())
    ok &= bool((np.diff(magnetic) < 0).all())
    ok &= scalar[-1] <= 1e-12 and magnetic[-1] <= 1e-12
    ok &= dump_report(report1) == dump_report(report2)
    _criterion(
        8,
        "exhaustion gap table (strict decrease, zero tail, byte-stable)",
        ok,
        "scalar gaps " + " > ".join(f"{v:.2e}" for v in scalar),
    )


def test_criterion_9_symmetrization_properties():
    rng = np.random.default_rng(1009)
    worst = np.inf
    abs_diff_worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 4))
        g = WeightedGraph(n, {}, None, 0.5 + rng.random(n))
        ctx = ConeContext(g)
        bundle = HermitianBundle(g, d)
        f1 = fixtures.random_section(n, d, rng)
        f2 = fixtures.random_section(n, d, rng)
        s1 = symmetrize(f1, bundle)
        s2 = symmetrize(f2, bundle)

        # Cauchy-Schwarz compatibility of the symmetrization.
        worst = min(
            worst, ctx.inner(s1, s2).real - abs(ctx.section_inner(f1, f2))
        )
        # Triangle inequality against a nonnegative test function.
        gfun = np.abs(rng.standard_normal(n))
        worst = min(
            worst,
            ctx.inner(s1 + s2 - symmetrize(f1 + f2, bundle), gfun).real,
        )
        # Positive homogeneity.
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        hom = np.abs(symmetrize(alpha * f1, bundle) - abs(alpha) * s1).max()
        assert hom <= 1e-14 * max(1.0, abs(alpha) * np.abs(f1).max())
        # Lipschitz.
        worst = min(
            worst, ctx.section_norm(f1 - f2) - ctx.norm(s1 - s2)
        )
        # Magnitude-difference identity on paired pairs.
        gv = rng.random(n) * s1
        f2p = pair(f1, gv, bundle)
        abs_diff_worst = max(
            abs_diff_worst,
            np.abs(symmetrize(f1 - f2p, bundle) - (s1 - gv)).max(),
        )
    ok = worst >= -1e-12 and abs_diff_worst <= 1e-10
    _criterion(
        9,
        "symmetrization properties on 1000 random section pairs",
        ok,
        f"worst slack {worst:.2e}, abs-diff defect {abs_diff_worst:.2e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    import json

    graph_doc, bundle_doc = fixtures.diamagnetic_docs()
    graph_spec = tmp_path / "graph.json"
    bundle_spec = tmp_path / "bundle.json"
    graph_spec.write_text(json.dumps(graph_doc), encoding="utf-8")
    bundle_spec.write_text(json.dumps(bundle_doc), encoding="utf-8")

    ok = True
    outs = []
    for i in range(2):
        out = tmp_path / f"dom{i}.json"
        code = run(
            ["dominate", "--graph", str(graph_spec), "--bundle", str(bundle_spec),
             "--samples", "50", "--seed", "11", "--out", str(out)]
        )
        ok &= code == 0
        outs.append(out.read_bytes())
    ok &= outs[0] == outs[1]

    g = fixtures.path50_graph()
    doc = {
        "n": 50,
        "edges": [
            {"u": x, "v": y, "b": b}
            for (x, y), b in zip(g.edges.tolist(), g.weights.tolist())
        ],
    }
    path_spec = tmp_path / "path50.json"
    path_spec.write_text(json.dumps(doc), encoding="utf-8")
    uouts = []
    for i in range(2):
        out = tmp_path / f"uni{i}.json"
        code = run(
            ["uniqueness", "--graph", str(path_spec), "--omega", "10,20,30,40,50",
             "--out", str(out)]
        )
        ok &= code == 0
        uouts.append(out.read_bytes())
    ok &= uouts[0] == uouts[1]
    _criterion(10, "CLI dominate/uniqueness byte-identical reruns", ok)
