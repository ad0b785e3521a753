"""Command-line front end: load specs, run verifier suites, emit JSON reports.

Commands: validate, dominate, uniqueness, spectrum, semigroup-id. JSON is
the single machine-readable output; the one-line text summaries printed to
stderr are derived from it. Exit codes: 0 success/consistent, 1 verified
failure with witness (the report is written), 2 input error (no report),
which includes a spec that violates a graph or bundle axiom and a
resolvent shift inside the spectrum.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import domination, spectral
from .bundles import load_bundle, trivial_bundle, validate_bundle
from .domination import diamagnetic_report
from .errors import (
    AlphaInSpectrum,
    BundleInvalid,
    InvariantError,
    MglError,
    SchemaError,
)
from .forms import assemble_magnetic_form, assemble_scalar_form
from .graphs import DENSE_DIM_BOUND, load_graph
from .metrics import exhaustion_uniqueness_experiment
from .serialize import dump_report

# The range of each numeric flag: a test on one value, and the rule it states.
_FLAG_RANGES = {
    "t": (lambda v: 0 <= v < np.inf, "finite and >= 0"),
    "alpha": (lambda v: 0 < v < np.inf, "finite and > 0"),
    "samples": (lambda v: 1 <= v <= DENSE_DIM_BOUND, f"in 1..{DENSE_DIM_BOUND}"),
    "seed": (lambda v: v >= 0, ">= 0"),
    "tol_domination": (lambda v: 0 < v < np.inf, "finite and > 0"),
}


def _check_flags(args) -> None:
    """SchemaError naming the first flag the command declares whose value
    (or, for a list flag, some value) is out of its range."""
    for dest, (ok, rule) in _FLAG_RANGES.items():
        value = getattr(args, dest, ())
        values = value if isinstance(value, tuple) else (value,)
        bad = [v for v in values if not ok(v)]
        if bad:
            flag = "--" + dest.replace("_", "-")
            raise SchemaError(f"{flag} must be {rule}, got {bad}")


def _list_of(cast):
    """argparse type: a comma-separated list of `cast` values, as a tuple."""
    def parse(text):
        try:
            return tuple(cast(v) for v in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {cast.__name__}s: {text}"
            ) from exc
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgl",
        description="Magnetic graph form verifiers (domination, uniqueness, spectra).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    floats = _list_of(float)
    options = {
        "--t": dict(type=floats, default=domination.DEFAULT_T_GRID,
                    help="comma-separated semigroup times"),
        "--alpha": dict(type=floats, default=domination.DEFAULT_ALPHA_GRID,
                        help="comma-separated resolvent shifts"),
        "--samples": dict(type=int, default=100),
        "--seed": dict(type=int, default=42, help="sampling seed"),
        "--tol-domination": dict(type=float, default=domination.DOMINATION_TOL),
        "--omega": dict(type=_list_of(int), default=None,
                        help="comma-separated prefix sizes of the exhaustion"),
    }
    # Each command declares --graph, --bundle and --out, plus the flags it reads.
    for name, summary, flags in (
        ("validate", "check graph/bundle specs", ()),
        ("dominate", "three-level domination report",
         ("--t", "--alpha", "--samples", "--seed", "--tol-domination")),
        ("uniqueness", "exhaustion gap table", ("--omega",)),
        ("spectrum", "sorted generator eigenvalues", ()),
        ("semigroup-id", "Laplace/Euler/form-limit identities, Beurling-Deny",
         ("--alpha", "--seed")),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--graph", required=True, help="path to a graph-spec JSON file")
        p.add_argument("--bundle", required=name == "dominate", default=None,
                       help="path to a bundle-spec JSON file")
        p.add_argument("--out", default=None, help="write the JSON report here")
        for flag in flags:
            p.add_argument(flag, **options[flag])
    return parser


def _emit(args, report: dict) -> None:
    text = dump_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


def _load_specs(args):
    """The graph and the bundle (None without --bundle), both read before any
    form is built, so that every spec error, the size guard included, comes
    first."""
    graph = load_graph(args.graph)
    if not args.bundle:
        return graph, None
    return graph, load_bundle(graph, args.bundle)


def cmd_validate(args) -> int:
    graph, bundle = _load_specs(args)
    report = {"graph": {"ok": True, "n": graph.n, "edges": len(graph.edges)}}
    code = 0
    if bundle is not None:
        check = validate_bundle(bundle)
        worst_edge, worst_defect = check.worst_edge()
        report["bundle"] = {
            "ok": check.ok,
            "rank": bundle.rank,
            "worst_unitarity_defect": worst_defect,
            "worst_edge": list(worst_edge) if worst_edge else None,
            "min_endo_eigenvalue": float(check.endo_min_eigs.min()),
            "max_endo_hermiticity_defect": float(check.endo_herm_defects.max()),
        }
        if not check.ok:
            code = 1
    _emit(args, report)
    _summary(f"validate: {'PASS' if code == 0 else 'FAIL'}")
    return code


def cmd_dominate(args) -> int:
    graph, bundle = _load_specs(args)
    result = diamagnetic_report(
        graph,
        bundle,
        t_list=args.t,
        alpha_list=args.alpha,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol_domination,
    )
    report = result.to_report()
    _emit(args, report)
    for key in ("form", "resolvent", "semigroup"):
        verdict = report[key]
        _summary(f"{key}: {'PASS' if verdict['passed'] else 'FAIL'} "
                 f"(slack={verdict['slack']:.3e})")
    _summary(f"consistent: {report['consistent']}")
    return 0 if report["consistent"] else 1


def cmd_uniqueness(args) -> int:
    graph, bundle = _load_specs(args)
    if bundle is None:
        bundle = trivial_bundle(graph)
    sizes = args.omega
    if not sizes:
        sizes = sorted({max(1, round(graph.n * k / 5)) for k in range(1, 6)})
    bad = [size for size in sizes if not 1 <= size <= graph.n]
    if bad:
        raise SchemaError(f"--omega sizes must lie in 1..{graph.n}, got {bad}")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise SchemaError(
            f"--omega sizes must be strictly increasing, got {list(sizes)}"
        )
    subsets = [list(range(size)) for size in sizes]
    result = exhaustion_uniqueness_experiment(graph, bundle, subsets)
    report = result.to_report()
    report["metadata"] = {"omega_sizes": list(sizes)}
    _emit(args, report)
    for row in report["gaps"]:
        _summary(
            f"k={row['k']}: scalar gap {row['scalar']:.3e}, "
            f"magnetic gap {row['magnetic']:.3e}"
        )
    return 0


def cmd_spectrum(args) -> int:
    graph, bundle = _load_specs(args)
    scalar = assemble_scalar_form(graph)
    report = {"scalar": scalar.eigenvalues}
    if bundle is not None:
        report["magnetic"] = assemble_magnetic_form(graph, bundle).eigenvalues
    _emit(args, report)
    _summary("scalar: " + ", ".join(f"{v:.6g}" for v in scalar.eigenvalues))
    if "magnetic" in report:
        _summary("magnetic: " + ", ".join(f"{v:.6g}" for v in report["magnetic"]))
    return 0


def _identity_suite(form, alphas, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(form.dim)
    if np.iscomplexobj(form.L):
        u = u + 1j * rng.standard_normal(form.dim)
    norm_u = form.norm(u)
    radius = max(abs(form.eigenvalues[0]), abs(form.eigenvalues[-1]), 1e-12)

    floor = spectral._laplace_floor(form)
    kept = [alpha for alpha in alphas if alpha > floor]
    if not kept:
        raise SchemaError(
            f"no --alpha value exceeds the Laplace-check floor {floor:.6g}; "
            f"filtered: {list(alphas)}"
        )
    laplace = {str(alpha): spectral.laplace_check(form, alpha, u) for alpha in kept}
    laplace_ok = all(r <= 1e-6 * norm_u for r in laplace.values())

    t = min(1.0, 10.0 / radius)
    errors = {n: spectral.euler_limit_check(form, t, u, n) for n in (256, 512, 4096)}
    euler_ok = (
        errors[512] <= 0.75 * errors[256] + 1e-15
        and errors[4096] <= 1e-3 * norm_u
    )

    t0 = 1e-3 / radius
    defects = spectral.form_limit_check(form, u, u, [t0, t0 / 2])
    ratio = defects[1] / defects[0] if defects[0] > 1e-13 else 0.5
    form_limit_ok = 0.35 <= ratio <= 0.65 or defects[0] <= 1e-13

    return {
        "laplace_residuals": laplace,
        "laplace_ok": laplace_ok,
        "euler_errors": {str(k): v for k, v in errors.items()},
        "euler_ok": euler_ok,
        "form_limit_defects": list(defects),
        "form_limit_ratio": ratio,
        "form_limit_ok": form_limit_ok,
    }


def cmd_semigroup_id(args) -> int:
    graph, bundle = _load_specs(args)
    report = {}
    if bundle is not None:
        report["magnetic"] = _identity_suite(
            assemble_magnetic_form(graph, bundle), args.alpha, args.seed
        )
    # The scalar form is built after the magnetic one is freed, so that at
    # most one spectrum is held at a time.
    scalar = assemble_scalar_form(graph)
    report["scalar"] = _identity_suite(scalar, args.alpha, args.seed)
    # load_graph refuses b < 0 and c < 0: only the semigroup side can fail.
    criteria = report["scalar"]["beurling_deny"] = spectral.beurling_deny_check(scalar)
    ok = all(
        section[flag]
        for section in report.values()
        for flag in ("laplace_ok", "euler_ok", "form_limit_ok")
    ) and criteria["markov"]["semigroup_ok"]
    report["ok"] = ok
    _emit(args, report)
    _summary(f"semigroup identities: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


COMMANDS = {
    "validate": cmd_validate,
    "dominate": cmd_dominate,
    "uniqueness": cmd_uniqueness,
    "spectrum": cmd_spectrum,
    "semigroup-id": cmd_semigroup_id,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return COMMANDS[args.command](args)
    except (SchemaError, InvariantError, BundleInvalid, AlphaInSpectrum,
            OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MglError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
