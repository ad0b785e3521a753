"""Command-line front end: load specs, run verifier suites, emit JSON reports.

Commands: validate, dominate, uniqueness, spectrum, semigroup-id. JSON is
the single machine-readable output; the one-line text summaries printed to
stderr are derived from it. Exit codes: 0 success/consistent, 1 verified
failure with witness, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import domination, spectral
from .bundles import load_bundle, trivial_bundle, validate_bundle
from .domination import diamagnetic_report
from .errors import MglError, SchemaError
from .forms import assemble_magnetic_form, assemble_scalar_form
from .graphs import load_graph
from .metrics import exhaustion_uniqueness_experiment
from .serialize import dump_report

DEFAULT_SEED = 42


@dataclass
class RunConfig:
    """Parsed invocation: file paths, grids, sampling, and tolerances."""

    command: str
    graph_path: str
    bundle_path: str | None
    t_grid: tuple
    alpha_grid: tuple
    samples: int
    seed: int
    output_path: str | None
    tol_domination: float
    omega_sizes: tuple | None

    def __post_init__(self):
        if not self.t_grid or not self.alpha_grid:
            raise SchemaError("parameter grids must be nonempty")
        if not 0 < self.tol_domination < np.inf:
            raise SchemaError(
                f"--tol-domination must be finite and > 0, got {self.tol_domination}"
            )
        if self.seed < 0:
            raise SchemaError(f"--seed (or MGL_SEED) must be >= 0, got {self.seed}")
        if self.samples < 1:
            raise SchemaError(f"--samples must be >= 1, got {self.samples}")
        bad_t = [t for t in self.t_grid if not 0 <= t < np.inf]
        if bad_t:
            raise SchemaError(f"--t values must be finite and >= 0, got {bad_t}")
        bad_alpha = [a for a in self.alpha_grid if not 0 < a < np.inf]
        if bad_alpha:
            raise SchemaError(
                f"--alpha values must be finite and > 0, got {bad_alpha}"
            )


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

    def common(p, bundle_required=False):
        p.add_argument("--graph", required=True, help="path to a graph-spec JSON file")
        p.add_argument(
            "--bundle",
            required=bundle_required,
            default=None,
            help="path to a bundle-spec JSON file",
        )
        floats = _list_of(float)
        p.add_argument("--t", type=floats, default=domination.DEFAULT_T_GRID,
                       help="comma-separated semigroup times")
        p.add_argument("--alpha", type=floats, default=domination.DEFAULT_ALPHA_GRID,
                       help="comma-separated resolvent shifts")
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int, default=None,
                       help="sampling seed (default: MGL_SEED env var or 42)")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--tol-domination", type=float, default=domination.DOMINATION_TOL)

    common(sub.add_parser("validate", help="check graph/bundle specs"))
    common(sub.add_parser("dominate", help="three-level domination report"),
           bundle_required=True)
    p_uni = sub.add_parser("uniqueness", help="exhaustion gap table")
    common(p_uni)
    p_uni.add_argument("--omega", type=_list_of(int), default=None,
                       help="comma-separated prefix sizes of the exhaustion")
    common(sub.add_parser("spectrum", help="sorted generator eigenvalues"))
    common(sub.add_parser("semigroup-id", help="Laplace/Euler/form-limit identities"))
    return parser


def config_from_args(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        env = os.environ.get("MGL_SEED")
        if env is None:
            seed = DEFAULT_SEED
        else:
            try:
                seed = int(env)
            except ValueError as exc:
                raise SchemaError(f"MGL_SEED must be an integer, got {env!r}") from exc
    return RunConfig(
        command=args.command,
        graph_path=args.graph,
        bundle_path=args.bundle,
        t_grid=args.t,
        alpha_grid=args.alpha,
        samples=args.samples,
        seed=seed,
        output_path=args.out,
        tol_domination=args.tol_domination,
        omega_sizes=getattr(args, "omega", None),
    )


def _emit(config: RunConfig, report: dict) -> None:
    text = dump_report(report)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


def _load_specs(config: RunConfig):
    """The graph and the bundle (None without --bundle), both read before any
    form is built, so that every spec error, the size guard included, comes
    first."""
    graph = load_graph(config.graph_path)
    if not config.bundle_path:
        return graph, None
    return graph, load_bundle(graph, config.bundle_path)


def cmd_validate(config: RunConfig) -> int:
    graph, bundle = _load_specs(config)
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
    _emit(config, report)
    _summary(f"validate: {'PASS' if code == 0 else 'FAIL'}")
    return code


def cmd_dominate(config: RunConfig) -> int:
    graph, bundle = _load_specs(config)
    result = diamagnetic_report(
        graph,
        bundle,
        t_list=config.t_grid,
        alpha_list=config.alpha_grid,
        samples=config.samples,
        seed=config.seed,
        tol=config.tol_domination,
    )
    report = result.to_report()
    _emit(config, report)
    for key in ("form", "resolvent", "semigroup"):
        verdict = report[key]
        _summary(f"{key}: {'PASS' if verdict['passed'] else 'FAIL'} "
                 f"(slack={verdict['slack']:.3e})")
    _summary(f"consistent: {report['consistent']}")
    return 0 if report["consistent"] else 1


def cmd_uniqueness(config: RunConfig) -> int:
    graph, bundle = _load_specs(config)
    if bundle is None:
        bundle = trivial_bundle(graph)
    sizes = config.omega_sizes
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
    report["metadata"] = {"seed": config.seed, "omega_sizes": list(sizes)}
    _emit(config, report)
    for row in report["gaps"]:
        _summary(
            f"k={row['k']}: scalar gap {row['scalar']:.3e}, "
            f"magnetic gap {row['magnetic']:.3e}"
        )
    return 0


def cmd_spectrum(config: RunConfig) -> int:
    graph, bundle = _load_specs(config)
    scalar = assemble_scalar_form(graph)
    report = {"scalar": scalar.eigenvalues}
    if bundle is not None:
        report["magnetic"] = assemble_magnetic_form(graph, bundle).eigenvalues
    _emit(config, report)
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

    floor = max(0.0, -form.lower_bound) + 1e-6
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


def cmd_semigroup_id(config: RunConfig) -> int:
    graph, bundle = _load_specs(config)
    report = {"scalar": _identity_suite(
        assemble_scalar_form(graph), config.alpha_grid, config.seed
    )}
    if bundle is not None:
        report["magnetic"] = _identity_suite(
            assemble_magnetic_form(graph, bundle), config.alpha_grid, config.seed
        )
    ok = all(
        section[flag]
        for section in report.values()
        for flag in ("laplace_ok", "euler_ok", "form_limit_ok")
    )
    report["ok"] = ok
    _emit(config, report)
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
        config = config_from_args(args)
        return COMMANDS[args.command](config)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MglError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
