"""Output checks for mgl reports, from theory or from numpy/scipy alone.

Each check takes the raw report bytes, the exit code and the instance
(the spec dicts the benchmark generated) and returns a list of failure
messages; an empty list means the report is right. No check imports mgl.
"""

from __future__ import annotations

import json

import numpy as np

MGL_DEFAULT_SEED = 42   # mgl's sampling seed; the benchmark never passes --seed
ALPHA_GRID = ("0.5", "1.0", "10.0")  # mgl's default --alpha, as report keys
EXHAUSTION_ALPHA = 1.0   # the resolvent shift of `mgl uniqueness`
OMEGA_PARTS = 5          # mgl's default number of exhaustion prefixes


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def parse_report(raw: bytes) -> dict:
    """Strict JSON: bare NaN, Infinity and -Infinity are refused."""
    return json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)


def _close(a, b, rel=1e-9, abs_=1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def _arrays(instance):
    graph = instance["graph"]
    n = graph["n"]
    b = np.zeros((n, n))
    for e in graph["edges"]:
        b[e["u"], e["v"]] = b[e["v"], e["u"]] = e["b"]
    return b, np.asarray(graph["killing"]), np.asarray(graph["measure"])


def _endo(instance) -> np.ndarray:
    bundle = instance["bundle"]
    n, d = instance["graph"]["n"], bundle["rank"]
    if "endo" not in bundle:
        return np.zeros((n, d, d), dtype=complex)
    raw = np.asarray(bundle["endo"], dtype=float)
    return raw[..., 0] + 1j * raw[..., 1]


def expected_margin(instance) -> float:
    """min_x lambda_min(W(x) - c(x) I): the diamagnetic hypothesis margin."""
    _, killing, _ = _arrays(instance)
    endo = _endo(instance)
    w = endo - killing[:, None, None] * np.eye(endo.shape[1])
    return float(np.linalg.eigvalsh((w + np.conj(np.swapaxes(w, 1, 2))) / 2).min())


def _verdict_failures(report, level, passed) -> list:
    v = report[level]
    out = []
    if v["passed"] is not passed:
        out.append(f"{level}.passed is {v['passed']}, theory says {passed}")
    witness = [v["witness_vector"], v["witness_param"], v["witness_vertex"]]
    if passed and any(w is not None for w in witness):
        out.append(f"{level} passed but carries a witness")
    return out


def check_dominate(raw: bytes, code: int, instance, expect: dict) -> list:
    """Diamagnetic instance: hypothesis and all three verdicts pass."""
    report = parse_report(raw)
    out = []
    if code != 0:
        out.append(f"exit code {code}, expected 0")
    hyp = report["hypothesis"]
    if hyp["passed"] is not True:
        out.append("hypothesis failed on a diamagnetic instance")
    if not _close(hyp["min_margin"], expect["margin"]):
        out.append(f"min_margin {hyp['min_margin']} != numpy {expect['margin']}")
    for level in ("semigroup", "resolvent", "form"):
        out += _verdict_failures(report, level, True)
    if report["consistent"] is not True:
        out.append("report not consistent")
    return out


def check_control(raw: bytes, code: int, instance, expect: dict) -> list:
    """W = 0, c > 0: the hypothesis and all three verdicts fail.

    At the vertex x with the largest c, Q_A(e_x, e_x) - Q_B(e_x, e_x)
    = deg(x) - (deg(x) + c(x)) = -c(x), so the form slack is at most -c(x).
    All verdicts agree, so the report is consistent and the exit code is 0.
    """
    report = parse_report(raw)
    c_max = expect["c_max"]
    out = []
    hyp = report["hypothesis"]
    if hyp["passed"] is not False:
        out.append("hypothesis passed with W = 0 and c > 0")
    if not _close(hyp["min_margin"], -c_max):
        out.append(f"min_margin {hyp['min_margin']} != -max c = {-c_max}")
    for level in ("semigroup", "resolvent", "form"):
        out += _verdict_failures(report, level, False)
    if report["form"]["slack"] > -c_max * (1 - 1e-9):
        out.append(f"form slack {report['form']['slack']:.3e} above -max c = {-c_max:.3e}")
    if report["consistent"] is not True:
        out.append("report not consistent")
    if code != 0:
        out.append(f"exit code {code}, expected 0")
    return out


def identity_norms(instance) -> dict:
    """||u||_m of mgl's identity-suite vector, drawn as mgl draws it."""
    _, _, measure = _arrays(instance)
    d = instance["bundle"]["rank"]
    norms = {}
    for key, rank, complex_u in (("scalar", 1, False), ("magnetic", d, True)):
        rng = np.random.default_rng(MGL_DEFAULT_SEED)
        u = rng.standard_normal(measure.size * rank)
        if complex_u:
            u = u + 1j * rng.standard_normal(u.size)
        norms[key] = float(np.sqrt(np.sum(np.repeat(measure, rank) * np.abs(u) ** 2)))
    return norms


def check_identities(raw: bytes, code: int, instance, expect: dict) -> list:
    """Euler is first order, the form limit is linear in t, Laplace is exact."""
    report = parse_report(raw)
    out = []
    if code != 0 or report["ok"] is not True:
        out.append(f"exit code {code}, ok {report['ok']}, expected 0 and true")
    for key in ("scalar", "magnetic"):
        sec, norm_u = report[key], expect["norms"][key]
        e = {int(k): v for k, v in sec["euler_errors"].items()}
        if not 0.4 <= e[512] / e[256] <= 0.6:
            out.append(f"{key}: Euler error ratio {e[512] / e[256]:.3f} not about 1/2")
        if e[4096] > 1e-3 * norm_u:
            out.append(f"{key}: Euler error at n=4096 {e[4096]:.3e} > 1e-3 ||u||")
        d0, d1 = sec["form_limit_defects"]
        if not (d0 > 0 and 0.35 <= d1 / d0 <= 0.65 and _close(d1 / d0, sec["form_limit_ratio"])):
            out.append(f"{key}: form-limit defects {d0:.3e}, {d1:.3e} not linear in t")
        res = sec["laplace_residuals"]
        if sorted(res) != sorted(ALPHA_GRID):
            out.append(f"{key}: Laplace checked at {sorted(res)}, not at every alpha")
        if any(r > 1e-6 * norm_u for r in res.values()):
            out.append(f"{key}: Laplace residual above 1e-6 ||u||: {res}")
    return out


def scalar_gap(instance, k: int, alpha: float = EXHAUSTION_ALPHA) -> float:
    """Dirichlet/Neumann resolvent gap on the prefix {0..k-1}, dense numpy.

    R = (M^-1 L + alpha)^-1, and its m-weighted norm is that of
    M^1/2 (L + alpha M)^-1 M^1/2. Dirichlet folds the weights of edges
    leaving the prefix into the killing term; Neumann drops them.
    """
    b, killing, measure = _arrays(instance)
    inner = b[:k, :k]
    m = measure[:k]
    laplacians = (np.diag(b[:k].sum(axis=1) + killing[:k]) - inner,
                  np.diag(inner.sum(axis=1) + killing[:k]) - inner)
    root = np.sqrt(m)
    dirichlet, neumann = (
        root[:, None] * np.linalg.inv(lap + alpha * np.diag(m)) * root[None, :]
        for lap in laplacians
    )
    return float(np.linalg.norm(dirichlet - neumann, 2))


def exhaustion_sizes(n: int) -> list:
    return sorted({max(1, round(n * k / OMEGA_PARTS)) for k in range(1, OMEGA_PARTS + 1)})


def check_exhaustion(raw: bytes, code: int, instance, expect: dict) -> list:
    """Gaps lie in [0, 2/alpha], vanish on the full set, and match numpy."""
    report = parse_report(raw)
    out = []
    if code != 0:
        out.append(f"exit code {code}, expected 0")
    if report["metadata"]["omega_sizes"] != expect["sizes"]:
        out.append(f"omega sizes {report['metadata']['omega_sizes']} != {expect['sizes']}")
    gaps = report["gaps"]
    if [g["k"] for g in gaps] != list(range(1, len(expect["sizes"]) + 1)):
        out.append("gap table rows are not k = 1..K")
    for g in gaps:
        for key in ("scalar", "magnetic"):
            if not 0.0 <= g[key] <= 2.0 / EXHAUSTION_ALPHA:
                out.append(f"k={g['k']} {key} gap {g[key]} outside [0, 2/alpha]")
    if gaps and (gaps[-1]["scalar"] != 0.0 or gaps[-1]["magnetic"] != 0.0):
        out.append(f"gaps on the full vertex set are not 0: {gaps[-1]}")
    if gaps and not _close(gaps[0]["scalar"], expect["gap0"], rel=1e-8):
        out.append(f"k=1 scalar gap {gaps[0]['scalar']} != numpy {expect['gap0']}")
    return out
