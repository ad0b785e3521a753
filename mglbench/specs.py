"""Seeded instances for the benchmark, written as mgl graph and bundle specs.

Every instance is a random sparse graph: a path 0-1-...-(n-1) plus 2n
random vertex pairs, so about 3 edges per vertex and every prefix
{0, ..., k-1} (the exhaustion sets of `mgl uniqueness`) is connected.
Edge weights and measures are drawn from [0.5, 1.5), killing from [0, 1).
A bundle of rank d gets a Haar-random unitary on every edge and
W(x) = c(x) I + G G* / d with G a complex Gaussian d x d matrix, so the
diamagnetic hypothesis W(x) >= c(x) I holds with a positive margin.
The negative control sets W = 0 instead, which breaks the hypothesis at
every vertex with c(x) > 0.

The generator uses numpy only; it never imports mgl.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np


def random_graph(n: int, rng: np.random.Generator) -> dict:
    pairs = {(x, x + 1) for x in range(n - 1)}
    ends = rng.integers(0, n, size=(2 * n, 2))
    for x, y in ends.tolist():
        if x != y:
            pairs.add((min(x, y), max(x, y)))
    pairs = sorted(pairs)
    weights = rng.uniform(0.5, 1.5, size=len(pairs))
    return {
        "n": n,
        "edges": [
            {"u": x, "v": y, "b": float(b)} for (x, y), b in zip(pairs, weights)
        ],
        "killing": rng.uniform(0.0, 1.0, size=n).tolist(),
        "measure": rng.uniform(0.5, 1.5, size=n).tolist(),
    }


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def _pairs(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def random_bundle(graph: dict, d: int, rng: np.random.Generator, endo: bool = True) -> dict:
    connection = [
        {"u": e["u"], "v": e["v"], "matrix": _pairs(_haar_unitary(d, rng))}
        for e in graph["edges"]
    ]
    spec = {"rank": d, "connection": connection}
    if endo:
        eye = np.eye(d)
        mats = []
        for c in graph["killing"]:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            psd = g @ g.conj().T / d
            mats.append(_pairs(c * eye + (psd + psd.conj().T) / 2))
        spec["endo"] = mats
    return spec


def write_instance(directory: Path, name: str, n: int, d: int, seed: int,
                   endo: bool = True) -> None:
    """Generate one instance from `seed`; write <name>.graph/.bundle.json."""
    rng = np.random.default_rng(seed)
    graph = random_graph(n, rng)
    bundle = random_bundle(graph, d, rng, endo=endo)
    (directory / f"{name}.graph.json").write_text(json.dumps(graph))
    (directory / f"{name}.bundle.json").write_text(json.dumps(bundle))


def read_instance(directory: Path, name: str) -> dict:
    paths = {"graph": directory / f"{name}.graph.json",
             "bundle": directory / f"{name}.bundle.json"}
    instance = {key: json.loads(path.read_text()) for key, path in paths.items()}
    return {**instance, "paths": paths}


def main() -> None:
    """specs.py DIR N RANK SEED [CONTROL_N CONTROL_RANK CONTROL_SEED]

    Writes main.* (and control.*, with W = 0) into DIR and prints the
    seconds that took. Each set-up repetition runs in its own process, so
    the median over repetitions is not one process's luck.
    """
    directory = Path(sys.argv[1])
    n, d, seed, *control = (int(a) for a in sys.argv[2:])
    start = time.perf_counter()
    write_instance(directory, "main", n, d, seed)
    if control:
        write_instance(directory, "control", *control, endo=False)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
