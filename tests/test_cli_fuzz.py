"""Hypothesis fuzz of the command line: random specs and flags, run in-process.

Each example starts from a valid graph and bundle spec on at most 5
vertices, may break one graph or bundle axiom in it (a loop, a negative
weight or killing term, a zero measure, a non-unitary connection, a
negative endomorphism), may put odd numbers (NaN, infinities, negative
and huge values) into some of its number slots, and applies a few more
random mutations to it (wrong types; unknown or missing keys; a
wrong rank or matrix size; sizes beyond the dense-size bound). Some
examples last get one entry that the spec format refuses: a boolean or a
float vertex, a matrix cell of three entries, or an unknown key in an edge
or connection entry. Each command draws only flags its parser declares.

Whatever the input, `mgl` must exit 0, 1 or 2 without a traceback; exit 1
(a verified failure) must come with a written report and exit 2 (an input
error) without one; a refused entry in a spec that is read must give exit
2; and every report it writes must be strict JSON (no NaN or Infinity
tokens).
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures
from mgl.cli import run

DECLARED = fixtures.cli_flags()

ODD_NUMBERS = [0.0, -1.0, -1e-3, 1e-308, 1e-320, 1e-150, 1e150, 1e151, 1e200, 1e308,
               -1e308, float("nan"), float("inf"), float("-inf"), 10**400]
WRONG_TYPES = st.sampled_from([None, True, "1", [], {}])


def _cell(z):
    return [z.real, z.imag]


@st.composite
def valid_specs(draw):
    """A path graph with random extra edges and a diagonal-phase bundle whose
    endomorphism dominates the killing term."""
    n = draw(st.integers(1, 5))
    weight = st.floats(0.1, 2.0)
    pairs = {(x, x + 1) for x in range(n - 1)}
    for x, y in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=3)):
        if x != y:
            pairs.add((min(x, y), max(x, y)))
    graph = {"n": n, "edges": [{"u": x, "v": y, "b": draw(weight)}
                               for x, y in sorted(pairs)]}
    killing = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
    if draw(st.booleans()):
        graph["killing"] = killing
    if draw(st.booleans()):
        graph["measure"] = [draw(st.floats(0.2, 3.0)) for _ in range(n)]

    rank = draw(st.integers(1, 3))

    def diagonal(values):
        return [[_cell(values[i] if i == j else 0j) for j in range(rank)]
                for i in range(rank)]

    phase = st.floats(0.0, 2 * math.pi).map(lambda a: complex(math.cos(a), math.sin(a)))
    bundle = {"rank": rank, "connection": [
        {"u": e["u"], "v": e["v"],
         "matrix": diagonal([draw(phase) for _ in range(rank)])}
        for e in graph["edges"]
    ]}
    if draw(st.booleans()):
        bundle["endo"] = [
            diagonal([complex(c + draw(st.floats(-0.5, 1.0))) for _ in range(rank)])
            for c in killing
        ]
    return graph, bundle


def _number_slots(doc):
    """(container, key) of every number inside a parsed spec document."""
    slots = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            slots.extend(_number_slots(value))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            slots.append((doc, key))
    return slots


def _break_axiom(draw, graph, bundle):
    """Make a valid spec pair violate one graph or bundle axiom."""
    n, rank, edges = graph["n"], bundle["rank"], graph["edges"]
    x = draw(st.integers(0, n - 1))
    axiom = draw(st.sampled_from(
        ["loop", "weight", "measure", "killing", "connection", "endo"]))
    if axiom == "loop" or (axiom in ("weight", "connection") and not edges):
        edges.append({"u": x, "v": x, "b": 1.0})
    elif axiom == "weight":
        draw(st.sampled_from(edges))["b"] = draw(st.sampled_from([-1.0, -1e-3]))
    elif axiom == "measure":
        graph.setdefault("measure", [1.0] * n)[x] = draw(st.sampled_from([0.0, -1.0]))
    elif axiom == "killing":
        graph.setdefault("killing", [0.0] * n)[x] = -0.5
    elif axiom == "connection":
        draw(st.sampled_from(bundle["connection"]))["matrix"][0][0] = [2.0, 0.0]
    else:
        def corner(value):
            return [[[value if i == j == 0 else 0.0, 0.0] for j in range(rank)]
                    for i in range(rank)]
        bundle.setdefault("endo", [corner(0.0) for _ in range(n)])[x] = corner(-1.0)


@st.composite
def mutated_specs(draw):
    graph, bundle = draw(valid_specs())
    if draw(st.booleans()):
        _break_axiom(draw, graph, bundle)
    # If the example opts in, one draw per number slot decides whether an odd
    # number goes there; the trigger is the largest value, not the simplest
    # one, which derandomized generation favours.
    for doc in (graph, bundle) if draw(st.booleans()) else ():
        slots = _number_slots(doc)
        for container, key in slots:
            if draw(st.integers(0, 2 * len(slots) + 1)) == 2 * len(slots) + 1:
                container[key] = draw(st.sampled_from(ODD_NUMBERS))
    for _ in range(draw(st.integers(0, 2))):
        doc = draw(st.sampled_from([graph, bundle]))
        kind = draw(st.sampled_from(
            ["size", "wrong-type", "unknown-key", "drop-key", "matrix-shape"]))
        if kind == "size":
            key = "n" if doc is graph else "rank"
            doc[key] = draw(st.sampled_from(
                [0, -2, 2, 4, 6, 16385, 200000, 10**9, 2.5]))
        elif kind == "wrong-type":
            doc[draw(st.sampled_from(sorted(doc)))] = draw(WRONG_TYPES)
        elif kind == "unknown-key":
            doc["unexpected"] = 1
        elif kind == "drop-key":
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif isinstance(bundle.get("connection"), list) and bundle["connection"]:
            entry = draw(st.sampled_from(bundle["connection"]))
            if isinstance(entry, dict) and entry.get("matrix"):
                entry["matrix"] = entry["matrix"][1:] or [[[1.0, 0.0]] * 2]
    return graph, bundle, _refuse(draw, graph, bundle)


def _refuse(draw, graph, bundle):
    """Maybe put one entry the spec format refuses into an edge or connection
    entry; return the document changed ("graph" or "bundle") or None."""
    kind = draw(st.sampled_from([None, None, "bool-vertex", "float-vertex",
                                 "three-entry-cell", "unknown-entry-key"]))
    docs = {"graph": graph.get("edges"), "bundle": bundle.get("connection")}
    entries = [(name, entry) for name, listed in docs.items()
               if isinstance(listed, list) for entry in listed
               if isinstance(entry, dict) and {"u", "v"} <= set(entry)]
    if kind == "three-entry-cell":
        entries = [(name, entry) for name, entry in entries
                   if isinstance(entry.get("matrix"), list) and entry["matrix"]
                   and isinstance(entry["matrix"][0], list) and entry["matrix"][0]
                   and isinstance(entry["matrix"][0][0], list)]
    if kind is None or not entries:
        return None
    name, entry = draw(st.sampled_from(entries))
    if kind == "bool-vertex":
        entry[draw(st.sampled_from(["u", "v"]))] = draw(st.booleans())
    elif kind == "float-vertex":
        entry["u"] = draw(st.sampled_from([0.0, 1.0, 0.5]))
    elif kind == "three-entry-cell":
        entry["matrix"][0][0].append(0.0)
    else:
        entry["phase"] = 0.0
    return name


# Values for every flag besides the spec and report paths, odd ones included.
FLAG_VALUES = {
    "--samples": st.sampled_from(["1", "3", "3", "0", "-1", "x"]),
    "--t": st.sampled_from(["0.5", "0,1", "0.01,2", "-1", "nan", "inf", "1e308",
                            "1e-300", "a"]),
    "--alpha": st.sampled_from(["0.5", "1,10", "0", "-5", "nan", "1e-7", "1e-13",
                                "1e308"]),
    "--omega": st.sampled_from(["1", "2,3", "0", "99", "x"]),
    "--seed": st.sampled_from(["0", "7", "-3", "x"]),
    "--tol-domination": st.sampled_from(["1e-9", "1e-9", "0", "-1", "nan", "inf"]),
}
PATH_FLAGS = ("--graph", "--bundle", "--out")


def test_fuzzed_flags_are_the_declared_ones():
    declared = {flag for flags in DECLARED.values() for flag in flags}
    assert declared == set(FLAG_VALUES) | set(PATH_FLAGS)


COMMANDS_AND_FLAGS = st.sampled_from(sorted(DECLARED)).flatmap(
    lambda command: st.tuples(st.just(command), st.fixed_dictionaries({}, optional={
        flag: FLAG_VALUES[flag] for flag in DECLARED[command] if flag in FLAG_VALUES
    }))
)


def _strict(token):
    raise ValueError(f"non-strict JSON token {token}")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    command_and_flags=COMMANDS_AND_FLAGS,
    docs=mutated_specs(),
    with_bundle=st.booleans(),
)
# An edge weight beyond the float range and a failing (non-unitary)
# connection, which must exit 1 with a report, are always run.
@example(
    command_and_flags=("validate", {}),
    docs=({"n": 2, "edges": [{"u": 0, "v": 1, "b": 10**400}]}, {"rank": 1}, None),
    with_bundle=True,
)
@example(
    command_and_flags=("validate", {}),
    docs=({"n": 2, "edges": [{"u": 0, "v": 1, "b": 1.0}]},
          {"rank": 1, "connection": [{"u": 0, "v": 1, "matrix": [[[2.0, 0.0]]]}]}, None),
    with_bundle=True,
)
def test_cli_fuzz_exit_codes_and_strict_json(command_and_flags, docs, with_bundle):
    command, flags = command_and_flags
    *docs, refused = docs
    bundle_read = with_bundle or command == "dominate"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {}
        for name, doc in zip(("graph", "bundle"), docs):
            paths[name] = tmp / f"{name}.json"
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        out = tmp / "report.json"
        argv = [command, "--graph", str(paths["graph"]), "--out", str(out)]
        if bundle_read:
            argv += ["--bundle", str(paths["bundle"])]
        argv += [f"{flag}={value}" for flag, value in flags.items()]

        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse rejects malformed flags
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        if refused == "graph" or (refused == "bundle" and bundle_read):
            assert code == 2, (argv, refused, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert out.exists() == (code != 2), (argv, code, err.getvalue())
        if out.exists():
            json.loads(out.read_text(encoding="utf-8"), parse_constant=_strict)
