"""A mutation runner: does a test fail when a rule is broken?

Each mutant changes one operator or constant in one named function. It is
run in a temporary copy of the repository, under a timeout, against the
test files listed for the function's module. A mutant that every listed
test passes has survived: either the tests miss a change in behaviour, or
the change has none (an equivalent mutant). The results go to a JSON file.

The mutations are a fixed, ordered set, applied to every site of a target
function in source order:

- comparison swaps: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``;
- ``&`` and ``|`` (the masks of the array code), ``and`` and ``or``;
- ``+`` and ``-``, ``*`` and ``/``;
- constant nudges: a number ``c`` becomes ``c + 1``.

Each survivor carries a classification: ``equivalent``, with the reason;
``killed``, once a test added for it fails on it, with that test's name;
or ``open``. The classifications are kept in the output file and carried
over, by mutant key, when the runner writes it again. Each run covers every
mutant, one per CPU at a time, and writes ``MUTANTS.json`` at the
repository root; a rerun whose results have not changed leaves that file
byte for byte as it was. Runs take minutes, not seconds, so the runner is
no part of the test suite; a toy run of it is. Only the standard library
is used.

Usage::

    python tools/mutants.py
"""

from __future__ import annotations

import ast
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600.0  # seconds per mutant; a mutant that loops forever counts as killed

# the merged decode, box, filter, grid and scale rules, the grid's
# sample-cell table (``_CellTables.lookup`` and ``_fill``) and the fuse, the
# DVP writer and readers (a run's chunks included), the focal and horizon
# rules, the scale-free evaluation, the synthetic scene's seeding, PCG64
# columns and placement, and the tests that cover them
TARGETS = [
    {
        "module": "src/vpcalib/heatmap.py",
        "functions": ["_near_maximum", "_spread", "_ious", "bbox_arrays", "box_to_frame",
                      "frame_to_box", "_checked_grids", "_heatmaps", "check_scales", "lookup",
                      "_fill", "_fuse"],
        "tests": ["tests/test_heatmap.py", "tests/test_scalar_wrapper_properties.py",
                  "tests/test_detection_properties.py", "tests/test_diamond_columns.py",
                  "tests/test_decode_precision_properties.py", "tests/test_encode_properties.py",
                  "tests/test_heatmap_io.py"],
    },
    {
        "module": "src/vpcalib/pipeline.py",
        "functions": ["_sampled_top", "_static_kept"],
        "tests": ["tests/test_detections.py", "tests/test_detection_properties.py",
                  "tests/test_pipeline.py"],
    },
    {
        "module": "src/vpcalib/projective.py",
        "functions": ["check_scale"],
        "tests": ["tests/test_heatmap.py", "tests/test_projective.py"],
    },
    {
        "module": "src/vpcalib/heatmap_io.py",
        "functions": ["write_heatmap_file", "read_heatmap_arrays", "_read_stacks", "_read_stack",
                      "_check_finite", "_read_dvp_into", "_is_json"],
        "tests": ["tests/test_heatmap_io.py", "tests/test_encode_properties.py",
                  "tests/test_pipeline.py"],
    },
    {
        "module": "src/vpcalib/calibration.py",
        "functions": ["_focal_rule", "_usable_focals", "_pair_slopes", "estimate_horizon"],
        "tests": ["tests/test_calibration.py", "tests/test_pair_properties.py",
                  "tests/test_estimator.py"],
    },
    {
        "module": "src/vpcalib/evaluation.py",
        "functions": ["_distances", "ratio_error", "evaluate"],
        "tests": ["tests/test_evaluation.py"],
    },
    {
        "module": "src/vpcalib/synthetic.py",
        "functions": ["_seed_states", "_mulhi", "_pcg_step", "_pcg_states", "_pcg_random",
                      "_place_vehicles"],
        "tests": ["tests/test_substreams.py", "tests/test_scene_properties.py",
                  "tests/test_synthetic.py", "tests/test_cli.py"],
    },
]

_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
_BINARY = {ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.Add: ast.Sub, ast.Sub: ast.Add,
           ast.Mult: ast.Div, ast.Div: ast.Mult}
_BOOL = {ast.And: ast.Or, ast.Or: ast.And}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.BitAnd: "&", ast.BitOr: "|", ast.Add: "+", ast.Sub: "-",
           ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or"}


def _sites(function: ast.FunctionDef) -> list[tuple]:
    """``(node, slot, before, after)`` of every mutation site of ``function``,
    in source order: ``slot`` names what the mutation replaces in ``node``."""
    sites = []
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in _COMPARE:
                    sites.append((node, ("ops", k), _SYMBOL[type(op)],
                                  _SYMBOL[_COMPARE[type(op)]]))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _BINARY:
            sites.append((node, ("op", None), _SYMBOL[type(node.op)],
                          _SYMBOL[_BINARY[type(node.op)]]))
        elif isinstance(node, ast.BoolOp):
            sites.append((node, ("op", None), _SYMBOL[type(node.op)],
                          _SYMBOL[_BOOL[type(node.op)]]))
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
              and not isinstance(node.value, bool)):
            sites.append((node, ("value", None), repr(node.value), repr(node.value + 1)))
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset, s[1][1] or 0))


def _mutate(node, slot) -> None:
    field, k = slot
    if field == "ops":
        node.ops[k] = _COMPARE[type(node.ops[k])]()
    elif field == "value":
        node.value = node.value + 1
    elif isinstance(node, ast.BoolOp):
        node.op = _BOOL[type(node.op)]()
    else:
        node.op = _BINARY[type(node.op)]()


def _functions(tree: ast.Module) -> dict:
    return {node.name: node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _rewritten(source: str, name: str, mutate=None) -> str:
    """``source`` with the function ``name`` written back from its syntax
    tree, after ``mutate`` of that tree; the other lines keep their bytes."""
    function = _functions(ast.parse(source))[name]
    tree = _functions(ast.parse(source))[name]
    if mutate is not None:
        mutate(tree)
    tree.decorator_list = []
    lines = source.splitlines(keepends=True)
    text = textwrap.indent(ast.unparse(tree), " " * function.col_offset) + "\n"
    return "".join(lines[: function.lineno - 1]) + text + "".join(lines[function.end_lineno:])


def mutants(root: Path, target: dict) -> list[dict]:
    """Every mutant of ``target``: its key, site and the mutated module source."""
    source = (root / target["module"]).read_text()
    module = Path(target["module"]).stem
    out = []
    for name in target["functions"]:
        if name not in _functions(ast.parse(source)):
            raise SystemExit(f"{target['module']} has no function {name}")
        for index, (node, slot, before, after) in enumerate(
                _sites(_functions(ast.parse(source))[name])):
            out.append({
                "key": f"{module}.{name}#{index}:{before}->{after}",
                "module": target["module"],
                "function": name,
                "line": node.lineno,
                "site": ast.get_source_segment(source, node).splitlines()[0][:80],
                "mutation": f"{before} -> {after}",
                "source": _rewritten(source, name,
                                     lambda f, i=index, s=slot: _mutate(_sites(f)[i][0], s)),
            })
    return out


def unmutated(root: Path, target: dict) -> str:
    """The module of ``target`` with every target function written back
    unchanged: a mutant minus its mutation, which the tests must pass."""
    source = (root / target["module"]).read_text()
    for name in target["functions"]:
        source = _rewritten(source, name)
    return source


def _copy_tree(root: Path, into: Path) -> None:
    """``src``, ``tests`` and the top-level files (a test may read the README)."""
    for name in ("src", "tests"):
        if (root / name).is_dir():
            shutil.copytree(root / name, into / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    for path in root.iterdir():
        if path.is_file():
            shutil.copy(path, into / path.name)


def run_tests(tree: Path, tests: list[str]) -> str:
    """``"passed"``, ``"failed"`` or ``"timeout"`` of the listed tests in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def _run_one(root: Path, mutant: dict, tests: list[str]) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(root, tree)
        (tree / mutant["module"]).write_text(mutant["source"])
        return run_tests(tree, tests)


def _classified(entry: dict, before: dict) -> dict:
    """The classification of the mutant ``entry``, given its entry ``before``
    in the previous output; none for a mutant that never survived. A key
    whose site text changed is a new mutant: its function was edited."""
    status = entry["status"]
    if before.get("site") != entry["site"]:
        before = {}
    was, reason = before.get("classification"), before.get("reason", "")
    if status == "survived":
        return {"classification": "equivalent", "reason": reason} if was == "equivalent" \
            else {"classification": "open", "reason": ""}
    if was == "killed":
        return {"classification": "killed", "reason": reason}
    if was == "equivalent":
        return {"classification": "killed",
                "reason": f"a test kills it, yet it was equivalent: {reason}"}
    if was == "open":
        return {"classification": "killed", "reason": "a test added since it survived kills it"}
    return {}


def run(root: Path, targets: list[dict], out: Path) -> dict:
    """Run every mutant of ``targets`` and write the results to ``out``."""
    previous = {}
    if out.is_file():
        previous = {m["key"]: m for m in json.loads(out.read_text())["mutants"]}
    work = [(mutant, target["tests"]) for target in targets for mutant in mutants(root, target)]
    # the functions written back unmutated must pass, or no survivor would mean anything
    for target in targets:
        status = _run_one(root, {"module": target["module"], "source": unmutated(root, target)},
                          target["tests"])
        if status != "passed":
            raise SystemExit(f"the unmutated {target['module']} fails its tests: {status}")
    with concurrent.futures.ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        outcomes = list(pool.map(lambda w: _run_one(root, *w), work))
    results = []
    for (mutant, _), status in zip(work, outcomes):
        entry = {k: v for k, v in mutant.items() if k != "source"}
        entry["status"] = {"passed": "survived", "failed": "killed"}.get(status, status)
        entry.update(_classified(entry, previous.get(mutant["key"], {})))
        results.append(entry)
    survivors = [m for m in results if m["status"] == "survived"]
    report = {
        "operators": ["< <=", "> >=", "== !=", "& |", "and or", "+ -", "* /", "c -> c + 1"],
        "targets": [{k: t[k] for k in ("module", "functions", "tests")} for t in targets],
        "summary": {
            "mutants": len(results),
            "killed": sum(m["status"] != "survived" for m in results),  # timeouts too
            "survived": len(survivors),
            "equivalent": sum(m.get("classification") == "equivalent" for m in survivors),
            "open": sum(m.get("classification") == "open" for m in survivors),
        },
        "mutants": sorted(results, key=lambda m: (m["module"], m["function"], m["key"])),
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    return report


def main() -> int:
    report = run(ROOT, TARGETS, ROOT / "MUTANTS.json")
    print(json.dumps(report["summary"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
