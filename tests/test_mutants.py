"""The mutation runner ``tools/mutants.py``, run on a toy module of three functions.

The toy's tests check ``mean`` fully, ``clip`` away from its bounds and
``both`` not at all, so the runner must find the mutants of ``mean``
killed and the others surviving, and keep a survivor's classification when
it runs again.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

TOY = '''\
def clip(x, low, high):
    """A number inside [low, high]."""
    return low if x < low else high if x > high else x


def mean(a, b):
    return (a + b) / 2


# a comment the runner leaves alone
def both(a, b):
    return a and b
'''

TOY_TESTS = '''\
from toy import clip, mean


def test_clip_away_from_the_bounds():
    assert (clip(-1, 0, 10), clip(11, 0, 10), clip(5, 0, 10)) == (0, 10, 5)


def test_mean():
    assert mean(2, 4) == 3
'''


def test_the_runner_tells_killed_mutants_from_survivors(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "toy.py").write_text(TOY)
    (tmp_path / "tests" / "test_toy.py").write_text(TOY_TESTS)
    targets = [{"module": "src/toy.py", "functions": ["clip", "mean", "both"],
                "tests": ["tests/test_toy.py"]}]
    out = tmp_path / "MUTANTS.json"

    report = mutants.run(tmp_path, targets, out)
    status = {m["key"]: m["status"] for m in report["mutants"]}
    assert status == {
        "toy.clip#0:<-><=": "survived",
        "toy.clip#1:>->>=": "survived",
        "toy.mean#0:/->*": "killed",
        "toy.mean#1:+->-": "killed",
        "toy.mean#2:2->3": "killed",
        "toy.both#0:and->or": "survived",
    }
    assert report["summary"] == {"mutants": 6, "killed": 3, "survived": 3, "equivalent": 0,
                                 "open": 3}
    # a mutant's module differs from the original in its function's lines only
    (clip_lt,) = [m for m in mutants.mutants(tmp_path, targets[0])
                  if m["key"] == "toy.clip#0:<-><="]
    assert "return low if x <= low else" in clip_lt["source"]
    assert clip_lt["source"].split("def mean")[1] == TOY.split("def mean")[1]

    # a classification written into the file survives a rerun, and a rerun
    # whose results have not changed writes the file byte for byte as it was
    data = json.loads(out.read_text())
    for m in data["mutants"]:
        if m["key"] == "toy.clip#0:<-><=":
            m["classification"], m["reason"] = "equivalent", "clip(low, low, high) is low"
    data["summary"].update(equivalent=1, open=2)
    classified = json.dumps(data, indent=1) + "\n"
    out.write_text(classified)
    report = mutants.run(tmp_path, targets, out)
    kept = {m["key"]: m.get("classification") for m in report["mutants"]}
    assert kept["toy.clip#0:<-><="] == "equivalent" and kept["toy.both#0:and->or"] == "open"
    assert out.read_text() == classified
