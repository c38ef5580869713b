"""The mutation runner ``tools/mutants.py``, run on a toy module of three
functions, one of them decorated, and two methods of one name.

The toy's tests check ``mean`` and ``Up.step`` fully, ``clip`` away from its
bounds and ``both`` and ``Down.step`` not at all, so the runner must find
the mutants of ``mean`` and ``Up.step`` killed and the others surviving,
and keep a survivor's classification when it runs again. A method is
targeted by its class and name; a bare name that two methods share is not.
A decorator is no mutation site, as a mutant is written back below it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

TOY = '''\
import functools


def clip(x, low, high):
    """A number inside [low, high]."""
    return low if x < low else high if x > high else x


@functools.lru_cache(maxsize=8)
def mean(a, b):
    return (a + b) / 2


# a comment the runner leaves alone
def both(a, b):
    return a and b


class Up:
    def step(self, x):
        return x + 1


class Down:
    def step(self, x):
        return x - 1
'''

TOY_TESTS = '''\
from toy import Up, clip, mean


def test_clip_away_from_the_bounds():
    assert (clip(-1, 0, 10), clip(11, 0, 10), clip(5, 0, 10)) == (0, 10, 5)


def test_mean():
    assert mean(2, 4) == 3


def test_up():
    assert Up().step(2) == 3
'''


def test_the_runner_tells_killed_mutants_from_survivors(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "toy.py").write_text(TOY)
    (tmp_path / "tests" / "test_toy.py").write_text(TOY_TESTS)
    targets = [{"module": "src/toy.py", "functions": ["clip", "mean", "both", "Up.step",
                                                  "Down.step"],
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
        "toy.Up.step#0:+->-": "killed",
        "toy.Up.step#1:1->2": "killed",
        "toy.Down.step#0:-->+": "survived",
        "toy.Down.step#1:1->2": "survived",
    }
    assert report["summary"] == {"mutants": 10, "killed": 5, "survived": 5, "equivalent": 0,
                                 "open": 5}
    # a mutant's module differs from the original in its function's lines only
    (clip_lt,) = [m for m in mutants.mutants(tmp_path, targets[0])
                  if m["key"] == "toy.clip#0:<-><="]
    assert "return low if x <= low else" in clip_lt["source"]
    assert clip_lt["source"].split("def mean")[1] == TOY.split("def mean")[1]
    # a method's mutant keeps its indentation and leaves the other method alone
    (down,) = [m for m in mutants.mutants(tmp_path, targets[0])
               if m["key"] == "toy.Down.step#0:-->+"]
    assert down["source"] == TOY.replace("return x - 1", "return x + 1")
    with pytest.raises(SystemExit, match="no function step, or more than one"):
        mutants.mutants(tmp_path, {**targets[0], "functions": ["step"]})

    # a classification written into the file survives a rerun, and a rerun
    # whose results have not changed writes the file byte for byte as it was
    data = json.loads(out.read_text())
    for m in data["mutants"]:
        if m["key"] == "toy.clip#0:<-><=":
            m["classification"], m["reason"] = "equivalent", "clip(low, low, high) is low"
    data["summary"].update(equivalent=1, open=4)
    classified = json.dumps(data, indent=1) + "\n"
    out.write_text(classified)
    report = mutants.run(tmp_path, targets, out)
    kept = {m["key"]: m.get("classification") for m in report["mutants"]}
    assert kept["toy.clip#0:<-><="] == "equivalent" and kept["toy.both#0:and->or"] == "open"
    assert out.read_text() == classified
