"""The wrong-verdict ratchet.

``wrong_verdicts.json`` lists, one line each, every known wrong verdict
of the audit: a (workload, seed, label, criterion) whose C1-C5 class is
the opposite of the theory class, and, with "agreement" as the
criterion, every input whose report agrees although a class is wrong.
The corpus is the catalog, five hand-built inputs and the ``jumps``
and ``screen`` inputs of ``bench/workloads.py`` for seeds 1-20, each
built with its theory class known.  A check fails on a wrong line the
file does not list, on an input that disagrees though no class is
wrong, and on a listed line that is now right, which is to be deleted
from the file.

Tier-1 checks the catalog, the hand inputs and seed 11; the whole
corpus runs as

    python tests/test_wrong_verdicts.py
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from hardyvx.config import parse_config  # noqa: E402
from hardyvx.report import run_scenario  # noqa: E402

LISTED = Path(__file__).with_name("wrong_verdicts.json")
SEEDS = range(1, 21)
TIER1_SEEDS = (11,)
# inputs the generated workloads leave out, with their theory class:
# p = 1 near 0 by a floored log perturbation and by a step, p = 1e300,
# whose Newton slope overflows a double, and constant p just above 1,
# where C2's series nears p' too slowly for the plateau test
HAND = (
    ("log-perturbed-one",
     {"exponent": {"family": "log-perturbed", "p0": 1.0, "c": 1.0,
                   "alpha": 1.0, "sign": "-"}}, "divergent"),
    ("piecewise-constant-one",
     {"exponent": {"family": "piecewise-constant", "breakpoints": [0.001],
                   "values": [1.0, 2.0]}}, "divergent"),
    ("constant-1e300",
     {"exponent": {"family": "constant", "p0": 1e300},
      "grid": {"x_min": 1e-8, "n": 401}}, "bounded"),
    ("constant-1.05", {"exponent": {"family": "constant", "p0": 1.05}},
     "bounded"),
    ("constant-1.1", {"exponent": {"family": "constant", "p0": 1.1}},
     "bounded"),
)


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def corpus(seeds):
    """(workload, seed, label, config, theory) for the catalog, the hand
    inputs (seed None for both) and each seed's jumps and screen."""
    workloads = _workloads()
    for case in workloads.make_cases("catalog", 0):
        yield "catalog", None, case.label, case.config, case.theory
    for label, config, theory in HAND:
        yield "hand", None, label, config, theory
    for workload in ("jumps", "screen"):
        for seed in seeds:
            for case in workloads.make_cases(workload, seed):
                yield workload, seed, case.label, case.config, case.theory


def audit(seeds) -> tuple[list, list]:
    """The wrong lines of the corpus on ``seeds``, and its inputs that
    disagree though no class is wrong."""
    contradictions = _workloads().contradictions
    wrong, inconsistent = [], []
    for workload, seed, label, config, theory in corpus(seeds):
        report = run_scenario(parse_config(json.dumps(config))).report
        classes = {k: v.cls for k, v in report.verdicts.items()}
        names = contradictions(classes, theory)
        if names and report.agreement:
            names.append("agreement")
        if not names and not report.agreement:
            inconsistent.append([workload, seed, label])
        wrong += [[workload, seed, label, name] for name in names]
    return wrong, inconsistent


def problems(seeds) -> list[str]:
    """What the corpus on ``seeds`` does that the list does not allow."""
    listed = [tuple(line) for line in json.loads(LISTED.read_text())]
    wrong, inconsistent = audit(seeds)
    found = {tuple(line) for line in wrong}
    ran = {None} | set(seeds)
    out = [f"new wrong verdict: {list(line)}" for line in wrong
           if tuple(line) not in listed]
    out += [f"disagrees though no class is wrong: {line}"
            for line in inconsistent]
    out += [f"now right, delete it from {LISTED.name}: {list(line)}"
            for line in listed if line[1] in ran and line not in found]
    return out


def test_no_wrong_verdict_is_new_or_gone():
    assert not problems(TIER1_SEEDS)


if __name__ == "__main__":
    found = problems(SEEDS)
    print("\n".join(found) or "no change to the wrong verdicts")
    sys.exit(1 if found else 0)
