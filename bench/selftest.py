"""Self-test of the benchmark's generator, oracle and tracer.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)
"""

from __future__ import annotations

import json
import os
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (WORKLOADS, Case, contradictions,  # noqa: E402
                       make_cases)

SEEDS = range(12)


def test_generator_is_deterministic():
    for workload in WORKLOADS:
        for seed in SEEDS:
            assert make_cases(workload, seed) == make_cases(workload, seed)
    for workload in ("jumps", "screen"):
        assert make_cases(workload, 1) != make_cases(workload, 2)


def test_generated_configs_validate_and_match_theory():
    from hardyvx.config import parse_config
    for workload in WORKLOADS:
        for seed in SEEDS:
            for case in make_cases(workload, seed):
                cfg = parse_config(json.dumps(case.config))
                if workload == "catalog":
                    continue
                p = cfg.exponent
                p0 = p.limit_at_origin()
                divergent = p0 == 1.0 and p.monotonicity() == "nondecreasing"
                assert case.theory == ("divergent" if divergent
                                       else "bounded"), case
                if workload == "jumps":
                    assert p.monotonicity() == "nondecreasing" and p0 > 1.0
                    assert 4 <= len(p.discontinuities()) <= 8
    screen = make_cases("screen", 0)
    assert sum(c.theory == "divergent" for c in screen) * 5 == len(screen)


def test_screen_work_does_not_depend_on_seed():
    """Each screen slot's power family has the same size on every seed."""
    from hardyvx.config import parse_config
    from hardyvx.grids import make_log_grid
    from hardyvx.hardy import power_family
    grid = make_log_grid(1e-6, 50)

    def sizes(seed):
        return [len(power_family(parse_config(json.dumps(c.config)).exponent,
                                 grid))
                for c in make_cases("screen", seed)]
    assert all(sizes(seed) == sizes(0) for seed in SEEDS)


def test_oracle_counts_opposite_class_not_inconclusive():
    assert contradictions({"C2": "divergent", "C3": "bounded"},
                          "bounded") == ["C2"]
    assert contradictions({"C1": "inconclusive", "C5": "inconclusive"},
                          "divergent") == []
    assert contradictions({"A": "divergent", "B": "divergent"},
                          "bounded") == []  # A and B are not equivalences

    # the counting path of a real pass, with planted verdicts
    planted = {
        "opposite": {"A": "bounded", "C3": "bounded", "C4": "divergent"},
        "inconclusive": {"C2": "inconclusive", "C3": "divergent"},
    }

    def report(label):
        verdicts = {k: {"class": v} for k, v in planted[label].items()}
        return {"report": {"exponent": label, "verdicts": verdicts}}

    hv = types.SimpleNamespace(
        config=types.SimpleNamespace(
            parse_config=lambda text: json.loads(text)["label"]),
        report=types.SimpleNamespace(run_scenario=report,
                                     report_json=json.dumps))
    cases = [Case(label, {"label": label}, "divergent") for label in planted]
    res = run.run_passes(hv, cases, 0.0)
    assert (res.attempted, res.contradicted, res.raised, res.malformed) \
        == (2, 1, 0, 0)
    assert res.inconclusive == 1 and res.verdicts == 5


def _traced_sweep(threads: str) -> dict:
    from hardyvx import hardy
    from hardyvx.exponent import PiecewiseConstant
    from hardyvx.grids import make_log_grid
    grid = make_log_grid(1e-6, 301)
    p = PiecewiseConstant((1e-3, 0.1), (2.0, 2.5, 3.0))
    members = (hardy.power_family(p, grid)
               + hardy.necessity_family(p, grid, depth=12)
               + hardy.dyadic_indicator_family(grid))
    old = os.environ.get("HARDYVX_THREADS")
    os.environ["HARDYVX_THREADS"] = threads
    try:
        with Tracer() as tracer:
            result = hardy.operator_norm_lower_bound(p, members, tol=1e-8)
    finally:
        if old is None:
            del os.environ["HARDYVX_THREADS"]
        else:
            os.environ["HARDYVX_THREADS"] = old
    totals = tracer.totals()
    assert totals["hardy.quotients"] == len(result.quotients)
    return {k: v for k, v in totals.items()
            if k.endswith(".calls") or k in ("exponent.eval_calls",
                                             "exponent.eval_points",
                                             "hardy.members")}


def test_counters_agree_with_and_without_pool_threads():
    from hardyvx import hardy, lpnorm
    original = (lpnorm.modular, hardy.modular, hardy.luxemburg_norm)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        serial = _traced_sweep("1")
        threaded = _traced_sweep("4")
    finally:
        sys.setswitchinterval(old_interval)
    assert serial["lpnorm.modular.calls"] > 0
    assert serial == threaded
    assert (lpnorm.modular, hardy.modular, hardy.luxemburg_norm) == original


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
