"""Benchmark inputs and the theory oracle.

Each workload is a list of ``Case`` objects: a scenario config (the only
thing the program sees) plus the boundedness class that theory assigns to
the exponent, known from how the input was built.  Generated workloads are
deterministic functions of the seed; their structure (families, jump
counts, parameter strata) is fixed so that the work per pass stays the
same from seed to seed while the parameters vary.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# BENCHMARK.json lists catalog and jumps only.  screen's wall times follow
# the host: on a shared 2-core VM its ten-seed spread of audits_per_s and
# audit_s.p50 reached 0.25-0.36 of the median as hypervisor steal rose to
# a third of CPU time, past the 0.25 bound.  Run it by hand on a quiet
# machine.
WORKLOADS = ("catalog", "jumps", "screen")

# criteria whose class the oracle compares against theory
ORACLE_CRITERIA = ("C1", "C2", "C3", "C4", "C5")

X_MIN = 1e-12  # the schema's default grid floor, used by catalog and jumps
SCREEN_N = 9601
# p0 bands of the screen workload; on each, the power test family of a
# "+" or loglog input has a fixed size (10 and 7 members)
SCREEN_MIDDLE = (1.98, 2.16)
SCREEN_CHEAP = (2.80, 3.20)


@dataclass(frozen=True)
class Case:
    label: str
    config: dict
    theory: str  # "bounded" | "divergent"


def catalog_cases(seed: int) -> list[Case]:
    """The built-in catalog with default config, as ``hardyvx audit-all``
    runs it.  The seed does not change these inputs."""
    from hardyvx.catalog import CATALOG
    return [Case(e.name, {"exponent": {"catalog": e.name}}, e.expected)
            for e in CATALOG]


def _stratified_depths(rng: random.Random, k: int, lo: float,
                       hi: float) -> list[float]:
    """k values of ln(1/x), one drawn uniformly in each of k equal strata
    of [lo, hi]: log-uniform scales that cover the whole range."""
    width = (hi - lo) / k
    return [lo + width * (i + rng.random()) for i in range(k)]


def _r(x: float) -> float:
    return float(f"{x:.6g}")


def jump_cases(seed: int) -> list[Case]:
    """Nondecreasing step exponents with finitely many jumps.

    p is constant near 0, so theory says the operator is bounded.  Jump
    scales are stratified log-uniform over the grid range, x in
    (x_min, 1/2), so the deepest of k jumps lies in the deepest 1/k of
    that range, a few dyadic levels above x_min.
    """
    rng = random.Random(f"jumps:{seed}")
    lo, hi = math.log(2.0), math.log(1.0 / X_MIN)
    cases = []
    for i, (family, k) in enumerate((("dyadic-jump", 4),
                                     ("piecewise-constant", 6))):
        depths = _stratified_depths(rng, k, lo, hi)
        scales = [_r(math.exp(-d)) for d in depths]  # decreasing
        gammas = [_r(rng.uniform(0.1, 0.4)) for _ in range(k)]
        p0 = _r(rng.uniform(1.6, 2.4))
        if family == "dyadic-jump":
            spec = {"family": family, "p0": p0, "gammas": gammas,
                    "scales": scales}
        else:
            # values run from the origin outwards: p0, then one jump at
            # each breakpoint, deepest first
            values = [p0]
            for g in reversed(gammas):
                values.append(_r(values[-1] + g))
            spec = {"family": family, "breakpoints": scales[::-1],
                    "values": values}
        cases.append(Case(f"jumps-{i}-{family}",
                          {"label": f"jumps-{i}-{family}", "exponent": spec},
                          "bounded"))
    return cases


def screen_cases(seed: int) -> list[Case]:
    """Smooth exponents screened with the cheap criteria on a fine grid.

    One input in five has p(0) = 1 with p nondecreasing, which theory
    says is divergent; every other input is bounded (p(0) > 1, or p
    nonincreasing).  The cost of an input is set mostly by p0 (the power
    test family has about 1/p_minus / 0.05 members), so p0 is drawn from
    bands on which that family's size is fixed: each family and sign gets
    three inputs in a middle band and one in a cheap band.  Every pass
    then does the same work, and sorted by cost a pass is three cheap
    inputs, nine middle ones and the three p(0) = 1 ones: the median
    audit falls among the middle inputs, not at the edge of a gap
    between two kinds.
    """
    rng = random.Random(f"screen:{seed}")
    slots = ([("log-perturbed", "+", (1.0, 1.0))] * 3
             + [(family, sign, band) for family, sign in
                (("log-perturbed", "+"), ("log-perturbed", "-"),
                 ("loglog-perturbed", None))
                for band in (SCREEN_MIDDLE,) * 3 + (SCREEN_CHEAP,)])
    cases = []
    for i, (family, sign, (p_lo, p_hi)) in enumerate(slots):
        p0 = _r(rng.uniform(p_lo, p_hi))
        c = _r(rng.uniform(0.8, 1.2))
        if family == "log-perturbed":
            spec = {"family": family, "p0": p0, "c": c,
                    "alpha": _r(rng.uniform(0.6, 0.9)), "sign": sign}
        else:
            spec = {"family": family, "p0": p0, "c": c}
        theory = "divergent" if p0 == 1.0 and sign == "+" else "bounded"
        label = f"screen-{i}-{family}{sign or ''}"
        cases.append(Case(label, {
            "label": label, "exponent": spec, "grid": {"n": SCREEN_N},
            "criteria": ["A", "B", "C2", "C3", "C4"], "families": ["power"],
        }, theory))
    return cases


def make_cases(workload: str, seed: int) -> list[Case]:
    return {"catalog": catalog_cases, "jumps": jump_cases,
            "screen": screen_cases}[workload](seed)


def contradictions(verdicts: dict, theory: str) -> list[str]:
    """Names of the C1-C5 verdicts whose class is the opposite of the
    theory class.  ``verdicts`` maps criterion name to class; an
    ``inconclusive`` verdict never contradicts."""
    opposite = {"bounded": "divergent", "divergent": "bounded"}[theory]
    return [name for name in ORACLE_CRITERIA
            if verdicts.get(name) == opposite]
