"""Run reports: scenario execution and JSON/CSV emission.

JSON reports are deterministic for identical configurations: keys are
sorted and floats rendered by ``repr``, with the wall-clock fields the
only varying entries (comparison tooling should strip ``timestamp`` and
``wall_clock_seconds``).
"""

from __future__ import annotations

import datetime
import json
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .config import ScenarioConfig
from .criteria import CriterionReport, equivalence_audit
from .grids import make_log_grid

__all__ = ["RunReport", "run_scenario", "emit"]


@dataclass(frozen=True)
class RunReport:
    config: dict
    report: CriterionReport
    # worst relative modular truncation bias over the C1 members that were
    # evaluated; only members supported down to 0 (the power family) have
    # any, so it reads 0 when ``families`` leaves out "power"
    truncation: dict
    wall_clock_seconds: float
    timestamp: str
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "report": self.report.to_dict(),
            "truncation": self.truncation,
            "wall_clock_seconds": self.wall_clock_seconds,
            "timestamp": self.timestamp,
            "version": self.version,
        }


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    t0 = time.perf_counter()
    grid = make_log_grid(cfg.x_min, cfg.n)
    report = equivalence_audit(
        cfg.exponent, grid,
        a_depth=cfg.a_depth,
        delta=cfg.delta,
        eps_depth=cfg.eps_depth,
        necessity_depth=cfg.necessity_depth,
        norm_tol=cfg.norm_tol,
        criteria_names=cfg.criteria,
        family_kinds=cfg.families,
        exponent_id=cfg.label,
    )
    truncation = {"grid_x_min": cfg.x_min,
                  "max_relative_modular_bias":
                      report.empirical_c1.max_relative_modular_bias}
    wall = time.perf_counter() - t0
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return RunReport(cfg.echo, report, truncation, wall, stamp)


def report_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def emit(report: RunReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the report; returns the paths written.

    JSON: one file with the full nested report.  CSV: one file per
    criterion series with header ``a,value,lo,hi``.  lo/hi are the
    certified bracket of the quotient that sets each C1 level and the
    norm bracket divided by phi(a) for C5; they collapse to the value on
    the other series, which track no interval bound.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    label = report.report.exponent_id or "scenario"
    written: list[Path] = []
    if fmt == "json":
        path = out / f"{label}.json"
        path.write_text(report_json(report), encoding="utf-8")
        written.append(path)
    elif fmt == "csv":
        for name, verdict in report.report.verdicts.items():
            if not verdict.series:
                continue
            path = out / f"{label}.{name}.csv"
            lines = ["a,value,lo,hi"]
            bounds = verdict.bounds or [(v, v) for _, v in verdict.series]
            for (param, value), (lo, hi) in zip(verdict.series, bounds):
                lines.append(f"{param!r},{value!r},{lo!r},{hi!r}")
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return written
