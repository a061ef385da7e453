"""Run reports: scenario execution and JSON/CSV emission.

JSON reports are deterministic for identical configurations: keys are
sorted and floats rendered by ``repr``, with the top-level fields named
in ``VARYING_FIELDS`` the only varying entries; comparison tooling
strips those.
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

__all__ = ["RunReport", "VARYING_FIELDS", "run_scenario", "emit"]

# the top-level report fields that differ between runs of one config
VARYING_FIELDS = ("timestamp", "wall_clock_seconds")


@dataclass(frozen=True)
class RunReport:
    config: dict
    report: CriterionReport
    # worst relative modular truncation bias over the evaluated C1 members;
    # only members supported down to 0 (the power family) have any, so it
    # reads 0 without "power" in ``families``, and None without C1
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
        eps_depth=cfg.eps_depth,
        necessity_depth=cfg.necessity_depth,
        norm_tol=cfg.norm_tol,
        criteria_names=cfg.criteria,
        family_kinds=cfg.families,
        exponent_id=cfg.label,
    )
    c1 = report.empirical_c1
    truncation = {"grid_x_min": cfg.x_min, "max_relative_modular_bias":
                  None if c1 is None else c1.max_relative_modular_bias}
    wall = time.perf_counter() - t0
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return RunReport(cfg.echo, report, truncation, wall, stamp)


def report_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def emit(report: RunReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the report; returns the paths written.

    JSON: one file with the full nested report.  CSV: one file per
    criterion series with header ``level,value,lo,hi``, level the dyadic
    level j = -log2 a (``eps,value,lo,hi`` for C3's one witness row).
    lo/hi are the certified bracket of the quotient that sets each C1
    level and the norm bracket divided by phi(a) for C5; they collapse
    to the value on the other series, which track no interval bound.
    The label names the files, so it must be one path component: else
    ValueError, and nothing is written.
    """
    label = report.report.exponent_id or "scenario"
    if label == ".." or Path(label).name != label:
        raise ValueError(f"label {label!r} is not a single path component")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
            lines = [f"{'eps' if name == 'C3' else 'level'},value,lo,hi"]
            bounds = verdict.bounds or [(v, v) for _, v in verdict.series]
            for (param, value), (lo, hi) in zip(verdict.series, bounds):
                lines.append(f"{param!r},{value!r},{lo!r},{hi!r}")
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return written
