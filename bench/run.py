"""hardyvx audit benchmark.

Runs one workload through the path ``hardyvx run`` and ``audit-all`` take
(``config.parse_config`` -> ``report.run_scenario`` -> ``report.report_json``)
in this one process, checks every C1-C5 verdict against the theory class
of its input, and prints the metrics.

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

A run audits whole passes over the workload's input set until at least
``--seconds`` have gone by (at least one pass).  ``--trace 0`` prints the
end-to-end metrics, measured with tracing off; ``--trace 1`` audits the
first input once untraced, then runs the passes traced and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``failed`` counts audits that raised plus audits in which any of C1-C5
reports the class opposite to the input's theory class (``inconclusive``
never counts); ``failed / attempted`` is ``failed_share``.  ``correct`` is
false when an audit returns a report that is not well formed.

If ``HARDYVX_THREADS`` is unset it is set to the affinity core count, so
the C1 pool never has more threads than cores; the value is recorded.
The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, contradictions, make_cases

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

VALID_CLASSES = {"bounded", "divergent", "inconclusive"}
SETUP_PROCESSES = 5

# Fresh-process set-up: import, schema load, first parse_config and the
# grid build.  Timed inside the child, so interpreter start-up is excluded.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hardyvx
from hardyvx import config, grids
config.load_schema()
cfg = config.parse_config(sys.argv[2])
grids.make_log_grid(cfg.x_min, cfg.n)
print(repr(time.perf_counter() - t0))
"""

# A tiny audit run before timing starts, so lazy imports and first-call
# allocations are not charged to the first measured input.
WARMUP_CONFIG = {"exponent": {"family": "constant", "p0": 2.0},
                 "grid": {"x_min": 1e-4, "n": 200}}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "hardyvx" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'hardyvx'}")
    sys.path.insert(0, str(SRC))
    import hardyvx
    if Path(hardyvx.__file__).resolve().parent != SRC / "hardyvx":
        fail(f"imported hardyvx from {hardyvx.__file__}, not {SRC}")
    import hardyvx.config
    import hardyvx.report
    return hardyvx


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref  # detached HEAD
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def machine(threads_set: bool) -> dict:
    import numpy
    return {
        "affinity_cores": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "HARDYVX_THREADS": os.environ["HARDYVX_THREADS"],
        "HARDYVX_THREADS_set_by_benchmark": threads_set,
        "git_commit": git_commit(),
    }


def host_steal_s() -> float | None:
    """CPU seconds the hypervisor has taken from this machine's CPUs (the
    steal column of /proc/stat), or None where that is not known."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def setup_seconds(config_text: str) -> float:
    """Median set-up time over fresh processes.  This process has
    imported the program already, so bytecode compilation is not in the
    samples."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), config_text],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            fail(f"set-up process failed:\n{out.stderr}")
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def audit(hv, config_text: str) -> tuple[float, str]:
    """One audit as the CLI runs it; module attributes are looked up at
    call time so the tracer's wrappers apply."""
    t0 = time.perf_counter()
    cfg = hv.config.parse_config(config_text)
    rep = hv.report.run_scenario(cfg)
    text = hv.report.report_json(rep)
    return time.perf_counter() - t0, text


def check_report(text: str, label: str) -> dict | None:
    """Verdict classes of a well-formed report, or None."""
    try:
        rep = json.loads(text)["report"]
        classes = {k: v["class"] for k, v in rep["verdicts"].items()}
    except (ValueError, KeyError, TypeError):
        return None
    if rep.get("exponent") != label or not classes \
            or not set(classes.values()) <= VALID_CLASSES:
        return None
    return classes


@dataclass
class Pass:
    """Outcome of the audits run in one measurement."""

    times: list = field(default_factory=list)
    first_pass: list = field(default_factory=list)  # per input, 1st pass
    wall: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    raised: int = 0
    contradicted: int = 0
    malformed: int = 0
    verdicts: int = 0
    inconclusive: int = 0
    steal: float | None = None  # host steal during the passes, in CPU s


def run_passes(hv, cases, seconds: float) -> Pass:
    texts = [json.dumps(c.config) for c in cases]
    out = Pass()
    steal0 = host_steal_s()
    while out.wall < seconds or not out.attempted:
        reports = []
        t0, c0 = time.perf_counter(), time.process_time()
        for case, text in zip(cases, texts):
            try:
                dt, report = audit(hv, text)
            except Exception as exc:  # an audit that raises is a failure
                print(f"bench: {case.label} raised {exc!r}", file=sys.stderr)
                reports.append(None)
                if len(out.first_pass) < len(cases):
                    out.first_pass.append(math.nan)
                continue
            if len(out.first_pass) < len(cases):
                out.first_pass.append(dt)
            out.times.append(dt)
            reports.append(report)
        out.wall += time.perf_counter() - t0
        out.cpu += time.process_time() - c0
        for case, report in zip(cases, reports):
            out.attempted += 1
            if report is None:
                out.raised += 1
                continue
            classes = check_report(report, case.label)
            if classes is None:
                out.malformed += 1
                continue
            out.verdicts += len(classes)
            out.inconclusive += sum(c == "inconclusive"
                                    for c in classes.values())
            wrong = contradictions(classes, case.theory)
            if wrong:
                out.contradicted += 1
                print(f"bench: {case.label}: {', '.join(wrong)} contradict "
                      f"theory class {case.theory}", file=sys.stderr)
    steal1 = host_steal_s()
    if steal0 is not None and steal1 is not None:
        out.steal = steal1 - steal0
    return out


def end_to_end(res: Pass, setup_s: float) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "audits_per_s": (len(res.times) / res.wall, "1/s"),
        "audit_s.p50": (statistics.median(res.times), "s"),
        "cpu_s_per_audit": (res.cpu / res.attempted, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def untraced_reference(hv, cases, seconds: float) -> list[float]:
    """Untraced times of the leading inputs, audited until ``seconds``
    have gone by; the traced pass repeats them to give the overhead."""
    times = []
    for case in cases:
        times.append(audit(hv, json.dumps(case.config))[0])
        if sum(times) >= seconds:
            break
    return times


def per_layer(res: Pass, totals: dict, reference: list[float]) -> dict:
    def busy(key):
        return totals.get(key + ".busy_s", 0.0)

    def calls(key):
        return totals.get(key + ".calls", 0.0)

    stages = {"A": "condition_A", "B": "condition_B",
              "C2": "criterion_C2", "C3": "criterion_C3",
              "C4": "criterion_C4", "C5": "criterion_C5",
              "oscillation": "dyadic_oscillation",
              "doubling": "phi_doubling"}
    audit_s = busy("criteria.equivalence_audit")
    stage_sum = sum(busy(f"criteria.{fn}") for fn in stages.values())
    modulars, norms = calls("lpnorm.modular"), calls("lpnorm.luxemburg_norm")
    untraced = sum(reference)
    overhead = sum(res.first_pass[:len(reference)]) - untraced
    metrics = {
        "config.parse_s": (busy("config.parse_config"), "s"),
        "report.self_s": (busy("report.run_scenario") - audit_s, "s"),
        "report.json_s": (busy("report.report_json"), "s"),
    }
    for name, fn in stages.items():
        metrics[f"criteria.{name}_s"] = (busy(f"criteria.{fn}"), "s")
    metrics.update({
        "criteria.audit_self_s": (
            audit_s - stage_sum - totals.get("hardy.C1_s", 0.0), "s"),
        "criteria.inconclusive_share": (
            res.inconclusive / max(res.verdicts, 1), "ratio"),
        "hardy.C1_s": (totals.get("hardy.C1_s", 0.0), "s"),
        "hardy.C1_cpu_s": (totals.get("hardy.C1_cpu_s", 0.0), "s"),
        "hardy.members": (totals.get("hardy.members", 0.0), "count"),
        "hardy.skipped": (totals.get("hardy.skipped", 0.0), "count"),
        "hardy.quotients": (totals.get("hardy.quotients", 0.0), "count"),
        "hardy.hardy_average_s": (busy("hardy.hardy_average"), "s"),
        "lpnorm.norm_calls": (norms, "count"),
        "lpnorm.modular_calls": (modulars, "count"),
        "lpnorm.modular_per_norm": (modulars / max(norms, 1), "count"),
        "lpnorm.modular_ms": (
            1e3 * busy("lpnorm.modular") / max(modulars, 1), "ms"),
        "lpnorm.norm_s": (busy("lpnorm.luxemburg_norm"), "s"),
        "grids.integrate_calls": (calls("grids.integrate"), "count"),
        "grids.integrate_per_modular": (
            calls("grids.integrate") / max(modulars, 1), "count"),
        "grids.integrate_s": (busy("grids.integrate"), "s"),
        "grids.cumulative_integral_s": (busy("grids.cumulative_integral"),
                                        "s"),
        "grids.integrate_dlog_s": (busy("grids.integrate_dlog"), "s"),
        "exponent.eval_calls": (totals.get("exponent.eval_calls", 0.0),
                                "count"),
        "exponent.eval_points": (totals.get("exponent.eval_points", 0.0),
                                 "count"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / untraced, "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads_set = "HARDYVX_THREADS" not in os.environ
    if threads_set:
        os.environ["HARDYVX_THREADS"] = str(len(os.sched_getaffinity(0)))
    hv = import_program()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(WORKLOADS)}")

    cases = make_cases(args.workload, args.seed)
    info = machine(threads_set)
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} inputs "
          f"per pass, at least {args.seconds:g} s of passes")

    audit(hv, json.dumps(WARMUP_CONFIG))

    if args.trace:
        reference = untraced_reference(hv, cases, args.seconds / 2.0)
        with Tracer() as tracer:
            res = run_passes(hv, cases, args.seconds)
        metrics = per_layer(res, tracer.totals(), reference)
        print("busy times of functions that run on the C1 pool's threads "
              "are summed over threads; trace.overhead_* is traced minus "
              f"untraced wall time of the first {len(reference)} input(s)")
    else:
        setup_s = setup_seconds(json.dumps(cases[0].config))
        res = run_passes(hv, cases, args.seconds)
        metrics = end_to_end(res, setup_s)
        print(f"audit_s.p50 over {len(res.times)} audits")

    if not res.times:
        fail("no audit completed")
    if res.steal is not None:
        share = res.steal / (res.wall * (os.cpu_count() or 1))
        print(f"host steal during the passes: {share:.1%} of CPU time")
    failed = res.raised + res.contradicted
    print(f"failed_share {failed / res.attempted:.4g} ({failed} of "
          f"{res.attempted} audits: {res.raised} raised, {res.contradicted} "
          f"contradict theory)")
    metrics = {name: (int(value) if unit == "count" and value.is_integer()
                      else value, unit)
               for name, (value, unit) in metrics.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    result = {
        "correct": res.malformed == 0,
        "attempted": res.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
