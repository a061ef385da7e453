"""Per-layer tracing from outside the program.

The tracer replaces module attributes that callers look up at call time
(``lpnorm.modular``, ``criteria.criterion_C5``, ...) with wrappers that
count calls and busy time, then puts the originals back.  No source of
the program changes.  Counters live in one table per thread, so the C1
sweep's pool threads never race on a shared counter; the tables are
summed when the pass ends.  Busy times of functions that run on pool
threads are summed over threads and can exceed wall time.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs timed and counted; the key is "<module>.<name>"
TRACED = (
    ("config", "parse_config"),
    ("report", "run_scenario"),
    ("report", "report_json"),
    ("criteria", "equivalence_audit"),
    ("criteria", "condition_A"),
    ("criteria", "condition_B"),
    ("criteria", "criterion_C2"),
    ("criteria", "criterion_C3"),
    ("criteria", "criterion_C4"),
    ("criteria", "criterion_C5"),
    ("criteria", "dyadic_oscillation"),
    ("criteria", "phi_doubling"),
    ("hardy", "hardy_average"),
    ("lpnorm", "luxemburg_norm"),
    ("lpnorm", "modular"),
    ("grids", "integrate"),
    ("grids", "cumulative_integral"),
    ("grids", "integrate_dlog"),
)


class Tracer:
    """Installs counting wrappers on the ``hardyvx`` package; use as a
    context manager so the originals are always restored."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tables: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- counters ---------------------------------------------------------

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = defaultdict(float)
            with self._lock:
                self._tables.append(table)
            self._local.table = table
        return table

    def totals(self) -> dict:
        """Counters summed over every thread that ran traced code."""
        out: dict = defaultdict(float)
        with self._lock:
            for table in self._tables:
                for key, value in table.items():
                    out[key] += value
        return out

    # -- wrappers ---------------------------------------------------------

    def _timed(self, key: str, fn):
        calls, busy = key + ".calls", key + ".busy_s"

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                table = self._table()
                table[calls] += 1
                table[busy] += time.perf_counter() - t0
        return wrapper

    def _c1(self, fn):
        """operator_norm_lower_bound: wall and process CPU time (the
        pool's threads included), members in, quotients and skips out."""
        def wrapper(p, members, *args, **kwargs):
            t0, c0 = time.perf_counter(), time.process_time()
            table = self._table()
            table["hardy.members"] += len(members)
            try:
                result = fn(p, members, *args, **kwargs)
                table["hardy.quotients"] += len(result.quotients)
                table["hardy.skipped"] += len(result.skipped)
                return result
            finally:
                table["hardy.C1_s"] += time.perf_counter() - t0
                table["hardy.C1_cpu_s"] += time.process_time() - c0
        return wrapper

    def _eval(self, fn):
        def wrapper(p, x):
            table = self._table()
            table["exponent.eval_calls"] += 1
            table["exponent.eval_points"] += np.size(x)
            return fn(p, x)
        return wrapper

    # -- install / restore ------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Point every ``hardyvx`` module attribute bound to ``original``
        at ``replacement``: the defining module and each importer."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "hardyvx"
                                      or name.startswith("hardyvx.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def __enter__(self) -> "Tracer":
        import hardyvx.config
        import hardyvx.report
        for mod_name, fn_name in TRACED:
            module = sys.modules[f"hardyvx.{mod_name}"]
            original = getattr(module, fn_name)
            self._replace(original,
                          self._timed(f"{mod_name}.{fn_name}", original))
        c1 = sys.modules["hardyvx.hardy"].operator_norm_lower_bound
        self._replace(c1, self._c1(c1))
        cls = sys.modules["hardyvx.exponent"].ExponentFunction
        self._undo.append((cls, "eval", cls.eval))
        cls.eval = self._eval(cls.eval)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
