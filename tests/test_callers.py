"""What code outside the package calls: the README's library example,
its CLI configs and the names the benchmark harness in ``bench/`` wraps
or reads."""

import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

from hardyvx.cli import main
from hardyvx.config import parse_config
from hardyvx.exponent import ExponentFunction

ROOT = Path(__file__).resolve().parents[1]


def _readme_section(title):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", _readme_section("Library"),
                          re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].verdicts


def test_readme_cli_configs_run(tmp_path, capsys):
    configs = re.findall(r"```json\n(.*?)```", _readme_section("CLI"), re.S)
    assert configs
    path = tmp_path / "cfg.json"
    for config in configs:
        path.write_text(config, encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0, config


def test_names_bench_needs_exist():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = list(tracer.TRACED) + [("hardy", "operator_norm_lower_bound"),
                                    ("hardy", "modular"),
                                    ("hardy", "luxemburg_norm")]
    missing = [f"{module}.{name}" for module, name in wanted
               if not callable(getattr(importlib.import_module(
                   f"hardyvx.{module}"), name, None))]
    assert not missing
    assert callable(ExponentFunction.eval)
    # the exponent readers bench/selftest.py calls on a parsed case
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    case = workloads.make_cases("jumps", 1)[0]
    p = parse_config(json.dumps(case.config)).exponent
    assert p.limit_at_origin() > 1.0
    assert p.monotonicity() == "nondecreasing"
    assert 4 <= len(p.discontinuities()) <= 8
