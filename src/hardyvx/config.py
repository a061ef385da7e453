"""Scenario configuration: JSON parsing, validation, defaults.

Configs are validated against the published JSON schema shipped with the
package (``schema/config.schema.json``); every violation is reported with
its field path rather than just the first one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import jsonschema

from .catalog import catalog_exponent
from .exponent import (
    Constant,
    DyadicJump,
    ExponentFunction,
    LogLogPerturbed,
    LogPerturbed,
    PiecewiseConstant,
    PiecewiseLinear,
    Tabulated,
)

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "load_schema"]


class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists every violation."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class ScenarioConfig:
    label: str
    exponent: ExponentFunction
    x_min: float
    n: int
    a_depth: int
    delta: float | None
    eps_depth: int
    necessity_depth: int
    norm_tol: float
    criteria: tuple[str, ...]
    families: tuple[str, ...]
    out: str | None
    format: str
    echo: dict  # the fully-defaulted configuration but ``out``, for reports


def load_schema() -> dict:
    text = (resources.files("hardyvx") / "schema" /
            "config.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def _with_defaults(raw: dict, schema: dict) -> dict:
    """``raw`` with omitted properties filled from the schema's defaults."""
    out = dict(raw)
    for key, prop in schema["properties"].items():
        if "properties" in prop:
            out[key] = _with_defaults(raw.get(key, {}), prop)
        elif "default" in prop:
            out.setdefault(key, prop["default"])
    return out


def _build_exponent(spec: dict) -> ExponentFunction:
    if "catalog" in spec:
        return catalog_exponent(spec["catalog"]).exponent
    family = spec["family"]
    if family == "constant":
        return Constant(spec["p0"])
    if family == "log-perturbed":
        return LogPerturbed(spec["p0"], spec["c"], spec["alpha"],
                            spec.get("sign", "+"))
    if family == "loglog-perturbed":
        return LogLogPerturbed(spec["p0"], spec["c"])
    if family == "piecewise-constant":
        return PiecewiseConstant(tuple(spec["breakpoints"]),
                                 tuple(spec["values"]))
    if family == "piecewise-linear":
        return PiecewiseLinear(tuple(spec["breakpoints"]),
                               tuple(spec["values"]))
    if family == "dyadic-jump":
        return DyadicJump(spec["p0"], tuple(spec["gammas"]),
                          tuple(spec["scales"]))
    if family == "tabulated":
        return Tabulated(tuple(spec["xs"]), tuple(spec["ps"]))
    raise ConfigError([f"exponent.family: unknown family {family!r}"])


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc

    schema = load_schema()
    validator = jsonschema.Draft202012Validator(schema)
    problems = []
    for err in sorted(validator.iter_errors(raw), key=lambda e: list(e.path)):
        # inside a oneOf, report the closest-matching branch's failure;
        # when the instance names a family, failures from that family's
        # branch beat the generic "additional properties" ones
        if err.context:
            family = (err.instance or {}).get("family") \
                if isinstance(err.instance, dict) else None
            branches = err.validator_value if err.validator == "oneOf" else []
            relevant = []
            for e in err.context:
                idx = list(e.schema_path)[0]
                branch = branches[idx] if isinstance(idx, int) else {}
                if family is not None and branch.get(
                        "properties", {}).get("family",
                                              {}).get("const") == family:
                    relevant.append(e)
            err = jsonschema.exceptions.best_match(relevant or err.context) \
                or err
        path = ".".join(str(p) for p in err.absolute_path) or "(root)"
        problems.append(f"{path}: {err.message}")
    if problems:
        raise ConfigError(problems)

    try:
        exponent = _build_exponent(raw["exponent"])
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError([f"exponent: {exc}"]) from exc

    label = raw.get("label") or raw["exponent"].get("catalog") \
        or raw["exponent"].get("family", "scenario")
    cfg = _with_defaults(raw, schema)
    cfg["label"] = label
    out = cfg.pop("out", None)
    return ScenarioConfig(
        label=label,
        exponent=exponent,
        x_min=cfg["grid"]["x_min"],
        n=cfg["grid"]["n"],
        a_depth=cfg["a_depth"],
        delta=cfg["delta"],
        eps_depth=cfg["eps_depth"],
        necessity_depth=cfg["necessity_depth"],
        norm_tol=cfg["tolerances"]["norm_tol"],
        criteria=tuple(cfg["criteria"]),
        families=tuple(cfg["families"]),
        out=out,
        format=cfg["format"],
        echo=cfg,
    )
