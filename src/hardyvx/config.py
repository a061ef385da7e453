"""Scenario configuration: JSON parsing, validation, defaults.

Configs are validated against the published JSON schema shipped with the
package (``schema/config.schema.json``), the one source of constraints
and defaults.  Validation is done in-house for exactly the keyword subset
the schema uses, with JSON Schema 2020-12 semantics; any other keyword
raises ``NotImplementedError``.  The test suite uses the reference
JSON Schema validator of the ``test`` extra as its oracle.  Every
violation is reported with its field path rather than just the first
one.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass
from importlib import resources

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
    eps_depth: int
    necessity_depth: int
    norm_tol: float
    criteria: tuple[str, ...]
    families: tuple[str, ...]
    out: str | None
    format: str
    echo: dict  # the fully-defaulted configuration but ``out``, for reports


@functools.cache
def _schema() -> dict:
    text = (resources.files("hardyvx") / "schema" /
            "config.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def load_schema() -> dict:
    """The config schema, as a fresh copy the caller may change."""
    return copy.deepcopy(_schema())


# The validator: one check per schema keyword.  Each check takes the
# keyword's value, the instance, its path (a tuple of keys and indices),
# the list that collects (path, message) pairs, and the enclosing schema.
# Messages keep the reference validator's wording.

_ANNOTATIONS = frozenset({"$schema", "$id", "title", "default"})


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    # 401.0 is an integer in JSON Schema
    "integer": lambda v: _is_number(v) and (isinstance(v, int)
                                            or v.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality of scalars: a bool equals only itself, 1 equals 1.0."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _type(name, instance, path, errors, schema):
    if not _TYPES[name](instance):
        errors.append((path, f"{instance!r} is not of type {name!r}"))


def _properties(props, instance, path, errors, schema):
    if isinstance(instance, dict):
        for key, sub in props.items():
            if key in instance:
                _validate(sub, instance[key], (*path, key), errors)


def _additional_properties(allowed, instance, path, errors, schema):
    if allowed is not False:
        raise NotImplementedError("additionalProperties other than false")
    if isinstance(instance, dict):
        extras = sorted(k for k in instance if k not in
                        schema.get("properties", {}))
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            errors.append((path, "Additional properties are not allowed "
                                 f"({', '.join(map(repr, extras))} {verb} "
                                 "unexpected)"))


def _required(names, instance, path, errors, schema):
    if isinstance(instance, dict):
        errors.extend((path, f"{name!r} is a required property")
                      for name in names if name not in instance)


def _items(sub, instance, path, errors, schema):
    if isinstance(instance, list):
        for i, item in enumerate(instance):
            _validate(sub, item, (*path, i), errors)


def _min_items(least, instance, path, errors, schema):
    if isinstance(instance, list) and len(instance) < least:
        short = "should be non-empty" if least == 1 else "is too short"
        errors.append((path, f"{instance!r} {short}"))


def _unique_items(unique, instance, path, errors, schema):
    if unique and isinstance(instance, list) and any(
            _equal(a, b) for i, a in enumerate(instance)
            for b in instance[i + 1:]):
        errors.append((path, f"{instance!r} has non-unique elements"))


def _const(value, instance, path, errors, schema):
    if not _equal(instance, value):
        errors.append((path, f"{value!r} was expected"))


def _enum(values, instance, path, errors, schema):
    if not any(_equal(instance, v) for v in values):
        errors.append((path, f"{instance!r} is not one of {values!r}"))


def _bound(holds, relation):
    """A numeric bound check; it ignores non-numbers."""
    def check(limit, instance, path, errors, schema):
        if _is_number(instance) and not holds(instance, limit):
            errors.append((path, f"{instance!r} is {relation} {limit!r}"))
    return check


def _one_of(branches, instance, path, errors, schema):
    """``oneOf`` over object schemas that each name their key: the first
    required property, matched by presence or, where the branch fixes it
    with ``const``, by value.  Only the matching branch is checked, so its
    violations are the ones reported."""
    if not isinstance(instance, dict):
        # every branch is an object schema: any of them reports the type
        _validate(branches[0], instance, path, errors)
        return
    consts: dict[str, list] = {}
    for branch in branches:
        key = branch["required"][0]
        const = branch["properties"][key].get("const")
        consts.setdefault(key, []).append(const)
        if key in instance and (const is None
                                or _equal(instance[key], const)):
            _validate(branch, instance, path, errors)
            return
    for key, values in consts.items():
        if key in instance:
            errors.append(((*path, key), f"{instance[key]!r} is not one of "
                                         f"{values!r}"))
            return
    keys = " or ".join(map(repr, consts))
    errors.append((path, f"{keys} is a required property"))


_KEYWORDS = {
    "type": _type,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "required": _required,
    "items": _items,
    "minItems": _min_items,
    "uniqueItems": _unique_items,
    "const": _const,
    "enum": _enum,
    "minimum": _bound(lambda x, b: x >= b, "less than the minimum of"),
    "maximum": _bound(lambda x, b: x <= b, "greater than the maximum of"),
    "exclusiveMinimum": _bound(lambda x, b: x > b,
                               "less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(lambda x, b: x < b,
                               "greater than or equal to the maximum of"),
    "oneOf": _one_of,
}


def _validate(schema: dict, instance, path: tuple, errors: list) -> None:
    for keyword, value in schema.items():
        check = _KEYWORDS.get(keyword)
        if check is not None:
            check(value, instance, path, errors, schema)
        elif keyword not in _ANNOTATIONS:
            raise NotImplementedError(
                f"config schema keyword {keyword!r} is not implemented")


def _problems(instance, schema: dict) -> list[str]:
    """Every violation of ``schema`` by ``instance``, sorted by path."""
    errors: list = []
    _validate(schema, instance, (), errors)
    return [f"{'.'.join(map(str, path)) or '(root)'}: {message}"
            for path, message in sorted(errors, key=lambda e: e[0])]


def _with_defaults(raw: dict, schema: dict) -> dict:
    """``raw`` with omitted properties filled from the schema's defaults
    and integer-typed values made ``int`` (a valid ``n`` may be 401.0)."""
    out = dict(raw)
    for key, prop in schema["properties"].items():
        if "properties" in prop:
            out[key] = _with_defaults(raw.get(key, {}), prop)
        elif key not in out:
            if "default" in prop:
                out[key] = copy.deepcopy(prop["default"])
        elif prop.get("type") == "integer":
            out[key] = int(out[key])
    return out


def _non_finite(token: str):
    # Python's json reads NaN and Infinity, and 1e400 as inf; NaN passes
    # every bound, so none of them may reach validation
    raise ConfigError([f"{token} is not a finite number"])


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        _non_finite(token)
    return value


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
        raw = json.loads(text, parse_constant=_non_finite,
                         parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc

    schema = _schema()
    problems = _problems(raw, schema)
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
        eps_depth=cfg["eps_depth"],
        necessity_depth=cfg["necessity_depth"],
        norm_tol=cfg["tolerances"]["norm_tol"],
        criteria=tuple(cfg["criteria"]),
        families=tuple(cfg["families"]),
        out=out,
        format=cfg["format"],
        echo=cfg,
    )
