"""The in-house config validator against jsonschema as the oracle."""

import json
import math

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from hardyvx import config
from hardyvx.config import ConfigError, load_schema, parse_config
from hardyvx.report import report_json, run_scenario

SCHEMA = load_schema()
ORACLE = jsonschema.Draft202012Validator(SCHEMA)
FAMILIES = [branch["properties"]["family"]["const"]
            for branch in SCHEMA["properties"]["exponent"]["oneOf"]
            if "family" in branch["properties"]]


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    for sub in schema.get("oneOf", ()):
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def _valid(schema):
    """Instances that satisfy ``schema``, for the keywords it uses."""
    if "oneOf" in schema:
        return st.one_of([_valid(branch) for branch in schema["oneOf"]])
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "string":
        return st.text(max_size=6)
    if kind == "integer":
        ints = st.integers(schema["minimum"],
                           schema.get("maximum", schema["minimum"] + 100))
        return ints | ints.map(float)  # 401.0 is an integer
    if kind == "number":
        lo = schema.get("minimum", schema.get("exclusiveMinimum", -1e3))
        hi = schema.get("maximum", schema.get("exclusiveMaximum", 1e3))
        floats = st.floats(lo, hi, exclude_min="exclusiveMinimum" in schema,
                           exclude_max="exclusiveMaximum" in schema)
        inside = range(math.floor(lo) + 1, math.ceil(hi))
        return floats | st.sampled_from(inside) if inside else floats
    if kind == "array":
        return st.lists(_valid(schema["items"]),
                        min_size=schema.get("minItems", 0), max_size=4,
                        unique=schema.get("uniqueItems", False))
    props, required = schema.get("properties", {}), schema.get("required", [])
    return st.fixed_dictionaries(
        {k: _valid(v) for k, v in props.items() if k in required},
        optional={k: _valid(v) for k, v in props.items()
                  if k not in required})


# every numeric bound in the schema, and values just inside and outside it
BOUNDS = sorted({sub[k] for sub in _subschemas(SCHEMA)
                 for k in ("minimum", "maximum", "exclusiveMinimum",
                           "exclusiveMaximum") if k in sub})
EDGES = st.sampled_from(BOUNDS).flatmap(lambda b: st.sampled_from([
    b, float(b), b - 1, b + 1,
    math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]))
JUNK = st.one_of(st.booleans(), st.none(), st.integers(-3, 3),
                 st.floats(-3.0, 3.0), st.text(max_size=3), st.builds(list),
                 st.builds(dict), st.sampled_from(FAMILIES + ["nope"]))
KEYS = st.sampled_from(["bogus", "catalog", "family", "p0", "n"])


def _slots(node):
    """Every (container, key) pair below ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


@st.composite
def configs(draw):
    """A valid config with up to three mutations: a value replaced by one
    of another type, a number moved to a bound's edge, a key deleted or
    added, an array given a repeated entry or emptied."""
    cfg = draw(_valid(SCHEMA))
    for _ in range(draw(st.integers(0, 3))):
        slots = list(_slots(cfg))
        numbers = [(n, k) for n, k in slots if config._is_number(n[k])]
        kind = draw(st.sampled_from(["junk", "edge", "delete", "extra",
                                     "repeat", "empty"]))
        if kind == "edge" and numbers:
            node, key = draw(st.sampled_from(numbers))
            node[key] = draw(EDGES)
        elif kind in ("junk", "delete") and slots:
            node, key = draw(st.sampled_from(slots))
            if kind == "delete":
                del node[key]
            else:
                node[key] = draw(JUNK)
        elif kind == "extra":
            dicts = [cfg] + [n[k] for n, k in slots if isinstance(n[k], dict)]
            draw(st.sampled_from(dicts))[draw(KEYS)] = draw(JUNK)
        else:
            lists = [n[k] for n, k in slots if isinstance(n[k], list)]
            if lists:
                seq = draw(st.sampled_from(lists))
                if kind == "repeat" and seq:
                    seq.append(seq[0])
                else:
                    seq.clear()
    return cfg


def _message(err) -> str:
    return f"{'.'.join(map(str, err.absolute_path)) or '(root)'}: " \
        f"{err.message}"


@settings(max_examples=300, deadline=None)
@given(configs())
@example({"exponent": {"catalog": "x"}, "grid": {"n": 401.0}})
@example({"exponent": {"family": "constant", "p0": True}})
@example({"exponent": {"family": "nope", "p0": 2}})
@example({"exponent": {"catalog": "x", "family": "constant", "p0": 2}})
@example({"exponent": {"catalog": "x"}, "eps_depth": 1.0, "a_depth": 2.0})
@example({"exponent": {"catalog": "x"}, "grid": {"x_min": 1.0, "n": 100001}})
@example({"exponent": {"catalog": "x"}, "grid": {"n": 100002},
          "tolerances": {"norm_tol": 0}})
def test_validator_agrees_with_jsonschema(cfg):
    mine = config._problems(cfg, SCHEMA)
    assert (not mine) == ORACLE.is_valid(cfg)
    # same messages; under oneOf the oracle reports every branch's
    # failures, and the chosen branch's must be those listed
    in_exponent = [m for m in mine if m.startswith(("exponent:",
                                                    "exponent."))]
    elsewhere = [m for m in mine if m not in in_exponent]
    oracle, branches = [], {}
    for err in ORACLE.iter_errors(cfg):
        if err.validator != "oneOf":
            oracle.append(_message(err))
        for sub in err.context or ():
            branches.setdefault(sub.schema_path[0], []).append(_message(sub))
    assert sorted(elsewhere) == sorted(oracle)
    exponent = cfg.get("exponent")
    if not isinstance(exponent, dict) or "catalog" in exponent \
            or exponent.get("family") in FAMILIES:
        assert in_exponent == [] or sorted(in_exponent) in [
            sorted(b) for b in branches.values()]


@pytest.mark.parametrize("schema, instance", [
    ({"type": "integer"}, 401.0),
    ({"type": "integer"}, 401.5),
    ({"type": "integer"}, True),
    ({"type": "number"}, False),
    ({"type": "number"}, None),
    ({"type": "integer"}, "1"),
    ({"minimum": 1, "exclusiveMaximum": 2}, None),
    ({"minimum": 1}, True),
    ({"maximum": 1}, "a"),
    ({"enum": [1, "a"]}, True),
    ({"enum": [1, "a"]}, 1.0),
    ({"const": 0}, False),
    ({"uniqueItems": True}, [1, True]),
    ({"uniqueItems": True}, [1, 1.0]),
    ({"minItems": 1}, []),
    ({"minItems": 2}, [0]),
    ({"minItems": 2}, "a"),
    ({"required": ["a"], "additionalProperties": False}, {"b": 1, "c": 2}),
])
def test_keyword_semantics_and_wording(schema, instance):
    oracle = jsonschema.Draft202012Validator(schema).iter_errors(instance)
    assert sorted(config._problems(instance, schema)) \
        == sorted(_message(e) for e in oracle)


def test_validator_implements_every_schema_keyword():
    for sub in _subschemas(SCHEMA):
        for instance in (None, True, 0, 0.5, "x", [], {}):
            config._problems(instance, sub)


@pytest.mark.parametrize("schema", [
    {"pattern": "^a"},
    {"additionalProperties": {"type": "string"}},
    {"properties": {"a": {"maxLength": 3}}},
])
def test_unknown_keyword_raises(schema):
    with pytest.raises(NotImplementedError):
        config._problems({"a": "x"}, schema)


def test_load_schema_hands_out_a_copy():
    load_schema()["properties"]["grid"]["properties"]["n"]["maximum"] = 20
    first = parse_config('{"exponent":{"catalog":"constant-2"},'
                         '"grid":{"n":401}}')
    first.echo["criteria"].clear()
    assert parse_config(json.dumps({"exponent": {"catalog": "constant-2"}})
                        ).criteria == ("A", "B", "C1", "C2", "C3", "C4", "C5")


def test_integer_valued_floats_become_int():
    cfg = parse_config(json.dumps({
        "exponent": {"catalog": "constant-2"}, "grid": {"n": 401.0},
        "a_depth": 20.0, "eps_depth": 5.0, "necessity_depth": 1e1}))
    values = (cfg.n, cfg.a_depth, cfg.eps_depth, cfg.necessity_depth)
    assert values == (401, 20, 5, 10)
    assert all(type(v) is int for v in values)
    assert cfg.echo["grid"]["n"] == 401 and type(cfg.echo["grid"]["n"]) is int


@pytest.mark.parametrize("text, token", [
    ('{"exponent":{"catalog":"constant-2"},"grid":{"x_min":NaN}}', "NaN"),
    ('{"exponent":{"family":"constant","p0":NaN}}', "NaN"),
    ('{"exponent":{"catalog":"constant-2"},"delta":NaN}', "NaN"),
    ('{"exponent":{"family":"constant","p0":Infinity}}', "Infinity"),
    ('{"exponent":{"catalog":"constant-2"},'
     '"tolerances":{"norm_tol":Infinity}}', "Infinity"),
    ('{"exponent":{"catalog":"constant-2"},"delta":-Infinity}', "-Infinity"),
    ('{"exponent":{"family":"constant","p0":1e400}}', "1e400"),
])
def test_non_finite_numbers_rejected(text, token):
    # refused while the JSON is read, before any key is validated, so
    # also under a key the schema does not have (``delta``)
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [f"{token} is not a finite number"]


def test_exponent_branch_chosen_by_its_key():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"exponent":{"family":"nope","p0":2}}')
    assert exc.value.errors == [
        f"exponent.family: 'nope' is not one of {FAMILIES!r}"]
    assert len(FAMILIES) == 7
    with pytest.raises(ConfigError) as exc:
        parse_config('{"exponent":{"p0":2}}')
    assert exc.value.errors == [
        "exponent: 'catalog' or 'family' is a required property"]
    # every violation within the named family is listed
    with pytest.raises(ConfigError) as exc:
        parse_config('{"exponent":{"family":"log-perturbed","p0":2,"c":0,'
                     '"alpha":-1,"sign":"x"}}')
    assert exc.value.errors == [
        "exponent.alpha: -1 is less than or equal to the minimum of 0.0",
        "exponent.c: 0 is less than or equal to the minimum of 0.0",
        "exponent.sign: 'x' is not one of ['+', '-']"]


# grids on which an audit takes milliseconds
CHEAP_GRIDS = st.fixed_dictionaries({"x_min": st.sampled_from([1e-3, 1e-6]),
                                     "n": st.sampled_from([32, 64])})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_valid(SCHEMA), CHEAP_GRIDS)
@example({"exponent": {"family": "tabulated", "xs": [5e-324, 1.0],
                       "ps": [1.0, 1.0]}}, {"x_min": 1e-3, "n": 32})
@example({"exponent": {"family": "log-perturbed", "p0": 297,
                       "c": 447.2036440863224, "alpha": 350, "sign": "-"}},
         {"x_min": 1e-3, "n": 32})
@example({"exponent": {"family": "log-perturbed", "p0": 928, "c": 5e-324,
                       "alpha": 385.4704670888932, "sign": "+"}},
         {"x_min": 1e-3, "n": 32})
@example({"exponent": {"family": "piecewise-constant",
                       "breakpoints": [0.03125, 0.12500000000000003],
                       "values": [1.5, 2.5, 2.0]}}, {"x_min": 1e-3, "n": 32})
@example({"exponent": {"family": "piecewise-constant",
                       "breakpoints": [0.009284145445194743,
                                       0.009284145445194745],
                       "values": [2.0, 3.0, 2.5]}}, {"x_min": 1e-3, "n": 32})
def test_valid_configs_end_in_a_report(cfg, grid):
    # every schema-valid config, on a cheap grid, is refused with a
    # ConfigError or audited into a report, with no other exception and
    # no RuntimeWarning, which the suite turns into an error; the examples
    # once took ln 0 at the germ, and overflowed c/eta**alpha, the third
    # has p_plus = inf, the fourth cuts C2, C4 and C5 at a delta whose log
    # is that of the scale a = 1/8, and the last has a piece of no width
    # in u between two jumps at a node
    text = json.dumps({**cfg, "grid": grid})
    try:
        parsed = parse_config(text)
    except ConfigError:
        return
    assert json.loads(report_json(run_scenario(parsed)))["report"]


@pytest.mark.xfail(raises=RuntimeWarning, strict=True, reason=(
    "ROADMAP item 7: p_plus = 4.4e307 overflows p ln|f| and sigma p in "
    "the prepared cells"))
def test_a_huge_finite_p_plus_ends_in_a_report():
    # p is p0 = 224 wherever eta**alpha passes the largest double, which
    # no longer warns (tests/test_exponent.py), but p_plus, a finite
    # double, still overflows the modular's products
    cfg = {"exponent": {"family": "log-perturbed", "p0": 224, "c": 999,
                        "alpha": 337.2025318135346, "sign": "+"},
           "grid": {"x_min": 1e-3, "n": 32}}
    run_scenario(parse_config(json.dumps(cfg)))
