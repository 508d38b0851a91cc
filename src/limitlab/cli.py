"""Declarative experiment runner.

Subcommands: ``trace`` (schema sweep along one fate), ``identify`` (class
identification table), ``theorems`` (witness suite), ``list`` (registries).
Configuration comes from a JSON document; flags override file values. Output
is byte-identical for identical configs. Exit codes: 0 success, 1 theorem
suite failure, 2 usage or config error, 141 stdout closed early (a reader
such as ``head`` went away; 128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Sequence

from .core import STRATEGIES, UNIVERSES, TextStrategy, is_pause, make_fate
from .families import LANGUAGES, LanguageFamily, family_from_config, resolve_language
from .identification import TraceStep, identify_class, transformation_trace
from .scientists import SCIENTISTS, Scientist, build_scientist
from .theorems import run_theorem_suite

PROG = "limitlab"

DEFAULTS: dict = {
    "universe": "decimal",
    "family": {"specials": ["evens", "odds"]},
    "scientist": "memorizer",
    "language": "evens",
    "languages": ["{}", "{2}", "{2,4}"],
    "strategy": "canonical",
    "strategies": ["canonical"],
    "seed": 0,
    "seeds": [0],
    "horizon": 32,
    "trials": 10_000,
    "format": "pretty",
}

_MAX_SEED = 2**64 - 1
_MAX_HORIZON = sys.maxsize - 1  # a trace streams horizon + 1 data, and islice stops at sys.maxsize
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


class ConfigError(Exception):
    pass


def parse_strategy(spec) -> TextStrategy:
    """Strategy spec: "padded:0.25" style string or {"name": ..., params} dict."""
    try:
        if isinstance(spec, str):
            name, _, arg = spec.partition(":")
            name = name.strip()
        else:
            params = dict(spec)
            name = params.pop("name", None)
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy: {name!r}")
        if isinstance(spec, str):
            return STRATEGIES[name].parse(arg)
        return STRATEGIES[name](**params)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad strategy spec {spec!r}: {err}") from err


def _validate_seed(seed) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _MAX_SEED:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def _check_count(config: dict, key: str, most: int | None = None) -> None:
    value = config[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{key} must be an integer >= 1, got {value!r}")
    if most is not None and value > most:
        raise ConfigError(f"{key} must be at most {most}, got {value}")


def load_config(path: str | None, overrides: dict) -> dict:
    """Defaults, then the config file (``DEFAULTS`` keys only), then non-None flag overrides."""
    config = dict(DEFAULTS)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config {path!r}: {err}") from err
        # Bad JSON, bad UTF-8, an overlong integer literal or too deep nesting.
        except (ValueError, RecursionError) as err:
            raise ConfigError(f"config {path!r} is not valid JSON: {err}") from err
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path!r} must hold a JSON object")
        unknown = ", ".join(map(repr, sorted(set(loaded) - set(DEFAULTS))))
        if unknown:
            raise ConfigError(f"config {path!r} has unknown key(s) {unknown}")
        config.update(loaded)
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    if overrides.get("seed") is not None:
        if overrides.get("seeds") is not None:
            raise ConfigError("give --seed or --seeds, not both")
        config["seeds"] = [overrides["seed"]]
    _check_count(config, "horizon", _MAX_HORIZON)
    _check_count(config, "trials")
    for key in ("languages", "strategies", "seeds"):
        if not isinstance(config[key], list):
            raise ConfigError(f"{key} must be a list, got {config[key]!r}")
    _validate_seed(config["seed"])
    for s in config["seeds"]:
        _validate_seed(s)
    if config["format"] not in ("jsonl", "csv", "pretty"):
        raise ConfigError(f"unknown format: {config['format']!r}")
    return config


def build_family(config: dict) -> LanguageFamily:
    """The ``family`` section, under the top-level universe."""
    section = config["family"]
    try:
        if "universe" in section:
            raise ValueError("family takes no 'universe' entry; universe is a top-level key")
        return family_from_config({**section, "universe": config["universe"]})
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad family config: {err}") from err


def build_world(config: dict) -> tuple[LanguageFamily, Scientist]:
    family = build_family(config)
    try:
        scientist = build_scientist(config["scientist"], family)
    # RecursionError: a spec nested hundreds of levels deep.
    except (TypeError, ValueError, LookupError, RecursionError) as err:
        raise ConfigError(f"bad scientist spec: {err}") from err
    return family, scientist


def _resolve_languages(specs, family: LanguageFamily):
    try:
        return [resolve_language(s, family.universe) for s in specs]
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _json_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def cmd_trace(config: dict) -> int:
    family, scientist = build_world(config)
    (language,) = _resolve_languages([config["language"]], family)
    strategy = parse_strategy(config["strategy"])
    fate = make_fate(language, strategy, config["seed"])
    steps = transformation_trace(scientist, fate, config["horizon"])
    hyp_sets = scientist.family.tail_set_literals(step.hyp_index for step in steps)
    header = f"trace: {scientist.name} on {language.describe()} [{strategy}] seed={config['seed']}"
    try:
        lines = _trace_lines(steps, hyp_sets, config["format"], header)
    except ValueError as err:
        # Python refuses int-to-decimal conversions beyond a digit limit; the
        # lines are all formatted before any is written, so stdout stays empty.
        raise ConfigError(
            "a hypothesis index has more than "
            f"{sys.get_int_max_str_digits()} decimal digits and cannot be printed; "
            "use a shorter horizon or a language with smaller ranks"
        ) from err
    # One write per line: on an unbuffered stdout, a write that a departing
    # reader cuts short returns without an error, but the next one raises.
    sys.stdout.writelines(line + "\n" for line in lines)
    return 0


_encode_str = json.encoder.encode_basestring_ascii  # json.dumps's own string encoder


def _json_flag(v: int | str | None) -> str:
    """A trace flag (None, an int or INDETERMINATE) as ``json.dumps`` writes it."""
    if v is None:
        return "null"
    return _encode_str(v) if isinstance(v, str) else str(v)


def _trace_json_line(step: TraceStep, hyp_set: str | None) -> str:
    """The step's jsonl record, byte for byte ``_json_line`` of its fields in this order."""
    datum = "#" if is_pause(step.datum) else step.datum.token
    return (
        f'{{"step":{step.step},"datum":{_encode_str(datum)},"hyp_index":{step.hyp_index},'
        f'"hyp_set":{"null" if hyp_set is None else _encode_str(hyp_set)},'
        f'"hyp_changed":{"true" if step.hyp_changed else "false"},'
        f'"novel":{_json_flag(step.novel)},'
        f'"transformative":{_json_flag(step.transformative)},'
        f'"semantically_transformative":{_json_flag(step.semantically_transformative)}}}'
    )


def _trace_lines(steps: Sequence[TraceStep], hyp_sets: list, fmt: str, header: str) -> list[str]:
    rows = zip(steps, hyp_sets)
    if fmt == "jsonl":
        return [_trace_json_line(step, hyp_set) for step, hyp_set in rows]
    if fmt == "csv":
        return [
            "step,datum,hyp_index,hyp_set,hyp_changed,novel,transformative,"
            "semantically_transformative"
        ] + [
            f"{s.step},{'#' if is_pause(s.datum) else s.datum.token},{s.hyp_index},"
            f"{'' if hyp_set is None else hyp_set.replace(',', ';')},{s.hyp_changed},"
            f"{'' if s.novel is None else s.novel},"
            f"{'' if s.transformative is None else s.transformative},"
            f"{'' if s.semantically_transformative is None else s.semantically_transformative}"
            for s, hyp_set in rows
        ]
    lines = [
        header,
        f"{'step':>4}  {'datum':>6}  {'hyp':>12}  {'set':<12}  chg  nov  tra  sem",
    ]
    for s, hyp_set in rows:
        datum = "#" if is_pause(s.datum) else s.datum.token
        novel = "-" if s.novel is None else s.novel
        transformative = "-" if s.transformative is None else s.transformative
        sem = "-" if s.semantically_transformative is None else str(s.semantically_transformative)[:3]
        lines.append(
            f"{s.step:>4}  {datum:>6}  {s.hyp_index:>12}  "
            f"{'-' if hyp_set is None else hyp_set:<12}  {'y' if s.hyp_changed else '.':>3}  "
            f"{novel:>3}  {transformative:>3}  {sem}"
        )
    return lines


def cmd_identify(config: dict) -> int:
    for key in ("strategies", "seeds"):
        if not config[key]:
            raise ConfigError(f"{key} must not be empty: every cell needs a strategy and a seed")
    family, scientist = build_world(config)
    languages = _resolve_languages(config["languages"], family)
    strategies = [parse_strategy(s) for s in config["strategies"]]
    table = identify_class(
        scientist, languages, strategies, config["seeds"], config["horizon"]
    )
    fmt = config["format"]
    if fmt == "jsonl":
        for row in table.rows:
            print(_json_line(asdict(row)))
        print(_json_line({"summary": table.summary(), "scientist": scientist.name}))
    elif fmt == "csv":
        sys.stdout.writelines(table.to_csv().splitlines(keepends=True))  # see cmd_trace
        print(f"# {scientist.name}: {table.summary()}", file=sys.stderr)
    else:
        widths = (24, 22, 6, 8)
        print(f"identify: {scientist.name}")
        print(
            f"{'language':<{widths[0]}} {'strategy':<{widths[1]}} "
            f"{'seed':>{widths[2]}} {'horizon':>{widths[3]}}  verdict"
        )
        for row in table.rows:
            print(
                f"{row.language:<{widths[0]}} {row.strategy:<{widths[1]}} "
                f"{row.seed:>{widths[2]}} {row.horizon:>{widths[3]}}  {row.verdict}"
            )
        print(table.summary())
    return 0


def cmd_theorems(config: dict) -> int:
    fmt = config["format"]
    if fmt == "csv":
        raise ConfigError("theorems prints only jsonl or pretty, not csv")
    items = run_theorem_suite(trials=config["trials"], seed=config["seed"])
    if fmt == "jsonl":
        for item in items:
            print(
                _json_line(
                    {
                        "item": item.name,
                        "passed": item.passed,
                        "summary": item.summary,
                        "values": item.values,
                    }
                )
            )
    else:
        for item in items:
            status = "PASS" if item.passed else "FAIL"
            print(f"{status} {item.name}: {item.summary}")
            for key, value in item.values.items():
                print(f"     {key} = {value}")
        passed = sum(1 for item in items if item.passed)
        print(f"{passed}/{len(items)} checks passed")
    return 0 if all(item.passed for item in items) else 1


def cmd_list(config: dict) -> int:
    for title, names in (
        ("universes", UNIVERSES), ("languages", LANGUAGES),
        ("scientists", sorted(SCIENTISTS)), ("strategies", STRATEGIES),
    ):
        print(f"{title}:", *(f"  {name}" for name in names), sep="\n")
    return 0


def _common_flags(default) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=default)
    common.add_argument("--config", help="path to a JSON config document")
    common.add_argument("--seed", type=int, help="RNG seed (64-bit unsigned)")
    common.add_argument("--horizon", type=int, help="evaluation horizon (>= 1)")
    common.add_argument(
        "--format", choices=("jsonl", "csv", "pretty"), help="output format"
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="identification-in-the-limit experiments with rating schemas",
        parents=[_common_flags(None)],
    )
    # A subcommand sets only the flags it is given, so a flag placed before
    # the subcommand holds unless the subcommand repeats it.
    common = _common_flags(argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser(
        "trace", parents=[common], help="schema sweep along one fate"
    )
    p_trace.add_argument("--scientist", help="scientist spec, e.g. dumb_visionary:evens")
    p_trace.add_argument("--language", help="platonic language, e.g. evens or {2,4}")
    p_trace.add_argument("--strategy", help="text strategy, e.g. padded:0.25")
    p_trace.set_defaults(handler=cmd_trace)

    p_identify = sub.add_parser(
        "identify", parents=[common], help="class identification table"
    )
    p_identify.add_argument("--scientist", help="scientist spec")
    p_identify.add_argument(
        "--languages", help="semicolon-separated language specs, e.g. '{2};evens'"
    )
    p_identify.add_argument(
        "--strategies", help="semicolon-separated strategy specs"
    )
    p_identify.add_argument(
        "--seeds", help="semicolon-separated seeds, e.g. '0;1;2'"
    )
    p_identify.set_defaults(handler=cmd_identify)

    p_theorems = sub.add_parser(
        "theorems", parents=[common], help="run the witness suite"
    )
    p_theorems.add_argument("--trials", type=int, help="random samples per property")
    p_theorems.set_defaults(handler=cmd_theorems)

    p_list = sub.add_parser("list", parents=[common], help="print the registries")
    p_list.set_defaults(handler=cmd_list)

    return parser


def _split_list(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(";") if part.strip()]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {key: value for key, value in vars(args).items() if key in DEFAULTS}
    for key in ("languages", "strategies", "seeds"):
        overrides[key] = _split_list(overrides.get(key))
    if overrides["seeds"] is not None:
        try:
            overrides["seeds"] = [int(s) for s in overrides["seeds"]]
        except ValueError:
            print(f"{PROG}: seeds must be integers", file=sys.stderr)
            return 2
    try:
        config = load_config(args.config, overrides)
        code = args.handler(config)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ConfigError as err:
        print(f"{PROG}: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        # A horizon can pass every bound yet hold a prefix too large for memory.
        print(f"{PROG}: out of memory; try a smaller horizon", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``| head``). Point stdout at the null device so
        # that the flush at exit stays quiet, and exit as SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
