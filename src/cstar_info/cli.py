"""Deterministic command-line front end for the library's experiments.

Each invocation runs one command (lln, aep, code, channel-info, capacity,
coding-experiment) and emits a single artifact, either JSON or CSV, that
embeds the fully resolved configuration.  Re-running a command with the
same configuration reproduces the artifact byte for byte, and every
emitted file can be read back with ``read_artifact``.

Exit codes: 0 success, 1 configuration error, 2 resource guard exceeded,
3 numeric failure (non-convergence).  Failures print a machine-readable
JSON object on standard error.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys
import warnings

from .algebra import AtomicAlgebra, Element, GuardExceeded, _integer, _real
from .probability import State, lln_sweep
from .information import (
    Code,
    Source,
    _expected_length,
    aep_typical_set,
    entropy,
    huffman_code,
    kraft_check,
)
from .channel import (
    Channel,
    ConvergenceError,
    bec,
    bsc,
    capacity,
    classify,
    coding_experiment,
    identity_channel,
    info_metrics,
    useless_channel,
)

# guard_bits passed to library calls when --guard-override is set; large
# enough to disable every size guard, leaving memory to the caller
OVERRIDE_GUARD_BITS = 64
# longest start:stop[:step] grid accepted, checked before the grid is built
MAX_GRID_POINTS = 1 << 16


class ConfigError(ValueError):
    """Invalid command line, config file, or parameter value."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route everything through
    # ConfigError instead so exit codes stay 1 = config, 2 = guard
    def error(self, message):
        raise ConfigError(message)


# parameter parsing -----------------------------------------------------------------

# A converter takes a flag's text or a config-file value and raises plain
# ValueError, TypeError or OverflowError; resolve_config names the parameter.


def _parse_int(value):
    # flag text is read by int(); a config-file number keeps its type, and
    # the library's rule refuses a bool, 2.5 or inf rather than truncating
    return _integer(int(value) if isinstance(value, str) else value, "value")


def _parse_float(value):
    # flag text is read by float(); the library's rule then refuses a bool,
    # NaN or inf, from flag text and config file alike
    return _real(float(value) if isinstance(value, str) else value, "value")


def _parse_weights(value):
    if not isinstance(value, (list, tuple)):
        value = [p for p in str(value).split(",") if p.strip()]
    if not value:
        raise ValueError("empty weight list")
    return [_parse_float(v) for v in value]


def _parse_grid(value):
    # "4:20" inclusive, "4:20:2" stepped, "1,2,3" explicit, or a list
    if isinstance(value, (list, tuple)):
        items = [_parse_int(v) for v in value]
    elif isinstance(value, (int, float)):
        items = [_parse_int(value)]
    else:
        text = str(value).strip()
        try:
            if ":" in text:
                parts = [int(p) for p in text.split(":")]
                if len(parts) == 2:
                    start, stop, step = parts[0], parts[1], 1
                elif len(parts) == 3:
                    start, stop, step = parts
                else:
                    raise ValueError
                if step < 1 or stop < start:
                    raise ValueError
                items = range(start, stop + 1, step)
                points = (stop - start) // step + 1  # len() overflows past sys.maxsize
            else:
                items = [int(p) for p in text.split(",")]
                points = len(items)
        except ValueError:
            raise ValueError("bad grid %r; use start:stop[:step] or a comma list" % (value,))
        if points > MAX_GRID_POINTS:
            raise ValueError(
                "grid %r has %d points; at most %d" % (value, points, MAX_GRID_POINTS)
            )
        items = list(items)
    if not items or min(items) < 1:
        raise ValueError("grid values must be positive integers")
    return items


def _parse_text(value):
    # a flag carries text, and so must the config key
    if not isinstance(value, str):
        raise TypeError("expected a string, got %r" % (value,))
    return value


def _parse_words(value):
    if isinstance(value, (list, tuple)):
        return [_parse_text(w) for w in value]
    items = [w.strip() for w in str(value).split(",")]
    if any(not w for w in items):
        raise ValueError("empty codeword in %r" % (value,))
    return items


def _parse_bool(value):
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean, got %r" % (value,))


def _parse_format(value):
    if value not in ("json", "csv"):
        raise ValueError("expected json or csv, got %r" % (value,))
    return value


_CHANNEL_PATTERN = re.compile(r"^\s*(bsc|bec|identity|useless)\s*\((.*)\)\s*$")


def _parse_channel(value):
    """A channel literal ``bsc(p)``/``bec(p)``/``identity(d)``/``useless(row)``,
    an inline mapping, or the path of a channel JSON file."""
    if isinstance(value, dict):
        return Channel.from_dict(value)
    text = str(value).strip()
    match = _CHANNEL_PATTERN.match(text)
    if match:
        name, args = match.groups()
        if name == "bsc":
            return bsc(float(args))
        if name == "bec":
            return bec(float(args))
        if name == "identity":
            return identity_channel(int(args))
        return useless_channel(_parse_weights(args))
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as handle:
            return Channel.from_dict(json.load(handle))
    raise ValueError(
        "unknown channel %r; use bsc(p), bec(p), identity(d), useless(w0,w1,...), "
        "or the path of a channel JSON file" % (text,)
    )


# command registry ------------------------------------------------------------------

# Every parameter once, as key -> (converter, default, help).  Its flag is
# --key with "_" written "-", its config-file key is the key itself, and a
# _parse_bool key is a switch.  A None default means absent; _REQUIRED, none.
_REQUIRED = object()

_COMMON = {
    "seed": (_parse_int, 0, "integer seed, echoed in the artifact"),
    "output": (_parse_text, "-", "artifact path, - for stdout"),
    "format": (_parse_format, "json", "artifact format, json or csv"),
    "guard_override": (_parse_bool, False,
                       "lift the block-size guards (memory is then the caller's problem)"),
}

_CHANNEL_HELP = "bsc(p), bec(p), identity(d), useless(row), or a JSON file"

# command -> (summary, parameters)
_COMMANDS = {
    "lln": ("running-average moments and tail bounds", {
        "p": (_parse_weights, _REQUIRED, "state weights, e.g. 0.5,0.5"),
        "n": (_parse_grid, _REQUIRED, "grid of block lengths, e.g. 1:100 or 1,10,100"),
        "values": (_parse_weights, None, "observable values per atom (0,1,... if absent)"),
        "moment": (_parse_int, 2, "centred moment order"),
        "eps": (_parse_float, 0.1, "tail half-width"),
    }),
    "aep": ("typical set reports over a grid of n", {
        "p": (_parse_weights, _REQUIRED, "source weights, e.g. 0.9,0.1"),
        "eps": (_parse_float, _REQUIRED, "typicality tolerance"),
        "n": (_parse_grid, _REQUIRED, "grid of block lengths, e.g. 4:20"),
    }),
    "code": ("prefix codes: Kraft, lengths, bounds", {
        "state": (_parse_weights, _REQUIRED, "source weights, e.g. 0.5,0.25,0.25"),
        "alphabet": (_parse_int, 2, "code alphabet size"),
        "huffman": (_parse_bool, False, "build the optimal code for the state"),
        "words": (_parse_words, None, "explicit codewords, e.g. 0,10,11"),
    }),
    "channel-info": ("classification and entropy metrics of a channel", {
        "channel": (_parse_channel, _REQUIRED, _CHANNEL_HELP),
        "state": (_parse_weights, None, "input state weights (enables the entropy metrics)"),
    }),
    "capacity": ("iterative channel capacity", {
        "channel": (_parse_channel, _REQUIRED, _CHANNEL_HELP),
        "tol": (_parse_float, 1e-9, "convergence gap in bits"),
        "max_iter": (_parse_int, 10000, "iteration cap"),
    }),
    "coding-experiment": ("random block codes: deviation and error versus block length", {
        "channel": (_parse_channel, _REQUIRED, _CHANNEL_HELP),
        "state": (_parse_weights, None, "input state weights (uniform if absent)"),
        "rate": (_parse_float, _REQUIRED, "code rate in bits per symbol"),
        "ks": (_parse_grid, _REQUIRED, "grid of block lengths, e.g. 4,8,12"),
        "trials": (_parse_int, 20, "codebook draws per block length"),
    }),
}


def _flag(key):
    return "--" + key.replace("_", "-")


def _add_flags(parser, params):
    for key, (convert, default, text) in params.items():
        if convert is _parse_bool:
            parser.add_argument(_flag(key), action="store_const", const=True, help=text)
        elif default is None or default is _REQUIRED:
            parser.add_argument(_flag(key), help=text)
        else:
            parser.add_argument(_flag(key), help="%s (default %s)" % (text, default))


@functools.cache
def _build_parser():
    # built once per process: parsing leaves the parser unchanged
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON or TOML config file")
    _add_flags(common, _COMMON)
    parser = _Parser(prog="cstar-info", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (summary, params) in _COMMANDS.items():
        _add_flags(sub.add_parser(command, parents=[common], help=summary), params)
    return parser


def _load_config_file(path):
    if path.endswith(".toml"):
        try:
            import tomllib
        except ModuleNotFoundError:
            raise ConfigError("TOML config files need Python 3.11+; use JSON instead")
        try:
            with open(path, "rb") as handle:
                data = tomllib.load(handle)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError("bad TOML config %s: %s" % (path, exc))
    else:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError("bad JSON config %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ConfigError("config file %s must hold a single object" % path)
    return data


def resolve_config(argv=None):
    """Parse flags plus optional config file into one validated mapping.

    Precedence: command-line flags override config-file entries, which
    override built-in defaults.  Unknown config-file keys are rejected,
    and a ``command`` key in the file must match the subcommand.  A flag's
    text and a file's value go through the same converter, and a value it
    refuses is a ConfigError naming the flag or the config key.
    """
    namespace = _build_parser().parse_args(argv)
    command = namespace.command
    params = {**_COMMON, **_COMMANDS[command][1]}

    file_cfg = {}
    if namespace.config is not None:
        file_cfg = _load_config_file(namespace.config)
        unknown = sorted(set(file_cfg) - set(params) - {"command"})
        if unknown:
            raise ConfigError("unknown config keys for %s: %s" % (command, ", ".join(unknown)))
        if "command" in file_cfg and file_cfg["command"] != command:
            raise ConfigError(
                "config file says command %r but %r was invoked"
                % (file_cfg["command"], command)
            )

    config = {"command": command}
    for key, (convert, default, _) in params.items():
        raw, source = getattr(namespace, key), _flag(key)
        if raw is None:
            raw, source = file_cfg.get(key), "config key " + key
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError("%s requires %s" % (command, _flag(key)))
            config[key] = default
            continue
        try:
            config[key] = convert(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("%s: %s" % (source, exc))
    return config


# command execution -----------------------------------------------------------------


def _state_from(weights):
    return State(AtomicAlgebra(len(weights)), weights)


def _guard_bits(config):
    return OVERRIDE_GUARD_BITS if config["guard_override"] else None


def _run_lln(config):
    omega = _state_from(config["p"])
    values = config["values"]
    observable = None if values is None else Element(omega.algebra, values)
    eps = config["eps"]
    table = lln_sweep(omega, config["n"], config["moment"], eps, observable=observable,
                      guard_bits=_guard_bits(config))
    rows = []
    for n in config["n"]:
        moment, variance, tail = table[n]
        square = eps * eps  # may underflow to 0
        bound = variance / square if square else math.inf if variance else 0.0
        if not math.isfinite(bound):
            raise ConfigError("--eps %r: the Chebyshev bound variance / eps^2 at n = %d is "
                              "beyond the float range" % (eps, n))
        rows.append({
            "n": n,
            "moment": moment,
            "variance": variance,
            "tail_probability": tail,
            "chebyshev_bound": bound,
        })
    return rows, None


def _run_aep(config):
    source = Source.from_weights(config["p"])
    rows = []
    for n in config["n"]:
        report = aep_typical_set(source, n, config["eps"], guard_bits=_guard_bits(config))
        rows.append(dataclasses.asdict(report))
    return rows, None


def _run_code(config):
    state = _state_from(config["state"])
    alphabet = config["alphabet"]
    if config["huffman"]:
        code = huffman_code(state, alphabet)
    elif config["words"]:
        code = Code(config["words"], alphabet)
        if code.source_dim != state.algebra.dim:
            raise ConfigError(
                "%d words for a %d-atom state" % (code.source_dim, state.algebra.dim)
            )
    else:
        raise ConfigError("code needs either --huffman or --words")
    rows = [
        {"atom": i, "word": w, "length": len(w), "weight": config["state"][i]}
        for i, w in enumerate(code.words)
    ]
    prefix_free = code.is_prefix_free()
    entropy_base_n = entropy(state, alphabet)
    # code_metrics' values, without its second prefix test
    expected = _expected_length(code, state) if prefix_free else None
    summary = {
        "alphabet_size": alphabet,
        "prefix_free": prefix_free,
        "kraft_ok": kraft_check(code.lengths, alphabet),
        "entropy_base_n": entropy_base_n,
        "expected_length": expected,
        "bound_value": None if expected is None else expected - entropy_base_n,
    }
    return rows, summary


def _run_channel_info(config):
    channel = config["channel"]
    omega = _state_from(config["state"]) if config["state"] is not None else None
    result = classify(channel, omega)
    row = {
        "input_dim": channel.input_dim,
        "output_dim": channel.output_dim,
        "kind": result.kind,
        "assignment": None if result.assignment is None else list(result.assignment),
        "h_input": None,
        "h_output": None,
        "h_input_given_output": None,
        "mutual_information": None,
    }
    if omega is not None:
        metrics = info_metrics(channel, omega)
        row.update(metrics._asdict())
    return [row], None


def _run_capacity(config):
    result = capacity(config["channel"], tol=config["tol"], max_iter=config["max_iter"])
    rows = [
        {"atom": i, "optimal_weight": float(w)}
        for i, w in enumerate(result.optimal_input.weights)
    ]
    summary = {
        "capacity": result.capacity,
        "iterations": result.iterations,
        "gap": result.gap,
    }
    return rows, summary


def _run_coding_experiment(config):
    channel = config["channel"]
    if config["state"] is not None:
        omega = _state_from(config["state"])
    else:
        omega = State.uniform(AtomicAlgebra(channel.input_dim))
    results = coding_experiment(
        channel,
        omega,
        config["rate"],
        config["ks"],
        trials=config["trials"],
        seed=config["seed"],
        guard_bits=_guard_bits(config),
    )
    rows = []
    for res in results:
        for trial, (dev, err) in enumerate(zip(res.trial_deviations, res.trial_error_probs)):
            rows.append({
                "k": res.k,
                "rate": res.rate,
                "trial": trial,
                "deviation": dev,
                "error_prob": err,
            })
    summary = {
        "trials": config["trials"],
        "seed": config["seed"],
        "per_k": [
            {
                "k": res.k,
                "codebook_size": res.codebook_size,
                "deviation": res.deviation,
                "error_prob": res.error_prob,
            }
            for res in results
        ],
    }
    return rows, summary


_RUNNERS = {
    "lln": _run_lln,
    "aep": _run_aep,
    "code": _run_code,
    "channel-info": _run_channel_info,
    "capacity": _run_capacity,
    "coding-experiment": _run_coding_experiment,
}


# artifact rendering ----------------------------------------------------------------


def _config_echo(config):
    echo = {}
    for key, value in config.items():
        echo[key] = value.to_dict() if isinstance(value, Channel) else value
    return echo


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (list, tuple)):
        return ";".join(str(int(v)) for v in value)
    return str(value)


@functools.cache
def _encoder(depth):
    # the C encoder, writing a container of scalars whose items sit at
    # depth + 1: the item separator carries their newline and indent
    return json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=(",\n" + "  " * (depth + 1), ": ")).encode


_CONTAINERS = (dict, list, tuple)
# exact types; a value of any other type is rendered on its own
_SCALARS = {str, int, float, bool, type(None)}


def _scalars(items):
    return set(map(type, items)) <= _SCALARS


def _row_brackets(value):
    # "{}" or "[]" for a list of non-empty containers of scalars, all dicts
    # or all lists and tuples, else None; C iterators only, no call per row
    kinds = set(map(type, value))
    if kinds == {dict}:
        brackets, rows = "{}", map(dict.values, value)
    elif kinds <= {list, tuple}:
        brackets, rows = "[]", value
    else:
        return None
    return brackets if all(value) and _scalars(itertools.chain.from_iterable(rows)) else None


def _render(value, depth=0):
    """``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)`` for
    a value at ``depth``, with str keys, in few calls to the C encoder.

    A scalar, an empty container or a container of scalars is one call; a
    list of containers of scalars of one kind is one call at its items'
    depth, whose joints are then indented as the list's own.  With
    ensure_ascii a string escapes every newline, so each raw newline in the
    encoder's output is a separator that this function chose.
    """
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if not (isinstance(value, _CONTAINERS) and value):
        return _encoder(depth)(value)
    if _scalars(value.values() if isinstance(value, dict) else value):
        text = _encoder(depth)(value)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if isinstance(value, dict):
        parts = [json.encoder.encode_basestring_ascii(key) + ": " + _render(item, depth + 1)
                 for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(parts) + outer + "}"
    brackets = _row_brackets(value)
    if brackets:
        (left, right), deeper = brackets, "\n" + "  " * (depth + 2)
        body = _encoder(depth + 1)(value)[2:-2].replace(
            right + "," + deeper + left, inner + right + "," + inner + left + deeper)
        return "[" + inner + left + deeper + body + inner + right + outer + "]"
    return "[" + inner + ("," + inner).join(_render(v, depth + 1) for v in value) + outer + "]"


def render_artifact(config, rows, summary):
    """Serialize one run deterministically in the configured format.

    A JSON artifact is exactly ``json.dumps(artifact, sort_keys=True,
    indent=2, allow_nan=False)``, written by ``_render``."""
    echo = _config_echo(config)
    if config["format"] == "json":
        artifact = {"config": echo, "results": rows, "summary": summary}
        try:
            return _render(artifact) + "\n"
        except ValueError:
            # the pure-Python encoder names the non-finite float it refuses
            json.dumps(artifact, sort_keys=True, indent=2, allow_nan=False)
            raise
    compact = {"sort_keys": True, "separators": (",", ":"), "allow_nan": False}
    lines = ["# config: " + json.dumps(echo, **compact)]
    columns = list(rows[0].keys())
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in columns))
    if summary is not None:
        lines.append("# summary: " + json.dumps(summary, **compact))
    return "\n".join(lines) + "\n"


# columns that must stay strings (digit words would otherwise re-parse as ints)
_CSV_STRING_COLUMNS = ("word", "kind")
_CSV_INT_LIST_COLUMNS = ("assignment",)


def _csv_value(column, text):
    if text == "":
        return None
    if column in _CSV_STRING_COLUMNS:
        return text
    if column in _CSV_INT_LIST_COLUMNS:
        return [int(part) for part in text.split(";")]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_artifact(path):
    """Read back an emitted artifact as {config, results, summary}."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    config = None
    summary = None
    header = None
    rows = []
    for line in text.splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif line.startswith("# summary: "):
            summary = json.loads(line[len("# summary: "):])
        elif not line.strip():
            continue
        elif header is None:
            header = line.split(",")
        else:
            cells = line.split(",")
            rows.append({c: _csv_value(c, v) for c, v in zip(header, cells)})
    if config is None or header is None:
        raise ConfigError("%s is not an artifact of this tool" % path)
    return {"config": config, "results": rows, "summary": summary}


def _write_output(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit(payload):
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _emit_error(kind, exc):
    _emit({"error": {"kind": kind, "message": str(exc)}})


def main(argv=None):
    """Run one command; returns the process exit code.

    Warnings keep the caller's filters but are written to standard error
    as one JSON object per line, each distinct warning once per run.  The
    library refuses the values it cannot compute before numpy warns, so a
    numpy floating-point warning that still shows is a real numeric fault.
    """
    seen = set()

    def show(message, category, *_):
        key = (category.__name__, str(message))
        if key not in seen:
            seen.add(key)
            _emit({"warning": {"category": key[0], "message": key[1]}})

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            config = resolve_config(argv)
            rows, summary = _RUNNERS[config["command"]](config)
            _write_output(config["output"], render_artifact(config, rows, summary))
            return 0
        except GuardExceeded as exc:
            _emit_error("guard", exc)
            return 2
        except ConvergenceError as exc:
            _emit_error("numeric", exc)
            return 3
        except (ConfigError, ValueError, OSError) as exc:
            _emit_error("config", exc)
            return 1


if __name__ == "__main__":
    sys.exit(main())
