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
import json
import os
import re
import sys
import warnings

import numpy as np

from .algebra import AtomicAlgebra, Element, GuardExceeded
from .probability import State, lln_sweep
from .information import (
    Code,
    Source,
    aep_typical_set,
    code_metrics,
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

THREADS_ENV = "CSTAR_INFO_THREADS"

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


def _parse_weights(value):
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [p for p in str(value).split(",") if p.strip() != ""]
    if not items:
        raise ConfigError("empty weight list")
    try:
        return [float(v) for v in items]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("weights must be numbers, got %r" % (value,))


def _parse_grid(value):
    # "4:20" inclusive, "4:20:2" stepped, "1,2,3" explicit, or a list
    if isinstance(value, (list, tuple)):
        items = [_parse_int(v) for v in value]
    elif isinstance(value, int):
        items = [value]
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
            raise ConfigError("bad grid %r; use start:stop[:step] or a comma list" % (value,))
        if points > MAX_GRID_POINTS:
            raise ConfigError(
                "grid %r has %d points; at most %d" % (value, points, MAX_GRID_POINTS)
            )
        items = list(items)
    if not items or min(items) < 1:
        raise ConfigError("grid values must be positive integers")
    return items


def _parse_words(value):
    if isinstance(value, (list, tuple)):
        return [str(w) for w in value]
    items = [w.strip() for w in str(value).split(",")]
    if any(not w for w in items):
        raise ConfigError("empty codeword in %r" % (value,))
    return items


def _parse_bool(value):
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ConfigError("expected a boolean, got %r" % (value,))


def _parse_int(value):
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("expected an integer, got %r" % (value,))


def _parse_float(value):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("expected a number, got %r" % (value,))


_CHANNEL_PATTERN = re.compile(r"^\s*(bsc|bec|identity|useless)\s*\((.*)\)\s*$")


def _parse_channel(value):
    """A channel literal ``bsc(p)``/``bec(p)``/``identity(d)``/``useless(row)``,
    an inline mapping, or the path of a channel JSON file."""
    if isinstance(value, dict):
        return Channel.from_dict(value)
    text = str(value).strip()
    match = _CHANNEL_PATTERN.match(text)
    if match:
        name, args = match.group(1), match.group(2)
        try:
            if name == "bsc":
                return bsc(float(args))
            if name == "bec":
                return bec(float(args))
            if name == "identity":
                return identity_channel(int(args))
            return useless_channel(_parse_weights(args))
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad channel literal %r: %s" % (text, exc))
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError("bad channel file %s: %s" % (text, exc))
        return Channel.from_dict(data)
    raise ConfigError(
        "unknown channel %r; use bsc(p), bec(p), identity(d), useless(w0,w1,...), "
        "or the path of a channel JSON file" % (text,)
    )


# command registry ------------------------------------------------------------------

# name -> (converter, default); required parameters use the _REQUIRED marker
_REQUIRED = object()

_COMMAND_PARAMS = {
    "lln": {
        "p": (_parse_weights, _REQUIRED),
        "n": (_parse_grid, _REQUIRED),
        "values": (_parse_weights, None),
        "moment": (_parse_int, 2),
        "eps": (_parse_float, 0.1),
    },
    "aep": {
        "p": (_parse_weights, _REQUIRED),
        "eps": (_parse_float, _REQUIRED),
        "n": (_parse_grid, _REQUIRED),
    },
    "code": {
        "state": (_parse_weights, _REQUIRED),
        "alphabet": (_parse_int, 2),
        "huffman": (_parse_bool, False),
        "words": (_parse_words, None),
    },
    "channel-info": {
        "channel": (_parse_channel, _REQUIRED),
        "state": (_parse_weights, None),
    },
    "capacity": {
        "channel": (_parse_channel, _REQUIRED),
        "tol": (_parse_float, 1e-9),
        "max_iter": (_parse_int, 10000),
    },
    "coding-experiment": {
        "channel": (_parse_channel, _REQUIRED),
        "state": (_parse_weights, None),
        "rate": (_parse_float, _REQUIRED),
        "ks": (_parse_grid, _REQUIRED),
        "trials": (_parse_int, 20),
    },
}

_GLOBAL_KEYS = ("seed", "output", "format", "guard_override")


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON or TOML config file")
    common.add_argument("--output", default=None, help="artifact path, - for stdout")
    common.add_argument("--format", default=None, choices=["json", "csv"])
    common.add_argument("--seed", default=None, help="integer seed, echoed in the artifact")
    common.add_argument(
        "--guard-override",
        action="store_const",
        const=True,
        default=None,
        help="lift the block-size guards (memory is then the caller's problem)",
    )

    parser = _Parser(prog="cstar-info", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    cmd = sub.add_parser("lln", parents=[common], help="running-average moments and tail bounds")
    cmd.add_argument("--p", default=None, help="state weights, e.g. 0.5,0.5")
    cmd.add_argument("--n", default=None, help="grid of block lengths, e.g. 1:100 or 1,10,100")
    cmd.add_argument("--values", default=None, help="observable values per atom (default 0,1,...)")
    cmd.add_argument("--moment", default=None, help="centred moment order (default 2)")
    cmd.add_argument("--eps", default=None, help="tail half-width (default 0.1)")

    cmd = sub.add_parser("aep", parents=[common], help="typical set reports over a grid of n")
    cmd.add_argument("--p", default=None, help="source weights, e.g. 0.9,0.1")
    cmd.add_argument("--eps", default=None, help="typicality tolerance")
    cmd.add_argument("--n", default=None, help="grid of block lengths, e.g. 4:20")

    cmd = sub.add_parser("code", parents=[common], help="prefix codes: Kraft, lengths, bounds")
    cmd.add_argument("--state", default=None, help="source weights, e.g. 0.5,0.25,0.25")
    cmd.add_argument("--alphabet", default=None, help="code alphabet size (default 2)")
    cmd.add_argument("--huffman", action="store_const", const=True, default=None,
                     help="build the optimal code for the state")
    cmd.add_argument("--words", default=None, help="explicit codewords, e.g. 0,10,11")

    cmd = sub.add_parser("channel-info", parents=[common],
                         help="classification and entropy metrics of a channel")
    cmd.add_argument("--channel", default=None, help="bsc(p), bec(p), identity(d), useless(row), or a JSON file")
    cmd.add_argument("--state", default=None, help="input state weights (enables the entropy metrics)")

    cmd = sub.add_parser("capacity", parents=[common], help="iterative channel capacity")
    cmd.add_argument("--channel", default=None)
    cmd.add_argument("--tol", default=None, help="convergence gap in bits (default 1e-9)")
    cmd.add_argument("--max-iter", default=None, help="iteration cap (default 10000)")

    cmd = sub.add_parser("coding-experiment", parents=[common],
                         help="random block codes: deviation and error versus block length")
    cmd.add_argument("--channel", default=None)
    cmd.add_argument("--state", default=None, help="input state weights (default uniform)")
    cmd.add_argument("--rate", default=None, help="code rate in bits per symbol")
    cmd.add_argument("--ks", default=None, help="grid of block lengths, e.g. 4,8,12")
    cmd.add_argument("--trials", default=None, help="codebook draws per block length (default 20)")

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


def _threads_from_env():
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError("%s must be a positive integer, got %r" % (THREADS_ENV, raw))
    if threads < 1:
        raise ConfigError("%s must be a positive integer, got %r" % (THREADS_ENV, raw))
    return threads


def resolve_config(argv=None):
    """Parse flags plus optional config file into one validated mapping.

    Precedence: command-line flags override config-file entries, which
    override built-in defaults.  Unknown config-file keys are rejected,
    and a ``command`` key in the file must match the subcommand.
    """
    namespace = _build_parser().parse_args(argv)
    command = namespace.command
    params = _COMMAND_PARAMS[command]

    file_cfg = {}
    if namespace.config is not None:
        file_cfg = _load_config_file(namespace.config)
        allowed = set(_GLOBAL_KEYS) | set(params) | {"command"}
        unknown = sorted(set(file_cfg) - allowed)
        if unknown:
            raise ConfigError("unknown config keys for %s: %s" % (command, ", ".join(unknown)))
        if "command" in file_cfg and file_cfg["command"] != command:
            raise ConfigError(
                "config file says command %r but %r was invoked"
                % (file_cfg["command"], command)
            )

    def pick(key):
        cli_value = getattr(namespace, key.replace("-", "_"), None)
        if cli_value is not None:
            return cli_value
        return file_cfg.get(key)

    config = {"command": command}
    raw_seed = pick("seed")
    config["seed"] = 0 if raw_seed is None else _parse_int(raw_seed)
    raw_output = pick("output")
    config["output"] = "-" if raw_output is None else str(raw_output)
    raw_format = pick("format")
    if raw_format is None:
        config["format"] = "json"
    elif raw_format in ("json", "csv"):
        config["format"] = raw_format
    else:
        raise ConfigError("format must be json or csv, got %r" % (raw_format,))
    raw_guard = pick("guard_override")
    config["guard_override"] = False if raw_guard is None else _parse_bool(raw_guard)
    config["threads"] = _threads_from_env()

    for key, (convert, default) in params.items():
        raw = pick(key)
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError("%s requires --%s" % (command, key.replace("_", "-")))
            config[key] = default
        else:
            config[key] = convert(raw)
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
        rows.append({
            "n": n,
            "moment": moment,
            "variance": variance,
            "tail_probability": tail,
            "chebyshev_bound": variance / (eps * eps),
        })
    return rows, None


def _run_aep(config):
    source = Source.from_weights(config["p"])
    rows = []
    for n in config["n"]:
        report = aep_typical_set(source, n, config["eps"], guard_bits=_guard_bits(config))
        rows.append(report.to_dict())
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
    entropy_base_n = entropy(state) / float(np.log2(alphabet))
    summary = {
        "alphabet_size": alphabet,
        "prefix_free": prefix_free,
        "kraft_ok": kraft_check(code.lengths, alphabet),
        "entropy_base_n": entropy_base_n,
        "expected_length": None,
        "bound_value": None,
    }
    if prefix_free:
        metrics = code_metrics(code, state)
        summary["expected_length"] = metrics.expected_length
        summary["bound_value"] = metrics.bound_value
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


def render_artifact(config, rows, summary):
    """Serialize one run deterministically in the configured format."""
    echo = _config_echo(config)
    if config["format"] == "json":
        artifact = {"config": echo, "results": rows, "summary": summary}
        return json.dumps(artifact, sort_keys=True, indent=2, allow_nan=False) + "\n"
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
    as one JSON object per line, each distinct warning once per run.
    numpy's floating-point warnings are off: a value that overflows is
    refused by the JSON encoder, or written as ``inf`` to a CSV artifact.
    """
    seen = set()

    def show(message, category, *_):
        key = (category.__name__, str(message))
        if key not in seen:
            seen.add(key)
            _emit({"warning": {"category": key[0], "message": key[1]}})

    with warnings.catch_warnings(), np.errstate(all="ignore"):
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
