import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cstar_info import cli, probability
from cstar_info.algebra import AtomicAlgebra, Element
from cstar_info.cli import main, read_artifact, resolve_config, ConfigError
from cstar_info.probability import State, chebyshev_tail, lln_moment


def run(tmp_path, args, name="out"):
    path = tmp_path / name
    code = main(list(args) + ["--output", str(path)])
    return code, path


# configuration resolution -----------------------------------------------------------


def test_defaults_and_echo():
    config = resolve_config(["aep", "--p", "0.9,0.1", "--eps", "0.2", "--n", "4:6"])
    assert config["command"] == "aep"
    assert config["seed"] == 0
    assert config["format"] == "json"
    assert config["output"] == "-"
    assert config["guard_override"] is False
    assert config["p"] == [0.9, 0.1]
    assert config["n"] == [4, 5, 6]


def test_grid_forms():
    assert resolve_config(["aep", "--p", ".5,.5", "--eps", ".1", "--n", "2:8:3"])["n"] == [2, 5, 8]
    assert resolve_config(["aep", "--p", ".5,.5", "--eps", ".1", "--n", "7"])["n"] == [7]
    assert resolve_config(["aep", "--p", ".5,.5", "--eps", ".1", "--n", "3,1,2"])["n"] == [3, 1, 2]
    with pytest.raises(ConfigError):
        resolve_config(["aep", "--p", ".5,.5", "--eps", ".1", "--n", "0:4"])
    with pytest.raises(ConfigError):
        resolve_config(["aep", "--p", ".5,.5", "--eps", ".1", "--n", "5:4"])


def test_missing_required_parameter():
    with pytest.raises(ConfigError, match="requires --eps"):
        resolve_config(["aep", "--p", "0.9,0.1", "--n", "4:6"])


def test_unknown_flag_is_config_error():
    with pytest.raises(ConfigError):
        resolve_config(["aep", "--p", "0.9,0.1", "--eps", "0.2", "--n", "4:6", "--bogus", "1"])


def test_config_file_merging_and_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "aep", "p": [0.9, 0.1], "eps": 0.2, "n": "4:6", "seed": 9}))
    config = resolve_config(["aep", "--config", str(cfg), "--eps", "0.3"])
    assert config["p"] == [0.9, 0.1]
    assert config["eps"] == 0.3  # flags beat the file
    assert config["seed"] == 9
    assert config["n"] == [4, 5, 6]


def test_config_file_strictness(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"p": [0.5, 0.5], "eps": 0.1, "n": "2:3", "typo_key": 1}))
    with pytest.raises(ConfigError, match="typo_key"):
        resolve_config(["aep", "--config", str(cfg)])
    cfg.write_text(json.dumps({"command": "lln", "p": [0.5, 0.5], "eps": 0.1, "n": "2:3"}))
    with pytest.raises(ConfigError, match="command"):
        resolve_config(["aep", "--config", str(cfg)])


_REQUIRED_FILE_VALUES = {
    "lln": {"p": [0.5, 0.5], "n": "1:2"},
    "capacity": {"channel": "bsc(0.1)"},
    "code": {"state": [0.5, 0.5], "huffman": True},
    "coding-experiment": {"channel": "bsc(0.1)", "rate": 0.5, "ks": [2]},
}


@pytest.mark.parametrize("command, key, value", [
    ("lln", "moment", 2.9),
    ("coding-experiment", "trials", 2.9),
    ("capacity", "max_iter", 2.5),
    ("code", "alphabet", False),
    ("lln", "seed", True),
    ("lln", "n", [True, 3]),
    ("lln", "n", 4.5),
    ("lln", "eps", True),
    ("lln", "p", [True, 0.0]),
    ("lln", "values", [0.0, False]),
    ("coding-experiment", "rate", True),
    ("lln", "format", "xml"),
    ("lln", "guard_override", "maybe"),
    ("capacity", "output", True),
    ("code", "words", ["0", True]),
    ("capacity", "max_iter", math.inf),
    ("coding-experiment", "seed", -math.inf),
])
def test_config_values_are_converted_as_flags_are(tmp_path, capsys, command, key, value):
    # a flag can only carry text, so a boolean or a fractional integer from
    # a config file is refused rather than truncated or read as 0/1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(dict(_REQUIRED_FILE_VALUES[command], **{key: value})))
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config"
    assert err["message"].startswith("config key %s: " % key)


# one valid setting per parameter: flag text, config-file value, resolved value
_SAMPLES = {
    "seed": ("7", 7, 7),
    "output": ("out.json", "out.json", "out.json"),
    "format": ("csv", "csv", "csv"),
    "guard_override": (None, True, True),
    "p": ("0.5,0.5", [0.5, 0.5], [0.5, 0.5]),
    "n": ("1:3", "1:3", [1, 2, 3]),
    "values": ("0,2", [0, 2], [0.0, 2.0]),
    "moment": ("4", 4, 4),
    "eps": ("0.25", 0.25, 0.25),
    "state": ("0.5,0.5", [0.5, 0.5], [0.5, 0.5]),
    "alphabet": ("3", 3, 3),
    "huffman": (None, True, True),
    "words": ("0,1", ["0", "1"], ["0", "1"]),
    "channel": ("bsc(0.25)", {"input_dim": 2, "output_dim": 2,
                              "matrix": [[0.75, 0.25], [0.25, 0.75]]}, cli.bsc(0.25)),
    "tol": ("1e-6", 1e-6, 1e-6),
    "max_iter": ("50", 50, 50),
    "rate": ("0.5", 0.5, 0.5),
    "ks": ("2,4", [2, 4], [2, 4]),
    "trials": ("3", 3, 3),
}

_COMMAND_KEYS = {
    "lln": {"p", "n", "values", "moment", "eps"},
    "aep": {"p", "eps", "n"},
    "code": {"state", "alphabet", "huffman", "words"},
    "channel-info": {"channel", "state"},
    "capacity": {"channel", "tol", "max_iter"},
    "coding-experiment": {"channel", "state", "rate", "ks", "trials"},
}


@pytest.mark.parametrize("command", sorted(_COMMAND_KEYS))
def test_parameter_table_drives_flags_config_keys_and_help(tmp_path, capsys, command):
    params = dict(cli._COMMON, **cli._COMMANDS[command][1])
    assert set(params) == _COMMAND_KEYS[command] | {"seed", "output", "format", "guard_override"}

    def flag(key):
        return "--" + key.replace("_", "-")

    argv = [command]
    for key in params:
        text = _SAMPLES[key][0]
        argv += [flag(key)] if text is None else [flag(key), text]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: _SAMPLES[key][1] for key in params}))
    from_flags = resolve_config(argv)
    from_file = resolve_config([command, "--config", str(cfg)])
    for key in params:
        assert from_flags[key] == from_file[key] == _SAMPLES[key][2], key

    for key, (_, default, _) in params.items():
        if default is cli._REQUIRED:
            i = argv.index(flag(key))
            with pytest.raises(ConfigError, match="requires %s$" % flag(key)):
                resolve_config(argv[:i] + argv[i + 2:])

    with pytest.raises(SystemExit):
        cli._build_parser().parse_args([command, "--help"])
    shown = " ".join(capsys.readouterr().out.split())
    for key, (convert, default, _) in params.items():
        assert flag(key) in shown
        if convert is not cli._parse_bool and default not in (None, cli._REQUIRED):
            assert "(default %s)" % default in shown, key


def test_one_parser_serves_consecutive_runs(capsys):
    runs = [
        ["capacity", "--channel", "identity(2)"],
        ["aep", "--p", "0.9,0.1", "--eps", "0.2", "--n", "4:6", "--format", "csv"],
        ["lln", "--p", "0.5,0.5", "--n", "2", "--moment", "x"],
        ["code", "--state", "0.5,0.5", "--words", "0,1"],
        ["channel-info", "--channel", "bsc(0.1)", "--bogus"],
        ["nope"],
    ]

    def outcome(argv):
        code = main(argv)
        return code, capsys.readouterr()

    consecutive = [outcome(argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert consecutive == fresh
    assert [code for code, _ in fresh] == [0, 0, 1, 0, 1, 1]
    assert cli._build_parser() is cli._build_parser()
    for argv in runs[:2]:
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        assert "--guard-override" in capsys.readouterr().out


def test_toml_config_depends_on_interpreter(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text('command = "aep"\np = [0.5, 0.5]\neps = 0.1\nn = "2:3"\n')
    try:
        import tomllib  # noqa: F401
    except ModuleNotFoundError:
        with pytest.raises(ConfigError, match="TOML"):
            resolve_config(["aep", "--config", str(cfg)])
    else:
        config = resolve_config(["aep", "--config", str(cfg)])
        assert config["p"] == [0.5, 0.5] and config["n"] == [2, 3]


def test_channel_literals_and_file(tmp_path):
    config = resolve_config(["capacity", "--channel", "identity(3)"])
    assert config["channel"].input_dim == 3
    config = resolve_config(["channel-info", "--channel", "useless(0.3,0.7)"])
    assert config["channel"].output_dim == 2
    spec = {"input_dim": 2, "output_dim": 2, "matrix": [[0.8, 0.2], [0.1, 0.9]]}
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(spec))
    config = resolve_config(["capacity", "--channel", str(path)])
    assert np.allclose(config["channel"].matrix, spec["matrix"])
    with pytest.raises(ConfigError):
        resolve_config(["capacity", "--channel", "warp(0.1)"])


# artifacts --------------------------------------------------------------------------


def test_byte_reproducible_artifacts(tmp_path):
    args = ["coding-experiment", "--channel", "bsc(0.05)", "--rate", "0.4",
            "--ks", "4,8", "--trials", "3", "--seed", "5", "--format", "csv"]
    code1, path = run(tmp_path, args, "a.csv")
    first = path.read_bytes()
    code2, path = run(tmp_path, args, "a.csv")
    assert code1 == 0 and code2 == 0
    assert first == path.read_bytes()
    args[-1] = "json"
    code1, path = run(tmp_path, args, "a.json")
    first = path.read_bytes()
    code2, path = run(tmp_path, args, "a.json")
    assert code1 == 0 and code2 == 0
    assert first == path.read_bytes()


_KEYS = st.text(st.sampled_from('ab"\\\n[]{},: \u00e9\u20ac\U0001f600'), max_size=4)
_SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
            | st.sampled_from([-0.0, 5e-324, 1e300, 0.1])
            | st.floats(allow_nan=False, allow_infinity=False) | _KEYS
            | st.floats(allow_nan=False, allow_infinity=False).map(np.float64))


def _containers(items):
    return (st.lists(items, max_size=4) | st.lists(items, max_size=3).map(tuple)
            | st.dictionaries(_KEYS, items, max_size=4))


# nested values, with lists of rows and of matrix rows drawn as often as the rest
_NESTED = st.recursive(_SCALARS, _containers, max_leaves=40) | st.lists(
    _containers(_SCALARS), max_size=5)


@settings(max_examples=400)
@given(_NESTED)
@example([[], {}, [[]], {"": {"": []}}, ((), [{}])])
@example({"a\n\"[{,}]\\\u00e9": [{"k": 2 ** 70, "z": -0.0}, {"k": 5e-324, "z": 1e300}],
          "b": [(True, None), ["x", False]]})
def test_renderer_writes_the_bytes_of_json_dumps(value):
    assert cli._render(value) == json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_artifact_value_is_refused_as_json_dumps_refuses_it(
        monkeypatch, capsys, bad):
    rows = [{"n": 1, "moment": 0.5}, {"n": 2, "moment": bad}]
    with pytest.raises(ValueError) as expected:
        json.dumps(rows, allow_nan=False, indent=2)
    monkeypatch.setitem(cli._RUNNERS, "lln", lambda config: (rows, None))
    assert main(["lln", "--p", "0.5,0.5", "--n", "1:2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {"kind": "config", "message": str(expected.value)}


def test_json_and_csv_artifacts_agree(tmp_path):
    base = ["lln", "--p", "0.3,0.7", "--n", "1,5,25", "--eps", "0.25"]
    code, jpath = run(tmp_path, base + ["--format", "json"], "r.json")
    assert code == 0
    code, cpath = run(tmp_path, base + ["--format", "csv"], "r.csv")
    assert code == 0
    jart = read_artifact(str(jpath))
    cart = read_artifact(str(cpath))
    assert jart["summary"] == cart["summary"] is None
    assert len(jart["results"]) == len(cart["results"]) == 3
    for jrow, crow in zip(jart["results"], cart["results"]):
        assert set(jrow) == set(crow)
        for key in jrow:
            assert jrow[key] == pytest.approx(crow[key], abs=0.0)  # exact round trip
    jcfg = dict(jart["config"])
    ccfg = dict(cart["config"])
    assert jcfg.pop("format") == "json" and ccfg.pop("format") == "csv"
    assert jcfg.pop("output") != ccfg.pop("output")
    assert jcfg == ccfg


def test_csv_round_trip_typing(tmp_path):
    code, path = run(tmp_path, ["code", "--state", "0.5,0.25,0.25", "--huffman",
                                "--format", "csv"], "code.csv")
    assert code == 0
    art = read_artifact(str(path))
    words = [row["word"] for row in art["results"]]
    assert words == ["0", "10", "11"]  # strings, not integers
    assert art["summary"]["expected_length"] == pytest.approx(1.5, abs=1e-12)
    assert art["summary"]["prefix_free"] is True
    assert art["summary"]["kraft_ok"] is True
    assert art["summary"]["bound_value"] == pytest.approx(0.0, abs=1e-12)


def test_seed_echoed_in_artifact(tmp_path):
    code, path = run(tmp_path, ["coding-experiment", "--channel", "bsc(0.1)", "--rate",
                                "0.5", "--ks", "3", "--trials", "2", "--seed", "17"], "s.json")
    assert code == 0
    art = read_artifact(str(path))
    assert art["config"]["seed"] == 17
    assert art["summary"]["seed"] == 17
    rows = art["results"]
    assert [r["trial"] for r in rows] == [0, 1]
    assert all(r["k"] == 3 for r in rows)


# command behavior -------------------------------------------------------------------


def test_aep_report_rows(tmp_path):
    code, path = run(tmp_path, ["aep", "--p", "0.9,0.1", "--eps", "0.2", "--n", "4:20"], "aep.json")
    assert code == 0
    art = read_artifact(str(path))
    assert len(art["results"]) == 17
    assert [row["n"] for row in art["results"]] == list(range(4, 21))
    for row in art["results"]:
        assert row["count"] <= row["upper_bound"]
        assert row["count_ok"] is True


def test_aep_on_a_block_past_the_type_guard_ends(tmp_path):
    # --guard-override admits 2**64 + 1 type classes; only the counts next to
    # the eps band are tested, so the walk ends at once.  Every string but
    # the all-first-atom one has rate >= 996.6 / 2**64 = 5.4e-17, far above
    # eps = 1e-200.
    argv = ["aep", "--p", "1,1e-300", "--eps", "1e-200", "--n", str(2 ** 64), "--guard-override"]
    start = time.perf_counter()
    code, path = run(tmp_path, argv, "aep.json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    (row,) = read_artifact(str(path))["results"]
    assert (row["count"], row["prob_mass"], row["count_ok"]) == (1, 1.0, True)


def test_capacity_artifact(tmp_path):
    code, path = run(tmp_path, ["capacity", "--channel", "bsc(0.11)"], "cap.json")
    assert code == 0
    art = read_artifact(str(path))
    assert art["summary"]["capacity"] == pytest.approx(0.5000840418354721, abs=1e-9)
    weights = [row["optimal_weight"] for row in art["results"]]
    assert weights == pytest.approx([0.5, 0.5], abs=1e-6)
    assert art["summary"]["gap"] <= 1e-9


def test_channel_info_with_and_without_state(tmp_path):
    code, path = run(tmp_path, ["channel-info", "--channel", "identity(2)"], "ci.json")
    assert code == 0
    art = read_artifact(str(path))
    row = art["results"][0]
    assert row["kind"] == "lossless" and row["assignment"] == [0, 1]
    assert row["mutual_information"] is None
    code, path = run(tmp_path, ["channel-info", "--channel", "bsc(0.11)",
                                "--state", "0.5,0.5", "--format", "csv"], "ci.csv")
    assert code == 0
    row = read_artifact(str(path))["results"][0]
    assert row["kind"] == "generic" and row["assignment"] is None
    assert row["mutual_information"] == pytest.approx(0.5000840418354721, abs=1e-9)
    assert row["h_input"] == pytest.approx(1.0, abs=1e-12)



def test_channel_info_admits_a_state_and_channel_each_within_tolerance(tmp_path):
    # the joint state's weights sum to 1 + 1.8e-9, twice the tolerance of
    # either input; it is a product of admitted inputs and is admitted too
    code, path = run(tmp_path, ["channel-info", "--channel", "useless(0.5000000009,0.5)",
                                "--state", "0.5000000009,0.5"], "ci.json")
    assert code == 0
    row = read_artifact(str(path))["results"][0]
    assert row["kind"] == "useless"
    assert row["h_input_given_output"] == pytest.approx(1.0, abs=1e-8)


def test_lln_rows_track_variance(tmp_path):
    code, path = run(tmp_path, ["lln", "--p", "0.5,0.5", "--n", "1,4,16", "--eps", "0.5"], "l.json")
    assert code == 0
    rows = read_artifact(str(path))["results"]
    for row in rows:
        assert row["variance"] == pytest.approx(0.25 / row["n"], abs=1e-12)
        assert row["chebyshev_bound"] == pytest.approx(row["variance"] / 0.25, abs=1e-12)
        assert row["tail_probability"] <= row["chebyshev_bound"] + 1e-12


@pytest.mark.parametrize("values", [(0.0, 1.0), (0.0, 3.0)])
def test_lln_values_match_binomial_closed_form(tmp_path, values):
    p, eps = 0.7, 0.25  # no average lands exactly eps from the mean
    code, path = run(tmp_path, ["lln", "--p", "0.3,0.7", "--n", "1:6", "--eps", str(eps),
                                "--values", "%g,%g" % values], "v.json")
    assert code == 0
    lo, hi = values
    mean = lo + (hi - lo) * p
    for row in read_artifact(str(path))["results"]:
        n = row["n"]
        variance = (hi - lo) ** 2 * p * (1 - p) / n
        tail = sum(
            math.comb(n, j) * p ** j * (1 - p) ** (n - j)
            for j in range(n + 1)
            if abs(lo + (hi - lo) * j / n - mean) > eps
        )
        assert row["moment"] == pytest.approx(variance, abs=1e-12)
        assert row["variance"] == pytest.approx(variance, abs=1e-12)
        assert row["tail_probability"] == pytest.approx(tail, abs=1e-12)


@pytest.mark.parametrize("values", [None, "0,2.5,-1"])
def test_lln_one_pass_rows_equal_per_n_calls(tmp_path, values):
    eps, k = 0.15, 4
    argv = ["lln", "--p", "0.2,0.3,0.5", "--n", "1:60", "--eps", str(eps), "--moment", str(k)]
    if values is not None:
        argv += ["--values", values]
    code, path = run(tmp_path, argv, "lln.json")
    assert code == 0
    omega = State(AtomicAlgebra(3), [0.2, 0.3, 0.5])
    obs = None if values is None else Element(omega.algebra, [0.0, 2.5, -1.0])
    rows = read_artifact(str(path))["results"]
    assert [row["n"] for row in rows] == list(range(1, 61))
    for row in rows:
        n = row["n"]
        variance = lln_moment(omega, n, 2, observable=obs)
        assert row == {
            "n": n,
            "moment": lln_moment(omega, n, k, observable=obs),
            "variance": variance,
            "tail_probability": chebyshev_tail(omega, n, eps, observable=obs),
            "chebyshev_bound": variance / (eps * eps),
        }


@pytest.mark.parametrize("argv", [
    ["aep", "--p", "nan,nan", "--eps", "0.1", "--n", "2"],
    ["lln", "--p", "0.5,0.5", "--n", "1:2", "--values", "inf,1", "--format", "csv"],
])
def test_non_finite_input_exits_with_json_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "config"


@pytest.mark.parametrize("argv, code", [
    (["lln", "--p", "0.5,0.5", "--n", "1:2", "--eps", "inf"], 1),
    (["capacity", "--channel", "bsc(0.1)", "--tol", "-1"], 1),
    (["capacity", "--channel", "bsc(0.1)", "--tol", "nan"], 1),
    (["capacity", "--channel", "bsc(0.1)", "--max-iter", "0"], 1),
    (["coding-experiment", "--channel", "bsc(0.1)", "--rate", "inf", "--ks", "2"], 1),
    (["coding-experiment", "--channel", "bsc(0.1)", "--rate", "0.5", "--ks", "3000"], 2),
])
def test_out_of_range_parameters_are_refused(capsys, argv, code):
    assert main(argv) == code
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == {1: "config", 2: "guard"}[code]


@pytest.mark.parametrize("channel", [{}, {"matrix": [[1.0]]}, [[1.0]], {"n": [None]}])
def test_malformed_files_are_config_errors(tmp_path, capsys, channel):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(channel))
    if "n" in channel:  # a config file, not a channel
        argv = ["lln", "--p", "0.5,0.5", "--config", str(path)]
    else:
        argv = ["capacity", "--channel", str(path)]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"


def test_code_rejects_word_count_mismatch(tmp_path):
    code, _ = run(tmp_path, ["code", "--state", "0.5,0.5", "--words", "0,10,11"], "x.json")
    assert code == 1


def test_code_refuses_non_ascii_digits(tmp_path, capsys):
    code, path = run(tmp_path, ["code", "--state", "0.5,0.5", "--words", "0,\u0661"], "na.json")
    assert code == 1 and not path.exists()
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "outside 0..1" in err["message"]


def test_code_reports_non_prefix_free(tmp_path):
    code, path = run(tmp_path, ["code", "--state", "0.5,0.25,0.25",
                                "--words", "0,01,11"], "npf.json")
    assert code == 0
    art = read_artifact(str(path))
    assert art["summary"]["prefix_free"] is False
    assert art["summary"]["expected_length"] is None


def test_exit_codes(tmp_path, capsys):
    assert main(["lln", "--p", "0.6,0.5", "--n", "1:4"]) == 1  # weights do not sum to 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config"

    # more type classes than the guard allows; a count bound beyond the float range
    for argv in (["aep", "--p", "0.9,0.1", "--eps", "0.2", "--n", "1000000"],
                 ["aep", "--p", "0.5,0.5", "--eps", "0.1", "--n", "1000"]):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "guard"

    chan = tmp_path / "z.json"
    chan.write_text(json.dumps({"input_dim": 2, "output_dim": 2,
                                "matrix": [[1.0, 0.0], [0.5, 0.5]]}))
    assert main(["capacity", "--channel", str(chan), "--tol", "1e-13", "--max-iter", "2"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "numeric"


def test_guard_override_lifts_guard(tmp_path):
    code, path = run(tmp_path, ["aep", "--p", "0.9,0.1", "--eps", "0.2", "--n", "25",
                                "--guard-override"], "big.json")
    assert code == 0
    art = read_artifact(str(path))
    assert art["config"]["guard_override"] is True
    assert art["results"][0]["n"] == 25


def test_guard_override_lifts_type_class_guard(tmp_path, capsys):
    argv = ["aep", "--p", "0.9999999,0.0000001", "--eps", "0.0001", "--n", "300000"]
    assert main(argv) == 2  # 300001 type classes
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "guard"
    code, path = run(tmp_path, argv + ["--guard-override"], "types.json")
    assert code == 0
    row = read_artifact(str(path))["results"][0]
    n, q = 300000, 1e-7  # typical: the strings with at most one rare symbol
    assert row["count"] == 1 + n
    assert row["prob_mass"] == pytest.approx((1 - q) ** n + n * q * (1 - q) ** (n - 1), abs=1e-12)


def test_long_grid_is_refused_before_it_is_built(capsys):
    assert main(["lln", "--p", "0.5,0.5", "--n", "1:300000000"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config"
    assert "300000000 points" in err["message"]


def test_lln_work_guard_and_override(tmp_path, capsys, monkeypatch):
    # the benchmark's sweeps stay inside the default bound
    for grid, moment in (("1:300", "2"), ("10,50,100,150,300", "4")):
        code, _ = run(tmp_path, ["lln", "--p", "0.2,0.3,0.5", "--n", grid, "--moment", moment])
        assert code == 0
    # two atoms to n = 40 form 40 * 41 support-by-value products
    monkeypatch.setattr(probability, "SWEEP_GUARD_BITS", 10)
    argv = ["lln", "--p", "0.5,0.5", "--n", "10,40", "--eps", "0.1"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "guard"
    assert "n = 40" in err["message"]
    code, path = run(tmp_path, argv + ["--guard-override"], "lifted.json")
    assert code == 0
    assert [row["n"] for row in read_artifact(str(path))["results"]] == [10, 40]


def test_lln_moment_beyond_the_float_range_is_named(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lln", "--p", "0.5,0.5", "--n", "1:2", "--values", "0,1e300"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config"
    assert "moment 2" in err["message"] and "n = 1" in err["message"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_lln_point_mass_far_from_zero(tmp_path, fmt):
    # every figure is exactly 0: the sweep convolves centred values, so no
    # rounding residue of 10 * 1e300 is raised to a power
    argv = ["lln", "--p", "1.0", "--n", "10", "--moment", "1", "--values", "1e300",
            "--format", fmt]
    code, path = run(tmp_path, argv, "point." + fmt)
    assert code == 0
    (row,) = read_artifact(str(path))["results"]
    assert row == {"n": 10, "moment": 0, "variance": 0, "tail_probability": 0,
                   "chebyshev_bound": 0}


@pytest.mark.parametrize("eps", ["1e-200", "1e-160"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_lln_chebyshev_bound_beyond_the_float_range_names_eps(capsys, eps, fmt):
    # variance / eps**2 overflows, and at 1e-200 eps * eps underflows to 0
    assert main(["lln", "--p", "0.5,0.5", "--n", "10", "--eps", eps, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config" and err["message"].startswith("--eps %s: " % eps)


def test_lln_chebyshev_bound_of_zero_variance_with_a_tiny_eps(tmp_path):
    code, path = run(tmp_path, ["lln", "--p", "1.0", "--n", "3", "--eps", "1e-200"])
    assert code == 0
    (row,) = read_artifact(str(path))["results"]
    assert row["variance"] == 0 and row["chebyshev_bound"] == 0


@settings(max_examples=100)
@given(st.sampled_from([2, 3, 10]), st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_code_bound_value_is_expected_length_minus_entropy(alphabet, counts):
    # bound_value and entropy_base_n come from the same base-n entropy
    argv = ["code", "--huffman", "--alphabet", str(alphabet),
            "--state", ",".join(repr(c / sum(counts)) for c in counts)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    summary = json.loads(out.getvalue())["summary"]
    assert summary["bound_value"] == summary["expected_length"] - summary["entropy_base_n"]


def test_stdout_output(capsys):
    assert main(["capacity", "--channel", "identity(2)"]) == 0
    out = capsys.readouterr().out
    art = json.loads(out)
    assert art["summary"]["capacity"] == pytest.approx(1.0, abs=1e-9)



def _stderr_of(argv, action):
    # one in-process run under a single warnings filter action
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter(action)
        main(argv)
    return err.getvalue()


def test_warnings_are_json_lines_without_paths():
    # the README coding example: bsc(0.05) at rate 0.4 leaves decision blocks empty
    argv = ["coding-experiment", "--channel", "bsc(0.05)", "--rate", "0.4", "--ks", "4,8,12",
            "--seed", "21"]
    first, second = _stderr_of(argv, "default"), _stderr_of(argv, "default")
    assert first == second
    lines = first.splitlines()
    assert lines and len(set(lines)) == len(lines)
    for line in lines:
        assert set(json.loads(line)["warning"]) == {"category", "message"}
        assert os.sep not in line and ".py" not in line


def test_each_warning_once_and_the_error_last(monkeypatch):
    def runner(config):
        for _ in range(3):
            warnings.warn("first")
            warnings.warn("second", RuntimeWarning)
        raise ConfigError("stop")

    monkeypatch.setitem(cli._RUNNERS, "capacity", runner)
    argv = ["capacity", "--channel", "identity(2)"]
    assert [json.loads(line) for line in _stderr_of(argv, "always").splitlines()] == [
        {"warning": {"category": "UserWarning", "message": "first"}},
        {"warning": {"category": "RuntimeWarning", "message": "second"}},
        {"error": {"kind": "config", "message": "stop"}},
    ]
    assert _stderr_of(argv, "ignore") == '{"error": {"kind": "config", "message": "stop"}}\n'


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "cstar_info", "capacity", "--channel", "identity(2)"],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["capacity"] == pytest.approx(1.0, abs=1e-9)

# fuzzing ----------------------------------------------------------------------------

_NUMBER_TOKENS = ["0.5", "0.25", "1", "0", "-0.5", "2", "1e-300", "1e300", "1e400", "nan",
                  "inf", "-inf", "abc", ""]
# Block lengths: small ones that run, and huge ones that only a guard or a
# parse error can stop.  A huge one runs long with --guard-override only when
# the count bound 2**(n (H + eps)) is a finite float.  With eps at least 1e-3
# it is not; with the tiny eps tokens it is only for weights made of 1, 0 and
# 1e-300 (H below 1e-297), which this strategy draws far less than once in a
# million examples.
_HUGE_N = ["100000000", str(10 ** 30), str(2 ** 64), str(10 ** 400)]
_GRID_TOKENS = ["1:6", "5,3,5", "2:12:5", "0", "-3", "3:1", "1:3:0", "x", "1e3", ""]
_EPS_TOKENS = ["2", "0", "-1", "nan", "inf", "1e300", "abc", "1e-200", "1e-160"]


def _present():
    return st.sampled_from((True,) * 9 + (False,))


def _tokens(tokens):
    return st.lists(st.sampled_from(tokens), min_size=1, max_size=4).map(",".join)


def _weights():
    normalised = st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(any).map(
        lambda ks: ",".join(repr(k / sum(ks)) for k in ks))
    return st.one_of(normalised, normalised, normalised, _tokens(_NUMBER_TOKENS))


@st.composite
def _lln_and_aep_argv(draw):
    command = draw(st.sampled_from(["lln", "aep"]))
    small_n = st.integers(1, 40 if command == "lln" else 14).map(str)
    huge_n = [] if command == "lln" else [st.sampled_from(_HUGE_N)]
    flags = {
        "--p": _weights(),
        "--n": st.one_of(small_n, small_n, st.sampled_from(_GRID_TOKENS), *huge_n),
        "--eps": st.one_of(st.floats(1e-3, 1.0).map(repr), st.sampled_from(_EPS_TOKENS)),
    }
    if command == "lln":
        flags["--moment"] = st.sampled_from(["1", "2", "3", "4", "40", "0", "-1", "x"])
        flags["--values"] = st.one_of(st.lists(st.floats(-5, 5), min_size=1, max_size=4).map(
            lambda vs: ",".join(map(repr, vs))), _tokens(_NUMBER_TOKENS))
    argv = [command]
    for flag, values in flags.items():
        if draw(_present()) and (flag != "--values" or draw(st.booleans())):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv.append("--guard-override")
    if draw(st.booleans()):
        argv += ["--format", "csv"]
    return argv


@settings(max_examples=300)
@given(_lln_and_aep_argv())
def test_fuzz_main_lln_and_aep(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
        text = out.getvalue()
        assert json.loads(text) if text.startswith("{") else text.startswith("# config: ")
    else:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())["error"]
        assert error["kind"] == ("config" if code == 1 else "guard")
        assert "Traceback" not in error["message"]


# Channel files: valid small matrices and every malformed shape the parser
# must refuse as a configuration error.
_BAD_CHANNELS = [
    {},
    {"matrix": [[1.0]]},
    [[0.5, 0.5], [0.5, 0.5]],
    "bsc(0.1)",
    None,
    {"input_dim": 2, "output_dim": 2, "matrix": [[0.5, 0.5], [0.5]]},
    {"input_dim": 2, "output_dim": 3, "matrix": [[0.5, 0.5], [0.5, 0.5]]},
    {"input_dim": 2, "output_dim": 2, "matrix": [[math.nan, 1.0], [0.5, 0.5]]},
    {"input_dim": 2, "output_dim": 2, "matrix": [[1.5, -0.5], [0.5, 0.5]]},
    {"input_dim": 2, "output_dim": 2, "matrix": [[0.7, 0.7], [0.5, 0.5]]},
    {"input_dim": 1, "output_dim": 1, "matrix": [[{}]]},
    {"input_dim": None, "output_dim": 1, "matrix": [[1.0]]},
    {"input_dim": "x", "output_dim": 1, "matrix": [[1.0]]},
    {"input_dim": 1e400, "output_dim": 1, "matrix": [[1.0]]},
    {"input_dim": 0, "output_dim": 0, "matrix": []},
    {"input_dim": 1, "output_dim": 2, "matrix": [[[0.5, 0.5]]]},
]
_CHANNEL_LITERALS = ["bsc(0.1)", "bsc(0.5)", "bec(0.3)", "identity(3)", "useless(0.5,0.5)",
                     "bsc(2)", "bsc(nan)", "identity(0)", "useless()", "nope(1)"]
_RATE_TOKENS = ["0.5", "0.25", "1", "0", "-1", "nan", "inf", "-inf", "1e6", "1e-300", "abc"]
_TOL_TOKENS = ["1e-9", "1e-3", "0", "-1", "nan", "inf", "-inf", "1e300", "abc"]
_ITER_TOKENS = ["0", "-3", "x", "1e3", "nan"]
_KS_TOKENS = ["1:3", "2,4", "0", "x", "3000", "100000000", str(10 ** 400), "1:" + str(10 ** 30)]


def _stochastic_rows():
    row = st.lists(st.integers(0, 4), min_size=2, max_size=3).filter(any)
    return st.lists(row, min_size=2, max_size=3).filter(
        lambda rows: len({len(r) for r in rows}) == 1).map(
        lambda rows: [[v / sum(r) for v in r] for r in rows])


def _channel_file():
    valid = _stochastic_rows().map(
        lambda m: {"input_dim": len(m), "output_dim": len(m[0]), "matrix": m})
    # a tuple marks file contents, which the test writes to a file
    return st.one_of(valid, st.sampled_from(_BAD_CHANNELS)).map(lambda data: ("file", data))


@st.composite
def _channel_argv(draw):
    command = draw(st.sampled_from(["capacity", "channel-info", "coding-experiment", "code"]))
    flags = {}
    if command == "code":
        flags["--state"] = _weights()
        flags["--alphabet"] = st.sampled_from(["2", "3", "10", "1", "11", "0", "-2", "x"])
        flags["--words"] = st.sampled_from(["0,10,11", "0,1", "00,01,1", "0,01", "2,3", "a,b",
                                            ","])
    else:
        flags["--channel"] = st.one_of(st.sampled_from(_CHANNEL_LITERALS), _channel_file())
    if command == "capacity":
        flags["--tol"] = st.sampled_from(_TOL_TOKENS)
        flags["--max-iter"] = st.one_of(st.integers(1, 200).map(str), st.sampled_from(_ITER_TOKENS))
    if command in ("channel-info", "coding-experiment"):
        flags["--state"] = _weights()
    if command == "coding-experiment":
        flags["--rate"] = st.one_of(st.floats(0.2, 1.5).map(repr), st.sampled_from(_RATE_TOKENS))
        flags["--ks"] = st.one_of(st.integers(1, 6).map(str), st.sampled_from(_KS_TOKENS))
        flags["--trials"] = st.sampled_from(["1", "2", "0", "-1", "x"])
    argv = [command]
    for flag, values in flags.items():
        if draw(_present()) and (flag != "--state" or command == "code" or draw(st.booleans())):
            argv += [flag, draw(values)]
    if command == "code" and draw(st.booleans()):
        argv.append("--huffman")
    return argv


@settings(max_examples=200)
@given(_channel_argv())
def test_fuzz_main_channel_commands(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if "--channel" in argv:
            at = argv.index("--channel") + 1
            if isinstance(argv[at], tuple):
                path = os.path.join(tmp, "channel.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(argv[at][1], handle)
                argv = argv[:at] + [path] + argv[at + 1:]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())["error"]
        assert error["kind"] == {1: "config", 2: "guard", 3: "numeric"}[code]
        assert "Traceback" not in error["message"]


# golden artifacts -------------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"
_CODING = ["coding-experiment", "--channel", "bsc(0.05)"]
# thirty weights with ties, which the Huffman queue breaks by creation order
_STATE_30 = ("0.0017,0.0104,0.0001,0.0273,0.0629,0.0857,0.0046,0.0002,0.0083,0.0272,"
             "0.0021,0.0351,0.0964,0.0078,0.0144,0.0593,0.0299,0.054,0.0171,0.0903,"
             "0.0005,0.028,0.0001,0.118,0.0108,0.0002,0.0964,0.1052,0.0017,0.0043")
# (name, exit code, argv): the README examples, a CSV form of the source
# commands, the benchmark's widest coding grid, two artifacts with lists of
# rows and of matrix rows, and one refusal per exit code.
# A run leaves <name>.json or <name>.csv (the artifact, its echoed output
# path dropped) and, when it writes to standard error, <name>.stderr.
_GOLDEN_CASES = [
    ("lln", 0, ["lln", "--p", "0.5,0.5", "--n", "1:100", "--eps", "0.1"]),
    ("aep", 0, ["aep", "--p", "0.9,0.1", "--eps", "0.2", "--n", "4:20"]),
    ("code-huffman", 0, ["code", "--state", "0.5,0.25,0.25", "--huffman"]),
    ("code-words", 0, ["code", "--state", "0.5,0.25,0.25", "--words", "0,10,11"]),
    ("code-huffman-30", 0, ["code", "--state", _STATE_30, "--huffman"]),
    ("channel-info", 0, ["channel-info", "--channel", "bsc(0.11)", "--state", "0.5,0.5"]),
    ("capacity", 0, ["capacity", "--channel", "bsc(0.11)"]),
    ("capacity-6x6", 0, ["capacity", "--channel", str(GOLDEN / "channel-6x6.json")]),
    ("coding-experiment", 0, _CODING + ["--rate", "0.4", "--ks", "4,8,12", "--seed", "21"]),
    ("lln-csv", 0, ["lln", "--p", "0.3,0.7", "--n", "1:40", "--eps", "0.2", "--format", "csv"]),
    ("aep-csv", 0, ["aep", "--p", "0.7,0.2,0.1", "--eps", "0.3", "--n", "2:9", "--format", "csv"]),
    ("code-csv", 0, ["code", "--state", "0.4,0.3,0.2,0.1", "--huffman", "--alphabet", "3",
                     "--format", "csv"]),
    ("coding-k10-12", 0, _CODING + ["--rate", "0.99", "--ks", "10,12", "--trials", "2",
                                    "--seed", "2001"]),
    ("refuse-config", 1, ["lln", "--p", "0.6,0.5", "--n", "1:4"]),
    ("refuse-guard", 2, _CODING + ["--rate", "0.4", "--ks", "30"]),
    ("refuse-numeric", 3, ["capacity", "--channel", str(GOLDEN / "z-channel.json"),
                           "--tol", "1e-13", "--max-iter", "2"]),
]


def _golden_run(tmp_path, argv):
    # one in-process run as from a shell: each distinct warning shown once
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    path = tmp_path / ("artifact." + fmt)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        code = main(list(argv) + ["--output", str(path)])
    files = {"stderr": err.getvalue()} if err.getvalue() else {}
    if path.exists():
        files[fmt] = path.read_text(encoding="utf-8").replace(str(path), "")
    return code, files


@pytest.mark.parametrize("name, code, argv", _GOLDEN_CASES, ids=[c[0] for c in _GOLDEN_CASES])
def test_artifacts_match_the_golden_files(tmp_path, name, code, argv):
    got_code, files = _golden_run(tmp_path, argv)
    assert got_code == code
    assert sorted(p.name for p in GOLDEN.glob(name + ".*")) == sorted(
        "%s.%s" % (name, suffix) for suffix in files)
    for suffix, text in files.items():
        assert text == (GOLDEN / ("%s.%s" % (name, suffix))).read_text(encoding="utf-8")
