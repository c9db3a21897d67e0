"""Rewrite the golden files under tests/golden/ from the current code.

    python tests/make_golden.py

Runs every case of ``test_cli._GOLDEN_CASES`` as the golden test does and
writes its artifact and standard error, then writes the library files
``golden/library/lln_sweep.json``, ``coding_experiment.json``,
``capacity.json``, ``tensor_programs.json``, ``aep_typical_set.json``,
``aep_projection.json`` and ``partitions.json``.
The tests only read these files: a change that moves a value reruns this
script and quotes the diff.

Each file is read before it is rewritten, and one line per file reports how
many of its values moved and the largest relative move among them, with
``float.hex`` strings read as floats.  A JSON file's values are its leaves
in order; any other file's are its words, split at commas and white space.
"""

import json
import math
import pathlib
import sys
import tempfile

TESTS = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import test_channel  # noqa: E402
import test_cli  # noqa: E402
import test_information  # noqa: E402
import test_probability  # noqa: E402
import test_tensor  # noqa: E402


def _values(text):
    try:
        data = json.loads(text)
    except ValueError:
        return text.replace(",", " ").split()
    leaves = []

    def walk(value):
        if isinstance(value, (dict, list)):
            for item in value.values() if isinstance(value, dict) else value:
                walk(item)
        else:
            leaves.append(value)

    walk(data)
    return leaves


def _number(value):
    # a JSON number, or a string that spells one in decimal or float.hex
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    try:
        return float.fromhex(value) if "0x" in value else float(value)
    except (TypeError, ValueError):
        return None


def _moves(old, new):
    # the number of values that differ, and the largest relative move of the
    # numbers among them (inf when a value is not a number or the count of
    # values differs)
    old, new = _values(old), _values(new)
    moved = sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))
    largest = 0.0 if len(old) == len(new) else math.inf
    for a, b in zip(old, new):
        if a != b:
            x, y = _number(a), _number(b)
            scale = max(abs(x), abs(y)) if None not in (x, y) else 0.0
            largest = max(largest, abs(x - y) / scale if scale else math.inf)
    return moved, largest


def _write(path, text):
    old = path.read_text(encoding="utf-8") if path.exists() else None
    path.write_text(text, encoding="utf-8")
    name = path.relative_to(TESTS / "golden")
    if old is None:
        print("%s: new, %d values" % (name, len(_values(text))))
    else:
        print("%s: %d values moved, largest relative move %.3g" % ((name,) + _moves(old, text)))


def main():
    with tempfile.TemporaryDirectory() as workdir:
        for name, code, argv in test_cli._GOLDEN_CASES:
            run_dir = pathlib.Path(workdir) / name
            run_dir.mkdir()
            got, files = test_cli._golden_run(run_dir, argv)
            if got != code:
                sys.exit("%s exits with %d, not %d" % (name, got, code))
            paths = {test_cli.GOLDEN / ("%s.%s" % (name, suffix)): text
                     for suffix, text in files.items()}
            for old in set(test_cli.GOLDEN.glob(name + ".*")) - set(paths):
                print("%s: removed" % old.relative_to(TESTS / "golden"))
                old.unlink()
            for path, text in paths.items():
                _write(path, text)
    for path, records in ((test_probability.LLN_GOLDEN, test_probability.lln_golden_records()),
                          (test_channel.CODING_GOLDEN, test_channel.coding_golden_records()),
                          (test_channel.CAPACITY_GOLDEN, test_channel.capacity_golden_records()),
                          (test_tensor.TENSOR_GOLDEN, test_tensor.tensor_golden_records()),
                          (test_information.AEP_GOLDEN, test_information.aep_golden_records()),
                          (test_information.AEP_PROJECTION_GOLDEN,
                           test_information.aep_projection_golden_records()),
                          (test_probability.PARTITIONS_GOLDEN,
                           test_probability.partitions_golden_records())):
        # one case a line, so that a diff names the cases that moved
        lines = ",\n".join(json.dumps(r) for r in records)
        _write(path, "[\n%s\n]\n" % lines)


if __name__ == "__main__":
    main()
