"""Rewrite the golden files under tests/golden/ from the current code.

    python tests/make_golden.py

Runs every case of ``test_cli._GOLDEN_CASES`` as the golden test does and
writes its artifact and standard error, then writes the library files
``golden/library/lln_sweep.json``, ``coding_experiment.json``,
``capacity.json`` and ``tensor_programs.json``.  The tests only read these
files: a change that moves a value reruns this script and quotes the diff.
"""

import json
import pathlib
import sys
import tempfile

TESTS = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import test_channel  # noqa: E402
import test_cli  # noqa: E402
import test_probability  # noqa: E402
import test_tensor  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as workdir:
        for name, code, argv in test_cli._GOLDEN_CASES:
            run_dir = pathlib.Path(workdir) / name
            run_dir.mkdir()
            got, files = test_cli._golden_run(run_dir, argv)
            if got != code:
                sys.exit("%s exits with %d, not %d" % (name, got, code))
            for old in test_cli.GOLDEN.glob(name + ".*"):
                old.unlink()
            for suffix, text in files.items():
                (test_cli.GOLDEN / ("%s.%s" % (name, suffix))).write_text(text, encoding="utf-8")
    for path, records in ((test_probability.LLN_GOLDEN, test_probability.lln_golden_records()),
                          (test_channel.CODING_GOLDEN, test_channel.coding_golden_records()),
                          (test_channel.CAPACITY_GOLDEN, test_channel.capacity_golden_records()),
                          (test_tensor.TENSOR_GOLDEN, test_tensor.tensor_golden_records())):
        # one case a line, so that a diff names the cases that moved
        lines = ",\n".join(json.dumps(r) for r in records)
        path.write_text("[\n%s\n]\n" % lines, encoding="utf-8")


if __name__ == "__main__":
    main()
