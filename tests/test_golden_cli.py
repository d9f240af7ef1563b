"""Byte-for-byte golden capture of the README's CLI examples and of the
paths the README does not show: the right nesting order, a map with a
family of standard components, a 3x3 quaternion system of grids, and
three error paths (a singular complex system, exit 3, once
inconsistent and once consistent, and a system file that is not JSON,
exit 2), and generator discovery on two definition
files that need more than two generators (the dual numbers, and
Q[x]/(x^4) in the right order), and the other spellings of the number
grammar: complex entries with fractions, a bare ``-I`` and padding
spaces, and ``p/q`` tokens in a coordinate file, read over H and over
a definition file made with ``--a=-1/2``, and the right order where it
differs from the left: standard components on O and on a unital
algebra that is neither associative nor commutative.

Each case runs ``freealg.cli.main`` in-process, in a directory holding
its input files, and compares stdout, stderr and the exit code
with ``tests/golden/``: stdout in ``<case>.stdout``, argv, exit code and
stderr in ``index.json``.  The captures fix every printed digit, so a
change to the arithmetic underneath must leave the output untouched.

All four verify suites are captured, so the report each prints is fixed
byte for byte as well as its verdict.

To re-capture after an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from freealg.cli import main

GOLDEN = Path(__file__).parent / "golden"

SYSTEM = {
    "algebra": "complex",
    "matrix": [["1", "2*I"], ["1", "-3"]],
    "rhs": [["1", "0"], ["0", "1"]],
}
CONJ = "1 0 0 0\n0 -1 0 0\n0 0 -1 0\n0 0 0 -1\n"
# multiplication by 2 + 3i over C: complex-linear, so its standard
# components form a family
CMUL = "2 -3\n3 2\n"


def _grid(r, c):
    return [[str(Fraction((5 * r + 3 * c + 7 * i + 2 * j) ** 2 % 13 - 6,
                          1 + (r + c + i + j) % 3)) for j in range(4)]
            for i in range(4)]


# the second equation is twice the first, so the system is singular
SINGULAR_SYSTEM = {
    "algebra": "complex",
    "matrix": [["1", "2*I"], ["2", "4*I"]],
    "rhs": [["1", "0"], ["0", "1"]],
}
# the same matrix with the second right side twice the first: consistent,
# so the refusal comes from the null space, not from the right side
SINGULAR_CONSISTENT_SYSTEM = {
    "algebra": "complex",
    "matrix": [["1", "2*I"], ["2", "4*I"]],
    "rhs": [["1", "0"], ["2", "0"]],
}
NOT_JSON = '{"algebra": "complex", "matrix": [['

# the dual numbers Q[eps]/(eps^2) and the truncated polynomials Q[x]/(x^4):
# commutative, so the identity's orbit is small and discovery needs
# several generators
DUAL = {
    "dim": 2,
    "labels": ["1", "eps"],
    "constants": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
    "unit": 0,
}
TRUNC = {
    "dim": 4,
    "labels": ["1", "x", "x2", "x3"],
    "constants": [[i, j, i + j, "1"] for i in range(4) for j in range(4 - i)],
    "unit": 0,
}

# complex entries in the grammar's other forms: p/q parts, a bare -I and
# surrounding spaces
CFORMS = {
    "algebra": "complex",
    "matrix": [["1/2 - 3/4*I", "I"], ["-I", " -2 + 1/3*I "]],
    "rhs": [["1", "0"], ["0", "1/2"]],
}
HFRAC = "1/2 -3/5 0 7\n-1 2/3 -7/4 0\n0 5 1/9 -2\n3/2 0 -1 1/4\n"

# a full-rank map of O and a map of a 3-dimensional algebra in which
# (e_i x) e_j and e_i (x e_j) differ, so the right order has its own answer
ORIGHT = ("-3 2 0 -2 3 1 -1 -3\n0 -1 1/2 -3 3 2 1 0\n3 3 3 3 3 3 3 3\n"
          "-1 0 1 2 3 -3 -2 -1\n2 -3 -1 1 3 -2 0 2\n-2 1 -3 0 3 -1 -2/3 -2\n"
          "1 -2 2 -1 3 0 -3 1\n-3 2 0 -2 3 1 -1 -3\n")
NONASSOC = {
    "dim": 3,
    "labels": ["1", "u", "v"],
    "unit": 0,
    "constants": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [0, 2, 2, "1"],
                  [2, 0, 2, "1"], [1, 1, 2, "1"], [1, 2, 1, "1/2"], [2, 2, 2, "-1"],
                  [2, 1, 0, "2"]],
}
NA = "1 2 0\n0 1 -1/2\n3 0 1\n"

QUATERNION_SYSTEM = {
    "algebra": "quaternion",
    "matrix": [[_grid(r, c) for c in range(3)] for r in range(3)],
    "rhs": [["1", "0", "-2", "1/3"], ["0", "1", "0", "0"], ["2", "0", "0", "-1"]],
}

COMMANDS = {
    "solve": ["solve", "system.json"],
    "tables-complex": ["tables", "complex"],
    "tables-quaternion": ["tables", "quaternion"],
    "tables-octonion": ["tables", "octonion"],
    "verify-tables": ["verify", "tables"],
    "verify-quasidet": ["verify", "quasidet"],
    "verify-teichmueller": ["verify", "teichmueller"],
    "verify-shifts": ["verify", "shifts"],
    "basis-complex": ["basis", "complex"],
    "basis-octonion": ["basis", "octonion"],
    "basis-split-quaternions": ["basis", "split_quaternions.json"],
    "map-convert": ["map", "convert", "--algebra", "quaternion", "--coords", "conj.txt"],
    "basis-octonion-right": ["basis", "octonion", "--order", "right"],
    "basis-complex-right": ["basis", "complex", "--order", "right"],
    "map-convert-right": ["map", "convert", "--algebra", "quaternion", "--coords", "conj.txt",
                          "--order", "right"],
    "map-convert-family": ["map", "convert", "--algebra", "complex", "--coords", "cmul.txt"],
    "solve-quaternion-grids": ["solve", "quaternion_system.json"],
    "solve-singular": ["solve", "singular_system.json"],
    "solve-singular-consistent": ["solve", "singular_consistent_system.json"],
    "solve-not-json": ["solve", "not_json.json"],
    "basis-dual": ["basis", "dual.json"],
    "basis-trunc-right": ["basis", "trunc.json", "--order", "right"],
    "solve-cforms": ["solve", "cforms.json"],
    "map-convert-hfrac": ["map", "convert", "--algebra", "quaternion", "--coords", "hfrac.txt"],
    "map-convert-eab-hfrac": ["map", "convert", "--algebra", "eab.json", "--coords", "hfrac.txt"],
    "map-convert-octonion-right": ["map", "convert", "--algebra", "octonion",
                                   "--coords", "oright.txt", "--order", "right"],
    "map-convert-nonassoc-right": ["map", "convert", "--algebra", "nonassoc.json",
                                   "--coords", "na.txt", "--order", "right"],
}
CASES = {name + suffix: argv + extra
         for name, argv in COMMANDS.items()
         for suffix, extra in (("", []), ("-machine", ["--machine"]))}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_inputs(directory):
    """The input files, the split quaternions and E(-1/2, 3) made by the CLI."""
    (directory / "system.json").write_text(json.dumps(SYSTEM, indent=2), encoding="utf-8")
    (directory / "quaternion_system.json").write_text(json.dumps(QUATERNION_SYSTEM),
                                                      encoding="utf-8")
    (directory / "singular_system.json").write_text(json.dumps(SINGULAR_SYSTEM),
                                                    encoding="utf-8")
    (directory / "singular_consistent_system.json").write_text(
        json.dumps(SINGULAR_CONSISTENT_SYSTEM), encoding="utf-8")
    (directory / "not_json.json").write_text(NOT_JSON, encoding="utf-8")
    (directory / "dual.json").write_text(json.dumps(DUAL), encoding="utf-8")
    (directory / "trunc.json").write_text(json.dumps(TRUNC), encoding="utf-8")
    (directory / "conj.txt").write_text(CONJ, encoding="utf-8")
    (directory / "cmul.txt").write_text(CMUL, encoding="utf-8")
    (directory / "cforms.json").write_text(json.dumps(CFORMS), encoding="utf-8")
    (directory / "hfrac.txt").write_text(HFRAC, encoding="utf-8")
    (directory / "oright.txt").write_text(ORIGHT, encoding="utf-8")
    (directory / "nonassoc.json").write_text(json.dumps(NONASSOC), encoding="utf-8")
    (directory / "na.txt").write_text(NA, encoding="utf-8")
    code, out, _ = run(["algebra", "builtin", "quaternion", "--a", "1", "--b", "1"])
    assert code == 0
    (directory / "split_quaternions.json").write_text(out, encoding="utf-8")
    code, out, _ = run(["algebra", "builtin", "quaternion", "--a=-1/2", "--b", "3"])
    assert code == 0
    (directory / "eab.json").write_text(out, encoding="utf-8")


@pytest.fixture(scope="module")
def readme_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("readme")
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def index():
    return json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_readme_command_matches_golden(case, readme_dir, index, monkeypatch):
    monkeypatch.chdir(readme_dir)
    expected = index[case]
    assert expected["argv"] == CASES[case]
    code, out, err = run(CASES[case])
    with open(GOLDEN / f"{case}.stdout", encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    assert err == expected["stderr"]
    assert code == expected["exit"]


def capture():
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp))
            for case, argv in sorted(CASES.items()):
                code, out, err = run(argv)
                with open(GOLDEN / f"{case}.stdout", "w", encoding="utf-8", newline="") as fh:
                    fh.write(out)
                index[case] = {"argv": argv, "exit": code, "stderr": err}
        finally:
            os.chdir(cwd)
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(capture())
