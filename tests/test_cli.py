import ast
import copy
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import freealg
from freealg.cli import (main, parse_complex_entry,
                         algebra_from_json, algebra_to_json)
from freealg import SubstitutionCheckFailed, complex_algebra, quaternion_algebra
from freealg.errors import (DegenerateParams, InvalidAlgebra, MinorSingular, NotRepresentable,
                            SingularMap, SingularSystem, SingularTensor)
from test_cli_properties import literal


@pytest.fixture
def example_file(tmp_path):
    doc = {
        "algebra": "complex",
        "matrix": [["1", "2*I"], ["1", "-3"]],
        "rhs": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_example(example_file, capsys):
    code, out, _ = run(capsys, "solve", example_file)
    assert code == 0
    assert "x0 = 3/5 - 2*i" in out
    assert "x1 = 1/5 - i" in out
    assert "substitution check: ok" in out


def test_solve_machine_round_trip(example_file, capsys):
    code, out, _ = run(capsys, "solve", example_file, "--machine")
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    for key, want in (("solution.0", [Fraction(3, 5), Fraction(-2)]),
                      ("solution.1", [Fraction(1, 5), Fraction(-1)])):
        assert [literal(token, key) for token in values[key].split()] == want
    assert values["substitution"] == "ok"


def test_solve_identity_echoes_rhs(tmp_path, capsys):
    doc = {
        "algebra": "complex",
        "matrix": [["1", "0"], ["0", "1"]],
        "rhs": [["7/3", "-1"], ["0", "5"]],
    }
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", str(path), "--machine")
    assert code == 0
    assert "solution.0=7/3 -1" in out
    assert "solution.1=0 5" in out


def test_solve_singular_exits_3(tmp_path, capsys):
    doc = {
        "algebra": "complex",
        "matrix": [["1", "2*I"], ["1", "2*I"]],
        "rhs": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 3
    assert "singular" in err


def test_solve_prints_an_answer_longer_than_the_digit_limit(tmp_path, capsys):
    # each literal is under Python's 4,300-digit limit on int-to-str, the
    # answer N^2 (N = 10^4000 - 1) is near 8,000 digits; the limit is lifted
    # only while the answer is rendered and is back in place afterwards
    limits = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = limits()
    n = "9" * 4000
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"algebra": "complex", "matrix": [["1/" + n]],
                                "rhs": [[n, "0"]]}))
    square = "9" * 3999 + "8" + "0" * 3999 + "1"
    assert run(capsys, "solve", str(path), "--machine") == (
        0, f"solution.0={square} 0\nsubstitution=ok\n", "")
    code, out, err = run(capsys, "solve", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        f"  x0 = {square}", "substitution check: ok (all equations satisfied exactly)"]
    assert limits() == limit
    path.write_text(json.dumps({"algebra": "complex", "matrix": [["1"]],
                                "rhs": [["9" * 5000, "0"]]}))
    assert run(capsys, "solve", str(path))[::2] == (2, "error: rhs coordinate has too many digits\n")


def test_solve_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert err


def test_solve_matrix_entries(tmp_path, capsys):
    # general-algebra entries as coordinate grids; multiplication by i
    # over C is ((0, -1), (1, 0))
    doc = {
        "algebra": "complex",
        "matrix": [[[["0", "-1"], ["1", "0"]]]],
        "rhs": [["0", "1"]],
    }
    path = tmp_path / "general.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", str(path), "--machine")
    assert code == 0
    assert "solution.0=1 0" in out


def test_solve_quaternion_system(tmp_path, capsys):
    # left multiplication by i over H as a coordinate grid; the solution
    # of (i x = 1) is -i
    left_mult_i = [["0", "-1", "0", "0"],
                   ["1", "0", "0", "0"],
                   ["0", "0", "0", "-1"],
                   ["0", "0", "1", "0"]]
    doc = {
        "algebra": "quaternion",
        "matrix": [[left_mult_i]],
        "rhs": [["1", "0", "0", "0"]],
    }
    path = tmp_path / "quat.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", str(path), "--machine")
    assert code == 0
    assert "solution.0=0 -1 0 0" in out


def test_tables_quaternion(capsys):
    code, out, _ = run(capsys, "tables", "quaternion", "--machine")
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert values["F.0"] == "1 -1 -1 -1"
    assert values["Finv.den"] == "4"
    assert values["Finv.1"] == "-1 -1 1 1"


def test_tables_octonion(capsys):
    code, out, _ = run(capsys, "tables", "octonion", "--machine")
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert values["Finv.den"] == "12"
    assert values["Finv.0"] == "5 1 1 1 1 1 1 1"
    assert values["F.7"] == "1 1 1 1 1 1 1 -1"


@pytest.mark.parametrize("which", ["quaternion", "octonion"])
@pytest.mark.parametrize("machine", [False, True], ids=["human", "machine"])
def test_tables_check_the_inverse_before_printing(capsys, monkeypatch, which, machine):
    # F^-1 is multiplied back into F in both modes; a wrong inverse is a
    # defect (exit 4, one line, nothing printed), and a right one over a
    # denominator of F passes
    import freealg.cli as cli_mod
    argv = ["tables", which, *(["--machine"] if machine else [])]
    invert, sign_matrix = cli_mod.exact.invert_ints, cli_mod._sign_matrix

    def wrong(a):
        ints, den = invert(a)
        return [ints[0] + 1, *ints[1:]], den

    monkeypatch.setattr(cli_mod.exact, "invert_ints", wrong)
    assert run(capsys, *argv) == (
        4, "", "error: internal error (SubstitutionCheckFailed): F * F^-1 is not the identity\n")
    monkeypatch.setattr(cli_mod.exact, "invert_ints", invert)
    monkeypatch.setattr(cli_mod, "_sign_matrix",
                        lambda bm: [[v / 3 for v in row] for row in sign_matrix(bm)])
    assert run(capsys, *argv)[::2] == (0, "")


def test_a_missing_right_side_is_one_input_error(tmp_path, capsys):
    # load_system reads a 2x2 matrix and one right side; solve_additive counts them
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"algebra": "complex", "matrix": [["1", "0"], ["0", "1"]],
                                "rhs": [["1", "0"]]}))
    assert run(capsys, "solve", str(path)) == (
        2, "", "error: expected 2 right-hand elements, got 1\n")


def test_tables_complex(capsys):
    code, out, _ = run(capsys, "tables", "complex")
    assert code == 0
    assert "f^0_0 = +f^{00} -f^{11}" in out


@pytest.mark.parametrize("suite", ["tables", "quasidet", "teichmueller", "shifts"])
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0
    assert "result: PASS" in out
    names = [line.split()[-1] for line in out.splitlines()[1:-1]]  # "  [ok]   <name>"
    assert len(names) == len(set(names)), "a check is named twice"


def test_verify_failure_exits_1(capsys, monkeypatch):
    import freealg.cli as cli_mod

    def broken_suite():
        return [("always.fails", "0", "1"), ("fails.too", "0", "2")]

    monkeypatch.setitem(cli_mod._VERIFY_SUITES, "tables", broken_suite)
    code, out, err = run(capsys, "verify", "tables")
    assert code == 1
    assert err == "first failing check: always.fails\n"
    assert "result: FAIL" in out


FAILING_SUITE_OUTPUT = {
    False: ("verification suite: tables\n"
            "  [ok]   first.passes\n"
            "  [FAIL] second.fails\n"
            "         expected: 0\n"
            "         actual:   1\n"
            "  [ok]   third.passes\n"
            "result: FAIL (2/3 checks)\n"),
    True: ("subject=tables\n"
           "check.first.passes=PASS\n"
           "check.second.fails=FAIL\n"
           "expected.second.fails=0\n"
           "actual.second.fails=1\n"
           "check.third.passes=PASS\n"
           "result=FAIL\n"),
}


@pytest.mark.parametrize("machine", [False, True], ids=["human", "machine"])
def test_a_failing_suite_prints_each_check(capsys, monkeypatch, machine):
    # a pass, a fail and a pass: the failing check shows both sides, the
    # passing ones only their names, and stderr names the failure
    import freealg.cli as cli_mod

    def failing_suite():
        return [("first.passes", "1", "1"), ("second.fails", "0", "1"),
                ("third.passes", "x", "x")]

    monkeypatch.setitem(cli_mod._VERIFY_SUITES, "tables", failing_suite)
    code, out, err = run(capsys, "verify", "tables", *(["--machine"] if machine else []))
    assert (code, out, err) == (1, FAILING_SUITE_OUTPUT[machine],
                                "first failing check: second.fails\n")


@pytest.mark.parametrize("error, line", [
    (RuntimeError("boom"), "error: internal error (RuntimeError): boom"),
    (KeyError("row"), "error: internal error (KeyError): 'row'"),
    (SubstitutionCheckFailed("solution fails substitution in equation 0"),
     "error: internal error (SubstitutionCheckFailed): solution fails substitution in equation 0"),
], ids=["RuntimeError", "KeyError", "SubstitutionCheckFailed"])
def test_unexpected_exception_exits_4_with_one_line(capsys, monkeypatch, error, line):
    # a defect inside a subcommand, a failed self-check among them, is neither
    # an input error (2) nor a failed verification (1), and never ends in a traceback
    import freealg.cli as cli_mod

    def broken(args):
        raise error

    monkeypatch.setattr(cli_mod, "cmd_tables", broken)
    code, out, err = run(capsys, "tables", "complex")
    assert code == cli_mod.EXIT_INTERNAL == 4
    assert out == ""
    assert err == line + "\n"


@pytest.mark.parametrize("error, code", [
    (SingularSystem("no inverse"), 3), (SingularMap("no inverse"), 3),
    (SingularTensor("no inverse"), 3), (MinorSingular("no inverse"), 3),
    (NotRepresentable("no inverse"), 3), (InvalidAlgebra("bad input"), 2),
    (DegenerateParams("bad input"), 2), (FileNotFoundError("bad input"), 2),
    (ValueError("bad input"), 2), (ZeroDivisionError("bad input"), 2),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_each_error_class_exits_with_its_code_and_one_line(capsys, monkeypatch, error, code):
    # a singular input exits 3, any other refused input 2, each with its message alone
    import freealg.cli as cli_mod

    def failing(args):
        raise error

    monkeypatch.setattr(cli_mod, "cmd_tables", failing)
    assert run(capsys, "tables", "complex") == (code, "", f"error: {error}\n")


def test_flags_of_one_call_do_not_carry_over_to_the_next(example_file, capsys):
    # each call reads its defaults afresh from the grammar, which parsing leaves as it was
    import freealg.cli as cli_mod

    grammar = copy.deepcopy(cli_mod.build_parser())
    assert run(capsys, "solve", example_file, "--machine")[1].startswith("solution.0=")
    assert run(capsys, "basis", "complex", "--order", "right", "--machine")[0] == 0
    assert run(capsys, "tables", "quaternion", "--machine")[1].startswith("F.0=")
    assert run(capsys, "algebra", "builtin", "quaternion", "--a", "2", "--b=3")[0] == 0
    code, out, _ = run(capsys, "solve", example_file)
    assert code == 0 and out.startswith("system over complex") and "solution." not in out
    code, out, _ = run(capsys, "basis", "complex")
    assert code == 0 and "(left-nested)" in out
    assert run(capsys, "tables", "quaternion")[1].startswith("quaternion: coordinate block")
    code, out, _ = run(capsys, "algebra", "builtin", "quaternion")
    assert code == 0 and [1, 1, 0, "-1"] in json.loads(out)["constants"]
    assert cli_mod.build_parser() == grammar


def test_builtins_are_built_once_per_process(capsys, monkeypatch):
    # a builtin named twice is one algebra, so its cached B serves both calls
    import freealg.cli as cli_mod
    from freealg import linmap

    build, built = linmap._build_b_matrix, []

    def counting_build(algebra, order):
        built.append(order)
        return build(algebra, order)

    cli_mod._builtin.cache_clear()
    monkeypatch.setattr(linmap, "_build_b_matrix", counting_build)
    try:
        first = run(capsys, "tables", "octonion")
        assert first[0] == 0 and built == ["left"]
        assert run(capsys, "tables", "octonion") == first
        assert built == ["left"]
        assert (cli_mod.make_builtin("quaternion", "-1", "-2/2")
                is cli_mod.make_builtin("quaternion", "-1/1", "-1"))
    finally:
        cli_mod._builtin.cache_clear()


def test_tables_read_b_from_its_blocks(capsys, monkeypatch):
    # the relations, the sign matrix F and B's inverse come from B's blocks
    from freealg import BMatrix

    def no_dense_view(self):
        raise AssertionError("the dense view of B was built")

    monkeypatch.setattr(BMatrix, "entries", property(no_dense_view))
    for argv in (["verify", "tables"], ["tables", "complex"], ["tables", "octonion"]):
        assert run(capsys, *argv)[0] == 0


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "quasidet", "--machine")
    _, out2, _ = run(capsys, "verify", "quasidet", "--machine")
    assert out1 == out2


def test_basis_counts(capsys):
    code, out, _ = run(capsys, "basis", "complex", "--machine")
    assert code == 0
    assert "generators=2" in out
    code, out, _ = run(capsys, "basis", "quaternion", "--machine")
    assert "generators=1" in out
    code, out, _ = run(capsys, "basis", "octonion", "--machine")
    assert "generators=1" in out


def test_basis_no_unit_exits_2(tmp_path, capsys):
    doc = {"dim": 2, "labels": ["x", "y"], "constants": [[0, 1, 0, "1"]]}
    path = tmp_path / "unitless.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "basis", str(path))
    assert code == 2
    assert "unit" in err


def _system_doc(**changes):
    doc = {"algebra": "complex", "matrix": [["1"]], "rhs": [["1", "0"]]}
    doc.update(changes)
    return doc


def _bool_index_doc(where):
    doc = algebra_to_json(quaternion_algebra())
    if where == "unit":
        doc["unit"] = True
    else:
        doc["constants"][1][1] = True
    return doc


def _complex_doc(**changes):
    doc = algebra_to_json(complex_algebra())
    doc.update(changes)
    return doc


def _float_index_doc():
    # [1, 0, 1, "1"] (i * 1 = i) with its first index written as 1.7
    doc = _complex_doc()
    doc["constants"] = [[1.7, 0, 1, v] if [i, j, k] == [1, 0, 1] else [i, j, k, v]
                        for i, j, k, v in doc["constants"]]
    return doc


def _float_constant_doc():
    # 1 * 1 = 1 with its value written as the float 1.0, which is exact
    doc = _complex_doc()
    doc["constants"][0][3] = 1.0
    return doc


def _exponent_constant_doc():
    # i * i = 1e5 in place of -1, a unital algebra if the exponent is read
    doc = _complex_doc()
    doc["constants"] = [[i, j, k, "1e5" if [i, j, k] == [1, 1, 0] else v]
                        for i, j, k, v in doc["constants"]]
    return doc


@pytest.mark.parametrize("command, doc, reason", [
    ("solve", [["1", "2"], ["3", "4"]], "system file must hold a JSON object"),
    ("basis", [1], "algebra file must hold a JSON object"),
    ("solve", {"algebra": "complex", "matrix": [["1"]]}, "definition misses field 'rhs'"),
    ("solve", _system_doc(matrix=[["1", 5]]), "got 5"),
    ("solve", _system_doc(matrix=[[None]]), "got null"),
    ("basis", _bool_index_doc("constant"), "got true"),
    ("basis", _bool_index_doc("unit"), "got true"),
    ("solve", _system_doc(matrix=[5]), "matrix row must be a list, got 5"),
    ("solve", _system_doc(rhs=[5]), "rhs entry must be a list, got 5"),
    ("basis", _float_index_doc(), "basis index must be an integer, got 1.7"),
    ("basis", _complex_doc(dim=2.9), "dimension must be an integer, got 2.9"),
    ("basis", _complex_doc(labels="1i"), 'labels must be a list, got "1i"'),
    ("basis", _complex_doc(labels=["1", ["i"]]), 'label must be a string, got ["i"]'),
    ("basis", _complex_doc(labels=["1", 2]), "label must be a string, got 2"),
    ("basis", _complex_doc(labels=["a", "a"]), "duplicate label 'a'"),
    ("solve", _system_doc(matrix=[[[[0.1, "0"], ["0", "1"]]]]),
     "matrix cell must be a fraction string or an integer, got 0.1"),
    ("solve", _system_doc(rhs=[[0.1, "0"]]),
     "rhs coordinate must be a fraction string or an integer, got 0.1"),
    ("basis", _float_constant_doc(),
     "structure constant must be a fraction string or an integer, got 1.0"),
    ("solve", _system_doc(algebra={"dim": 1}), 'algebra must be a string, got {"dim": 1}'),
    ("solve", _system_doc(algebra=5), "algebra must be a string, got 5"),
    ("solve", _system_doc(rhs=[["1/0", "0"]]), "rhs coordinate has a zero denominator: 1/0"),
    ("basis", _exponent_constant_doc(),
     'structure constant must be a fraction string or an integer, got "1e5"'),
    ("solve", _system_doc(matrix=[[[["0.5", "0"], ["0", "1"]]]]),
     'matrix cell must be a fraction string or an integer, got "0.5"'),
    ("solve", _system_doc(rhs=[["1" * 5000, "0"]]), "rhs coordinate has too many digits"),
    ("basis", _complex_doc(constants={"a": 1}), 'constants must be a list, got {"a": 1}'),
    ("solve", _system_doc(matrix=[["1 2"]]), 'space inside a number, got "1 2"'),
    ("solve", _system_doc(matrix=[["1 2*I"]]), 'space inside a number, got "1 2*I"'),
    ("solve", _system_doc(matrix=[["1/ 2"]]), 'space inside a number, got "1/ 2"'),
    ("solve", _system_doc(matrix=[["1 /2"]]), 'space inside a number, got "1 /2"'),
    ("solve", _system_doc(matrix=[["--1"]]), 'more than one sign, got "--1"'),
    ("solve", _system_doc(matrix=[["+-I"]]), 'more than one sign, got "+-I"'),
    ("solve", _system_doc(matrix=[["1+-2*I"]]), 'more than one sign, got "1+-2*I"'),
    ("solve", _system_doc(matrix=[["1 - -I"]]), 'more than one sign, got "1 - -I"'),
    # a cell or an rhs entry with a bad literal and the wrong shape names the literal
    ("solve", _system_doc(algebra="quaternion", matrix=[[[["x"]]]], rhs=[["1"] * 4]),
     'matrix cell must be a fraction string or an integer, got "x"'),
    ("solve", _system_doc(algebra="quaternion", matrix=[[[["1"] * 4, ["2/0"]]]], rhs=[["1"] * 4]),
     "matrix cell has a zero denominator: 2/0"),
    ("solve", _system_doc(algebra="quaternion", matrix=[[[["1"] * 4, ["2"]]]], rhs=[["1"] * 4]),
     "coordinate matrix must be 4x4"),
    ("solve", _system_doc(rhs=[["1", "2", "x"]]),
     'rhs coordinate must be a fraction string or an integer, got "x"'),
    ("solve", _system_doc(rhs=[["1", "2", "3"]]), "expected 2 coordinates, got 3"),
], ids=["top_level_list", "top_level_list_algebra", "missing_field", "integer_cell", "null_cell", "bool_constant_index",
        "bool_unit_index", "row_not_list", "rhs_entry_not_list", "float_index",
        "float_dim", "labels_string", "labels_not_strings", "labels_integer", "duplicate_labels",
        "float_cell", "float_rhs", "float_constant", "algebra_object", "algebra_integer",
        "zero_denominator", "exponent_constant", "decimal_cell", "long_literal",
        "constants_object", "space_between_digits", "space_between_digits_conj",
        "space_after_slash", "space_before_slash", "two_signs", "two_signs_conj",
        "two_signs_second_term", "two_signs_spaced", "bad_literal_in_short_cell",
        "zero_denominator_in_ragged_cell", "ragged_cell", "bad_literal_in_long_rhs",
        "long_rhs"])
def test_malformed_document_exits_2(tmp_path, capsys, command, doc, reason):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert reason in err


DEEP = "[" * 100_000 + "]" * 100_000


def _long_int(doc):
    """``doc`` as JSON with each "LONG" replaced by a 5,000-digit integer."""
    return json.dumps(doc).replace('"LONG"', "1" * 5000)


@pytest.mark.parametrize("argv, text, reason", [
    (["solve"], DEEP, "system file nests its JSON too deeply"),
    (["solve"], '{"algebra": "complex", "matrix": ' + DEEP + ', "rhs": []}',
     "system file nests its JSON too deeply"),
    (["basis"], DEEP, "algebra file nests its JSON too deeply"),
    (["map", "convert", "--algebra", "complex", "--coords"], "1e5 0\n0 1\n",
     'coordinate must be a fraction string or an integer, got "1e5"'),
    (["map", "convert", "--algebra", "complex", "--coords"], "1 0\n0\n1 x\n",
     'coordinate must be a fraction string or an integer, got "x"'),
    (["map", "convert", "--algebra", "complex", "--coords"], "1 0\n0\n",
     "matrix file must have equal-length nonempty rows"),
    (["map", "convert", "--algebra", "quaternion", "--coords"], "1 0\n0 1\n",
     "coordinate matrix must be 4x4"),
    (["algebra", "builtin", "quaternion", "--a", "0.5"], None,
     '--a must be a fraction string or an integer, got "0.5"'),
    (["algebra", "builtin", "complex", "--a=zz"], None,
     '--a must be a fraction string or an integer, got "zz"'),
    (["algebra", "builtin", "octonion", "--b=zz"], None,
     '--b must be a fraction string or an integer, got "zz"'),
    (["solve"], _long_int(_system_doc(rhs=[["LONG", "0"]])),
     "rhs coordinate has too many digits"),
    (["basis"], _long_int(_complex_doc(dim="LONG")), "dimension has too many digits"),
    (["basis"], _long_int(_complex_doc(labels=["1", "LONG"])), "label has too many digits"),
], ids=["deep_list", "deep_matrix", "deep_algebra", "exponent_coordinate",
        "bad_literal_in_ragged_file", "ragged_file", "file_of_wrong_shape", "decimal_param",
        "complex_param", "octonion_param", "long_rhs_integer", "long_dim", "long_label"])
def test_malformed_text_exits_2(tmp_path, capsys, argv, text, reason):
    # raw text that json.dumps cannot write (too deep, not JSON, an integer
    # over the interpreter's digit limit) and a command-line value
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert reason in err


def test_one_reader_for_outside_values():
    # in cli, one function calls json.load, and no reader calls Fraction on
    # one value that is not a constant: the readers build int forms, and only
    # _verify_conversion_tables makes Fractions of the golden integer tables
    import freealg.cli as cli_mod

    def is_constant(node):
        try:
            ast.literal_eval(node)
        except ValueError:
            return False
        return True

    tree = ast.parse(Path(cli_mod.__file__).read_text(encoding="utf-8"))
    json_loaders, fraction_callers = set(), set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Attribute) and callee.attr in ("load", "loads")
                    and getattr(callee.value, "id", None) == "json"):
                json_loaders.add(func.name)
            if (getattr(callee, "id", None) == "Fraction" and len(node.args) == 1
                    and not is_constant(node.args[0])):
                fraction_callers.add(func.name)
    assert len(json_loaders) == 1
    assert fraction_callers == {"_verify_conversion_tables"}


def test_algebra_builtin_round_trip(capsys):
    from freealg import QuaternionParams
    code, out, _ = run(capsys, "algebra", "builtin", "quaternion",
                       "--a", "1", "--b", "1")
    assert code == 0
    rebuilt = algebra_from_json(json.loads(out))
    expected = quaternion_algebra(QuaternionParams(1, 1))
    assert rebuilt.constants == expected.constants
    assert rebuilt.unit_index == 0


def test_algebra_builtin_prints_a_constant_longer_than_the_digit_limit(capsys):
    # --a and --b are each under Python's 4,300-digit limit on int-to-str;
    # k k = -a b is near 8,000 digits, printed in full, and the limit is
    # back in place afterwards
    limits = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = limits()
    n = "9" * 4000
    code, out, err = run(capsys, "algebra", "builtin", "quaternion", f"--a={n}", f"--b={n}")
    assert (code, err) == (0, "")
    square = "9" * 3999 + "8" + "0" * 3999 + "1"
    assert "-" + square in {v for *_, v in json.loads(out)["constants"]}
    assert limits() == limit


def test_algebra_json_round_trip():
    algebra = complex_algebra()
    doc = algebra_to_json(algebra)
    rebuilt = algebra_from_json(doc)
    assert rebuilt.constants == algebra.constants
    assert rebuilt.labels == algebra.labels


def test_an_integral_definition_file_loads_without_fractions(tmp_path, monkeypatch,
                                                             count_fractions):
    # integer constants, as JSON integers or as text, are stored as ints, and
    # so are the products a tensor product of such algebras forms; Fractions
    # appear only when the constants are read out
    from freealg.cli import load_algebra
    from freealg.tensor import tensor_product
    quaternion = quaternion_algebra()
    doc = algebra_to_json(quaternion)
    doc["constants"][::2] = [[i, j, k, int(v)] for i, j, k, v in doc["constants"][::2]]
    path = tmp_path / "quaternion.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    built = count_fractions()
    algebra = load_algebra(str(path))
    square = tensor_product([algebra, algebra])
    assert built == []
    assert algebra.constants and built  # built on first read
    monkeypatch.undo()
    assert algebra.constants == quaternion.constants
    assert square.constants == tensor_product([quaternion, quaternion]).constants


def test_a_definition_file_with_fractions_loads_without_fractions(tmp_path, monkeypatch,
                                                                  count_fractions):
    # constants such as "-4/3" and "2/4" are read as (p, q) and put over one
    # lcm; the algebra is the one the library builds from Fractions
    from freealg import QuaternionParams
    from freealg.cli import load_algebra
    quaternion = quaternion_algebra(QuaternionParams(Fraction(-4, 3), Fraction(1, 2)))
    doc = algebra_to_json(quaternion)
    doc["constants"][0][3] = "2/2"
    path = tmp_path / "eab.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    built = count_fractions()
    algebra = load_algebra(str(path))
    assert built == []
    monkeypatch.undo()
    assert algebra.constants == quaternion.constants
    assert algebra.unit_index == quaternion.unit_index == 0


def test_map_convert(tmp_path, capsys):
    coords = tmp_path / "conj.txt"
    coords.write_text("1 0 0 0\n0 -1 0 0\n0 0 -1 0\n0 0 0 -1\n")
    code, out, _ = run(capsys, "map", "convert", "--algebra", "quaternion",
                       "--coords", str(coords), "--machine")
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert values["rank"] == "16"
    assert values["nullity"] == "0"
    assert values["particular.0"] == "-1/2 0 0 0"
    assert values["particular.3"] == "0 0 0 -1/2"


def test_map_convert_not_representable_exits_3(tmp_path, capsys):
    coords = tmp_path / "conj_c.txt"
    coords.write_text("1 0\n0 -1\n")
    code, _, err = run(capsys, "map", "convert", "--algebra", "complex",
                       "--coords", str(coords))
    assert code == 3
    assert "image" in err


def test_map_basis_alias(capsys):
    code, out, _ = run(capsys, "map", "basis", "--algebra", "complex",
                       "--machine")
    assert code == 0
    assert "generators=2" in out
    assert "generator.1.0=1 0" in out
    assert "generator.1.1=0 -1" in out


def test_complex_entry_grammar():
    C = complex_algebra()
    cases = {
        "1": [[1, 0], [0, 1]],
        "-3": [[-3, 0], [0, -3]],
        "2*I": [[2, 0], [0, -2]],
        "I": [[1, 0], [0, -1]],
        "-I": [[-1, 0], [0, 1]],
        "1/2 + 3/4*I": [[Fraction(5, 4), 0], [0, Fraction(-1, 4)]],
        "1 - I": [[0, 0], [0, 2]],
    }
    for text, expected in cases.items():
        got = parse_complex_entry(text, C)
        assert got.coords == tuple(tuple(Fraction(v) for v in row) for row in expected), text


def test_verify_machine_form(capsys):
    code, out, _ = run(capsys, "verify", "tables", "--machine")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "subject=tables"
    assert lines[-1] == "result=PASS"
    assert all("=" in line for line in lines)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_ends_the_command_by_sigpipe():
    # the read end is closed before the child starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(freealg.__file__).parents[1])}
    try:
        done = subprocess.run([sys.executable, "-m", "freealg.cli", "algebra", "builtin",
                               "octonion"], stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (-signal.SIGPIPE, b"")


def test_golden_and_random_load_on_the_verify_path_only():
    # a command other than verify imports neither, and no command imports
    # argparse; the child runs without site (-S), which may import random
    # for site-packages of its own
    env = {**os.environ, "PYTHONPATH": str(Path(freealg.__file__).parents[1])}
    probe = ("import sys, freealg.cli\n"
             "names = {'argparse', 'random', 'freealg.golden'}\n"
             "loaded = lambda: sorted(names & sys.modules.keys())\n"
             "print(loaded())\n"
             "code = freealg.cli.main(['verify', 'tables', '--machine'])\n"
             "print(code, loaded())\n")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-2:], done.stderr) == (
        "[]", ["result=PASS", "0 ['freealg.golden', 'random']"], "")
