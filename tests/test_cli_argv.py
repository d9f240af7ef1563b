"""The CLI's command line, read by ``cli._parse`` from one grammar table.

The argparse parser the CLI used before, ``argparse_parser`` below, is the
oracle.  Argv are drawn from the grammar: the command words, positionals and
options in any order, in the ``--opt value`` and ``--opt=value`` forms, every
choice, values outside the choices, options of other commands, a missing value,
abbreviations and ``--``.  Where argparse accepts, ``_parse`` gives the same
fields; where argparse refuses, ``main`` exits 2 with one ``error:`` line.

Three readings differ on purpose: an option's value is the next word even when
it starts with "-" (argparse reads ``--a -1/2`` as a missing value), and an
abbreviated option (``--mach``) and ``--`` are refused, where argparse takes
them.  A positional never starts with "-" here: ``_parse`` reads such a word
as an option, argparse took one shaped like a negative number as a positional.
``-h`` and ``--help`` print the subcommands anywhere in argv.
"""

import argparse
import contextlib
import functools
import io
import json

from hypothesis import example, given, settings, strategies as st

import freealg.cli as cli

SUITES = ("quasidet", "shifts", "tables", "teichmueller")
BUILTINS = ("complex", "quaternion", "octonion")


@functools.cache
def argparse_parser() -> argparse.ArgumentParser:
    """The CLI's parser before the grammar table, as it was written."""
    parser = argparse.ArgumentParser(
        prog="freealg",
        description="Exact computations in free finite-dimensional algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a system of additive equations")
    p.add_argument("system", help="system definition file (JSON)")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func="cmd_solve")

    p = sub.add_parser("tables", help="print conversion tables")
    p.add_argument("which", choices=BUILTINS)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func="cmd_tables")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func="cmd_verify")

    p = sub.add_parser("basis", help="orbit generators of the linear maps")
    p.add_argument("algebra", help="builtin name or definition file")
    p.add_argument("--order", choices=("left", "right"), default="left")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func="cmd_basis")

    p = sub.add_parser("algebra", help="algebra definition utilities")
    asub = p.add_subparsers(dest="subcommand", required=True)
    pb = asub.add_parser("builtin", help="emit a builtin algebra definition")
    pb.add_argument("name", choices=BUILTINS)
    pb.add_argument("--a", default="-1", help="quaternion parameter a")
    pb.add_argument("--b", default="-1", help="quaternion parameter b")
    pb.set_defaults(func="cmd_algebra_builtin")

    p = sub.add_parser("map", help="linear-map conversions")
    msub = p.add_subparsers(dest="subcommand", required=True)
    pc = msub.add_parser("convert", help="coordinates to standard components")
    pc.add_argument("--algebra", required=True)
    pc.add_argument("--coords", required=True, help="coordinate matrix file")
    pc.add_argument("--order", choices=("left", "right"), default="left")
    pc.add_argument("--machine", action="store_true")
    pc.set_defaults(func="cmd_map_convert")
    pm = msub.add_parser("basis", help="orbit generators")
    pm.add_argument("--algebra", required=True)
    pm.add_argument("--order", choices=("left", "right"), default="left")
    pm.add_argument("--machine", action="store_true")
    pm.set_defaults(func="cmd_basis")
    return parser


def oracle(argv):
    """argparse's fields for ``argv``, or None where it refuses."""
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            fields = vars(argparse_parser().parse_args(argv))
        except SystemExit:
            return None
    return {k: v for k, v in fields.items() if k not in ("command", "subcommand")}


# command words -> positional values, and option -> values (None: a flag)
GRAMMAR = {
    ("solve",): (["sys.json", "solve", ""], {"machine": None}),
    ("tables",): (list(BUILTINS), {"machine": None}),
    ("verify",): (list(SUITES), {"machine": None}),
    ("basis",): (["quaternion", "a.json"], {"order": ["left", "right"], "machine": None}),
    ("algebra", "builtin"): (list(BUILTINS), {"a": ["2", "-1", "-1/2", "3/4"],
                                              "b": ["1", "-3", "-5/7"]}),
    ("map", "convert"): ([], {"algebra": ["octonion", "a.json"], "coords": ["m.txt"],
                              "order": ["left", "right"], "machine": None}),
    ("map", "basis"): ([], {"algebra": ["complex"], "order": ["left", "right"],
                            "machine": None}),
}
OPTIONS = sorted({name for _, options in GRAMMAR.values() for name in options})
# words no command reads: unknown commands and options, abbreviations, "--"
STRAY = ["bogus", "up", "map", "--x", "-q", "--mach", "--ord", "--alg", "--co", "--"]


@st.composite
def argvs(draw):
    """Mostly argv argparse accepts; each kind of fault now and then."""
    def rarely():
        return draw(st.integers(0, 7)) == 0

    words = draw(st.sampled_from(sorted(GRAMMAR)))
    values, options = GRAMMAR[words]
    count = (1 if values else 0) + rarely() - (bool(values) and rarely())
    tokens = [[draw(st.sampled_from(["x", ""] if rarely() or not values else values))]
              for _ in range(count)]
    names = [name for name in ("algebra", "coords") if name in options and not rarely()]
    names += draw(st.lists(st.sampled_from(sorted(options)), max_size=3))
    names += [draw(st.sampled_from(OPTIONS))] if rarely() else []  # maybe another command's
    for name in names:
        if name == "machine":
            tokens.append(["--machine=x" if rarely() else "--machine"])
            continue
        choices = options.get(name) or ["x"]
        value = draw(st.sampled_from(["up", "", "-x"] if rarely() else choices))
        tokens.append([f"--{name}"] if rarely() else
                      draw(st.sampled_from([[f"--{name}", value], [f"--{name}={value}"]])))
    tokens += [[draw(st.sampled_from(STRAY))]] if rarely() else []
    argv = [*words[:len(words) - rarely()],
            *(w for token in draw(st.permutations(tokens)) for w in token)]
    return argv[:len(argv) - rarely()]


def read_as_values(argv):
    """Per word of ``argv``, whether ``_parse`` reads it as an option's value:
    the word after a valued option in the space form."""
    valued = {f"--{name}" for name in OPTIONS if name != "machine"}
    flags, value_next = [], False
    for word in argv:
        flags.append(value_next)
        value_next = not value_next and word in valued
    return flags


def value_is_a_dash_word(argv):
    """A value starting with "-": argparse reads it as an option, ``_parse``
    as the value."""
    return any(value and word.startswith("-") for word, value in zip(argv, read_as_values(argv)))


def reads_a_changed_word(argv):
    """``--`` or an abbreviation of an option of the command, read as an
    option: argparse may take it, ``_parse`` refuses it."""
    own = next((options for words, (_, options) in GRAMMAR.items()
                if tuple(argv[:len(words)]) == words), {})
    names = {f"--{name}" for name in own}
    given = [word.partition("=")[0] for word, value in zip(argv, read_as_values(argv))
             if not value and word.startswith("--")]
    return any(word == "--" or (word not in names and any(n.startswith(word) for n in names))
               for word in given)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def refused(argv):
    code, out, err = run_main(argv)
    return code == 2 and out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@settings(max_examples=500)
@given(argvs())
@example(["basis", "--order", "right", "quaternion", "--machine", "--order=left"])
@example(["map", "convert", "--coords=m.txt", "--machine", "--algebra", "a.json"])
@example(["algebra", "builtin", "--a=-1/2", "quaternion", "--b", "3/4"])
@example(["algebra", "builtin", "quaternion", "--a", "-1"])
@example(["tables", "octonion", "--machine=x"])
@example(["verify", "--machine"])
@example(["solve", "--", "sys.json"])
@example(["tables", "complex", "--mach"])
@example([])
def test_the_grammar_reads_what_argparse_read(argv):
    expected = oracle(argv)
    if reads_a_changed_word(argv):
        assert refused(argv)
    elif expected is not None:
        assert vars(cli._parse(argv)) == expected
    elif value_is_a_dash_word(argv):
        try:
            cli._parse(argv)
        except ValueError:
            assert refused(argv)
    else:
        assert refused(argv)


def test_an_option_value_may_start_with_a_dash(capsys):
    code = cli.main(["algebra", "builtin", "quaternion", "--a", "-1/2", "--b", "-3"])
    out = capsys.readouterr().out
    constants = {(i, j): v for i, j, k, v in json.loads(out)["constants"] if k == 0}
    assert (code, constants[1, 1], constants[2, 2], constants[3, 3]) == (0, "-1/2", "-3", "-3/2")


def test_help_anywhere_prints_the_subcommands_and_exits_0(capsys):
    for argv in (["-h"], ["--help"], ["solve", "-h"], ["map", "convert", "--algebra", "-h"],
                 ["tables", "bogus", "--help"], ["bogus", "-h"]):
        code, out, err = run_main(argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("Subcommands:\n") and "Exit codes:" in out, argv
        for command, *_ in cli.build_parser():
            assert f"\n    {command} " in out, (argv, command)


def test_every_refusal_is_one_error_line(monkeypatch):
    # with no argv, main reads sys.argv
    commands = "solve, tables, verify, basis, algebra builtin, map convert, map basis"
    cases = {
        (): f"expected a command ({commands}), got 'none'",
        ("map", "vonvert"): f"expected a command ({commands}), got 'map vonvert'",
        ("--machine", "solve", "s.json"): f"expected a command ({commands}), "
                                          "got '--machine solve'",
        ("solve",): "solve: missing <system>",
        ("solve", "a", "b"): "solve: unexpected argument 'b'",
        ("map", "basis", "complex"): "map basis: unexpected argument 'complex'",
        ("tables", "real"): "tables: which must be complex|quaternion|octonion, got 'real'",
        ("verify", "all"): "verify: suite must be tables|teichmueller|shifts|quasidet, "
                           "got 'all'",
        ("basis", "complex", "--order=up"): "basis: order must be left|right, got 'up'",
        ("basis", "complex", "--order"): "basis: option --order needs a value",
        ("solve", "s.json", "--machine=1"): "solve: unknown option '--machine=1'",
        ("solve", "s.json", "--mach"): "solve: unknown option '--mach'",
        ("solve", "-", "s.json"): "solve: unknown option '-'",
        ("solve", "s.json", "-xmachine"): "solve: unknown option '-xmachine'",
        ("map", "basis", "--algebra=complex", "--coords", "m"): "map basis: unknown option "
                                                               "'--coords'",
        ("map", "convert", "--coords", "m.txt"): "map convert: missing --algebra",
        ("map", "convert", "--algebra", "complex"): "map convert: missing --coords",
    }
    for argv, line in cases.items():
        assert run_main(list(argv)) == (2, "", f"error: {line}\n"), argv
    monkeypatch.setattr("sys.argv", ["freealg"])
    assert run_main(None) == (2, "", f"error: {cases[()]}\n")
