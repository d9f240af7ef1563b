"""Command-line front end.

Subcommands:
    solve <system.json>                solve a system of additive equations
    tables <complex|quaternion|octonion>   print the conversion tables
    verify <tables|teichmueller|shifts|quasidet>   run a verification suite
    basis <algebra> [--order ...]      print the orbit generators
    algebra builtin <name> [--a --b]   emit an algebra definition file
    map convert --algebra ... --coords ...   coordinates -> standard components
    map basis --algebra ...            same as `basis`

Exit codes: 0 ok, 1 verification failure, 2 input error (a bad command line too),
3 singular system, 4 internal error (a defect; one line on stderr, never a traceback).
-h or --help prints this.  A closed stdout ends the command by SIGPIPE, as it ends
``cat``, not with exit 2.  Printed fractions are plain p/q strings and re-parse exactly.

File formats (JSON):
  algebra definition: {"dim": n, "labels": [...], "unit": 0,
                       "constants": [[i, j, k, "p/q"], ...]}
  system definition:  {"algebra": "<builtin name or path>",
                       "matrix": [[entry, ...], ...], "rhs": [[coord, ...], ...]}
    over the complex field an entry may be a string "p/q + r/s*I" meaning
    z -> (p/q) z + (r/s) conj(z)  (plain "p/q" is multiplication);
    for any algebra an entry may be an n x n grid of fraction strings.
  labels are distinct JSON strings; numbers, lists and null are refused.
  coordinate matrix files: one row per line, numbers separated by whitespace.
  every number (a JSON string, a coordinate-file token, a term of a complex
  entry, --a and --b) is an optional sign, digits and an optional /digits,
  such as "-3/5", spaces around it ignored, inside it refused; JSON integers
  are numbers too. Floats, decimal points and exponents are refused: a float
  is not the decimal it was written as, and Fraction expands 1e30000000 into
  all of its digits.
  A system's entries and right sides and a coordinate file are read straight
  to int forms: a list of literals in one regex pass (``_form``), a complex
  entry term by term; none of their values becomes a Fraction.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
import signal
import sys
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

from . import exact
from .algebras import (complex_algebra, conjugate, conjugation_coords,
                       octonion_algebra, quaternion_algebra, QuaternionParams)
from .core import (AlgElement, FreeAlgebra, associator, format_element, multiply,
                   random_element)
from .errors import (FreeAlgebraError, InvalidAlgebra, MinorSingular,
                     NotRepresentable, SingularMap, SingularSystem,
                     SingularTensor, SubstitutionCheckFailed, UnsupportedAlgebra)
from .linmap import (LinearMap, b_matrix, check_conversion, compose,
                     left_associator_map, left_shift, representation_basis,
                     right_associator_map, right_shift, standard_from_coords)
from .solver import (ComplexAdditiveMap, MapMatrix, _recursive_inverse, inverse_map_matrix,
                     solve_additive)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_SINGULAR = 3
EXIT_INTERNAL = 4

BUILTIN_NAMES = ("complex", "quaternion", "octonion")


# ---------------------------------------------------------------------------
# reports

def _render_checks(subject: str, checks: list[tuple[str, str, str]], machine: bool) -> str:
    """The report of a verify suite's (name, expected, actual) checks; a check
    passes iff expected == actual exactly."""
    good = sum(expected == actual for _, expected, actual in checks)
    verdict = "PASS" if good == len(checks) else "FAIL"
    lines = []
    if machine:
        lines.append(f"subject={subject}")
        for name, expected, actual in checks:
            lines.append(f"check.{name}={'PASS' if expected == actual else 'FAIL'}")
            if expected != actual:
                lines.append(f"expected.{name}={expected}")
                lines.append(f"actual.{name}={actual}")
        lines.append(f"result={verdict}")
    else:
        lines.append(f"verification suite: {subject}")
        for name, expected, actual in checks:
            if expected == actual:
                lines.append(f"  [ok]   {name}")
            else:
                lines.append(f"  [FAIL] {name}")
                lines.append(f"         expected: {expected}")
                lines.append(f"         actual:   {actual}")
        lines.append(f"result: {verdict} ({good}/{len(checks)} checks)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# wire formats

@contextlib.contextmanager
def _all_digits():
    """Python's limit on the digits of an int turned into text, lifted while an
    answer is rendered and restored afterwards: an exact answer prints in full,
    while input literals stay under the limit (``_ratio``)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def vector_str(coords) -> str:
    return " ".join(map(str, coords))


def matrix_str(rows) -> str:
    return "; ".join(vector_str(row) for row in rows)


def make_builtin(name: str, a="-1", b="-1") -> FreeAlgebra:
    if name not in BUILTIN_NAMES:
        raise InvalidAlgebra(f"unknown builtin algebra {name!r}")
    (p, q), (r, s) = _ratio(a, "--a"), _ratio(b, "--b")
    return _builtin(name, Fraction(p, q), Fraction(r, s))


# one per process and parsed parameters ("-1", "-2/2" share one); the bound caps memory
@functools.lru_cache(maxsize=8)
def _builtin(name: str, *params: Fraction) -> FreeAlgebra:
    if name == "quaternion":
        return quaternion_algebra(QuaternionParams(*params))
    return complex_algebra() if name == "complex" else octonion_algebra()


def algebra_to_json(algebra: FreeAlgebra) -> dict:
    doc = {
        "dim": algebra.dim,
        "labels": list(algebra.labels),
        "constants": [[i, j, k, str(v)] for i, j, k, v in algebra.constants],
    }
    if algebra.unit_index is not None:
        doc["unit"] = algebra.unit_index
    return doc


_LITERAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")  # \s is what str.strip strips
_KINDS = {int: "an integer", list: "a list", str: "a string"}
# json.load reads an integer with more digits than int() takes as _LONG_INT,
# which _ratio and _typed refuse naming the field; _shown prints a placeholder
_LONG_INT = object()
_shown = json.JSONEncoder(default=lambda _: "<integer with too many digits>").encode


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LONG_INT


def _ratio(value, what: str) -> tuple[int, int]:
    """(p, q), q > 0 and not reduced, from a JSON integer or from text such as
    " -3/5 "; no exponents, which ``Fraction`` would expand into all of their digits."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if value is _LONG_INT:
        raise InvalidAlgebra(f"{what} has too many digits")
    match = _LITERAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise InvalidAlgebra(
            f"{what} must be a fraction string or an integer, got {_shown(value)}")
    p, q = match.groups("1")
    try:
        p, q = int(p), int(q)
    except ValueError:  # over the interpreter's digit limit
        raise InvalidAlgebra(f"{what} has too many digits") from None
    if not q:
        raise InvalidAlgebra(f"{what} has a zero denominator: {value.strip()}")
    return p, q


def _form(values, what: str) -> tuple[tuple[int, ...], int]:
    """The canonical int form of the literals ``values``, strings read in one
    pass of ``_LITERAL`` and ``int``; a list that pass refuses (a JSON integer,
    a bad literal, a zero denominator) is read again by ``_ratio``, in order."""
    try:
        ints = [*map(int, [x for v in values for x in _LITERAL.fullmatch(v).groups("1")])]
        den = lcm(*ints[1::2])  # 0 if a denominator is 0
    except (TypeError, AttributeError, ValueError):  # not a str, no match, too many digits
        den = 0
    if not den:
        ints = [x for v in values for x in _ratio(v, what)]
        den = lcm(*ints[1::2])
    return exact.canonical([p * (den // q) for p, q in zip(ints[::2], ints[1::2])], den)


def _endomorphism(algebra: FreeAlgebra, rows: list, form) -> LinearMap:
    """The map of ``algebra`` whose coordinate rows ``rows`` have the int form
    ``form``, read first: a bad literal is reported before a bad shape."""
    n = algebra.dim
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"coordinate matrix must be {n}x{n}")
    return LinearMap._of((algebra, algebra), form)


def _typed(value, kind: type, what: str):
    """``value`` if it is a JSON value of ``kind``; true and false are not integers."""
    if value is _LONG_INT:
        raise InvalidAlgebra(f"{what} has too many digits")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InvalidAlgebra(f"{what} must be {_KINDS[kind]}, got {_shown(value)}")
    return value


def _field(doc: dict, key: str, kind: type, what: str | None = None):
    if key not in doc:
        raise InvalidAlgebra(f"definition misses field {key!r}")
    return _typed(doc[key], kind, what or key)


def _read_json(path: str, what: str) -> dict:
    """The JSON object in the file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise InvalidAlgebra(f"{what} file nests its JSON too deeply") from None
    if not isinstance(doc, dict):
        raise InvalidAlgebra(f"{what} file must hold a JSON object")
    return doc


def algebra_from_json(doc: dict) -> FreeAlgebra:
    dim = _field(doc, "dim", int, "dimension")
    labels = [_typed(s, str, "label") for s in _field(doc, "labels", list)]
    constants = []  # (i, j, k, p, q)
    for entry in _field(doc, "constants", list):
        if not isinstance(entry, list) or len(entry) != 4:
            raise InvalidAlgebra(
                f"constant must be a list [i, j, k, value], got {_shown(entry)}")
        indices = [_typed(x, int, "basis index") for x in entry[:3]]
        constants.append((*indices, *_ratio(entry[3], "structure constant")))
    unit = doc.get("unit")
    den = lcm(*(q for *_, q in constants))
    algebra = FreeAlgebra.__new__(FreeAlgebra)  # built on ints, as ``core.opposite`` builds
    algebra._build(dim, labels, [(i, j, k, p * (den // q)) for i, j, k, p, q in constants], den,
                   None if unit is None else _typed(unit, int, "unit"))
    return algebra


def load_algebra(source: str) -> FreeAlgebra:
    """Resolve a builtin name or a definition-file path."""
    if source in BUILTIN_NAMES:
        return make_builtin(source)
    return algebra_from_json(_read_json(source, "algebra"))


def load_matrix_file(path: str, algebra: FreeAlgebra) -> LinearMap:
    """The map of ``algebra`` in a coordinate matrix file."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip()]
    form = _form(exact.vec(rows), "coordinate")
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InvalidAlgebra("matrix file must have equal-length nonempty rows")
    return _endomorphism(algebra, rows, form)


def parse_complex_entry(text: str, algebra: FreeAlgebra) -> LinearMap:
    """Parse 'p/q + r/s*I' (z -> (p/q) z + (r/s) conj(z)) into a map, on ints:
    the plain part a and the conjugate part b summed over one lcm, the map being
    diag(a + b, a - b)."""
    if re.search(r"[0-9]\s+[0-9]|\s/|/\s", text):
        raise InvalidAlgebra(f"complex entry has a space inside a number, got {_shown(text)}")
    compact = text.replace(" ", "")
    if not compact:
        raise InvalidAlgebra("empty matrix entry")
    terms = []  # (sign p, q, conjugate)
    # a term starts at each sign that follows neither a sign nor * or /
    for term in re.split(r"(?<=[^-+*/])(?=[+-])", compact):
        body = term.lstrip("+-")
        if len(term) - len(body) > 1:
            raise InvalidAlgebra(f"complex entry term has more than one sign, got {_shown(text)}")
        conj = body == "I" or body.endswith("*I")
        p, q = (1, 1) if body == "I" else _ratio(body[:-2] if conj else body,
                                                 "complex entry term")
        terms.append((-p if term[0] == "-" else p, q, conj))
    if algebra.tag != "complex":
        raise UnsupportedAlgebra("defined over the built-in complex algebra")
    den = lcm(*(q for _, q, _ in terms))
    a = sum(p * (den // q) for p, q, conj in terms if not conj)
    b = sum(p * (den // q) for p, q, conj in terms if conj)
    return LinearMap._of((algebra, algebra), ((a + b, 0, 0, a - b), den))


def load_system(path: str) -> tuple[FreeAlgebra, MapMatrix, list[AlgElement]]:
    doc = _read_json(path, "system")
    algebra = load_algebra(_field(doc, "algebra", str))
    entries = []
    for row in _field(doc, "matrix", list):
        entry_row = []
        for cell in _typed(row, list, "matrix row"):
            if isinstance(cell, str):
                if algebra.tag != "complex":
                    raise InvalidAlgebra(
                        "string entries are defined over the complex field only")
                entry_row.append(parse_complex_entry(cell, algebra))
            elif isinstance(cell, list) and all(isinstance(r, list) for r in cell):
                entry_row.append(
                    _endomorphism(algebra, cell, _form(exact.vec(cell), "matrix cell")))
            else:
                raise InvalidAlgebra("matrix entry must be a string or a grid of "
                                     f"coordinates, got {_shown(cell)}")
        entries.append(entry_row)
    rhs = []
    for coords in _field(doc, "rhs", list):
        form = _form(_typed(coords, list, "rhs entry"), "rhs coordinate")
        if len(coords) != algebra.dim:
            raise InvalidAlgebra(f"expected {algebra.dim} coordinates, got {len(coords)}")
        rhs.append(AlgElement._of((algebra,), form))
    return algebra, MapMatrix(entries), rhs


# ---------------------------------------------------------------------------
# verify suites

def _relation_str(rel: dict) -> str:
    return " ".join(f"{rel[key]}@{key[0]}{key[1]}" for key in sorted(rel))


def _sign_matrix(bm) -> list[list[Fraction]]:
    """F[k][i]: the coefficient of f^{ii} in the coordinate f^k_k, read off B's
    relations on its diagonal cells, rows (k, k) and columns (i, i)."""
    n = bm.algebra.dim
    relations = bm.relations(only={k * n + k for k in range(n)})
    return [[relations[k, k].get((i, i), exact.ZERO) for i in range(n)] for k in range(n)]


def _rng(seed: int):
    """``random.Random(seed)``: only the verify suites draw, so only they import ``random``."""
    import random
    return random.Random(seed)


def _verify_conversion_tables() -> list[tuple[str, str, str]]:
    from . import golden  # the transcribed tables, loaded for this suite alone
    checks = []
    cases = [
        ("H", quaternion_algebra(),
         golden.quaternion_coord_relations(), golden.quaternion_standard_relations(),
         golden.QUATERNION_SIGN_MATRIX, golden.QUATERNION_SIGN_MATRIX_INVERSE_NUM,
         golden.QUATERNION_SIGN_MATRIX_DEN, Fraction(-1, 2)),
        ("O", octonion_algebra(),
         golden.octonion_coord_relations(), golden.octonion_standard_relations(),
         golden.OCTONION_SIGN_MATRIX, golden.OCTONION_SIGN_MATRIX_INVERSE_NUM,
         golden.OCTONION_SIGN_MATRIX_DEN, Fraction(-1, 6)),
    ]
    for (name, algebra, coord_rel, std_rel, sign_m, sign_inv_num, den,
         conj_component) in cases:
        n = algebra.dim
        bm = b_matrix(algebra)
        coords = bm.relations()
        for (k, m) in sorted(coord_rel):
            checks.append((f"{name}.coord.f{k}_{m}",
                           _relation_str(coord_rel[(k, m)]), _relation_str(coords[(k, m)])))
        standard = bm.inverse_relations()
        for (i, j) in sorted(std_rel):
            checks.append((f"{name}.standard.f{i}{j}",
                           _relation_str(std_rel[(i, j)]), _relation_str(standard[(i, j)])))
        computed_f = _sign_matrix(bm)
        checks.append((f"{name}.sign_matrix",
                       matrix_str([[Fraction(v) for v in row] for row in sign_m]),
                       matrix_str(computed_f)))
        checks.append((f"{name}.sign_matrix.product",  # F (F^-1 den) = den I
                       matrix_str([[den * (r == c) for c in range(n)] for r in range(n)]),
                       matrix_str(exact.int_mat_mul(computed_f, sign_inv_num, n))))
        # conjugation through the component solver
        solution = standard_from_coords(
            LinearMap(algebra, algebra, conjugation_coords(algebra)))
        expected = {(k, k): conj_component for k in range(n)}
        got = {(i, j): v for i, row in enumerate(solution.particular.components)
               for j, v in enumerate(row) if v}
        checks.append((f"{name}.conjugation.components",
                       _relation_str(expected), _relation_str(got)))
        checks.append((f"{name}.conjugation.unique", "1",
                       "1" if solution.is_unique() else "0"))
        # conjugation as a sandwich sum, directly on random elements
        rng = _rng(20100801)
        for sample in range(10):
            z = random_element(algebra, rng)
            acc = algebra.zero()
            for t in range(n):
                e_t = algebra.basis_element(t)
                acc = acc + multiply(multiply(e_t, z), e_t)
            checks.append((f"{name}.conjugation.identity.{sample}",
                           vector_str(conjugate(z).coords),
                           vector_str(acc.scaled(conj_component).coords)))
    return checks


def _verify_teichmueller() -> list[tuple[str, str, str]]:
    checks = []
    algebra = octonion_algebra()
    rng = _rng(32303)
    zero = vector_str(algebra.zero().coords)
    for sample in range(200):
        a, b, c, d = (random_element(algebra, rng) for _ in range(4))
        lhs = multiply(a, associator(b, c, d)) + multiply(associator(a, b, c), d)
        rhs = (associator(multiply(a, b), c, d)
               - associator(a, multiply(b, c), d)
               + associator(a, b, multiply(c, d)))
        checks.append((f"sample.{sample:03d}", zero,
                       vector_str((lhs - rhs).coords)))
    return checks


def _verify_shifts() -> list[tuple[str, str, str]]:
    checks = []
    algebra = octonion_algebra()
    rng = _rng(380806)
    zero = matrix_str(LinearMap.zero(algebra).coords)
    for sample in range(200):
        a, b = random_element(algebra, rng), random_element(algebra, rng)
        left = (compose(left_shift(a), left_shift(b)) + left_associator_map(a, b)
                - left_shift(multiply(a, b)))
        right = (compose(right_shift(a), right_shift(b))
                 - right_shift(multiply(b, a)) - right_associator_map(b, a))
        checks.append((f"left.{sample:03d}", zero, matrix_str(left.coords)))
        checks.append((f"right.{sample:03d}", zero, matrix_str(right.coords)))
    return checks


def _random_cadd_matrix(algebra, rng, size: int) -> MapMatrix:
    def entry():
        return ComplexAdditiveMap(
            random_element(algebra, rng, 5),
            random_element(algebra, rng, 5)).to_linear_map()
    return MapMatrix([[entry() for _ in range(size)] for _ in range(size)])


def _verify_quasidet() -> list[tuple[str, str, str]]:
    checks = []
    algebra = complex_algebra()
    rng = _rng(230310)
    done = {2: 0, 3: 0}
    while min(done.values()) < 25:
        size = 2 if done[2] <= done[3] else 3
        m = _random_cadd_matrix(algebra, rng, size)
        try:
            inverse = inverse_map_matrix(m)
            recursed = _recursive_inverse(m.entries)
        except (SingularSystem, MinorSingular):
            continue
        for i in range(size):
            for j in range(size):
                checks.append((f"{size}x{size}.{done[size]:02d}.entry{i}{j}",
                               matrix_str(inverse.entries[i][j].coords),
                               matrix_str(recursed[i][j].coords)))
        done[size] += 1
    return checks


_VERIFY_SUITES = {
    "tables": _verify_conversion_tables,
    "teichmueller": _verify_teichmueller,
    "shifts": _verify_shifts,
    "quasidet": _verify_quasidet,
}


# ---------------------------------------------------------------------------
# commands

def cmd_solve(args) -> int:
    algebra, matrix, rhs = load_system(args.system)
    solution = solve_additive(matrix, rhs)
    with _all_digits():
        lines = []
        if args.machine:
            for idx, x in enumerate(solution):
                lines.append(f"solution.{idx}={vector_str(x.coords)}")
            lines.append("substitution=ok")
        else:
            lines.append(f"system over {algebra.tag or 'user algebra'}, "
                         f"{matrix.rows} equations")
            for idx, x in enumerate(solution):
                lines.append(f"  x{idx} = {format_element(x)}")
            lines.append("substitution check: ok (all equations satisfied exactly)")
        print("\n".join(lines))
    return EXIT_OK


def cmd_tables(args) -> int:
    algebra = make_builtin(args.which)
    n = algebra.dim
    lines = []
    if args.which == "complex":
        coords = b_matrix(algebra).relations()
        if not args.machine:
            lines.append("coordinates of z -> sum f^{ij} e_i z e_j over the "
                         "complex field:")
        for k in range(n):
            for m in range(n):
                rel = coords[(k, m)]
                if args.machine:
                    lines.append(f"coord.f{k}_{m}={_relation_str(rel)}")
                else:
                    terms = " ".join(  # every relation of C is +-1
                        f"{'+' if rel[key] > 0 else '-'}f^{{{key[0]}{key[1]}}}"
                        for key in sorted(rel))
                    lines.append(f"  f^{k}_{m} = {terms}")
    else:
        sign = _sign_matrix(b_matrix(algebra))
        ints, den = exact.invert_ints(sign)
        num = exact.blocks(ints, n)
        f_ints, f_den = exact.as_ints([v for row in sign for v in row])
        # F = f_ints / f_den and F^-1 = num / den: F F^-1 = I is f_ints num = f_den den I
        if exact.int_mat_mul(exact.blocks(f_ints, n), num, n) != [
                [f_den * den * (r == c) for c in range(n)] for r in range(n)]:
            raise SubstitutionCheckFailed("F * F^-1 is not the identity")
        if args.machine:
            for r in range(n):
                lines.append(f"F.{r}={vector_str(sign[r])}")
            lines.append(f"Finv.den={den}")
            for r in range(n):
                lines.append(f"Finv.{r}={vector_str(num[r])}")
        else:
            lines.append(f"{args.which}: coordinate block = F * component block")
            lines.append("F =")
            for row in sign:
                lines.append("   " + " ".join(f"{str(v):>3}" for v in row))
            lines.append(f"F^-1 = 1/{den} *")
            for row in num:
                lines.append("   " + " ".join(f"{str(v):>3}" for v in row))
            lines.append("F * F^-1 == identity: yes")
    print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = _VERIFY_SUITES[args.suite]()
    print(_render_checks(args.suite, checks, args.machine))
    failed = [name for name, expected, actual in checks if expected != actual]
    if failed:
        print(f"first failing check: {failed[0]}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_basis(args) -> int:
    algebra = load_algebra(args.algebra)
    generators = representation_basis(algebra, args.order)
    with _all_digits():
        lines = []
        if args.machine:
            lines.append(f"generators={len(generators)}")
            for idx, g in enumerate(generators):
                for r, row in enumerate(g.coords):
                    lines.append(f"generator.{idx}.{r}={vector_str(row)}")
        else:
            lines.append(f"{len(generators)} generator(s) whose orbits span all "
                         f"linear maps ({args.order}-nested):")
            for idx, g in enumerate(generators):
                lines.append(f"  generator {idx}:")
                for row in g.coords:
                    lines.append("    " + " ".join(f"{str(v):>4}" for v in row))
        print("\n".join(lines))
    return EXIT_OK


def cmd_algebra_builtin(args) -> int:
    algebra = make_builtin(args.name, args.a, args.b)
    with _all_digits():
        print(json.dumps(algebra_to_json(algebra), indent=2))
    return EXIT_OK


def cmd_map_convert(args) -> int:
    g = load_matrix_file(args.coords, load_algebra(args.algebra))
    solution = standard_from_coords(g, args.order)
    check_conversion(g, solution, args.order)
    with _all_digits():
        lines = []
        if args.machine:
            lines.append(f"rank={solution.rank}")
            lines.append(f"nullity={len(solution.nullspace)}")
            for r, row in enumerate(solution.particular.components):
                lines.append(f"particular.{r}={vector_str(row)}")
            for idx, t in enumerate(solution.nullspace):
                for r, row in enumerate(t.components):
                    lines.append(f"nullspace.{idx}.{r}={vector_str(row)}")
        else:
            lines.append(f"component matrix rank {solution.rank}; solution is "
                         f"{'unique' if solution.is_unique() else 'a family'}")
            lines.append("standard components (one solution):")
            for row in solution.particular.components:
                lines.append("   " + " ".join(f"{str(v):>6}" for v in row))
            if solution.nullspace:
                lines.append(f"homogeneous basis ({len(solution.nullspace)} tensors):")
                for t in solution.nullspace:
                    lines.append("   " + matrix_str(t.components))
        print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

_CHOICES = {"which": BUILTIN_NAMES, "name": BUILTIN_NAMES, "order": ("left", "right"),
            "suite": _VERIFY_SUITES}
_VIEW = {"order": "left", "machine": False}
# (command words, cmd_* name, positional, {option: default}): a default of False
# makes a flag and None a required option; a field in _CHOICES takes those only
_COMMANDS = (
    ("solve", "cmd_solve", "system", {"machine": False}),
    ("tables", "cmd_tables", "which", {"machine": False}),
    ("verify", "cmd_verify", "suite", {"machine": False}),
    ("basis", "cmd_basis", "algebra", _VIEW),
    ("algebra builtin", "cmd_algebra_builtin", "name", {"a": "-1", "b": "-1"}),
    ("map convert", "cmd_map_convert", None, {"algebra": None, "coords": None, **_VIEW}),
    ("map basis", "cmd_basis", None, {"algebra": None, **_VIEW}),
)


def build_parser() -> tuple:
    return _COMMANDS  # the grammar _parse reads


def _parse(argv) -> SimpleNamespace:
    """The fields of the command ``argv`` names, and ``func``, its ``cmd_*``; an option,
    before or after the positional, is ``--opt value`` or ``--opt=value``."""
    for command, func, positional, options in _COMMANDS:
        words = command.split()
        if list(argv[:len(words)]) == words:
            break
    else:
        raise ValueError(f"expected a command ({', '.join(c for c, *_ in _COMMANDS)}), "
                         f"got {' '.join(argv[:2]) or 'none'!r}")
    fields, rest = dict(options), iter(argv[len(words):])
    for word in rest:
        name, eq, value = word[2:].partition("=")
        if not word.startswith("-"):
            if positional is None or positional in fields:
                raise ValueError(f"{command}: unexpected argument {word!r}")
            name, value = positional, word
        elif not word.startswith("--") or name not in options or eq and options[name] is False:
            raise ValueError(f"{command}: unknown option {word!r}")  # --machine=x too
        elif options[name] is False:
            value = True
        elif not eq and (value := next(rest, None)) is None:  # the next word, even "-1/2"
            raise ValueError(f"{command}: option --{name} needs a value")
        if value not in _CHOICES.get(name, (value,)):
            raise ValueError(f"{command}: {name} must be {'|'.join(_CHOICES[name])}, got {value!r}")
        fields[name] = value
    missing = [f"--{name}" for name, value in fields.items() if value is None]
    if missing or positional and positional not in fields:
        raise ValueError(f"{command}: missing {missing[0] if missing else f'<{positional}>'}")
    return SimpleNamespace(func=func, **fields)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(__doc__[__doc__.index("Subcommands:"):__doc__.index("File formats")].rstrip())
        return EXIT_OK
    try:
        args = _parse(argv)
        return globals()[args.func](args)  # by name per call: a rebound cmd_* is called
    except SubstitutionCheckFailed as err:  # a failed self-check is a defect, not an input
        defect = err
    except (SingularSystem, SingularMap, SingularTensor, MinorSingular,
            NotRepresentable) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SINGULAR
    except (FreeAlgebraError, OSError, ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # a defect, not an input: one line, never exit 1
        defect = err
    print(f"error: internal error ({type(defect).__name__}): {defect}", file=sys.stderr)
    return EXIT_INTERNAL


def entry_point() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the process as it ends cat;
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # in process, main() gives exit 2
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
