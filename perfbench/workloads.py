"""The three benchmark workloads.

Each workload has:

* ``setup(lib)``: the timed set-up (algebras built, caches warmed);
* ``prepare(lib, state, workdir)``: untimed preparation of the checks,
  returning a list of problems found (an empty list when all is well);
* ``cycle(lib, state, rng, index)``: the ops of one cycle, generated from
  ``rng`` before any of them is timed.  A cycle always has the same mix
  of op kinds, so every share below is exact at any number of cycles;
* ``self_test(lib, state, rng)``: feeds its checks a result corrupted by
  one coordinate (and, for the CLI, a wrong exit code) and returns the
  problems found, which must be none.

An op's ``run`` is the timed call into freealg; its ``check`` is the
untimed, independent verdict on the result.  ``exit`` is the expected
CLI exit code, or None for library ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import check

ORDERS = ("left", "right")


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    exit: Optional[int] = None


def small(rng):
    """p/q with |p| <= 9 and 1 <= q <= 9, as in freealg's verify suites."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def large(rng):
    """A 40-bit numerator over a 40-bit denominator."""
    return Fraction(rng.randrange(-2 ** 40, 2 ** 40), rng.randrange(1, 2 ** 40))


def grid(rng, n, draw=small):
    return [[draw(rng) for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------------------
# octonion_laws

class OctonionLaws:
    """Each op checks one small-coordinate and one 40-bit sample of exact
    identities in O, H (x) H and the twisted product on H tensors."""

    name = "octonion_laws"
    ops_per_cycle = 1
    cycle_seconds = 0.19
    setup_reps = 5

    def setup(self, lib):
        H = lib.algebras.quaternion_algebra()
        return {"O": lib.algebras.octonion_algebra(), "H": H,
                "HH": lib.tensor.tensor_product([H, H])}

    def prepare(self, lib, state, workdir):
        for key in ("O", "H", "HH"):
            alg = state[key]
            state["t" + key] = check.table(alg.constants, alg.dim)
        return []

    def _sample(self, lib, state, rng, draw):
        O, H, HH = state["O"], state["H"], state["HH"]

        def element(alg):
            while True:
                coords = [draw(rng) for _ in range(alg.dim)]
                if any(coords):
                    return alg.element(coords)

        a, b, c, d = (element(O) for _ in range(4))
        x, y, z = (element(HH) for _ in range(3))
        s, t, u = (lib.tensor.Tensor2(H, grid(rng, 4, draw)) for _ in range(3))
        return (a, b, c, d), (x, y, z), (s, t, u)

    def _laws(self, lib, octs, tensors, twos):
        core, lm, al, tn = lib.core, lib.linmap, lib.algebras, lib.tensor
        a, b, c, d = octs
        x, y, z = tensors
        s, t, u = twos
        ab = core.multiply(a, b)
        left = (lm.compose(lm.left_shift(a), lm.left_shift(b))
                + lm.left_associator_map(a, b) - lm.left_shift(ab))
        right = (lm.compose(lm.right_shift(a), lm.right_shift(b))
                 - lm.right_shift(core.multiply(b, a)) - lm.right_associator_map(b, a))
        teichmueller = (core.multiply(a, core.associator(b, c, d))
                        + core.multiply(core.associator(a, b, c), d)
                        - core.associator(ab, c, d)
                        + core.associator(a, core.multiply(b, c), d)
                        - core.associator(a, b, core.multiply(c, d)))
        norm_a = al.norm_sq(a)
        norm_gap = al.norm_sq(ab) - norm_a * al.norm_sq(b)
        inv = al.inverse_element(a)
        unit = a.algebra.unit()
        inv_gaps = (core.multiply(a, inv) - unit, core.multiply(inv, a) - unit)
        xy = tn.tensor_mul(x, y)
        tensor_gap = tn.tensor_mul(xy, z) - tn.tensor_mul(x, tn.tensor_mul(y, z))
        st = tn.twisted_mul(s, t)
        twist_gap = tn.twisted_mul(st, u) - tn.twisted_mul(s, tn.twisted_mul(t, u))
        residual = (check.flat(left.coords) + check.flat(right.coords)
                    + list(teichmueller.coords) + [norm_gap]
                    + list(inv_gaps[0].coords) + list(inv_gaps[1].coords)
                    + list(tensor_gap.coords) + check.flat(twist_gap.components))
        return {"ab": list(ab.coords), "norm_a": norm_a, "xy": list(xy.coords),
                "st": [list(row) for row in st.components], "residual": residual}

    def _verdict(self, state, inputs, result):
        (a, b, _, _), (x, y, _), (s, t, _) = inputs
        return (check.is_zero(result["residual"])
                and result["ab"] == check.mul(state["tO"], a.coords, b.coords)
                and result["norm_a"] == sum(v * v for v in a.coords)
                and result["xy"] == check.mul(state["tHH"], x.coords, y.coords)
                and result["st"] == check.twisted(state["tH"], s.components, t.components))

    def cycle(self, lib, state, rng, index):
        pair = [self._sample(lib, state, rng, small), self._sample(lib, state, rng, large)]
        return [Op("laws_pair",
                   lambda: [self._laws(lib, *inputs) for inputs in pair],
                   lambda results: all(self._verdict(state, inputs, r)
                                       for inputs, r in zip(pair, results)))]

    def self_test(self, lib, state, rng):
        inputs = self._sample(lib, state, rng, small)
        problems = []
        for key in ("ab", "residual"):
            result = self._laws(lib, *inputs)
            result[key][3] += 1
            if self._verdict(state, inputs, result):
                problems.append(f"checker accepted a corrupted {key!r} coordinate")
        return problems


# ---------------------------------------------------------------------------
# component_maps

class ComponentMaps:
    """Standard components of random maps on O and H (x) H, and inverses of
    random H tensors under the twisted product."""

    name = "component_maps"
    # One 256 x 256 conversion per cycle, under one op in ten, so that
    # op_ms_p90 falls inside the 64 x 64 class and op_ms_p50 inside the
    # 16 x 16 class while the 256 x 256 solve still weighs in ops_per_s.
    mix = ("hh",) + ("o", "t", "t") * 9 + ("o", "t")
    ops_per_cycle = len(mix)
    cycle_seconds = 5.3
    setup_reps = 3

    def setup(self, lib):
        H = lib.algebras.quaternion_algebra()
        state = {"O": lib.algebras.octonion_algebra(), "H": H,
                 "HH": lib.tensor.tensor_product([H, H])}
        for key in ("O", "HH"):
            for order in ORDERS:
                lib.linmap.b_matrix(state[key], order).rank()
        return state

    def prepare(self, lib, state, workdir):
        problems = []
        for key in ("O", "H", "HH"):
            alg = state[key]
            state["t" + key] = check.table(alg.constants, alg.dim)
        for key, golden in (("H", lib.golden.quaternion_coord_relations()),
                            ("O", lib.golden.octonion_coord_relations())):
            alg = state[key]
            n = alg.dim
            entries = lib.linmap.b_matrix(alg).entries
            computed = {(k, m): {(i, j): v for i in range(n) for j in range(n)
                                 if (v := entries[k * n + m][i * n + j])}
                        for k in range(n) for m in range(n)}
            if computed != golden:
                problems.append(f"component matrix of {key} differs from freealg.golden")
        return problems

    def _convert_op(self, lib, state, rng, key, order):
        alg = state[key]
        g = lib.linmap.LinearMap(alg, alg, grid(rng, alg.dim))
        ident = lib.linmap.LinearMap.identity(alg)

        def run():
            solution = lib.linmap.standard_from_coords(g, order)
            back = lib.linmap.coords_from_standard(solution.particular, ident, order)
            return {"comps": [list(r) for r in solution.particular.components],
                    "nullity": len(solution.nullspace),
                    "back": [list(r) for r in back.coords]}

        want = [list(r) for r in g.coords]

        def verdict(result):
            return (result["nullity"] == 0 and result["back"] == want
                    and check.sandwich(state["t" + key], result["comps"], order) == want)
        return Op(f"convert_{key}", run, verdict)

    def _inverse_op(self, lib, state, rng):
        tH = state["tH"]
        while True:
            comps = grid(rng, 4)
            if check.rank(check.left_action(tH, comps)) == 16:
                break
        t = lib.tensor.Tensor2(state["H"], comps)
        unit = [[Fraction(int(r == c == 0)) for c in range(4)] for r in range(4)]

        def run():
            return [list(r) for r in lib.tensor.tensor_inverse(t).components]

        def verdict(u):
            return check.twisted(tH, comps, u) == unit and check.twisted(tH, u, comps) == unit
        return Op("tensor_inverse", run, verdict)

    def cycle(self, lib, state, rng, index):
        ops = []
        o_count = 0
        for kind in self.mix:
            if kind == "hh":
                ops.append(self._convert_op(lib, state, rng, "HH", ORDERS[index % 2]))
            elif kind == "o":
                ops.append(self._convert_op(lib, state, rng, "O", ORDERS[o_count % 2]))
                o_count += 1
            else:
                ops.append(self._inverse_op(lib, state, rng))
        return ops

    def self_test(self, lib, state, rng):
        problems = []
        op = self._convert_op(lib, state, rng, "O", "left")
        result = op.run()
        result["comps"][2][5] += 1
        if op.check(result):
            problems.append("checker accepted corrupted standard components")
        op = self._inverse_op(lib, state, rng)
        result = op.run()
        result[1][2] += 1
        if op.check(result):
            problems.append("checker accepted a corrupted tensor inverse")
        return problems


# ---------------------------------------------------------------------------
# cli_mix

@dataclass
class Outcome:
    code: Any       # exit code, or the name of the exception cli.main raised
    out: str


def run_cli(lib, argv):
    """In-process ``freealg.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    except Exception as crash:  # an uncaught exception is a result here
        code = type(crash).__name__
    return Outcome(code, out.getvalue())


def machine_fields(text):
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key] = value
    return fields


def vector(text):
    return [Fraction(tok) for tok in text.split()]


def fstr(values):
    return [str(v) for v in values]


class CliMix:
    """In-process CLI calls on files generated during the run."""

    name = "cli_mix"
    # (command, subject, size).  The list fixes the shares of singular
    # systems (exit 3) and malformed documents (exit 2).  It is grouped by
    # time class (raw times on a busy 2-CPU machine), so that op_ms_p50
    # falls inside the class of 2x2 solves over H and E(a,b) and of
    # conversions and bases on dimension 4, and op_ms_p90 inside the class
    # of 3x3 solves, never on the gap between two classes.
    mix = (
        # under 6 ms: malformed documents, tables, C, and a singular C system
        ("malformed", "missing_rhs", 0), ("malformed", "zero_denominator", 0),
        ("malformed", "rhs_length", 0), ("malformed", "not_json", 0),
        ("malformed", "top_level_list", 0), ("malformed", "integer_cell", 0),
        ("malformed", "null_cell", 0), ("malformed", "duplicate_constant", 0),
        ("tables", "complex", 0), ("tables", "quaternion", 0), ("map", "complex", 0),
        ("basis", "complex", 0), ("solve", "complex", 2), ("solve", "complex", 3),
        ("singular", "complex", 2),
        # about 7 ms
        ("singular", "quaternion", 2), ("singular", "eab", 2),
        # 10-13 ms
        ("map", "quaternion", 0), ("map", "eab", 0), ("map", "eab", 0),
        ("solve", "quaternion", 2), ("solve", "quaternion", 2), ("solve", "eab", 2),
        ("solve", "eab", 2), ("solve", "eab", 2), ("tables", "octonion", 0),
        ("malformed", "bool_index", 0), ("basis", "eab", 0), ("basis", "eab", 0),
        ("basis", "quaternion", 0),
        # 30 ms and up
        ("solve", "quaternion", 3), ("solve", "quaternion", 3), ("solve", "quaternion", 3),
        ("solve", "eab", 3), ("solve", "eab", 3), ("solve", "eab", 3), ("solve", "eab", 3),
        ("solve", "octonion", 2), ("map", "octonion", 0), ("basis", "octonion", 0),
    )
    ops_per_cycle = len(mix)
    cycle_seconds = 1.0
    setup_reps = 5
    BUILTINS = ("complex", "quaternion", "octonion")
    GENERATORS = {"complex": 2, "quaternion": 1, "octonion": 1, "eab": 1}

    def setup(self, lib):
        lib.cli.build_parser()
        return {name: lib.cli.make_builtin(name) for name in self.BUILTINS}

    def prepare(self, lib, state, workdir):
        state["dir"] = workdir
        state["tables"] = {name: check.table(state[name].constants, state[name].dim)
                           for name in self.BUILTINS}
        return []

    # -- inputs ------------------------------------------------------------

    def _write(self, state, name, doc):
        path = os.path.join(state["dir"], name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def _eab(self, state, rng, tag, bad=None):
        """A fresh E(a, b) definition file; returns (path, table)."""
        a, b = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                for _ in range(2))
        constants = check.quaternion_family(a, b)
        rows = [[i, j, k, str(v)] for i, j, k, v in constants]
        if bad == "bool_index":
            rows[1][1] = True       # (0, 1, 1) written with index true
        elif bad == "duplicate_constant":
            rows.append(list(rows[-1]))
        doc = {"dim": 4, "labels": ["1", "i", "j", "k"], "unit": 0, "constants": rows}
        return self._write(state, f"{tag}.alg.json", doc), check.table(constants, 4)

    def _system(self, state, rng, subject, size, singular, tag):
        """A system file and its own block matrices and right side."""
        algebra = subject
        if subject == "eab":
            algebra, _ = self._eab(state, rng, tag)
        n = 2 if subject == "complex" else 4 if subject in ("quaternion", "eab") else 8
        while True:
            if subject == "complex":
                cells = [[(small(rng), small(rng)) for _ in range(size)] for _ in range(size)]
            else:
                cells = [[grid(rng, n) for _ in range(size)] for _ in range(size)]
            if singular:
                c = small(rng) or Fraction(1)
                cells[-1] = ([(c * p, c * r) for p, r in cells[0]] if subject == "complex"
                             else [[[c * v for v in row] for row in cell] for cell in cells[0]])
            blocks = ([[[[p + r, 0], [0, p - r]] for p, r in row] for row in cells]
                      if subject == "complex" else cells)
            if singular or check.rank(check.flatten(blocks)) == size * n:
                break
        if subject == "complex":
            matrix = [[f"{p} {'+' if r >= 0 else '-'} {abs(r)}*I" for p, r in row]
                      for row in cells]
        else:
            matrix = [[[fstr(row) for row in cell] for cell in line] for line in cells]
        rhs = [[small(rng) for _ in range(n)] for _ in range(size)]
        doc = {"algebra": algebra, "matrix": matrix, "rhs": [fstr(v) for v in rhs]}
        return doc, blocks, rhs

    # -- ops ---------------------------------------------------------------

    def _solve_op(self, lib, state, rng, subject, size, tag):
        doc, blocks, rhs = self._system(state, rng, subject, size, False, tag)
        path = self._write(state, f"{tag}.sys.json", doc)

        def verdict(outcome):
            fields = machine_fields(outcome.out)
            xs = [vector(fields[f"solution.{i}"]) for i in range(size)]
            return (outcome.code == 0 and fields.get("substitution") == "ok"
                    and check.block_apply(blocks, xs) == rhs)
        return Op(f"solve_{subject}_{size}", lambda: run_cli(lib, ["solve", path, "--machine"]),
                  verdict, 0)

    def _singular_op(self, lib, state, rng, subject, size, tag):
        doc, _, _ = self._system(state, rng, subject, size, True, tag)
        path = self._write(state, f"{tag}.sys.json", doc)
        return Op(f"singular_{subject}_{size}",
                  lambda: run_cli(lib, ["solve", path, "--machine"]),
                  lambda outcome: outcome.code == 3, 3)

    def _algebra(self, state, rng, subject, tag):
        if subject == "eab":
            return self._eab(state, rng, tag)
        return subject, state["tables"][subject]

    def _map_op(self, lib, state, rng, subject, tag):
        source, t = self._algebra(state, rng, subject, tag)
        n = len(t)
        if subject == "complex":    # only complex-linear maps are representable
            c0, c1 = small(rng), small(rng)
            coords = [[c0, -c1], [c1, c0]]
        else:
            coords = grid(rng, n)
        path = self._write(state, f"{tag}.coords", "\n".join(" ".join(fstr(r)) for r in coords))
        nullity = 2 if subject == "complex" else 0
        zero = [[0] * n for _ in range(n)]

        def verdict(outcome):
            fields = machine_fields(outcome.out)
            comps = [vector(fields[f"particular.{r}"]) for r in range(n)]
            kernel = [[vector(fields[f"nullspace.{i}.{r}"]) for r in range(n)]
                      for i in range(nullity)]
            return (outcome.code == 0 and fields.get("nullity") == str(nullity)
                    and fields.get("rank") == str(n * n - nullity)
                    and check.sandwich(t, comps, "left") == coords
                    and all(check.sandwich(t, k, "left") == zero for k in kernel))
        return Op(f"map_{subject}",
                  lambda: run_cli(lib, ["map", "convert", "--algebra", source,
                                        "--coords", path, "--machine"]),
                  verdict, 0)

    def _basis_op(self, lib, state, rng, subject, tag):
        source, t = self._algebra(state, rng, subject, tag)
        n = len(t)
        expected = [check.identity(n)]
        if subject == "complex":    # identity and conjugation diag(1, -1)
            expected.append([[1, 0], [0, -1]])

        def verdict(outcome):
            fields = machine_fields(outcome.out)
            got = [[vector(fields[f"generator.{g}.{r}"]) for r in range(n)]
                   for g in range(len(expected))]
            return (outcome.code == 0
                    and fields.get("generators") == str(self.GENERATORS[subject])
                    and got == expected)
        return Op(f"basis_{subject}",
                  lambda: run_cli(lib, ["basis", source, "--machine"]), verdict, 0)

    def _tables_op(self, lib, state, subject):
        t = state["tables"][subject]
        n = len(t)

        def verdict(outcome):
            fields = machine_fields(outcome.out)
            if outcome.code != 0:
                return False
            if subject == "complex":
                # coefficient of f^{ij} in coordinate (k, m), from the constants
                want = {}
                for i in range(n):
                    for j in range(n):
                        e = [[Fraction(int((r, c) == (i, j))) for c in range(n)] for r in range(n)]
                        for k, row in enumerate(check.sandwich(t, e, "left")):
                            for m, v in enumerate(row):
                                if v:
                                    want.setdefault((k, m), {})[(i, j)] = v
                got = {}
                for k in range(n):
                    for m in range(n):
                        for term in fields[f"coord.f{k}_{m}"].split():
                            coeff, _, ij = term.partition("@")
                            got.setdefault((k, m), {})[(int(ij[0]), int(ij[1]))] = Fraction(coeff)
                return got == want
            golden = (lib.golden.QUATERNION_SIGN_MATRIX if subject == "quaternion"
                      else lib.golden.OCTONION_SIGN_MATRIX)
            sign = [vector(fields[f"F.{r}"]) for r in range(n)]
            inverse = [vector(fields[f"Finv.{r}"]) for r in range(n)]
            den = Fraction(fields["Finv.den"])
            return (sign == [list(map(Fraction, row)) for row in golden]
                    and check.matmul(sign, inverse) == [[den * v for v in row]
                                                        for row in check.identity(n)])
        return Op(f"tables_{subject}",
                  lambda: run_cli(lib, ["tables", subject, "--machine"]), verdict, 0)

    def _malformed_op(self, lib, state, rng, what, tag):
        """A document that must be rejected with exit 2."""
        command = "solve"
        if what in ("bool_index", "duplicate_constant"):
            path, _ = self._eab(state, rng, tag, bad=what)
            command = "basis"
        elif what == "not_json":
            path = self._write(state, f"{tag}.sys.json", '{"algebra": "complex", "matrix": [[')
        elif what == "top_level_list":
            path = self._write(state, f"{tag}.sys.json", [["1", "2"], ["3", "4"]])
        else:
            doc, _, _ = self._system(state, rng, "quaternion", 2, False, tag)
            if what == "missing_rhs":
                del doc["rhs"]
            elif what == "zero_denominator":
                doc["rhs"][0][1] = "1/0"
            elif what == "rhs_length":
                doc["rhs"].pop()
            elif what == "integer_cell":
                doc["matrix"][1][0] = 5
            elif what == "null_cell":
                doc["matrix"][0][1] = None
            path = self._write(state, f"{tag}.sys.json", doc)
        argv = [command, path] + (["--machine"] if command == "basis" else [])
        return Op(f"malformed_{what}", lambda: run_cli(lib, argv),
                  lambda outcome: outcome.code == 2, 2)

    def _op(self, lib, state, rng, spec, tag):
        command, subject, size = spec
        if command == "solve":
            return self._solve_op(lib, state, rng, subject, size, tag)
        if command == "singular":
            return self._singular_op(lib, state, rng, subject, size, tag)
        if command == "map":
            return self._map_op(lib, state, rng, subject, tag)
        if command == "basis":
            return self._basis_op(lib, state, rng, subject, tag)
        if command == "tables":
            return self._tables_op(lib, state, subject)
        return self._malformed_op(lib, state, rng, subject, tag)

    def cycle(self, lib, state, rng, index):
        return [self._op(lib, state, rng, spec, f"op{pos:02d}")
                for pos, spec in enumerate(self.mix)]

    def self_test(self, lib, state, rng):
        problems = []
        op = self._solve_op(lib, state, rng, "complex", 2, "selftest")
        outcome = op.run()
        fields = machine_fields(outcome.out)
        xs = vector(fields["solution.0"])
        xs[1] += 1
        corrupted = outcome.out.replace(f"solution.0={fields['solution.0']}",
                                        f"solution.0={' '.join(fstr(xs))}")
        if op.check(Outcome(outcome.code, corrupted)):
            problems.append("checker accepted a corrupted solution coordinate")
        if op.check(Outcome(2, outcome.out)):
            problems.append("checker accepted a wrong exit code")
        return problems


WORKLOADS = {w.name: w for w in (OctonionLaws(), ComponentMaps(), CliMix())}
