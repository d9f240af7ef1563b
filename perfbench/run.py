"""freealg benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload octonion_laws --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` there and nowhere else.  The load is a closed loop with one
client in one thread: each op starts when the previous one has been
checked.  ``--seconds`` fixes the amount of work, as whole cycles of the
workload's op mix at its calibrated cycle time, so that two commits
compared with the same flags do identical work.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice in one process, untraced and then traced, and prints the
per-layer metrics; spans go to ``perfbench/out/``.  The last line of
stdout is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import stats
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("core", "algebras", "tensor", "linmap", "exact", "solver", "golden", "cli")
# A slower commit stops at a cycle boundary once this many times the
# requested seconds have passed (half each for the two halves of a traced
# run), so that a run always ends in time.
DEADLINE_FACTOR = 5


class LibraryMissing(Exception):
    pass


def load_library():
    """A fresh import of freealg from ``src/``, every module re-executed."""
    for key in [k for k in sys.modules if k == "freealg" or k.startswith("freealg.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("freealg")
    except ImportError as err:
        raise LibraryMissing(f"cannot import freealg from {SRC}: {err}") from None
    if SRC not in Path(package.__file__).resolve().parents:
        raise LibraryMissing(f"freealg was imported from {package.__file__}, not {SRC}")
    lib = argparse.Namespace(package=package)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"freealg.{name}"))
    return lib


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, lib, state, seed, cycles, budget, probe, tracer=None):
    """Run whole cycles of ops and check each one.

    An op fails when it raises, exits with another code than expected,
    or its result fails the check.  It is *wrong* when it ran as expected
    but its answer fails the check: that makes the run incorrect.
    """
    rng = random.Random(seed)
    run = {"kinds": [], "raw": [], "passed": [], "wrong": 0, "unexpected_exits": 0}
    deadline = time.perf_counter() + budget
    for index in range(cycles):
        for op in workload.cycle(lib, state, rng, index):
            if tracer is not None:
                tracer.op = len(run["raw"])
            result, raw = probe.run(op.run)
            run["kinds"].append(op.kind)
            run["raw"].append(raw)
            if isinstance(result, Exception):   # an uncaught library exception
                run["passed"].append(False)
                continue
            try:
                ok = bool(op.check(result))
            except Exception:   # output the checker cannot read
                ok = False
            run["passed"].append(ok)
            exited_as_expected = op.exit is None or result.code == op.exit
            run["unexpected_exits"] += not exited_as_expected
            run["wrong"] += exited_as_expected and not ok
        if time.perf_counter() > deadline:
            break
    return run


def figures(run, timings):
    """Scaled op times and the op figures of a run, from its probe timings."""
    run["timings"] = timings
    run["times"] = stats.scaled_times(timings)
    run["figures"] = stats.op_figures(run["kinds"], run["times"], run["passed"])
    run["raw_figures"] = stats.op_figures(run["kinds"], run["raw"], run["passed"])


def end_to_end(run, setup_times):
    fig = run["figures"]
    return {
        "ops_per_s": {"value": fig["ops_per_s"], "unit": "1/s"},
        "op_ms_p50": {"value": fig["op_ms_p50"], "unit": "ms"},
        "op_ms_p90": {"value": fig["op_ms_p90"], "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "pass_share": {"value": sum(run["passed"]) / len(run["passed"]), "unit": "share"},
    }


def set_up(workload, reps, probe, tracer=None):
    """Import and set up ``reps`` times; returns the last library, its
    state and the raw set-up times."""
    def once():
        lib = load_library()
        if tracer is not None:
            tracer.install(lib)
        return lib, workload.setup(lib)

    raw = []
    for _ in range(reps):
        outcome, seconds = probe.run(once)
        if isinstance(outcome, Exception):
            raise outcome
        lib, state = outcome
        raw.append(seconds)
    return lib, state, raw


def prepare(workload, lib, state, workdir, seed):
    problems = workload.prepare(lib, state, workdir)
    problems += workload.self_test(lib, state, random.Random(~seed))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_sha": git_sha(),
              "python": sys.version.split()[0], "cpu_count": os.cpu_count(),
              "loadavg_at_start": list(os.getloadavg())}
    cycles = max(1, round(args.seconds / workload.cycle_seconds))
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        probe = stats.Probe()
        if args.trace == 0:
            lib, state, setup_raw = set_up(workload, workload.setup_reps, probe)
            reps = len(probe.timings)
            problems = prepare(workload, lib, state, str(workdir), args.seed)
            run = measure(workload, lib, state, args.seed, cycles,
                          DEADLINE_FACTOR * args.seconds, probe)
            figures(run, probe.timings[reps:])
            setup_times = stats.scaled_times(probe.timings[:reps])
            metrics = end_to_end(run, setup_times)
            record["setup_raw_s"] = setup_raw
        else:
            lib, state, _ = set_up(workload, 1, probe)
            problems = prepare(workload, lib, state, str(workdir), args.seed)
            budget = DEADLINE_FACTOR * args.seconds / 2
            plain = measure(workload, lib, state, args.seed, cycles, budget, probe)
            plain_timings = probe.timings[1:]
            probe = stats.Probe()
            tracer = tracing.Tracer()
            lib, state, _ = set_up(workload, 1, probe, tracer)
            tracer.op = tracing.PREPARE_OP
            problems += prepare(workload, lib, state, str(workdir), args.seed)
            run = measure(workload, lib, state, args.seed, cycles, budget, probe, tracer)
            tracer.uninstall()
            figures(plain, plain_timings)
            figures(run, probe.timings[1:])
            overhead = 100 * (1 - run["figures"]["ops_per_s"] / plain["figures"]["ops_per_s"])
            metrics = tracing.layer_metrics(tracer, run["unexpected_exits"], overhead)
            tracer.write(OUT / f"{stem}-spans.jsonl")
            record["untraced_ops_per_s"] = plain["figures"]["ops_per_s"]
            record["unwrapped"] = tracer.missing
    except LibraryMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run["passed"])
    failed = attempted - sum(run["passed"])
    record.update(ops=attempted, cycles_run=attempted // workload.ops_per_cycle,
                  failed=failed, wrong=run["wrong"], unexpected_exits=run["unexpected_exits"],
                  raw_figures=run["raw_figures"],
                  checker_problems=problems)
    result = {"correct": not problems and run["wrong"] == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    samples = {"setup_s": len(record.get("setup_raw_s", ())), "peak_rss_mb": 1}
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:>22} {metric['unit']:6s} "
              f"(samples={samples.get(name, attempted)})")
    for problem in problems:
        print(f"checker problem: {problem}")
    print("record " + json.dumps(record))
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"record": record, "result": result,
         "ops": {key: run.get(key) for key in ("kinds", "raw", "times", "passed", "timings")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
