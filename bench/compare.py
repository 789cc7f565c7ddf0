"""Time two checkouts side by side, one fresh interpreter per run.

Usage (from the repository root):

    python3 bench/compare.py --parent-src PARENT/src --out FILE [--pairs N]
        [--perfbench WORKLOAD PARENT.jsonl CHANGE.jsonl]...

Every row runs a fresh interpreter once per pair on each side, with
PYTHONPATH set to that side's src and BLAS on one thread
(HODGE_SPECTRA_THREADS=1).  There are N pairs; the parent runs first in
even pairs and this checkout first in odd ones, so that a slow stretch of a
shared machine hits both sides.  The rows are: importing hodge_spectra.cli
alone; each command of the README's "Command line" block, of the perfbench
workloads at seed 0 (without their --out) and of BOX_COMMANDS, run through
`cli.main()` as `python -m hodge_spectra` runs it; and each block of
BLOCKS, whose `solve_problem(problem, m)`, the one `verify` binds and the
commands run, is timed after `assemble`, with its first value, worst
residual and largest error bound.  A block's child assembles and solves
it SOLVE_REPEATS times and keeps the fastest solve, so that a slow first
call (a library warming up, a page fault) or a slow stretch of the
machine does not decide a pair between two sides whose solve is the same.
Per row and side, each run records the child's wall seconds (interpreter
start included), a block's solve seconds, its import time of hodge_spectra.cli,
its peak RSS, its exit code, a digest of its output, whether its heap
was frozen when it ended (as `cli.main()` leaves it), whether it had
loaded numpy, which of scipy, scipy.sparse, scipy.linalg and
scipy.sparse.linalg it had loaded, and which of LOADED it had loaded:
hodge_spectra.bessel, hodge_spectra.checks, hodge_spectra.separable,
fractions, dataclasses, inspect and platform.
Per row come the medians and quartiles, the pairs in which
the change was faster (wins), as fast (ties) or slower (losses), on solve
seconds for a block and on wall seconds otherwise, and whether the row is
resolved on that metric: whether the medians differ by more than the
parent's own spread, the distance between its quartiles, so that a
one-sided pair count inside that spread reads as unresolved, not as a
regression or a gain.  A row is identical when every run on both sides
has one digest: the SHA-256 of a command's exit code and report bytes, or
of repr((values, residuals, error_bounds)) of a block's spectrum; the
summary flags a row that differs.

--perfbench adds, per workload, the results of `perfbench/run.py --workload
WORKLOAD --seed N --seconds 10 --trace 0` at the parent commit and at the
change: the final JSON line of each run, line i of both files being one
pair of runs, with the pair counts and `resolved` on wall_s.  The machine
facts (cores, BLAS threads, Python, numpy and scipy versions) are recorded
too.  This process imports neither numpy nor hodge_spectra, so no child's
peak RSS counts a large parent's.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # inherited by every child; only when run as a script
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# the 47^3 (about 10^5 dof) box commands
BOX_COMMANDS = tuple(
    f"box --dim 3 --extent 1,1,1 --cells 47,47,47 --problem {kind} --degree {degree} "
    f"--count 4".split() for kind, degree in (("clamped_plate", 0), ("buckling", 1))) + tuple(
    # second-order boxes at a large count
    f"box --dim {dim} --extent {extent} --cells {cells} --problem {kind} --degree {degree} "
    f"--count 64".split()
    for dim, extent, cells in ((2, "1,1", "127,127"), (3, "1,1,1", "23,23,23"))
    for kind, degree in (("dirichlet_laplace", dim - 2), ("absolute_laplace", 0)))
# solves per block row, the fastest of which is recorded
SOLVE_REPEATS = 5
# (cells per axis, extent per axis, kind, degree, values asked)
BLOCKS = (
    ((23, 23, 23), (1, 1, 1), "clamped_plate", 0, 4),
    ((23, 23, 23), (1, 1, 1), "buckling", 1, 4),
    ((127, 127), (1, 1), "clamped_plate", 0, 4),
    ((127, 127), (1, 1), "buckling", 0, 4),
    ((63, 63), (1, 1), "clamped_plate", 0, 4),
    ((63, 63), (1, 1), "buckling", 1, 3),
    ((31, 31), (1, 1), "buckling", 0, 4),
    ((31, 31, 31), (1, 1, 1), "clamped_plate", 0, 4),
    ((31, 31, 31), (1, 1, 1), "buckling", 1, 4),
    ((31, 31, 31), (1, 1, 1), "clamped_plate", 0, 16),
    ((47, 47, 47), (1, 1, 1), "clamped_plate", 0, 4),
    ((47, 47, 47), (1, 1, 1), "buckling", 1, 4),
    # boxes with two interchangeable axes and with none
    ((23, 23, 31), (1, 1, 1.35), "clamped_plate", 0, 4),
    ((23, 23, 31), (1, 1, 1.35), "buckling", 1, 4),
    ((21, 23, 25), (1, 1, 1), "clamped_plate", 0, 4),
    ((21, 23, 25), (1, 1, 1), "buckling", 1, 4),
    # large counts and the largest grid, which the reflection classes split
    ((127, 127), (1, 1), "clamped_plate", 0, 16),
    ((127, 127), (1, 1), "buckling", 0, 32),
    ((31, 31, 31), (1, 1, 1), "clamped_plate", 0, 32),
    ((63, 63, 63), (1, 1, 1), "clamped_plate", 0, 4),
    ((17, 17, 17), (1, 1, 1), "clamped_plate", 0, 64),
    # thin blocks, whose classes (at most 80, 52, 150 and 128 dof) are dense
    # while DENSE_CUTOFF is at least 150; as LOBPCG classes, 5x100 and
    # 15x15x3 stall
    ((3, 80), (1, 30), "clamped_plate", 0, 8),
    ((3, 3, 26), (1, 1, 8), "buckling", 0, 32),
    ((5, 100), (1, 20), "clamped_plate", 0, 4),
    ((15, 15, 3), (1, 1, 0.05), "buckling", 0, 4),
    # dense classes of both kinds (196 and 216 dof): each class is one eigh
    # of B^-1/2 A B^-1/2
    ((27, 27), (1, 1), "clamped_plate", 0, 4),
    ((27, 27), (1, 1), "buckling", 0, 4),
    ((11, 11, 11), (1, 1, 1), "buckling", 1, 4),
    # general route (solve_pencil), which assembles block.a and block.b: a 1D
    # block, and a 2D one asked for more than STRUCTURED_MAX_M values
    ((1023,), (1,), "buckling", 0, 4),
    ((63, 63), (1, 1), "clamped_plate", 0, 64),
    # second-order blocks, from closed-form 1D pairs: the verify battery's
    # 63^2 problems, and large counts
    ((63, 63), (1, 1), "dirichlet_laplace", 0, 4),
    ((63, 63), (1, 1), "absolute_laplace", 1, 4),
    ((127, 127), (1, 1), "dirichlet_laplace", 0, 64),
    ((23, 23, 23), (1, 1, 1), "dirichlet_laplace", 1, 4),
    ((23, 23, 23), (1, 1, 1), "absolute_laplace", 0, 64),
)
SCIPY_PARTS = ("scipy", "scipy.sparse", "scipy.linalg", "scipy.sparse.linalg")
# (field, module): whether the child had loaded each module
LOADED = (("bessel", "hodge_spectra.bessel"), ("checks", "hodge_spectra.checks"),
          ("separable", "hodge_spectra.separable"), ("fractions", "fractions"),
          ("dataclasses", "dataclasses"), ("inspect", "inspect"), ("platform", "platform"))
PERFBENCH_METRICS = ("wall_s", "setup_s", "peak_rss_mb", "ok_ratio")
# the run fields summarized by median and quartiles; the others are listed per run
TIMED = ("wall_s", "solve_s", "import_s", "peak_rss_mb")
IMPORT_ONLY = "import hodge_spectra.cli"
# arguments: none (import only), a CLI command, or --block and a BLOCKS entry as JSON
PROBE = f"""
import gc, json, os, resource, sys, time
start = time.perf_counter()
import hodge_spectra.cli as cli
run = {{"import_s": time.perf_counter() - start}}
args = sys.argv[1:]
if args[:1] == ["--block"]:
    from hodge_spectra.discretize import ProblemKind
    from hodge_spectra.verify import assemble, build_domain, solve_problem
    cells, extent, kind, degree, m = json.loads(args[1])
    times = []
    for _ in range({SOLVE_REPEATS}):
        # a fresh problem each time: a block builds its factors on first access
        problem = assemble(build_domain(len(cells), extent, cells), degree, ProblemKind(kind))
        start = time.perf_counter()
        spectrum = solve_problem(problem, m=m)
        times.append(time.perf_counter() - start)
    run.update(solve_s=min(times), exit_code=0,
               first_value=float(spectrum.values[0]),
               worst_residual=float(max(spectrum.residuals)),
               largest_error_bound=float(max(spectrum.error_bounds)))
    output = repr((spectrum.values, spectrum.residuals, spectrum.error_bounds)).encode()
elif args:
    # through the process entry point, collector policy included; a report
    # left by an earlier run is removed first
    if os.path.exists("report"):
        os.remove("report")
    sys.argv = ["hodge-spectra", *args]
    try:
        cli.main()
    except SystemExit as exc:
        run["exit_code"] = exc.code
    output = f"{{run['exit_code']}}\\n".encode()
    if os.path.exists("report"):
        with open("report", "rb") as report:
            output += report.read()
else:
    run["exit_code"] = 0
    output = b""
run.update(peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           frozen=gc.get_freeze_count() > 0,
           numpy="numpy" in sys.modules,
           scipy=[m for m in {SCIPY_PARTS!r} if m in sys.modules],
           **{{field: module in sys.modules for field, module in {LOADED!r}}})
# after the peak RSS and the modules are read
import hashlib
run["digest"] = hashlib.sha256(output).hexdigest()
print(json.dumps(run))
"""


def readme_commands() -> list[list[str]]:
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("hodge-spectra ")]


def perfbench_commands() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, commands

    return [command.argv() for workload in WORKLOADS for command in commands(workload, 0)]


def _without_out(argv: list[str]) -> list[str]:
    if "--out" in argv:
        at = argv.index("--out")
        return argv[:at] + argv[at + 2:]
    return list(argv)


def rows() -> dict[str, list[str]]:
    """Each row's label and its probe's arguments; a command writes its report
    to `report` in the child's working directory."""
    table = {IMPORT_ONLY: []}
    for argv in readme_commands() + perfbench_commands() + list(BOX_COMMANDS):
        argv = _without_out(argv)
        table.setdefault(" ".join(argv), argv + ["--out", "report"])
    for cells, extent, kind, degree, m in BLOCKS:
        table[f"{block_grid(cells, extent)} {kind} p={degree} m={m}"] = [
            "--block", json.dumps([cells, extent, kind, degree, m])]
    return table


def block_grid(cells, extent) -> str:
    """"23^3" for a unit cube of 23 cells per axis, "23x23x31 on 1,1,1.35" otherwise."""
    if len(set(cells)) == 1 and set(extent) == {1}:
        return f"{cells[0]}^{len(cells)}"
    return f"{'x'.join(map(str, cells))} on {','.join(format(e, 'g') for e in extent)}"


def run_once(src: Path, args: list[str], workdir: Path) -> dict:
    """One fresh interpreter on the hodge_spectra in src: its probe's fields and wall time."""
    env = {**os.environ, "PYTHONPATH": str(src), "HODGE_SPECTRA_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], env=env,
                          capture_output=True, text=True, cwd=workdir)
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args) or IMPORT_ONLY} failed at {src}:\n{proc.stderr}")
    return {"wall_s": wall_s, **json.loads(proc.stdout.strip().splitlines()[-1])}


def _quartiles(values: list[float]) -> dict:
    # the inclusive method keeps q1 and q3 between the smallest and largest run
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def pair_counts(metric: str, parent: list[float], change: list[float]) -> dict:
    """Pairs in which the change's metric is lower (wins), equal (ties) or higher
    (losses) than the parent's; a tie counts for neither side."""
    pairs = list(zip(parent, change, strict=True))
    return {"metric": metric, "wins": sum(c < p for p, c in pairs),
            "ties": sum(c == p for p, c in pairs), "losses": sum(c > p for p, c in pairs)}


def resolved(parent: dict, change: dict) -> bool:
    """Whether two sides' medians differ by more than the parent's interquartile
    spread, each side summarized by `_quartiles`."""
    return abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]


def _side(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        out[name] = _quartiles(values) if name in TIMED else values
    return out


def _row(by_side: dict[str, list[dict]]) -> dict:
    row = {side: _side(runs) for side, runs in by_side.items()}
    timed = "solve_s" if "solve_s" in row["change"] else "wall_s"
    row["pairs"] = pair_counts(timed, row["parent"][timed]["values"],
                               row["change"][timed]["values"])
    row["resolved"] = resolved(row["parent"][timed], row["change"][timed])
    row["identical"] = len({run["digest"] for runs in by_side.values() for run in runs}) == 1
    return row


def measure(parent_src: Path, pairs: int) -> dict:
    sides = {"parent": parent_src.resolve(), "change": (ROOT / "src").resolve()}
    table = rows()
    order = [list(sides) if index % 2 == 0 else list(reversed(sides)) for index in range(pairs)]
    runs = {label: {side: [] for side in sides} for label in table}
    with tempfile.TemporaryDirectory() as tmp:
        for index, sides_in_order in enumerate(order):
            print(f"# pair {index + 1} of {pairs}", flush=True)
            for label, args in table.items():
                for side in sides_in_order:
                    runs[label][side].append(run_once(sides[side], args, Path(tmp)))
    result = {}
    for label, by_side in runs.items():
        row = result[label] = _row(by_side)
        timed = row["pairs"]["metric"]
        print(f"# {label[:72]:72s} {row['parent'][timed]['median']:7.3f} -> "
              f"{row['change'][timed]['median']:7.3f} s  "
              f"{row['parent']['peak_rss_mb']['median']:5.0f} -> "
              f"{row['change']['peak_rss_mb']['median']:5.0f} MB"
              f"{'' if row['resolved'] else '  unresolved'}"
              f"{'' if row['identical'] else '  differs'}", flush=True)
    return {"order": order, "rows": result}


def _perfbench_summary(path: Path) -> dict:
    results = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    out = {"runs": len(results), "correct": all(r["correct"] for r in results)}
    for name in PERFBENCH_METRICS:
        out[name] = _quartiles([r["metrics"][name]["value"] for r in results])
    return out


def perfbench_pairs(parent_path: Path, change_path: Path) -> dict:
    """Median and quartiles of each metric on both sides, and the pairs won,
    tied and lost on wall_s and whether it is `resolved`.

    Each file holds the final JSON line of `perfbench/run.py` runs, line i
    of both files being one pair of runs (same seed).
    """
    parent, change = (_perfbench_summary(path) for path in (parent_path, change_path))
    if parent["runs"] != change["runs"]:
        raise ValueError(f"{parent_path} holds {parent['runs']} runs and {change_path} "
                         f"{change['runs']}: line i of both files must be one pair of runs")
    return {"parent": parent, "change": change,
            "pairs": pair_counts("wall_s", parent["wall_s"]["values"],
                                 change["wall_s"]["values"]),
            "resolved": resolved(parent["wall_s"], change["wall_s"])}


def machine_facts() -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--perfbench", nargs=3, action="append", default=[],
                        metavar=("WORKLOAD", "PARENT", "CHANGE"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if not args.out.parent.is_dir():
        parser.error(f"--out {args.out}: its directory does not exist")
    # read before any run, so that a bad file fails at once
    try:
        perfbench = {workload: perfbench_pairs(Path(p), Path(c))
                     for workload, p, c in args.perfbench}
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    result = {
        "what": "fresh interpreters on each side, one run per pair: wall seconds of the whole "
                f"child, solve seconds of a block (the fastest of {SOLVE_REPEATS} in its "
                "child), import seconds of hodge_spectra.cli, peak "
                "RSS, exit code, the SHA-256 digest of the output (a command's exit code and "
                "report bytes, a block's repr((values, residuals, error_bounds))), "
                "whether the heap was frozen at the end, whether numpy was "
                "loaded, the scipy modules loaded, and "
                "whether hodge_spectra.bessel, hodge_spectra.checks, hodge_spectra.separable, "
                "fractions, dataclasses, inspect and platform were loaded; wins, "
                "ties and losses count the pairs in which the change's solve (blocks) or wall "
                f"(otherwise) seconds are lower, equal or higher; resolved: the medians of "
                "that metric differ by more than the parent's interquartile spread; "
                "identical: every run on both sides has one digest; "
                f"{args.pairs} pairs, sides alternating",
        "machine": machine_facts(),
        **measure(args.parent_src, args.pairs),
        "perfbench": perfbench,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
