"""Time the fourth-order block solves of two checkouts and collect the result.

Usage (from the repository root):

    python3 bench/structured.py blocks --src SRC --out BLOCKS.json [--max-dof N]
    python3 bench/structured.py combine --before BLOCKS.json --after BLOCKS.json
        [--perfbench WORKLOAD PARENT.jsonl CHANGE.jsonl]...
        [--out BENCH_structured_fourth_order.json]

`blocks` imports hodge_spectra from SRC (the `src` directory of this
checkout, or of a checkout of the parent commit) and times
`solve_problem(problem, m)` on each problem in BLOCKS, after `assemble`,
best of REPEATS (a single run once one takes over SLOW_S seconds); the
sparse matrices that the general route reads are built inside the timed
solve, on a freshly assembled problem each run.  It also
runs each command of CLI_COMMANDS end to end as `python -m hodge_spectra`,
COMMAND_RUNS times, and records each run's wall time and the peak RSS of
its process.  Problems of more than --max-dof dof and their commands are
skipped, for a checkout whose sparse factorization would not fit in
memory.  BLAS runs on one thread.

`combine` puts two `blocks` files side by side and adds, per workload, the
results of `perfbench/run.py --workload WORKLOAD --seed N --seconds 10
--trace 0` at the parent commit and at the change: the final JSON line of
each run, one line per seed, line i of both files being one pair of runs.
For each pair of files it records the medians and quartiles of wall_s,
setup_s, peak_rss_mb and ok_ratio, and in how many pairs wall_s is lower
at the change (bench/crossover.py's perfbench_pairs), with the machine
facts.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # before numpy loads BLAS; only when run as a script
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

REPEATS = 3
SLOW_S = 5.0
COMMAND_RUNS = 3
# (dim, cells per axis, kind, degree, values asked)
BLOCKS = (
    (3, 23, "clamped_plate", 0, 4),
    (3, 23, "buckling", 1, 4),
    (2, 127, "clamped_plate", 0, 4),
    (2, 127, "buckling", 0, 4),
    (2, 63, "clamped_plate", 0, 4),
    (2, 63, "buckling", 1, 3),
    (2, 31, "buckling", 0, 4),
    (3, 31, "clamped_plate", 0, 4),
    (3, 31, "buckling", 1, 4),
    (3, 31, "clamped_plate", 0, 16),
    (3, 47, "clamped_plate", 0, 4),
    (3, 47, "buckling", 1, 4),
    # large counts and the largest grid, which the reflection classes split
    (2, 127, "clamped_plate", 0, 16),
    (2, 127, "buckling", 0, 32),
    (3, 31, "clamped_plate", 0, 32),
    (3, 63, "clamped_plate", 0, 4),
    # general route (solve_pencil), which assembles block.a and block.b; 63^2
    # at m = 16 took it until the 2D STRUCTURED_MAX_M rose from 8 to 32
    (1, 1023, "buckling", 0, 4),
    (2, 63, "clamped_plate", 0, 16),
)
# the README's fourth-order box command and the 47^3 (about 10^5 dof) ones
CLI_COMMANDS = ((2, 63, "buckling", 1, 3), (3, 47, "clamped_plate", 0, 4),
                (3, 47, "buckling", 1, 4))
PERFBENCH_METRICS = ("wall_s", "setup_s", "peak_rss_mb", "ok_ratio")


def _label(dim: int, cells: int, kind: str, degree: int, m: int) -> str:
    return f"{cells}^{dim} {kind} p={degree} m={m}"


def _certificates(spectrum) -> dict:
    return {"first_value": float(spectrum["values"][0]),
            "worst_residual": float(max(spectrum["residuals"])),
            "largest_error_bound": float(max(spectrum["error_bounds"]))}


def time_blocks(src: Path, max_dof: int) -> dict:
    # the commands run first: a child's peak RSS counts this process's RSS
    # at the fork, which is small only before any problem is solved here
    commands = {}
    env = {**os.environ, "PYTHONPATH": str(src), "HODGE_SPECTRA_THREADS": "1"}
    with tempfile.TemporaryDirectory() as workdir:
        for dim, cells, kind, degree, m in CLI_COMMANDS:
            if cells ** dim > max_dof:
                continue
            out = Path(workdir) / "box.json"
            argv = [sys.executable, "-m", "hodge_spectra", "box", "--dim", str(dim),
                    "--extent", ",".join(["1"] * dim), "--cells", ",".join([str(cells)] * dim),
                    "--problem", kind, "--degree", str(degree), "--count", str(m),
                    "--out", str(out)]
            runs = [_run_command(argv, env) for _ in range(COMMAND_RUNS)]
            (spectrum,) = json.loads(out.read_text())["spectra"]
            commands[" ".join(["box"] + argv[4:-2])] = {
                "exit_codes": [code for code, _, _ in runs],
                "wall_s": [seconds for _, seconds, _ in runs],
                "peak_rss_mb": [rss for _, _, rss in runs], **_certificates(spectrum)}
            print(f"# box {_label(dim, cells, kind, degree, m):29s} "
                  f"{min(seconds for _, seconds, _ in runs):8.3f} s", flush=True)
    sys.path.insert(0, str(src))
    from hodge_spectra.discretize import ProblemKind, assemble, build_domain
    from hodge_spectra.eigensolve import solve_problem

    blocks = {}
    for dim, cells, kind, degree, m in BLOCKS:
        if cells ** dim > max_dof:
            continue
        seconds = []
        while len(seconds) < REPEATS and not (seconds and max(seconds) > SLOW_S):
            # a fresh problem each run: a block builds its sparse matrices, and
            # its per-axis terms, on first access, inside the solve
            problem = assemble(build_domain(dim, [1.0] * dim, [cells] * dim), degree,
                               ProblemKind(kind))
            start = time.perf_counter()
            spectrum = solve_problem(problem, m=m)
            seconds.append(time.perf_counter() - start)
        label = _label(dim, cells, kind, degree, m)
        blocks[label] = {"dof": cells ** dim, "seconds": min(seconds), "runs": len(seconds),
                         **_certificates(vars(spectrum))}
        print(f"# {label:33s} {min(seconds):8.3f} s", flush=True)
    return {"what": f"best of up to {REPEATS} solve_problem runs per problem, each on a "
                    f"freshly assembled problem; box commands end to end, "
                    f"{COMMAND_RUNS} runs each",
            "blocks": blocks, "commands": commands}


def _run_command(argv: list[str], env: dict) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS (MB) of one child process."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, seconds, usage.ru_maxrss / 1024.0


def combine(before: Path, after: Path, perfbench: list[list[str]]) -> dict:
    # imported here: crossover imports this checkout's hodge_spectra, which
    # must not shadow the one `blocks` times from --src
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from crossover import machine_facts, perfbench_pairs

    parent, change = (json.loads(path.read_text()) for path in (before, after))
    table = {label: {"dof": row["dof"],
                     "parent_s": parent["blocks"].get(label, {}).get("seconds"),
                     "change_s": row["seconds"]}
             for label, row in change["blocks"].items()}
    commands = {command: {f"{side}_{name}": statistics.median(runs[command][name])
                          for side, runs in (("parent", parent["commands"]),
                                             ("change", change["commands"]))
                          for name in ("wall_s", "peak_rss_mb")}
                for command in change["commands"] if command in parent["commands"]}
    return {"machine": machine_facts(), "per_block": table,
            "per_command_median": commands, "parent": parent, "change": change,
            "perfbench": {workload: perfbench_pairs(Path(p), Path(c), PERFBENCH_METRICS)
                          for workload, p, c in perfbench}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    blocks = sub.add_parser("blocks")
    blocks.add_argument("--src", type=Path, required=True)
    blocks.add_argument("--out", type=Path, required=True)
    blocks.add_argument("--max-dof", type=int, default=10 ** 9)
    both = sub.add_parser("combine")
    both.add_argument("--before", type=Path, required=True)
    both.add_argument("--after", type=Path, required=True)
    both.add_argument("--perfbench", nargs=3, action="append", default=[],
                      metavar=("WORKLOAD", "PARENT", "CHANGE"))
    both.add_argument("--out", type=Path, default=Path("BENCH_structured_fourth_order.json"))
    args = parser.parse_args(argv)
    if args.mode == "blocks":
        result = time_blocks(args.src.resolve(), args.max_dof)
    else:
        result = combine(args.before, args.after, args.perfbench)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
