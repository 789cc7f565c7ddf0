"""Time the fourth-order block solves of two checkouts and collect the result.

Usage (from the repository root):

    python3 bench/structured.py blocks --src SRC --out BLOCKS.json [--max-dof N]
    python3 bench/structured.py combine --before BLOCKS.json --after BLOCKS.json
        [--perfbench WORKLOAD PARENT.jsonl CHANGE.jsonl]...
        [--out BENCH_structured_fourth_order.json]

`blocks` imports hodge_spectra from SRC (the `src` directory of this
checkout, or of a checkout of the parent commit) and times
`solve_problem(problem, m=4)` on each problem in BLOCKS, after assembly,
best of REPEATS (a single run once one takes over SLOW_S seconds).  It also
runs each command of CLI_COMMANDS end to end as `python -m hodge_spectra`.
Problems of more than --max-dof dof and their commands are skipped, for a
checkout whose sparse factorization would not fit in memory.  BLAS runs on
one thread.

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
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

M = 4
REPEATS = 3
SLOW_S = 5.0
# (dim, cells per axis, kind, degree)
BLOCKS = (
    (3, 23, "clamped_plate", 0),
    (3, 23, "buckling", 1),
    (2, 127, "clamped_plate", 0),
    (2, 127, "buckling", 0),
    (2, 63, "clamped_plate", 0),
    (2, 31, "buckling", 0),
    (3, 31, "clamped_plate", 0),
    (3, 31, "buckling", 1),
    (3, 47, "clamped_plate", 0),
    (3, 47, "buckling", 1),
)
CLI_COMMANDS = ((3, 47, "clamped_plate", 0), (3, 47, "buckling", 1))
PERFBENCH_METRICS = ("wall_s", "setup_s", "peak_rss_mb", "ok_ratio")


def _label(dim: int, cells: int, kind: str, degree: int) -> str:
    return f"{cells}^{dim} {kind} p={degree}"


def _certificates(spectrum) -> dict:
    return {"first_value": float(spectrum["values"][0]),
            "worst_residual": float(max(spectrum["residuals"])),
            "largest_error_bound": float(max(spectrum["error_bounds"]))}


def time_blocks(src: Path, max_dof: int) -> dict:
    sys.path.insert(0, str(src))
    from hodge_spectra.discretize import ProblemKind, assemble, build_domain
    from hodge_spectra.eigensolve import solve_problem

    blocks = {}
    for dim, cells, kind, degree in BLOCKS:
        if cells ** dim > max_dof:
            continue
        problem = assemble(build_domain(dim, [1.0] * dim, [cells] * dim), degree,
                           ProblemKind(kind))
        seconds = []
        while len(seconds) < REPEATS and not (seconds and max(seconds) > SLOW_S):
            start = time.perf_counter()
            spectrum = solve_problem(problem, m=M)
            seconds.append(time.perf_counter() - start)
        blocks[_label(dim, cells, kind, degree)] = {
            "dof": cells ** dim, "seconds": min(seconds), "runs": len(seconds),
            **_certificates(vars(spectrum))}
        print(f"# {_label(dim, cells, kind, degree):28s} {min(seconds):8.3f} s", flush=True)
    commands = {}
    env = {**os.environ, "PYTHONPATH": str(src), "HODGE_SPECTRA_THREADS": "1"}
    with tempfile.TemporaryDirectory() as workdir:
        for dim, cells, kind, degree in CLI_COMMANDS:
            if cells ** dim > max_dof:
                continue
            out = Path(workdir) / "box.json"
            argv = [sys.executable, "-m", "hodge_spectra", "box", "--dim", str(dim),
                    "--extent", ",".join(["1"] * dim), "--cells", ",".join([str(cells)] * dim),
                    "--problem", kind, "--degree", str(degree), "--count", str(M),
                    "--out", str(out)]
            start = time.perf_counter()
            code = subprocess.call(argv, env=env)
            seconds = time.perf_counter() - start
            (spectrum,) = json.loads(out.read_text())["spectra"]
            commands[" ".join(["box"] + argv[4:-2])] = {
                "exit_code": code, "wall_s": seconds, **_certificates(spectrum)}
            print(f"# box {_label(dim, cells, kind, degree):24s} {seconds:8.3f} s", flush=True)
    return {"what": f"best of up to {REPEATS} solve_problem(m={M}) runs per problem, "
                    f"after assembly; box commands end to end",
            "blocks": blocks, "commands": commands}


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
    return {"machine": machine_facts(), "per_block": table, "parent": parent,
            "change": change,
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
