"""Measure where the fourth-order solvers overtake one another.

Usage (from the repository root):

    python3 bench/crossover.py [--out BENCH_dense_cutoff.json]
        [--battery-2d PARENT.jsonl CHANGE.jsonl]

Two sweeps, BLAS on one thread, each made several times with every run
recorded.  The second-order kinds are not swept: their blocks take the
separable solve, which reaches neither rule.

Dense cutoff.  For each fourth-order problem kind at degree 0 (one block
per problem), in 2D and 3D, `solve_problem(problem, m=4)` is timed with the
block forced down the dense path (DENSE_CUTOFF at the block size) and
forced down the structured path (LOBPCG preconditioned by the per-axis
fast-diagonalization inverse), best of REPEATS, on cubic grids of about 50
to about 2400 dof.  The dense and structured runs alternate, so that a slow
stretch of a shared machine hits both; the sweep is made RUNS times.  Near
the crossover both paths take a few milliseconds, so one sweep's answer
moves with machine noise.  The recommended cutoff therefore comes from the
per-size median over the runs: for each (kind, dim) series, its last size
before the first structured win, minimised over the series.  The crossover
band spans what the runs say separately: from the smallest cutoff any
single run recommends to the largest size at which some run first sees a
structured win in some series.

Structured region.  Above the cutoff, each block is solved for m in
COLUMN_COUNTS values both by the structured solve and by `solve_pencil`
(shift-invert Lanczos around a sparse factorization), best of REPEATS, on
cubic grids of about 350 to about 16,000 dof (2D) or 6,900 dof (3D); the
sweep is made COLUMN_RUNS times.  On per-size medians, a (kind, dim, m)
series' smallest structured size is the smallest size from which the
structured solve wins at every larger size measured; a (dim, m) takes the
largest over the kinds, and none if some kind has none.  The recommended
`structured_min_dof` steps are these sizes, raised to rise with m, up to
the first m with none: eigensolve.STRUCTURED_MIN_DOF must equal them.

--battery-2d is a later step, taken after DENSE_CUTOFF has been set from
the first: it takes two files of `perfbench/run.py --workload battery-2d`
results, the final JSON line of output of each run, from the parent commit
and from the change.  It adds their wall_s, peak_rss_mb and ok_ratio to the
existing --out file and leaves its timings as they are.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # before numpy loads BLAS; only when run as a script, so that importing
    # this module leaves the importer's environment alone
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hodge_spectra import eigensolve  # noqa: E402
from hodge_spectra.discretize import ProblemKind, assemble, build_domain  # noqa: E402

M = 4
REPEATS = 3
RUNS = 5
# the kinds whose blocks reach the dense/structured dispatch
KINDS = tuple(kind for kind in ProblemKind if kind.is_fourth_order)
# block side lengths: side**dim runs from 49 to 2401 dof in 2D, 125 to 2197 in 3D
SIDES = {
    2: (7, 9, 11, 13, 15, 17, 19, 21, 25, 29, 35, 41, 49),
    3: (5, 6, 7, 8, 9, 10, 11, 13),
}


# structured region: values requested, block side lengths (529 to 16,129
# dof in 2D, 343 to 6,859 in 3D, all above DENSE_CUTOFF), and runs
COLUMN_COUNTS = (1, 4, 8, 16, 32)
COLUMN_SIDES = {
    2: (23, 31, 47, 63, 95, 127),
    3: (7, 9, 11, 13, 15, 19),
}
COLUMN_RUNS = 3


def _problem(kind: ProblemKind, dim: int, side: int):
    return assemble(build_domain(dim, [1.0] * dim, [side] * dim), 0, kind)


def _time_solve(problem, cutoff: int) -> float:
    saved = eigensolve.DENSE_CUTOFF
    eigensolve.DENSE_CUTOFF = cutoff
    try:
        start = time.perf_counter()
        eigensolve.solve_problem(problem, m=M)
        return time.perf_counter() - start
    finally:
        eigensolve.DENSE_CUTOFF = saved


def sweep() -> list[dict]:
    """One run: best-of-REPEATS dense and structured seconds for every series and size."""
    rows = []
    for dim, sides in SIDES.items():
        for kind in KINDS:
            for side in sides:
                problem = _problem(kind, dim, side)
                (size,) = (block.size for block in problem.blocks)
                dense, structured = [], []
                for _ in range(REPEATS):
                    dense.append(_time_solve(problem, size))
                    structured.append(_time_solve(problem, 0))
                rows.append({"kind": kind.value, "dim": dim, "dof": size,
                             "dense_s": min(dense), "structured_s": min(structured)})
                print(f"# {kind.value:18s} {dim}D {size:5d} dof  dense {min(dense):8.4f} s"
                      f"  structured {min(structured):8.4f} s", flush=True)
    return rows


def _time_general(block, m: int) -> float:
    saved = eigensolve.DENSE_CUTOFF
    eigensolve.DENSE_CUTOFF = 0
    try:
        start = time.perf_counter()
        eigensolve.solve_pencil(block.a, block.b, m)
        return time.perf_counter() - start
    finally:
        eigensolve.DENSE_CUTOFF = saved


def _time_structured(block, m: int) -> float:
    start = time.perf_counter()
    try:
        eigensolve._structured_solve(block, m, eigensolve.DEFAULT_TOL)
    except eigensolve.NumericalFailure:
        return math.inf   # a failed certificate loses
    return time.perf_counter() - start


def sweep_columns() -> list[dict]:
    """One run: best-of-REPEATS structured and general seconds for every series, size and m."""
    rows = []
    for dim, sides in COLUMN_SIDES.items():
        for kind in KINDS:
            for side in sides:
                (block,) = _problem(kind, dim, side).blocks
                for m in COLUMN_COUNTS:
                    structured, general = [], []
                    for _ in range(REPEATS):
                        structured.append(_time_structured(block, m))
                        general.append(_time_general(block, m))
                    rows.append({"kind": kind.value, "dim": dim, "dof": block.size, "m": m,
                                 "structured_s": min(structured), "general_s": min(general)})
                    print(f"# {kind.value:18s} {dim}D {block.size:5d} dof m={m:2d}  structured "
                          f"{min(structured):8.4f} s  general {min(general):8.4f} s", flush=True)
    return rows


def structured_rule(rows: list[dict]) -> dict:
    """Per (dim, m), the smallest block size from which the structured solve always wins."""
    wins = {}
    for kind in KINDS:
        for dim in COLUMN_SIDES:
            for m in COLUMN_COUNTS:
                points = sorted((r for r in rows
                                 if (r["kind"], r["dim"], r["m"]) == (kind.value, dim, m)),
                                key=lambda r: r["dof"])
                first = None
                for row in reversed(points):
                    if row["structured_s"] >= row["general_s"]:
                        break
                    first = row["dof"]
                wins.setdefault((dim, m), []).append(first)
    smallest = {key: None if None in firsts else max(firsts) for key, firsts in wins.items()}
    steps = {}
    for dim in COLUMN_SIDES:
        rising, floor = [], 0
        for m in COLUMN_COUNTS:
            if smallest[(dim, m)] is None:
                break
            floor = max(floor, smallest[(dim, m)])
            rising.append([m, floor])
        # a step whose size the next one repeats is covered by it
        steps[str(dim)] = [step for step, after in zip(rising, rising[1:] + [None])
                           if after is None or after[1] != step[1]]
    return {"structured_min_dof": steps,
            "smallest_structured_win": {f"{dim}D m={m}": dof
                                        for (dim, m), dof in sorted(smallest.items())}}


def pooled_columns(runs: list[list[dict]]) -> dict:
    """Per-size medians over the runs and the structured region they give."""
    timings = [{key: first[key] for key in ("kind", "dim", "dof", "m")}
               | {"structured_s": [run[i]["structured_s"] for run in runs],
                  "general_s": [run[i]["general_s"] for run in runs]}
               for i, first in enumerate(runs[0])]
    medians = [{**row, "structured_s": statistics.median(row["structured_s"]),
                "general_s": statistics.median(row["general_s"])} for row in timings]
    return {**structured_rule(medians),
            "per_run": [structured_rule(run)["structured_min_dof"] for run in runs],
            "timings": timings}


def crossover(rows: list[dict]) -> dict:
    """Per-series last dense win and first structured win, and the cutoff they imply."""
    series = {}
    for row in rows:
        series.setdefault(f"{row['kind']} {row['dim']}D", []).append(row)
    per_series = {}
    for name, points in series.items():
        points = sorted(points, key=lambda r: r["dof"])
        first_structured = next(
            (r["dof"] for r in points if r["structured_s"] < r["dense_s"]), None)
        dense_wins = [r["dof"] for r in points
                      if first_structured is None or r["dof"] < first_structured]
        per_series[name] = {"last_dense_win": max(dense_wins, default=None),
                            "first_structured_win": first_structured}
    last_dense = [s["last_dense_win"] for s in per_series.values()]
    first_structured = [s["first_structured_win"] for s in per_series.values()
                        if s["first_structured_win"] is not None]
    return {
        "recommended_cutoff": None if None in last_dense else min(last_dense),
        "first_structured_win": min(first_structured, default=None),
        "series": per_series,
    }


def pooled(runs: list[list[dict]]) -> dict:
    """Per-size medians over the runs, the cutoff they give, and the band of all runs."""
    timings = [{"kind": first["kind"], "dim": first["dim"], "dof": first["dof"],
                "dense_s": [run[i]["dense_s"] for run in runs],
                "structured_s": [run[i]["structured_s"] for run in runs]}
               for i, first in enumerate(runs[0])]
    medians = [{**row, "dense_s": statistics.median(row["dense_s"]),
                "structured_s": statistics.median(row["structured_s"])} for row in timings]
    per_run = [crossover(run) for run in runs]
    lows = [r["recommended_cutoff"] for r in per_run]
    highs = [r["first_structured_win"] for r in per_run]
    return {
        **crossover(medians),
        "band": [None if None in lows else min(lows),
                 None if None in highs else max(highs)],
        "per_run": [{key: r[key] for key in ("recommended_cutoff", "first_structured_win")}
                    for r in per_run],
        "timings": timings,
    }


def _perfbench_summary(path: Path, metrics: tuple[str, ...]) -> dict:
    results = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    out = {"runs": len(results), "correct": all(r["correct"] for r in results)}
    for name in metrics:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"values": values, "median": median, "q1": q1, "q3": q3}
    return out


def perfbench_pairs(parent_path: Path, change_path: Path,
                    metrics: tuple[str, ...] = ("wall_s", "peak_rss_mb", "ok_ratio")) -> dict:
    """Median and quartiles of each metric on both sides, and the pairs won on wall_s.

    Each file holds the final JSON line of `perfbench/run.py` runs, line i
    of both files being one pair of runs (same seed).
    """
    parent, change = (_perfbench_summary(path, metrics) for path in (parent_path, change_path))
    wins = sum(c < p for p, c in zip(parent["wall_s"]["values"], change["wall_s"]["values"]))
    return {"parent": parent, "change": change,
            "change_wall_s_wins": f"{wins} of {parent['runs']} pairs"}


def machine_facts() -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_dense_cutoff.json")
    parser.add_argument("--battery-2d", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.battery_2d:
        result = json.loads(args.out.read_text())
        result["battery_2d"] = {"dense_cutoff": eigensolve.DENSE_CUTOFF,
                                **perfbench_pairs(*args.battery_2d)}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        return 0
    runs = []
    for index in range(RUNS):
        print(f"# run {index + 1} of {RUNS}", flush=True)
        runs.append(sweep())
    column_runs = []
    for index in range(COLUMN_RUNS):
        print(f"# structured region: run {index + 1} of {COLUMN_RUNS}", flush=True)
        column_runs.append(sweep_columns())
    result = {
        "what": f"seconds of solve_problem(m={M}) at degree 0, block forced dense and "
                f"forced structured; per size, the best of {REPEATS} in each of {RUNS} runs",
        "rule": "recommended_cutoff: on per-size medians over the runs, the largest size "
                "before the first structured win, minimised over the series; band: from the "
                "smallest single-run recommendation to the largest single-run first "
                "structured win",
        "repeats": REPEATS,
        "runs": RUNS,
        "m": M,
        "machine": machine_facts(),
        **pooled(runs),
        "structured_region": {
            "what": "seconds of the structured solve and of solve_pencil (sparse) on one "
                    f"degree-0 block per size, for m in {list(COLUMN_COUNTS)}; per size and m, "
                    f"the best of {REPEATS} in each of {COLUMN_RUNS} runs",
            "rule": "per (kind, dim, m), on per-size medians: the smallest size from which "
                    "the structured solve wins at every larger size; per (dim, m) the largest "
                    "over the kinds (none if a kind has none); structured_min_dof: these "
                    "sizes raised to rise with m, up to the first m with none",
            "runs": COLUMN_RUNS,
            **pooled_columns(column_runs),
        },
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"# recommended cutoff {result['recommended_cutoff']}, band {result['band']},"
          f" DENSE_CUTOFF {eigensolve.DENSE_CUTOFF}; structured_min_dof "
          f"{result['structured_region']['structured_min_dof']}; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
