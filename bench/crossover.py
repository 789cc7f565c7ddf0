"""Measure where the block eigensolver's sparse path overtakes its dense path.

Usage (from the repository root):

    python3 bench/crossover.py [--out BENCH_dense_cutoff.json]
        [--battery-2d PARENT.jsonl CHANGE.jsonl]

For each fourth-order problem kind at degree 0 (one block per problem), in
2D and 3D, `solve_problem(problem, m=4)` is timed with the block forced
down the dense path (DENSE_CUTOFF at the block size) and forced down the
sparse path (DENSE_CUTOFF = 0), best of REPEATS, on cubic grids of about 50
to about 2400 dof.  The second-order kinds are not swept: their blocks take
the separable solve, which never reaches DENSE_CUTOFF.  BLAS runs on one
thread.  The dense and sparse runs alternate, so that a slow stretch of a
shared machine hits both.  The whole sweep is made RUNS times, and every
run is recorded.

Near the crossover both paths take a few milliseconds, so one sweep's
answer moves with machine noise.  The recommended cutoff therefore comes
from the per-size median over the runs: for each (kind, dim) series, its
last size before the first sparse win, minimised over the series.  The
crossover band spans what the runs say separately: from the smallest
cutoff any single run recommends to the largest size at which some run
first sees a sparse win in some series.

--battery-2d is the second step, taken after DENSE_CUTOFF has been set
from the first: it takes two files of `perfbench/run.py --workload
battery-2d` results, the final JSON line of output of each run, from the
parent commit and from the change.  It adds their wall_s, peak_rss_mb and
ok_ratio to the existing --out file and leaves its timings as they are.
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
# the kinds whose blocks reach the dense/sparse dispatch
KINDS = tuple(kind for kind in ProblemKind if kind.is_fourth_order)
# block side lengths: side**dim runs from 49 to 2401 dof in 2D, 125 to 2197 in 3D
SIDES = {
    2: (7, 9, 11, 13, 15, 17, 19, 21, 25, 29, 35, 41, 49),
    3: (5, 6, 7, 8, 9, 10, 11, 13),
}


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
    """One run: best-of-REPEATS dense and sparse seconds for every series and size."""
    rows = []
    for dim, sides in SIDES.items():
        for kind in KINDS:
            for side in sides:
                problem = _problem(kind, dim, side)
                (size,) = (block.size for block in problem.blocks)
                dense, sparse = [], []
                for _ in range(REPEATS):
                    dense.append(_time_solve(problem, size))
                    sparse.append(_time_solve(problem, 0))
                rows.append({"kind": kind.value, "dim": dim, "dof": size,
                             "dense_s": min(dense), "sparse_s": min(sparse)})
                print(f"# {kind.value:18s} {dim}D {size:5d} dof  dense {min(dense):8.4f} s"
                      f"  sparse {min(sparse):8.4f} s", flush=True)
    return rows


def crossover(rows: list[dict]) -> dict:
    """Per-series last dense win and first sparse win, and the cutoff they imply."""
    series = {}
    for row in rows:
        series.setdefault(f"{row['kind']} {row['dim']}D", []).append(row)
    per_series = {}
    for name, points in series.items():
        points = sorted(points, key=lambda r: r["dof"])
        first_sparse = next((r["dof"] for r in points if r["sparse_s"] < r["dense_s"]), None)
        dense_wins = [r["dof"] for r in points
                      if first_sparse is None or r["dof"] < first_sparse]
        per_series[name] = {"last_dense_win": max(dense_wins, default=None),
                            "first_sparse_win": first_sparse}
    last_dense = [s["last_dense_win"] for s in per_series.values()]
    first_sparse = [s["first_sparse_win"] for s in per_series.values()
                    if s["first_sparse_win"] is not None]
    return {
        "recommended_cutoff": None if None in last_dense else min(last_dense),
        "first_sparse_win": min(first_sparse, default=None),
        "series": per_series,
    }


def pooled(runs: list[list[dict]]) -> dict:
    """Per-size medians over the runs, the cutoff they give, and the band of all runs."""
    timings = [{"kind": first["kind"], "dim": first["dim"], "dof": first["dof"],
                "dense_s": [run[i]["dense_s"] for run in runs],
                "sparse_s": [run[i]["sparse_s"] for run in runs]}
               for i, first in enumerate(runs[0])]
    medians = [{**row, "dense_s": statistics.median(row["dense_s"]),
                "sparse_s": statistics.median(row["sparse_s"])} for row in timings]
    per_run = [crossover(run) for run in runs]
    lows = [r["recommended_cutoff"] for r in per_run]
    highs = [r["first_sparse_win"] for r in per_run]
    return {
        **crossover(medians),
        "band": [None if None in lows else min(lows),
                 None if None in highs else max(highs)],
        "per_run": [{key: r[key] for key in ("recommended_cutoff", "first_sparse_win")}
                    for r in per_run],
        "timings": timings,
    }


def _battery(path: Path) -> dict:
    results = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    out = {"runs": len(results), "correct": all(r["correct"] for r in results)}
    for name in ("wall_s", "peak_rss_mb", "ok_ratio"):
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"values": values, "median": median, "q1": q1, "q3": q3}
    return out


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
        parent, change = (_battery(path) for path in args.battery_2d)
        # line i of both files is one pair of runs (same seed)
        wins = sum(c < p for p, c in zip(parent["wall_s"]["values"], change["wall_s"]["values"]))
        result["battery_2d"] = {"dense_cutoff": eigensolve.DENSE_CUTOFF,
                                "parent": parent, "change": change,
                                "change_wall_s_wins": f"{wins} of {parent['runs']} pairs"}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        return 0
    runs = []
    for index in range(RUNS):
        print(f"# run {index + 1} of {RUNS}", flush=True)
        runs.append(sweep())
    result = {
        "what": f"seconds of solve_problem(m={M}) at degree 0, block forced dense and "
                f"forced sparse; per size, the best of {REPEATS} in each of {RUNS} runs",
        "rule": "recommended_cutoff: on per-size medians over the runs, the largest size "
                "before the first sparse win, minimised over the series; band: from the "
                "smallest single-run recommendation to the largest single-run first "
                "sparse win",
        "repeats": REPEATS,
        "runs": RUNS,
        "m": M,
        "machine": machine_facts(),
        **pooled(runs),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"# recommended cutoff {result['recommended_cutoff']}, band {result['band']},"
          f" DENSE_CUTOFF {eigensolve.DENSE_CUTOFF}; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
