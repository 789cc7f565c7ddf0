"""Measure where the fourth-order routes overtake one another.

Usage (from the repository root):

    python3 bench/crossover.py [--out BENCH_dense_cutoff.json]

Each of the COMPARISONS times two of the ROUTES on one degree-0 block per
fourth-order kind, side and m: dense against the structured solve
(threshold DENSE_CUTOFF), and the structured solve against `solve_pencil`
(no threshold).  For each block and m the two routes alternate, so that a
slow stretch of a shared machine hits both, and each keeps the best of
REPEATS solves; every comparison is made RUNS times, BLAS on one thread.
`least_cost` measures the threshold; `losses_beyond_import` checks the
structured route.  The second-order kinds take the separable solve, which
reaches neither.
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
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from compare import machine_facts  # noqa: E402
from hodge_spectra import eigensolve  # noqa: E402
from hodge_spectra.discretize import ProblemKind, assemble, build_domain  # noqa: E402

REPEATS = 3
RUNS = 5
# the kinds whose blocks reach the fourth-order routes
KINDS = tuple(kind for kind in ProblemKind if kind.is_fourth_order)
# dense cutoff: block side lengths, side**dim from 49 to 625 dof in 2D, 64
# to 729 in 3D
SIDES = {
    2: (7, 9, 11, 13, 15, 17, 19, 21, 25),
    3: (4, 5, 6, 7, 8, 9),
}
# structured route: values requested and block side lengths per dimension
# (289 to 16,129 dof in 2D, 343 to 4,913 in 3D)
COLUMN_COUNTS = (1, 4, 8, 16, 32)
COLUMN_SIDES = {
    2: (17, 23, 31, 47, 63, 127),
    3: (7, 8, 9, 11, 13, 15, 17),
}
IMPORT_SAMPLES = 9
IMPORT_PROBE = ("import time, hodge_spectra.cli; start = time.perf_counter(); "
                "import scipy.sparse.linalg; print(time.perf_counter() - start)")


# each route: the solve timed, called as solve(block, m, DEFAULT_TOL), and
# the eigensolve constants set for it
ROUTES = {
    "dense": (eigensolve._dense_block_solve, {}),
    "structured": (eigensolve._structured_solve, {}),
    "general": (lambda block, m, tol: eigensolve.solve_pencil(block.a, block.b, m, tol),
                {"DENSE_CUTOFF": 0}),
}


class Comparison(NamedTuple):
    routes: tuple[str, str]
    blocks: tuple[tuple[ProblemKind, int, int, int], ...]   # (kind, dim, side, m)
    constant: tuple[str, float]   # the eigensolve constant that picks the route, and its value


def _blocks(sides: dict, counts: tuple) -> tuple:
    return tuple((kind, dim, side, m) for dim, dim_sides in sides.items() for kind in KINDS
                 for side in dim_sides for m in counts)


COMPARISONS = {
    "dense_cutoff": Comparison(("dense", "structured"), _blocks(SIDES, (4,)),
                               ("DENSE_CUTOFF", eigensolve.DENSE_CUTOFF)),
    "structured_route": Comparison(("structured", "general"),
                                   _blocks(COLUMN_SIDES, COLUMN_COUNTS),
                                   ("STRUCTURED_MAX_M", eigensolve.STRUCTURED_MAX_M)),
}


def _seconds(route: str, block, m: int) -> float:
    """Seconds of one solve down route; a failed certificate loses."""
    solve, settings = ROUTES[route]
    saved = {name: getattr(eigensolve, name) for name in settings}
    for name, value in settings.items():
        setattr(eigensolve, name, value)
    try:
        start = time.perf_counter()
        solve(block, m, eigensolve.DEFAULT_TOL)
        return time.perf_counter() - start
    except eigensolve.NumericalFailure:
        return math.inf
    finally:
        for name, value in saved.items():
            setattr(eigensolve, name, value)


def sweep(comparison: Comparison) -> list[dict]:
    """One run: each route's best-of-REPEATS seconds for every block and m."""
    rows = []
    for kind, dim, side, m in comparison.blocks:
        (block,) = assemble(build_domain(dim, [1.0] * dim, [side] * dim), 0, kind).blocks
        seconds = {route: [] for route in comparison.routes}
        for _ in range(REPEATS):
            for route in comparison.routes:
                seconds[route].append(_seconds(route, block, m))
        rows.append({"kind": kind.value, "dim": dim, "dof": side ** dim, "m": m,
                     **{f"{route}_s": min(values) for route, values in seconds.items()}})
        print("#", json.dumps(rows[-1]), flush=True)
    return rows


def pool(runs: list[list[dict]], routes: tuple[str, ...]) -> list[dict]:
    """Each row with every run's seconds per route and their median."""
    timings = []
    for i, first in enumerate(runs[0]):
        row = dict(first)
        for route in routes:
            row[f"{route}_s"] = [run[i][f"{route}_s"] for run in runs]
            row[f"{route}_median_s"] = statistics.median(row[f"{route}_s"])
        timings.append(row)
    return timings


def _median(row: dict, route: str) -> float:
    return row[f"{route}_median_s"]


def _route(comparison: Comparison, row: dict, threshold: float) -> str:
    first, second = comparison.routes
    return second if row["dof"] > threshold else first


def _cost(comparison: Comparison, rows: list[dict], threshold: float, seconds) -> float:
    return sum(seconds(row, _route(comparison, row, threshold)) for row in rows)


def _swept(rows: list[dict]) -> list[int]:
    # the swept values, and one above them all that keeps every block on the
    # first route
    values = sorted({row["dof"] for row in rows})
    return values + [values[-1] + 1]


def _least_cost_threshold(comparison: Comparison, rows: list[dict], seconds) -> int:
    return min(_swept(rows),
               key=lambda threshold: _cost(comparison, rows, threshold, seconds))


def least_cost(comparison: Comparison, timings: list[dict]) -> dict:
    """A threshold T (DENSE_CUTOFF) sends a block down the second route when
    its dof exceeds T, and costs the summed seconds of the routes it picks.
    Recommended: the swept value of least cost on the medians (the
    smallest, on a tie).  Band: the smallest to the largest single-run
    recommendation.  The constant acts as the smallest swept value that
    routes every block as it does; its cost and the blocks whose median is
    slower on the route it picks (misrouted) are reported."""
    name, value = comparison.constant
    per_run = [_least_cost_threshold(comparison, timings,
                                     lambda row, route, i=i: row[f"{route}_s"][i])
               for i in range(len(timings[0][f"{comparison.routes[0]}_s"]))]
    acts_as = min(threshold for threshold in _swept(timings)
                  if all(_route(comparison, row, threshold) == _route(comparison, row, value)
                         for row in timings))

    def fastest(row: dict) -> float:
        return min(_median(row, route) for route in comparison.routes)

    return {
        "recommended": _least_cost_threshold(comparison, timings, _median),
        "band": [min(per_run), max(per_run)],
        "per_run": per_run,
        "acts_as": acts_as,
        "cost_s": {name: _cost(comparison, timings, value, _median),
                   "best_route_per_block": sum(fastest(row) for row in timings)},
        "misrouted": [_summary(row) for row in timings
                      if _median(row, _route(comparison, row, value)) > fastest(row)],
    }


def _summary(row: dict) -> dict:
    return {key: value for key, value in row.items() if not isinstance(value, list)}


def scipy_import_seconds() -> list[float]:
    """Seconds of importing scipy.sparse.linalg (with scipy.sparse and scipy.linalg)
    in IMPORT_SAMPLES fresh interpreters that have loaded hodge_spectra.cli."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "HODGE_SPECTRA_THREADS": "1"}
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(IMPORT_SAMPLES)]


def losses_beyond_import(timings: list[dict], import_s: list[float]) -> list[dict]:
    """The blocks whose median structured solve is slower than their median
    general one by more than the median import of scipy.sparse.linalg that
    the general route costs a command (scipy_import_seconds)."""
    import_median = statistics.median(import_s)
    return [_summary(row) for row in timings
            if _median(row, "structured") - _median(row, "general") > import_median]


def measure(section: str, comparison: Comparison) -> dict:
    runs = []
    for index in range(RUNS):
        print(f"# {section}: run {index + 1} of {RUNS}", flush=True)
        runs.append(sweep(comparison))
    timings = pool(runs, comparison.routes)
    name, value = comparison.constant
    # the dense cutoff is the one threshold on the swept blocks
    rule = least_cost if section == "dense_cutoff" else losses_beyond_import
    result = {"routes": list(comparison.routes), "rule": " ".join(rule.__doc__.split()),
              "runs": RUNS, "m": sorted({m for *_, m in comparison.blocks}),
              "constant": name, "value": value}
    if rule is least_cost:
        result.update(least_cost(comparison, timings))
    else:
        import_s = scipy_import_seconds()
        result.update(scipy_import_s={"values": import_s, "median": statistics.median(import_s)},
                      losses_beyond_import=losses_beyond_import(timings, import_s))
    result["timings"] = timings
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_dense_cutoff.json")
    args = parser.parse_args(argv)
    result = {
        "what": f"seconds of a degree-0 block down each of two routes, best of {REPEATS} "
                "per run, the routes alternating",
        "repeats": REPEATS,
        "runs": RUNS,
        "machine": machine_facts(),
        **{section: measure(section, comparison) for section, comparison in COMPARISONS.items()},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"# wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
