"""Time the start-up and the CLI commands of two checkouts in fresh interpreters.

Usage (from the repository root):

    python3 bench/startup.py --parent-src PARENT/src [--pairs N]
        [--perfbench WORKLOAD PARENT.jsonl CHANGE.jsonl]... [--out BENCH_startup.json]

Runs N interleaved pairs (the parent first in even pairs, this checkout
first in odd ones).  Each pair times, on both sides, a fresh interpreter
that imports `hodge_spectra.cli` and stops, and then each command of the
README's "Command line" block and of the perfbench workloads at seed 0,
run once as a fresh interpreter equivalent to `python -m hodge_spectra`
(BLAS on one thread through HODGE_SPECTRA_THREADS).  Per command it
records the wall time of the whole child process (interpreter start
included) on both sides, the child's own import time of `hodge_spectra.cli`,
its exit code, which of scipy.sparse, scipy.linalg and scipy.sparse.linalg
it had loaded when it ended, and in how many pairs the change was faster.
--perfbench adds, per workload, the results of `perfbench/run.py
--workload WORKLOAD --seed N --seconds 10 --trace 0` at the parent commit
and at the change (the final JSON line of each run, one line per seed, line
i of both files being one pair), as bench/structured.py does.  The machine
facts (cores, BLAS threads, numpy and scipy versions) are recorded too.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # before numpy loads BLAS; only when run as a script
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCIPY_PARTS = ("scipy.sparse", "scipy.linalg", "scipy.sparse.linalg")
PERFBENCH_METRICS = ("wall_s", "setup_s", "peak_rss_mb", "ok_ratio")
PROBE = f"""
import json, sys, time
start = time.perf_counter()
import hodge_spectra.cli as cli
import_s = time.perf_counter() - start
code = cli.run(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({{"import_s": import_s, "exit_code": code,
                  "scipy": [m for m in {SCIPY_PARTS!r} if m in sys.modules]}}))
"""
IMPORT_ONLY = "import hodge_spectra.cli"


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


def run_once(src: Path, argv: list[str], workdir: Path) -> dict:
    """One fresh interpreter: its wall time, import time, exit code and scipy modules."""
    env = {**os.environ, "PYTHONPATH": str(src), "HODGE_SPECTRA_THREADS": "1"}
    out = ["--out", str(workdir / "report")] if argv else []
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv, *out], env=env,
                          capture_output=True, text=True, cwd=workdir)
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv) or IMPORT_ONLY} failed at {src}:\n{proc.stderr}")
    return {"wall_s": wall_s, **json.loads(proc.stdout.strip().splitlines()[-1])}


def _summary(runs: list[dict]) -> dict:
    out = {}
    for name in ("wall_s", "import_s"):
        values = [run[name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3, "values": values}
    out["exit_codes"] = sorted({run["exit_code"] for run in runs})
    out["scipy_loaded"] = sorted({m for run in runs for m in run["scipy"]})
    return out


def measure(parent_src: Path, pairs: int) -> dict:
    sides = {"parent": parent_src.resolve(), "change": (ROOT / "src").resolve()}
    commands = [[]]
    for argv in readme_commands() + perfbench_commands():
        argv = _without_out(argv)
        if argv not in commands:
            commands.append(argv)
    runs = {" ".join(argv) or IMPORT_ONLY: {side: [] for side in sides} for argv in commands}
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(pairs):
            print(f"# pair {index + 1} of {pairs}", flush=True)
            order = list(sides) if index % 2 == 0 else list(reversed(sides))
            for argv in commands:
                for side in order:
                    runs[" ".join(argv) or IMPORT_ONLY][side].append(
                        run_once(sides[side], argv, Path(tmp)))
    table = {}
    for label, by_side in runs.items():
        row = {side: _summary(side_runs) for side, side_runs in by_side.items()}
        wins = sum(c["wall_s"] < p["wall_s"]
                   for p, c in zip(by_side["parent"], by_side["change"]))
        row["change_wall_s_wins"] = f"{wins} of {pairs} pairs"
        table[label] = row
        print(f"# {label[:72]:72s} {row['parent']['wall_s']['median']:7.3f} -> "
              f"{row['change']['wall_s']['median']:7.3f} s  {row['change']['scipy_loaded']}",
              flush=True)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--perfbench", nargs=3, action="append", default=[],
                        metavar=("WORKLOAD", "PARENT", "CHANGE"))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_startup.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    # imported here: crossover puts this checkout's hodge_spectra on sys.path
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from crossover import machine_facts, perfbench_pairs

    result = {
        "what": "wall seconds of fresh interpreters, whole child process: importing "
                "hodge_spectra.cli alone, and each README and perfbench (seed 0) command; "
                f"{args.pairs} interleaved parent/change pairs",
        "machine": machine_facts(),
        "commands": measure(args.parent_src, args.pairs),
        "perfbench": {workload: perfbench_pairs(Path(p), Path(c), PERFBENCH_METRICS)
                      for workload, p, c in args.perfbench},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
