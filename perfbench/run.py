"""hodge-spectra benchmark: wall time of real CLI sessions, checked against oracles.

Usage (from the repository root):

    python3 perfbench/run.py --workload battery-2d --seed 0 --seconds 10 --trace 0

Load model: a closed loop with one client.  The workload's commands run one
at a time as `python -m hodge_spectra ...` child processes, each after the
previous one exits, with BLAS pinned to one thread via the program's
HODGE_SPECTRA_THREADS.  Each pass, with its children, is pinned to a
single CPU (sched_setaffinity), so the figures measure one-CPU work and
cannot show a gain from running processes or threads in parallel; the
per-pass lines of the output name the CPU.  A pass is one run of the whole
command sequence.
Passes repeat until --seconds have been spent in them; there are at least
two, and every report must be byte-identical to the first pass's.

--trace 0 prints the end-to-end metrics:
  wall_s       median seconds for one pass (the user's time to a certified
               answer)
  setup_s      median seconds for a fresh interpreter to import
               hodge_spectra.cli, sampled before every pass
  peak_rss_mb  median over passes of the largest child max-RSS
  ok_ratio     commands that succeeded / commands attempted
--trace 1 alternates untraced and traced passes (traced_cli.py) and prints
the per-layer metrics of the traced passes (medians over them, unscaled),
the tracing overhead (traced minus untraced pass time, each pass scaled by
the reference samples taken during it) and the reference time.

setup_s, and wall_s on the workloads in SCALED_WALL, are scaled to a fixed
machine speed.  On a shared 2-core VM the speed drifted by up to 1.8x over
minutes as other tenants came and went (fine-2d took 4.0 s in one hour and
7.2 s in the next), so unscaled times from runs minutes apart could not be
compared.  Before every command the benchmark times a fixed mix of the
program's kinds of work (reference.py) on the same CPU, and multiplies the
medians by REFERENCE_S over the median reference time.  Over 21 fine-2d
runs the reference and the workload's times correlated at 0.87.
battery-2d's wall_s is not scaled: its time goes to dense eigh on 3969-dof
blocks, whose working set is far larger than the reference's, and which
slowed much less than the reference when the machine was loaded.  Over
eight battery-2d runs the reference's median moved between 0.043 and
0.062 s while the unscaled wall time spread 4.6% (IQR/median); scaling
widened that spread to 20%.  In five sets of runs made over several
hours its unscaled median stayed within 24.7 to 28.2 s.  Consecutive
passes are pinned to different CPUs, whose slow stretches were nearly
independent.  The unscaled figures are printed as well.

Every result is checked (oracle.py).  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

if __name__ == "__main__":
    # the parent's own numpy (reference kernel) runs single-threaded like the
    # children; only when run as a script, so that importing this module
    # leaves the importer's environment alone
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from oracle import check_result  # noqa: E402
from reference import Reference  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Command, commands  # noqa: E402

HERE = Path(__file__).resolve().parent
THREADS = "1"
# times are reported at the machine speed where the reference mix takes this long
REFERENCE_S = 0.05
# workloads whose wall_s is scaled by the reference (see the module docstring)
SCALED_WALL = ("solve-3d", "fine-2d")
REFERENCE_SAMPLES = 3   # per command
# set-up samples are taken before every pass, so that they spread over the run
IMPORTS_PER_PASS = 2
# the whole run must end within 180 s; children still running at this point are killed
DEADLINE_S = 170.0


@dataclass
class CommandRun:
    cmd: Command
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    report: Optional[bytes] = None
    stderr: str = ""
    trace: Optional[dict] = None
    problems: list[str] = field(default_factory=list)
    failure: Optional[str] = None


@dataclass
class Pass:
    traced: bool
    cpu: int                # the one CPU the pass and its children ran on
    wall_s: float
    runs: list[CommandRun]
    refs: list[float]       # reference-mix times taken during the pass

    def scaled_wall_s(self) -> float:
        """Wall time at the machine speed where the reference mix takes REFERENCE_S."""
        return self.wall_s * REFERENCE_S / statistics.median(self.refs)


def _child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["HODGE_SPECTRA_THREADS"] = THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return env


def _spawn(argv, cwd: Path, env: dict, log: Path, deadline: float):
    """Run a child to completion (or kill it at the deadline); returns its usage."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, not ready)


def _read(path: Path, binary: bool = True):
    try:
        return path.read_bytes() if binary else path.read_text(errors="replace")
    except FileNotFoundError:
        return None


def run_pass(cmds: list[Command], traced: bool, cpu: int, work: Path, env: dict,
             deadline: float, reference: Reference) -> Pass:
    runs, refs = [], []
    for i, cmd in enumerate(cmds):
        if time.monotonic() >= deadline:
            break
        refs.extend(reference.seconds() for _ in range(REFERENCE_SAMPLES))
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), f"spans_{i}.json", "--"]
        else:
            argv = [sys.executable, "-m", "hodge_spectra"]
        rc, wall, cpu_s, rss, timed_out = _spawn(argv + cmd.argv(), work, env,
                                                 work / f"log_{i}.txt", deadline)
        runs.append(CommandRun(cmd, rc, wall, cpu_s, rss, timed_out))
    wall = sum(run.wall_s for run in runs)
    # outputs are read after the timed sequence and removed before the next pass
    for i, run in enumerate(runs):
        run.report = _read(work / run.cmd.out)
        run.stderr = _read(work / f"log_{i}.txt", binary=False) or ""
        if traced:
            spans = _read(work / f"spans_{i}.json")
            run.trace = json.loads(spans) if spans else None
        for name in (run.cmd.out, f"log_{i}.txt", f"spans_{i}.json"):
            (work / name).unlink(missing_ok=True)
    return Pass(traced, cpu, wall, runs, refs)


def check_import(env: dict, work: Path) -> None:
    """Fail unless hodge_spectra imports from this checkout (also warms caches)."""
    probe = subprocess.run(
        [sys.executable, "-c", "import hodge_spectra.cli as c; print(c.__file__)"],
        cwd=work, env=env, capture_output=True, text=True, timeout=60)
    src = Path(env["PYTHONPATH"].split(os.pathsep)[0])
    location = Path(probe.stdout.strip() or "?").resolve()
    if probe.returncode != 0 or src not in location.parents:
        raise SystemExit(f"hodge_spectra does not import from {src}: {probe.stderr.strip()}")


def time_imports(env: dict, work: Path, deadline: float) -> list[float]:
    """Fresh-interpreter wall times of `import hodge_spectra.cli`."""
    times = []
    for _ in range(IMPORTS_PER_PASS):
        rc, wall, *_ = _spawn([sys.executable, "-c", "import hodge_spectra.cli"],
                              work, env, work / "setup_log.txt", deadline)
        if rc != 0:
            raise SystemExit(f"importing hodge_spectra.cli failed with exit {rc}")
        times.append(wall)
    return times


def _git_commit(root: Path) -> str:
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def machine_facts(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": f"HODGE_SPECTRA_THREADS={THREADS}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
        "commit": _git_commit(root),
    }


def check_passes(passes: list[Pass]) -> None:
    """Set each run's `problems` (oracle and repeat mismatches) and `failure`."""
    first = [run.report for run in passes[0].runs]
    for p in passes:
        for i, run in enumerate(p.runs):
            outcome = check_result(run.cmd, run.returncode, run.report, run.stderr)
            run.problems = list(outcome.mismatches)
            if run.report != first[i]:
                run.problems.append("report is not byte-identical to the first pass's")
            run.failure = outcome.failure or (run.problems[0] if run.problems else None)
            if run.timed_out:
                run.failure = f"killed at the {DEADLINE_S:g} s deadline"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[Pass], setup: list[float], refs: list[float],
               ok_ratio: float, scale_wall: bool) -> dict:
    scale = REFERENCE_S / statistics.median(refs)
    wall = statistics.median(p.wall_s for p in passes)
    return {
        "wall_s": _metric(wall * scale if scale_wall else wall, "s"),
        "setup_s": _metric(statistics.median(setup) * scale, "s"),
        "peak_rss_mb": _metric(statistics.median(
            max(r.rss_mb for r in p.runs) for p in passes), "MB"),
        "ok_ratio": _metric(ok_ratio, "1"),
    }


def per_layer(untraced: list[Pass], traced: list[Pass], refs: list[float],
              fail_ratio: float) -> dict:
    """Medians over traced passes of the span metrics and the child counters."""
    samples: dict[str, list[float]] = {}
    for p in traced:
        values = layer_metrics([r.trace for r in p.runs if r.trace is not None])
        values["cli.cpu_s"] = sum(r.cpu_s for r in p.runs)
        values["cli.report_bytes"] = sum(len(r.report or b"") for r in p.runs)
        values["cli.commands"] = len(p.runs)
        values["cli.failed_commands"] = sum(r.failure is not None for r in p.runs)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    metrics = {name: _metric(statistics.median(vals), _unit(name))
               for name, vals in sorted(samples.items())}
    metrics["fail_ratio"] = _metric(fail_ratio, "1")
    # each pass at its own reference speed: traced and untraced passes run on different CPUs
    metrics["trace.overhead_s"] = _metric(
        statistics.median(p.scaled_wall_s() for p in traced)
        - statistics.median(p.scaled_wall_s() for p in untraced), "s")
    metrics["reference_s"] = _metric(statistics.median(refs), "s")
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_residual")):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "hodge_spectra" / "cli.py").is_file():
        print(f"error: {src}/hodge_spectra not found; run from the repository root",
              file=sys.stderr)
        return 2
    cmds = commands(args.workload, args.seed)
    env = _child_env(src)
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
        for cmd in cmds:
            print("#   python -m hodge_spectra " + " ".join(cmd.argv()))
        print("# machine " + json.dumps(machine_facts(root)))
        check_import(env, work)
        setup: list[float] = []
        passes: list[Pass] = []
        cpus = sorted(os.sched_getaffinity(0))
        reference = Reference()
        while True:
            # the reference and the children share one CPU; consecutive passes alternate
            cpu = cpus[len(passes) % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            setup.extend(time_imports(env, work, deadline))
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(cmds, traced, cpu, work, env, deadline, reference))
            if len(passes[-1].runs) < len(cmds):
                break   # deadline reached mid-pass
            enough = len(passes) >= 2 and sum(p.wall_s for p in passes) >= args.seconds
            if enough and (passes[-1].traced or not args.trace):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    complete = [p for p in passes if len(p.runs) == len(cmds)]
    refs = [t for p in passes for t in p.refs]
    check_passes(passes)
    runs = [(number, run) for number, p in enumerate(passes) for run in p.runs]
    for number, run in runs:
        where = f"pass {number} `{' '.join(run.cmd.argv())}`"
        if run.failure:
            print(f"# FAILED {where}: {run.failure}")
        for problem in run.problems:
            print(f"# MISMATCH {where}: {problem}")
    attempted = len(runs)
    failed = sum(run.failure is not None for _, run in runs)
    untraced = [p for p in complete if not p.traced]
    traced = [p for p in complete if p.traced]
    for number, p in enumerate(passes):
        print(f"# pass {number} {'traced' if p.traced else 'untraced'} on cpu {p.cpu}:"
              f" wall {p.wall_s:.3f} s"
              f" = {' + '.join(f'{r.wall_s:.3f}' for r in p.runs)},"
              f" child cpu {sum(r.cpu_s for r in p.runs):.3f} s,"
              f" reference {statistics.median(p.refs):.5f} s")
    fail_ratio = failed / attempted if attempted else 1.0
    if args.trace:
        metrics = per_layer(untraced, traced, refs, fail_ratio) if traced and untraced else {}
    else:
        metrics = (end_to_end(untraced, setup, refs, 1.0 - fail_ratio,
                              args.workload in SCALED_WALL) if untraced else {})
    if untraced:
        print(f"# reference mix: median {statistics.median(refs):.5f} s of {len(refs)};"
              f" unscaled wall {statistics.median(p.wall_s for p in untraced):.4f} s,"
              f" unscaled set-up {statistics.median(setup):.4f} s")
    for name, m in metrics.items():
        print(f"# {name:36s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({
        "correct": len(complete) == len(passes) and not any(r.problems for _, r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
