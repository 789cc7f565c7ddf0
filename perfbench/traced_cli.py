"""Run one hodge-spectra CLI command with spans at its module boundaries.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- ARGS...

Equivalent to `python -m hodge_spectra ARGS...` (same report, same exit
code), except that public names are wrapped where the CLI and the battery
bind them (`cli` and `verify` import them with `from .x import y`), and the
LAPACK/SuperLU/ARPACK entry points are wrapped on the scipy modules through
which `eigensolve` reaches them.  Spans stay in memory and are written to
SPANS_JSON when the command ends.  The program itself is not modified.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from spans import Recorder

WRAPPED = ("build_domain", "assemble", "solve_problem", "box_battery",
           "convergence_study", "check_inequalities", "ball_spectrum", "emit_report")


def _describe_assemble(attrs, args, result, exc):
    if result is not None:
        attrs["dof"] = int(result.dof_count)
        attrs["nnz"] = int(result.A.nnz + result.B.nnz)


def _describe_solve(attrs, args, result, exc):
    attrs["blocks"] = len(args[0].blocks)
    spectrum = result if exc is None else getattr(exc, "partial", None)
    residuals = getattr(spectrum, "residuals", None)
    if residuals is not None and len(residuals):
        attrs["worst_residual"] = float(max(residuals))


def _describe_battery(attrs, args, result, exc):
    if result is not None:
        attrs["statuses"] = dict(Counter(check.status for check in result.checks))


DESCRIBE = {"assemble": _describe_assemble, "solve_problem": _describe_solve,
            "check_inequalities": _describe_battery}


def install(recorder: Recorder, cli) -> None:
    # imported here, after main() has timed the CLI's own import of them
    import scipy.linalg
    import scipy.sparse.linalg

    import hodge_spectra.eigensolve as eigensolve
    import hodge_spectra.verify as verify

    for module in (cli, verify):
        for name in WRAPPED:
            if hasattr(module, name):
                setattr(module, name,
                        recorder.wrap(getattr(module, name), name, DESCRIBE.get(name)))
    # every block that misses solve_problem's cache goes through solve_pencil
    eigensolve.solve_pencil = recorder.count(eigensolve.solve_pencil, "solve_pencil")
    scipy.linalg.eigh = recorder.wrap(scipy.linalg.eigh, "eigh")
    scipy.sparse.linalg.splu = recorder.wrap(scipy.sparse.linalg.splu, "splu")
    scipy.sparse.linalg.eigsh = recorder.wrap(scipy.sparse.linalg.eigsh, "eigsh")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, args = argv[0], argv[2:]
    start = time.perf_counter()
    import hodge_spectra.cli as cli
    import_s = time.perf_counter() - start
    recorder = Recorder()
    install(recorder, cli)
    try:
        return cli.run(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": recorder.spans,
                       "counts": dict(recorder.counts)}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
