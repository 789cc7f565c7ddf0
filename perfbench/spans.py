"""In-memory spans around calls into hodge-spectra's modules, and the
per-layer arithmetic over them.

A span is a dict with `name`, `start`, `end` (perf_counter seconds),
`parent` (index of the enclosing span, -1 at top level) and `attrs`
(sizes and outcomes read from the call's arguments and result).  A span's
self time is its duration minus the part of it that its child spans cover.

Which end-to-end metric each layer metric should move, on which workload:
  bessel.ball_spectrum_*             wall_s on battery-2d (the only ball user)
  discretize.assemble_*, dof, nnz    wall_s, peak_rss_mb on solve-3d
  eigensolve.blocks_requested, block_solves, block_solve_ratio
                                     wall_s on battery-2d (block reuse)
  eigensolve.eigh_*                  wall_s, peak_rss_mb on battery-2d
  eigensolve.eigsh_*, splu_*         wall_s, peak_rss_mb on solve-3d
  eigensolve.polish_factorizations (splu_calls - eigsh_calls), worst_residual
                                     wall_s, ok_ratio on fine-2d
  verify.*                           wall_s, ok_ratio on battery-2d
  cli.import_s                       setup_s on all three
  cli.emit_report_s, report_bytes    wall_s on all three (tiny)
  cli.commands, failed_commands      ok_ratio on all three
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter


class Recorder:
    """Wraps callables so that each call appends a span; counts calls by name."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name: str, describe=None):
        """Span each call of `fn`; `describe(attrs, args, result, exc)` fills attrs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else -1, "attrs": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if describe is not None:
                    describe(span["attrs"], args, None, exc)
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                describe(span["attrs"], args, result, None)
            return result

        return wrapper

    def count(self, fn, name: str):
        """Count calls of `fn` without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def _total(spans, name):
    picked = [s for s in spans if s["name"] == name]
    return len(picked), sum(s["end"] - s["start"] for s in picked)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traces of one pass of a workload.

    Each trace is one command's `{"import_s", "spans", "counts"}`.
    """
    spans, selfs, counts = [], [], Counter()
    for trace in traces:
        spans.extend(trace["spans"])
        selfs.extend(self_times(trace["spans"]))
        counts.update(trace["counts"])
    m: dict[str, float] = {}
    for layer, name in (("bessel", "ball_spectrum"), ("discretize", "assemble"),
                        ("discretize", "build_domain"), ("eigensolve", "solve_problem"),
                        ("eigensolve", "eigh"), ("eigensolve", "eigsh"),
                        ("eigensolve", "splu"), ("verify", "convergence_study")):
        m[f"{layer}.{name}_calls"], m[f"{layer}.{name}_s"] = _total(spans, name)
    for layer, name in (("verify", "box_battery"), ("verify", "check_inequalities"),
                        ("cli", "emit_report")):
        m[f"{layer}.{name}_s"] = _total(spans, name)[1]

    def attrs(name):
        return [s["attrs"] for s in spans if s["name"] == name]

    solved = attrs("solve_problem")
    m["eigensolve.self_s"] = sum(t for s, t in zip(spans, selfs) if s["name"] == "solve_problem")
    m["eigensolve.blocks_requested"] = sum(a.get("blocks", 0) for a in solved)
    m["eigensolve.block_solves"] = counts["solve_pencil"]
    m["eigensolve.block_solve_ratio"] = (
        m["eigensolve.block_solves"] / m["eigensolve.blocks_requested"]
        if m["eigensolve.blocks_requested"] else 0.0)
    m["eigensolve.polish_factorizations"] = (
        m["eigensolve.splu_calls"] - m["eigensolve.eigsh_calls"])
    m["eigensolve.worst_residual"] = max(
        (a["worst_residual"] for a in solved if "worst_residual" in a), default=0.0)
    assembled = attrs("assemble")
    m["discretize.dof"] = max((a["dof"] for a in assembled), default=0)
    m["discretize.nnz"] = max((a["nnz"] for a in assembled), default=0)
    verdicts = Counter()
    for a in attrs("check_inequalities"):
        verdicts.update(a.get("statuses", {}))
    for status in ("pass", "fail", "skipped"):
        m[f"verify.checks_{status}"] = verdicts[status]
    m["cli.import_s"] = statistics.median(t["import_s"] for t in traces) if traces else 0.0
    return m
