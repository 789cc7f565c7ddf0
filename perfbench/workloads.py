"""Seeded command generator for the three benchmark workloads.

Seed 0 reproduces the README/ROADMAP command lines on unit boxes exactly.
Other seeds perturb the inputs in ways that keep each command's arithmetic
work fixed, so that run-to-run spread measures the machine and not the seed:

* Box extents are scaled by an exact power of two (1/2, 1 or 2).  Every
  matrix entry then scales by a power of two, so the solver performs the
  same floating-point operations and reaches bit-identical residuals.  This
  matters for the fourth-order problems at 63^2 and 127^2, whose residuals
  sit at the rounding floor next to the default tolerance: a non-binary
  aspect change at 127^2 flips `buckling` between pass and fail (worst
  residual 9.1e-10 at 1x1, 1.007e-9 at 1x1.2), and at 63^2 it moves the
  clamped residual toward the 5e-10 polish threshold.  On the sparse 3D
  path a non-binary aspect splits the cube's degenerate eigenvalues, which
  changes the Lanczos work (absolute p=0 at 23^3: 4.0 s on the cube, 2.5 s
  on a 0.8 x 1 x 1.1 box).
* The 31^2 `verify` takes a random aspect ratio in [1, 1.5]: all of its
  blocks are solved densely (work independent of extents) and its
  residuals sit two orders of magnitude below the tolerance.
* `ball` takes a random dimension in 2..5 and radius in [0.5, 2];
  `constants` a random curvature bound gamma in [0.5, 2].
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("battery-2d", "solve-3d", "fine-2d")

SECOND_ORDER = ("dirichlet_laplace", "absolute_laplace")
FOURTH_ORDER = ("clamped_plate", "buckling")


@dataclass(frozen=True)
class Command:
    """One `python -m hodge_spectra` invocation and the report file it writes."""

    sub: str
    opts: tuple[tuple[str, str], ...]   # (flag, value); value "" marks a bare flag
    out: str

    def argv(self) -> list[str]:
        args = [self.sub]
        for flag, value in self.opts:
            args.append(f"--{flag}")
            if value:
                args.append(value)
        return args + ["--out", self.out]

    def opt(self, flag: str):
        for name, value in self.opts:
            if name == flag:
                return value
        return None

    def floats(self, flag: str) -> tuple[float, ...]:
        return tuple(float(x) for x in self.opt(flag).split(","))

    def ints(self, flag: str) -> tuple[int, ...]:
        return tuple(int(x) for x in self.opt(flag).split(","))

    @property
    def fmt(self) -> str:
        return self.opt("format") or "json"


def _num(x: float) -> str:
    return format(x, "g")


def _extent(values) -> str:
    return ",".join(_num(v) for v in values)


def _box(dim: int, extent, cells: int, problem: str, degree: int, out: str) -> Command:
    return Command("box", (
        ("dim", str(dim)), ("extent", _extent(extent)),
        ("cells", ",".join([str(cells)] * dim)), ("problem", problem),
        ("degree", str(degree)), ("count", "4")), out)


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command sequence for this seed (deterministic)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    scale = 1.0 if seed == 0 else 2.0 ** rng.choice((-1, 0, 1))

    if workload == "battery-2d":
        aspect = 1.0 if seed == 0 else round(rng.uniform(1.0, 1.5), 3)
        ball_dim = 2 if seed == 0 else rng.choice((2, 3, 4, 5))
        radius = 1.0 if seed == 0 else round(rng.uniform(0.5, 2.0), 3)
        gamma = 1.0 if seed == 0 else round(rng.uniform(0.5, 2.0), 3)
        return [
            Command("verify", (
                ("dim", "2"), ("extent", _extent((scale, scale))), ("cells", "63,63"),
                ("degrees", "0,1,2"), ("error-estimates", "")), "report.json"),
            Command("verify", (
                ("dim", "2"), ("extent", _extent((scale, scale * aspect))),
                ("cells", "31,31"), ("degrees", "0,1"), ("format", "csv")), "checks.csv"),
            Command("ball", (("dim", str(ball_dim)), ("radius", _num(radius))), "ball.json"),
            Command("constants", (("dim", "4"), ("degree", "2"), ("gamma", _num(gamma))),
                    "constants.json"),
        ]
    if workload == "solve-3d":
        extent = (scale,) * 3
        return [_box(3, extent, 23, problem, degree, f"box3d_{problem}.json")
                for problem, degree in (("clamped_plate", 0), ("buckling", 1),
                                        ("dirichlet_laplace", 1), ("absolute_laplace", 0))]
    extent = (scale,) * 2
    return [_box(2, extent, 127, problem, 0, f"box2d_{problem}.json")
            for problem in FOURTH_ORDER + SECOND_ORDER]
