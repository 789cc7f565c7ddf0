"""The package's record types: construction, validation, frozenness, equality,
hashing and repr, and the report fields built from `RunConfig`."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from hodge_spectra import DEFAULT_TOL, ProblemKind
from hodge_spectra.bessel import BallSpectrum, BesselOrder, ZeroBracket
from hodge_spectra.checks import ConstantsBundle, InequalityCheck, InequalityReport, SpectrumSet
from hodge_spectra.cli import RunConfig, run
from hodge_spectra.discretize import (BoxDomain, ComponentBlock, ComponentIndex, FormProblem,
                                      assemble, build_domain)
from hodge_spectra.eigensolve import Spectrum, _AxisPencil
from hodge_spectra.verify import ConvergenceStudy

_DOMAIN = (2, (1.0, 2.0), (3, 5), (0.25, 1 / 3))


def _blocks():
    return assemble(build_domain(2, [1.0, 1.0], [5, 5]), 1, ProblemKind.CLAMPED_PLATE)


def test_construction_by_position_and_by_keyword_with_defaults():
    assert BoxDomain(*_DOMAIN) == BoxDomain(dim=2, extent=(1.0, 2.0), cells=(3, 5),
                                            spacing=(0.25, 1 / 3))
    cfg = RunConfig("box")
    assert (cfg.count, cfg.tol, cfg.degree, cfg.out) == (4, DEFAULT_TOL, None, "-")
    assert RunConfig.count == 4 and RunConfig.tol == DEFAULT_TOL
    assert RunConfig("box", 2, count=9) == RunConfig(command="box", dim=2, count=9)
    check = InequalityCheck("c", "<", 1.0, 2.0, 1.0, "pass")
    assert (check.provenance, check.tolerance, check.note) == ((), 0.0, "")
    problem = _blocks()
    block = problem.blocks[0]
    assert block.kernel_dim == 0
    assert ComponentBlock(block.component, block.offset, block.size, block.signature,
                          block.domain) == block
    assert FormProblem(problem.domain, problem.degree, problem.kind, problem.dof_count,
                       problem.blocks) == problem
    spectrum = Spectrum("k", 1, [1, 2], [0, 0], [0, 0])
    assert spectrum.vectors is None and spectrum.deflated_kernel_dim == 0
    assert spectrum.values == (1.0, 2.0)
    assert all(type(value) is float for value in spectrum.values)


def test_default_factories_give_each_record_its_own_container():
    first, second = InequalityReport(), InequalityReport()
    first.checks.append(InequalityCheck("c", "<", None, None, None, "skipped"))
    assert second.checks == []
    one, other = SpectrumSet(2), SpectrumSet(dim=2)
    one.error_estimates["k", 0] = 1.0
    assert other.spectra == other.error_estimates == {} and other.ball is None
    # a container passed in is kept, not copied
    checks = []
    assert InequalityReport(checks).checks is checks


@pytest.mark.parametrize("build,match", [
    (lambda: BoxDomain(4, (1.0,) * 4, (3,) * 4, (0.25,) * 4), "dim must be in"),
    (lambda: BoxDomain(2, (1.0,), (3, 3), (0.25, 0.25)), "extent must have length 2"),
    (lambda: BoxDomain(1, (-1.0,), (3,), (0.25,)), "positive and finite"),
    (lambda: BoxDomain(1, (1.0,), (2,), (1 / 3,)), "at least 3 interior nodes"),
    (lambda: BoxDomain(1, (1e300,), (3,), (2.5e299,)), "out of range"),
    (lambda: ComponentIndex(1, (0,)), "1-based"),
    (lambda: Spectrum(None, None, [1.0], [0.0, 0.0], [0.0]), "must align"),
    (lambda: Spectrum(None, None, [2.0, 1.0], [0.0, 0.0], [0.0, 0.0]), "sorted ascending"),
    (lambda: Spectrum(None, None, [1.0], [0.0], [-1.0]), "finite and >= 0"),
    (lambda: Spectrum(None, None, [0.0], [0.0], [0.0], deflated_kernel_dim=1),
     "strictly positive"),
    (lambda: BesselOrder(True), "must be an integer"),
    (lambda: BesselOrder(-1), "order must be >= 0"),
    (lambda: ZeroBracket(1.0, 1.1, 0.5, 0.5), "sign change"),
    (lambda: BallSpectrum(1, 1.0, 1.0, 2.0, 3.0), "dim must be >= 2"),
    (lambda: BallSpectrum(2, 1.0, 5.0, 10.0, 101.0), "chain violated"),
])
def test_validation_errors(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def _frozen_records():
    problem = _blocks()
    return [
        BoxDomain(*_DOMAIN), ComponentIndex(1, (2,)), problem.blocks[0], problem,
        ConvergenceStudy("s", (3, 7, 15), (1.0, 2.0, 3.0), 4.0, 2.0),
        ConstantsBundle(4, 2, 1.0, 4.5, 6.0, 6.0, 36.0),
        InequalityCheck("c", "<=", 1.0, 2.0, 1.0, "pass", ("a",)),
        BesselOrder(3), ZeroBracket(1.0, 1.1, -0.5, 0.5),
        BallSpectrum(2, 1.0, 5.0, 10.0, 99.0), _AxisPencil.of(problem.blocks[0]),
    ]


@pytest.mark.parametrize("record", _frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment_and_deletion(record):
    name = record._fields[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match="cannot assign"):
        record.unknown = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert getattr(record, name) is value


def test_cached_properties_of_frozen_records_are_computed_once():
    block = _blocks().blocks[0]
    assert block.axis_terms is block.axis_terms
    pencil = _AxisPencil.of(block)
    assert pencil.shape == (5, 5) and pencil.size == 25


@pytest.mark.parametrize("make", [
    lambda: BoxDomain(*_DOMAIN), lambda: ComponentIndex(2, (1, 3)), lambda: BesselOrder(5),
    lambda: ConvergenceStudy("s", (3, 7, 15), (1.0, 2.0, 3.0), 4.0, 2.0),
    lambda: InequalityCheck("c", "<=", 1.0, 2.0, 1.0, "pass", ("a",)),
    lambda: _blocks().blocks[0], _blocks,
], ids=["BoxDomain", "ComponentIndex", "BesselOrder", "ConvergenceStudy", "InequalityCheck",
        "ComponentBlock", "FormProblem"])
def test_frozen_records_are_equal_and_hashed_by_their_fields(make):
    one, other = make(), make()
    assert one is not other and one == other and hash(one) == hash(other)
    assert len({one, other}) == 1
    assert one != tuple(getattr(one, name) for name in one._fields)


def test_records_of_different_fields_or_types_differ():
    assert ComponentIndex(1, (1,)) != ComponentIndex(1, (2,))
    assert BesselOrder(1) != BesselOrder(2)
    assert BoxDomain(*_DOMAIN) != BoxDomain(1, (1.0,), (3,), (0.25,))
    # the axis pencil holds arrays, so it is compared and hashed as an object
    block = _blocks().blocks[0]
    one, other = _AxisPencil.of(block), _AxisPencil.of(block)
    assert one != other and one == one and hash(one) != hash(other)


@pytest.mark.parametrize("record", [
    RunConfig("box"), Spectrum(None, None, [1.0], [0.0], [0.0]), InequalityReport(),
    SpectrumSet(2)], ids=lambda r: type(r).__name__)
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


def test_mutable_records_accept_assignment_and_are_equal_by_fields():
    cfg = RunConfig("box")
    cfg.count = 7
    assert cfg == RunConfig("box", count=7) and cfg != RunConfig("box")
    assert InequalityReport() == InequalityReport([]) != InequalityReport([None])
    assert SpectrumSet(2) == SpectrumSet(2, {}, None, {}) != SpectrumSet(3)


def test_repr_names_the_type_and_its_fields_in_order():
    assert repr(ComponentIndex(1, (2,))) == "ComponentIndex(degree=1, axes=(2,))"
    assert repr(BesselOrder(3)) == "BesselOrder(twice_order=3)"
    assert repr(InequalityReport()) == "InequalityReport(checks=[])"
    assert repr(RunConfig("ball")).startswith("RunConfig(command='ball', dim=0, extent=(), ")
    assert repr(SpectrumSet(2)) == "SpectrumSet(dim=2, spectra={}, ball=None, error_estimates={})"


def test_report_meta_keeps_the_python_version_and_the_config_order(tmp_path):
    out = tmp_path / "report.json"
    assert run(["constants", "--dim", "4", "--degree", "2", "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["versions"]["python"] == platform.python_version()
    assert list(meta["config"]) == list(RunConfig._fields)
    assert meta["config"]["extent"] == [] and meta["config"]["degree"] == 2


def test_no_module_of_the_package_imports_dataclasses():
    modules = ("cli", "discretize", "verify", "checks", "bessel", "separable", "blockwise",
               "eigensolve")
    probe = "; ".join(f"import hodge_spectra.{name}" for name in modules)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get(
        "PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", f"{probe}; import sys; "
                           "print('dataclasses' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
