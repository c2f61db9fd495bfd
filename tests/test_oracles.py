"""The oracle table: each reference route shares no code with what it checks.

For every row that names a reference route, each of its forbidden names is
made to raise while the reference is on the call stack, wherever the
package binds that name, and the row is run: it must reach its reference
and still pass.
"""
import importlib
import math
import sys

import numpy as np
import pytest

from dipolebounds import oracles, quadrature

GUARDED = [row for row in oracles.ORACLES if row.reference is not None]


def _bindings(obj):
    """(module, attribute) of every package attribute bound to ``obj``."""
    return [(module, attr) for name, module in list(sys.modules.items())
            if module is not None
            and (name == "dipolebounds" or name.startswith("dipolebounds."))
            for attr, value in list(vars(module).items()) if value is obj]


def _guard(original, name, code):
    def guarded(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is code:
                raise AssertionError(f"the reference route reached {name}")
            frame = frame.f_back
        return original(*args, **kwargs)
    return guarded


def _run_guarded(row, monkeypatch):
    """Run ``row`` with its forbidden names guarded; returns the result and
    how often the reference was called."""
    code = row.reference.__code__
    for name in row.forbidden:
        module_name, attr = name.rsplit(".", 1)
        module = importlib.import_module(f"dipolebounds.{module_name}")
        assert hasattr(module, attr), f"forbidden name {name} does not exist"
        original = getattr(module, attr)
        for owner, alias in _bindings(original):
            monkeypatch.setattr(owner, alias, _guard(original, name, code))
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return row.reference(*args, **kwargs)

    for owner, alias in _bindings(row.reference):
        monkeypatch.setattr(owner, alias, counted)
    return oracles.run(row), len(calls)


def test_the_numerical_references_are_named():
    assert [row.name for row in GUARDED] == [
        "sokhotski_plemelj_limit", "f2_dense_grid",
        "fd_vs_analytic_chi_gradient", "fd_vs_analytic_position_gradient",
        "poisson_likelihood_fi", "mode_integral_field",
        "transient_photon_identity"]
    assert all(row.forbidden for row in GUARDED)


@pytest.mark.parametrize("row", GUARDED, ids=[row.name for row in GUARDED])
def test_reference_shares_no_code(row, monkeypatch):
    result, calls = _run_guarded(row, monkeypatch)
    assert calls > 0, f"{row.name} never reached its reference"
    assert result.passed, result.line()


def _leaky_reference():
    # a reference that borrows the production principal value
    nodes = np.linspace(0.0, 3.0, 301)
    return quadrature.pv_integral(np.ones_like, nodes, 1.0)


def test_the_guard_catches_a_forbidden_call(monkeypatch):
    row = oracles.Oracle("leaky", 1.0, "", lambda: _leaky_reference() - 1.0,
                         _leaky_reference, ("quadrature.pv_integral",))
    assert abs(_leaky_reference() - math.log(2.0)) < 1e-6
    with pytest.raises(AssertionError, match="reached quadrature.pv_integral"):
        _run_guarded(row, monkeypatch)


def test_a_missing_forbidden_name_fails(monkeypatch):
    row = oracles.Oracle("stale", 1.0, "", lambda: 0.0, _leaky_reference,
                         ("qfi.no_such_name",))
    with pytest.raises(AssertionError, match="qfi.no_such_name does not exist"):
        _run_guarded(row, monkeypatch)
