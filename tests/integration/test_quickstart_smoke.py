"""Smoke target: run ``examples/quickstart.py`` under both execution modes.

The quickstart is the README's entry point; this keeps it working end-to-end
(compile -> discover -> extract -> execute) as the codebase evolves, and
proves the interpreted and vectorized execution paths agree on it.
"""

import importlib.util
import pathlib

import pytest

_QUICKSTART = pathlib.Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"


def _load_quickstart():
    spec = importlib.util.spec_from_file_location("quickstart", _QUICKSTART)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["interpret", "vectorize", "crosscheck"])
def test_quickstart_runs_under_each_execution_mode(mode, capsys):
    quickstart = _load_quickstart()
    error = quickstart.main(execution_mode=mode)
    assert error < 1e-12
    out = capsys.readouterr().out
    assert f"execution mode      : {mode}" in out
    assert "stencil.apply" in out  # the extracted module excerpt was printed
    assert "scf.parallel" in out  # and the lowered one
