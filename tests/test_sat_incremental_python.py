"""The incremental-session suite again, on the pure-Python kernel.

``test_sat_incremental`` runs on the kernel this process built (native
whenever a C compiler exists); this module repeats every one of its tests
with the Python fallback kernel forced, so both kernels stay covered.
The suite is loaded as a fresh module so its hypothesis tests are new
function objects here, not the same ones run from two classes.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.sat.pykernel import PythonKernel
from sat_lockstep import use_kernel

_spec = importlib.util.spec_from_file_location(
    "sat_incremental_on_python", Path(__file__).with_name("test_sat_incremental.py")
)
_suite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_suite)
globals().update(
    {name: obj for name, obj in vars(_suite).items() if name.startswith("Test")}
)


@pytest.fixture(autouse=True)
def python_kernel():
    with use_kernel(PythonKernel):
        yield
