"""Shared test configuration.

The library runs without numpy (the netlist, simulation, SAT and opt
paths are stdlib-only), but the attack core does not: building a
combinational model unrolls the LFSR through the GF(2) substrate.  Tests
that exercise that path carry ``@pytest.mark.requires_numpy`` and are
skipped -- not failed -- on the numpy-less CI leg; five whole modules
(gf2, prng, analysis, seed-equivalence, solver-vs-gf2) instead use
``pytest.importorskip`` at import time.
"""

import pytest

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except Exception:  # pragma: no cover - exercised by the numpy-less CI leg
    HAVE_NUMPY = False


def pytest_collection_modifyitems(config, items):
    if HAVE_NUMPY:
        return
    skip = pytest.mark.skip(
        reason="requires numpy (combinational modeling / GF(2) substrate)"
    )
    for item in items:
        if "requires_numpy" in item.keywords:
            item.add_marker(skip)
