"""Skip marks for tests that build a fast engine directly.

:data:`needs_native` skips such a test on a host where the kernel library
cannot be compiled; everything routed through the planner runs on the
scalar reference there instead.
"""

import pytest

from repro.fastsim import kernels

needs_native = pytest.mark.skipif(
    not kernels.available(), reason="no kernel library (no C compiler)"
)
