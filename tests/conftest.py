"""Shared test fixtures.

Helpers the test modules import live in modules whose names are unique
across ``tests/`` and ``benchmarks/`` (:mod:`fault_harness`,
:mod:`kernel_marks`), so both directories collect in one pytest run; only
fixtures stay here.
"""

from __future__ import annotations

import pytest

from fault_harness import VirtualClock


@pytest.fixture
def memo_isolation():
    """Fresh in-memory memo tables and no disk store, before and after."""
    from repro.experiments import clear_caches, set_disk_memo

    clear_caches()
    set_disk_memo(None)
    yield
    clear_caches()
    set_disk_memo(None)


@pytest.fixture
def virtual_clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def planned(monkeypatch):
    """The schemes of every plan made, in order."""
    from repro.fastsim.plan import RoutePlanner

    made = []
    plan = RoutePlanner.plan

    def recorded(self, request):
        made.append(request.schemes)
        return plan(self, request)

    monkeypatch.setattr(RoutePlanner, "plan", recorded)
    return made
