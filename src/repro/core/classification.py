"""GRASP classification logic (Sec. III-B of the paper).

Given the Address Bound Registers and the LLC capacity, the classifier labels
two LLC-sized sub-regions inside every registered Property Array:

* the **High Reuse Region** — the LLC-sized region at the start of the array
  (after skew-aware reordering it holds the hottest vertices);
* the **Moderate Reuse Region** — the next LLC-sized region;

and maps every LLC access to a 2-bit reuse hint:

* inside a High Reuse Region      → ``HIGH_REUSE``
* inside a Moderate Reuse Region  → ``MODERATE_REUSE``
* anywhere else (graph app)       → ``LOW_REUSE``
* ABRs not configured             → ``DEFAULT``

When an application registers more than one Property Array, the LLC capacity
is divided equally between them before the regions are sized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.cache.hints import HINT_DEFAULT, HINT_HIGH, HINT_LOW, HINT_MODERATE
from repro.core.abr import AddressBoundRegisterFile


@dataclass(frozen=True)
class _Region:
    """One classified sub-region of a Property Array."""

    start: int
    end: int
    hint: int


class GraspClassifier:
    """Comparison-based address classifier producing GRASP reuse hints.

    Parameters
    ----------
    abr_file:
        The configured Address Bound Registers.
    llc_size_bytes:
        Capacity of the LLC; determines the extent of the High and Moderate
        Reuse Regions.
    """

    def __init__(self, abr_file: AddressBoundRegisterFile, llc_size_bytes: int) -> None:
        if llc_size_bytes <= 0:
            raise ValueError("llc_size_bytes must be positive")
        self.abr_file = abr_file
        self.llc_size_bytes = llc_size_bytes
        self._regions: List[_Region] = []
        self._rebuild()

    def _rebuild(self) -> None:
        self._regions = []
        registers = self.abr_file.registers()
        if not registers:
            return
        # Divide the LLC capacity between the registered Property Arrays.
        share = max(1, self.llc_size_bytes // len(registers))
        for register in registers:
            high_end = min(register.end, register.start + share)
            moderate_end = min(register.end, high_end + share)
            self._regions.append(_Region(register.start, high_end, HINT_HIGH))
            if moderate_end > high_end:
                self._regions.append(_Region(high_end, moderate_end, HINT_MODERATE))

    @property
    def is_active(self) -> bool:
        """Whether domain-specialized classification is enabled."""
        return self.abr_file.is_configured

    def high_reuse_bytes(self) -> int:
        """Total bytes currently labelled High-Reuse (for tests and reports)."""
        return sum(r.end - r.start for r in self._regions if r.hint == HINT_HIGH)

    def regions(self) -> tuple:
        """Current classification regions as ``(start, end, hint)`` triples.

        Ordered as consulted by :meth:`classify` (first match wins); native
        kernels replicate the lookup from this table.
        """
        return tuple((r.start, r.end, r.hint) for r in self._regions)

    def classify(self, address: int) -> int:
        """Classify a single byte address into a reuse hint."""
        if not self._regions:
            return HINT_DEFAULT
        for region in self._regions:
            if region.start <= address < region.end:
                return region.hint
        return HINT_LOW

    def classify_array(self, addresses: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorised classification of many addresses at once.

        The experiment runner uses this to tag a whole LLC trace in one pass
        instead of calling :meth:`classify` per access.  The rule is
        :meth:`classify`'s (the first containing region wins), and the
        hints are uint8, like those the filter kernel writes.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if not self._regions:
            return np.full(addresses.shape, HINT_DEFAULT, dtype=np.uint8)
        hints = np.full(addresses.shape, HINT_LOW, dtype=np.uint8)
        # Written last to first, so the first containing region has the last word.
        for region in reversed(self._regions):
            hints[(addresses >= region.start) & (addresses < region.end)] = region.hint
        return hints
