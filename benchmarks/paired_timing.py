"""Interleaved timing pairs behind the benchmarks' ratio gates.

The streaming and fused-pipeline gates import :func:`paired_seconds` from
here.  The module's name is unique across ``tests/`` and ``benchmarks/``,
so both directories collect in one pytest run.
"""

import time


def paired_seconds(first, second, pairs, setup=None):
    """``pairs`` back-to-back timings of ``first`` and ``second``, the side
    that runs first alternating; returns their seconds as two lists.

    ``setup``, when given, runs untimed before every timed call.  A speed
    gate reads the median of the per-pair ratios, so a drift on the shared
    host that slows one draw moves both sides of its pair.
    """
    seconds = ([], [])
    for pair in range(pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            if setup is not None:
                setup()
            start = time.perf_counter()
            (first, second)[side]()
            seconds[side].append(time.perf_counter() - start)
    return seconds
