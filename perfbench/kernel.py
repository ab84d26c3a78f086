"""The calibration kernel that end-to-end times are expressed in.

The shared 2-core machine this benchmark was sized on changes speed by up
to 40 % for minutes at a time, for the program and for any other Python
code alike: laws-acceptance, on identical inputs, ran at 456 to 790 cases/s
within one set of runs.  Raw times therefore cannot be compared between
runs.  The runner times this kernel, which does not use initsyn, in the
same process as the operations (four times per pass, and once in each
set-up child), and reports each end-to-end time as it would read on a
machine where one kernel run takes ``KERNEL_REF_S``.  The raw figures are
printed next to them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

KERNEL_REF_S = 0.15
KERNEL_LEAVES = 16_384


@dataclass(frozen=True, slots=True)
class _Cell:
    tag: int
    kids: tuple


def _rebuild(cell: _Cell) -> _Cell:
    return _Cell(cell.tag, tuple(_rebuild(k) for k in cell.kids))


def kernel_time() -> float:
    """Seconds for one run: build, copy and compare a tree of frozen
    dataclass nodes, the kind of work the program does on terms, with a
    working set of a few megabytes as the workloads have."""
    start = time.perf_counter()
    level = [_Cell(i, ()) for i in range(KERNEL_LEAVES)]
    while len(level) > 1:
        level = [_Cell(i, pair) for i, pair in enumerate(zip(level[::2], level[1::2]))]
    if _rebuild(level[0]) != level[0]:
        raise AssertionError("calibration kernel miscomputed")
    return time.perf_counter() - start
