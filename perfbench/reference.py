"""Host-speed reference: a fixed kernel timed around every measurement.

On a shared host the same code runs 15-30% faster or slower, both from
one second to the next and for stretches of tens of seconds to minutes,
and all kinds of calls move together (see ``STEADINESS.md``).  The long
stretches outlast a run, so no statistic over one run's own samples
removes them.  The benchmark therefore times a fixed reference kernel that
uses nothing from ``repro`` -- numpy uniform draws, an inverse-CDF
``searchsorted``, ``bincount``, a small matrix product and a short
pure-Python loop -- right before and right after each stretch of ops,
and reports every time as it would read on a host where the kernel takes
``NOMINAL_S``::

    reported = measured * NOMINAL_S / mean(reading before, reading after)

(``perfbench/run.py`` converts the few long calls between stretches with
the median factor of the stretches near them.)

A change to the program moves the measured time and not the reference, so
it shows in full; a host slowdown moves both, and cancels.  The measured
times and every reading go to the run report next to the reported values.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: seconds of one :func:`kernel` call on the host the benchmark was built
#: on (2-vCPU VM, Python 3.11, numpy 2.4 on OpenBLAS); it only sets the scale
NOMINAL_S = 0.012

_SIZE = 400
_GENERATOR = np.random.default_rng(20040101)
_CDF = np.cumsum(_GENERATOR.random(_SIZE))
_CDF /= _CDF[-1]
_LEFT = _GENERATOR.random((256, _SIZE))
_RIGHT = _GENERATOR.random((_SIZE, 60))


def kernel() -> None:
    """One fixed unit of work shaped like the engine's chunk and the
    interpreter work around it."""
    draws = np.random.default_rng(7).random(100_000)
    np.bincount(np.searchsorted(_CDF, draws), minlength=_SIZE)
    _LEFT @ _RIGHT
    (_LEFT > 0.5).sum(axis=1)
    table: dict = {}
    for index in range(6000):
        table[index % 97] = table.get(index % 97, 0) + index


def reading() -> float:
    """Seconds of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostClock:
    """Host-speed readings that bracket every measured stretch of a run.

    The host's speed moves within a second as well as over minutes: the
    time of one engine call and of a kernel call next to it correlate at
    0.5-0.8 (``STEADINESS.md``).  So each stretch -- one op or a short
    group of ops -- is converted with the readings taken just before and
    just after it.
    """

    def __init__(self) -> None:
        kernel()  # the first call of a process pays one-off costs
        self.readings: List[float] = [reading()]
        self.factors: List[float] = []

    def factor(self) -> float:
        """Take a reading; return the factor for the stretch since the
        previous one, ``NOMINAL_S`` over the mean of the two."""
        self.readings.append(reading())
        self.factors.append(NOMINAL_S * 2 / (self.readings[-2] + self.readings[-1]))
        return self.factors[-1]
