"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores other tenants share, the speed of the same code
drifts by a quarter or more over minutes, and every timing moves with
it.  A fixed loop of numpy arithmetic that does not touch harmap is
timed next to each measurement.  A raw time ``t`` measured while the
loop took ``c`` seconds is reported as ``t * REFERENCE_S / c``: the time
the work takes on the host in the state where the loop takes
``REFERENCE_S``.  A change to harmap moves the raw time and not ``c``,
so it shows in full; a change of host speed moves both and cancels.

The loop is the Horner evaluation that dominates harmap's own time: an
order-64 series over 11 x 256 points, 20 times.  It must never change,
or calibrated times before and after the change are not comparable.

Set-up times are calibrated the same way against a reference set-up
instead: a fresh interpreter that imports numpy and the scipy modules
harmap imports, but not harmap.  Most of a set-up is interpreter
start-up and those imports, whose speed follows the file system and the
memory of the host more than its arithmetic, so the numpy loop tracks it
poorly.  A set-up time ``t`` measured next to a reference set-up of
``c`` seconds is reported as ``t * REFERENCE_SETUP_S / c``.  The
reference must never change either.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

#: loop time that calibrated timings are scaled to (seconds)
REFERENCE_S = 0.006
#: reference set-up time that calibrated set-up times are scaled to (seconds)
REFERENCE_SETUP_S = 0.6
_REFERENCE_SETUP = [sys.executable, "-c", "import numpy, scipy.special, scipy.integrate"]

_Z = 0.9 * np.exp(2j * np.pi * np.arange(11 * 256) / (11 * 256))
_COEFFS = (np.arange(1, 65, dtype=np.float64) ** -2).astype(np.complex128)[::-1]


def _loop() -> float:
    start = perf_counter()
    for _ in range(20):
        acc = np.zeros_like(_Z)
        for c in _COEFFS:
            acc = acc * _Z + c
    return perf_counter() - start


def loop_time(repeats: int = 3) -> float:
    """Median time of the calibration loop now."""
    return statistics.median(_loop() for _ in range(repeats))


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two loop timings."""
    return REFERENCE_S / (0.5 * (before + after))


def setup_reference_time() -> float:
    """Wall time of one reference set-up in a fresh interpreter."""
    start = perf_counter()
    subprocess.run(_REFERENCE_SETUP, check=True, capture_output=True, timeout=120)
    return perf_counter() - start


def setup_factor(reference: float) -> float:
    """Scale for a set-up time measured next to a reference set-up."""
    return REFERENCE_SETUP_S / reference
