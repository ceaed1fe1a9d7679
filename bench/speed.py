"""The machine's current speed, read from a fixed reference computation.

On a shared host the processor's effective speed drifts by tens of
percent over minutes (other tenants' load on the same cores and caches),
and CPU time drifts with it, so no clock of this process is free of it.
The benchmark therefore runs a fixed reference computation between the
program's operations and reports every time scaled to the speed at which
the reference takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / (mean of the reference times around it)

The reference mixes the three kinds of work the program does: interpreted
Python, numpy calls on small arrays, and a dense symmetric
eigendecomposition.  It does not import thermologic, so no change to the
program can change it.

Where each operation is a new interpreter (the ``cli`` workload), the
reference is a new interpreter too: ``python3 bench/speed.py`` starts,
imports numpy and runs the reference computation once, and takes
``NOMINAL_PROCESS_S``.  Starting a process drifts with the kernel's and
the loader's work as much as with the computation's.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# About the references' median durations on the two-core Xeon host this
# benchmark was written on; only the scale of the reported figures
# depends on them.
NOMINAL_S = 0.008
NOMINAL_PROCESS_S = 0.200

_RNG = np.random.default_rng(20070209)
_SMALL = _RNG.dirichlet(np.ones(6), size=6)
_DENSE = _RNG.standard_normal((40, 40))
_DENSE = _DENSE + _DENSE.T


def reference() -> float:
    """Seconds one run of the reference computation takes now."""
    begin = time.perf_counter()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(15000):
        table[i % 97] = total
        total += (i * 0.5) % 7.0
    row = _SMALL[0]
    for _ in range(240):
        row = row @ _SMALL
        row = np.clip(row, 1e-12, None)
        total += float(np.sum(row * np.log(row)))
    for _ in range(12):
        np.linalg.eigh(_DENSE)
    return time.perf_counter() - begin


def reference_process(env: dict) -> float:
    """Seconds a new interpreter takes to import numpy and run the reference once."""
    begin = time.perf_counter()
    subprocess.run([sys.executable, __file__], env=env, check=True, timeout=60)
    return time.perf_counter() - begin


def factor(samples: list[float], nominal: float = NOMINAL_S) -> float:
    """Scale from measured seconds to seconds at the nominal speed."""
    return nominal / statistics.median(samples)


def current_factor(repeats: int = 9) -> float:
    """The scale now, from ``repeats`` runs of the reference."""
    return factor([reference() for _ in range(repeats)])


if __name__ == "__main__":
    reference()
