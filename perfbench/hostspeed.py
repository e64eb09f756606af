"""A fixed pure-Python probe of how fast the host runs right now.

The benchmark's host is shared: its speed drifts by 20-40% in spells of
seconds to minutes, and CPU time drifts with wall time.  The benchmark
runs ``probe()`` right after every timed unit, in the same process, and
scales the unit's time by ``NOMINAL_S / probe time``.  That gives the
time the unit would take on a host where the probe takes ``NOMINAL_S``.

The probe is code of the benchmark, not of the program, so no change to
the program moves it.  It does the kind of work the program does: a
sparse product of two polynomials in three variables with Fraction
coefficients, keyed by exponent tuples in a dict.  Its input is fixed,
not drawn from the benchmark's seed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# probe time on the reference host (2 shared x86-64 vCPUs, CPython 3.11)
NOMINAL_S = 0.014
TERMS = 60


def _sparse(rng: random.Random) -> dict:
    return {
        (rng.randrange(6), rng.randrange(6), rng.randrange(6)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(TERMS)
    }


_rng = random.Random(5)
_A, _B = _sparse(_rng), _sparse(_rng)


def probe() -> float:
    """Seconds that one fixed sparse Fraction-polynomial product takes now."""
    start = time.perf_counter()
    out = {}
    for (a0, a1, a2), va in _A.items():
        for (b0, b1, b2), vb in _B.items():
            key = (a0 + b0, a1 + b1, a2 + b2)
            out[key] = out.get(key, 0) + va * vb
    return time.perf_counter() - start


def scaled(seconds: float, probe_seconds: float) -> float:
    """``seconds`` at the host speed where the probe takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / probe_seconds
