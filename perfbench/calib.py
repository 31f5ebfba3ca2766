"""Host-speed calibration for the timed runs.

On a shared host the speed of identical code drifts by tens of percent
over minutes, because other tenants share the memory system and cores; on
a 2-vCPU KVM guest (Intel Xeon, Sapphire Rapids) it drifted by 20-40%,
the same with BLAS pinned to one thread or not.  A run of one workload
sees one stretch of that drift, so raw medians of identical code differ
between runs by more than any useful bound.  The benchmark therefore times
a fixed kernel in its own process (never in the process under test, so no
change to the program can alter it) right before and right after every
invocation, and scales the invocation's wall time by NOMINAL_S / (kernel
time).  The kernel mixes the kinds of work xiverify does: complex exp over
an outer product, a matrix-vector product, long elementwise array passes
and an interpreted loop.
"""

import time

import numpy as np

# Kernel time at the host speed the scaled times refer to: its median on
# the 2-vCPU guest above, where perfbench/baseline.json was measured.
NOMINAL_S = 0.30

_S = 0.5 + 1j * np.linspace(0.0, 60.0, 3000)
_LOGK = np.log(np.arange(1.0, 381.0))
_E = np.cos(np.arange(380.0))
_N = np.arange(1.0, 100001.0)


def kernel():
    """Seconds one pass of the fixed calibration work takes now."""
    t = time.perf_counter()
    acc = 0.0
    for _ in range(4):
        acc += float(np.abs(np.exp(np.outer(-_S, _LOGK)) @ _E).sum())
        acc += float((np.exp(-1.0 / (_N * _N)) * np.cos(_N * 0.5) / _N).sum())
        x = 0
        for i in range(60000):
            x += i & 7
        acc += x
    return time.perf_counter() - t
