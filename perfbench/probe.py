"""A machine-speed probe: a fixed piece of pure-Python work that does not
touch evfuse (dict updates, big-integer bit operations, a string sort).

Other tenants of a shared machine slow everything on it down, for phases
of seconds to minutes and by up to two thirds.  Timing this probe next to
a measurement tells how fast the machine ran then; REF_S over the probe's
time scales the measurement to the unloaded machine.
"""

import gc
from time import perf_counter

REF_S = 0.0004  # the probe's time on an unloaded 2 GHz Xeon vCPU


def _work():
    d = {}
    x = (1 << 4000) - 12345
    keys = []
    for i in range(400):
        k = (i * 7919) % 1000
        d[k, i & 7] = d.get((k, i & 7), 0.0) + i * 0.5
        x = (x >> 3) ^ (x & ((1 << 2000) - 1)) | (1 << (i % 3000))
        keys.append(str(k))
    keys.sort()
    return len(d), x.bit_length(), keys[0]


def seconds(shots=5):
    """The probe's shortest time over ``shots`` runs, collector off."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(shots):
            t0 = perf_counter()
            _work()
            best = min(best, perf_counter() - t0)
        return best
    finally:
        gc.enable()
