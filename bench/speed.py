"""Machine-speed correction for the benchmark's timings.

The sandbox's CPU speed drifts by 15-25 % over tens of seconds as the load
of other machines on the host comes and goes: a level pass over
|lambda|, |mu| <= 5 took between 8.9 and 13.6 s in eight back-to-back runs
of the same code, and over ten seeded runs the raw wall times of thm-c and
level spread by 16 % and 20 % of their median, the scaled ones by 4 % and
2 %.  So the benchmark times a fixed pure-Python reference workload,
independent of krlab, next to every measurement, and reports each time
scaled by NOMINAL_S / (reference time measured around it): the time the
work would take at the machine's typical speed.  Raw times are kept beside
the scaled ones in every run record.
"""

from time import perf_counter

# The reference time at the typical speed of the machine the baseline was
# measured on (2-vCPU Xeon sandbox, Python 3.11), so scaled times read
# close to raw ones there.
NOMINAL_S = 0.0012

_KEYS = [(i % 37, i % 11) for i in range(3000)]
_TABLE = {key: i for i, key in enumerate(sorted(set(_KEYS)))}


def reference_s():
    """Seconds taken by the reference workload: tuple-keyed dict lookups
    and small-integer arithmetic, as in krlab's hot loops.  It reads a few
    kilobytes built at import and allocates nothing, so neither the
    caller's heap nor the garbage collector can move it.  Single samples
    jump by up to 4x on interrupts, so this is the median of five."""
    acc = 0
    for key in _KEYS:  # untimed: bring the data back into cache
        acc = (acc + _TABLE[key]) & 255
    samples = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(3):
            for key in _KEYS:
                acc = (acc + _TABLE[key]) & 255
        samples.append(perf_counter() - t0)
    return sorted(samples)[2]
