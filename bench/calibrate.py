"""Machine-speed calibration for timings on a shared machine.

On a shared virtual machine the speed of one core drifts by tens of
percent within minutes (README.md), which swamps the changes a
benchmark must resolve.  A fixed pure-Python kernel, independent of
matchlearn, is timed around every measured interval; each interval is
then scaled to the speed at which the kernel takes ``NOMINAL_S``:

    adjusted = measured * NOMINAL_S / mean(kernel time before, after)

Only the standard library is used, so the kernel can run before numpy
is imported.
"""
import json
import time

NOMINAL_S = 0.15  # about the kernel's time on an unloaded 2-core x86-64 VM


def kernel() -> float:
    """Run the fixed calibration work; returns its wall time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    # Small containers, reused: the kernel must not raise peak memory.
    rows = [[i, (i * 7) % 1000, i * 0.5, str(i)] for i in range(1_000)]
    for _ in range(40):
        back = json.loads(json.dumps(rows))
        index = {row[3]: row for row in back}
        order = sorted(index, reverse=True)
    if len(order) != len(rows) or acc < 0:
        raise AssertionError("calibration kernel went wrong")
    return time.perf_counter() - t0


def adjust(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * NOMINAL_S * 2.0 / (kernel_before + kernel_after)
