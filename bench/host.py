"""Host record and drift probe.

The reference kernel is a fixed amount of work of the two kinds bohmlab
spends its time on: 512-point complex FFTs and a pure-Python loop.  The
runner times it between CLI invocations, so a slower host (a busy
neighbour, a frequency change) shows up beside the results it slowed.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np

_SIGNAL = np.exp(1j * np.linspace(0.0, 40.0, 512))


def reference_kernel() -> float:
    """Wall time of 200 FFT/inverse-FFT pairs on 512 points plus a
    100k-iteration Python loop; about 20 ms on a 2-core Xeon host."""
    start = time.perf_counter()
    z = _SIGNAL
    for _ in range(200):
        z = np.fft.ifft(np.fft.fft(z))
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) & 0xFFFF
    return time.perf_counter() - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fft_backend() -> str:
    try:
        from numpy.fft import _pocketfft_umath  # noqa: F401  numpy >= 2
        return "pocketfft (numpy.fft._pocketfft_umath)"
    except ImportError:
        return f"numpy.fft ({np.fft.fft.__module__})"


def host_record() -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": _fft_backend(),
        "platform": platform.platform(),
    }
