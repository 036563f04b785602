"""A fixed reference computation that measures how fast the host runs now.

On a share of a busy machine the speed of one CPU can drift by a fifth
or more from one ten-minute stretch to the next, and a median over the
repetitions of one run cannot remove a drift that outlasts the run.
Each set-up-only process of a run therefore also times a few passes of
this kernel, and ``run.py`` scales the run's times by the reference pass
time over the run's median pass.  A change to ``bousspec`` cannot move
the kernel: it imports only numpy and the standard library, and its
inputs are fixed.

The kernel mixes the two kinds of work the workloads do: a
pseudo-spectral loop of small numpy transforms and array operations on
a 2D 64^2 grid (the solver layers) and a pure-Python loop over a dict
keyed by index pairs (the Galerkin assembly and the per-record
diagnostics).  Each half takes about the same time.
"""

import time

import numpy as np

SPECTRAL_STEPS = 180
TABLE_ROWS = 6000


def spectral(steps):
    """Explicit steps of 2D advection-diffusion in Fourier space."""
    k = np.fft.fftfreq(64, 1 / 64)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    decay = np.exp(-1e-3 * (kx ** 2 + ky ** 2))
    uh = np.fft.fftn(np.random.default_rng(1234).standard_normal((2, 64, 64)),
                     axes=(1, 2))
    for _ in range(steps):
        u = np.fft.ifftn(uh, axes=(1, 2)).real
        dx = np.fft.ifftn(1j * kx * uh, axes=(1, 2)).real
        dy = np.fft.ifftn(1j * ky * uh, axes=(1, 2)).real
        uh = decay * (uh - 1e-3 * np.fft.fftn(u[0] * dx + u[1] * dy,
                                              axes=(1, 2)))
    return float(np.abs(uh).sum())


def table(rows):
    """Accumulate products into a dict keyed by index pairs."""
    entries = {}
    for i in range(rows):
        for j in range(64):
            key = (i % 97, j)
            entries[key] = entries.get(key, 0.0) + (i * j) * 0.5
    return sum(entries.values())


def passes(count):
    """Wall times of ``count`` passes of the kernel, after a short warm-up."""
    spectral(2)
    table(10)
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        spectral(SPECTRAL_STEPS)
        table(TABLE_ROWS)
        times.append(time.perf_counter() - t0)
    return times
