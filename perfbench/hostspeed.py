"""The host's speed, sampled all through a run, to scale timings to a reference speed.

On a small shared host the same code runs 20-40% slower or faster for
seconds to minutes at a time (other tenants, a busy SMT sibling), and whole
runs can fall in a slow stretch, so no statistic within a run removes it.
A fixed probe timed next to the work sees the same slowdown. A
``HostSpeed`` times a small probe (``_probe_kernel``: about equal parts of
interpreter work, numpy calls on tiny arrays, a small-batch gather and
scatter-add, BLAS, LAPACK and a memory-bound pass) from a SIGALRM handler
every ``PERIOD_S`` seconds. A timing is then reported at the reference
speed: its time is multiplied by ``REFERENCE_S / probe``, where ``probe`` is
the median probe time within ``WINDOW_S`` of it.

Python runs a signal handler only between bytecodes, so no probe runs
while one native call holds the interpreter for long, such as a dense
``eigh`` of a 2000-node Laplacian. Those stretches show as gaps between
probes and are not scaled: large dense LAPACK calls barely slow down when
the host is busy (in runs where interpreter-bound stages spread 0.3-0.4 of
their median, a preprocess that is 90% dense ``eigh`` spread 0.1).

The probe does not touch the package or its inputs, so a change to the
package moves the scaled timings as it moves the wall-clock ones. Short
timings are taken with probes held back (``held``), so that no probe lands
inside them; probe time that lands inside a long call is subtracted.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05  # twenty probes a second of wall time
WINDOW_S = 1.0   # a timing is scaled by the probes within this distance of it
MIN_PROBES = 5   # widen the window to at least this many probes
GAP_S = 2 * PERIOD_S  # a longer gap between probes means a native call held the interpreter
# Median probe time inside the benchmark on the reference host (2-core
# x86_64 VM, Python 3.11, numpy 2.4, one OpenBLAS thread) over twenty
# 55-second runs. Scaled timings read as if a run had gone at that speed.
REFERENCE_S = 7.5e-4

_rng = np.random.default_rng(0)
_VEC = _rng.standard_normal(64)
_X = _rng.standard_normal((48, 64))
_W = _rng.standard_normal((64, 64))
_IDX = _rng.integers(0, 48, 128)
_SQ = _rng.standard_normal((112, 112))
_SYM = _SQ[:24, :24] + _SQ[:24, :24].T
_LONG = _rng.standard_normal(80_000)


def _probe_kernel() -> None:
    """About equal time in each kind of work the pipeline does."""
    counts: dict[int, int] = {}
    for i in range(400):                      # interpreter: loop and dict
        counts[i % 23] = counts.get(i % 23, 0) + i
    v = _VEC
    for _ in range(20):                       # numpy call overhead on tiny arrays
        v = np.maximum(v * 1.0001 + 0.1, 0.0)
    out = np.zeros_like(_X)                   # message passing at small batch size
    np.add.at(out, _IDX[:64], _X[_IDX[:64]])
    np.maximum(out @ _W, 0.0)
    _SQ @ _SQ                                 # BLAS
    np.linalg.eigh(_SYM)                      # LAPACK
    _LONG.sum()                               # memory bandwidth
    _LONG * 2.0


class HostSpeed:
    """Probe times, collected while ``sampling`` is active."""

    def __init__(self):
        self.at: list[float] = []    # probe start times (perf_counter)
        self.took: list[float] = []  # probe durations
        self.cost: list[float] = []  # whole handler time, probe and warm-up included
        self._arrays = None

    def probe(self) -> None:
        t0 = time.perf_counter()
        _probe_kernel()  # warm the probe's own caches after the program ran
        t1 = time.perf_counter()
        _probe_kernel()
        t2 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t2 - t1)
        self.cost.append(t2 - t0)
        self._arrays = None

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    @contextlib.contextmanager
    def sampling(self):
        """Probe every ``PERIOD_S`` seconds until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def held(self):
        """Delay any probe due inside the block until it ends."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _np(self):
        if self._arrays is None:
            at = np.asarray(self.at)
            # Blind stretches: from when a probe was due to when one could run.
            gaps = np.flatnonzero(np.diff(at) > GAP_S)
            edges = np.column_stack([at[gaps] + PERIOD_S, at[gaps + 1]]).ravel()
            lengths = at[gaps + 1] - at[gaps] - PERIOD_S
            ends = np.cumsum(lengths)  # blind time up to the end of each stretch
            blind = np.column_stack([ends - lengths, ends]).ravel()
            self._arrays = (at, np.asarray(self.took), np.cumsum([0.0] + self.cost),
                            edges, blind)
        return self._arrays

    def scaled(self, starts, seconds) -> np.ndarray:
        """Timings that began at ``starts``, less probe time, at the reference speed.

        The part of each timing outside blind stretches is scaled by the
        median probe within ``WINDOW_S`` of it, the window widened to at
        least ``MIN_PROBES`` probes.
        """
        at, took, cum, edges, blind = self._np()
        if at.size < MIN_PROBES:
            raise ValueError(f"only {at.size} host speed probes were taken")
        t0 = np.asarray(starts, dtype=float)
        t1 = t0 + np.asarray(seconds, dtype=float)
        net = t1 - t0 - (cum[np.searchsorted(at, t1)] - cum[np.searchsorted(at, t0)])
        unscaled = (np.interp(t1, edges, blind) - np.interp(t0, edges, blind)
                    if edges.size else np.zeros_like(t0))
        lo = np.searchsorted(at, t0 - WINDOW_S)
        hi = np.searchsorted(at, t1 + WINDOW_S)
        widen = (np.maximum(MIN_PROBES - (hi - lo), 0) + 1) // 2
        lo = np.clip(lo - widen, 0, at.size - MIN_PROBES)
        hi = np.clip(np.maximum(hi + widen, lo + MIN_PROBES), None, at.size)
        medians: dict[tuple[int, int], float] = {}
        probe = np.empty(t0.size)
        for i, key in enumerate(zip(lo.tolist(), hi.tolist())):
            if key not in medians:
                medians[key] = float(np.median(took[key[0]:key[1]]))
            probe[i] = medians[key]
        return (net - unscaled) * REFERENCE_S / probe + unscaled

    def blind_share(self) -> float:
        """Share of the sampled time in blind stretches."""
        at, _, _, _, blind = self._np()
        return float(blind[-1] / (at[-1] - at[0])) if blind.size else 0.0

    def median_probe(self) -> float:
        return statistics.median(self.took)
