"""Job times scaled to a fixed machine speed.

On a shared machine the speed of one core drifts by a third over tens of
seconds (other tenants on the sibling hyperthread), which moves every job's
wall time alike.  A fixed reference kernel of the same character as the
jobs (Python-level loops and small dense complex linear algebra, plus
products of 256 x 256 complex matrices, the size of the largest transport
generators; no lindreach code) is timed between jobs; each job's wall time is multiplied by
``REF_S / r``, where ``r`` is the mean of the kernel times measured just
before and just after it.  ``REF_S`` is the kernel's median time on the
machine where the baseline was recorded (2 vCPUs, numpy 2.4.6 with
OpenBLAS 0.3.31 on one thread), so the scaled figures read as seconds at
that machine's nominal speed.  The raw wall times are kept as well.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.0090            # median reference-kernel time at nominal speed
PROBE_EVERY_S = 0.2       # wall time between reference probes


class ScaledClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self._M = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.refs: list[float] = []
        self._pending: list[float] = []
        self._last = self._probe()
        self._last_at = time.monotonic()

    def _probe(self) -> float:
        A, M = self._A, self._M
        t0 = time.perf_counter()
        for _ in range(50):
            B = A @ A
            np.linalg.eigvalsh(B + B.conj().T)
            np.kron(A[:6, :6], A[:6, :6])
            sum(i * i for i in range(300))
        for _ in range(2):
            M @ M
        dur = time.perf_counter() - t0
        self.refs.append(dur)
        return dur

    def add(self, seconds: float) -> None:
        """Record one job's wall time; probe when enough time has passed."""
        self._pending.append(seconds)
        if time.monotonic() - self._last_at >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        ref = self._probe()
        factor = REF_S / ((self._last + ref) / 2)
        self.raw.extend(self._pending)
        self.scaled.extend(d * factor for d in self._pending)
        self._pending = []
        self._last, self._last_at = ref, time.monotonic()
