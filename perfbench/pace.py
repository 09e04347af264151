"""The host's pace, from a fixed reference computation timed beside each step.

On a guest that shares its host with other tenants, speed drifts by up to
a third for stretches of seconds to minutes, and the process's CPU time
drifts with its wall time, so neither removes the drift. A fixed piece of
work timed just before and just after a step slows with the step. Each timed step is therefore scaled by ``REFERENCE_S`` over the
mean of those two reference times: a figure is the step's time at the pace
at which the reference takes ``REFERENCE_S``. See README.md, "Pacing".
"""

from __future__ import annotations

from time import perf_counter

# A typical time of the reference on the machine the README's figures come
# from (2 vCPU KVM guest, Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, one
# BLAS thread), so that paced figures read close to wall time there. A fixed
# constant: changing it rescales every figure.
REFERENCE_S = 0.0045

# Timings of the reference per sample; the sample is the fastest, so one
# interrupted timing does not move it.
REPEATS = 3


class Pace:
    """Times the reference computation and scales steps by it.

    The reference is half interpreter work (an integer loop) and half
    small dense matrix products, the two kinds of work rabosim's rounds
    are made of. It touches nothing of rabosim.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((128, 128))
        self.samples: list[float] = []
        self._reference()                        # warm-up

    def _reference(self) -> None:
        total = 0
        for i in range(27_000):
            total += i * i % 7
        a = self._a
        for _ in range(24):
            a = a @ self._a
            a *= 0.1

    def sample(self) -> float:
        """Seconds the reference takes now (fastest of REPEATS)."""
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            self._reference()
            best = min(best, perf_counter() - start)
        self.samples.append(best)
        return best

    def timed(self, step):
        """Runs `step()` between two reference samples. Returns its result
        and the scale that turns the step's wall times into paced times."""
        before = self.sample()
        result = step()
        after = self.sample()
        return result, REFERENCE_S / (0.5 * (before + after))
