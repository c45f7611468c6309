"""Peak traced bytes of a block of code, for the gradient-engine profile.

tracemalloc sees every block that Python and NumPy allocate, so the meter
counts real bytes, whether or not engine code mentions them.  A block's peak
is the traced peak while it ran minus the bytes traced when it began, so what
callers held before it is not counted.  Tracing is switched on for the block
only if it was off.  A block resets the traced peak, so blocks must not nest.
"""

import tracemalloc


class TracedBlock:
    """One measured block: peak_bytes reads its peak so far inside it, and
    its final peak once it has ended."""

    def __enter__(self):
        self._started = not tracemalloc.is_tracing()
        if self._started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        self._base = tracemalloc.get_traced_memory()[0]
        self._final = None
        return self

    def __exit__(self, *exc):
        self._final = self.peak_bytes
        if self._started:
            tracemalloc.stop()

    @property
    def peak_bytes(self):
        if self._final is None:
            return tracemalloc.get_traced_memory()[1] - self._base
        return self._final


class PeakMeter:
    """measure() returns a fresh TracedBlock; the meter holds no state."""

    measure = TracedBlock


METER = PeakMeter()
