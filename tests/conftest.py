"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn):
    """Call ``fn()`` with tracemalloc on, and return its result and the peak
    of the memory traced during the call, in bytes. Memory allocated before
    the call is not traced, so the peak counts what the call adds."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
