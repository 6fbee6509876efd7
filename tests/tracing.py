"""Allocation measurement shared by the memory tests."""

import tracemalloc


def traced_peak(f, *args, **kwargs) -> int:
    """Peak bytes that ``f(*args, **kwargs)`` allocates above what was held
    before it, as tracemalloc counts them (numpy arrays included)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
