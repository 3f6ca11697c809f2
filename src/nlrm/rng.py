"""Counter-based pseudorandom numbers (SplitMix64).

Every draw is a pure function of ``(seed, counter)``: draw ``k`` of stream
``seed`` is ``mix(seed + (k + 1) * GOLDEN)`` with the SplitMix64 finalizer,
and uniforms take the top 53 bits.  There is no generator state to carry
around, streams can be sliced at arbitrary offsets, and the exact bit
sequence is reproducible on any platform (or language) that has 64-bit
integer arithmetic.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / float(1 << 53)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def random_uint64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Draws ``count`` raw 64-bit words from stream ``seed`` starting at ``offset``."""
    if count < 0 or offset < 0:
        raise ValueError("count and offset must be nonnegative")
    base = np.uint64(seed & _MASK64)
    counters = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    return _mix(base + counters * _GOLDEN)


def random_uniform(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Draws ``count`` float64 values uniform on [0, 1)."""
    bits = random_uint64(seed, count, offset)
    return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53


def uniform_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Row-major ``rows x cols`` matrix of uniform [0, 1) entries."""
    return random_uniform(seed, rows * cols).reshape(rows, cols)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic sub-stream seed, used for trials and restarts."""
    return int(random_uint64(seed, 1, offset=index)[0])
