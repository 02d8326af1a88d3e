"""Deterministic seeding and 53-bit words built on splitmix64.

Every random quantity in this package is a pure function of a 64-bit
seed.  Parallel work never shares a generator: a *stream* is carved out
of a master seed by

    stream_seed(master, i) = mix64(master ^ ((i + 1) * GOLDEN))

where ``mix64`` is the splitmix64 finalizer and ``GOLDEN`` is the 64-bit
golden-ratio constant.  A stream with seed ``s`` then emits the words

    w_t = mix64(s + t * GOLDEN),   t = 1, 2, ...

and every draw is the top 53 bits of a word, x_t = w_t >> 11, standing
for the uniform x_t * 2**-53.  No float is formed: consumers compare
words with the thresholds ceil(q * 2**53) of :func:`word_threshold`,
exact because scaling by a power of two is.  The finalizer ends with
z ^= z >> 31, which leaves the top 31 bits of its input z2 unchanged
(Steele, Lea & Flood, *Fast splittable pseudorandom number generators*,
OOPSLA 2014).  So the top b <= 31 bits of a word are z2 >> (64 - b), and
a consumer that needs only those (the color lookup) stops at the
half-mixed state z2 of :func:`half_mix` and finishes only the words it
must compare in full (:func:`finish_words`).  State arrays are mixed in
place with one scratch array, which callers may supply and reuse, so c
states hold 16c bytes at their peak.  Every blocked loop in the package
(draws, sampling chunks, parsing, writing, the degree-product sum, the
4-cycle count, the martingale and degree-mass kernels, enumeration, KS
and CSV output) takes its block size from the one 2 MiB byte budget
``BUDGET`` through :func:`budget_rows`, called when the loop starts:
blocks stay small enough for a core's cache, and no block boundary
changes a result.  The
same seed gives the same draws everywhere, and replicate ``r`` of a
Monte Carlo run depends only on ``(master, r)``, so any worker partition
of the replicates reproduces the sequential result exactly.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15

_U64 = np.uint64
_G = _U64(GOLDEN)
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_S30 = _U64(30)
_S27 = _U64(27)
_S31 = _U64(31)
_S11 = _U64(11)

# Bytes of working arrays one worker may hold for a block of draws: 2 MiB,
# a core's L2 cache on the 2-vCPU Xeon the sampling kernel was tuned on.
BUDGET = 2 << 20


def budget_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` bytes fit :data:`BUDGET`; at least one."""
    return max(1, BUDGET // row_bytes)


def word_threshold(q):
    """uint64 thresholds ceil(q * 2**53): a word x is below one exactly when x * 2**-53 < q."""
    return np.ceil(np.asarray(q, dtype=np.float64) * 2.0 ** 53).astype(np.uint64)


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective scrambler."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_seed(master: int, index: int) -> int:
    """Seed of stream ``index`` (0-based) derived from ``master``."""
    return mix64((master ^ ((index + 1) * GOLDEN)) & MASK64)


def half_mix(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """The finalizer's first two rounds, in place: the state z2 after its
    second multiply; returns ``z``.

    ``tmp`` is scratch of the shape of ``z``, allocated when not given.
    """
    if tmp is None:
        tmp = np.empty_like(z)
    for shift, mul in ((_S30, _MUL1), (_S27, _MUL2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mul
    return z


def finish_words(z2: np.ndarray) -> np.ndarray:
    """The 53-bit words (z2 ^ z2 >> 31) >> 11 of half-mixed states, in place; returns ``z2``."""
    z2 ^= z2 >> _S31
    z2 >>= _S11
    return z2


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of a uint64 array, in place; returns ``z``."""
    half_mix(z)
    z ^= z >> _S31
    return z


def stream_seed_array(master: int, indices: np.ndarray) -> np.ndarray:
    """Vector version of :func:`stream_seed`; returns uint64 seeds."""
    idx = np.asarray(indices, dtype=np.uint64)
    return _mix64_array(_U64(master & MASK64) ^ ((idx + _U64(1)) * _G))


def stream_steps(count: int) -> np.ndarray:
    """t * GOLDEN for t = 1 .. count: added to a stream seed, the states of its words."""
    t = np.arange(1, count + 1, dtype=np.uint64)
    t *= _G
    return t


class SplitMix64:
    """Sequential view of a stream, for inherently serial algorithms.

    ``words(k)`` consumes exactly the k words that k calls of
    ``next_u64()`` would, so vectorized and scalar consumers can share a
    stream deterministically.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def half_mixed(self, count: int) -> np.ndarray:
        """The half-mixed states (see :func:`half_mix`) of the next ``count``
        words, as a uint64 array; the stream advances past those words."""
        out = stream_steps(count)
        out += _U64(self._state)
        self._state = (self._state + count * GOLDEN) & MASK64
        return half_mix(out)

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` 53-bit words of the stream, as a uint64 array."""
        return finish_words(self.half_mixed(count))

    def randbelow(self, bound: int) -> int:
        # Modulo reduction; the bias is < bound / 2**64, far below any
        # tolerance used in this package.
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def sample_indices(self, count: int, population: int) -> list[int]:
        """``count`` distinct integers from range(population) by partial
        Fisher-Yates on a sparse pool (only swapped slots stored): O(count)."""
        if count > population:
            raise ValueError("sample larger than population")
        moved: dict[int, int] = {}
        picks = []
        for i in range(count):
            j = i + self.randbelow(population - i)
            picks.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return picks
