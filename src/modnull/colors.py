"""Color (community label) distributions under independent random labeling.

The null model assigns each vertex an independent color with fixed
probabilities p_1..p_K.  Everything downstream is a function of the
power sums p_(l) = sum_k p_k^l: the centered kernel, its conditional
moments, and the two variance constants

    r1 = p_(2) + p_(2)^2 - 2 p_(3)   (variance of the centered kernel)
    r2 = p_(3) - p_(2)^2             (variance of p_{c} - p_(2))

A distribution concentrated on one color has r1 = 0, which makes every
standardized statistic undefined; such distributions are flagged
degenerate and rejected by the simulation layer.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DomainError, InputError
from .graph import int64_entries
from .rng import SplitMix64, word_threshold

_SUM_TOL = 1e-12
# Guide-table buckets: a word's top 16 of 53 bits.
_BUCKET_SHIFT = np.uint64(37)
_BUCKETS = 1 << 16


def lane_dtype(K: int) -> np.dtype:
    """The narrowest of uint8, uint16 and uint32 that holds colors 1..K."""
    for t in (np.uint8, np.uint16, np.uint32):
        if K <= np.iinfo(t).max:
            return np.dtype(t)
    raise InputError(f"colors up to {K} exceed the 32-bit lanes")


class ColorDistribution:
    """Probabilities p_1..p_K with their power sums p_(2), p_(3) and the constants r1, r2."""

    def __init__(self, probabilities):
        p = np.asarray(probabilities, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise InputError("probabilities must be a nonempty vector")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise InputError("probabilities must lie in [0, 1]")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > _SUM_TOL:
            raise InputError(f"probabilities sum to {total!r}, not 1")
        p = p.copy()
        p.setflags(write=False)
        self.p = p
        self.K = int(p.size)
        self.p2 = math.fsum((p * p).tolist())
        self.p3 = math.fsum((p * p * p).tolist())
        # Both constants are variances; clamp the last-ulp negatives away.
        self.r1 = max(0.0, self.p2 + self.p2 * self.p2 - 2.0 * self.p3)
        self.r2 = max(0.0, self.p3 - self.p2 * self.p2)

    @classmethod
    def uniform(cls, K: int) -> "ColorDistribution":
        if K < 1:
            raise InputError("need at least one color")
        return cls(np.full(K, 1.0 / K))

    @classmethod
    def from_coloring(cls, colors, K: int | None = None) -> "ColorDistribution":
        """Empirical frequencies of an observed coloring (colors in 1..K)."""
        return cls._observed(validate_coloring(colors, K=K), K)

    @classmethod
    def _observed(cls, c: np.ndarray, K: int | None = None) -> "ColorDistribution":
        """Frequencies of the colors 1..K (1..max when None) in a checked coloring ``c``."""
        return cls(np.bincount(c, minlength=0 if K is None else K + 1)[1:] / c.size)

    @property
    def is_degenerate(self) -> bool:
        return self.r1 <= 0.0

    def _check_color(self, a: int) -> int:
        return int(validate_coloring([a], K=self.K)[0])

    def centered_kernel(self, a: int, b: int) -> float:
        """Same-color indicator of (a, b), centered to zero conditional mean.

        delta_{a,b} - p_a - p_b + p_(2); always in [-2, 2].
        """
        a = self._check_color(a)
        b = self._check_color(b)
        delta = 1.0 if a == b else 0.0
        return delta - self.p[a - 1] - self.p[b - 1] + self.p2

    def cond_second_moment(self, a: int) -> float:
        """E[centered_kernel(a, c)^2] over a random color c."""
        a = self._check_color(a)
        pa = self.p[a - 1]
        return pa - 3.0 * pa * pa + 2.0 * self.p2 * pa - self.p2 * self.p2 + self.p3

    def cond_cross_moment(self, a: int, b: int) -> float:
        """E[centered_kernel(a, c) * centered_kernel(b, c)] over a random c."""
        a = self._check_color(a)
        b = self._check_color(b)
        pa = self.p[a - 1]
        pb = self.p[b - 1]
        delta = 0.5 * (pa + pb) if a == b else 0.0
        return (
            delta
            - pa * pb
            - pa * pa
            + pa * self.p2
            - pb * pb
            + pb * self.p2
            + self.p3
            - self.p2 * self.p2
        )

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer thresholds and guide table of the inverse-CDF lookup.

        The float lookup ``searchsorted(cumsum(p), u, side="right")`` at
        u = x * 2**-53 counts the cumulative sums c_k <= u.  Scaling by a
        power of two is exact, so for an integer word x that count equals
        the number of thresholds ceil(c_k * 2**53) <= x; the last sum is
        left out, which stands for +inf and absorbs its rounding.  The
        table maps each word's top 16 bits to its color when every word
        with those bits gets the same one, and to 0 otherwise; at most
        K - 1 of the 65536 buckets are ambiguous (Chen & Asau, AIIE Trans.
        6(2), 1974; Devroye, Non-Uniform Random Variate Generation, 1986,
        III.2.4).
        """
        thresholds = word_threshold(np.cumsum(self.p)[:-1])
        # Bucket b holds the words in [edges[b], edges[b + 1]).
        edges = np.arange(_BUCKETS + 1, dtype=np.uint64) << _BUCKET_SHIFT
        lo = np.searchsorted(thresholds, edges[:-1], side="right")
        hi = np.searchsorted(thresholds, edges[1:], side="left")
        table = np.where(lo == hi, lo + 1, 0).astype(lane_dtype(self.K))
        return thresholds, table

    def _colors_of_words(self, words: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """Colors 1..K of 53-bit words (uniform = word * 2**-53); see :attr:`_guide`.

        The result has the shape of ``words`` and dtype ``lane_dtype(K)``.
        ``out`` (that shape and dtype) receives it and ``scratch`` (a uint64
        array of that shape) holds the bucket indices; both are allocated
        when not given, and ``words`` is left unchanged.
        """
        thresholds, table = self._guide
        x = words.reshape(-1)
        bucket = np.right_shift(x, _BUCKET_SHIFT, out=None if scratch is None else scratch.reshape(-1))
        colors = np.take(table, bucket.view(np.int64), out=None if out is None else out.reshape(-1),
                         mode="clip")
        # The ambiguous buckets' mask reuses the bucket indices' memory.
        open_ = np.flatnonzero(np.equal(colors, 0, out=bucket.view(bool)[:x.size]))
        if open_.size:
            pick = np.searchsorted(thresholds, x[open_], side="right")
            pick += 1
            colors[open_] = pick
        return colors.reshape(words.shape)

    def sample_coloring(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. int64 colors via inverse-CDF lookup on the stream ``seed``.

        Identical (distribution, n, seed) always yields the identical
        coloring.
        """
        if n < 1:
            raise InputError("need at least one vertex to color")
        if self.is_degenerate:
            raise DomainError("degenerate color distribution (single color has mass 1)")
        return self._colors_of_words(SplitMix64(seed).words(n)).astype(np.int64)

    def __repr__(self) -> str:
        return f"ColorDistribution({self.p.tolist()})"


class ColoringError(InputError):
    """An entry that :func:`validate_coloring` refuses, at position ``index``."""

    def __init__(self, index: int, kind: str, color: int = 0, K: int | None = None):
        super().__init__({
            "integer": "colors must be integers",
            "below": "colors must be integers >= 1",
            "above": f"color {color} exceeds K={K}",
        }[kind])
        self.index = index


def validate_coloring(colors, n: int | None = None, K: int | None = None) -> np.ndarray:
    """The coloring as an int64 array, after the package's one coloring check.

    Refuses, in this order: anything but a nonempty vector; the first entry
    that is no integer (see :func:`graph.int64_entries`), below 1 or above
    ``K``, as a :class:`ColoringError` at its index; a length other than ``n``.
    """
    c, kept = int64_entries(colors)
    if c.ndim != 1 or c.size == 0:
        raise InputError("coloring must be a nonempty vector")
    bad = ~kept
    bad |= c < 1
    if K is not None:
        bad |= c > K
    if bad.any():
        i = int(bad.argmax())
        raise ColoringError(i, "integer" if not kept[i] else "below" if c[i] < 1 else "above",
                            c[i], K)
    if n is not None:
        check_length(c, n)
    return c


def check_length(c: np.ndarray, n: int) -> None:
    """Refuse a coloring ``c`` that does not give one color to each of ``n`` vertices."""
    if c.size != n:
        raise InputError(f"coloring has length {c.size}, expected {n}")


def parse_probability_text(text: str) -> ColorDistribution:
    """One probability in [0, 1] per line; must sum to 1 within 1e-9, then is renormalized."""
    values = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            value = math.nan
        if not 0.0 <= value <= 1.0 + 1e-9:
            raise InputError(f"line {ln}: not a probability: {raw!r}")
        values.append(value)
    if not values:
        raise InputError("probability file is empty")
    total = math.fsum(values)
    if abs(total - 1.0) > 1e-9:
        raise InputError(f"probabilities sum to {total!r}, outside 1 +/- 1e-9")
    p = np.asarray(values, dtype=np.float64) / total
    return ColorDistribution(p)
