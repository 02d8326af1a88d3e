"""Seeded Monte Carlo under random labeling: calibration, rate and SLLN studies.

Sampling contract
-----------------
Replicate ``r`` of a run with master seed ``s`` colors the graph with the
stream ``stream_seed(s, r)``; nothing else consumes randomness.  Studies
derive one sub-master per size via ``stream_seed(s, n)`` and split it
into a graph seed (index 0) and a simulation master (index 1), so every
row of a study is reproducible in isolation.  In the SLLN study, path
``p`` at size ``n`` is replicate ``p`` of that size's simulation master.
Every sampling command draws its replicates through one chunked kernel.
A chunk's colorings are packed side by side: an n x r array of unsigned
lanes, the narrowest of uint8, uint16 and uint32 that holds K, with one
column per replicate, so each vertex owns r / lanes uint64 words and a
lane group is the lanes of one word (8, 4 or 2 replicates).  Stream
states are drawn and mixed in blocks of vertices, but only up to the
half-mixed state of :func:`rng.half_mix`, whose top bits are the word's:
the colors are read from those (:meth:`ColorDistribution._colors_of_states`),
and only words that a guide bucket leaves ambiguous are finished.  The Q
kernel (:func:`moments._q_lanes`) compares the packed words gathered at
both ends of every edge lane by lane, and for K <= 2 adds the packed
colors over the degrees' bit planes.  Each worker allocates its buffers
once and reuses them for every chunk: the chunk's colors, a quarter of
the byte budget ``rng.BUDGET`` (2 MiB, see :func:`moments._chunking`),
and one scratch array of half of it, which holds
a block of states and their mixing scratch, then a block of edges' ends
and the words gathered at both and their equality bools, then a gathered
degree plane or the degree-mass slots.  Both are one lane group's worth
when a group is larger, so a chunk's boundaries depend on the graph's n
and the lane width alone, never on the worker count; a row's value does
not depend on them at all.  The two-color martingale kernel
(:func:`moments._v2_lanes`) counts each vertex's color-2 lower neighbours
on the same packed lanes, gathered into the same scratch, so every kernel
runs with one scratch size.  The output is
allocated before any state is drawn, and workers take chunks in turn and
write each into it in place, which makes the output identical for any
worker count.

Standardization
---------------
Two scalings of Q - mu are supported: ``"sigma"`` divides by the exact
null standard deviation, ``"delta"`` by the asymptotic scale
sqrt(r1/m).  The rate study reports the Kolmogorov distance for both.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .colors import ColorDistribution, check_length, lane_dtype, validate_coloring
from .errors import DomainError, InputError
from .generators import GeneratorSpec, parse_generator_spec
from .graph import Graph
from .moments import (
    NullMoments,
    _chunking,
    _q_lanes,
    _q_of_rows,
    _q_tables,
    _v2_lanes,
    _v2_tables,
    null_moments,
)
from .rng import budget_rows, half_mix, stream_seed, stream_seed_array, stream_steps

_SQRT2 = math.sqrt(2.0)

STANDARDIZATIONS = ("sigma", "delta")

# Cephes ndtr.c coefficients (Moshier 1989): erfc = exp(-x^2) P(x)/Q(x) on
# [1, 8), exp(-x^2) R(x)/S(x) from 8 on, and erf = x T(x^2)/U(x^2) below 1.
# The leading 1 of the monic Q, S and U is left out, as in Cephes.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
# ln(DBL_MAX): below exp(-MAXLOG) Cephes returns the limit 0 or 2.
_MAXLOG = 7.09782712893383996843e2
# libm exp, elementwise; numpy's own exp rounds differently on ~0.7% of points.
_libm_exp = np.frompyfunc(math.exp, 1, 1)


def _polevl(x: np.ndarray, coef: tuple, monic: bool) -> np.ndarray:
    """Cephes polevl (monic=False) or p1evl (monic=True): Horner, one rounding per step."""
    acc = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _erfc(a) -> np.ndarray:
    """Complementary error function, Cephes ``erfc`` step for step.

    Every element takes the operations of the C code in its order, so the
    result equals ``scipy.special.erfc`` bit for bit (tested on millions
    of points and at every branch edge).  Branches are taken on index
    subsets, so arguments that would overflow x*x never reach it.
    """
    a = np.asarray(a, dtype=np.float64)
    flat = a.reshape(-1)
    x = np.abs(flat)
    # Underflow limits (exp(-x^2) below the smallest double) and nan.
    out = np.where(flat < 0.0, 2.0, 0.0)
    out[np.isnan(flat)] = np.nan
    # |a| < 1: 1 - erf(a).
    i = np.flatnonzero(x < 1.0)
    s = flat[i]
    z = s * s
    out[i] = 1.0 - s * _polevl(z, _ERF_T, False) / _polevl(z, _ERF_U, True)
    # 1 <= |a| while -a*a >= -MAXLOG; |a| < 27 keeps the square finite.
    i = np.flatnonzero((x >= 1.0) & (x < 27.0))
    z = -flat[i] * flat[i]
    keep = z >= -_MAXLOG
    i, z = i[keep], z[keep]
    t = x[i]
    near = t < 8.0
    p, q = np.empty_like(t), np.empty_like(t)
    p[near] = _polevl(t[near], _ERFC_P, False)
    q[near] = _polevl(t[near], _ERFC_Q, True)
    p[~near] = _polevl(t[~near], _ERFC_R, False)
    q[~near] = _polevl(t[~near], _ERFC_S, True)
    y = _libm_exp(z).astype(np.float64) * p / q
    out[i] = np.where(flat[i] < 0.0, 2.0 - y, y)
    return out.reshape(a.shape)[()]


def _phi_array(x) -> np.ndarray:
    """Standard normal CDF via the complementary error function.

    Phi(x) = erfc(-x / sqrt(2)) / 2, with erfc from the Cephes rational
    approximations (S. L. Moshier, *Methods and Programs for Mathematical
    Functions*, 1989; relative error a few ulp, far below the 1e-12
    contract), ported in :func:`_erfc` so the package needs numpy only.
    exp(-x^2) is libm's ``exp`` called per element, not ``np.exp``: the
    C code calls libm, and numpy's vectorized exp differs from it in the
    last bit on some points, which would move artifact bytes.  Every
    normal tail in the package goes through this one routine, so scalar
    and array paths agree bit for bit.
    """
    return 0.5 * _erfc(-np.asarray(x, dtype=np.float64) / _SQRT2)


def std_normal_cdf(x: float) -> float:
    """Phi(x) for one value."""
    return float(_phi_array(x))


def upper_p_value(z: float) -> float:
    """P(N(0,1) > z) = Phi(-z), evaluated in the complementary form to keep tail accuracy."""
    return float(_phi_array(-z))


def _sorted_sample(samples) -> np.ndarray:
    """``samples`` sorted as float64, after the one check of both KS distances:
    a nonempty vector of numbers, none NaN (+-inf are numbers)."""
    try:
        x = np.asarray(samples, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        x = np.empty(0)
    if x.ndim != 1 or x.size == 0 or np.isnan(x).any():
        raise InputError("samples must be a nonempty vector of numbers, none NaN")
    return np.sort(x)


def ks_distance(samples) -> float:
    """Kolmogorov distance between the empirical CDF and the standard normal."""
    return _ks_against(_sorted_sample(samples), _phi_array)


def ks_distance_uniform(samples) -> float:
    """Kolmogorov distance to the uniform law on [0, 1] (for p-value calibration)."""
    x = _sorted_sample(samples)
    if x[0] < 0.0 or x[-1] > 1.0:
        raise InputError("samples outside [0, 1]")
    return _ks_against(x, np.asarray)


def _ks_against(x: np.ndarray, cdf) -> float:
    # Each gap is the literal float count/n - cdf(x_i) whatever the blocks, so
    # the maximum is exact; a block takes < 128 B per value of rng.BUDGET.
    n = x.size
    step = budget_rows(128)
    worst = -math.inf
    for a in range(0, n, step):
        c = cdf(x[a:a + step])
        counts = np.arange(a, a + c.size, dtype=np.float64)
        worst = max(worst, float(np.max((counts + 1.0) / n - c)), float(np.max(c - counts / n)))
    return worst


def _check_sampling(dist, reps: int, threads: int) -> None:
    """Refuse a sampling run before anything is built for it."""
    if reps < 1:
        raise InputError("reps must be >= 1")
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    if dist.is_degenerate:
        raise DomainError("degenerate color distribution: null sampling is pointless")


def _sample_rows(kernel, g: Graph, dist, reps: int, master_seed: int, threads: int):
    """``kernel(colors, count, work)`` for replicates 0..reps-1, in chunks of lane groups.

    The caller has passed the run through :func:`_check_sampling`.  A
    chunk's colorings are an n x r array of unsigned lanes, one column
    per replicate (see the module docstring), of which the first
    ``count`` are wanted and the rest pad the last lane group; ``kernel``
    returns one value per wanted column and may overwrite ``work``, the
    worker's scratch of :func:`moments._chunking`.  The output and
    every worker's buffers are allocated before any word is drawn, and each
    worker writes its chunks into the output in place, so the result
    does not depend on ``threads``.
    """
    n = g.n
    dtype = lane_dtype(dist.K)
    lanes = 8 // dtype.itemsize
    rows, chunk_words = _chunking(n, lanes)
    out = np.empty(reps)
    starts = range(0, reps, rows)
    buffers = [(np.empty(n * rows, dtype), np.empty(chunk_words, np.uint64))
               for _ in range(min(threads, len(starts)))]
    steps = stream_steps(n)
    todo = iter(starts)
    lock = threading.Lock()

    def worker(color_buffer: np.ndarray, scratch: np.ndarray) -> None:
        while True:
            with lock:
                a = next(todo, None)
            if a is None:
                return
            count = min(rows, reps - a)
            r = -(-count // lanes) * lanes
            # A block of states and their mixing scratch, 16 bytes per
            # replicate of this chunk and vertex, fills the chunks' scratch.
            block = min(n, chunk_words // (2 * r))
            seeds = stream_seed_array(master_seed, np.arange(a, a + r, dtype=np.uint64))
            colors = color_buffer[:n * r].reshape(n, r)
            for v in range(0, n, block):
                size = min(block, n - v) * r
                states = scratch[:size].reshape(-1, r)
                mix = scratch[size:2 * size].reshape(-1, r)
                np.add(steps[v:v + block, None], seeds, out=states)
                dist._colors_of_states(half_mix(states, mix), out=colors[v:v + block],
                                       scratch=mix)
            out[a:a + count] = kernel(colors, count, scratch)

    if len(buffers) == 1:
        worker(*buffers[0])
        return out
    # Plain threads: a thread pool would import concurrent.futures and
    # logging into every process.  Each thread keeps what it raised, and
    # the lowest worker's error is raised once all have been joined.
    errors = [None] * len(buffers)

    def guarded(i: int) -> None:
        try:
            worker(*buffers[i])
        except BaseException as exc:  # re-raised in the calling thread below
            errors[i] = exc

    started = []
    try:
        for i in range(len(buffers)):
            thread = threading.Thread(target=guarded, args=(i,))
            thread.start()
            started.append(thread)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out


def null_q_samples(
    g: Graph, dist: ColorDistribution, reps: int, master_seed: int, threads: int = 1
) -> np.ndarray:
    """Raw modularity values for ``reps`` independent null colorings."""
    _check_sampling(dist, reps, threads)
    tables = _q_tables(g, dist.K)
    return _sample_rows(
        lambda colors, count, work: _q_lanes(colors, count, tables, work),
        g, dist, reps, master_seed, threads,
    )


def martingale_variance_samples(
    g: Graph, dist: ColorDistribution, reps: int, master_seed: int, threads: int = 1
) -> np.ndarray:
    """Martingale conditional variance for the same colorings as null_q_samples."""
    _check_sampling(dist, reps, threads)
    tables = _v2_tables(g, dist)
    return _sample_rows(
        lambda colors, count, work: _v2_lanes(colors, count, g, dist, tables, work),
        g, dist, reps, master_seed, threads,
    )


class NullSample(NamedTuple):
    """Monte Carlo draw of standardized modularity under the null."""

    q: np.ndarray
    samples: np.ndarray
    standardization: str
    mean: float
    variance: float
    ks: float
    moments: NullMoments


def _check_standardization(name: str) -> str:
    if name not in STANDARDIZATIONS:
        raise InputError(f"standardization must be one of {STANDARDIZATIONS}, got {name!r}")
    return name


def simulate_null(
    g: Graph,
    dist: ColorDistribution,
    reps: int,
    master_seed: int,
    standardization: str = "sigma",
    threads: int = 1,
) -> NullSample:
    """Sample (Q - mu)/scale under random labeling; summary with KS distance."""
    standardization = _check_standardization(standardization)
    mom = null_moments(g, dist)
    q = null_q_samples(g, dist, reps, master_seed, threads)
    scale = mom.sigma if standardization == "sigma" else mom.delta
    z = (q - mom.mu) / scale
    return NullSample(
        q=q,
        samples=z,
        standardization=standardization,
        mean=float(np.mean(z)),
        variance=float(np.var(z, ddof=1)) if reps > 1 else 0.0,
        ks=ks_distance(z),
        moments=mom,
    )


class TestReport(NamedTuple):
    """z-test of an observed partition against the random-labeling null."""

    Q: float
    mu: float
    sigma: float
    delta: float
    z_sigma: float
    z_delta: float
    p_value: float
    sidedness: str
    standardization: str


def significance_test(
    g: Graph,
    colors,
    dist: ColorDistribution | None = None,
    sided: str = "upper",
    standardization: str = "sigma",
) -> TestReport:
    """Normal-approximation significance of a partition.

    With no explicit distribution the observed color frequencies are
    used; an explicit one must give every observed color a probability.
    ``upper`` answers "is Q larger than random labeling would produce";
    ``two_sided`` doubles the symmetric tail.
    """
    standardization = _check_standardization(standardization)
    if sided == "two":
        sided = "two_sided"
    if sided not in ("upper", "two_sided"):
        raise InputError(f"sidedness must be 'upper' or 'two_sided', got {sided!r}")
    # The colors are checked once, the length after the distribution.
    c = validate_coloring(colors, K=None if dist is None else dist.K)
    if dist is None:
        dist = ColorDistribution._observed(c)
    if dist.is_degenerate:
        raise DomainError("degenerate color distribution: z-score undefined")
    check_length(c, g.n)
    q = float(_q_of_rows(c[None, :], g, int(c.max()))[0])
    mom = null_moments(g, dist)
    z_sigma = (q - mom.mu) / mom.sigma
    z_delta = (q - mom.mu) / mom.delta
    z = z_sigma if standardization == "sigma" else z_delta
    p = upper_p_value(z) if sided == "upper" else min(1.0, 2.0 * upper_p_value(abs(z)))
    return TestReport(
        Q=q,
        mu=mom.mu,
        sigma=mom.sigma,
        delta=mom.delta,
        z_sigma=z_sigma,
        z_delta=z_delta,
        p_value=p,
        sidedness=sided,
        standardization=standardization,
    )


class RateRow(NamedTuple):
    """Per-size outcome of a rate study.

    ``ks`` is the Kolmogorov distance for the configured standardization;
    both scalings are also reported, together with the rate shape
    n^{-1/4} log n and the constant ks / shape it implies.
    """

    n: int
    m: int
    ks: float
    bound_shape: float
    fitted_C: float
    seed_used: int
    ks_sigma: float
    ks_delta: float
    sigma2_over_delta2: float


def _size_seeds(master_seed: int, n: int) -> tuple[int, int, int]:
    size_master = stream_seed(master_seed, n)
    return size_master, stream_seed(size_master, 0), stream_seed(size_master, 1)


def _ladder(
    generator_spec: GeneratorSpec | str,
    sizes,
    reps: int,
    master_seed: int,
    distribution: ColorDistribution | None,
    threads: int = 1,
):
    """Yield ``(n, size_master, g, moments, q)`` for each size of a study.

    One graph per size from the size's graph seed, its exact null moments
    under ``distribution`` (uniform on two colors by default), and ``reps``
    raw modularity values from the size's simulation master.  The spec,
    the sizes and the distribution are checked before any graph is built.
    """
    if isinstance(generator_spec, str):
        generator_spec = parse_generator_spec(generator_spec)
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) == 0 or any(s < 2 for s in sizes):
        raise InputError("sizes must all be >= 2")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InputError("sizes must be strictly increasing")
    dist = distribution if distribution is not None else ColorDistribution.uniform(2)
    if dist.is_degenerate:
        raise DomainError("degenerate color distribution in study")
    for n in sizes:
        size_master, graph_seed, sim_master = _size_seeds(master_seed, n)
        try:
            g = generator_spec.build(n, graph_seed)
        except (InputError, DomainError) as exc:
            raise type(exc)(f"generator failed at size n={n}: {exc}") from exc
        yield n, size_master, g, null_moments(g, dist), null_q_samples(
            g, dist, reps, sim_master, threads
        )


def be_rate_study(
    generator_spec: GeneratorSpec | str,
    sizes,
    reps: int,
    master_seed: int,
    distribution: ColorDistribution | None = None,
    standardization: str = "delta",
    threads: int = 1,
) -> list[RateRow]:
    """Kolmogorov distance to the normal across sizes, against the rate shape.

    One graph per size, ``reps`` standardized replicates each; KS is
    computed for both scalings from the same raw modularity values, and
    ``ks`` is the one named by ``standardization``.
    """
    standardization = _check_standardization(standardization)
    if reps < 100:
        raise InputError(f"a study needs reps >= 100, got {reps}")
    rows = []
    for n, size_master, g, mom, q in _ladder(
        generator_spec, sizes, reps, master_seed, distribution, threads
    ):
        ks_sigma = ks_distance((q - mom.mu) / mom.sigma)
        ks_delta = ks_distance((q - mom.mu) / mom.delta)
        ks = ks_sigma if standardization == "sigma" else ks_delta
        shape = n ** -0.25 * math.log(n)
        rows.append(
            RateRow(
                n=n,
                m=g.m,
                ks=ks,
                bound_shape=shape,
                fitted_C=ks / shape,
                seed_used=size_master,
                ks_sigma=ks_sigma,
                ks_delta=ks_delta,
                sigma2_over_delta2=mom.sigma2 / mom.delta2,
            )
        )
    return rows


class SllnPathSummary(NamedTuple):
    path: int
    first_half_max: float
    second_half_max: float
    decayed: bool


class SllnResult(NamedTuple):
    """``values[p, j]`` is path ``p``'s value b_n (Q - mu) at ``sizes[j]``."""

    values: np.ndarray
    sizes: tuple[int, ...]
    path_summaries: list[SllnPathSummary]
    decayed_paths: int
    paths: int


def slln_study(
    generator_spec: GeneratorSpec | str,
    sizes,
    paths: int,
    master_seed: int,
    distribution: ColorDistribution | None = None,
) -> SllnResult:
    """Path-wise decay of b_n (Q - mu) along a size ladder.

    The scaling b_n = sqrt(m) / (log n)^2 keeps b_n log n /
    sqrt(m) = 1 / log n vanishing, the regime in which the centered
    modularity is driven to zero almost surely.  Each path draws a fresh
    coloring at every size: path p at size n is replicate p of that
    size's simulation master, so one batched :func:`null_q_samples` call
    gives every path's value at a size.  Decay is summarized as
    second-half max |value| not exceeding the first-half max.
    """
    sizes = tuple(sizes)
    if len(sizes) < 2:
        raise InputError("slln study needs at least two sizes")
    if paths < 1:
        raise InputError("paths must be >= 1")
    values = np.column_stack([
        math.sqrt(g.m) / math.log(n) ** 2 * (q - mom.mu)
        for n, _, g, mom, q in _ladder(generator_spec, sizes, paths, master_seed, distribution)
    ])
    half = len(sizes) // 2
    first = np.abs(values[:, :half]).max(axis=1).tolist()
    second = np.abs(values[:, half:]).max(axis=1).tolist()
    summaries = [
        SllnPathSummary(path=path, first_half_max=f, second_half_max=s, decayed=s <= f)
        for path, (f, s) in enumerate(zip(first, second))
    ]
    return SllnResult(
        values=values,
        sizes=tuple(int(n) for n in sizes),
        path_summaries=summaries,
        decayed_paths=sum(s.decayed for s in summaries),
        paths=paths,
    )
