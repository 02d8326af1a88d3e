"""Seeded graph generators for the study families.

Three models, chosen to bracket the regularity conditions:

* ``er``  - Erdos-Renyi G(n, p); satisfies the conditions for moderate np.
* ``reg`` - random d-regular via stub pairing with edge-switch repair;
  kmax/sqrt(m) = sqrt(2d/n) decays at the critical rate.  Its edges stay
  int64 keys lo * n + hi through the repair, so a repair adds little memory.
* ``hub`` - ER base plus one vertex wired to ceil(sqrt(n-1)) others, so
  kmax grows like sqrt(n) and the max-degree condition fails by design.

Every generator is a pure function of (parameters, seed): the same call
produces a byte-identical canonical edge list on any platform.  Draws
are :mod:`modnull.rng` words.  ``reg`` and the hub spokes sort words or
reduce them to integers; ``er`` and the ``hub`` base turn each word into
a geometric gap between consecutive edges of the lexicographic pair
order (seed-contract v2), the one float step being libm's ``log`` of the
word's uniform, so generation costs O(n + m), not O(n^2).  The CLI spec
grammar is "er:p=<float>", "reg:d=<int>", "hub:p=<float>".
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InputError
from .graph import Graph
from .rng import MASK64, SplitMix64, budget_rows, stream_seed

_ER_RETRIES = 64
_PAIRING_ROUNDS = 60
_SWITCH_ATTEMPTS = 500
# Bytes per word of a block of ER gaps: the word and its mixing scratch,
# the uniform, libm's boxed logarithm, the gap and the running pair index.
_GAP_BYTES = 64
# libm log, elementwise: numpy's SIMD log may round differently between CPUs.
_libm_log = np.frompyfunc(math.log, 1, 1)


def _er_edge_array(n: int, p: float, seed: int) -> np.ndarray:
    """G(n, p) by geometric skipping over the unordered pairs, in O(n + m).

    Pairs are numbered lexicographically, 0 .. N-1.  Word x_k of stream
    ``seed`` gives the gap g_k = floor(ln((x_k + 1) * 2**-53) / ln(1 - p)),
    clamped at N, and the k-th edge is pair t_k = t_{k-1} + g_k + 1 from
    t_0 = -1, for as long as t_k < N (Batagelj and Brandes, Phys. Rev. E
    71, 036113, 2005).  Words are drawn in blocks within the byte budget.
    Returns the edges as an int64 (m, 2) array.
    """
    row_starts = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))])
    npairs = int(row_starts[-1])
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    # Blocks a little longer than the expected m + 1 words, so one block is the rule.
    want = npairs * p
    block = min(budget_rows(_GAP_BYTES), int(want + 4.0 * math.sqrt(want)) + 16)
    stream = SplitMix64(seed)
    found = []
    last = -1
    while last < npairs - 1:
        u = stream.words(block).astype(np.float64)
        u += 1.0
        u *= 2.0 ** -53
        with np.errstate(over="ignore"):  # a gap beyond any double is clamped below
            gaps = _libm_log(u).astype(np.float64) / log_q
        del u
        # Gaps of at least N end the graph; the clamp keeps them integers and
        # the sum below monotone up to its first index at or beyond N.
        t = np.minimum(np.floor(gaps, out=gaps), npairs).astype(np.int64)
        del gaps
        t += 1
        np.cumsum(t, out=t)
        t += last
        beyond = t >= npairs
        if beyond.any():
            found.append(t[: int(beyond.argmax())])
            break
        found.append(t)
        last = int(t[-1])
    sel = np.concatenate(found)
    i = np.searchsorted(row_starts, sel, side="right") - 1
    return np.column_stack([i, sel - row_starts[i] + i + 1])


def gen_er(n: int, p: float, seed: int) -> Graph:
    """G(n, p) conditioned on having at least one edge.

    Empty draws retry with seed+1 (bounded); this only matters for tiny
    n*p, where a handful of retries is enough or the model is hopeless.
    """
    if n < 2:
        raise InputError("er model needs n >= 2")
    if not 0.0 < p <= 1.0:
        raise InputError(f"er model needs 0 < p <= 1, got {p}")
    for attempt in range(_ER_RETRIES):
        edges = _er_edge_array(n, p, (seed + attempt) & MASK64)
        if len(edges):
            return Graph(n, edges)
    raise DomainError(
        f"er generator produced no edges in {_ER_RETRIES} attempts (n={n}, p={p})"
    )


def _try_switch(u: int, v: int, k: int, n: int, edge_set: set[int], edge_list: array) -> bool:
    """Replace edge ``edge_list[k]`` = (x, y) by (u, x) and (v, y) if both are new.

    Edges are keys lo * n + hi.  ``edge_set`` need only hold the edges at u
    and v: every key looked up or added names one of them.
    """
    x, y = divmod(edge_list[k], n)
    if x in (u, v) or y in (u, v):
        return False
    for a, b in ((x, y), (y, x)):
        # Never equal: u and v are neither x nor y.
        ea = min(u, a) * n + max(u, a)
        eb = min(v, b) * n + max(v, b)
        if ea not in edge_set and eb not in edge_set:
            edge_set.discard(edge_list[k])
            edge_list[k] = edge_list[-1]
            edge_list.pop()
            edge_set.update((ea, eb))
            edge_list.extend((ea, eb))
            return True
    return False


def _switch_repair(leftover: list[int], keys: np.ndarray, n: int, rng: SplitMix64) -> np.ndarray:
    """Place remaining stub pairs by splicing them into random existing edges.

    For stubs (u, v) pick an edge (x, y) disjoint from them; replacing it
    by (u, x) and (v, y) leaves the degrees of x and y unchanged while u
    and v each gain one.  A pair that no random edge takes hands every
    stub left to :func:`_complete_stubs`.  The edges, keys lo * n + hi,
    are one int64 array edited by swap-remove, and the membership set
    holds only the edges at a stub holder, the only ones ever asked about.
    """
    held = np.zeros(n, dtype=bool)
    held[leftover] = True
    edge_set = set(keys[held[keys // n] | held[keys % n]].tolist())
    edge_list = array("q", keys.tobytes())
    for idx in range(0, len(leftover), 2):
        u, v = leftover[idx], leftover[idx + 1]
        for _ in range(_SWITCH_ATTEMPTS):
            if _try_switch(u, v, rng.randbelow(len(edge_list)), n, edge_set, edge_list):
                break
        else:
            _complete_stubs(leftover[idx:], n, edge_set, edge_list)
            break
    return np.frombuffer(edge_list, dtype=np.int64)


def _complete_stubs(stubs: list[int], n: int, edge_set: set[int], edge_list: array) -> None:
    """Give each vertex one edge per stub it holds, deterministically.

    Each step takes the smallest vertex a holding a stub.  If a is not
    adjacent to some other holder b, it adds (a, b).  Otherwise it splices
    (a, b) into the first edge (x, y) that takes it, for b the next holder
    (or a again when a holds every stub left).  Such an edge always
    exists: a and b have degree below d < n, and every non-neighbour x of
    a has degree d (the other holders are all a's neighbours), so if no
    neighbour of x were a non-neighbour of b, x would have fewer than d
    neighbours.  So every input with n*d even and d < n is completed.
    """
    need = Counter(stubs)
    while need:
        held = sorted(need)
        a = held[0]
        b = next((w for w in held[1:] if a * n + w not in edge_set), None)
        if b is not None:
            edge_set.add(a * n + b)
            edge_list.append(a * n + b)
        else:
            b = held[1] if len(held) > 1 else a
            _try_switch(a, b, _first_splice(a, b, n, edge_list), n, edge_set, edge_list)
        need -= Counter((a, b))


def _first_splice(a: int, b: int, n: int, edge_list: array) -> int:
    """Position of the first edge (x, y) that :func:`_try_switch` can replace
    by (a, x), (b, y) or by (a, y), (b, x)."""
    x, y = np.divmod(np.frombuffer(edge_list, dtype=np.int64), n)
    near = np.zeros((2, n), dtype=bool)  # the neighbours of a and of b
    for row, w in enumerate((a, b)):
        near[row, y[x == w]] = True
        near[row, x[y == w]] = True
    ok = (x != a) & (x != b) & (y != a) & (y != b)
    ok &= ~(near[0, x] | near[1, y]) | ~(near[0, y] | near[1, x])
    if not ok.any():  # unreachable, see _complete_stubs
        raise DomainError("regular-graph repair failed")
    return int(ok.argmax())


def _stable_order(words: np.ndarray) -> np.ndarray:
    """``np.argsort(words, kind="stable")``, by the faster default sort when no two words tie.

    Without ties the sorting permutation is unique, so any sort gives it;
    the stable sort runs only when adjacent sorted words are equal.
    """
    order = np.argsort(words)
    ranked = words[order]
    if (ranked[1:] == ranked[:-1]).any():
        return np.argsort(words, kind="stable")
    return order


def gen_regular(n: int, d: int, seed: int) -> Graph:
    """Random simple d-regular graph by stub pairing with repair.

    Repeated pairing passes keep the valid pairs and reshuffle the rest;
    stubs that cannot pair cleanly are spliced in by edge switches.  The
    sampling law is not exactly uniform over regular graphs, which is
    irrelevant here; determinism and exact degrees are the contract.
    """
    if not 0 < d < n:
        raise InputError(f"regular model needs 0 < d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise DomainError(f"n*d must be even to realize a d-regular graph (n={n}, d={d})")
    rng = SplitMix64(seed)
    # Edge keys lo * n + hi: those placed so far, sorted and closed by a
    # sentinel above every key, and each pass's new ones in pair order.
    placed = np.array([n * n], dtype=np.int64)
    passes = []
    work = np.repeat(np.arange(n, dtype=np.int64), d)
    stalls = 0
    for _ in range(_PAIRING_ROUNDS):
        if len(work) == 0:
            break
        pairs = work[_stable_order(rng.words(len(work)))].reshape(-1, 2)
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        keys = lo * n + hi
        # A pair is placed unless it is a loop, an edge placed before, or
        # a repeat of an earlier pair of this pass.
        first = np.zeros(len(keys), dtype=bool)
        first[np.unique(keys, return_index=True)[1]] = True
        ok = (lo != hi) & (placed[np.searchsorted(placed, keys)] != keys) & first
        passes.append(keys[ok])
        placed = np.sort(np.concatenate([placed, passes[-1]]))
        work = pairs[~ok].reshape(-1)
        stalls = 0 if ok.any() else stalls + 1
        if stalls >= 3:
            break
    keys = np.concatenate(passes)
    if len(work):
        keys = _switch_repair(work.tolist(), keys, n, rng)
    return Graph(n, np.column_stack([keys // n, keys % n]))


def gen_hub(n: int, p: float, seed: int) -> Graph:
    """ER(n-1, p) base plus a hub adjacent to ceil(sqrt(n-1)) base vertices.

    The hub forces kmax >= ceil(sqrt(n-1)) for every seed, the canonical
    way to break the max-degree condition.  p = 0 is allowed (pure star);
    the hub edges guarantee m >= 1 regardless.
    """
    if n < 4:
        raise InputError(f"hub model needs n >= 4, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"hub model needs 0 <= p <= 1, got {p}")
    base_n = n - 1
    spokes = SplitMix64(stream_seed(seed, 1)).sample_indices(ceil_sqrt(base_n), base_n)
    edges = [np.column_stack([spokes, np.full(len(spokes), n - 1)])]
    if p > 0.0:
        edges.append(_er_edge_array(base_n, p, stream_seed(seed, 0)))
    return Graph(n, np.concatenate(edges))


class GeneratorSpec(NamedTuple):
    """Parsed model spec; ``build`` instantiates it at a size and seed."""

    model: str
    p: float | None = None
    d: int | None = None

    def build(self, n: int, seed: int) -> Graph:
        if self.model == "er":
            return gen_er(n, self.p, seed)
        if self.model == "reg":
            return gen_regular(n, self.d, seed)
        if self.model == "hub":
            return gen_hub(n, self.p, seed)
        raise InputError(f"unknown generator model {self.model!r}")

    def __str__(self) -> str:
        if self.model == "reg":
            return f"reg:d={self.d}"
        return f"{self.model}:p={self.p!r}"


def parse_generator_spec(text: str) -> GeneratorSpec:
    """Parse "er:p=<float>", "reg:d=<int>" or "hub:p=<float>"."""
    model, _, params = text.partition(":")
    model = model.strip()
    key, _, value = params.partition("=")
    key = key.strip()
    value = value.strip()
    try:
        if model == "er" and key == "p":
            spec = GeneratorSpec(model="er", p=float(value))
            if not 0.0 < spec.p <= 1.0:
                raise InputError(f"er model needs 0 < p <= 1, got {spec.p}")
            return spec
        if model == "reg" and key == "d":
            spec = GeneratorSpec(model="reg", d=int(value))
            if spec.d < 1:
                raise InputError(f"reg model needs d >= 1, got {spec.d}")
            return spec
        if model == "hub" and key == "p":
            spec = GeneratorSpec(model="hub", p=float(value))
            if not 0.0 <= spec.p <= 1.0:
                raise InputError(f"hub model needs 0 <= p <= 1, got {spec.p}")
            return spec
    except ValueError:
        raise InputError(f"bad parameter value in generator spec {text!r}") from None
    raise InputError(
        f"bad generator spec {text!r}; expected er:p=<float>, reg:d=<int> or hub:p=<float>"
    )


def ceil_sqrt(x: int) -> int:
    """ceil(sqrt(x)) in exact integer arithmetic; gen_hub wires this many spokes at x = n - 1."""
    r = math.isqrt(x)
    return r if r * r == x else r + 1
