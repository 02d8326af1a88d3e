"""Simple undirected graphs in compressed sparse row form, plus degree statistics.

The edge-list text format is one edge per line (two whitespace-separated
0-based vertex ids), ``#`` comment lines, and an optional ``# n=<count>``
directive that declares the vertex count (the only way to get isolated
vertices); the first directive bounds every id in the file, wherever it
sits.  Self-loops and repeated edges are rejected as data bugs, not
cleaned up silently.  The canonical writer emits the directive followed
by edges with ``u < v`` in lexicographic order, newline terminated and
formatted by :func:`serialize.format_rows` like every CSV, so
``parse_edge_list(write_edge_list(g))`` reproduces ``g`` byte for byte.

Ingest is linear in the input and runs on cache-sized temporaries.
:func:`int_rows` reads the text as bytes (decoding only text that is not
ASCII) and splits it into integer rows a block of whole lines at a time,
within the byte budget of :func:`rng.budget_rows`, following
``str.splitlines``, ``str.split`` and ``int`` exactly; digits are
converted eight at a time.  The rows then go to the :class:`Graph`
constructor, whose checks run once over whole arrays against one scalar
vertex bound, and an error is reported at its source line by mapping
the offending row back to it.  Degree statistics are exact integers: power
sums over the distinct degrees, and int64 dot products over blocks of
edges that cannot overflow, added as Python integers.  The
common-neighbour Frobenius statistic counts 4-cycles in
O(m * arboricity) time without ever forming A^2, sorting uint32 keys of
ranked wedges in blocks of the same budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InputError
from .rng import budget_rows
from .serialize import format_rows

_DIRECTIVE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")

# Non-ASCII characters that str.split() treats as whitespace, mapped to an
# ASCII byte with the same role: " " within a line, and "\x0b" for the line
# breaks of str.splitlines() ("\x0b" never pairs with a preceding "\r").
_UNICODE_SPACE = str.maketrans(
    {
        **dict.fromkeys([0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000], " "),
        **dict.fromkeys([0x85, 0x2028, 0x2029], "\x0b"),
    }
)
# A string of at most 18 decimal digits fits in int64.
_FAST_DIGITS = 18
_U64 = np.uint64
# Digit bytes xor _ZEROS are 0..9; _BIAS added to such a byte sets no bit of _HIGH.
_ZEROS = _U64(0x3030303030303030)
_BIAS = _U64(0x7676767676767676)
_HIGH = _U64(0x8080808080808080)
# Entry c keeps the c high bytes of a word: the last c bytes before its end.
_KEEP_HIGH = np.array([(1 << 64) - (1 << (64 - 8 * c)) for c in range(9)], dtype=np.uint64)
# Line breaks of str.splitlines() in ASCII text, other than "\n".
_OTHER_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_INT64_MAX = np.iinfo(np.int64).max
# The most int64 entries numpy can size: n * 8 bytes must fit in intp.
_MAX_VERTICES = _INT64_MAX // 8
# (lo << bits) | hi stays below 2**63 for ids of at most this many bits.
_PACK_BITS = 31


class Graph:
    """Immutable simple undirected graph.

    Edges are stored canonically as parallel arrays ``edge_lo < edge_hi``
    sorted lexicographically, the one edge order every consumer reads.
    A refused edge raises :class:`EdgeError`, which names its input row.
    Instances are safe to share across threads; degrees and degree sums
    are cached on first use.
    """

    def __init__(self, n: int, edges):
        try:
            whole = int(n) == n
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise InputError(f"vertex count must be an integer, got {n!r}")
        n = int(n)
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs, kept = int64_entries(edges)
        if pairs.size == 0:
            raise DomainError("graph has no edges (every statistic divides by m)")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise EdgeError(_first_non_pair(edges), "pairs")
        lo, hi, fault = _canonical_edges(pairs[:, 0], pairs[:, 1], n, kept[:, 0] & kept[:, 1])
        if fault is not None:
            row, kind = fault
            u, v = sorted(pairs[row].tolist())
            raise EdgeError(row, kind, u, v, n)
        for arr in (lo, hi):
            arr.setflags(write=False)
        self.n = n
        self.m = int(lo.shape[0])
        self.edge_lo = lo
        self.edge_hi = hi

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edge_lo, minlength=self.n) + np.bincount(
            self.edge_hi, minlength=self.n
        )
        deg.setflags(write=False)
        return deg

    @cached_property
    def _deg_float(self) -> np.ndarray:
        # Degrees are < 2**53, so this float copy is exact.
        d = self.degrees.astype(np.float64)
        d.setflags(write=False)
        return d

    @cached_property
    def _degree_planes(self) -> list[tuple[int, np.ndarray | None]]:
        """(2**k summed over the planes, vertices) of the degrees' bit planes.

        Plane k holds the vertices whose degree has bit k set.  Planes that
        hold every vertex share one entry with no index (no gather needed),
        and empty planes are left out.  The vertex arrays stay writeable:
        ``np.take`` copies a read-only index array on every call.
        """
        planes, full = [], 0
        for k in range(int(self.degrees.max()).bit_length()):
            members = np.flatnonzero(self.degrees >> k & 1)
            if members.size == self.n:
                full += 1 << k
            elif members.size:
                planes.append((1 << k, members))
        return planes + [(full, None)] if full else planes

    @cached_property
    def _edge_degree_product_sum(self) -> int:
        """Exact sum of k_u * k_v over edges.

        int64 dot products over blocks of edges short enough that a block's
        sum stays below 2**63, added up as Python integers.
        """
        deg, lo, hi = self.degrees, self.edge_lo, self.edge_hi
        # 16 bytes per edge: the two gathered degrees.
        step = min(budget_rows(16), _INT64_MAX // self.summary.kmax ** 2)
        return sum(
            int(np.dot(deg[lo[s:s + step]], deg[hi[s:s + step]])) for s in range(0, self.m, step)
        )

    @cached_property
    def summary(self) -> "DegreeSummary":
        """Exact integer summary (n, m, S2, S4, kmax) of the degree sequence.

        The power sums run over the distinct degrees, at most ~2 sqrt(m) of
        them, as Python integers weighted by how many vertices have each.
        """
        deg = self.degrees
        if int(deg.sum()) != 2 * self.m:
            raise AssertionError("degree sum does not equal twice the edge count")
        count = np.bincount(deg)
        ks = np.flatnonzero(count)
        pairs = list(zip(ks.tolist(), count[ks].tolist()))
        s2 = sum(c * k ** 2 for k, c in pairs)
        s4 = sum(c * k ** 4 for k, c in pairs)
        return DegreeSummary(n=self.n, m=self.m, S2=s2, S4=s4, kmax=int(ks[-1]))

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.edge_lo.tolist(), self.edge_hi.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self.edge_lo, other.edge_lo))
            and bool(np.array_equal(self.edge_hi, other.edge_hi))
        )

    __hash__ = None  # mutable-free but identity is not meaningful for keys

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DegreeSummary:
    """Exact integer degree statistics: S2 = sum k^2, S4 = sum k^4."""

    n: int
    m: int
    S2: int
    S4: int
    kmax: int


class EdgeError(InputError):
    """An edge that :class:`Graph` refuses, worded by ``kind`` from the one
    table of edge faults; ``row`` is its index in the input."""

    def __init__(self, row: int, kind: str, u: int = 0, v: int = 0, n: int = 0):
        super().__init__({
            "pairs": "edges must be pairs of vertex ids",
            "integer": "vertex ids must be integers",
            "negative": "vertex ids must be nonnegative",
            "loop": f"self-loop at vertex {u}",
            "limit": f"vertex id {v} >= n={n}",
            "repeat": f"duplicate edge {u} {v}",
        }[kind])
        self.row = row


def _first_non_pair(edges) -> int:
    """Index of the first entry of ``edges`` that is not a pair; 0 when
    ``edges`` has no entries to scan."""
    for i, e in enumerate(np.atleast_1d(edges) if isinstance(edges, np.ndarray) else edges):
        try:
            if np.shape(e) != (2,):
                return i
        except ValueError:  # ragged
            return i
    return 0


def _canonical_edges(u: np.ndarray, v: np.ndarray, limit: int, whole: np.ndarray):
    """Sort edges canonically and find the first invalid one.

    Returns ``(lo, hi, fault)``: the edges as ``lo < hi`` sorted
    lexicographically, and ``None`` or ``(row, kind)`` for the first row,
    in input order, that fails a check.  Each row is checked, in this
    order, for an id that is no "integer" (``whole`` is False), a
    "negative" id, a self-"loop", an id at or above the scalar ``limit``
    ("limit"), and a "repeat" of an earlier row, which is reported at its
    second occurrence.
    """
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    bad = ~whole | (lo < 0) | (lo == hi) | (hi >= limit)
    bits = int(hi.max()).bit_length()
    if bits <= _PACK_BITS and not bad.any():
        key = lo << bits
        key |= hi
        key.sort()
        if not np.any(key[1:] == key[:-1]):
            np.bitwise_and(key, (1 << bits) - 1, out=hi)
            key >>= bits
            return key, hi, None
    order = np.lexsort((hi, lo))  # stable: equal pairs keep their input order
    slo, shi = lo[order], hi[order]
    repeat = (slo[1:] == slo[:-1]) & (shi[1:] == shi[:-1])
    rows = []
    if bad.any():
        r = int(np.argmax(bad))
        rows.append((r, "integer" if not whole[r] else "negative" if lo[r] < 0
                     else "loop" if lo[r] == hi[r] else "limit"))
    if repeat.any():
        rows.append((int(order[1:][repeat].min()), "repeat"))
    # A row fails its own checks before it is compared with earlier rows.
    return slo, shi, (min(rows, key=lambda f: (f[0], f[1] == "repeat")) if rows else None)


def int64_entries(values) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as an int64 array, and whether numpy's conversion kept each
    entry: it fails on or changes 1.7, nan, inf, 2.0**63 or None, whose
    places then hold arbitrary values.  An int64 array is returned as is.
    Ragged ``values``, which no array holds, come back as one unkept entry
    of shape (), which is neither a vector nor a table of pairs.
    """
    try:
        a = np.asarray(values)
    except ValueError:
        return np.zeros((), np.int64), np.zeros((), bool)
    try:
        with np.errstate(invalid="ignore"):  # nan and inf cast to garbage, marked below
            c = a.astype(np.int64, copy=False)
    except (TypeError, ValueError, OverflowError):
        if a.size == 1:
            return np.zeros(a.shape, np.int64), np.zeros(a.shape, bool)
        c, kept = zip(*map(int64_entries, a.reshape(-1)))
        return np.array(c, np.int64).reshape(a.shape), np.array(kept).reshape(a.shape)
    return c, np.ones(a.shape, bool) if a.dtype.kind in "biSU" else c == a


@dataclass(frozen=True)
class IntRows:
    """Integer rows of a whitespace-separated text table; see :func:`int_rows`."""

    values: np.ndarray  # (rows, width) int64; a token that is not an integer reads 0
    line: np.ndarray  # 1-based source line of each row
    fits: np.ndarray  # exactly ``width`` tokens
    well_formed: np.ndarray  # exactly ``width`` tokens, each an int64 integer
    comments: list  # (line, stripped text) of every comment line, in order


def int_rows(text: str | bytes, width: int) -> IntRows:
    """Split ``text`` into rows of ``width`` integers, a block of lines at a time.

    Lines, tokens and integers are those of ``str.splitlines``,
    ``str.split`` and ``int``: a line whose first token starts with ``#``
    is a comment, a line with no token is skipped, and every other line is
    a row.  A token that ``int`` rejects, or whose value falls outside
    int64, leaves its row malformed.  ``bytes`` are read as UTF-8, and
    only a text that is not ASCII is decoded and its Unicode spaces mapped
    to ASCII ones.  The text then goes through in blocks of whole lines of
    about ``rng.budget_rows(32)`` bytes (64 KiB), so every temporary stays
    within the byte budget; each block carries the count of line breaks
    before it.  Plain digit strings are converted eight digits at a time
    (see :func:`_token_ints`); only other tokens (signs, underscores,
    non-ASCII digits, very long strings) go through ``int`` one by one.
    """
    data = _ascii_bytes(text)
    buf = np.frombuffer(data, dtype=np.uint8)
    parts, line0 = [], 0
    # The masks, token arrays and digit words of a block take about 11
    # bytes per byte of an edge list, and at most ~27 on text of one-digit
    # tokens.
    for s, e in _line_blocks(data, budget_rows(32)):
        part, breaks = _block_rows(data, buf, s, e, width, line0)
        parts.append(part)
        line0 += breaks
    values, line, fits, well_formed, comments = zip(*parts)
    del parts  # so each field's blocks go once the field is joined
    values = np.concatenate(values)
    line = np.concatenate(line)
    return IntRows(
        values, line, np.concatenate(fits), np.concatenate(well_formed),
        [c for block in comments for c in block],
    )


def _ascii_bytes(text: str | bytes) -> bytes:
    """``text`` as bytes in which every whitespace character is ASCII."""
    if isinstance(text, str):
        return text.encode() if text.isascii() else text.translate(_UNICODE_SPACE).encode()
    return text if text.isascii() else text.decode().translate(_UNICODE_SPACE).encode()


def _line_blocks(data: bytes, size: int):
    r"""``(start, end)`` of consecutive pieces of ``data``, each of whole lines.

    A piece ends just after the last line break within ``size`` bytes of
    its start (after the first one past them, if there is none there), and
    takes the ``\n`` of a ``\r\n`` pair along.  An empty text is one empty
    piece.
    """
    s = 0
    while True:
        e = s + size
        if e >= len(data):
            yield s, len(data)
            return
        cut = data.rfind(b"\n", s, e)
        cut = max(cut, *(data.rfind(c, max(cut, s), e) for c in _OTHER_BREAKS))
        if cut < 0:
            found = [i for i in (data.find(c, e) for c in (b"\n", *_OTHER_BREAKS)) if i >= 0]
            if not found:
                yield s, len(data)
                return
            cut = min(found)
        cut += 2 if data[cut] == 13 and data[cut + 1:cut + 2] == b"\n" else 1
        yield s, cut
        s = cut


def _block_rows(data: bytes, buf: np.ndarray, s: int, e: int, width: int, line0: int):
    """The rows of ``data[s:e]``, a piece of whole lines after ``line0`` line breaks.

    Returns the :class:`IntRows` fields of the piece and its count of line
    breaks.  When every line holds ``width`` tokens and none is a comment,
    the rows are the tokens taken ``width`` at a time, and line numbers
    follow from the breaks alone.
    """
    b = buf[s:e]
    # ASCII whitespace is 9..13 and 28..32; of it, str.splitlines() breaks
    # lines at 10..13 and 28..30, and "\r\n" is one break.
    space = np.ones(b.size + 2, dtype=bool)
    np.logical_or(b - np.uint8(9) <= 4, b - np.uint8(28) <= 4, out=space[1:-1])
    breaks = (b - np.uint8(10) <= 3) | (b - np.uint8(28) <= 2)
    if data.find(b"\r", s, e) >= 0:
        breaks[1:] &= (b[1:] != 10) | (b[:-1] != 13)
    lines = int(np.count_nonzero(breaks))
    # Tokens start and end where the space mask changes.
    edges = np.flatnonzero(space[1:] != space[:-1])
    start, end = edges[0::2], edges[1::2]
    value, numeric = _token_ints(data, b, start, end, s)
    # The piece is regular when a break follows the last token of every
    # group of ``width`` and there are no other breaks (the text's last
    # line may lack one).
    row_end = end[width - 1::width]
    if row_end.size and row_end[-1] == b.size:
        row_end = row_end[:-1]
    if (
        start.size % width == 0
        and row_end.size == lines
        and data.find(b"#", s, e) < 0
        and bool(breaks[row_end].all())
    ):
        row_line = np.arange(line0 + 1, line0 + 1 + start.size // width)
        fits = np.ones(row_line.size, dtype=bool)
        comments = []
    else:
        line = np.searchsorted(np.flatnonzero(breaks), start) + (line0 + 1)
        head = np.ones(start.size, dtype=bool)
        head[1:] = line[1:] != line[:-1]
        hash_line = b[start[head]] == ord("#")
        comment = hash_line[np.cumsum(head) - 1]
        tail = np.ones(start.size, dtype=bool)
        tail[:-1] = head[1:]
        comments = [
            (ln, data[s + a:s + z].decode())
            for ln, a, z in zip(
                line[head][hash_line].tolist(),
                start[head][hash_line].tolist(),
                end[tail][hash_line].tolist(),
            )
        ]
        keep = ~comment
        value, numeric, head = value[keep], numeric[keep], head[keep]
        row_line = line[keep][head]
        first = np.flatnonzero(head)
        fits = np.diff(np.append(first, value.size)) == width
    if fits.all():
        values = value.reshape(-1, width)
        well_formed = fits if numeric.all() else numeric.reshape(-1, width).all(axis=1)
    else:
        cols = first[fits][:, None] + np.arange(width)
        values = np.zeros((first.size, width), dtype=np.int64)
        values[fits] = value[cols]
        well_formed = fits.copy()
        well_formed[fits] = numeric[cols].all(axis=1)
    return (values, row_line, fits, well_formed, comments), lines


def _token_ints(data: bytes, b: np.ndarray, start: np.ndarray, end: np.ndarray, s: int):
    """Integer value of each token ``b[start:end]`` and whether it is one.

    ``b`` is the block ``data[s:e]`` as uint8.  A plain token, at most
    ``_FAST_DIGITS`` ASCII digits, is read eight digits at a time: the
    little-endian word of the eight bytes that end at a digit group holds
    the group's digits in its high bytes, and three multiply-shift steps
    combine them into pairs, fours and eights (the digit bytes xor "0" are
    0..9, and a byte is a digit when adding 0x76 sets no high bit).
    Other tokens go through ``int``; a token that is not an integer reads 0.
    """
    length = end - start
    # words[k] holds the eight bytes before b[k]: b behind eight bytes of
    # padding, which the masks drop, read as overlapping words.
    padded = np.empty(b.size + 8, dtype=np.uint8)
    padded[8:] = b
    words = np.ndarray((b.size + 1,), dtype="<u8", buffer=padded, strides=(1,))
    wide = length.max(initial=0) > 8
    value, numeric = _eight_digits(words[end], np.minimum(length, 8) if wide else length)
    if wide:
        numeric &= length <= _FAST_DIGITS
        # Group k holds the digits 8k + 1 .. 8k + 8 from the token's end.
        for k in range(1, (_FAST_DIGITS + 7) // 8):
            more = np.flatnonzero(numeric & (length > 8 * k))
            group, ok = _eight_digits(words[end[more] - 8 * k], np.minimum(length[more] - 8 * k, 8))
            value[more] += group * _U64(10 ** (8 * k))
            numeric[more] = ok
    value = value.view(np.int64)
    for i in np.flatnonzero(~numeric).tolist():
        value[i] = 0
        try:
            x = int(data[s + start[i]:s + end[i]].decode())
        except ValueError:
            continue
        if -_INT64_MAX - 1 <= x <= _INT64_MAX:
            value[i], numeric[i] = x, True
    return value, numeric


def _eight_digits(word: np.ndarray, count: np.ndarray):
    """Decimal value of the ``count`` (at most 8) high bytes of each word,
    the last bytes before its end, and whether they are all ASCII digits."""
    word ^= _ZEROS
    word &= _KEEP_HIGH[count]
    ok = ((word + _BIAS) | word) & _HIGH == 0
    word *= _U64(1 + (10 << 8))
    word >>= _U64(8)
    word &= _U64(0x00FF00FF00FF00FF)
    word *= _U64(1 + (100 << 16))
    word >>= _U64(16)
    word &= _U64(0x0000FFFF0000FFFF)
    word *= _U64(1 + (10000 << 32))
    word >>= _U64(32)
    return word, ok


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse the edge-list format described in the module docstring.

    Rejects self-loops, duplicate edges (in either order), ids at or
    above a declared vertex count, and zero-edge inputs, reporting the
    offending line number: the first line that fails, and for a repeated
    edge the line that repeats it.  A file with none of these faults is
    still refused when its vertex count exceeds the int64 entries numpy
    can size, at the line that sets the count.  The first directive declares the
    vertex count of the whole file, wherever it sits.
    """
    rows = int_rows(text, 2)
    if rows.line.size == 0:
        raise InputError("edge list contains no edges")
    directive = next(((ln, int(match.group(1))) for ln, comment in rows.comments
                      if (match := _DIRECTIVE.match(comment))), None)
    if directive is None:
        # One past the largest id, but a vertex count must fit in int64.
        n = min(int(rows.values.max()) + 1, _INT64_MAX)
    else:
        n = directive[1]
    fault = None
    try:
        g = Graph(n, rows.values)
    except EdgeError as exc:
        fault = exc
    # A token that is not an integer reads 0, so a malformed row can also
    # fault as an edge: one at or before the first fault is reported.
    stop = rows.line.size if fault is None else fault.row + 1
    malformed = np.flatnonzero(~rows.well_formed[:stop])
    if malformed.size:
        row = int(malformed[0])
        ln = int(rows.line[row])
        if not rows.fits[row]:
            raw = (text.decode() if isinstance(text, bytes) else text).splitlines()[ln - 1]
            raise InputError(f"line {ln}: expected two vertex ids, got {raw!r}")
        fault = EdgeError(row, "integer")
    if fault is not None:
        raise InputError(f"line {rows.line[fault.row]}: {fault}")
    if n > _MAX_VERTICES:
        # At the line that sets n: the directive's, or the first with the largest id.
        ln = directive[0] if directive else rows.line[np.argmax(rows.values.max(axis=1))]
        raise InputError(f"line {ln}: n={n} vertices, but an int64 array holds at most "
                         f"{_MAX_VERTICES} entries")
    return g


def write_edge_list(g: Graph) -> str:
    """Canonical text form: ``# n=`` directive then sorted ``u v`` lines.

    The lines are formatted by :func:`serialize.format_rows` in blocks of
    ``rng.budget_rows(128)`` edges (16384; tracemalloc reads ~120 bytes per
    edge), then joined with the directive in one pass and decoded once.
    """
    lines = format_rows(b"%d %d\n", [g.edge_lo, g.edge_hi], 128)
    return b"".join([b"# n=%d\n" % g.n, *lines]).decode("ascii")


def common_neighbor_frobenius(g: Graph) -> int:
    """Squared Frobenius norm of the common-neighbor count matrix A^2.

    Entry (i, j) of that matrix counts common neighbors of i and j; the
    diagonal equals the degrees.  Uses the exact identity
    ||A^2||_F^2 = tr(A^4) = 2 S2 - 2m + 8 C4, with C4 the number of
    4-cycles, so A^2 is never formed.  See :func:`four_cycles` for the cost.
    """
    return 2 * g.summary.S2 - 2 * g.m + 8 * four_cycles(g)


def four_cycles(g: Graph) -> int:
    """Number of 4-cycles, in O(m * arboricity) time and bounded memory.

    Vertices are ranked by (degree, id).  A 4-cycle is counted once, from
    its top-ranked vertex v and the opposite vertex w: for every edge u-v
    with u below v, v is paired with each neighbour w of u ranked below v
    (a ranked wedge), and each pair (v, w) reached by c wedges closes
    C(c, 2) cycles.  Edge u-v gives at most min(k_u, k_v) wedges, so there
    are O(m * arboricity) of them (Chiba and Nishizeki, SIAM J. Comput. 14,
    1985).

    The ranked CSR, every row ascending, is built once from two sorts of
    packed int64 keys.  Sorting the edges by (lower end u, upper end v)
    lays out the upper part of every row, so edge e, at position e, gives
    the length of u's row prefix below v; sorting them again by (v, e)
    groups them by top vertex and lays out the lower part of every row.
    Each temporary is freed before the next one is made.  Wedges are then
    expanded in blocks of about ``rng.budget_rows(32)`` (64Ki) that never
    split a top vertex and whose tops span at most 2^32 // n ranks, so
    every pair (v, w) fits the uint32 key (v - v0) * n + w, v0 the block's
    first top.  A block's keys are sorted, and one compare of neighbouring
    keys finds the runs of equal pairs.  All counts are exact integers.
    """
    n, m = g.n, g.m
    bits, ebits = max(1, (n - 1).bit_length()), max(1, (m - 1).bit_length())
    if bits + max(bits, ebits) > 63:
        raise DomainError(f"graph too large for the 4-cycle count (n={n}, m={m})")
    low = (1 << bits) - 1
    rank = np.empty(n, dtype=np.int64)
    rank[np.sort((g.degrees << bits) | np.arange(n)) & low] = np.arange(n)
    a, b = rank[g.edge_lo], rank[g.edge_hi]
    del rank
    key = np.minimum(a, b)
    np.maximum(a, b, out=a)
    del b
    key <<= bits
    key |= a
    del a
    key.sort()
    # Edge e joins u_e below v_e, in (u, v) order.
    u_e = key >> bits
    v_e = np.bitwise_and(key, low, out=key)
    del key
    # Row r of the ranked CSR holds its lower neighbours, then its upper
    # ones, from below[r] + above[r]: below[r] and above[r] count the edges
    # whose upper and lower ends rank below r.  Edge e puts v_e at
    # below[u_e + 1] + e, so u_e's neighbours below v_e are the row prefix
    # of length e + below[u_e + 1] - below[u_e] - above[u_e].
    below = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(v_e, minlength=n), out=below[1:])
    above = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u_e, minlength=n), out=above[1:])
    edge = np.arange(m)
    nbr = np.empty(2 * m, dtype=np.uint32)
    at = below[u_e + 1]
    at += edge
    nbr[at] = v_e
    del at
    # The same edges by (v, e): grouped by top vertex.
    key = v_e << ebits
    del v_e
    key |= edge
    key.sort()
    top = key >> ebits
    by_top = np.bitwise_and(key, (1 << ebits) - 1, out=key)
    del key
    bottom = u_e[by_top]
    del u_e
    at = above[top]
    at += edge
    nbr[at] = bottom
    del at, edge
    row_start = below + above
    wedges = by_top  # the prefix lengths, in place of the edge positions
    wedges += (below[1:] - row_start[:-1])[bottom]
    row_start = row_start[bottom]
    del below, above, bottom
    first = np.flatnonzero(np.r_[True, top[1:] != top[:-1]])
    per_top = np.add.reduceat(wedges, first)
    # A block's temporaries take at most ~25 bytes per wedge.
    new_block = (np.diff((np.cumsum(per_top) - per_top) // budget_rows(32)) > 0) | (
        np.diff(top[first] // max(1, (1 << 32) // n)) > 0
    )
    cuts = first[np.r_[True, new_block]]
    total = 0
    for e0, e1 in zip(cuts.tolist(), np.append(cuts[1:], m).tolist()):
        c = wedges[e0:e1]
        count = int(c.sum())
        if count == 0:
            continue
        offset = np.cumsum(c) - c
        w = nbr[np.repeat(row_start[e0:e1] - offset, c) + np.arange(count)]
        pair = np.repeat(((top[e0:e1] - top[e0]) * n).astype(np.uint32), c)
        pair += w
        del w
        pair.sort()
        same = np.flatnonzero(pair[1:] == pair[:-1])
        if same.size:
            # A run of r equal neighbours is a pair (v, w) reached r + 1 times.
            ends = np.flatnonzero(np.diff(same) != 1)
            r = np.diff(np.r_[-1, ends, same.size - 1])
            total += int(np.dot(r, r + 1)) // 2
    return total
