import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modnull.graph as graph_module
from conftest import (
    chung_lu,
    complete_bipartite,
    complete_graph,
    dense_adjacency,
    er_corpus,
    frobenius_by_matrix_product,
    parse_edge_list_by_lines,
    write_edge_list_by_lines,
)
from modnull import (
    DegreeSummary,
    DomainError,
    Graph,
    InputError,
    common_neighbor_frobenius,
    parse_edge_list,
    rng,
    write_edge_list,
)


def frobenius_bruteforce(g):
    a = dense_adjacency(g)
    two_hop = a @ a
    return float((two_hop ** 2).sum())


def test_parse_triangle():
    g = parse_edge_list("0 1\n0 2\n1 2\n")
    assert (g.n, g.m) == (3, 3)
    assert g.degrees.tolist() == [2, 2, 2]


def test_parse_path():
    g = parse_edge_list("0 1\n1 2\n")
    assert (g.n, g.m) == (3, 2)
    assert g.degrees.tolist() == [1, 2, 1]


def test_parse_rejects_self_loop_with_line_number():
    with pytest.raises(InputError, match="line 1.*self-loop"):
        parse_edge_list("0 0\n")


def test_parse_rejects_duplicates_in_either_order():
    with pytest.raises(InputError, match="line 3.*duplicate"):
        parse_edge_list("0 1\n1 2\n1 0\n")


def test_parse_rejects_id_beyond_declared_count():
    with pytest.raises(InputError, match="line 2"):
        parse_edge_list("# n=2\n0 2\n")


def test_parse_rejects_empty_inputs():
    with pytest.raises(InputError):
        parse_edge_list("")
    with pytest.raises(InputError):
        parse_edge_list("# n=4\n# just comments\n")


def test_parse_rejects_garbage():
    with pytest.raises(InputError, match="line 1"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(InputError, match="integers"):
        parse_edge_list("a b\n")


@pytest.mark.parametrize(
    "n,edges,message",
    [
        (4, [(0, 1), (-1, 2)], "vertex ids must be nonnegative"),
        (4, [(0, 1), (2, 2)], "self-loop at vertex 2"),
        (3, [(0, 1), (5, 1)], "vertex id 5 >= n=3"),
        (4, [(0, 1), (1, 2), (1, 0)], "duplicate edge 0 1"),
        (4, [(0, 1), (0.5, 1.7)], "vertex ids must be integers"),
    ],
    ids=["negative", "loop", "limit", "repeat", "integer"],
)
def test_constructor_and_parser_word_faults_alike(n, edges, message):
    with pytest.raises(graph_module.EdgeError) as built:
        Graph(n, edges)
    assert (str(built.value), built.value.row) == (message, len(edges) - 1)
    # The directive bounds every line, also those above it.
    rows = "".join(f"{u} {v}\n" for u, v in edges)
    for text, line in ((f"# n={n}\n{rows}", len(edges) + 1), (f"{rows}# n={n}\n", len(edges))):
        with pytest.raises(InputError) as parsed:
            parse_edge_list(text)
        assert str(parsed.value) == f"line {line}: {message}"


def test_constructor_refuses_empty_and_out_of_range_graphs():
    with pytest.raises(DomainError, match="no edges"):
        Graph(0, [])
    with pytest.raises(InputError, match="^vertex id 1 >= n=1$"):
        Graph(1, [(0, 1)])


def test_constructor_refuses_non_integers():
    # n = 2.7 used to bound the ids by 2.7 but build a graph on 2 vertices.
    for n in (2.7, math.nan, math.inf, "3"):
        with pytest.raises(InputError, match="^vertex count must be an integer, got "):
            Graph(n, [(0, 1), (1, 2)])
    # A non-integer id used to be truncated (0.5 -> 0) or to fail in numpy (nan);
    # it fails its row before the row is compared with earlier ones.
    for edges, row in (([(0.5, 1.7)], 0), ([(0, math.nan)], 0), ([(0, 1), (0.5, 1)], 1),
                       ([(0, 1), (1, 2**63)], 1), ([(0, 1), (1, None)], 1)):
        with pytest.raises(graph_module.EdgeError, match="^vertex ids must be integers$") as exc:
            Graph(3, edges)
        assert exc.value.row == row
    # Integral floats are integers.
    g = Graph(3.0, [(0.0, 1.0), (1, 2)])
    assert g == Graph(3, [(0, 1), (1, 2)]) and type(g.n) is int
    assert g.degrees.tolist() == [1, 2, 1]


def test_directive_allows_isolated_vertices():
    g = parse_edge_list("# n=5\n0 1\n")
    assert g.n == 5
    assert g.degrees.tolist() == [1, 1, 0, 0, 0]


def test_constructor_invariants():
    with pytest.raises(DomainError):
        Graph(3, [])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])


def test_degree_summary_examples(triangle, path3, single_edge):
    assert triangle.summary == DegreeSummary(n=3, m=3, S2=12, S4=48, kmax=2)
    s = path3.summary
    assert (s.n, s.m, s.S2, s.S4, s.kmax) == (3, 2, 6, 18, 2)
    s = single_edge.summary
    assert (s.n, s.m, s.S2, s.S4, s.kmax) == (2, 1, 2, 2, 1)


def test_degree_sum_is_twice_edge_count(small_graphs):
    for g in small_graphs:
        assert int(g.degrees.sum()) == 2 * g.m


def test_degree_summary_matches_direct_sums(small_graphs):
    for g in small_graphs:
        deg = dense_adjacency(g).sum(axis=1)
        s = g.summary
        assert s.S2 == int((deg ** 2).sum())
        assert s.S4 == int((deg ** 4).sum())
        assert s.kmax == int(deg.max())


def test_frobenius_pinned_examples(triangle, path3, single_edge):
    assert common_neighbor_frobenius(triangle) == 18
    assert common_neighbor_frobenius(path3) == 8
    assert common_neighbor_frobenius(single_edge) == 2


def test_frobenius_matches_dense_bruteforce(small_graphs):
    for g in small_graphs:
        assert g.n <= 12
        assert common_neighbor_frobenius(g) == frobenius_bruteforce(g)
        assert common_neighbor_frobenius(g) == frobenius_by_matrix_product(g)


def test_roundtrip_canonical_writer(small_graphs):
    for g in small_graphs:
        text = write_edge_list(g)
        assert text.startswith(f"# n={g.n}\n")
        assert text.endswith("\n")
        assert parse_edge_list(text) == g
        # a second serialization is byte-identical
        assert write_edge_list(parse_edge_list(text)) == text


def _edge_arrays(n, edges):
    """A stand-in with only the fields the writer reads, for edge sets no
    Graph can hold: none at all, or ids too large to allocate."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return types.SimpleNamespace(n=n, m=len(pairs), edge_lo=pairs[:, 0], edge_hi=pairs[:, 1])


@pytest.mark.parametrize("block", [1, 3, 1 << 14])
def test_writer_matches_the_fstring_join(monkeypatch, block):
    monkeypatch.setattr(rng, "BUDGET", 128 * block)
    graphs = [chung_lu(n, 4.0, 2.5, seed) for n, seed in ((12, 1), (150, 2), (2000, 3))]
    graphs += [Graph(2, [(0, 1)]), Graph(7, [(5, 6)]), complete_graph(12)]
    # Every digit count up to int64's 19, and no edges at all.
    digits = {(0, v) for k in range(19) for v in (10**k - 1, 10**k, 10**k + 7) if v}
    digits |= {(10**18, 2**63 - 1), (9, 10), (99, 100)}
    graphs += [_edge_arrays(2**63 - 1, sorted(digits)), _edge_arrays(0, []), _edge_arrays(5, [])]
    for g in graphs:
        assert write_edge_list(g) == write_edge_list_by_lines(g)


def test_roundtrip_preserves_isolated_vertices():
    g = parse_edge_list("# n=6\n1 4\n")
    assert parse_edge_list(write_edge_list(g)) == g


def test_graph_is_immutable(triangle):
    with pytest.raises(ValueError):
        triangle.edge_lo[0] = 2
    with pytest.raises(ValueError):
        triangle.degrees[0] = 5


def test_equality_distinguishes_structure():
    assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
    assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
    assert parse_edge_list("0 1\n") == Graph(2, [(1, 0)])


def test_corpus_has_twenty_er_graphs():
    graphs = er_corpus()
    assert len(graphs) == 20
    assert all(g.m >= 1 for g in graphs)


def random_tree(n, seed):
    rng = np.random.default_rng(seed)
    parent = [int(rng.integers(0, v)) for v in range(1, n)]
    return Graph(n, list(zip(parent, range(1, n))))


def frobenius_cases():
    star = Graph(41, [(0, v) for v in range(1, 41)])
    return [
        ("tree", random_tree(300, 5), 0),
        ("star", star, 0),
        ("K_30", complete_graph(30), 3 * math.comb(30, 4)),
        ("K_12_17", complete_bipartite(12, 17), math.comb(12, 2) * math.comb(17, 2)),
        ("chung_lu", chung_lu(3000, 8, 2.2, seed=11), None),
    ]


@pytest.mark.parametrize("name,g,cycles", frobenius_cases(), ids=lambda x: x if isinstance(x, str) else "")
def test_frobenius_matches_matrix_product_oracle(name, g, cycles):
    expected = frobenius_by_matrix_product(g)
    assert common_neighbor_frobenius(g) == expected
    if cycles is not None:
        assert graph_module.four_cycles(g) == cycles
    s = g.summary
    assert graph_module.four_cycles(g) == (expected - 2 * s.S2 + 2 * g.m) // 8


def test_four_cycles_independent_of_block_size(monkeypatch):
    g = chung_lu(800, 10, 2.0, seed=3)
    assert g.summary.kmax >= 40
    expected = graph_module.four_cycles(g)
    for block in (1, 7, 1000):
        monkeypatch.setattr(rng, "BUDGET", 32 * block)
        assert graph_module.four_cycles(g) == expected


def test_degree_sums_exact_beyond_int64(monkeypatch):
    # K_{1,60000}: sum k^4 exceeds 2**63, so an int64 sum would wrap; the
    # heavy-tailed graph has many distinct degrees.  Both against Python
    # integer sums over vertices and over edges, also with the edge sum cut
    # into blocks of 1 and 7 edges.
    hub = 60000
    star = Graph(hub + 1, [(0, v) for v in range(1, hub + 1)])
    assert star.summary.S4 > 2 ** 63
    assert (star.summary.S2, star.summary.S4) == (hub ** 2 + hub, hub ** 4 + hub)
    cases = []
    for g in (star, chung_lu(500, 6, 2.0, seed=4)):
        deg = g.degrees.tolist()
        s = g.summary
        assert (s.S2, s.S4, s.kmax) == (sum(k ** 2 for k in deg), sum(k ** 4 for k in deg), max(deg))
        cases.append((g, sum(deg[u] * deg[v] for u, v in g.edges())))
        assert g._edge_degree_product_sum == cases[-1][1]
    for block in (1, 7):
        monkeypatch.setattr(rng, "BUDGET", 16 * block)
        for g, expected in cases:
            fresh = Graph(g.n, np.column_stack([g.edge_lo, g.edge_hi]))
            assert fresh._edge_degree_product_sum == expected


def outcome(parse, text):
    try:
        g = parse(text)
    except InputError as exc:
        return "error", str(exc)
    return "graph", g.n, g.edges()


def assert_parsers_agree(text):
    assert outcome(parse_edge_list, text) == outcome(parse_edge_list_by_lines, text)


PARSER_CASES = [
    "0 1\n0 2\n1 2\n",
    "0 5\n1 2\n",
    "0 1\r\n1 2\r\n",
    "0 1\r1 2\r",
    "0 1\r\n1 1\r\n",
    "0\t1\n\t2 \t 3\t\n",
    "\n# comment\n0 1\n\n   # indented comment 5 6\n1 2\n\n",
    "0 1\n1 2\n# n=5\n",
    "0 5\n# n=3\n",
    "0 5\n# n=3\n1 1\n",
    "0 5\n# n=3\n5 0\n",
    "0 1\n0 1 2\n",
    "0 1\nx y\n",
    "0 1\n# n=2\n1 2\n",
    "# n=3\n# n=10\n0 5\n",
    "#n = 4 \n0 3\n",
    "# n=0\n0 1\n",
    "0 1\n# n=0\n",
    "# n=x\n0 1\n",
    "0 1 2\n",
    "0\n",
    "0 1 # trailing comment\n",
    "0 1#x\n",
    "a b\n",
    "0 1.5\n",
    "1_0 2\n",
    "+1 2\n",
    "-0 1\n",
    "007 8\n",
    "-1 2\n",
    "0 -2\n",
    "3 3\n",
    "# n=2\n0 2\n",
    "0 1\n1 2\n1 0\n",
    "0 1\n0 1\n0 1\n",
    "0 1\n2 3\n3 2\n1 0\n",
    "0 1\n1 0\n2 2\n",
    "2 2\n0 1\n1 0\n",
    "0 1\n1 1\n0 1\n",
    "-1 0\n0 -1\n",
    "0\u00a01\n1\u30002\n",
    "0 1\u20282 3\n",
    "0 1\u2028\r2 3\n",
    "0 1\u2028\r1 1\n",
    "0 1\x85 2 2\n",
    "0 1\x0c2 3\x1c4 5\x855 6\n",
    "0 1\x1f\n",
    "\u0663 4\n",
    "0 1\n\u00e9 2\n",
    "0 1\x002\n",
    "",
    "\n\n",
    "# n=4\n# just comments\n",
    "0 1",
]


@pytest.mark.parametrize("text", PARSER_CASES)
def test_parser_matches_line_loop_oracle(text):
    assert_parsers_agree(text)


@pytest.mark.parametrize(
    "bad,repeat",
    [("5 x", False), ("5 6 7", False), ("9 9", False), ("-5 6", False), ("# n=3", True), (None, True)],
)
def test_parser_reports_deep_lines_like_oracle(bad, repeat):
    rng = np.random.default_rng(7)
    lines = [f"{u} {u + 1 + int(d)}" for u, d in zip(range(100_000), rng.integers(0, 50, 100_000))]
    if bad is not None:
        lines[87_653] = bad
    if repeat:
        u, v = lines[1_234].split()
        lines[99_000] = f"{v}\t{u}"
    assert_parsers_agree("\n".join(lines) + "\n")


def test_parser_rejects_ids_beyond_int64():
    # The line-loop reader accepted these and failed later (a traceback, or
    # "vertex id ... >= declared n" under a directive).
    for text in ("0 99999999999999999999\n", "# n=5\n0 99999999999999999999\n"):
        with pytest.raises(InputError, match="vertex ids must be integers"):
            parse_edge_list(text)
    assert parse_edge_list("0 000000000000000000000001\n") == Graph(2, [(0, 1)])


def test_parser_vertex_count_fits_int64():
    top = 2**63 - 1
    # n int64 degrees take 8n bytes, which numpy sizes up to n = top // 8.
    assert parse_edge_list(f"0 {top // 8 - 1}\n").n == top // 8
    with pytest.raises(InputError, match=f"^line 1: n={top} vertices, but an int64 array "
                                         f"holds at most {top // 8} entries$"):
        parse_edge_list(f"0 {top - 1}\n")
    with pytest.raises(InputError, match=f"^line 2: vertex id {top} >= n={top}$"):
        parse_edge_list(f"0 1\n{top} 0\n")


def test_unicode_space_table_matches_str():
    ascii_space = {c for c in range(128) if chr(c).isspace()}
    mapped = set(graph_module._UNICODE_SPACE)
    assert {c for c in range(sys.maxunicode + 1) if chr(c).isspace()} == ascii_space | mapped
    for c, to in graph_module._UNICODE_SPACE.items():
        breaks = len(f"a{chr(c)}b".splitlines()) == 2
        assert (to == "\x0b") == breaks


edge_sets = st.integers(2, 25).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=60,
        ),
    )
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edge_sets, st.randoms(use_true_random=False))
def test_roundtrip_and_free_form_text_property(case, rnd):
    n, pairs = case
    try:
        g = Graph(n, sorted(pairs))
    except InputError:  # the same edge drawn in both orientations
        return
    assert parse_edge_list(write_edge_list(g)) == g
    # Free-form text of the same edges: shuffled, either orientation, mixed
    # separators and line ends, comments, blank lines, maybe a directive.
    lines = [rnd.choice([" ", "\t", "  "]).join((str(u), str(v))) for u, v in pairs]
    rnd.shuffle(lines)
    if rnd.random() < 0.5:
        lines.insert(rnd.randrange(len(lines) + 1), f"# n={n}")
    lines.insert(rnd.randrange(len(lines) + 1), "  # note")
    lines.insert(rnd.randrange(len(lines) + 1), "")
    text = "".join(line + rnd.choice(["\n", "\r\n", "\r"]) for line in lines)
    assert_parsers_agree(text)


BLOCK_CASES = PARSER_CASES + [
    "0 1\r\n2 3\r\n\r\n4 5\r\n# n=9\r\n6 7\r\n",
    "10 11\r12 13\r\n14 15\n\r16 17\r\n",
    "0 1\x85\x852 3 # c 4 5\x1d6 7\x1e\x1c8 9",
    "# n=40\n  # note\n\n1 2\n3 4 5\n",
    "123456789012 3\n4 1234567890123456789\n",
]


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13])
def test_line_blocks_never_split_a_line(size):
    for text in BLOCK_CASES:
        data = graph_module._ascii_bytes(text)
        pieces = [data[s:e] for s, e in graph_module._line_blocks(data, size)]
        assert b"".join(pieces) == data
        assert [ln for p in pieces for ln in p.decode().splitlines()] == data.decode().splitlines()
        if len(data) > 2 * size + 2 and data.decode().count("\n") > 2:
            assert len(pieces) > 1


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_parser_independent_of_block_size(monkeypatch, size):
    monkeypatch.setattr(rng, "BUDGET", 32 * size)
    for text in BLOCK_CASES:
        assert_parsers_agree(text)


@pytest.mark.parametrize(
    "bad,repeat",
    [("5 x", False), ("5 6 7", False), ("9 9", False), ("-5 6", False), ("# n=3", True), (None, True)],
)
def test_parser_reports_deep_lines_independent_of_block_size(monkeypatch, bad, repeat):
    # About 80 lines a block: the bad and repeated lines sit deep in later blocks.
    monkeypatch.setattr(rng, "BUDGET", 32 * 997)
    test_parser_reports_deep_lines_like_oracle(bad, repeat)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edge_sets, st.randoms(use_true_random=False), st.sampled_from([1, 2, 3, 5, 8]))
def test_roundtrip_property_independent_of_block_size(case, rnd, size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "BUDGET", 32 * size)
        test_roundtrip_and_free_form_text_property.hypothesis.inner_test(case, rnd)


def test_token_values_match_int():
    # Digit strings of every length around the 8-digit groups and the
    # 18-digit fast limit, with leading zeros, and with one byte swapped
    # for each printable non-digit.
    rng = np.random.default_rng(11)
    tokens = ["".join(rng.choice(list("0123456789"), k)) for k in range(1, 25) for _ in range(40)]
    tokens += ["0" * k + "7" for k in range(1, 24)] + ["9" * k for k in range(1, 24)]
    for t in tokens[::7]:
        for c in [chr(x) for x in range(33, 127) if not chr(x).isdigit() and chr(x) != "#"]:
            i = int(rng.integers(len(t)))
            tokens.append(t[:i] + c + t[i + 1:])
    rows = graph_module.int_rows("\n".join(tokens) + "\n", 1)
    for t, value, ok in zip(tokens, rows.values[:, 0].tolist(), rows.well_formed.tolist()):
        try:
            x = int(t)
        except ValueError:
            x = None
        if x is not None and -2 ** 63 <= x < 2 ** 63:
            assert (ok, value) == (True, x), t
        else:
            assert (ok, value) == (False, 0), t


def test_four_cycles_across_key_ranges(monkeypatch):
    # n = 70000 vertices of equal degree, ranked by id.  A block's pairs
    # (v - v0) * n + w fit 32 bits for 2**32 // n = 61356 top vertices, so
    # with no wedge-count cut the tops fall into two key ranges.  Offset
    # 14060 makes (100, 98) and (100 + 61356, 98 + 47296) both wedge pairs,
    # and one key range over both would give them keys 2**32 apart, the
    # same uint32.
    n = 70_000
    assert (1 << 32) // n == 61356 and 61356 * n + 47296 == 1 << 32
    monkeypatch.setattr(rng, "BUDGET", 32 << 40)
    i = np.arange(n)
    g = Graph(n, np.concatenate([np.column_stack([i, (i + s) % n]) for s in (1, 2, 5, 14060)]))
    assert common_neighbor_frobenius(g) == frobenius_by_matrix_product(g)


def test_four_cycles_refuses_a_graph_beyond_its_keys():
    # Ranks and edge positions are packed into int64 keys; a graph whose ids
    # do not fit is refused before any array is read, not counted wrong.
    with pytest.raises(DomainError, match="too large for the 4-cycle count"):
        graph_module.four_cycles(types.SimpleNamespace(n=1 << 32, m=1))
