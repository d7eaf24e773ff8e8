import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netcolor import (
    ExperimentSpec,
    GraphFormatError,
    Strategy,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    from_edge_list,
    generate,
    path_graph,
    read_edge_list,
    star_graph,
    write_edge_list,
)
from netcolor import graph
from netcolor.graph import Graph, erdos_renyi_sizes, format_edge_list, generate_sizes


def test_triangle_from_edge_list():
    g = from_edge_list([(0, 1), (1, 2), (0, 2)], 3)
    assert g.n == 3
    assert g.edge_count == 3
    assert g.max_degree() == 2
    g.validate()


def test_edgeless_graph():
    g = from_edge_list([], 5)
    assert g.edge_count == 0
    assert g.max_degree() == 0
    assert g.neighbors(3) == ()


def test_duplicate_edges_collapse():
    g = from_edge_list([(0, 1), (1, 0)], 2)
    assert g.edge_count == 1
    assert g.neighbors(0) == (1,)


def test_self_loop_rejected_with_pair_named():
    with pytest.raises(GraphFormatError, match=r"\(2, 2\)"):
        from_edge_list([(0, 1), (2, 2)], 3)


def test_out_of_range_rejected_with_pair_named():
    with pytest.raises(GraphFormatError, match=r"\(1, 7\)"):
        from_edge_list([(1, 7)], 3)


def test_endpoints_are_stored_as_python_ints():
    # (True, 0) stored True: its edge list read "3 1\n0 True\n", another spec_hash
    g = from_edge_list([(True, 0)], 3)
    assert g == from_edge_list([(1, 0)], 3)
    assert format_edge_list(g) == "3 1\n0 1\n"
    spec = ExperimentSpec(graph=g, k=3, strategy=Strategy.FRUGAL, trials=1, base_seed=0)
    assert spec.content_hash() == ExperimentSpec(
        graph=from_edge_list([(1, 0)], 3), k=3, strategy=Strategy.FRUGAL, trials=1, base_seed=0
    ).content_hash()
    for pairs in ([(True, 0)], [(np.int64(2), np.int32(0))], [(np.uint64(1), np.int64(2))],
                  [np.array([0, 2])], [(True, False), (1, 2)]):
        g = from_edge_list(pairs, 3)
        assert g.edge_count == len(pairs)
        assert all(type(u) is int for v in range(3) for u in g.neighbors(v))


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(0, 1.5)], r"^edge \(0, 1\.5\) has an endpoint that is not an integer$"),
        ([(0, 1.0)], r"^edge \(0, 1\.0\) has an endpoint that is not an integer$"),
        ([("a", 1)], r"^edge \('a', 1\) has an endpoint that is not an integer$"),
        ([(0, 1, 2)], r"^edge \(0, 1, 2\) is not a pair$"),
        ([(0, 1), (0, 1, 2)], r"^edge \(0, 1, 2\) is not a pair$"),
        ([(0, 1), 5], r"^edge 5 is not a pair$"),
        ([(0, 2**70)], r"^edge \(0, 1180591620717411303424\) out of range for n=3$"),
        # the first bad item in input order, whatever is wrong with the later ones
        ([(0, 1), (2, 2), (0, 1.5)], r"^self-loop \(2, 2\) not allowed$"),
        ([(0, 1.5), (2, 2)], r"^edge \(0, 1\.5\) has"),
        ([(0, 5), (1, 1)], r"^edge \(0, 5\) out of range for n=3$"),
        ([(1, 1), (0, 5)], r"^self-loop \(1, 1\) not allowed$"),
        ([(0, 1), (-1, 2)], r"^edge \(-1, 2\) out of range for n=3$"),
        ([(True, True)], r"^self-loop \(1, 1\) not allowed$"),
    ],
    ids=["float", "integral-float", "string", "triple", "ragged", "scalar", "huge",
         "loop-before-float", "float-before-loop", "range-before-loop", "loop-before-range",
         "negative", "bool-loop"],
)
def test_from_edge_list_names_the_first_bad_item(pairs, message):
    with pytest.raises(GraphFormatError, match=message):
        from_edge_list(pairs, 3)


def test_neighbors_examples():
    assert complete_graph(3).neighbors(0) == (1, 2)
    assert from_edge_list([], 3).neighbors(1) == ()
    assert path_graph(3).neighbors(1) == (0, 2)


def test_max_degree_examples():
    assert complete_graph(3).max_degree() == 2
    assert star_graph(5).max_degree() == 4  # one center, four leaves
    assert cycle_graph(6).max_degree() == 2


def test_generate_dispatch():
    assert generate("complete", 3) == complete_graph(3)
    four = generate("cycle", 4)
    assert four.edge_count == 4
    assert generate("path", 4).edge_count == 3
    assert generate("star", 4).edge_count == 3
    assert generate("erdos_renyi", 100, p=0.0, seed=1).edge_count == 0
    n = 20
    dense = generate("erdos_renyi", n, p=1.0, seed=1)
    assert dense.edge_count == n * (n - 1) // 2


def test_generate_sizes_builds_what_generate_builds():
    assert generate_sizes("cycle", [(4, None), (5, 0.3), (4, 1.0)]) == [
        cycle_graph(4), cycle_graph(5), cycle_graph(4)]
    sizes = [(30, 0.2), (10, 0.5)]
    assert generate_sizes("erdos_renyi", sizes, 3) == [
        generate("erdos_renyi", n, p=p, seed=3) for n, p in sizes]
    assert generate_sizes("star", []) == []
    with pytest.raises(GraphFormatError, match="requires p"):
        generate_sizes("erdos_renyi", [(10, 0.5), (20, None)], 1)
    with pytest.raises(GraphFormatError, match="requires a seed"):
        generate_sizes("erdos_renyi", sizes)
    with pytest.raises(GraphFormatError, match="cycle needs n >= 3, got 2"):
        generate_sizes("cycle", [(5, None), (2, None)])


def test_generate_erdos_renyi_requires_p_and_seed():
    with pytest.raises(GraphFormatError, match="requires p"):
        generate("erdos_renyi", 10, seed=1)
    with pytest.raises(GraphFormatError, match="requires a seed"):
        generate("erdos_renyi", 10, p=0.5)


def test_generate_unknown_family():
    with pytest.raises(GraphFormatError, match="unknown graph family"):
        generate("hypercube", 8)


def test_generator_bounds():
    with pytest.raises(GraphFormatError, match="n must be >= 1, got 0"):
        generate("complete", 0)
    # range(2.5) would raise TypeError in every builder
    for build in (complete_graph, cycle_graph, path_graph, star_graph,
                  lambda n: generate("complete", n), lambda n: erdos_renyi(n, 0.5, seed=1)):
        with pytest.raises(GraphFormatError, match="n must be an integer, got 2.5"):
            build(2.5)
    with pytest.raises(GraphFormatError, match="vertex count must be an integer, got 2.5"):
        from_edge_list([(0, 1)], 2.5)
    with pytest.raises(GraphFormatError):
        cycle_graph(2)
    with pytest.raises(GraphFormatError):
        erdos_renyi(10, 1.5, seed=0)
    with pytest.raises(GraphFormatError, match="vertex count must be >= 0, got -1"):
        from_edge_list([], -1)


def test_erdos_renyi_refuses_negative_seed():
    # random.Random(-7) replays the stream of seed 7, so -7 would give seed 7's graph
    with pytest.raises(GraphFormatError, match="graph seed must be >= 0, got -7"):
        erdos_renyi(30, 0.2, seed=-7)
    with pytest.raises(GraphFormatError, match="got -1"):
        generate("erdos_renyi", 30, p=0.2, seed=-1)
    # random.Random(1.5) seeds from the float's hash: a graph no integer seed gives
    with pytest.raises(GraphFormatError, match="graph seed must be an integer, got 1.5"):
        erdos_renyi(10, 0.5, seed=1.5)
    with pytest.raises(GraphFormatError, match="got 1.0"):
        generate("erdos_renyi", 10, p=0.5, seed=1.0)
    assert erdos_renyi(10, 0.5, seed=np.int64(1)) == erdos_renyi(10, 0.5, seed=1)


# Sizes in no order, a repeated size, n = 1 and 2, p = 0 and 1, and n = 400,
# whose 79,800 pairs cross the first PAIR_CHUNK boundary.
SIZES = [(50, 0.1), (10, 0.3), (400, 0.05), (2, 1.0), (1, 0.5), (50, 0.1), (30, 0.0),
         (40, 1.0), (2, 0.0), (400, 0.01)]


@pytest.mark.parametrize("seed", [0, 9])
def test_multi_size_reader_matches_single_size_erdos_renyi(seed):
    assert 400 * 399 // 2 > graph.PAIR_CHUNK
    singles = [erdos_renyi(n, p, seed) for n, p in SIZES]
    assert erdos_renyi_sizes(SIZES, seed) == singles
    assert erdos_renyi_sizes(SIZES[::-1], seed) == singles[::-1]
    assert erdos_renyi_sizes([], seed) == []
    assert singles[5] is not singles[0] and singles[5] == singles[0]
    assert singles[6].edge_count == singles[8].edge_count == 0
    assert singles[3].edge_count == 1 and singles[7].edge_count == 40 * 39 // 2


def test_multi_size_reader_refuses_a_later_size_before_drawing(monkeypatch):
    def drawn(rng):
        raise AssertionError("a double was drawn")

    monkeypatch.setattr(graph, "mt19937_at", drawn)
    with pytest.raises(GraphFormatError, match="n must be >= 1, got 0"):
        erdos_renyi_sizes([(50, 0.1), (0, 0.1)], 1)
    with pytest.raises(GraphFormatError, match="n must be an integer, got 2.5"):
        erdos_renyi_sizes([(50, 0.1), (2.5, 0.1)], 1)
    with pytest.raises(GraphFormatError, match=r"edge probability must be in \[0, 1\], got 1.5"):
        erdos_renyi_sizes([(50, 0.1), (20, 1.5)], 1)
    with pytest.raises(GraphFormatError, match="graph seed must be >= 0, got -1"):
        erdos_renyi_sizes([(50, 0.1), (20, 0.5)], -1)
    with pytest.raises(GraphFormatError, match="n must be >= 1, got 0"):
        generate_sizes("erdos_renyi", [(50, 0.1), (0, 0.1)], 1)


def f_string_edge_list(g):
    """The edge-list text as it was formatted before the numpy digit writer."""
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


@st.composite
def graphs_across_digit_counts(draw):
    # ids on both sides of 9/10, 99/100 and 999/1000
    n = draw(st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 1000, 1001]))
    ends = st.one_of(st.integers(0, n - 1),
                     st.sampled_from([x for x in (0, 8, 9, 10, 98, 99, 100, 999, 1000) if x < n]))
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=40))
    return from_edge_list(pairs, n)


@given(graphs_across_digit_counts())
def test_format_edge_list_matches_f_strings(g):
    assert format_edge_list(g) == f_string_edge_list(g)


def test_format_edge_list_of_edgeless_graphs():
    for n in (0, 1, 10, 100):
        assert format_edge_list(from_edge_list([], n)) == f_string_edge_list(from_edge_list([], n))
        assert format_edge_list(from_edge_list([], n)) == f"{n} 0\n"


@pytest.mark.parametrize(
    "n, adjacency, message",
    [
        (2, ((1,), (0,), ()), "adjacency length differs from n"),
        (3, ((2, 1), (0,), (0,)), "adjacency of 0 not sorted/deduplicated"),
        (2, ((1,), (0, 0)), "adjacency of 1 not sorted/deduplicated"),
        (2, ((0, 1), (0,)), "self-loop at 0"),
        (2, ((5,), ()), "neighbor 5 of 0 out of range"),
        (3, ((1,), (0, 2), ()), r"asymmetric edge \(1, 2\)"),
    ],
    ids=["too-many-rows", "unsorted", "duplicate", "self-loop", "out-of-range", "asymmetric"],
)
def test_validate_refuses_malformed_adjacency(n, adjacency, message):
    # the constructor trusts its CSR arrays, so it builds what the generators never do
    offsets = np.cumsum([0, *map(len, adjacency)])
    targets = np.array([u for nbrs in adjacency for u in nbrs], dtype=np.intp)
    with pytest.raises(GraphFormatError, match=f"^{message}$"):
        Graph(n, offsets, targets).validate()


def test_erdos_renyi_reproducible():
    a = erdos_renyi(40, 0.3, seed=9)
    b = erdos_renyi(40, 0.3, seed=9)
    assert a == b
    c = erdos_renyi(40, 0.3, seed=10)
    assert a != c


def test_edge_list_roundtrip(tmp_path):
    g = erdos_renyi(25, 0.2, seed=3)
    path = tmp_path / "g.txt"
    write_edge_list(g, str(path))
    assert read_edge_list(str(path)) == g


def test_edge_list_comments_and_blanks(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a triangle\n\n3 3\n0 1\n# middle comment\n1 2\n\n0 2\n")
    assert read_edge_list(str(path)) == complete_graph(3)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "missing"),
        ("3 2\n0 1\n", "declares 2 edges"),
        ("3 1\n0 1\n1 2\n", "more than 1"),
        ("3 1\n0 1 2\n", "two fields"),
        ("3 1\nzero 1\n", "non-integer"),
        ("2 1\n0 5\n", "out of range"),
        ("2 1\n1 1\n", "self-loop"),
        # refused on the header line, before any edge is read
        ("3 -1\n0 1\n", ":1: header values must be non-negative"),
    ],
)
def test_edge_list_format_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(GraphFormatError, match=fragment):
        read_edge_list(str(path))


def test_format_edge_list_matches_file(tmp_path):
    g = cycle_graph(5)
    path = tmp_path / "g.txt"
    write_edge_list(g, str(path))
    assert path.read_text() == format_edge_list(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    else:
        edges = []
    return from_edge_list(edges, n)


@given(small_graphs())
def test_random_graphs_validate(g):
    g.validate()
    degrees = [g.degree(v) for v in range(g.n)]
    assert sum(degrees) == 2 * g.edge_count
    assert g.max_degree() == (max(degrees) if degrees else 0)


@given(g=small_graphs())
def test_roundtrip_identity(g, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "g.txt"
    write_edge_list(g, str(path))
    assert read_edge_list(str(path)) == g


@given(st.integers(1, 30))
def test_complete_graph_degree(n):
    assert complete_graph(n).max_degree() == n - 1


def test_arcs_are_cached_read_only_csr():
    g = from_edge_list([(2, 0), (0, 1), (3, 1)], 4)
    src, dst = g.arcs()
    assert src.tolist() == [0, 0, 1, 1, 2, 3]
    assert dst.tolist() == [1, 2, 0, 3, 0, 1]
    assert g.arcs()[0] is src
    assert not src.flags.writeable and not dst.flags.writeable
    offsets = g.offsets()
    assert offsets.tolist() == [0, 2, 4, 5, 6]
    assert g.offsets() is offsets and not offsets.flags.writeable
    edgeless = from_edge_list([], 3)
    assert edgeless.offsets().tolist() == [0, 0, 0, 0]
    assert edgeless.arcs()[0].size == edgeless.arcs()[1].size == 0


def test_graph_with_cached_arcs_pickles_equal():
    g = erdos_renyi(60, 0.1, seed=2)
    g.arcs()
    g.max_degree()
    h = pickle.loads(pickle.dumps(g))
    assert h == g
    assert h.arcs()[1].tolist() == g.arcs()[1].tolist()
    assert h.offsets().tolist() == g.offsets().tolist()
    assert not (h.arcs()[0].flags.writeable or h.arcs()[1].flags.writeable
                or h.offsets().flags.writeable)
    assert h.max_degree() == g.max_degree() == max(map(g.degree, range(g.n)))


def test_graph_fields_are_read_only():
    g = complete_graph(3)
    for name, value in (("n", 4), ("edge_count", 7)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert repr(g) == "Graph(n=3, edges=3)" and pickle.loads(pickle.dumps(g)) == g
