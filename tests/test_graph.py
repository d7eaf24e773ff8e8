import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netcolor import (
    GraphFormatError,
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
from netcolor.graph import Graph, format_edge_list


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
    # the constructor trusts its adjacency, so it builds what the generators never do
    with pytest.raises(GraphFormatError, match=f"^{message}$"):
        Graph(n, adjacency).validate()


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
