"""Simple undirected graphs: validation, generators, and edge-list file I/O.

Vertices are dense zero-based integers so hot loops can index arrays
directly. Graphs are immutable after construction and safe to share
across worker processes.

G(n, p) is defined by Python's ``random.Random(seed)``: one ``random()``
call per pair, pairs in (u, v) order. :func:`erdos_renyi` reads the same
MT19937 words in bulk through numpy, so its graphs are the ones the
per-pair loop gives, bit for bit.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable

import numpy as np

from .errors import GraphFormatError, check_int


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Build instances with :func:`from_edge_list`, :func:`generate`, or
    :func:`read_edge_list`; the constructor trusts its adjacency and
    builds the CSR arrays and the counts from it.
    """

    __slots__ = ("_n", "_edge_count", "_adj", "_arcs", "_offsets", "_max_degree")

    def __init__(self, n: int, adjacency: tuple[tuple[int, ...], ...]):
        self._n = n
        self._adj = adjacency
        degrees = np.fromiter(map(len, adjacency), dtype=np.intp, count=n)
        src = np.repeat(np.arange(n, dtype=np.intp), degrees)
        dst = np.fromiter(itertools.chain.from_iterable(adjacency), dtype=np.intp, count=len(src))
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(degrees, out=offsets[1:])
        for a in (src, dst, offsets):
            a.flags.writeable = False
        self._arcs = (src, dst)
        self._offsets = offsets
        self._edge_count = len(dst) // 2
        self._max_degree = int(degrees.max(initial=0))

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._edge_count

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of v."""
        return self._adj[v]

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge in both orientations as read-only (src, dst) arrays.

        Sorted by src, then dst: the CSR layout of the adjacency.
        """
        return self._arcs

    def offsets(self) -> np.ndarray:
        """Read-only CSR row offsets: v's arcs are ``offsets[v]:offsets[v + 1]``."""
        return self._offsets

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Largest vertex degree; 0 for an edgeless graph."""
        return self._max_degree

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in self._adj[u] if u < v]

    def validate(self) -> None:
        """Check symmetry, loop-freeness and sortedness.

        Raises GraphFormatError on any violation. Used by tests as an
        independent structural check on every construction path.
        """
        if len(self._adj) != self.n:
            raise GraphFormatError("adjacency length differs from n")
        for v, nbrs in enumerate(self._adj):
            if list(nbrs) != sorted(set(nbrs)):
                raise GraphFormatError(f"adjacency of {v} not sorted/deduplicated")
            for u in nbrs:
                if u == v:
                    raise GraphFormatError(f"self-loop at {v}")
                if not 0 <= u < self.n:
                    raise GraphFormatError(f"neighbor {u} of {v} out of range")
                if v not in self._adj[u]:
                    raise GraphFormatError(f"asymmetric edge ({v}, {u})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __reduce__(self):
        return Graph, (self.n, self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def from_edge_list(pairs: Iterable[tuple[int, int]], n: int) -> Graph:
    """Build a Graph from unordered endpoint pairs.

    Duplicate pairs (in either orientation) collapse silently; self-loops
    and out-of-range endpoints are rejected.
    """
    check_int("vertex count", n, 0, error=GraphFormatError)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in pairs:
        if a == b:
            raise GraphFormatError(f"self-loop ({a}, {b}) not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise GraphFormatError(f"edge ({a}, {b}) out of range for n={n}")
        nbrs[a].add(b)
        nbrs[b].add(a)
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))


def complete_graph(n: int) -> Graph:
    check_int("n", n, 1, error=GraphFormatError)
    return from_edge_list([(u, v) for u in range(n) for v in range(u + 1, n)], n)


def cycle_graph(n: int) -> Graph:
    check_int("n", n, 1, error=GraphFormatError)
    if n < 3:
        raise GraphFormatError(f"cycle needs n >= 3, got {n}")
    return from_edge_list([(v, (v + 1) % n) for v in range(n)], n)


def path_graph(n: int) -> Graph:
    check_int("n", n, 1, error=GraphFormatError)
    return from_edge_list([(v, v + 1) for v in range(n - 1)], n)


def star_graph(n: int) -> Graph:
    """Star on n vertices total: center 0 joined to leaves 1..n-1."""
    check_int("n", n, 1, error=GraphFormatError)
    return from_edge_list([(0, v) for v in range(1, n)], n)


# The families built from n alone; erdos_renyi also takes p and a seed.
_BUILDERS = {"complete": complete_graph, "cycle": cycle_graph, "path": path_graph,
             "star": star_graph}
FAMILIES = (*_BUILDERS, "erdos_renyi")


# Pairs decided per numpy call; one double each, so 512 KB at a time.
PAIR_CHUNK = 1 << 16


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with each unordered pair included independently.

    Pair (u, v), u < v, taken in lexicographic order, is an edge iff the
    next ``random.Random(seed).random()`` is below p. Those doubles are
    drawn by numpy's Generator over :func:`mt19937_at`, whose MT19937
    double is CPython's ``random()``: ``(a * 2**26 + b) * 2**-53`` with
    ``a = w0 >> 5`` and ``b = w1 >> 6``. They are read in chunks of
    PAIR_CHUNK pairs, so memory stays bounded for any n.
    """
    check_int("n", n, 1, error=GraphFormatError)
    if not 0.0 <= p <= 1.0:
        raise GraphFormatError(f"edge probability must be in [0, 1], got {p}")
    # random.Random(1.5) seeds from the float's hash, a graph no integer seed
    # gives, and random.Random(s) seeds with abs(s): seeds -s and s give one graph
    check_int("graph seed", seed, 0, error=GraphFormatError)
    # int(): random.Random refuses numpy integers
    doubles = np.random.Generator(mt19937_at(random.Random(int(seed))))
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2  # index of pair (u, u + 1)
    total = n * (n - 1) // 2
    pairs: list[tuple[int, int]] = []
    for lo in range(0, total, PAIR_CHUNK):
        hit = np.flatnonzero(doubles.random(min(PAIR_CHUNK, total - lo)) < p) + lo
        u = np.searchsorted(row_start, hit, side="right") - 1
        pairs += zip(u.tolist(), (hit - row_start[u] + u + 1).tolist())
    return from_edge_list(pairs, n)


def mt19937_at(rng: random.Random) -> np.random.MT19937:
    """A numpy MT19937 whose next word is the next word rng would use.

    ``rng.getrandbits(32 * m).to_bytes(...)`` yields the same words, but on
    x86-64 it takes 2.3 ms per 2**17 words against 0.6 ms for
    ``random_raw``, which made the n = 8000 sweep graph about 3x slower.
    """
    internal = rng.getstate()[1]
    bitgen = np.random.MT19937(0)
    bitgen.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
    }
    return bitgen


def generate(kind: str, n: int, p: float | None = None, seed: int | None = None) -> Graph:
    """A graph of the family named kind, one of FAMILIES.

    The fixed families (complete, cycle, path, star) are built from n
    alone and ignore p and seed; erdos_renyi requires both.
    """
    if kind in _BUILDERS:
        return _BUILDERS[kind](n)
    if kind != "erdos_renyi":
        raise GraphFormatError(f"unknown graph family {kind!r}; choose from {FAMILIES}")
    if p is None:
        raise GraphFormatError("erdos_renyi requires p")
    if seed is None:
        raise GraphFormatError("erdos_renyi requires a seed")
    return erdos_renyi(n, p, seed)


def read_edge_list(path: str) -> Graph:
    """Parse the edge-list text format.

    First data line is ``n m``, followed by exactly m lines ``u v`` with
    zero-based endpoints. Blank lines and lines starting with ``#`` are
    skipped anywhere in the file.
    """
    header: tuple[int, int] | None = None
    pairs: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise GraphFormatError(f"{path}:{lineno}: expected two fields, got {line!r}")
            try:
                a, b = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: non-integer field in {line!r}") from None
            if header is None:
                if a < 0 or b < 0:
                    raise GraphFormatError(
                        f"{path}:{lineno}: header values must be non-negative, got {a} {b}"
                    )
                header = (a, b)
                continue
            pairs.append((a, b))
            if len(pairs) > header[1]:
                raise GraphFormatError(f"{path}:{lineno}: more than {header[1]} edges declared in header")
    if header is None:
        raise GraphFormatError(f"{path}: missing 'n m' header line")
    n, m = header
    if len(pairs) != m:
        raise GraphFormatError(f"{path}: header declares {m} edges, file has {len(pairs)}")
    try:
        return from_edge_list(pairs, n)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def write_edge_list(g: Graph, path: str) -> None:
    """Write the edge-list text format with sorted edges; deterministic bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(g))


def format_edge_list(g: Graph) -> str:
    """The edge-list format as a string (for stdout emission)."""
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
