"""Simple undirected graphs: validation, generators, and edge-list file I/O.

Vertices are dense zero-based integers so hot loops can index arrays
directly. Graphs are immutable after construction and safe to share
across worker processes. Every graph is built from numpy endpoint
arrays: the codes u·n + v of both orientations are sorted once and
their repeats dropped, which leaves the CSR arcs sorted by source, then
target; the sorted neighbor tuples are cut out of one ``tolist()``.
:func:`from_edge_list` checks its pairs one by one before building;
the generators pass arrays they make valid.

G(n, p) is defined by Python's ``random.Random(seed)``: one ``random()``
call per pair, pairs in (u, v) order. :func:`erdos_renyi_sizes` reads the
same MT19937 words in bulk through numpy, so its graphs are the ones the
per-pair loop gives, bit for bit. G(n, p) reads the first n(n - 1)/2
doubles of its seed's stream whatever p is, so graphs of several sizes
under one seed share a single read of the stream, to the largest size.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import INTEGERS, GraphFormatError, check_int


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Build instances with :func:`from_edge_list`, :func:`generate`, or
    :func:`read_edge_list`; the constructor trusts its CSR arrays (v's
    sorted neighbors are ``targets[offsets[v]:offsets[v + 1]]``) and
    derives the neighbor tuples and the counts from them.
    """

    __slots__ = ("_n", "_edge_count", "_adj", "_arcs", "_offsets", "_max_degree")

    def __init__(self, n: int, offsets: np.ndarray, targets: np.ndarray):
        self._n = n
        degrees = np.diff(offsets)
        src = np.repeat(np.arange(len(degrees), dtype=np.intp), degrees)
        for a in (src, targets, offsets):
            a.flags.writeable = False
        self._arcs = (src, targets)
        self._offsets = offsets
        ends, flat = offsets.tolist(), targets.tolist()
        self._adj = tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]))
        self._edge_count = len(flat) // 2
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
        return Graph, (self.n, self._offsets, self._arcs[1])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def from_edge_list(pairs: Iterable[tuple[int, int]], n: int) -> Graph:
    """Build a Graph from unordered endpoint pairs.

    Duplicate pairs (in either orientation) collapse silently. Endpoints
    are Python or numpy integers and are stored as ints. An item that is
    not a pair of integers, a self-loop and an out-of-range endpoint are
    refused, naming the first bad item in input order.
    """
    check_int("vertex count", n, 0, error=GraphFormatError)
    ends = np.array([_check_pair(item, n) for item in pairs], dtype=np.int64).reshape(-1, 2)
    return _from_arrays(n, *ends.T)


def _check_pair(item, n: int) -> tuple[int, int]:
    """item as a pair of ints, or GraphFormatError unless it is an edge of the graph on n vertices."""
    try:
        a, b = item
    except (TypeError, ValueError):
        raise GraphFormatError(f"edge {item!r} is not a pair") from None
    if not (isinstance(a, INTEGERS) and isinstance(b, INTEGERS)):
        raise GraphFormatError(f"edge {item!r} has an endpoint that is not an integer")
    a, b = int(a), int(b)
    if a == b:
        raise GraphFormatError(f"self-loop ({a}, {b}) not allowed")
    if not (0 <= a < n and 0 <= b < n):
        raise GraphFormatError(f"edge ({a}, {b}) out of range for n={n}")
    return a, b


def _from_arrays(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """The graph on n vertices with edges (u[i], v[i]), given as integer arrays
    of distinct endpoints in range(n), in any order and orientation."""
    u, v = u.astype(np.int64), v.astype(np.int64)
    codes = sorted_distinct(np.concatenate((u * n + v, v * n + u)))
    # v's arcs are the codes in [v * n, (v + 1) * n)
    offsets = np.searchsorted(codes, np.arange(n + 1, dtype=np.int64) * n)
    return Graph(n, offsets.astype(np.intp), (codes % n).astype(np.intp))


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of integer array a, ascending; sorts a in place.

    Sort and drop repeats: numpy 2.4's np.unique hashes integer arrays,
    1.7 s against 0.03 s for this on 1.6M codes (x86-64).
    """
    a.sort()
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def complete_graph(n: int) -> Graph:
    check_int("n", n, 1, error=GraphFormatError)
    return _from_arrays(n, *np.triu_indices(n, 1))


def cycle_graph(n: int) -> Graph:
    check_int("n", n, 1, error=GraphFormatError)
    if n < 3:
        raise GraphFormatError(f"cycle needs n >= 3, got {n}")
    u = np.arange(n, dtype=np.int64)
    return _from_arrays(n, u, (u + 1) % n)


def path_graph(n: int) -> Graph:
    check_int("n", n, 1, error=GraphFormatError)
    u = np.arange(n - 1, dtype=np.int64)
    return _from_arrays(n, u, u + 1)


def star_graph(n: int) -> Graph:
    """Star on n vertices total: center 0 joined to leaves 1..n-1."""
    check_int("n", n, 1, error=GraphFormatError)
    return _from_arrays(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64))


# The families built from n alone; erdos_renyi also takes p and a seed.
_BUILDERS = {"complete": complete_graph, "cycle": cycle_graph, "path": path_graph,
             "star": star_graph}
FAMILIES = (*_BUILDERS, "erdos_renyi")


# Pairs decided per numpy call; one double each, so 512 KB at a time.
PAIR_CHUNK = 1 << 16


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with each unordered pair included independently: the
    one-size case of :func:`erdos_renyi_sizes`."""
    return erdos_renyi_sizes([(n, p)], seed)[0]


def erdos_renyi_sizes(sizes: Sequence[tuple[int, float]], seed: int) -> list[Graph]:
    """G(n, p) for every (n, p) in sizes, in order, all under one graph seed.

    Pair (u, v), u < v, taken in lexicographic order, is an edge iff the
    next ``random.Random(seed).random()`` is below p. Those doubles are
    drawn by numpy's Generator over :func:`mt19937_at`, whose MT19937
    double is CPython's ``random()``: ``(a * 2**26 + b) * 2**-53`` with
    ``a = w0 >> 5`` and ``b = w1 >> 6``. They are read once, in chunks of
    PAIR_CHUNK pairs up to the largest pair count, so memory stays
    bounded for any n; each chunk is compared with every p whose pairs
    reach it. Every size and p, then the seed, is checked before any
    double is drawn.
    """
    for n, p in sizes:
        check_int("n", n, 1, error=GraphFormatError)
        if not 0.0 <= p <= 1.0:
            raise GraphFormatError(f"edge probability must be in [0, 1], got {p}")
    # random.Random(1.5) seeds from the float's hash, a graph no integer seed
    # gives, and random.Random(s) seeds with abs(s): seeds -s and s give one graph
    check_int("graph seed", seed, 0, error=GraphFormatError)
    # int(): random.Random refuses numpy integers
    doubles = np.random.Generator(mt19937_at(random.Random(int(seed))))
    totals = [n * (n - 1) // 2 for n, _ in sizes]
    hits = [[np.empty(0, dtype=np.int64)] for _ in sizes]
    top = max(totals, default=0)
    for lo in range(0, top, PAIR_CHUNK):
        chunk = doubles.random(min(PAIR_CHUNK, top - lo))
        for (_, p), total, found in zip(sizes, totals, hits):
            if lo < total:
                found.append(np.flatnonzero(chunk[: total - lo] < p) + lo)
    graphs = []
    for (n, _), found in zip(sizes, hits):
        hit = np.concatenate(found)
        rows = np.arange(n, dtype=np.int64)
        row_start = rows * (2 * n - rows - 1) // 2  # index of pair (u, u + 1)
        u = np.searchsorted(row_start, hit, side="right") - 1
        graphs.append(_from_arrays(n, u, hit - row_start[u] + u + 1))
    return graphs


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
    return generate_sizes(kind, [(n, p)], seed)[0]


def generate_sizes(kind: str, sizes: Sequence[tuple[int, float | None]],
                   seed: int | None = None) -> list[Graph]:
    """One graph of the family named kind per (n, p) in sizes, as :func:`generate`
    builds it; erdos_renyi sizes share one read of the seed's stream."""
    if kind in _BUILDERS:
        return [_BUILDERS[kind](n) for n, _ in sizes]
    if kind != "erdos_renyi":
        raise GraphFormatError(f"unknown graph family {kind!r}; choose from {FAMILIES}")
    if any(p is None for _, p in sizes):
        raise GraphFormatError("erdos_renyi requires p")
    if seed is None:
        raise GraphFormatError("erdos_renyi requires a seed")
    return erdos_renyi_sizes(sizes, seed)


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
    src, dst = g.arcs()
    up = src < dst
    return f"{g.n} {g.edge_count}\n" + int_rows((src[up], dst[up]), sep=" ").decode()


def int_rows(columns, sep: str = ",") -> bytes:
    """The rows "a,b,...\\n" of equal-length non-negative integer columns, sep between cells.

    The bytes are those of "%d" formatting. Each column's decimal digits
    are written right-aligned into a fixed-width uint8 matrix, with zero
    bytes as padding; one boolean compress then drops the padding.
    """
    columns = [np.asarray(c) for c in columns]
    maxima = [int(c.max()) if len(c) else 0 for c in columns]
    widths = [len(str(m)) for m in maxima]
    table = np.zeros((len(columns[0]), sum(widths) + len(columns)), dtype=np.uint8)
    end = 0
    for c, top, width in zip(columns, maxima, widths):
        q = c.astype(np.uint32 if top < 2**32 else np.uint64)
        for pos in range(end + width - 1, end - 1, -1):
            nxt = q // 10
            digit = (q - nxt * 10).astype(np.uint8)
            # a leading zero stays padding; the units digit is always written
            table[:, pos] = digit + 48 if pos == end + width - 1 else np.where(q, digit + 48, 0)
            q = nxt
        end += width
        table[:, end] = ord(sep)
        end += 1
    table[:, -1] = ord("\n")
    flat = table.ravel()
    return flat[flat != 0].tobytes()
