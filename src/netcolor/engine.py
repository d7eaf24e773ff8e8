"""Round-synchronous coloring game: strategies, state, and the run loop.

A round is one simultaneous move of all players. The initial assignment
counts as round 1, so tau = 1 means the starting coloring was already
proper. Within a round, redraws consume the trial's single random stream
in ascending vertex order over the unhappy vertices; draws from a
one-element set do not touch the stream at all. Both conventions are
load-bearing for reproducibility and are shared by step() and run().

The round-1 coloring is ``rng.randrange(k)`` for each vertex in order.
A redraw from an available set of size a is ``rng.randrange(a)`` and
takes the set's r-th smallest color. :func:`initial_state` and the
rounds read those MT19937 words in bulk and leave the stream exactly
where the per-call loops would, which holds for k < 2**32, the largest
palette GameConfig accepts.

A round has two implementations, picked by its number of unhappy
vertices: in Python below VECTOR_ROUND_MIN of them, in numpy over CSR
rows from there on. Both take for each redraw the r-th color outside its
excluded set (the neighbors' colors, less the player's own under
Frugal), found by rank in O(degree) whatever k is, and both draw the
same colors from the same stream. The Python round stays because numpy's
per-call cost dominates small rounds: with numpy-only rounds a K3 trial
took about 3x as long (34 to 104 us) and an ER(1000) trial about 9%
longer. run() and step() play them, the verification suite samples the
numpy round over stacked copies of a graph, and the tests pin both draw
for draw to the oracle's independent twin of the rules, which alone
lists available sets over range(k).

Happiness is monotone: a happy player keeps its color, and a redraw
takes a color no neighbor holds or, under Frugal, the player's own,
which only unhappy neighbors share. Every round checks this over the
neighborhoods of the players that redrew and raises ContractViolation
if a happy player turns unhappy, so its next unhappy set is exactly the
redrawn players that still clash.

Forced orbits. A round in which every unhappy vertex has a one-element
set draws nothing: its outcome depends on the coloring alone and the
stream is left untouched. So once a coloring repeats within an unbroken
run of such rounds, every later round repeats with it. run() watches
each run of no-draw rounds with Brent's cycle finder (one stored
coloring, reset by any round that draws) and, on a repeat of period p,
jumps over every whole period left before max_rounds, then plays the
fewer than p rounds that remain. This is the greedy trap at k = Delta + 1
(and a frugal fixed point at an illegal k): a timed-out trial costs
O(orbit entry + period) rounds, not O(max_rounds). At a legal k every
available set has at least two colors, so the finder never fires.

History. A trial's per-round records live in a :class:`History` as one
int64 per stored round: its unhappy count or, under full retention, the
index of its unhappy set among the trial's distinct sets, each held
once. run() stores no round after a skipped orbit; the skip (period,
length) says that every later round repeats the last stored period, so
a trapped trial's history takes O(orbit entry + period) memory too.
Lengths, indexing, iteration, pickling and the rounds CSV read those
rounds from the period; RoundRecords are built on access.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat

import numpy as np

from .errors import ConfigError, ContractViolation, IllegalPaletteError
from .graph import Graph


class Strategy(Enum):
    """How an unhappy player resamples.

    GREEDY draws from the colors no neighbor currently uses and therefore
    always changes color; it needs k >= max_degree + 2 to be safe. FRUGAL
    draws from its own color plus the colors no neighbor uses, may keep
    its color, and needs only k >= max_degree + 1.
    """

    GREEDY = "greedy"
    FRUGAL = "frugal"

    def min_colors(self, max_degree: int) -> int:
        """Smallest palette size this strategy is guaranteed to work with."""
        return max_degree + 2 if self is Strategy.GREEDY else max_degree + 1


# randrange(k) must take one 32-bit word per try for the bulk reads.
MAX_K = 2**32

# What the game takes as an integer: a Python or a numpy one.
_INTEGERS = (int, np.integer)


@dataclass(frozen=True)
class GameConfig:
    """Everything a single trial needs besides the graph.

    initial=None draws the starting colors i.i.d. uniform from [k];
    a tuple fixes them. enforce_k_bound=False exists to reproduce the
    known non-convergent Greedy configurations and is refused by the
    CLI unless explicitly flagged.
    """

    k: int
    strategy: Strategy
    seed: int
    max_rounds: int = 10**6
    enforce_k_bound: bool = True
    initial: tuple[int, ...] | None = None

    def validate(self, g: Graph) -> None:
        # randrange(2.0) is deprecated, random.Random(1.5) seeds a stream
        # no integer seed gives, and max_rounds=2.5 would play 3 rounds
        if not isinstance(self.k, _INTEGERS):
            raise ConfigError(f"k must be an integer, got {self.k!r}")
        if not 1 <= self.k < MAX_K:
            raise ConfigError(f"k must be >= 1 and < 2**32, got {self.k}")
        if not isinstance(self.seed, _INTEGERS):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            # random.Random(s) seeds with abs(s): seeds -s and s would repeat a stream
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.max_rounds, _INTEGERS):
            raise ConfigError(f"max_rounds must be an integer, got {self.max_rounds!r}")
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.max_rounds > sys.maxsize:
            # a History's length, read back by indexing, must fit an index
            raise ConfigError(f"max_rounds must be <= {sys.maxsize}, got {self.max_rounds}")
        if self.enforce_k_bound:
            need = self.strategy.min_colors(g.max_degree())
            if self.k < need:
                raise IllegalPaletteError(
                    f"{self.strategy.value} needs k >= {need} on this graph "
                    f"(max degree {g.max_degree()}), got k={self.k}"
                )
        if self.initial is not None:
            check_coloring(g, self.initial, self.k)


def check_coloring(g: Graph, colors, k: int) -> None:
    """Refuse colors unless it is a state of the game: one integer in [0, k) per vertex of g."""
    if len(colors) != g.n:
        raise ConfigError(f"coloring has {len(colors)} entries for n={g.n}")
    for v, c in enumerate(colors):
        if not isinstance(c, _INTEGERS):
            raise ConfigError(f"color {c!r} at vertex {v} is not an integer")
        if not 0 <= c < k:
            raise ConfigError(f"color {c} at vertex {v} outside [0, {k})")


@dataclass(frozen=True)
class ColoringState:
    """Colors of all vertices at a given round; rounds are 1-based."""

    colors: tuple[int, ...]
    round: int


@dataclass(frozen=True)
class RoundRecord:
    """Per-round trace entry; unhappy is None under counts-only retention."""

    round: int
    unhappy: frozenset[int] | None
    happy_count: int


# Rounds read per block when a History is iterated, compared or written.
HISTORY_BLOCK = 8192


class History(Sequence):
    """The RoundRecords of rounds 1..len of one trial, held as one array.

    Each stored round is one int64: its unhappy count under counts
    retention (sets is None), or under full retention the position of its
    unhappy set in sets, which holds each distinct unhappy set once.
    A forced orbit that run() skipped is skip = (period, length): the
    history has length rounds, and every round past the stored ones
    repeats the last `period` stored rounds, period after period. With no
    skip the stored rounds are all the rounds.

    :meth:`count_range` gives the unhappy counts of a range of rounds.
    Records are built on access; a slice is a tuple of them. Two
    histories are equal when their records are, whatever their skips.
    """

    __slots__ = ("_n", "_sets", "_skip", "_stored", "_sizes")

    def __init__(self, n: int, stored, sets: tuple[frozenset[int], ...] | None = None,
                 skip: tuple[int, int] | None = None):
        self._n = n
        self._sets = sets
        self._skip = skip
        self._stored = np.asarray(stored, dtype=np.int64)
        self._stored.flags.writeable = False
        # each distinct set's size, read as the count of the rounds it is stored for
        self._sizes = None if sets is None else np.fromiter(map(len, sets), np.int64, len(sets))

    @property
    def n(self) -> int:
        """Number of players."""
        return self._n

    @property
    def sets(self) -> tuple[frozenset[int], ...] | None:
        """Each distinct unhappy set once under full retention, else None."""
        return self._sets

    @property
    def skip(self) -> tuple[int, int] | None:
        """(period, length) of a skipped forced orbit, else None."""
        return self._skip

    def __len__(self) -> int:
        return len(self._stored) if self.skip is None else self.skip[1]

    def _entries(self, lo, hi) -> np.ndarray:
        """The stored entries of rounds[lo:hi], lo and hi as in a slice."""
        lo, hi, _ = slice(lo, hi).indices(len(self))
        stored, at = self._stored, len(self._stored)
        picked = stored[lo:hi]
        first = max(lo, at)
        if hi > first:
            # the last stored period, rotated to start at round first + 1
            period = self.skip[0]
            cycle = np.roll(stored[at - period :], -((first - at) % period))
            tail = np.tile(cycle, -(-(hi - first) // period))[: hi - first]
            picked = np.concatenate((picked, tail))
        return picked

    def count_range(self, lo, hi) -> np.ndarray:
        """The unhappy counts of rounds[lo:hi], lo and hi as in a slice."""
        entries = self._entries(lo, hi)
        return entries if self.sets is None else self._sizes[entries]

    def _rounds(self, lo, hi) -> tuple[np.ndarray, list[frozenset[int]] | None]:
        """(unhappy counts, unhappy sets or None) of rounds[lo:hi]."""
        entries = self._entries(lo, hi)
        if self.sets is None:
            return entries, None
        return self._sizes[entries], list(map(self.sets.__getitem__, entries.tolist()))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        i = range(len(self))[i]  # bounds and negative indices as for a tuple
        counts, sets = self._rounds(i, i + 1)
        return RoundRecord(i + 1, None if sets is None else sets[0], self.n - int(counts[0]))

    def _blocks(self):
        """(first round, counts, unhappy sets or None) over blocks of the rounds."""
        for lo in range(0, len(self), HISTORY_BLOCK):
            yield lo + 1, *self._rounds(lo, lo + HISTORY_BLOCK)

    def __iter__(self):
        n = self.n
        for first, counts, sets in self._blocks():
            for i, (count, unhappy) in enumerate(
                zip(counts.tolist(), repeat(None) if sets is None else sets), first
            ):
                yield RoundRecord(i, unhappy, n - count)

    def __eq__(self, other):
        if not isinstance(other, History):
            return NotImplemented
        if len(self) != len(other) or (self.sets is None) != (other.sets is None):
            return False
        return all(
            np.array_equal(self.n - a[1], other.n - b[1]) and a[2] == b[2]
            for a, b in zip(self._blocks(), other._blocks())
        )

    def __hash__(self) -> int:
        head = self.count_range(0, HISTORY_BLOCK)
        return hash((len(self), (self.n - head).tobytes()))

    def __reduce__(self):
        return History, (self.n, self._stored, self.sets, self.skip)

    def __repr__(self) -> str:
        return f"History(n={self.n}, rounds={len(self)}, sets={self.sets is not None})"


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial.

    tau is the first round whose coloring is proper, or None on timeout.
    min_available is the smallest available-set size seen across all
    redraws (None if no vertex ever redrew); the legality invariant says
    it stays >= 2 whenever the palette bound holds.
    """

    tau: int | None
    history: History
    final_state: ColoringState
    seed: int
    min_available: int | None


# The per-round records run() can keep: every unhappy set, or only the counts.
RETENTIONS = ("full", "counts")


# Below this many vertices a Python scan beats numpy's per-call overhead.
VECTOR_SCAN_MIN = 32


def unhappy_vertices(g: Graph, s: ColoringState) -> list[int]:
    """Ascending list of vertices with at least one same-colored neighbor."""
    return _scan(g, s.colors)


def _scan(g: Graph, colors) -> list[int]:
    """unhappy_vertices of a coloring held as a sequence or an int64 array."""
    if g.n < VECTOR_SCAN_MIN:
        out = []
        for v in range(g.n):
            c = colors[v]
            for u in g.neighbors(v):
                if colors[u] == c:
                    out.append(v)
                    break
        return out
    src, dst = g.arcs()
    if not isinstance(colors, np.ndarray):
        colors = np.fromiter(colors, dtype=np.int64, count=g.n)
    bad = np.zeros(g.n, dtype=bool)
    bad[src[colors[src] == colors[dst]]] = True
    return np.flatnonzero(bad).tolist()


def is_proper(g: Graph, colors: tuple[int, ...]) -> bool:
    """True iff no edge is monochromatic."""
    src, dst = g.arcs()
    c = np.fromiter(colors, dtype=np.intp, count=g.n)
    return not np.any(c[src] == c[dst])


def _keeps_own(strategy: Strategy) -> bool:
    """Whether a player's own color stays out of its excluded set: the rule
    that sets Frugal apart. Every excluded set is built through it."""
    return strategy is Strategy.FRUGAL


def _draw_ranks(rng: random.Random, sizes):
    """The rank each redraw takes in its available set; every round draws here.

    A set of size s > 1 takes rng.randrange(s). A one-element set takes
    rank 0 and leaves the stream untouched, so forced moves are
    seed-independent. A list of sizes gives a list, one call per draw; an
    int64 array gives an array, read in bulk by :func:`_randrange_each`.
    """
    if isinstance(sizes, list):
        return [rng.randrange(s) if s > 1 else 0 for s in sizes]
    ranks = np.zeros(len(sizes), dtype=np.int64)
    drawn = sizes > 1
    ranks[drawn] = _randrange_each(rng, sizes[drawn])
    return ranks


def _initial_colors(g: Graph, cfg: GameConfig, rng: random.Random) -> np.ndarray:
    """The round-1 coloring of :func:`initial_state` as an int64 array."""
    if cfg.initial is not None:
        return np.array(cfg.initial, dtype=np.int64)
    return _randrange_each(rng, np.full(g.n, cfg.k, dtype=np.int64))


def initial_state(g: Graph, cfg: GameConfig, rng: random.Random) -> ColoringState:
    """Round-1 coloring: the configured assignment or i.i.d. uniform draws.

    The draws are rng.randrange(k) for vertices 0..n-1 in order, read in
    bulk; the colors and the stream's next word are the same as with one
    call per vertex. cfg is validated first, as run() validates it.
    """
    cfg.validate(g)
    return ColoringState(tuple(_initial_colors(g, cfg, rng).tolist()), 1)


def step(
    g: Graph, s: ColoringState, cfg: GameConfig, rng: random.Random
) -> tuple[ColoringState, RoundRecord]:
    """One simultaneous round of run()'s rules.

    Returns the successor state (round + 1) and the record of that new
    state; the round, its draws and its unhappy set are the ones run()
    plays from s on the same stream. cfg is validated as run() validates
    it, and s.colors as its initial colors, before any draw.
    """
    replace(cfg, initial=s.colors).validate(g)
    unhappy = unhappy_vertices(g, s)
    colors = s.colors
    if unhappy:
        colors, unhappy = _play_round(g, list(colors), unhappy, cfg, rng, s.round)[:2]
        if not isinstance(colors, list):
            colors = colors.tolist()
    nxt = ColoringState(tuple(colors), s.round + 1)
    return nxt, RoundRecord(nxt.round, frozenset(unhappy), g.n - len(unhappy))


def run(
    g: Graph,
    cfg: GameConfig,
    *,
    retention: str = "full",
) -> TrialResult:
    """Play until the coloring is proper or max_rounds is hit.

    retention="full" keeps the unhappy set of every round; "counts"
    keeps only per-round unhappy counts. Either way the history is a
    :class:`History` of arrays.

    A round only re-examines the neighborhoods of the vertices that
    redrew, which is exact because colors change nowhere else and a
    happy vertex stays happy; every round checks the latter and raises
    ContractViolation if a happy vertex turns unhappy. Rounds with at
    least VECTOR_ROUND_MIN unhappy vertices run in numpy
    (:func:`_vector_round`), smaller ones in Python (:func:`_scalar_round`);
    both draw the same colors from the same stream.

    Rounds that draw nothing are deterministic, so each unbroken run of
    them is watched for a repeated coloring with Brent's cycle finder
    (R. P. Brent, BIT 20, 1980): one anchor coloring, moved at powers of
    two and dropped by any round that draws. On a repeat of period p,
    every whole period left before max_rounds is skipped, and the history
    stores no more rounds: its skip repeats the period just played up to
    max_rounds. The loop then plays the fewer than p rounds that remain
    for the final coloring. tau, final_state, min_available, the
    history's records and the stream come out as if every round had been
    played. A timeout is a value (tau=None), not an error.
    """
    if retention not in RETENTIONS:
        raise ConfigError(f"retention must be one of {RETENTIONS}, got {retention!r}")
    cfg.validate(g)
    rng = random.Random(int(cfg.seed))  # Random refuses numpy integers
    n = g.n
    # colors is a list in scalar rounds and an array in vector rounds
    colors: list[int] | np.ndarray = _initial_colors(g, cfg, rng)
    if n < VECTOR_SCAN_MIN:
        colors = colors.tolist()
    unhappy = _scan(g, colors)
    # one entry per round: its unhappy count, or under full retention the
    # index of its unhappy set among the distinct ones
    stored = array("q")
    sets: dict[frozenset[int], int] | None = {} if retention == "full" else None
    min_available: int | None = None
    anchor: tuple[int, ...] | None = None
    skip: tuple[int, int] | None = None
    rnd = 1
    while True:
        if skip is None:
            stored.append(len(unhappy) if sets is None
                          else sets.setdefault(frozenset(unhappy), len(sets)))
        if not unhappy or rnd >= cfg.max_rounds:
            break
        colors, unhappy, low, drew = _play_round(g, colors, unhappy, cfg, rng, rnd)
        if min_available is None or low < min_available:
            min_available = low
        rnd += 1
        if drew:
            anchor = None
            continue
        coloring = tuple(colors) if isinstance(colors, list) else tuple(colors.tolist())
        if anchor is None:
            anchor, power, period = coloring, 1, 0
            continue
        period += 1
        if coloring == anchor:
            # rounds rnd - period .. rnd - 1 are one period, stored; every
            # later round repeats it, so none is stored, and fewer than
            # `period` are left to play after the jump
            skip = (period, cfg.max_rounds)
            rnd += (cfg.max_rounds - rnd) // period * period
        elif period == power:
            anchor, power, period = coloring, 2 * power, 0
    if not isinstance(colors, list):
        colors = colors.tolist()
    return TrialResult(
        tau=None if unhappy else rnd,
        history=History(n, np.frombuffer(stored, dtype=np.int64),
                        None if sets is None else tuple(sets), skip),
        final_state=ColoringState(tuple(colors), rnd),
        seed=cfg.seed,
        min_available=min_available,
    )


# Rounds with at least this many unhappy vertices redraw in numpy; below
# it the per-call cost of numpy exceeds the Python loop's.
VECTOR_ROUND_MIN = 32


def _play_round(g: Graph, colors, unhappy: list[int], cfg: GameConfig, rng: random.Random,
                rnd: int):
    """One round by :func:`_vector_round` or :func:`_scalar_round`, whichever fits.

    colors is a list or an int64 array; it is converted to the form the
    round works on, updated in place and returned first, followed by the
    round's (next unhappy list, smallest set size, drew).
    """
    if len(unhappy) >= VECTOR_ROUND_MIN:
        if isinstance(colors, list):
            colors = np.array(colors, dtype=np.int64)
        return colors, *_vector_round(g.offsets(), g.arcs()[1], colors, unhappy, cfg, rng, rnd)
    if not isinstance(colors, list):
        colors = colors.tolist()
    return colors, *_scalar_round(g, colors, unhappy, cfg, rng, rnd)


def _scalar_round(
    g: Graph,
    colors: list[int],
    unhappy: list[int],
    cfg: GameConfig,
    rng: random.Random,
    rnd: int,
) -> tuple[list[int], int, bool]:
    """One round in Python; returns (next unhappy list, smallest set size, drew).

    drew is False when every set had one color and the stream was left
    untouched. colors is updated in place. A happy vertex that a redraw
    makes unhappy raises ContractViolation: the rules forbid it, so the
    next unhappy list is the redrawn vertices that clash. The excluded
    set E is the neighbors' colors, minus v's own under Frugal. The r-th
    smallest color outside E, r = randrange(k - |E|), is found by a walk
    of sorted(E) in O(degree) rather than a scan of range(k).
    """
    k = cfg.k
    keep_own = _keeps_own(cfg.strategy)
    excluded = []
    sizes = []
    for v in unhappy:
        used = {colors[u] for u in g.neighbors(v)}
        if keep_own:
            used.discard(colors[v])
        excluded.append(used)
        sizes.append(k - len(used))
    low = min(sizes)
    if low < 1:
        v = unhappy[sizes.index(low)]
        raise ContractViolation(f"empty available set at vertex {v} in round {rnd}")
    # all excluded sets are built, so colors may change as the ranks land
    for v, used, c in zip(unhappy, excluded, _draw_ranks(rng, sizes)):
        for e in sorted(used):
            if e > c:
                break
            c += 1
        colors[v] = c
    was_unhappy = set(unhappy)
    nxt: set[int] = set()
    for v in unhappy:
        cv = colors[v]
        for u in g.neighbors(v):
            if colors[u] == cv:
                nxt.add(v)
                if u not in was_unhappy:
                    raise ContractViolation(f"happy vertex {u} lost happiness in round {rnd + 1}")
    return sorted(nxt), low, max(sizes) > 1


def _vector_round(
    offsets: np.ndarray,
    dst: np.ndarray,
    colors: np.ndarray,
    unhappy,
    cfg: GameConfig,
    rng: random.Random,
    rnd: int,
) -> tuple[list[int], int, bool]:
    """:func:`_scalar_round` in numpy over the CSR rows of the unhappy vertices.

    The graph comes as its CSR arrays (row offsets, arc targets) and
    unhappy as a non-empty ascending list or array. Each excluded set E
    comes from sort-deduplicating row * k + neighbor color. With E's
    elements e_0 < e_1 < ... the r-th color outside E is
    r + #{j : e_j - j <= r}; as e_j - j never decreases along a row, one
    searchsorted over row * k + e_j - j counts it for every row at once.
    """
    k = cfg.k
    verts = np.asarray(unhappy, dtype=np.intp)
    m = len(verts)
    starts = offsets[verts]
    lens = offsets[verts + 1] - starts
    ends = np.cumsum(lens)
    rows = np.repeat(np.arange(m), lens)
    arcs = np.arange(ends[-1]) + (starts - ends + lens)[rows]
    nbrs = dst[arcs]
    own = colors[verts]
    nbr_colors = colors[nbrs]
    keys = rows * k + nbr_colors  # below 2**63: rows < 2**31 and colors < k < 2**32
    if _keeps_own(cfg.strategy):
        keys = keys[nbr_colors != own[rows]]
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    key_rows = keys // k
    excluded = np.bincount(key_rows, minlength=m)
    sizes = k - excluded
    low = int(sizes.min())
    if low < 1:
        v = int(verts[np.argmin(sizes)])
        raise ContractViolation(f"empty available set at vertex {v} in round {rnd}")
    ranks = _draw_ranks(rng, sizes)
    row_starts = np.cumsum(excluded) - excluded
    # row * k + e_j - j, where j is the key's position within its row
    shifted = keys - np.arange(len(keys)) + row_starts[key_rows]
    below = np.searchsorted(shifted, np.arange(m) * k + ranks, side="right") - row_starts
    new = ranks + below
    colors[verts] = new
    clash = new[rows] == colors[nbrs]
    hit = np.zeros(m, dtype=bool)
    hit[rows[clash]] = True
    nxt = verts[hit]
    if nxt.size:
        was_unhappy = np.zeros(len(colors), dtype=bool)
        was_unhappy[verts] = True
        lost = nbrs[clash & ~was_unhappy[nbrs]]
        if lost.size:
            raise ContractViolation(f"happy vertex {lost[0]} lost happiness in round {rnd + 1}")
    return nxt.tolist(), low, bool((sizes > 1).any())


def _randrange_each(rng: random.Random, bounds: np.ndarray) -> np.ndarray:
    """rng.randrange(b) for each b of bounds in order, read from bulk words.

    randrange(b) takes 32-bit words w until w >> (32 - b.bit_length()) < b,
    and getrandbits(32 * m) returns the next m words little-endian first.
    Every value takes at least one word, so a block of as many words as
    values still owed is used up whole: the stream ends where per-value
    randrange calls leave it.

    When every bound is the same, whether a word is accepted does not
    depend on the value it falls to, so each block is filtered in numpy.
    Otherwise a Python loop tries each word against the value it falls to:
    w >> s < b is w < b << s.
    """
    count = len(bounds)
    if count and (bounds == bounds[0]).all():
        b = int(bounds[0])
        shift = 32 - b.bit_length()
        out = np.empty(count, dtype=np.int64)
        done = 0
        while done < count:
            words = _words(rng, count - done)
            accepted = words[words < b << shift]
            out[done : done + len(accepted)] = accepted
            done += len(accepted)
        return out >> shift
    shifts = 32 - np.frexp(bounds)[1]  # frexp's exponent is the bit length
    limits = (bounds << shifts).tolist()
    accepted: list[int] = []
    i = 0
    while i < count:
        for w in _words(rng, count - i).tolist():
            if w < limits[i]:
                accepted.append(w)
                i += 1
    return np.array(accepted, dtype=np.int64) >> shifts


def _words(rng: random.Random, m: int) -> np.ndarray:
    """The next m 32-bit words of rng's stream, in order."""
    return np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
