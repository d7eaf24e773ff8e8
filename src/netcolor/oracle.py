"""Exact ground truth on tiny instances, by enumeration and counting.

Everything here recomputes the game's rules from scratch instead of
calling the engine's samplers: the two code paths must stay independent
so the engine/oracle agreement test retains its power to catch faults
in either one. The laws refuse with ConfigError, before any cache
lookup or enumeration, a palette or a coloring the game cannot have
(:func:`engine.check_coloring`) and a vertex not of the graph.

The laws and floor probabilities count outcomes as integers and turn
each count into a probability once, as the exact Fraction(count, size)
over the joint support. The one-round law lists every joint draw; the
available-size law counts them with a dynamic program over the colors
v's neighbors cover, and the two-round probability lists its round-one
draws and counts its round-two ones by products of set sizes.
exact_expected_tau works in doubles: it builds the lumped absorbing
chain in numpy as one sparse transition matrix over classes of
colorings, and reads its traps and I - Q off that matrix.

Both strategies are equivariant under any permutation of the palette:
renaming colors renames the available sets and leaves every draw
uniform. Probabilities of happiness therefore depend on a coloring only
up to renaming, and available_size_distribution and
two_round_happiness_prob memoize on colorings relabeled by first
appearance (:func:`_relabel`). For the same reason exact_expected_tau's
chain lumps onto the classes of colorings under the permutations that
fix its start. Its reachable_states and trapped_states are sums of class
sizes, so they count colorings, and its caps count colorings too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import ColoringState, GameConfig, Strategy, check_coloring
from .errors import INTEGERS, ConfigError, ContractViolation, EnumerationLimitError
from .graph import Graph, sorted_distinct

# Largest enumeration built in one piece: a joint support, a transition
# fan-out, a breadth-first level of transitions, or a palette listed
# over range(k).
ENUMERATION_CAP = 10**7

# Largest state space k^n exact_expected_tau explores.
STATE_CAP = 10**5

# Tail floor for the available-set size after one round.
AVAILABLE_SIZE_FLOOR = Fraction(1, 16)

# The two-round happiness floor 1/(2^6 e^5) is irrational; exact rational
# probabilities are compared against this certified bracketing interval
# (digits re-verified against extended-precision evaluation in the tests).
TWO_ROUND_FLOOR_LO = Fraction("0.0001052804218607104233849382566116")
TWO_ROUND_FLOOR_HI = Fraction("0.0001052804218607104233849382566117")

# Table cells (round-one outcomes x vertices of N[v] x colors) that
# two_round_happiness_prob builds in one piece, or one outcome's if more.
ROW_CHUNK = 2**23


@dataclass(frozen=True)
class Distribution:
    """Finite distribution: sorted (outcome, probability) pairs.

    The probabilities are Fractions summing to exactly 1.
    """

    support: tuple

    def total(self) -> Fraction:
        return sum(p for _, p in self.support)

    def as_dict(self) -> dict:
        return dict(self.support)


def _is_unhappy(g: Graph, colors, v: int) -> bool:
    c = colors[v]
    return any(colors[u] == c for u in g.neighbors(v))


def _unhappy_list(g: Graph, colors) -> list[int]:
    return [v for v in range(g.n) if _is_unhappy(g, colors, v)]


def _check_vertex_state(g: Graph, colors, v: int, k: int) -> None:
    """Refuse a coloring that is not a state of the game, or a vertex not of g."""
    check_coloring(g, colors, k)
    if not isinstance(v, INTEGERS):
        raise ConfigError(f"vertex {v!r} is not an integer")
    if not 0 <= v < g.n:
        raise ConfigError(f"vertex {v} outside [0, {g.n})")


def _check_palette(k: int) -> None:
    if k > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"palette k = {k} exceeds enumeration cap {ENUMERATION_CAP}; "
            "available sets are listed over range(k)"
        )


def _available(used, own: int, strategy: Strategy, k: int) -> tuple[int, ...]:
    """Sorted available colors of a player of color own whose neighbors hold the colors in used."""
    # Independent twin of the engine's candidate computation; keep it that way.
    free = [c for c in range(k) if c not in used]
    # not Strategy.GREEDY: an Enum class attribute takes 0.1 µs on Python 3.11
    if strategy._value_ == "greedy" or own not in used:
        return tuple(free)
    return tuple(sorted(free + [own]))


def _joint_draws(g: Graph, colors, movers, strategy: Strategy, k: int, what: str):
    """Available sets of the movers and the size of their joint support."""
    used_of = {u: {colors[w] for w in g.neighbors(u)} for u in movers}
    return _draws(colors, used_of, strategy, k, what)


def _draws(colors, used_of: dict, strategy: Strategy, k: int, what: str):
    """Available sets of the movers u whose neighbors hold the colors
    used_of[u], in that order, and the size of their joint support.

    Each set is sized first, as _available would list it, and the
    palette and support refused as _check_palette and _support_size do,
    before any set is listed. The size returned is the product of the
    listed sets' lengths, so a law's weights always fit what it lists.
    """
    if used_of:
        _check_palette(k)
    keeps_own = strategy._value_ == "frugal"  # frugal's own color stays available
    sizes = [k - len(used) + (keeps_own and colors[u] in used) for u, used in used_of.items()]
    _support_size(colors, used_of, sizes, what)
    avails = [_available(used, colors[u], strategy, k) for u, used in used_of.items()]
    return avails, math.prod(len(a) for a in avails)


def _support_size(colors, movers, sizes, what: str) -> int:
    """The size of the movers' joint support, from the sizes of their available sets.

    Raises on an empty available set and when the joint support exceeds
    ENUMERATION_CAP; what names the support in the message.
    """
    for u, size in zip(movers, sizes):
        if not size:
            raise ContractViolation(f"empty available set at vertex {u} in coloring {tuple(colors)}")
    size = math.prod(sizes)
    if size > ENUMERATION_CAP:
        # str() refuses integers of more than 4300 digits, and a refused
        # support can be far longer: past 10^18 say only its magnitude
        text = str(size) if size <= 10**18 else f"~10^{math.log10(size):.1f}"
        raise EnumerationLimitError(f"{what} {text} exceeds enumeration cap {ENUMERATION_CAP}")
    return size


def _next_colorings(g: Graph, colors, movers, strategy: Strategy, k: int, what: str):
    """Per-vertex options of one round and the size of their product.

    Happy vertices keep their color and the unhappy movers range over
    their sorted available sets, so itertools.product(*options) lists
    every next coloring once, each with probability 1/size, in sorted
    order.
    """
    avails, size = _joint_draws(g, colors, movers, strategy, k, what)
    options = [(c,) for c in colors]
    for u, a in zip(movers, avails):
        options[u] = a
    return options, size


def _relabel(colors) -> tuple[int, ...]:
    """colors renamed 0, 1, 2, ... in order of first appearance: (2, 0, 2) -> (0, 1, 0)."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(c, len(names)) for c in colors)


def _relabel_rows(rows, fixed=()) -> np.ndarray:
    """Each row's colors not in fixed renamed, in order of first appearance,
    onto the sorted colors not in fixed.

    That is the code-smallest coloring the row maps to under the palette
    permutations fixing every color of fixed. With fixed=() it is _relabel
    row by row: [[2, 0, 2]] -> [[0, 1, 0]].
    """
    # one contiguous array per position, renamed in place
    cols = np.asarray(rows).T.copy()
    n, m = cols.shape
    # first[p, r]: the first position of row r holding the color at p
    first = np.repeat(np.arange(n)[:, None], m, axis=1)
    for q in range(n - 2, -1, -1):
        np.copyto(first[q + 1 :], q, where=cols[q + 1 :] == cols[q])
    new = first == np.arange(n)[:, None]
    # The j-th new color of a row takes the j-th smallest color not in
    # fixed; a color seen before takes the name it got at its first position.
    names = np.arange(n)
    if fixed:
        new &= ~np.isin(cols, fixed)
        names = np.setdiff1d(np.arange(n + len(fixed)), fixed)
    named = np.zeros(m, dtype=np.intp)
    flat, at = cols.reshape(-1), np.arange(m)
    for p in range(n):
        cols[p] = np.where(new[p], names[named], flat[first[p] * m + at])
        named += new[p]
    return cols.T


def one_round_distribution(g: Graph, s: ColoringState, strategy: Strategy, k: int) -> Distribution:
    """Exact law of the next state: happy vertices stick, unhappy draw jointly."""
    colors = s.colors
    check_coloring(g, colors, k)
    options, size = _next_colorings(
        g, colors, _unhappy_list(g, colors), strategy, k, "joint support"
    )
    p = Fraction(1, size)
    support = tuple((ColoringState(c, s.round + 1), p) for c in itertools.product(*options))
    return Distribution(support=support)


@dataclass(frozen=True)
class AvailableSizeCheck:
    """Exact law of next round's available-set size at one vertex.

    threshold is (k - f)/5 where f counts distinct happy-neighbor colors;
    prob_at_least = P(size >= threshold) must clear the 1/16 floor.
    """

    distribution: Distribution
    threshold: Fraction
    prob_at_least: Fraction
    floor: Fraction
    f: int
    holds: bool


def available_size_distribution(
    g: Graph,
    s: ColoringState,
    v: int,
    strategy: Strategy,
    k: int,
    *,
    cache: dict | None = None,
) -> AvailableSizeCheck:
    """Exact law of the size of v's next-round available set.

    The size uses the defining formula |{own'} union ([k] minus C')|
    evaluated at the post-round colors, whatever v's new happiness status:
    that is the quantity the tail floor is about. Only draws inside v's
    closed neighborhood can affect it, so the rest is marginalized away
    exactly.

    The draws are counted, not listed: a dynamic program folds the moving
    neighbors' independent draws one at a time into {covered-color
    bitmask: number of joint draws}, starting from the colors of the
    neighbors that stay put, and v's own options then split each mask's
    count by whether own' is covered, which gives size k - |C'| + 1, or
    not, which gives k - |C'|. The joint support is still sized first and
    refused past ENUMERATION_CAP.

    cache memoizes results for one graph, as in two_round_happiness_prob:
    entries are keyed ("available_size", v, strategy, k, relabeled
    coloring), so colorings that differ only by color names share one.
    """
    colors = s.colors
    _check_vertex_state(g, colors, v, k)
    nbrs = g.neighbors(v)
    # Each vertex of v's closed neighborhood gets its neighbors' colors once:
    # that set decides whether it moves, and sizes and lists its available set.
    used_v = {colors[u] for u in nbrs}
    if colors[v] not in used_v:
        raise ContractViolation(f"vertex {v} is happy; the size law is defined for unhappy vertices")
    key = None
    if cache is not None:
        key = ("available_size", v, strategy, k, _relabel(colors))
        hit = cache.get(key)
        if hit is not None:
            return hit
    # the neighbors' colors of each vertex of the closed neighborhood that moves
    used_of = {}
    for u in sorted((v, *nbrs)):
        used = used_v if u == v else {colors[w] for w in g.neighbors(u)}
        if colors[u] in used:
            used_of[u] = used
    avails, size = _draws(colors, used_of, strategy, k, "joint support")
    avail_of = dict(zip(used_of, avails))
    # one bit per color a neighbor can hold after the round, handed out as
    # the colors appear, so masks stay as short as the neighborhood's
    # colors whatever k is
    bit: dict[int, int] = {}
    held = 0
    for u in nbrs:
        if u not in avail_of:
            held |= bit.setdefault(colors[u], 1 << len(bit))
    # f: the distinct colors of the neighbors that stay put
    f = len(bit)
    covered = {held: 1}
    for u in nbrs:
        if u in avail_of:
            bits = [bit.setdefault(c, 1 << len(bit)) for c in avail_of[u]]
            folded: dict[int, int] = {}
            for mask, ways in covered.items():
                for b in bits:
                    m = mask | b
                    folded[m] = folded.get(m, 0) + ways
            covered = folded
    own = avail_of[v]
    own_bits = sum(bit.get(c, 0) for c in own)
    counts: dict[int, int] = {}
    for mask, ways in covered.items():
        free = k - mask.bit_count()
        clash = (mask & own_bits).bit_count()
        # own' counts once more in the size when a neighbor holds it too
        if clash:
            counts[free + 1] = counts.get(free + 1, 0) + ways * clash
        if clash < len(own):
            counts[free] = counts.get(free, 0) + ways * (len(own) - clash)
    dist = Distribution(tuple((sz, Fraction(c, size)) for sz, c in sorted(counts.items())))
    good = sum(c for sz, c in counts.items() if 5 * sz >= k - f)
    result = AvailableSizeCheck(
        distribution=dist,
        threshold=Fraction(k - f, 5),
        prob_at_least=Fraction(good, size),
        floor=AVAILABLE_SIZE_FLOOR,
        f=f,
        # good / size >= AVAILABLE_SIZE_FLOOR, in integers
        holds=good * AVAILABLE_SIZE_FLOOR.denominator >= AVAILABLE_SIZE_FLOOR.numerator * size,
    )
    if key is not None:
        cache[key] = result
    return result


def two_round_floor_holds(prob) -> bool:
    """Compare a probability against the irrational floor.

    The verdict is certified by the bracketing interval; a probability
    falling inside the interval itself would be undecidable at the stored
    precision and raises instead of guessing. A float is compared by its
    exact value, as Python compares floats with Fractions.
    """
    if prob >= TWO_ROUND_FLOOR_HI:
        return True
    if prob < TWO_ROUND_FLOOR_LO:
        return False
    raise ContractViolation(
        f"probability {prob} falls inside the floor's bracketing interval; widen the precision"
    )


def two_round_happiness_prob(
    g: Graph,
    s: ColoringState,
    v: int,
    strategy: Strategy,
    k: int,
    *,
    cache: dict | None = None,
) -> Fraction:
    """Exact P(v is happy two rounds after state s).

    Both rounds only involve draws inside v's closed 2-neighborhood, and
    round two only those of N[v], v and its neighbors. The round-one
    outcomes are listed in numpy, in itertools.product order, at most
    ROW_CHUNK table cells (outcomes x |N[v]| x width) at a time; one that
    leaves v happy counts as happy, as happiness monotonicity guarantees.
    Round two is counted, not listed: v ends it happy exactly when no
    neighbor draws v's new color o, and the draws are independent, so of
    the prod |A_u| joint draws over N[v], sum over o in A_v of prod over
    neighbors u of (|A_u| - [o in A_u]) leave v happy; a happy neighbor
    holds no color v can draw. The sets come from _option_table over
    N[v], the 2-ball's first columns, relabeled by first appearance
    (:func:`_relabel_rows`) when k exceeds the 2-ball, so the table is
    width = min(k, |2-ball|) colors wide. Each of the other
    k - width colors is free to every mover and adds prod over neighbors
    u of (|A_u| - [u moves]). The result is Fraction(count, size) over the
    round-one support, count summing the round-two fractions. A round-two
    support past ENUMERATION_CAP is refused as if it were listed.

    cache memoizes results for one graph, keyed ("two_round", v, strategy,
    k, _relabel(colors)): both strategies are equivariant under renaming
    colors, so colorings that differ only by color names share an entry.
    """
    colors = s.colors
    _check_vertex_state(g, colors, v, k)
    if not _is_unhappy(g, colors, v):
        return Fraction(1)
    if cache is None:
        cache = {}
    key = ("two_round", v, strategy, k, _relabel(colors))
    hit = cache.get(key)
    if hit is not None:
        return hit
    # the 2-ball's columns: N[v] first, v in column 0
    ball1 = [v, *g.neighbors(v)]
    m = len(ball1)
    ball = ball1 + sorted({w for u in ball1 for w in g.neighbors(u)} - set(ball1))
    movers1 = [u for u in sorted(ball) if _is_unhappy(g, colors, u)]
    avails1, size1 = _joint_draws(g, colors, movers1, strategy, k, "round-one joint support")
    col = {u: i for i, u in enumerate(ball)}
    # the arcs out of N[v]: all that round two reads
    arcs = np.array([(i, col[w]) for i, u in enumerate(ball1) for w in g.neighbors(u)]).T
    base = np.array([colors[u] for u in ball], dtype=np.int64)
    # the movers' columns and options, last mover first
    digits = [(col[u], np.array(a)) for u, a in zip(movers1[::-1], avails1[::-1])]
    width = min(k, len(ball))
    happy = 0
    # round-two support size -> favourable round-two draws summed over outcomes
    favourable: dict[int, int] = {}
    step = max(1, ROW_CHUNK // (m * width))
    for lo in range(0, size1, step):
        # outcome j is j in the mixed radix of the movers' set sizes, the last
        # mover's digit varying fastest: itertools.product order
        rest = np.arange(lo, min(lo + step, size1))
        rows = np.tile(base, (rest.size, 1))
        for c, options in digits:
            rest, digit = np.divmod(rest, options.size)
            rows[:, c] = options[digit]
        done = (rows[:, 1:m] != rows[:, :1]).all(axis=1)
        happy += int(np.count_nonzero(done))
        rows = rows[~done]
        named = _relabel_rows(rows) if k > width else rows
        unhappy = _unhappy_mask(arcs, named)[:, :m]
        allowed = _option_table(arcs, named, unhappy, strategy, width)
        sizes = allowed.sum(axis=2) + (k - width) * unhappy
        # the round-two support in doubles: exact up to 2^53, and past
        # ENUMERATION_CAP exactly when the true product is
        size2 = sizes.prod(axis=1, dtype=np.float64)
        refused = np.flatnonzero((sizes == 0).any(axis=1) | (size2 > ENUMERATION_CAP))
        if refused.size:
            row = refused[0]
            work = list(colors)
            for u, c in zip(ball, rows[row].tolist()):
                work[u] = c
            movers = [u for i, u in enumerate(ball1) if unhappy[row, i]]
            _support_size(
                work, movers, [int(sizes[row, col[u]]) for u in movers], "round-two joint support"
            )
        # v's new colors, each times the neighbors' draws that avoid it: first
        # the table's colors, then the k - width colors no one in the ball holds
        clear = allowed[:, 0].astype(np.int64)
        wide = np.full(len(rows), k - width)
        for c in range(1, m):
            clear *= sizes[:, c, None] - allowed[:, c]
            wide *= sizes[:, c] - unhappy[:, c]
        count = clear.sum(axis=1) + wide
        for size in np.unique(size2).tolist():
            favourable[int(size)] = favourable.get(int(size), 0) + int(count[size2 == size].sum())
    den = math.lcm(*favourable)
    num = happy * den + sum(c * (den // size2) for size2, c in favourable.items())
    prob = Fraction(num, size1 * den)
    cache[key] = prob
    return prob


@dataclass(frozen=True)
class ExpectedTau:
    """Exact expected convergence round, or inf when a trapped class is reachable."""

    expected: float
    reachable_states: int
    trapped_states: int


def exact_expected_tau(g: Graph, cfg: GameConfig) -> ExpectedTau:
    """Expected tau of the game's absorbing chain, counting the start as round 1.

    A coloring is the integer code sum of color_v * k^(n-1-v), so code
    order is the sorted order of the color tuples. The chain is explored
    and solved on classes of colorings: those that the palette
    permutations fixing the start map onto one another. The uniform start
    keeps every permutation; a given initial coloring keeps those of the
    colors it does not use. Both strategies are equivariant under them, so
    the chain lumps onto the classes (strong lumpability: Kemeny and
    Snell, Finite Markov Chains, 1960, ch. 6). A class is represented by
    its code-smallest member (:func:`_relabel_rows`); one relabeling of
    all k^n colorings gives every coloring's class and, counted, every
    class's size, (k-f)!/(k-f-j)! for the f colors the start fixes and
    the j other colors its members use.

    From the start's classes, the reachable classes are expanded in numpy
    one BFS level at a time: each level's unhappy masks come from the
    arcs, and each transient representative gets its option lists (the
    sorted available set of a mover, the own color of a happy vertex) and
    its successors in itertools.product order, each with probability
    1 / fan-out. The class table maps the successors to their classes.
    The caps count colorings, as if every member of a class were expanded: a
    state space k^n above STATE_CAP is refused before anything is
    explored, and a level holding a transition fan-out above
    ENUMERATION_CAP, more than ENUMERATION_CAP transitions summed over
    the members of its classes, or an empty available set, is refused
    before its successors are expanded.

    Each explored class's happy count is recorded. Happiness is monotone,
    so a transition that lowers it raises ContractViolation; this checks
    the oracle's own rules, not the engine's. The rest is read off one
    CSR matrix, chain, of class-to-class probabilities (the transitions
    between two classes summed). The reachable classes that no proper
    class reaches over chain.T, in one multi-source
    scipy.sparse.csgraph.dijkstra search (all of them when none is
    proper), are trapped and make the expectation infinite.
    reachable_states and trapped_states count colorings: they are sums of
    class sizes. Otherwise I - Q is the identity minus chain over the
    transient classes, most happy first and in code order within a happy
    count: block lower triangular. (I - Q) x = 1 is solved with spsolve
    in that natural order (the residual must be <= 1e-10), and the result
    is 1 plus, over the start's classes in code order, each class's share
    of the initial mass (|C| / k^n from the uniform start) times its x (0
    when proper), added one term at a time.
    """
    cfg.validate(g)
    n, k = g.n, cfg.k
    states = 1
    for _ in range(n):
        states *= k
        if states > STATE_CAP:
            # k^n itself can have more digits than str() accepts
            space = k**n if n * k.bit_length() <= 64 else f"{k}^{n}"
            raise EnumerationLimitError(f"state space k^n = {space} exceeds state cap {STATE_CAP}")
    place = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    if cfg.initial is None:
        fixed = ()
        start = np.arange(states, dtype=np.int64)
    else:
        fixed = tuple(sorted(set(cfg.initial)))
        start = np.array([sum(c * int(p) for c, p in zip(cfg.initial, place))], dtype=np.int64)
    # the code of every coloring's class, the colorings of each class, and
    # the start's classes
    classes = _relabel_rows(np.arange(states)[:, None] // place % k, fixed) @ place
    members = np.bincount(classes, minlength=states)
    init = sorted_distinct(classes[start])

    seen = np.zeros(states, dtype=bool)
    seen[init] = True
    # transitions out of each class; 0 for proper and unexplored ones
    fanout = np.zeros(states, dtype=np.int64)
    # happy vertices of each explored class
    happy = np.zeros(states, dtype=np.int64)
    sources, targets = [], []
    frontier = init
    while frontier.size:
        colors = frontier[:, None] // place % k
        unhappy = _unhappy_mask(g.arcs(), colors)
        happy[frontier] = n - unhappy.sum(axis=1)
        moving = unhappy.any(axis=1)
        frontier, colors, unhappy = frontier[moving], colors[moving], unhappy[moving]
        if not frontier.size:
            break
        allowed = _option_table(g.arcs(), colors, unhappy, cfg.strategy, k)
        sizes = allowed.sum(axis=2)
        empty = np.argwhere(sizes == 0)
        if empty.size:
            row, u = empty[0]
            raise ContractViolation(
                f"empty available set at vertex {u} in coloring {tuple(colors[row].tolist())}"
            )
        fan = sizes.prod(axis=1)
        if fan.max() > ENUMERATION_CAP:
            raise EnumerationLimitError(
                f"transition fan-out {int(fan.max())} exceeds enumeration cap {ENUMERATION_CAP}"
            )
        level = int(members[frontier] @ fan)
        if level > ENUMERATION_CAP:
            raise EnumerationLimitError(
                f"BFS level of {level} transitions exceeds enumeration cap {ENUMERATION_CAP}"
            )
        fanout[frontier] = fan
        ranked = np.argsort(~allowed, axis=2, kind="stable")
        succ = classes[_successor_codes(ranked, sizes, fan, place)]
        sources.append(np.repeat(frontier, fan))
        targets.append(succ)
        frontier = sorted_distinct(succ[~seen[succ]])
        seen[frontier] = True

    reachable = int(members[seen].sum())
    transient = np.flatnonzero(fanout)
    if transient.size == 0:
        return ExpectedTau(1.0, reachable, 0)
    # Imported here: scipy.sparse costs every other command about 0.4 s.
    from scipy.sparse import csr_array, identity
    from scipy.sparse.csgraph import dijkstra
    from scipy.sparse.linalg import spsolve

    src, dst = np.concatenate(sources), np.concatenate(targets)
    lowered = np.flatnonzero(happy[dst] < happy[src])
    if lowered.size:
        s, t = int(src[lowered[0]]), int(dst[lowered[0]])
        raise ContractViolation(
            f"transition {tuple((s // place % k).tolist())} -> {tuple((t // place % k).tolist())} "
            f"lowers the happy count from {happy[s]} to {happy[t]}"
        )
    # class-to-class transition probabilities; the transitions between the
    # same two classes are summed
    chain = csr_array((1.0 / fanout[src], (src, dst)), shape=(states, states))
    stuck = seen.copy()
    proper = np.flatnonzero(seen & (fanout == 0))
    if proper.size:
        stuck &= np.isinf(dijkstra(chain.T, indices=proper, min_only=True, unweighted=True))
    trapped = int(members[stuck].sum())
    if trapped:
        return ExpectedTau(math.inf, reachable, trapped)

    # most-happy first, code order within a level: no transition lowers the
    # happy count, so I - Q is block lower triangular in this order
    order = transient[np.argsort(-happy[transient], kind="stable")]
    a = csr_array(identity(order.size)) - chain[order][:, order]
    b = np.ones(order.size)
    x = spsolve(a, b, permc_spec="NATURAL")
    residual = float(np.max(np.abs(a @ x - b)))
    # a NaN residual (singular solve) fails this test as well
    if not residual <= 1e-10:
        raise ContractViolation(f"absorption solve residual {residual} above 1e-10")

    # E(tau) - 1 from each transient class; 0 from a proper one
    steps = np.zeros(states)
    steps[order] = x
    # each start class's share of the initial mass times its steps, one
    # term at a time in code order
    share = members[init] / members[init].sum()
    expected = 1.0
    for term in (share * steps[init]).tolist():
        expected += term
    return ExpectedTau(expected, reachable, 0)


def _unhappy_mask(arcs, colors: np.ndarray) -> np.ndarray:
    """Which vertices share their color with a neighbor along arcs, one row per coloring."""
    src, dst = arcs
    unhappy = np.zeros(colors.shape, dtype=bool)
    np.logical_or.at(unhappy, (slice(None), src), colors[:, src] == colors[:, dst])
    return unhappy


def _option_table(arcs, colors, unhappy, strategy: Strategy, k: int) -> np.ndarray:
    """Options for one round of the first m vertices, one row per coloring.

    allowed[r, v, c] says whether vertex v < m of row r may hold color c
    after the round, its neighbors read along the (src, dst) arcs, which
    leave only those m: its available set when unhappy[r, v], its own
    color otherwise; m is unhappy's column count. The numpy twin of
    _available, over whole blocks of colorings.
    """
    _check_palette(k)
    src, dst = arcs
    rows, m = unhappy.shape
    used = np.zeros((rows, m, k), dtype=bool)
    used[np.arange(rows)[:, None], src, colors[:, dst]] = True
    own = colors[:, :m, None] == np.arange(k)
    free = ~used if strategy is Strategy.GREEDY else ~used | own
    return np.where(unhappy[:, :, None], free, own)


def _successor_codes(ranked, sizes, fan, place) -> np.ndarray:
    """Codes of every row's successors, row by row, in itertools.product order.

    Successor j of a row is j written in the mixed radix of the row's
    option counts, the last vertex's digit varying fastest.
    """
    rows, n, k = ranked.shape
    # flat offset of each successor's row in ranked, and j itself
    base = np.repeat(np.arange(0, rows * n * k, n * k), fan)
    rest = np.arange(base.size) - np.repeat(np.cumsum(fan) - fan, fan)
    codes = np.zeros(base.size, dtype=np.int64)
    flat = ranked.reshape(-1)
    for v in range(n - 1, -1, -1):
        rest, digit = np.divmod(rest, np.repeat(sizes[:, v], fan))
        codes += flat[base + v * k + digit] * place[v]
    return codes
