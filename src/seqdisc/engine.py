"""Expected stopping time of any fixed-angle strategy under the Bayesian stopping rule.

The dynamic program propagates unterminated probability mass over the integer
count lattice (m1, m2), depth by depth, under each hypothesis separately.  The
termination predicate, posterior.StoppingRule, is a function of the counts
alone, so states reached by different outcome orderings merge exactly; mass
that stops is removed from the frontier immediately, which enforces prefix
termination automatically.  At a fixed depth the log-odds are affine in m1, so
the states that continue form one m1 interval (the continuation region of
Wald's sequential probability ratio test), and the frontier is stored as that
interval alone; the rule gives each interval's ends.

Angles are evaluated in batches that advance through one depth loop together,
their frontiers held side by side in one flat array.  The loop runs in blocks
of depths.  A block computes the continuation runs of all its depths and
angles first, then advances the frontiers (the only step that must go depth by
depth), then reads off the stopped mass, the cost and the stop and cap tests
for all its depths at once.  Each angle's slot follows its run: the
columns shift by one state at a copy where the run's lower end rises, so a
slot grows only as its run widens, and a run that drifts by almost a state per
copy (near phi = 0) still fits a block of a thousand copies.  One copy is one
multiply of each cell's left, own and right neighbour by coefficients made
once per distinct copy pattern of the block, which hold the one-copy law, the
shift and the cut to the runs, and one sum of the three products.  An angle
leaves the batch at the first depth where it drains, exceeds its cap or
fails.  A block ends early only once every angle has drained; at its end,
the window of each angle still running is trimmed.

A brute-force outcome-tree enumeration serves as the independent correctness
oracle at validation scale: it walks every outcome string instead of the count
lattice, and stops each one through the same StoppingRule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import DiscriminationProblem
from .posterior import StoppingRule
from .strategies import CostResult

__all__ = [
    "EngineOptions",
    "NonConvergenceError",
    "CostCapExceeded",
    "AngleBatch",
    "fixed_angle_cost",
    "fixed_angle_costs",
    "brute_force_cost",
]

_BRUTE_FORCE_DEPTH_LIMIT = 30
# at the last depth of each block, the states at either end of a running
# angle's run that each carry at most this fraction of its frontier mass go
# into its leaked mass, which the residual counts
_WINDOW_CUT = 1e-40
# depths per block: the first block has _FIRST_BLOCK, later ones double up to
# _MAX_BLOCK, or grow by one past a block cut to fit (a doubled one would be
# cut again, the runs of its extra depths found in vain).  The copies stop
# within 8 of the depth where every row has drained, so a long first block
# costs a cheap call little.  A block is cut to the most copies whose float
# arrays at their peak hold at most 2 * _BLOCK_CELLS cells (512 KiB): the
# frontier history (copies x hypotheses x cells) and the three products of a
# copy, with either the coefficient arrays kept (six cells per cell of each)
# while the copies are made, or the two planes the reductions read after them
_FIRST_BLOCK = 128
_MAX_BLOCK = 1024
_BLOCK_CELLS = 1 << 15


class NonConvergenceError(RuntimeError):
    """The frontier did not drain below the mass tolerance within the depth budget."""


class CostCapExceeded(RuntimeError):
    """The running lower bound on the cost exceeded the caller's cap."""


@dataclass(frozen=True)
class EngineOptions:
    max_copies: int = 100_000
    mass_tolerance: float = 1e-12
    # largest acceptable enclosure width before truncation is reported as failure
    bound_width_limit: float = 1e-6

    def __post_init__(self):
        if isinstance(self.max_copies, bool) or not isinstance(self.max_copies, numbers.Integral) \
                or self.max_copies < 1:
            raise ValueError(f"max_copies must be an integer >= 1, got {self.max_copies!r}")
        if not 0.0 < self.mass_tolerance < 1.0:
            raise ValueError(f"mass_tolerance must lie in (0, 1), got {self.mass_tolerance}")
        if not self.bound_width_limit >= 0.0:  # nan fails too; inf accepts any width
            raise ValueError(f"bound_width_limit must be >= 0, got {self.bound_width_limit}")


def _tail(rule: StoppingRule, eps: float) -> np.ndarray:
    """Conservative bound on the expected copies still needed from any unterminated state,
    at each angle of `rule` (shaped as its d1).

    Uses Wald's identity on the log-odds walk: the continuation region has
    half-width ln(1/eps - 1), and the walk drifts toward the confirming
    boundary under either hypothesis.  An infinite step (zero likelihood for
    one outcome) absorbs geometrically at the rate of that outcome.  Both
    terms are at least one copy.  Gives inf where the measurement carries no
    information (phi = 0 limit).
    """
    # the steps ln P(d|psi1)/P(d|psi2) of the log-odds of psi1 vs psi2
    steps = (-rule.d1, -rule.d2)
    finite = [np.isfinite(s) for s in steps]
    spread = np.where(finite[0], np.abs(steps[0]), 0.0) + np.where(finite[1], np.abs(steps[1]), 0.0)
    l_bound = math.log(1.0 / eps - 1.0)
    tails = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for given in (rule.likelihoods[..., :2], rule.likelihoods[..., 2:]):
            geometric = np.full(spread.shape, math.inf)
            drift = 0.0
            for d, s in enumerate(steps):
                p = given[..., d]
                seen = p != 0.0
                geometric = np.where(seen & np.isinf(s), np.minimum(geometric, 1.0 / p), geometric)
                drift = drift + np.where(seen & finite[d], p * s, 0.0)
            wald = np.where(drift != 0.0, (2.0 * l_bound + spread) / np.abs(drift), math.inf)
            tails.append(np.minimum(wald, geometric))
    return np.maximum(*tails)


@dataclass(frozen=True)
class AngleBatch:
    """What the angles of one fixed_angle_costs call gave.

    outcomes[i] is the CostResult of the i-th angle, or the NonConvergenceError
    or CostCapExceeded it ended with.  depth_iterations counts the steps of
    the depth loop, each of which advances every running angle by one copy,
    so it is the depth the loop reached, and blocks the blocks of steps it
    ran; angle_steps sums, over the angles, the depths each one was
    advanced.  row_copies sums, over the copies made, the rows each one
    advanced; a row that ends rides its block to the end, so it is at least
    angle_steps.
    """

    outcomes: list
    depth_iterations: int
    angle_steps: int
    blocks: int
    row_copies: int


def fixed_angle_cost(
    problem: DiscriminationProblem,
    phi: float,
    eps: float,
    opts: EngineOptions | None = None,
    cost_cap: float | None = None,
) -> CostResult:
    """Expected copies until the posterior error reaches eps, at a fixed angle.

    Marginalized over the true state with the problem's priors.  Stopping is
    checked after every copy; a terminated prefix is never extended.  The
    returned enclosure is [expected_copies, expected_copies + bound_width].

    cost_cap, if given, raises CostCapExceeded as soon as a lower bound on
    every result the angle can still end with exceeds it; a cap at or above
    the angle's own cost never does.  An angle at which no outcome string can
    stop within opts.max_copies copies raises NonConvergenceError before the
    first copy.  This is a batch of one angle of fixed_angle_costs.
    """
    outcome = fixed_angle_costs(problem, [phi], eps, opts, cost_cap=cost_cap).outcomes[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _layout(lo_run: np.ndarray, hi_run: np.ndarray):
    """The longest block whose arrays fit in 2 * _BLOCK_CELLS, with its slots and copy patterns.

    lo_run and hi_run (copies + 1, rows) hold each row's run before the block
    and after each of its copies; a run that empties stays empty, as hi = lo - 1.
    Row k holds m1 after copy j at column origin[k] + m1 - shift[j, k].  The
    shift follows the run's lower end up, by at most one state per copy, so
    a slot grows only as far as its run widens, whatever the run's drift.
    Each slot spans the columns m1 - shift of every state its row reaches
    in the block, and one cell on each side that nothing reaches.

    Copy j's coefficients depend only on each row's rise in shift at j and on
    its run after copy j - 1, which the copy is cut to.  pattern[j - 1]
    numbers the distinct ones in the order of first use; up[p] and source[p]
    are the rises and the copy cut to at pattern p's first use.  once tells
    that every copy has a pattern of its own.

    Returns (block, shift, low, width, (pattern, up, source, once)): shift
    for copies 0..block, and per row the lowest column offset m1 - shift of
    a state it reaches and its slot's width.
    """
    copies = len(lo_run) - 1
    steps = np.arange(copies + 1)[:, None]
    shift = np.minimum.accumulate(lo_run - lo_run[0] - steps, axis=0)
    shift += steps
    up = np.diff(shift, axis=0)
    lo, hi = lo_run[:-1] - shift[:-1], hi_run[:-1] - shift[:-1]
    empty = lo > hi
    # the lowest and highest offsets reached within each number of copies;
    # the first copy starts from a run
    low = np.minimum.accumulate(np.where(empty, lo[0], lo - up), axis=0)
    high = np.maximum.accumulate(np.where(empty, hi[0], hi + 1 - up), axis=0)
    cells = (high - low + 3).sum(axis=1)
    b = np.arange(1, copies + 1)
    key = np.stack((up, lo, hi), axis=-1)
    key[empty] = (0, 0, -1)  # nothing passes a copy cut to an empty run
    pattern, first = _patterns(key.reshape(copies, -1))
    # if no copy repeats a pattern, none is kept: each is dropped once used
    once = len(first) == copies
    held = 0 if once else np.searchsorted(first, b)  # patterns of the first b copies
    peak = (2 * (b + 1) + 6 + np.maximum(6 * held, 2 * b)) * cells
    block = max(1, int(np.count_nonzero(peak <= 2 * _BLOCK_CELLS)))
    first = first[:np.searchsorted(first, block)]
    return (block, shift[:block + 1], low[block - 1], high[block - 1] - low[block - 1] + 3,
            (pattern[:block], up[first], first, once))


def _patterns(key: np.ndarray):
    """The distinct rows of key (copies, n), numbered in the order of first use.

    Returns each row's number and, per number, the index of its first row.
    Each row is sorted as one opaque value, far faster than comparing rows.
    """
    rows = key.view(np.dtype((np.void, key.shape[1] * key.itemsize))).ravel()
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    first = order[starts]
    by_use = np.argsort(first)
    number = np.empty_like(by_use)
    number[by_use] = np.arange(len(by_use))
    pattern = np.empty_like(order)
    pattern[order] = number[np.cumsum(starts) - 1]
    return pattern, first[by_use]


def _coefficients(move: np.ndarray, stay: np.ndarray, up: np.ndarray, inside: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The coefficients (3, 2 * cells) of one copy pattern's neighbour products.

    move and stay (2, cells) hold each cell's one-copy law under either
    hypothesis; up marks the cells whose row shifts up at the copy, and
    inside (cells + 2, a cell more at each end) the cells of the runs the
    copy is cut to.  A cell takes m1 - 1 and m1 from its left neighbour and
    itself, or, when its row shifts up, from itself and its right neighbour;
    the third coefficient, and that of any cut cell, is 0.  out, if given,
    receives them.
    """
    coefs = np.empty((3,) + move.shape) if out is None else out.reshape((3,) + move.shape)
    np.multiply(move, inside[:-2] & ~up, out=coefs[0])
    np.multiply(np.where(up, move, stay), inside[1:-1], out=coefs[1])
    np.multiply(stay, inside[2:] & up, out=coefs[2])
    return coefs.reshape(3, -1)


def _advance(frontier: np.ndarray, coefficients, pattern: np.ndarray, once: bool,
             tolerance: float) -> np.ndarray:
    """The mass (copies + 1, 2, cells) before and after each of len(pattern) copies, uncut.

    frontier (2, cells) holds the rows' slots side by side.  Copy j + 1 is
    one np.multiply of the (left, same, right)-neighbour view of copy j by
    the coefficients of its pattern, coefficients(pattern[j]), which hold the
    one-copy law, the shifts and the cut of copy j, then one np.add.reduce
    of the three products in that order.  A pattern's coefficients are made
    at its first use and kept for later ones; if `once`, each copy's are made
    into the products' array, which the multiply then overwrites.  Every slot
    keeps one cell at each end that no run covers, so no mass crosses into
    the next slot.  The copies stop early, every 8th one, once all rows
    together hold at most tolerance; a copy only moves the mass of the
    states that continued after the copy before it.
    """
    copies, size = len(pattern), frontier.size
    # the history, with a zero before it for the first cell's left neighbour
    buffer = np.zeros((copies + 1) * size + 2)
    history = buffer[1:-1].reshape(copies + 1, size)
    history[0] = frontier.ravel()
    stride = buffer.strides[0]
    sources = np.lib.stride_tricks.as_strided(buffer, (copies, 3, size),
                                              (size * stride, stride, stride), writeable=False)
    made = [None] * copies
    pattern = pattern.tolist()
    products = np.empty((3, size))
    multiply, add = np.multiply, np.add.reduce
    for j in range(0, copies, 8):
        for p, source, new in zip(pattern[j:j + 8], sources[j:j + 8], history[j + 1:j + 9]):
            if once:
                coefs = coefficients(p, products)
            elif (coefs := made[p]) is None:
                coefs = made[p] = coefficients(p)
            multiply(source, coefs, out=products)
            add(products, axis=0, out=new)
        if new.sum() <= tolerance:
            copies = min(copies, j + 8)
            break
    return history[:copies + 1].reshape(copies + 1, 2, -1)


def _inside(lo: np.ndarray, hi: np.ndarray, origin: np.ndarray, cells: int) -> np.ndarray:
    """Whether each cell holds a state of its row's run [lo, hi], at each depth.

    Row k holds m1 at depth j at column origin[j, k] + m1; the runs of
    different rows lie in disjoint slots, each after a leading cell that no
    run covers.  The result has a cell more, outside every run, at each end.
    """
    edges = np.zeros((len(lo), cells + 2), dtype=np.int8)
    depth, row = np.nonzero(lo <= hi)
    at = origin[depth, row] + 1
    edges[depth, at + lo[depth, row]] = 1
    edges[depth, at + hi[depth, row] + 1] = -1
    return np.cumsum(edges, axis=1, dtype=np.int8).view(bool)


def _run_sums(values: np.ndarray, cells: int, lo: np.ndarray, hi: np.ndarray,
              origin: np.ndarray) -> np.ndarray:
    """np.sum of each row's run [lo, hi] at each depth (0 for an empty run).

    values holds depth after depth of `cells` cells, m1 of row k at depth j
    at column origin[j, k] + m1, with a zero in the cell before each run, and
    one more cell at the end.  np.add.reduceat adds the first cell of a
    segment to np.sum of the rest, so a segment that starts at that zero sums
    the run exactly as np.sum of the run alone does.
    """
    depths = len(lo)
    first = (np.arange(depths) * cells)[:, None] + origin
    bounds = np.stack((first + lo - 1, first + hi + 1), axis=-1)
    np.clip(bounds, 0, depths * cells, out=bounds)
    sums = np.add.reduceat(values, bounds.ravel())[::2].reshape(lo.shape)
    sums[lo > hi] = 0.0
    return sums


def _stopped_mass(weight: np.ndarray, stopped: np.ndarray, lo_run: np.ndarray, hi_run: np.ndarray,
                  origin: np.ndarray) -> np.ndarray:
    """The mass that stops at each depth of a block, per row.

    stopped holds each row's stopped states at each depth summed in any order;
    weight (depths, cells) holds m1 of row k at depth j at column
    origin[j, k] + m1.  The mass is np.sum of the stopped states of the row's
    window (its last run plus one state), in window order.  Any order sums up
    to two of them exactly, so only rows with more are summed again from
    their window, up to their first empty run.
    """
    run_len = hi_run - lo_run + 1
    empty = run_len[1:] <= 0
    n_stopped = run_len[:-1] + 1 - np.maximum(run_len[1:], 0)
    before_empty = empty.cumsum(axis=0) - empty == 0
    for j, k in zip(*np.nonzero(before_empty & (n_stopped > 2))):
        at = origin[j, k]
        window = weight[j, at + lo_run[j, k]:at + hi_run[j, k] + 2]
        i0, i1 = lo_run[j + 1, k] - lo_run[j, k], hi_run[j + 1, k] + 1 - lo_run[j, k]
        stopped[j, k] = (window if empty[j, k] else np.concatenate((window[:i0], window[i1:]))).sum()
    return stopped


def _ceilings(cost_n: np.ndarray, front: np.ndarray, ns: np.ndarray, leaked: np.ndarray,
              tail: np.ndarray, drained: np.ndarray, opts: EngineOptions) -> np.ndarray:
    """The lowest proven upper bound on a cost that some row ends with, at each depth of a block.

    cost_n, front and drained (depths, rows) are each row's cost so far, its
    frontier mass and whether it drained, at the depths ns (depths, 1); leaked
    and tail (rows) are its leaked mass and _tail bound.  A row that drained
    ends with the cost cost_n.  A running row whose frontier surely drains
    within the copy budget ends with a cost of at most
    cost_n + front * (n + tail): each unit of frontier mass stops after at
    most tail more copies on average, and mass that never stops adds nothing.
    From any state that continues at most tail copies remain on average, so
    by Markov's inequality at most half the frontier mass continues
    ceil(2 * tail) copies later.  The frontier is surely drained, with a
    factor of two to spare for rounding and trims, once it has halved
    h + 1 times, h = ceil(log2(front / (mass_tolerance - leaked))), so the
    row counts only if n + (h + 1) * ceil(2 * tail) <= max_copies.  The
    bound of a row that does not count is inf.
    """
    room = np.where(opts.mass_tolerance > leaked, opts.mass_tolerance - leaked, np.nan)
    span = np.where(np.isfinite(tail), np.ceil(2.0 * tail), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        needed = np.log2(front / room)  # -inf for an empty frontier, nan where nothing can drain
        np.ceil(needed, out=needed)
        needed += 1.0
        needed *= span
        needed += ns
        upper = front * (ns + tail)
    upper += cost_n
    upper[~(needed <= opts.max_copies)] = math.inf
    np.copyto(upper, cost_n, where=drained)
    return upper.min(axis=1)


def fixed_angle_costs(
    problem: DiscriminationProblem,
    phis,
    eps: float,
    opts: EngineOptions | None = None,
    cost_cap: float | None = None,
) -> AngleBatch:
    """fixed_angle_cost at each of the angles phis, advanced together through one depth loop.

    Each angle that ends with a result gets the result that fixed_angle_cost
    gives it alone; without cost_cap so does each error.  With cost_cap an
    angle ends as CostCapExceeded at the first depth n where

        cost_n + (n + 1) * front - max((n + 1) * mass_tolerance, bound_width_limit)

    exceeds the cap at depth n.  cost_n is the cost of the mass stopped by
    depth n and front the frontier mass.  The bound lies below every result
    the angle can still end with.  That result's residual R (frontier and
    leaked mass at its last depth n_end >= n) adds nothing to its cost, and
    the rest of the frontier stops at depths >= n + 1, so the cost is at
    least cost_n + (n + 1) * (front - R).  An accepted R is at most
    mass_tolerance, or R * (n_end + tail) <= bound_width_limit with the
    _tail bound of at least one copy, so (n + 1) * R is at most the
    subtracted term.

    The cap at depth n is the lowest of cost_cap and, at every depth up to
    n, the cost of each angle that drained there and the upper bound
    cost_n + front * (n + tail) of each angle that surely drains within the
    copy budget (_ceilings).  Each of these is at least the cost that some
    angle ends with when it runs alone, so the cap never falls below the
    lowest such cost.  An angle at the lowest cost, or at a cost equal to
    cost_cap, is therefore never dropped.  The cap depends on the depth
    alone, not on how the depths fall into blocks.  Invalid inputs raise
    ValueError before any angle is run.

    All of the above holds exactly for a batch in which no trim cuts a
    window.  At the last depth of each block, the states at either end of a running
    angle's run that each hold at most _WINDOW_CUT = 1e-40 of its frontier
    mass go from its frontier into its leaked mass, so a trim moves at most
    (run length) * 1e-40 of that frontier.  Where the blocks end depends on
    the batch, so an angle that trims may do so at other depths than when it
    runs alone, and its cost and residual may then differ by that mass.
    Trimmed mass adds nothing to the cost and counts in the residual either
    way, so every enclosure stays rigorous.
    """
    opts = opts or EngineOptions()
    phis = list(phis)
    rule = StoppingRule(problem, phis, eps)
    if not phis:
        return AngleBatch([], 0, 0, 0, 0)

    outcomes: list = [None] * len(phis)
    tails = _tail(rule, eps)
    # if nothing can stop, the loop would end with the whole unit mass as
    # residual, so whether it would raise is already known
    for i in np.nonzero(~rule.can_stop_within(opts.max_copies))[0]:
        if opts.max_copies + tails[i] > opts.bound_width_limit:
            outcomes[i] = NonConvergenceError(
                f"no outcome string can stop within {opts.max_copies} copies at phi={phis[i]}"
            )
    q1, q2 = problem.q1, problem.q2
    # P(outcome 1 | psi_j): one copy moves mass from m1 to m1 + 1 with it
    move = rule.likelihoods[:, ::2].T
    stay = 1.0 - move
    capped = cost_cap is not None
    cap = cost_cap if capped else math.inf

    def finish(i: int, n: int, cost: float, mass: np.ndarray, leaked: float) -> None:
        residual = float(q1 * mass[0].sum() + q2 * mass[1].sum()) + leaked
        if residual == 0.0:
            outcomes[i] = CostResult(expected_copies=cost, exact=True)
            return
        bound_width = residual * (n + float(tails[i]))
        if residual > opts.mass_tolerance and bound_width > opts.bound_width_limit:
            outcomes[i] = NonConvergenceError(
                f"residual mass {residual:.3e} after {n} copies at phi={phis[i]}; "
                f"enclosure width {bound_width:.3e} exceeds {opts.bound_width_limit:.3e}"
            )
        else:
            outcomes[i] = CostResult(expected_copies=cost, exact=False,
                                     residual_mass=residual, bound_width=bound_width)

    # Per row (angle) running, all at the depth n: the run [lo, hi] of m1 that
    # its frontier holds, whose masses lie in `mass` (one plane per hypothesis,
    # the rows' runs one after another), its cost so far and its leaked mass.
    # Every row starts with a unit mass at m1 = 0.
    rows = np.array([i for i, outcome in enumerate(outcomes) if outcome is None], dtype=np.int64)
    lo, hi = np.zeros((2, len(rows)), dtype=np.int64)
    mass = np.ones((2, len(rows)))
    cost, leaked = np.zeros((2, len(rows)))
    n = 0
    block = _FIRST_BLOCK
    depth_iterations = angle_steps = row_copies = blocks = 0
    while len(rows):
        count = len(rows)
        run_len = hi - lo + 1
        # a slot holds at least its run and two cells more, so _layout can
        # keep no more copies than this
        block = max(1, min(block, opts.max_copies - n,
                           _BLOCK_CELLS // (2 * (mass.shape[1] + 2 * count))))
        depths = np.arange(n, n + block + 1)[:, None]
        run_lo, run_hi = rule.runs(depths[1:, 0], rows)
        # the run at each depth within its window (the last run plus one
        # state), empty from its first empty one on; row 0 holds the runs at depth n
        lo_run = np.maximum.accumulate(np.concatenate((lo[None], run_lo)), axis=0)
        hi_run = np.minimum.accumulate(np.concatenate((hi[None], run_hi)) - depths, axis=0) + depths
        emptied = ~np.logical_and.accumulate(lo_run <= hi_run, axis=0)
        hi_run[emptied] = lo_run[emptied] - 1
        candidate = block
        block, shift, low, width, (pattern, up, source, once) = _layout(lo_run, hi_run)
        slot = np.cumsum(width) - width
        # m1 of row k after copy j lies at column origin[j, k] + m1
        origin = slot + 1 - low - shift
        cells = int(width.sum())
        lo_run, hi_run = lo_run[:block + 1], hi_run[:block + 1]
        inside = _inside(lo_run, hi_run, origin, cells)
        frontier = np.zeros((2, cells))
        frontier[:, np.repeat(origin[0] + lo - (np.cumsum(run_len) - run_len), run_len)
                 + np.arange(mass.shape[1])] = mass
        law = move[:, rows].repeat(width, axis=1), stay[:, rows].repeat(width, axis=1)
        rises = up.astype(bool).repeat(width, axis=1)

        def coefficients(p: int, out: np.ndarray | None = None) -> np.ndarray:
            return _coefficients(*law, rises[p], inside[source[p]], out)

        # past a block cut to fit, the next one grows more slowly
        grown = min(_MAX_BLOCK, 2 * block if block == candidate else block + 1)
        # the rows have all drained once the mass that continues, weighted by
        # the priors, is at most mass_tolerance less any row's leaked mass; a
        # copy's mass, unweighted, is what continued after the copy before
        new = _advance(frontier, coefficients, pattern, once,
                       (opts.mass_tolerance - leaked.max()) / max(q1, q2))[1:]
        block = len(new)  # fewer once every row drained: the rest of the block is not needed
        ns, inside, origin = depths[1:block + 1], inside[1:block + 1, 1:-1], origin[1:block + 1]
        lo_run, hi_run = lo_run[:block + 1], hi_run[:block + 1]
        depth_iterations += block
        blocks += 1

        # the states that continue; one more cell keeps the run sums' end in range
        cells_buffer = np.zeros(block * cells + 1)
        live = cells_buffer[:-1].reshape(block, cells)
        weight = new[:, 0] * q1
        weight += np.multiply(new[:, 1], q2, out=live)
        np.multiply(weight, inside, out=live)
        front = _run_sums(cells_buffer, cells, lo_run[1:], hi_run[1:], origin)
        stopped_cells = np.subtract(weight, live, out=live)
        slot_sums = np.add.reduceat(stopped_cells, slot, axis=1)
        stopped = _stopped_mass(weight, slot_sums, lo_run, hi_run, origin)
        cost_n = np.concatenate((cost[None], ns * stopped)).cumsum(axis=0)[1:]
        drained = front + leaked <= opts.mass_tolerance
        # a lower bound on the cost of any result the row can still end with
        bound = cost_n + front * (ns + 1) - np.maximum((ns + 1) * opts.mass_tolerance,
                                                       opts.bound_width_limit)
        caps = np.full(block, cap)
        if capped:
            ceilings = _ceilings(cost_n, front, ns, leaked, tails[rows], drained, opts)
            np.minimum.accumulate(np.minimum(ceilings, cap, out=ceilings), out=caps)
        over = bound > caps[:, None]
        event = drained | over | (lo_run[1:] > hi_run[1:])
        first = event.argmax(axis=0)
        at_first = first, np.arange(count)
        done = event[at_first]
        over_at = over[at_first] & ~drained[at_first]

        # the rows the cap drops end in one pass over plain Python columns;
        # the rows dropped at one depth share their message up to the angle
        dropped = np.flatnonzero(done & over_at)
        at_depth = first[dropped]
        # the depths some row is dropped at (np.unique's sort added 0.1 MiB of peak RSS)
        js = np.flatnonzero(np.bincount(at_depth))
        heads = {j: f"cost lower bound exceeds cap {c} at depth {n + j + 1} for phi="
                 for j, c in zip(js.tolist(), caps[js].tolist())}
        for i, j in zip(rows[dropped].tolist(), at_depth.tolist()):
            outcomes[i] = CostCapExceeded(f"{heads[j]}{phis[i]}")

        going = ~done
        first[going] = block - 1  # the last depth of the block each row reached
        angle_steps += int(first.sum()) + count
        row_copies += count * block
        lo, hi, at = lo_run[-1], hi_run[-1], origin[-1]
        # the window trim: the states at either end of a running row's run
        # that carry at most _WINDOW_CUT of its frontier go into its leaked
        # mass, all of them if all do
        cut = front[-1] * _WINDOW_CUT
        ks = np.flatnonzero(going)
        for k in ks[(weight[-1, at[ks] + lo[ks]] <= cut[ks]) | (weight[-1, at[ks] + hi[ks]] <= cut[ks])]:
            live_row = weight[-1, at[k] + lo[k]:at[k] + hi[k] + 1]
            kept = np.flatnonzero(live_row > cut[k])
            k0, k1 = (kept[0], kept[-1] + 1) if len(kept) else (0, 0)
            leaked[k] += float(live_row[:k0].sum() + live_row[k1:].sum())
            lo[k] += k0
            hi[k] -= len(live_row) - k1
        # the rows that drained, whose run emptied or that reached the copy budget
        ends = done & ~over_at | going & ((lo > hi) | (n + block == opts.max_copies))
        for k in np.flatnonzero(ends):
            j = int(first[k])
            run = slice(origin[j, k] + lo_run[j + 1, k], origin[j, k] + hi_run[j + 1, k] + 1)
            finish(rows[k], n + j + 1, float(cost_n[j, k]), new[j, :, run], float(leaked[k]))
        going &= ~ends
        n += block
        cap = float(caps[-1])
        rows, lo, hi, at = rows[going], lo[going], hi[going], at[going]
        run_len = hi - lo + 1
        mass = new[-1][:, np.repeat(at + lo - (np.cumsum(run_len) - run_len), run_len)
                       + np.arange(run_len.sum())]
        cost, leaked = cost_n[-1, going], leaked[going]
        block = grown
        # the block's arrays go before the next block's are made
        del new, weight, inside, cells_buffer, live, stopped_cells
    return AngleBatch(outcomes, depth_iterations, angle_steps, blocks, row_copies)


def brute_force_cost(
    problem: DiscriminationProblem,
    phi: float,
    eps: float,
    max_depth: int,
) -> CostResult:
    """Exhaustive outcome-tree enumeration with prefix termination (the oracle).

    Walks every outcome string depth-first, terminating each branch the first
    time the posterior error reaches eps.  Exponential in max_depth; intended
    for validation only (max_depth <= 30).
    """
    rule = StoppingRule(problem, phi, eps)
    if max_depth < 1 or max_depth > _BRUTE_FORCE_DEPTH_LIMIT:
        raise ValueError(f"max_depth must lie in [1, {_BRUTE_FORCE_DEPTH_LIMIT}], got {max_depth}")
    p11, p21, p12, p22 = rule.likelihoods.tolist()
    q1, q2 = problem.q1, problem.q2

    cost_accum = 0.0
    residual = 0.0
    # stack of (m1, m2, path prob | psi1, path prob | psi2)
    stack = [(0, 0, 1.0, 1.0)]
    while stack:
        m1, m2, pg1, pg2 = stack.pop()
        n = m1 + m2
        for k1, k2, p1, p2 in ((m1 + 1, m2, p11, p12), (m1, m2 + 1, p21, p22)):
            c1 = pg1 * p1
            c2 = pg2 * p2
            if c1 == 0.0 and c2 == 0.0:
                continue
            weight = q1 * c1 + q2 * c2
            if rule.stops(k1, k2):
                cost_accum += (n + 1) * weight
            elif n + 1 >= max_depth:
                residual += weight
            else:
                stack.append((k1, k2, c1, c2))
    if residual == 0.0:
        return CostResult(expected_copies=cost_accum, exact=True)
    return CostResult(
        expected_copies=cost_accum,
        exact=False,
        residual_mass=residual,
        bound_width=residual * (max_depth + float(_tail(rule, eps))),
    )
