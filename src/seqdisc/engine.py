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

Angles are evaluated in batches that advance through one depth loop together:
one copy is a shift-and-scale of every angle's frontier, held side by side in
one flat array, each in a slot as long as its run plus the block's growth.
The loop runs in blocks of depths.  A block computes the continuation runs of
all its depths and angles first, then advances the frontiers (the only step
that must go depth by depth), then reads off the stopped mass, the cost and the
stop, cap and trim tests for all its depths at once.  An angle leaves the
batch at the first depth where it drains, exceeds its cap or fails; a window
trim ends the block at its depth.

A brute-force outcome-tree enumeration serves as the independent correctness
oracle at validation scale: it walks every outcome string instead of the count
lattice, and stops each one through the same StoppingRule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DiscriminationProblem, MeasurementConfig
from .posterior import StoppingRule, log_likelihood_steps
from .strategies import CostResult

__all__ = [
    "EngineOptions",
    "NonConvergenceError",
    "CostCapExceeded",
    "AngleBatch",
    "fixed_angle_cost",
    "fixed_angle_costs",
    "brute_force_cost",
    "worst_case_tail",
]

_BRUTE_FORCE_DEPTH_LIMIT = 30
# frontier states carrying less than this fraction of the live mass are dropped
# (tracked as leaked mass, so conservation accounting stays honest)
_WINDOW_CUT = 1e-40
# depths per block: the first block is short so that cheap calls stay cheap,
# later ones double up to _MAX_BLOCK; a block is halved while the frontier
# history it would hold (depths x hypotheses x cells) exceeds _BLOCK_CELLS,
# which bounds the block's arrays to about 20 bytes per cell (640 KiB)
_FIRST_BLOCK = 32
_MAX_BLOCK = 64
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
        if self.max_copies < 1:
            raise ValueError(f"max_copies must be >= 1, got {self.max_copies}")
        if not 0.0 < self.mass_tolerance < 1.0:
            raise ValueError(f"mass_tolerance must lie in (0, 1), got {self.mass_tolerance}")
        if not self.bound_width_limit >= 0.0:  # nan fails too; inf accepts any width
            raise ValueError(f"bound_width_limit must be >= 0, got {self.bound_width_limit}")


def worst_case_tail(problem: DiscriminationProblem, phi: float, eps: float) -> float:
    """Conservative bound on the expected copies still needed from any unterminated state.

    Uses Wald's identity on the log-odds walk: the continuation region has
    half-width ln(1/eps - 1), and the walk drifts toward the confirming
    boundary under either hypothesis.  An infinite step (zero likelihood for
    one outcome) absorbs geometrically at the rate of that outcome.  Both
    terms are at least one copy.  Returns inf when the measurement carries no
    information (phi = 0 limit).
    """
    config = MeasurementConfig.for_problem(problem, phi)
    steps = log_likelihood_steps(problem, phi)
    l_bound = math.log(1.0 / eps - 1.0)
    finite = [abs(s) for s in (steps.step1, steps.step2) if math.isfinite(s)]
    spread = sum(finite)
    tails = []
    for likelihoods in ((config.p1_given_psi1, config.p2_given_psi1),
                        (config.p1_given_psi2, config.p2_given_psi2)):
        geometric = math.inf
        drift = 0.0
        for p, s in zip(likelihoods, (steps.step1, steps.step2)):
            if p == 0.0:
                continue
            if math.isinf(s):
                geometric = min(geometric, 1.0 / p)
            else:
                drift += p * s
        wald = (2.0 * l_bound + spread) / abs(drift) if drift != 0.0 else math.inf
        tails.append(min(wald, geometric))
    return max(tails)


@dataclass(frozen=True)
class AngleBatch:
    """What the angles of one fixed_angle_costs call gave.

    outcomes[i] is the CostResult of the i-th angle, or the NonConvergenceError
    or CostCapExceeded it ended with.  depth_iterations counts the steps of
    the depth loop, each of which advances every running angle by one copy
    (steps past a window trim are run again); angle_steps sums, over the
    angles, the depths each one was advanced.
    """

    outcomes: list
    depth_iterations: int
    angle_steps: int


def fixed_angle_cost(
    problem: DiscriminationProblem,
    phi: float,
    eps: float,
    opts: EngineOptions | None = None,
    on_depth=None,
    cost_cap: float | None = None,
) -> CostResult:
    """Expected copies until the posterior error reaches eps, at a fixed angle.

    Marginalized over the true state with the problem's priors.  Stopping is
    checked after every copy; a terminated prefix is never extended.  The
    returned enclosure is [expected_copies, expected_copies + bound_width].

    on_depth, if given, is called as on_depth(n, terminated_mass, frontier_mass)
    after each depth (test instrumentation).  cost_cap, if given, raises
    CostCapExceeded as soon as a lower bound on every result the angle can
    still end with exceeds it (the angle optimizer uses this to abandon
    hopeless angles); a cap at or above the angle's own cost never does.  An
    angle at which no outcome string can stop within opts.max_copies copies
    raises NonConvergenceError before the first copy.  This is a batch of one
    angle of fixed_angle_costs.
    """
    outcome = fixed_angle_costs(problem, [phi], eps, opts, cost_cap=cost_cap,
                                on_depth=on_depth).outcomes[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _advance(frontier: np.ndarray, stay: np.ndarray, move: np.ndarray, inside: np.ndarray,
             tolerance: float) -> np.ndarray:
    """The mass (copies, 2, cells) after each of len(inside) copies, before it is cut to its runs.

    frontier (2, cells) holds the rows' slots side by side; stay and move give
    the one-copy law of each cell's row, and inside[j] marks the cells that
    continue after copy j + 1.  No run reaches the last column of its slot, so
    no mass crosses into the next slot.  The copies stop early, every 8th one,
    once all rows together hold at most tolerance.
    """
    block, cells = inside.shape
    flat = frontier.ravel()
    stay = stay.ravel()
    move = move.ravel()[1:]
    new = np.empty((block, 2, cells))
    moved = np.empty(flat.size - 1)
    for j, (new_j, inside_j) in enumerate(zip(new, inside)):
        # the convolution with the one-copy law, rounded as np.correlate does
        new_flat = new_j.ravel()
        np.multiply(flat, stay, out=new_flat)
        np.multiply(flat[:-1], move, out=moved)
        np.add(new_flat[1:], moved, out=new_flat[1:])
        np.multiply(new_j, inside_j, out=frontier)
        if j % 8 == 7 and flat.sum() <= tolerance:
            block = j + 1
            break
    return new[:block]


def _inside(lo: np.ndarray, hi: np.ndarray, origin: np.ndarray, cells: int) -> np.ndarray:
    """Whether each cell holds a state of its row's run [lo, hi], at each depth.

    Row k holds m1 at column origin[k] + m1; the runs of different rows lie in
    disjoint slots, each after a leading cell that no run covers.
    """
    edges = np.zeros((len(lo), cells + 1), dtype=np.int8)
    depth, row = np.nonzero(lo <= hi)
    edges[depth, origin[row] + lo[depth, row]] = 1
    edges[depth, origin[row] + hi[depth, row] + 1] = -1
    return np.cumsum(edges, axis=1, dtype=np.int8)[:, :-1].view(bool)


def _run_sums(values: np.ndarray, cells: int, lo: np.ndarray, hi: np.ndarray,
              origin: np.ndarray) -> np.ndarray:
    """np.sum of each row's run [lo, hi] at each depth (0 for an empty run).

    values holds depth after depth of `cells` cells, m1 of row k at column
    origin[k] + m1, with a zero in the cell before each run, and one more cell
    at the end.  np.add.reduceat adds the first cell of a segment to np.sum of
    the rest, so a segment that starts at that zero sums the run exactly as
    np.sum of the run alone does.
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
    weight (depths, cells) holds m1 of row k at column origin[k] + m1.  The
    mass is np.sum of the stopped states of the row's window (its last run
    plus one state), in window order.  Any order sums up to two of them
    exactly, so only rows with more are summed again from their window, up to
    their first empty run.
    """
    run_len = hi_run - lo_run + 1
    empty = run_len[1:] <= 0
    n_stopped = run_len[:-1] + 1 - np.maximum(run_len[1:], 0)
    before_empty = empty.cumsum(axis=0) - empty == 0
    for j, k in zip(*np.nonzero(before_empty & (n_stopped > 2))):
        window = weight[j, origin[k] + lo_run[j, k]:origin[k] + hi_run[j, k] + 2]
        i0, i1 = lo_run[j + 1, k] - lo_run[j, k], hi_run[j + 1, k] + 1 - lo_run[j, k]
        stopped[j, k] = (window if empty[j, k] else np.concatenate((window[:i0], window[i1:]))).sum()
    return stopped


def fixed_angle_costs(
    problem: DiscriminationProblem,
    phis,
    eps: float,
    opts: EngineOptions | None = None,
    cost_cap: float | None = None,
    on_depth=None,
) -> AngleBatch:
    """fixed_angle_cost at each of the angles phis, advanced together through one depth loop.

    Each angle that ends with a result gets the result that fixed_angle_cost
    gives it alone; without cost_cap so does each error.  With cost_cap an
    angle ends as CostCapExceeded at the first depth n where

        cost_n + (n + 1) * front - max((n + 1) * mass_tolerance, bound_width_limit)

    exceeds the cap: the lowest of cost_cap and the costs of the angles that
    ended in earlier blocks.  cost_n is the cost of the mass stopped by depth
    n and front the frontier mass.  The bound lies below every result the
    angle can still end with.  That result's residual R (frontier and leaked
    mass at its last depth n_end >= n) adds nothing to its cost, and the rest
    of the frontier stops at depths >= n + 1, so the cost is at least
    cost_n + (n + 1) * (front - R).  An accepted R is at most mass_tolerance,
    or R * (n_end + worst_case_tail) <= bound_width_limit with a tail of at
    least one copy, so (n + 1) * R is at most the subtracted term.  An angle
    at the lowest cost, or at a cost equal to the cap, is therefore never
    dropped.  on_depth needs a batch of one angle.  Invalid inputs raise
    ValueError before any angle is run.
    """
    opts = opts or EngineOptions()
    phis = list(phis)
    rule = StoppingRule(problem, phis, eps)
    if on_depth is not None and len(phis) != 1:
        raise ValueError("on_depth needs a batch of one angle")
    if not phis:
        return AngleBatch([], 0, 0)

    configs = [MeasurementConfig.for_problem(problem, phi) for phi in phis]
    outcomes: list = [None] * len(phis)
    # if nothing can stop, the loop would end with the whole unit mass as
    # residual, so whether it would raise is already known
    for i in np.nonzero(~rule.can_stop_within(opts.max_copies))[0]:
        if opts.max_copies + worst_case_tail(problem, phis[i], eps) > opts.bound_width_limit:
            outcomes[i] = NonConvergenceError(
                f"no outcome string can stop within {opts.max_copies} copies at phi={phis[i]}"
            )
    q1, q2 = problem.q1, problem.q2
    # P(outcome 1 | psi_j): one copy moves mass from m1 to m1 + 1 with it
    move = np.array([(c.p1_given_psi1, c.p1_given_psi2) for c in configs]).T
    del configs
    stay = 1.0 - move
    capped = cost_cap is not None
    cap = cost_cap if capped else math.inf

    def finish(i: int, n: int, cost: float, mass: np.ndarray, leaked: float) -> None:
        residual = float(q1 * mass[0].sum() + q2 * mass[1].sum()) + leaked
        if residual == 0.0:
            outcomes[i] = CostResult(expected_copies=cost, exact=True)
            return
        bound_width = residual * (n + worst_case_tail(problem, phis[i], eps))
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
    # the rows' runs one after another), its cost so far, and its terminated
    # and leaked mass.  Every row starts with a unit mass at m1 = 0.
    rows = np.array([i for i, outcome in enumerate(outcomes) if outcome is None], dtype=np.int64)
    lo, hi = np.zeros((2, len(rows)), dtype=np.int64)
    mass = np.ones((2, len(rows)))
    cost, terminated, leaked = np.zeros((3, len(rows)))
    n = 0
    block = _FIRST_BLOCK
    depth_iterations = angle_steps = 0
    while len(rows):
        count = len(rows)
        run_len = hi - lo + 1
        block = min(block, opts.max_copies - n)
        while block > 1 and 2 * block * (mass.shape[1] + count * (block + 2)) > _BLOCK_CELLS:
            block //= 2
        depths = np.arange(n, n + block + 1)[:, None]
        ns = depths[1:]  # the block's depths
        run_lo, run_hi = rule.runs(ns[:, 0], rows)
        # the run at each depth within its window (the last run plus one
        # state); row 0 holds the runs at depth n
        lo_run = np.maximum.accumulate(np.concatenate((lo[None], run_lo)), axis=0)
        hi_run = np.minimum.accumulate(np.concatenate((hi[None], run_hi)) - depths, axis=0) + depths
        # each row gets a slot from a leading zero column to the state past
        # the highest its runs reach; m1 of row k lies at column origin[k] + m1
        width = hi_run.max(axis=0) - lo + 3
        slot = np.cumsum(width) - width
        origin = slot + 1 - lo
        cells = int(width.sum())
        frontier = np.zeros((2, cells))
        frontier[:, np.repeat(origin + lo - (np.cumsum(run_len) - run_len), run_len)
                 + np.arange(mass.shape[1])] = mass
        inside = _inside(lo_run[1:], hi_run[1:], origin, cells)
        new = _advance(frontier, stay[:, rows].repeat(width, axis=1),
                       move[:, rows].repeat(width, axis=1), inside, opts.mass_tolerance)
        if len(new) < block:  # every row drained: the rest of the block is not needed
            block = len(new)
            ns, inside = ns[:block], inside[:block]
            lo_run, hi_run = lo_run[:block + 1], hi_run[:block + 1]
        depth_iterations += block

        weight = new[:, 0] * q1
        weight += new[:, 1] * q2
        # the states that continue; one more cell keeps the run sums' end in range
        cells_buffer = np.zeros(block * cells + 1)
        live = cells_buffer[:-1].reshape(block, cells)
        np.multiply(weight, inside, out=live)
        front = _run_sums(cells_buffer, cells, lo_run[1:], hi_run[1:], origin)
        stopped_cells = np.subtract(weight, live, out=live)
        slot_sums = np.add.reduceat(stopped_cells, slot, axis=1)
        stopped = _stopped_mass(weight, slot_sums, lo_run, hi_run, origin)
        cost_n = np.concatenate((cost[None], ns * stopped)).cumsum(axis=0)[1:]
        terminated_n = np.concatenate((terminated[None], stopped)).cumsum(axis=0)[1:]
        out = front + leaked
        drained = out <= opts.mass_tolerance
        # a lower bound on the cost of any result the row can still end with
        bound = cost_n + front * (ns + 1) - np.maximum((ns + 1) * opts.mass_tolerance,
                                                       opts.bound_width_limit)
        over = bound > cap
        empty = lo_run[1:] > hi_run[1:]
        # a window trim drops the states at either end of the run that carry
        # at most this fraction of the frontier
        cut = front * _WINDOW_CUT
        at_lo = np.where(empty, 0, origin + lo_run[1:])
        at_hi = np.where(empty, 0, origin + hi_run[1:])
        depth_ix, row_ix = np.arange(block)[:, None], np.arange(count)
        thin = ~empty & ((weight[depth_ix, at_lo] <= cut) | (weight[depth_ix, at_hi] <= cut))
        event = drained | over | empty | thin
        first = event.argmax(axis=0)
        at_first = first, row_ix
        hit = event[at_first]
        # a window trim changes the frontier, so the block ends at the first one
        last = int(first[thin[at_first] & ~drained[at_first] & ~over[at_first]].min(initial=block - 1))
        ends = hit & (first <= last)
        if on_depth is not None:
            for j in range((first[0] if ends[0] else last) + 1):
                on_depth(int(ns[j, 0]), float(terminated_n[j, 0]), float(out[j, 0]))

        done = np.zeros(count, dtype=bool)
        for k in np.nonzero(ends)[0]:
            i, j = rows[k], first[k]
            depth = int(ns[j, 0])
            start = origin[k] + lo_run[j + 1, k]
            run = slice(start, max(start, origin[k] + hi_run[j + 1, k] + 1))
            if drained[j, k]:
                finish(i, depth, float(cost_n[j, k]), new[j, :, run], float(leaked[k]))
            elif over[j, k]:
                outcomes[i] = CostCapExceeded(
                    f"cost lower bound exceeds cap {cap} at depth {depth} for phi={phis[i]}"
                )
            else:
                # trim the window to states carrying non-negligible mass
                live_row = weight[j, run]
                kept = np.nonzero(live_row > cut[j, k])[0]
                if len(kept) == 0:
                    finish(i, depth, float(cost_n[j, k]), new[j, :, run][:, :0],
                           float(leaked[k]) + float(front[j, k]))
                else:
                    k0, k1 = int(kept[0]), int(kept[-1]) + 1
                    leaked[k] += float(live_row[:k0].sum() + live_row[k1:].sum())
                    lo_run[j + 1, k] += k0
                    hi_run[j + 1, k] -= len(live_row) - k1
                    continue
            done[k] = True
            angle_steps += j + 1

        going = ~done
        angle_steps += (last + 1) * int(going.sum())
        n += last + 1
        block = min(_MAX_BLOCK, 2 * (last + 1))
        lo, hi = lo_run[last + 1], hi_run[last + 1]
        for k in np.nonzero(going & (n == opts.max_copies))[0]:
            run = slice(origin[k] + lo[k], origin[k] + hi[k] + 1)
            finish(rows[k], n, float(cost_n[last, k]), new[last, :, run], float(leaked[k]))
            going[k] = False
        if capped:  # the bound is sound, so any angle's cost caps every other angle
            cap = min([cap] + [outcomes[i].expected_copies for i in rows[~going]
                               if isinstance(outcomes[i], CostResult)])
        rows, lo, hi, origin = rows[going], lo[going], hi[going], origin[going]
        run_len = hi - lo + 1
        mass = new[last][:, np.repeat(origin + lo - (np.cumsum(run_len) - run_len), run_len)
                         + np.arange(run_len.sum())]
        cost, terminated, leaked = cost_n[last, going], terminated_n[last, going], leaked[going]
    return AngleBatch(outcomes, depth_iterations, angle_steps)


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
    config = MeasurementConfig.for_problem(problem, phi)
    q1, q2 = problem.q1, problem.q2

    cost_accum = 0.0
    residual = 0.0
    # stack of (m1, m2, path prob | psi1, path prob | psi2)
    stack = [(0, 0, 1.0, 1.0)]
    while stack:
        m1, m2, pg1, pg2 = stack.pop()
        n = m1 + m2
        for d in (1, 2):
            c1 = pg1 * config.likelihood(d, 1)
            c2 = pg2 * config.likelihood(d, 2)
            if c1 == 0.0 and c2 == 0.0:
                continue
            k1, k2 = (m1 + 1, m2) if d == 1 else (m1, m2 + 1)
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
        bound_width=residual * (max_depth + worst_case_tail(problem, phi, eps)),
    )
