"""Exact lattice-point enumeration for flow polytopes on D(S).

The feasible profiles of closed words form the integer points of the
system  A(S) u = M b,  u >= 0  (or u > 0 for the interior), where A(S)
is the incidence matrix topped with an all-ones row and M is the number
of grams in a word.  Points are enumerated by a depth-first scan over
the arc coordinates, one level per arc, so they come out in ascending
lexicographic order.  A static level plan, built from the graph, the
mode and the block, classifies the levels: a *forced* level's arc
closes one of its endpoints, so its value follows from the earlier
levels; a *decision* level ranges over an interval; the last decision
is *pinned*, solved from the remaining total.  Intervals come from
remaining-sum bounds, per-node imbalance reachability, and each
endpoint's balance once its in- or out-arcs are exhausted.  An optional
CongruenceBlock (H, p, beta), a Varshamov code among them, restricts
points to a congruence class, which is how code intersections are
counted.  The plan moves the block
to the scan's coordinates and row-reduces the plan's shifted block
onto the decisions, so each *pivot* decision's residue follows from
earlier decisions; a row that reduces to 0 = c with c != 0 empties the
system before the scan starts.  Everything is exact: integers and
Fractions only.

A count by the DFS stops two levels early, at the *outer* level: the
free decision (one that is not pinned) before the last one, the *fold*
level.  Every level after the outer one but the fold level is forced
or pinned, so each of its values, and the rules that make the tail a
point, are affine in the outer value c1 and the fold value c.  For
each c1 in an interval, the c with a point form an interval and one
residue class (from the pinned value's divisibility by its weight),
counted in closed form; so a count skips the points of the two
innermost free dimensions, while an enumeration still visits every
point.  A system with one free decision stops at it, the fold level.
A count with a block folds too, unless the pinned level is a pivot.
When the fold level is a pivot, the count stops there, in one pass: its
values with a point are an interval and the one class that joins the
pivot's residue mod p to the pin's by the Chinese remainder theorem.

Counting has a second engine beside the DFS.  It walks the same plan
up to the outer level, merging partial flows whose states agree (the
DFS's own: the remaining total and every node's missing balance), and
counts each merged state there as the DFS counts a prefix.  Its work
grows with the number of distinct states, the DFS's with the number of
prefixes at the outer level.  _plan picks the engine.

Without a block the plan reads the total only into its remaining
total, and the fold tail reads only the graph's levels, so counts of
one graph at many totals (a fit's samples, in both modes) share one
plan per mode and one tail, and are counted together: the frontier is
seeded with one state per sample, and equal states from different
totals or modes merge, each folded once, with one multiplicity per
sample.

Counts at dilations M = lam * t + r are interpolated into
exact-rational polynomials in t, recovering leading coefficients of
the underlying quasipolynomials, with a held-out count verifying every
fit.  The fit reads Ehrhart theory to keep its samples at the smallest
dilations.  When every arc lies on a cycle, the relative interior of
the flow polytope P (dimension D) is {u > 0}, so mode E counts the
interior of M*P; then i(P, 0) = 1 and Ehrhart-Macdonald reciprocity,
L_{P interior}(M) = (-1)^D L_P(-M), give the polynomial at t <= 0 as
(-1)^D times the other mode's count at the total -M.  Otherwise the fit
samples t = 1, 2, ... in its own mode.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm

from .aecc import CongruenceBlock
from .grams import GramSet
from .graphs import (
    DeBruijnGraph,
    SearchBudgetExceeded,
    build_graph,
    flow_dimension,
    net_outflow,
    simple_cycle_lengths,
)

BRUTE_FORCE_GUARD = 10**8


class GuardExceeded(RuntimeError):
    """A brute-force enumeration would exceed its step guard."""


@dataclass(frozen=True)
class FlowSystem:
    """Flow-conservation system for one graph: A(S) u = M b with a sign mode.

    mode "F" asks for u >= 0, mode "E" for u >= 1 (handled internally by
    the substitution u = 1 + u').  m_total is the required entry sum M.
    """

    graph: DeBruijnGraph
    m_total: int
    mode: str = "F"
    congruence: CongruenceBlock | None = None

    def __post_init__(self):
        if self.mode not in ("F", "E"):
            raise ValueError(f"mode must be 'F' or 'E', got {self.mode!r}")
        if self.m_total < 0:
            raise ValueError("entry sum must be nonnegative")
        if self.congruence is not None and self.congruence.length != self.graph.n_arcs:
            raise ValueError("congruence rows must have one entry per arc")


def flow_system_for_words(graph, n, mode="F", congruence=None) -> FlowSystem:
    """System whose points are profiles of closed words of length n."""
    return FlowSystem(graph, n - graph.gram_set.ell + 1, mode, congruence)


# The presolved system that _plan hands to both engines; _plan names the fields.
_Plan = namedtuple(
    "_Plan",
    "levels total targets pinned pin_weight pin_terms pin_const shift block pivots narrow tie "
    "outer fold",
)


def _add(form, other, f):
    """Add f times the affine form other to form, in place, and return form.

    An affine form is {key: coefficient}; _plan, _fold_tail and
    _block_pivots each say what their keys stand for.
    """
    for key, k in other.items():
        form[key] = form.get(key, 0) + f * k
    return form


def _plan(system: FlowSystem) -> _Plan:
    """Presolve the system in one pass over the arc order.

    Only here, and in FlowSystem's checks, are its mode and block read.
    Mode E substitutes u = 1 + u', which lowers the total by |S|, gives
    every node a target imbalance and moves each block residue by its
    row sum.  Level i assigns arc i = (a, b).  After it, a side of a
    node is *done* when no later non-loop arc enters it (in) or leaves
    it (out); the DFS then bounds the value by that node's missing
    balance.  A non-loop arc that closes one of its endpoints on both
    sides is *forced*: its value is an integer affine form in the
    values of the decision levels.  Every other arc, loops included, is
    a *decision*, with the form {i: 1}.  So the sum over the levels
    from the last decision on is affine in the decisions; solved
    against the remaining total it fixes that last decision, the
    *pinned* level, which removes one search dimension.  No level is
    pinned when there are no decisions or the last one has zero net
    weight.  The plan's shifted block is row-reduced by _block_pivots.

    The same pass picks the counting engine.  A node is *open* once a
    non-loop arc has touched it and until it is closed (done on both
    sides).  A frontier state after a level holds rem and every node's
    missing balance, but the open nodes' balances are the only ones that
    vary: a closed node's is 0 and an untouched node's its target.  The
    width counts those (their sum is fixed, so one fewer).  The frontier
    stops at the outer level, so it holds no pin; the width still counts
    one more from the first level the pin depends on up to the pinned
    level, because that choice was measured the faster: over 903
    block-free systems (full and weight sets and 500 seeded explicit
    sets with q, ell <= 3 and at most 12 grams, at M = 14 or 24, both
    modes) its engines took 1077 ms in all, against 1070 ms for the
    faster engine of each system, 1207 ms for a width taken only before
    the outer level, 1311 ms for the DFS alone and 1477 ms for the
    frontier alone.  The DFS searches one dimension per decision level,
    less the pinned one.
    The frontier count is chosen when the widest level boundary is
    narrower than that (full 3 2: 3 against 6; narrow), and never for a
    system with a block.  When two or more samples of one graph are
    counted together (_count_samples), a tie (full 2 3: 4 against 4;
    tie) goes to the frontier too, since states from different totals
    and modes merge.  Over 646 random fits at their period L <= 12
    (explicit sets with q, ell <= 3 and at most 12 grams, one CPython
    3.11 process on a 2-core VM), the 399 tie fits took 124-128 ms in
    one frontier pass against 198-205 ms by the DFS per sample, and the
    247 narrow fits 597-614 ms in one pass against 952-981 ms in one
    frontier pass per sample; but one tie count alone took 211-224 ms on
    the frontier against 198-205 ms by the DFS over those 1779 counts,
    so a single count keeps the strict rule.  The DFS counts
    every other system (weight 2 4 1 2 3: 6 against 3) and every
    enumeration.  The frontier at a level holds at most as many states
    as the DFS has prefixes there, so a system whose frontier outgrows
    memory is one the DFS could not finish either.

    The pass also finds where both counting engines stop.  The *free*
    decisions are the decisions less the pinned one; the last is the
    *fold* level and the one before it the *outer* level, or the fold
    level again when it is the only free decision.  count_points has
    _fold_tail compile the levels from the outer one on into rows once,
    so the engine stops there and _fold_count counts the points of each
    prefix or merged state.  A system with no free decision has no
    fold level, and nor has one whose block has no point (pivots None)
    or makes the pinned level a pivot: _fold_count cannot see the pinned
    level's class mod p, so those counts scan every point.  The other
    pivots lie before the fold level or on it.  When the fold level or
    the one before it is a pivot, the outer level is the fold level
    itself (one pass), and the scan hands the fold level's residue to
    _fold_count; otherwise every pivot lies before the outer level and
    the tail is folded as without a block.  A narrow plan always has two
    free decisions, and a tie at least one, since both need a block-free
    plan whose search dimensions reach a width of at least 1.

    Returns a _Plan.  levels[i] = (a, b, a_in_done, a_out_done,
    b_in_done, b_out_done).  total and targets are what is left after
    the shift (1 in mode E, else 0) per arc, which enumerate_points adds
    back.  block is the plan's shifted block, the system's rows and p
    with the residues beta - shift * (row sum) that H u' must meet, or
    None.  pinned is the pinned level, or -1.  The pinned value is
    rem - pin_const minus w * (value of level j) for each (j, w) in
    pin_terms, divided by pin_weight.  pivots is the result of
    _block_pivots, or {} without a block.  narrow says whether one
    count goes to the merged frontier, and tie whether two or more
    samples counted together do when it does not.  outer and fold are
    the outer and the fold level, both -1 without a fold level.
    """
    graph = system.graph
    arcs = list(zip(graph.arc_init, graph.arc_term))
    shift = int(system.mode == "E")
    total = system.m_total - shift * len(arcs)
    targets = net_outflow(graph, [shift] * len(arcs))
    cong = system.congruence
    residues = [b - shift * sum(row) for row, b in zip(cong.rows, cong.beta)] if cong else ()
    block = cong and CongruenceBlock(cong.rows, cong.p, residues)
    in_left = [0] * graph.n_nodes
    out_left = [0] * graph.n_nodes
    for a, b in arcs:
        if a != b:
            out_left[a] += 1
            in_left[b] += 1

    # Affine forms are {decision level: coefficient}, the key -1 holding
    # the constant.  miss[v] is node v's missing balance as such a form.
    miss = [{-1: t} if t else {} for t in targets]
    levels = []
    forms = []
    open_nodes = set()
    widths = []  # the number of open nodes after each level
    decisions = []
    for i, (a, b) in enumerate(arcs):
        done = (False, False, False, False)
        if a != b:
            out_left[a] -= 1
            in_left[b] -= 1
            done = (in_left[a] == 0, out_left[a] == 0, in_left[b] == 0, out_left[b] == 0)
        a_closed = done[0] and done[1]
        b_closed = done[2] and done[3]
        if a_closed:
            form = _add({}, miss[a], -1)
        elif b_closed:
            form = dict(miss[b])
        else:
            decisions.append(i)
            form = {i: 1}
        if a != b:
            _add(miss[a], form, 1)
            _add(miss[b], form, -1)
            open_nodes.update((a, b))
            if a_closed:
                open_nodes.discard(a)
            if b_closed:
                open_nodes.discard(b)
        widths.append(len(open_nodes))
        levels.append((a, b) + done)
        forms.append(form)

    last_dec = decisions[-1] if decisions else len(arcs)
    pin = {}
    for form in forms[last_dec:]:
        _add(pin, form, 1)
    pin_const = pin.pop(-1, 0)
    pin_weight = pin.pop(last_dec, 0)
    pin_terms = [(level, w) for level, w in pin.items() if w]
    pinned = last_dec if pin_weight else -1
    pivots = _block_pivots(block, forms, total, pinned, pin_weight) if block else {}
    pending_from = min((j for j, _ in pin_terms), default=pinned)
    width = max(
        max(k - 1, 0) + 1 + (pending_from <= i < pinned) for i, k in enumerate(widths)
    )
    free = decisions[:-1] if pinned >= 0 else decisions
    if pivots is None or pinned in pivots:
        free = []  # no point, or a class left to the pinned level: scan every point
    narrow = not block and width < len(free)
    tie = not block and width == len(free)
    fold = free[-1] if free else -1
    outer = free[-2] if len(free) > 1 and pivots.keys().isdisjoint(free[-2:]) else fold
    return _Plan(levels, total, targets, pinned, pin_weight, pin_terms, pin_const,
                 shift, block, pivots, narrow, tie, outer, fold)


def _fold_tail(plan: _Plan):
    """Compile the plan's levels from its outer level on into rows over the scan's state.

    Every level after the outer one but the fold level is forced or
    pinned.  Once the scan enters the outer level with its remaining
    total rem and missing balances miss, the outer value c1 and the fold
    value c fix the rest: each later value is affine in c1, c, rem and
    miss, the pinned one divided by the pin weight W.  The prefix's
    points are the c1, c >= 0 whose tail is a point: every later value
    >= 0, a node closed from one end by a forced arc also balanced at
    its other end, and the values summing to rem.  The ranges of c1 and
    c start at 0, so c1 >= 0 and c >= 0 are not rows.  A level moves
    balance between two nodes of one weak component of D(S), and the
    targets are net outflows, so each component's missing balances sum
    to 0 in every state; the arc that closes a component's last two
    nodes balances the second once it balances the first, and that
    check is not a row.  The sum solves the pinned value P = N / W, with
    N affine; rows holding P are multiplied by |W| to keep them
    integral, and W | N becomes a residue class of c for each c1.
    Without a pinned level the sum is a row.  An equality is two rows,
    >= 0 and <= 0.  When the fold level is the only free decision it is
    also the outer level: no value is c1, and the row -c1 >= 0 leaves
    the one pass c1 = 0.  Each pair of a row that bounds c from below
    and one that bounds it from above, c >= 0 among the former, adds
    the combination free of c (Fourier-Motzkin): the c1 with an empty
    real interval of c fail it, so _fold_count's loop over c1 seldom
    meets an empty one.

    Affine forms are {key: coefficient} with the keys v >= 0 for miss[v],
    -2 for rem, -3 for c, -4 for P and -5 for c1; the state holds the
    targets, so no form has a constant.  A row is (rem coefficient,
    ((v, coefficient), ...), c1 coefficient alpha, c coefficient beta);
    its form must be >= 0.

    Returns (rows, pin).  The rows free of c come first, those free of
    c1 too before the others, so _fold_count narrows c1 before it reads
    a row in c.  No row is repeated, and none is kept that holds on
    every state: one without miss terms that holds at the corners of
    0 <= c1, c, c1 + c <= rem, such as rem - c >= 0.  pin is None when
    there is no pinned level or W is 1 or -1.  Otherwise it is (N's rem
    coefficient, miss terms and c1 coefficient, g, m, inv) for N's c
    coefficient B: g = gcd(B, |W|), m = |W| / g, and inv is the inverse
    of B / g modulo m (0 when m is 1).
    """
    levels, outer, fold, pinned = plan.levels, plan.outer, plan.fold, plan.pinned
    part = {}  # node: the nodes of its weak component merged so far
    for a, b, *_ in levels:
        merged = part.get(a, {a}) | part.get(b, {b})
        part.update(dict.fromkeys(merged, merged))
    last = {min(part[a]): i for i, (a, b, *_) in enumerate(levels) if a != b}
    miss = {}
    total = {}
    forms = []  # each must be >= 0
    for i in range(outer, len(levels)):
        a, b, a_in, a_out, b_in, b_out = levels[i]
        for v in (a, b):
            miss.setdefault(v, {v: 1})
        if i == fold:
            value = {-3: 1}
        elif i == outer:
            value = {-5: 1}
        elif i == pinned:
            value = {-4: 1}
        elif a_in and a_out:
            value = _add({}, miss[a], -1)
        else:
            value = dict(miss[b])
        if i != fold and i != outer:
            forms.append(value)
        _add(total, value, 1)
        if a != b:
            _add(miss[a], value, 1)
            _add(miss[b], value, -1)
            if a_in and a_out and b_in and b_out and last[min(part[a])] > i:
                forms += [dict(miss[b]), _add({}, miss[b], -1)]
    rest = _add({-2: 1}, total, -1)
    pin = None
    if pinned >= 0:
        # rest = N - W * P
        w = -rest.pop(-4)
        sign, w = (1, w) if w > 0 else (-1, -w)
        for form in forms:
            k = form.pop(-4, 0)
            if k:
                for key in form:
                    form[key] *= w
                _add(form, rest, k * sign)
        if w > 1:
            beta = rest.get(-3, 0)
            g = gcd(beta, w)
            m = w // g
            pin = (*_fold_row(rest)[:3], g, m, pow(beta // g, -1, m))  # 0 when m is 1
    else:
        forms += [rest, _add({}, rest, -1)]
    if outer == fold:
        forms.append({-5: -1})
    lows = [form for form in forms if form.get(-3, 0) > 0] + [{-3: 1}]
    for high in [form for form in forms if form.get(-3, 0) < 0]:
        for low in lows:
            forms.append(_add(_add({}, low, -high[-3]), high, low[-3]))
    rows = {}  # each row once, in order
    for k_rem, terms, alpha, beta in map(_fold_row, forms):
        if terms or min(k_rem, k_rem + alpha, k_rem + beta) < 0:
            rows[k_rem, terms, alpha, beta] = None
    return sorted(rows, key=lambda row: (row[3] != 0, row[2] != 0)), pin


def _fold_row(form):
    """A _fold_tail form as a row: (rem coefficient, miss terms, alpha, beta)."""
    terms = tuple(sorted((key, k) for key, k in form.items() if key >= 0 and k))
    return form.get(-2, 0), terms, form.get(-5, 0), form.get(-3, 0)


def _fold_count(tail, rem, miss, pivot=None):
    """Points of one prefix that enters the outer level: rem and miss on entry.

    One pass over the rows computes each row's value x on the state.  A
    row free of c intersects the interval of the outer value c1, from 0
    and rem, and the count stops at the first that empties it; every
    other row is kept.  Then, for each c1 in the interval, the interval
    of the fold value c, from 0 and rem - c1, is intersected with each
    kept row, whose value moves by its alpha per unit of c1, and the
    members of the pin's residue class in it are counted (see
    _fold_tail).

    pivot is (r, p) when the fold level is a pivot of the plan's block:
    its value must be r mod p.  The fold level is then also the outer
    one (see _plan), so c1 is 0 and the pin's class c = r0 mod m is one
    class before the loop.  The Chinese remainder theorem joins the two
    into one class, c = r0 mod m*p when p does not divide m; otherwise
    they are the class r0 mod m when r0 = r mod p, and no c at all when
    not.  The loop counts that class as the pin's, with g = inv = 1.
    """
    rows, pin = tail
    if pivot is not None and pin is None:
        pin = (0, (), 0, 1, 1, 0)  # the pin's class: every c, c = 0 mod 1
    lo, hi = 0, rem
    cut = []  # (x, alpha, beta): the row reads x + alpha * c1 + beta * c >= 0
    for k_rem, terms, alpha, beta in rows:
        x = k_rem * rem
        for v, k in terms:
            x += k * miss[v]
        # a row free of c reads x + alpha * c1 >= 0
        if beta:
            cut.append((x, alpha, beta))
        elif alpha > 0:
            lo = max(lo, -(x // alpha))
        elif alpha < 0:
            hi = min(hi, x // -alpha)
        elif x < 0:
            return 0
        if lo > hi:
            return 0
    if pin is not None:
        k_rem, terms, p_alpha, g, m, inv = pin
        p_x = k_rem * rem
        for v, k in terms:
            p_x += k * miss[v]
        if pivot is not None:
            r, p = pivot
            if p_x % g:
                return 0
            r0 = -(p_x // g) * inv % m
            if m % p:
                r0 += m * ((r - r0) * pow(m, -1, p) % p)
                m *= p
            elif (r0 - r) % p:
                return 0
            p_x, g, inv = -r0, 1, 1
    count = 0
    for c1 in range(lo, hi + 1):
        c_lo, c_hi = 0, rem - c1
        for x, alpha, beta in cut:
            x += alpha * c1
            if beta > 0:
                c = -(x // beta)
                if c > c_lo:
                    c_lo = c
            else:
                c = x // -beta
                if c < c_hi:
                    c_hi = c
        if c_lo > c_hi:
            continue
        if pin is None:
            count += c_hi - c_lo + 1
            continue
        x = p_x + p_alpha * c1
        if x % g == 0:
            # c = r (mod m) makes N = x + B * c a multiple of |W|
            r = -(x // g) * inv % m
            count += (c_hi - r) // m - (c_lo - 1 - r) // m
    return count


def _block_pivots(block, forms, total, pinned, pin_weight):
    """Row-reduce the plan's shifted block mod its p onto the decisions.

    An equation here is an affine form in the decision levels, keyed as
    in _plan, that must vanish mod p.  Through the level forms, each
    row of the plan's shifted block, with its residue, becomes one, and
    so does the total: the row of ones with the residue total.  When p
    does not divide pin_weight, the total's equation removes the pinned
    decision from every row; otherwise it stays a column.
    Elimination takes pivot columns from the latest decision backwards,
    so a pivot's equation holds only its pivot and earlier decisions,
    and the DFS knows the pivot's residue when it enters that level.
    Coefficients are reduced mod p where zero ones are dropped.

    Returns {pivot level: (terms, residue)}: the pivot's value is
    congruent to residue minus c * (value of level j) for each (j, c)
    in terms.  Returns None when an equation reduces to 0 = c with
    c != 0, which proves that no point satisfies the block.
    """
    p = block.p
    eqs = []
    for row, r in zip((*block.rows, [1] * len(forms)), (*block.beta, total)):
        eq = {-1: -r}
        for h, form in zip(row, forms):
            _add(eq, form, h)
        eqs.append(eq)
    total_eq = eqs.pop()
    if pinned >= 0 and pin_weight % p:
        inv = pow(pin_weight, -1, p)
        for eq in eqs:
            _add(eq, total_eq, -eq.get(pinned, 0) * inv)
    pivots = {}
    while True:
        eqs = [eq for eq in ({k: c % p for k, c in eq.items() if c % p} for eq in eqs) if eq]
        if not eqs:
            return pivots
        col = max(max(eq) for eq in eqs)
        if col < 0:
            return None
        eq = next(eq for eq in eqs if col in eq)
        eqs.remove(eq)
        inv = pow(eq[col], -1, p)
        for other in eqs:
            _add(other, eq, -other.get(col, 0) * inv)
        terms = [(j, c * inv % p) for j, c in eq.items() if j != col and j >= 0]
        pivots[col] = (terms, -eq.get(-1, 0) * inv % p)


def _scan(plan: _Plan, tail=None):
    """Depth-first scan yielding the values of every point (pre-base-shift).

    An explicit stack of levels: level i keeps its value vals[i], its
    upper bound his[i], and on entry the remaining total rems[i] and the
    positive missing balance poss[i].  A value c moves c units of
    missing balance from node b to node a, so a loop leaves the balances
    as they are.  A pivot level of the plan's shifted block is narrowed
    to the values in [lo, hi] with its residue and steps by the block's
    p; every other level steps by 1.  Each point's syndrome is checked
    against that block at the last level, and a mismatch raises.  The
    yielded list is shared and overwritten as the scan goes on.  The
    scan works on its own copy of the plan's targets.

    Given tail, the plan's _fold_tail, the scan stops at the outer
    level: each prefix that enters it yields its number of points, from
    _fold_count, and the levels from it on are not scanned.  When the
    outer level is a pivot, its residue goes with the prefix.
    """
    levels, total, targets, pinned = plan.levels, plan.total, plan.targets, plan.pinned
    pin_weight, pin_terms, pin_const = plan.pin_weight, plan.pin_terms, plan.pin_const
    block, pivots = plan.block, plan.pivots
    p = block and block.p
    miss = list(targets)
    n = len(levels)
    pos = sum(m for m in miss if m > 0)
    if total < 0 or pivots is None:
        return
    solved = {pinned, *pivots}  # the levels whose range is narrowed on entry
    stop = plan.outer if tail else -1
    strides = [1] * n
    for level in pivots:
        strides[level] = p
    last = n - 1
    vals = [0] * n
    his = [0] * n
    rems = [0] * n
    poss = [0] * n
    rems[0], poss[0] = total, pos
    i = 0
    step = None  # None: enter level i at lo; else step it by strides[i]
    while i >= 0:
        a, b, a_in, a_out, b_in, b_out = levels[i]
        rem = rems[i]
        if step is None:
            if i in pivots:
                terms, r = pivots[i]
                for level, c in terms:
                    r -= c * vals[level]
                r %= p
            if i == stop:
                yield _fold_count(tail, rem, miss, (r, p) if i in pivots else None)
                i -= 1
                step = 1
                continue
            lo, hi = 0, rem
            if a_in:
                hi = min(hi, -miss[a])
            if a_out:
                lo = max(lo, -miss[a])
            if b_in:
                lo = max(lo, miss[b])
            if b_out:
                hi = min(hi, miss[b])
            if i == last:
                lo = max(lo, rem)
            if i in solved:
                if i == pinned:
                    need = rem - pin_const
                    for level, w in pin_terms:
                        need -= w * vals[level]
                    value, leftover = divmod(need, pin_weight)
                    if leftover:
                        value = -1  # no integer solution: an empty range
                    lo = max(lo, value)
                    hi = min(hi, value)
                if i in pivots:
                    lo += (r - lo) % p
                    hi -= (hi - r) % p
            if lo > hi:
                i -= 1
                step = 1
                continue
            his[i] = hi
            vals[i] = 0
            step = lo
            npos = poss[i]
        elif vals[i] == his[i]:
            c = vals[i]
            miss[a] -= c
            miss[b] += c
            i -= 1
            continue
        else:
            step = strides[i]
            npos = poss[i + 1]
        ma = miss[a]
        mb = miss[b]
        npos -= (ma if ma > 0 else 0) + (mb if mb > 0 else 0)
        miss[a] += step
        miss[b] -= step
        ma = miss[a]
        mb = miss[b]
        npos += (ma if ma > 0 else 0) + (mb if mb > 0 else 0)
        c = vals[i] + step
        vals[i] = c
        if npos + c > rem:
            his[i] = c  # no larger value fits: the next pass leaves the level
        elif i == last:
            # c == rem here, and npos + c <= rem left npos == 0
            if block and block.syndrome(vals) != block.beta:
                raise AssertionError("a point left the congruence class of its pivots")
            yield vals
        else:
            rems[i + 1] = rem - c
            poss[i + 1] = npos
            i += 1
            step = None


def _count_frontier(plan: _Plan, tail, seeds) -> list[int]:
    """Count the points of each seed level by level, merging equal partial flows.

    Walks _plan's levels up to its outer level and applies _scan's
    rules to every state at once: the done-side bounds and the npos + c
    > rem cut.  A state is the DFS's own: rem and every node's missing
    balance miss, as the tuple (rem, *miss); a value c moves c units
    from node b to node a, so a loop adds and subtracts c on one entry.
    Each seed is one sample's state before the first level: its shifted
    total and its mode's targets.  The later levels and tail's rows read
    nothing but the state, so equal states are kept once, whichever
    seeds they came from, with one multiplicity per seed.  At a level
    every closed node has balance 0 and every untouched node its
    target, so two states of one seed that agree on the open nodes
    agree on every node.  _fold_count counts each state that enters the
    outer level once, as the DFS counts a prefix there, and each seed
    gets that count times its multiplicity.  plan has a fold level and
    no block, tail is its _fold_tail, and the plans of every seed share
    plan's levels and outer level.

    Returns the seeds' counts, in order; a seed with a negative total
    counts 0.
    """
    states = {}
    for slot, seed in enumerate(seeds):
        if seed[0] >= 0:  # a negative total has no points
            states.setdefault(seed, [0] * len(seeds))[slot] += 1
    for a, b, a_in, a_out, b_in, b_out in plan.levels[: plan.outer]:
        nxt = {}
        for (rem, *miss), mults in states.items():
            ma, mb = miss[a], miss[b]
            lo, hi = 0, rem
            if a_in:
                hi = min(hi, -ma)
            if a_out:
                lo = max(lo, -ma)
            if b_in:
                lo = max(lo, mb)
            if b_out:
                hi = min(hi, mb)
            if lo > hi:
                continue
            # the positive balance of every node but the arc's ends
            rest = sum(m for m in miss if m > 0) - (ma if ma > 0 else 0) - (mb if mb > 0 else 0)
            miss[a] += lo
            miss[b] -= lo
            for c in range(lo, hi + 1):
                ma, mb = miss[a], miss[b]
                if rest + (ma if ma > 0 else 0) + (mb if mb > 0 else 0) + c > rem:
                    break
                state = (rem - c, *miss)
                have = nxt.get(state)
                # a merge builds a new list: the parent's list may be shared
                nxt[state] = mults if have is None else [x + y for x, y in zip(have, mults)]
                miss[a] += 1
                miss[b] -= 1
        states = nxt
    counts = [0] * len(seeds)
    for (rem, *miss), mults in states.items():
        points = _fold_count(tail, rem, miss)
        if points:
            for slot, mult in enumerate(mults):
                counts[slot] += points * mult
    return counts


def _count(plans, tail) -> list[int]:
    """Numbers of points of planned systems that share one graph's levels.

    tail is their _fold_tail, or None.  Without a fold level the DFS
    (_scan) visits every point; otherwise the engine the plan picks
    stops at the outer level and counts the rest by tail: merged
    frontier states (_count_frontier), seeded with every plan's total
    and targets, when the plan is narrow, or a tie and there are two or
    more plans (see _plan); else the DFS once per plan.  Two or more
    plans are block-free and differ only in total, targets, pin_const
    and shift.
    """
    plan = plans[0]
    if plan.fold < 0:
        return [sum(1 for _ in _scan(p)) for p in plans]
    if plan.narrow or (plan.tie and len(plans) > 1):
        return _count_frontier(plan, tail, [(p.total, *p.targets) for p in plans])
    return [sum(_scan(p, tail)) for p in plans]


def count_points(system: FlowSystem) -> int:
    """Number of integer points of the system, exactly.

    The plan (see _plan) depends on the graph, the mode and the block,
    and on the total only through plan.total and, with a block, the
    pivots; it is built once per call.  The tail (_fold_tail) reads only
    the plan's levels, outer, fold and pinned level, and is compiled
    once when the plan has a fold level.  A congruence block keeps the
    DFS, and folds unless it makes the pinned level a pivot.
    """
    plan = _plan(system)
    return _count([plan], _fold_tail(plan) if plan.fold >= 0 else None)[0]


def _count_samples(graph: DeBruijnGraph, samples) -> list[int]:
    """[count_points(FlowSystem(graph, m, mode)) for m, mode in samples], in one pass.

    Without a block a plan reads the total only into plan.total, so
    each mode is planned once, at the total 0, and the total m is
    counted with plan.total = m - shift * |E|, which may be negative.
    The levels, the decisions, the pinned, outer and fold levels, narrow
    and tie depend on the graph alone; the modes differ only in total,
    targets, pin_const and shift.  The tail reads none of those (the
    state holds the targets), so one tail serves both modes, and the
    frontier merges the states of every sample in one pass.  A block
    would make the pivots depend on the total, so samples take none.
    """
    modes = dict.fromkeys(mode for _, mode in samples)
    plans = {mode: _plan(FlowSystem(graph, 0, mode)) for mode in modes}
    if not plans:
        return []
    planned = [plans[mode]._replace(total=m - plans[mode].shift * graph.n_arcs)
               for m, mode in samples]
    plan = planned[0]
    return _count(planned, _fold_tail(plan) if plan.fold >= 0 else None)


def enumerate_points(system: FlowSystem):
    """All integer points of the system as count tuples, in DFS order."""
    plan = _plan(system)
    base = plan.shift
    return [tuple([v + base for v in vals]) for vals in _scan(plan)]


def brute_force_profiles(n, s: GramSet, closed_only=False):
    """Exact profile sets of the words of length n with grams in s.

    The independent oracle for everything else in this module: it reads
    only s's grams, never the graph code the lattice scan relies on.
    The words are swept one symbol at a time through a frontier keyed
    by a word's first and last ell-1 symbols, each key holding the
    profiles of the words read so far with those ends.  Words with the
    same ends and profile have the same extensions, so each class is
    kept once.  Guarded at q**n <= 10**8 words; n < 0 is refused.
    """
    if n < 0:
        raise ValueError(f"word length must be nonnegative, got {n}")
    if s.q**n > BRUTE_FORCE_GUARD:
        raise GuardExceeded(f"{s.q}**{n} words exceed the enumeration guard")
    if n < s.ell:
        return set()
    moves: dict[tuple[int, ...], list] = {}
    for i, g in enumerate(s.grams):
        moves.setdefault(g[:-1], []).append((i, g[1:]))
    zero = (0,) * len(s.grams)
    frontier = {(v, v): {zero} for v in product(range(s.q), repeat=s.ell - 1)}
    for _ in range(n - s.ell + 1):
        advanced: dict[tuple, set] = {}
        while frontier:
            (head, tail), profiles = frontier.popitem()
            for i, nxt in moves.get(tail, ()):
                bucket = advanced.setdefault((head, nxt), set())
                for u in profiles:
                    bucket.add(u[:i] + (u[i] + 1,) + u[i + 1 :])
        frontier = advanced
    return {
        u
        for (head, tail), profiles in frontier.items()
        if head == tail or not closed_only
        for u in profiles
    }


@dataclass(frozen=True)
class QuasiPolynomial:
    """One residue class of a lattice-count quasipolynomial, exactly fitted.

    coeffs are ascending-degree Fractions in the dilation variable t,
    where the counted total is M = period * t + residue.  leading_in_n
    rescales the leading coefficient to the natural M (word length)
    variable: lead / period**degree.  verified_at is the t of the
    held-out count that confirmed the fit.
    """

    degree: int
    period: int
    residue: int
    mode: str
    coeffs: tuple[Fraction, ...]
    verified_at: int

    def evaluate(self, t: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    @property
    def leading(self) -> Fraction:
        return self.coeffs[self.degree]

    @property
    def leading_in_n(self) -> Fraction:
        return self.leading / Fraction(self.period) ** self.degree


class FitMismatch(RuntimeError):
    """The counts contradict the fitted polynomial (wrong degree or period)."""


def _interpolate(t0, ys):
    """The exact polynomial through (t0 + i, ys[i]); ascending coefficients.

    Newton's forward form p(t) = sum_k (Delta^k y)_0 * C(t - t0, k), with
    every falling factorial expanded in integers over the common
    denominator d! (d = len(ys) - 1), which is divided out once per
    coefficient.
    """
    d = len(ys) - 1
    numer = [0] * (d + 1)
    falling = [1]  # (t - t0) (t - t0 - 1) ... (t - t0 - k + 1), ascending
    scale = factorial(d)  # d! / k!
    for k in range(d + 1):
        for j, f in enumerate(falling):
            numer[j] += ys[0] * scale * f
        ys = [b - a for a, b in zip(ys, ys[1:])]
        falling = [0] + falling
        for j in range(k + 1):
            falling[j] -= (t0 + k) * falling[j + 1]
        scale //= k + 1
    return tuple(Fraction(n, factorial(d)) for n in numer)


def fit_quasipolynomial(
    s: GramSet, degree: int, lam: int, mode: str = "F", residue: int = 0,
) -> QuasiPolynomial:
    """Fit the count polynomial of one dilation class, with a held-out check.

    p(t) is the count at M = lam*t + residue in the given mode.  The fit
    counts at degree+2 consecutive integers t, interpolates p exactly
    through all but the largest and compares p there with its count; a
    mismatch means the assumed degree or period is wrong and raises
    FitMismatch.  The degree must be in [0, |E| - 1], since no flow
    polytope on |E| arcs has a higher dimension, lam positive and the
    residue in [0, lam).

    When graphs.flow_dimension gives the polytope's dimension D (every
    arc on a cycle), the samples lie around 0: t = -ceil(degree/2) ..
    floor(degree/2) + 1 in mode E, the degree+2 integers nearest 0 with
    a tie going to the side counted in mode E, and one step lower in
    mode F, whose negative side is the one counted in mode E.  By
    Ehrhart's theorem a mode F count is a value of the quasipolynomial
    from M = 0 on (1 at M = 0), a mode E count from M = 1 on; below
    that, reciprocity gives p(t) = (-1)^D times the other mode's count
    at -M (at least 1 when t < 0, since residue < lam).  D is the
    graph's, not the caller's degree, so a degree too high still fits
    exactly.  When lam is a period, each class is a polynomial of
    degree exactly D or identically 0, so a degree k < D is fitted at D,
    with D's window, and FitMismatch is raised unless the coefficients
    of t^(k+1)..t^D are all 0; the k+1 low ones are returned.  Otherwise
    {u > 0} misses P, mode E counts no interior, and the samples are
    t = 1..degree+2 in the given mode.

    The period is proved, not trusted to the held-out count.  The
    vertices of P are 1_C/|C| over the simple cycles C, so L, the lcm of
    the simple-cycle lengths (graphs.simple_cycle_lengths), is a period
    of both modes' counts.  When L divides lam nothing more is counted.
    Otherwise, with g = gcd(lam, L), the counts on M = lam*t + residue
    meet every class M = r' (mod L) with r' = residue (mod g), and they
    are a polynomial in t only if those classes are one polynomial in M.
    Each class is fitted at period L, as above, and FitMismatch is
    raised unless all of them agree as polynomials in M.  When the
    cycle search exceeds its budget, L is unknown and the held-out
    count is the only check of the period.

    Every count of the fit, the other mode's and the class fits' too,
    is one sample of a single _count_samples call: each mode is planned
    once, the graph's fold tail compiled once, and on the frontier the
    partial flows of every sample merge in one pass.  Nothing is kept
    between calls.
    """
    if degree < 0 or lam < 1:
        raise ValueError(f"need degree >= 0 and lambda >= 1, got {degree} and {lam}")
    if not 0 <= residue < lam:
        raise ValueError(f"need 0 <= residue < lambda, got residue {residue} and lambda {lam}")
    graph = build_graph(s)
    if degree >= graph.n_arcs:
        raise ValueError(
            f"need degree <= |E| - 1 = {graph.n_arcs - 1}, the largest flow polytope "
            f"dimension, got {degree}"
        )
    dim = flow_dimension(graph)
    fitted = degree if dim is None else max(degree, dim)
    if dim is None:
        ts = range(1, degree + 3)
    else:
        first = -((fitted + 1) // 2) - (mode == "F")
        ts = range(first, first + fitted + 2)
    lowest = 1 if mode == "E" else 0
    other = "F" if mode == "E" else "E"
    try:
        period = lcm(*simple_cycle_lengths(graph))
    except SearchBudgetExceeded:
        period = lam  # L unknown: the held-out count stays the only check
    g = gcd(lam, period)
    dilations = [(lam, residue)]
    if lam % period:
        dilations += [(period, r) for r in range(residue % g, period, g)]
    # every fit's totals, in one call; those below lowest are counted past reciprocity
    ms = [step * t + start for step, start in dilations for t in ts]
    counts = _count_samples(graph, [(m, mode) if m >= lowest else (-m, other) for m in ms])
    counts = [n if m >= lowest else (-1) ** dim * n for m, n in zip(ms, counts)]

    def fit(k):
        """The polynomial of dilations[k] through its counts at ts but the last, checked there."""
        ys = counts[k * len(ts) : (k + 1) * len(ts)]
        poly = QuasiPolynomial(fitted, *dilations[k], mode, _interpolate(ts[0], ys[:-1]), ts[-1])
        predicted = poly.evaluate(ts[-1])
        if predicted != ys[-1]:
            raise FitMismatch(f"held-out count at t={ts[-1]} is {ys[-1]}, fit predicts {predicted}")
        return poly

    coeffs = fit(0).coeffs
    # each class's values at M = 0..fitted fix it as a polynomial in M
    in_m = [[c.evaluate(Fraction(m - c.residue, period)) for m in range(fitted + 1)]
            for c in map(fit, range(1, len(dilations)))]
    if any(values != in_m[0] for values in in_m):
        raise FitMismatch(
            f"lambda {lam} is not a period: the classes M = {residue % g} (mod {g}) "
            f"of the proven period {period} are not one polynomial in M"
        )
    if any(coeffs[degree + 1 :]):
        top = max(k for k, c in enumerate(coeffs) if c)
        raise FitMismatch(
            f"degree {degree} is below the polytope's dimension {dim}: "
            f"the degree-{dim} fit has t^{top} coefficient {coeffs[top]}"
        )
    return QuasiPolynomial(degree, lam, residue, mode, coeffs[: degree + 1], ts[-1])


def reciprocity_check(f_poly: QuasiPolynomial, e_poly: QuasiPolynomial) -> bool:
    """Exact identity L_F(-t) == (-1)^D L_E(t), coefficient by coefficient."""
    if f_poly.degree != e_poly.degree:
        return False
    d = f_poly.degree
    sign = 1 if d % 2 == 0 else -1
    for k in range(d + 1):
        f_k = f_poly.coeffs[k] * (-1 if k % 2 else 1)
        if f_k != sign * e_poly.coeffs[k]:
            return False
    return True


def monotonicity_check(s: GramSet, m_max: int) -> bool:
    """Mode-F count_points nondecreasing in the total for M = 1..m_max, counted in one pass."""
    counts = _count_samples(build_graph(s), [(m, "F") for m in range(1, m_max + 1)])
    return all(a <= b for a, b in zip(counts, counts[1:]))

