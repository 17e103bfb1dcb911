"""Exhaustive classification of transitive non-negative-integer matrix modules.

The solver runs a depth-first search over the entries of the non-identity
matrices, each entry confined to an interval that starts at 0 and its cap.
Its equations are the product relations plus one linear equation per pinned
trace.  Because every quantity in sight is a non-negative integer, each
partially filled equation has an interval of possible values, which tightens
both ends of every entry it reads linearly; an entry whose ends cross is a
contradiction, which also catches a forced value that is not an integer.
Each assignment checks the equations that mention the assigned entry in one
pass, without iterating to a fixpoint.  After a first pass over every
equation, the entries whose ends meet become constants and the equations
left as 0 = 0 are dropped: under s-rigidity the doubling generator is fixed
at 2I, and most relations that read it go.  Both prunings are sound, and
every kept module is re-verified by full matrix multiplication and its
traces afterwards.  A naive enumerator with none of that machinery doubles
as an independent oracle: it assigns the same entries one at a time over the
whole range and evaluates each entry of each product relation exactly, at
every value of the last entry it reads, or at the one value an entry linear
in it solves for.

Proven entry caps (Kildetoft & Mazorchuk, *Special modules over positively
based algebras*; Mazorchuk & Miemietz, *Transitive 2-representations of
finitary 2-categories*).  Take a transitive module of rank r over a
commutative ring with an exact character table.  Transitivity makes
M_tot = sum_b M_b >= 1 entrywise, so M_tot has a simple Perron root rho with
an eigenvector v > 0.  The M_b commute, so each preserves that line:
M_b v = mu(b) v for a character mu that is non-negative on the basis.  Every
constituent's chi(sum b) is an eigenvalue of M_tot, so when the traces are
pinned, mu is a constituent with mu(sum b) = rho = max |chi(sum b)|.  Row i
of M_b v = mu(b) v gives M_b[i][i] <= mu(b) and
M_b[i][j] <= mu(b) v_i / v_j.  The diagonal of M_tot is at least d = 1 (from
e), or d = 3 when the doubling generator g is pinned at trace 2r: g*g = 2g
gives M_g eigenvalues 0 and 2 and no Jordan block, so M_g = 2I.  For
i = argmin v and k = argmax v, row i of M_tot v = rho v then gives
rho v_i >= d v_i + v_k + (r - 2) v_i, i.e. v_max / v_min <= R =
rho - d - (r - 2), and R >= 1 is the rank cap r <= floor(rho) - d + 1 (at
r = 1, rho = M_tot >= d).  Hence M_b[i][i] <= floor(mu(b)) and
M_b[i][j] <= floor(mu(b) R), maximized over every mu left, in exact
FieldElement arithmetic (rho = 4+sqrt(5) at Q5).  With no mu left, no
transitive module exists and every cap is 0.

Candidates for the named rings Q_n are annotated with their status in the
classification of simple transitive actions: realized by a cell construction,
realized by an extra construction, excluded by a categorical argument that an
integer search cannot reproduce, or unresolved.  The cell statuses are
derived, one rule per cell: the zero module, listed only when it is a module,
is the cell 2-representation of the identity cell {e}, and the ideal module,
the ring acting on its own non-identity span by M_x[z][y] = c[x][y][z]
(x, y, z != e), is the decategorified cell 2-representation of the s-H-cell
(Mazorchuk & Miemietz, *Cell 2-representations of finitary 2-categories*).
The extra construction and the exclusions are data (ANNOTATIONS), not
derivations, and the notes say so.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from itertools import product as iproduct
from typing import Iterable, Mapping, NamedTuple, Sequence

from .basedring import BasedRing, rigid_generator, subquotient_qn
from .characters import (
    CharacterError,
    CharacterTable,
    DecompositionError,
    _trace_multiplicities,
    character_table,
    decompose,
    special_character,
)
from .matrixmodule import (
    MatrixModule,
    canonical_module,
    is_transitive,
    module_from_mats,
    satisfies_ring_relations,
    trivial_module,
)

__all__ = [
    "ClassifierError",
    "SearchOutcome",
    "Candidate",
    "ClassificationReport",
    "feasible_rank_profiles",
    "solve_matrix_modules",
    "bruteforce_matrix_modules",
    "bundled_ring",
    "classify",
    "ANNOTATIONS",
    "EXPECTED_CANDIDATES",
    "REALIZED_COUNTS",
]

class ClassifierError(ValueError):
    pass


# -- s-rigidity ----------------------------------------------------------------


def _required_rigid_generator(ring: BasedRing) -> int:
    g = rigid_generator(ring)
    if g is None:
        raise ClassifierError("ring has no doubling generator; cannot apply s-rigidity")
    return g


def _rigidity_holds(ring: BasedRing, module: MatrixModule) -> bool:
    mat = module.mats[_required_rigid_generator(ring)]
    for i in range(module.rank):
        for j in range(module.rank):
            if i == j:
                if mat[i][j] not in (0, 2):
                    return False
            elif mat[i][j] != 0:
                return False
    return True


def _check_rigid(rigid: bool) -> None:
    """Refuse a rigid that is not a bool, rather than read it as truthy."""
    if type(rigid) is not bool:
        raise ClassifierError(f"rigid must be True or False, got {rigid!r}")


def _admitted(ring: BasedRing, module: MatrixModule, rigid: bool) -> bool:
    """Whether module is transitive, satisfies the ring relations and, when
    rigid, passes s-rigidity."""
    return (
        is_transitive(module)
        and satisfies_ring_relations(ring, module)
        and (not rigid or _rigidity_holds(ring, module))
    )


# -- rank screening -------------------------------------------------------------


def feasible_rank_profiles(
    table: CharacterTable, faithful: bool, max_rank: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Multiplicity vectors of rank at most max_rank whose trace data a
    candidate module could carry; max_rank defaults to the rank cap.

    Every profile must give each basis element a non-negative integer trace,
    so it takes one multiplicity per Galois orbit of the characters
    (CharacterTable._orbits), and traces are sums of the orbits' integer
    ones.  Faithful profiles additionally carry the special character
    exactly once, act non-trivially somewhere off the identity, and give
    the doubling generator g trace 2*rank: a faithful transitive action
    forces every diagonal entry of g's matrix to be 2 rather than 0, since
    a 0 there would zero out a whole row of the positive total-action
    matrix.  As chi(g) is 0 or 2, only orbits with trace 2|O| at g qualify.
    """
    ring = table.ring
    special = special_character(table) if faithful else None
    rigid = rigid_generator(ring)
    if max_rank is None:
        max_rank = _perron_limits(table, 1, None, faithful and rigid is not None)[0]

    def extend(states, members, row, allowed):  # lazily, so depth first
        for rank, profile, traces in states:
            for m in allowed:
                if rank + m * len(members) <= max_rank:
                    yield (rank + m * len(members),
                           tuple(m if i in members else k for i, k in enumerate(profile)),
                           tuple(t + m * v for t, v in zip(traces, row)))

    states = [(0, (0,) * table.size, (0,) * ring.size)]  # (rank, profile, traces)
    for members, row in table._orbits:
        allowed = range(max_rank + 1)
        if faithful and rigid is not None and row[rigid] != 2 * len(members):
            allowed = (0,)
        if special in members:
            allowed = (1,) if 1 in allowed else ()
        states = extend(states, members, row, allowed)
    profiles = [
        profile for rank, profile, traces in states
        if rank and min(traces) >= 0
        and (not faithful or any(t for b, t in enumerate(traces) if b != ring.identity))
    ]
    return tuple(sorted(profiles, key=lambda m: (sum(m), m)))


def profile_traces(table: CharacterTable, profile: Sequence[int]) -> dict[str, int]:
    """Exact integer trace of every basis element under a rank profile."""
    if len(profile) != table.size:
        raise ClassifierError(f"profile {tuple(profile)} does not have {table.size} entries")
    traces = [0] * table.size
    for members, row in table._orbits:
        if len({profile[i] for i in members}) > 1:
            raise ClassifierError(f"profile {tuple(profile)} has an irrational trace: it "
                                  f"is not constant on the Galois orbit {list(members)}")
        traces = [t + profile[members[0]] * v for t, v in zip(traces, row)]
    return dict(zip(table.ring.labels, traces))


# -- the bounded search ----------------------------------------------------------


class SearchOutcome(NamedTuple):
    """Solutions of one bounded search plus its completeness bookkeeping, as
    a named tuple.

    bound is the largest entry limit off the doubling generator (0 when there
    is no such entry).  complete is True when every entry was limited by its
    proven cap alone (see the module docstring), no explicit bound lying
    below one, so no module is missing.
    bound_exhausted is True when some consistent branch assigned an entry off
    the doubling generator a value equal to a limit that is not a proven cap
    (an explicit bound below the cap): modules past that limit may then be
    missing.  False certifies nothing: a module with an entry past the limit
    is often pruned earlier, when an equation's interval leaves no integer
    within the limit, without any branch reaching the limit (Q4, profile
    (0,1,1), bound=3 loses (0,1,4,0) with the flag false).  Only complete
    certifies completeness.  Reaching a proven cap loses nothing and is not
    flagged.
    The symmetry break (dedupe=True) keeps the flag of every module the
    search admits: permuting rows and columns keeps each entry in its matrix
    and on or off the diagonal, so at the same limit, and the orbit's
    lex-leader is reached through branches the break never cuts.  It drops
    only flags raised on branches that lead to no module (Q4, rank 3,
    s-rigidity, bound 3, 6 or 8 finds nothing and flags only without it).
    """

    modules: tuple[MatrixModule, ...]
    bound: int
    bound_exhausted: bool
    complete: bool


def _perron_limits(
    table: CharacterTable,
    rank: int,
    traces: Mapping[str, int] | None,
    doubled: bool,
) -> tuple[int, dict[int, tuple[int, int]]]:
    """The rank cap and the (diagonal, off-diagonal) entry caps at this rank
    of every basis element off e, as the module docstring derives them.

    mu ranges over the non-negative rows; when traces pins every basis
    element, over the constituents of largest |chi(sum b)| only.  doubled
    (the doubling generator acts as 2I) sets d = 3.  A mu with R < 1 at this
    rank adds no entry cap.
    """
    ring = table.ring
    d = 3 if doubled else 1
    sums = table._row_sums
    mus = table._nonnegative_rows
    if traces is not None and set(traces) == set(ring.labels):
        try:
            mults = _trace_multiplicities(table, [traces[label] for label in ring.labels])
        except DecompositionError:
            mults = (0,) * table.size
        magnitudes = table._abs_row_sums
        top = max((magnitudes[i] for i in range(table.size) if mults[i]), default=None)
        mus = [i for i in mus if mults[i] and sums[i] == top]
    caps = {b: (0, 0) for b in range(ring.size) if b != ring.identity}
    for i in mus:
        ratio = sums[i] - d - (rank - 2)
        if ratio >= 1:
            for b, (diagonal, off) in caps.items():
                mu = table.rows[i][b]
                caps[b] = (max(diagonal, math.floor(mu)), max(off, math.floor(mu * ratio)))
    return max((math.floor(sums[i]) - d + 1 for i in mus), default=0), caps


def _search_order(ring: BasedRing, rigid: int | None) -> list[int]:
    def key(b: int) -> tuple:
        support = sum(1 for v in ring.c[b][b] if v)
        return (0 if b == rigid else 1, support, b)

    return sorted(
        (b for b in range(ring.size) if b != ring.identity), key=key
    )


def _var_positions(rank: int) -> list[tuple[int, int]]:
    # diagonal first, then transpose pairs together: partner entries complete
    # the symmetric products in the diagonal equations as early as possible
    out = [(i, i) for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            out.append((i, j))
            out.append((j, i))
    return out


@lru_cache(maxsize=None)
def _relations(ring: BasedRing, rank: int, rigid: int | None) -> tuple:
    """The entries (b, i, j) in search order, their index, the product
    relations and, for each row transposition, the entry pairs it swaps and
    a sentinel pair past every entry.  Every search of this ring and rank
    with this doubling generator shares them.

    A relation is entry (i, j) of M_x M_y = sum_z c[x][y][z] M_z as (product
    entry pairs, rhs (coeff, entry) terms, const).  Products never touch the
    identity matrix (its relations hold trivially and are skipped), so both
    product operands are always entries; only the right-hand side can
    contribute the constant, via the identity basis element.
    """
    order = _search_order(ring, rigid)
    entries = tuple((b, i, j) for b in order for i, j in _var_positions(rank))
    vi = {var: k for k, var in enumerate(entries)}
    # rows[b][i], cols[b][j]: the entries of row i and of column j of M_b
    rows = {b: [[vi[(b, i, j)] for j in range(rank)] for i in range(rank)] for b in order}
    cols = {b: list(zip(*rows[b])) for b in order}
    equations = []
    for x in sorted(order):
        for y in sorted(order):
            unit = ring.c[x][y][ring.identity]
            support = [(c, rows[z]) for z, c in enumerate(ring.c[x][y]) if c and z in rows]
            for i in range(rank):
                for j in range(rank):
                    products = tuple(zip(rows[x][i], cols[y][j]))
                    rhs = tuple([(c, m[i][j]) for c, m in support])
                    equations.append((products, rhs, -unit if i == j else 0))
    swaps = []
    for a, c in combinations(range(rank), 2):
        t = list(range(rank))
        t[a], t[c] = c, a
        pairs = [(k, p) for k, (b, i, j) in enumerate(entries) if (p := rows[b][t[i]][t[j]]) > k]
        swaps.append((*pairs, (len(entries), len(entries))))
    return entries, vi, tuple(equations), tuple(swaps)


class _Search:
    """Bounded DFS over matrix entries with one propagation pass per step.

    Every unassigned entry carries an interval [lower, upper], starting at 0
    and its proven cap (capped at bound when bound is given) when caps are
    given, and at 0 and bound otherwise.  The equations are the product
    relations, compiled once per ring, rank and doubling generator
    (_relations), and, for each pinned trace off the identity, the linear
    equation that the diagonal sums to it.  run() checks every equation once,
    substitutes the entries that pass fixes (_fold), and starts the DFS,
    which tries each entry over its interval (0 or 2 on the doubling
    generator's diagonal under rigidity).  Each assignment checks the
    equations that mention the assigned entry, once each, in index order, in
    one inline pass (_propagate), and prunes at the first contradiction.  A
    check bounds the equation's value from both ends, to [lo, hi]: a product
    of two unknowns lies between the product of their lower and of their
    upper bounds, and a linear term c * v between c times either end.  Every
    linear unknown then gets both ends tightened to what the rest of the
    equation leaves, over the integers; an empty interval is a contradiction.
    Neither happens to an unknown whose term spans at most min(hi, -lo), so
    a check whose widest term spans no more skips that step (7,005 of the
    classify workload's 10,311 checks).  Tightened bounds are used by the
    equations checked later in the same pass and are restored on
    backtracking; nothing is re-queued.

    With symmetry_break, only lex-leaders under row transpositions are kept
    (Crawford, Ginsberg, Luks & Roy, *Symmetry-breaking predicates for
    search problems*): read in variable order, the assignment must be
    lexicographically >= its image under every t = (a c), which sends entry
    (b, i, j) to (b, t(i), t(j)), rows and columns alike.  Each t walks the
    entry pairs (k, p), k < p, that it swaps: while every earlier pair is
    equal, v_p <= v_k bounds v_p, and the first unequal pair settles t.
    The equations, caps, rigidity domain and traces are invariant under
    simultaneous permutation, so the lex-largest member of every orbit
    satisfies them and is never cut: the break is sound for any set of
    permutations, and it subsumes a non-increasing first diagonal.
    """

    def __init__(
        self,
        ring: BasedRing,
        rank: int,
        bound: int | None,
        caps: Mapping[int, tuple[int, int]] | None,
        traces: Mapping[str, int] | None,
        rigid_constrained: int | None,
        symmetry_break: bool = False,
    ) -> None:
        self.ring = ring
        self.rank = rank
        self.rigid = rigid_constrained
        self.e = ring.identity
        self.vars, self.var_index, relations, swaps = _relations(ring, rank, rigid_constrained)
        # lex_pairs[t]: the entry pairs (k, p), k < p, that t = (a c) swaps,
        # then the sentinel; lex_front[t]: its first pair not known equal (the
        # sentinel once settled)
        self.lex_pairs: tuple[tuple[tuple[int, int], ...], ...] = swaps if symmetry_break else ()
        self.lex_front = [0] * len(self.lex_pairs)
        self.values: list[int | None] = [None] * len(self.vars)
        self.lower = [0] * len(self.vars)
        self.upper: list[int] = []
        # flag_at[k]: the value of entry k that sets bound_exhausted, i.e. its
        # limit when that limit is not a proven cap
        self.flag_at: list[int | None] = []
        for b, i, j in self.vars:
            if b == rigid_constrained:
                self.upper.append(2 if i == j else 0)
                self.flag_at.append(None)
            elif caps is not None and (bound is None or caps[b][i != j] <= bound):
                self.upper.append(caps[b][i != j])
                self.flag_at.append(None)
            else:
                self.upper.append(bound)
                self.flag_at.append(bound)
        self.bound = max(
            (u for u, (b, _, _) in zip(self.upper, self.vars) if b != rigid_constrained),
            default=0,
        )
        self.equations = list(relations)
        for label, target in (traces or {}).items():
            b = ring.index(label)
            if b != self.e:
                diagonal = tuple((-1, self.var_index[(b, k, k)]) for k in range(rank))
                self.equations.append(((), diagonal, -target))
        self.solutions: list[MatrixModule] = []
        self.bound_exhausted = False

    def _propagate(self, seed: Iterable[tuple]) -> bool:
        """Check the seed equations in one pass, tightening bounds in place;
        False at the first contradiction."""
        values = self.values
        lower = self.lower
        upper = self.upper
        for products, rhs, const in seed:
            # equation: const + sum(c_k * v_k) + (bilinear products) == 0;
            # its left side lies in [lo, hi]
            lo = hi = 0  # range of the products of two unknowns
            lin: dict[int, int] = {}
            for ka, kb in products:
                av = values[ka]
                bv = values[kb]
                if av is None:
                    if bv is None:
                        lo += lower[ka] * lower[kb]
                        hi += upper[ka] * upper[kb]
                    elif bv:
                        lin[ka] = lin.get(ka, 0) + bv
                elif bv is None:
                    if av:
                        lin[kb] = lin.get(kb, 0) + av
                else:
                    const += av * bv
            for coeff, k in rhs:
                v = values[k]
                if v is not None:
                    const -= coeff * v
                else:
                    lin[k] = lin.get(k, 0) - coeff
            lo += const
            hi += const
            widest = 0  # the widest span |c| * (v_hi - v_lo) of a linear term
            for k, c in lin.items():
                if c > 0:
                    least = c * lower[k]
                    most = c * upper[k]
                elif c < 0:
                    least = c * upper[k]
                    most = c * lower[k]
                else:
                    continue
                lo += least
                hi += most
                if most - least > widest:
                    widest = most - least
            if lo > 0 or hi < 0:
                return False
            if widest <= hi and widest <= -lo:
                continue  # no end can move
            for k, c in lin.items():
                # the other terms lie in [lo - c*v_lo, hi - c*v_hi] (ends
                # swapped for c < 0) and sum to -c*v_k
                if c > 0:
                    top = lower[k] + -lo // c
                    bottom = upper[k] - hi // c
                elif c < 0:
                    top = lower[k] + hi // -c
                    bottom = upper[k] - -lo // -c
                else:
                    continue
                if bottom > top:
                    return False
                if top < upper[k]:
                    upper[k] = top
                if bottom > lower[k]:
                    lower[k] = bottom
        return True

    def run(self) -> None:
        if self._propagate(self.equations) and self._fold():
            self._assign(0)

    def _fold(self) -> bool:
        """Substitute every entry whose bounds meet into the equations as a
        constant, merge like terms, drop the equations left as 0 = 0 and
        index the rest by entry; False when one is left as a non-zero
        constant."""
        fixed = [lo if lo == hi else None for lo, hi in zip(self.lower, self.upper)]
        kept = []
        self.eqs_by_var: list[list[tuple]] = [[] for _ in self.vars]
        for products, rhs, const in self.equations:
            pairs = []
            lin: dict[int, int] = {}  # net coefficient of each linear unknown
            for ka, kb in products:
                fa, fb = fixed[ka], fixed[kb]
                if fa is None:
                    if fb is None:
                        pairs.append((ka, kb))
                    else:
                        lin[ka] = lin.get(ka, 0) + fb
                elif fb is None:
                    lin[kb] = lin.get(kb, 0) + fa
                else:
                    const += fa * fb
            for coeff, k in rhs:
                if fixed[k] is None:
                    lin[k] = lin.get(k, 0) - coeff
                else:
                    const -= coeff * fixed[k]
            terms = tuple((-c, k) for k, c in lin.items() if c)
            if pairs or terms:
                kept.append((tuple(pairs), terms, const))
                for k in {k for _, k in terms}.union(*pairs):
                    self.eqs_by_var[k].append(kept[-1])
            elif const:
                return False
        self.equations = kept
        return True

    def _assign(self, k: int) -> None:
        if k == len(self.vars):
            self._emit()
            return
        b, i, j = self.vars[k]
        values = self.values
        lower = self.lower
        upper = self.upper
        fronts = self.lex_front
        saved_lower = lower[:]
        saved_upper = upper[:]
        saved_fronts = fronts[:]
        seed = self.eqs_by_var[k]
        domain: Iterable[int] = range(lower[k], upper[k] + 1)
        if b == self.rigid and i == j:
            domain = [v for v in (0, 2) if v in domain]
        for value in domain:
            values[k] = value
            if self._lex_ok(k) and self._propagate(seed):
                if value == self.flag_at[k]:
                    self.bound_exhausted = True
                self._assign(k + 1)
            lower[:] = saved_lower
            upper[:] = saved_upper
            fronts[:] = saved_fronts
        values[k] = None

    def _lex_ok(self, k: int) -> bool:
        """Move every lex frontier past the pairs that entry k completes;
        False when some transposition's image is now lexicographically
        larger.  A frontier left at a pair (m, p) with v_m set bounds v_p."""
        if not self.lex_pairs:
            return True
        values = self.values
        upper = self.upper
        fronts = self.lex_front
        for t, pairs in enumerate(self.lex_pairs):
            front = fronts[t]
            m, p = pairs[front]
            while p <= k:
                if values[m] == values[p]:
                    front += 1
                elif values[m] < values[p]:
                    return False
                else:
                    front = len(pairs) - 1  # settled at the sentinel: the assignment is larger
                m, p = pairs[front]
            fronts[t] = front
            if m <= k and values[m] < upper[p]:
                upper[p] = values[m]
        return True

    def _emit(self) -> None:
        rank = self.rank
        mats = {
            b: tuple(
                tuple(self.values[self.var_index[(b, i, j)]] for j in range(rank))
                for i in range(rank)
            )
            for b in range(self.ring.size)
            if b != self.e
        }
        self.solutions.append(module_from_mats(self.ring, rank, mats))


def _check_range(rank: int | None, bound: int | None, max_rank: int | None = None) -> None:
    """Refuse a rank or max_rank below 1, a negative bound, and any of them
    that is not an int (bool included); None passes."""
    for name, value, least in (("rank", rank, 1), ("bound", bound, 0), ("max rank", max_rank, 1)):
        if value is not None and type(value) is not int:
            raise ClassifierError(f"{name} must be an int, got {value!r}")
        if value is not None and value < least:
            raise ClassifierError(f"{name} must be at least {least}, got {value}")


def solve_matrix_modules(
    ring: BasedRing,
    rank: int,
    *,
    rigid: bool = False,
    bound: int | None = None,
    traces: Mapping[str, int] | None = None,
    dedupe: bool = True,
) -> SearchOutcome:
    """All transitive matrix modules of the given rank, canonical and deduped.

    rigid keeps only the s-rigid ones: the doubling generator acts
    diagonally with entries 0 or 2.  traces, when given, pin the trace of
    every listed basis element exactly (the per-profile trace budget).
    Every entry is limited by its proven cap (_perron_limits), and by bound
    too when bound is given.  A ring without an exact character table has
    no caps and needs a bound.
    The outcome records whether any consistent branch pressed against a
    limit that is not a proven cap.  A rank below 1, a negative bound, a
    rank, bound or trace that is not an int, and a rigid that is not a bool
    raise ClassifierError.
    """
    _check_range(rank, bound)
    _check_rigid(rigid)
    unknown = sorted(set(traces or ()) - set(ring.labels))
    if unknown:
        raise ClassifierError(f"traces name no basis element of the ring: {unknown}")
    if any(type(t) is not int for t in (traces or {}).values()):
        raise ClassifierError(f"traces must be ints, got {dict(traces)}")
    rigid_constrained = _required_rigid_generator(ring) if rigid else None
    try:
        table = character_table(ring)
    except CharacterError as exc:
        if bound is None:
            raise ClassifierError(f"{exc}; an explicit bound is needed") from exc
        caps = None
    else:
        g = rigid_generator(ring)
        doubled = g is not None and (traces or {}).get(ring.labels[g]) == 2 * rank
        caps = _perron_limits(table, rank, traces, doubled)[1]
    # the lex-leader symmetry break keeps one member of each orbit under
    # row and column permutations, so it is only safe when the caller wants
    # canonical deduped classes anyway
    search = _Search(
        ring, rank, bound, caps, traces, rigid_constrained, symmetry_break=dedupe
    )
    search.run()
    kept = [  # every module re-checked independently of the search
        module for module in search.solutions
        if all(module.trace(label) == t for label, t in (traces or {}).items())
        and _admitted(ring, module, rigid)
    ]
    if dedupe:
        seen: dict[tuple, MatrixModule] = {}
        for module in kept:
            canon = canonical_module(module)
            seen.setdefault(canon.key(), canon)
        kept = list(seen.values())
    kept.sort(key=lambda m: m.key())
    return SearchOutcome(
        tuple(kept),
        search.bound,
        search.bound_exhausted,
        caps is not None and all(f is None for f in search.flag_at),
    )


# -- independent naive enumerator -------------------------------------------------


def _oracle_equations(
    ring: BasedRing, rank: int, index: Mapping[tuple[int, int, int], int]
) -> dict[tuple[int, int, int, int], tuple[tuple[int, int, int], ...]]:
    """Entry (i, j) of M_x M_y - sum_z c[x][y][z] M_z for every x, y != e.

    Each equation is a tuple of terms (c, u, v) meaning c * values[u] *
    values[v], where values[index[(b, i, j)]] is entry (i, j) of M_b and
    values[len(index)] holds 1.  The relations with x = e or y = e read
    M_y - M_y = 0 and are left out, so the identity enters only through
    z = e on the diagonal.
    """
    one = len(index)
    others = [b for b in range(ring.size) if b != ring.identity]
    equations = {}
    for x, y, i, j in iproduct(others, others, range(rank), range(rank)):
        terms = [(1, index[(x, i, p)], index[(y, p, j)]) for p in range(rank)]
        for z, coeff in enumerate(ring.c[x][y]):
            if coeff and z != ring.identity:
                terms.append((-coeff, index[(z, i, j)], one))
            elif coeff and i == j:
                terms.append((-coeff, one, one))
        equations[(x, y, i, j)] = tuple(terms)
    return equations


def bruteforce_matrix_modules(
    ring: BasedRing,
    rank: int,
    bound: int,
    *,
    rigid: bool = False,
) -> tuple[MatrixModule, ...]:
    """Exhaustive entry-by-entry generate-and-test with no pruning (oracle).

    The entries of the non-identity matrices are assigned one at a time, in
    the search's basis order and row-major within each matrix, each over
    0..bound; when rigid (s-rigidity), the doubling generator's diagonal
    entries range over {0, 2} and its other entries are 0.  Entry (i, j) of
    every relation M_x M_y = sum_z c[x][y][z] M_z with x, y != e is one equation
    (_oracle_equations; the relations through e hold identically), attached
    to the last of its entries in assignment order, k.  Once per node its
    terms that do not read k are summed into a0, and the coefficient of k in
    those that read it once into a1; a value v of k is kept when
    a0 + (a1 + a2*v)*v == 0, a2 the coefficient of k*k, for every equation
    attached to k.  When one is linear in k (a2 == 0, a1 != 0), only
    v = -a0/a1 can solve it, so that value alone is tried if it is an
    integer in k's domain.  Nothing is bounded or capped, and the
    enumeration is complete up to the bound.  Leaves are tested for
    transitivity and, when rigid, s-rigidity, and deduped by canonical form.
    Intended for small ranks and bounds as an independent cross-check of
    the pruned search.  With no caps of its own, it refuses a bound of None.
    """
    _check_range(rank, bound)
    _check_rigid(rigid)
    if bound is None:
        raise ClassifierError("the naive enumerator has no caps; it needs an explicit bound")
    g = _required_rigid_generator(ring) if rigid else None
    order = _search_order(ring, g)
    cells = [(b, i, j) for b in order for i in range(rank) for j in range(rank)]
    index = {cell: k for k, cell in enumerate(cells)}
    domains = [
        ((0, 2) if i == j else (0,)) if b == g else range(bound + 1)
        for b, i, j in cells
    ]
    # every entry, then a fixed slot holding 1 for the identity's diagonal
    values = [0] * len(cells) + [1]

    # checks[k]: the equations whose last entry is k, as their terms that do
    # not read k, (coefficient, other entry) of those that read k once, and a2
    checks: list[list[tuple[list, list, int]]] = [[] for _ in cells]
    for terms in _oracle_equations(ring, rank, index).values():
        last = max(k for _, u, v in terms for k in (u, v) if k < len(cells))
        checks[last].append((
            [(c, u, v) for c, u, v in terms if last not in (u, v)],
            [(c, v if u == last else u) for c, u, v in terms if (u == last) != (v == last)],
            sum(c for c, u, v in terms if u == v == last),
        ))

    results: dict[tuple, MatrixModule] = {}

    def assign(k: int) -> None:
        if k == len(cells):
            mats = {
                b: tuple(
                    tuple(values[index[(b, i, j)]] for j in range(rank))
                    for i in range(rank)
                )
                for b in order
            }
            module = module_from_mats(ring, rank, mats)
            if not is_transitive(module):
                return
            if rigid and not _rigidity_holds(ring, module):
                return
            canon = canonical_module(module)
            results.setdefault(canon.key(), canon)
            return
        parts = []
        for fixed, once, a2 in checks[k]:
            a0 = a1 = 0
            for c, u, v in fixed:
                a0 += c * values[u] * values[v]
            for c, u in once:
                a1 += c * values[u]
            parts.append((a0, a1, a2))
        values_k = domains[k]
        for a0, a1, a2 in parts:
            if a1 and not a2:  # a0 + a1*v == 0 leaves v = -a0/a1 alone
                value, rest = divmod(-a0, a1)
                values_k = (value,) if not rest and value in values_k else ()
                break
        for value in values_k:
            for a0, a1, a2 in parts:
                if a0 + (a1 + a2 * value) * value:
                    break
            else:
                values[k] = value
                assign(k + 1)

    assign(0)
    return tuple(sorted(results.values(), key=lambda m: m.key()))


# -- classification of the named rings ----------------------------------------------


_NOTE_ZERO = (
    "the rank-one action where every non-identity basis element acts by zero "
    "(the quotient onto the identity cell)"
)
_NOTE_TOP_CELL = (
    "the decategorified cell construction attached to the top two-sided cell"
)
_NOTE_EXTRA = (
    "an additional rank-one construction (an involution/orbit quotient of the "
    "top cell action), beyond the cell ones"
)
_NOTE_EXCL_SELF_EXT = (
    "no simple transitive realization: a categorical lift would force "
    "simultaneous self-extensions of both simple objects"
)
_NOTE_EXCL_SPLIT = (
    "no simple transitive realization: the multiplicity-one constituent of the "
    "lifted image would have to split off, contradicting indecomposability "
    "under doubling"
)
_NOTE_EXCL_SWAP = (
    "no simple transitive realization: the lift would send one simple object "
    "onto the other and doubling then contradicts indecomposability"
)
_NOTE_UNRESOLVED = "no classification data is bundled for this candidate"
_NOTE_FAILS_RIGIDITY = (
    "fails s-rigidity: a faithful simple transitive action makes the doubling "
    "generator act diagonally with entries 0 or 2"
)

# keys are (rank, flattened non-identity matrices in basis order); the zero
# and ideal modules are left out, as classify derives their status
ANNOTATIONS: dict[str, dict[tuple, tuple[str, str]]] = {
    "Q4": {
        (1, ((2,), (2,))): ("realized-extra", _NOTE_EXTRA),
        (2, ((2, 0, 0, 2), (0, 1, 4, 0))): ("excluded", _NOTE_EXCL_SWAP),
    },
    "Q5": {
        (2, ((2, 0, 0, 2), (1, 1, 5, 1))): ("excluded", _NOTE_EXCL_SELF_EXT),
        (2, ((2, 0, 0, 2), (0, 4, 1, 2))): ("excluded", _NOTE_EXCL_SPLIT),
        (2, ((2, 0, 0, 2), (0, 1, 4, 2))): ("excluded", _NOTE_EXCL_SWAP),
    },
}

# candidate keys a default classify run must reproduce exactly (regression guard)
EXPECTED_CANDIDATES: dict[str, tuple[tuple, ...]] = {
    "Q3": (
        (1, ((0,),)),
        (1, ((2,),)),
    ),
    "Q4": (
        (1, ((0,), (0,))),
        (1, ((2,), (2,))),
        (2, ((2, 0, 0, 2), (0, 1, 4, 0))),
        (2, ((2, 0, 0, 2), (0, 2, 2, 0))),
    ),
    "Q5": (
        (1, ((0,), (0,))),
        (2, ((2, 0, 0, 2), (0, 1, 4, 2))),
        (2, ((2, 0, 0, 2), (0, 2, 2, 2))),
        (2, ((2, 0, 0, 2), (0, 4, 1, 2))),
        (2, ((2, 0, 0, 2), (1, 1, 5, 1))),
    ),
}

REALIZED_COUNTS = {"Q3": 2, "Q4": 3, "Q5": 2}


def bundled_ring(name: str) -> BasedRing:
    """The ring Q_n named "Q<n>", n >= 3, spelled as the constructor names
    it: n in plain decimal with no sign, leading zero, underscore or space
    ("Q05", "Q+5", "Q5_0", " Q5" and "q5" are refused).  Any other name
    raises ClassifierError, as does a name that is not a str."""
    try:
        n = int(name[1:])
    except (TypeError, ValueError):  # not a string, or no decimal after its first letter
        n = 0
    if n < 3 or f"Q{n}" != name:
        raise ClassifierError(f"unknown ring name {name!r}; named rings are Q<n>, n >= 3")
    return subquotient_qn(n)


def _ideal_module(ring: BasedRing) -> MatrixModule:
    """The ring acting on its own non-identity span: M_x[z][y] = c[x][y][z]
    for x, y, z != e, so column y of M_x is the product x*y off e."""
    others = [b for b in range(ring.size) if b != ring.identity]
    mats = {x: tuple(tuple(ring.c[x][y][z] for y in others) for z in others) for x in others}
    return module_from_mats(ring, len(others), mats)


class Candidate(NamedTuple):
    """One classified module, a named tuple: its character multiplicities
    (None when it has no decomposition), its status and the note citing it."""

    module: MatrixModule
    multiplicities: tuple[int, ...] | None
    status: str  # realized-cell | realized-extra | excluded | unresolved
    note: str

    @property
    def realized(self) -> bool:
        return self.status.startswith("realized")


class ClassificationReport(NamedTuple):
    """The outcome of classify, a named tuple: the screened profiles, whether
    s-rigidity was applied, the search bound and every candidate, annotated."""

    ring_id: str
    ring: BasedRing
    profiles: tuple[tuple[int, ...], ...]
    rigid: bool
    bound: int
    bound_exhausted: bool
    candidates: tuple[Candidate, ...]
    matches_expected: bool | None
    complete: bool  # every screened profile up to the rank cap searched under its proven caps alone

    @property
    def realized(self) -> tuple[Candidate, ...]:
        return tuple(c for c in self.candidates if c.realized)


def classify(
    ring: str | BasedRing,
    *,
    rigid: bool = True,
    rank: int | None = None,
    bound: int | None = None,
    max_rank: int | None = None,
) -> ClassificationReport:
    """End-to-end candidate classification for one ring.

    ring is a name bundled_ring accepts or a BasedRing, reported as "custom"
    and left unannotated.  Every candidate is transitive; rigid (the
    default) also demands s-rigidity.  Every run takes the same three steps.
    It screens the rank profiles up to the rank cap, or up to max_rank when
    that is lower: the faithful profiles when rigid, every profile with
    non-negative traces otherwise (raw), each screen to its own Perron cap.
    It searches each profile, or with rank only those of that rank, with
    its exact trace budget.  It then prepends the rank-one zero module (the
    one transitive non-faithful candidate, which the s-rigid screen leaves
    out) only when rank is None or 1, the zero module is a module and, when
    rigid, it is s-rigid, as every searched module must be.  It annotates
    every candidate of a named ring: the zero module and the ideal module
    are realized-cell by rule (see the module docstring), the others take
    the bundled status data.
    The ideal module has rank size - 1, and its canonical form is built only
    when some candidate has that rank.  The regression check against the
    bundled candidates applies to a complete rigid run.  A ring without a
    full character table (non-commutative, not split semisimple, or neither
    a Q_n nor quadratic) raises ClassifierError, as do a rank or max_rank
    below 1, a rank above max_rank, a negative bound, any of the three that
    is not an int, and a rigid that is not a bool.
    """
    _check_range(rank, bound, max_rank)
    _check_rigid(rigid)
    if rank is not None and max_rank is not None and rank > max_rank:
        raise ClassifierError(f"rank {rank} exceeds max_rank {max_rank}")
    named = not isinstance(ring, BasedRing)
    ring_id, ring = (ring, bundled_ring(ring)) if named else ("custom", ring)
    try:
        table = character_table(ring)  # the table the caps and the screen read
    except CharacterError as exc:  # the ring is outside what the search supports
        raise ClassifierError(str(exc)) from exc
    # a rigid run needs the doubling generator even when no profile is searched
    g = _required_rigid_generator(ring) if rigid else None
    rank_cap = _perron_limits(table, 1, None, g is not None)[0]
    limit = rank_cap if max_rank is None else min(max_rank, rank_cap)
    profiles = feasible_rank_profiles(table, faithful=rigid, max_rank=limit)
    if rank is not None:
        profiles = tuple(p for p in profiles if sum(p) == rank)

    found: dict[tuple, MatrixModule] = {}
    # the one transitive non-faithful candidate, always rank one
    zero = canonical_module(trivial_module(ring))
    if rank in (None, 1) and _admitted(ring, zero, rigid):
        found[zero.key()] = zero
    outcomes = [
        solve_matrix_modules(
            ring, sum(p), rigid=rigid, bound=bound, traces=profile_traces(table, p)
        )
        for p in profiles
    ]
    for outcome in outcomes:
        for module in outcome.modules:
            found.setdefault(module.key(), module)

    # one rule per cell: the key of each cell module -> its note
    cells = {zero.key(): _NOTE_ZERO}
    if named and any(r == ring.size - 1 for r, _ in found):
        cells[canonical_module(_ideal_module(ring)).key()] = _NOTE_TOP_CELL
    annotations = ANNOTATIONS.get(ring_id, {})
    candidates = []
    for key in sorted(found):
        module = found[key]
        try:
            mults: tuple[int, ...] | None = decompose(table, module)
        except DecompositionError:
            mults = None
        if not named:
            status, note = "unresolved", "custom ring: no annotation data"
        elif key in cells:
            status, note = "realized-cell", cells[key]
        elif key in annotations:
            status, note = annotations[key]
        elif not _rigidity_holds(ring, module):
            # classified rings: rigidity failures are genuine exclusions;
            # for the other named rings they stay unresolved but say why
            settled = ring_id in REALIZED_COUNTS
            status = "excluded" if settled else "unresolved"
            note = _NOTE_FAILS_RIGIDITY
        else:
            status, note = "unresolved", _NOTE_UNRESOLVED
        candidates.append(Candidate(module, mults, status, note))

    # the one completeness verdict: every profile up to the rank cap searched
    # with its trace budget, each search under its proven caps alone
    complete = rank is None and limit == rank_cap and all(o.complete for o in outcomes)
    matches: bool | None = None
    if ring_id in EXPECTED_CANDIDATES and complete and rigid:
        matches = tuple(sorted(found)) == EXPECTED_CANDIDATES[ring_id]

    return ClassificationReport(
        ring_id,
        ring,
        profiles,
        rigid,
        max((o.bound for o in outcomes), default=0),
        any(o.bound_exhausted for o in outcomes),
        tuple(candidates),
        matches,
        complete,
    )
