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
every emitted module is re-verified by full matrix multiplication and its
traces afterwards.  A naive enumerator with none of that machinery doubles
as an independent oracle: it assigns the same entries one at a time over the
whole range and evaluates each entry of each product relation exactly once,
as soon as the last entry it reads is set.

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

Candidates for the bundled rings are annotated with their status in the
classification of simple transitive actions: which ones are realized by cell
constructions, which are realized by an extra construction, and which are
excluded by categorical arguments that an integer search cannot reproduce.
Those exclusions are data, not derivations, and the notes say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from itertools import product as iproduct
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

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
    "named_filters",
    "feasible_rank_profiles",
    "solve_matrix_modules",
    "bruteforce_matrix_modules",
    "bundled_ring",
    "classify",
    "BUNDLED_RING_IDS",
    "ANNOTATIONS",
    "EXPECTED_CANDIDATES",
    "REALIZED_COUNTS",
]

class ClassifierError(ValueError):
    pass


# -- filters -------------------------------------------------------------------


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


def _is_faithful(ring: BasedRing, module: MatrixModule) -> bool:
    zero = tuple((0,) * module.rank for _ in range(module.rank))
    return any(
        module.mats[b] != zero for b in range(ring.size) if b != ring.identity
    )


def _special_mult_one(ring: BasedRing, module: MatrixModule) -> bool:
    table = character_table(ring)
    try:
        mults = decompose(table, module)
    except DecompositionError:
        return False
    return mults[special_character(table)] == 1


# name -> (description, the check every candidate must pass).  Transitivity
# has no check here: every search tests it anyway.  s-rigidity also confines
# the search domain of the doubling generator's matrix.
_FILTERS: dict[str, tuple[str, Callable[[BasedRing, MatrixModule], bool] | None]] = {
    "transitive": (
        "every matrix position is hit by a positive entry (always applied)",
        None,
    ),
    "s-rigidity": (
        "the doubling generator acts diagonally with entries 0 or 2",
        _rigidity_holds,
    ),
    "faithful": (
        "some non-identity basis element acts by a non-zero matrix",
        _is_faithful,
    ),
    "special-mult-one": (
        "the trace decomposition exists and gives the special character "
        "multiplicity one",
        _special_mult_one,
    ),
}


def named_filters() -> dict[str, str]:
    """The available candidate filters, name -> description."""
    return {name: description for name, (description, _) in _FILTERS.items()}


def _resolve_filters(filters: Iterable[str]) -> list[str]:
    names = list(filters)
    for name in names:
        if not isinstance(name, str) or name not in _FILTERS:
            raise ClassifierError(
                f"unknown filter {name!r}; available: {sorted(_FILTERS)}"
            )
    return names


def _passes(ring: BasedRing, module: MatrixModule, names: Iterable[str]) -> bool:
    """Whether module passes the check of every named filter."""
    checks = (_FILTERS[name][1] for name in names)
    return all(check(ring, module) for check in checks if check is not None)


# -- rank screening -------------------------------------------------------------


def _exact_trace(table: CharacterTable, profile: Sequence[int], b: int) -> int | None:
    """sum_i profile[i] chi_i(b) when it is an integer, else None, summed on
    the table's integer columns: every irrational coordinate must cancel to
    0 and the denominator divide the rational one."""
    _, den, columns = table._columns
    rational, *irrational = [sum(map(mul, profile, coords)) for coords in columns[b]]
    if rational % den or any(irrational):
        return None
    return rational // den


def feasible_rank_profiles(
    table: CharacterTable, faithful: bool, max_rank: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Multiplicity vectors of rank at most max_rank whose trace data a
    candidate module could carry; max_rank defaults to the rank cap.

    Every profile must give each basis element a non-negative integer trace
    (irrational parts have to cancel through conjugate pairing, checked by
    exact arithmetic).  Faithful profiles additionally carry the special
    character exactly once, act non-trivially somewhere off the identity, and
    give the doubling generator trace 2*rank: a faithful transitive action
    forces every diagonal entry of that generator's matrix to be 2 rather
    than 0, since a 0 there would zero out a whole row of the positive
    total-action matrix.
    """
    ring = table.ring
    size = ring.size
    special = special_character(table) if faithful else None
    rigid = rigid_generator(ring)
    if max_rank is None:
        max_rank = _perron_limits(table, 1, None, faithful and rigid is not None)[0]
    profiles = []
    for rank in range(1, max_rank + 1):
        for picks in combinations_with_replacement(range(size), rank):
            m = tuple(picks.count(i) for i in range(size))
            if special is not None and m[special] != 1:
                continue
            if faithful and rigid is not None and _exact_trace(table, m, rigid) != 2 * rank:
                continue
            traces = []
            for b in range(size):
                value = _exact_trace(table, m, b)
                if value is None or value < 0:
                    break
                traces.append(value)
            if len(traces) < size:
                continue
            if faithful and all(traces[b] == 0 for b in range(size) if b != ring.identity):
                continue
            profiles.append(m)
    profiles.sort(key=lambda m: (sum(m), m))
    return tuple(profiles)


def profile_traces(table: CharacterTable, profile: Sequence[int]) -> dict[str, int]:
    """Exact integer trace of every basis element under a rank profile."""
    out = {}
    for b, label in enumerate(table.ring.labels):
        value = _exact_trace(table, profile, b)
        if value is None:
            raise ClassifierError(
                f"profile {profile} has non-integral trace at {label}"
            )
        out[label] = value
    return out


# -- the bounded search ----------------------------------------------------------


@dataclass(frozen=True)
class SearchOutcome:
    """Solutions of one bounded search plus its completeness bookkeeping.

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


class _Search:
    """Bounded DFS over matrix entries with one propagation pass per step.

    Every unassigned entry carries an interval [lower, upper], starting at 0
    and its proven cap (capped at bound when bound is given) when caps are
    given, and at 0 and bound otherwise.  The equations are the product
    relations and, for each pinned trace off the identity, the linear
    equation that the diagonal sums to it.  run() checks every equation once,
    substitutes the entries that pass fixes (_fold), and starts the DFS,
    which tries each entry over its interval (0 or 2 on the doubling
    generator's diagonal under rigidity).  Each assignment checks the
    equations that mention the assigned entry, once each, in index order, and
    prunes at the first contradiction.  A check bounds the equation's value
    from both ends: a product of two unknowns lies between the product of
    their lower and of their upper bounds, and a linear term c * v between c
    times either end.  Every linear unknown then gets both ends tightened to
    what the rest of the equation leaves, over the integers; an empty
    interval is a contradiction.  Tightened bounds are used by the equations
    checked later in the same pass and are restored on backtracking; nothing
    is re-queued.

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
        order = _search_order(ring, rigid_constrained)
        self.vars: list[tuple[int, int, int]] = [
            (b, i, j) for b in order for i, j in _var_positions(rank)
        ]
        self.var_index = {var: k for k, var in enumerate(self.vars)}
        # lex_pairs[t]: the entry pairs (k, p), k < p, that t = (a c) swaps;
        # lex_front[t]: its first pair not known equal (the end once settled)
        self.lex_pairs: list[list[tuple[int, int]]] = []
        if symmetry_break:
            for a in range(rank):
                for c in range(a + 1, rank):
                    swap = {a: c, c: a}
                    pairs = []
                    for k, (b, i, j) in enumerate(self.vars):
                        p = self.var_index[(b, swap.get(i, i), swap.get(j, j))]
                        if p > k:
                            pairs.append((k, p))
                    self.lex_pairs.append(pairs)
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
        self.equations = self._compile_equations()
        for label, target in (traces or {}).items():
            b = ring.index(label)
            if b != self.e:
                diagonal = tuple((-1, self.var_index[(b, k, k)]) for k in range(rank))
                self.equations.append(((), diagonal, -target))
        self.solutions: list[MatrixModule] = []
        self.bound_exhausted = False

    def _compile_equations(self) -> list[tuple]:
        """Each equation is (product var pairs, rhs (coeff, var) terms, const).

        Products never touch the identity matrix (identity rows of the table
        hold trivially and are skipped), so both product operands are always
        variables; only the right-hand side can contribute the constant via
        the identity basis element.
        """
        equations = []
        size = self.ring.size
        vi = self.var_index
        for x in range(size):
            if x == self.e:
                continue
            for y in range(size):
                if y == self.e:
                    continue
                support = [
                    (self.ring.c[x][y][z], z)
                    for z in range(size)
                    if self.ring.c[x][y][z]
                ]
                for i in range(self.rank):
                    for j in range(self.rank):
                        products = tuple(
                            (vi[(x, i, p)], vi[(y, p, j)]) for p in range(self.rank)
                        )
                        const = 0
                        rhs = []
                        for coeff, z in support:
                            if z == self.e:
                                const -= coeff * (1 if i == j else 0)
                            else:
                                rhs.append((coeff, vi[(z, i, j)]))
                        equations.append((products, tuple(rhs), const))
        return equations

    def _index_equations(self) -> list[list[int]]:
        by_var: list[list[int]] = [[] for _ in self.vars]
        for idx, (products, rhs, _) in enumerate(self.equations):
            touched = set()
            for a, b in products:
                touched.add(a)
                touched.add(b)
            for _, k in rhs:
                touched.add(k)
            for k in touched:
                by_var[k].append(idx)
        return by_var

    def _check_equation(self, idx: int) -> bool:
        """Check one equation against the current bounds, tightening both
        ends of its linear unknowns in place; False on contradiction."""
        products, rhs, const = self.equations[idx]
        values = self.values
        lower = self.lower
        upper = self.upper
        # equation: const + sum(c_k * v_k) + (bilinear products) == 0; its
        # left side lies in [lo, hi]
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
        for k, c in lin.items():
            if c > 0:
                lo += c * lower[k]
                hi += c * upper[k]
            elif c < 0:
                lo += c * upper[k]
                hi += c * lower[k]
        if lo > 0 or hi < 0:
            return False
        for k, c in lin.items():
            # the other terms lie in [lo - c*v_lo, hi - c*v_hi] (ends swapped
            # for c < 0) and sum to -c*v_k
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

    def _propagate(self, seed: Iterable[int]) -> bool:
        """One pass over the seed equations; False at the first contradiction."""
        return all(self._check_equation(idx) for idx in seed)

    def run(self) -> None:
        if self._propagate(range(len(self.equations))) and self._fold():
            self._assign(0)

    def _fold(self) -> bool:
        """Substitute every entry whose bounds meet into the equations as a
        constant, merge like terms and drop the equations left as 0 = 0;
        False when one is left as a non-zero constant."""
        fixed = {
            k: lo for k, (lo, hi) in enumerate(zip(self.lower, self.upper)) if lo == hi
        }
        kept = []
        for products, rhs, const in self.equations:
            pairs = []
            lin: dict[int, int] = {}  # net coefficient of each linear unknown
            for ka, kb in products:
                if ka in fixed and kb in fixed:
                    const += fixed[ka] * fixed[kb]
                elif ka in fixed:
                    lin[kb] = lin.get(kb, 0) + fixed[ka]
                elif kb in fixed:
                    lin[ka] = lin.get(ka, 0) + fixed[kb]
                else:
                    pairs.append((ka, kb))
            for coeff, k in rhs:
                if k in fixed:
                    const -= coeff * fixed[k]
                else:
                    lin[k] = lin.get(k, 0) - coeff
            terms = tuple((-c, k) for k, c in lin.items() if c)
            if pairs or terms:
                kept.append((tuple(pairs), terms, const))
            elif const:
                return False
        self.equations = kept
        self.eqs_by_var = self._index_equations()
        return True

    def _assign(self, k: int) -> None:
        if k == len(self.vars):
            self._emit()
            return
        b, i, j = self.vars[k]
        saved_lower = list(self.lower)
        saved_upper = list(self.upper)
        saved_front = list(self.lex_front)
        domain: Iterable[int] = range(self.lower[k], self.upper[k] + 1)
        if b == self.rigid and i == j:
            domain = [v for v in (0, 2) if v in domain]
        for value in domain:
            self.values[k] = value
            if self._lex_ok(k) and self._propagate(self.eqs_by_var[k]):
                if value == self.flag_at[k]:
                    self.bound_exhausted = True
                self._assign(k + 1)
            self.lower[:] = saved_lower
            self.upper[:] = saved_upper
            self.lex_front[:] = saved_front
        self.values[k] = None

    def _lex_ok(self, k: int) -> bool:
        """Move every lex frontier past the pairs that entry k completes;
        False when some transposition's image is now lexicographically
        larger.  A frontier left at a pair (m, p) with v_m set bounds v_p."""
        values = self.values
        upper = self.upper
        for t, pairs in enumerate(self.lex_pairs):
            front = self.lex_front[t]
            while front < len(pairs) and pairs[front][1] <= k:
                m, p = pairs[front]
                if values[m] == values[p]:
                    front += 1
                elif values[m] < values[p]:
                    return False
                else:
                    front = len(pairs)  # settled: the assignment is larger
            self.lex_front[t] = front
            if front < len(pairs):
                m, p = pairs[front]
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


def solve_matrix_modules(
    ring: BasedRing,
    rank: int,
    filters: Iterable[str] = (),
    *,
    bound: int | None = None,
    traces: Mapping[str, int] | None = None,
    dedupe: bool = True,
) -> SearchOutcome:
    """All transitive matrix modules of the given rank, canonical and deduped.

    filters name optional screens from named_filters(); transitivity is always
    applied.  traces, when given, pin the trace of every listed basis element
    exactly (the per-profile trace budget).  Every entry is limited by its
    proven cap (_perron_limits), and by bound too when bound is given.  A
    ring without an exact character table has no caps and needs a bound.
    The outcome records whether any consistent branch pressed against a
    limit that is not a proven cap.
    """
    if rank < 1:
        raise ClassifierError(f"rank must be positive, got {rank}")
    names = _resolve_filters(filters)
    rigid_constrained = None
    if "s-rigidity" in names:
        rigid_constrained = _required_rigid_generator(ring)
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
    kept = []
    for module in search.solutions:
        if not satisfies_ring_relations(ring, module):  # independent re-check
            continue
        if not is_transitive(module):
            continue
        if traces is not None and any(
            module.trace(label) != t for label, t in traces.items()
        ):
            continue
        if not _passes(ring, module, names):
            continue
        kept.append(module)
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
    filters: Iterable[str] = (),
) -> tuple[MatrixModule, ...]:
    """Exhaustive entry-by-entry generate-and-test with no pruning (oracle).

    The entries of the non-identity matrices are assigned one at a time, in
    the search's basis order and row-major within each matrix, each over
    0..bound; under s-rigidity the doubling generator's diagonal entries range
    over {0, 2} and its other entries are 0.  Entry (i, j) of every relation
    M_x M_y = sum_z c[x][y][z] M_z with x, y != e is one equation
    (_oracle_equations; the relations through e hold identically).  It is
    attached to the last of its entries in assignment order and summed in
    full, term by term, exactly when that entry is set, so every equation is
    checked exactly once, on known values only; a value is kept when all of
    them sum to 0.  Nothing is bounded, capped or forced, and the
    enumeration is complete up to the bound.  Leaves are tested for
    transitivity and the filters' checks and deduped by canonical form.
    Intended for small ranks and bounds as an independent cross-check of the
    pruned search.
    """
    names = _resolve_filters(filters)
    rigid = None
    if "s-rigidity" in names:
        rigid = _required_rigid_generator(ring)
    order = _search_order(ring, rigid)
    cells = [(b, i, j) for b in order for i in range(rank) for j in range(rank)]
    index = {cell: k for k, cell in enumerate(cells)}
    domains = [
        ((0, 2) if i == j else (0,)) if b == rigid else range(bound + 1)
        for b, i, j in cells
    ]
    # every entry, then a fixed slot holding 1 for the identity's diagonal
    values = [0] * len(cells) + [1]

    # checks[k]: the equations whose last entry in assignment order is k
    checks: list[list[tuple[tuple[int, int, int], ...]]] = [[] for _ in cells]
    for terms in _oracle_equations(ring, rank, index).values():
        last = max(k for _, u, v in terms for k in (u, v) if k < len(cells))
        checks[last].append(terms)

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
            if not _passes(ring, module, names):
                return
            canon = canonical_module(module)
            results.setdefault(canon.key(), canon)
            return
        here = checks[k]
        for value in domains[k]:
            values[k] = value
            for terms in here:
                total = 0
                for c, u, v in terms:
                    total += c * values[u] * values[v]
                if total:
                    break
            else:
                assign(k + 1)

    assign(0)
    return tuple(sorted(results.values(), key=lambda m: m.key()))


# -- classification of the bundled rings -------------------------------------------


BUNDLED_RING_IDS = ("Q3", "Q4", "Q5", "Q6")

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

# keys are (rank, flattened non-identity matrices in basis order)
ANNOTATIONS: dict[str, dict[tuple, tuple[str, str]]] = {
    "Q3": {
        (1, ((0,),)): ("realized-cell", _NOTE_ZERO),
        (1, ((2,),)): ("realized-cell", _NOTE_TOP_CELL),
    },
    "Q4": {
        (1, ((0,), (0,))): ("realized-cell", _NOTE_ZERO),
        (1, ((2,), (2,))): ("realized-extra", _NOTE_EXTRA),
        (2, ((2, 0, 0, 2), (0, 2, 2, 0))): ("realized-cell", _NOTE_TOP_CELL),
        (2, ((2, 0, 0, 2), (0, 1, 4, 0))): ("excluded", _NOTE_EXCL_SWAP),
    },
    "Q5": {
        (1, ((0,), (0,))): ("realized-cell", _NOTE_ZERO),
        (2, ((2, 0, 0, 2), (0, 2, 2, 2))): ("realized-cell", _NOTE_TOP_CELL),
        (2, ((2, 0, 0, 2), (1, 1, 5, 1))): ("excluded", _NOTE_EXCL_SELF_EXT),
        (2, ((2, 0, 0, 2), (0, 4, 1, 2))): ("excluded", _NOTE_EXCL_SPLIT),
        (2, ((2, 0, 0, 2), (0, 1, 4, 2))): ("excluded", _NOTE_EXCL_SWAP),
    },
    "Q6": {
        (1, ((0,), (0,), (0,))): ("realized-cell", _NOTE_ZERO),
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


def bundled_ring(ring_id: str) -> BasedRing:
    if ring_id not in BUNDLED_RING_IDS:
        raise ClassifierError(
            f"unknown ring id {ring_id!r}; bundled: {BUNDLED_RING_IDS}"
        )
    return subquotient_qn(int(ring_id[1:]))


@dataclass(frozen=True)
class Candidate:
    module: MatrixModule
    multiplicities: tuple[int, ...] | None
    status: str  # realized-cell | realized-extra | excluded | unresolved
    note: str

    @property
    def realized(self) -> bool:
        return self.status.startswith("realized")


@dataclass(frozen=True)
class ClassificationReport:
    ring_id: str
    ring: BasedRing
    profiles: tuple[tuple[int, ...], ...]
    filters: tuple[str, ...]
    bound: int
    bound_exhausted: bool
    candidates: tuple[Candidate, ...]
    matches_expected: bool | None
    complete: bool  # every faithful profile searched under its proven caps alone

    @property
    def realized(self) -> tuple[Candidate, ...]:
        return tuple(c for c in self.candidates if c.realized)


def classify(
    ring: str | BasedRing,
    *,
    filters: Iterable[str] = ("s-rigidity",),
    rank: int | None = None,
    bound: int | None = None,
    max_rank: int | None = None,
) -> ClassificationReport:
    """End-to-end candidate classification for one ring.

    ring is a bundled ring id or a BasedRing, reported as "custom" and left
    unannotated.  filters name filters from named_filters(); transitivity
    is always applied.  Default pipeline: screen faithful rank profiles,
    search each profile with its exact trace budget under s-rigidity,
    prepend the rank-one zero module (the one transitive non-faithful
    candidate) when it passes the filters, as every searched module must,
    and annotate every candidate against the bundled status data.  Without
    s-rigidity the searches are raw per-rank runs without trace pinning,
    which surfaces any extra algebraic solutions; a rank override forces a
    single raw search.  Profiles are screened up to the rank cap, or up to
    max_rank when that is lower.  The regression check against the bundled
    candidates applies to a complete run under s-rigidity alone.  A ring
    without a full character table (non-commutative, not split semisimple,
    or neither a Q_n nor quadratic) raises ClassifierError.
    """
    # dedupe, preserving order; transitivity is always applied and listed first
    names = dict.fromkeys(_resolve_filters(filters))
    filter_names = [name for name in names if name != "transitive"]
    if isinstance(ring, BasedRing):
        ring_id = "custom"
    else:
        ring_id, ring = ring, bundled_ring(ring)
    try:
        table = character_table(ring)  # the table the caps and filters read
    except CharacterError as exc:  # the ring is outside what the search supports
        raise ClassifierError(str(exc)) from exc
    rank_cap = _perron_limits(table, 1, None, rigid_generator(ring) is not None)[0]
    limit = rank_cap if max_rank is None else min(max_rank, rank_cap)
    profiles = feasible_rank_profiles(table, faithful=True, max_rank=limit)
    rigidity_on = "s-rigidity" in filter_names

    jobs: list[tuple[int, dict[str, int] | None]]
    if rank is not None:
        jobs = [(rank, None)]
    elif rigidity_on:
        jobs = [
            (sum(profile), profile_traces(table, profile)) for profile in profiles
        ]
    else:
        # raw searches: no trace pinning, so algebraic extras can surface
        jobs = [(r, None) for r in sorted({sum(p) for p in profiles})]

    found: dict[tuple, MatrixModule] = {}
    # the one transitive non-faithful candidate, always rank one
    zero = canonical_module(trivial_module(ring))
    if _passes(ring, zero, filter_names):
        found[zero.key()] = zero
    outcomes = [
        solve_matrix_modules(ring, r, filter_names, bound=bound, traces=t)
        for r, t in jobs
    ]
    for outcome in outcomes:
        for module in outcome.modules:
            found.setdefault(module.key(), module)

    annotations = ANNOTATIONS.get(ring_id, {})
    candidates = []
    for key in sorted(found):
        module = found[key]
        try:
            mults: tuple[int, ...] | None = decompose(table, module)
        except DecompositionError:
            mults = None
        if key in annotations:
            status, note = annotations[key]
        elif ring_id in ANNOTATIONS:
            # classified rings: rigidity failures are genuine exclusions;
            # for merely bundled rings they stay unresolved but say why
            if not _rigidity_holds(ring, module):
                settled = ring_id in REALIZED_COUNTS
                status = "excluded" if settled else "unresolved"
                note = _NOTE_FAILS_RIGIDITY
            else:
                status, note = "unresolved", _NOTE_UNRESOLVED
        else:
            status, note = "unresolved", "custom ring: no annotation data"
        candidates.append(Candidate(module, mults, status, note))

    # the one completeness verdict: every faithful profile up to the rank cap
    # searched with its trace budget, each search under its proven caps alone
    complete = (
        rigidity_on
        and rank is None
        and limit == rank_cap
        and all(o.complete for o in outcomes)
    )
    matches: bool | None = None
    if ring_id in EXPECTED_CANDIDATES and complete and filter_names == ["s-rigidity"]:
        matches = tuple(sorted(found)) == EXPECTED_CANDIDATES[ring_id]

    return ClassificationReport(
        ring_id,
        ring,
        profiles,
        tuple(["transitive", *filter_names]),
        max((o.bound for o in outcomes), default=0),
        any(o.bound_exhausted for o in outcomes),
        tuple(candidates),
        matches,
        complete,
    )
