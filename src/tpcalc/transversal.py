"""Exact probabilities that a left transversal of H is a right transversal of K,
with four independent computation routes (the coset graph's component sizes,
the lengths of the orbits of K on the left cosets of H, the permanent of the
weight matrix by Ryser on each block of its support, brute-force
enumeration) and the bound suite.

All probabilities are exact `Fraction`s; the only floats are in the
gamma-function bound, with a stated relative tolerance.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arith_nt import (
    GAMMA_REL_TOL,
    amgm_upper_bound,
    factorial_ratio,
    jensen_power_bound,
    product_of_ratios,
    prop_gamma_vs_amgm_holds,
)
from .coset_graph import CosetGraph, build_coset_graph
from .errors import (
    BudgetError,
    ParameterError,
    PreconditionError,
    SizeLimitError,
    VerificationError,
)
from .group_core import GroupTable, Subgroup, cosets, is_normal_subgroup

PERMANENT_SIZE_CAP = 24
ENUMERATION_BUDGET = 10**6


def p_from_tvector(t: Sequence[int]) -> Fraction:
    """The exact probability determined by component sizes: the product of
    t!/t^t over the entries."""
    entries = tuple(t)
    if not entries:
        raise PreconditionError("component-size vector must be nonempty")
    if any(x < 1 for x in entries):
        raise PreconditionError("component sizes must be positive")
    return product_of_ratios(entries)


def p_g(G: GroupTable, H: Subgroup, K: Subgroup | None = None,
        graph: CosetGraph | None = None) -> Fraction:
    """P(G; H, K): probability that a uniformly random left transversal of H
    is also a right transversal of K. Equals 1 exactly when H = K is normal;
    that equivalence is asserted on every call."""
    if graph is None:
        graph = build_coset_graph(G, H, K)
    value = p_from_tvector(graph.t_vector)
    trivially_one = graph.H.elems == graph.K.elems and is_normal_subgroup(G, graph.H)
    if (value == 1) != trivially_one:
        raise VerificationError("P = 1 must hold exactly for a normal H = K")
    return value


def orbit_t_vector(G: GroupTable, H: Subgroup, K: Subgroup | None = None) -> tuple[int, ...]:
    """The t-vector as the lengths of the orbits of K on the left cosets of H,
    sorted decreasingly. The orbit of xH under K holds |K : K meet xHx^-1|
    cosets, the size of the coset-graph component of the double coset KxH
    (orbit-stabiliser and Mackey's decomposition). It shares only `cosets`
    with the graph route: no double cosets, no weight matrix, no conjugators."""
    if K is None:
        K = H
    if H.index != K.index:
        raise PreconditionError(
            f"subgroups must have equal index, got {H.index} and {K.index}")
    left = cosets(G, H, "left")
    # column i holds the cosets k l_i H, the orbit of coset i
    orbit = left.ids[G.mul[K.elem_array[:, None], np.asarray(left.reps)[None, :]]]
    label = orbit.min(axis=0)
    if not (label[orbit] == label).all():
        raise VerificationError("the orbits of K do not partition the cosets of H")
    lengths = np.unique(label, return_counts=True)[1]
    if (K.order % lengths).any():
        raise VerificationError("an orbit length does not divide |K|")
    return tuple(sorted(lengths.tolist(), reverse=True))


# ---------------------------------------------------------------------------
# Weight matrix and permanent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightMatrix:
    """The n x n matrix of coset intersection sizes |l_i H  intersect  K r_j|.

    For H = K the right cosets are labelled by the inverses of the left
    representatives; that pairing is always a right transversal and makes the
    matrix symmetric. (Reusing the left representatives verbatim fails both
    properties for some groups.)
    """

    n: int
    entries: np.ndarray
    left_reps: tuple[int, ...]
    right_reps: tuple[int, ...]
    matched: bool


def weight_matrix(G: GroupTable, H: Subgroup, K: Subgroup | None = None) -> WeightMatrix:
    matched = K is None or K.elems == H.elems
    if K is None:
        K = H
    if H.index != K.index:
        raise PreconditionError("subgroups must have equal index")
    left = cosets(G, H, "left")
    right = cosets(G, K, "right")
    n = H.index
    W = np.bincount(left.ids * n + right.ids, minlength=n * n).reshape(n, n)
    rreps = right.reps
    if matched:
        inverses = G.inv[list(left.reps)]
        rreps = tuple(inverses.tolist())
        columns = right.ids[inverses]
        if np.unique(columns).size != n:
            raise VerificationError("right labels do not form a right transversal")
        W = W[:, columns]
    if not ((W.sum(axis=1) == H.order).all() and (W.sum(axis=0) == H.order).all()):
        raise VerificationError("weight matrix rows/columns do not sum to |H|")
    W.setflags(write=False)
    return WeightMatrix(n=n, entries=W, left_reps=left.reps, right_reps=rreps,
                        matched=matched)


def permanent_ryser(M) -> int:
    """Exact permanent of an integer matrix: its nonzero support split into
    connected blocks, then Ryser inclusion–exclusion on each block over
    Python ints.

    per(A) is the product of the blocks' permanents (Brualdi & Ryser,
    *Combinatorial Matrix Theory*, 1991): every permutation with a nonzero
    product maps each block's rows onto its columns, so a non-square block
    makes the permanent 0. A zero row is a block without columns, and a zero
    column leaves some block a column short. The split reads only the matrix.
    """
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ParameterError("matrix must be square")
    n = A.shape[0]
    if n > PERMANENT_SIZE_CAP:
        raise SizeLimitError(f"permanent size {n} exceeds cap {PERMANENT_SIZE_CAP}")
    rows = A.tolist()
    if A.dtype.kind not in "biu":
        if not all(isinstance(x, numbers.Integral) for row in rows for x in row):
            raise ParameterError(f"permanent entries must be integers, got dtype {A.dtype}")
        rows = [[int(x) for x in row] for row in rows]
    blocks = list(_support_blocks([[j for j, v in enumerate(row) if v] for row in rows]))
    if any(len(rs) != len(cs) for rs, cs in blocks):
        return 0
    per = 1
    for rs, cs in blocks:
        per *= _ryser([[rows[i][j] for j in cs] for i in rs])
    return per


def _support_blocks(support: list[list[int]]):
    """The connected blocks of a square matrix's support, given as the nonzero
    columns of each row; each block is (rows, columns) in the order a
    breadth-first walk meets them."""
    n = len(support)
    in_col: list[list[int]] = [[] for _ in range(n)]
    for i, cs in enumerate(support):
        for j in cs:
            in_col[j].append(i)
    seen_rows = [False] * n
    seen_cols = [False] * n
    for start in range(n):
        if seen_rows[start]:
            continue
        seen_rows[start] = True
        rs, cs = [start], []
        for i in rs:  # rs grows as the walk meets new rows
            for j in support[i]:
                if not seen_cols[j]:
                    seen_cols[j] = True
                    cs.append(j)
                    for other in in_col[j]:
                        if not seen_rows[other]:
                            seen_rows[other] = True
                            rs.append(other)
        yield rs, cs


def _ryser(A: list[list[int]]) -> int:
    """Ryser's formula, the column subsets visited in Gray-code order so each
    step adds or removes one column; the k-th subset has k's parity."""
    n = len(A)
    cols = list(zip(*A))
    sums = [0] * n
    total = 0
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        bit = (gray ^ new_gray).bit_length() - 1
        col = cols[bit]
        if new_gray & (1 << bit):
            for i in range(n):
                sums[i] += col[i]
        else:
            for i in range(n):
                sums[i] -= col[i]
        gray = new_gray
        prod = 1
        for v in sums:
            if v == 0:
                prod = 0
                break
            prod *= v
        if k & 1:
            total -= prod
        else:
            total += prod
    return total if n % 2 == 0 else -total


def dt_enumerate(G: GroupTable, H: Subgroup, K: Subgroup | None = None) -> int:
    """Count two-sided transversals level by level. Each partial transversal
    is one row, the bitmask of the right cosets it has hit; every step extends
    all rows by each element of the next left coset and keeps a choice only
    when its right coset is still free. At the last level the free choices
    are counted, not built. Rows are never merged or weighted, and the count
    uses neither the coset graph nor the weight matrix, so it is an
    independent route to |H|^n * P."""
    if K is None:
        K = H
    if H.index != K.index:
        raise PreconditionError("subgroups must have equal index")
    n = H.index
    if H.order**n > ENUMERATION_BUDGET:
        raise BudgetError(f"|H|^n = {H.order**n} exceeds budget {ENUMERATION_BUDGET}")
    right_id = cosets(G, K, "right").ids
    reps = np.asarray(cosets(G, H, "left").reps)
    # row i: the right coset of each element of the i-th left coset, as one bit;
    # a mask of 63 bits or more would overflow an int64, so a wide index (where
    # the budget leaves |H| = 1) keeps Python ints
    hit = right_id[G.mul[reps[:, None], H.elem_array]].astype(np.int64 if n < 63 else object)
    bits = np.left_shift(np.ones_like(hit), hit)
    # bit 2^r of a mask is clear exactly when the mask mod 2^(r+1) is below 2^r.
    # The test is arithmetic, not bitwise: nothing else runs numpy's int64
    # bitwise loops, and their first use adds about 64 KB of mapped code to RSS
    spans = 2 * bits
    masks = np.zeros(1, dtype=hit.dtype)  # the one empty partial transversal
    for level, span in zip(bits[:-1], spans[:-1]):
        before = masks[:, None]
        masks = (before + level)[before % span < level]
    return int(np.count_nonzero(masks[:, None] % spans[-1] < bits[-1]))


# ---------------------------------------------------------------------------
# Doubly stochastic form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StochasticFormReport:
    n: int
    s: int
    block_sizes: tuple[int, ...]
    doubly_stochastic: bool
    blocks_uniform: bool
    idempotent: bool
    trace: Fraction
    rank: int
    symmetric: bool | None

    @property
    def all_hold(self) -> bool:
        spectral = (self.doubly_stochastic and self.blocks_uniform
                    and self.idempotent and self.trace == self.s and self.rank == self.s)
        return spectral and (self.symmetric is not False)


def stochastic_form_checks(G: GroupTable, H: Subgroup,
                           K: Subgroup | None = None) -> StochasticFormReport:
    """Validate the doubly stochastic normalisation of the weight matrix: after
    grouping rows/columns by graph component it is block diagonal with uniform
    1/t blocks, idempotent, of trace and rank equal to the component count.
    Symmetry of the unpermuted matrix is asserted only in the matched H = K
    case (it can fail otherwise and is reported as None)."""
    if K is None:
        K = H
    wm = weight_matrix(G, H, K)
    graph = build_coset_graph(G, H, K)
    n = wm.n
    h = H.order
    M = [[Fraction(int(wm.entries[i, j]), h) for j in range(n)] for i in range(n)]

    left_pos = {rep: i for i, rep in enumerate(wm.left_reps)}
    # column of the weight matrix labelled by each right coset
    right_id = cosets(G, K, "right").ids
    col_of_coset = np.empty(n, dtype=np.int64)
    col_of_coset[right_id[list(wm.right_reps)]] = np.arange(n)
    row_order, col_order, block_sizes = [], [], []
    for comp in graph.components:
        block_sizes.append(comp.t)
        row_order += [left_pos[rep] for rep in comp.left_vertices]
        col_order += [int(col_of_coset[right_id[rep]]) for rep in comp.right_vertices]
    D = [[M[i][j] for j in col_order] for i in row_order]

    spans = []
    at = 0
    for t in block_sizes:
        spans.append((at, at + t))
        at += t
    blocks_uniform = all(
        D[i][j] == (Fraction(1, a1 - a0) if bi == bj else Fraction(0))
        for bi, (a0, a1) in enumerate(spans)
        for bj, (b0, b1) in enumerate(spans)
        for i in range(a0, a1) for j in range(b0, b1))

    dd = _mat_mul(D, D)
    idempotent = dd == D
    trace = sum((D[i][i] for i in range(n)), Fraction(0))
    rank = _exact_rank([row[:] for row in D])
    doubly = (all(sum(row, Fraction(0)) == 1 for row in M)
              and all(sum((M[i][j] for i in range(n)), Fraction(0)) == 1 for j in range(n)))
    symmetric = None
    if wm.matched:
        symmetric = all(M[i][j] == M[j][i] for i in range(n) for j in range(n))
    return StochasticFormReport(
        n=n, s=graph.s, block_sizes=tuple(block_sizes), doubly_stochastic=doubly,
        blocks_uniform=blocks_uniform, idempotent=idempotent, trace=trace,
        rank=rank, symmetric=symmetric)


def _mat_mul(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def _exact_rank(rows) -> int:
    n = len(rows)
    rank = 0
    col = 0
    while rank < n and col < n:
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    n: int
    s: int
    m: int
    p_exact: Fraction
    lower_factorial: Fraction
    upper_half_power: Fraction
    upper_ams: Fraction
    upper_seven_eighths: Fraction | None
    upper_gamma: float
    conjugate_non_normal: bool
    holds_factorial_sandwich: bool
    holds_half_power: bool
    holds_sharp_window: bool | None
    holds_seven_eighths: bool | None
    holds_gamma: bool
    holds_gamma_vs_ams: bool
    all_hold: bool


def bounds_report(G: GroupTable, H: Subgroup, K: Subgroup | None = None,
                  graph: CosetGraph | None = None) -> BoundsReport:
    """The bounds on P(G; H, K), from the pair's coset graph."""
    if graph is None:
        graph = build_coset_graph(G, H, K)
    normal_pair = H.elems == graph.K.elems and is_normal_subgroup(G, H)
    return bounds_of(graph.n, graph.s, graph.m, p_g(G, H, graph.K, graph=graph),
                     normal_pair=normal_pair)


def bounds_of(n: int, s: int, m: int, p_exact: Fraction, *,
              normal_pair: bool) -> BoundsReport:
    """Evaluate every applicable bound on an exact P with n cosets, s
    components and m trivial ones, and record whether it brackets P. Clauses
    that require conjugate non-normal subgroups are reported as None when
    they do not apply."""
    upper_ams = amgm_upper_bound(n, s)
    lower_factorial = factorial_ratio(n - m) if n > m else Fraction(1)
    upper_half_power = Fraction(1, 2) ** (s - m)
    holds_factorial_sandwich = (factorial_ratio(n) <= lower_factorial <= p_exact
                                and p_exact <= upper_ams)
    holds_half_power = p_exact <= upper_half_power

    # trivial components exist iff the pair is conjugate
    conjugate_non_normal = m > 0 and not normal_pair
    holds_sharp_window = upper_seven = holds_seven = None
    if conjugate_non_normal:
        holds_sharp_window = (factorial_ratio(n - 1) <= p_exact <= Fraction(1, 2))
        upper_seven = Fraction(7, 8) ** n
        holds_seven = p_exact <= upper_seven

    upper_gamma = jensen_power_bound(n, s)
    holds_gamma = float(p_exact) <= upper_gamma * (1 + GAMMA_REL_TOL) + 1e-300
    # the comparison is only claimed for s <= 3n/4
    holds_gamma_vs_ams = 4 * s > 3 * n or prop_gamma_vs_amgm_holds(n, s)
    all_hold = (holds_factorial_sandwich and holds_half_power and holds_gamma
                and holds_gamma_vs_ams
                and (holds_sharp_window is not False)
                and (holds_seven is not False))
    return BoundsReport(
        n=n, s=s, m=m, p_exact=p_exact, lower_factorial=lower_factorial,
        upper_half_power=upper_half_power, upper_ams=upper_ams,
        upper_seven_eighths=upper_seven, upper_gamma=upper_gamma,
        conjugate_non_normal=conjugate_non_normal,
        holds_factorial_sandwich=holds_factorial_sandwich,
        holds_half_power=holds_half_power, holds_sharp_window=holds_sharp_window,
        holds_seven_eighths=holds_seven, holds_gamma=holds_gamma,
        holds_gamma_vs_ams=holds_gamma_vs_ams, all_hold=all_hold)
