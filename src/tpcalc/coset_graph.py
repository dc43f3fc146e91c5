"""The bipartite intersection graph of left cosets of H against right cosets
of K, its components, weights, and the component-count bounds.

The components are the (K,H)-double cosets: the blocks come from
`double_cosets` and are checked against the intersection matrix before a graph
is returned. The graph keeps each coset's block label and the component sizes;
the `Component` tuples are built on first use. Construction is a pure function
of (G, H, K).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arith_nt import prime_factors
from .errors import PreconditionError, VerificationError
from .group_core import (
    GroupTable,
    Subgroup,
    conjugates,
    conjugator_count,
    cosets,
    double_cosets,
    is_normal_subgroup,
)


@dataclass(frozen=True)
class Component:
    """One connected component: a complete bipartite block of equal-weight edges."""

    left_vertices: tuple[int, ...]   # minimal reps of its left cosets
    right_vertices: tuple[int, ...]  # minimal reps of its right cosets
    t: int
    weight: int


@dataclass(frozen=True)
class CosetGraph:
    parent: GroupTable
    H: Subgroup
    K: Subgroup
    n: int
    left_reps: tuple[int, ...]
    right_reps: tuple[int, ...]
    t_vector: tuple[int, ...]  # the component sizes, sorted decreasingly
    s: int
    m: int
    # block (double coset) id of each left and of each right coset, by coset id
    lblock: np.ndarray = field(compare=False, repr=False)
    rblock: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def components(self) -> tuple[Component, ...]:
        """One component per block, by block id, its representatives ascending
        (coset ids already are)."""
        t = np.bincount(self.lblock)
        lsorted = [self.left_reps[i] for i in np.argsort(self.lblock, kind="stable").tolist()]
        rsorted = [self.right_reps[j] for j in np.argsort(self.rblock, kind="stable").tolist()]
        t = t[t > 0].tolist()  # a block id that no coset carries is no component
        return tuple(
            Component(left_vertices=tuple(lsorted[end - k:end]),
                      right_vertices=tuple(rsorted[end - k:end]), t=k,
                      weight=self.H.order // k)
            for k, end in zip(t, np.cumsum(t).tolist()))


def build_coset_graph(G: GroupTable, H: Subgroup, K: Subgroup | None = None) -> CosetGraph:
    """Assemble the graph for (G, H, K), one component per (K,H)-double coset.

    W[i, j] = |l_i H meet K r_j|. Each left coset l_i H and each right coset
    K r_j lies inside one double coset, its block. The checks, each one array
    step: no coset straddles two blocks; w * t = |H| on every cell of a block
    of t left cosets; the trivial-component count matches the
    conjugator-counting formula. W is zero between blocks by the first check:
    W[i, j] > 0 means some g lies in l_i H and in K r_j, so the block of coset
    i and the block of coset j are both the block of g. So W is the positive
    constant |H|/t inside a block, and the blocks are the components. A block
    of t left and t' right cosets has t|H| = t'|K| elements, so t = t': each
    component is balanced, and t divides |K| = |H| = w * t. A merged block
    leaves a zero inside it; a split one leaves a coset straddling two blocks.
    The graph keeps the block labels; `components` is built from them on
    first use.
    """
    if K is None:
        K = H
    if H.parent is not G or K.parent is not G:
        raise PreconditionError("subgroups must belong to the given group")
    if H.index != K.index:
        raise PreconditionError(
            f"subgroups must have equal index, got {H.index} and {K.index}")
    n = H.index
    left = cosets(G, H, "left")
    right = cosets(G, K, "right")
    # W[i, j] = |l_i H  intersect  K r_j|: count elements by (left, right) coset
    W = np.bincount(left.ids * n + right.ids, minlength=n * n).reshape(n, n)

    block_of = double_cosets(G, H, K).block_of
    lblock = np.empty(n, dtype=np.intp)
    lblock[left.ids] = block_of
    rblock = np.empty(n, dtype=np.intp)
    rblock[right.ids] = block_of
    if not ((lblock[left.ids] == block_of) & (rblock[right.ids] == block_of)).all():
        raise VerificationError("a coset straddles two double cosets")
    lblock.setflags(write=False)
    rblock.setflags(write=False)
    on_block = lblock[:, None] == rblock[None, :]
    t = np.bincount(lblock)  # left cosets per block
    if not (W * t[lblock][:, None] == H.order)[on_block].all():
        raise VerificationError("component is not complete with constant weight")

    t = [k for k in t.tolist() if k]  # a block id that no coset carries is no component
    m = t.count(1)
    m_formula = conjugator_count(G, H, K) // H.order
    if m != m_formula:
        raise VerificationError(f"trivial-component count {m} != formula value {m_formula}")
    return CosetGraph(parent=G, H=H, K=K, n=n, left_reps=left.reps, right_reps=right.reps,
                      t_vector=tuple(sorted(t, reverse=True)), s=len(t), m=m,
                      lblock=lblock, rblock=rblock)


@dataclass(frozen=True)
class SBoundsReport:
    lower: Fraction
    upper: Fraction
    s: int
    m: int
    holds: bool


def s_bounds_check(G: GroupTable, H: Subgroup, K: Subgroup | None = None,
                   graph: CosetGraph | None = None) -> SBoundsReport:
    """Bracket the component count: (n-m)/|H| + m <= s <= (n-m)/p + m with p
    the smallest prime divisor of |H|. For |H| = 1 both sides collapse to n."""
    if graph is None:
        graph = build_coset_graph(G, H, K)
    n, s, m = graph.n, graph.s, graph.m
    if graph.H.order == 1:
        lower = upper = Fraction(n)
    else:
        p = prime_factors(graph.H.order)[0]
        lower = Fraction(n - m, graph.H.order) + m
        upper = Fraction(n - m, p) + m
    return SBoundsReport(lower, upper, s, m, lower <= s <= upper)


@dataclass(frozen=True)
class FrobeniusS2Report:
    s: int
    s2_and_size: bool
    frobenius: bool
    consistent: bool


def frobenius_s2_check(G: GroupTable, H: Subgroup) -> FrobeniusS2Report:
    """Instance check of the equivalence between `s = 2 with |H| = n - 1` and
    the malnormality property defining a Frobenius complement.

    Consistency means: (s = 2 and |H| = n-1) implies malnormal, and if H is
    malnormal then s = 2 holds exactly when |H| = n - 1.
    """
    if is_normal_subgroup(G, H):
        raise PreconditionError("H must be non-normal")
    n = H.index
    dcs = double_cosets(G, H, H)
    s = len(dcs.reps)
    size_match = H.order == n - 1
    frobenius = _is_malnormal(G, H)
    forward = (not (s == 2 and size_match)) or frobenius
    backward = (not frobenius) or ((s == 2) == size_match)
    return FrobeniusS2Report(s=s, s2_and_size=(s == 2 and size_match),
                             frobenius=frobenius, consistent=forward and backward)


def _is_malnormal(G: GroupTable, H: Subgroup) -> bool:
    """Whether H meets H^g trivially for every g outside H."""
    meets = H.mask[conjugates(G, H.elem_array)].sum(axis=1)
    return bool((meets[~H.mask] <= 1).all())
