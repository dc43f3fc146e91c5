"""Finite groups as validated Cayley tables on indices 0..n-1.

Conventions, fixed once for the whole package:
  * the identity is always element index 0;
  * coset and double-coset representatives are minimal-index elements;
  * the canonical key of a subgroup is its sorted element tuple.

The tables of GroupTable and Subgroup are read-only arrays. Derived data
(fingerprints, the subgroup lattice, the tp memo that only `tp_engine.tp`
writes) is cached on first use and only ever replaced by an identical value.
`lattice(G)` is the one place that finds the subgroups of a table, splits them
into conjugacy classes and decides which are normal; every consumer reads
that value. A fresh table gets all three from one pass of `all_subgroups`,
which registers each new subgroup's whole conjugacy class when it first finds
it and extends only that first member: a normal one by its cosets, in stacks
of one order, and any other by a batched breadth-first search. A table built
from another one by `subgroup_as_group` or `quotient_group` records its
source, and once the source's lattice is built it takes its subgroups from
there by the correspondence theorem instead of enumerating them again; it
splits them with the same orbit walk on subgroup masks.

Only tables given from outside are validated. A subgroup or quotient table is
carried from a validated parent by a checked map (the closure of H, the
normality of N and the homomorphism property of the coset map), so it skips
the axiom checks; subgroups found by a search closure, by conjugation or as
images under such a map skip `Subgroup`'s closure check the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .arith_nt import is_prime, padic_valuation, prime_factors
from .errors import (
    ActionError,
    FormatError,
    NormalityError,
    ParameterError,
    VerificationError,
    check_limit,
)

# mask cells (rows x group order) that `all_subgroups` grows in one batch
GROW_CELLS = 8192
# table cells that `_check_associativity` compares in one column block
_ASSOCIATIVITY_CELLS = 1 << 22


class GroupTable:
    """A finite group given by its multiplication table of element indices."""

    def __init__(self, mul, provenance: str = ""):
        mul = np.ascontiguousarray(mul, dtype=np.int32)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.shape[0] == 0:
            raise ParameterError("multiplication table must be a nonempty square matrix")
        n = mul.shape[0]
        idx = np.arange(n, dtype=np.int32)
        if mul.min() < 0 or mul.max() >= n:
            raise ParameterError("table entries out of range")
        if not (np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)):
            raise ParameterError("identity must be element 0")
        inv = np.argmax(mul == 0, axis=1).astype(np.int32)
        if not (np.array_equal(mul[idx, inv], np.zeros(n, dtype=np.int32))
                and np.array_equal(mul[inv, idx], np.zeros(n, dtype=np.int32))):
            raise ParameterError("table has no two-sided inverses")
        # identity, inverses and associativity (below) make a group, whose
        # table is a Latin square; no separate Latin test is needed
        gens, chain_sizes = _greedy_chain(mul, range(n))
        _check_associativity(mul, gens)
        self._set_table(mul, inv, gens, chain_sizes, provenance)

    @classmethod
    def _derived(cls, mul, inv, provenance: str,
                 source: tuple[GroupTable, np.ndarray, Subgroup]) -> GroupTable:
        """A table carried from the validated table `source[0]` by a map its
        caller has checked (`subgroup_as_group`, `quotient_group`), so the
        group axioms hold without being tested again; `inv` comes from the
        map too. `source` is (parent, lift, floor) for `lattice`: element i
        of the new table is the image of parent element lift[i], and floor is
        the kernel (the trivial subgroup for a subgroup table)."""
        self = cls.__new__(cls)
        mul = np.ascontiguousarray(mul, dtype=np.int32)
        gens, chain_sizes = _greedy_chain(mul, range(mul.shape[0]))
        self._set_table(mul, np.ascontiguousarray(inv, dtype=np.int32), gens, chain_sizes,
                        provenance)
        self._source = source
        return self

    def _set_table(self, mul: np.ndarray, inv: np.ndarray, gens: tuple[int, ...],
                   chain_sizes: tuple[int, ...], provenance: str) -> None:
        mul.setflags(write=False)
        inv.setflags(write=False)
        self.mul = mul
        self.inv = inv
        self.order = mul.shape[0]
        # greedy generating sequence (repeatedly adjoin the smallest index not
        # yet reached) and the order of the subgroup after each step
        self.minimal_generators: tuple[int, ...] = gens
        self.generator_chain_sizes: tuple[int, ...] = chain_sizes
        self.identity = 0
        self.provenance = provenance
        self._lattice: Lattice | None = None
        self._tp_cache = None
        # (parent, lift, floor), set by _derived for lattice() to read
        self._source: tuple[GroupTable, np.ndarray, Subgroup] | None = None

    # -- basic element operations ------------------------------------------

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse(x), -k)
        acc, base = 0, x
        while k:
            if k & 1:
                acc = int(self.mul[acc, base])
            base = int(self.mul[base, base])
            k >>= 1
        return acc

    def __repr__(self) -> str:
        tag = self.provenance or "group"
        return f"GroupTable(order={self.order}, provenance={tag!r})"

    # -- cached structure data ---------------------------------------------

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    @cached_property
    def element_orders(self) -> np.ndarray:
        n = self.order
        orders = np.zeros(n, dtype=np.int64)
        cur = np.arange(n, dtype=np.int32)
        alive = np.ones(n, dtype=bool)
        k = 1
        while alive.any():
            done = alive & (cur == 0)
            orders[done] = k
            alive &= ~done
            cur = self.mul[cur, np.arange(n, dtype=np.int32)]
            k += 1
        orders.setflags(write=False)
        return orders

    @cached_property
    def center_elems(self) -> tuple[int, ...]:
        mask = (self.mul == self.mul.T).all(axis=1)
        return tuple(int(i) for i in np.flatnonzero(mask))

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Ascending classes, ordered by least member. Column x of the
        conjugation table lists the class of x, so its least entry names it."""
        least = conjugates(self, np.arange(self.order)).min(axis=0)
        by_class = np.argsort(least, kind="stable")
        cuts = np.flatnonzero(np.diff(least[by_class])) + 1
        return tuple(tuple(c.tolist()) for c in np.split(by_class, cuts))

    @cached_property
    def class_size_of(self) -> np.ndarray:
        sizes = np.zeros(self.order, dtype=np.int64)
        for block in self.conjugacy_classes:
            for x in block:
                sizes[x] = len(block)
        sizes.setflags(write=False)
        return sizes

    @cached_property
    def derived_elems(self) -> np.ndarray:
        return _derived_of(self, np.arange(self.order, dtype=np.int64))

    @cached_property
    def fingerprint(self) -> tuple:
        orders = self.element_orders
        hist = {}
        for o in orders.tolist():
            hist[o] = hist.get(o, 0) + 1
        class_stats = sorted((len(c), int(orders[c[0]])) for c in self.conjugacy_classes)
        return (
            self.order,
            self.is_abelian,
            tuple(sorted(hist.items())),
            len(self.center_elems),
            int(self.derived_elems.size),
            tuple(class_stats),
        )


def _check_associativity(mul: np.ndarray, gens: Sequence[int]) -> None:
    """Light's test, exact in O(n^2 |gens|).

    The s with (xs)y = x(sy) for all x, y form a submagma that contains the
    identity: for such a and b, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) =
    x((ab)y). `gens` reaches every element from the identity by right
    multiplication, so the table is associative iff each s in `gens` passes.
    Each comparison runs on column blocks of about `_ASSOCIATIVITY_CELLS`
    cells, so its temporaries stay bounded; a table of order up to 2,048 is
    one block.
    """
    n = mul.shape[0]
    width = max(1, _ASSOCIATIVITY_CELLS // n)
    for s in gens:
        for c in range(0, n, width):
            cols = slice(c, c + width)
            if not np.array_equal(mul[mul[:, s], cols], mul[:, mul[s, cols]]):
                raise ParameterError(f"table is not associative (generator {s})")


def _grow(mul: np.ndarray, reached: np.ndarray, frontier: np.ndarray,
          gens: np.ndarray) -> None:
    """Breadth-first search along right multiplication, many searches at once.

    Row i of the `(rows, n)` boolean mask `reached` is one search: it gets
    marked with every x*w for x in row i of the `(rows, m)` index array
    `frontier` and w a word in row i of the `(rows, k)` generator array
    `gens`. Elements already marked in a row must have their products by that
    row's generators marked or in its frontier. From the identity a row
    reaches the subgroup its generators generate; from a subgroup R with
    frontier R*g it reaches <R, g> when its generators generate R together
    with g. An identity (0) generator is harmless, so rows with fewer
    generators may be padded with 0. Each level of the search is one
    fancy-index step over every row.
    """
    new = np.zeros_like(reached)
    new[np.arange(reached.shape[0])[:, None], frontier] = True
    while True:
        new &= ~reached
        rows, fresh = new.nonzero()
        if not rows.size:
            return
        reached |= new
        new.fill(False)
        new[rows[:, None], mul[fresh[:, None], gens[rows]]] = True


def _greedy_chain(mul: np.ndarray, elems: Iterable[int]) -> tuple[tuple[int, ...],
                                                                  tuple[int, ...]]:
    """Greedy generating sequence of the subgroup with ascending elements
    `elems`: repeatedly adjoin the least element not yet reached. Also returns
    the order reached after each step."""
    reached = np.zeros((1, mul.shape[0]), dtype=bool)
    reached[0, 0] = True
    gens: list[int] = []
    sizes: list[int] = []
    for x in elems:
        if reached[0, x]:
            continue
        gens.append(x)
        _grow(mul, reached, mul[np.flatnonzero(reached[0]), x][None, :],
              np.array([gens], dtype=np.intp))
        sizes.append(int(np.count_nonzero(reached)))
    return tuple(gens), tuple(sizes)


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Subgroup:
    """A subgroup of `parent`, stored as its sorted element-index tuple. A
    lattice holds up to tens of thousands of these, so they carry no
    instance dict."""

    parent: GroupTable = field(repr=False)
    elems: tuple[int, ...]
    # built by the closure check in __post_init__ or by _of_mask; read-only
    mask: np.ndarray = field(init=False, repr=False, compare=False)
    elem_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(map(int, self.elems))
        if not elems or elems[0] != 0 or list(elems) != sorted(set(elems)):
            raise ParameterError("subgroup elements must be sorted, unique, and contain 0")
        arr = np.array(elems, dtype=np.int64)
        mask = np.zeros(self.parent.order, dtype=bool)
        mask[arr] = True
        if not mask[self.parent.mul[arr[:, None], arr]].all():
            raise ParameterError("element set is not closed under multiplication")
        if self.parent.order % len(elems) != 0:
            raise ParameterError("subgroup order does not divide the group order")
        self._set_arrays(elems, mask, arr)

    @classmethod
    def _of_mask(cls, parent: GroupTable, mask: np.ndarray) -> Subgroup:
        """The subgroup of `parent` with boolean mask `mask`, for a caller
        that knows the set is one: a search closure, a conjugate, or the image
        of a subgroup under a checked homomorphism. No closure check runs;
        `subgroup_as_group` still rejects a set that is not closed."""
        self = object.__new__(cls)
        object.__setattr__(self, "parent", parent)
        elems = np.flatnonzero(mask).tolist()
        # own copies: a view of a row, or the flatnonzero result, would keep
        # its whole base array alive for as long as the subgroup lives
        self._set_arrays(tuple(elems), np.array(mask), np.array(elems, dtype=np.int64))
        return self

    def _set_arrays(self, elems: tuple[int, ...], mask: np.ndarray, arr: np.ndarray) -> None:
        mask.setflags(write=False)
        arr.setflags(write=False)
        object.__setattr__(self, "elems", elems)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "elem_array", arr)

    @property
    def order(self) -> int:
        return len(self.elems)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.elems)

    def __contains__(self, x: int) -> bool:
        return bool(self.mask[x])

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return bool(self.mask[other.elem_array].all())

    def generators(self) -> tuple[int, ...]:
        """Greedy minimal generating sequence by smallest element index."""
        return _greedy_chain(self.parent.mul, self.elems)[0]

    def conjugate_by(self, g: int) -> "Subgroup":
        conj = conjugates(self.parent, self.elem_array, [g])[0]
        return Subgroup(self.parent, tuple(np.sort(conj).tolist()))


def conjugates(G: GroupTable, elems, gs=None) -> np.ndarray:
    """The conjugation table: entry [i, j] is g_i^-1 x_j g_i for x_j in
    `elems` and g_i in `gs`, or in all of G (g_i = i) when `gs` is None."""
    gs = np.arange(G.order) if gs is None else np.asarray(gs, dtype=np.intp)
    elems = np.asarray(elems, dtype=np.intp)
    return G.mul[G.mul[G.inv[gs][:, None], elems[None, :]], gs[:, None]]


def closure_of(G: GroupTable, seed: Iterable[int]) -> np.ndarray:
    """Sorted element array of the subgroup generated by `seed` (plus identity)."""
    reached = np.zeros((1, G.order), dtype=bool)
    _grow(G.mul, reached, np.zeros((1, 1), dtype=np.intp),
          np.array([sorted(set(seed))], dtype=np.intp))
    return np.flatnonzero(reached[0])


def subgroup_generated(G: GroupTable, seed: Iterable[int]) -> Subgroup:
    seed = [int(x) for x in seed]
    if any(not 0 <= x < G.order for x in seed):
        raise ParameterError(f"generators {seed} are not all element indices 0..{G.order - 1}")
    return Subgroup(G, tuple(int(x) for x in closure_of(G, seed)))


def trivial_subgroup(G: GroupTable) -> Subgroup:
    return Subgroup(G, (0,))


def full_subgroup(G: GroupTable) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise ParameterError("cyclic group order must be positive")
    check_limit(n, "table")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return GroupTable(mul, provenance=f"cyclic({n})")


def elementary_abelian(p: int, r: int) -> GroupTable:
    if not is_prime(p) or r < 1:
        raise ParameterError("elementary_abelian needs a prime p and r >= 1")
    n = p**r
    check_limit(n, "table")
    idx = np.arange(n)
    mul = np.zeros((n, n), dtype=np.int64)
    scale = 1
    a, b = idx[:, None], idx[None, :]
    for _ in range(r):
        mul += scale * (((a // scale) % p + (b // scale) % p) % p)
        scale *= p
    return GroupTable(mul, provenance=f"elementary_abelian({p},{r})")


def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n (rotations first, then reflections)."""
    if n < 1:
        raise ParameterError("dihedral parameter must be positive")
    if n == 1:
        G = cyclic(2)
    else:
        rot = cyclic(n)
        G = semidirect_product(rot, cyclic(2), action_by_inversion(rot, cyclic(2)))
    G.provenance = f"dihedral({n})"
    return G


def generalized_quaternion(order: int) -> GroupTable:
    """Q_{2^m} of the given order 2^m, m >= 3."""
    m = order.bit_length() - 1
    if order != 1 << m or m < 3:
        raise ParameterError("generalized quaternion order must be 2^m with m >= 3")
    check_limit(order, "table")
    half = order // 2
    hpow = half // 2  # b^2 = a^(2^(m-2))
    mul = np.zeros((order, order), dtype=np.int64)
    for x in range(order):
        i, e1 = x % half, x // half
        for y in range(order):
            j, e2 = y % half, y // half
            if e1 == 0:
                k, e = (i + j) % half, e2
            else:
                k, e = (i - j) % half, 1 - e2
                if e2 == 1:
                    k = (k + hpow) % half
            mul[x, y] = e * half + k
    return GroupTable(mul, provenance=f"generalized_quaternion({order})")


def cp_rtimes_c2n(p: int, k: int) -> GroupTable:
    """C_p . C_{2^k} with the 2-part inverting the p-part: order p * 2^k."""
    if not is_prime(p) or p == 2:
        raise ParameterError("p must be an odd prime")
    if k < 1:
        raise ParameterError("k must be >= 1")
    base = cyclic(p)
    top = cyclic(2**k)
    G = semidirect_product(base, top, action_by_inversion(base, top))
    G.provenance = f"cp_rtimes_c2n({p},{k})"
    return G


def field_frobenius(q: int) -> GroupTable:
    """The natural affine group of GF(q): additive group extended by the full
    multiplicative group, of order q(q-1)."""
    if q < 3:
        raise ParameterError("field_frobenius needs a prime power q >= 3")
    check_limit(q * (q - 1), "table")
    fld = _GaloisField(q)
    add_mul = np.array([[fld.add(a, b) for b in range(q)] for a in range(q)])
    additive = GroupTable(add_mul, provenance=f"gf({q})+")
    units = [1] + [u for u in range(1, q) if u != 1]  # identity of GF* first
    unit_pos = {u: i for i, u in enumerate(units)}
    mult_mul = np.array([[unit_pos[fld.mul(units[a], units[b])] for b in range(q - 1)]
                         for a in range(q - 1)])
    multiplicative = GroupTable(mult_mul, provenance=f"gf({q})*")
    action = [np.array([fld.mul(g, units[k]) for g in range(q)], dtype=np.int64)
              for k in range(q - 1)]
    G = semidirect_product(additive, multiplicative, action)
    G.provenance = f"field_frobenius({q})"
    return G


class _GaloisField:
    """GF(p^r) arithmetic with elements encoded as base-p digit strings.

    The defining polynomial is the lexicographically first monic irreducible
    over GF(p) (coefficient tuple c_0..c_{r-1} read as a base-p number).
    """

    def __init__(self, q: int):
        primes = prime_factors(q)
        if len(primes) != 1:
            raise ParameterError(f"{q} is not a prime power")
        p = primes[0]
        r = padic_valuation(q, p)
        self.p, self.r, self.q = p, r, q
        self.modulus = self._first_irreducible() if r > 1 else ()

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.r):
            out.append(x % self.p)
            x //= self.p
        return out

    def _pack(self, digits: Sequence[int]) -> int:
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._pack([(x + y) % self.p for x, y in zip(da, db)])

    def mul(self, a: int, b: int) -> int:
        p, r = self.p, self.r
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo x^r - modulus tail
        for i in range(len(prod) - 1, r - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, m in enumerate(self.modulus):
                    prod[i - r + j] = (prod[i - r + j] - c * m) % p
        return self._pack(prod[:r])

    def _first_irreducible(self) -> tuple[int, ...]:
        p, r = self.p, self.r
        for code in range(p**r):
            tail = [(code // p**i) % p for i in range(r)]
            if self._is_irreducible(tail):
                return tuple(tail)
        raise VerificationError("no irreducible polynomial found")

    def _is_irreducible(self, tail: Sequence[int]) -> bool:
        # poly = x^r + tail; test divisibility by every monic poly of degree <= r/2
        p, r = self.p, self.r
        poly = list(tail) + [1]
        for deg in range(1, r // 2 + 1):
            for code in range(p**deg):
                div = [(code // p**i) % p for i in range(deg)] + [1]
                if _poly_mod(poly, div, p) == []:
                    return False
        return True


def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    while len(num) - 1 >= dd and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd:
            break
        c = num[-1] * inv_lead % p
        shift = len(num) - 1 - dd
        for i, d in enumerate(den):
            num[shift + i] = (num[shift + i] - c * d) % p
    while num and num[-1] == 0:
        num.pop()
    return num


# ---------------------------------------------------------------------------
# Products and extensions
# ---------------------------------------------------------------------------

def direct_product(A: GroupTable, B: GroupTable) -> GroupTable:
    """Componentwise product; element (a, b) has index a*|B| + b."""
    na, nb = A.order, B.order
    check_limit(na * nb, "table")
    a = np.arange(na * nb) // nb
    b = np.arange(na * nb) % nb
    mul = A.mul[np.ix_(a, a)].astype(np.int64) * nb + B.mul[np.ix_(b, b)]
    return GroupTable(mul, provenance=f"direct_product({A.provenance},{B.provenance})")


def action_by_inversion(G: GroupTable, K: GroupTable) -> list[np.ndarray]:
    """For cyclic K = <1> of even order: element k acts by g -> g^((-1)^k).

    Requires G abelian (else inversion is not an automorphism); the semidirect
    constructor validates this.
    """
    ident = np.arange(G.order, dtype=np.int64)
    invp = G.inv.astype(np.int64)
    return [invp if k % 2 == 1 else ident for k in range(K.order)]


def action_by_generator_power(G: GroupTable, K: GroupTable, exponent: int) -> list[np.ndarray]:
    """For cyclic K = <1>: element k acts by g -> g^(exponent^k)."""
    perms = []
    n = G.order
    current = np.arange(n, dtype=np.int64)
    step = np.array([G.power(g, exponent) for g in range(n)], dtype=np.int64)
    for _ in range(K.order):
        perms.append(current)
        current = step[current]
    return perms


def semidirect_product(G: GroupTable, K: GroupTable,
                       action: Sequence[Sequence[int]]) -> GroupTable:
    """Split extension of G by K: pairs (k, g) with index k*|G| + g and
    multiplication (k1,g1)(k2,g2) = (k1 k2, action[k2](g1) g2).

    `action` maps each K-index to an automorphism of G (a permutation of its
    indices); it must satisfy action[0] = id and the right-action law
    action[k1 k2] = action[k2] o action[k1]. The canonical copies of G and K
    sit at indices {g} and {k*|G|}.
    """
    ng, nk = G.order, K.order
    check_limit(ng * nk, "table")
    if len(action) != nk:
        raise ActionError("action must assign an automorphism to every element of K")
    acts = [np.asarray(a, dtype=np.int64) for a in action]
    ident = np.arange(ng, dtype=np.int64)
    for k, perm in enumerate(acts):
        if perm.shape != (ng,) or not np.array_equal(np.sort(perm), ident):
            raise ActionError(f"action[{k}] is not a permutation of G")
        if not np.array_equal(perm[G.mul], G.mul[np.ix_(perm, perm)]):
            raise ActionError(f"action[{k}] is not an automorphism of G")
    if not np.array_equal(acts[0], ident):
        raise ActionError("action[identity] must be the identity map")
    for k1 in range(nk):
        for k2 in range(nk):
            k12 = int(K.mul[k1, k2])
            if not np.array_equal(acts[k12], acts[k2][acts[k1]]):
                raise ActionError("action is not a right-action homomorphism")

    n = nk * ng
    karr = np.arange(n) // ng
    garr = np.arange(n) % ng
    kk = K.mul[np.ix_(karr, karr)].astype(np.int64)
    act_stack = np.stack(acts)  # (nk, ng)
    g1_twisted = act_stack[karr[None, :], garr[:, None]]  # [x, y] = action[k(y)](g(x))
    gg = G.mul[g1_twisted, garr[None, :]]
    mul = kk * ng + gg
    return GroupTable(mul, provenance=f"semidirect({G.provenance},{K.provenance})")


# ---------------------------------------------------------------------------
# Permutation-generator construction and text formats
# ---------------------------------------------------------------------------

def from_permutation_generators(degree: int, generators: Sequence[Sequence[int]]) -> GroupTable:
    """Close a set of permutations of 0..degree-1 under composition.

    Elements are indexed in breadth-first discovery order, identity first;
    permutations compose left-to-right (apply the left factor, then the right).

    The table comes from the right Schreier graph the search walks: it
    records moves[k, x], the index of elems[x]*gens[k], and for each new
    element j the element p and generator k it was reached from, so
    elems[j] = elems[p]*gens[k]. Then a*elems[j] = (a*elems[p])*gens[k] for
    every a, so column j of the table is moves[k] gathered at column p. The
    search stops at the `table` limit, before any table is allocated.
    """
    ident = tuple(range(degree))
    gens = []
    for g in generators:
        t = tuple(int(x) for x in g)
        if sorted(t) != list(range(degree)):
            raise ParameterError(f"{g!r} is not a permutation of 0..{degree - 1}")
        gens.append(t)
    elems: list[tuple[int, ...]] = [ident]
    pos = {ident: 0}
    moves: list[list[int]] = [[] for _ in gens]
    tree: list[tuple[int, int]] = []  # (p, k) for elements 1, 2, ...
    for p, cur in enumerate(elems):  # the loop sees the elements appended below
        for k, g in enumerate(gens):
            nxt = tuple(map(g.__getitem__, cur))
            j = pos.get(nxt)
            if j is None:
                check_limit(len(elems) + 1, "table", "closure")
                j = pos[nxt] = len(elems)
                elems.append(nxt)
                tree.append((p, k))
            moves[k].append(j)
    n = len(elems)
    moves_arr = np.array(moves, dtype=np.int32).reshape(len(gens), n)
    mul = np.empty((n, n), dtype=np.int32)
    mul[:, 0] = np.arange(n, dtype=np.int32)
    for j, (p, k) in enumerate(tree, start=1):
        mul[:, j] = moves_arr[k, mul[:, p]]
    gen_desc = ";".join(",".join(map(str, g)) for g in gens)
    return GroupTable(mul, provenance=f"perm(degree={degree},gens=[{gen_desc}])")


def write_cayley_table(G: GroupTable) -> str:
    lines = [str(G.order)]
    lines += [" ".join(str(int(v)) for v in row) for row in G.mul]
    return "\n".join(lines) + "\n"


def read_cayley_table(text: str) -> GroupTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty Cayley table input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise FormatError(f"bad order line: {lines[0]!r}") from exc
    check_limit(n, "table")
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise FormatError(f"line {i}: non-integer entry") from exc
        if len(row) != n:
            raise FormatError(f"line {i}: expected {n} entries, found {len(row)}")
        rows.append(row)
    return GroupTable(np.array(rows), provenance="table(file)")


def write_permutation_generators(degree: int, generators: Sequence[Sequence[int]]) -> str:
    lines = [str(degree)]
    lines += [" ".join(str(int(v)) for v in g) for g in generators]
    return "\n".join(lines) + "\n"


def read_permutation_generators(text: str) -> tuple[int, list[tuple[int, ...]]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty generator input")
    try:
        degree = int(lines[0])
    except ValueError as exc:
        raise FormatError(f"bad degree line: {lines[0]!r}") from exc
    gens = []
    for i, ln in enumerate(lines[1:], start=2):
        try:
            g = tuple(int(tok) for tok in ln.split())
        except ValueError as exc:
            raise FormatError(f"line {i}: non-integer entry") from exc
        if sorted(g) != list(range(degree)):
            raise FormatError(f"line {i}: not a permutation of 0..{degree - 1}")
        gens.append(g)
    return degree, gens


# ---------------------------------------------------------------------------
# Subgroup enumeration and relations
# ---------------------------------------------------------------------------

def all_subgroups(G: GroupTable) -> list[Subgroup]:
    """The complete subgroup list, sorted by (order, element tuple).

    Cyclic extension (Neubüser 1960): seed with the cyclic subgroups, then
    extend subgroups H by one representative r of each (H,H)-double coset
    outside H, until no new subgroup appears. Adjoining x and adjoining any
    h1*x*h2 generate the same subgroup, so double-coset representatives
    suffice. A new subgroup's whole conjugacy class is registered at once
    (`_conjugacy_class`), and only that first member H0 goes on the work
    list. That is enough: a non-cyclic L is <H, x> for a maximal subgroup H
    of L, and if H^g = H0 then L^g = <H0, x^g>, which the representative of
    H0*x^g*H0 also generates; so by induction on |L| some member of L's
    class is found, and with it the whole class. The trivial subgroup is not
    extended: its extensions are the cyclic seeds, and an element is skipped
    as a seed once it is known to generate a registered cyclic subgroup.

    A normal H (a class of one member) needs no search. Its (H,H)-double
    cosets are its cosets, so the least coset representatives serve as r,
    and <H, r> = H<r>, the union of the cosets r^k*H (`_normal_extensions`).
    The work list keeps normal subgroups apart by order, and a stack of them
    of one order, about GROW_CELLS cells, is extended in one step. G itself
    is not extended.

    The extensions of several other work-list subgroups grow in one batched
    search of at most about GROW_CELLS mask cells: row i of a `(rows, n)`
    mask starts from H's elements with frontier H*r and generators
    gens(H) + (r,), and ends as the mask of <H, r>. A row with a shorter
    frontier repeats one of its own frontier elements, and one with fewer
    generators is padded with the identity. On either path the finished rows
    are told apart by their packed bytes, and only a row not seen before
    registers a class.

    The pass also yields the conjugacy classes, so it stores G's lattice when
    none is memoised yet; `lattice` reads it from there.
    """
    check_limit(G.order, "order")
    n = G.order
    perms = _conjugation_perms(G)
    found: dict[bytes, Subgroup] = {}  # keyed by the packed mask
    classes: list[list[Subgroup]] = []
    work: list[tuple[Subgroup, tuple[int, ...]]] = []  # (H, generators of H)
    normal: dict[int, list[tuple[Subgroup, tuple[int, ...]]]] = {}  # the same, by order
    # the elements known to generate a registered cyclic subgroup
    generates_found = np.zeros(n, dtype=bool)

    def register(mask: np.ndarray, key: bytes, gens: tuple[int, ...]) -> np.ndarray:
        keys, masks = _conjugacy_class(perms, mask, key)
        members = [Subgroup._of_mask(G, row) for row in masks]
        found.update(zip(keys, members))
        classes.append(members)
        order = members[0].order
        if 1 < order < n:
            pending = normal.setdefault(order, []) if len(members) == 1 else work
            pending.append((members[0], gens))
        return masks

    for x in range(n):
        if not generates_found[x]:
            mask = np.zeros(n, dtype=bool)
            mask[closure_of(G, [x])] = True
            masks = register(mask, _packed_rows(mask[None, :])[0], (x,))
            # y generates a member of this class when it lies in one and has
            # the same order as x
            generates_found[masks.any(axis=0) & (G.element_orders == G.element_orders[x])] = True
    idx = np.arange(n)
    while work or normal:
        batch, cells = [], 0
        if normal:
            # pending normal subgroups of the greatest order, as many as fit
            order = max(normal)
            stack = normal[order]
            # cells of one H's coset gather (n*|H|) or of its masks (< n*n/|H|)
            step = n * max(order, n // order)
            while stack and cells < GROW_CELLS:
                batch.append(stack.pop())
                cells += step
            if not stack:
                del normal[order]
            owner, reps, reached = _normal_extensions(
                G.mul, np.array([H.elem_array for H, _ in batch]))
        else:
            while work and cells < GROW_CELLS:
                H, gens = work.pop()
                least = G.mul[:, H.elem_array].min(axis=1)  # entry g: least of gH
                # the least element of each (H,H)-double coset; 0 is H's own
                reps = np.flatnonzero(_least_in_double_coset(G, least, H) == idx)[1:]
                batch.append((H, gens, reps))
                cells += reps.size * n
            rows = cells // n
            width = max(H.order for H, _, _ in batch)
            reached = np.empty((rows, n), dtype=bool)
            frontier = np.empty((rows, width), dtype=np.intp)
            row_gens = np.zeros((rows, max(len(gens) for _, gens, _ in batch) + 1),
                                dtype=np.intp)
            start = 0
            for H, gens, reps in batch:
                block = slice(start, start + reps.size)
                reached[block] = H.mask
                frontier[block, :H.order] = G.mul[H.elem_array[None, :], reps[:, None]]
                frontier[block, H.order:] = reps[:, None]  # r = 0*r lies in H*r
                row_gens[block, :len(gens)] = gens
                row_gens[block, len(gens)] = reps
                start += reps.size
            _grow(G.mul, reached, frontier, row_gens)
            del frontier, row_gens
            owner = np.repeat(np.arange(len(batch)), [reps.size for _, _, reps in batch])
            reps = np.concatenate([reps for _, _, reps in batch])
        keys = _packed_rows(reached)
        for i, (j, r) in enumerate(zip(owner.tolist(), reps.tolist())):
            if keys[i] not in found:
                register(reached[i], keys[i], batch[j][1] + (r,))
        del reached
    lat = _lattice_of(classes)
    if G._lattice is None:
        G._lattice = lat
    return list(lat.subgroups)


def _normal_extensions(mul: np.ndarray, elems: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                                     np.ndarray]:
    """Every extension <H, r> of the normal subgroups H whose ascending
    elements are the rows of `elems` (all of one order), by the least
    element r of each coset of H other than H itself. Returns, per extension,
    the row j of its H, its r, and the `(extensions, n)` masks.

    For normal H, r^k*H = H*r^k, so the union of the cosets r^k*H over k
    below the order of rH is closed under products: it is <H, r>. An element
    x lies in it exactly when its coset xH is one of those, so each row marks
    the least elements of the cosets r^k*H (a walk along the powers of r
    until one falls in H) and reads its mask off every element's coset.
    """
    n = mul.shape[0]
    # least[j, g]: the least element of the coset g*H_j
    least = mul[:, elems].min(axis=2).T
    owner, reps = np.nonzero(least == np.arange(n))
    owner, reps = owner[reps != 0], reps[reps != 0]
    marked = np.zeros((reps.size, n), dtype=bool)  # row i: cosets of <H, r_i>
    marked[:, 0] = True
    rows, power, label = np.arange(reps.size), reps, least[owner, reps]
    while rows.size:
        marked[rows, label] = True
        power = mul[power, reps[rows]]
        label = least[owner[rows], power]
        more = label != 0
        rows, power, label = rows[more], power[more], label[more]
    # row i of the masks is row i of marked read at every element's label
    at = least[owner] + np.arange(0, marked.size, n)[:, None]
    return owner, reps, marked.ravel()[at]


@dataclass(frozen=True)
class Lattice:
    """Every subgroup of one table, split into conjugacy classes."""

    subgroups: tuple[Subgroup, ...]            # sorted by (order, elems)
    classes: tuple[tuple[Subgroup, ...], ...]  # as subgroup_conjugacy_classes
    normal: tuple[Subgroup, ...]               # one-member classes, as subgroups


def lattice(G: GroupTable) -> Lattice:
    """The subgroup lattice of G, built once per table. The `order` limit is
    checked on every call, so a memoised lattice obeys it too.

    A table whose source parent already has its lattice takes its subgroups
    from the parent's by the correspondence theorem: the subgroups of H are
    those of G inside H, and the subgroups of G/N are the images of the K of
    G that contain N, each the image of exactly one such K. Those are split
    into classes by `subgroup_conjugacy_classes`. Every other table runs
    `all_subgroups`, whose one pass finds the subgroups and their classes
    together and stores the lattice."""
    check_limit(G.order, "order")
    if G._lattice is None:
        if G._source is not None and G._source[0]._lattice is not None:
            parent, lift, floor = G._source
            masks = np.array([K.mask for K in parent._lattice.subgroups])
            masks = masks[masks[:, floor.elem_array].all(axis=1)]
            # a K over the floor is a union of its cosets, so row K of mapped
            # marks the cosets lift[i]*floor inside K; K is the preimage of
            # that row's subgroup when they make up all of K (for a subgroup
            # table: when K lies inside it)
            mapped = masks[:, lift]
            mapped = mapped[mapped.sum(axis=1) * floor.order == masks.sum(axis=1)]
            subs = [Subgroup._of_mask(G, row) for row in mapped]
            G._lattice = _lattice_of(subgroup_conjugacy_classes(G, subs))
        else:
            all_subgroups(G)
    return G._lattice


def _lattice_of(classes: Iterable[Sequence[Subgroup]]) -> Lattice:
    """The lattice with these conjugacy classes, in the canonical order: each
    class sorted by element tuple, the classes by their first member, and the
    subgroups by (order, element tuple)."""
    classes = sorted((tuple(sorted(c, key=lambda s: s.elems)) for c in classes),
                     key=lambda c: c[0].elems)
    subs = tuple(sorted((s for c in classes for s in c), key=lambda s: (s.order, s.elems)))
    alone = {c[0] for c in classes if len(c) == 1}
    return Lattice(subs, tuple(classes), tuple(s for s in subs if s in alone))


def _packed_rows(masks: np.ndarray) -> list[bytes]:
    """One hashable key per row of a boolean mask array: its packed bytes."""
    packed = np.packbits(masks, axis=1)
    return packed.view(f"V{packed.shape[1]}").ravel().tolist()


def _conjugation_perms(G: GroupTable) -> np.ndarray:
    """Row i maps y to g*y*g^-1 for the i-th non-central generator g in
    `G.minimal_generators`. Since y lies in S^g = g^-1*S*g exactly when
    g*y*g^-1 lies in S, indexing the columns of a subgroup mask by row i gives
    the mask of its conjugate by g."""
    idx = np.arange(G.order)
    perms = conjugates(G, idx, G.inv[list(G.minimal_generators)])
    return perms[(perms != idx).any(axis=1)]


def _conjugacy_class(perms: np.ndarray, mask: np.ndarray,
                     key: bytes) -> tuple[list[bytes], np.ndarray]:
    """The conjugacy class of the subgroup with boolean mask `mask` and packed
    key `key`, by orbit closure under the column permutations `perms` of
    `_conjugation_perms`: the packed keys and the masks of its members, `mask`
    first. Conjugates equal to `mask` are dropped by one vectorised
    comparison, so a normal subgroup packs no key, and with no `perms` (G
    abelian) there is nothing to walk."""
    seen = {key: None}
    members = [mask[None, :]]
    frontier = members[0]
    while frontier.shape[0] and perms.shape[0]:
        conj = frontier[:, perms].reshape(-1, mask.size)
        conj = conj[(conj != mask).any(axis=1)]
        fresh = []
        for i, key in enumerate(_packed_rows(conj)):
            if key not in seen:
                seen[key] = None
                fresh.append(i)
        frontier = conj[fresh]
        members.append(frontier)
    return list(seen), np.concatenate(members)


@dataclass(frozen=True)
class Cosets:
    """Partition of G into the cosets of one subgroup; ids ascend with the reps."""

    ids: np.ndarray        # element index -> coset index (read-only)
    reps: tuple[int, ...]  # ascending; reps[i] is the least element of coset i


def cosets(G: GroupTable, H: Subgroup, side: str) -> Cosets:
    """The left cosets gH (side "left") or right cosets Hg (side "right"),
    numbered by ascending minimal representative."""
    if side == "left":
        members = G.mul[:, H.elem_array]    # row g holds gH
    elif side == "right":
        members = G.mul[H.elem_array, :].T  # row g holds Hg
    else:
        raise ParameterError(f"side must be 'left' or 'right', got {side!r}")
    least = members.min(axis=1)
    reps = np.unique(least)
    ids = np.searchsorted(reps, least)
    ids.setflags(write=False)
    return Cosets(ids, tuple(reps.tolist()))


@dataclass(frozen=True)
class DoubleCosets:
    """Partition of G into (K,H)-double cosets, by minimal representative,
    with the left cosets of H that make up the blocks. The `reps` and `sizes`
    tuples are built on first read."""

    left: Cosets          # the left cosets gH
    block_of: np.ndarray  # element index -> block index (read-only)
    rep_ids: np.ndarray   # ascending; the left-coset id of each block's least element

    @cached_property
    def reps(self) -> tuple[int, ...]:
        return tuple(self.left.reps[i] for i in self.rep_ids.tolist())

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.block_of).tolist())


def _least_in_double_coset(G: GroupTable, label: np.ndarray, K: Subgroup) -> np.ndarray:
    """Entry g is the least label of the left cosets kgH that make up KgH,
    where label[x] names xH and orders the left cosets as their least
    elements do (the least element itself, or the id from `cosets`). With
    least elements as labels, the g equal to their entry are the minimal
    representatives."""
    return label[G.mul[K.elem_array, :]].min(axis=0)


def double_cosets(G: GroupTable, H: Subgroup, K: Subgroup) -> DoubleCosets:
    """The double cosets KgH, numbered by ascending minimal representative:
    the block of g is named by the least id of the left cosets in KgH."""
    left = cosets(G, H, "left")
    least = _least_in_double_coset(G, left.ids, K)
    rep_ids = np.unique(least)
    block_of = np.searchsorted(rep_ids, least)
    block_of.setflags(write=False)
    return DoubleCosets(left, block_of, rep_ids)


@dataclass(frozen=True)
class SubgroupRelations:
    normalizer: Subgroup
    core: Subgroup
    is_normal: bool


def subgroup_relations(G: GroupTable, H: Subgroup) -> SubgroupRelations:
    """Normalizer, normal core, and normality flag of H in G."""
    # [g, h] says whether h^g lies in H; the core is the h with every h^g in H
    inside = H.mask[conjugates(G, H.elem_array)]
    normalizer = Subgroup(G, tuple(np.flatnonzero(inside.all(axis=1)).tolist()))
    core = Subgroup(G, tuple(H.elem_array[inside.all(axis=0)].tolist()))
    is_normal = normalizer.order == G.order
    if is_normal != (core.order == H.order):
        raise VerificationError("normalizer and core disagree about normality")
    return SubgroupRelations(normalizer, core, is_normal)


def is_normal_subgroup(G: GroupTable, H: Subgroup) -> bool:
    return bool(H.mask[conjugates(G, H.elem_array, G.minimal_generators)].all())


def is_abelian_modulo(G: GroupTable, gens: Sequence[int], N: Subgroup | None = None) -> bool:
    """Whether <gens>N/N is abelian, for N normal in <gens>N (the trivial
    subgroup when None): the images of the generators commute pairwise
    exactly when every commutator [a, b] = (ba)^-1 ab of two of them lies in N."""
    g = np.asarray(gens, dtype=np.intp)
    ab = G.mul[g[:, None], g[None, :]]
    comms = G.mul[G.inv[ab.T], ab]
    return bool((comms == 0).all() if N is None else N.mask[comms].all())


def _conjugators(G: GroupTable, H: Subgroup, K: Subgroup) -> np.ndarray:
    """Boolean mask over G of the g with H^g = K. Conjugation is injective,
    so H^g = K exactly when |H| = |K| and H^g lies inside K."""
    if H.order != K.order:
        return np.zeros(G.order, dtype=bool)
    return K.mask[conjugates(G, H.elem_array)].all(axis=1)


def are_conjugate(G: GroupTable, H: Subgroup, K: Subgroup) -> tuple[bool, int | None]:
    """Whether H^g = K for some g; returns the minimal witness when true."""
    found = np.flatnonzero(_conjugators(G, H, K))
    return (True, int(found[0])) if found.size else (False, None)


def conjugator_count(G: GroupTable, H: Subgroup, K: Subgroup) -> int:
    """|{g in G : H^g = K}|."""
    return int(np.count_nonzero(_conjugators(G, H, K)))


def subgroup_conjugacy_classes(G: GroupTable,
                               subs: Sequence[Subgroup]) -> tuple[tuple[Subgroup, ...], ...]:
    """Partition of `subs`, which must be closed under conjugation, into
    conjugacy classes by the orbit walk `_conjugacy_class` that
    `all_subgroups` also uses; each class is sorted, classes ordered by their
    first member."""
    keyed = sorted(zip(_packed_rows(np.array([s.mask for s in subs])), subs),
                   key=lambda ks: ks[1].elems)
    by_key = dict(keyed)
    perms = _conjugation_perms(G)
    placed: set[bytes] = set()
    classes = []
    for key, s in keyed:
        if key in placed:
            continue
        keys, _ = _conjugacy_class(perms, s.mask, key)
        if any(k not in by_key for k in keys):
            raise VerificationError("conjugate of a subgroup missing from list")
        placed.update(keys)
        classes.append(tuple(sorted((by_key[k] for k in keys), key=lambda s: s.elems)))
    return tuple(classes)


def quotient_group(G: GroupTable, N: Subgroup) -> tuple[GroupTable, np.ndarray]:
    """The quotient by a normal subgroup, plus the index projection map.

    Cosets are indexed by ascending minimal representative, so the identity
    coset N gets index 0.
    """
    if not is_normal_subgroup(G, N):
        raise NormalityError("quotient by a non-normal subgroup")
    left = cosets(G, N, "left")
    proj = left.ids
    reps = np.array(left.reps, dtype=np.int64)
    mul = proj[G.mul[np.ix_(reps, reps)]]
    # proj is onto and maps 0 to 0, so once it is a homomorphism the table
    # is G's image: a group with identity 0 and inverses proj[inv[reps]]
    if not np.array_equal(proj[G.mul], mul[proj[:, None], proj[None, :]]):
        raise VerificationError("projection is not a homomorphism")
    Q = GroupTable._derived(mul, proj[G.inv[reps]],
                            f"quotient({G.provenance}/N{N.order})", (G, reps, N))
    return Q, proj


def subgroup_as_group(G: GroupTable, H: Subgroup) -> GroupTable:
    """H reindexed as a standalone GroupTable (element i is H.elems[i])."""
    arr = H.elem_array
    pos = np.full(G.order, -1, dtype=np.int32)
    pos[arr] = np.arange(H.order)
    mul = pos[G.mul[np.ix_(arr, arr)]]
    # a closed subset of a finite group is a subgroup: it holds 0 (its least
    # element) and the inverses, and G's associativity carries over
    if mul.min() < 0:
        raise ParameterError("element set is not closed under multiplication")
    return GroupTable._derived(mul, pos[G.inv[arr]],
                               f"subgroup(order={H.order} of {G.provenance})",
                               (G, arr, trivial_subgroup(G)))


# ---------------------------------------------------------------------------
# Isomorphism testing
# ---------------------------------------------------------------------------

def is_isomorphic(A: GroupTable, B: GroupTable) -> bool:
    check_limit(max(A.order, B.order), "order")
    if A is B:
        return True
    if A.fingerprint != B.fingerprint:
        return False
    return find_isomorphism(A, B) is not None


def find_isomorphism(A: GroupTable, B: GroupTable) -> np.ndarray | None:
    """Backtracking search mapping A's minimal generating sequence into B.

    Candidates are filtered by (element order, conjugacy-class size) and by the
    partial subgroup sizes of the generator chain; a candidate map is accepted
    only after a full table check.
    """
    if A.order != B.order:
        return None
    gens = A.minimal_generators
    if not gens:  # trivial group
        return np.zeros(1, dtype=np.int64)
    chain_sizes = A.generator_chain_sizes
    span = _spanning_words(A, gens)
    a_inv = [(int(A.element_orders[g]), int(A.class_size_of[g])) for g in gens]
    b_inv = {}
    for x in range(B.order):
        b_inv.setdefault((int(B.element_orders[x]), int(B.class_size_of[x])), []).append(x)

    images: list[int] = []

    def extend(level: int) -> np.ndarray | None:
        if level == len(gens):
            phi = _build_map(A, B, gens, images, span)
            if phi is not None and _is_full_isomorphism(A, B, phi):
                return phi
            return None
        for cand in b_inv.get(a_inv[level], ()):
            images.append(cand)
            size = int(closure_of(B, [images[i] for i in range(level + 1)]).size)
            if size == chain_sizes[level]:
                got = extend(level + 1)
                if got is not None:
                    return got
            images.pop()
        return None

    return extend(0)


def _spanning_words(A: GroupTable, gens: Sequence[int]) -> list[tuple[int, int, int]]:
    """BFS factorisation: triples (new, parent, gen_index) with new = parent*gen."""
    n = A.order
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    order = [0]
    steps: list[tuple[int, int, int]] = []
    head = 0
    while head < len(order):
        cur = order[head]
        head += 1
        for gi, g in enumerate(gens):
            nxt = int(A.mul[cur, g])
            if not seen[nxt]:
                seen[nxt] = True
                order.append(nxt)
                steps.append((nxt, cur, gi))
    return steps


def _build_map(A: GroupTable, B: GroupTable, gens, images, span) -> np.ndarray | None:
    phi = np.full(A.order, -1, dtype=np.int64)
    phi[0] = 0
    for new, parent, gi in span:
        phi[new] = B.mul[phi[parent], images[gi]]
    if (phi < 0).any():
        return None
    return phi


def _is_full_isomorphism(A: GroupTable, B: GroupTable, phi: np.ndarray) -> bool:
    if np.unique(phi).size != A.order:
        return False
    return bool(np.array_equal(phi[A.mul], B.mul[phi[:, None], phi[None, :]]))


# ---------------------------------------------------------------------------
# Structure classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureReport:
    is_abelian: bool
    is_dedekind: bool
    is_nilpotent: bool
    is_soluble: bool
    is_supersoluble: bool
    derived_length: int | None
    center_order: int
    derived_order: int

    def __post_init__(self):
        ok = (
            (not self.is_abelian or self.is_dedekind)
            and (not self.is_nilpotent or self.is_supersoluble)
            and (not self.is_supersoluble or self.is_soluble)
            and ((self.derived_length is not None and self.derived_length <= 1)
                 == self.is_abelian)
        )
        if not ok:
            raise VerificationError("structure implication chain violated")


def _derived_of(G: GroupTable, elems: np.ndarray) -> np.ndarray:
    inv_e = G.inv[elems].astype(np.int64)
    left = G.mul[np.ix_(inv_e, inv_e)].ravel()
    right = G.mul[np.ix_(elems, elems)].ravel()
    comms = np.unique(G.mul[left, right])
    return closure_of(G, comms.tolist())


def derived_series(G: GroupTable) -> list[np.ndarray]:
    """G, G', G'', ... down to the trivial group or the first perfect term;
    G' is the memoised `G.derived_elems`."""
    series = [np.arange(G.order, dtype=np.int64)]
    nxt = G.derived_elems
    while nxt.size < series[-1].size:
        series.append(nxt)
        if nxt.size == 1:
            break
        nxt = _derived_of(G, nxt)
    return series


def classify_structure(G: GroupTable) -> StructureReport:
    """Structure flags computed from first principles, with the supersolubility
    test done two independent ways (chief-factor orders vs maximal-subgroup
    indices) and cross-checked."""
    lat = lattice(G)
    series = derived_series(G)
    soluble = series[-1].size == 1
    derived_length = len(series) - 1 if soluble else None
    abelian = G.is_abelian
    dedekind = len(lat.normal) == len(lat.subgroups)
    nilpotent = _is_nilpotent(G, lat.subgroups)
    supers_chief = _supersoluble_by_chief_series(G, lat.normal) if soluble else False
    supers_maximal = _supersoluble_by_maximal_indices(G, lat.subgroups) if soluble else False
    if supers_chief != supers_maximal:
        raise VerificationError(
            f"supersolubility tests disagree: chief={supers_chief} maximal={supers_maximal}")
    return StructureReport(
        is_abelian=abelian,
        is_dedekind=dedekind,
        is_nilpotent=nilpotent,
        is_soluble=soluble,
        is_supersoluble=supers_chief,
        derived_length=derived_length,
        center_order=len(G.center_elems),
        derived_order=int(G.derived_elems.size),
    )


def _is_nilpotent(G: GroupTable, subs: Sequence[Subgroup]) -> bool:
    # nilpotent iff every Sylow subgroup is normal iff each is unique
    n = G.order
    for p in prime_factors(n):
        part = p ** padic_valuation(n, p)
        if sum(1 for s in subs if s.order == part) != 1:
            return False
    return True


def _supersoluble_by_chief_series(G: GroupTable, normals: Sequence[Subgroup]) -> bool:
    cur = normals[0]  # trivial subgroup
    while cur.order < G.order:
        over = [s for s in normals if s.order > cur.order and s.contains_subgroup(cur)]
        step = min(over, key=lambda s: s.order)
        if not is_prime(step.order // cur.order):
            return False
        cur = step
    return True


def _supersoluble_by_maximal_indices(G: GroupTable, subs: Sequence[Subgroup]) -> bool:
    proper = [s for s in subs if s.order < G.order]
    for H in proper:
        is_maximal = not any(
            K.order > H.order and K.order < G.order and K.contains_subgroup(H)
            for K in proper)
        if is_maximal and not is_prime(G.order // H.order):
            return False
    return True


def has_section(G: GroupTable, X: GroupTable) -> tuple[bool, tuple[Subgroup, Subgroup] | None]:
    """Whether some H <= G and N normal in H give H/N isomorphic to X."""
    if X.order == 1:
        t = trivial_subgroup(G)
        return True, (t, t)
    subs = lattice(G).subgroups
    if not any(s.order % X.order == 0 for s in subs):
        return False, None
    for H in subs:
        if H.order % X.order != 0:
            continue
        Hg = subgroup_as_group(G, H)
        if H.order == X.order:
            if is_isomorphic(Hg, X):
                return True, (H, trivial_subgroup(G))
            continue
        target = H.order // X.order
        for N in lattice(Hg).normal:
            if N.order != target:
                continue
            Q, _ = quotient_group(Hg, N)
            if is_isomorphic(Q, X):
                n_in_g = Subgroup(G, tuple(sorted(H.elems[i] for i in N.elems)))
                return True, (H, n_in_g)
    return False, None
