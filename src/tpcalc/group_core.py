"""Finite groups as validated Cayley tables on indices 0..n-1.

Conventions, fixed once for the whole package:
  * the identity is always element index 0;
  * coset and double-coset representatives are minimal-index elements;
  * the canonical key of a subgroup is its sorted element tuple.

The tables of GroupTable and Subgroup are read-only arrays. Derived data
(fingerprints, the subgroup lattice, the tp memo that only `tp_engine.tp`
writes) is cached on first use and only ever replaced by an identical value.
`cosets` memoises its last 8 numberings for the process, keyed by a weak
reference to the table, so a freed table is never served.
`lattice(G)` is the one place that finds the subgroups of a table, splits them
into conjugacy classes and decides which are normal; every consumer reads that
value. A `Lattice` is one read-only stack of subgroup masks in the canonical
(order, elems) order, with each row's order and class label. One constructor,
`_lattice_of`, builds its subgroups, classes and normal subgroups from the
stack and checks it against two classical counts. One primitive,
`_class_labels`, closes a stack of masks under conjugation and labels each row
with the least row of its class. A fresh table gets the stack from one pass of
`all_subgroups`, which registers each whole stack of new subgroups with it and
extends only each class's head: a normal one by its cosets, in stacks of one
order, and any other by a batched breadth-first search. The normal path keeps
H<r> only when r is its least element outside H and above a bound carried with
H (canonical augmentation), so it seldom builds one subgroup twice. The pass
keeps packed masks and class labels, and builds no `Subgroup` until it ends.
A table built from another one by `subgroup_as_group` or `quotient_group`
records its source, and once the source's lattice is built it takes its
subgroups from the source's mask stack by the correspondence theorem instead
of enumerating them again, and splits that finished stack with the same
primitive, which must add no row.

Only tables given from outside are validated. A subgroup or quotient table is
carried from a validated parent by a checked map (the closure of H, the
normality of N and the homomorphism property of the coset map), so it skips
the axiom checks; subgroups found by a search closure, by conjugation or as
images under such a map skip `Subgroup`'s closure check the same way.
"""

from __future__ import annotations

import weakref
from collections import Counter, OrderedDict
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
    PreconditionError,
    VerificationError,
    check_limit,
)

# mask cells (rows x group order) that `all_subgroups` grows in one batch
GROW_CELLS = 8192
# table cells that `_check_associativity` and `is_abelian_subgroup` compare in
# one column block
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
    # built by the closure check in __post_init__ or by _of_masks; read-only
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
        mask.setflags(write=False)
        arr.setflags(write=False)
        object.__setattr__(self, "elems", elems)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "elem_array", arr)

    @classmethod
    def _of_masks(cls, parent: GroupTable, block: np.ndarray) -> list[Subgroup]:
        """The subgroups of `parent` whose boolean masks are the rows of the
        `(rows, n)` array `block`, for a caller that knows each row is one: a
        search closure, a conjugate, or the image of a subgroup under a
        checked homomorphism. No closure check runs; `subgroup_as_group`
        still rejects a set that is not closed.

        Each mask is a row view of `block`, and each element array a slice of
        one array of all their elements. A view keeps its whole base alive,
        which is safe here because each base holds exactly these subgroups:
        the caller hands over a block of its own (made read-only here), and
        `np.flatnonzero(block) % n` is a new one-dimensional array, where
        `block.nonzero()[1]` would be a strided view that also keeps the row
        indices alive. A block of one row shares nothing, and views would
        keep two more array objects alive for its one subgroup, so that
        subgroup gets the arrays themselves. The element tuples share one
        Python int per element index, which past index 256 (Python's cached
        small ints) saves an int object per element of every subgroup."""
        n = block.shape[1]
        flat = np.flatnonzero(block) % n
        flat.setflags(write=False)
        elems = np.arange(n).astype(object)[flat].tolist()
        # each row's elements start at its identity 0
        cuts = np.flatnonzero(flat == 0).tolist() + [len(elems)]
        if len(block) == 1:
            masks, arrays = [block[0].copy()], [flat]
            masks[0].setflags(write=False)
        else:
            block.setflags(write=False)
            masks, arrays = block, [flat[a:b] for a, b in zip(cuts, cuts[1:])]
        make, put = object.__new__, object.__setattr__
        out = []
        for mask, arr, start, end in zip(masks, arrays, cuts, cuts[1:]):
            self = make(cls)
            put(self, "parent", parent)
            put(self, "elems", tuple(elems[start:end]))
            put(self, "mask", mask)
            put(self, "elem_array", arr)
            out.append(self)
        return out

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
    (`_class_labels`), and only its head H0 goes on the work list. That is
    enough: a non-cyclic L is <H, x> for a maximal subgroup H of L, and if
    H^g = H0 then L^g = <H0, x^g>, which the representative of H0*x^g*H0 also
    generates; so by induction on |L| some member of L's class is found, and
    with it the whole class. The trivial subgroup is not extended: its
    extensions are the cyclic seeds, and an element is skipped as a seed once
    it is known to generate a conjugate of an earlier seed. So no two seeds
    are conjugate, and they are registered as one stack, each heading its
    own class.

    A normal H (a class of one member) needs no search. Its (H,H)-double
    cosets are its cosets, so the least coset representatives serve as r,
    and <H, r> = H<r>, the union of the cosets r^k*H (`_normal_extensions`).
    The work list keeps normal subgroups apart by order, and a stack of them
    of one order is extended in one step. G itself is not extended.

    The normal path builds most extensions from one parent only, by
    canonical augmentation (McKay 1998) along the greedy generating sequence
    of `_greedy_chain` (adjoin the least element not yet reached), whose last
    element is λ(H). Each normal work item carries a bound b(H) <= λ(H): the
    r it was kept with, or, when a seed or the batched path registered it,
    its least non-identity element. H is extended only by coset
    representatives r > b(H), and H<r> is kept only when r is its least
    element outside H. Then λ(H<r>) >= r, since the elements of H<r> below r
    all lie in H. Nothing is lost. Let P be the greedy parent of a
    non-cyclic L, generated by L's greedy generators but the last, g; then
    g = min(L - P) is the least element of its coset gP, and by induction
    on |L| P's class is registered. If P is normal, L = P<g> passes both
    tests, since b(P) <= λ(P) < g. If P is not normal, the batched search
    from the head of P's class finds a conjugate of L, as above. When
    b(H) = λ(H), H is the greedy parent of each L it keeps; so in an
    abelian G whose cyclic subgroups are generated by their least
    non-identity elements, such as an elementary abelian 2-group, each
    non-cyclic subgroup is built exactly once.

    The extensions of several other work-list subgroups grow in one batched
    search of at most about GROW_CELLS mask cells: row i of a `(rows, n)`
    mask starts from H's elements with frontier H*r and generators
    gens(H) + (r,), and ends as the mask of <H, r>. A row with a shorter
    frontier repeats one of its own frontier elements, and one with fewer
    generators is padded with the identity.

    Either path ends with a stack of masks. One pass over the rows' packed
    bytes keeps the first row of each key not registered yet (`_fresh_rows`),
    and one call of `_class_labels` closes those rows under conjugation and
    splits them into classes, so two conjugate new rows get one class. The
    head of a class of one goes to the normal work list, any other head to
    the other.

    The pass builds no `Subgroup` until it ends. It keeps each registered
    subgroup as its packed mask, the key it is found by, with a class label,
    and each work-list entry as an element array with its generators. At the
    end `_canonical_order` puts the packed masks in the canonical order, they
    are unpacked into one read-only mask stack, and `_lattice_of` builds,
    checks and stores the lattice from it; `lattice` reads it there.
    """
    check_limit(G.order, "order")
    n = G.order
    perms = _conjugation_perms(G)
    # the packed mask of each registered subgroup, and its class's label
    found: dict[bytes, int] = {}
    class_orders: list[int] = []  # by label, one per new row, unused if it heads no class
    work: list[tuple[np.ndarray, tuple[int, ...]]] = []  # (elements of H, generators of H)
    # the same with the bound b(H), by order
    normal: dict[int, list[tuple[np.ndarray, tuple[int, ...], int]]] = {}
    # the elements known to generate a registered cyclic subgroup
    generates_found = np.zeros(n, dtype=bool)

    # registers the classes of the new masks `new`, each labelled by its head,
    # its least row in `new`, and puts the heads on the work lists; a normal
    # head's bound is its entry in `bounds`, or its least non-identity element
    # if `bounds` is None
    def register(new: np.ndarray, keys: list[bytes], gens: list[tuple[int, ...]],
                 bounds: list[int] | None) -> None:
        keys, labels = _class_labels(perms, new, keys)
        found.update(zip(keys, (labels + len(class_orders)).tolist()))
        labels = labels.tolist()
        members = Counter(labels)
        sizes = np.count_nonzero(new, axis=1).tolist()
        class_orders.extend(sizes)
        # the elements of every row, row after row
        flat = np.flatnonzero(new) % n
        start = 0
        for i, size in enumerate(sizes):
            if labels[i] == i and 1 < size < n:
                elems = flat[start:start + size]
                if members[i] > 1:
                    work.append((elems, gens[i]))
                else:
                    bound = elems[1] if bounds is None else bounds[i]
                    normal.setdefault(size, []).append((elems, gens[i], bound))
            start += size

    seeds: list[int] = []
    seed_elems: list[np.ndarray] = []
    for x in range(n):
        if not generates_found[x]:
            elems = closure_of(G, [x])
            seeds.append(x)
            seed_elems.append(elems)
            # y generates a member <x>^g of this class when it is a conjugate
            # of a generator of <x>, an element of <x> of the order of x
            generates_found[conjugates(G, elems[G.element_orders[elems] == elems.size])] = True
    # so no two seeds are conjugate, and each seed heads its own class
    mask = np.zeros((len(seeds), n), dtype=bool)
    for row, elems in zip(mask, seed_elems):
        row[elems] = True
    register(mask, _packed_rows(mask), [(x,) for x in seeds], None)
    idx = np.arange(n)
    while work or normal:
        batch, cells = [], 0
        extends_normal = bool(normal)
        if extends_normal:
            # pending normal subgroups of the greatest order, as many as fit
            order = max(normal)
            stack = normal[order]
            # the bytes one H allocates: its int32 coset gather and coset
            # labels (n*|H| + n cells), or its fewer than n/|H| extension
            # rows, each n mask bytes and, per element of H, an int64 and an
            # int32 index to mark a coset. A stack gets 12*GROW_CELLS bytes;
            # a larger budget is faster but raises the benchmark's peak RSS
            # (ROADMAP, measured dead ends).
            step = n * max(4 * order + 4, n // order + 12)
            while stack and cells < 12 * GROW_CELLS:
                batch.append(stack.pop())
                cells += step
            if not stack:
                del normal[order]
            owner, reps, reached = _normal_extensions(
                G.mul, np.array([elems for elems, _, _ in batch]),
                np.array([bound for _, _, bound in batch]))
        else:
            while work and cells < GROW_CELLS:
                elems, gens = work.pop()
                least = G.mul[:, elems].min(axis=1)  # entry g: least of gH
                # the least element of each (H,H)-double coset; 0 is H's own
                reps = np.flatnonzero(_least_in_double_coset(G, least, elems) == idx)[1:]
                batch.append((elems, gens, reps))
                cells += reps.size * n
            rows = cells // n
            width = max(elems.size for elems, _, _ in batch)
            reached = np.zeros((rows, n), dtype=bool)
            frontier = np.empty((rows, width), dtype=np.intp)
            row_gens = np.zeros((rows, max(len(gens) for _, gens, _ in batch) + 1),
                                dtype=np.intp)
            start = 0
            for elems, gens, reps in batch:
                block = slice(start, start + reps.size)
                reached[block, elems] = True
                frontier[block, :elems.size] = G.mul[elems[None, :], reps[:, None]]
                frontier[block, elems.size:] = reps[:, None]  # r = 0*r lies in H*r
                row_gens[block, :len(gens)] = gens
                row_gens[block, len(gens)] = reps
                start += reps.size
            _grow(G.mul, reached, frontier, row_gens)
            del frontier, row_gens
            owner = np.repeat(np.arange(len(batch)), [reps.size for _, _, reps in batch])
            reps = np.concatenate([reps for _, _, reps in batch])
        keys = _packed_rows(reached)
        rows = _fresh_rows(keys, found)
        new = reached[rows]
        del reached
        if rows:
            r = reps[rows].tolist()
            gens = [batch[j][1] + (x,) for j, x in zip(owner[rows].tolist(), r)]
            # two new rows may be conjugate; `register` gives them one class.
            # A row of the normal path gets the bound b = r
            register(new, [keys[i] for i in rows], gens, r if extends_normal else None)
    keys = list(found)
    labels = np.fromiter(found.values(), dtype=np.intp, count=len(found))
    found.clear()
    orders = np.array(class_orders)[labels]
    rows = _canonical_order(keys, orders.tolist())
    packed = np.frombuffer(b"".join([keys[i] for i in rows]), dtype=np.uint8)
    del keys
    masks = np.unpackbits(packed.reshape(len(rows), -1), axis=1, count=n).view(bool)
    del packed
    return list(_lattice_of(G, masks, orders[rows], labels[rows]).subgroups)


def _normal_extensions(mul: np.ndarray, elems: np.ndarray,
                       bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The extensions <H, r> of the normal subgroups H whose ascending
    elements are the rows of `elems` (all of one order) by the least element
    r of a coset of H, for each r above H's entry b(H) in `bounds` that is the
    least element of <H, r> outside H. Returns, per extension, the row j of
    its H, its r, and the `(extensions, n)` masks.

    For normal H, r^k*H = H*r^k, so the union of the cosets r^k*H over k
    below the order of rH is closed under products: it is <H, r>. So the
    least element of <H, r> outside H is the least of the cosets' least
    elements for k >= 1, found by a walk along the powers of r before any
    mask is allocated. Each kept row then marks the elements of the cosets
    r^k*H, walking along the powers of r from r^0 = 1 until one falls in H.
    """
    n = mul.shape[0]
    # least[j, g]: the least element of the coset g*H_j
    least = mul[:, elems].min(axis=2).T
    owner, reps = np.nonzero(least == np.arange(n))
    keep = reps > bounds[owner]  # each bound is at least 1, so r = 0 (H itself) goes
    owner, reps = owner[keep], reps[keep]
    # low > r exactly when r is the least element of H<r> outside H. low is
    # the least element of the cosets r^k*H, k >= 2 (n if there are none),
    # walked until r^k falls in H or a coset's least element is below r
    low = np.full(reps.size, n)
    rows, power = np.arange(reps.size), reps
    while rows.size:
        power = mul[power, reps[rows]]
        coset = least[owner[rows], power]
        rows, power, coset = rows[coset != 0], power[coset != 0], coset[coset != 0]
        low[rows] = np.minimum(low[rows], coset)
        rows, power = rows[coset > reps[rows]], power[coset > reps[rows]]
    owner, reps = owner[low > reps], reps[low > reps]
    masks = np.zeros((reps.size, n), dtype=bool)
    rows, power = np.arange(reps.size), np.zeros_like(reps)
    while rows.size:
        masks[rows[:, None], mul[power[:, None], elems[owner[rows]]]] = True
        power = mul[power, reps[rows]]
        more = least[owner[rows], power] != 0
        rows, power = rows[more], power[more]
    return owner, reps, masks


@dataclass(frozen=True, eq=False)
class Lattice:
    """Every subgroup of one table, split into conjugacy classes. The
    subgroups are built from the one mask stack `masks`: subgroup i's mask
    is row i of it."""

    subgroups: tuple[Subgroup, ...]            # sorted by (order, elems)
    classes: tuple[tuple[Subgroup, ...], ...]  # each sorted, ordered by first member
    normal: tuple[Subgroup, ...]               # one-member classes, as subgroups
    masks: np.ndarray   # (subgroups, n) read-only booleans, in the order of `subgroups`
    orders: np.ndarray  # the order of each subgroup
    labels: np.ndarray  # the index in `classes` of each subgroup's class


def lattice(G: GroupTable) -> Lattice:
    """The subgroup lattice of G, built once per table. The `order` limit is
    checked on every call, so a memoised lattice obeys it too.

    A table whose source parent already has its lattice takes its subgroups
    from the parent's mask stack by the correspondence theorem: the subgroups
    of H are those of G inside H, and the subgroups of G/N are the images of
    the K of G that contain N, each the image of exactly one such K, and
    `_closed_class_labels` splits that finished stack into classes. Every
    other table runs `all_subgroups`. Both paths end in `_lattice_of`."""
    check_limit(G.order, "order")
    if G._lattice is None:
        if G._source is not None and G._source[0]._lattice is not None:
            parent, lift, floor = G._source
            above = parent._lattice.masks[:, floor.elem_array].all(axis=1)
            # a K over the floor is a union of its cosets, so row K of mapped
            # marks the cosets lift[i]*floor inside K; K is the preimage of
            # that row's subgroup when they make up all of K (for a subgroup
            # table: when K lies inside it)
            mapped = parent._lattice.masks[np.ix_(above, lift)]
            orders = np.count_nonzero(mapped, axis=1)
            keep = orders * floor.order == parent._lattice.orders[above]
            mapped, orders = mapped[keep], orders[keep]
            rows = _canonical_order(_packed_rows(mapped), orders.tolist())
            masks = mapped[rows]
            _lattice_of(G, masks, orders[rows], _closed_class_labels(G, masks))
        else:
            all_subgroups(G)
    return G._lattice


def _lattice_of(G: GroupTable, masks: np.ndarray, orders: np.ndarray,
                labels: np.ndarray) -> Lattice:
    """The lattice of G from its canonical mask stack `masks`, `orders` and
    class `labels`; checked by `_check_counts` and memoised on G if G has none."""
    subs = Subgroup._of_masks(G, masks)
    members: dict[int, list[Subgroup]] = {}  # by label, each in canonical order
    for s, label in zip(subs, labels.tolist()):
        members.setdefault(label, []).append(s)
    # the classes in canonical order, by the element tuples of their heads
    heads = sorted(members, key=lambda label: members[label][0].elems)
    rank = np.empty(len(subs), dtype=np.intp)  # each label is below the row count
    rank[heads] = np.arange(len(heads))
    labels = rank[labels]
    classes = tuple(tuple(members.pop(label)) for label in heads)
    normal = tuple(s for s, c in zip(subs, labels.tolist()) if len(classes[c]) == 1)
    for arr in (masks, orders, labels):
        arr.setflags(write=False)
    lat = Lattice(tuple(subs), classes, normal, masks, orders, labels)
    _check_counts(G, masks, orders)
    if G._lattice is None:
        G._lattice = lat
    return lat


def _canonical_order(keys: list[bytes], orders: list[int]) -> np.ndarray:
    """The row order that sorts subgroups by (order, element tuple), from
    their masks packed by `_packed_rows` (first element in the high bit).

    Of two sets of one size, the one holding the least element of their
    difference has the smaller tuple and the greater packed bytes, so within
    one order ascending tuples are descending bytes. A stable sort by order
    after a descending sort by bytes therefore gives the canonical order. Two
    list sorts keep numpy's sort, invert and byte-swap loops out of the
    process: each first use of one raised the benchmark's peak RSS."""
    rows = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    rows.sort(key=orders.__getitem__)
    return np.array(rows, dtype=np.intp)


def _check_counts(G: GroupTable, masks: np.ndarray, orders: np.ndarray) -> None:
    """Two classical counts that every complete subgroup list meets, checked
    on the canonical mask stack and orders of G's lattice:

      (i)  the cyclic subgroups of order d number the elements of order d
           divided by phi(d), since each is <x> for exactly phi(d) such x;
      (ii) for each prime power p^k dividing |G|, the subgroups of order p^k
           number 1 mod p (Frobenius 1895).

    A subgroup of order d is cyclic exactly when it holds an element of order
    d. A missing class of subgroups breaks (i) when it is cyclic, and (ii)
    when its order is p^k and its size is prime to p. Any other missing class
    escapes both: a non-cyclic class whose order is no prime power, or whose
    size p divides. Raises VerificationError naming the group order, the
    identity and d or p^k."""
    n = G.order
    count = np.bincount(orders, minlength=n + 1)
    ends = np.cumsum(count)
    # uncached: a derived table lingers in a cycle with its lattice until collected
    element_orders = GroupTable.element_orders.func(G)
    with_order = np.bincount(element_orders, minlength=n + 1)
    for d in np.flatnonzero(with_order).tolist():
        rows = masks[ends[d] - count[d]:ends[d]]
        cyclic = int(np.count_nonzero(rows[:, element_orders == d].any(axis=1)))
        phi = d
        for p in prime_factors(d):
            phi = phi // p * (p - 1)
        if cyclic * phi != with_order[d]:
            raise VerificationError(
                f"group of order {n}: {cyclic} cyclic subgroups of order {d}, but "
                f"{with_order[d]} elements of order {d} make {with_order[d] // phi}")
    for p in prime_factors(n):
        q = p
        while n % q == 0:
            if count[q] % p != 1:
                raise VerificationError(
                    f"group of order {n}: {count[q]} subgroups of order {q}, "
                    f"not 1 mod {p} (Frobenius)")
            q *= p


def _packed_rows(masks: np.ndarray) -> list[bytes]:
    """One hashable key per row of a boolean mask array: its packed bytes."""
    packed = np.packbits(masks, axis=1)
    return packed.view(f"V{packed.shape[1]}").ravel().tolist()


def _fresh_rows(keys: list[bytes], found: dict[bytes, int]) -> list[int]:
    """The first row of each key in `keys` that is not in `found`, in row
    order."""
    first: dict[bytes, int] = {}
    for i, key in enumerate(keys):
        if key not in found:
            first.setdefault(key, i)
    return list(first.values())


def _conjugation_perms(G: GroupTable) -> np.ndarray:
    """Row i maps y to g*y*g^-1 for the i-th non-central generator g in
    `G.minimal_generators`. Since y lies in S^g = g^-1*S*g exactly when
    g*y*g^-1 lies in S, indexing the columns of a subgroup mask by row i gives
    the mask of its conjugate by g."""
    idx = np.arange(G.order)
    perms = conjugates(G, idx, G.inv[list(G.minimal_generators)])
    return perms[(perms != idx).any(axis=1)]


def _class_labels(perms: np.ndarray, masks: np.ndarray,
                  keys: list[bytes]) -> tuple[list[bytes], np.ndarray]:
    """The conjugacy classes of the distinct subgroup masks `masks`, with
    packed keys `keys`: the orbits of the column permutations `perms` of
    `_conjugation_perms` on the rows (Holt, Eick & O'Brien 2005, §4.1).

    The stack is closed under `perms` breadth first: its own rows first, then
    the conjugates missing from it in the order found, so the least row of
    every class is an input row. Returns the keys of the closed stack and
    each row's label, the least row of its class: the least label over its
    images, taken with pointer jumping until nothing changes. The masks of
    the added rows are dropped once their images are known: no caller needs
    them, and keeping them raised the peak RSS of `lattice` on S7 from 237 to
    244 MB (Python 3.11, numpy 2.4). With no permutations (G abelian) every
    row is a class of its own."""
    if not perms.shape[0]:
        return list(keys), np.arange(len(keys))
    row_of = dict(zip(keys, range(len(keys))))
    keys = list(keys)
    frontier = masks
    images: list[int] = []  # entry i*len(perms) + k: the row conjugation k takes row i to
    while frontier.shape[0]:
        # a non-abelian G has two or more non-central generators (G/Z(G) is not
        # cyclic), so the reshape copies into the C-contiguous rows `_packed_rows` needs
        conj = frontier[:, perms].reshape(-1, masks.shape[1])
        fresh = []
        for i, key in enumerate(_packed_rows(conj)):
            row = row_of.get(key)
            if row is None:
                row = row_of[key] = len(keys)
                keys.append(key)
                fresh.append(i)
            images.append(row)
        frontier = conj[fresh]
    labels = np.arange(len(keys))
    images = np.array(images, dtype=np.intp).reshape(len(keys), perms.shape[0])
    while True:
        last = labels
        for image in images.T:  # where one conjugation takes each row
            labels = np.minimum(labels, labels[image])
        labels = labels[labels]
        if (labels == last).all():
            return keys, labels


def _closed_class_labels(G: GroupTable, masks: np.ndarray) -> np.ndarray:
    """The `_class_labels` of a mask stack of G that must already be closed
    under conjugation, as a finished lattice stack is."""
    keys, labels = _class_labels(_conjugation_perms(G), masks, _packed_rows(masks))
    if len(keys) > len(masks):
        raise VerificationError("conjugate of a subgroup missing from list")
    return labels


@dataclass(frozen=True)
class Cosets:
    """Partition of G into the cosets of one subgroup; ids ascend with the reps."""

    ids: np.ndarray        # element index -> coset index (read-only)
    reps: tuple[int, ...]  # ascending; reps[i] is the least element of coset i


# most recent numberings `cosets` keeps; the routes to one P(G; H, K) ask for
# at most four distinct ones, and consecutive pairs share some of them
_COSET_MEMO_SIZE = 8
_coset_memo: OrderedDict[tuple[weakref.ref, tuple[int, ...], str], Cosets] = OrderedDict()


def cosets(G: GroupTable, H: Subgroup, side: str) -> Cosets:
    """The left cosets gH (side "left") or right cosets Hg (side "right"),
    numbered by ascending minimal representative. H must be a subgroup of G.
    With least[g] the least element of g's coset, the representatives are
    the fixed points of `least`, and an element's id is the rank of its
    coset's one among them. A repeated request is served from the memo the
    module docstring describes."""
    if H.parent is not G:
        raise PreconditionError("the subgroup must belong to the given group")
    key = (weakref.ref(G), H.elems, side)
    found = _coset_memo.get(key)
    if found is not None:
        _coset_memo.move_to_end(key)
        return found
    if side == "left":
        members = G.mul[:, H.elem_array]    # row g holds gH
    elif side == "right":
        members = G.mul[H.elem_array, :].T  # row g holds Hg
    else:
        raise ParameterError(f"side must be 'left' or 'right', got {side!r}")
    least = members.min(axis=1)
    reps = np.flatnonzero(least == np.arange(G.order))
    ids = np.searchsorted(reps, least)
    ids.setflags(write=False)
    found = _coset_memo[key] = Cosets(ids, tuple(reps.tolist()))
    if len(_coset_memo) > _COSET_MEMO_SIZE:
        _coset_memo.popitem(last=False)
    return found


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


def _least_in_double_coset(G: GroupTable, label: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Entry g is the least label of the left cosets kgH that make up KgH,
    for K given by its element array, where label[x] names xH and orders the
    left cosets as their least elements do (the least element itself, or the
    id from `cosets`). With least elements as labels, the g equal to their
    entry are the minimal representatives."""
    return label[G.mul[K, :]].min(axis=0)


def double_cosets(G: GroupTable, H: Subgroup, K: Subgroup) -> DoubleCosets:
    """The double cosets KgH, numbered by ascending minimal representative:
    the block of g is named by the least id of the left cosets in KgH. The
    ids that name a block are marked, and the marked ids, ascending, are the
    blocks' representatives."""
    if K.parent is not G:  # K reaches no `cosets` call, which checks H
        raise PreconditionError("the subgroup must belong to the given group")
    left = cosets(G, H, "left")
    least = _least_in_double_coset(G, left.ids, K.elem_array)
    mark = np.zeros(len(left.reps), dtype=bool)
    mark[least] = True
    rep_ids = np.flatnonzero(mark)
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


def is_abelian_subgroup(G: GroupTable, H: Subgroup) -> bool:
    """Whether H is abelian: its table, G's rows and columns at H's
    elements, is symmetric. It is compared in column blocks of about
    `_ASSOCIATIVITY_CELLS` cells, so a large H needs no |H|^2 array."""
    elems = H.elem_array
    width = max(1, _ASSOCIATIVITY_CELLS // elems.size)
    for c in range(0, elems.size, width):
        cols = elems[c:c + width]
        if not np.array_equal(G.mul[elems[:, None], cols], G.mul[cols[:, None], elems].T):
            return False
    return True


def is_abelian_modulo(G: GroupTable, gens: Sequence[int], N: Subgroup) -> bool:
    """Whether <gens>N/N is abelian, for N normal in <gens>N: the images of
    the generators commute pairwise exactly when every commutator
    [a, b] = (ba)^-1 ab of two of them lies in N."""
    g = np.asarray(gens, dtype=np.intp)
    ab = G.mul[g[:, None], g[None, :]]
    comms = G.mul[G.inv[ab.T], ab]
    return bool(N.mask[comms].all())


def conjugator_count(G: GroupTable, H: Subgroup, K: Subgroup) -> int:
    """|{g in G : H^g = K}|. Conjugation is injective, so H^g = K exactly
    when |H| = |K| and H^g lies inside K."""
    if H.order != K.order:
        return 0
    return int(np.count_nonzero(K.mask[conjugates(G, H.elem_array)].all(axis=1)))


def subgroup_conjugacy_classes(G: GroupTable,
                               subs: Sequence[Subgroup]) -> tuple[tuple[Subgroup, ...], ...]:
    """Partition of `subs`, closed under conjugation, into conjugacy classes by
    `_closed_class_labels`: each class sorted, classes ordered by their first member."""
    subs = sorted(subs, key=lambda s: s.elems)
    labels = _closed_class_labels(G, np.array([s.mask for s in subs]))
    members: dict[int, list[Subgroup]] = {}  # by the least row of the class
    for s, label in zip(subs, labels.tolist()):
        members.setdefault(label, []).append(s)
    return tuple(map(tuple, members.values()))


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
    image = np.zeros(B.order, dtype=bool)
    image[phi] = True
    if np.count_nonzero(image) != A.order:
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
    comms = np.zeros(G.order, dtype=bool)
    comms[G.mul[left, right]] = True
    return closure_of(G, np.flatnonzero(comms).tolist())


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
