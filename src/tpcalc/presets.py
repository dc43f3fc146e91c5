"""Concrete constructions of the specific groups the classification and
verification layers compare against. Each is deterministic and order-checked.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import VerificationError
from .group_core import (
    GroupTable,
    action_by_generator_power,
    action_by_inversion,
    cp_rtimes_c2n,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    field_frobenius,
    from_permutation_generators,
    generalized_quaternion,
    quotient_group,
    semidirect_product,
    subgroup_generated,
)


def _checked(G: GroupTable, order: int) -> GroupTable:
    if G.order != order:
        raise VerificationError(f"expected order {order}, built {G.order}")
    return G


@lru_cache(maxsize=None)
def alternating_4() -> GroupTable:
    return _checked(from_permutation_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)]), 12)


@lru_cache(maxsize=None)
def symmetric_4() -> GroupTable:
    return _checked(from_permutation_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)]), 24)


@lru_cache(maxsize=None)
def alternating_5() -> GroupTable:
    return _checked(from_permutation_generators(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]), 60)


@lru_cache(maxsize=None)
def sl2_3() -> GroupTable:
    """SL(2,3) acting on the eight nonzero vectors of GF(3)^2."""
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    pos = {v: i for i, v in enumerate(vecs)}

    def perm_of(matrix):
        (a, b), (c, d) = matrix
        return tuple(pos[((a * x + b * y) % 3, (c * x + d * y) % 3)] for x, y in vecs)

    gens = [perm_of(((1, 1), (0, 1))), perm_of(((0, 2), (1, 0)))]
    return _checked(from_permutation_generators(8, gens), 24)


@lru_cache(maxsize=None)
def psl3_2() -> GroupTable:
    """The simple group of order 168, as fractional-linear maps on the eight
    points of the projective line over GF(7) (point 7 is the infinite one)."""
    shift = tuple([(i + 1) % 7 for i in range(7)] + [7])

    def neg_inv(x: int) -> int:
        if x == 7:
            return 0
        if x == 0:
            return 7
        return (-pow(x, -1, 7)) % 7

    gens = [shift, tuple(neg_inv(i) for i in range(8))]
    return _checked(from_permutation_generators(8, gens), 168)


@lru_cache(maxsize=None)
def c4_rtimes_c4() -> GroupTable:
    """The nonabelian C4-by-C4 split extension of order 16 (inversion action)."""
    base = cyclic(4)
    top = cyclic(4)
    return _checked(semidirect_product(base, top, action_by_inversion(base, top)), 16)


@lru_cache(maxsize=None)
def modular_16() -> GroupTable:
    """The modular (semidihedral-adjacent) group of order 16: C8 by C2 with
    the involution acting as the fifth-power map."""
    base = cyclic(8)
    top = cyclic(2)
    return _checked(semidirect_product(
        base, top, action_by_generator_power(base, top, 5)), 16)


@lru_cache(maxsize=None)
def c4_circ_d4() -> GroupTable:
    """Central product of C4 and D4 over their shared central involution."""
    prod = direct_product(cyclic(4), dihedral(4))
    # c^2 pairs with the central rotation r^2 of D4 (index 2 in rotations-first order)
    diagonal = subgroup_generated(prod, [2 * 8 + 2])
    if diagonal.order != 2:
        raise VerificationError("central identification subgroup must have order 2")
    Q, _ = quotient_group(prod, diagonal)
    return _checked(Q, 16)


def plane_swap_action(p: int, top: GroupTable) -> list[np.ndarray]:
    """C4 acting on the rank-2 elementary abelian group by coordinate swap."""
    n = p * p
    swap = np.array([(i % p) * p + (i // p) for i in range(n)], dtype=np.int64)
    ident = np.arange(n, dtype=np.int64)
    return [ident if k % 2 == 0 else swap for k in range(top.order)]


def plane_quarter_turn_action(p: int, top: GroupTable) -> list[np.ndarray]:
    """C4 acting on the rank-2 elementary abelian group by (x, y) -> (-y, x)."""
    n = p * p
    turn = np.array([((-(i // p)) % p) + p * (i % p) for i in range(n)], dtype=np.int64)
    perms = []
    cur = np.arange(n, dtype=np.int64)
    for _ in range(top.order):
        perms.append(cur)
        cur = turn[cur]
    return perms


@lru_cache(maxsize=None)
def c2sq_rtimes_c4() -> GroupTable:
    base = elementary_abelian(2, 2)
    top = cyclic(4)
    return _checked(semidirect_product(base, top, plane_swap_action(2, top)), 16)


@lru_cache(maxsize=None)
def c3sq_rtimes_c4() -> GroupTable:
    """The order-36 fixed-point-free extension of C3 x C3 by C4."""
    base = elementary_abelian(3, 2)
    top = cyclic(4)
    return _checked(semidirect_product(base, top, plane_quarter_turn_action(3, top)), 36)


@lru_cache(maxsize=None)
def c7_rtimes_c3() -> GroupTable:
    base = cyclic(7)
    top = cyclic(3)
    return _checked(semidirect_product(
        base, top, action_by_generator_power(base, top, 2)), 21)


@lru_cache(maxsize=None)
def c2cube_rtimes_c7() -> GroupTable:
    """The order-56 affine group of GF(8)."""
    return _checked(GroupTable(field_frobenius(8).mul, provenance="c2cube_rtimes_c7"), 56)


def quarter_classification_references() -> dict[str, GroupTable]:
    """Reference groups for the quotient shape in the tp = 1/4 classification."""
    return {
        "d6": dihedral(6),
        "modular_16": modular_16(),
        "c4_circ_d4": c4_circ_d4(),
        "c2_x_d4": direct_product(cyclic(2), dihedral(4)),
        "c2sq_rtimes_c4": c2sq_rtimes_c4(),
    }


def half_classification_references(order: int) -> dict[str, GroupTable]:
    """Reference groups of the given order for the tp = 1/2 classification."""
    refs: dict[str, GroupTable] = {}
    if order == 8:
        refs["d4"] = dihedral(4)
    if order == 16:
        refs["q16"] = generalized_quaternion(16)
        refs["c4_rtimes_c4"] = c4_rtimes_c4()
    k = _two_power_cofactor(order, 3)
    if k is not None and k >= 1:
        refs[f"c3_rtimes_c{2**k}"] = cp_rtimes_c2n(3, k)
    return refs


def quarter_family_i_reference(order: int) -> tuple[str, GroupTable] | None:
    """The dihedral-like C5-by-C_{2^k} group of the given order, if any."""
    k = _two_power_cofactor(order, 5)
    if k is None or k < 1:
        return None
    return f"c5_rtimes_c{2**k}", cp_rtimes_c2n(5, k)


def _two_power_cofactor(order: int, p: int) -> int | None:
    """k such that order = p * 2^k, or None."""
    if order % p != 0:
        return None
    rest = order // p
    k = rest.bit_length() - 1
    return k if rest == 1 << k else None
