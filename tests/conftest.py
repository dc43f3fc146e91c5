"""Shared fixtures: the small-group zoo and the built-in catalog, built once."""

from __future__ import annotations

import numpy as np
import pytest

from tpcalc import catalog as cat
from tpcalc import group_core as gc
from tpcalc import presets
from tpcalc import tp_engine as te


def relabelling(n: int, seed: int) -> np.ndarray:
    """The permutation of 0..n-1 by which `relabelled` moves each element."""
    return np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(n - 1)])


def relabelled(G: gc.GroupTable, seed: int) -> gc.GroupTable:
    """A fresh table isomorphic to G, its non-identity elements permuted:
    element x of G is element perm[x] of the result."""
    perm = relabelling(G.order, seed)
    mul = np.empty_like(G.mul)
    mul[np.ix_(perm, perm)] = perm[G.mul]
    return gc.GroupTable(mul)


@pytest.fixture(scope="session")
def zoo() -> dict[str, gc.GroupTable]:
    return {
        "trivial": gc.cyclic(1),
        "c2": gc.cyclic(2),
        "c3": gc.cyclic(3),
        "c4": gc.cyclic(4),
        "c6": gc.cyclic(6),
        "c8": gc.cyclic(8),
        "c12": gc.cyclic(12),
        "c2sq": gc.elementary_abelian(2, 2),
        "c2cube": gc.elementary_abelian(2, 3),
        "c3sq": gc.elementary_abelian(3, 2),
        "c2_x_c4": gc.direct_product(gc.cyclic(2), gc.cyclic(4)),
        "s3": gc.dihedral(3),
        "d4": gc.dihedral(4),
        "d5": gc.dihedral(5),
        "d6": gc.dihedral(6),
        "d8": gc.dihedral(8),
        "q8": gc.generalized_quaternion(8),
        "q16": gc.generalized_quaternion(16),
        "a4": presets.alternating_4(),
        "s4": presets.symmetric_4(),
        "c3_c4": gc.cp_rtimes_c2n(3, 2),
        "c5_c4": gc.cp_rtimes_c2n(5, 2),
        "f20": gc.field_frobenius(5),
        "c7_c3": presets.build_group("sdp (cyclic 7) (cyclic 3) pow 2"),
        "sl2_3": presets.sl2_3(),
        "c3sq_c4": presets.build_group("sdp (elemab 3 2) (cyclic 4) qturn"),
        "m4_2": presets.build_group("sdp (cyclic 8) (cyclic 2) pow 5"),
        "c4_circ_d4": presets.c4_circ_d4(),
        "c2sq_c4": presets.build_group("sdp (elemab 2 2) (cyclic 4) swap"),
    }


@pytest.fixture(scope="session")
def catalog_entries() -> list[cat.CatalogEntry]:
    return cat.builtin_catalog()


@pytest.fixture(scope="session")
def catalog_groups(catalog_entries) -> dict[str, gc.GroupTable]:
    return {e.id: e.group() for e in catalog_entries}


@pytest.fixture(scope="session")
def catalog_tp(catalog_groups) -> dict[str, te.TpResult]:
    return {name: te.tp(G, name) for name, G in catalog_groups.items()}
