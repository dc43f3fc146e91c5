import dataclasses
import itertools
import math
import weakref
from gc import collect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import relabelled, relabelling
from tpcalc import catalog as cat
from tpcalc import coset_graph as cg
from tpcalc import group_core as gc
from tpcalc import presets
from tpcalc.errors import (
    ActionError,
    FormatError,
    NormalityError,
    Limits,
    ParameterError,
    SizeLimitError,
    VerificationError,
    using,
)


def brute_force_subgroups(G: gc.GroupTable) -> set[tuple[int, ...]]:
    """Independent oracle for small G: test every subset containing 0."""
    n = G.order
    assert n <= 8
    out = set()
    rest = [x for x in range(n) if x != 0]
    for r in range(n):
        for combo in itertools.combinations(rest, r):
            elems = (0,) + combo
            ok = all(G.mul[a, b] in elems for a in elems for b in elems)
            if ok:
                out.add(tuple(sorted(elems)))
    return out


def reference_closure(G: gc.GroupTable, seed) -> np.ndarray:
    """Independent closure oracle: the |S|^2-product fixed point."""
    elems = np.array(sorted({int(x) for x in seed} | {0}), dtype=np.int64)
    while True:
        new = np.unique(G.mul[np.ix_(elems, elems)])
        if new.size == elems.size:
            return new
        elems = new


def reference_greedy(G: gc.GroupTable, elems) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy generating sequence of the subgroup with elements `elems`, re-closed
    from scratch with the oracle at every step, and the order after each step."""
    gens, sizes, current = [], [], {0}
    while len(current) < len(elems):
        gens.append(min(set(elems) - current))
        current = set(reference_closure(G, gens).tolist())
        sizes.append(len(current))
    return tuple(gens), tuple(sizes)


def one_at_a_time_subgroups(G: gc.GroupTable) -> list[tuple[int, ...]]:
    """Reference enumerator: every cyclic subgroup, then each subgroup found
    (the trivial one too) extended by one (H,H)-double-coset representative
    at a time, each extension closed afresh from the identity."""
    found = {tuple(gc.closure_of(G, [x]).tolist()) for x in range(G.order)}
    work = list(found)
    while work:
        H = gc.Subgroup(G, work.pop())
        for r in gc.double_cosets(G, H, H).reps:
            key = tuple(gc.closure_of(G, list(H.elems) + [r]).tolist())
            if key not in found:
                found.add(key)
                work.append(key)
    return sorted(found, key=lambda elems: (len(elems), elems))


def extend_every_subgroup(G: gc.GroupTable) -> list[tuple[int, ...]]:
    """Reference enumerator, the pass before whole classes were registered:
    every cyclic subgroup, then every subgroup found extended by each of its
    (H,H)-double-coset representatives, all the extensions of one H grown in
    one batched search."""
    found = {}  # mask bytes -> element tuple
    work = []

    def add(mask, gens):
        if mask.tobytes() not in found:
            found[mask.tobytes()] = key = tuple(np.flatnonzero(mask).tolist())
            work.append((key, gens))

    for x in range(G.order):
        mask = np.zeros(G.order, dtype=bool)
        mask[gc.closure_of(G, [x])] = True
        add(mask, [x])
    while work:
        key, gens = work.pop()
        H = gc.Subgroup(G, key)
        reps = np.array(gc.double_cosets(G, H, H).reps[1:], dtype=np.intp)
        row_gens = np.array([gens + [r] for r in reps.tolist()], dtype=np.intp)
        reached = np.repeat(H.mask[None, :], reps.size, axis=0)
        gc._grow(G.mul, reached, G.mul[H.elem_array[None, :], reps[:, None]], row_gens)
        for row, row_gen in zip(reached, row_gens.tolist()):
            add(row, row_gen)
    return sorted(found.values(), key=lambda elems: (len(elems), elems))


def tuple_walk_classes(G: gc.GroupTable, subs) -> list[list[tuple[int, ...]]]:
    """Reference split of a conjugation-closed list of element tuples:
    orbit closure on sorted tuples under G's generators. Classes are sorted,
    and ordered by their first member."""
    known = set(subs)
    classes, placed = [], set()
    for key in sorted(known):
        if key in placed:
            continue
        orbit, frontier = {key}, [key]
        while frontier:
            for row in np.sort(gc.conjugates(G, frontier.pop(), G.minimal_generators), axis=1):
                conj = tuple(row.tolist())
                assert conj in known, "conjugate of a subgroup missing from list"
                if conj not in orbit:
                    orbit.add(conj)
                    frontier.append(conj)
        placed |= orbit
        classes.append(sorted(orbit))
    return classes


def assert_lattice_is_the_reference(lat: gc.Lattice, G: gc.GroupTable, subs, label) -> None:
    """`lat` against the enumerate-then-split reference on the subgroups
    `subs`: the same subgroups, classes in the same order with the same
    first members, and the same normal subgroups."""
    classes = tuple_walk_classes(G, subs)
    assert [s.elems for s in lat.subgroups] == list(subs), label
    assert [[s.elems for s in c] for c in lat.classes] == classes, label
    alone = {c[0] for c in classes if len(c) == 1}
    assert [s.elems for s in lat.normal] == [k for k in subs if k in alone], label


def derived_tables(zoo):
    """(label, table) for every quotient G/N, subgroup table H (one per
    class) and section H/N of the zoo."""
    for name, G in zoo.items():
        lat = gc.lattice(G)
        for N in lat.normal:
            yield (name, "G/N", N.elems), gc.quotient_group(G, N)[0]
        for cls in lat.classes:
            H = gc.subgroup_as_group(G, cls[0])
            yield (name, "H", cls[0].elems), H
            for N in gc.lattice(H).normal:
                yield (name, "H/N", cls[0].elems, N.elems), gc.quotient_group(H, N)[0]


def composed_table(degree: int, generators) -> tuple[np.ndarray, str]:
    """Reference permutation-group builder: the same breadth-first closure,
    then every product a*b composed as a tuple (apply a, then b) and looked
    up by value. Returns the table and the provenance the builder gives."""
    gens = [tuple(int(x) for x in g) for g in generators]
    elems = [tuple(range(degree))]
    pos = {elems[0]: 0}
    head = 0
    while head < len(elems):
        cur = elems[head]
        head += 1
        for g in gens:
            nxt = tuple(g[c] for c in cur)
            if nxt not in pos:
                pos[nxt] = len(elems)
                elems.append(nxt)
    n = len(elems)
    mul = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            mul[i, j] = pos[tuple(b[x] for x in a)]
    gen_desc = ";".join(",".join(map(str, g)) for g in gens)
    return mul, f"perm(degree={degree},gens=[{gen_desc}])"


@st.composite
def permutation_generators(draw):
    """(degree, generators) of degree <= 6: up to three permutations, and
    maybe the identity and a repeat of the first, each at a drawn place."""
    degree = draw(st.integers(0, 6))
    gens = draw(st.lists(st.permutations(range(degree)).map(tuple), max_size=3))
    for extra in (tuple(range(degree)), *gens[:1]):  # the identity, a repeat
        if draw(st.booleans()):
            gens.insert(draw(st.integers(0, len(gens))), extra)
    return degree, gens


def gaussian_binomial(r: int, k: int, p: int) -> int:
    """The number of k-dimensional subspaces of GF(p)^r."""
    num = den = 1
    for i in range(k):
        num *= p**r - p**i
        den *= p**k - p**i
    return num // den


class TestTableValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            gc.GroupTable([[0, 1]])

    def test_rejects_wrong_identity(self):
        # C2 with the elements relabelled so the identity sits at index 1
        with pytest.raises(ParameterError):
            gc.GroupTable([[1, 0], [0, 1]])

    def test_rejects_non_latin(self):
        with pytest.raises(ParameterError):
            gc.GroupTable([[0, 1], [1, 1]])

    def test_accepts_exactly_the_group_tables(self):
        """Identity, two-sided inverses and associativity make a group, and a
        group's table is a Latin square, so the constructor runs no Latin test.
        Checked against brute force on every 2x2 and 3x3 table with the
        identity border and on seeded random and near-group tables of orders
        4-6; some of these have inverses but repeat an entry in a row."""
        def bordered(n):
            mul = np.zeros((n, n), dtype=np.int64)
            mul[0] = mul[:, 0] = np.arange(n)
            return mul

        tables = []
        for n in (2, 3):
            for interior in itertools.product(range(n), repeat=(n - 1) ** 2):
                mul = bordered(n)
                mul[1:, 1:] = np.reshape(interior, (n - 1, n - 1))
                tables.append(mul)
        rng = np.random.default_rng(0)
        for G in (gc.cyclic(4), gc.elementary_abelian(2, 2), gc.cyclic(5), gc.cyclic(6),
                  gc.dihedral(3)):
            n = G.order
            for _ in range(300):
                mul = bordered(n)
                mul[1:, 1:] = rng.integers(0, n, (n - 1, n - 1))
                tables.append(mul)
                perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
                near = np.empty((n, n), dtype=np.int64)
                near[np.ix_(perm, perm)] = perm[G.mul]
                for _ in range(rng.integers(0, 3)):
                    near[rng.integers(1, n), rng.integers(1, n)] = rng.integers(0, n)
                tables.append(near)

        accepted = non_latin_with_inverses = 0
        for mul in tables:
            n = len(mul)
            idx = np.arange(n)
            inverses = bool(((mul == 0) & (mul.T == 0)).any(axis=1).all())
            associative = np.array_equal(mul[mul], mul[idx[:, None, None], mul[None]])
            is_group = inverses and associative  # the identity border is built in
            try:
                gc.GroupTable(mul)
                ok = True
            except ParameterError:
                ok = False
            assert ok == is_group, mul
            accepted += ok
            latin = all(sorted(row) == list(idx) for row in np.vstack([mul, mul.T]))
            non_latin_with_inverses += inverses and not latin
        assert accepted > 300 and non_latin_with_inverses > 100

    def test_rejects_nonassociative_loop(self):
        # search the smallest loop (Latin square with identity) that fails
        # associativity; it has order 5, and the constructor must reject it
        base = list(range(5))
        found = None
        for p2 in itertools.permutations(base):
            if p2[0] != 2:
                continue
            for p3 in itertools.permutations(base):
                if p3[0] != 3:
                    continue
                for p4 in itertools.permutations(base):
                    if p4[0] != 4:
                        continue
                    rows = [base, [1, 0, 3, 4, 2][:], list(p2), list(p3), list(p4)]
                    cols_ok = all(sorted(col) == base for col in zip(*rows))
                    if not cols_ok:
                        continue
                    assoc = all(
                        rows[rows[a][b]][c] == rows[a][rows[b][c]]
                        for a in range(5) for b in range(5) for c in range(5))
                    if not assoc:
                        found = rows
                        break
                if found:
                    break
            if found:
                break
        assert found is not None
        with pytest.raises(ParameterError):
            gc.GroupTable(found)

    def test_rejects_nonassociative_table_of_order_520(self):
        # Swapping the intercalate at rows 1, 261 and columns 4, 264 of C_520
        # keeps a Latin square with identity and two-sided inverses, and breaks
        # associativity on few enough triples that random sampling misses it.
        mul = np.array(gc.cyclic(520).mul)
        rows, cols = [1, 261], [4, 264]
        mul[np.ix_(rows, cols)] = mul[np.ix_(rows[::-1], cols)]
        with pytest.raises(ParameterError, match="not associative"):
            gc.GroupTable(mul)

    def test_nonassociative_fault_in_the_last_column_block(self, monkeypatch):
        # The order-520 table above fails Light's test for its generator 1 in
        # columns 3, 4, 263 and 264. Relabelled so they become 516..519, and
        # compared in 100-column blocks, every block but the last of six passes.
        mul = np.array(gc.cyclic(520).mul)
        rows, cols = [1, 261], [4, 264]
        mul[np.ix_(rows, cols)] = mul[np.ix_(rows[::-1], cols)]
        perm = np.arange(520)
        perm[[3, 4, 263, 264, 516, 517, 518, 519]] = [516, 517, 518, 519, 3, 4, 263, 264]
        relabelled = np.empty_like(mul)
        relabelled[np.ix_(perm, perm)] = perm[mul]
        monkeypatch.setattr(gc, "_ASSOCIATIVITY_CELLS", 520 * 100)
        blocks = []
        array_equal = np.array_equal

        def recording(a, b):
            equal = array_equal(a, b)
            if np.ndim(a) == 2:  # a block of Light's test, not a 1-D axiom check
                blocks.append((np.shape(a), equal))
            return equal

        monkeypatch.setattr(np, "array_equal", recording)
        with pytest.raises(ParameterError, match="not associative"):
            gc.GroupTable(relabelled)
        assert blocks == [((520, 100), True)] * 5 + [((520, 20), False)]

    def test_every_zoo_table_revalidates(self, zoo):
        for G in zoo.values():
            gc.GroupTable(G.mul)  # full checks run again without complaint


class TestNamedFamilies:
    def test_dihedral_3(self):
        G = gc.dihedral(3)
        assert G.order == 6 and not G.is_abelian

    def test_cp_rtimes_matches_dihedral(self):
        assert gc.is_isomorphic(gc.cp_rtimes_c2n(3, 1), gc.dihedral(3))

    def test_field_frobenius_5(self):
        G = gc.field_frobenius(5)
        assert G.order == 20
        comp = gc.subgroup_generated(G, [G.order // 4])  # first K-copy generator
        from tpcalc.coset_graph import frobenius_s2_check
        assert comp.order == 4
        assert frobenius_s2_check(G, comp).frobenius

    def test_quaternion_presentation(self):
        q8 = gc.generalized_quaternion(8)
        orders = sorted(int(o) for o in q8.element_orders)
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_elementary_abelian(self):
        G = gc.elementary_abelian(3, 2)
        assert G.order == 9 and G.is_abelian
        assert all(int(G.element_orders[x]) in (1, 3) for x in range(9))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            gc.cp_rtimes_c2n(4, 1)  # even p
        with pytest.raises(ParameterError):
            gc.field_frobenius(6)  # not a prime power
        with pytest.raises(ParameterError):
            gc.generalized_quaternion(4)  # m < 3


class TestPermutationClosure:
    def test_a4_from_generators(self):
        G = gc.from_permutation_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)])
        assert G.order == 12

    def test_psl_order(self):
        assert presets.psl3_2().order == 168

    def test_empty_generators(self):
        assert gc.from_permutation_generators(3, []).order == 1

    def test_cap(self):
        with using(Limits(table=10)), pytest.raises(SizeLimitError):
            gc.from_permutation_generators(5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
        gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]  # S5: a limit of its order passes
        with using(Limits(table=120)):
            assert gc.from_permutation_generators(5, gens).order == 120
        with using(Limits(table=119)), \
                pytest.raises(SizeLimitError, match="closure exceeded 119 elements"):
            gc.from_permutation_generators(5, gens)

    def test_invalid_permutation(self):
        with pytest.raises(ParameterError):
            gc.from_permutation_generators(3, [(0, 0, 1)])


class TestPermutationTableOracle:
    """The Schreier-graph table against `composed_table`, bit for bit."""

    PRESETS = ("alternating_4", "symmetric_4", "alternating_5", "sl2_3", "psl3_2")

    @pytest.mark.parametrize("preset", PRESETS)
    def test_presets(self, monkeypatch, preset):
        calls = []

        def record(degree, gens):
            calls.append((degree, list(gens)))
            return gc.from_permutation_generators(degree, gens)

        monkeypatch.setattr(presets, "from_permutation_generators", record)
        G = getattr(presets, preset).__wrapped__()
        [(degree, gens)] = calls
        mul, provenance = composed_table(degree, gens)
        assert G.mul.dtype == np.int32 and np.array_equal(G.mul, mul)
        assert G.provenance == provenance
        assert np.array_equal(getattr(presets, preset)().mul, mul)

    @pytest.mark.parametrize("degree, gens, order", [
        (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], 120),
        (6, [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)], 360),
        (6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)], 720),
    ])
    def test_s5_a6_s6(self, degree, gens, order):
        G = gc.from_permutation_generators(degree, gens)
        mul, provenance = composed_table(degree, gens)
        assert G.order == order
        assert np.array_equal(G.mul, mul) and G.provenance == provenance

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(permutation_generators())
    @example((3, []))
    @example((4, [(0, 1, 2, 3)]))
    @example((4, [(1, 0, 2, 3), (1, 0, 2, 3), (0, 1, 2, 3), (1, 2, 3, 0)]))
    def test_drawn_generators(self, drawn):
        degree, gens = drawn
        G = gc.from_permutation_generators(degree, gens)
        mul, provenance = composed_table(degree, gens)
        assert np.array_equal(G.mul, mul) and G.provenance == provenance


class TestProducts:
    def test_c2_squared(self):
        got = gc.direct_product(gc.cyclic(2), gc.cyclic(2))
        assert np.array_equal(got.mul, gc.elementary_abelian(2, 2).mul)

    def test_s3_times_c5(self):
        assert gc.direct_product(gc.dihedral(3), gc.cyclic(5)).order == 30

    def test_product_with_trivial(self):
        A = gc.dihedral(4)
        got = gc.direct_product(A, gc.cyclic(1))
        assert np.array_equal(got.mul, A.mul)

    def test_trivial_action_is_direct_product(self):
        G, K = gc.cyclic(6), gc.cyclic(4)
        ident = np.arange(G.order)
        sdp = gc.semidirect_product(G, K, [ident] * K.order)
        assert np.array_equal(sdp.mul, gc.direct_product(K, G).mul)

    def test_inversion_action_gives_cpc2(self):
        G = gc.semidirect_product(gc.cyclic(3), gc.cyclic(4),
                                  gc.action_by_inversion(gc.cyclic(3), gc.cyclic(4)))
        assert gc.is_isomorphic(G, gc.cp_rtimes_c2n(3, 2))

    def test_c3sq_c4_order(self):
        assert presets.build_group("sdp (elemab 3 2) (cyclic 4) qturn").order == 36

    def test_canonical_copies_embed(self):
        base, top = gc.cyclic(5), gc.cyclic(4)
        G = gc.semidirect_product(base, top, gc.action_by_inversion(base, top))
        base_copy = gc.subgroup_generated(G, list(range(base.order)))
        assert base_copy.order == base.order
        top_copy = gc.subgroup_generated(G, [base.order * k for k in range(top.order)])
        assert top_copy.order == top.order

    def test_bad_action_rejected(self):
        base, top = gc.cyclic(3), gc.cyclic(3)
        inv = base.inv.astype(np.int64)
        ident = np.arange(3, dtype=np.int64)
        with pytest.raises(ActionError):
            gc.semidirect_product(base, top, [ident, inv, inv])  # not a homomorphism
        with pytest.raises(ActionError):
            gc.semidirect_product(base, top, [ident, ident])  # wrong length
        with pytest.raises(ActionError):
            gc.semidirect_product(base, top, [ident, np.array([0, 0, 1]), ident])


class TestSubgroupEnumeration:
    def test_s3_has_six(self, zoo):
        subs = gc.all_subgroups(zoo["s3"])
        assert [s.order for s in subs] == [1, 2, 2, 2, 3, 6]

    def test_c6_has_four(self, zoo):
        assert len(gc.all_subgroups(zoo["c6"])) == 4

    def test_q8_all_normal(self, zoo):
        subs = gc.all_subgroups(zoo["q8"])
        assert len(subs) == 6
        assert all(gc.is_normal_subgroup(zoo["q8"], s) for s in subs)

    def test_brute_force_oracle_small_groups(self, zoo):
        for name in ("s3", "c6", "q8", "c2cube", "c8"):
            G = zoo[name]
            got = {s.elems for s in gc.all_subgroups(G)}
            assert got == brute_force_subgroups(G), name

    def test_closure_fixed_point(self, zoo):
        for name in ("s3", "d4", "a4", "c3_c4"):
            G = zoo[name]
            keys = {s.elems for s in gc.all_subgroups(G)}
            for s in gc.all_subgroups(G):
                for x in range(G.order):
                    grown = gc.subgroup_generated(G, list(s.elems) + [x])
                    assert grown.elems in keys

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(data=st.data())
    def test_closure_against_reference(self, zoo, data):
        name = data.draw(st.sampled_from(sorted(zoo)))
        G = zoo[name]
        seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
        got = gc.closure_of(G, seed)
        assert got.tolist() == reference_closure(G, seed).tolist(), (name, seed)

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(data=st.data())
    def test_batched_grow_is_closure_row_by_row(self, zoo, data):
        """Rows with generator lists of differing lengths, padded with the
        identity, each reach what `closure_of` reaches on their own list."""
        name = data.draw(st.sampled_from(sorted(zoo)))
        G = zoo[name]
        seeds = data.draw(st.lists(st.lists(st.integers(0, G.order - 1), max_size=4),
                                   min_size=1, max_size=6))
        gens = np.zeros((len(seeds), max(map(len, seeds))), dtype=np.intp)
        for row, seed in zip(gens, seeds):
            row[:len(seed)] = seed
        reached = np.zeros((len(seeds), G.order), dtype=bool)
        gc._grow(G.mul, reached, np.zeros((len(seeds), 1), dtype=np.intp), gens)
        for row, seed in zip(reached, seeds):
            assert np.flatnonzero(row).tolist() == gc.closure_of(G, seed).tolist(), (name, seed)

    def test_batched_grow_extends_a_subgroup_row_by_row(self, zoo):
        """From a subgroup H with frontier H*r, row r reaches <H, r>."""
        for name in ("s4", "sl2_3", "c3sq_c4"):
            G = zoo[name]
            for H in gc.all_subgroups(G):
                gens = H.generators()
                reps = np.arange(G.order)
                reached = np.repeat(H.mask[None, :], G.order, axis=0)
                row_gens = np.array([gens + (r,) for r in reps], dtype=np.intp)
                gc._grow(G.mul, reached, G.mul[H.elem_array[None, :], reps[:, None]], row_gens)
                for r in reps:
                    want = gc.closure_of(G, list(H.elems) + [int(r)])
                    assert np.flatnonzero(reached[r]).tolist() == want.tolist(), (name, H, r)

    def test_matches_the_one_at_a_time_enumerator(self, zoo):
        s5 = gc.from_permutation_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
        tables = {**zoo, "psl3_2": relabelled(presets.psl3_2(), 1), "s5": relabelled(s5, 2)}
        counts = {}
        for name, G in tables.items():
            got = [s.elems for s in gc.all_subgroups(G)]
            assert got == one_at_a_time_subgroups(G), name
            counts[name] = len(got)
        assert (counts["psl3_2"], counts["s5"]) == (179, 156)

    @pytest.mark.parametrize("p, r, want", [(2, 4, 67), (3, 3, 28), (5, 2, 8), (2, 6, 2825),
                                            (3, 4, 212), (5, 3, 64)])
    def test_elementary_abelian_counts(self, p, r, want):
        """On the table and on relabelled copies, since which coset element
        is least decides which extensions the normal path builds."""
        assert sum(gaussian_binomial(r, k, p) for k in range(r + 1)) == want
        G = gc.elementary_abelian(p, r)
        assert len(gc.all_subgroups(G)) == want
        for seed in range(6):
            assert len(gc.all_subgroups(relabelled(G, seed))) == want, seed

    def test_rank_two_abelian_counts(self):
        """An independent count oracle: Z_m x Z_n has the sum of gcd(a, b)
        over a | m and b | n subgroups (Hampejs, Holighaus, Toth & Wiesmeyr
        2014). Each abelian group of rank at most two and order at most 128
        once, as Z_m x Z_n with m | n, on three relabelled copies. The pass's
        own counts (`_check_counts`) miss a lattice that lacks only some
        non-cyclic subgroups of composite order."""
        def divisors(k):
            return [d for d in range(1, k + 1) if k % d == 0]

        mismatches = []
        for m in range(1, 12):
            for n in range(m, 128 // m + 1, m):
                want = sum(math.gcd(a, b) for a in divisors(m) for b in divisors(n))
                G = gc.direct_product(gc.cyclic(m), gc.cyclic(n))
                for seed in (0, 1, 2):
                    got = len(gc.lattice(relabelled(G, seed)).subgroups)
                    if got != want:
                        mismatches.append((m, n, seed, got, want))
        assert not mismatches

    def test_generators_match_reference_greedy(self, zoo):
        for name, G in zoo.items():
            assert (G.minimal_generators, G.generator_chain_sizes) \
                == reference_greedy(G, range(G.order)), name
            for s in gc.all_subgroups(G):
                assert s.generators() == reference_greedy(G, s.elems)[0], (name, s.elems)

    def test_sorted_deterministically(self, zoo):
        subs = gc.all_subgroups(zoo["d4"])
        assert subs == sorted(subs, key=lambda s: (s.order, s.elems))

    def test_cap(self):
        with using(Limits(order=5)), pytest.raises(SizeLimitError):
            gc.all_subgroups(gc.cyclic(10))


class TestLattice:
    def test_subgroups_are_the_enumeration(self, zoo):
        for name in ("s3", "d4", "a4", "q8"):
            G = zoo[name]
            assert list(gc.lattice(G).subgroups) == gc.all_subgroups(G), name

    def test_normal_are_the_self_normalizing_in_g(self, zoo):
        for name, G in zoo.items():
            lat = gc.lattice(G)
            want = [s for s in lat.subgroups
                    if gc.subgroup_relations(G, s).normalizer.order == G.order]
            assert list(lat.normal) == want, name

    def test_classes_are_orbits_under_every_element(self, zoo):
        for name, G in zoo.items():
            lat = gc.lattice(G)
            orbits = {frozenset(s.conjugate_by(g).elems for g in range(G.order))
                      for s in lat.subgroups}
            got = [frozenset(s.elems for s in cls) for cls in lat.classes]
            assert len(got) == len(orbits) and set(got) == orbits, name
            assert sum(len(cls) for cls in lat.classes) == len(lat.subgroups), name
            for cls in lat.classes:
                assert list(cls) == sorted(cls, key=lambda s: s.elems), name

    def test_the_stack_split_agrees_with_the_pass(self, zoo, catalog_groups):
        """The pass and the split of a finished stack both go through
        `_class_labels`, so they are checked against the test-side orbit
        walk on sorted tuples: on every zoo and builtin lattice the classes
        are its classes, in its order, and `subgroup_conjugacy_classes` on
        the stack's subgroups returns the lattice's classes."""
        for name, G in {**zoo, **catalog_groups}.items():
            lat = gc.lattice(G)
            want = tuple_walk_classes(G, [s.elems for s in lat.subgroups])
            assert [[s.elems for s in c] for c in lat.classes] == want, name
            assert gc.subgroup_conjugacy_classes(G, lat.subgroups) == lat.classes, name

    def test_split_refuses_a_list_not_closed_under_conjugation(self, zoo):
        """S4 without one of its three cyclic subgroups of order 4: the
        other two are each a conjugate of the missing one."""
        S4 = zoo["s4"]
        subs = list(gc.lattice(S4).subgroups)
        subs.remove(next(s for s in subs
                         if s.order == 4 and (S4.element_orders[s.elem_array] == 4).any()))
        with pytest.raises(VerificationError, match="conjugate of a subgroup missing from list"):
            gc.subgroup_conjugacy_classes(S4, subs)

    def test_built_once_and_cap_checked_on_every_call(self):
        G = gc.dihedral(5)
        assert gc.lattice(G) is gc.lattice(G)
        with using(Limits(order=9)), pytest.raises(SizeLimitError):
            gc.lattice(G)

    def test_derived_lattices_match_a_fresh_enumeration(self, zoo):
        """Subgroup, quotient and section tables take their lattice from the
        parent's; a copy of the table with no source enumerates it afresh.
        Of about 1,100 tables only about 50 differ, so each distinct table is
        enumerated once."""
        fresh = {}
        for label, X in derived_tables(zoo):
            assert X._source is not None, label
            got = gc.lattice(X)
            key = X.mul.tobytes()
            if key not in fresh:
                fresh[key] = gc.lattice(gc.GroupTable(X.mul))
            want = fresh[key]
            assert [s.elems for s in got.subgroups] == [s.elems for s in want.subgroups], label
            assert ([[s.elems for s in c] for c in got.classes]
                    == [[s.elems for s in c] for c in want.classes]), label
            assert [s.elems for s in got.normal] == [s.elems for s in want.normal], label


    @pytest.mark.parametrize("expr", ["psl3_2", "elemab 2 6"])
    def test_batch_built_subgroups(self, expr):
        """Lattice subgroups are built a block at a time: each mask is a row
        view of one block and each element array a slice of one array. Every
        one, on the table and on three of its largest subgroup tables
        (whose lattices are taken from the table's), equals the checked
        `Subgroup` of its elements and hashes the same, and its arrays are
        read-only and C-contiguous. A base of the element array is
        one-dimensional, so it holds no row indices as a strided view would."""
        G = presets.build_group(expr)
        tables = [G] + [gc.subgroup_as_group(G, H) for H in gc.lattice(G).subgroups[-4:-1]]
        for X in tables:
            for s in gc.lattice(X).subgroups:
                t = gc.Subgroup(X, s.elems)
                assert s == t and hash(s) == hash(t), s.elems
                assert np.array_equal(s.mask, t.mask), s.elems
                assert np.array_equal(s.elem_array, t.elem_array), s.elems
                for arr in (s.mask, s.elem_array):
                    assert not arr.flags.writeable and arr.flags.c_contiguous, s.elems
                assert s.elem_array.dtype == np.int64
                assert s.elem_array.base is None or s.elem_array.base.ndim == 1, s.elems


class TestDerivedTables:
    """Subgroup and quotient tables are built without the group-axiom checks
    and their lattices without the closure check; the checks they skip
    accept every one of them and agree with what was built. A non-normal N
    is refused in TestQuotients."""

    def test_full_validation_agrees(self, zoo):
        for label, X in derived_tables(zoo):
            Y = gc.GroupTable(X.mul)
            assert np.array_equal(Y.inv, X.inv), label
            assert Y.minimal_generators == X.minimal_generators, label
            assert Y.generator_chain_sizes == X.generator_chain_sizes, label

    def test_lattice_members_pass_the_closure_check(self, zoo):
        for label, X in derived_tables(zoo):
            for s in gc.lattice(X).subgroups:
                assert gc.Subgroup(X, s.elems) == s, label
        for name, G in zoo.items():
            for s in gc.lattice(G).subgroups:
                assert gc.Subgroup(G, s.elems) == s, name

    def test_non_closed_set_is_refused(self, zoo):
        s3 = zoo["s3"]
        mask = np.zeros(s3.order, dtype=bool)
        mask[[0, 1]] = True  # 1 is a rotation of order 3
        with pytest.raises(ParameterError, match="not closed"):
            gc.subgroup_as_group(s3, gc.Subgroup._of_masks(s3, mask[None, :])[0])


class TestLatticeArrays:
    """A lattice's mask stack, orders and class labels against its
    subgroups, classes and normal subgroups."""

    @staticmethod
    def assert_arrays_agree(lat: gc.Lattice, n: int, label) -> None:
        subs = lat.subgroups
        assert lat.masks.shape == (len(subs), n) and lat.masks.dtype == bool, label
        for arr in (lat.masks, lat.orders, lat.labels):
            assert not arr.flags.writeable, label
        assert np.array_equal(lat.masks, np.array([s.mask for s in subs])), label
        if len(subs) > 1:  # the masks are row views of the one stack
            assert all(np.shares_memory(s.mask, lat.masks) for s in subs), label
        assert lat.orders.tolist() == [s.order for s in subs], label
        assert [s.elems for s in subs] == sorted((s.elems for s in subs),
                                                 key=lambda e: (len(e), e)), label
        row = {s.elems: i for i, s in enumerate(subs)}
        want = np.empty(len(subs), dtype=np.intp)
        for c, cls in enumerate(lat.classes):
            want[[row[s.elems] for s in cls]] = c
        assert lat.labels.tolist() == want.tolist(), label
        sizes = np.bincount(lat.labels)
        assert list(lat.normal) == [s for s, c in zip(subs, lat.labels) if sizes[c] == 1], label

    def test_fresh_tables(self, zoo):
        tables = {name: gc.GroupTable(G.mul) for name, G in zoo.items()}
        tables["psl3_2"] = presets.psl3_2()
        tables["elemab 2 6"] = gc.elementary_abelian(2, 6)
        for name, G in tables.items():
            self.assert_arrays_agree(gc.lattice(G), G.order, name)

    def test_derived_tables(self, zoo):
        for label, X in derived_tables(zoo):
            self.assert_arrays_agree(gc.lattice(X), X.order, label)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 70), st.lists(st.sets(st.integers(1, 69)), min_size=1, max_size=40))
    def test_canonical_order_is_the_order_elems_sort(self, n, sets):
        """The order taken from packed masks sorts any sets that contain 0
        as their (size, sorted element tuple) sort does."""
        tuples = sorted({(0,) + tuple(sorted(x for x in s if x < n)) for s in sets})
        masks = np.zeros((len(tuples), n), dtype=bool)
        for i, t in enumerate(tuples):
            masks[i, list(t)] = True
        orders = masks.sum(axis=1)
        rows = gc._canonical_order(gc._packed_rows(masks), orders.tolist())
        assert [tuples[i] for i in rows] == sorted(tuples, key=lambda t: (len(t), t))


class TestLatticeCounts:
    """The two counts the lattice pass checks: cyclic subgroups of order d
    against the elements of order d, and subgroups of order p^k = 1 mod p."""

    @staticmethod
    def without_class(G: gc.GroupTable, order: int, size: int, cyclic: bool):
        """G's mask stack and orders without one class of subgroups of the
        given order and size, cyclic or not."""
        lat = gc.lattice(G)
        for c, cls in enumerate(lat.classes):
            rep = cls[0]
            is_cyclic = bool((G.element_orders[rep.elem_array] == rep.order).any())
            if (rep.order, len(cls), is_cyclic) == (order, size, cyclic):
                keep = lat.labels != c
                return lat.masks[keep], lat.orders[keep]
        raise AssertionError(f"no class of order {order} and size {size}")

    def test_every_lattice_meets_them(self, zoo, catalog_groups):
        for name, G in {**zoo, **catalog_groups}.items():
            lat = gc.lattice(G)
            gc._check_counts(G, lat.masks, lat.orders)
        for label, X in derived_tables(zoo):
            lat = gc.lattice(X)
            gc._check_counts(X, lat.masks, lat.orders)

    def test_a_dropped_cyclic_class_is_caught(self, zoo):
        S4 = zoo["s4"]
        with pytest.raises(VerificationError, match=r"order 24: 0 cyclic subgroups of order 4"):
            gc._check_counts(S4, *self.without_class(S4, 4, 3, cyclic=True))

    def test_a_dropped_p_subgroup_class_is_caught(self, zoo):
        """S4's three non-normal Klein four-groups: not cyclic, so only the
        count mod 2 of the subgroups of order 4 sees them go."""
        S4 = zoo["s4"]
        with pytest.raises(VerificationError,
                           match=r"order 24: 4 subgroups of order 4, not 1 mod 2"):
            gc._check_counts(S4, *self.without_class(S4, 4, 3, cyclic=False))

    def test_derived_lattices_are_checked(self, zoo):
        """A subgroup or quotient table whose parent's lattice misses a
        cyclic class takes a stack that misses one too, and the counts catch
        it: without S4's three cyclic subgroups of order 4, a D8 inside S4
        has no C4; without C8's C4, C8/C2 has no C2."""
        def planted(G, order, size):
            lat = gc.lattice(G)
            masks, orders = self.without_class(G, order, size, cyclic=True)
            G._lattice = dataclasses.replace(lat, masks=masks, orders=orders)
            return lat

        S4 = gc.GroupTable(zoo["s4"].mul)
        D8 = next(H for H in planted(S4, 4, 3).subgroups if H.order == 8)
        with pytest.raises(VerificationError, match=r"order 8: 0 cyclic subgroups of order 4"):
            gc.lattice(gc.subgroup_as_group(S4, D8))
        C8 = gc.cyclic(8)
        C2 = planted(C8, 4, 1).subgroups[1]
        with pytest.raises(VerificationError, match=r"order 4: 0 cyclic subgroups of order 2"):
            gc.lattice(gc.quotient_group(C8, C2)[0])

    @pytest.mark.parametrize("name, order, size", [("s4", 6, 4), ("d8", 4, 2)])
    def test_the_documented_drops_escape(self, zoo, name, order, size):
        """A non-cyclic class escapes when its order is no prime power (S4's
        four S3 subgroups), or when it is a p-subgroup class whose size p
        divides (two of D8's Klein four-groups)."""
        G = zoo[name]
        gc._check_counts(G, *self.without_class(G, order, size, cyclic=False))


class TestLatticeOracle:
    """`lattice` against the enumerate-then-split reference above."""

    def test_zoo(self, zoo):
        for name, G in zoo.items():
            lat = gc.lattice(gc.GroupTable(G.mul))
            assert_lattice_is_the_reference(lat, G, extend_every_subgroup(G), name)

    def test_relabelled_large_tables(self):
        """The subgroups of a relabelled table are the images of the
        reference's on the original one."""
        s5 = gc.from_permutation_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
        for name, G in (("psl3_2", presets.psl3_2()), ("s5", s5),
                        ("elemab 2 6", gc.elementary_abelian(2, 6))):
            subs = extend_every_subgroup(G)
            for seed in (0, 7):
                X, perm = relabelled(G, seed), relabelling(G.order, seed)
                images = sorted((tuple(sorted(perm[list(k)].tolist())) for k in subs),
                                key=lambda elems: (len(elems), elems))
                assert_lattice_is_the_reference(gc.lattice(X), X, images, (name, seed))

    @pytest.mark.parametrize("expr", ["dp (quaternion 8) (elemab 2 2)",
                                      "dp (cyclic 9) (cyclic 3)"])
    def test_normal_extensions(self, expr):
        """Groups whose lattices are found mostly from normal subgroups: a
        non-abelian group in which every subgroup is normal, and an abelian
        one with cosets rH of order 3 and 9."""
        G = presets.build_group(expr)
        lat = gc.lattice(gc.GroupTable(G.mul))
        assert len(lat.normal) == len(lat.subgroups) == len(lat.classes)
        assert_lattice_is_the_reference(lat, G, extend_every_subgroup(G), expr)

    @pytest.mark.parametrize("expr", ["elemab 3 3", "dp (cyclic 4) (cyclic 4)",
                                      "dp (quaternion 8) (elemab 2 2)"])
    def test_normal_extensions_are_the_greedy_augmentations(self, expr):
        """`_normal_extensions` builds <H, r> for exactly the r above H's
        bound that are the least of their coset rH and the least element of
        <H, r> outside H, checked against closures on a relabelled table,
        for each stack of normal subgroups of one order with varied bounds."""
        G = relabelled(presets.build_group(expr), 3)
        lat = gc.lattice(G)
        for order in range(2, G.order):
            stack = [s for s in lat.normal if s.order == order]
            if not stack:
                continue
            bounds = 1 + np.arange(len(stack)) % (G.order // 2)
            owner, reps, masks = gc._normal_extensions(
                G.mul, np.array([s.elem_array for s in stack]), bounds)
            got = sorted(zip(owner.tolist(), reps.tolist(),
                             (np.flatnonzero(m).tolist() for m in masks)))
            want = []
            for j, H in enumerate(stack):
                for r in range(bounds[j] + 1, G.order):
                    if G.mul[r, H.elem_array].min() == r != 0 and r not in H:
                        L = gc.closure_of(G, list(H.elems) + [r])
                        if np.setdiff1d(L, H.elem_array).min() == r:
                            want.append((j, r, L.tolist()))
            assert got == want, (expr, order)

    @pytest.mark.parametrize("name", ["s4", "a5"])
    def test_mixed_stacks(self, monkeypatch, catalog_groups, name):
        """Non-abelian groups in which one stack's new rows hold both normal
        and non-normal subgroups, and a new key repeats within one stack of
        the batched search. A wrapper over `_fresh_rows` records each
        stack's keys and new rows, to show that both occur."""
        stacks = []

        def recording(keys, found):
            rows = real(keys, found)
            stacks.append((keys, [keys[i] for i in rows]))
            return rows

        G = catalog_groups[name]
        real = gc._fresh_rows
        monkeypatch.setattr(gc, "_fresh_rows", recording)
        lat = gc.lattice(gc.GroupTable(G.mul))
        normal = set(gc._packed_rows(np.array([s.mask for s in lat.normal])))
        assert any({k in normal for k in fresh} == {True, False} for _, fresh in stacks)
        assert any(keys.count(k) > 1 for keys, fresh in stacks for k in fresh)
        assert_lattice_is_the_reference(lat, G, extend_every_subgroup(G), name)

    @pytest.mark.parametrize("seed", [None, 7])
    def test_normal_path_builds_each_key_once(self, monkeypatch, seed):
        """In an abelian group every subgroup is normal. In `elemab 2 6` the
        least non-identity element of a cyclic subgroup generates it, so
        each of the 2,761 non-cyclic subgroups is built once, from its
        greedy parent, and no extension row is built twice. A wrapper over
        `_normal_extensions` records the keys of the rows it builds."""
        built = []

        def recording(mul, elems, bounds):
            owner, reps, masks = real(mul, elems, bounds)
            built.extend(gc._packed_rows(masks))
            return owner, reps, masks

        G = gc.elementary_abelian(2, 6)
        G = gc.GroupTable(G.mul) if seed is None else relabelled(G, seed)
        real = gc._normal_extensions
        monkeypatch.setattr(gc, "_normal_extensions", recording)
        lat = gc.lattice(G)
        cyclic = int(np.count_nonzero(lat.orders <= 2))
        assert len(built) == len(set(built)) == len(lat.subgroups) - cyclic == 2761

    @pytest.mark.parametrize("name", ["s4", "psl3_2"])
    def test_conjugate_new_rows_in_one_stack(self, monkeypatch, catalog_groups, name):
        """Some stack of new subgroups holds two conjugates, which the
        split gives one class and one head. A wrapper over `_class_labels`
        records the labels of each stack's input rows."""
        stacks = []

        def recording(perms, masks, keys):
            keys, labels = real(perms, masks, keys)
            stacks.append(labels[:len(masks)].tolist())
            return keys, labels

        G = catalog_groups[name]
        real = gc._class_labels
        monkeypatch.setattr(gc, "_class_labels", recording)
        lat = gc.lattice(gc.GroupTable(G.mul))
        assert any(len(set(labels)) < len(labels) for labels in stacks)
        assert_lattice_is_the_reference(lat, G, extend_every_subgroup(G), name)

    @pytest.mark.parametrize("drop", [0, 1])
    def test_a_split_that_ignores_a_conjugation_is_caught(self, monkeypatch, zoo, drop):
        """A split that ignores the images under one of S4's two
        conjugation permutations (it reads them as the identity's) registers
        classes too small. The pass skips as a seed every conjugate of a
        cyclic subgroup's generators, so the conjugates it left out are never
        found, and the lattice's count of cyclic subgroups fails."""
        def ignoring(perms, masks, keys):
            perms = perms.copy()
            perms[drop] = np.arange(perms.shape[1])
            return real(perms, masks, keys)

        real = gc._class_labels
        monkeypatch.setattr(gc, "_class_labels", ignoring)
        S4 = gc.GroupTable(zoo["s4"].mul)
        assert len(gc._conjugation_perms(S4)) == 2
        with pytest.raises(VerificationError,
                           match=r"order 24: [35] cyclic subgroups of order 2,"):
            gc.lattice(S4)

    @pytest.mark.parametrize("name, gens, classes", [
        ("S4", ((1, 2, 3, 0), (1, 0, 2, 3)), 11),
        ("A5", ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0)), 9),
        ("S5", ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)), 19),
        ("PSL(2,7)", None, 15),
        ("S6", ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)), 56)])
    def test_published_class_counts(self, name, gens, classes):
        """The number of conjugacy classes of subgroups, a count taken from
        the literature rather than from this code: OEIS A000638 for S_n, and
        the published tables of A5 and PSL(2,7) = PSL(3,2)."""
        G = presets.psl3_2() if gens is None else gc.from_permutation_generators(
            len(gens[0]), gens)
        with using(Limits(order=G.order)):
            assert len(gc.lattice(G).classes) == classes, name

    def test_a6_above_the_default_cap(self):
        a6 = gc.from_permutation_generators(6, [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)])
        with pytest.raises(SizeLimitError):
            gc.lattice(a6)
        with using(Limits(order=a6.order)):
            lat = gc.lattice(a6)
        assert (len(lat.subgroups), len(lat.classes)) == (501, 22)
        assert_lattice_is_the_reference(lat, a6, extend_every_subgroup(a6), "a6")

    def test_subgroup_and_quotient_tables(self, catalog_groups):
        """Derived tables split the parent's subgroups with the same orbit
        walk as the enumeration."""
        for name in ("s4", "sl2_3", "c3sq_c4", "c7_c3", "c2_x_d4"):
            G = gc.GroupTable(catalog_groups[name].mul)
            lat = gc.lattice(G)
            tables = [gc.quotient_group(G, N)[0] for N in lat.normal]
            tables += [gc.subgroup_as_group(G, H) for H in lat.subgroups]
            for X in tables:
                assert_lattice_is_the_reference(gc.lattice(X), X, extend_every_subgroup(X),
                                                (name, X.provenance))


class TestSubgroupBasics:
    def test_generated_empty_is_trivial(self, zoo):
        assert gc.subgroup_generated(zoo["s3"], []).elems == (0,)

    def test_generated_reflection(self, zoo):
        s3 = zoo["s3"]
        refl = next(x for x in range(6) if s3.element_orders[x] == 2)
        assert gc.subgroup_generated(s3, [refl]).order == 2

    def test_generated_everything(self, zoo):
        assert gc.subgroup_generated(zoo["s3"], list(range(6))).order == 6

    @pytest.mark.parametrize("seed", [[-1], [1, 6], [999]])
    def test_generated_rejects_elements_out_of_range(self, zoo, seed):
        with pytest.raises(ParameterError):
            gc.subgroup_generated(zoo["s3"], seed)

    def test_idempotent(self, zoo):
        s3 = zoo["s3"]
        h = gc.subgroup_generated(s3, [1])
        assert gc.subgroup_generated(s3, h.elems).elems == h.elems

    def test_invalid_subgroup_rejected(self, zoo):
        with pytest.raises(ParameterError):
            gc.Subgroup(zoo["s3"], (0, 1))  # not closed unless 1 is an involution

    def test_element_index_past_the_order_rejected(self):
        with pytest.raises(ParameterError):
            gc.Subgroup(gc.dihedral(4), (0, 8))


def naive_cosets(G, H, side):
    """Oracle: the cosets as raw element sets, ordered by least element."""
    blocks = {frozenset(int(x) for x in
                        (G.mul[g, H.elem_array] if side == "left" else G.mul[H.elem_array, g]))
              for g in range(G.order)}
    return sorted(blocks, key=min)


class TestCosets:
    def test_against_element_set_oracle(self, zoo):
        """The representatives are the fixed points of the least-element
        map, which depend on the labelling: relabelled tables are checked too."""
        for name in ("s3", "a4", "s4", "q16", "c3_c4", "f20"):
            for G in (zoo[name], relabelled(zoo[name], 1), relabelled(zoo[name], 2)):
                for H in gc.all_subgroups(G):
                    for side in ("left", "right"):
                        got = gc.cosets(G, H, side)
                        want = naive_cosets(G, H, side)
                        assert got.reps == tuple(min(b) for b in want), (name, side)
                        for i, block in enumerate(want):
                            assert all(got.ids[x] == i for x in block), (name, side)
                        assert not got.ids.flags.writeable

    def test_bad_side_rejected(self, zoo):
        with pytest.raises(ParameterError):
            gc.cosets(zoo["s3"], gc.trivial_subgroup(zoo["s3"]), "middle")

    def test_memo_serves_interleaved_routes(self, catalog_groups):
        """The requests of the routes to P(G; H, K) over every same-order pair
        of the builtin groups of order <= 24, in the order pair-oracle makes
        them: graph, weight matrix, swapped graph, enumeration. Every answer,
        memoised or not, is the oracle's, and the memo never outgrows its
        bound."""
        expected = {}

        def check(G, H, side):
            got = gc.cosets(G, H, side)
            key = (id(G), H.elems, side)
            if key not in expected:
                want = naive_cosets(G, H, side)
                ids = np.empty(G.order, dtype=np.intp)
                for i, block in enumerate(want):
                    ids[list(block)] = i
                expected[key] = (ids, tuple(min(b) for b in want))
            ids, reps = expected[key]
            assert got.reps == reps and np.array_equal(got.ids, ids), (G.provenance, key)
            assert len(gc._coset_memo) <= gc._COSET_MEMO_SIZE
            return got

        served = []
        for G in catalog_groups.values():
            if G.order > 24:
                continue
            by_order = {}
            for s in gc.all_subgroups(G):
                by_order.setdefault(s.order, []).append(s)
            for bucket in by_order.values():
                for i, H in enumerate(bucket):
                    for K in bucket[i:]:
                        for A, B in ((H, K), (H, K), (K, H), (H, K)):
                            served += [check(G, A, "left"), check(G, B, "right")]
        assert len({id(c) for c in served}) < len(served) / 2  # most are memo hits

    def test_memo_never_serves_a_freed_table(self):
        mul = presets.symmetric_4().mul.copy()
        G = gc.GroupTable(mul)
        H = next(s for s in gc.all_subgroups(G) if not gc.is_normal_subgroup(G, s))
        elems = H.elems
        gc.cosets(G, H, "left")
        table = weakref.ref(G)
        del G, H
        collect()
        assert table() is None
        # x*y = yx is a group on the same elements with the same subgroups,
        # whose left cosets are the right cosets of the original; for a
        # non-normal subgroup the two partitions differ
        opposite = gc.GroupTable(mul.T)
        H = gc.Subgroup(opposite, elems)
        got = gc.cosets(opposite, H, "left")
        want = naive_cosets(opposite, H, "left")
        assert want != naive_cosets(opposite, H, "right")
        assert got.reps == tuple(min(b) for b in want)
        for i, block in enumerate(want):
            assert all(got.ids[x] == i for x in block)

    def test_memo_holds_at_most_its_bound(self, zoo):
        G = zoo["s4"]
        for H in gc.all_subgroups(G):
            for side in ("left", "right"):
                gc.cosets(G, H, side)
                assert len(gc._coset_memo) <= gc._COSET_MEMO_SIZE
        assert len(gc._coset_memo) == gc._COSET_MEMO_SIZE


class TestRelations:
    def test_s3_reflection(self, zoo):
        s3 = zoo["s3"]
        refl = next(x for x in range(6) if s3.element_orders[x] == 2)
        H = gc.subgroup_generated(s3, [refl])
        rel = gc.subgroup_relations(s3, H)
        assert rel.normalizer.elems == H.elems
        assert rel.core.order == 1
        assert not rel.is_normal

    def test_normal_subgroup(self, zoo):
        s3 = zoo["s3"]
        rot = next(x for x in range(6) if s3.element_orders[x] == 3)
        H = gc.subgroup_generated(s3, [rot])
        rel = gc.subgroup_relations(s3, H)
        assert rel.normalizer.order == 6
        assert rel.core.elems == H.elems
        assert rel.is_normal

    def test_top_generator_in_c3_c4(self, zoo):
        G = zoo["c3_c4"]  # base C3 at indices 0..2, top generator at index 3
        b = gc.subgroup_generated(G, [3])
        assert b.order == 4
        rel = gc.subgroup_relations(G, b)
        assert rel.normalizer.elems == b.elems
        b_squared = gc.subgroup_generated(G, [G.mul[3, 3]])
        assert rel.core.elems == b_squared.elems

    def test_conjugacy(self, zoo):
        s3 = zoo["s3"]
        refls = [x for x in range(6) if s3.element_orders[x] == 2]
        H = gc.subgroup_generated(s3, [refls[0]])
        K = gc.subgroup_generated(s3, [refls[1]])
        # a reflection's normalizer is itself, so two g carry H onto each conjugate
        assert gc.conjugator_count(s3, H, K) == gc.conjugator_count(s3, H, H) == 2
        rot = gc.subgroup_generated(s3, [next(x for x in range(6) if s3.element_orders[x] == 3)])
        assert gc.conjugator_count(s3, H, rot) == 0

    def test_conjugators_against_loop_oracle(self, zoo):
        for name in ("s3", "a4", "d6", "f20"):
            G = zoo[name]

            def conj(x, g):
                return int(G.mul[G.mul[G.inv[g], x], g])

            subs = gc.all_subgroups(G)
            for H in subs:
                h_set = frozenset(H.elems)
                images = [frozenset(conj(h, g) for h in H.elems) for g in range(G.order)]
                for g in range(G.order):
                    assert H.conjugate_by(g).elems == tuple(sorted(images[g])), name
                for K in subs:
                    witnesses = [g for g in range(G.order) if images[g] == frozenset(K.elems)]
                    assert gc.conjugator_count(G, H, K) == len(witnesses), name
                rel = gc.subgroup_relations(G, H)
                normalizer = tuple(g for g in range(G.order) if images[g] == h_set)
                assert rel.normalizer.elems == normalizer, name
                assert rel.core.elems == tuple(sorted(frozenset.intersection(*images))), name
                normal = len(normalizer) == G.order
                assert rel.is_normal == gc.is_normal_subgroup(G, H) == normal, name
                malnormal = all(len(images[g] & h_set) == 1
                                for g in range(G.order) if g not in h_set)
                assert cg._is_malnormal(G, H) == malnormal, name
            classes = {tuple(sorted({conj(x, g) for g in range(G.order)}))
                       for x in range(G.order)}
            assert G.conjugacy_classes == tuple(sorted(classes)), name


class TestQuotients:
    def test_quotient_by_whole_group(self, zoo):
        s3 = zoo["s3"]
        Q, _ = gc.quotient_group(s3, gc.Subgroup(s3, tuple(range(s3.order))))
        assert Q.order == 1

    def test_quotient_by_trivial(self, zoo):
        s3 = zoo["s3"]
        Q, proj = gc.quotient_group(s3, gc.trivial_subgroup(s3))
        assert gc.is_isomorphic(Q, s3)
        assert sorted(proj.tolist()) == sorted(range(6))

    def test_s3_mod_c3(self, zoo):
        s3 = zoo["s3"]
        rot = gc.subgroup_generated(s3, [next(x for x in range(6) if s3.element_orders[x] == 3)])
        Q, proj = gc.quotient_group(s3, rot)
        assert gc.is_isomorphic(Q, gc.cyclic(2))
        # surjective homomorphism with kernel exactly N
        assert set(proj.tolist()) == {0, 1}
        kernel = tuple(sorted(int(g) for g in range(6) if proj[g] == 0))
        assert kernel == rot.elems
        for a in range(6):
            for b in range(6):
                assert proj[s3.mul[a, b]] == Q.mul[proj[a], proj[b]]

    def test_non_normal_rejected(self, zoo):
        s3 = zoo["s3"]
        refl = gc.subgroup_generated(s3, [next(x for x in range(6) if s3.element_orders[x] == 2)])
        with pytest.raises(NormalityError):
            gc.quotient_group(s3, refl)
        for name, G in zoo.items():
            for cls in gc.lattice(G).classes:
                if len(cls) > 1:
                    with pytest.raises(NormalityError):
                        gc.quotient_group(G, cls[-1])


class TestIsomorphism:
    def test_c4_vs_klein(self):
        assert not gc.is_isomorphic(gc.cyclic(4), gc.elementary_abelian(2, 2))

    def test_q8_vs_d4(self, zoo):
        assert not gc.is_isomorphic(zoo["q8"], zoo["d4"])

    def test_frobenius_4_is_a4(self, zoo):
        assert gc.is_isomorphic(gc.field_frobenius(4), zoo["a4"])

    def test_d6_is_c2_times_d3(self):
        assert gc.is_isomorphic(gc.dihedral(6),
                                gc.direct_product(gc.cyclic(2), gc.dihedral(3)))

    def test_cap(self):
        with using(Limits(order=1)), pytest.raises(SizeLimitError):
            gc.is_isomorphic(gc.cyclic(2), gc.cyclic(2))

    def test_trivial_map_is_refused(self, zoo):
        """The map onto the identity passes the table check; only the
        bijectivity test refuses it."""
        G = zoo["s3"]
        phi = np.zeros(G.order, dtype=np.int64)
        assert np.array_equal(phi[G.mul], G.mul[phi[:, None], phi[None, :]])
        assert not gc._is_full_isomorphism(G, G, phi)

    def test_equivalence_relation_on_pool(self, zoo):
        pool = [G for name, G in sorted(zoo.items()) if G.order <= 24]
        assert len(pool) >= 20
        n = len(pool)
        matrix = [[gc.is_isomorphic(a, b) for b in pool] for a in pool]
        for i in range(n):
            assert matrix[i][i]
            for j in range(n):
                assert matrix[i][j] == matrix[j][i]
                for k in range(n):
                    if matrix[i][j] and matrix[j][k]:
                        assert matrix[i][k]


def pairwise_maximal_indices(G: gc.GroupTable, subs) -> bool:
    """Oracle for `_supersoluble_by_maximal_indices`: a proper subgroup is
    maximal when no other proper subgroup of greater order contains it, tested
    on every pair, and every maximal subgroup must have prime index."""
    proper = [s for s in subs if s.order < G.order]
    for H in proper:
        is_maximal = not any(K.order > H.order and K.contains_subgroup(H) for K in proper)
        index = G.order // H.order
        if is_maximal and any(index % d == 0 for d in range(2, index)):
            return False
    return True


def section_walk(G: gc.GroupTable, X: gc.GroupTable):
    """Oracle for `has_section`: every subgroup H of G in canonical order and,
    for each, every normal subgroup N of H in its lattice's order; the first
    (H, N) with H/N isomorphic to X, or None."""
    for H in gc.lattice(G).subgroups:
        if H.order % X.order:
            continue
        Hg = gc.subgroup_as_group(G, H)
        for N in gc.lattice(Hg).normal:
            if N.order * X.order == H.order and gc.is_isomorphic(gc.quotient_group(Hg, N)[0], X):
                return H, gc.Subgroup(G, tuple(sorted(H.elems[i] for i in N.elems)))
    return None


# the sections the structure gates of `tp_engine.verify_structure_theorems` search for
GATE_SECTIONS = ("a5", "a4", "dihedral 3", "dihedral 5", "dihedral 7")


class TestStructure:
    def test_a4(self, zoo):
        rep = gc.classify_structure(zoo["a4"])
        assert rep.is_soluble and not rep.is_supersoluble and not rep.is_nilpotent
        assert rep.derived_length == 2

    def test_q8_dedekind(self, zoo):
        rep = gc.classify_structure(zoo["q8"])
        assert rep.is_dedekind and rep.is_nilpotent and not rep.is_abelian

    def test_a5_not_soluble(self):
        rep = gc.classify_structure(presets.alternating_5())
        assert not rep.is_soluble and rep.derived_length is None

    def test_implication_chain_everywhere(self, zoo):
        for name, G in zoo.items():
            if G.order > 64:
                continue
            rep = gc.classify_structure(G)  # __post_init__ asserts the chain
            assert (rep.derived_length is not None and rep.derived_length <= 1) \
                == rep.is_abelian, name

    def test_supersoluble_examples(self, zoo):
        assert gc.classify_structure(zoo["s3"]).is_supersoluble
        assert gc.classify_structure(zoo["c3_c4"]).is_supersoluble
        assert not gc.classify_structure(zoo["s4"]).is_supersoluble

    def test_maximal_route_matches_the_pairwise_oracle(self, zoo, catalog_groups):
        """On every zoo and builtin table, on a relabelled copy of each, and on
        three products with many maximal classes of more than one member."""
        tables = {**zoo, **catalog_groups}
        for expr in ("dp (dihedral 3) (dihedral 3)", "dp (s4) (elemab 2 2)",
                     "dp (dihedral 4) (elemab 2 2)"):
            tables[expr] = presets.build_group(expr)
        for name, G in tables.items():
            for X in (G, relabelled(G, 1)):
                lat = gc.lattice(X)
                assert gc._supersoluble_by_maximal_indices(X, lat) \
                    == pairwise_maximal_indices(X, lat.subgroups), name

    def test_maximal_route_stacks_every_member_of_a_maximal_class(self):
        """D3 x D3 is supersoluble. In this labelling some head lies only in
        maximal subgroups that are not heads of their classes, so a stack of
        heads alone would take it for a maximal subgroup of composite index."""
        G = relabelled(presets.build_group("dp (dihedral 3) (dihedral 3)"), 23)
        assert gc._supersoluble_by_maximal_indices(G, gc.lattice(G))
        assert gc.classify_structure(G).is_supersoluble

    def test_against_sympy(self):
        """is_solvable, is_nilpotent and the derived length from sympy, on
        groups built from the same permutation generators as the presets."""
        pytest.importorskip("sympy")
        from sympy.combinatorics import Permutation, PermutationGroup

        groups = [
            (presets.symmetric_4(), 4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
            (presets.alternating_4(), 4, [(1, 2, 0, 3), (1, 0, 3, 2)]),
            (presets.alternating_5(), 5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]),
            (None, 5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),  # S5
            (presets.sl2_3(), 8, [(3, 7, 2, 6, 1, 5, 0, 4), (5, 2, 0, 6, 3, 1, 7, 4)]),
            (presets.psl3_2(), 8, [(1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0)]),
        ]
        for preset, degree, gens in groups:
            G = gc.from_permutation_generators(degree, gens)
            if preset is not None:
                assert np.array_equal(G.mul, preset.mul)
            P = PermutationGroup([Permutation(list(g)) for g in gens])
            assert P.order() == G.order
            rep = gc.classify_structure(G)
            assert rep.is_soluble == P.is_solvable, G.order
            assert rep.is_nilpotent == P.is_nilpotent, G.order
            if rep.is_soluble:
                assert rep.derived_length == len(P.derived_series()) - 1, G.order

    @staticmethod
    def _derived_series_oracle(G):
        """The series with every term recomputed, G' included."""
        series = [np.arange(G.order, dtype=np.int64)]
        while True:
            nxt = gc._derived_of(G, series[-1])
            if nxt.size == series[-1].size:
                break
            series.append(nxt)
            if nxt.size == 1:
                break
        return series

    def test_derived_series_reuses_the_derived_subgroup(self, monkeypatch):
        """The series is unchanged on every builtin group, and classify_structure
        forms G' once: as many `_derived_of` calls as the oracle series alone
        makes, where it used to make one more for `G.derived_elems`."""
        calls = []
        derived_of = gc._derived_of

        def counted(G, elems):
            calls.append(G)
            return derived_of(G, elems)

        monkeypatch.setattr(gc, "_derived_of", counted)
        for entry in cat.builtin_catalog():
            G = gc.GroupTable(entry.group().mul)  # a fresh table: no G' memoised yet
            calls.clear()
            oracle = self._derived_series_oracle(G)
            oracle_calls = len(calls)
            calls.clear()
            gc.classify_structure(G)
            assert len(calls) == oracle_calls, entry.id
            assert [s.tolist() for s in gc.derived_series(G)] \
                == [s.tolist() for s in oracle], entry.id


class TestSections:
    def test_witness_matches_the_walk_over_every_subgroup(self, catalog_groups):
        """Only class heads are tried, but the first hit is the same."""
        for X in map(presets.named, GATE_SECTIONS):
            for name, G in catalog_groups.items():
                found, witness = gc.has_section(G, X)
                want = section_walk(G, X)
                assert found == (want is not None) and witness == want, (name, X.order)

    def test_s4_has_a4_section(self, zoo):
        found, witness = gc.has_section(zoo["s4"], zoo["a4"])
        assert found
        H, N = witness
        assert H.order == 12 and N.order == 1

    def test_c2cube_c7_has_no_a4_section(self, zoo):
        G = presets.build_group("frobfield 8")
        found, _ = gc.has_section(G, zoo["a4"])
        assert not found

    def test_a5_has_d5_section(self):
        found, witness = gc.has_section(presets.alternating_5(), gc.dihedral(5))
        assert found
        H, N = witness
        assert H.order % 10 == 0

    def test_quotient_section(self, zoo):
        # C3:C4 maps onto D3 by killing the central involution
        found, witness = gc.has_section(zoo["c3_c4"], zoo["s3"])
        assert found


class TestTextFormats:
    def test_cayley_roundtrip(self, zoo):
        for name in ("s3", "q8"):
            text = gc.write_cayley_table(zoo[name])
            again = gc.read_cayley_table(text)
            assert np.array_equal(again.mul, zoo[name].mul)
            assert gc.write_cayley_table(again) == text

    def test_cayley_errors(self):
        with pytest.raises(FormatError):
            gc.read_cayley_table("")
        with pytest.raises(FormatError):
            gc.read_cayley_table("2\n0 1\n")
        with pytest.raises(FormatError):
            gc.read_cayley_table("2\n0 1\n1 x\n")

    def test_generator_roundtrip(self):
        text = gc.write_permutation_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)])
        degree, gens = gc.read_permutation_generators(text)
        assert degree == 4 and gens == [(1, 2, 0, 3), (1, 0, 3, 2)]
        assert gc.write_permutation_generators(degree, gens) == text

    def test_generator_errors(self):
        with pytest.raises(FormatError):
            gc.read_permutation_generators("3\n0 0 1\n")
