import itertools
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcalc import coset_graph as cg
from tpcalc import group_core as gc
from tpcalc import presets
from tpcalc import transversal as tv
from tpcalc.arith_nt import factorial_ratio, is_prime
from tpcalc.errors import (
    BudgetError,
    ParameterError,
    PreconditionError,
    SizeLimitError,
    VerificationError,
)


def permanent_oracle(M) -> int:
    """Independent oracle: the defining permutation expansion."""
    M = [list(map(int, row)) for row in M]
    n = len(M)
    return sum(math.prod(M[i][s[i]] for i in range(n))
               for s in itertools.permutations(range(n)))


def dt_count_oracle(G, H, K) -> int:
    """Independent oracle: try every way of picking one element per left coset
    and test the right-transversal property from raw cosets."""
    lefts = []
    seen = set()
    for g in range(G.order):
        coset = tuple(sorted(int(x) for x in G.mul[g, H.elem_array]))
        if coset not in seen:
            seen.add(coset)
            lefts.append(coset)
    right_of = {}
    seen = set()
    rid = 0
    for g in range(G.order):
        if g in right_of:
            continue
        coset = [int(x) for x in G.mul[K.elem_array, g]]
        for x in coset:
            right_of[x] = rid
        rid += 1
    count = 0
    for choice in itertools.product(*lefts):
        if len({right_of[x] for x in choice}) == len(lefts):
            count += 1
    return count


def _refuse_ryser(*args):
    raise AssertionError("Ryser ran on a matrix the block split should settle")


def _record_kernel_sizes(monkeypatch) -> list[int]:
    """Patch the Ryser kernel to log the rows of each block it gets."""
    sizes = []
    run = tv._ryser
    monkeypatch.setattr(tv, "_ryser", lambda A: sizes.append(len(A)) or run(A))
    return sizes


def subgroup_of_order(G, k):
    return next(s for s in gc.all_subgroups(G) if s.order == k)


class TestPFromTvector:
    def test_all_ones(self):
        assert tv.p_from_tvector([1] * 7) == 1

    def test_two_one(self):
        assert tv.p_from_tvector((2, 1)) == Fraction(1, 2)

    def test_three_one(self):
        assert tv.p_from_tvector((3, 1)) == Fraction(2, 9)

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            tv.p_from_tvector(())


class TestPG:
    def test_s3(self, zoo):
        assert tv.p_g(zoo["s3"], subgroup_of_order(zoo["s3"], 2)) == Fraction(1, 2)

    def test_normal_gives_one(self, zoo):
        for name in ("c6", "q8", "d4"):
            G = zoo[name]
            for H in gc.all_subgroups(G):
                if gc.is_normal_subgroup(G, H):
                    assert tv.p_g(G, H) == 1

    def test_frobenius_complement_value(self):
        for q in (4, 5, 7, 8, 9):
            G = gc.field_frobenius(q)
            comp = gc.subgroup_generated(G, [k * q for k in range(1, q - 1)])
            want = Fraction(math.factorial(q - 1), (q - 1) ** (q - 1))
            assert tv.p_g(G, comp) == want

    def test_one_iff_normal_equal_pair(self, zoo):
        for name in ("s3", "d4", "q8", "a4", "c3_c4"):
            G = zoo[name]
            subs = gc.all_subgroups(G)
            by_order = {}
            for s in subs:
                by_order.setdefault(s.order, []).append(s)
            for bucket in by_order.values():
                for H in bucket:
                    for K in bucket:
                        value = tv.p_g(G, H, K)
                        expect_one = H.elems == K.elems and gc.is_normal_subgroup(G, H)
                        assert (value == 1) == expect_one


def orbit_p(G, H, K=None) -> Fraction:
    return tv.p_from_tvector(tv.orbit_t_vector(G, H, K))


def prime_closed_form(G, H) -> Fraction:
    """(p!/p^p)^((n-m)/p) for |H| = p prime, with m = |N(H) : H| from the
    normalizer: every orbit of H on G/H has length 1 or p."""
    p, n = H.order, H.index
    m = gc.subgroup_relations(G, H).normalizer.order // p
    assert (n - m) % p == 0
    return factorial_ratio(p) ** ((n - m) // p)


class TestPPrime:
    def test_d5_reflection(self, zoo):
        H = subgroup_of_order(zoo["d5"], 2)
        assert orbit_p(zoo["d5"], H) == prime_closed_form(zoo["d5"], H) == Fraction(1, 4)

    def test_central_involution(self, zoo):
        q8 = zoo["q8"]
        H = subgroup_of_order(q8, 2)  # the unique involution, central
        assert orbit_p(q8, H) == prime_closed_form(q8, H) == 1

    def test_a4_c3(self, zoo):
        H = subgroup_of_order(zoo["a4"], 3)
        assert orbit_p(zoo["a4"], H) == prime_closed_form(zoo["a4"], H) == Fraction(2, 9)

    def test_closed_form_matches_graph_on_catalog(self, catalog_groups):
        checked = 0
        for name, G in sorted(catalog_groups.items()):
            if G.order > 24:
                continue
            for H in gc.all_subgroups(G):
                if is_prime(H.order):
                    want = prime_closed_form(G, H)
                    assert orbit_p(G, H) == want == tv.p_g(G, H), (name, H.elems)
                    checked += 1
        assert checked > 100


class TestWeightMatrix:
    def test_whole_group(self, zoo):
        wm = tv.weight_matrix(zoo["s3"], gc.Subgroup(zoo["s3"], tuple(range(6))))
        assert wm.entries.tolist() == [[6]]

    def test_s3_structure(self, zoo):
        s3 = zoo["s3"]
        wm = tv.weight_matrix(s3, subgroup_of_order(s3, 2))
        assert wm.entries.sum(axis=0).tolist() == [2, 2, 2]
        assert wm.entries.sum(axis=1).tolist() == [2, 2, 2]
        assert sorted(v for row in wm.entries.tolist() for v in row) \
            == [0, 0, 0, 0, 1, 1, 1, 1, 2]

    def test_normal_is_scaled_permutation(self, zoo):
        G = zoo["q8"]
        H = subgroup_of_order(G, 4)
        wm = tv.weight_matrix(G, H)
        ent = wm.entries
        assert ((ent == 0) | (ent == 4)).all()
        assert (np.count_nonzero(ent, axis=0) == 1).all()
        assert (np.count_nonzero(ent, axis=1) == 1).all()

    def test_matched_pairing_is_symmetric(self, zoo):
        # for H = K, inversion maps l_i H meet H l_j^-1 onto l_j H meet H l_i^-1,
        # so labelling the right cosets by the inverse left representatives
        # makes the matrix symmetric
        for name in ("s3", "a4", "s4", "d6", "f20"):
            G = zoo[name]
            for cls in gc.subgroup_conjugacy_classes(G, gc.all_subgroups(G)):
                assert stochastic_form(G, cls[0]).symmetric, name


class TestPermanent:
    def test_all_ones(self):
        assert tv.permanent_ryser(np.ones((3, 3), dtype=int)) == 6

    def test_identity(self):
        assert tv.permanent_ryser(np.eye(6, dtype=int)) == 1

    def test_s3_weight_matrix(self, zoo):
        wm = tv.weight_matrix(zoo["s3"], subgroup_of_order(zoo["s3"], 2))
        assert tv.permanent_ryser(wm.entries) == 4

    def test_against_expansion_oracle(self):
        rng = np.random.default_rng(20240817)
        for n in range(1, 7):
            for _ in range(25):
                M = rng.integers(-4, 7, size=(n, n))
                assert tv.permanent_ryser(M) == permanent_oracle(M)

    def test_bigint_fallback_matches(self):
        rng = np.random.default_rng(7)
        M = rng.integers(0, 10**9, size=(5, 5)).astype(object)
        assert tv.permanent_ryser(M) == permanent_oracle(M)

    def test_size_cap(self):
        for M in (np.eye(25, dtype=int), np.full((25, 25), 0.5)):
            with pytest.raises(SizeLimitError):  # checked before the entries
                tv.permanent_ryser(M)

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(st.integers(2, 6), st.integers(0, 10**6))
    def test_invariant_under_row_column_permutations(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.integers(0, 5, size=(n, n))
        want = tv.permanent_ryser(M)
        rp = rng.permutation(n)
        cp = rng.permutation(n)
        assert tv.permanent_ryser(M[rp][:, cp]) == want

    @pytest.mark.parametrize("M", [np.array([[1.5]]), np.array([[2.0, 0.0], [0.0, 1.0]]),
                                   np.array([[Fraction(3, 2)]], dtype=object)])
    def test_non_integer_entries_are_refused(self, M):
        with pytest.raises(ParameterError, match="integers"):
            tv.permanent_ryser(M)

    def test_bool_and_integral_object_entries_are_integers(self):
        assert tv.permanent_ryser(np.ones((3, 3), dtype=bool)) == 6
        M = np.array([[np.int64(2), 1], [True, np.uint8(3)]], dtype=object)
        assert tv.permanent_ryser(M) == 7

    def test_scaled_permutation_is_one_by_one_blocks(self, monkeypatch):
        sizes = _record_kernel_sizes(monkeypatch)
        P = np.eye(24, dtype=np.int64)[np.random.default_rng(24).permutation(24)]
        for k in (1, 3, -2, 10**6):
            sizes.clear()
            assert tv.permanent_ryser(k * P) == k**24
            assert sizes == [1] * 24

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(st.integers(1, 7), st.floats(0.15, 1.0), st.integers(0, 10**6),
           st.sampled_from(["none", "zero-row", "zero-column", "shared-column"]))
    def test_sparse_against_expansion_oracle(self, n, density, seed, plant):
        rng = np.random.default_rng(seed)
        M = rng.integers(-3, 6, size=(n, n)) * (rng.random((n, n)) < density)
        if plant == "zero-row":
            M[rng.integers(n)] = 0
        elif plant == "zero-column":
            M[:, rng.integers(n)] = 0
        elif plant == "shared-column" and n > 1:  # two singleton rows, one column
            rows = rng.choice(n, size=2, replace=False)
            M[rows] = 0
            M[rows, rng.integers(n)] = rng.choice([-2, 1, 4], size=2)
            assert permanent_oracle(M) == 0
        if plant in ("zero-row", "zero-column"):
            with pytest.MonkeyPatch.context() as mp:  # a non-square block, before Ryser
                mp.setattr(tv, "_ryser", _refuse_ryser)
                assert tv.permanent_ryser(M) == permanent_oracle(M) == 0
        else:
            assert tv.permanent_ryser(M) == permanent_oracle(M)

    def test_permuted_block_diagonal_is_product_of_blocks(self, monkeypatch):
        rng = np.random.default_rng(15)
        eye = np.eye(5, dtype=np.int64)
        blocks = [eye | np.roll(eye, 1, axis=1) | (rng.random((5, 5)) < 0.4)
                  for _ in range(3)]
        M = np.zeros((15, 15), dtype=np.int64)
        for b, B in enumerate(blocks):
            M[5 * b:5 * b + 5, 5 * b:5 * b + 5] = B
        M = M[rng.permutation(15)][:, rng.permutation(15)]
        sizes = _record_kernel_sizes(monkeypatch)
        assert tv.permanent_ryser(M) == math.prod(permanent_oracle(B) for B in blocks)
        assert sizes == [5, 5, 5]  # each block runs alone

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(st.integers(1, 7), st.integers(1, 4), st.booleans(), st.floats(0.3, 1.0),
           st.integers(0, 10**6))
    def test_permuted_blocks_against_expansion_oracle(self, n, k, bigint, density, seed):
        # rows and columns are cut into k runs each, independently, so block
        # b (row run b by column run b) may be square or not
        rng = np.random.default_rng(seed)
        k = min(k, n)
        row_cuts, col_cuts = ([0, *sorted(rng.choice(np.arange(1, n), k - 1, replace=False)), n]
                              for _ in range(2))
        M = np.zeros((n, n), dtype=object if bigint else np.int64)
        for b in range(k):
            r0, r1, c0, c1 = row_cuts[b], row_cuts[b + 1], col_cuts[b], col_cuts[b + 1]
            block = rng.integers(-3, 6, size=(r1 - r0, c1 - c0))
            block *= rng.random(block.shape) < density
            M[r0:r1, c0:c1] = block.astype(object) * (10**12 + 7) if bigint else block
        M = M[rng.permutation(n)][:, rng.permutation(n)]
        assert tv.permanent_ryser(M) == permanent_oracle(M)

    def test_unpeelable_non_square_block_is_zero(self, monkeypatch):
        # rows 0-2 meet only columns 0-1, rows 3-4 only columns 2-4: every
        # line has two or more nonzero entries, yet neither block is square
        M = np.zeros((5, 5), dtype=np.int64)
        M[:3, :2] = [[1, 2], [3, 1], [2, 2]]
        M[3:, 2:] = [[1, 1, 4], [2, 5, 1]]
        rng = np.random.default_rng(5)
        M = M[rng.permutation(5)][:, rng.permutation(5)]
        assert permanent_oracle(M) == 0
        monkeypatch.setattr(tv, "_ryser", _refuse_ryser)
        assert tv.permanent_ryser(M) == 0

    def test_six_dense_blocks_reach_the_kernels_as_blocks(self, monkeypatch):
        rng = np.random.default_rng(24)
        blocks = [rng.integers(1, 8, size=(4, 4)) for _ in range(6)]
        M = np.zeros((24, 24), dtype=np.int64)
        for b, B in enumerate(blocks):
            M[4 * b:4 * b + 4, 4 * b:4 * b + 4] = B
        M = M[rng.permutation(24)][:, rng.permutation(24)]
        sizes = _record_kernel_sizes(monkeypatch)
        assert tv.permanent_ryser(M) == math.prod(permanent_oracle(B) for B in blocks)
        assert sizes == [4] * 6


class TestEnumeration:
    def test_s3_count_with_oracle(self, zoo):
        s3 = zoo["s3"]
        H = subgroup_of_order(s3, 2)
        assert tv.dt_enumerate(s3, H) == 4
        assert dt_count_oracle(s3, H, H) == 4
        assert 4 == H.order ** H.index * tv.p_g(s3, H)

    def test_a4_c3(self, zoo):
        H = subgroup_of_order(zoo["a4"], 3)
        assert tv.dt_enumerate(zoo["a4"], H) == 18
        assert dt_count_oracle(zoo["a4"], H, H) == 18
        assert 18 == H.order ** H.index * tv.p_g(zoo["a4"], H)

    def test_normal_gives_full_count(self, zoo):
        G = zoo["d4"]
        H = subgroup_of_order(G, 4)
        assert tv.dt_enumerate(G, H) == H.order ** H.index
        assert tv.p_g(G, H) == 1

    def test_budget(self):
        # |H|^n = 2^30 is over the budget, so it is refused before enumerating
        G = presets.alternating_5()
        with pytest.raises(BudgetError):
            tv.dt_enumerate(G, subgroup_of_order(G, 2))

    def test_oracle_agreement_on_pairs(self, zoo):
        for name in ("s3", "c6", "d4", "c2sq", "a4", "s4"):
            G = zoo[name]
            subs = gc.all_subgroups(G)
            by_order = {}
            for s in subs:
                by_order.setdefault(s.order, []).append(s)
            for bucket in by_order.values():
                for H in bucket:
                    for K in bucket:
                        if H.order ** H.index > 4096:  # keeps S4's 4^6 and 2^12
                            continue
                        count = tv.dt_enumerate(G, H, K)
                        assert count == dt_count_oracle(G, H, K)
                        assert count == H.order ** H.index * tv.p_g(G, H, K)

    def test_near_budget_pair(self):
        # a reflection of D19: |H|^n = 2^19, the widest level the budget allows
        G = gc.dihedral(19)
        H = subgroup_of_order(G, 2)
        assert not gc.is_normal_subgroup(G, H)
        assert H.order ** H.index == 524_288 <= tv.ENUMERATION_BUDGET
        count = tv.dt_enumerate(G, H)
        assert count == H.order ** H.index * tv.p_g(G, H)
        assert count == 1024

    def test_right_cosets_past_bit_62_stay_distinct(self, monkeypatch):
        G = gc.cyclic(128)
        H = gc.trivial_subgroup(G)
        assert tv.dt_enumerate(G, H) == 1
        real = tv.cosets

        def merged(G, H, side):
            found = real(G, H, side)
            if side == "left":
                return found
            ids = found.ids.copy()
            ids[ids == 101] = 100  # two left cosets now meet one right coset
            return gc.Cosets(ids, found.reps)

        monkeypatch.setattr(tv, "cosets", merged)
        assert tv.dt_enumerate(G, H) == 0

    def test_deep_index_leaves_recursion_limit_alone(self, monkeypatch):
        G = gc.cyclic(1100)  # more levels than the default recursion limit
        limit = sys.getrecursionlimit()

        def refuse(_):
            raise AssertionError("the recursion limit was changed")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert tv.dt_enumerate(G, gc.trivial_subgroup(G)) == 1
        assert sys.getrecursionlimit() == limit


class TestIndependentRoutes:
    def test_routes_do_not_call_the_graph(self, zoo, monkeypatch):
        cases = []
        for name in ("s3", "a4", "d5", "q8", "f20"):
            G = zoo[name]
            for cls in gc.subgroup_conjugacy_classes(G, gc.all_subgroups(G)):
                cases.append((G, cls[0], tv.p_g(G, cls[0])))

        def refuse(*args, **kwargs):
            raise AssertionError("a route called the coset graph")

        monkeypatch.setattr(tv, "p_g", refuse)
        monkeypatch.setattr(tv, "build_coset_graph", refuse)
        monkeypatch.setattr(cg, "build_coset_graph", refuse)
        for G, H, want in cases:
            scale = H.order ** H.index
            assert tv.dt_enumerate(G, H) == want * scale
            assert tv.permanent_ryser(tv.weight_matrix(G, H).entries) == want * scale
            assert orbit_p(G, H) == want
            if is_prime(H.order):
                assert prime_closed_form(G, H) == want


class TestSubgroupOfAnotherTable:
    """S4 and a copy with its non-identity elements relabelled: (0, 2) is a
    subgroup of order 2 of the copy but no subgroup of S4, where it used to
    give a count of 0 or a raw numpy error."""

    ROUTES = (cg.build_coset_graph, tv.p_g, tv.orbit_t_vector, tv.weight_matrix,
              tv.dt_enumerate)

    @staticmethod
    def s4_and_copy():
        G = presets.symmetric_4()
        perm = np.concatenate([[0], 1 + np.random.default_rng(3).permutation(G.order - 1)])
        mul = np.empty_like(G.mul)
        mul[np.ix_(perm, perm)] = perm[G.mul]
        foreign = gc.Subgroup(gc.GroupTable(mul), (0, 2))
        with pytest.raises(ParameterError):
            gc.Subgroup(G, (0, 2))
        return G, subgroup_of_order(G, 2), foreign

    def test_cosets_refuse_it(self):
        G, own, foreign = self.s4_and_copy()
        for side in ("left", "right"):
            with pytest.raises(PreconditionError):
                gc.cosets(G, foreign, side)
        for H, K in ((foreign, foreign), (foreign, own), (own, foreign)):
            with pytest.raises(PreconditionError):
                gc.double_cosets(G, H, K)

    @pytest.mark.parametrize("route", ROUTES, ids=lambda f: f.__name__)
    def test_every_route_refuses_it(self, route):
        G, own, foreign = self.s4_and_copy()
        for args in ((foreign,), (foreign, own), (own, foreign)):
            with pytest.raises(PreconditionError, match="belong to the given group"):
                route(G, *args)


class TestOrbitRoute:
    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(data=st.data())
    def test_agrees_with_the_graph_and_the_permanent(self, catalog_groups, data):
        names = sorted(name for name, G in catalog_groups.items() if G.order <= 24)
        G = catalog_groups[data.draw(st.sampled_from(names))]
        subs = gc.all_subgroups(G)
        order = data.draw(st.sampled_from(sorted({s.order for s in subs})))
        bucket = [s for s in subs if s.order == order]
        H, K = data.draw(st.sampled_from(bucket)), data.draw(st.sampled_from(bucket))
        t = tv.orbit_t_vector(G, H, K)
        assert t == cg.build_coset_graph(G, H, K).t_vector
        per = tv.permanent_ryser(tv.weight_matrix(G, H, K).entries)
        assert tv.p_from_tvector(t) == Fraction(per, H.order ** H.index)

    def test_a_set_that_is_not_a_group_is_refused(self, zoo):
        G = zoo["s3"]
        r = next(g for g in range(G.order) if G.element_orders[g] == 3)
        mask = np.zeros(G.order, dtype=bool)
        mask[[0, r]] = True
        # r permutes the three cosets of a reflection group in a 3-cycle, so the
        # sets {i, r i} that {1, r} gives overlap without being equal
        with pytest.raises(VerificationError, match="partition"):
            tv.orbit_t_vector(G, subgroup_of_order(G, 2),
                              gc.Subgroup._of_masks(G, mask[None, :])[0])

    def test_unequal_index_is_refused(self, zoo):
        G = zoo["s3"]
        with pytest.raises(PreconditionError):
            tv.orbit_t_vector(G, subgroup_of_order(G, 2), subgroup_of_order(G, 3))


class TestTripleAgreement:
    def test_formula_equals_permanent_and_enumeration(self, zoo):
        # index at most 12 across the unit corpus; acceptance covers order <= 24
        for name, G in zoo.items():
            if G.order > 16:
                continue
            subs = gc.all_subgroups(G)
            by_order = {}
            for s in subs:
                by_order.setdefault(s.order, []).append(s)
            for bucket in by_order.values():
                if (G.order // bucket[0].order) > 12:
                    continue
                for H in bucket:
                    for K in bucket:
                        value = tv.p_g(G, H, K)
                        wm = tv.weight_matrix(G, H, K)
                        per = tv.permanent_ryser(wm.entries)
                        assert value == Fraction(per, H.order ** H.index), name
                        if H.order ** H.index <= 10**4:
                            count = tv.dt_enumerate(G, H, K)
                            assert value == Fraction(count, H.order ** H.index)


    def test_permanent_blocks_are_no_larger_than_graph_components(self, zoo, monkeypatch):
        # the permanent splits by the support of W alone; its blocks are the
        # coset graph's components, t = 1 included, as a nonzero entry is an edge
        sizes = _record_kernel_sizes(monkeypatch)
        pairs = 0
        for name, G in zoo.items():
            if G.order > 24:
                continue
            by_order = {}
            for s in gc.all_subgroups(G):
                by_order.setdefault(s.order, []).append(s)
            for bucket in by_order.values():
                for H in bucket:
                    for K in bucket:
                        sizes.clear()
                        tv.permanent_ryser(tv.weight_matrix(G, H, K).entries)
                        ts = [c.t for c in cg.build_coset_graph(G, H, K).components]
                        assert sorted(sizes) == sorted(ts), (name, H.elems, K.elems)
                        pairs += 1
        assert pairs > 500


def stochastic_form(G, H, K=None) -> SimpleNamespace:
    """Test oracle for the doubly stochastic form D = W/|H|, which no route
    computes: `weight_matrix` asserts the row and column sums, and
    `build_coset_graph` the no-straddle and constant-weight checks, so with
    rows and columns grouped by block D is block diagonal with uniform 1/t
    blocks, each J_t/t idempotent of trace and rank 1. Integer arithmetic
    throughout: D^2 = D is W^2 = |H| W. `symmetric` is None for H != K."""
    W = tv.weight_matrix(G, H, K).entries
    graph = cg.build_coset_graph(G, H, K)
    h = H.order
    rows = np.argsort(graph.lblock, kind="stable")
    cols = np.argsort(graph.rblock, kind="stable")
    D = W[rows][:, cols]
    lb, rb = graph.lblock[rows], graph.rblock[cols]
    t = np.bincount(graph.lblock)
    symmetric = None
    if K is None or K.elems == H.elems:
        left, right = gc.cosets(G, H, "left"), gc.cosets(G, H, "right")
        matched = right.ids[G.inv[list(left.reps)]]
        symmetric = bool(np.unique(matched).size == graph.n
                         and np.array_equal(W[:, matched], W[:, matched].T))
    return SimpleNamespace(
        s=graph.s, block_sizes=tuple(k for k in t.tolist() if k),
        doubly_stochastic=bool((W.sum(axis=0) == h).all() and (W.sum(axis=1) == h).all()),
        blocks_uniform=bool(np.array_equal(
            D * t[lb][:, None], np.where(lb[:, None] == rb[None, :], h, 0))),
        idempotent=bool(np.array_equal(D @ D, h * D)),
        trace=Fraction(int(np.trace(D)), h), rank=int(np.linalg.matrix_rank(D)),
        symmetric=symmetric)


def stochastic_form_holds(rpt) -> bool:
    return (rpt.doubly_stochastic and rpt.blocks_uniform and rpt.idempotent
            and rpt.trace == rpt.s == rpt.rank and rpt.symmetric is not False)


class TestStochasticForm:
    """The properties of D = W/|H| that follow from the row and column sums
    and the coset-graph builder's checks, checked from the matrix itself."""

    def test_normal_case_is_identity(self, zoo):
        G = zoo["c6"]
        H = subgroup_of_order(G, 2)
        rpt = stochastic_form(G, H)
        assert rpt.block_sizes == (1, 1, 1)
        assert rpt.trace == 3 and rpt.rank == 3 and rpt.idempotent
        assert rpt.symmetric and stochastic_form_holds(rpt)

    def test_s3(self, zoo):
        rpt = stochastic_form(zoo["s3"], subgroup_of_order(zoo["s3"], 2))
        assert rpt.trace == 2 and rpt.rank == 2
        assert rpt.idempotent and rpt.blocks_uniform and rpt.symmetric

    def test_a4_c3(self, zoo):
        rpt = stochastic_form(zoo["a4"], subgroup_of_order(zoo["a4"], 3))
        assert rpt.trace == 2 and rpt.rank == 2 and stochastic_form_holds(rpt)

    def test_unequal_pair_block_form(self, zoo):
        s3 = zoo["s3"]
        twos = [s for s in gc.all_subgroups(s3) if s.order == 2]
        rpt = stochastic_form(s3, twos[0], twos[1])
        assert rpt.symmetric is None
        assert rpt.blocks_uniform and rpt.idempotent and rpt.trace == rpt.s

    def test_across_corpus(self, zoo):
        for name in ("d4", "d6", "q16", "c3_c4", "a4", "m4_2"):
            G = zoo[name]
            for cls in gc.subgroup_conjugacy_classes(G, gc.all_subgroups(G)):
                assert stochastic_form_holds(stochastic_form(G, cls[0])), name


class TestBounds:
    def test_s3_hits_upper(self, zoo):
        rpt = tv.bounds_report(zoo["s3"], subgroup_of_order(zoo["s3"], 2))
        assert rpt.p_exact == Fraction(1, 2)
        assert rpt.conjugate_non_normal and rpt.holds_sharp_window
        assert rpt.all_hold

    def test_frobenius_20_hits_lower(self):
        G = gc.field_frobenius(5)
        comp = gc.subgroup_generated(G, [k * 5 for k in range(1, 4)])
        rpt = tv.bounds_report(G, comp)
        assert rpt.p_exact == Fraction(3, 32)
        assert rpt.p_exact == Fraction(math.factorial(4), 4**4)  # (n-1)!/(n-1)^(n-1)
        assert rpt.all_hold

    def test_normal_collapses(self, zoo):
        G = zoo["q8"]
        rpt = tv.bounds_report(G, subgroup_of_order(G, 4))
        assert rpt.m == rpt.n == rpt.s
        assert rpt.lower_factorial == 1 and rpt.upper_half_power == 1
        assert rpt.upper_seven_eighths is None
        assert rpt.all_hold

    def test_all_hold_across_corpus(self, zoo):
        for name, G in zoo.items():
            if G.order > 24:
                continue
            for cls in gc.subgroup_conjugacy_classes(G, gc.all_subgroups(G)):
                if len(cls) == 1:
                    continue
                assert tv.bounds_report(G, cls[0]).all_hold, name


class TestSpecialFormulas:
    def test_malnormal_pairs_match_closed_form(self, zoo):
        # when H meets every conjugate of K trivially off the KH double coset
        # and the configuration is clean (H = K, or H and K intersect
        # trivially), P is a pure power of f(|H|)
        hits = 0
        for name, G in zoo.items():
            if G.order > 24:
                continue
            subs = gc.all_subgroups(G)
            by_order = {}
            for s in subs:
                by_order.setdefault(s.order, []).append(s)
            for bucket in by_order.values():
                for H in bucket:
                    if H.order == 1 or H.order == G.order:
                        continue
                    for K in bucket:
                        if not _malnormal_off_kh(G, H, K):
                            continue
                        meet = len(set(H.elems) & set(K.elems))
                        if H.elems != K.elems and meet != 1:
                            continue
                        graph = cg.build_coset_graph(G, H, K)
                        n, m = graph.n, graph.m
                        if (n - m) % H.order != 0:
                            continue
                        want = Fraction(math.factorial(H.order),
                                        H.order ** H.order) ** ((n - m) // H.order)
                        assert tv.p_g(G, H, K, graph=graph) == want, name
                        hits += 1
        assert hits >= 12

    def test_ratio_sequence_decreasing_to_fifty(self):
        from tpcalc.arith_nt import factorial_ratio
        vals = [factorial_ratio(t) for t in range(1, 51)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_index_three_conjugate_non_normal_forces_one_half(self, zoo):
        # at index 3 the sharp window pins the value completely
        hits = 0
        for name, G in zoo.items():
            for cls in gc.subgroup_conjugacy_classes(G, gc.all_subgroups(G)):
                if len(cls) == 1 or cls[0].index != 3:
                    continue
                assert tv.p_g(G, cls[0]) == Fraction(1, 2), name
                hits += 1
        assert hits >= 3


def _malnormal_off_kh(G, H, K):
    kh = set()
    for k in K.elems:
        for h in H.elems:
            kh.add(int(G.mul[k, h]))
    for g in range(G.order):
        if g in kh:
            continue
        conj = K.conjugate_by(g)
        if len(set(H.elems) & set(conj.elems)) > 1:
            return False
    return True
