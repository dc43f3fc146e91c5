import dataclasses

import numpy as np
import pytest

from tpcalc import coset_graph as cg
from tpcalc import group_core as gc
from tpcalc.errors import PreconditionError, VerificationError


def naive_intersections(G, H, K):
    """Oracle: coset intersection sizes computed from raw element sets."""
    lefts, rights = [], []
    seen = set()
    for g in range(G.order):
        coset = frozenset(int(x) for x in G.mul[g, H.elem_array])
        if coset not in seen:
            seen.add(coset)
            lefts.append(coset)
    seen = set()
    for g in range(G.order):
        coset = frozenset(int(x) for x in G.mul[K.elem_array, g])
        if coset not in seen:
            seen.add(coset)
            rights.append(coset)
    return lefts, rights, [[len(a & b) for b in rights] for a in lefts]


def naive_components(G, H, K):
    """Oracle: (left reps, right reps, t, weight) per component, by BFS over
    the nonzero entries of `naive_intersections`, ordered by least left rep."""
    lefts, rights, table = naive_intersections(G, H, K)
    n = len(lefts)
    seen = [False] * (2 * n)  # vertex i < n is left coset i, n + j is right coset j
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        frontier, members = [start], [start]
        while frontier:
            v = frontier.pop()
            nbrs = ([n + j for j in range(n) if table[v][j]] if v < n
                    else [i for i in range(n) if table[i][v - n]])
            for u in nbrs:
                if not seen[u]:
                    seen[u] = True
                    frontier.append(u)
                    members.append(u)
        ls = sorted(v for v in members if v < n)
        rs = sorted(v - n for v in members if v >= n)
        weights = {table[i][j] for i in ls for j in rs}
        assert len(weights) == 1 and len(ls) == len(rs)
        out.append((tuple(min(lefts[i]) for i in ls), tuple(min(rights[j]) for j in rs),
                    len(ls), weights.pop()))
    return sorted(out)


def subgroup_of_order(G, k):
    return next(s for s in gc.all_subgroups(G) if s.order == k)


class TestBuildGraph:
    def test_s3_reflection(self, zoo):
        s3 = zoo["s3"]
        H = subgroup_of_order(s3, 2)
        graph = cg.build_coset_graph(s3, H)
        assert graph.s == 2
        assert tuple(graph.t_vector) == (2, 1)
        assert sorted(c.weight for c in graph.components) == [1, 2]
        # oracle: the naive 3x3 intersection table has the same block structure
        _, _, table = naive_intersections(s3, H, H)
        flat = sorted(v for row in table for v in row)
        assert flat == [0, 0, 0, 0, 1, 1, 1, 1, 2]

    def test_normal_subgroup_trivial_components(self, zoo):
        for name in ("c6", "q8", "d4"):
            G = zoo[name]
            for H in gc.all_subgroups(G):
                if not gc.is_normal_subgroup(G, H):
                    continue
                graph = cg.build_coset_graph(G, H)
                assert graph.s == graph.n == graph.m
                assert all(c.weight == H.order for c in graph.components)

    def test_frobenius_field_5(self):
        G = gc.field_frobenius(5)
        comp = gc.subgroup_generated(G, [5])
        graph = cg.build_coset_graph(G, comp)
        assert graph.s == 2
        assert tuple(graph.t_vector) == (4, 1)

    def test_index_mismatch_rejected(self, zoo):
        s3 = zoo["s3"]
        H = subgroup_of_order(s3, 2)
        K = subgroup_of_order(s3, 3)
        with pytest.raises(PreconditionError):
            cg.build_coset_graph(s3, H, K)

    def test_distinct_pair(self, zoo):
        s3 = zoo["s3"]
        twos = [s for s in gc.all_subgroups(s3) if s.order == 2]
        graph = cg.build_coset_graph(s3, twos[0], twos[1])
        assert tuple(graph.t_vector) == (2, 1)
        assert graph.m == 1  # conjugate pair


class TestDoubleCosets:
    def test_whole_group(self, zoo):
        s3 = zoo["s3"]
        full = gc.full_subgroup(s3)
        dcs = cg.double_cosets(s3, full, full)
        assert dcs.sizes == (6,)

    def test_s3_reflection_blocks(self, zoo):
        s3 = zoo["s3"]
        H = subgroup_of_order(s3, 2)
        dcs = cg.double_cosets(s3, H, H)
        assert sorted(dcs.sizes) == [2, 4]

    def test_trivial_subgroup(self, zoo):
        s3 = zoo["s3"]
        triv = gc.trivial_subgroup(s3)
        assert len(cg.double_cosets(s3, triv, triv).reps) == 6

    def test_size_formula_oracle(self, zoo):
        # |KgH| = |K| |H| / |K^g meet H|
        G = zoo["a4"]
        H = subgroup_of_order(G, 3)
        K = subgroup_of_order(G, 2)
        dcs = cg.double_cosets(G, K, H)
        for rep, size in zip(dcs.reps, dcs.sizes):
            conj = K.conjugate_by(rep)
            meet = len(set(conj.elems) & set(H.elems))
            assert size == K.order * H.order // meet


    def test_blocks_against_element_set_oracle(self, zoo):
        for name in ("s3", "a4", "d6", "f20"):
            G = zoo[name]
            subs = gc.all_subgroups(G)
            for H in subs:
                for K in subs:
                    dcs = cg.double_cosets(G, H, K)
                    blocks = sorted({frozenset(int(x) for x in np.unique(
                        G.mul[np.ix_(G.mul[K.elem_array, g], H.elem_array)]))
                        for g in range(G.order)}, key=min)
                    assert dcs.reps == tuple(min(b) for b in blocks), name
                    assert dcs.sizes == tuple(len(b) for b in blocks), name
                    for i, block in enumerate(blocks):
                        assert all(dcs.block_of[x] == i for x in block), name


def eager_double_cosets(G, H, K):
    """Oracle: the least element of each KgH from its own gathers, numbered
    with np.unique and searchsorted, sized with bincount."""
    least_in_left = G.mul[:, H.elem_array].min(axis=1)
    least = least_in_left[G.mul[K.elem_array, :]].min(axis=0)
    reps = np.unique(least)
    block_of = np.searchsorted(reps, least)
    return tuple(reps.tolist()), tuple(np.bincount(block_of).tolist()), block_of


class TestSharedLeftCosets:
    def test_against_eager_oracles_on_every_same_order_pair(self, catalog_groups):
        checked = 0
        for name, G in catalog_groups.items():
            if G.order > 24:
                continue
            subs = gc.all_subgroups(G)
            for H in subs:
                for K in subs:
                    if K.order != H.order:
                        continue
                    reps, sizes, block_of = eager_double_cosets(G, H, K)
                    dcs = cg.double_cosets(G, H, K)
                    assert "reps" not in vars(dcs) and "sizes" not in vars(dcs), name
                    assert (dcs.reps, dcs.sizes) == (reps, sizes), name
                    assert np.array_equal(dcs.block_of, block_of), name
                    left = gc.cosets(G, H, "left")
                    assert dcs.left.reps == left.reps, name
                    assert np.array_equal(dcs.left.ids, left.ids), name
                    # oracle for the builder's fields: the eager blocks,
                    # labelled by left and by right coset
                    right = gc.cosets(G, K, "right")
                    lblock = np.empty(H.index, dtype=np.intp)
                    lblock[left.ids] = block_of
                    rblock = np.empty(H.index, dtype=np.intp)
                    rblock[right.ids] = block_of
                    t = [k for k in np.bincount(lblock).tolist() if k]
                    graph = cg.build_coset_graph(G, H, K)
                    assert (graph.left_reps, graph.right_reps) == (left.reps, right.reps), name
                    assert graph.t_vector == tuple(sorted(t, reverse=True)), name
                    assert (graph.s, graph.m) == (len(t), t.count(1)), name
                    assert np.array_equal(graph.lblock, lblock), name
                    assert np.array_equal(graph.rblock, rblock), name
                    checked += 1
        assert checked == 2621


class TestSBounds:
    def test_s3(self, zoo):
        H = subgroup_of_order(zoo["s3"], 2)
        rpt = cg.s_bounds_check(zoo["s3"], H)
        assert (rpt.lower, rpt.upper, rpt.s, rpt.holds) == (2, 2, 2, True)

    def test_normal_collapse(self, zoo):
        G = zoo["c6"]
        H = subgroup_of_order(G, 2)
        rpt = cg.s_bounds_check(G, H)
        assert rpt.lower == rpt.upper == rpt.s == 3

    def test_frobenius_20(self):
        G = gc.field_frobenius(5)
        comp = gc.subgroup_generated(G, [5])
        rpt = cg.s_bounds_check(G, comp)
        assert (rpt.lower, rpt.upper, rpt.s) == (2, 3, 2)
        assert rpt.holds

    def test_trivial_subgroup_degenerates(self, zoo):
        G = zoo["s3"]
        rpt = cg.s_bounds_check(G, gc.trivial_subgroup(G))
        assert rpt.lower == rpt.upper == rpt.s == 6
        assert rpt.holds

    def test_holds_across_zoo(self, zoo):
        for name, G in zoo.items():
            if G.order > 24:
                continue
            for cls in gc.subgroup_conjugacy_classes(G, gc.all_subgroups(G)):
                assert cg.s_bounds_check(G, cls[0]).holds, name


class TestFrobeniusS2:
    def test_field_groups(self):
        for q in (4, 5, 7):
            G = gc.field_frobenius(q)
            comp = gc.subgroup_generated(G, [k * q for k in range(1, q - 1)])
            assert comp.order == q - 1
            rpt = cg.frobenius_s2_check(G, comp)
            assert rpt.s2_and_size and rpt.frobenius and rpt.consistent

    def test_s3(self, zoo):
        H = subgroup_of_order(zoo["s3"], 2)
        rpt = cg.frobenius_s2_check(zoo["s3"], H)
        assert rpt.s2_and_size and rpt.frobenius and rpt.consistent

    def test_a4_c3(self, zoo):
        H = subgroup_of_order(zoo["a4"], 3)
        rpt = cg.frobenius_s2_check(zoo["a4"], H)
        assert rpt.frobenius and rpt.s == 2 and rpt.consistent

    def test_normal_rejected(self, zoo):
        with pytest.raises(PreconditionError):
            cg.frobenius_s2_check(zoo["c6"], subgroup_of_order(zoo["c6"], 2))

    def test_consistent_across_zoo(self, zoo):
        for name, G in zoo.items():
            if G.order > 24:
                continue
            for cls in gc.subgroup_conjugacy_classes(G, gc.all_subgroups(G)):
                if len(cls) == 1:
                    continue
                assert cg.frobenius_s2_check(G, cls[0]).consistent, name


class TestGraphInvariantSweep:
    def test_internal_asserts_pass_for_all_pairs(self, zoo):
        # every invariant (complete bipartite, equal weights, w*t=|H|, sum t=n,
        # trivial-count formula, double-coset agreement) is asserted inside the
        # builder, so building every same-index pair is the sweep
        for name, G in zoo.items():
            if G.order > 16:
                continue
            subs = gc.all_subgroups(G)
            by_order = {}
            for s in subs:
                by_order.setdefault(s.order, []).append(s)
            for bucket in by_order.values():
                for H in bucket:
                    for K in bucket:
                        cg.build_coset_graph(G, H, K)

    def test_components_sit_in_double_cosets(self, zoo):
        G = zoo["s4"]
        H = subgroup_of_order(G, 4)
        graph = cg.build_coset_graph(G, H)
        dcs = cg.double_cosets(G, H, H)
        for comp in graph.components:
            blocks = {int(dcs.block_of[rep]) for rep in comp.left_vertices}
            assert len(blocks) == 1
        # oracle: components found by BFS over the naive intersection table
        checked = 0
        for name, G in zoo.items():
            if G.order > 24:
                continue
            subs = gc.all_subgroups(G)
            for H in subs:
                for K in subs:
                    if K.order == H.order:
                        graph = cg.build_coset_graph(G, H, K)
                        got = [(c.left_vertices, c.right_vertices, c.t, c.weight)
                               for c in graph.components]
                        assert got == naive_components(G, H, K), name
                        checked += 1
        assert checked > 1000

    def test_t_entries_divide_subgroup_order(self, zoo):
        for name in ("a4", "s4", "d6", "c3_c4", "f20"):
            G = zoo[name]
            for cls in gc.subgroup_conjugacy_classes(G, gc.all_subgroups(G)):
                graph = cg.build_coset_graph(G, cls[0])
                assert all(cls[0].order % t == 0 for t in graph.t_vector)
                assert sum(graph.t_vector) == graph.n


class TestPlantedDoubleCosetFaults:
    """A wrong `double_cosets` must not yield a graph."""

    def plant(self, monkeypatch, edit):
        real = cg.double_cosets

        def planted(G, H, K):
            dcs = real(G, H, K)
            block_of = edit(G, H, dcs.block_of.copy())
            return dataclasses.replace(dcs, block_of=block_of)

        monkeypatch.setattr(cg, "double_cosets", planted)

    def pairs(self, zoo):
        for name in ("s3", "a4", "d6", "f20"):
            G = zoo[name]
            for cls in gc.subgroup_conjugacy_classes(G, gc.all_subgroups(G)):
                if len(cls) > 1:  # non-normal: some double coset holds 2+ cosets
                    yield G, cls[0]

    def test_merged_blocks_rejected(self, zoo, monkeypatch):
        pairs = list(self.pairs(zoo))
        assert len(pairs) >= 8

        def merge(G, H, block_of):
            block_of[block_of == 1] = 0
            return block_of

        self.plant(monkeypatch, merge)
        for G, H in pairs:
            with pytest.raises(VerificationError, match="constant weight"):
                cg.build_coset_graph(G, H)

    def test_split_block_rejected(self, zoo, monkeypatch):
        pairs = list(self.pairs(zoo))

        def split(G, H, block_of):
            # move one left coset of the largest block into a block of its own
            big = np.bincount(block_of).argmax()
            x = int(np.flatnonzero(block_of == big)[-1])
            block_of[G.mul[x, H.elem_array]] = block_of.max() + 1
            return block_of

        self.plant(monkeypatch, split)
        for G, H in pairs:
            # the right coset Hx through the moved left coset xH also meets the
            # rest of the old block, so the straddle check catches the split
            with pytest.raises(VerificationError, match="straddles|intersect"):
                cg.build_coset_graph(G, H)

    def test_wrong_conjugator_count_rejected(self, zoo, monkeypatch):
        pairs = list(self.pairs(zoo))
        assert len(pairs) >= 8
        real = cg.conjugator_count
        monkeypatch.setattr(cg, "conjugator_count",
                            lambda G, H, K: real(G, H, K) + H.order)
        for G, H in pairs:
            with pytest.raises(VerificationError, match="trivial-component count"):
                cg.build_coset_graph(G, H)


class TestLazyComponents:
    def test_components_agree_with_the_eager_fields(self, catalog_groups):
        checked = 0
        for name, G in catalog_groups.items():
            if G.order > 24:
                continue
            subs = gc.all_subgroups(G)
            for H in subs:
                for K in subs:
                    if K.order != H.order:
                        continue
                    graph = cg.build_coset_graph(G, H, K)
                    comps = graph.components
                    assert graph.t_vector == tuple(
                        sorted((c.t for c in comps), reverse=True)), name
                    assert graph.s == len(comps), name
                    assert graph.m == sum(c.t == 1 for c in comps), name
                    assert graph.components is comps, name
                    checked += 1
        assert checked > 1000

    def test_block_labels_are_read_only(self, zoo):
        G = zoo["s3"]
        graph = cg.build_coset_graph(G, subgroup_of_order(G, 2))
        for labels in (graph.lblock, graph.rblock):
            with pytest.raises(ValueError):
                labels[0] = 1


class TestInducedSubgraph:
    def chains(self, zoo):
        out = []
        for name in ("s4", "a4", "d6", "c3_c4", "q16"):
            G = zoo[name]
            subs = gc.all_subgroups(G)
            for H in subs:
                if H.order in (1, G.order):
                    continue
                for K in subs:
                    if K.order < H.order and H.contains_subgroup(K):
                        out.append((name, G, H, K))
        return out

    def test_components_appear_verbatim(self, zoo):
        checked = 0
        for name, G, H, K in self.chains(zoo):
            graph_g = cg.build_coset_graph(G, K)
            h_group = gc.subgroup_as_group(G, H)
            k_in_h = gc.Subgroup(h_group, tuple(
                sorted(H.elems.index(e) for e in K.elems)))
            graph_h = cg.build_coset_graph(h_group, k_in_h)
            h_mask = set(H.elems)

            def component_signature(comp, ambient, sub, translate=None):
                union = set()
                for rep in comp.left_vertices:
                    for x in ambient.mul[rep, sub.elem_array]:
                        union.add(int(x) if translate is None else translate[int(x)])
                return (comp.t, comp.weight, frozenset(union))

            inside = {component_signature(c, G, K)
                      for c in graph_g.components
                      if all(int(x) in h_mask
                             for rep in c.left_vertices
                             for x in G.mul[rep, K.elem_array])}
            translate = {i: e for i, e in enumerate(H.elems)}
            from_h = {component_signature(c, h_group, k_in_h, translate)
                      for c in graph_h.components}
            assert from_h == inside, name
            checked += 1
        assert checked >= 20
