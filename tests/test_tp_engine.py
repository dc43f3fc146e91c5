import dataclasses
from fractions import Fraction

import pytest

from tpcalc import coset_graph as cg
from tpcalc import group_core as gc
from tpcalc import presets
from tpcalc import tp_engine as te
from tpcalc import transversal as tv
from tpcalc.arith_nt import factorial_ratio, next_prime, prime_factors
from tpcalc.errors import Limits, SizeLimitError, VerificationError, using
from tpcalc.transversal import p_g


def subgroup_of_order(G, k):
    return next(s for s in gc.all_subgroups(G) if s.order == k)


class TestTp:
    def test_a4_value_and_witness(self, zoo):
        result = te.tp(zoo["a4"], "a4")
        assert result.tp == Fraction(2, 9)
        assert len(result.witnesses) >= 1
        for gens in result.witnesses:
            sub = gc.subgroup_generated(zoo["a4"], gens)
            assert sub.order == 3  # attained by a 3-element subgroup

    def test_dedekind_gives_one(self, zoo):
        assert te.tp(zoo["q8"]).tp == 1
        assert te.tp(zoo["c12"]).tp == 1

    def test_non_dedekind_at_most_half(self, zoo):
        for name, G in zoo.items():
            result = te.tp(G)
            dedekind = all(
                gc.is_normal_subgroup(G, s) for s in gc.all_subgroups(G))
            if dedekind:
                assert result.tp == 1, name
            else:
                assert result.tp <= Fraction(1, 2), name

    def test_table_records_minimum(self, zoo):
        G = zoo["s4"]
        result = te.tp(G)
        assert min(rec.p for rec in result.table) == result.tp
        normals = [cls[0] for cls in gc.lattice(G).classes if len(cls) == 1]
        assert len(normals) == 4 and all(p_g(G, H) == 1 for H in normals)

    def test_records_hold_the_class_heads(self, zoo):
        for name, G in zoo.items():
            if G.order > 24:
                continue
            table = te.tp(G).table
            classes = [cls for cls in gc.lattice(G).classes if len(cls) > 1]
            assert [rec.subgroup for rec in table] == [cls[0] for cls in classes], name
            for rec, cls in zip(table, classes):
                assert rec.class_size == len(cls), name
                assert p_g(G, rec.subgroup) == rec.p, (name, rec.subgroup.elems)

    def test_records_are_the_non_normal_classes(self, zoo):
        # normality comes from the lattice: a class of one is a normal
        # subgroup, with P = 1 and no record
        for name, G in zoo.items():
            classes = gc.lattice(G).classes
            heads = [rec.subgroup for rec in te.tp(G).table]
            assert heads == [cls[0] for cls in classes if len(cls) > 1], name
            for cls in classes:
                if len(cls) == 1:
                    assert p_g(G, cls[0]) == 1, (name, cls[0].elems)

    def test_a_dedekind_group_has_no_records(self):
        result = te.tp(gc.elementary_abelian(2, 6))
        assert (result.tp, result.subgroup_count, result.table) == (1, 2825, ())
        assert result.witnesses == ((),)  # the trivial subgroup

    def test_cap_holds_on_a_memo_hit(self):
        with using(Limits(order=4)), pytest.raises(SizeLimitError):
            te.tp(gc.dihedral(5))
        G = gc.dihedral(5)
        assert te.tp(G).tp == Fraction(1, 4)  # memoised on G
        with using(Limits(order=4)), pytest.raises(SizeLimitError):
            te.tp(G)

    def test_isomorphism_invariance(self, zoo):
        pairs = [
            (gc.cp_rtimes_c2n(3, 1), gc.dihedral(3)),
            (gc.field_frobenius(4), presets.alternating_4()),
            (gc.direct_product(gc.cyclic(2), gc.cyclic(2)), gc.elementary_abelian(2, 2)),
            (gc.dihedral(6), gc.direct_product(gc.cyclic(2), gc.dihedral(3))),
            (gc.cyclic(6), gc.direct_product(gc.cyclic(2), gc.cyclic(3))),
            (gc.elementary_abelian(2, 3),
             gc.direct_product(gc.cyclic(2), gc.elementary_abelian(2, 2))),
            (gc.read_cayley_table(gc.write_cayley_table(gc.generalized_quaternion(8))),
             gc.generalized_quaternion(8)),
            (gc.semidirect_product(gc.cyclic(3), gc.cyclic(4),
                                   gc.action_by_inversion(gc.cyclic(3), gc.cyclic(4))),
             gc.cp_rtimes_c2n(3, 2)),
            (gc.from_permutation_generators(4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
             gc.elementary_abelian(2, 2)),
            (gc.from_permutation_generators(6, [(1, 2, 3, 4, 5, 0)]), gc.cyclic(6)),
            (gc.dihedral(10), gc.direct_product(gc.cyclic(2), gc.dihedral(5))),
        ]
        assert len(pairs) >= 10
        for A, B in pairs:
            assert gc.is_isomorphic(A, B)
            assert te.tp(A).tp == te.tp(B).tp


def full_monotonicity(G, group_id=""):
    """Test oracle: the monotonicity check that builds a table and takes tp
    for every subgroup class representative, quotient and section."""
    tp_g = te.tp(G).tp
    classes = gc.lattice(G).classes
    verdicts = []

    sub_pairs, sections = [], []
    ok_sub = ok_sec = True
    for cls in classes:
        rep = cls[0]
        if rep.order == G.order:
            continue
        H = gc.subgroup_as_group(G, rep)
        tp_h = te.tp(H).tp
        sub_pairs.append((rep.order, str(tp_h)))
        ok_sub = ok_sub and tp_g <= tp_h
        for N in gc.lattice(H).normal:
            if N.order in (1, H.order):
                continue
            X, _ = gc.quotient_group(H, N)
            tp_x = te.tp(X).tp
            sections.append((rep.order, N.order, str(tp_x)))
            ok_sec = ok_sec and tp_g <= tp_x
    verdicts.append(te.TheoremVerdict(
        "monotone-subgroups", group_id, hypothesis_holds=G.order > 1,
        conclusion_holds=ok_sub, details={"tp": str(tp_g), "pairs": sub_pairs}))

    ok_quot = True
    quot_pairs = []
    for cls in classes:
        rep = cls[0]
        if len(cls) > 1:
            continue
        tp_q = tp_g if rep.order == 1 else te.tp(gc.quotient_group(G, rep)[0]).tp
        quot_pairs.append((rep.order, str(tp_q)))
        ok_quot = ok_quot and tp_g <= tp_q
    verdicts.append(te.TheoremVerdict(
        "monotone-quotients", group_id, hypothesis_holds=True,
        conclusion_holds=ok_quot, details={"tp": str(tp_g), "pairs": quot_pairs}))
    verdicts.append(te.TheoremVerdict(
        "monotone-sections", group_id, hypothesis_holds=True,
        conclusion_holds=ok_sec, details={"tp": str(tp_g), "sections": sections}))

    primes = prime_factors(G.order)
    is_p_group = len(primes) == 1 and G.order > 1
    hyp = is_p_group and tp_g != 1
    concl = tp_g <= factorial_ratio(primes[0]) if hyp else True
    verdicts.append(te.TheoremVerdict(
        "non-dedekind-p-group", group_id, hypothesis_holds=hyp,
        conclusion_holds=concl,
        details={"tp": str(tp_g), "p": primes[0] if is_p_group else None}))
    return verdicts


def _verdict_fields(verdicts):
    return [(v.theorem, v.hypothesis_holds, v.conclusion_holds, v.details) for v in verdicts]


S6_GENERATORS = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]
A6_GENERATORS = [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)]


class TestAbelianShortcut:
    """Monotonicity gives an abelian subgroup, quotient or section tp = 1
    from the commutators of its generators, without building its table."""

    def test_matches_the_full_check_on_the_catalog(self, catalog_groups):
        for name, G in catalog_groups.items():
            assert _verdict_fields(te.verify_monotonicity(G, name)) \
                == _verdict_fields(full_monotonicity(G, name)), name

    @pytest.mark.parametrize("gens", [S6_GENERATORS, A6_GENERATORS], ids=["s6", "a6"])
    def test_matches_the_full_check_past_the_default_limits(self, gens):
        with using(Limits(order=720, table=720)):
            G = gc.from_permutation_generators(6, gens)
            assert _verdict_fields(te.verify_monotonicity(G)) \
                == _verdict_fields(full_monotonicity(G))

    def test_every_image_taken_as_abelian_is_abelian(self, catalog_groups, monkeypatch):
        """Rebuild each image the check answered as abelian, from the
        symmetric-table test on a subgroup or the commutator test: a
        subgroup <gens>, a quotient G/N, and every section of an abelian
        subgroup. Each table is abelian and its tp is 1."""
        answered = []
        is_abelian_modulo, is_abelian_subgroup = gc.is_abelian_modulo, gc.is_abelian_subgroup

        def recorded(G, gens, N):
            abelian = is_abelian_modulo(G, gens, N)
            if abelian:
                answered.append((G, gens, N))
            return abelian

        def recorded_subgroup(G, H):
            abelian = is_abelian_subgroup(G, H)
            if abelian:
                answered.append((G, H.elems, None))
            return abelian

        monkeypatch.setattr(te, "is_abelian_modulo", recorded)
        monkeypatch.setattr(te, "is_abelian_subgroup", recorded_subgroup)
        for name, G in catalog_groups.items():
            te.verify_monotonicity(G, name)
        images = []
        for G, gens, N in answered:
            if N is None:
                H = gc.subgroup_as_group(G, gc.subgroup_generated(G, gens))
                images.append(H)
                images += [gc.quotient_group(H, M)[0] for M in gc.lattice(H).normal
                           if M.order not in (1, H.order)]
            else:
                assert gc.subgroup_generated(G, gens).order == G.order
                images.append(gc.quotient_group(G, N)[0])
        assert len(images) > 1000
        for X in images:
            assert X.is_abelian, X
            assert te.tp(X).tp == 1, X

    def test_commutator_helper(self, zoo):
        S4, D4 = zoo["s4"], zoo["d4"]
        normal = {N.order: N for N in gc.lattice(S4).normal}
        assert not gc.is_abelian_modulo(S4, S4.minimal_generators, normal[4])  # S3
        assert gc.is_abelian_modulo(S4, S4.minimal_generators, normal[12])     # C2
        center = gc.Subgroup(D4, D4.center_elems)
        assert center.order == 2
        assert gc.is_abelian_modulo(D4, D4.minimal_generators, center)          # C2 x C2
        assert not gc.is_abelian_modulo(D4, D4.minimal_generators, gc.trivial_subgroup(D4))
        for G in (S4, D4):
            for x in range(G.order):
                assert gc.is_abelian_modulo(G, [x], gc.trivial_subgroup(G))
        for name, G in zoo.items():
            if G.order > 24:
                continue
            for N in gc.lattice(G).normal:
                assert gc.is_abelian_modulo(G, G.minimal_generators, N) \
                    == gc.quotient_group(G, N)[0].is_abelian, (name, N.elems)
            for H in gc.lattice(G).subgroups:
                assert gc.is_abelian_modulo(G, H.generators(), gc.trivial_subgroup(G)) \
                    == gc.subgroup_as_group(G, H).is_abelian, (name, H.elems)

    def test_symmetric_table_helper(self, zoo, monkeypatch):
        """The subgroup test agrees with the subgroup's own table, also when
        it compares one column at a time."""
        for cells in (gc._ASSOCIATIVITY_CELLS, 5):
            monkeypatch.setattr(gc, "_ASSOCIATIVITY_CELLS", cells)
            for name, G in zoo.items():
                for H in gc.lattice(G).subgroups:
                    assert gc.is_abelian_subgroup(G, H) \
                        == gc.subgroup_as_group(G, H).is_abelian, (name, cells, H.elems)

    def test_builds_only_the_non_abelian_tables(self, catalog_groups, monkeypatch):
        """c2_x_d4's check builds exactly the non-abelian ones of the tables
        that the full check builds."""
        G = catalog_groups["c2_x_d4"]
        te.tp(G)
        built = []

        def recording(make):
            def build(*args):
                made = make(*args)
                built.append(made[0] if isinstance(made, tuple) else made)
                return made
            return build

        for name in ("subgroup_as_group", "quotient_group"):
            wrapper = recording(getattr(gc, name))
            monkeypatch.setattr(gc, name, wrapper)
            monkeypatch.setattr(te, name, wrapper)
        full_monotonicity(G)
        every = built[:]
        built.clear()
        te.verify_monotonicity(G)
        assert built and not any(X.is_abelian for X in built)
        assert len(built) == sum(not X.is_abelian for X in every) < len(every)


def full_structure_theorems(G, group_id=""):
    """Test oracle: the five structure gates written out one by one, each
    section gate with its own search."""
    tp_g = te.tp(G).tp
    report = gc.classify_structure(G)
    verdicts = []

    hyp = tp_g > te.TP_2_POW_40
    if hyp and not report.is_soluble:
        concl = gc.has_section(G, presets.named("a5"))[0]
        detail = "a5-section" if concl else "none"
    else:
        concl = True
        detail = "soluble" if report.is_soluble else "vacuous"
    verdicts.append(te.TheoremVerdict(
        "solubility-criterion", group_id, hyp, concl,
        details={"tp": str(tp_g), "resolution": detail}))

    hyp = tp_g > te.TP_2_POW_8
    if hyp and not report.is_supersoluble:
        concl = gc.has_section(G, presets.named("a4"))[0]
        detail = "a4-section" if concl else "none"
    else:
        concl = True
        detail = "supersoluble" if report.is_supersoluble else "vacuous"
    verdicts.append(te.TheoremVerdict(
        "supersolubility", group_id, hyp, concl,
        details={"tp": str(tp_g), "resolution": detail}))

    hyp = tp_g > te.TP_4_OVER_81
    if hyp and not report.is_nilpotent:
        detail = "none"
        concl = False
        for name, expr in (("a4", "a4"), ("d3", "dihedral 3"), ("d5", "dihedral 5"),
                           ("d7", "dihedral 7")):
            if gc.has_section(G, presets.named(expr))[0]:
                concl = True
                detail = f"{name}-section"
                break
    else:
        concl = True
        detail = "nilpotent" if report.is_nilpotent else "vacuous"
    verdicts.append(te.TheoremVerdict(
        "nilpotency", group_id, hyp, concl,
        details={"tp": str(tp_g), "resolution": detail}))

    hyp = tp_g > te.TP_4_OVER_81 and not report.is_abelian
    concl = report.derived_length == 2 if hyp else True
    verdicts.append(te.TheoremVerdict(
        "derived-length", group_id, hyp, concl,
        details={"tp": str(tp_g), "derived_length": report.derived_length}))

    hyp = G.order % 2 == 1 and not report.is_abelian
    concl = tp_g <= te.TP_4_OVER_81 if hyp else True
    verdicts.append(te.TheoremVerdict(
        "non-abelian-odd", group_id, hyp, concl, details={"tp": str(tp_g)}))
    return verdicts


def single_prime_ratio(value):
    """Test oracle: the prime p with f(p) = value, walking the primes."""
    p = 2
    while factorial_ratio(p) >= value:
        if factorial_ratio(p) == value:
            return p
        p = next_prime(p)
    return None


def prime_pair_ratio(value):
    """Test oracle: the first primes p < q with f(p) f(q) = value, from the
    products listed down to this value itself."""
    for (p, q), v in te._excluded_prime_pair_values(value):
        if v == value:
            return p, q
    return None


def full_prime_ratio_verdicts(G, group_id=""):
    """Test oracle: the pq-exclusion, placement and t-vector verdicts of
    `classify_special_values`, deciding each P on its own."""
    result = te.tp(G)
    tp_g = result.tp
    verdicts = [te.TheoremVerdict(
        "pq-exclusion", group_id, True, prime_pair_ratio(tp_g) is None,
        details={"tp": str(tp_g),
                 "pairs_checked": [p for p, _ in te._excluded_prime_pair_values(tp_g)]})]
    place_hits, pair_hits = [], []
    for rec in result.table:
        sub = rec.subgroup
        p = single_prime_ratio(rec.p)
        if p is not None:
            m = gc.subgroup_relations(G, sub).normalizer.order // sub.order
            n = sub.index
            ok = (sub.order % p == 0
                  and ((m == 1 and n == p + 1) or (m == p and n == 2 * p)))
            place_hits.append((sub.order, p, m, n, ok))
        pq = prime_pair_ratio(rec.p)
        if pq is not None:
            p, q = pq
            ok = rec.t_vector == (q, p) + (1,) * (sub.index - p - q)
            pair_hits.append((sub.order, p, q, ok))
    verdicts.append(te.TheoremVerdict(
        "prime-ratio-placement", group_id, bool(place_hits),
        all(hit[-1] for hit in place_hits), details={"hits": place_hits}))
    verdicts.append(te.TheoremVerdict(
        "prime-pair-tvector", group_id, bool(pair_hits),
        all(hit[-1] for hit in pair_hits), details={"hits": pair_hits}))
    return verdicts


class TestCheckFamilyOracles:
    """The section gates run from one table, and the prime-ratio checks look
    each class's P up in maps built once per group; both must give the
    verdicts of the gates written out and of the per-value enumeration."""

    @staticmethod
    def _assert_both_match(G, name=""):
        structure = te.verify_structure_theorems(G, name)
        classes = te.classify_special_values(G, name)
        assert _verdict_fields(structure) \
            == _verdict_fields(full_structure_theorems(G, name)), name
        assert _verdict_fields(classes[2:]) \
            == _verdict_fields(full_prime_ratio_verdicts(G, name)), name
        return structure + classes

    def test_match_on_the_catalog(self, catalog_groups):
        resolutions, hit_theorems = set(), set()
        for name, G in catalog_groups.items():
            for v in self._assert_both_match(G, name):
                resolutions.add(v.details.get("resolution"))
                if v.details.get("hits"):
                    hit_theorems.add(v.theorem)
        # the catalog reaches every kind of gate outcome and both lookups
        assert {"soluble", "supersoluble", "nilpotent", "vacuous", "a4-section"} <= resolutions
        assert hit_theorems == {"prime-ratio-placement", "prime-pair-tvector"}

    @pytest.mark.parametrize("gens", [S6_GENERATORS, A6_GENERATORS], ids=["s6", "a6"])
    def test_match_past_the_default_limits(self, gens):
        with using(Limits(order=720, table=720)):
            self._assert_both_match(gc.from_permutation_generators(6, gens))

    def test_match_with_the_minimum_on_each_class(self, catalog_groups, monkeypatch):
        # the maps must reach down to tp(G) itself: with tp(G) moved onto each
        # class's P in turn and the classes below it dropped, every class
        # that matches an f(p) or f(p) f(q) at or above that minimum is found
        real_tp = te.tp
        for name, G in catalog_groups.items():
            result = real_tp(G)
            for v in sorted({rec.p for rec in result.table}):
                moved = dataclasses.replace(result, tp=v, table=tuple(
                    rec for rec in result.table if rec.p >= v))
                monkeypatch.setattr(te, "tp", lambda G, group_id="": moved)
                assert _verdict_fields(te.classify_special_values(G, name)[2:]) \
                    == _verdict_fields(full_prime_ratio_verdicts(G, name)), (name, v)

    def test_every_non_normal_class_is_at_least_tp(self, catalog_groups):
        # the invariant the lookup rests on: no class can equal an f(p) or
        # f(p) f(q) below tp(G), so none is left out of the maps
        for name, G in catalog_groups.items():
            result = te.tp(G)
            heads = [cls[0] for cls in gc.lattice(G).classes if len(cls) > 1]
            assert [rec.subgroup for rec in result.table] == heads, name
            assert all(rec.p >= result.tp for rec in result.table), name


class TestOrbitRoute:
    """tp takes each class's t-vector from the orbits of H on G/H;
    graph-invariants builds each class's coset graph once and must find the
    same vector, and bounds-suite reads tp's records."""

    @staticmethod
    def _assert_routes_agree(G):
        for rec in te.tp(G).table:
            graph = cg.build_coset_graph(G, rec.subgroup)
            assert graph.t_vector == tv.orbit_t_vector(G, rec.subgroup) == rec.t_vector
            assert (rec.n, rec.s, rec.m) == (graph.n, graph.s, graph.m)
            assert rec.p == p_g(G, rec.subgroup, graph=graph)
        assert te.verify_graph_invariants(G).conclusion_holds

    def test_routes_agree_on_the_catalog(self, catalog_groups):
        for G in catalog_groups.values():
            self._assert_routes_agree(G)

    @pytest.mark.parametrize("gens", [S6_GENERATORS, A6_GENERATORS], ids=["s6", "a6"])
    def test_routes_agree_on_every_class_past_the_default_limits(self, gens):
        with using(Limits(order=720, table=720)):
            self._assert_routes_agree(gc.from_permutation_generators(6, gens))

    def test_bounds_from_the_records_are_the_graphs_bounds(self, catalog_groups):
        checked = 0
        for G in catalog_groups.values():
            for rec in te.tp(G).table:
                got = tv.bounds_of(rec.n, rec.s, rec.m, rec.p, normal_pair=False)
                assert got == tv.bounds_report(G, rec.subgroup)
                checked += 1
        assert checked >= 100

    def test_a_disagreement_names_the_group_h_and_both_vectors(self, monkeypatch):
        G = gc.dihedral(3)
        rec = te.tp(G).table[0]
        assert rec.subgroup == next(cls[0] for cls in gc.lattice(G).classes if len(cls) > 1)
        graph = cg.build_coset_graph(G, rec.subgroup)
        planted = dataclasses.replace(graph, t_vector=graph.t_vector[:-1])
        build = cg.build_coset_graph
        monkeypatch.setattr(te, "build_coset_graph", lambda G, H, K=None:
                            planted if H == rec.subgroup else build(G, H, K))
        with pytest.raises(VerificationError) as err:
            te.verify_graph_invariants(G, "s3-planted")
        message = str(err.value)
        gens = ",".join(map(str, rec.subgroup.generators()))
        assert "s3-planted" in message and f"H = <{gens}>" in message
        assert str(rec.t_vector) in message and str(planted.t_vector) in message

    def test_a_wrong_normal_t_vector_names_the_group_and_h(self, monkeypatch):
        # a normal class has no record: its graph is held to the all-ones vector
        G = gc.dihedral(3)
        H = next(cls[0] for cls in gc.lattice(G).classes
                 if len(cls) == 1 and cls[0].order == 3)
        graph = cg.build_coset_graph(G, H)
        assert graph.t_vector == (1, 1)
        planted = dataclasses.replace(graph, t_vector=(2,))
        build = cg.build_coset_graph
        monkeypatch.setattr(te, "build_coset_graph", lambda G, H_, K=None:
                            planted if H_ == H else build(G, H_, K))
        with pytest.raises(VerificationError) as err:
            te.verify_graph_invariants(G, "s3-planted")
        message = str(err.value)
        assert "s3-planted" in message and f"H = <{','.join(map(str, H.generators()))}>" in message
        assert "(1, 1)" in message and "(2,)" in message

    def test_graph_invariants_builds_a_graph_for_every_class(self, zoo, monkeypatch):
        G = zoo["s4"]
        classes = gc.lattice(G).classes
        assert {len(cls) == 1 for cls in classes} == {True, False}
        built = []
        build = cg.build_coset_graph

        def counting(G, H, K=None):
            built.append(H)
            return build(G, H, K)

        monkeypatch.setattr(te, "build_coset_graph", counting)
        verdict = te.verify_graph_invariants(G)
        assert built == [cls[0] for cls in classes]
        assert len(verdict.details["per_class"]) == len(classes)
        assert verdict.conclusion_holds

    def test_tp_asserts_orbit_stabiliser(self, monkeypatch):
        # every orbit of length 1 would make the reflection class normal
        monkeypatch.setattr(te, "orbit_t_vector", lambda G, H, K=None: (1,) * H.index)
        with pytest.raises(VerificationError, match="fixed cosets"):
            te.tp(gc.dihedral(3))


class TestMonotonicity:
    def test_s4_vs_a4(self, zoo):
        tps4 = te.tp(zoo["s4"]).tp
        tpa4 = te.tp(zoo["a4"]).tp
        assert tpa4 == Fraction(2, 9)
        assert tps4 <= tpa4
        verdicts = te.verify_monotonicity(zoo["s4"], "s4")
        assert all(v.consistent for v in verdicts)

    def test_d4_p_group_bound(self, zoo):
        verdicts = {v.theorem: v for v in te.verify_monotonicity(zoo["d4"], "d4")}
        v = verdicts["non-dedekind-p-group"]
        assert v.hypothesis_holds and v.conclusion_holds
        assert te.tp(zoo["d4"]).tp == Fraction(1, 2)

    def test_abelian_all_vacuous_or_trivial(self, zoo):
        verdicts = te.verify_monotonicity(zoo["c12"], "c12")
        assert all(v.consistent for v in verdicts)

    def test_across_corpus(self, zoo):
        for name in ("s3", "d6", "q16", "a4", "c3_c4", "f20", "sl2_3"):
            verdicts = te.verify_monotonicity(zoo[name], name)
            assert all(v.consistent for v in verdicts), name

    def test_every_section_is_checked(self, catalog_groups):
        verdicts = te.verify_monotonicity(catalog_groups["c2_x_d4"], "c2_x_d4")
        sections = next(v for v in verdicts if v.theorem == "monotone-sections")
        assert len(sections.details["sections"]) == 79

    def test_reuses_the_lattice_of_g(self, zoo, catalog_groups, monkeypatch):
        """Subgroup, quotient and section tables take their lattices from G's,
        so no subgroup is enumerated again once tp(G) has run."""
        calls = []
        enumerate_all = gc.all_subgroups

        def counted(G, *args, **kwargs):
            calls.append(G)
            return enumerate_all(G, *args, **kwargs)

        groups = [zoo["s4"], zoo["d4"], zoo["a4"], catalog_groups["c2_x_d4"]]
        for G in groups:
            te.tp(G)
        monkeypatch.setattr(gc, "all_subgroups", counted)
        for G in groups:
            te.verify_monotonicity(G)
        assert calls == []


class TestStructureTheorems:
    def test_sl2_3_sits_on_derived_bound(self, zoo):
        G = zoo["sl2_3"]
        assert te.tp(G).tp == Fraction(4, 81)
        report = gc.classify_structure(G)
        assert report.derived_length == 3
        verdicts = te.verify_structure_theorems(G, "sl2_3")
        by_name = {v.theorem: v for v in verdicts}
        # exactly on the boundary: the strict hypotheses are false, so the
        # sharpness witness passes vacuously
        assert not by_name["derived-length"].hypothesis_holds
        assert not by_name["nilpotency"].hypothesis_holds
        assert all(v.consistent for v in verdicts)

    def test_c7_c3_nilpotency_sharpness(self, zoo):
        G = zoo["c7_c3"]
        assert te.tp(G).tp == Fraction(4, 81)
        report = gc.classify_structure(G)
        assert not report.is_nilpotent
        for name, X in (("a4", presets.alternating_4()), ("d3", gc.dihedral(3)),
                        ("d5", gc.dihedral(5)), ("d7", gc.dihedral(7))):
            assert not gc.has_section(G, X)[0], name
        assert all(v.consistent for v in te.verify_structure_theorems(G, "c7_c3"))

    def test_c3sq_c4_supersolubility_sharpness(self, zoo):
        G = zoo["c3sq_c4"]
        assert te.tp(G).tp == Fraction(1, 256)
        report = gc.classify_structure(G)
        assert not report.is_supersoluble
        assert not gc.has_section(G, presets.alternating_4())[0]
        assert all(v.consistent for v in te.verify_structure_theorems(G, "c3sq_c4"))

    def test_a5_needs_its_own_section(self):
        G = presets.alternating_5()
        verdicts = {v.theorem: v for v in te.verify_structure_theorems(G, "a5")}
        v = verdicts["solubility-criterion"]
        assert v.hypothesis_holds and v.conclusion_holds
        assert v.details["resolution"] == "a5-section"

    def test_s4_supersolubility_via_a4_section(self, zoo):
        verdicts = {v.theorem: v
                    for v in te.verify_structure_theorems(zoo["s4"], "s4")}
        v = verdicts["supersolubility"]
        assert v.hypothesis_holds  # tp(S4) = 1/32 > 1/256
        assert v.conclusion_holds and v.details["resolution"] == "a4-section"

    def test_odd_order_gate(self, zoo):
        verdicts = {v.theorem: v
                    for v in te.verify_structure_theorems(zoo["c7_c3"], "c7_c3")}
        v = verdicts["non-abelian-odd"]
        assert v.hypothesis_holds and v.conclusion_holds


class TestSpecialValues:
    def test_half_families(self):
        for G, family in [
            (gc.cp_rtimes_c2n(3, 3), "c3_rtimes_c8"),
            (gc.dihedral(4), "d4"),
            (gc.generalized_quaternion(16), "q16"),
            (presets.build_group("sdp (cyclic 4) (cyclic 4) invert"), "c4_rtimes_c4"),
        ]:
            verdicts = {v.theorem: v for v in te.classify_special_values(G)}
            v = verdicts["tp-half-classification"]
            assert v.hypothesis_holds and v.conclusion_holds
            assert v.details["family"] == family

    def test_reference_groups_are_built_once(self):
        first = presets.quarter_classification_references()
        assert presets.quarter_classification_references()["d6"] is first["d6"]
        assert presets.half_classification_references(16)["q16"] \
            is presets.named("quaternion 16")
        assert presets.quarter_family_i_reference(20)[1] is presets.named("cpc2 5 2")

    def test_quarter_families(self, zoo):
        verdicts = {v.theorem: v for v in te.classify_special_values(zoo["d6"])}
        v = verdicts["tp-quarter-classification"]
        assert v.hypothesis_holds and v.conclusion_holds
        assert "d6" in v.details["family"]

        verdicts = {v.theorem: v for v in te.classify_special_values(zoo["c5_c4"])}
        v = verdicts["tp-quarter-classification"]
        assert v.hypothesis_holds and v.conclusion_holds
        assert v.details["family"] == "c5_rtimes_c4"

        for name in ("m4_2", "c4_circ_d4", "c2sq_c4"):
            verdicts = {v.theorem: v for v in te.classify_special_values(zoo[name])}
            v = verdicts["tp-quarter-classification"]
            assert v.hypothesis_holds and v.conclusion_holds, name

    def test_family_witness_component_pattern(self):
        # the top cyclic factor of C_p . C_{2^k} meets each of its conjugates
        # in its maximal subgroup: (p-1)/2 components of size 2 plus a trivial one
        from tpcalc.coset_graph import build_coset_graph
        for p in (3, 5, 7):
            for k in (1, 2):
                G = gc.cp_rtimes_c2n(p, k)
                b = gc.subgroup_generated(G, [p])  # generator of the 2-part copy
                assert b.order == 2**k
                graph = build_coset_graph(G, b)
                assert tuple(graph.t_vector) == (2,) * ((p - 1) // 2) + (1,)

    def test_quarter_value_placement(self, zoo):
        # P = 1/4 forces exactly two components of size 2, so the trivial-
        # component count is n - 4 and must divide n, leaving m in {1, 2, 4}
        hits = 0
        for name, G in zoo.items():
            result = te.tp(G)
            for rec in result.table or ():
                if rec.p != Fraction(1, 4):
                    continue
                non_trivial = [t for t in rec.t_vector if t > 1]
                assert non_trivial == [2, 2], name
                m = rec.subgroup.index - 4
                assert m in (1, 2, 4), name
                hits += 1
        assert hits >= 5

    def test_pq_exclusion_everywhere(self, zoo):
        for name, G in zoo.items():
            if G.order > 60:
                continue
            verdicts = {v.theorem: v for v in te.classify_special_values(G)}
            assert verdicts["pq-exclusion"].conclusion_holds, name

    def test_prime_ratio_placement_s3(self, zoo):
        verdicts = {v.theorem: v for v in te.classify_special_values(zoo["s3"])}
        v = verdicts["prime-ratio-placement"]
        assert v.hypothesis_holds and v.conclusion_holds
        # P = 1/2 forces index 3 with a self-normalising subgroup here
        assert any(hit[1] == 2 and hit[3] == 3 for hit in v.details["hits"])

    def test_prime_pair_tvector(self, zoo):
        # c3sq_c4 has a class with P = 1/9 = f(2) f(3), the corpus's one hit;
        # D3 x D3 (order 36, not in the corpus) also has such a class
        hits = 0
        for name, G in zoo.items():
            if G.order > 48:
                continue
            verdicts = {v.theorem: v for v in te.classify_special_values(G)}
            v = verdicts["prime-pair-tvector"]
            assert v.consistent, name
            if v.hypothesis_holds:
                hits += len(v.details["hits"])
        assert hits >= 1  # the corpus does contain at least one f(p) f(q) subgroup


class TestExtensions:
    def test_s3_times_c5_equality(self):
        verdict = te.direct_extension_check([gc.dihedral(3), gc.cyclic(5)], "s3xc5")
        assert verdict.conclusion_holds
        assert verdict.details["equality"] is True
        assert Fraction(verdict.details["tp"]) == Fraction(1, 32)

    def test_product_with_trivial(self):
        verdict = te.direct_extension_check([gc.dihedral(4), gc.cyclic(1)], "d4x1")
        assert verdict.conclusion_holds and verdict.details["equality"] is True

    def test_s3_times_c7_equality(self):
        # the sharp family continues: min{1, 1/2, 2^-p} for any prime p >= 5
        verdict = te.direct_extension_check([gc.dihedral(3), gc.cyclic(7)], "s3xc7")
        assert verdict.conclusion_holds and verdict.details["equality"] is True
        assert Fraction(verdict.details["tp"]) == Fraction(1, 2**7)

    def test_semidirect_c3_c4(self):
        base, top = gc.cyclic(3), gc.cyclic(4)
        action = gc.action_by_inversion(base, top)
        verdict = te.semidirect_extension_check(base, top, action, "c3_c4")
        assert verdict.conclusion_holds
        assert Fraction(verdict.details["tp"]) == Fraction(1, 2)


    def test_given_product_gives_the_same_verdict(self):
        factors = [gc.dihedral(3), gc.cyclic(5)]
        product = gc.direct_product(*factors)
        got = te.direct_extension_check(factors, "s3xc5", product=product)
        assert got == te.direct_extension_check(factors, "s3xc5")
        assert product._tp_cache is not None  # tp was taken on the given table
        base, top = gc.cyclic(3), gc.cyclic(4)
        action = gc.action_by_inversion(base, top)
        product = gc.semidirect_product(base, top, action)
        got = te.semidirect_extension_check(base, top, action, "c3_c4", product=product)
        assert got == te.semidirect_extension_check(base, top, action, "c3_c4")
        assert product._tp_cache is not None

    def test_product_with_another_table_is_refused(self):
        with pytest.raises(VerificationError, match="s3xc5"):
            te.direct_extension_check([gc.dihedral(3), gc.cyclic(5)], "s3xc5",
                                      product=gc.cyclic(30))
        base, top = gc.cyclic(3), gc.cyclic(4)
        with pytest.raises(VerificationError, match="c3_c4"):
            te.semidirect_extension_check(base, top, gc.action_by_inversion(base, top),
                                          "c3_c4", product=gc.cyclic(12))


class TestExploratory:
    def test_commuting_probability(self, zoo):
        assert te.commuting_probability(zoo["s3"]) == Fraction(1, 2)
        assert te.commuting_probability(zoo["q8"]) == Fraction(5, 8)

    def test_conjecture_scans_never_fail(self, zoo):
        for name in ("s3", "q8", "q16", "a4", "d6"):
            assert te.explore_tp_vs_commuting(zoo[name], name).consistent
            assert te.explore_cyclic_witness(zoo[name], name).consistent

    def test_tp_vs_cp_known_exceptions(self, zoo):
        # Dedekind non-abelian and the order-16 quaternion group exceed cp
        v = te.explore_tp_vs_commuting(zoo["q8"], "q8")
        assert v.details["tp_le_cp"] is False
        v = te.explore_tp_vs_commuting(zoo["q16"], "q16")
        assert v.details["tp_le_cp"] is False
        v = te.explore_tp_vs_commuting(zoo["s3"], "s3")
        assert v.details["tp_le_cp"] is True

    def test_a_dedekind_group_has_a_cyclic_witness(self, zoo):
        # tp = 1 is attained at the trivial subgroup, which tp does not record
        for name in ("trivial", "c12", "c2cube", "q8"):
            v = te.explore_cyclic_witness(zoo[name], name)
            assert v.details == {"tp": "1", "cyclic_witness_found": True}, name
