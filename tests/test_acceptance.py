"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them on success).

All probability comparisons are exact rationals; the only tolerances are the
stated float tolerances of the gamma-function bound (1e-9 relative) and of the
printed constant 0.976986 (1e-6).
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from tpcalc import arith_nt as nt
from tpcalc import catalog as cat
from tpcalc import cli
from tpcalc import coset_graph as cg
from tpcalc import group_core as gc
from tpcalc import presets
from tpcalc import tp_engine as te
from tpcalc import transversal as tv


@contextmanager
def criterion(number: int, name: str):
    ok = False
    started = time.perf_counter()
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - started
        print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} "
              f"[{elapsed:.1f}s]")


def same_order_pairs(G):
    by_order = {}
    for s in gc.all_subgroups(G):
        by_order.setdefault(s.order, []).append(s)
    for bucket in by_order.values():
        for i, H in enumerate(bucket):
            for K in bucket[i:]:
                yield H, K


class TestAcceptance:
    def test_1_exact_known_values(self):
        with criterion(1, "exact invariant values"):
            fast_cases = []
            for p, want in ((3, Fraction(1, 2)), (5, Fraction(1, 4)), (7, Fraction(1, 8))):
                for k in (1, 2, 3):
                    fast_cases.append((f"c{p}:c{2**k}", gc.cp_rtimes_c2n(p, k), want))
            for n in range(3, 13):
                exp = (n - 1) // 2 if n % 2 else (n - 2) // 2
                fast_cases.append((f"d{n}", gc.dihedral(n), Fraction(1, 2**exp)))
            fast_cases += [
                ("q16", gc.generalized_quaternion(16), Fraction(1, 2)),
                ("c4:c4", presets.build_group("sdp (cyclic 4) (cyclic 4) invert"), Fraction(1, 2)),
                ("a4", presets.alternating_4(), Fraction(2, 9)),
                ("a5", presets.alternating_5(), Fraction(1, 2**14)),
                ("c2^3:c7", presets.build_group("frobfield 8"), Fraction(1, 2**12)),
                ("c3^2:c4", presets.build_group("sdp (elemab 3 2) (cyclic 4) qturn"),
                 Fraction(1, 2**8)),
                ("sl2(3)", presets.sl2_3(), Fraction(4, 81)),
            ]
            started = time.perf_counter()
            for name, G, want in fast_cases:
                fresh = gc.GroupTable(G.mul)  # defeat caching so the timing is honest
                assert te.tp(fresh).tp == want, name
            fast_elapsed = time.perf_counter() - started

            started = time.perf_counter()
            psl = gc.GroupTable(presets.psl3_2().mul)
            assert te.tp(psl).tp == Fraction(1, 2**40)
            psl_elapsed = time.perf_counter() - started

            assert fast_elapsed < 10.0, f"fast cases took {fast_elapsed:.1f}s"
            assert psl_elapsed < 300.0, f"large simple group took {psl_elapsed:.1f}s"

    def test_2_oracle_triple_agreement(self, catalog_groups):
        with criterion(2, "triple agreement to order 24"):
            groups_checked = 0
            pairs_checked = 0
            dt_checked = 0
            for name, G in sorted(catalog_groups.items()):
                if G.order > 24:
                    continue
                groups_checked += 1
                for H, K in same_order_pairs(G):
                    n = H.index
                    graph = cg.build_coset_graph(G, H, K)
                    value = tv.p_g(G, H, K, graph=graph)
                    wm = tv.weight_matrix(G, H, K)
                    per = tv.permanent_ryser(wm.entries)
                    assert value == Fraction(per, H.order**n), (name, H.elems, K.elems)
                    pairs_checked += 1
                    # unordered pairs suffice for the permanent: the swapped
                    # pair has the same component sizes
                    if K.elems != H.elems:
                        swapped = cg.build_coset_graph(G, K, H)
                        assert tuple(swapped.t_vector) == tuple(graph.t_vector)
                    if H.order**n <= 10**6:
                        count = tv.dt_enumerate(G, H, K)
                        assert value == Fraction(count, H.order**n)
                        dt_checked += 1
            assert groups_checked >= 30
            assert pairs_checked > 500
            assert dt_checked == pairs_checked  # every pair fit the budget here

    def test_3_bounds_suite(self, catalog_groups):
        with criterion(3, "bound suite"):
            checked = 0
            for name, G in sorted(catalog_groups.items()):
                subs = gc.all_subgroups(G)
                for cls in gc.subgroup_conjugacy_classes(G, subs):
                    if len(cls) == 1:
                        continue  # normal subgroups: the sharp bounds target non-normal
                    for H in cls:
                        rpt = tv.bounds_report(G, H)
                        n, s, m, p = rpt.n, rpt.s, rpt.m, rpt.p_exact
                        assert nt.factorial_ratio(n) <= p <= nt.amgm_upper_bound(n, s)
                        assert nt.factorial_ratio(n - m) <= p <= Fraction(1, 2)**(s - m)
                        assert rpt.conjugate_non_normal  # H = K non-normal is conjugate
                        assert nt.factorial_ratio(n - 1) <= p <= Fraction(1, 2)
                        assert p <= Fraction(7, 8)**n
                        assert rpt.all_hold, (name, H.elems)
                        checked += 1
            assert checked >= 200

            assert abs(nt.bound_constant_c() - 0.976986) < 1e-6
            for n in range(1, 61):
                for s in range(1, (3 * n) // 4 + 1):
                    assert nt.prop_gamma_vs_amgm_holds(n, s), (n, s)

    def test_4_classification_sweeps(self, catalog_groups, catalog_tp, tmp_path):
        with criterion(4, "value classification sweeps"):
            half_ids = {name for name, r in catalog_tp.items()
                        if catalog_groups[name].order <= 48 and r.tp == Fraction(1, 2)}
            assert half_ids == {"c3_c2", "c3_c4", "c3_c8", "d3", "d4", "q16",
                                "c4_sdp_c4"}
            for name in half_ids:
                verdicts = {v.theorem: v
                            for v in te.classify_special_values(catalog_groups[name], name)}
                v = verdicts["tp-half-classification"]
                assert v.hypothesis_holds and v.conclusion_holds, name

            quarter_ids = {name for name, r in catalog_tp.items()
                           if catalog_groups[name].order <= 48 and r.tp == Fraction(1, 4)}
            assert quarter_ids == {"c5_c2", "c5_c4", "c5_c8", "d5", "d6", "m4_2",
                                   "c4_circ_d4", "c2_x_d4", "c2sq_c4",
                                   "c6_c4", "c6_c8"}
            for name in quarter_ids:
                verdicts = {v.theorem: v
                            for v in te.classify_special_values(catalog_groups[name], name)}
                v = verdicts["tp-quarter-classification"]
                assert v.hypothesis_holds and v.conclusion_holds, name

            for name, r in catalog_tp.items():
                if catalog_groups[name].order > 100:
                    continue
                for (p, q), value in te._excluded_prime_pair_values(r.tp):
                    assert r.tp != value, (name, p, q)

            # exit-code enforcement via the CLI surface
            code = cli.main(["scan", "--no-cache", "--checks",
                             "tp-half-classification,tp-quarter-classification,pq-exclusion",
                             "--report", str(tmp_path / "sweep.json")])
            assert code == 0

    def test_5_structure_theorem_verdicts(self, catalog_groups, catalog_tp):
        with criterion(5, "structure-theorem verdicts"):
            for name, G in sorted(catalog_groups.items()):
                verdicts = te.verify_structure_theorems(G, name)
                for v in verdicts:
                    assert v.consistent, (name, v.theorem, v.details)
            # sharpness witnesses sit exactly on their bounds
            assert catalog_tp["psl3_2"].tp == Fraction(1, 2**40)
            assert catalog_tp["c3sq_c4"].tp == Fraction(1, 2**8)
            assert catalog_tp["c7_c3"].tp == Fraction(4, 81)
            assert catalog_tp["sl2_3"].tp == Fraction(4, 81)
            assert gc.classify_structure(catalog_groups["sl2_3"]).derived_length == 3

    def test_6_prime_product_scan(self):
        with criterion(6, "factorial-ratio uniqueness scan"):
            started = time.perf_counter()
            report = nt.prodpi_collision_scan(28)
            elapsed = time.perf_counter() - started
            assert report.prime_uniqueness_holds
            assert report.prime_set_collisions == ()
            assert elapsed < 60.0, f"scan took {elapsed:.1f}s"

    def test_7_monotonicity_and_extension_laws(self, catalog_groups, catalog_entries):
        with criterion(7, "monotonicity, quotient, and extension laws"):
            for name, G in sorted(catalog_groups.items()):
                for v in te.verify_monotonicity(G, name):
                    assert v.consistent, (name, v.theorem)

            # subgroup law on raw probabilities: P_G(K) <= P_H(K) along chains
            chains = 0
            for name, G in sorted(catalog_groups.items()):
                if G.order > 24:
                    continue
                subs = gc.all_subgroups(G)
                for H in subs:
                    if H.order in (1, G.order):
                        continue
                    Hg = gc.subgroup_as_group(G, H)
                    for K in subs:
                        if K.order >= H.order or not H.contains_subgroup(K):
                            continue
                        k_in_h = gc.Subgroup(Hg, tuple(
                            sorted(H.elems.index(e) for e in K.elems)))
                        assert tv.p_g(G, K) <= tv.p_g(Hg, k_in_h), (name,)
                        chains += 1
            assert chains >= 100

            # quotient law: P is unchanged by factoring a normal subgroup out of H
            quotient_pairs = 0
            for name, G in sorted(catalog_groups.items()):
                if G.order > 24:
                    continue
                subs = gc.all_subgroups(G)
                for N in subs:
                    if N.order == 1 or not gc.is_normal_subgroup(G, N):
                        continue
                    Q, proj = gc.quotient_group(G, N)
                    for H in subs:
                        if not H.contains_subgroup(N):
                            continue
                        image = gc.Subgroup(Q, tuple(sorted(
                            {int(proj[e]) for e in H.elems})))
                        assert tv.p_g(G, H) == tv.p_g(Q, image), (name,)
                        quotient_pairs += 1
            assert quotient_pairs >= 100

            # extension bounds for every product-built entry, plus the sharp case
            product_entries = 0
            for entry in catalog_entries:
                head = entry.builder.split()[0]
                if head not in ("dp", "sdp", "cpc2"):
                    continue
                verdicts = cat._extension_check(entry, catalog_groups[entry.id])
                for v in verdicts:
                    assert v.conclusion_holds, entry.id
                product_entries += 1
            assert product_entries >= 15

            sharp = te.direct_extension_check([gc.dihedral(3), gc.cyclic(5)], "s3xc5")
            assert Fraction(sharp.details["tp"]) == Fraction(1, 2**5)
            assert sharp.details["equality"] is True

    def test_8_graph_property_suite(self, catalog_groups):
        with criterion(8, "graph-layer properties"):
            for name, G in sorted(catalog_groups.items()):
                subs = gc.all_subgroups(G)
                for cls in gc.subgroup_conjugacy_classes(G, subs):
                    rep = cls[0]
                    # the builder asserts: complete bipartite components of
                    # constant weight, weight*size = |H|, sizes summing to n,
                    # the trivial-component formula, and double-coset agreement
                    graph = cg.build_coset_graph(G, rep)
                    assert sum(graph.t_vector) == graph.n
                    assert all(c.weight * c.t == rep.order for c in graph.components)
                    dcs = cg.double_cosets(G, rep, rep)
                    assert len(dcs.reps) == graph.s
                    sb = cg.s_bounds_check(G, rep)
                    assert sb.holds, (name, rep.elems)
