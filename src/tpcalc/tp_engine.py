"""The group invariant: the minimum of P over all subgroups, with witnesses,
plus machine checks of the structural theorems and value classifications.

The minimum is taken over conjugacy-class representatives of the full subgroup
lattice (inner automorphisms preserve P). A class of one subgroup is a normal
subgroup, which has P = 1 and gets no record; when every class is normal (G
Dedekind) the minimum is 1. Every other class takes its t-vector from the
orbits of H on G/H (`orbit_t_vector`). `verify_graph_invariants` builds the
coset graph of every class and checks it against the class's record, or
against the all-ones t-vector of a normal class. The scan order is
deterministic, so results are reproducible bit for bit.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from .arith_nt import factorial_ratio, next_prime, prime_factors
from .coset_graph import build_coset_graph, s_bounds_check
from .errors import VerificationError, check_limit
from .group_core import (
    GroupTable,
    Subgroup,
    all_subgroups,
    classify_structure,
    direct_product,
    has_section,
    is_abelian_modulo,
    is_isomorphic,
    lattice,
    quotient_group,
    semidirect_product,
    subgroup_as_group,
    subgroup_relations,
    trivial_subgroup,
)
from . import presets
from .transversal import orbit_t_vector, p_from_tvector

TP_2_POW_40 = Fraction(1, 2**40)
TP_2_POW_8 = Fraction(1, 2**8)
TP_4_OVER_81 = Fraction(4, 81)


@dataclass(frozen=True)
class SubgroupClassRecord:
    """P and context for one class of conjugate non-normal subgroups, by the
    subgroup that heads the class."""

    subgroup: Subgroup
    p: Fraction
    t_vector: tuple[int, ...]
    class_size: int
    # the cosets, the components (orbits) and the trivial ones
    n = property(lambda self: self.subgroup.index)
    s = property(lambda self: len(self.t_vector))
    m = property(lambda self: self.t_vector.count(1))


@dataclass(frozen=True)
class TpResult:
    group_id: str
    tp: Fraction
    witnesses: tuple[tuple[int, ...], ...]
    subgroup_count: int
    table: tuple[SubgroupClassRecord, ...] | None = None


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    group: str
    hypothesis_holds: bool
    conclusion_holds: bool
    consistent: bool = field(init=False)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "consistent",
                           (not self.hypothesis_holds) or self.conclusion_holds)


def tp(G: GroupTable, group_id: str = "") -> TpResult:
    """Exact minimum of P over all subgroups, with the attaining conjugacy
    class representatives listed by canonical generators and the per-class
    table. The result is memoised on G; this is the memo's one writer."""
    check_limit(G.order, "order")  # before the memo, so a cached value obeys it too
    if G._tp_cache is None:
        G._tp_cache = _compute_tp(G)
    result = G._tp_cache
    if group_id:
        result = dataclasses.replace(result, group_id=group_id)
    return result


def _compute_tp(G: GroupTable) -> TpResult:
    lat = lattice(G)
    records = []
    for cls in lat.classes:
        if len(cls) == 1:
            continue  # normal: P = 1
        rep = cls[0]
        tvec = orbit_t_vector(G, rep)
        # the fixed cosets are N_G(H)/H, |N_G(H)| = |G|/|class|: so m < n, P < 1
        if tvec.count(1) * len(cls) != rep.index:
            raise VerificationError(f"H = <{','.join(map(str, rep.generators()))}>: "
                                    f"{tvec.count(1)} fixed cosets, n/|class| = "
                                    f"{rep.index}/{len(cls)}")
        records.append(SubgroupClassRecord(
            subgroup=rep, p=p_from_tvector(tvec), t_vector=tvec, class_size=len(cls)))
    # Dedekind (every subgroup normal): the minimum is 1, at the trivial subgroup
    best = min((r.p for r in records), default=Fraction(1))
    attaining = [r.subgroup for r in records if r.p == best] or [trivial_subgroup(G)]
    witnesses = tuple(s.generators() for s in
                      sorted(attaining, key=lambda s: (s.order, s.elems)))
    return TpResult(group_id="", tp=best, witnesses=witnesses,
                    subgroup_count=len(lat.subgroups), table=tuple(records))


# ---------------------------------------------------------------------------
# Monotonicity laws
# ---------------------------------------------------------------------------

def verify_monotonicity(G: GroupTable, group_id: str = "") -> list[TheoremVerdict]:
    """Subgroup, quotient, section, and p-group laws for the invariant.

    An abelian image X (a subgroup H, a quotient G/N, a section H/N) is given
    tp(X) = 1 without a table. Every subgroup of an abelian group is normal,
    so each of its subgroup classes has one member, and `_compute_tp` returns
    1 for such a table. X = <S>N/N is abelian exactly when the images of the
    generators S commute pairwise, that is when every commutator of two of
    them lies in N (`is_abelian_modulo`). Only the non-abelian images are
    built as tables and have tp computed.

    If H is abelian, so is every H/N, and every subgroup N of H is normal in
    H: the N of its sections are the subgroups of G inside H. They are taken
    from G's lattice, whose (order, elems) order is that of H's own lattice,
    since H's element map is increasing.
    """
    tp_g = tp(G).tp
    lat = lattice(G)
    one = Fraction(1)
    verdicts = []

    # one table per non-abelian proper class representative: its lattice,
    # which tp takes from G's, also gives the normal subgroups N of every
    # section H/N
    sub_pairs, sections = [], []
    ok_sub = ok_sec = True
    for cls in lat.classes:
        rep = cls[0]
        if rep.order == G.order:
            continue
        if is_abelian_modulo(G, rep.generators()):
            tp_h = one
            # the subgroups N of G with 1 < |N| < |H| come first, after {1}
            stop = bisect_left(lat.subgroups, rep.order, key=lambda s: s.order)
            section_tps = [(N.order, one) for N in lat.subgroups[1:stop]
                           if rep.contains_subgroup(N)]
        else:
            H = subgroup_as_group(G, rep)
            tp_h = tp(H).tp
            section_tps = [
                (N.order, one if is_abelian_modulo(H, H.minimal_generators, N)
                 else tp(quotient_group(H, N)[0]).tp)
                for N in lattice(H).normal if N.order not in (1, H.order)]
        sub_pairs.append((rep.order, str(tp_h)))
        ok_sub = ok_sub and tp_g <= tp_h
        for n_order, tp_x in section_tps:
            sections.append((rep.order, n_order, str(tp_x)))
            ok_sec = ok_sec and tp_g <= tp_x
    verdicts.append(TheoremVerdict(
        "monotone-subgroups", group_id, hypothesis_holds=G.order > 1,
        conclusion_holds=ok_sub, details={"tp": str(tp_g), "pairs": sub_pairs}))

    ok_quot = True
    quot_pairs = []
    for cls in lat.classes:
        rep = cls[0]
        if len(cls) > 1:
            continue
        # the cosets of {1} are G's elements in order, so G/1 has G's table
        if rep.order == 1:
            tp_q = tp_g
        elif is_abelian_modulo(G, G.minimal_generators, rep):
            tp_q = one
        else:
            tp_q = tp(quotient_group(G, rep)[0]).tp
        quot_pairs.append((rep.order, str(tp_q)))
        ok_quot = ok_quot and tp_g <= tp_q
    verdicts.append(TheoremVerdict(
        "monotone-quotients", group_id, hypothesis_holds=True,
        conclusion_holds=ok_quot, details={"tp": str(tp_g), "pairs": quot_pairs}))
    verdicts.append(TheoremVerdict(
        "monotone-sections", group_id, hypothesis_holds=True,
        conclusion_holds=ok_sec, details={"tp": str(tp_g), "sections": sections}))

    primes = prime_factors(G.order)
    is_p_group = len(primes) == 1 and G.order > 1
    dedekind = tp_g == 1
    hyp = is_p_group and not dedekind
    concl = True
    if hyp:
        concl = tp_g <= factorial_ratio(primes[0])
    verdicts.append(TheoremVerdict(
        "non-dedekind-p-group", group_id, hypothesis_holds=hyp,
        conclusion_holds=concl,
        details={"tp": str(tp_g), "p": primes[0] if is_p_group else None}))
    return verdicts


# ---------------------------------------------------------------------------
# Structure theorems
# ---------------------------------------------------------------------------

# theorem, tp bound, the StructureReport property, and the sections that
# resolve a group above the bound without the property, in search order
_SECTION_GATES = (
    ("solubility-criterion", TP_2_POW_40, "soluble", (("a5", "a5"),)),
    ("supersolubility", TP_2_POW_8, "supersoluble", (("a4", "a4"),)),
    ("nilpotency", TP_4_OVER_81, "nilpotent",
     (("a4", "a4"), ("d3", "dihedral 3"), ("d5", "dihedral 5"), ("d7", "dihedral 7"))),
)


def verify_structure_theorems(G: GroupTable, group_id: str = "") -> list[TheoremVerdict]:
    """The five gates tying the invariant's size to solubility, supersolubility,
    nilpotency, derived length, and odd order."""
    tp_g = tp(G).tp
    report = classify_structure(G)
    verdicts = []

    for theorem, bound, prop, sections in _SECTION_GATES:
        hyp = tp_g > bound
        has_prop = getattr(report, f"is_{prop}")
        if hyp and not has_prop:
            found = next((name for name, expr in sections
                          if has_section(G, presets.named(expr))[0]), None)
            concl = found is not None
            detail = f"{found}-section" if concl else "none"
        else:
            concl = True
            detail = prop if has_prop else "vacuous"
        verdicts.append(TheoremVerdict(
            theorem, group_id, hyp, concl,
            details={"tp": str(tp_g), "resolution": detail}))

    hyp = tp_g > TP_4_OVER_81 and not report.is_abelian
    concl = report.derived_length == 2 if hyp else True
    verdicts.append(TheoremVerdict(
        "derived-length", group_id, hyp, concl,
        details={"tp": str(tp_g), "derived_length": report.derived_length}))

    hyp = G.order % 2 == 1 and not report.is_abelian
    concl = tp_g <= TP_4_OVER_81 if hyp else True
    verdicts.append(TheoremVerdict(
        "non-abelian-odd", group_id, hyp, concl, details={"tp": str(tp_g)}))
    return verdicts


# ---------------------------------------------------------------------------
# Special-value classifications
# ---------------------------------------------------------------------------

def classify_special_values(G: GroupTable, group_id: str = "") -> list[TheoremVerdict]:
    """Exact-value gates: the 1/2 and 1/4 classifications, the excluded
    product-of-two-primes values, and the placement constraints on subgroups
    whose P is a prime ratio or a product of two.

    tp(G) is the minimum of P over the non-normal classes, so every such
    class has P >= tp(G), and so has every f(p) or f(p)f(q) it can equal.
    Each class's P is looked up among the f(p) >= tp(G) and among the
    products that pq-exclusion lists; the first pair listed wins."""
    result = tp(G)
    tp_g = result.tp
    verdicts = []

    hyp = tp_g == Fraction(1, 2)
    family = None
    if hyp:
        for name, ref in presets.half_classification_references(G.order).items():
            if is_isomorphic(G, ref):
                family = name
                break
    verdicts.append(TheoremVerdict(
        "tp-half-classification", group_id, hyp, family is not None if hyp else True,
        details={"tp": str(tp_g), "family": family}))

    hyp = tp_g == Fraction(1, 4)
    family = None
    if hyp:
        family = _quarter_family_of(G)
    verdicts.append(TheoremVerdict(
        "tp-quarter-classification", group_id, hyp, family is not None if hyp else True,
        details={"tp": str(tp_g), "family": family}))

    excluded = _excluded_prime_pair_values(tp_g)
    pair_of = {v: pq for pq, v in reversed(excluded)}
    verdicts.append(TheoremVerdict(
        "pq-exclusion", group_id, True, tp_g not in pair_of,
        details={"tp": str(tp_g), "pairs_checked": [p for p, _ in excluded]}))

    prime_of = {}
    p = 2
    while factorial_ratio(p) >= tp_g:
        prime_of[factorial_ratio(p)] = p
        p = next_prime(p)

    place_hits, pair_hits = [], []
    for rec in result.table:
        sub = rec.subgroup
        p_single = prime_of.get(rec.p)
        if p_single is not None:
            m, n = rec.m, rec.n  # m = |N(H) : H|, which tp asserts
            ok = (sub.order % p_single == 0
                  and ((m == 1 and n == p_single + 1)
                       or (m == p_single and n == 2 * p_single)))
            place_hits.append((sub.order, p_single, m, n, ok))
        pq = pair_of.get(rec.p)
        if pq is not None:
            p, q = pq
            want = (q, p) + (1,) * (rec.n - p - q)
            ok = rec.t_vector == want
            pair_hits.append((sub.order, p, q, ok))
    verdicts.append(TheoremVerdict(
        "prime-ratio-placement", group_id, bool(place_hits),
        all(hit[-1] for hit in place_hits), details={"hits": place_hits}))
    verdicts.append(TheoremVerdict(
        "prime-pair-tvector", group_id, bool(pair_hits),
        all(hit[-1] for hit in pair_hits), details={"hits": pair_hits}))
    return verdicts


def _quarter_family_of(G: GroupTable) -> str | None:
    ref = presets.quarter_family_i_reference(G.order)
    if ref is not None and is_isomorphic(G, ref[1]):
        return ref[0]
    refs = presets.quarter_classification_references()
    for M in lattice(G).normal:
        if M.order & (M.order - 1):
            continue  # not a power of two
        if G.order // M.order not in (12, 16):
            continue
        if not _is_cyclic_subgroup(G, M):
            continue
        Q, _ = quotient_group(G, M)
        for name, ref_group in refs.items():
            if Q.order == ref_group.order and is_isomorphic(Q, ref_group):
                return f"{name} quotient (order-{M.order} core)"
    return None


def _is_cyclic_subgroup(G: GroupTable, M: Subgroup) -> bool:
    return any(int(G.element_orders[e]) == M.order for e in M.elems)


def _excluded_prime_pair_values(tp_value: Fraction) -> list[tuple[tuple[int, int], Fraction]]:
    """All products f(p) f(q) for primes p < q that are >= the given value."""
    out = []
    p = 2
    while True:
        q = next_prime(p)
        if factorial_ratio(p) * factorial_ratio(q) < tp_value:
            break
        while True:
            v = factorial_ratio(p) * factorial_ratio(q)
            if v < tp_value:
                break
            out.append(((p, q), v))
            q = next_prime(q)
        p = next_prime(p)
    return out


# ---------------------------------------------------------------------------
# Extension bounds
# ---------------------------------------------------------------------------

def _as_product(ghat: GroupTable, product: GroupTable | None,
                group_id: str) -> GroupTable:
    """The group whose tp the check takes: `product`, once it is shown to
    have the rebuilt table `ghat`, so that its memo serves; else `ghat`."""
    if product is None:
        return ghat
    if not np.array_equal(ghat.mul, product.mul):
        raise VerificationError(
            f"{group_id}: the product rebuilt from its factors is not the group's table")
    return product


def semidirect_extension_check(G: GroupTable, K: GroupTable,
                               action: Sequence[Sequence[int]],
                               group_id: str = "",
                               product: GroupTable | None = None) -> TheoremVerdict:
    """tp of the split extension is at most the minimum over subgroups of G of
    the product over K of P(G; H, H-image-under-k). A given `product` must
    have the split extension's table, and its tp is the one taken."""
    ghat = _as_product(semidirect_product(G, K, action), product, group_id)
    acts = [np.asarray(a, dtype=np.int64) for a in action]
    # P multiplies f(t) over a t-vector, so the product over k of
    # P(G; H, H^k) is the P of their t-vectors joined
    bound = min(
        p_from_tvector([t for a in acts for t in orbit_t_vector(
            G, H, Subgroup(G, tuple(sorted(a[H.elem_array].tolist()))))])
        for H in all_subgroups(G))
    tp_hat = tp(ghat).tp
    return TheoremVerdict(
        "semidirect-extension-bound", group_id, True, tp_hat <= bound,
        details={"tp": str(tp_hat), "bound": str(bound), "equality": tp_hat == bound})


def direct_extension_check(factors: Sequence[GroupTable], group_id: str = "",
                           product: GroupTable | None = None) -> TheoremVerdict:
    """tp of a direct product is at most min over factors of tp(F)^(|G|/|F|).
    A given `product` must have the direct product's table, and its tp is the
    one taken."""
    ghat = _as_product(reduce(direct_product, factors), product, group_id)
    m = ghat.order
    bound = min(tp(F).tp ** (m // F.order) for F in factors)
    tp_hat = tp(ghat).tp
    return TheoremVerdict(
        "direct-extension-bound", group_id, True, tp_hat <= bound,
        details={"tp": str(tp_hat), "bound": str(bound), "equality": tp_hat == bound})


# ---------------------------------------------------------------------------
# Graph-layer invariants as a sweep
# ---------------------------------------------------------------------------

def verify_graph_invariants(G: GroupTable, group_id: str = "") -> TheoremVerdict:
    """Build the coset graph for one representative per subgroup class (all the
    component invariants are asserted inside the builder), require its
    t-vector to be the one tp recorded from the orbit route, or all ones for
    a normal class, and check the component-count bracket on each."""
    records = iter(tp(G).table)  # the non-normal classes, in class order
    details = []
    for cls in lattice(G).classes:
        rep, normal = cls[0], len(cls) == 1
        graph = build_coset_graph(G, rep)
        want = (1,) * rep.index if normal else next(records).t_vector
        if graph.t_vector != want:
            raise VerificationError(
                f"{group_id}: H = <{','.join(map(str, rep.generators()))}>: coset-graph "
                f"t-vector {graph.t_vector} != {'normal' if normal else 'orbit'} "
                f"t-vector {want}")
        sb = s_bounds_check(G, rep, graph=graph)
        details.append((rep.order, sb.s, str(sb.lower), str(sb.upper), sb.holds))
    return TheoremVerdict("graph-invariants", group_id, True,
                          all(row[-1] for row in details), details={"per_class": details})


# ---------------------------------------------------------------------------
# Exploratory scans (conjectures; informative, never build-failing)
# ---------------------------------------------------------------------------

def commuting_probability(G: GroupTable) -> Fraction:
    return Fraction(len(G.conjugacy_classes), G.order)


def explore_tp_vs_commuting(G: GroupTable, group_id: str = "") -> TheoremVerdict:
    """Conjecture scan: tp <= cp except for the stated exceptional shapes.
    Always reported as consistent; the finding lives in the details."""
    tp_g = tp(G).tp
    cp_g = commuting_probability(G)
    holds = tp_g <= cp_g
    return TheoremVerdict("tp-vs-cp", group_id, False, True,
                          details={"tp": str(tp_g), "cp": str(cp_g), "tp_le_cp": holds})


def explore_cyclic_witness(G: GroupTable, group_id: str = "") -> TheoremVerdict:
    """Conjecture scan: is the minimum attained by a cyclic prime-power
    subgroup H with (H : core) <= p? Informative only."""
    result = tp(G)
    found = False
    # Dedekind: tp = 1 is attained at the trivial subgroup, which has no record
    attaining = ([rec.subgroup for rec in result.table if rec.p == result.tp]
                 or [trivial_subgroup(G)])
    for sub in attaining:
        if not _is_cyclic_subgroup(G, sub):
            continue
        primes = prime_factors(sub.order) or [1]
        if len(primes) != 1:
            continue
        core = subgroup_relations(G, sub).core
        if sub.order <= core.order * primes[0]:
            found = True
            break
    return TheoremVerdict("cyclic-witness", group_id, False, True,
                          details={"tp": str(result.tp), "cyclic_witness_found": found})
