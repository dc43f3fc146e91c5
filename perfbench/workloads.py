"""The three benchmark workloads.

Each workload has `setup(seed, work_dir)`, which builds its inputs and is
timed as set-up, `run(inputs)`, the timed region, which returns the answers
as plain JSON data, and `score(answers, expected)`, which returns
``(attempted, failed)`` against the expected-answers file.

`tp-large` and `pair-oracle` relabel each input table by a permutation of
its non-identity elements drawn from the seed (seed 0 keeps the labelling).
tp, subgroup counts and the multiset of P do not depend on labelling, so the
same expected answers hold on every seed.  `catalog-scan` takes builder
expressions as its input and ignores the seed.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from tpcalc import catalog
from tpcalc import coset_graph as cg
from tpcalc import group_core as gc
from tpcalc import tp_engine as te
from tpcalc import transversal as tv

PAIR_ORDER_CAP = 24
S5_GENERATORS = ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))


def relabel(G: gc.GroupTable, rng: random.Random | None) -> gc.GroupTable:
    """A fresh table isomorphic to G, its non-identity elements permuted by
    `rng` (kept in place when `rng` is None).  The new table has an empty
    memo, whatever G had."""
    perm = np.arange(G.order, dtype=np.int64)
    if rng is not None:
        rest = list(range(1, G.order))
        rng.shuffle(rest)
        perm[1:] = rest
    mul = np.empty_like(perm, shape=(G.order, G.order))
    mul[np.ix_(perm, perm)] = perm[G.mul]
    return gc.GroupTable(mul)


def _seeded(seed: int) -> random.Random | None:
    return random.Random(seed) if seed else None


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# catalog-scan: the verification sweep of a first `tpcalc scan`
# ---------------------------------------------------------------------------

def catalog_scan_setup(seed: int, work_dir: Path):
    entries = catalog.builtin_catalog()
    for entry in entries:
        entry.group()  # built once per process; the scan reuses the table
    cache_path = work_dir / "results-cache.jsonl"
    cache_path.write_text("")
    return entries, catalog.ResultsCache.load(cache_path)


def catalog_scan_run(inputs) -> dict:
    entries, cache = inputs
    report, _ = catalog.scan_and_report(entries, jobs=1, cache=cache)
    answers = {}
    for row in report["entries"]:
        if "tp" not in row:
            answers[row["group"]] = {"error": row.get("error") or row.get("skipped")}
            continue
        answers[row["group"]] = {
            "tp": f"{row['tp']['num']}/{row['tp']['den']}",
            "witnesses": row["witnesses"],
            "subgroup_count": row["subgroup_count"],
            "verdicts": [[v["theorem"], v["hypothesis_holds"], v["conclusion_holds"]]
                         for v in row["verdicts"]],
            "consistent": row["consistent"],
        }
    return answers


def catalog_scan_expected(answers: dict) -> dict:
    return {k: {f: v[f] for f in ("tp", "witnesses", "subgroup_count", "verdicts")}
            for k, v in answers.items()}


def catalog_scan_score(answers: dict, expected: dict) -> tuple[int, int]:
    """One item per catalog entry: it fails on an error, an inconsistent
    verdict, or an answer that differs from the expected one."""
    got = catalog_scan_expected(
        {k: v for k, v in answers.items() if v.get("consistent")})
    failed = sum(1 for k, want in expected.items() if got.get(k) != want)
    return len(expected), failed


# ---------------------------------------------------------------------------
# tp-large: `tpcalc tp` on the largest groups under the order cap
# ---------------------------------------------------------------------------

def tp_large_setup(seed: int, work_dir: Path):
    rng = _seeded(seed)
    sources = (
        ("psl3_2", catalog.build_group("psl3_2")),
        ("s5", gc.from_permutation_generators(5, S5_GENERATORS)),
        ("elemab 2 6", catalog.build_group("elemab 2 6")),
    )
    return [(name, relabel(G, rng)) for name, G in sources]


def tp_large_run(inputs) -> dict:
    answers = {}
    for name, G in inputs:
        try:
            result = te.tp(G)
        except Exception as exc:  # a crash is a failed item, not a failed run
            answers[name] = {"error": repr(exc)}
            continue
        answers[name] = {"tp": _fraction_str(result.tp),
                         "subgroup_count": result.subgroup_count}
    return answers


def tp_large_score(answers: dict, expected: dict) -> tuple[int, int]:
    failed = sum(1 for k, want in expected.items() if answers.get(k) != want)
    return len(expected), failed


# ---------------------------------------------------------------------------
# pair-oracle: three routes to P over every same-order subgroup pair
# ---------------------------------------------------------------------------

def pair_oracle_setup(seed: int, work_dir: Path):
    rng = _seeded(seed)
    inputs = []
    for entry in sorted(catalog.builtin_catalog(), key=lambda e: e.id):
        if entry.expected["order"] > PAIR_ORDER_CAP:
            continue
        G = relabel(catalog.build_group(entry.builder), rng)
        by_order: dict[int, list] = {}
        for s in gc.all_subgroups(G):
            by_order.setdefault(s.order, []).append(s)
        pairs = [(H, K) for bucket in by_order.values()
                 for i, H in enumerate(bucket) for K in bucket[i:]]
        inputs.append((entry.id, G, pairs))
    return inputs


def _routes_agree(G, H, K) -> tuple[Fraction, bool]:
    """P by the coset graph, checked against the permanent, the swapped pair's
    t-vector and enumeration."""
    n = H.index
    graph = cg.build_coset_graph(G, H, K)
    value = tv.p_g(G, H, K, graph=graph)
    wm = tv.weight_matrix(G, H, K)
    agree = value == Fraction(tv.permanent_ryser(wm.entries), H.order**n)
    if K.elems != H.elems:
        swapped = cg.build_coset_graph(G, K, H)
        agree = agree and tuple(swapped.t_vector) == tuple(graph.t_vector)
    # every pair up to order 24 fits the enumeration budget
    agree = agree and H.order**n <= tv.ENUMERATION_BUDGET
    agree = agree and value == Fraction(tv.dt_enumerate(G, H, K), H.order**n)
    return value, agree


def pair_oracle_run(inputs) -> dict:
    answers = {}
    for name, G, pairs in inputs:
        values, disagree, errors = [], 0, 0
        for H, K in pairs:
            try:
                value, agree = _routes_agree(G, H, K)
            except Exception:  # a crash is a failed pair, not a failed run
                errors += 1
                continue
            if agree:
                values.append(value)
            else:
                disagree += 1
        answers[name] = {"pairs": len(pairs), "disagree": disagree, "errors": errors,
                         "p_values": [_fraction_str(v) for v in sorted(values)]}
    return answers


def pair_oracle_expected(answers: dict) -> dict:
    return {k: {"pairs": v["pairs"], "p_values": v["p_values"]}
            for k, v in answers.items()}


def pair_oracle_score(answers: dict, expected: dict) -> tuple[int, int]:
    """One item per pair: it fails on an error, on routes that disagree, or on
    a P value missing from (or extra to) the group's expected multiset."""
    attempted = failed = 0
    for name, want in expected.items():
        got = answers.get(name, {"pairs": 0, "disagree": 0, "errors": 0, "p_values": []})
        attempted += max(got["pairs"], want["pairs"])
        seen, wanted = Counter(got["p_values"]), Counter(want["p_values"])
        extra = sum((seen - wanted).values())
        missing = sum((wanted - seen).values())
        failed += max(got["disagree"] + got["errors"] + extra, missing)
    return attempted, failed


WORKLOADS = {
    "catalog-scan": (catalog_scan_setup, catalog_scan_run, catalog_scan_expected,
                     catalog_scan_score),
    "tp-large": (tp_large_setup, tp_large_run, lambda a: a, tp_large_score),
    "pair-oracle": (pair_oracle_setup, pair_oracle_run, pair_oracle_expected,
                    pair_oracle_score),
}
