"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource limit.
Each command runs under one `Limits`: `--cap-order N` (N >= 1, default 256) gives
`Limits(N, min(N, 20_000))`; `pg`, `graph` and `nt` run under `Limits()`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .arith_nt import (
    amgm_upper_bound,
    bound_constant_c,
    factorial_ratio,
    jensen_power_bound,
    prodpi_collision_scan,
    prop_gamma_vs_amgm_holds,
)
from .catalog import (
    CHECKS,
    ResultsCache,
    catalog_build,
    rational_json,
    report_to_csv,
    resolve_checks,
    scan_and_report,
)
from .coset_graph import build_coset_graph
from .errors import FormatError, Limits, ParameterError, SizeLimitError, TpcalcError, using
from .group_core import (
    GroupTable,
    Subgroup,
    classify_structure,
    lattice,
    read_cayley_table,
    subgroup_generated,
    write_cayley_table,
)
from .presets import build_group, read_input
from .tp_engine import tp
from .transversal import bounds_report, p_g

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _group_from_args(args) -> GroupTable:
    """The group the command names, refused over the `table` limit."""
    if getattr(args, "table", None):
        return read_cayley_table(read_input(args.table))
    return build_group(args.group, base_dir=".")


def _subgroup_from_csv(G, text: str) -> Subgroup:
    if not text.strip():
        return subgroup_generated(G, [])
    try:
        gens = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"bad generator list {text!r}") from exc
    return subgroup_generated(G, gens)


def _pair_from_args(args) -> tuple[GroupTable, Subgroup, Subgroup]:
    """G, H from --subgroup and K from --right (default H), of equal index."""
    G = _group_from_args(args)
    H = _subgroup_from_csv(G, args.subgroup)
    K = _subgroup_from_csv(G, args.right) if args.right else H
    if K.order != H.order:
        raise ParameterError(
            f"--right subgroup has index {K.index}, --subgroup has index {H.index}")
    return G, H, K


def cmd_group(args) -> int:
    G = _group_from_args(args)
    if args.action == "make":
        if args.out:
            Path(args.out).write_text(write_cayley_table(G))
        print(f"order {G.order}  provenance {G.provenance}")
        return EXIT_OK
    if args.action == "show":
        rep = classify_structure(G)
        print(f"order {G.order}  provenance {G.provenance}")
        print(f"abelian {rep.is_abelian}  dedekind {rep.is_dedekind}  "
              f"nilpotent {rep.is_nilpotent}  supersoluble {rep.is_supersoluble}  "
              f"soluble {rep.is_soluble}")
        print(f"derived_length {rep.derived_length}  center {rep.center_order}  "
              f"derived {rep.derived_order}")
        return EXIT_OK
    # subgroups
    lat = lattice(G)
    normal = set(lat.normal)
    for s in lat.subgroups:
        flag = "normal" if s in normal else "      "
        gens = ",".join(str(g) for g in s.generators()) or "-"
        print(f"order {s.order:>4}  index {s.index:>4}  {flag}  gens {gens}")
    print(f"total {len(lat.subgroups)} subgroups")
    return EXIT_OK


def cmd_pg(args) -> int:
    G, H, K = _pair_from_args(args)
    graph = build_coset_graph(G, H, K)
    value = p_g(G, H, K, graph=graph)
    print(f"P = {value.numerator}/{value.denominator}")
    print(f"t-vector {graph.t_vector}  s {graph.s}  m {graph.m}")
    if args.bounds:
        rpt = bounds_report(G, H, K, graph=graph)
        payload = {
            "n": rpt.n, "s": rpt.s, "m": rpt.m,
            "p": rational_json(rpt.p_exact),
            "lower_factorial": rational_json(rpt.lower_factorial),
            "upper_half_power": rational_json(rpt.upper_half_power),
            "upper_ams": rational_json(rpt.upper_ams),
            "upper_seven_eighths": (rational_json(rpt.upper_seven_eighths)
                                    if rpt.upper_seven_eighths is not None else None),
            "upper_gamma": rpt.upper_gamma,
            "all_hold": rpt.all_hold,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        if not rpt.all_hold:
            return EXIT_VERIFICATION
    return EXIT_OK


def cmd_tp(args) -> int:
    G = _group_from_args(args)
    result = tp(G)
    print(f"tp = {result.tp.numerator}/{result.tp.denominator}")
    for w in result.witnesses:
        print("witness gens:", ",".join(str(g) for g in w) or "-")
    print(f"subgroups {result.subgroup_count}")
    return EXIT_OK


def cmd_graph(args) -> int:
    G, H, K = _pair_from_args(args)
    graph = build_coset_graph(G, H, K)
    if args.dot:
        lines = ["graph coset_intersection {"]
        for i, rep in enumerate(graph.left_reps):
            lines.append(f'  L{i} [label="L{i}:{rep}"];')
        for j, rep in enumerate(graph.right_reps):
            lines.append(f'  R{j} [label="R{j}:{rep}"];')
        lpos = {rep: i for i, rep in enumerate(graph.left_reps)}
        rpos = {rep: j for j, rep in enumerate(graph.right_reps)}
        for comp in graph.components:
            for lrep in comp.left_vertices:
                for rrep in comp.right_vertices:
                    lines.append(f"  L{lpos[lrep]} -- R{rpos[rrep]} [weight={comp.weight}];")
        lines.append("}")
        print("\n".join(lines))
    else:
        print(f"components {graph.s}  trivial {graph.m}  t-vector {graph.t_vector}")
    return EXIT_OK


def cmd_verify(args) -> int:
    entries = catalog_build(args.catalog)
    checks = resolve_checks([args.theorem])
    report, ok = scan_and_report(entries, checks=checks, out=args.report, fmt=args.format)
    for row in report["entries"]:
        if "skipped" in row:
            status = "skip"
        elif "error" in row:
            status = "ERROR"
        else:
            status = "ok" if row.get("consistent", True) else "FAIL"
        print(f"{row['group']:>14}  {status}")
    print("ok" if ok else "INCONSISTENT")
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_scan(args) -> int:
    entries = catalog_build(args.catalog)
    cache = None
    if not args.no_cache:
        cache = ResultsCache.load(args.cache)
        if cache.corrupt_lines:
            print(f"warning: skipped {cache.corrupt_lines} corrupt cache lines",
                  file=sys.stderr)
    checks = resolve_checks(args.checks.split(",") if args.checks else None)
    report, ok = scan_and_report(entries, checks=checks, out=args.report,
                                 cache=cache, fmt=args.format)
    if args.report is None:
        if args.format == "csv":
            print(report_to_csv(report), end="")
        else:
            print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"report written to {args.report}")
    print("ok" if ok else "INCONSISTENT", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_nt(args) -> int:
    if args.nt_command == "prodpi":
        rpt = prodpi_collision_scan(args.max_sum)
        payload = {
            "max_sum": rpt.max_sum,
            "multisets_checked": rpt.multisets_checked,
            "prime_set_collisions": [list(map(list, g)) for g in rpt.prime_set_collisions],
            "other_collisions": [list(map(list, g)) for g in rpt.other_collisions],
            "prime_uniqueness_holds": rpt.prime_uniqueness_holds,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK if rpt.prime_uniqueness_holds else EXIT_VERIFICATION
    # bounds table
    n = args.n
    if n < 1 or (args.s is not None and not 1 <= args.s <= n):
        raise ParameterError(f"bounds need n >= 1 and 1 <= s <= n, got n {n}, s {args.s}")
    svals = [args.s] if args.s is not None else list(range(1, n + 1))
    print(f"c = {bound_constant_c():.9f}")
    print(f"{'s':>4}  {'n!/n^n<=':>14}  {'((n+s)/2n)^n':>14}  {'f(n/s)^s':>14}  "
          f"{'gamma_vs_ams':>12}")
    for s in svals:
        lower = float(factorial_ratio(n))
        upper = float(amgm_upper_bound(n, s))
        gamma = jensen_power_bound(n, s)
        within = prop_gamma_vs_amgm_holds(n, s) if 4 * s <= 3 * n else None
        print(f"{s:>4}  {lower:>14.6e}  {upper:>14.6e}  {gamma:>14.6e}  "
              f"{str(within):>12}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpcalc",
        description="Exact two-sided transversal probabilities of finite groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_source(p):
        p.add_argument("group", nargs="?", default=None,
                       help="builder expression, e.g. 'dihedral 4'")
        p.add_argument("--table", help="read the group from a Cayley-table file")

    p_group = sub.add_parser("group", help="construct and inspect groups")
    p_group.add_argument("action", choices=["make", "show", "subgroups"])
    add_group_source(p_group)
    p_group.add_argument("--cap-order", type=int, default=Limits.order)
    p_group.add_argument("--out", help="write the Cayley table to this file")
    p_group.set_defaults(func=cmd_group)

    p_pg = sub.add_parser("pg", help="probability for a subgroup pair")
    add_group_source(p_pg)
    p_pg.add_argument("--subgroup", required=True,
                      help="comma-separated generator indices for H "
                           "(empty or 0: the trivial subgroup)")
    p_pg.add_argument("--right", help="generator indices for K (default: H)")
    p_pg.add_argument("--bounds", action="store_true", help="print the bounds report")
    p_pg.set_defaults(func=cmd_pg)

    p_tp = sub.add_parser("tp", help="minimum probability over all subgroups")
    add_group_source(p_tp)
    p_tp.add_argument("--cap-order", type=int, default=Limits.order)
    p_tp.set_defaults(func=cmd_tp)

    p_gr = sub.add_parser("graph", help="coset intersection graph")
    add_group_source(p_gr)
    p_gr.add_argument("--subgroup", required=True)
    p_gr.add_argument("--right")
    p_gr.add_argument("--dot", action="store_true", help="emit DOT format")
    p_gr.set_defaults(func=cmd_graph)

    p_ver = sub.add_parser("verify", help="run one theorem check over a catalog")
    p_ver.add_argument("theorem", choices=sorted(CHECKS) + ["all"])
    p_ver.add_argument("--catalog", default=None, help="catalog file (default builtin)")
    p_ver.add_argument("--cap-order", type=int, default=Limits.order)
    p_ver.add_argument("--report", default=None)
    p_ver.add_argument("--format", choices=["json", "csv"], default="json")
    p_ver.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="full catalog scan with all checks")
    p_scan.add_argument("--catalog", default=None)
    p_scan.add_argument("--checks", default=None,
                        help="comma-separated check names (default: all standard)")
    p_scan.add_argument("--cap-order", type=int, default=Limits.order)
    p_scan.add_argument("--report", default=None)
    p_scan.add_argument("--format", choices=["json", "csv"], default="json")
    p_scan.add_argument("--no-cache", action="store_true")
    p_scan.add_argument("--cache", default=".tpcalc_cache.jsonl")
    p_scan.set_defaults(func=cmd_scan)

    p_nt = sub.add_parser("nt", help="number-theoretic scans and bound tables")
    nt_sub = p_nt.add_subparsers(dest="nt_command", required=True)
    p_prodpi = nt_sub.add_parser("prodpi", help="factorial-ratio collision scan")
    p_prodpi.add_argument("--max-sum", type=int, default=28)
    p_bounds = nt_sub.add_parser("bounds", help="bound comparison table")
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--s", type=int, default=None)
    p_nt.set_defaults(func=cmd_nt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "group", "ok") is None and getattr(args, "table", None) is None:
        parser.error("a builder expression or --table file is required")
    n = getattr(args, "cap_order", None)
    try:
        if n is not None and n < 1:
            raise ParameterError(f"--cap-order must be at least 1, got {n}")
        with using(Limits() if n is None else Limits(n, min(n, Limits.table))):
            return args.func(args)
    except SizeLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (FormatError, ParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TpcalcError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
