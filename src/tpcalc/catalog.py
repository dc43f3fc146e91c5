"""Curated group catalog, batch scanning with theorem checks, and the
line-delimited results cache.

A catalog line is `id <tab> builder-expression`, in the grammar of
`presets.build_group`. A scan runs the entries one after another in id
order, so two runs on the same catalog are byte-identical apart from the
millis fields.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .errors import (LIMITS, FormatError, ParameterError, SizeLimitError, TpcalcError,
                     VerificationError)
from .group_core import GroupTable
from .presets import build_group, product_factors, read_input
from .transversal import bounds_of
from .tp_engine import (
    TheoremVerdict,
    TpResult,
    classify_special_values,
    direct_extension_check,
    explore_cyclic_witness,
    explore_tp_vs_commuting,
    semidirect_extension_check,
    tp,
    verify_graph_invariants,
    verify_monotonicity,
    verify_structure_theorems,
)

# ---------------------------------------------------------------------------
# Catalog entries
# ---------------------------------------------------------------------------

@dataclass
class CatalogEntry:
    id: str
    builder: str
    expected: dict = field(default_factory=dict)
    base_dir: Path = Path(".")
    _group: GroupTable | TpcalcError | None = field(default=None, repr=False)

    def group(self) -> GroupTable:
        """Build on first use; the expected order is validated immediately.
        A refusal or a failure is kept as well, and the same error is raised
        on every later call, so a scan builds each entry once."""
        if self._group is None:
            try:
                self._group = self._build()
            except TpcalcError as exc:
                self._group = exc
        if isinstance(self._group, TpcalcError):
            raise self._group
        return self._group

    def _build(self) -> GroupTable:
        try:
            G = build_group(self.builder, self.base_dir)
        except SizeLimitError:
            raise
        except TpcalcError as exc:
            raise FormatError(f"entry {self.id!r}: builder failed: {exc}") from exc
        want = self.expected.get("order")
        if want is not None and G.order != want:
            raise FormatError(f"entry {self.id!r}: built order {G.order}, expected {want}")
        return G


def _dihedral_expected(n: int) -> str:
    exp = (n - 1) // 2 if n % 2 else (n - 2) // 2
    return str(Fraction(1, 2**exp))


def builtin_catalog() -> list[CatalogEntry]:
    """Every group named by the verification targets plus small abelian stock."""
    rows: list[tuple[str, str, dict]] = []
    known = "known-values"
    for name, order in (("c1", 1), ("c2", 2), ("c3", 3), ("c4", 4), ("c6", 6),
                        ("c8", 8), ("c12", 12)):
        rows.append((name, f"cyclic {order}", {"order": order, "tp": "1", "tag": "abelian"}))
    rows += [
        ("c2sq", "elemab 2 2", {"order": 4, "tp": "1", "tag": "abelian"}),
        ("c2cube", "elemab 2 3", {"order": 8, "tp": "1", "tag": "abelian"}),
        ("c3sq", "elemab 3 2", {"order": 9, "tp": "1", "tag": "abelian"}),
        ("c2_x_c4", "dp (cyclic 2) (cyclic 4)", {"order": 8, "tp": "1", "tag": "abelian"}),
        ("q8", "quaternion 8", {"order": 8, "tp": "1", "tag": "dedekind"}),
        ("q16", "quaternion 16", {"order": 16, "tp": "1/2", "tag": known}),
        ("c4_sdp_c4", "sdp (cyclic 4) (cyclic 4) invert",
         {"order": 16, "tp": "1/2", "tag": known}),
    ]
    for p, exp_val in ((3, "1/2"), (5, "1/4"), (7, "1/8")):
        for k in (1, 2, 3):
            rows.append((f"c{p}_c{2**k}", f"cpc2 {p} {k}",
                         {"order": p * 2**k, "tp": exp_val, "tag": known}))
    for n in range(3, 13):
        rows.append((f"d{n}", f"dihedral {n}",
                     {"order": 2 * n, "tp": _dihedral_expected(n), "tag": known}))
    rows += [
        ("a4", "a4", {"order": 12, "tp": "2/9", "tag": known}),
        ("a5", "a5", {"order": 60, "tp": str(Fraction(1, 2**14)), "tag": known}),
        ("psl3_2", "psl3_2", {"order": 168, "tp": str(Fraction(1, 2**40)), "tag": known}),
        ("sl2_3", "sl2_3", {"order": 24, "tp": "4/81", "tag": known}),
        ("c2cube_c7", "frobfield 8", {"order": 56, "tp": str(Fraction(1, 2**12)), "tag": known}),
        ("c3sq_c4", "sdp (elemab 3 2) (cyclic 4) qturn",
         {"order": 36, "tp": str(Fraction(1, 2**8)), "tag": known}),
        ("c7_c3", "sdp (cyclic 7) (cyclic 3) pow 2",
         {"order": 21, "tp": "4/81", "tag": "nilpotency-sharp"}),
        ("s3_x_c5", "dp (dihedral 3) (cyclic 5)",
         {"order": 30, "tp": "1/32", "tag": "extension-sharp"}),
        ("s4", "s4", {"order": 24}),
        ("frob12", "frobfield 4", {"order": 12, "tp": "2/9", "tag": "frobenius"}),
        ("frob20", "frobfield 5", {"order": 20}),
        ("frob42", "frobfield 7", {"order": 42}),
        ("frob72", "frobfield 9", {"order": 72}),
        ("m4_2", "sdp (cyclic 8) (cyclic 2) pow 5",
         {"order": 16, "tp": "1/4", "tag": "quarter-family"}),
        ("c4_circ_d4", "c4_circ_d4", {"order": 16, "tp": "1/4", "tag": "quarter-family"}),
        ("c2_x_d4", "dp (cyclic 2) (dihedral 4)",
         {"order": 16, "tp": "1/4", "tag": "quarter-family"}),
        ("c2sq_c4", "sdp (elemab 2 2) (cyclic 4) swap",
         {"order": 16, "tp": "1/4", "tag": "quarter-family"}),
        # nontrivial cyclic cores: the quotient by the centre of the 2-part
        # lands on the order-12 reference group
        ("c6_c4", "sdp (cyclic 6) (cyclic 4) invert",
         {"order": 24, "tp": "1/4", "tag": "quarter-family"}),
        ("c6_c8", "sdp (cyclic 6) (cyclic 8) invert",
         {"order": 48, "tp": "1/4", "tag": "quarter-family"}),
    ]
    entries = [CatalogEntry(id=i, builder=b, expected=e) for i, b, e in rows]
    _ensure_unique_ids(entries, source="builtin")
    return entries


def _ensure_unique_ids(entries: Sequence[CatalogEntry], source: str) -> None:
    seen = {}
    for k, e in enumerate(entries, start=1):
        if e.id in seen:
            raise FormatError(f"{source}: duplicate id {e.id!r} (lines {seen[e.id]} and {k})")
        seen[e.id] = k


def parse_catalog_file(path: Path | str) -> list[CatalogEntry]:
    path = Path(path)
    entries = []
    for lineno, raw in enumerate(read_input(path).splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'id<TAB>builder-expression'")
        ident, builder = line.split("\t", 1)
        ident, builder = ident.strip(), builder.strip()
        if not ident or not builder:
            raise FormatError(f"{path}:{lineno}: empty id or builder")
        entries.append(CatalogEntry(id=ident, builder=builder, base_dir=path.parent))
    _ensure_unique_ids(entries, source=str(path))
    return entries


def catalog_build(source: str | Path | None = None) -> list[CatalogEntry]:
    if source in (None, "builtin"):
        return builtin_catalog()
    return parse_catalog_file(source)


def catalog_hash(entries: Sequence[CatalogEntry]) -> str:
    """Digest of the package version and, per entry, the id, builder text,
    expected values and built Cayley table. Hashing the table, not only the
    builder text, makes a rewritten `table`/`perm` input file change the hash."""
    payload = json.dumps(
        [__version__] + [[e.id, e.builder, e.expected, _table_digest(e)] for e in
                         sorted(entries, key=lambda e: e.id)],
        sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _table_digest(entry: CatalogEntry) -> str | None:
    try:
        G = entry.group()
    except TpcalcError:
        return None  # the scan reports the builder failure for this entry
    return hashlib.sha256(G.mul.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Checks registry
# ---------------------------------------------------------------------------

def _structure_checks(entry: CatalogEntry, G: GroupTable) -> list[TheoremVerdict]:
    return verify_structure_theorems(G, entry.id)


def _classification_checks(entry: CatalogEntry, G: GroupTable) -> list[TheoremVerdict]:
    return classify_special_values(G, entry.id)


def _expected_values_check(entry: CatalogEntry, G: GroupTable) -> list[TheoremVerdict]:
    want = entry.expected.get("tp")
    result = tp(G, entry.id)
    if want is None:
        return [TheoremVerdict("expected-values", entry.id, False, True,
                               details={"tp": str(result.tp)})]
    ok = result.tp == Fraction(want)
    return [TheoremVerdict("expected-values", entry.id, True, ok,
                           details={"tp": str(result.tp), "expected": want,
                                    "tag": entry.expected.get("tag")})]


def _monotonicity_check(entry: CatalogEntry, G: GroupTable) -> list[TheoremVerdict]:
    return verify_monotonicity(G, entry.id)


def _graph_check(entry: CatalogEntry, G: GroupTable) -> list[TheoremVerdict]:
    return [verify_graph_invariants(G, entry.id)]


def _bounds_check(entry: CatalogEntry, G: GroupTable) -> list[TheoremVerdict]:
    # tp records only the non-normal classes
    rows = [(rec.subgroup.order, str(rec.p),
             bounds_of(rec.n, rec.s, rec.m, rec.p, normal_pair=False).all_hold)
            for rec in tp(G).table]
    return [TheoremVerdict("bounds-suite", entry.id, True, all(row[-1] for row in rows),
                           details={"subgroups": rows})]


def _extension_check(entry: CatalogEntry, G: GroupTable) -> list[TheoremVerdict]:
    factors = product_factors(entry.builder, entry.base_dir)
    if factors is None:
        return [TheoremVerdict("extension-bound", entry.id, False, True,
                               details={"note": "not a product builder"})]
    A, B, action = factors
    if action is None:
        verdict = direct_extension_check([A, B], entry.id, product=G)
    else:
        verdict = semidirect_extension_check(A, B, action, entry.id, product=G)
    return [TheoremVerdict("extension-bound", entry.id, verdict.hypothesis_holds,
                           verdict.conclusion_holds, details=verdict.details)]


CHECKS: dict[str, Callable[[CatalogEntry, GroupTable], list[TheoremVerdict]]] = {
    "expected-values": _expected_values_check,
    "monotonicity": _monotonicity_check,
    "solubility-criterion": _structure_checks,
    "supersolubility": _structure_checks,
    "nilpotency": _structure_checks,
    "derived-length": _structure_checks,
    "non-abelian-odd": _structure_checks,
    "tp-half-classification": _classification_checks,
    "tp-quarter-classification": _classification_checks,
    "pq-exclusion": _classification_checks,
    "prime-ratio-placement": _classification_checks,
    "prime-pair-tvector": _classification_checks,
    "graph-invariants": _graph_check,
    "bounds-suite": _bounds_check,
    "extension-bound": _extension_check,
    # exploratory, excluded from "all": conjecture scans
    "tp-vs-cp": lambda e, G: [explore_tp_vs_commuting(G, e.id)],
    "cyclic-witness": lambda e, G: [explore_cyclic_witness(G, e.id)],
}

EXPLORATORY_CHECKS = ("tp-vs-cp", "cyclic-witness")

DEFAULT_CHECKS = tuple(c for c in CHECKS if c not in EXPLORATORY_CHECKS)


def resolve_checks(names: Sequence[str] | None) -> list[str]:
    if not names or list(names) == ["all"]:
        return list(DEFAULT_CHECKS)
    out = []
    for name in names:
        if name == "all":
            out += [c for c in DEFAULT_CHECKS if c not in out]
            continue
        if name not in CHECKS:
            raise ParameterError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
        if name not in out:
            out.append(name)
    return out


# ---------------------------------------------------------------------------
# Results cache
# ---------------------------------------------------------------------------

@dataclass
class ResultsCache:
    """Append-friendly line-delimited JSON cache of computed tp results,
    keyed by (catalog hash, group id); the catalog hash covers the built
    tables and the package version. Stale lines are skipped, and so is any
    line that does not parse into a whole result (counted as corrupt)."""

    path: Path
    entries: dict[tuple[str, str], TpResult] = field(default_factory=dict)
    corrupt_lines: int = 0

    @classmethod
    def load(cls, path: Path | str) -> "ResultsCache":
        path = Path(path)
        cache = cls(path=path)
        if not path.exists():
            return cache
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                result = TpResult(
                    group_id=row["group"],
                    tp=Fraction(int(row["tp"]["num"]), int(row["tp"]["den"])),
                    witnesses=tuple(tuple(int(x) for x in w) for w in row["witnesses"]),
                    subgroup_count=int(row["subgroup_count"]),
                )
                cache.entries[(row["catalog_hash"], result.group_id)] = result
            except (KeyError, ValueError, TypeError, ZeroDivisionError):
                cache.corrupt_lines += 1
        return cache

    def get(self, cat_hash: str, group_id: str) -> TpResult | None:
        return self.entries.get((cat_hash, group_id))

    def put(self, cat_hash: str, result: TpResult) -> None:
        self.entries[(cat_hash, result.group_id)] = result

    def save(self) -> None:
        lines = [json.dumps({"catalog_hash": cat_hash,
                             "group": result.group_id,
                             "tp": rational_json(result.tp),
                             "witnesses": [list(w) for w in result.witnesses],
                             "subgroup_count": result.subgroup_count}, sort_keys=True)
                 for (cat_hash, _), result in sorted(self.entries.items())]
        self.path.write_text("\n".join(lines) + ("\n" if lines else ""))


# ---------------------------------------------------------------------------
# Scan driver
# ---------------------------------------------------------------------------

def rational_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _verdict_json(v: TheoremVerdict) -> dict:
    return {
        "theorem": v.theorem,
        "hypothesis_holds": v.hypothesis_holds,
        "conclusion_holds": v.conclusion_holds,
        "consistent": v.consistent,
        "details": _plain(v.details),
    }


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def scan_entry(entry: CatalogEntry, checks: Sequence[str],
               cache: ResultsCache | None, cat_hash: str) -> dict:
    started = time.perf_counter()
    row: dict = {"group": entry.id}
    cached = cache.get(cat_hash, entry.id) if cache is not None else None
    try:
        G = entry.group()
        row["order"] = G.order
        result = tp(G, entry.id)
        row["tp"] = rational_json(result.tp)
        row["witnesses"] = [list(w) for w in result.witnesses]
        row["subgroup_count"] = result.subgroup_count
        row["cache_hit"] = cached is not None
        # a cached row is a cross-check of the recomputed one, never a substitute
        for name in ("tp", "witnesses", "subgroup_count"):
            if cached is not None and getattr(cached, name) != getattr(result, name):
                raise VerificationError(
                    f"cached {name} {getattr(cached, name)} disagrees with "
                    f"recomputed {getattr(result, name)}")
        # A family check (structure, classification) decides all of its
        # theorems in one run; a later check of the same family reuses them.
        decided: dict[str, TheoremVerdict] = {}
        verdicts: list[TheoremVerdict] = []
        for name in checks:
            if name not in decided:
                returned = CHECKS[name](entry, G)
                decided.update((v.theorem, v) for v in returned)
                if name not in decided:  # monotonicity: verdicts of other names
                    verdicts += returned
                    continue
            verdicts.append(decided[name])
        row["verdicts"] = [_verdict_json(v) for v in verdicts]
        row["consistent"] = all(v.consistent for v in verdicts)
        if cache is not None and cached is None:
            cache.put(cat_hash, result)
    except SizeLimitError as exc:
        row.update(skipped=f"size limit: {exc}", millis=_millis(started))
        return row
    except TpcalcError as exc:
        # a failed internal cross-check is a reported failure, not a crash
        row.update(error=str(exc), millis=_millis(started))
        return row
    row["millis"] = _millis(started)
    return row


def _millis(started: float) -> int:
    return int((time.perf_counter() - started) * 1000)


def scan_and_report(entries: Sequence[CatalogEntry], checks: Sequence[str] | None = None,
                    out: Path | str | None = None, jobs: int = 1,
                    cache: ResultsCache | None = None,
                    fmt: str = "json") -> tuple[dict, bool]:
    """Run the requested checks over the catalog under the active Limits;
    returns (report, ok). An entry over a limit is a `skipped` row. `jobs`
    must be 1: entries run one after another."""
    if jobs != 1:
        raise ParameterError(f"jobs must be 1, got {jobs}")
    check_names = resolve_checks(checks)
    cat_hash = catalog_hash(entries)
    ordered = sorted(entries, key=lambda e: e.id)
    rows = [scan_entry(e, check_names, cache, cat_hash) for e in ordered]
    ok = all(r.get("consistent", True) and "error" not in r for r in rows)
    report = {
        "toolchain": {"python": sys.version.split()[0], "tpcalc": __version__},
        "catalog_hash": cat_hash,
        "checks": list(check_names),
        "limits": asdict(LIMITS.get()),
        "entries": rows,
        "ok": ok,
    }
    if cache is not None:
        cache.save()
    if out is not None:
        out = Path(out)
        if fmt == "json":
            out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        elif fmt == "csv":
            out.write_text(report_to_csv(report))
        else:
            raise ParameterError(f"unknown report format {fmt!r}")
    return report, ok


def report_to_csv(report: dict) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["group", "order", "tp", "subgroups", "consistent", "skipped", "millis"])
    for row in report["entries"]:
        tp_str = ""
        if "tp" in row:
            tp_str = f"{row['tp']['num']}/{row['tp']['den']}"
        writer.writerow([
            row.get("group", ""), row.get("order", ""), tp_str,
            row.get("subgroup_count", ""), row.get("consistent", ""),
            row.get("skipped") or row.get("error") or "", row.get("millis", "")])
    return text.getvalue()
