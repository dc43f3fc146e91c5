import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from tpcalc import catalog as cat
from tpcalc import cli
from tpcalc import group_core as gc
from tpcalc import presets
from tpcalc import tp_engine as te
from tpcalc import transversal as tv
from tpcalc.errors import LIMITS, FormatError, Limits, ParameterError, SizeLimitError, using


# sha256 of the builtin scan report's entries with every `millis` removed.
# Speed work keeps it; a change to it is a change of an answer.
BUILTIN_SCAN_DIGEST = "2dfd75e757769c559e9cfa80d1b2e8d4696b42ee47791581318f07e6cbfbb5ef"


def entries_digest(report: dict) -> str:
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "millis"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    text = json.dumps(strip(report["entries"]), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestBuilderGrammar:
    def test_atoms(self):
        assert cat.build_group("cyclic 5").order == 5
        assert cat.build_group("dihedral 7").order == 14
        assert cat.build_group("quaternion 16").order == 16
        assert cat.build_group("cpc2 5 2").order == 20
        assert cat.build_group("frobfield 9").order == 72
        assert cat.build_group("elemab 2 3").order == 8
        assert cat.build_group("a4").order == 12
        assert cat.build_group("psl3_2").order == 168

    def test_compound(self):
        G = cat.build_group("sdp (cyclic 3) (cyclic 4) invert")
        assert gc.is_isomorphic(G, gc.cp_rtimes_c2n(3, 2))
        H = cat.build_group("dp (dihedral 3) (cyclic 5)")
        assert H.order == 30
        N = cat.build_group("sdp (elemab 3 2) (cyclic 4) qturn")
        assert N.order == 36
        M = cat.build_group("sdp (cyclic 7) (cyclic 3) pow 2")
        assert M.order == 21

    def test_nested(self):
        G = cat.build_group("dp (dp (cyclic 2) (cyclic 2)) (cyclic 3)")
        assert G.order == 12 and G.is_abelian

    def test_file_builders(self, tmp_path):
        table_file = tmp_path / "q8.txt"
        table_file.write_text(gc.write_cayley_table(gc.generalized_quaternion(8)))
        G = cat.build_group(f"table {table_file.name}", base_dir=tmp_path)
        assert gc.is_isomorphic(G, gc.generalized_quaternion(8))

        gen_file = tmp_path / "a4.gens"
        gen_file.write_text(gc.write_permutation_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)]))
        P = cat.build_group(f"perm 4 {gen_file.name}", base_dir=tmp_path)
        assert P.order == 12

    def test_errors(self):
        with pytest.raises(FormatError):
            cat.build_group("nonsense 3")
        with pytest.raises(FormatError):
            cat.build_group("dp (cyclic 2")
        with pytest.raises(FormatError):
            cat.build_group("cyclic x")
        with pytest.raises(FormatError):
            cat.build_group("cyclic 3 4")  # trailing tokens
        with pytest.raises(FormatError):
            cat.build_group("sdp (cyclic 3) (cyclic 2) twist")

    @pytest.mark.parametrize("expr", ["dp (dihedral 3) (cyclic 5)", "cpc2 5 2",
                                      "sdp (cyclic 7) (cyclic 3) pow 2"])
    def test_product_factors_rebuild_the_group(self, expr):
        A, B, action = presets.product_factors(expr)
        built = (gc.direct_product(A, B) if action is None
                 else gc.semidirect_product(A, B, action))
        assert (built.mul == cat.build_group(expr).mul).all()

    def test_product_factors_of_other_expressions(self):
        assert presets.product_factors("dihedral 3") is None
        assert presets.product_factors("") is None
        with pytest.raises(FormatError):
            presets.product_factors("dp (cyclic 2) (cyclic 3) (cyclic 4)")

    @pytest.mark.parametrize("expr", ["cyclic 3000", "elemab 3 8", "dihedral 1500",
                                      "quaternion 4096", "frobfield 64",
                                      "dp (cyclic 60) (cyclic 50)", "table big.txt"])
    def test_refused_before_the_table_is_allocated(self, tmp_path, expr):
        """Each builder checks the `table` limit first: refusing a group of
        3,000 to 6,561 elements costs under 1 MB, not its 36-344 MB table."""
        (tmp_path / "big.txt").write_text("3000\n" + " ".join(map(str, range(3000))) + "\n")
        tracemalloc.start()
        try:
            with using(Limits(order=256, table=256)), pytest.raises(SizeLimitError):
                presets.build_group(expr, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCatalog:
    def test_builtin_size_and_ids(self, catalog_entries):
        assert len(catalog_entries) >= 40
        ids = [e.id for e in catalog_entries]
        assert len(ids) == len(set(ids))

    def test_orders_validate(self, catalog_entries):
        for e in catalog_entries:
            G = e.group()
            assert G.order == e.expected["order"]

    def test_expected_asserts_on_build(self):
        entry = cat.CatalogEntry(id="broken", builder="cyclic 5",
                                 expected={"order": 6})
        with pytest.raises(FormatError):
            entry.group()

    @pytest.mark.parametrize("builder, error", [("cyclic 5", FormatError),
                                                 ("cyclic 30000", SizeLimitError),
                                                 ("cyclic 0", FormatError)])
    def test_a_failed_build_is_kept(self, builder, error):
        """A refusal or a failure is raised again as the same error, of the
        same type, without a second build."""
        entry = cat.CatalogEntry(id="bad", builder=builder, expected={"order": 6})
        with pytest.raises(error) as first:
            entry.group()
        with pytest.raises(error) as again:
            entry.group()
        assert again.value is first.value

    def test_file_catalog_roundtrip(self, tmp_path):
        path = tmp_path / "cat.tsv"
        path.write_text("# a comment\nmy_d4\tdihedral 4\nmy_prod\tdp (cyclic 2) (cyclic 3)\n")
        entries = cat.catalog_build(path)
        assert [e.id for e in entries] == ["my_d4", "my_prod"]
        assert entries[0].group().order == 8

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "cat.tsv"
        path.write_text("x\tcyclic 2\nx\tcyclic 3\n")
        with pytest.raises(FormatError):
            cat.catalog_build(path)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "cat.tsv"
        path.write_text("justoneword\n")
        with pytest.raises(FormatError) as err:
            cat.catalog_build(path)
        assert ":1:" in str(err.value)

    def test_hash_changes_with_content(self, catalog_entries, tmp_path):
        h1 = cat.catalog_hash(catalog_entries)
        path = tmp_path / "cat.tsv"
        path.write_text("only\tcyclic 2\n")
        h2 = cat.catalog_hash(cat.catalog_build(path))
        assert h1 != h2

    def test_unknown_check_rejected(self):
        with pytest.raises(ParameterError):
            cat.resolve_checks(["bogus"])

    def test_exploratory_not_in_default(self):
        default = cat.resolve_checks(None)
        assert "tp-vs-cp" not in default
        assert "cyclic-witness" not in default
        assert cat.resolve_checks(["tp-vs-cp"]) == ["tp-vs-cp"]


@pytest.fixture(scope="module")
def small_catalog(tmp_path_factory):
    path = tmp_path_factory.mktemp("cat") / "small.tsv"
    path.write_text(
        "s3\tdihedral 3\n"
        "a4\ta4\n"
        "q8\tquaternion 8\n"
        "pair\tdp (dihedral 3) (cyclic 5)\n"
    )
    return cat.catalog_build(path)


class TestScan:
    def test_scan_is_consistent(self, small_catalog, tmp_path):
        report, ok = cat.scan_and_report(small_catalog, out=tmp_path / "r.json")
        assert ok
        assert {row["group"] for row in report["entries"]} == {"s3", "a4", "q8", "pair"}
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["ok"]

    def test_reports_are_deterministic_modulo_millis(self, small_catalog, tmp_path):
        cat.scan_and_report(small_catalog, out=tmp_path / "r1.json")
        cat.scan_and_report(small_catalog, out=tmp_path / "r2.json")
        strip = lambda s: re.sub(r'"millis": \d+', '"millis": 0', s)
        assert strip((tmp_path / "r1.json").read_text()) \
            == strip((tmp_path / "r2.json").read_text())

    def test_entries_run_one_at_a_time(self, small_catalog):
        with pytest.raises(ParameterError):
            cat.scan_and_report(small_catalog, jobs=2)

    def test_cap_skips_large_entries(self, small_catalog):
        with using(Limits(10, 10)):
            report, ok = cat.scan_and_report(small_catalog)
        assert ok
        skipped = {r["group"] for r in report["entries"] if "skipped" in r}
        assert skipped == {"a4", "pair"}

    def test_builder_failure_fails_scan(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("broken\tcyclic 0\n")
        report, ok = cat.scan_and_report(cat.catalog_build(path))
        assert not ok
        assert "error" in report["entries"][0]

    def test_missing_perm_file_is_an_error_row(self, tmp_path):
        path = tmp_path / "lost.tsv"
        path.write_text("s3\tdihedral 3\nlost\tperm 6 nosuch.txt\n")
        report, ok = cat.scan_and_report(cat.catalog_build(path), checks=["expected-values"])
        rows = {row["group"]: row for row in report["entries"]}
        assert not ok
        assert "cannot read" in rows["lost"]["error"]
        assert rows["s3"]["consistent"]

    def test_report_records_its_limits(self, small_catalog):
        report, _ = cat.scan_and_report(small_catalog, checks=["expected-values"])
        assert report["limits"] == {"order": 256, "table": 20_000}
        with using(Limits(10, 10)):
            report, _ = cat.scan_and_report(small_catalog, checks=["expected-values"])
        assert report["limits"] == {"order": 10, "table": 10}

    def test_builtin_catalog_full_scan_is_consistent(self, catalog_entries, tmp_path):
        report, ok = cat.scan_and_report(catalog_entries, out=tmp_path / "full.json")
        assert ok
        assert len(report["entries"]) == len(catalog_entries)
        assert all("error" not in row and "skipped" not in row
                   for row in report["entries"])
        # coverage gate: a theorem whose hypothesis no builtin group meets is
        # reported consistent without being exercised
        held = Counter()
        for row in report["entries"]:
            for verdict in row["verdicts"]:
                held[verdict["theorem"]] += verdict["hypothesis_holds"]
        assert [t for t, k in held.items() if k == 0] == []
        assert entries_digest(report) == BUILTIN_SCAN_DIGEST

    def test_each_check_family_runs_once_per_group(self, small_catalog, monkeypatch):
        calls = {"structure": Counter(), "classification": Counter()}

        def counting(family, fn):
            def run(G, group_id=""):
                calls[family][group_id] += 1
                return fn(G, group_id)
            return run

        monkeypatch.setattr(cat, "verify_structure_theorems",
                            counting("structure", te.verify_structure_theorems))
        monkeypatch.setattr(cat, "classify_special_values",
                            counting("classification", te.classify_special_values))
        _, ok = cat.scan_and_report(small_catalog)
        assert ok
        once = Counter(e.id for e in small_catalog)
        assert calls == {"structure": once, "classification": once}

    def test_no_table_is_split_twice(self, monkeypatch):
        original = gc.subgroup_conjugacy_classes
        splits = Counter()
        tables = []  # kept alive, so no id is reused

        def counting(G, subs):
            splits[id(G)] += 1
            tables.append(G)
            return original(G, subs)

        for name, mod in list(sys.modules.items()):
            if name == "tpcalc" or name.startswith("tpcalc."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting)
        ids = {"d4", "a4", "q8", "c7_c3", "s4"}
        entries = [e for e in cat.builtin_catalog() if e.id in ids]
        _, ok = cat.scan_and_report(entries)
        assert ok and len(entries) == len(ids)
        assert splits and max(splits.values()) == 1

    def test_mixed_subset_keeps_requested_order(self, small_catalog):
        subset = ["nilpotency", "monotonicity", "solubility-criterion", "pq-exclusion"]
        full, _ = cat.scan_and_report(small_catalog)
        part, ok = cat.scan_and_report(small_catalog, checks=subset)
        assert ok
        for whole, row in zip(full["entries"], part["entries"]):
            theorems = [v["theorem"] for v in row["verdicts"]]
            assert theorems == ["nilpotency", "monotone-subgroups", "monotone-quotients",
                                "monotone-sections", "non-dedekind-p-group",
                                "solubility-criterion", "pq-exclusion"]
            by_theorem = {v["theorem"]: v for v in whole["verdicts"]}
            assert row["verdicts"] == [by_theorem[t] for t in theorems]

    def test_csv_format(self, small_catalog, tmp_path):
        report, _ = cat.scan_and_report(small_catalog, out=tmp_path / "r.csv", fmt="csv")
        text = (tmp_path / "r.csv").read_text()
        assert text.splitlines()[0].startswith("group,order,tp")
        assert any(line.startswith("s3,6,1/2") for line in text.splitlines())

    def test_csv_quotes_commas_and_quotes(self, tmp_path):
        entries = [cat.CatalogEntry(id="a,b", builder="cyclic 2"),
                   cat.CatalogEntry(id='c"d', builder="cyclic 3"),
                   cat.CatalogEntry(id="e", builder="cyclic 0")]
        report, _ = cat.scan_and_report(entries, checks=["expected-values"])
        rows = list(csv.reader(cat.report_to_csv(report).splitlines()))
        assert all(len(row) == 7 for row in rows)
        assert [row[0] for row in rows] == ["group", "a,b", 'c"d', "e"]
        assert [row[1:3] for row in rows[1:3]] == [["2", "1/1"], ["3", "1/1"]]
        assert rows[3][5] == report["entries"][2]["error"]


class TestCache:
    def test_roundtrip_exact(self, tmp_path):
        cache = cat.ResultsCache.load(tmp_path / "cache.jsonl")
        entries = [cat.CatalogEntry(id="a5", builder="a5", expected={"order": 60})]
        h = cat.catalog_hash(entries)
        result = te.tp(entries[0].group(), "a5")
        cache.put(h, result)
        cache.save()
        again = cat.ResultsCache.load(tmp_path / "cache.jsonl")
        got = again.get(h, "a5")
        assert got is not None
        assert got.tp == result.tp == Fraction(1, 2**14)
        assert got.witnesses == result.witnesses

    def test_hash_mismatch_misses(self, tmp_path):
        cache = cat.ResultsCache.load(tmp_path / "cache.jsonl")
        entries = [cat.CatalogEntry(id="x", builder="cyclic 2", expected={})]
        h = cat.catalog_hash(entries)
        cache.put(h, te.tp(entries[0].group(), "x"))
        assert cache.get("different-hash", "x") is None

    def test_corrupt_lines_counted(self, tmp_path):
        p = tmp_path / "cache.jsonl"
        p.write_text('not json at all\n{"also": "missing keys"}\n')
        cache = cat.ResultsCache.load(p)
        assert cache.corrupt_lines == 2
        assert not cache.entries

    def test_scan_cache_hit_reuses_values(self, tmp_path):
        entries = [cat.CatalogEntry(id="d5", builder="dihedral 5",
                                    expected={"order": 10, "tp": "1/4"})]
        cache = cat.ResultsCache.load(tmp_path / "c.jsonl")
        report1, ok1 = cat.scan_and_report(entries, checks=["expected-values"],
                                           cache=cache)
        assert ok1 and report1["entries"][0]["cache_hit"] is False
        cache2 = cat.ResultsCache.load(tmp_path / "c.jsonl")
        report2, ok2 = cat.scan_and_report(entries, checks=["expected-values"],
                                           cache=cache2)
        assert ok2 and report2["entries"][0]["cache_hit"] is True
        assert report1["entries"][0]["tp"] == report2["entries"][0]["tp"]

    def test_cache_hit_keeps_per_subgroup_checks_sharp(self, tmp_path):
        # the per-subgroup classification checks need the class table, which
        # is not cached; a cache-hit run must recompute it, not degrade
        mk = lambda: [cat.CatalogEntry(id="s3", builder="dihedral 3",
                                       expected={"order": 6})]
        checks = ["prime-ratio-placement"]
        cache = cat.ResultsCache.load(tmp_path / "c.jsonl")
        report1, _ = cat.scan_and_report(mk(), checks=checks, cache=cache)
        cache2 = cat.ResultsCache.load(tmp_path / "c.jsonl")
        report2, _ = cat.scan_and_report(mk(), checks=checks, cache=cache2)
        v1 = report1["entries"][0]["verdicts"][0]
        v2 = report2["entries"][0]["verdicts"][0]
        assert report2["entries"][0]["cache_hit"] is True
        assert v1 == v2
        assert v2["hypothesis_holds"]  # the order-2 subgroup hit is still found

    def test_rewritten_table_file_misses(self, tmp_path):
        # same builder text, different table: the cached D3 value must not be
        # served for C6
        path = tmp_path / "cat.tsv"
        path.write_text("g\ttable g.txt\n")
        table = tmp_path / "g.txt"
        cache_path = tmp_path / "c.jsonl"
        rows = []
        for G in (gc.dihedral(3), gc.cyclic(6)):
            table.write_text(gc.write_cayley_table(G))
            report, ok = cat.scan_and_report(cat.catalog_build(path),
                                             checks=["expected-values"],
                                             cache=cat.ResultsCache.load(cache_path))
            assert ok
            rows.append(report["entries"][0])
        assert rows[0]["tp"] == {"num": "1", "den": "2"}
        assert rows[1]["cache_hit"] is False
        assert rows[1]["tp"] == {"num": "1", "den": "1"}

    def test_poisoned_cache_detected(self, tmp_path):
        entries = [cat.CatalogEntry(id="s3", builder="dihedral 3",
                                    expected={"order": 6})]
        h = cat.catalog_hash(entries)
        bad = te.TpResult(group_id="s3", tp=Fraction(1, 7),
                          witnesses=((1,),), subgroup_count=6)
        cache = cat.ResultsCache.load(tmp_path / "c.jsonl")
        cache.put(h, bad)
        cache.save()
        cache2 = cat.ResultsCache.load(tmp_path / "c.jsonl")
        report, ok = cat.scan_and_report(entries, checks=["prime-ratio-placement"],
                                         cache=cache2)
        assert not ok  # the recomputation refuses the poisoned value

    def _d5_cache(self, tmp_path, rows):
        catalog = tmp_path / "cat.tsv"
        catalog.write_text("d5\tdihedral 5\n")
        h = cat.catalog_hash(cat.catalog_build(catalog))
        good = {"catalog_hash": h, "group": "d5", "tp": {"num": "1", "den": "4"},
                "witnesses": [[5]], "subgroup_count": 8}
        cache = tmp_path / "c.jsonl"
        cache.write_text("".join(json.dumps(dict(good, **row)) + "\n" for row in rows))
        return catalog, cache, good

    def test_rows_that_do_not_parse_are_corrupt(self, tmp_path, capsys):
        catalog, cache, good = self._d5_cache(tmp_path, [
            {"witnesses": [["x"]]}, {"witnesses": 5}, {"subgroup_count": "many"},
            {"tp": {"num": "1", "den": "0"}}])
        with cache.open("a") as fh:
            fh.write(json.dumps({k: v for k, v in good.items() if k != "witnesses"}) + "\n")
            fh.write("[1, 2]\n")
        loaded = cat.ResultsCache.load(cache)
        assert loaded.corrupt_lines == 6 and not loaded.entries
        code = cli.main(["scan", "--catalog", str(catalog), "--cache", str(cache),
                         "--checks", "expected-values"])
        assert code == cli.EXIT_OK
        assert "skipped 6 corrupt cache lines" in capsys.readouterr().err

    def test_planted_row_is_checked_field_by_field(self, tmp_path):
        right = te.tp(gc.dihedral(5))
        assert (right.tp, right.witnesses, right.subgroup_count) == (Fraction(1, 4), ((5,),), 8)
        for field, planted in ((None, {}), ("subgroup_count", {"subgroup_count": 999}),
                               ("witnesses", {"witnesses": [[7]]})):
            catalog, cache, _ = self._d5_cache(tmp_path, [planted])
            report, ok = cat.scan_and_report(cat.catalog_build(catalog),
                                             cache=cat.ResultsCache.load(cache))
            row = report["entries"][0]
            assert row["cache_hit"] is True
            if field is None:  # the right row is a clean hit
                assert ok and "error" not in row
            else:
                assert not ok and row["error"].startswith(f"cached {field} "), row["error"]

    def _expected_values_row(self, capsys, catalog, cache):
        code = cli.main(["scan", "--catalog", str(catalog), "--cache", str(cache),
                         "--checks", "expected-values"])
        return code, json.loads(capsys.readouterr().out)["entries"][0]

    @pytest.mark.parametrize("witness, why_wrong", [
        (999, "are not elements of a group of order 10"),
        (1, "generate a subgroup with P = 1, not the cached tp 1/4"),  # a rotation
    ])
    def test_trusted_hit_checks_its_witnesses(self, tmp_path, capsys, witness, why_wrong):
        # a scan that asks only for tp still recomputes it and compares the row
        catalog, cache, _ = self._d5_cache(tmp_path, [{"witnesses": [[witness]]}])
        code, row = self._expected_values_row(capsys, catalog, cache)
        assert code == cli.EXIT_VERIFICATION
        assert row["error"] == (f"cached witnesses (({witness},),) disagrees with "
                                f"recomputed ((5,),)")

    @pytest.mark.parametrize("planted, error", [
        # the trivial subgroup attains P = 1, so only the minimum over every
        # class shows that tp 1 is wrong
        ({"tp": {"num": "1", "den": "1"}, "witnesses": [[0]]},
         "cached tp 1 disagrees with recomputed 1/4"),
        ({"subgroup_count": 999}, "cached subgroup_count 999 disagrees with recomputed 8"),
    ])
    def test_tp_only_scan_refuses_a_wrong_row(self, tmp_path, capsys, planted, error):
        catalog, cache, _ = self._d5_cache(tmp_path, [planted])
        code, row = self._expected_values_row(capsys, catalog, cache)
        assert code == cli.EXIT_VERIFICATION and row["cache_hit"] is True
        assert row["error"] == error


class TestExtensionBound:
    def test_enumerates_only_the_factor_tables(self, catalog_entries, catalog_groups,
                                               catalog_tp, monkeypatch):
        """The product's tp comes from the entry's own table, whose lattice is
        built already, so only the rebuilt factors are enumerated."""
        calls = []
        enumerate_all = gc.all_subgroups

        def counted(G, *args, **kwargs):
            calls.append(G)
            return enumerate_all(G, *args, **kwargs)

        monkeypatch.setattr(gc, "all_subgroups", counted)
        monkeypatch.setattr(te, "all_subgroups", counted)
        checked = 0
        for entry in catalog_entries:
            if entry.builder.split()[0] not in ("dp", "sdp", "cpc2"):
                continue
            G = catalog_groups[entry.id]
            calls.clear()
            (verdict,) = cat.CHECKS["extension-bound"](entry, G)
            assert verdict.hypothesis_holds and verdict.conclusion_holds, entry.id
            assert calls, entry.id
            assert all(X is not G and X.order < G.order for X in calls), entry.id
            checked += 1
        assert checked == 19


# Outputs captured before the coset graph was checked in whole-array steps.
# Their line order pins the component order: blocks by id, reps ascending.
GOLDEN_OUTPUTS = {
    "dihedral 6 dot": (["graph", "dihedral 6", "--subgroup", "6", "--dot"], """\
    graph coset_intersection {
      L0 [label="L0:0"];
      L1 [label="L1:1"];
      L2 [label="L2:2"];
      L3 [label="L3:3"];
      L4 [label="L4:4"];
      L5 [label="L5:5"];
      R0 [label="R0:0"];
      R1 [label="R1:1"];
      R2 [label="R2:2"];
      R3 [label="R3:3"];
      R4 [label="R4:4"];
      R5 [label="R5:5"];
      L0 -- R0 [weight=2];
      L1 -- R1 [weight=1];
      L1 -- R5 [weight=1];
      L5 -- R1 [weight=1];
      L5 -- R5 [weight=1];
      L2 -- R2 [weight=1];
      L2 -- R4 [weight=1];
      L4 -- R2 [weight=1];
      L4 -- R4 [weight=1];
      L3 -- R3 [weight=2];
    }
"""),
    "dihedral 6 dot right 7": (["graph", "dihedral 6", "--subgroup", "6", "--right", "7",
                                "--dot"], """\
    graph coset_intersection {
      L0 [label="L0:0"];
      L1 [label="L1:1"];
      L2 [label="L2:2"];
      L3 [label="L3:3"];
      L4 [label="L4:4"];
      L5 [label="L5:5"];
      R0 [label="R0:0"];
      R1 [label="R1:1"];
      R2 [label="R2:2"];
      R3 [label="R3:3"];
      R4 [label="R4:4"];
      R5 [label="R5:5"];
      L0 -- R0 [weight=1];
      L0 -- R5 [weight=1];
      L5 -- R0 [weight=1];
      L5 -- R5 [weight=1];
      L1 -- R1 [weight=1];
      L1 -- R4 [weight=1];
      L4 -- R1 [weight=1];
      L4 -- R4 [weight=1];
      L2 -- R2 [weight=1];
      L2 -- R3 [weight=1];
      L3 -- R2 [weight=1];
      L3 -- R3 [weight=1];
    }
"""),
    "a4 bounds": (["pg", "a4", "--subgroup", "1", "--bounds"], """\
    P = 2/9
    t-vector (3, 1)  s 2  m 1
    {
      "all_hold": true,
      "lower_factorial": {
        "den": "9",
        "num": "2"
      },
      "m": 1,
      "n": 4,
      "p": {
        "den": "9",
        "num": "2"
      },
      "s": 2,
      "upper_ams": {
        "den": "256",
        "num": "81"
      },
      "upper_gamma": GAMMA,
      "upper_half_power": {
        "den": "2",
        "num": "1"
      },
      "upper_seven_eighths": {
        "den": "4096",
        "num": "2401"
      }
    }
"""),
}


class TestCli:
    def test_tp_command(self, capsys):
        code = cli.main(["tp", "dihedral 4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tp = 1/2" in out

    def test_pg_command_with_bounds(self, capsys):
        code = cli.main(["pg", "dihedral 3", "--subgroup", "3", "--bounds"])
        out = capsys.readouterr().out
        assert code == 0
        assert "P = 1/2" in out and "t-vector (2, 1)" in out

    def test_pg_bounds_builds_the_coset_graph_once(self, capsys, monkeypatch):
        """The bounds read the graph that P was taken from."""
        build, builds = tv.build_coset_graph, []

        def counting(*args, **kwargs):
            builds.append(args[1:])
            return build(*args, **kwargs)

        for module in (cli, tv):
            monkeypatch.setattr(module, "build_coset_graph", counting)
        code = cli.main(["pg", "dihedral 3", "--subgroup", "3", "--bounds"])
        lines = capsys.readouterr().out.splitlines()
        assert (code, len(builds)) == (0, 1)
        assert lines[:2] == ["P = 1/2", "t-vector (2, 1)  s 2  m 1"]
        payload = json.loads("\n".join(lines[2:]))
        assert payload.pop("upper_gamma") == pytest.approx(0.5235987755982994, rel=1e-12)
        half = {"num": "1", "den": "2"}
        assert payload == {
            "all_hold": True, "n": 3, "s": 2, "m": 1, "p": half,
            "lower_factorial": half, "upper_half_power": half,
            "upper_ams": {"num": "125", "den": "216"},
            "upper_seven_eighths": {"num": "343", "den": "512"},
        }

    def test_graph_dot(self, capsys):
        code = cli.main(["graph", "dihedral 3", "--subgroup", "3", "--dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert "graph coset_intersection {" in out
        assert re.search(r"L\d+ -- R\d+ \[weight=\d+\];", out)

    @pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
    def test_golden_output(self, capsys, name):
        args, golden = GOLDEN_OUTPUTS[name]
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        want = textwrap.dedent(golden).splitlines()
        for k, line in enumerate(want):
            if "GAMMA" in line:  # a float from lgamma: pinned to its exact value 1/4
                got = float(lines[k].split(":")[1].rstrip(","))
                assert got == pytest.approx(0.25, rel=1e-12)
                lines[k] = line
        assert lines == want

    @pytest.mark.parametrize("command", ["pg", "graph"])
    @pytest.mark.parametrize("flag", ["--subgroup", "--right"])
    @pytest.mark.parametrize("element", ["-1", "999"])
    def test_generator_index_out_of_range_is_a_usage_error(self, capsys, command,
                                                          flag, element):
        args = [command, "dihedral 3", "--subgroup", "3", f"{flag}={element}"]
        assert cli.main(args) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err

    @pytest.mark.parametrize("flag", ["--subgroup", "--right"])
    def test_generator_1_names_the_subgroup_it_generates(self, capsys, flag):
        """`1` is element 1, so on dihedral 3 it generates the rotations, as
        `1,1` does; only the empty list and `0` name the trivial subgroup."""
        def pg(*args):
            assert cli.main(["pg", "dihedral 3", "--subgroup", "1,1", *args]) == 0
            return capsys.readouterr().out

        rotations = pg("--subgroup=1,1")
        assert "t-vector (1, 1)" in rotations
        assert pg(f"{flag}=1") == rotations
        trivial = pg("--subgroup=", "--right=0")
        assert "t-vector (1, 1, 1, 1, 1, 1)" in trivial
        assert pg("--subgroup=0", "--right=0") == trivial

    @pytest.mark.parametrize("command", ["pg", "graph"])
    def test_right_of_another_index_is_a_usage_error(self, capsys, command):
        # in dihedral 3, element 1 is a rotation (index 2), element 3 a reflection (index 3)
        assert cli.main([command, "dihedral 3", "--subgroup", "1", "--right", "3"]) \
            == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err and "index" in captured.err

    def test_group_subcommands(self, capsys, tmp_path):
        out_file = tmp_path / "d4.txt"
        assert cli.main(["group", "make", "dihedral 4", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert cli.main(["group", "show", "--table", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "order 8" in out and "nilpotent True" in out
        assert cli.main(["group", "subgroups", "dihedral 4"]) == 0
        out = capsys.readouterr().out
        assert "total 10 subgroups" in out

    def test_nt_commands(self, capsys):
        assert cli.main(["nt", "prodpi", "--max-sum", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prime_uniqueness_holds"]
        assert cli.main(["nt", "bounds", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "c = 0.976986" in out

    @pytest.mark.parametrize("args", [["--n", "0"], ["--n", "5", "--s", "0"],
                                      ["--n", "5", "--s", "9"]])
    def test_nt_bounds_rejects_n_and_s_out_of_range(self, capsys, args):
        assert cli.main(["nt", "bounds", *args]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err

    @pytest.mark.parametrize("max_sum", ["1", "-3"])
    def test_nt_prodpi_rejects_max_sum_below_2(self, capsys, max_sum):
        assert cli.main(["nt", "prodpi", "--max-sum", max_sum]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: max_sum must be at least 2" in captured.err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("args", [["group", "show", "cyclic 3"], ["tp", "cyclic 3"],
                                      ["verify", "expected-values"],
                                      ["scan", "--no-cache", "--checks", "expected-values"]])
    def test_cap_order_below_1_is_a_usage_error(self, capsys, args, cap):
        assert cli.main([*args, "--cap-order", cap]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: --cap-order" in captured.err

    def test_verify_builtin_subset(self, capsys, tmp_path):
        path = tmp_path / "mini.tsv"
        path.write_text("s3\tdihedral 3\nq8\tquaternion 8\n")
        code = cli.main(["verify", "graph-invariants", "--catalog", str(path)])
        out = capsys.readouterr().out
        assert code == 0 and out.strip().endswith("ok")

    def test_verify_exits_nonzero_on_failure(self, capsys, tmp_path):
        path = tmp_path / "mini.tsv"
        path.write_text("fine\tdihedral 3\nbroken\tcyclic 0\n")
        code = cli.main(["verify", "graph-invariants", "--catalog", str(path)])
        out = capsys.readouterr().out
        assert code == cli.EXIT_VERIFICATION
        assert "INCONSISTENT" in out

    def test_exit_code_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tp"])  # missing group argument
        assert exc.value.code == 2
        assert cli.main(["tp", "cyclic x"]) == cli.EXIT_USAGE

    def test_bad_action_is_a_usage_error(self, capsys):
        # 2 has order 4 mod 5, so `pow 2` is no action of C3
        assert cli.main(["tp", "sdp (cyclic 5) (cyclic 3) pow 2"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: action is not a right-action homomorphism" in captured.err

    def test_bad_action_in_a_catalog_is_an_error_row(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("fine\tdihedral 3\nbad\tsdp (cyclic 5) (cyclic 3) pow 2\n")
        report, ok = cat.scan_and_report(cat.catalog_build(path),
                                         checks=["expected-values"])
        assert not ok
        rows = {row["group"]: row for row in report["entries"]}
        assert "error" not in rows["fine"]
        assert "right-action homomorphism" in rows["bad"]["error"]

    @pytest.mark.parametrize("args", [["tp", "perm 6 nosuch.txt"],
                                      ["tp", "--table", "nosuch.txt"],
                                      ["scan", "--catalog", "nosuch.tsv", "--no-cache"],
                                      ["tp", "--table", "latin1.txt"]])
    def test_unreadable_input_file_is_a_usage_error(self, capsys, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin1.txt").write_bytes(b"\xff\xfe\n")  # not UTF-8
        assert cli.main(args) == cli.EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    @staticmethod
    def _a6_catalog(tmp_path):
        (tmp_path / "a6.txt").write_text(gc.write_permutation_generators(6, [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)]))
        (tmp_path / "a6.tsv").write_text("a6\tperm 6 a6.txt\n")
        return str(tmp_path / "a6.tsv")

    def test_verify_all_checks_a6_at_a_larger_cap(self, capsys, tmp_path):
        """A raised --cap-order reaches every check, so A6 (order 360) runs
        them all and has its published 501 subgroups."""
        report = tmp_path / "r.json"
        assert cli.main(["verify", "all", "--catalog", self._a6_catalog(tmp_path),
                         "--cap-order", "360", "--report", str(report)]) == cli.EXIT_OK
        payload = json.loads(report.read_text())
        [row] = payload["entries"]
        assert payload["checks"] == list(cat.DEFAULT_CHECKS)
        assert payload["limits"] == {"order": 360, "table": 360}
        assert row["consistent"] and "skipped" not in row
        assert row["subgroup_count"] == 501

    @pytest.mark.parametrize("args", [["scan", "--no-cache"], ["verify", "nilpotency"]])
    def test_catalog_commands_refuse_a_larger_cap(self, capsys, tmp_path, args):
        """A --cap-order above the `table` limit raises only the `order` limit:
        cyclic 30000 is still skipped before its 3.6 GB table is allocated."""
        (tmp_path / "big.tsv").write_text("c30000\tcyclic 30000\n")
        report = tmp_path / "r.json"
        tracemalloc.start()
        try:
            code = cli.main([*args, "--catalog", str(tmp_path / "big.tsv"),
                             "--cap-order", "50000", "--report", str(report)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["limits"] == {"order": 50000, "table": 20_000}
        [row] = payload["entries"]
        assert "exceeded 20000 elements" in row["skipped"]
        assert peak < 2**20

    def test_default_limits_skip_a6_before_its_table(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        assert cli.main(["scan", "--catalog", self._a6_catalog(tmp_path), "--no-cache",
                         "--report", str(report)]) == cli.EXIT_OK
        [row] = json.loads(report.read_text())["entries"]
        assert "closure exceeded 256 elements" in row["skipped"]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    @pytest.mark.parametrize("args", [
        ["scan", "--catalog", "big.tsv", "--no-cache", "--checks", "expected-values",
         "--report", "r.json"],
        ["tp", "cyclic 3000"]])
    def test_refused_in_a_small_process(self, tmp_path, args):
        """At the default limits S7 and S8 are skipped, and cyclic 3000
        refused, before a table is allocated: the process peaks under 60 MB."""
        for degree in (7, 8):
            cycle = tuple(range(1, degree)) + (0,)
            swap = (1, 0) + tuple(range(2, degree))
            (tmp_path / f"s{degree}.txt").write_text(
                gc.write_permutation_generators(degree, [cycle, swap]))
        (tmp_path / "big.tsv").write_text("s8\tperm 8 s8.txt\ns7\tperm 7 s7.txt\n")
        code, peak_kb = self._run_child(tmp_path, args)
        if args[0] == "scan":
            assert code == cli.EXIT_OK
            rows = json.loads((tmp_path / "r.json").read_text())["entries"]
            assert [row["group"] for row in rows if "skipped" in row] == ["s7", "s8"]
        else:
            assert code == cli.EXIT_RESOURCE
        assert peak_kb <= 60 * 1024

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_s7_table_is_validated_in_bounded_memory(self, tmp_path):
        """`pg` builds and validates S7's 5,040-element table (97 MB of
        int32). Light's test compares column blocks, so the child peaks
        near 173 MB; the whole n x n comparison at once peaked near 358 MB."""
        (tmp_path / "s7.txt").write_text(gc.write_permutation_generators(
            7, [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)]))
        code, peak_kb = self._run_child(tmp_path, ["pg", "perm 7 s7.txt", "--subgroup", "1"])
        assert code == cli.EXIT_OK
        assert peak_kb <= 250 * 1024

    @staticmethod
    def _run_child(tmp_path, args):
        """Exit code and peak RSS in kB of `tpcalc ARGS` in a child process.
        VmHWM is the child's own peak; ru_maxrss would keep the parent's
        across the fork and exec."""
        script = ("import re, sys; from tpcalc.cli import main; code = main(sys.argv[1:]); "
                  "print(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1]); "
                  "sys.exit(code)")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        proc = subprocess.run([sys.executable, "-c", script, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, int(proc.stdout.split()[-1])

    def test_exit_code_resource_cap(self, capsys):
        assert cli.main(["tp", "dihedral 12", "--cap-order", "10"]) == cli.EXIT_RESOURCE
        assert cli.main(["tp", "cyclic 3000"]) == cli.EXIT_RESOURCE

    @pytest.mark.parametrize("action", ["make", "show", "subgroups"])
    def test_group_commands_obey_the_cap(self, capsys, action):
        code = cli.main(["group", action, "dihedral 12", "--cap-order", "10"])
        assert code == cli.EXIT_RESOURCE
        presets.named("a5")  # a named group built once per process is checked too
        assert cli.main(["group", action, "a5", "--cap-order", "10"]) == cli.EXIT_RESOURCE

    @staticmethod
    def _record_closure_caps(monkeypatch):
        caps = []

        def closure(degree, gens):
            caps.append(LIMITS.get().table)
            return gc.from_permutation_generators(degree, gens)

        monkeypatch.setattr(presets, "from_permutation_generators", closure)
        return caps

    @pytest.mark.parametrize("head", [["group", "make"], ["tp"]])
    def test_perm_closure_stops_at_the_default_cap(self, capsys, tmp_path, monkeypatch,
                                                   head):
        """S7 (order 5040) is refused after 257 elements, before its table
        is allocated: the builder runs under a `table` limit of --cap-order."""
        path = tmp_path / "s7.txt"
        path.write_text(gc.write_permutation_generators(
            7, [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)]))
        caps = self._record_closure_caps(monkeypatch)
        assert cli.main([*head, f"perm 7 {path}"]) == cli.EXIT_RESOURCE
        assert caps == [256] == [Limits().order]
        assert "closure exceeded 256 elements" in capsys.readouterr().err

    def test_a_refused_entry_is_built_once_per_scan(self, capsys, tmp_path, monkeypatch):
        """The catalog hash and the scan share one build of each entry: one
        closure each for S8 and S7, and the same skipped and error rows."""
        for degree in (7, 8):
            cycle = tuple(range(1, degree)) + (0,)
            swap = (1, 0) + tuple(range(2, degree))
            (tmp_path / f"s{degree}.txt").write_text(
                gc.write_permutation_generators(degree, [cycle, swap]))
        (tmp_path / "big.tsv").write_text(
            "s8\tperm 8 s8.txt\ns7\tperm 7 s7.txt\nbroken\tcyclic 0\n")
        caps = self._record_closure_caps(monkeypatch)
        code = cli.main(["scan", "--catalog", str(tmp_path / "big.tsv"), "--no-cache",
                         "--checks", "expected-values", "--report", str(tmp_path / "r.json")])
        assert code == cli.EXIT_VERIFICATION  # the broken entry
        assert caps == [256, 256]
        rows = json.loads((tmp_path / "r.json").read_text())["entries"]
        assert [{k: v for k, v in row.items() if k != "millis"} for row in rows] == [
            {"group": "broken",
             "error": "entry 'broken': builder failed: cyclic group order must be positive"},
            {"group": "s7",
             "skipped": "size limit: closure exceeded 256 elements (257 > table limit)"},
            {"group": "s8",
             "skipped": "size limit: closure exceeded 256 elements (257 > table limit)"}]

    @pytest.mark.parametrize("args", [["tp", "--cap-order", "50000"],
                                      ["pg", "--subgroup", "1"],
                                      ["graph", "--subgroup", "1"]])
    def test_perm_closure_cap_is_never_raised(self, capsys, tmp_path, monkeypatch, args):
        """--cap-order only lowers the `table` limit; `pg` and `graph` have no
        --cap-order and keep the default Limits."""
        path = tmp_path / "s3.txt"
        path.write_text(gc.write_permutation_generators(3, [(1, 2, 0), (1, 0, 2)]))
        caps = self._record_closure_caps(monkeypatch)
        assert cli.main([args[0], f"perm 3 {path}", *args[1:]]) == cli.EXIT_OK
        assert caps == [Limits().table] == [20_000]

    def test_exit_code_verification_failure(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("broken\tcyclic 0\n")
        code = cli.main(["scan", "--catalog", str(path), "--no-cache",
                         "--checks", "expected-values"])
        assert code == cli.EXIT_VERIFICATION

    def test_scan_with_cache_flag(self, capsys, tmp_path):
        path = tmp_path / "mini.tsv"
        path.write_text("c6\tcyclic 6\n")
        cache_path = tmp_path / "cache.jsonl"
        code = cli.main(["scan", "--catalog", str(path), "--cache", str(cache_path),
                         "--checks", "expected-values",
                         "--report", str(tmp_path / "r.json")])
        assert code == 0
        assert cache_path.exists()
        code = cli.main(["scan", "--catalog", str(path), "--cache", str(cache_path),
                         "--checks", "expected-values",
                         "--report", str(tmp_path / "r2.json")])
        assert code == 0
        r2 = json.loads((tmp_path / "r2.json").read_text())
        assert r2["entries"][0]["cache_hit"] is True
