"""Tests for ktaulint: rule families, suppression, CLI formats, self-check.

The fixture files in ``tests/lint_fixtures/`` carry violations at pinned
line numbers (each fixture documents its own expectations); these tests
assert exact (rule, line) locations through both the engine API and both
CLI output formats, and the self-check test is the pytest-collected gate
that keeps the repository lint-clean.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import LintEngine, Severity
from repro.lint.cli import main as lint_main

HERE = Path(__file__).parent
FIXTURES = HERE / "lint_fixtures"
SRC_REPRO = HERE.parent / "src" / "repro"


def run_on(path: Path, select=None) -> list:
    return LintEngine(select=select).run([path])


def locations(findings) -> list[tuple[str, int]]:
    return [(f.rule_id, f.line) for f in findings]


class TestBalanceRules:
    def test_bad_balance_exact_findings(self):
        findings = run_on(FIXTURES / "bad_balance.py")
        assert locations(findings) == [
            ("KTAU101", 8),   # entry leaked by the early return
            ("KTAU102", 16),  # exit with no open entry
            ("KTAU103", 20),  # loop body compounds an entry per iteration
        ]
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_messages_name_the_point(self):
        findings = run_on(FIXTURES / "bad_balance.py")
        by_rule = {f.rule_id: f.message for f in findings}
        assert "'sys_read'" in by_rule["KTAU101"]
        assert "return at line 10" in by_rule["KTAU101"]
        assert "'sys_write'" in by_rule["KTAU102"]
        assert "'tcp_sendmsg'" in by_rule["KTAU103"]

    def test_kernel_idioms_prove_clean(self):
        # Guarded pairs, try/finally, LIFO nesting in loops, span(),
        # per-path exits, raise under finally: no false positives.
        assert run_on(FIXTURES / "good_balance.py") == []


class TestDeterminismRules:
    def test_bad_determinism_exact_findings(self):
        findings = run_on(FIXTURES / "bad_determinism.py")
        assert locations(findings) == [
            ("KTAU201", 12),  # time.time()
            ("KTAU202", 16),  # random.random()
            ("KTAU203", 20),  # os.urandom()
            ("KTAU204", 25),  # iterating a set()
        ]

    def test_sim_kernel_core_are_in_scope(self):
        # The rule's declared scope covers exactly the deterministic
        # substrate — including the replication runner (whose
        # serial/parallel equivalence depends on it), the observability
        # layer (whose wall-clock reads are confined to two suppressed
        # lines in repro.obs.runtime), the online monitor (whose
        # harvests are byte-compared across serial/parallel runs), and
        # the fault layer (same plan + seed must replay bit-for-bit),
        # and the bottleneck analyzer (its reports are golden-pinned),
        # and the counter views (counters-on runs are golden-pinned
        # and byte-compared serial vs parallel).
        from repro.lint.determinism import SCOPE
        assert SCOPE == ("repro.sim", "repro.kernel", "repro.core",
                         "repro.parallel", "repro.obs", "repro.monitor",
                         "repro.faults", "repro.analysis.bottlenecks",
                         "repro.analysis.counterview")

    def test_wall_clock_in_copied_sim_module(self, tmp_path):
        # A file that *is* part of repro.sim (by path) gets the rule...
        sim_dir = tmp_path / "repro" / "sim"
        sim_dir.mkdir(parents=True)
        bad = sim_dir / "drift.py"
        bad.write_text("import time\n\ndef now():\n    return time.time()\n")
        assert locations(run_on(tmp_path)) == [("KTAU201", 4)]

    def test_wall_clock_outside_scope_not_flagged(self, tmp_path):
        # ... while a repro.analysis module (by path) is out of scope.
        an_dir = tmp_path / "repro" / "analysis"
        an_dir.mkdir(parents=True)
        ok = an_dir / "render.py"
        ok.write_text("import time\n\ndef now():\n    return time.time()\n")
        assert run_on(tmp_path) == []


class TestRegistryRules:
    def test_bad_registry_exact_findings(self):
        findings = run_on(FIXTURES / "bad_registry.py")
        assert locations(findings) == [
            ("KTAU301", 19),  # duplicate "schedule" declaration
            ("KTAU303", 20),  # orphan_point never wired
            ("KTAU304", 21),  # Group.MISSING
            ("KTAU302", 28),  # mystery_point fired (entry)
            ("KTAU302", 29),  # mystery_point fired (exit)
        ]

    def test_unwired_is_warning_not_error(self):
        findings = run_on(FIXTURES / "bad_registry.py")
        severities = {f.rule_id: f.severity for f in findings}
        assert severities["KTAU303"] is Severity.WARNING
        assert severities["KTAU301"] is Severity.ERROR

    def test_silent_without_a_declaration_table(self):
        # No POINT_GROUPS in scope: nothing to check against.
        findings = run_on(FIXTURES / "bad_balance.py",
                          select=["KTAU301", "KTAU302", "KTAU303", "KTAU304"])
        assert findings == []


class TestApiRules:
    def test_all_drift_exact_findings(self):
        findings = run_on(FIXTURES / "bad_api.py")
        assert locations(findings) == [("KTAU401", 16), ("KTAU401", 17)]
        assert "ghost_export" in findings[0].message
        assert "twice" in findings[1].message

    def test_layer_violation_detected(self, tmp_path):
        kdir = tmp_path / "repro" / "kernel"
        kdir.mkdir(parents=True)
        evil = kdir / "evil.py"
        evil.write_text(
            "from repro.analysis.stats import kernel_event_stats\n")
        findings = run_on(tmp_path)
        assert locations(findings) == [("KTAU402", 1)]
        assert "repro.kernel" in findings[0].message

    def test_subpackage_contract_tighter_than_parent(self, tmp_path):
        # repro.analysis may import the monitor-free world at will, but
        # the analysis.bottlenecks subpackage declares its own contract:
        # monitor imports are violations *there*, while sibling analysis
        # modules and the parent layer stay importable.
        bdir = tmp_path / "repro" / "analysis" / "bottlenecks"
        bdir.mkdir(parents=True)
        (bdir / "evil.py").write_text(
            "from repro.monitor.alerts import Alert\n"
            "from repro.analysis.export import canonical_json\n"
            "from repro.analysis.bottlenecks.waits import extract_waits\n")
        findings = [f for f in run_on(tmp_path) if f.rule_id == "KTAU402"]
        assert [(f.rule_id, f.line) for f in findings] == [("KTAU402", 1)]
        assert "repro.analysis.bottlenecks" in findings[0].message

    def test_parent_layer_may_import_scoped_subpackage(self, tmp_path):
        adir = tmp_path / "repro" / "analysis"
        (adir / "bottlenecks").mkdir(parents=True)
        (adir / "uses.py").write_text(
            "from repro.analysis.bottlenecks.report import build_report\n")
        assert [f for f in run_on(tmp_path) if f.rule_id == "KTAU402"] == []

    def test_type_checking_imports_exempt(self, tmp_path):
        kdir = tmp_path / "repro" / "core"
        kdir.mkdir(parents=True)
        ok = kdir / "hints.py"
        ok.write_text(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.kernel.kernel import Kernel\n")
        assert run_on(tmp_path) == []

    def test_downward_imports_allowed(self, tmp_path):
        kdir = tmp_path / "repro" / "analysis"
        kdir.mkdir(parents=True)
        ok = kdir / "fine.py"
        ok.write_text("from repro.core.points import POINT_GROUPS\n")
        assert run_on(tmp_path) == []


class TestImportGraphRules:
    @staticmethod
    def _tree(tmp_path, files):
        for rel, text in files.items():
            p = tmp_path / "repro" / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text)
        return tmp_path

    def test_import_cycle_detected(self, tmp_path):
        root = self._tree(tmp_path, {
            "kernel/a.py": "import repro.kernel.b\n",
            "kernel/b.py": "import repro.kernel.a\n"})
        findings = run_on(root, select=["KTAU601"])
        assert len(findings) == 1
        assert findings[0].rule_id == "KTAU601"
        assert "repro.kernel.a" in findings[0].message
        assert "repro.kernel.b" in findings[0].message

    def test_deferred_import_is_the_sanctioned_cycle_break(self, tmp_path):
        # A function-scoped import executes at call time, not load time,
        # so it is not an import-time edge and the cycle dissolves.
        root = self._tree(tmp_path, {
            "kernel/a.py": ("def late():\n"
                            "    import repro.kernel.b\n"
                            "    return repro.kernel.b\n"),
            "kernel/b.py": "import repro.kernel.a\n"})
        assert run_on(root, select=["KTAU601"]) == []

    def test_type_checking_import_breaks_cycle(self, tmp_path):
        root = self._tree(tmp_path, {
            "kernel/a.py": ("from typing import TYPE_CHECKING\n"
                            "if TYPE_CHECKING:\n"
                            "    import repro.kernel.b\n"),
            "kernel/b.py": "import repro.kernel.a\n"})
        assert run_on(root, select=["KTAU601"]) == []

    def test_transitive_layer_violation_carries_chain(self, tmp_path):
        # kernel -> sim is legal and sim.helper's own import is KTAU402's
        # problem; the *transitive* reach kernel -> analysis is KTAU602's.
        root = self._tree(tmp_path, {
            "kernel/use.py": "import repro.sim.helper\n",
            "sim/helper.py": "import repro.analysis.stats\n",
            "analysis/stats.py": ""})
        findings = run_on(root, select=["KTAU602"])
        assert len(findings) == 1
        assert findings[0].path.endswith("use.py")
        assert findings[0].line == 1
        assert ("repro.kernel.use -> repro.sim.helper -> "
                "repro.analysis.stats") in findings[0].message


class TestContextRules:
    def test_bad_contexts_exact_findings(self):
        findings = run_on(FIXTURES / "bad_contexts.py")
        assert locations(findings) == [
            ("KTAU701", 13),  # drain's waitqueue sleep, IRQ-reachable
            ("KTAU702", 26),  # start_task called from IRQ context
            ("KTAU703", 31),  # generator passed as engine callback
        ]
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_messages_carry_the_witness_chain(self):
        findings = run_on(FIXTURES / "bad_contexts.py")
        by_rule = {f.rule_id: f.message for f in findings}
        assert "irq_deliver -> drain" in by_rule["KTAU701"]
        assert "'start_task'" in by_rule["KTAU702"]
        assert "'drain'" in by_rule["KTAU703"]

    def test_boundaries_and_factories_prove_clean(self):
        # Blocking outside IRQ reach, handoff through a declared
        # boundary, and closure factories as callbacks: no findings.
        assert run_on(FIXTURES / "good_contexts.py") == []


class TestSuppression:
    def test_line_suppressions_scope_to_line_and_rule(self):
        findings = run_on(FIXTURES / "suppressed.py")
        assert locations(findings) == [("KTAU201", 27)]

    def test_file_suppression(self, tmp_path):
        bad = tmp_path / "waived.py"
        bad.write_text(
            "# ktaulint: disable-file=KTAU201\n"
            "import time\n"
            "def a():\n"
            "    return time.time()\n"
            "def b():\n"
            "    return time.time()\n")
        assert run_on(tmp_path) == []

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        bad = tmp_path / "mismatch.py"
        bad.write_text(
            "import time\n"
            "def a():\n"
            "    return time.time()  # ktaulint: disable=KTAU999\n")
        assert locations(run_on(tmp_path)) == [("KTAU201", 3)]

    def test_multi_rule_disable_on_one_line(self, tmp_path):
        bad = tmp_path / "both.py"
        bad.write_text(
            "import random\n"
            "import time\n"
            "def a():\n"
            "    return time.time() + random.random()"
            "  # ktaulint: disable=KTAU201,KTAU202\n")
        assert run_on(tmp_path) == []

    def test_trailing_suppression_covers_wrapped_statement(self, tmp_path):
        # The finding anchors on the statement's first line; a waiver on
        # the closing-paren line must still cover it.
        bad = tmp_path / "wrapped.py"
        bad.write_text(
            "import time\n"
            "def a():\n"
            "    return time.time(\n"
            "    )  # ktaulint: disable=KTAU201\n")
        assert run_on(tmp_path) == []

    def test_interior_line_suppression_stays_line_scoped(self, tmp_path):
        # Only the *last* line of a wrapped statement extends; a comment
        # on an interior continuation line must not blanket the rest.
        bad = tmp_path / "interior.py"
        bad.write_text(
            "import time\n"
            "def a():\n"
            "    return time.time(\n"
            "        # ktaulint: disable=KTAU201\n"
            "    )\n")
        assert locations(run_on(tmp_path)) == [("KTAU201", 3)]


class TestSelectAndParse:
    def test_select_filters_by_emitted_rule_id(self):
        findings = run_on(FIXTURES / "bad_determinism.py",
                          select=["KTAU202"])
        assert locations(findings) == [("KTAU202", 16)]

    def test_syntax_error_reported_as_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        findings = run_on(bad)
        assert len(findings) == 1
        assert findings[0].rule_id == "KTAU000"


class TestCli:
    def test_text_format_exact_lines(self, capsys):
        code = lint_main([str(FIXTURES / "bad_balance.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert f"{FIXTURES / 'bad_balance.py'}:8: KTAU101 error" in out
        assert f"{FIXTURES / 'bad_balance.py'}:16: KTAU102 error" in out
        assert f"{FIXTURES / 'bad_balance.py'}:20: KTAU103 error" in out
        assert "3 finding(s)" in out

    def test_json_format_exact_locations(self, capsys):
        code = lint_main([str(FIXTURES / "bad_determinism.py"),
                          "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["count"] == 4
        assert [(f["rule"], f["line"]) for f in report["findings"]] == [
            ("KTAU201", 12), ("KTAU202", 16),
            ("KTAU203", 20), ("KTAU204", 25)]
        assert all(f["path"].endswith("bad_determinism.py")
                   for f in report["findings"])

    def test_json_format_registry_fixture(self, capsys):
        code = lint_main([str(FIXTURES / "bad_registry.py"),
                          "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [(f["rule"], f["line"]) for f in report["findings"]] == [
            ("KTAU301", 19), ("KTAU303", 20), ("KTAU304", 21),
            ("KTAU302", 28), ("KTAU302", 29)]

    def test_clean_file_exits_zero(self, capsys):
        code = lint_main([str(FIXTURES / "good_balance.py")])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_warning_only_run_exits_three(self, capsys):
        # KTAU303 (unwired point) is the only WARNING-severity finding
        # in the registry fixture; selecting it alone exercises the
        # warnings-but-no-errors exit code.
        code = lint_main([str(FIXTURES / "bad_registry.py"),
                          "--select=KTAU303"])
        out = capsys.readouterr().out
        assert code == 3
        assert "1 finding(s)" in out

    def test_sarif_format(self, capsys):
        code = lint_main([str(FIXTURES / "bad_determinism.py"),
                          "--format=sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        results = run["results"]
        locs = [(r["ruleId"],
                 r["locations"][0]["physicalLocation"]["region"]["startLine"])
                for r in results]
        assert locs == [("KTAU201", 12), ("KTAU202", 16),
                        ("KTAU203", 20), ("KTAU204", 25)]
        assert all(r["level"] == "error" for r in results)
        # Every emitted rule ID has a driver descriptor.
        described = {d["id"] for d in run["tool"]["driver"]["rules"]}
        assert {"KTAU201", "KTAU601", "KTAU602", "KTAU701",
                "KTAU000"} <= described

    def test_graph_out_writes_dot(self, tmp_path, capsys):
        kdir = tmp_path / "repro" / "kernel"
        sdir = tmp_path / "repro" / "sim"
        kdir.mkdir(parents=True)
        sdir.mkdir(parents=True)
        (kdir / "a.py").write_text("import repro.sim.b\n")
        (sdir / "b.py").write_text("")
        out = tmp_path / "imports.dot"
        code = lint_main([str(tmp_path), "--graph-out", str(out)])
        capsys.readouterr()
        assert code == 0
        dot = out.read_text()
        assert dot.startswith("digraph")
        assert '"repro.kernel.a" -> "repro.sim.b";' in dot

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("KTAU101", "KTAU201", "KTAU301", "KTAU401"):
            assert rule_id in out

    def test_repro_cli_subcommand(self, capsys):
        from repro.cli import main as repro_main
        code = repro_main(["lint", str(FIXTURES / "good_balance.py")])
        assert code == 0


class TestSelfCheck:
    """The pytest-collected gate: the repository must lint clean."""

    def test_src_repro_lints_clean(self):
        findings = LintEngine().run([SRC_REPRO])
        assert findings == [], "\n" + "\n".join(f.format() for f in findings)

    def test_known_suppressions_are_intentional(self):
        # The split-phase scheduling spans, the paper-fidelity point
        # declarations, and the observability layer's two sanctioned
        # wall-clock reads are the only suppressed sites; fail if
        # someone sprinkles new suppressions without updating this
        # inventory.
        suppressed = []
        for path in sorted(SRC_REPRO.rglob("*.py")):
            if "lint" in path.parts:
                continue  # the linter documents its own syntax
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if "# ktaulint: disable" in line:
                    suppressed.append((path.relative_to(SRC_REPRO).as_posix(),
                                       lineno))
        files = {p for p, _ in suppressed}
        assert files == {"core/points.py", "kernel/sched.py",
                         "obs/runtime.py"}, suppressed
        # 7 fidelity points + 2 split-phase + 2 obs wall-clock reads
        assert len(suppressed) == 11

    def test_all_rule_families_registered(self):
        from repro.lint.engine import known_rule_ids
        ids = known_rule_ids()
        assert {"KTAU101", "KTAU102", "KTAU103",
                "KTAU201", "KTAU202", "KTAU203", "KTAU204",
                "KTAU301", "KTAU302", "KTAU303", "KTAU304",
                "KTAU401", "KTAU402",
                "KTAU601", "KTAU602",
                "KTAU701", "KTAU702", "KTAU703"} <= ids
        assert not any(i.startswith("KTAU5") for i in ids)
        assert "KTAU603" not in ids
