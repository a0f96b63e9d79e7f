#!/usr/bin/env python3
"""Unit tests for sinrlint: every rule must fire on its bad fixture and stay
silent on its good fixture, and the allowlist / comment-stripper machinery
must behave. Run directly or via ctest (test name `sinrlint_unit`)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import sinrlint  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


def lint(name, as_path):
    """Lint fixture `name` as if it lived at repo-relative `as_path`."""
    return sinrlint.lint_file(as_path, fixture(name))


def rules_hit(findings):
    return sorted({f.rule for f in findings})


class RuleFixtureTest(unittest.TestCase):
    def test_r1_fires_on_unordered_containers(self):
        findings = [f for f in lint("r1_bad.cpp", "src/core/x.cpp")
                    if f.rule == "R1"]
        self.assertEqual(len(findings), 2)

    def test_r1_silent_on_ordered_containers(self):
        self.assertEqual(lint("r1_good.cpp", "src/core/x.cpp"), [])

    def test_r2_fires_on_direct_state_writes(self):
        findings = [f for f in lint("r2_bad.cpp", "src/core/x.cpp")
                    if f.rule == "R2"]
        self.assertEqual(len(findings), 2)
        self.assertTrue(all("transition_to" in f.message for f in findings))

    def test_r2_sanctions_transition_to_bodies(self):
        self.assertEqual(lint("r2_good.cpp", "src/core/x.cpp"), [])

    def test_r3_fires_on_naked_randomness(self):
        findings = [f for f in lint("r3_bad.cpp", "src/core/x.cpp")
                    if f.rule == "R3"]
        self.assertEqual(len(findings), 4)

    def test_r3_silent_on_project_rng_and_lookalikes(self):
        self.assertEqual(lint("r3_good.cpp", "src/core/x.cpp"), [])

    def test_r3_exempts_rng_home(self):
        self.assertEqual(lint("r3_bad.cpp", "src/common/rng.cpp"), [])

    def test_r4_fires_on_unguarded_entry_points(self):
        findings = [f for f in lint("r4_bad.cpp", "src/core/x.cpp")
                    if f.rule == "R4"]
        self.assertEqual(len(findings), 2)
        self.assertEqual(sorted("on_wake" in f.message or "on_receive" in f.message
                                for f in findings), [True, True])

    def test_r4_silent_on_guarded_entry_points(self):
        self.assertEqual(lint("r4_good.cpp", "src/core/x.cpp"), [])

    def test_r4_scoped_to_src(self):
        self.assertEqual(lint("r4_bad.cpp", "tests/x.cpp"), [])

    def test_r5_fires_on_float_in_sinr_scope(self):
        findings = [f for f in lint("r5_bad.cpp", "src/sinr/x.cpp")
                    if f.rule == "R5"]
        self.assertGreaterEqual(len(findings), 3)
        findings = [f for f in lint("r5_bad.cpp", "src/radio/x.cpp")
                    if f.rule == "R5"]
        self.assertGreaterEqual(len(findings), 3)

    def test_r5_silent_on_double_and_out_of_scope(self):
        self.assertEqual(lint("r5_good.cpp", "src/sinr/x.cpp"), [])
        self.assertEqual([f for f in lint("r5_bad.cpp", "src/graph/x.cpp")
                          if f.rule == "R5"], [])

    def test_r6_fires_on_raw_mutex_and_bare_lock_calls(self):
        findings = [f for f in lint("r6_bad.cpp", "src/core/x.cpp")
                    if f.rule == "R6"]
        # 2 raw std::mutex-family members + 4 bare lock/unlock/try_lock calls
        self.assertEqual(len(findings), 6)
        self.assertEqual(sum("raw std::mutex" in f.message for f in findings), 2)
        self.assertEqual(sum("bare lock/unlock" in f.message for f in findings), 4)

    def test_r6_silent_on_annotated_wrapper_and_guard_relock(self):
        self.assertEqual(lint("r6_good.cpp", "src/core/x.cpp"), [])

    def test_r6_exempts_mutex_home_and_non_src(self):
        self.assertEqual(lint("r6_bad.cpp", "src/common/mutex.h"), [])
        self.assertEqual(lint("r6_bad.cpp", "tools/x.cpp"), [])

    def test_r7_fires_on_wall_clock_reads(self):
        findings = [f for f in lint("r7_bad.cpp", "src/core/x.cpp")
                    if f.rule == "R7"]
        # system_clock, steady_clock, std::time(), std::clock()
        self.assertEqual(len(findings), 4)

    def test_r7_silent_on_slot_logic_and_lookalike_names(self):
        self.assertEqual(lint("r7_good.cpp", "src/core/x.cpp"), [])

    def test_r7_scoped_to_src(self):
        self.assertEqual(lint("r7_bad.cpp", "bench/x.cpp"), [])

    def test_r8_fires_on_mutable_statics(self):
        findings = [f for f in lint("r8_bad.cpp", "src/core/x.cpp")
                    if f.rule == "R8"]
        # two namespace-scope globals + one function-local static
        self.assertEqual(len(findings), 3)

    def test_r8_silent_on_const_thread_local_atomic_and_functions(self):
        self.assertEqual(lint("r8_good.cpp", "src/core/x.cpp"), [])

    def test_r8_scoped_to_src(self):
        self.assertEqual(lint("r8_bad.cpp", "tests/x.cpp"), [])


class StripperTest(unittest.TestCase):
    def test_strips_line_and_block_comments(self):
        text = "int a; // std::unordered_map\n/* rand( */ int b;\n"
        stripped = sinrlint.strip_comments_and_strings(text)
        self.assertNotIn("unordered_map", stripped)
        self.assertNotIn("rand(", stripped)
        self.assertIn("int a;", stripped)
        self.assertIn("int b;", stripped)

    def test_strips_string_literals_preserving_lines(self):
        text = 'const char* s = "std::mt19937\\n rand(";\nint c;\n'
        stripped = sinrlint.strip_comments_and_strings(text)
        self.assertNotIn("mt19937", stripped)
        self.assertEqual(text.count("\n"), stripped.count("\n"))

    def test_line_numbers_survive_stripping(self):
        text = "// comment\n\nstd::unordered_set<int> s;\n"
        findings = sinrlint.lint_file("src/core/x.cpp", text)
        self.assertEqual([f.line for f in findings if f.rule == "R1"], [3])


class AllowlistTest(unittest.TestCase):
    def test_allow_entry_suppresses_matching_rule_and_path(self):
        entries = [sinrlint.AllowEntry("R1", "src/legacy/*", "third-party idiom")]
        finding = sinrlint.Finding("src/legacy/old.cpp", 3, "R1", "m")
        other_rule = sinrlint.Finding("src/legacy/old.cpp", 3, "R2", "m")
        other_path = sinrlint.Finding("src/core/new.cpp", 3, "R1", "m")
        self.assertTrue(sinrlint.allowed(finding, entries))
        self.assertFalse(sinrlint.allowed(other_rule, entries))
        self.assertFalse(sinrlint.allowed(other_path, entries))

    def test_malformed_allowlist_rejected(self):
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
            fh.write("R1 src/foo.cpp\n")  # missing justification
            path = fh.name
        try:
            with self.assertRaises(ValueError):
                sinrlint.parse_allowlist(path)
        finally:
            os.unlink(path)

    def test_repo_allowlist_parses(self):
        repo_allowlist = os.path.join(os.path.dirname(FIXTURES), "allowlist.txt")
        sinrlint.parse_allowlist(repo_allowlist)  # must not raise

    def test_rules_r6_to_r8_accepted_in_allowlist(self):
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
            fh.write("R6 src/foo.cpp legacy-lock\n"
                     "R7 src/bar.h reporting-only\n"
                     "R8 src/baz.cpp annotated-singleton\n"
                     "R9 src/no.cpp no-such-rule\n")
            path = fh.name
        try:
            with self.assertRaises(ValueError):  # R9 is rejected
                sinrlint.parse_allowlist(path)
        finally:
            os.unlink(path)
        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
            fh.write("R6 src/foo.cpp legacy-lock\n"
                     "R7 src/bar.h reporting-only\n"
                     "R8 src/baz.cpp annotated-singleton\n")
            path = fh.name
        try:
            entries = sinrlint.parse_allowlist(path)
        finally:
            os.unlink(path)
        self.assertEqual([e.rule for e in entries], ["R6", "R7", "R8"])

    def test_allowlist_suppresses_r7_finding(self):
        entries = [sinrlint.AllowEntry("R7", "src/common/sweep.h",
                                       "reporting-only")]
        finding = sinrlint.Finding("src/common/sweep.h", 100, "R7", "m")
        elsewhere = sinrlint.Finding("src/core/mw_node.cpp", 4, "R7", "m")
        self.assertTrue(sinrlint.allowed(finding, entries))
        self.assertFalse(sinrlint.allowed(elsewhere, entries))


class PruneCheckTest(unittest.TestCase):
    def test_stale_entries_are_those_suppressing_nothing(self):
        live = sinrlint.AllowEntry("R7", "src/common/sweep.h", "reporting")
        stale = sinrlint.AllowEntry("R1", "src/legacy/*", "gone")
        raw = [sinrlint.Finding("src/common/sweep.h", 100, "R7", "m")]
        self.assertEqual(sinrlint.stale_entries([live, stale], raw), [stale])

    def test_no_entries_means_nothing_stale(self):
        raw = [sinrlint.Finding("src/a.cpp", 1, "R1", "m")]
        self.assertEqual(sinrlint.stale_entries([], raw), [])

    def test_entry_matching_any_raw_finding_is_live_even_if_rule_differs_elsewhere(self):
        entry = sinrlint.AllowEntry("R8", "src/graph/*", "singleton")
        raw = [sinrlint.Finding("src/graph/registry.cpp", 55, "R8", "m"),
               sinrlint.Finding("src/graph/registry.cpp", 55, "R6", "m")]
        self.assertEqual(sinrlint.stale_entries([entry], raw), [])


if __name__ == "__main__":
    unittest.main()
