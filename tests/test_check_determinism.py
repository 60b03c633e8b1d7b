#!/usr/bin/env python3
"""Unit tests for scripts/check_determinism.py (the determinism lint).

Run directly (`python3 tests/test_check_determinism.py`) or through the
det-lint CI job. Pure stdlib — exercises the lint core on synthetic
snippets plus the CLI entry point on a temp tree, one test per rule
plus the suppression grammar and its reason-required failure mode.
"""

import importlib.util
import os
import sys
import tempfile
import unittest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "check_determinism.py")
_spec = importlib.util.spec_from_file_location("check_determinism", _SCRIPT)
det = importlib.util.module_from_spec(_spec)
sys.modules["check_determinism"] = det
_spec.loader.exec_module(det)


def rules_of(findings):
    return [f.rule for f in findings]


class WallClockRule(unittest.TestCase):
    def test_flags_each_chrono_clock(self):
        for clock in ("steady_clock", "system_clock",
                      "high_resolution_clock"):
            text = f"auto t = std::chrono::{clock}::now();\n"
            self.assertEqual(rules_of(det.lint_text("x.cpp", text)),
                             ["wall-clock"], clock)

    def test_flags_c_clock_reads(self):
        self.assertEqual(rules_of(det.lint_text(
            "x.cpp", "gettimeofday(&tv, nullptr);\n")), ["wall-clock"])
        self.assertEqual(rules_of(det.lint_text(
            "x.cpp", "long t = time(NULL);\n")), ["wall-clock"])
        self.assertEqual(rules_of(det.lint_text(
            "x.cpp", "auto c = clock();\n")), ["wall-clock"])

    def test_clock_type_mention_without_read_is_clean(self):
        # Naming the type (aliases, signatures) is fine; ::now() is not.
        text = "using Clock = std::chrono::steady_clock;\n"
        self.assertEqual(det.lint_text("x.cpp", text), [])

    def test_identifier_containing_time_is_clean(self):
        text = "double s = service_time(3) + total_time();\n"
        self.assertEqual(det.lint_text("x.cpp", text), [])


class RandomRule(unittest.TestCase):
    def test_flags_rand_srand_random_device(self):
        text = ("int a = std::rand();\n"
                "srand(7);\n"
                "std::random_device rd;\n")
        self.assertEqual(rules_of(det.lint_text("x.cpp", text)),
                         ["random", "random", "random"])

    def test_seeded_mt19937_is_clean(self):
        # Deterministically seeded engines are the sanctioned pattern.
        text = "std::mt19937 rng(0x5eed);\n"
        self.assertEqual(det.lint_text("x.cpp", text), [])


class ThreadIdRule(unittest.TestCase):
    def test_flags_thread_identity(self):
        text = ("auto me = std::this_thread::get_id();\n"
                "std::thread::id owner;\n")
        self.assertEqual(rules_of(det.lint_text("x.cpp", text)),
                         ["thread-id", "thread-id"])


class PointerKeyRule(unittest.TestCase):
    def test_flags_pointer_keyed_containers(self):
        text = ("std::map<Node*, int> order;\n"
                "std::set<const Shard*> live;\n"
                "std::hash<Entry*> h;\n")
        self.assertEqual(rules_of(det.lint_text("x.cpp", text)),
                         ["pointer-key", "pointer-key", "pointer-key"])

    def test_value_pointers_are_clean(self):
        # Pointer *values* are fine; only pointer *keys* order output.
        text = "std::map<int, Node*> by_id;\n"
        self.assertEqual(det.lint_text("x.cpp", text), [])


class StdDistributionRule(unittest.TestCase):
    def test_flags_each_distribution_form(self):
        text = ("std::normal_distribution<float> noise(0.0f, 0.1f);\n"
                "std::uniform_real_distribution<> u(0.0, 1.0);\n"
                "std::uniform_int_distribution<int32_t> d(0, 9);\n"
                "std::bernoulli_distribution coin(0.5);\n"
                "std::normal_distribution deduced(0.0, 1.0);\n")
        self.assertEqual(rules_of(det.lint_text("x.cpp", text)),
                         ["std-distribution"] * 5)

    def test_engines_and_own_distributions_are_clean(self):
        # The engines' sequences are fixed by the standard; a project's
        # own sampler is not a standard-library algorithm.
        text = ("std::mt19937_64 rng(7);\n"
                "ts::scan_distribution<float> own(rng);\n"
                "double m = sample_distribution(3);\n")
        self.assertEqual(det.lint_text("x.cpp", text), [])

    def test_repo_uses_carry_reasoned_suppressions(self):
        # Scan synthesis and weight init draw from libstdc++'s sequences,
        # which the goldens pin; each use says so.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for rel in (os.path.join("src", "data", "lidar.cpp"),
                    os.path.join("src", "nn", "layers.cpp")):
            path = os.path.join(root, rel)
            with open(path, encoding="utf-8") as f:
                self.assertIn("_distribution<", f.read(), rel)
            self.assertEqual(det.lint_file(path), [], rel)


class UnorderedIterRule(unittest.TestCase):
    def test_flags_range_for_and_begin(self):
        text = ("std::unordered_map<int, std::vector<int>> owners_;\n"
                "for (const auto& kv : owners_) {}\n"
                "for (auto it = owners_.begin(); it != owners_.end();) {}\n")
        self.assertEqual(rules_of(det.lint_text("x.cpp", text)),
                         ["unordered-iter", "unordered-iter"])

    def test_resolves_declaration_from_sibling_header(self):
        header = ("std::unordered_map<MapCacheKey, Entry, Hash> entries_\n"
                  "    TS_GUARDED_BY(mu_);\n")
        source = "for (auto& kv : entries_) {}\n"
        self.assertEqual(rules_of(det.lint_text("x.cpp", source, header)),
                         ["unordered-iter"])

    def test_point_lookups_are_clean(self):
        # find/erase/count don't observe iteration order.
        text = ("std::unordered_map<int, int> entries_;\n"
                "auto it = entries_.find(3);\n"
                "entries_.erase(it);\n")
        self.assertEqual(det.lint_text("x.cpp", text), [])

    def test_ordered_map_iteration_is_clean(self):
        text = ("std::map<int, int> by_stamp;\n"
                "for (const auto& kv : by_stamp) {}\n")
        self.assertEqual(det.lint_text("x.cpp", text), [])


class SuppressionGrammar(unittest.TestCase):
    FLAGGED = "auto t0 = std::chrono::steady_clock::now();\n"

    def test_same_line_suppression(self):
        text = ("auto t0 = std::chrono::steady_clock::now();  "
                "// det-lint: allow(wall-clock): observability seam.\n")
        self.assertEqual(det.lint_text("x.cpp", text), [])

    def test_line_above_suppression(self):
        text = ("// det-lint: allow(wall-clock): observability seam.\n" +
                self.FLAGGED)
        self.assertEqual(det.lint_text("x.cpp", text), [])

    def test_suppression_through_comment_block(self):
        # The directive may open a multi-line comment block; continuation
        # comment lines between it and the code don't break coverage.
        text = ("// det-lint: allow(wall-clock): host-side measurement\n"
                "// seam, never feeds a modeled statistic.\n" +
                self.FLAGGED)
        self.assertEqual(det.lint_text("x.cpp", text), [])

    def test_empty_reason_is_an_error(self):
        text = "// det-lint: allow(wall-clock):\n" + self.FLAGGED
        findings = det.lint_text("x.cpp", text)
        self.assertEqual(len(findings), 1)
        self.assertIn("without a reason", findings[0].message)

    def test_wrong_rule_does_not_suppress(self):
        text = "// det-lint: allow(random): not the right rule.\n" + \
               self.FLAGGED
        self.assertEqual(rules_of(det.lint_text("x.cpp", text)),
                         ["wall-clock"])

    def test_suppression_does_not_leak_past_code(self):
        # A directive only covers its contiguous comment block; a second
        # flagged line after intervening code needs its own.
        text = ("// det-lint: allow(wall-clock): first read only.\n" +
                self.FLAGGED +
                "int x = 0;\n" +
                self.FLAGGED)
        findings = det.lint_text("x.cpp", text)
        self.assertEqual([(f.line, f.rule) for f in findings],
                         [(4, "wall-clock")])

    def test_two_rules_one_line_need_two_directives(self):
        text = ("// det-lint: allow(wall-clock): seam.\n"
                "// det-lint: allow(random): seeded elsewhere.\n"
                "f(std::chrono::steady_clock::now(), std::rand());\n")
        self.assertEqual(det.lint_text("x.cpp", text), [])


class DefaultScanCoverage(unittest.TestCase):
    def test_traffic_generators_are_scanned_by_default(self):
        # The trace-driven traffic generators feed arrival timestamps
        # straight into modeled stats, so they must sit inside the
        # lint's default scan set — a regression here would let wall
        # clocks or unseeded randomness into the submission schedule.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        rel = {os.path.relpath(p, root)
               for p in det.collect_files(root, det.DEFAULT_DIRS)}
        self.assertIn(os.path.join("src", "serve", "traffic.cpp"), rel)
        self.assertIn(os.path.join("src", "serve", "traffic.hpp"), rel)

    def test_input_and_layer_code_is_scanned_by_default(self):
        # Voxelization builds every request's input and src/nn runs every
        # layer, so both feed modeled stats and sit in the default scan.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        rel = {os.path.relpath(p, root)
               for p in det.collect_files(root, det.DEFAULT_DIRS)}
        self.assertIn(os.path.join("src", "data", "voxelize.cpp"), rel)
        self.assertIn(os.path.join("src", "nn", "layers.cpp"), rel)


class CliEntryPoint(unittest.TestCase):
    def test_scan_reports_and_exits_nonzero(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src"))
            with open(os.path.join(root, "src", "bad.cpp"), "w") as f:
                f.write("auto t = std::chrono::steady_clock::now();\n")
            self.assertEqual(det.main(["--root", root, "src"]), 1)

    def test_clean_tree_exits_zero(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src"))
            with open(os.path.join(root, "src", "ok.cpp"), "w") as f:
                f.write("int main() { return 0; }\n")
            self.assertEqual(det.main(["--root", root, "src"]), 0)

    def test_missing_directory_is_a_usage_error(self):
        with tempfile.TemporaryDirectory() as root:
            with self.assertRaises(SystemExit) as ctx:
                det.main(["--root", root, "no_such_dir"])
            self.assertEqual(ctx.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
