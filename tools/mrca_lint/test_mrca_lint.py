#!/usr/bin/env python3
"""Self-test for mrca_lint: the seeded violation fixtures must ALL be
caught (right rule, right file, right count) and the clean fixtures must
produce zero findings — so a rule regression can never silently pass the
real tree."""

import shutil
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mrca_lint import lint_tree  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def findings_by(findings, rule=None, file_name=None):
    out = []
    for f in findings:
        if rule is not None and f.rule != rule:
            continue
        if file_name is not None and f.path.name != file_name:
            continue
        out.append(f)
    return out


class ViolationFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.findings = lint_tree(FIXTURES / "violations")

    def test_banned_entropy_catches_every_source(self):
        hits = findings_by(self.findings, rule="banned-entropy")
        self.assertEqual(len(hits), 6)
        self.assertTrue(all(f.path.name == "bad_entropy.cpp" for f in hits))
        messages = " ".join(f.message for f in hits)
        for banned in ("random_device", "rand()", "time()", "clock()",
                       "hardware_concurrency()"):
            self.assertIn(banned, messages)

    def test_unordered_iteration_caught_across_header_cpp_pair(self):
        hits = findings_by(self.findings, rule="unordered-iter")
        self.assertEqual(len(hits), 2)
        # Both iterations live in the .cpp while the containers are
        # declared in the header — the pairing is what catches them.
        self.assertTrue(all(f.path.name == "bad_medium.cpp" for f in hits))
        names = {f.message.split("'")[1] for f in hits}
        self.assertEqual(names, {"active_", "watchers_"})

    def test_seed_provenance(self):
        hits = findings_by(self.findings, rule="seed-provenance")
        self.assertEqual(len(hits), 3)
        self.assertTrue(all(f.path.name == "bad_seed.cpp" for f in hits))
        # The two derive_*_seed constructions in good_seeds() are clean.
        args = " ".join(f.message for f in hits)
        self.assertIn("12345", args)
        self.assertIn("<default>", args)

    def test_include_hygiene(self):
        hits = findings_by(self.findings, rule="include-hygiene")
        by_file = Counter(f.path.name for f in hits)
        self.assertEqual(by_file, Counter({"bad_header.h": 2,
                                           "bad_order.cpp": 1,
                                           "bad_layer.h": 1}))
        messages = " ".join(f.message for f in hits)
        self.assertIn("<iostream>", messages)
        self.assertIn("relative include", messages)
        self.assertIn("own header", messages)
        self.assertIn("below the engine", messages)

    def test_header_consumer(self):
        hits = findings_by(self.findings, rule="header-consumer")
        # orphan.h is included only by a test, umbrella_only.h only by the
        # mrca.h umbrella; every other header has a tools/ consumer.
        self.assertEqual(sorted(f.path.name for f in hits),
                         ["orphan.h", "umbrella_only.h"])
        self.assertIn("umbrella does not count", hits[0].message)

    def test_thread_local(self):
        hits = findings_by(self.findings, rule="thread-local")
        # Two declarations; the comment and the string literal never count.
        self.assertEqual([(f.path.name, f.line) for f in hits],
                         [("bad_thread_local.cpp", 9),
                          ("bad_thread_local.cpp", 11)])
        self.assertIn("ScanScratch", hits[0].message)

    def test_hot_loop_scratch(self):
        hits = findings_by(self.findings, rule="hot-loop-scratch")
        # Two stateless calls in the engine; holds(), the comment, the
        # string and the same call in a tools/ file never count.
        self.assertEqual([(f.path.name, f.line) for f in hits],
                         [("bad_stability.cpp", 12),
                          ("bad_stability.cpp", 15)])
        self.assertIn("StabilityCheck", hits[0].message)

    def test_one_tokenizer(self):
        hits = findings_by(self.findings, rule="one-tokenizer")
        # getline, stoi and from_chars; the string, the comment and
        # std::stop_token never count.
        self.assertEqual([(f.path.name, f.line) for f in hits],
                         [("bad_tokenizer.cpp", 17),
                          ("bad_tokenizer.cpp", 18),
                          ("bad_tokenizer.cpp", 21)])
        self.assertIn("split_fields", hits[0].message)

    def test_one_ledger(self):
        hits = findings_by(self.findings, rule="one-ledger")
        # A named and a temporary result; the string, the comment, the
        # function returning one and the copy never count.
        self.assertEqual([(f.path.name, f.line) for f in hits],
                         [("bad_ledger.cpp", 10),
                          ("bad_ledger.cpp", 11)])
        self.assertIn("RunLedger", hits[0].message)

    def test_total_findings_accounted_for(self):
        # No rule may fire where the fixtures did not seed a violation.
        self.assertEqual(len(self.findings),
                         6 + 2 + 3 + 4 + 2 + 2 + 2 + 3 + 2)


class CleanFixtures(unittest.TestCase):
    def test_clean_tree_has_zero_findings(self):
        findings = lint_tree(FIXTURES / "clean")
        self.assertEqual([str(f) for f in findings], [])

    def test_comments_and_strings_never_count(self):
        # good_medium.h mentions rand()/time() in a comment and a string
        # literal; rng.h uses random_device in the one allowed location.
        findings = lint_tree(FIXTURES / "clean")
        self.assertEqual(findings_by(findings, rule="banned-entropy"), [])


    def test_consumers_reach_through_headers_and_implementations(self):
        # tools/demo.cpp includes only core/facade.h; rng.h is reached
        # through that header, and good_medium.h and the ledger's headers
        # through facade.cpp. Without the consumer directory every header
        # is flagged.
        with tempfile.TemporaryDirectory() as scratch:
            tree = Path(scratch) / "clean"
            shutil.copytree(FIXTURES / "clean", tree)
            shutil.rmtree(tree / "tools")
            hits = findings_by(lint_tree(tree), rule="header-consumer")
        self.assertEqual(sorted(f.path.name for f in hits),
                         ["facade.h", "good_medium.h", "result.h", "rng.h",
                          "run_ledger.h"])


class RealTree(unittest.TestCase):
    def test_repo_src_is_clean(self):
        repo_root = Path(__file__).resolve().parents[2]
        if not (repo_root / "src" / "mrca.h").exists():
            self.skipTest("not running inside the mrca repo")
        findings = lint_tree(repo_root)
        self.assertEqual([str(f) for f in findings], [])


if __name__ == "__main__":
    unittest.main()
