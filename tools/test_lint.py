#!/usr/bin/env python3
"""Self-tests for tools/lint.py.

Fixture contract: every directory under tools/lint_fixtures/ is named
after one lint rule and contains a miniature source tree for it. Lines
that must produce a finding carry a trailing `// EXPECT: <rule>`
marker; every other line (including the allow-comment suppression
exercises) must stay silent. The test runs exactly that rule over the
fixture root and demands the finding set equal the marker set.

Runs on the stdlib only: python3 tools/test_lint.py
"""

import re
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import lint  # noqa: E402

FIXTURES = Path(__file__).parent / "lint_fixtures"
EXPECT = re.compile(r"//\s*EXPECT:\s*([\w-]+)")


def expected_findings(root):
    marks = set()
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".h", ".cc", ".cpp"):
            continue
        rel = str(path.relative_to(root))
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = EXPECT.search(line)
            if m:
                marks.add((rel, lineno, m.group(1)))
    return marks


class FixtureTest(unittest.TestCase):
    """Each fixture dir must yield exactly its EXPECT-marked findings."""

    def run_fixture(self, rule):
        root = FIXTURES / rule
        self.assertTrue(root.is_dir(), f"missing fixture dir for {rule}")
        want = expected_findings(root)
        self.assertTrue(want, f"fixture for {rule} has no EXPECT markers")
        got = {(f["file"], f["line"], f["rule"])
               for f in lint.run_checks(root, checks=(rule,))}
        self.assertEqual(got, want)

    def test_every_fixture_dir_is_covered(self):
        dirs = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
        tested = {name[len("test_"):].replace("_", "-")
                  for name in dir(self) if name.startswith("test_")}
        self.assertTrue(dirs <= tested,
                        f"fixture dirs without a test: {dirs - tested}")

    def test_determinism(self):
        self.run_fixture("determinism")

    def test_units_boundary(self):
        self.run_fixture("units-boundary")

    def test_obs_cardinality(self):
        self.run_fixture("obs-cardinality")

    def test_single_writer(self):
        self.run_fixture("single-writer")

    def test_plain_state(self):
        self.run_fixture("plain-state")


class StripperTest(unittest.TestCase):
    """The comment/string stripper."""

    def test_line_structure_is_preserved(self):
        text = 'int a; // rand()\n/* time(\nNULL) */ int b;\n'
        stripped = lint.strip_source_text(text)
        self.assertEqual(stripped.count("\n"), text.count("\n"))
        self.assertEqual(len(stripped.splitlines()[0]),
                         len(text.splitlines()[0]))

    def test_comments_are_blanked(self):
        stripped = lint.strip_source_text(
            "x = 1; // rand()\n/* std::random_device */ y = 2;\n")
        self.assertNotIn("rand", stripped)
        self.assertNotIn("random_device", stripped)
        self.assertIn("x = 1;", stripped)
        self.assertIn("y = 2;", stripped)

    def test_string_bodies_are_blanked(self):
        stripped = lint.strip_source_text(
            'const char *s = "calls rand() at time(NULL)";\n')
        self.assertNotIn("rand", stripped)
        # The quotes survive so literal-ness is still visible.
        self.assertIn('"', stripped)

    def test_raw_strings_are_blanked(self):
        stripped = lint.strip_source_text(
            'auto j = R"x({"k": "rand()"})x";\nint alive;\n')
        self.assertNotIn("rand", stripped)
        self.assertIn("int alive;", stripped)

    def test_escaped_quote_does_not_end_string(self):
        stripped = lint.strip_source_text(
            'auto s = "a\\"b rand() c"; int alive;\n')
        self.assertNotIn("rand", stripped)
        self.assertIn("int alive;", stripped)


class SuppressionTest(unittest.TestCase):
    """allow / allow-file comment semantics."""

    def run_on(self, source):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            target = root / "src" / "sim"
            target.mkdir(parents=True)
            (target / "probe.cc").write_text(source)
            return lint.run_checks(root, checks=("determinism",))

    def test_unsuppressed_finding_fires(self):
        self.assertEqual(len(self.run_on("int x = rand();\n")), 1)

    def test_allow_covers_next_code_line(self):
        source = ("// lint: allow(determinism): test harness clock\n"
                  "// (continued prose line)\n"
                  "\n"
                  "int x = rand();\n")
        self.assertEqual(self.run_on(source), [])

    def test_allow_for_another_rule_does_not_cover(self):
        source = ("// lint: allow(units-boundary): wrong rule\n"
                  "int x = rand();\n")
        self.assertEqual(len(self.run_on(source)), 1)

    def test_allow_file_covers_whole_file(self):
        source = ("// lint: allow-file(determinism): harness code\n"
                  "int x = rand();\n"
                  "int y = rand();\n")
        self.assertEqual(self.run_on(source), [])


class CleanTreeTest(unittest.TestCase):
    def test_repo_is_lint_clean(self):
        repo = Path(__file__).parent.parent
        findings = lint.run_checks(repo)
        self.assertEqual(
            findings, [],
            "tree has lint findings:\n" + "\n".join(
                f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}"
                for f in findings))


if __name__ == "__main__":
    unittest.main()
