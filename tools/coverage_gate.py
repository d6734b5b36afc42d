#!/usr/bin/env python3
"""Dead-code gate: fail when a src/ function runs in no test.

Works on a GCC build configured with `--coverage -fprofile-update=atomic`
after `ctest` has run in it. For every `.gcno` under the build tree it
asks `gcov --json-format` for per-function execution counts, keeps the
functions defined under `<root>/src/`, and sums each function's count
over every translation unit that compiled it (an inline function in a
header appears once per including unit), keyed by file and start line.
A function whose total is 0 is code no test executes: delete it, or
give it a test. Functions the compiler never emitted (uninstantiated
templates, unused inline functions) have no record and are not judged.

Usage: tools/coverage_gate.py --build DIR [--root DIR] [--out FILE]
Prints each unexecuted function as `file:line: name`, writes the same
list to --out when given, and exits 1 when the list is not empty.
"""

import argparse
import gzip
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# gcov invocations per batch; keeps each command line short.
BATCH = 64


def gcov_documents(gcno_files, workdir):
    """Yield gcov's JSON document for each .gcno (by its object dir)."""
    for start in range(0, len(gcno_files), BATCH):
        batch = gcno_files[start:start + BATCH]
        for old in workdir.glob("*.gcov.json.gz"):
            old.unlink()
        # --preserve-paths keeps one output per object even when two
        # objects share a base name (src/a/x.cc and src/b/x.cc).
        subprocess.run(["gcov", "--json-format", "--preserve-paths"]
                       + [str(p) for p in batch],
                       cwd=workdir, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for out in sorted(workdir.glob("*.gcov.json.gz")):
            with gzip.open(out, "rt") as f:
                yield json.load(f)


def function_counts(build, src):
    """{(file, start_line): [name, total executions]} for src/ code."""
    gcno_files = sorted(p.resolve() for p in build.rglob("*.gcno"))
    if not gcno_files:
        raise SystemExit(f"coverage_gate: no .gcno files under {build}; "
                         "configure the build with --coverage")
    totals = {}
    with tempfile.TemporaryDirectory() as tmp:
        for doc in gcov_documents(gcno_files, Path(tmp)):
            cwd = Path(doc.get("current_working_directory", "."))
            for entry in doc.get("files", []):
                path = (cwd / entry["file"]).resolve()
                if not path.is_relative_to(src):
                    continue
                rel = str(path.relative_to(src.parent))
                for fn in entry.get("functions", []):
                    key = (rel, fn["start_line"])
                    slot = totals.setdefault(
                        key, [fn.get("demangled_name", fn["name"]), 0])
                    slot[1] += fn["execution_count"]
    return totals


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", type=Path, required=True,
                        help="coverage build tree that ctest ran in")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this checkout)")
    parser.add_argument("--out", type=Path,
                        help="also write the unexecuted list here")
    args = parser.parse_args()

    totals = function_counts(args.build.resolve(),
                             (args.root / "src").resolve())
    dead = sorted((file, line, name)
                  for (file, line), (name, count) in totals.items()
                  if count == 0)
    lines = [f"{file}:{line}: {name}" for file, line, name in dead]
    for line in lines:
        print(line)
    print(f"coverage_gate: {len(totals)} src/ functions, "
          f"{len(dead)} never executed")
    if args.out:
        args.out.write_text("".join(line + "\n" for line in lines))
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
