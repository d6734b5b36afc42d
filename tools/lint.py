#!/usr/bin/env python3
"""agsim project lint gate.

Eight project-specific rules that clang-tidy cannot express:

  naked-double      In public headers of the physics modules (src/pdn,
                    src/power, src/chip, src/clock, src/sensors), a
                    declaration `double name` whose identifier claims a
                    physical unit (powerWatts, droopMv, windowSeconds...)
                    must use the matching Quantity alias from
                    common/units.h instead. Rates and ratios (`...PerSec`,
                    fractions, scales) are exempt: their unit is not the
                    suffix unit.

  config-validate   Every field of a `*_config.h` configuration struct
                    must be mentioned by the struct's validate()
                    implementation, so no tunable can silently escape
                    range checking.

  include-guard     Header guards must spell AGSIM_<DIRS>_<FILE>_H from
                    the header's path (src/ prefix stripped), so guards
                    stay collision-free as files move.

  determinism       Simulation code under src/ must not read entropy or
                    wall-clock: no rand()/srand()/std::random_device, no
                    time()/clock()/gettimeofday(), no chrono ::now().
                    All randomness flows from seeded engines
                    (common/rng.h); all timestamps are simulation time.
                    Wall-clock is legal only in observability
                    instrumentation, which carries an allow comment.

  units-boundary    Raw `double` parameters whose names claim a physical
                    unit must not cross public module boundaries (use
                    the Quantity aliases), and unit-named values must
                    not be passed bare into printf-style varargs (use
                    the to*() presentation helpers).

  obs-cardinality   Metric label values must be compile-time string
                    literals, std::to_string of a bounded index, or a
                    *Name() enum-to-string call — never free-form
                    strings — backstopping the registry's runtime
                    series cap with a static guarantee.

  single-writer     Only the control thread may write a telemetry
                    series: TelemetryHub::record's callers and the
                    hub's one TimeSeriesBuffer write are pinned to the
                    files named in SINGLE_WRITER_RULES, keeping the
                    lock-free rings sound.

  plain-state       The structs of src/chip/chip_state.h, and every
                    component `struct State` in a header it includes,
                    declare no raw-pointer, reference, std::function or
                    smart-pointer member. A checkpoint is a copy of the
                    state restored into another chip; a pointer in it
                    would alias the source chip's objects (Dpll's
                    `const VfCurve *` is why such members stay in the
                    component, beside its State, never inside it).

Suppressions: a finding on line N (or N+1) is waived by a comment
`lint: allow(<rule>): <reason>`; a whole file opts out of one rule with
`lint: allow-file(<rule>): <reason>`. The reason is mandatory prose —
see docs/STATIC_ANALYSIS.md.

Checks run on a comment/string-stripped view of each file, made by a
pure-Python stripper.

Usage: tools/lint.py [--root DIR] [--json FILE] [--checks a,b,...]
                     [--files F...]
Exit status 1 when any finding is reported.
"""

import argparse
import json
import re
import sys
from pathlib import Path

PHYSICS_DIRS = ("src/pdn", "src/power", "src/chip", "src/clock",
                "src/sensors")

# Identifier suffixes that claim a unit. A `double` whose name ends in
# one of these is lying about its type.
UNIT_SUFFIX = re.compile(
    r".*(Volts|Millivolts|Mv|Watts|Joules|Hertz|Ghz|Mhz|Hz|Seconds|"
    r"Celsius|DegC|Ohms|MilliOhms|Amps|Mips)$")
# ...unless the name is a rate/ratio built on the unit (perSecond,
# sensitivityPerVolt): the composite is dimensionally something else.
RATE_NAME = re.compile(r".*[Pp]er[A-Z]\w*$")

DECL = re.compile(r"^\s*(?:const\s+)?double\s+([A-Za-z_]\w*)\s*[;={]")
GUARD = re.compile(r"^#ifndef\s+(\w+)\s*$", re.M)
FIELD = re.compile(
    r"^\s{4}(?:[A-Za-z_][\w:]*(?:<[\w:,\s]+>)?)\s+([a-z]\w*)\s*(?:=[^=]|\{|;)")

ALLOW_LINE = re.compile(r"lint:\s*allow\((?P<rule>[\w-]+)\)")
ALLOW_FILE = re.compile(r"lint:\s*allow-file\((?P<rule>[\w-]+)\)")

# Entropy / wall-clock constructs banned from simulation code. Each
# entry: (regex, what to say). Matching is done on comment- and
# string-stripped text, so prose mentions never trip the rule.
DETERMINISM_BANNED = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom\s*\(\s*\)"), "random()"),
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0|&|\))"), "time()"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\blocaltime\s*\("), "localtime()"),
    (re.compile(r"\bgmtime\s*\("), "gmtime()"),
    (re.compile(r"\bmktime\s*\("), "mktime()"),
    (re.compile(r"system_clock::now"), "system_clock::now()"),
    (re.compile(r"steady_clock::now"), "steady_clock::now()"),
    (re.compile(r"high_resolution_clock::now"),
     "high_resolution_clock::now()"),
]

# printf-style sinks whose varargs erase types (units.h can't help).
PRINTF_CALL = re.compile(r"\b(?:f|s|sn)?printf\s*\(")
# A bare unit-named identifier (not a call, not a member access, not
# already wrapped by a presentation helper) in such a call's arguments.
BARE_UNIT_ARG = re.compile(
    r"(?<![\w.>:(])([a-z]\w*(?:Volts|Millivolts|Watts|Joules|Hertz|"
    r"Seconds|Celsius|Ohms|MilliOhms|Amps|Mips))\b(?!\s*[(.\w])")

# Label-value expressions considered bounded: a string literal, a
# std::to_string of an index, or an enum-to-string helper (the
# traceKindName idiom: a helper whose name ends in Name).
LABEL_PAIR = re.compile(r'\{\s*"[^"]*"\s*,\s*((?:[^{}()]|\([^()]*\))*?)\}')
BOUNDED_LABEL_VALUE = re.compile(
    r'^(?:"[^"]*"'
    r"|std::to_string\s*\(.*\)"
    r"|[A-Za-z_][\w:]*Name\s*\(.*\)"
    r")$")
METRIC_CALL = re.compile(r"\b(?:counter|gauge|histogram|timer)\s*\(")

# single-writer contract table: (regex, allowed repo-relative files,
# human description). Extend when a new single-writer API appears.
SINGLE_WRITER_RULES = [
    (re.compile(r"\bbuffer\s*\.\s*record\s*\("),
     ("src/obs/telemetry/telemetry_hub.h",),
     "TimeSeriesBuffer write (series.buffer.record)"),
    (re.compile(r"\bhub_\s*->\s*record\s*\("),
     ("src/system/fleet_stepper.cc", "src/system/fleet_service.cc",
      "src/recovery/recovery_manager.cc"),
     "TelemetryHub::record (single-writer telemetry series)"),
]

ALL_CHECKS = ("naked-double", "config-validate", "include-guard",
              "determinism", "units-boundary", "obs-cardinality",
              "single-writer", "plain-state")

# plain-state: the chip state header, the struct bodies it must keep
# plain, and what a member declaration must not be.
CHIP_STATE_HEADER = "src/chip/chip_state.h"
STRUCT_BODY = re.compile(
    r"^(?P<indent>[ \t]*)struct\s+(?P<name>\w+)\s*\n(?P=indent)\{\n"
    r"(?P<body>.*?)^(?P=indent)\};", re.M | re.S)
QUOTED_INCLUDE = re.compile(r'^#include\s+"([^"]+)"', re.M)
# `Type *name`, `Type &name`, `const Type *const name = ...`: a
# declarator that starts the line, so function declarations (whose
# parameters follow a parenthesis) never match.
POINTER_MEMBER = re.compile(
    r"^\s*[\w:<>,\s]*?[\w>]\s*[*&]+\s*(?:const\s+)?[A-Za-z_]\w*"
    r"\s*(?:=|\{|;|\[)")
# A pointer or reference as a template argument: std::vector<Foo *>.
TEMPLATE_POINTER = re.compile(r"<[^;()]*[*&][^;()]*>")
INDIRECT_TYPE = re.compile(
    r"\bstd::(?:function|unique_ptr|shared_ptr|weak_ptr)\b")


# --------------------------------------------------------------------
# Source views: stripped text + suppression map.
# --------------------------------------------------------------------

def strip_source_text(text):
    """Blank comments and string/char literals, preserving line layout.

    A small C++ lexer: tracks //, /*...*/, "...", '...', and raw
    strings R"delim(...)delim". Stripped spans become spaces so column
    numbers and line counts survive.
    """
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    raw_end = None
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
            elif c == "R" and nxt == '"' and (
                    not out or not re.match(r"[\w]", out[-1][-1:])):
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
                if m:
                    raw_end = ")" + m.group(1) + '"'
                    mode = "raw_string"
                    out.append(" " * m.end())
                    i += m.end()
                else:
                    out.append(c)
                    i += 1
            elif c == '"':
                mode = "string"
                out.append('"')
                i += 1
            elif c == "'":
                mode = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif mode == "raw_string":
            if text.startswith(raw_end, i):
                mode = "code"
                out.append('"')
                out.append(" " * (len(raw_end) - 1))
                i += len(raw_end)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif mode == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "code"
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif mode == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                mode = "code"
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


class SourceView:
    """One file's original text, stripped text, and suppressions."""

    def __init__(self, root, path):
        self.path = path
        self.rel = str(path.relative_to(root))
        self.text = path.read_text()
        self.stripped = strip_source_text(self.text)
        self.lines = self.stripped.splitlines()
        self.allow = {}       # rule -> set of line numbers covered
        self.allow_file = set()
        for lineno, line in enumerate(self.text.splitlines(), 1):
            m = ALLOW_FILE.search(line)
            if m:
                self.allow_file.add(m.group("rule"))
                continue
            m = ALLOW_LINE.search(line)
            if m:
                # Covers its own line plus the next line holding code,
                # skipping blank and comment-only lines so a multi-line
                # prose comment still reaches its statement.
                covered = {lineno}
                for follow in range(lineno + 1, len(self.lines) + 1):
                    covered.add(follow)
                    if self.lines[follow - 1].strip():
                        break
                self.allow.setdefault(m.group("rule"), set()).update(
                    covered)

    def suppressed(self, rule, lineno):
        if rule in self.allow_file:
            return True
        return lineno in self.allow.get(rule, set())


class Tree:
    """Lazily built SourceViews over one root, shared across checks."""

    def __init__(self, root, files=None):
        self.root = root
        self.only = ({(root / f).resolve() for f in files}
                     if files else None)
        self.views = {}

    def wants(self, path):
        return self.only is None or path.resolve() in self.only

    def view(self, path):
        if path not in self.views:
            self.views[path] = SourceView(self.root, path)
        return self.views[path]

    def glob(self, patterns):
        seen = []
        for pattern in patterns:
            for path in sorted(self.root.glob(pattern)):
                if path.is_file() and self.wants(path):
                    seen.append(path)
        return seen


def report(tree, findings, rule, path, lineno, message):
    view = tree.view(path)
    if view.suppressed(rule, lineno):
        return
    findings.append({
        "rule": rule,
        "file": view.rel,
        "line": lineno,
        "message": message,
    })


# --------------------------------------------------------------------
# Original three checks (PR 4), now suppression- and --files-aware.
# --------------------------------------------------------------------

def find_headers(root):
    for base in ("src", "tests", "bench", "examples"):
        yield from sorted((root / base).rglob("*.h")) if (
            root / base).is_dir() else ()


def check_naked_double(tree, findings):
    for d in PHYSICS_DIRS:
        for header in tree.glob((d + "/*.h",)):
            view = tree.view(header)
            for lineno, line in enumerate(view.lines, 1):
                m = DECL.match(line)
                if not m:
                    continue
                name = m.group(1)
                if UNIT_SUFFIX.match(name) and not RATE_NAME.match(name):
                    report(tree, findings, "naked-double", header, lineno,
                           f"'double {name}' claims a unit in its name; "
                           "use the Quantity alias from common/units.h")


def struct_fields(text):
    """Field names of every top-level struct body in a header."""
    fields = []
    for body in re.finditer(r"^struct\s+\w+\s*\n\{\n(.*?)^\};", text,
                            re.M | re.S):
        depth = 0
        for line in body.group(1).splitlines():
            if depth == 0:
                m = FIELD.match(line)
                if m and m.group(1) != "return":
                    fields.append(m.group(1))
            depth += line.count("{") - line.count("}")
    return fields


def check_config_validate(tree, findings):
    for header in tree.glob(("src/**/*_config.h",)):
        text = header.read_text()
        impl = text
        sibling = header.with_suffix(".cc")
        if sibling.exists():
            impl += sibling.read_text()
        validate_bodies = "".join(
            m.group(0) for m in re.finditer(
                r"validate\(\)\s*const\s*\n\{.*?^\}", impl, re.M | re.S))
        if not validate_bodies:
            report(tree, findings, "config-validate", header, 1,
                   "config header has no validate() implementation")
            continue
        for field in struct_fields(text):
            if not re.search(r"\b" + re.escape(field) + r"\b",
                             validate_bodies):
                report(tree, findings, "config-validate", header, 1,
                       f"field '{field}' is never mentioned by validate()")


def expected_guard(root, header):
    rel = header.relative_to(root)
    parts = list(rel.parts)
    if parts[0] == "src":
        parts = parts[1:]
    parts[-1] = parts[-1].replace(".h", "")
    return "AGSIM_" + "_".join(p.upper().replace("-", "_")
                               for p in parts) + "_H"


def check_include_guards(tree, findings):
    for header in find_headers(tree.root):
        if not tree.wants(header):
            continue
        text = header.read_text()
        m = GUARD.search(text)
        want = expected_guard(tree.root, header)
        if not m:
            report(tree, findings, "include-guard", header, 1,
                   f"missing include guard (expected {want})")
        elif m.group(1) != want:
            report(tree, findings, "include-guard", header,
                   text[:m.start()].count("\n") + 1,
                   f"guard {m.group(1)} should be {want}")


# --------------------------------------------------------------------
# determinism: no entropy / wall-clock in simulation code.
# --------------------------------------------------------------------

def check_determinism(tree, findings):
    for path in tree.glob(("src/**/*.h", "src/**/*.cc")):
        view = tree.view(path)
        for lineno, line in enumerate(view.lines, 1):
            for banned, label in DETERMINISM_BANNED:
                if banned.search(line):
                    report(tree, findings, "determinism", path, lineno,
                           f"{label} in simulation code; randomness must "
                           "come from seeded engines (common/rng.h) and "
                           "timestamps from simulation time")


# --------------------------------------------------------------------
# units-boundary: no raw-double unit params in public headers, no bare
# unit-named values into printf varargs.
# --------------------------------------------------------------------

PARAM_DECL = re.compile(r"\bdouble\s+([A-Za-z_]\w*)\s*[,)]")


def check_units_boundary(tree, findings):
    for path in tree.glob(("src/**/*.h",)):
        view = tree.view(path)
        for lineno, line in enumerate(view.lines, 1):
            for m in PARAM_DECL.finditer(line):
                name = m.group(1)
                if UNIT_SUFFIX.match(name) and not RATE_NAME.match(name):
                    report(tree, findings, "units-boundary", path, lineno,
                           f"parameter 'double {name}' claims a unit; "
                           "pass the Quantity type across the module "
                           "boundary")
    for path in tree.glob(("src/**/*.h", "src/**/*.cc", "bench/*.h",
                           "bench/*.cc", "examples/*.cpp")):
        view = tree.view(path)
        for lineno, line in enumerate(view.lines, 1):
            if not PRINTF_CALL.search(line):
                continue
            for m in BARE_UNIT_ARG.finditer(line):
                report(tree, findings, "units-boundary", path, lineno,
                       f"'{m.group(1)}' passed bare into printf varargs; "
                       "use a to*() presentation helper (units.h)")


# --------------------------------------------------------------------
# obs-cardinality: metric label values must be bounded expressions.
# --------------------------------------------------------------------

def check_obs_cardinality(tree, findings):
    for path in tree.glob(("src/**/*.h", "src/**/*.cc", "bench/*.h",
                           "bench/*.cc")):
        view = tree.view(path)
        for lineno, line in enumerate(view.lines, 1):
            # The label list may continue the call's line, so accept a
            # metric call on this line or the one before:
            # `counter("n",\n    {{"k", v}})`.
            context = line
            if lineno > 1:
                context = view.lines[lineno - 2] + " " + context
            if not (METRIC_CALL.search(context) or
                    "MetricLabels" in context):
                continue
            for m in LABEL_PAIR.finditer(line):
                value = m.group(1).strip()
                if not value:
                    continue
                if not BOUNDED_LABEL_VALUE.match(value):
                    report(tree, findings, "obs-cardinality", path, lineno,
                           f"metric label value '{value}' is not a string "
                           "literal, std::to_string(index), or *Name() "
                           "helper; unbounded label domains explode "
                           "series cardinality")


# --------------------------------------------------------------------
# single-writer: telemetry series writers are pinned to their owners.
# --------------------------------------------------------------------

def check_single_writer(tree, findings):
    for path in tree.glob(("src/**/*.h", "src/**/*.cc", "bench/*.h",
                           "bench/*.cc", "examples/*.cpp")):
        view = tree.view(path)
        for pattern, owners, what in SINGLE_WRITER_RULES:
            if view.rel in owners:
                continue
            for lineno, line in enumerate(view.lines, 1):
                if pattern.search(line):
                    report(tree, findings, "single-writer", path, lineno,
                           f"{what} outside its owner file(s) "
                           f"{', '.join(owners)}; the series' "
                           "single-writer contract (AG_SINGLE_WRITER) "
                           "forbids new callers")


# --------------------------------------------------------------------
# plain-state: the chip state is values only, so a copy of it is a
# checkpoint that shares nothing with the chip it came from.
# --------------------------------------------------------------------

def plain_state_bodies(tree):
    """(path, struct name, first body line, body lines) to check."""
    header = tree.root / CHIP_STATE_HEADER
    if not header.is_file():
        return
    targets = [(header, None)]
    for include in QUOTED_INCLUDE.findall(header.read_text()):
        path = tree.root / "src" / include
        if path.is_file():
            targets.append((path, "State"))
    for path, only in targets:
        if not tree.wants(path):
            continue
        stripped = tree.view(path).stripped
        for m in STRUCT_BODY.finditer(stripped):
            if only is not None and m.group("name") != only:
                continue
            first = stripped[:m.start("body")].count("\n") + 1
            yield path, m.group("name"), first, \
                m.group("body").splitlines()


def check_plain_state(tree, findings):
    for path, name, first, lines in plain_state_bodies(tree):
        depth = 0
        for offset, line in enumerate(lines):
            if depth == 0 and (POINTER_MEMBER.match(line) or
                               INDIRECT_TYPE.search(line) or
                               ("(" not in line and
                                TEMPLATE_POINTER.search(line))):
                report(tree, findings, "plain-state", path, first + offset,
                       f"'{line.strip()}' in {name}: chip state holds "
                       "values only (no pointer, reference, "
                       "std::function or smart pointer), so a restored "
                       "copy never aliases the source chip's objects")
            depth += line.count("{") - line.count("}")


CHECK_FUNCS = {
    "naked-double": check_naked_double,
    "config-validate": check_config_validate,
    "include-guard": check_include_guards,
    "determinism": check_determinism,
    "units-boundary": check_units_boundary,
    "obs-cardinality": check_obs_cardinality,
    "single-writer": check_single_writer,
    "plain-state": check_plain_state,
}


def run_checks(root, checks=ALL_CHECKS, files=None):
    """Run the named checks over `root`; returns the findings list."""
    tree = Tree(Path(root), files)
    findings = []
    for name in checks:
        CHECK_FUNCS[name](tree, findings)
    findings.sort(key=lambda f: (f["file"], f["line"], f["rule"]))
    return findings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=Path(__file__).parent.parent,
                        type=Path)
    parser.add_argument("--json", type=Path,
                        help="also write findings as JSON")
    parser.add_argument("--checks", default=",".join(ALL_CHECKS),
                        help="comma-separated subset of: "
                             + ", ".join(ALL_CHECKS))
    parser.add_argument("--files", nargs="*",
                        help="restrict to these repo-relative files "
                             "(changed-file CI mode)")
    args = parser.parse_args()
    root = args.root.resolve()

    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in CHECK_FUNCS]
    if unknown:
        parser.error(f"unknown check(s): {', '.join(unknown)}")

    findings = run_checks(root, checks, args.files)

    for f in findings:
        print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}")
    print(f"lint: {len(findings)} finding(s)")
    if args.json:
        args.json.write_text(json.dumps(findings, indent=2) + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
