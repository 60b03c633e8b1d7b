#!/usr/bin/env python3
"""Determinism lint for the modeled-statistics contract.

The repo's serving contract (docs/SERVING.md, ROADMAP.md) is that every
modeled statistic is bit-reproducible: a function of the submitted
(input, arrival, priority) stream and the configuration — never of wall
time, thread timing, worker count, or memory layout. This lint scans the
directories where that contract lives (src/serve, src/core, src/engines,
and the input and layer code they run: src/data, src/nn) for constructs
that historically smuggle nondeterminism in:

  wall-clock      reads of std::chrono::{system,steady,high_resolution}
                  _clock, gettimeofday, clock(), time() — legitimate
                  only in observability seams that never feed a modeled
                  statistic.
  random          std::rand/srand and std::random_device — unseeded
                  randomness. (Deterministically seeded engines such as
                  std::mt19937 with a fixed seed are fine and not
                  flagged.)
  unordered-iter  iteration over a std::unordered_map/unordered_set
                  declared in the same file or its sibling header.
                  Iteration order is libstdc++-load-factor dependent;
                  feeding it into stats, routing, or any ordered output
                  is the classic "works until the hash table grows" bug.
  thread-id       std::this_thread::get_id / std::thread::id — thread
                  identity is scheduling-dependent.
  pointer-key     std::map/std::set ordered on a pointer key, or
                  std::hash over a pointer — ASLR-dependent ordering.
  std-distribution
                  a std::*_distribution (normal, uniform_real, ...). The
                  standard fixes the engines' output but not the
                  distributions' algorithms, so the same seed draws a
                  different sequence under another standard library.
                  A use that goldens pin says which library it assumes.

A finding is suppressed with an inline directive carrying a mandatory
reason, on the offending line or in the contiguous comment block
immediately above it:

    // det-lint: allow(wall-clock): host-side observability seam, never
    // feeds a modeled statistic.

An empty reason is itself an error: the reason is the reviewable
artifact. Exit status: 0 clean, 1 findings or bad suppressions, 2 usage
error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

DEFAULT_DIRS = ("src/serve", "src/core", "src/engines", "src/data", "src/nn")
EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")

RULES = {
    "wall-clock": "wall-clock read outside an allowlisted measurement seam",
    "random": "unseeded randomness",
    "unordered-iter": "iteration over an unordered container",
    "thread-id": "scheduling-dependent thread identity",
    "pointer-key": "pointer-keyed ordering (ASLR-dependent)",
    "std-distribution": "standard-library-specific random sequence",
}

# Simple per-line patterns: (rule, regex, message).
LINE_PATTERNS = [
    ("wall-clock", re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"),
     "std::chrono clock read"),
    ("wall-clock", re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    ("wall-clock", re.compile(r"(?<![\w:])clock\s*\(\s*\)"), "clock()"),
    ("wall-clock", re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time()"),
    ("random", re.compile(r"\bstd\s*::\s*rand\b|(?<![\w:])rand\s*\(\s*\)"),
     "std::rand"),
    ("random", re.compile(r"(?<![\w:])srand\s*\("), "srand()"),
    ("random", re.compile(r"\brandom_device\b"), "std::random_device"),
    ("thread-id", re.compile(r"\bthis_thread\s*::\s*get_id\b"),
     "std::this_thread::get_id()"),
    ("thread-id", re.compile(r"\bstd\s*::\s*thread\s*::\s*id\b"),
     "std::thread::id"),
    ("pointer-key", re.compile(r"\bstd\s*::\s*(?:map|set)\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?(?:\s+const)?\s*\*"),
     "std::map/std::set with a pointer key"),
    ("pointer-key", re.compile(r"\bstd\s*::\s*hash\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?(?:\s+const)?\s*\*\s*>"),
     "std::hash over a pointer"),
    ("std-distribution", re.compile(r"\bstd\s*::\s*\w+_distribution\b"),
     "std distribution (its sequence is the standard library's)"),
]

SUPPRESS_RE = re.compile(r"det-lint:\s*allow\(([a-z-]+)\)\s*:?\s*(.*)")
COMMENT_LINE_RE = re.compile(r"^\s*(?://|/\*|\*)")

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _identifier_after_template(text: str, open_angle: int) -> str | None:
    """Given the index of '<' of a container declaration, balance angle
    brackets and return the declared identifier that follows, if any."""
    depth = 0
    i = open_angle
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                break
        i += 1
    else:
        return None
    rest = text[i + 1:]
    m = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:TS_GUARDED_BY\s*\([^)]*\)\s*)?[;={(\[]",
                 re.sub(r"\s+", " ", rest[:200]))
    if not m:
        return None
    name = m.group(1)
    # `TS_GUARDED_BY` between name and terminator is handled above; a
    # match on a keyword (e.g. `unordered_map<...> const`) is not a name.
    if name in ("const", "final", "override", "TS_GUARDED_BY"):
        return None
    return name


def gather_unordered_names(text: str) -> set[str]:
    """Identifiers declared (member or local) as unordered containers."""
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(text):
        name = _identifier_after_template(text, m.end() - 1)
        if name:
            names.add(name)
    return names


def _unordered_iteration_findings(path: str, lines: list[str],
                                  names: set[str]) -> list[Finding]:
    out: list[Finding] = []
    if not names:
        return out
    alt = "|".join(re.escape(n) for n in sorted(names))
    # Range-for over the container, or an explicit iterator walk.
    range_for = re.compile(r"for\s*\([^;()]*:\s*(?:\w+(?:\.|->))?(" + alt + r")\s*\)")
    begin = re.compile(r"\b(" + alt + r")\s*\.\s*c?begin\s*\(")
    for idx, line in enumerate(lines):
        m = range_for.search(line) or begin.search(line)
        if m:
            out.append(Finding(path, idx + 1, "unordered-iter",
                               f"iteration over unordered container "
                               f"'{m.group(1)}' (order is load-factor "
                               f"dependent)"))
    return out


def _suppression_for(lines: list[str], idx: int, rule: str):
    """Finds a det-lint directive covering line `idx` (0-based) for
    `rule`: on the line itself, or in the contiguous comment block
    immediately above. Returns (found, reason)."""
    m = SUPPRESS_RE.search(lines[idx])
    if m and m.group(1) == rule:
        return True, m.group(2).strip()
    j = idx - 1
    while j >= 0 and COMMENT_LINE_RE.match(lines[j]):
        m = SUPPRESS_RE.search(lines[j])
        if m:
            if m.group(1) == rule:
                return True, m.group(2).strip()
            # A directive for a different rule does not end the block:
            # one line may need two suppressions.
        j -= 1
    return False, ""


def lint_text(path: str, text: str, sibling_text: str = "") -> list[Finding]:
    """Pure lint core (unit-testable): returns unsuppressed findings and
    suppression-without-reason errors for one file's contents.
    `sibling_text` is the paired header/source used only to resolve
    unordered-container member declarations."""
    lines = text.splitlines()
    raw: list[Finding] = []
    for idx, line in enumerate(lines):
        # The directive itself names its rule; don't self-flag comments.
        stripped = line.strip()
        if stripped.startswith("//") or stripped.startswith("*"):
            continue
        code = line.split("//", 1)[0]
        for rule, pattern, message in LINE_PATTERNS:
            if pattern.search(code):
                raw.append(Finding(path, idx + 1, rule, message))
    names = gather_unordered_names(text) | gather_unordered_names(sibling_text)
    raw.extend(_unordered_iteration_findings(path, lines, names))

    out: list[Finding] = []
    for f in raw:
        found, reason = _suppression_for(lines, f.line - 1, f.rule)
        if not found:
            out.append(f)
        elif not reason:
            out.append(Finding(f.path, f.line, f.rule,
                               f"suppressed without a reason — "
                               f"'det-lint: allow({f.rule}): <why>' "
                               f"requires a non-empty explanation"))
    return out


def sibling_of(path: str) -> str:
    root, ext = os.path.splitext(path)
    pair = {".cpp": ".hpp", ".cc": ".h", ".hpp": ".cpp", ".h": ".cc"}
    other = root + pair.get(ext, "")
    if other != path and os.path.isfile(other):
        with open(other, encoding="utf-8") as f:
            return f.read()
    return ""


def lint_file(path: str) -> list[Finding]:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return lint_text(path, text, sibling_of(path))


def collect_files(root: str, dirs) -> list[str]:
    files: list[str] = []
    for d in dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            print(f"check_determinism: no such directory: {base}",
                  file=sys.stderr)
            sys.exit(2)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", default=list(DEFAULT_DIRS),
                        help="directories to scan, relative to --root "
                             f"(default: {' '.join(DEFAULT_DIRS)})")
    parser.add_argument("--root",
                        default=os.path.dirname(os.path.dirname(
                            os.path.abspath(__file__))),
                        help="repository root (default: script's parent)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule set and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:17} {desc}")
        return 0

    findings: list[Finding] = []
    files = collect_files(args.root, args.dirs)
    for path in files:
        findings.extend(lint_file(path))

    for f in findings:
        print(f.render())
    if findings:
        print(f"check_determinism: {len(findings)} finding(s) in "
              f"{len(files)} file(s). Fix, or suppress with "
              f"'// det-lint: allow(<rule>): <why>'.", file=sys.stderr)
        return 1
    print(f"check_determinism: {len(files)} files clean "
          f"({', '.join(args.dirs)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
