#!/usr/bin/env python3
"""mrca_lint — project-invariant linter for the mrca tree.

Every scale claim this repo makes (bit-identical sweeps at any thread
count, shard merges byte-identical to the single-process run) rests on
invariants no off-the-shelf tool checks. This linter enforces them on
every commit:

  R1 banned-entropy     std::random_device, rand(), srand(), time(),
                        clock(), and hardware_concurrency() are ambient
                        entropy / scheduling probes. They are allowed ONLY
                        in common/rng (the one sanctioned entropy seam) and
                        engine/thread_pool (worker-count resolution, which
                        by contract never influences results).
  R2 unordered-iter     Range-for over a std::unordered_map/unordered_set
                        iterates in hash order, which varies across
                        standard libraries and (with pointer keys) across
                        runs. Any file that can write output (traces,
                        records, aggregates) must not iterate one. The
                        rule pairs each header with its .cpp so a member
                        declared in medium.h and iterated in medium.cpp is
                        caught.
  R3 seed-provenance    Every Rng constructed outside common/rng must be
                        seeded from a derive_*_seed() value (directly, or
                        via a variable/field whose name says "seed") so
                        every stream stays a pure function of the task
                        coordinates. Literal or computed seeds are how
                        replicate correlation sneaks in.
  R4 include-hygiene    src/engine is the layer every scale PR builds on:
                        each .cpp includes its own header first (so
                        headers stay self-contained), engine headers pull
                        stream types only via <iosfwd>, and no include
                        path escapes src/ via "..".
  R5 header-consumer    Every src/ header is reached by the quoted-include
                        closure of tools/, examples/ or perfbench/ (a
                        reached header's own .cpp is followed too, since
                        it links in). Reaching the mrca.h umbrella counts
                        for the umbrella alone, so a header only the
                        umbrella and tests include is dead weight in src/.
  R6 thread-local       No thread_local anywhere under src/. Per-run scratch
                        is passed explicitly (as the dynamics driver's
                        ScanScratch is): hidden per-thread state outlives
                        the pool tasks that fill it, and no determinism
                        rule above can see what it carries between tasks.
  R7 hot-loop-scratch   No call to the stateless is_single_move_stable()
                        under src/core/dynamics/ or src/core/alloc/. It
                        rescans every user from user 0 with fresh scratch;
                        an engine owns one StabilityCheck per run, which
                        resumes at the last witness and reuses its buffers.
  R8 one-tokenizer      No std::from_chars, std::sto* or std::getline under
                        src/ outside common/format.cpp (split_fields,
                        parse_finite, parse_unsigned) and common/json.cpp
                        (JSON has its own grammar). Hand-rolled readers
                        disagree on empty and trailing fields.
  R9 one-ledger         No DynamicsResult built by brace-initialization
                        under src/ outside core/dynamics/run_ledger.h. An
                        engine builds one RunLedger, which owns the result,
                        its trace, budget and counters; a result built
                        beside it is bookkeeping that drifts per engine.

Exit status: 0 clean, 1 findings, 2 usage/config error.
Run as:  python3 tools/mrca_lint/mrca_lint.py --root .
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Finding


class Finding:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _strip_comments(text: str) -> str:
    """Blank out // and /* */ comments and string literals, preserving
    line numbers so findings still point at the right line."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def _lines_of(offset: int, text: str) -> int:
    return text.count("\n", 0, offset) + 1


# --------------------------------------------------------------------------
# R1: banned entropy / scheduling sources

BANNED = [
    (re.compile(r"std\s*::\s*random_device|\brandom_device\s*\{"),
     "std::random_device"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:.>])time\s*\("), "time()"),
    (re.compile(r"(?<![\w:.>])clock\s*\("), "clock()"),
    (re.compile(r"hardware_concurrency\s*\("), "hardware_concurrency()"),
]

R1_ALLOWED = ("common/rng", "engine/thread_pool")


def check_banned_entropy(path: Path, rel: str, text: str) -> list[Finding]:
    if any(rel == f"src/{stem}{ext}" for stem in R1_ALLOWED
           for ext in (".h", ".cpp")):
        return []
    findings = []
    for pattern, name in BANNED:
        for match in pattern.finditer(text):
            findings.append(Finding(
                "banned-entropy", path, _lines_of(match.start(), text),
                f"{name} is ambient entropy/scheduling state; results must "
                f"be pure functions of (base_seed, cell, replicate). Route "
                f"randomness through common/rng derive_*_seed streams "
                f"(worker counts: engine/thread_pool)."))
    return findings


# --------------------------------------------------------------------------
# R2: iteration over unordered containers in output-writing code

UNORDERED_DECL = re.compile(
    r"(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s+"
    r"(\w+)\s*[;{=(]")
RANGE_FOR = re.compile(r"for\s*\([^;)]*?:\s*(?:\w+(?:\.|->))?(\w+)\s*\)")


def check_unordered_iteration(pair_name: str, files: list[tuple[Path, str]],
                              ) -> list[Finding]:
    """`files` is the header/.cpp pair of one translation unit."""
    del pair_name
    declared: set[str] = set()
    for _, text in files:
        for match in UNORDERED_DECL.finditer(text):
            declared.add(match.group(1))
    if not declared:
        return []
    findings = []
    for path, text in files:
        for match in RANGE_FOR.finditer(text):
            name = match.group(1)
            if name in declared:
                findings.append(Finding(
                    "unordered-iter", path, _lines_of(match.start(), text),
                    f"range-for over unordered container '{name}': hash "
                    f"order is not deterministic across libraries/runs and "
                    f"must never reach traces or results. Use an ordered "
                    f"container or iterate a sorted key view."))
    return findings


# --------------------------------------------------------------------------
# R3: Rng seed provenance

RNG_CTOR = re.compile(r"\bRng\s+\w+\s*[({]([^;]*?)[)}]\s*;|\bRng\s*[({]([^;()]*?)[)}]")
SEED_OK = re.compile(r"derive_\w*seed|seed|split\s*\(")


def check_seed_provenance(path: Path, rel: str, text: str) -> list[Finding]:
    if rel.startswith("src/common/rng"):
        return []
    findings = []
    for match in RNG_CTOR.finditer(text):
        arg = next((g for g in match.groups() if g is not None), "").strip()
        if arg == "":  # default-constructed Rng: fixed default seed
            ok = False
        else:
            ok = bool(SEED_OK.search(arg))
        if not ok:
            findings.append(Finding(
                "seed-provenance", path, _lines_of(match.start(), text),
                f"Rng constructed from '{arg or '<default>'}' — every Rng "
                f"outside common/rng must trace to a derive_*_seed() value "
                f"so streams stay pure in the task coordinates."))
    return findings


# --------------------------------------------------------------------------
# R4: include hygiene in src/engine (+ self-header-first across src/)

INCLUDE = re.compile(r'^\s*#\s*include\s+([<"][^">]+[">])', re.MULTILINE)
ENGINE_STREAM_HEADERS = {"<iostream>", "<ostream>", "<istream>",
                         "<sstream>", "<fstream>"}


def check_include_hygiene(path: Path, rel: str, text: str) -> list[Finding]:
    # NB: callers pass RAW text here — the comment/string stripper blanks
    # quoted include paths, which are exactly what this rule inspects.
    findings = []
    includes = [(m.group(1), _lines_of(m.start(), text))
                for m in INCLUDE.finditer(text)]
    for inc, line in includes:
        if ".." in inc:
            findings.append(Finding(
                "include-hygiene", path, line,
                f"relative include {inc}: all project includes are rooted "
                f"at src/."))
    if rel.endswith(".cpp") and rel.startswith("src/"):
        own = '"' + rel[len("src/"):-len(".cpp")] + '.h"'
        if includes and includes[0][0] != own:
            # Only demand self-header-first when the header exists.
            if (path.parent / (path.stem + ".h")).exists():
                findings.append(Finding(
                    "include-hygiene", path, includes[0][1],
                    f"first include is {includes[0][0]}, expected the "
                    f"file's own header {own} (keeps headers "
                    f"self-contained)."))
    if rel.startswith("src/engine/") and rel.endswith(".h"):
        for inc, line in includes:
            if inc in ENGINE_STREAM_HEADERS:
                findings.append(Finding(
                    "include-hygiene", path, line,
                    f"engine header includes {inc}; engine headers take "
                    f"stream types via <iosfwd> only (keeps the hot-path "
                    f"rebuild surface small)."))
    if rel.startswith(("src/core/", "src/common/")):
        # Layering: core (the game/topology kernel) and common must never
        # reach up into the engine — engine depends on core, not the other
        # way around (core/topology.h is engine-visible precisely because
        # it lives below the engine layer).
        for inc, line in includes:
            if inc.startswith('"engine/'):
                findings.append(Finding(
                    "include-hygiene", path, line,
                    f"core-layer file includes {inc}; src/core and "
                    f"src/common sit below the engine and must not depend "
                    f"on it."))
    return findings


# --------------------------------------------------------------------------
# R5: every src/ header has a non-test consumer

CONSUMER_DIRS = ("tools", "examples", "perfbench")
# The linter's own C++ fixtures live under tools/ but are nobody's consumer.
LINT_FIXTURES = Path("tools/mrca_lint/fixtures")
UMBRELLA = "mrca.h"
QUOTED_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def check_header_consumers(root: Path, subdir: str) -> list[Finding]:
    """Walks the quoted-include closure from every file under the consumer
    directories. An include resolves next to the including file first,
    then under src/. The umbrella header re-exports everything, so reaching
    it marks only the umbrella itself; its includes are not followed."""
    base = (root / subdir).resolve()
    umbrella = base / UMBRELLA
    pending = sorted(
        p.resolve() for d in CONSUMER_DIRS if (root / d).is_dir()
        for p in (root / d).rglob("*")
        if p.suffix in (".h", ".cpp")
        and not p.relative_to(root).is_relative_to(LINT_FIXTURES))
    seen = set(pending)
    reached: set[Path] = set()
    while pending:
        path = pending.pop()
        for name in QUOTED_INCLUDE.findall(path.read_text(encoding="utf-8")):
            target = next((c for c in (path.parent / name, base / name)
                           if c.is_file()), None)
            if target is None:
                continue
            target = target.resolve()
            if target.is_relative_to(base):
                reached.add(target)
            if target == umbrella:
                continue
            # A reached header links its implementation in, and with it
            # everything that implementation includes.
            for follow in (target, target.with_suffix(".cpp")):
                if follow not in seen and follow.is_file():
                    seen.add(follow)
                    pending.append(follow)
    findings = []
    for header in sorted(base.rglob("*.h")):
        if header.resolve() not in reached:
            findings.append(Finding(
                "header-consumer", header, 1,
                f"no file under {'/, '.join(CONSUMER_DIRS)}/ reaches this "
                f"header through includes (the {UMBRELLA} umbrella does not "
                f"count). Include it where it is used, or move it out of "
                f"{subdir}/ if only tests need it."))
    return findings


# --------------------------------------------------------------------------
# R6: no thread_local state

THREAD_LOCAL = re.compile(r"\bthread_local\b")


def check_thread_local(path: Path, text: str) -> list[Finding]:
    return [Finding(
        "thread-local", path, _lines_of(match.start(), text),
        "thread_local state outlives the pool task that fills it and "
        "escapes the determinism rules. Pass per-run scratch explicitly "
        "(as the dynamics driver's ScanScratch is).")
        for match in THREAD_LOCAL.finditer(text)]


# --------------------------------------------------------------------------
# R7: engines check stability through scratch the run owns

STATELESS_CHECK = re.compile(r"\bis_single_move_stable\s*\(")
R7_DIRS = ("src/core/dynamics/", "src/core/alloc/")


def check_hot_loop_scratch(path: Path, rel: str, text: str) -> list[Finding]:
    if not rel.startswith(R7_DIRS):
        return []
    return [Finding(
        "hot-loop-scratch", path, _lines_of(match.start(), text),
        "is_single_move_stable() rescans every user with fresh scratch on "
        "each call. An engine owns one StabilityCheck per run and calls "
        "its holds(), which resumes at the last witness.")
        for match in STATELESS_CHECK.finditer(text)]


# --------------------------------------------------------------------------
# R8: every spec, list and matrix reader shares one tokenizer

TOKENIZER_CALL = re.compile(r"\bstd::(from_chars|sto[a-z]+|getline)\b")
R8_ALLOWED = ("src/common/format.cpp", "src/common/json.cpp")


def check_one_tokenizer(path: Path, rel: str, text: str) -> list[Finding]:
    if rel in R8_ALLOWED:
        return []
    return [Finding(
        "one-tokenizer", path, _lines_of(match.start(), text),
        f"std::{match.group(1)} is a hand-rolled reader. Use common/format.h "
        "(split_fields, parse_finite, parse_unsigned), so every reader "
        "rejects empty and trailing fields the same way.")
        for match in TOKENIZER_CALL.finditer(text)]


# --------------------------------------------------------------------------
# R9: one run ledger builds every dynamics result

RESULT_BRACE_INIT = re.compile(r"\b(struct\s+)?DynamicsResult\s*(?:\w+\s*)?\{")
R9_ALLOWED = "src/core/dynamics/run_ledger.h"


def check_one_ledger(path: Path, rel: str, text: str) -> list[Finding]:
    if rel == R9_ALLOWED:
        return []
    return [Finding(
        "one-ledger", path, _lines_of(match.start(), text),
        "DynamicsResult built by brace-initialization outside "
        "core/dynamics/run_ledger.h. Build one RunLedger and return its "
        "finish(): the ledger owns the result, trace, budget and counters.")
        for match in RESULT_BRACE_INIT.finditer(text)
        if match.group(1) is None]


# --------------------------------------------------------------------------
# Driver

RULES_HELP = ("banned-entropy", "unordered-iter", "seed-provenance",
              "include-hygiene", "header-consumer", "thread-local",
              "hot-loop-scratch", "one-tokenizer", "one-ledger")


def lint_tree(root: Path, subdir: str = "src") -> list[Finding]:
    base = root / subdir
    if not base.is_dir():
        raise SystemExit(f"mrca_lint: no such directory: {base}")
    sources = sorted(p for p in base.rglob("*") if p.suffix in (".h", ".cpp"))
    findings: list[Finding] = []
    stripped: dict[Path, str] = {}
    for path in sources:
        stripped[path] = _strip_comments(path.read_text(encoding="utf-8"))

    # Pair each .h with its .cpp (same stem, same directory) so R2 sees the
    # whole translation unit at once.
    pairs: dict[str, list[tuple[Path, str]]] = {}
    for path in sources:
        pairs.setdefault(str(path.with_suffix("")), []).append(
            (path, stripped[path]))

    for path in sources:
        rel = path.relative_to(root / subdir).as_posix()
        rel = f"src/{rel}"
        text = stripped[path]
        findings += check_banned_entropy(path, rel, text)
        findings += check_seed_provenance(path, rel, text)
        findings += check_thread_local(path, text)
        findings += check_hot_loop_scratch(path, rel, text)
        findings += check_one_tokenizer(path, rel, text)
        findings += check_one_ledger(path, rel, text)
        findings += check_include_hygiene(
            path, rel, path.read_text(encoding="utf-8"))
    for pair_name, files in sorted(pairs.items()):
        findings += check_unordered_iteration(pair_name, files)
    findings += check_header_consumers(root, subdir)
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mrca_lint",
        description="Determinism-invariant linter for the mrca tree "
                    f"(rules: {', '.join(RULES_HELP)}).")
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="repository root (contains src/)")
    parser.add_argument("--subdir", default="src",
                        help="tree to lint, relative to --root")
    args = parser.parse_args(argv)

    findings = lint_tree(args.root.resolve(), args.subdir)
    for finding in findings:
        print(finding)
    if findings:
        print(f"mrca_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("mrca_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
