#!/usr/bin/env python3
"""swc_lint: concurrency-invariant lints the compiler cannot express.

Three rules over src/ (see DESIGN.md "Concurrency contracts"):

  no-raw-mutex        std::mutex / std::condition_variable / std::lock_guard /
                      std::unique_lock / std::scoped_lock may appear only in
                      core/sync.hpp. Everything else goes through the
                      capability-annotated swc::Mutex wrappers, or clang's
                      thread-safety analysis has blind spots.

  metric-interning    telemetry::Registry::metric() interns a name under the
                      global name-table mutex. Call sites are restricted to
                      the idempotent memoized helpers (`*Ids::get()` with a
                      function-local static, or a registry-memoized backend
                      constructor) so interning never lands on a hot path and
                      ids stay process-stable.

  no-blocking-on-loop No function reachable from an SWC_REQUIRES(loop_role)
                      function in src/serve may block: wait_idle(), .join(),
                      or an engine submit with SubmitPolicy::Block would stall
                      the reactor that is supposed to be draining completions.

The default engine is textual (comment-stripped regex + a conservative
call-graph walk) so the lint runs anywhere python3 does. When clang-query is
installed, `--engine=clang-query` cross-checks the no-raw-mutex rule against
the AST via the exported compile database; it is a best-effort supplement,
never a requirement (the container toolchain has no clang frontend).

Exit status: 0 clean, 1 violations, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src"

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|condition_variable|lock_guard|unique_lock|scoped_lock)\b"
)
# The one file allowed to spell std::mutex: the capability wrapper itself.
RAW_SYNC_ALLOWED = {SRC / "core" / "sync.hpp"}

METRIC_CALL_RE = re.compile(r"\bRegistry::metric\s*\(")
# Context anchors, searched backwards from a Registry::metric( hit. The first
# anchor found decides: an allowed interning helper, or some other function.
ALLOWED_CONTEXT_RE = re.compile(
    r"\bget\(\)\s*(\{|const)?\s*$"  # `... const XIds& get() {` / `::get() {`
    r"|\b(\w+Backend)\s*\(\)"  # memoized backend constructor
    r"|MetricId\s+Registry::metric\s*\("  # the definition itself
)
FUNC_DEF_RE = re.compile(
    r"^[\w:\[\]<>&*~,\s]*\b[\w~]+(::[\w~]+)?\s*\([^;]*$"  # def header, no ';'
    r"|^[\w:\[\]<>&*~,\s]*\b[\w~]+(::[\w~]+)?\s*\([^;{}]*\)[^;]*\{"
)

LOOP_REQUIRES_RE = re.compile(r"SWC_REQUIRES\(\s*loop_role\s*\)")
BLOCKING_RES = [
    (re.compile(r"\bwait_idle\s*\("), "wait_idle() blocks on the engine barrier"),
    (re.compile(r"\.\s*join\s*\("), ".join() blocks on thread exit"),
    (re.compile(r"\bSubmitPolicy::Block\b"), "SubmitPolicy::Block blocks on the run queue"),
]
CALLEE_RE = re.compile(r"\b([a-z_]\w*)\s*\(")
CPP_KEYWORDS = frozenset(
    "if while for switch return sizeof alignof catch do else new delete throw "
    "case default static_assert static_cast const_cast reinterpret_cast "
    "dynamic_cast decltype noexcept assert".split()
)
MAX_CALL_DEPTH = 6


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments and string literals, preserving line
    structure so reported line numbers stay true to the file."""
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
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(out)


def source_files() -> list[pathlib.Path]:
    return sorted(
        p for p in SRC.rglob("*") if p.suffix in (".hpp", ".cpp") and p.is_file()
    )


def lint_no_raw_mutex(violations: list[str]) -> None:
    for path in source_files():
        if path in RAW_SYNC_ALLOWED:
            continue
        code = strip_comments(path.read_text())
        for lineno, line in enumerate(code.splitlines(), 1):
            m = RAW_SYNC_RE.search(line)
            if m:
                violations.append(
                    f"{path.relative_to(REPO)}:{lineno}: [no-raw-mutex] "
                    f"std::{m.group(1)} outside core/sync.hpp — use the "
                    f"swc::Mutex/swc::CondVar capability wrappers"
                )


def lint_metric_interning(violations: list[str]) -> None:
    for path in source_files():
        code = strip_comments(path.read_text())
        lines = code.splitlines()
        for lineno, line in enumerate(lines, 1):
            if not METRIC_CALL_RE.search(line):
                continue
            if ALLOWED_CONTEXT_RE.search(line):
                continue  # the definition, or a one-line allowed context
            allowed = False
            anchored = False
            for back in range(lineno - 2, max(-1, lineno - 60), -1):
                prev = lines[back]
                if METRIC_CALL_RE.search(prev):
                    continue  # sibling entry of the same braced init list
                if ALLOWED_CONTEXT_RE.search(prev):
                    allowed = True
                    anchored = True
                    break
                if FUNC_DEF_RE.match(prev) and prev.strip():
                    anchored = True
                    break
            if not (anchored and allowed):
                violations.append(
                    f"{path.relative_to(REPO)}:{lineno}: [metric-interning] "
                    f"Registry::metric() outside an idempotent helper "
                    f"(*Ids::get() static or a memoized backend constructor)"
                )


def find_bodies(text: str, name: str) -> list[str]:
    """Best-effort bodies of every definition of `name` in comment-stripped
    source: a header mentioning `name(` with no ';' before the opening '{'."""
    bodies = []
    for m in re.finditer(rf"\b(?:\w+::)?{re.escape(name)}\s*\(", text):
        i = m.end() - 1
        depth = 0
        # Walk past the parameter list.
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        # Between ')' and '{' only specifiers/init-lists are legal for a
        # definition; a ';' first means declaration or plain call.
        j = i + 1
        while j < len(text) and text[j] not in ";{":
            j += 1
        if j >= len(text) or text[j] == ";":
            continue
        # Capture the brace-balanced body.
        k, depth = j, 0
        while k < len(text):
            if text[k] == "{":
                depth += 1
            elif text[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        bodies.append(text[j : k + 1])
    return bodies


def lint_no_blocking_on_loop(violations: list[str]) -> None:
    serve_files = [p for p in source_files() if (SRC / "serve") in p.parents]
    texts = {p: strip_comments(p.read_text()) for p in serve_files}
    corpus = "\n".join(texts.values())

    # Seed set: every function whose declaration carries REQUIRES(loop_role).
    loop_fns: set[str] = set()
    for text in texts.values():
        for m in LOOP_REQUIRES_RE.finditer(text):
            window = text[max(0, m.start() - 300) : m.start()]
            names = re.findall(r"\b([A-Za-z_]\w*)\s*\(", window)
            names = [n for n in names if n not in ("SWC_REQUIRES", "SWC_EXCLUDES")]
            if names:
                loop_fns.add(names[-1])

    if not loop_fns:
        return  # annotations stripped? nothing to check rather than a false fail

    # BFS over a textual call graph, bounded to functions defined in serve/.
    seen: set[str] = set()
    frontier = [(fn, fn, 0) for fn in sorted(loop_fns)]
    while frontier:
        fn, origin, depth = frontier.pop()
        if fn in seen or depth > MAX_CALL_DEPTH:
            continue
        seen.add(fn)
        for body in find_bodies(corpus, fn):
            for pattern, why in BLOCKING_RES:
                if pattern.search(body):
                    violations.append(
                        f"src/serve: [no-blocking-on-loop] {origin}() reaches "
                        f"{fn}() which blocks: {why}"
                    )
            for callee in set(CALLEE_RE.findall(body)) - CPP_KEYWORDS:
                if callee != fn:
                    frontier.append((callee, origin, depth + 1))


def run_clang_query(build_dir: pathlib.Path) -> int:
    """AST cross-check of no-raw-mutex (supplemental; requires clang-query)."""
    clang_query = shutil.which("clang-query")
    if clang_query is None:
        print("swc_lint: clang-query not found; textual engine already ran", file=sys.stderr)
        return 0
    matcher = (
        'match varDecl(hasType(cxxRecordDecl(hasName("::std::mutex"))),'
        "isExpansionInMainFile())"
    )
    cpps = [str(p) for p in source_files() if p.suffix == ".cpp"]
    proc = subprocess.run(
        [clang_query, "-p", str(build_dir), "-c", matcher, *cpps],
        capture_output=True,
        text=True,
        check=False,
    )
    hits = [
        line
        for line in proc.stdout.splitlines()
        if line.strip().endswith("matches.") and not line.strip().startswith("0 ")
    ]
    for line in hits:
        print(f"clang-query: {line}", file=sys.stderr)
    return 1 if hits else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--engine",
        choices=("text", "clang-query"),
        default="text",
        help="clang-query adds an AST cross-check when the binary exists",
    )
    parser.add_argument(
        "--build-dir",
        type=pathlib.Path,
        default=REPO / "build",
        help="build tree holding compile_commands.json (clang-query engine)",
    )
    args = parser.parse_args()

    if not SRC.is_dir():
        print(f"swc_lint: no src/ under {REPO}", file=sys.stderr)
        return 2

    violations: list[str] = []
    lint_no_raw_mutex(violations)
    lint_metric_interning(violations)
    lint_no_blocking_on_loop(violations)

    status = 0
    if violations:
        for v in violations:
            print(v)
        print(f"swc_lint: {len(violations)} violation(s)", file=sys.stderr)
        status = 1
    else:
        print("swc_lint: clean (no-raw-mutex, metric-interning, no-blocking-on-loop)")

    if args.engine == "clang-query":
        status = max(status, run_clang_query(args.build_dir))
    return status


if __name__ == "__main__":
    sys.exit(main())
