#!/usr/bin/env python3
"""Static analyzer for the nashlb tree: the repository-specific rules no
generic tool can check, run over a C++ tokenizer with scope tracking.

Registered as the `check_analyzer` ctest and a tools/check_all.sh step.
Nine rules, each protecting a guarantee the reproduction rests on
(docs/STATIC_ANALYSIS.md, "Semantic analysis"):

  hot-path-alloc
      No allocation in the designated hot set: every `*_into` definition
      tree-wide plus the steady-state helpers of core/dynamics.cpp,
      core/load_state.cpp, core/user_classes.cpp and
      distributed/ring_protocol.cpp (HOT_FILE_FUNCS below). Flags
      new-expressions, construction of allocating containers
      (vector/string/function/map/...), push_back/emplace_back on
      un-reserve()d receivers, make_unique/make_shared/to_string, and
      calls to the allocating wrappers (best_reply, waterfill_sqrt,
      waterfill_linear, optimal_fractions), which are also banned
      anywhere in core/dynamics.cpp and distributed/ring_protocol.cpp.
      Allocations on throw paths are exempt: error exits are cold by
      definition. The `_into` layer's whole contract is that a
      steady-state best-reply round performs zero heap allocations, and
      no compiler warning says when a stray copy or wrapper breaks it.

  unordered-float-accum
      No floating-point accumulation into a loop-invariant target inside
      a range-for over std::unordered_map/std::unordered_set. Hash
      iteration order is implementation- and seed-dependent, and float
      addition does not commute in rounding, so such a loop silently
      breaks bitwise run-to-run determinism. Accumulating into a
      per-key slot (target names the loop variable) is allowed.

  nondeterminism-sources
      No std::random_device, rand()/srand(), time()/clock(), or
      std::chrono::*_clock::now() anywhere in src/. All randomness goes
      through the seeded stats:: RNG seams, and the library reads no
      clock: timing belongs in bench/ and nashbench/, which measure the
      library from outside.

  contract-coverage
      Every public function in src/core (declared in a core header)
      that takes a profile/fractions/loads parameter must state a
      NASHLB_EXPECT/ENSURE/INVARIANT itself or transitively call into a
      function that does. Coverage is reported in
      bench_results/analysis_report.json and gated against the
      committed report (`git show HEAD:`): an uncovered function fails
      unless it is waived, and a waived, uncovered function the
      committed report does not list fails too, so a refactor that
      drops a precondition from a core API fails even though every
      test passes. Deleting covered functions is not a regression.

  noexcept-merge
      (a) src/util/parallel.cpp must keep a catch-all handler that
      stores std::current_exception() around the chunk-functor
      invocation, the capture point of the pool's deterministic error
      propagation; (b) every merge() defined in src/obs must contain no
      throw-expression, and the per-instrument merges (non-Registry)
      must be declared noexcept: a throwing merge inside a worker would
      std::terminate instead of surfacing as the lowest-chunk rethrow.

  trace-arity
      In a src/ file that defines a `*_trace_columns()` or
      `*_export_columns()` schema, every
      `record({...})` and `add_row({...})` call must pass exactly as
      many cells as the schema declares columns. The writers check this
      at runtime, but only on instrumented runs.

  journal-arity
      Wherever a src/ file registers a journal event schema
      (`<id> = ...register_event("name", {"f1", ...})`), every
      `emit(<id>, {...})` in the same file must pass exactly as many
      values as the schema declares fields, so a crash dump never
      carries misaligned fields.

  histogram-bounds
      src/obs/histogram.hpp must declare bucket_count(),
      bucket_lower_bound() and bucket_upper_bound(), and no file outside
      src/obs/ may name the layout constants (kMinExponent,
      kMaxExponent, kBucketsPerOctave): a consumer that recomputes
      bucket edges drifts the first time the grid changes.

  raw-concurrency
      No std::thread/std::jthread/std::async or `#pragma omp` in src/
      outside src/util/parallel.{hpp,cpp}: all concurrency goes through
      util::ThreadPool, whose static chunking and ordered reductions
      make results bitwise independent of the thread count. Mutexes,
      condition variables and std::atomic* are additionally banned
      outside parallel.* and src/obs/ (instrument shards may need
      atomics; solver code holding a lock or atomic means shared state
      the pool's chunking was supposed to rule out).

Suppression: `// nashlb-analyzer: allow(<rule>) -- <reason>` on the
offending line or the line above. The reason text is mandatory: a bare
allow() is itself reported (waiver-missing-reason).

Every invocation first runs a built-in selftest: each rule is run on
synthetic snippets that must trigger it and snippets that must not.

Exit: 0 clean, 1 findings or selftest failure.

Usage:
  tools/nashlb_analyzer.py [repo-root]
      full run: selftest, tree scan, contract-coverage gate against the
      committed bench_results/analysis_report.json.
  tools/nashlb_analyzer.py --write-report [repo-root]
      also rewrite bench_results/analysis_report.json from this run.
  tools/nashlb_analyzer.py --check-file REAL.cpp:virtual/path.cpp ...
      fixture mode: analyze the named files as if they lived at the
      given repo-relative paths; print findings, skip report/gate
      (tests/tools/test_analyzer.py drives this).
  tools/nashlb_analyzer.py --selftest-only
"""

import argparse
import json
import os
import re
import subprocess
import sys

RULES = (
    "hot-path-alloc",
    "unordered-float-accum",
    "nondeterminism-sources",
    "contract-coverage",
    "noexcept-merge",
    "trace-arity",
    "journal-arity",
    "histogram-bounds",
    "raw-concurrency",
)

# ---------------------------------------------------------------------------
# Rule configuration
# ---------------------------------------------------------------------------

# The designated hot set beyond `*_into` definitions: per-move steady-state
# functions whose zero-allocation property the O(m*n) round complexity
# (docs/PERFORMANCE.md) depends on. Setup/teardown functions in the same
# files (run(), best_reply_dynamics(), run_ring_protocol(), ...) allocate
# once per solve by design and are deliberately not listed.
HOT_FILE_FUNCS = {
    "src/core/dynamics.cpp": {"replies_computable"},
    "src/core/load_state.cpp": {"commit_row", "available_rates",
                                "user_response_time"},
    "src/core/user_classes.cpp": set(),  # class_reply_into via *_into
    "src/distributed/ring_protocol.cpp": {"update_user"},
}

# Types whose construction allocates (or may allocate) on the heap.
ALLOC_TYPE_NAMES = {
    "vector", "string", "basic_string", "function", "map", "set",
    "multimap", "multiset", "unordered_map", "unordered_set", "deque",
    "list", "forward_list", "ostringstream", "istringstream",
    "stringstream", "shared_ptr",
}
ALLOC_CALL_NAMES = {"make_unique", "make_shared", "to_string"}
# The allocating convenience wrappers over the `_into` layer: banned in
# the hot set and anywhere in the two hot-loop files.
ALLOC_WRAPPERS = {"best_reply", "waterfill_sqrt", "waterfill_linear",
                  "optimal_fractions"}
WRAPPER_BAN_FILES = ("src/core/dynamics.cpp",
                     "src/distributed/ring_protocol.cpp")

# Directories rule 3 polices (src-relative path prefixes): the whole
# library.
NONDET_DIRS = ("src/",)
NONDET_FREE_FUNCS = {"rand", "srand", "time", "clock"}

CONTRACT_MACROS = {"NASHLB_EXPECT", "NASHLB_ENSURE", "NASHLB_INVARIANT"}
# A core API is audited for contract coverage when a parameter is one of
# the model types, or a double span/vector whose name says it carries
# profile fractions or computer loads/rates.
AUDIT_PARAM_TYPE_RE = re.compile(
    r"\b(StrategyProfile|LoadState|UserClassPartition)\b")
AUDIT_PARAM_NAMES = {
    "loads", "lambda", "fractions", "fraction", "reply", "avail",
    "available_rates", "rates", "capacities", "row", "new_row", "phi",
}
CONTRACT_CALL_DEPTH = 6

PARALLEL_CPP = "src/util/parallel.cpp"
PARALLEL_FILES = ("src/util/parallel.hpp", PARALLEL_CPP)
OBS_DIR = "src/obs"

SCHEMA_FUNC_RE = re.compile(r"\w+_(?:trace_columns|export_columns)$")
ARITY_CALLS = ("record", "add_row")

HISTOGRAM_HPP = "src/obs/histogram.hpp"
HISTOGRAM_API = ("bucket_count", "bucket_lower_bound", "bucket_upper_bound")
HISTOGRAM_CONSTANTS = {"kMinExponent", "kMaxExponent", "kBucketsPerOctave"}

THREAD_NAMES = {"thread", "jthread", "async"}
SYNC_NAMES = {"mutex", "timed_mutex", "recursive_mutex",
              "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
              "condition_variable", "condition_variable_any"}
PRAGMA_OMP_RE = re.compile(r"^\s*#\s*pragma\s+omp\b")

WAIVER_RE = re.compile(
    r"nashlb-analyzer:\s*allow\(([\w-]+)\)\s*(?:--|:)?\s*(\S.*)?")

CPP_KEYWORDS = {
    "alignas", "alignof", "and", "asm", "auto", "bool", "break", "case",
    "catch", "char", "class", "co_await", "co_return", "co_yield", "concept",
    "const", "consteval", "constexpr", "constinit", "const_cast", "continue",
    "decltype", "default", "delete", "do", "double", "dynamic_cast", "else",
    "enum", "explicit", "export", "extern", "false", "float", "for", "friend",
    "goto", "if", "inline", "int", "long", "mutable", "namespace", "new",
    "noexcept", "not", "nullptr", "operator", "or", "private", "protected",
    "public", "register", "reinterpret_cast", "requires", "return", "short",
    "signed", "sizeof", "static", "static_assert", "static_cast", "struct",
    "switch", "template", "this", "thread_local", "throw", "true", "try",
    "typedef", "typeid", "typename", "union", "unsigned", "using", "virtual",
    "void", "volatile", "while", "final", "override",
}

# ---------------------------------------------------------------------------
# Findings and waivers
# ---------------------------------------------------------------------------


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule)

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


class Waivers:
    """Per-file waiver table, read from the raw source lines.

    A trailing waiver covers its own line. A waiver on its own comment
    line covers the rest of its comment block and the one statement
    below it (continuation lines included, until a line ends in `;`,
    `{` or `}`) — so multi-line reasons and wrapped statements work."""

    def __init__(self, lines):
        self.by_line = {}   # 1-based waiver line -> (rule, reason or None)
        self.covered = {}   # 1-based line -> set of waived rules
        pending = set()
        in_statement = False
        for idx, line in enumerate(lines):
            lineno = idx + 1
            stripped = line.strip()
            m = WAIVER_RE.search(line)
            if m:
                self.by_line[lineno] = (m.group(1), m.group(2))
                self.covered.setdefault(lineno, set()).add(m.group(1))
                if stripped.startswith("//"):
                    pending.add(m.group(1))
                    in_statement = False
                continue
            if not stripped:
                pending.clear()
                in_statement = False
                continue
            if stripped.startswith("//"):
                continue  # reason continuation — keep the block pending
            if pending:
                self.covered.setdefault(lineno, set()).update(pending)
                if stripped.endswith((";", "{", "}")):
                    pending.clear()
                else:
                    in_statement = True
            elif in_statement:
                self.covered.setdefault(lineno, set()).update(
                    self.covered.get(lineno - 1, set()))
                if stripped.endswith((";", "{", "}")):
                    in_statement = False

    def covers(self, line, rule):
        return rule in self.covered.get(line, ())

    def missing_reasons(self, path):
        out = []
        for line in sorted(self.by_line):
            rule, reason = self.by_line[line]
            if not reason:
                out.append(Finding(
                    path, line, "waiver-missing-reason",
                    "allow(%s) without a reason; write `-- <why>` after "
                    "the waiver" % rule))
        return out


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*|/\*.*?\*/)
      | (?P<rawstr>R"(?P<delim>[^ ()\\\t\n]*)\(.*?\)(?P=delim)")
      | (?P<str>"(?:[^"\\\n]|\\.)*")
      | (?P<chr>'(?:[^'\\\n]|\\.)*')
      | (?P<num>\.?\d(?:[\w.']|[eEpP][+-])*)
      | (?P<id>[A-Za-z_]\w*)
      | (?P<punct>::|->\*?|\+\+|--|<<=|>>=|<=>|[-+*/%&|^!=<>]=|&&|\|\||\.\.\.|.)
    """, re.VERBOSE | re.DOTALL)


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return "%s(%r)@%d" % (self.kind, self.text, self.line)


def strip_preprocessor(text):
    """Blanks preprocessor directive lines (keeping the code inside
    conditional blocks — contracts live under #if NASHLB_CHECK_ENABLED)."""
    out = []
    continuation = False
    for line in text.split("\n"):
        directive = continuation or line.lstrip().startswith("#")
        continuation = directive and line.rstrip().endswith("\\")
        out.append("" if directive else line)
    return "\n".join(out)


def tokenize(text):
    toks = []
    line = 1
    for m in TOKEN_RE.finditer(strip_preprocessor(text)):
        kind = m.lastgroup if m.lastgroup != "delim" else "rawstr"
        piece = m.group(0)
        if kind not in ("ws", "comment"):
            toks.append(Tok(kind, piece, line))
        line += piece.count("\n")
    return toks


def match_paren(toks, i, open_ch="(", close_ch=")"):
    """toks[i] must be `open_ch`; returns the index of its match, or None."""
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == open_ch:
            depth += 1
        elif toks[j].text == close_ch:
            depth -= 1
            if depth == 0:
                return j
    return None


# ---------------------------------------------------------------------------
# Structural index: function definitions/declarations per file
# ---------------------------------------------------------------------------


class FunctionInfo:
    __slots__ = ("name", "qual", "path", "line", "params", "is_definition",
                 "noexcept_", "body", "calls", "has_contract", "throw_lines",
                 "access")

    def __init__(self, name, qual, path, line, params, is_definition,
                 noexcept_, body, access="public"):
        self.name = name
        self.qual = qual
        self.path = path
        self.line = line
        self.access = access
        self.params = params          # token list between ( )
        self.is_definition = is_definition
        self.noexcept_ = noexcept_
        self.body = body              # token list between { } (or [])
        self.calls = set()
        self.has_contract = False
        self.throw_lines = []
        for idx, t in enumerate(body):
            if (t.kind == "id" and t.text not in CPP_KEYWORDS
                    and idx + 1 < len(body) and body[idx + 1].text == "("):
                self.calls.add(t.text)
                if t.text in CONTRACT_MACROS:
                    self.has_contract = True
            elif t.text == "throw":
                self.throw_lines.append(t.line)


def _collect_name(toks, i):
    """Walks `A :: B :: name` backwards from the id at `i`; returns
    (qualified-name-string, leftmost-index)."""
    parts = [toks[i].text]
    k = i
    while k >= 2 and toks[k - 1].text == "::" and toks[k - 2].kind == "id":
        parts[:0] = [toks[k - 2].text, "::"]
        k -= 2
    if k >= 1 and toks[k - 1].text == "~":
        parts[:0] = ["~"]
        k -= 1
    return "".join(parts), k


def index_file(path, toks):
    """One linear scan: namespace/class scope tracking at type scope,
    function signature parsing, body slicing. Function bodies are sliced
    wholesale (local classes/lambdas stay inside their owner's body)."""
    funcs = []
    scopes = []  # [kind 'ns'|'class'|'brace', name, access]
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if (t.text in ("public", "private", "protected") and i + 1 < n
                and toks[i + 1].text == ":" and scopes
                and scopes[-1][0] == "class"):
            scopes[-1][2] = t.text
            i += 2
            continue
        if t.text == "namespace":
            j = i + 1
            name = None
            while j < n and (toks[j].kind == "id" or toks[j].text == "::"):
                if toks[j].kind == "id" and name is None:
                    name = toks[j].text
                j += 1
            if j < n and toks[j].text == "{":
                scopes.append(["ns", name or "<anon>", "public"])
                i = j + 1
                continue
            i = j
            continue
        if t.text in ("class", "struct") and (i == 0 or
                                              toks[i - 1].text != "enum"):
            name = None
            j = i + 1
            while j < n and toks[j].text not in ("{", ";", "("):
                if toks[j].kind == "id" and name is None and \
                        toks[j].text not in ("alignas", "final"):
                    name = toks[j].text
                j += 1
            if j < n and toks[j].text == "{":
                scopes.append(["class", name or "<anon>",
                               "public" if t.text == "struct" else "private"])
                i = j + 1
                continue
            i = j
            continue
        if t.text == "{":
            scopes.append(["brace", None, "public"])
            i += 1
            continue
        if t.text == "}":
            if scopes:
                scopes.pop()
            i += 1
            continue
        if (t.kind == "id" and t.text not in CPP_KEYWORDS
                and i + 1 < n and toks[i + 1].text == "("):
            parsed = _parse_function(toks, i, scopes, path, funcs)
            if parsed is not None:
                i = parsed
                continue
        i += 1
    return funcs


def _parse_function(toks, i, scopes, path, funcs):
    """Tries to parse a function declaration/definition whose name is the
    id at `i`. On success appends a FunctionInfo and returns the token
    index to resume at; returns None when this is not a function."""
    n = len(toks)
    name, _left = _collect_name(toks, i)
    close = match_paren(toks, i + 1)
    if close is None:
        return None
    # Scan between the parameter list and the body/semicolon. A ':'
    # introduces a ctor init list, in which a '{' attached to an
    # identifier or '>' is a brace-init, not the body.
    j = close + 1
    init_list = False
    noexcept_ = False
    budget = 400
    while j < n and budget:
        budget -= 1
        tt = toks[j].text
        if tt == ";":
            _record(funcs, toks, i, name, scopes, path, close, False,
                    noexcept_, [])
            return j + 1
        if tt == "=":
            # `= default;` / `= delete;` / pure virtual: declaration-like.
            while j < n and toks[j].text != ";":
                j += 1
            _record(funcs, toks, i, name, scopes, path, close, False,
                    noexcept_, [])
            return j + 1
        if tt == "{":
            prev = toks[j - 1].text
            if init_list and (toks[j - 1].kind == "id" or prev == ">"):
                end = match_paren(toks, j, "{", "}")
                if end is None:
                    return None
                j = end + 1
                continue
            end = match_paren(toks, j, "{", "}")
            if end is None:
                return None
            _record(funcs, toks, i, name, scopes, path, close, True,
                    noexcept_, toks[j + 1:end])
            return end + 1
        if tt == "noexcept":
            noexcept_ = True
        elif tt == ":":
            init_list = True
        elif tt == "(":
            skip = match_paren(toks, j)
            if skip is None:
                return None
            j = skip
        elif tt in (")", "}", "]"):
            return None
        j += 1
    return None


def _record(funcs, toks, i, name, scopes, path, close, is_def, noexcept_,
            body):
    qual = name
    access = "public"
    for kind, scope_name, scope_access in reversed(scopes):
        if kind == "class":
            if "::" not in name:
                qual = "%s::%s" % (scope_name, name)
            access = scope_access
            break
    simple = name.rsplit("::", 1)[-1]
    funcs.append(FunctionInfo(simple, qual, path, toks[i].line,
                              toks[i + 2:close], is_def, noexcept_, body,
                              access))


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _skip_throw_ranges(body):
    """Indices of body tokens that sit on a throw path (throw ... ;) —
    allocation there is cold by definition."""
    skip = set()
    i = 0
    while i < len(body):
        if body[i].text == "throw":
            j = i
            while j < len(body) and body[j].text != ";":
                skip.add(j)
                j += 1
            i = j
        i += 1
    return skip


def is_hot(func, path):
    if func.is_definition and func.name.endswith("_into"):
        return True
    return func.name in HOT_FILE_FUNCS.get(path, ())


def _wrapper_calls(path, toks, where, waivers, out):
    for idx, t in enumerate(toks[:-1]):
        if (t.kind == "id" and t.text in ALLOC_WRAPPERS
                and toks[idx + 1].text == "("
                and not _is_decl_context(toks, idx)):
            _emit(out, waivers, path, t.line, "hot-path-alloc",
                  "allocating wrapper %s() called in %s; use the _into "
                  "variant with a workspace" % (t.text, where))


def rule_hot_path_alloc(path, toks, funcs, waivers, out):
    banned_file = path in WRAPPER_BAN_FILES
    if banned_file:
        _wrapper_calls(path, toks, "hot-loop file", waivers, out)
    for fn in funcs:
        if not fn.is_definition or not is_hot(fn, path):
            continue
        body = fn.body
        if not banned_file:
            _wrapper_calls(path, body, "hot function %s()" % fn.name,
                           waivers, out)
        cold = _skip_throw_ranges(body)
        reserved = set()
        for idx in range(len(body) - 3):
            if (body[idx].kind == "id" and body[idx + 1].text == "."
                    and body[idx + 2].text == "reserve"
                    and body[idx + 3].text == "("):
                reserved.add(body[idx].text)
        for idx, t in enumerate(body):
            if idx in cold:
                continue
            line = t.line
            if t.text == "new" and (idx == 0 or
                                    body[idx - 1].text != "operator"):
                _emit(out, waivers, path, line, "hot-path-alloc",
                      "new-expression in hot function %s(); hot paths are "
                      "allocation-free by contract" % fn.name)
            elif (t.kind == "id" and t.text in ALLOC_CALL_NAMES
                  and idx + 1 < len(body) and body[idx + 1].text == "("):
                _emit(out, waivers, path, line, "hot-path-alloc",
                      "%s() allocates in hot function %s()" %
                      (t.text, fn.name))
            elif (t.kind == "id" and t.text in ("push_back", "emplace_back")
                  and idx + 1 < len(body) and body[idx + 1].text == "("
                  and idx >= 2 and body[idx - 1].text in (".", "->")):
                base = body[idx - 2].text
                if base not in reserved:
                    _emit(out, waivers, path, line, "hot-path-alloc",
                          "%s.%s() in hot function %s() without a prior "
                          "%s.reserve()" % (base, t.text, fn.name, base))
            elif (t.text == "std" and idx + 2 < len(body)
                  and body[idx + 1].text == "::"
                  and body[idx + 2].text in ALLOC_TYPE_NAMES):
                # Reference/pointer bindings and nested-name uses
                # (std::vector<T>&, std::vector<T>::iterator) do not
                # allocate — only value declarations and temporaries do.
                after = idx + 3
                if after < len(body) and body[after].text == "<":
                    close_angle = _match_angle(body, after)
                    if close_angle is not None:
                        after = close_angle + 1
                while after < len(body) and body[after].text == "const":
                    after += 1
                if after < len(body) and body[after].text in ("&", "*",
                                                              "::"):
                    continue
                _emit(out, waivers, path, line, "hot-path-alloc",
                      "allocating type std::%s constructed/named in hot "
                      "function %s()" % (body[idx + 2].text, fn.name))


def _unordered_vars(toks):
    """Names declared in this file with an unordered_{map,set} type."""
    names = set()
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text.startswith("unordered_"):
            j = i + 1
            if j < len(toks) and toks[j].text == "<":
                j = _match_angle(toks, j)
                if j is None:
                    continue
                j += 1
            while j < len(toks) and toks[j].text in ("&", "*", "const"):
                j += 1
            if j < len(toks) and toks[j].kind == "id":
                names.add(toks[j].text)
    return names


def _match_angle(toks, i):
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == "<":
            depth += 1
        elif toks[j].text == ">":
            depth -= 1
            if depth == 0:
                return j
        elif toks[j].text in (";", "{"):
            return None
    return None


def rule_unordered_float_accum(path, toks, waivers, out):
    unordered = _unordered_vars(toks)
    i = 0
    n = len(toks)
    while i < n:
        if toks[i].text != "for" or i + 1 >= n or toks[i + 1].text != "(":
            i += 1
            continue
        close = match_paren(toks, i + 1)
        if close is None:
            i += 1
            continue
        head = toks[i + 2:close]
        split = _range_for_split(head)
        if split is None:
            i = close + 1
            continue
        loop_vars, range_toks = split
        range_ids = {t.text for t in range_toks if t.kind == "id"}
        if not (range_ids & unordered
                or any(x.startswith("unordered_") for x in range_ids)):
            i = close + 1
            continue
        body_end = close
        if close + 1 < n and toks[close + 1].text == "{":
            body_end = match_paren(toks, close + 1, "{", "}") or close
            body = toks[close + 2:body_end]
        else:
            body_end = close + 1
            while body_end < n and toks[body_end].text != ";":
                body_end += 1
            body = toks[close + 1:body_end]
        stmt_start = 0
        for idx, t in enumerate(body):
            if t.text in (";", "{", "}"):
                stmt_start = idx + 1
            elif t.text in ("+=", "-=", "*=", "/="):
                lhs_ids = {x.text for x in body[stmt_start:idx]
                           if x.kind == "id"}
                if not (lhs_ids & loop_vars):
                    _emit(out, waivers, path, t.line,
                          "unordered-float-accum",
                          "accumulation `%s` into a loop-invariant target "
                          "inside a range-for over an unordered container: "
                          "hash order is nondeterministic and float folds "
                          "do not commute" % t.text)
        i = body_end + 1


def _range_for_split(head):
    """Splits range-for head tokens at the top-level ':'; returns
    (loop-var names, range tokens) or None for a classic for."""
    depth = 0
    for idx, t in enumerate(head):
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif t.text == ";" and depth == 0:
            return None
        elif t.text == ":" and depth == 0:
            decl = head[:idx]
            loop_vars = set()
            if any(t2.text == "[" for t2 in decl):
                grab = False
                for t2 in decl:
                    if t2.text == "[":
                        grab = True
                    elif t2.text == "]":
                        grab = False
                    elif grab and t2.kind == "id":
                        loop_vars.add(t2.text)
            else:
                ids = [t2.text for t2 in decl if t2.kind == "id"
                       and t2.text not in CPP_KEYWORDS]
                if ids:
                    loop_vars.add(ids[-1])
            return loop_vars, head[idx + 1:]
    return None


# Tokens that can directly precede a *call* to a free function; an
# identifier/type keyword before the name means a declaration instead
# (`extern "C" int rand();`), which is not a use.
_STMT_PREV = {"return", "co_return", "case", "else", "do", "throw",
              "co_await", "co_yield", "and", "or", "not"}


def _is_decl_context(toks, i):
    if i == 0:
        return False
    prev = toks[i - 1]
    return prev.kind == "id" and prev.text not in _STMT_PREV


def rule_nondeterminism(path, toks, waivers, out):
    if not path.startswith(NONDET_DIRS):
        return
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if (t.text == "random_device" and i >= 2
                and toks[i - 1].text == "::" and toks[i - 2].text == "std"):
            _emit(out, waivers, path, t.line, "nondeterminism-sources",
                  "std::random_device: all randomness must flow through "
                  "the seeded stats:: RNG seams")
        elif (t.text in NONDET_FREE_FUNCS
              and i + 1 < n and toks[i + 1].text == "("
              and not _is_decl_context(toks, i)
              and (i == 0 or toks[i - 1].text not in (".", "->"))
              and not (i >= 2 and toks[i - 1].text == "::"
                       and toks[i - 2].text != "std")):
            _emit(out, waivers, path, t.line, "nondeterminism-sources",
                  "%s(): wall-clock/CRT randomness in library code"
                  % t.text)
        elif (t.text == "now" and i >= 2 and toks[i - 1].text == "::"
              and toks[i - 2].kind == "id"
              and toks[i - 2].text.endswith("_clock")):
            _emit(out, waivers, path, t.line, "nondeterminism-sources",
                  "std::chrono::%s::now(): clock read in library code; "
                  "timing belongs in bench/ and nashbench/"
                  % toks[i - 2].text)


def rule_noexcept_merge(path, toks, funcs, waivers, out):
    if path == PARALLEL_CPP:
        captured = False
        for i, t in enumerate(toks):
            if t.text == "catch" and i + 3 < len(toks) \
                    and toks[i + 1].text == "(" \
                    and toks[i + 2].text == "..." \
                    and toks[i + 3].text == ")":
                close = match_paren(toks, i + 4, "{", "}") \
                    if toks[i + 4].text == "{" else None
                handler = toks[i + 5:close] if close else []
                if any(h.text == "current_exception" for h in handler):
                    captured = True
        if not captured:
            _emit(out, waivers, path, 1, "noexcept-merge",
                  "ThreadPool chunk runner lost its catch(...) handler "
                  "storing std::current_exception() — the documented "
                  "capture point for deterministic error propagation")
        return
    if not path.startswith(OBS_DIR + "/"):
        return
    for fn in funcs:
        if fn.name != "merge" or not fn.is_definition:
            continue
        for line in fn.throw_lines:
            _emit(out, waivers, path, line, "noexcept-merge",
                  "throw-expression inside %s(): shard merges must not "
                  "throw past the pool's capture point" % fn.qual)
        if "Registry" not in fn.qual and not fn.noexcept_:
            _emit(out, waivers, path, fn.line, "noexcept-merge",
                  "per-instrument %s() is not declared noexcept; a "
                  "throwing instrument merge inside a worker would "
                  "std::terminate" % fn.qual)


def _brace_cells(toks, i):
    """toks[i] is `{`: the number of top-level cells in its list."""
    end = match_paren(toks, i, "{", "}")
    if end is None or end == i + 1:
        return 0
    depth = 0
    cells = 1
    for t in toks[i + 1:end]:
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif t.text == "," and depth == 0:
            cells += 1
    return cells


def _first_brace(toks, lo, hi):
    """Index of the first `{` in toks[lo:hi] outside nested ( ) / [ ]."""
    depth = 0
    for k in range(lo, hi):
        tt = toks[k].text
        if tt == "{" and depth == 0:
            return k
        if tt in ("(", "["):
            depth += 1
        elif tt in (")", "]"):
            depth -= 1
    return None


def _string_count(toks, i):
    """String literals in the braced list opening at toks[i]."""
    end = match_paren(toks, i, "{", "}") or i
    return sum(1 for t in toks[i:end] if t.kind == "str")


def rule_trace_arity(path, toks, funcs, waivers, out):
    schema = next((fn for fn in funcs if fn.is_definition
                   and SCHEMA_FUNC_RE.match(fn.name)), None)
    if schema is None:
        return
    body = schema.body
    ret = next((k + 1 for k in range(len(body) - 1)
                if body[k].text == "return" and body[k + 1].text == "{"),
               None)
    if ret is None:
        _emit(out, waivers, path, schema.line, "trace-arity",
              "%s() has no braced return list" % schema.name)
        return
    columns = _string_count(body, ret)
    for i, t in enumerate(toks[:-2]):
        if (t.kind != "id" or t.text not in ARITY_CALLS
                or toks[i + 1].text != "("):
            continue
        close = match_paren(toks, i + 1)
        if close is None:
            continue
        if (toks[i + 2].text != "{"
                or match_paren(toks, i + 2, "{", "}") != close - 1):
            _emit(out, waivers, path, t.line, "trace-arity",
                  "%s() argument is not a braced cell list; cannot check "
                  "arity against %s()" % (t.text, schema.name))
            continue
        cells = _brace_cells(toks, i + 2)
        if cells != columns:
            _emit(out, waivers, path, t.line, "trace-arity",
                  "%s() passes %d cells but %s() declares %d columns"
                  % (t.text, cells, schema.name, columns))


def _journal_schemas(toks):
    """EventId variable -> field count for every
    `<var> = ...register_event("name", {"f1", ...})` in a file."""
    schemas = {}
    for i, t in enumerate(toks[:-1]):
        if t.text != "register_event" or toks[i + 1].text != "(":
            continue
        close = match_paren(toks, i + 1)
        k = _first_brace(toks, i + 2, close) if close else None
        if k is None:
            continue
        j = i - 1
        while j > 0 and toks[j].text not in (";", "{", "}", "="):
            j -= 1
        if toks[j].text == "=" and toks[j - 1].kind == "id":
            schemas[toks[j - 1].text] = _string_count(toks, k)
    return schemas


def rule_journal_arity(path, toks, waivers, out):
    schemas = _journal_schemas(toks)
    for i, t in enumerate(toks[:-3]):
        if not (t.text == "emit" and toks[i + 1].text == "("
                and toks[i + 2].text in schemas
                and toks[i + 3].text == ","):
            continue
        var = toks[i + 2].text
        close = match_paren(toks, i + 1)
        k = _first_brace(toks, i + 4, close) if close else None
        if k is None:
            _emit(out, waivers, path, t.line, "journal-arity",
                  "emit(%s, ...) does not pass a braced value list; cannot "
                  "check arity against the registered schema" % var)
            continue
        cells = _brace_cells(toks, k)
        if cells != schemas[var]:
            _emit(out, waivers, path, t.line, "journal-arity",
                  "emit(%s, ...) passes %d values but the registered "
                  "schema declares %d fields" % (var, cells, schemas[var]))


def rule_histogram_bounds(path, toks, waivers, out):
    if path == HISTOGRAM_HPP:
        declared = {t.text for t, nxt in zip(toks, toks[1:])
                  if nxt.text == "("}
        for api in HISTOGRAM_API:
            if api not in declared:
                _emit(out, waivers, path, 1, "histogram-bounds",
                      "HistogramLayout no longer declares %s(); consumers "
                      "need the programmatic bucket-bounds API" % api)
    elif not path.startswith(OBS_DIR + "/"):
        for t in toks:
            if t.kind == "id" and t.text in HISTOGRAM_CONSTANTS:
                _emit(out, waivers, path, t.line, "histogram-bounds",
                      "%s referenced outside src/obs/: derive bucket edges "
                      "via HistogramLayout::bucket_lower_bound()/"
                      "bucket_upper_bound() instead" % t.text)


def rule_raw_concurrency(path, text, toks, waivers, out):
    if path in PARALLEL_FILES:
        return  # the pool's own implementation
    pool = ("route concurrency through util::ThreadPool so results stay "
            "deterministic across thread counts")
    for lineno, line in enumerate(text.split("\n"), 1):
        if PRAGMA_OMP_RE.match(line):
            _emit(out, waivers, path, lineno, "raw-concurrency",
                  "#pragma omp outside src/util/parallel.*: " + pool)
    sync_exempt = path.startswith(OBS_DIR + "/")
    for i in range(2, len(toks)):
        if toks[i - 1].text != "::" or toks[i - 2].text != "std":
            continue
        name = toks[i].text
        if name in THREAD_NAMES:
            _emit(out, waivers, path, toks[i].line, "raw-concurrency",
                  "std::%s outside src/util/parallel.*: %s" % (name, pool))
        elif not sync_exempt and (name in SYNC_NAMES or name == "atomic"
                                  or name.startswith("atomic_")):
            _emit(out, waivers, path, toks[i].line, "raw-concurrency",
                  "std::%s outside src/util/parallel.* and src/obs/: "
                  "solver code must not own locks or atomics" % name)


# ---------------------------------------------------------------------------
# Contract coverage
# ---------------------------------------------------------------------------


def audited_param_match(fn):
    params = fn.params
    if not params:
        return False
    # Split at top-level commas.
    groups = [[]]
    depth = 0
    for t in params:
        if t.text in ("(", "<", "[", "{"):
            depth += 1
        elif t.text in (")", ">", "]", "}"):
            depth -= 1
        elif t.text == "," and depth == 0:
            groups.append([])
            continue
        groups[-1].append(t)
    for g in groups:
        text = " ".join(t.text for t in g)
        if AUDIT_PARAM_TYPE_RE.search(text):
            return True
        ids = [t.text for t in g if t.kind == "id"]
        if ("double" in text and ("span" in ids or "vector" in ids)
                and ids and ids[-1] in AUDIT_PARAM_NAMES):
            return True
    return False


def compute_contract_coverage(index, waiver_map):
    """index: {path: [FunctionInfo]}. Returns (entries, findings) where
    entries is the sorted audited set with coverage flags."""
    defs_by_name = {}
    for funcs in index.values():
        for fn in funcs:
            if fn.is_definition:
                defs_by_name.setdefault(fn.name, []).append(fn)

    def covered(fn):
        seen = set()
        frontier = [fn]
        for _ in range(CONTRACT_CALL_DEPTH):
            nxt = []
            for f in frontier:
                if f.has_contract:
                    return True
                for callee in sorted(f.calls):
                    if callee in seen:
                        continue
                    seen.add(callee)
                    nxt.extend(defs_by_name.get(callee, ()))
            if not nxt:
                return False
            frontier = nxt
        return any(f.has_contract for f in frontier)

    audited = {}  # qual -> (decl FunctionInfo)
    for path, funcs in sorted(index.items()):
        if not (path.startswith("src/core/") and path.endswith(".hpp")):
            continue
        for fn in funcs:
            if fn.name.startswith("~") or fn.name == "operator":
                continue
            if fn.access != "public":
                continue  # "public core API" means exactly that
            if audited_param_match(fn):
                audited.setdefault(fn.qual, fn)

    entries = []
    findings = []
    for qual in sorted(audited):
        decl = audited[qual]
        defs = [d for d in defs_by_name.get(qual.rsplit("::", 1)[-1], ())
                if d.qual == qual or "::" not in qual]
        if not defs:  # defaulted / generated: nothing to audit
            continue
        is_covered = any(covered(d) for d in defs)
        waivers = waiver_map.get(decl.path)
        waived = bool(waivers and waivers.covers(decl.line,
                                                 "contract-coverage"))
        if not waived:
            for d in defs:
                dw = waiver_map.get(d.path)
                if dw and dw.covers(d.line, "contract-coverage"):
                    waived = True
                    break
        entries.append({"function": qual, "file": decl.path,
                        "line": decl.line, "covered": is_covered,
                        "waived": waived})
        if not is_covered and not waived:
            findings.append(Finding(
                decl.path, decl.line, "contract-coverage",
                "public core API %s() takes a profile/fractions/loads "
                "parameter but neither it nor its callees state a "
                "NASHLB_EXPECT/ENSURE/INVARIANT" % qual))
    return entries, findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _emit(out, waivers, path, line, rule, message):
    if waivers is not None and waivers.covers(line, rule):
        return
    out.append(Finding(path, line, rule, message))


def analyze(files):
    """files: [(relpath, text)]. Returns (findings, coverage_entries)."""
    findings = []
    index = {}
    waiver_map = {}
    for path, text in files:
        waivers = Waivers(text.split("\n"))
        waiver_map[path] = waivers
        findings.extend(waivers.missing_reasons(path))
        toks = tokenize(text)
        funcs = index_file(path, toks)
        index[path] = funcs
        rule_hot_path_alloc(path, toks, funcs, waivers, findings)
        rule_unordered_float_accum(path, toks, waivers, findings)
        rule_nondeterminism(path, toks, waivers, findings)
        rule_noexcept_merge(path, toks, funcs, waivers, findings)
        rule_trace_arity(path, toks, funcs, waivers, findings)
        rule_journal_arity(path, toks, waivers, findings)
        rule_histogram_bounds(path, toks, waivers, findings)
        rule_raw_concurrency(path, text, toks, waivers, findings)
    entries, cov_findings = compute_contract_coverage(index, waiver_map)
    findings.extend(cov_findings)
    return findings, entries


# ---------------------------------------------------------------------------
# Report + coverage gate
# ---------------------------------------------------------------------------

REPORT_RELPATH = os.path.join("bench_results", "analysis_report.json")


def build_report(findings, coverage_entries):
    covered = sum(1 for e in coverage_entries if e["covered"])
    total = len(coverage_entries)
    waived_uncovered = sorted(e["function"] for e in coverage_entries
                              if not e["covered"] and e["waived"])
    percent = round(100.0 * covered / total, 2) if total else 100.0
    rule_counts = {rule: 0 for rule in RULES}
    for f in findings:
        rule_counts[f.rule] = rule_counts.get(f.rule, 0) + 1
    return {
        "schema": 1,
        "engine": "tokens",
        "contract_coverage": {
            "covered": covered,
            "total": total,
            "percent": percent,
            "uncovered": sorted(
                ({"function": e["function"], "file": e["file"],
                  "waived": e["waived"]}
                 for e in coverage_entries if not e["covered"]),
                key=lambda e: e["function"]),
            "waived": waived_uncovered,
        },
        "rules": rule_counts,
    }


def committed_report(root):
    """The coverage baseline: HEAD's report in a git checkout, else the
    report in the tree (a `git archive` copy has no HEAD to read)."""
    try:
        if not os.path.exists(os.path.join(root, ".git")):
            with open(os.path.join(root, REPORT_RELPATH),
                      encoding="utf-8") as f:
                return json.load(f)
        blob = subprocess.run(
            ["git", "-C", root, "show",
             "HEAD:" + REPORT_RELPATH.replace(os.sep, "/")],
            capture_output=True, text=True, check=True).stdout
        return json.loads(blob)
    except (subprocess.CalledProcessError, OSError, ValueError):
        return None


def coverage_gate(root, report):
    """Regression gate against the committed report: every waived,
    uncovered function in the tree must already be waived there. (An
    unwaived uncovered function is a contract-coverage finding of its
    own, and deleting a covered function lowers the percentage without
    weakening any contract, so the percentage is not compared.)"""
    base = committed_report(root)
    if base is None:
        print("nashlb_analyzer: no committed %s — coverage gate skipped "
              "(run --write-report and commit to arm it)" % REPORT_RELPATH)
        return []
    old = set(base.get("contract_coverage", {}).get("waived", []))
    gained = sorted(set(report["contract_coverage"]["waived"]) - old)
    if gained:
        return [Finding(
            REPORT_RELPATH, 1, "contract-coverage",
            "contract coverage regressed: %s newly waived without a "
            "contract; restore the dropped NASHLB_EXPECT/ENSURE/INVARIANT "
            "(or re-baseline with --write-report and justify in the PR)"
            % ", ".join(gained))]
    return []


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------

SELFTEST_SNIPPETS = [
    # (rule, virtual path, must_trigger, snippet)
    ("hot-path-alloc", "src/core/snippet.cpp", True, """
        namespace std { template <class T> struct vector {
          void push_back(const T&); void reserve(unsigned long); }; }
        void reply_into(double* out, int n) {
          std::vector<double> scratch;
          for (int i = 0; i < n; ++i) out[i] = 0.0;
        }
    """),
    ("hot-path-alloc", "src/core/snippet.cpp", True, """
        struct Buf { void push_back(double); };
        void reply_into(Buf& tmp, int n) {
          for (int i = 0; i < n; ++i) tmp.push_back(1.0);
        }
    """),
    ("hot-path-alloc", "src/core/snippet.cpp", False, """
        struct Buf { void push_back(double); void reserve(unsigned long); };
        void reply_into(Buf& tmp, unsigned long n) {
          tmp.reserve(n);
          for (unsigned long i = 0; i < n; ++i) tmp.push_back(1.0);
        }
    """),
    ("hot-path-alloc", "src/core/snippet.cpp", False, """
        namespace std { template <class T> struct vector {
          void push_back(const T&); }; }
        std::vector<double> setup_profile(int n) {
          std::vector<double> out;
          for (int i = 0; i < n; ++i) out.push_back(0.0);
          return out;
        }
    """),
    ("hot-path-alloc", "src/core/snippet.cpp", False, """
        struct err { err(const char*); };
        void reply_into(double* out, int n) {
          if (n < 0) throw err("negative");
          for (int i = 0; i < n; ++i) out[i] = 0.0;
        }
    """),
    ("hot-path-alloc", "src/core/snippet.cpp", False, """
        namespace std { template <class T> struct vector { T& back(); }; }
        struct Ws { std::vector<double> scratch; };
        void reply_into(Ws& ws, int n) {
          std::vector<double>& buf = ws.scratch;
          for (int i = 0; i < n; ++i) buf.back() = 0.0;
        }
    """),
    ("unordered-float-accum", "src/core/snippet.cpp", True, """
        namespace std { template <class K, class V> struct unordered_map {
          struct value_type { K first; V second; };
          value_type* begin(); value_type* end(); }; }
        double total(std::unordered_map<int, double>& m) {
          double sum = 0.0;
          for (auto& kv : m) sum += kv.second;
          return sum;
        }
    """),
    ("unordered-float-accum", "src/core/snippet.cpp", False, """
        namespace std { template <class K, class V> struct unordered_map {
          struct value_type { K first; V second; };
          value_type* begin(); value_type* end(); };
          template <class T> struct vector { T* begin(); T* end(); }; }
        double merge_per_key(std::unordered_map<int, double>& m,
                             double* slots) {
          for (auto& kv : m) slots[kv.first] += kv.second;
          double sum = 0.0;
          std::vector<double> v;
          for (double x : v) sum += x;
          return sum;
        }
    """),
    ("nondeterminism-sources", "src/core/snippet.cpp", True, """
        namespace std { struct random_device { unsigned operator()(); }; }
        unsigned seed_badly() { std::random_device rd; return rd(); }
    """),
    ("nondeterminism-sources", "src/des/snippet.cpp", True, """
        namespace std { namespace chrono { struct steady_clock {
          static int now(); }; } }
        int stamp() { return std::chrono::steady_clock::now(); }
    """),
    ("nondeterminism-sources", "src/core/snippet.cpp", True, """
        extern "C" int rand();
        int jitter() { return rand(); }
    """),
    ("nondeterminism-sources", "src/core/snippet.cpp", False, """
        struct Xoshiro256 { unsigned long next(); };
        unsigned long draw(Xoshiro256& rng) { return rng.next(); }
        struct Sim { double now() const; };
        double sim_time(const Sim& sim) { return sim.now(); }
    """),
    ("nondeterminism-sources", "src/stats/snippet.cpp", True, """
        namespace std { struct random_device { unsigned operator()(); }; }
        unsigned entropy() { std::random_device rd; return rd(); }
    """),
    ("nondeterminism-sources", "bench/snippet.cpp", False, """
        namespace std { namespace chrono { struct steady_clock {
          static int now(); }; } }
        int stamp() { return std::chrono::steady_clock::now(); }
    """),
    ("nondeterminism-sources", "src/core/snippet.cpp", False, """
        namespace std { namespace chrono { struct steady_clock {
          static int now(); }; } }
        int stamp() {
          return std::chrono::steady_clock::now();  // nashlb-analyzer: allow(nondeterminism-sources) -- selftest waiver
        }
    """),
    ("contract-coverage", "src/core/snippet.hpp", True, """
        struct StrategyProfile {};
        double gap(const StrategyProfile& s, int user) { return 0.0; }
    """),
    ("contract-coverage", "src/core/snippet.hpp", False, """
        struct StrategyProfile {};
        double gap(const StrategyProfile& s, int user) {
          NASHLB_EXPECT(user >= 0, "user %d", user);
          return 0.0;
        }
    """),
    ("contract-coverage", "src/core/snippet.hpp", False, """
        struct StrategyProfile {};
        void check_row(int user) { NASHLB_EXPECT(user >= 0, "u %d", user); }
        double gap(const StrategyProfile& s, int user) {
          check_row(user);
          return 0.0;
        }
    """),
    ("contract-coverage", "src/core/snippet.hpp", False, """
        struct StrategyProfile {};
        class LoadState {
         public:
          void rebuild(const StrategyProfile& s) {
            NASHLB_EXPECT(true, "reachable");
          }
         private:
          void check_dimensions(const StrategyProfile& s) {}
        };
    """),
    ("noexcept-merge", "src/obs/snippet.hpp", True, """
        struct Shard {};
        struct EnabledCounter {
          void merge(const EnabledCounter&) { value_ += 1; }
          long value_ = 0;
        };
    """),
    ("noexcept-merge", "src/obs/snippet.hpp", True, """
        struct bad {};
        struct EnabledTimer {
          void merge(const EnabledTimer& o) noexcept(false) {
            if (o.total_ < 0) throw bad{};
            total_ += o.total_;
          }
          double total_ = 0;
        };
    """),
    ("noexcept-merge", "src/obs/snippet.hpp", False, """
        struct EnabledCounter {
          void merge(const EnabledCounter&) noexcept { value_ += 1; }
          long value_ = 0;
        };
        struct EnabledRegistry {
          void merge(const EnabledRegistry&) {}
        };
    """),
    ("waiver-missing-reason", "src/core/snippet.cpp", True, """
        namespace std { struct random_device { unsigned operator()(); }; }
        unsigned seed_badly() {
          std::random_device rd;  // nashlb-analyzer: allow(nondeterminism-sources)
          return rd();
        }
    """),
    # The allocating-wrapper ban: inside the hot set anywhere, and
    # anywhere at all in the two hot-loop files.
    ("hot-path-alloc", "src/core/snippet.cpp", True, """
        void reply_into(int j, double* out) { out[0] = best_reply(j); }
    """),
    ("hot-path-alloc", "src/core/dynamics.cpp", True, """
        double seed_profile(int j) { return waterfill_sqrt(j, 1.0); }
    """),
    ("hot-path-alloc", "src/core/snippet.cpp", False, """
        struct Reply {};
        Reply best_reply(int j);
        void reply_into(int j, Reply& ws) { best_reply_into(j, ws); }
        Reply cold_reply(int j) { return best_reply(j); }
    """),
    ("trace-arity", "src/obs/snippet.cpp", True, """
        std::vector<std::string> probe_trace_columns() {
          return {"round", "norm"};
        }
        void dump(Sink& t) { t.record({1, 2.0, 3}); }
    """),
    ("trace-arity", "src/obs/snippet.cpp", True, """
        std::vector<std::string> probe_export_columns() {
          return {"round", "norm"};
        }
        void dump(Writer& w, const Row& cells) { w.add_row(cells); }
    """),
    ("trace-arity", "src/obs/snippet.cpp", False, """
        std::vector<std::string> probe_trace_columns() {
          return {"name", "ts", "dur"};
        }
        void dump(Sink& t, const Row& cells) {
          t.record({a, {b, c}, f(d, e)});
          // nashlb-analyzer: allow(trace-arity) -- arity pinned by Row
          t.record(cells);
        }
    """),
    ("trace-arity", "src/obs/snippet.cpp", False, """
        void dump(Sink& t) { t.record({1}); }
    """),
    ("journal-arity", "src/core/snippet.cpp", True, """
        void run(obs::Journal& j) {
          obs::EventId tick = j.register_event("tick", {"round", "norm"});
          j.emit(tick, {1.0});
        }
    """),
    ("journal-arity", "src/core/snippet.cpp", True, """
        void run(obs::Journal& j, const Values& values) {
          tick_ = j.register_event("tick", {"round", "norm"});
          j.emit(tick_, values);
        }
    """),
    ("journal-arity", "src/core/snippet.cpp", False, """
        void emit(EventId id, std::initializer_list<double> v);
        void run(obs::Journal& j) {
          obs::EventId tick = j.register_event("tick", {"round", "norm"});
          obs::EventId k = j.register_event("k", {"x"});
          j.emit(tick, {1.0, 2.0});
          j.emit(foreign, {1.0});
          // nashlb-analyzer: allow(journal-arity) -- selftest waiver
          j.emit(k, {1.0, 2.0});
        }
    """),
    ("histogram-bounds", "src/core/snippet.cpp", True, """
        int octave() { return kBucketsPerOctave; }
    """),
    ("histogram-bounds", "src/obs/histogram.hpp", True, """
        struct HistogramLayout {
          static int bucket_count();
          static double bucket_lower_bound(int k);
        };
    """),
    ("histogram-bounds", "src/obs/histogram.hpp", False, """
        struct HistogramLayout {
          static int bucket_count();
          static double bucket_lower_bound(int k);
          static double bucket_upper_bound(int k);
        };
    """),
    ("histogram-bounds", "src/obs/histogram.cpp", False, """
        int octave() { return kBucketsPerOctave; }
    """),
    ("histogram-bounds", "src/core/snippet.cpp", False, """
        // kMinExponent named only in a comment
        double lo(int k) { return HistogramLayout::bucket_lower_bound(k); }
    """),
    ("raw-concurrency", "src/obs/snippet.hpp", False, """
        struct Probe { std::atomic<long> count_{0}; std::mutex lock_; };
    """),
    ("raw-concurrency", "src/obs/snippet.hpp", True, """
        void spawn() { std::thread worker([] {}); }
    """),
    ("raw-concurrency", "src/util/parallel.hpp", False, """
        struct ThreadPool { std::vector<std::thread> threads_; };
    """),
]

# raw-concurrency, one line per snippet inside a src/core function body:
# the thread tier, the synchronization tier, and their look-alikes.
SELFTEST_SNIPPETS += [
    ("raw-concurrency", "src/core/snippet.cpp", hit,
     "void f() {\n%s\n}\n" % line)
    for hit, line in (
        (True, "  std::thread worker([] {});"),
        (True, "  auto f = std::async(std::launch::async, fn);"),
        (True, "  std::jthread t;"),
        (True, "#pragma omp parallel for"),
        (True, "# pragma omp critical"),
        (True, "  std::mutex state_lock_;"),
        (True, "  std::shared_mutex registry_lock_;"),
        (True, "  std::condition_variable ready_;"),
        (True, "  std::condition_variable_any cv_;"),
        (True, "  std::atomic<int> counter{0};"),
        (True, "  std::atomic_flag busy_ = ATOMIC_FLAG_INIT;"),
        (False, "  std::this_thread::sleep_for(1ms);"),
        (False, "  // std::thread only named in a comment"),
        (False, '  log("std::thread inside a string literal");'),
        (False, "  pool.parallel_for(0, m, 1, fn);"),
        (False, "  double total = 0.0;  // no primitive here"),
        (False, "  // std::mutex named only in a comment"),
        (False, '  trace.record({"std::atomic<int>", cells});'),
        (False, "  util::ThreadPool pool(threads);"),
        (False, "  std::thread t;  // nashlb-analyzer: allow(raw-concurrency)"
                " -- selftest waiver"),
    )
]


def run_selftest():
    """Every snippet must trigger (or not) its rule. Returns an error
    string or None."""
    for rule, vpath, must_trigger, snippet in SELFTEST_SNIPPETS:
        findings, _cov = analyze([(vpath, snippet)])
        hits = [f for f in findings if f.rule == rule]
        if must_trigger and not hits:
            return ("selftest: rule %s did not fire on its must-trigger "
                    "snippet:\n%s" % (rule, snippet))
        if not must_trigger and hits:
            return ("selftest: rule %s false-positive on its "
                    "must-not-trigger snippet (%s):\n%s"
                    % (rule, hits[0], snippet))
    return None


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def collect_tree(root):
    files = []
    src = os.path.join(root, "src")
    for base, _dirs, names in os.walk(src):
        for name in sorted(names):
            if name.endswith((".cpp", ".hpp")):
                path = os.path.join(base, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as f:
                    files.append((rel, f.read()))
    return sorted(files)


def main(argv=None):
    ap = argparse.ArgumentParser(add_help=True)
    ap.add_argument("root", nargs="?", default=None)
    ap.add_argument("--write-report", action="store_true")
    ap.add_argument("--selftest-only", action="store_true")
    ap.add_argument("--no-selftest", action="store_true")
    ap.add_argument("--check-file", action="append", default=[],
                    metavar="REAL:VIRTUAL")
    args = ap.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if not args.no_selftest:
        err = run_selftest()
        if err:
            print("nashlb_analyzer: FAIL: %s" % err, file=sys.stderr)
            return 1
        if args.selftest_only:
            print("nashlb_analyzer: selftest OK (%d snippets)"
                  % len(SELFTEST_SNIPPETS))
            return 0

    if args.check_file:
        files = []
        for spec in args.check_file:
            real, _sep, virtual = spec.partition(":")
            with open(real, encoding="utf-8") as f:
                files.append((virtual or real, f.read()))
        findings, _cov = analyze(files)
        for f in sorted(findings, key=Finding.key):
            print(f)
        return 1 if findings else 0

    files = collect_tree(root)
    findings, coverage_entries = analyze(files)
    report = build_report(findings, coverage_entries)
    findings.extend(coverage_gate(root, report))

    if args.write_report:
        path = os.path.join(root, REPORT_RELPATH)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print("nashlb_analyzer: wrote %s (coverage %.2f%%)"
              % (REPORT_RELPATH, report["contract_coverage"]["percent"]))

    if findings:
        for f in sorted(findings, key=Finding.key):
            print("nashlb_analyzer: FAIL: %s" % f, file=sys.stderr)
        print("nashlb_analyzer: %d finding(s)" % len(findings),
              file=sys.stderr)
        return 1

    cov = report["contract_coverage"]
    print("nashlb_analyzer: OK — %d files, %d rules, contract coverage "
          "%d/%d (%.2f%%)" % (len(files), len(RULES), cov["covered"],
                              cov["total"], cov["percent"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
