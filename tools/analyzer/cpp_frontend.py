"""Textual C++ frontend for causumx-analyzer.

Extracts the intermediate representation (IR) the whole-program checks
run on — includes, class/struct declarations (mutex members, virtual
methods), function definitions with their call sites, RAII lock
acquisitions, throw sites, allocation sites, and try/catch coverage —
without a compiler.

The parse is structural, not grammatical: one pass matches every brace
pair in the comment/string-stripped text, each opening brace is
classified from its header (the text since the previous `;`/`{`/`}`)
as a namespace, class, function definition, or plain block, and
function bodies are then scanned with position-accurate line numbers.
This is tuned to the codebase's idiom (Google-style C++20, RAII locks
from util/thread_annotations.h, no macro-generated functions); it is a
heuristic, not a compiler; `checks.py` consumes only the IR.
"""

from __future__ import annotations

import bisect
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

# --- IR ----------------------------------------------------------------------


@dataclass
class Include:
    line: int  # 1-based
    header: str  # as written, e.g. "engine/eval_engine.h"
    is_system: bool  # <...> include


@dataclass
class ClassInfo:
    name: str  # unqualified, e.g. "PredicateSlot"
    file: str
    line: int
    # (member_name, kind) with kind in {"mutex", "shared_mutex", "condvar"}
    mutex_members: List[Tuple[str, str]] = field(default_factory=list)
    virtual_methods: List[str] = field(default_factory=list)
    # CAUSUMX_REQUIRES on method declarations: method -> lock exprs
    requires: Dict[str, List[str]] = field(default_factory=dict)


@dataclass
class CallSite:
    line: int
    name: str  # last name component, e.g. "ParallelFor"
    qualifier: str  # text before the name: "ThreadPool::", "slot->", ""


@dataclass
class Acquisition:
    line: int
    kind: str  # "exclusive" | "shared"
    lock_expr: str  # argument text, e.g. "slot->mu", "intern_mu_"
    scope_end_line: int  # closing line of the enclosing block


@dataclass
class WaitSite:
    line: int
    lock_expr: str  # the mutex passed to CondVar::Wait


@dataclass
class ThrowSite:
    line: int
    text: str


@dataclass
class AllocSite:
    line: int
    what: str  # e.g. "new", "std::make_shared", "container growth"


@dataclass
class TryRegion:
    start_line: int
    body_end_line: int  # closing brace of the try block itself
    end_line: int  # end of the final catch block
    catch_all: bool  # has `catch (...)`
    catch_std: bool  # has a `catch` of std::exception (or a subclass)


@dataclass
class FunctionInfo:
    qualified_name: str  # e.g. "causumx::EvalEngine::SegmentsOf"
    name: str  # last component
    cls: Optional[str]  # enclosing/qualifying class, unqualified
    file: str
    start_line: int
    end_line: int
    calls: List[CallSite] = field(default_factory=list)
    acquisitions: List[Acquisition] = field(default_factory=list)
    waits: List[WaitSite] = field(default_factory=list)
    throws: List[ThrowSite] = field(default_factory=list)
    allocs: List[AllocSite] = field(default_factory=list)
    trys: List[TryRegion] = field(default_factory=list)
    fn_refs: List[str] = field(default_factory=list)  # &Name references
    local_types: Dict[str, str] = field(default_factory=dict)  # var -> type


@dataclass
class FileIR:
    path: str  # repo-relative, '/'-separated
    includes: List[Include] = field(default_factory=list)
    classes: List[ClassInfo] = field(default_factory=list)
    functions: List[FunctionInfo] = field(default_factory=list)
    provided_names: Set[str] = field(default_factory=set)
    used_names: Set[str] = field(default_factory=set)
    raw_lines: List[str] = field(default_factory=list)
    code_text: str = ""  # stripped text, same length/lines as the source


# --- lexical preprocessing ---------------------------------------------------

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*(["<])([^">]+)[">]')


def strip_comments_and_strings(text: str) -> str:
    """Blanks comment and string/char-literal contents while preserving
    every character position (newlines survive, so line/column arithmetic
    on the result maps straight back to the source)."""
    out = list(text)
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == '"' and i > 0 and text[i - 1] == "R":
            m = re.match(r'R"([^(\s\\]{0,16})\(', text[i - 1:i + 20])
            if m:
                delim = ")" + m.group(1) + '"'
                out[i - 1] = " "
                j = text.find(delim, i + 1)
                j = n if j < 0 else j + len(delim)
                for k in range(i, j):
                    if text[k] != "\n":
                        out[k] = " "
                i = j
            else:
                i = _skip_quoted(text, out, i, '"')
        elif c == '"':
            i = _skip_quoted(text, out, i, '"')
        elif c == "'":
            # C++14 digit separator (100'000), not a char literal
            if i > 0 and text[i - 1].isalnum() and i + 1 < n and \
                    text[i + 1].isalnum():
                i += 1
            else:
                i = _skip_quoted(text, out, i, "'")
        else:
            i += 1
    return "".join(out)


def _skip_quoted(text: str, out: List[str], i: int, quote: str) -> int:
    n = len(text)
    i += 1  # keep the opening quote
    while i < n:
        if text[i] == "\\":
            out[i] = " "
            if i + 1 < n and text[i + 1] != "\n":
                out[i + 1] = " "
            i += 2
            continue
        if text[i] == quote:
            return i + 1  # keep the closing quote
        if text[i] == "\n":  # unterminated on this line — bail out
            return i
        out[i] = " "
        i += 1
    return i


# --- structural scan ---------------------------------------------------------

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "new", "delete", "else", "do", "case", "default", "break", "continue",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "static_assert", "alignof", "decltype", "noexcept", "co_return",
    "co_await", "co_yield", "assert", "defined", "alignas", "try",
    "operator", "requires", "this",
}

_NAMESPACE_HDR_RE = re.compile(r"\bnamespace\s*(\w*)\s*$")
_CLASS_HDR_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:CAUSUMX_\w+(?:\([^)]*\))?\s+)?(\w+)"
    r"\s*(?:final\s*)?(?::(?!:).*)?$",
    re.DOTALL,
)
_ENUM_HDR_RE = re.compile(r"\benum\s+(?:class\s+|struct\s+)?(\w+)")
_MUTEX_MEMBER_RE = re.compile(r"\butil::(Mutex|SharedMutex|CondVar)\s+(\w+)\s*;")
_VIRTUAL_RE = re.compile(r"\bvirtual\b[^;{=]*?\b(\w+)\s*\(")
_LOCK_RE = re.compile(
    r"\butil::(MutexLock|WriterMutexLock|ReaderMutexLock)\s+\w+\s*[({]([^)}]*)[)}]"
)
_WAIT_RE = re.compile(r"\b([\w.\->]+)\s*\.\s*Wait\s*\(\s*([^)]*)\)")
_THROW_RE = re.compile(r"\bthrow\s+[^;]")
_CALL_RE = re.compile(
    r"(?P<q>(?:[\w\]\)]+\s*(?:::|\.|->)\s*)*)(?P<name>[A-Za-z_]\w*)\s*\("
)
_FN_REF_RE = re.compile(r"&\s*([A-Za-z_]\w*)\b\s*(?![(\w])")
_CATCH_RE = re.compile(r"\bcatch\s*\(([^)]*)\)")
_REQUIRES_RE = re.compile(
    r"\b(\w+)\s*\([^()]*\)\s*(?:const\s*)?"
    r"CAUSUMX_(?:REQUIRES|EXCLUSIVE_LOCKS_REQUIRED|REQUIRES_SHARED)"
    r"\s*\(([^)]*)\)"
)
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_LOCAL_DECL_RE = re.compile(
    r"(?:\bconst\s+)?\b([A-Z]\w+)(?:<[^<>;]*>)?\s*[&*]?\s+(\w+)\s*(?:=|;|\()"
)

_ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b"), "new"),
    (re.compile(r"\b(?:m|c|re)alloc\s*\("), "malloc/calloc/realloc"),
    (re.compile(r"\bstd::make_shared\b"), "std::make_shared"),
    (re.compile(r"\bstd::make_unique\b"), "std::make_unique"),
    (re.compile(
        r"\bstd::(?:vector|deque|map|set|unordered_map|unordered_set|list"
        r"|string|ostringstream|istringstream|stringstream|function)\b"
        r"(?:<[^;{}]*>)?\s+\w+\s*[({;=]"),
     "allocating local construction"),
    (re.compile(r"\bstd::to_string\s*\("), "std::to_string"),
    (re.compile(
        r"\.\s*(?:push_back|emplace_back|emplace|resize|reserve|assign"
        r"|insert|append)\s*\("),
     "container growth"),
    (re.compile(r"\+\s*std::string\b|\bstd::string\s*\("), "string temporary"),
]

# std calls that throw by contract. Unresolved calls outside this set are
# assumed non-throwing, keeping the exception check signal-driven.
THROWING_STD = {
    "at", "stoi", "stol", "stoll", "stoul", "stoull", "stof", "stod",
    "stold",
}

_SCOPE_NAMESPACE = "namespace"
_SCOPE_CLASS = "class"
_SCOPE_FUNCTION = "function"
_SCOPE_BLOCK = "block"
_SCOPE_ENUM = "enum"


@dataclass
class _Brace:
    open_pos: int
    close_pos: int
    kind: str
    name: str = ""
    parent: Optional["_Brace"] = None
    header: str = ""
    header_start: int = 0


class _Parser:
    def __init__(self, path: str, text: str):
        self.path = path
        self.raw_lines = text.splitlines()
        self.code = strip_comments_and_strings(text)
        self.nl_pos = [i for i, c in enumerate(self.code) if c == "\n"]
        self.ir = FileIR(path=path, raw_lines=self.raw_lines,
                         code_text=self.code)

    def line_of(self, pos: int) -> int:  # 1-based
        return bisect.bisect_right(self.nl_pos, pos) + 1

    def parse(self) -> FileIR:
        for idx, raw in enumerate(self.raw_lines):
            m = _INCLUDE_RE.match(raw)
            if m:
                self.ir.includes.append(
                    Include(idx + 1, m.group(2), m.group(1) == "<"))
        for ident in _IDENT_RE.findall(self.code):
            self.ir.used_names.add(ident)
        braces = self._match_braces()
        self._classify(braces)
        self._collect_classes(braces)
        self._collect_functions(braces)
        self._collect_provided(braces)
        return self.ir

    # -- brace structure ------------------------------------------------------

    def _match_braces(self) -> List[_Brace]:
        braces: List[_Brace] = []
        stack: List[_Brace] = []
        # header start: position after the previous ';', '{', '}' or
        # preprocessor line at the same nesting moment.
        last_break = 0
        breaks: List[int] = [0]  # per-depth header anchors
        i = 0
        code = self.code
        n = len(code)
        while i < n:
            c = code[i]
            if c == "#":
                # preprocessor directive: skip to end of (continued) line
                while i < n and code[i] != "\n":
                    if code[i] == "\\" and i + 1 < n and code[i + 1] == "\n":
                        i += 1
                    i += 1
                breaks[-1] = i + 1
            elif c in ";":
                breaks[-1] = i + 1
            elif c == "{":
                b = _Brace(open_pos=i, close_pos=n - 1, kind=_SCOPE_BLOCK,
                           parent=stack[-1] if stack else None,
                           header_start=breaks[-1],
                           header=code[breaks[-1]:i])
                braces.append(b)
                stack.append(b)
                breaks.append(i + 1)
            elif c == "}":
                if stack:
                    stack.pop().close_pos = i
                if len(breaks) > 1:
                    breaks.pop()
                breaks[-1] = i + 1
            i += 1
        _ = last_break
        return braces

    # -- classification -------------------------------------------------------

    def _classify(self, braces: List[_Brace]) -> None:
        for b in braces:
            hdr = b.header.strip()
            parent_kind = b.parent.kind if b.parent else _SCOPE_NAMESPACE
            if parent_kind in (_SCOPE_FUNCTION, _SCOPE_BLOCK, _SCOPE_ENUM):
                b.kind = _SCOPE_BLOCK
                continue
            m = _NAMESPACE_HDR_RE.search(hdr)
            if m:
                b.kind = _SCOPE_NAMESPACE
                b.name = m.group(1)
                continue
            m = _ENUM_HDR_RE.search(hdr)
            if m and "(" not in hdr:
                b.kind = _SCOPE_ENUM
                b.name = m.group(1)
                continue
            m = _CLASS_HDR_RE.search(hdr)
            if m and "(" not in hdr.split(":")[0]:
                b.kind = _SCOPE_CLASS
                b.name = m.group(1)
                continue
            name = self._function_name(hdr)
            if name is not None:
                b.kind = _SCOPE_FUNCTION
                b.name = name
            else:
                b.kind = _SCOPE_BLOCK

    @staticmethod
    def _function_name(hdr: str) -> Optional[str]:
        """The qualified name if `hdr` reads like a function-definition
        header (`ret Name::Sub(args) const noexcept : init_list`), else
        None."""
        if not hdr or hdr.endswith(("=", ",", "(", "[", "]")):
            return None
        # Find the first '(' at paren depth 0; the name precedes it.
        depth = 0
        first_open = -1
        for i, c in enumerate(hdr):
            if c == "(":
                if depth == 0:
                    first_open = i
                    break
            elif c in "<[":
                depth += 1
            elif c in ">]":
                depth = max(0, depth - 1)
        if first_open <= 0:
            return None
        m = re.search(r"((?:~?[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)\s*$",
                      hdr[:first_open])
        if m is None:
            return None
        qname = re.sub(r"\s+", "", m.group(1))
        last = qname.split("::")[-1].lstrip("~")
        if last in _KEYWORDS or not last:
            return None
        # Lambdas: `[...] (args)` — the name search above fails on ']', so
        # already rejected. Control flow rejected via keywords.
        # Reject calls-with-brace-arg shapes: a header holding `=` before
        # the name (assignment / default member init).
        eq = hdr.find("=")
        if 0 <= eq < first_open and "operator" not in hdr[:first_open]:
            return None
        # The parens must be balanced within the header (a definition's
        # argument list closes before the brace).
        if hdr.count("(") != hdr.count(")"):
            return None
        return qname

    # -- classes --------------------------------------------------------------

    def _collect_classes(self, braces: List[_Brace]) -> None:
        for b in braces:
            if b.kind != _SCOPE_CLASS:
                continue
            body = self.code[b.open_pos:b.close_pos + 1]
            info = ClassInfo(name=b.name, file=self.path,
                             line=self.line_of(b.open_pos))
            # Only direct members: mask nested class bodies out.
            masked = self._mask_nested(b, braces)
            for m in _MUTEX_MEMBER_RE.finditer(masked):
                kind = {"Mutex": "mutex", "SharedMutex": "shared_mutex",
                        "CondVar": "condvar"}[m.group(1)]
                info.mutex_members.append((m.group(2), kind))
            for m in _VIRTUAL_RE.finditer(body):
                if m.group(1) not in _KEYWORDS:
                    info.virtual_methods.append(m.group(1))
            for m in _REQUIRES_RE.finditer(masked):
                locks = [re.sub(r"\s+", "", x) for x in m.group(2).split(",")
                         if x.strip()]
                if m.group(1) not in _KEYWORDS and locks:
                    info.requires.setdefault(m.group(1), []).extend(locks)
            self.ir.classes.append(info)

    def _mask_nested(self, b: _Brace, braces: List[_Brace]) -> str:
        chars = list(self.code[b.open_pos:b.close_pos + 1])
        for other in braces:
            if other.parent is b and other.kind in (_SCOPE_CLASS,
                                                    _SCOPE_FUNCTION):
                for k in range(other.open_pos - b.open_pos,
                               min(other.close_pos + 1 - b.open_pos,
                                   len(chars))):
                    if chars[k] != "\n":
                        chars[k] = " "
        return "".join(chars)

    # -- functions ------------------------------------------------------------

    def _collect_functions(self, braces: List[_Brace]) -> None:
        for b in braces:
            if b.kind != _SCOPE_FUNCTION:
                continue
            ns_parts: List[str] = []
            cls: Optional[str] = None
            p = b.parent
            while p is not None:
                if p.kind == _SCOPE_NAMESPACE and p.name:
                    ns_parts.insert(0, p.name)
                elif p.kind == _SCOPE_CLASS:
                    ns_parts.insert(0, p.name)
                    if cls is None:
                        cls = p.name
                p = p.parent
            qparts = [q for q in b.name.split("::") if q]
            if len(qparts) > 1 and cls is None:
                cls = qparts[-2]
            fn = FunctionInfo(
                qualified_name="::".join(ns_parts + qparts),
                name=qparts[-1],
                cls=cls,
                file=self.path,
                start_line=self.line_of(b.header_start + len(b.header)
                                        - len(b.header.lstrip())),
                end_line=self.line_of(b.close_pos),
            )
            self._scan_params(fn, b.header)
            self._scan_body(fn, b, braces)
            self.ir.functions.append(fn)

    def _scan_params(self, fn: FunctionInfo, hdr: str) -> None:
        for m in _LOCAL_DECL_RE.finditer(hdr):
            tname, vname = m.group(1), m.group(2)
            if tname not in _KEYWORDS:
                fn.local_types.setdefault(vname, tname)
        # reference/pointer params: `const EvalEngine& base`
        for m in re.finditer(r"\b([A-Z]\w+)(?:<[^<>]*>)?\s*[&*]\s*(\w+)", hdr):
            fn.local_types.setdefault(m.group(2), m.group(1))

    def _scan_body(self, fn: FunctionInfo, b: _Brace,
                   braces: List[_Brace]) -> None:
        start, end = b.open_pos, b.close_pos
        body = self.code[start:end + 1]
        off = start

        def line(m_start: int) -> int:
            return self.line_of(off + m_start)

        # Innermost enclosing block for lock scope extents.
        inner = [x for x in braces
                 if x.open_pos >= start and x.close_pos <= end]

        def scope_end(pos: int) -> int:
            best = b
            for x in inner:
                if x.open_pos <= pos <= x.close_pos:
                    if x.open_pos > best.open_pos:
                        best = x
            return self.line_of(best.close_pos)

        for m in _LOCK_RE.finditer(body):
            fn.acquisitions.append(Acquisition(
                line=line(m.start()),
                kind="shared" if m.group(1) == "ReaderMutexLock"
                else "exclusive",
                lock_expr=re.sub(r"\s+", "", m.group(2)),
                scope_end_line=scope_end(off + m.start()),
            ))
        for m in _WAIT_RE.finditer(body):
            fn.waits.append(WaitSite(line(m.start()),
                                     re.sub(r"\s+", "", m.group(2))))
        for m in _THROW_RE.finditer(body):
            fn.throws.append(ThrowSite(
                line(m.start()), body[m.start():m.start() + 60].strip()))
        for pat, what in _ALLOC_PATTERNS:
            for m in pat.finditer(body):
                fn.allocs.append(AllocSite(line(m.start()), what))
        for m in _CALL_RE.finditer(body):
            name = m.group("name")
            if name in _KEYWORDS:
                continue
            qual = re.sub(r"\s+", "", m.group("q") or "")
            fn.calls.append(CallSite(line(m.start()), name, qual))
        for m in _FN_REF_RE.finditer(body):
            if m.group(1) not in _KEYWORDS:
                fn.fn_refs.append(m.group(1))
        for m in _LOCAL_DECL_RE.finditer(body):
            tname, vname = m.group(1), m.group(2)
            if tname not in _KEYWORDS:
                fn.local_types.setdefault(vname, tname)

        # try/catch regions: direct or nested child braces whose header
        # ends with `try`, their catch chain read from the text after.
        for x in inner + [b]:
            hdr = x.header.strip()
            if not (hdr == "try" or hdr.endswith(" try") or
                    hdr.endswith("\ttry") or hdr.endswith("\ntry")):
                continue
            region = self._scan_catches(x)
            if region is not None:
                fn.trys.append(region)

    def _scan_catches(self, try_brace: _Brace) -> Optional[TryRegion]:
        code = self.code
        pos = try_brace.close_pos + 1
        catch_all = catch_std = False
        end_pos = try_brace.close_pos
        while True:
            m = re.compile(r"\s*catch\s*\(([^)]*)\)\s*\{").match(code, pos)
            if m is None:
                break
            param = m.group(1).strip()
            if param == "...":
                catch_all = True
            elif "exception" in param or "_error" in param:
                catch_std = True
            depth = 0
            i = m.end() - 1
            while i < len(code):
                if code[i] == "{":
                    depth += 1
                elif code[i] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            end_pos = i
            pos = i + 1
        if end_pos == try_brace.close_pos:
            return None
        return TryRegion(
            start_line=self.line_of(try_brace.open_pos),
            body_end_line=self.line_of(try_brace.close_pos),
            end_line=self.line_of(end_pos),
            catch_all=catch_all,
            catch_std=catch_std,
        )

    # -- provided names (for unused-include) ----------------------------------

    def _collect_provided(self, braces: List[_Brace]) -> None:
        provided = self.ir.provided_names
        for b in braces:
            if b.kind == _SCOPE_CLASS:
                provided.add(b.name)
            elif b.kind == _SCOPE_ENUM:
                provided.add(b.name)
                for ident in _IDENT_RE.findall(
                        self.code[b.open_pos:b.close_pos]):
                    provided.add(ident)
            elif b.kind == _SCOPE_FUNCTION:
                in_class = any(p.kind == _SCOPE_CLASS
                               for p in self._ancestors(b))
                if not in_class:
                    provided.add(b.name.split("::")[-1])
        # Top-level text (outside every brace that is a class/function):
        top = list(self.code)
        for b in braces:
            if b.kind in (_SCOPE_CLASS, _SCOPE_FUNCTION, _SCOPE_ENUM,
                          _SCOPE_BLOCK):
                for k in range(b.open_pos, min(b.close_pos + 1, len(top))):
                    if top[k] != "\n":
                        top[k] = " "
        top_text = "".join(top)
        top_text = re.sub(
            r"__attribute__\s*\(\((?:[^()]|\([^()]*\))*\)\)", " ", top_text)
        for m in re.finditer(r"\b(?:using|typedef)\s+(\w+)\s*=", top_text):
            provided.add(m.group(1))
        for m in re.finditer(r"\bconstexpr\b[^;=(]*\b(\w+)\s*=", top_text):
            provided.add(m.group(1))
        # char classes exclude parens so the inner repetition can never
        # trade characters with the `\(...\)` group (no backtracking blowup)
        for m in re.finditer(
                r"\b([A-Za-z_]\w*)\s*\([^()]*(?:\([^()]*\)[^()]*)*\)"
                r"\s*(?:const\s*)?(?:noexcept\s*)?;", top_text):
            if m.group(1) not in _KEYWORDS:
                provided.add(m.group(1))
        for raw in self.raw_lines:
            m = re.match(r"\s*#\s*define\s+(\w+)", raw)
            if m:
                provided.add(m.group(1))

    @staticmethod
    def _ancestors(b: _Brace):
        p = b.parent
        while p is not None:
            yield p
            p = p.parent


def parse_file(path: str, repo_rel: str,
               text: Optional[str] = None) -> FileIR:
    if text is None:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    return _Parser(repo_rel.replace(os.sep, "/"), text).parse()


# --- allow-hatch -------------------------------------------------------------

ALLOW_RE = re.compile(r"//\s*causumx-analyzer:\s*allow\(([a-z\-,\s]+)\)(.*)$")


@dataclass
class AllowSite:
    file: str
    line: int  # 1-based, the line carrying the allow() marker
    rules: Set[str]
    reason: str
    target_line: int = 0  # the code line the hatch suppresses
    used: bool = False


def collect_allows(path: str, raw_lines: List[str]) -> List[AllowSite]:
    """An allow hatch is either trailing (code before the comment — it
    covers its own line) or standalone (a comment line — it covers the
    first code line after its comment block, so multi-line reasons
    work). The reason is everything after the rule list, plus any
    continuation comment lines."""
    allows = []
    for idx, raw in enumerate(raw_lines):
        m = ALLOW_RE.search(raw)
        if m is None:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        reason = m.group(2).strip()
        target = idx + 1  # 1-based: own line (trailing hatch)
        if not raw[:m.start()].strip():
            # standalone comment: skip continuation comment lines
            t = idx + 1
            while t < len(raw_lines) and \
                    raw_lines[t].lstrip().startswith("//") and \
                    ALLOW_RE.search(raw_lines[t]) is None:
                reason = (reason + " " +
                          raw_lines[t].lstrip().lstrip("/").strip()).strip()
                t += 1
            target = t + 1  # the first non-comment line
        allows.append(AllowSite(path, idx + 1, rules, reason,
                                target_line=target))
    return allows


def find_allow(allows: List[AllowSite], line: int,
               rule: str) -> Optional[AllowSite]:
    for a in allows:
        if rule in a.rules and line in (a.line, a.target_line):
            return a
    return None


CPP_EXTS = (".h", ".hpp", ".cc", ".cpp", ".cxx", ".inl")


def walk_cpp(root: str) -> List[str]:
    files = []
    for base, _dirs, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(CPP_EXTS):
                files.append(os.path.join(base, name))
    return sorted(files)
