#!/usr/bin/env python3
"""ares-lint: repo-specific determinism & layering invariants.

Machine-checks the properties the reproducibility story rests on but that
clang-tidy cannot express (see DESIGN.md, "Static analysis & determinism
invariants"):

  unordered-iter   No range-for / iterator traversal of std::unordered_*
                   containers in the protocol layers (src/space, src/core,
                   src/gossip, src/dht, src/baselines). Hash order must
                   never leak into protocol decisions or protocol output.
                   Suppress a deliberate site with
                       // ares-lint: unordered-iter-ok(<reason>)
                   on the offending line or the line above.

  forbidden-api    No rand()/srand()/std::random_device/system_clock/
                   steady_clock/getenv in src/ outside src/common and
                   src/exp (bench/ and tests/ are out of scope). All
                   randomness flows through common/rng.h, all time through
                   the simulated clock, all environment access through
                   common/options.h. Suppress with
                       // ares-lint: forbidden-api-ok(<reason>)

  raw-descriptor-vec
                   No std::vector<AttrValue> / std::vector<CellIndex>
                   spellings in src/ outside src/common. Descriptor
                   coordinates store their elements inline: spell them
                   Point / CellCoord (or AttrValues for genuinely unbounded
                   value lists) so descriptor copies stay allocation-free.
                   Suppress with  // ares-lint: raw-descriptor-vec-ok(<reason>)

  shard-seam       No direct use of the sharded-execution primitives
                   (EventQueue::push_keyed, Simulator::alloc_key/
                   set_node_shard, and so Simulator::schedule(), which
                   needs a key from alloc_key) outside src/sim; the
                   private Simulator::run_window and the removed
                   schedule_coord stay banned by name. Cross-shard
                   communication flows through ONE seam —
                   Network::send()/node_timer() scheduling into the
                   Simulator mailboxes — so determinism arguments stay
                   local to src/sim. Suppress with
                       // ares-lint: shard-seam-ok(<reason>)

  net-seam         No raw socket/event-loop/process syscall headers
                   (<sys/socket.h>, <sys/epoll.h>, <unistd.h>, ...) outside
                   src/net. The UDP backend is the one place that talks to
                   the kernel; every other layer goes through net/process.h
                   wrappers, so protocol and experiment code stays
                   kernel-free (and trivially portable/simulable). Suppress
                   with  // ares-lint: net-seam-ok(<reason>)

  raw-mutex        No std::mutex/std::lock_guard/std::unique_lock/
                   std::condition_variable (or their headers, or naked
                   .lock()/.unlock()/.try_lock() calls) in src/ outside
                   src/common. All locking goes through ares::Mutex/
                   MutexLock/CondVar (common/mutex.h): annotated for clang
                   -Wthread-safety and rank-checked against the DESIGN.md
                   §11 lock hierarchy in debug builds. Suppress with
                       // ares-lint: raw-mutex-ok(<reason>)

  mutex-guard      Every ares::Mutex member declared in src/ outside
                   src/common must have at least one ARES_GUARDED_BY/
                   ARES_PT_GUARDED_BY/ARES_REQUIRES/ARES_ACQUIRE/
                   ARES_RELEASE/ARES_EXCLUDES user naming it in the same
                   file — a mutex that guards nothing is either dead or
                   its fields are unannotated. Suppress with
                       // ares-lint: mutex-guard-ok(<reason>)

  atomic-ordering  Every std::atomic declaration in src/ outside src/common
                   must carry an  // ordering: <why>  note on the same line
                   or in the comment block directly above, stating the
                   memory-order discipline and what publishes what.
                   Suppress with  // ares-lint: atomic-ordering-ok(<reason>)

  layering         Full declared include-DAG over src/ (generalizes the old
                   cmake/check_include_hygiene.cmake core/gossip rule).
                   Violations are reported per edge. Suppress a single
                   include with  // ares-lint: layering-ok(<reason>)

  codec            Every wire::Kind enumerator (src/runtime/message.h,
                   excluding the kInvalid/kTestBase sentinels) must have a
                   register_codec() call in src/wire/codecs.cpp and a
                   round-trip case in tests/wire/codec_test.cpp.

Suppressions must carry a non-empty reason; the per-rule suppression count
is asserted against tools/lint_baseline.txt so it can only shrink, never
silently grow (update deliberately with --update-baseline).

Usage:
  ares_lint.py [--root DIR] [--baseline FILE] [--update-baseline]
  ares_lint.py --self-test FIXTURE_DIR

Exit codes: 0 clean, 1 findings or baseline regression, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import bisect
import pathlib
import re
import sys

PROTOCOL_DIRS = ("space", "core", "gossip", "dht", "baselines")

# forbidden-api applies to src/ except these (harness/infrastructure code
# that legitimately touches the environment and wall clock).
API_EXEMPT_DIRS = ("common", "exp")

# Declared include-DAG: src/<dir> may include headers only from itself and
# the listed directories. Edges reflect the architecture:
#   common -> space/runtime -> sim -> protocol (core/gossip) ->
#   dht/baselines -> wire -> workload/exp
# core and gossip must stay simulator-independent (no sim/, no exp/): the
# same protocol code runs against the discrete-event Network, the
# LoopbackRuntime, and any future socket transport.
LAYERS = {
    "common": [],
    "space": ["common"],
    "runtime": ["common"],
    "net": ["common", "runtime"],
    "sim": ["common", "runtime"],
    "gossip": ["common", "space", "runtime"],
    "core": ["common", "space", "runtime", "gossip"],
    "dht": ["common", "space", "runtime", "sim"],
    "baselines": ["common", "space", "runtime", "sim", "core", "gossip"],
    "wire": ["common", "space", "runtime", "core", "gossip", "dht", "baselines"],
    "workload": ["common", "space"],
    "exp": ["common", "space", "runtime", "net", "sim", "core", "gossip", "dht",
            "baselines", "wire", "workload"],
}

CODEC_ENUM = "src/runtime/message.h"
CODEC_IMPL = "src/wire/codecs.cpp"
CODEC_TEST = "tests/wire/codec_test.cpp"
CODEC_SENTINELS = {"kInvalid", "kTestBase"}

# raw-descriptor-vec applies to src/ except src/common (where the canonical
# aliases themselves live).
RAW_DESCRIPTOR_VEC = [
    (re.compile(r"\bstd\s*::\s*vector\s*<\s*AttrValue\s*>"),
     "std::vector<AttrValue>",
     "Point (inline storage) or AttrValues (unbounded value lists)"),
    (re.compile(r"\bstd\s*::\s*vector\s*<\s*CellIndex\s*>"),
     "std::vector<CellIndex>", "CellCoord (inline storage)"),
]

# shard-seam applies to src/ except src/sim (where the engine and the one
# legitimate mailbox seam — Network — live). Simulator::schedule(), the
# keyed entry point, takes a key only alloc_key() makes, so the alloc_key
# pattern covers it.
SHARD_SEAM = [
    (re.compile(r"\bpush_keyed\s*\("), "EventQueue::push_keyed()"),
    (re.compile(r"\balloc_key\s*\("),
     "Simulator::alloc_key() (the key for Simulator::schedule())"),
    (re.compile(r"\bset_node_shard\s*\("), "Simulator::set_node_shard()"),
    (re.compile(r"\brun_window\s*\("),
     "run_window() (private to Simulator; drive it with run/run_until/step)"),
    (re.compile(r"\bschedule_coord\s*\("),
     "schedule_coord() (removed; coordinator events use "
     "Simulator::schedule_at())"),
]

# raw-mutex applies to src/ except src/common (where the annotated
# ares::Mutex wrappers over the std primitives live).
RAW_MUTEX = [
    (re.compile(r"\bstd\s*::\s*(?:recursive_|timed_|recursive_timed_|"
                r"shared_)?mutex\b"),
     "a std mutex type"),
    (re.compile(r"\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|"
                r"shared_lock)\b"),
     "a std lock guard"),
    (re.compile(r"\bstd\s*::\s*condition_variable(?:_any)?\b"),
     "std::condition_variable"),
    (re.compile(r"(?:\.|->)\s*(?:try_lock|lock|unlock)\s*\(\s*\)"),
     "a naked lock()/unlock()/try_lock() call"),
]
RAW_MUTEX_HEADERS = frozenset(("mutex", "condition_variable", "shared_mutex"))

# mutex-guard: an ares::Mutex member declaration, and the annotation macros
# that count as "using" it.
MUTEX_MEMBER = re.compile(r"\b(?:ares\s*::\s*)?Mutex\s+([A-Za-z_]\w*)\s*[;{(=]")
ANNOTATION_USE = (r"ARES_(?:PT_GUARDED_BY|GUARDED_BY|REQUIRES|ACQUIRE|"
                  r"RELEASE|EXCLUDES)")

ATOMIC_DECL = re.compile(r"\bstd\s*::\s*atomic\s*<")

FORBIDDEN_API = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock"),
    (re.compile(r"\bgetenv\b"), "getenv"),
]

# net-seam: syscall headers whose use is confined to src/net. Deliberately
# the socket/event-loop/process set only — <sys/resource.h> (rusage in
# bench_json) and friends are not transport seams.
NET_SEAM_HEADERS = frozenset((
    "sys/socket.h", "sys/epoll.h", "sys/select.h", "sys/wait.h",
    "netinet/in.h", "arpa/inet.h", "unistd.h", "poll.h", "fcntl.h",
))

UNORDERED_DECL = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
SUPPRESS = re.compile(r"//\s*ares-lint:\s*([a-z-]+)-ok\(([^)\n]*)\)")
RANGE_FOR = re.compile(
    r"\bfor\s*\([^;()]*?:\s*([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)"
    r"\s*(\(\s*\))?\s*\)")
BEGIN_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*c?begin\s*\(")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
ANGLE_INCLUDE = re.compile(r'^\s*#\s*include\s+<([^>]+)>', re.M)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        loc = f"{self.path}:{self.line}" if self.line else str(self.path)
        return f"{loc}: [{self.rule}] {self.message}"


class SourceFile:
    """One scanned file: raw text, comment-stripped text, suppressions."""

    def __init__(self, path: pathlib.Path, rel: str):
        self.path = path
        self.rel = rel
        self.text = path.read_text(encoding="utf-8", errors="replace")
        # Offsets of line starts, for offset -> line-number mapping.
        self.line_starts = [0]
        for m in re.finditer(r"\n", self.text):
            self.line_starts.append(m.end())
        # Suppression tags by line number (collected before comments are
        # stripped, since the tags live in comments).
        self.suppressions = {}  # line -> (rule, reason)
        for m in SUPPRESS.finditer(self.text):
            self.suppressions[self.line_of(m.start())] = (
                m.group(1), m.group(2).strip())
        self.code = strip_comments(self.text)

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset)

    def suppressed(self, rule: str, line: int):
        """The tag for `rule` on `line` or the line above, if any."""
        for cand in (line, line - 1):
            tag = self.suppressions.get(cand)
            if tag and tag[0] == rule:
                return tag
        return None


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments and string/char literals, keeping
    offsets (and thus line numbers) stable."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def balanced_angle_end(text: str, start: int) -> int:
    """Index just past the matching '>' for the '<' at text[start]."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def last_component(expr: str) -> str:
    """Final identifier of `a.b->c` (the member actually iterated)."""
    return re.split(r"\.|->", expr)[-1].strip()


def iter_files(root: pathlib.Path, subdirs):
    for sub in subdirs:
        d = root / sub
        if not d.is_dir():
            continue
        for p in sorted(d.rglob("*")):
            if p.suffix in (".h", ".hpp", ".cpp", ".cc"):
                yield p


class Linter:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.findings = []
        self.suppression_counts = {"unordered-iter": 0, "forbidden-api": 0,
                                   "raw-descriptor-vec": 0, "layering": 0,
                                   "shard-seam": 0, "net-seam": 0,
                                   "raw-mutex": 0, "mutex-guard": 0,
                                   "atomic-ordering": 0}

    def add(self, rule, sf, offset_or_line, message, offset=True):
        line = sf.line_of(offset_or_line) if offset else offset_or_line
        tag = sf.suppressed(rule, line)
        if tag is not None:
            if not tag[1]:
                self.findings.append(Finding(
                    rule, sf.rel, line,
                    f"suppression tag without a reason: every {rule}-ok() "
                    "needs a justification"))
            else:
                self.suppression_counts[rule] += 1
            return
        self.findings.append(Finding(rule, sf.rel, line, message))

    def load(self, rel: str):
        p = self.root / rel
        if not p.is_file():
            return None
        return SourceFile(p, rel)

    # -- rule: unordered-iter ------------------------------------------------

    def unordered_names(self, files):
        """Names declared (anywhere in the protocol layers) with an
        unordered container type: members, locals, params, aliases."""
        names = set()
        for sf in files:
            for m in UNORDERED_DECL.finditer(sf.code):
                end = balanced_angle_end(sf.code, m.end() - 1)
                if end < 0:
                    continue
                after = sf.code[end:end + 160]
                dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={(,)]", after)
                if dm:
                    names.add(dm.group(1))
            # `using Foo = std::unordered_map<...>` aliases: treat variables
            # declared with the alias as unordered too.
            for m in re.finditer(
                    r"\busing\s+([A-Za-z_]\w*)\s*=\s*std\s*::\s*unordered_",
                    sf.code):
                alias = m.group(1)
                for dm in re.finditer(
                        r"\b" + re.escape(alias) + r"\s+([A-Za-z_]\w*)\s*[;={]",
                        sf.code):
                    names.add(dm.group(1))
        return names

    def check_unordered_iter(self):
        files = [sf for sf in (SourceFile(p, str(p.relative_to(self.root)))
                               for p in iter_files(self.root / "src",
                                                   PROTOCOL_DIRS))]
        names = self.unordered_names(files)
        if not names:
            return
        for sf in files:
            for m in RANGE_FOR.finditer(sf.code):
                target = last_component(m.group(1))
                if target in names:
                    self.add("unordered-iter", sf, m.start(),
                             f"range-for over unordered container '{m.group(1)}'"
                             " — hash order leaks into traversal; use a "
                             "FlatMap/FlatSet or sorted_elements() from "
                             "common/sorted.h")
            for m in BEGIN_CALL.finditer(sf.code):
                if m.group(1) in names:
                    self.add("unordered-iter", sf, m.start(),
                             f"iterator traversal of unordered container "
                             f"'{m.group(1)}' — hash order leaks; use a "
                             "FlatMap/FlatSet or sorted_elements() from "
                             "common/sorted.h")

    # -- rule: forbidden-api -------------------------------------------------

    def check_forbidden_api(self):
        src = self.root / "src"
        if not src.is_dir():
            return
        scan_dirs = [d.name for d in sorted(src.iterdir())
                     if d.is_dir() and d.name not in API_EXEMPT_DIRS]
        for p in iter_files(src, scan_dirs):
            sf = SourceFile(p, str(p.relative_to(self.root)))
            for rx, what in FORBIDDEN_API:
                for m in rx.finditer(sf.code):
                    self.add("forbidden-api", sf, m.start(),
                             f"{what} in protocol/runtime code — randomness "
                             "must flow through common/rng.h, time through "
                             "the simulated clock, environment access "
                             "through common/options.h")

    # -- rule: raw-descriptor-vec --------------------------------------------

    def check_raw_descriptor_vec(self):
        src = self.root / "src"
        if not src.is_dir():
            return
        scan_dirs = [d.name for d in sorted(src.iterdir())
                     if d.is_dir() and d.name != "common"]
        for p in iter_files(src, scan_dirs):
            sf = SourceFile(p, str(p.relative_to(self.root)))
            for rx, what, use in RAW_DESCRIPTOR_VEC:
                for m in rx.finditer(sf.code):
                    self.add("raw-descriptor-vec", sf, m.start(),
                             f"{what} outside common/ — spell it {use}; "
                             "descriptor coordinates store elements inline "
                             "(common/inline_vec.h) so copies never allocate")

    # -- rule: raw-mutex -----------------------------------------------------

    def check_raw_mutex(self):
        src = self.root / "src"
        if not src.is_dir():
            return
        scan_dirs = [d.name for d in sorted(src.iterdir())
                     if d.is_dir() and d.name != "common"]
        for p in iter_files(src, scan_dirs):
            sf = SourceFile(p, str(p.relative_to(self.root)))
            # Raw text: includes live outside the stripped code.
            for m in ANGLE_INCLUDE.finditer(sf.text):
                if m.group(1) in RAW_MUTEX_HEADERS:
                    self.add("raw-mutex", sf, m.start(),
                             f"<{m.group(1)}> outside src/common — locking "
                             "goes through ares::Mutex/MutexLock/CondVar "
                             "(common/mutex.h), annotated for -Wthread-safety "
                             "and rank-checked in debug builds")
            for rx, what in RAW_MUTEX:
                for m in rx.finditer(sf.code):
                    self.add("raw-mutex", sf, m.start(),
                             f"{what} outside src/common — use ares::Mutex/"
                             "MutexLock/CondVar (common/mutex.h) so the "
                             "thread-safety analysis and the lock-rank "
                             "checker see the critical section "
                             "(DESIGN.md §11)")

    # -- rule: mutex-guard ---------------------------------------------------

    def check_mutex_guard(self):
        src = self.root / "src"
        if not src.is_dir():
            return
        scan_dirs = [d.name for d in sorted(src.iterdir())
                     if d.is_dir() and d.name != "common"]
        for p in iter_files(src, scan_dirs):
            sf = SourceFile(p, str(p.relative_to(self.root)))
            for m in MUTEX_MEMBER.finditer(sf.code):
                name = m.group(1)
                if re.search(ANNOTATION_USE + r"\s*\([^)]*\b" +
                             re.escape(name) + r"\b", sf.code):
                    continue
                self.add("mutex-guard", sf, m.start(),
                         f"ares::Mutex '{name}' has no ARES_GUARDED_BY/"
                         "ARES_REQUIRES/... user in this file — annotate "
                         "what it guards (or delete it); an unannotated "
                         "mutex is invisible to -Wthread-safety "
                         "(DESIGN.md §11)")

    # -- rule: atomic-ordering -----------------------------------------------

    def ordering_note_near(self, sf, line):
        """True when raw line `line` carries an `ordering:` note, or the
        contiguous //-comment block directly above it does."""
        lines = sf.text.splitlines()
        if line - 1 < len(lines) and "ordering:" in lines[line - 1]:
            return True
        k = line - 1
        while k >= 1 and re.match(r"\s*//", lines[k - 1]):
            if "ordering:" in lines[k - 1]:
                return True
            k -= 1
        return False

    def check_atomic_ordering(self):
        src = self.root / "src"
        if not src.is_dir():
            return
        scan_dirs = [d.name for d in sorted(src.iterdir())
                     if d.is_dir() and d.name != "common"]
        for p in iter_files(src, scan_dirs):
            sf = SourceFile(p, str(p.relative_to(self.root)))
            for m in ATOMIC_DECL.finditer(sf.code):
                line = sf.line_of(m.start())
                if self.ordering_note_near(sf, line):
                    continue
                self.add("atomic-ordering", sf, m.start(),
                         "std::atomic without an `// ordering:` note — state "
                         "the memory-order discipline (relaxed? release/"
                         "acquire pair?) and what publishes what, on the "
                         "declaration line or in the comment block above")

    # -- rule: shard-seam ----------------------------------------------------

    def check_shard_seam(self):
        src = self.root / "src"
        if not src.is_dir():
            return
        scan_dirs = [d.name for d in sorted(src.iterdir())
                     if d.is_dir() and d.name != "sim"]
        for p in iter_files(src, scan_dirs):
            sf = SourceFile(p, str(p.relative_to(self.root)))
            for rx, what in SHARD_SEAM:
                for m in rx.finditer(sf.code):
                    self.add("shard-seam", sf, m.start(),
                             f"{what} outside src/sim — cross-shard state "
                             "moves only through the Network send/timer seam "
                             "(sim/network.h); direct shard scheduling "
                             "bypasses the determinism contract "
                             "(DESIGN.md, 'Sharded execution')")

    # -- rule: net-seam ------------------------------------------------------

    def check_net_seam(self):
        src = self.root / "src"
        if not src.is_dir():
            return
        scan_dirs = [d.name for d in sorted(src.iterdir())
                     if d.is_dir() and d.name != "net"]
        for p in iter_files(src, scan_dirs):
            sf = SourceFile(p, str(p.relative_to(self.root)))
            # Raw text (like layering): includes live outside stripped code.
            for m in ANGLE_INCLUDE.finditer(sf.text):
                if m.group(1) in NET_SEAM_HEADERS:
                    self.add("net-seam", sf, m.start(),
                             f"<{m.group(1)}> outside src/net — raw socket/"
                             "process syscalls are confined to the UDP "
                             "backend; go through the net/process.h wrappers "
                             "so every other layer stays kernel-free")

    # -- rule: layering ------------------------------------------------------

    def check_layering(self):
        src = self.root / "src"
        if not src.is_dir():
            return
        edge_violations = {}  # (from_dir, to_dir) -> [finding]
        for d in sorted(src.iterdir()):
            if not d.is_dir():
                continue
            layer = d.name
            allowed = set(LAYERS.get(layer, [])) | {layer}
            for p in iter_files(src, [layer]):
                sf = SourceFile(p, str(p.relative_to(self.root)))
                # Raw text, not comment-stripped code: the stripper blanks
                # string literals, which would erase the include paths (a
                # `// #include` comment can't match the ^#include anchor).
                for m in INCLUDE.finditer(sf.text):
                    header = m.group(1)
                    target = header.split("/", 1)[0] if "/" in header else None
                    if target is None or target not in LAYERS:
                        continue  # relative or external include: not an edge
                    if target in allowed:
                        continue
                    line = sf.line_of(m.start())
                    tag = sf.suppressed("layering", line)
                    if tag is not None and tag[1]:
                        self.suppression_counts["layering"] += 1
                        continue
                    edge_violations.setdefault((layer, target), []).append(
                        (sf.rel, line, header))
        for (frm, to), sites in sorted(edge_violations.items()):
            allowed = ", ".join(LAYERS.get(frm, [])) or "(nothing)"
            for rel, line, header in sites:
                self.findings.append(Finding(
                    "layering", rel, line,
                    f'forbidden edge src/{frm} -> src/{to} (include "{header}"); '
                    f"src/{frm} may include only: {allowed}"))

    # -- rule: codec ---------------------------------------------------------

    def check_codec(self):
        enum_sf = self.load(CODEC_ENUM)
        if enum_sf is None:
            return  # repo without a wire layer (fixture trees)
        em = re.search(r"enum\s+class\s+Kind[^{]*\{(.*?)\}", enum_sf.code,
                       re.S)
        if em is None:
            self.findings.append(Finding(
                "codec", CODEC_ENUM, 0, "could not locate 'enum class Kind'"))
            return
        kinds = []
        for m in re.finditer(r"\b(k[A-Z]\w*)\s*=?", em.group(1)):
            if m.group(1) not in CODEC_SENTINELS:
                kinds.append((m.group(1),
                              enum_sf.line_of(em.start(1) + m.start())))
        impl_sf = self.load(CODEC_IMPL)
        test_sf = self.load(CODEC_TEST)
        impl = impl_sf.code if impl_sf else ""
        test = test_sf.code if test_sf else ""
        for kind, line in kinds:
            if not re.search(r"register_codec\s*\(\s*Kind\s*::\s*" + kind + r"\b",
                             impl):
                self.findings.append(Finding(
                    "codec", CODEC_ENUM, line,
                    f"Kind::{kind} has no register_codec() call in "
                    f"{CODEC_IMPL} — every wire kind ships with a codec"))
            if not re.search(r"\bKind\s*::\s*" + kind + r"\b", test):
                self.findings.append(Finding(
                    "codec", CODEC_ENUM, line,
                    f"Kind::{kind} has no round-trip case in {CODEC_TEST} — "
                    "every wire kind gets encode/decode property coverage"))

    def run(self):
        self.check_unordered_iter()
        self.check_forbidden_api()
        self.check_raw_descriptor_vec()
        self.check_raw_mutex()
        self.check_mutex_guard()
        self.check_atomic_ordering()
        self.check_shard_seam()
        self.check_net_seam()
        self.check_layering()
        self.check_codec()
        return self.findings


# ---- baseline -----------------------------------------------------------------


def read_baseline(path: pathlib.Path):
    counts = {}
    if not path.is_file():
        return counts
    for raw in path.read_text().splitlines():
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        rule, _, num = ln.partition(" ")
        counts[rule] = int(num)
    return counts


def write_baseline(path: pathlib.Path, counts):
    lines = ["# ares-lint suppression baseline: per-rule count of documented",
             "# ares-lint:<rule>-ok(reason) tags. CI asserts the live count",
             "# never exceeds these numbers; shrink freely, grow deliberately",
             "# (tools/ares_lint.py --update-baseline)."]
    for rule in sorted(counts):
        lines.append(f"{rule} {counts[rule]}")
    path.write_text("\n".join(lines) + "\n")


# ---- self-test ----------------------------------------------------------------


def self_test(fixture_root: pathlib.Path) -> int:
    bad = Linter(fixture_root / "bad_tree")
    bad_findings = bad.run()
    by_rule = {}
    for f in bad_findings:
        by_rule.setdefault(f.rule, []).append(f)
    failures = []
    expect = {
        "unordered-iter": 2,       # range-for + .begin() traversal
        "forbidden-api": 2,        # random_device + getenv
        "raw-descriptor-vec": 2,   # vector<AttrValue> + vector<CellIndex>
        "raw-mutex": 2,            # <mutex> include + std::lock_guard
        "mutex-guard": 2,          # two unannotated ares::Mutex members
        "atomic-ordering": 2,      # two std::atomic decls without a note
        "shard-seam": 2,           # push_keyed + alloc_key outside src/sim
        "net-seam": 3,             # sys/socket.h + sys/epoll.h + unistd.h
        "layering": 2,             # gossip -> sim, gossip -> exp
        "codec": 2,                # kPong: missing registration + missing test
    }
    for rule, minimum in expect.items():
        got = len(by_rule.get(rule, []))
        if got < minimum:
            failures.append(
                f"bad_tree: expected >= {minimum} '{rule}' findings, got {got}")
    clean = Linter(fixture_root / "clean_tree")
    clean_findings = clean.run()
    if clean_findings:
        failures.append("clean_tree: expected no findings, got:")
        failures += [f"  {f}" for f in clean_findings]
    if clean.suppression_counts.get("unordered-iter") != 1:
        failures.append(
            "clean_tree: expected exactly 1 documented unordered-iter "
            f"suppression, got {clean.suppression_counts}")
    if failures:
        print("ares-lint self-test FAILED:")
        for f in failures:
            print(" ", f)
        print("\nbad_tree findings were:")
        for f in bad_findings:
            print(" ", f)
        return 1
    print(f"ares-lint self-test OK: bad_tree raised "
          f"{len(bad_findings)} findings across {len(by_rule)} rules; "
          "clean_tree is clean with 1 documented suppression")
    return 0


# ---- main ---------------------------------------------------------------------


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".", help="repo root (default: cwd)")
    ap.add_argument("--baseline", default=None,
                    help="suppression baseline file "
                         "(default: <root>/tools/lint_baseline.txt)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline with the current counts")
    ap.add_argument("--self-test", metavar="FIXTURE_DIR",
                    help="run against the bad/clean fixture trees and verify "
                         "every rule fires (and only where it should)")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(pathlib.Path(args.self_test))

    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"ares-lint: no src/ under {root}", file=sys.stderr)
        return 2

    linter = Linter(root)
    findings = linter.run()
    for f in findings:
        print(f)

    baseline_path = pathlib.Path(args.baseline) if args.baseline \
        else root / "tools" / "lint_baseline.txt"
    if args.update_baseline:
        write_baseline(baseline_path, linter.suppression_counts)
        print(f"ares-lint: baseline updated: {linter.suppression_counts}")
    else:
        baseline = read_baseline(baseline_path)
        for rule, count in sorted(linter.suppression_counts.items()):
            allowed = baseline.get(rule, 0)
            if count > allowed:
                print(f"{baseline_path}: [baseline] {rule} suppressions grew: "
                      f"{count} > {allowed} — remove the new tag or update "
                      "the baseline deliberately (--update-baseline)")
                findings.append(None)  # force failure

    if findings:
        n = len(findings)
        print(f"\nares-lint: {n} finding{'s' if n != 1 else ''}", file=sys.stderr)
        return 1
    print(f"ares-lint OK: {linter.suppression_counts} documented suppressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
