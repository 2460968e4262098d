#!/usr/bin/env python3
"""Check the tree's project rules against what the compiler emitted.

    python3 ci/tree_rules.py BUILD_DIR

BUILD_DIR is a built CMake tree. Its CMakeCache.txt names the source
directory, and its compile_commands.json lists every object to scan.

Symbol rules. `nm` lists each object's undefined and weak symbols. Every
call leaves one, however it is written: through an alias, a macro or a
helper. A symbol that a ban in BANS matches is a finding, unless one of
the ban's allowances covers the object's source file. iostream-in-lib
looks only at objects that CMake archives into a lib*.a.

Token rules. The rules that have no symbol form match the tokens of every
.h and .cpp file under src/, tests/, bench/ and examples/. The lexer drops
comments and literals first, so a banned name in prose never counts.

Prints one line per finding: `path: rule: symbol; advice`, naming an
object's first banned symbol, or `path:line: rule: message`. The run also
fails when it scanned no object, when a listed object is missing, and
when an allowance matches nothing, so an allowance cannot outlive the
code it excused. Exit status: 0 when nothing was printed, 1 when
something was, 2 on a usage error. Needs python3 and nm from binutils.
"""
import bisect
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple


class Ban(NamedTuple):
    rule: str
    symbols: str          # regex, full match on the demangled name
    advice: str
    allow: dict           # source path, or directory ending in '/' -> reason
    libs_only: bool = False


BANS = [
    Ban("raw-parse",
        r"(__isoc(99|23)_)?(strto(d|f|ld|l|ll|ul|ull|imax|umax)|ato(f|i|l|ll)"
        r"|v?[fs]?scanf)",
        "parse with src/tools/parse.h, whose grammar rejects '10h' and '-1'",
        {}),
    Ban("ambient-rng",
        r"s?rand|rand_r|std::random_device::.*|std::\w+_engine<.*",
        "draw from a seeded stats::Rng (src/stats/rng.h) so runs replay",
        {}),
    Ban("thread-discipline",
        r"std::thread::_M_start_thread\(.*",
        "run work on the shared pool (src/exec/parallel.h)",
        {"src/exec/": "owns the thread pool",
         "src/serve/": "the daemon's accept, reader and dispatcher threads "
                       "wait on sockets, which would starve the pool",
         "src/sched/": "the coordinator's lease-renewal thread must tick "
                       "while the pool is busy with fleets",
         "tests/serve/client_retry_test.cpp": "a scripted peer serves while "
                                              "the client under test blocks"}),
    Ban("iostream-in-lib",
        r"std::w?(cout|cerr|clog|cin)|std::ios_base::Init::.*",
        "take a std::ostream& or return a string; only programs own the "
        "standard streams",
        {}, libs_only=True),
    Ban("raw-file-io",
        r"fread|fwrite|fopen(64)?|std::istream::read\(.*|std::ostream::write\(.*",
        "go through qrn_store, which checksums every byte it reads back",
        {"src/store/": "the checksummed shard layer",
         "tests/cli/cli_test.cpp": "drains the popen pipe of a spawned qrn",
         "tests/serve/serve_e2e_test.cpp": "drains the popen pipe of a "
                                           "spawned qrn"}),
    Ban("raw-fsync",
        r"f(data)?sync",
        "sync through store::sync_file or store::sync_directory",
        {"src/store/sync.cpp": "the one implementation of durability, whose "
                               "test seam pins seal's fsync order"}),
]

SOURCE_DIRS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = {".h", ".cpp"}


def allowed(path: str, key: str) -> bool:
    return path == key or (key.endswith("/") and path.startswith(key))


def source_dir(build: Path) -> Path:
    for line in (build / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve()
    raise ValueError(f"{build}/CMakeCache.txt names no CMAKE_HOME_DIRECTORY")


def objects(build: Path, root: Path) -> list[tuple[Path, str, bool]]:
    """(object, source path relative to root, archived in a lib*.a)."""
    found = []
    for entry in json.loads((build / "compile_commands.json").read_text()):
        args = entry.get("arguments") or shlex.split(entry["command"])
        out = entry.get("output") or args[args.index("-o") + 1]
        directory = Path(entry["directory"])
        source = Path(entry["file"]).resolve()
        rel = source.relative_to(root).as_posix() if source.is_relative_to(root) \
            else str(source)
        # CMake compiles target T's sources into CMakeFiles/T.dir/ and
        # archives a static library T as libT.a in the same directory.
        target = re.search(r"CMakeFiles/([^/]+)\.dir/", out)
        in_lib = bool(target) and (directory / f"lib{target[1]}.a").is_file()
        found.append((directory / out, rel, in_lib))
    return sorted(found, key=lambda o: o[1])


def references(paths: list[Path]) -> dict[Path, set[str]]:
    """Demangled undefined and weak symbols of each object."""
    refs = {path: set() for path in paths}
    line_re = re.compile(r"(.+?):(?:[0-9a-f]+)? +[UVWvw] (.+)")
    for start in range(0, len(paths), 64):
        batch = [str(p) for p in paths[start:start + 64]]
        out = subprocess.run(["nm", "-A", "-C", *batch], check=True,
                             capture_output=True, text=True).stdout
        for line in out.splitlines():
            if m := line_re.fullmatch(line):
                refs[Path(m[1])].add(m[2])
    return refs


def short(symbol: str) -> str:
    """`symbol` without glibc's __isoc99_/__isoc23_ alias prefix, template
    arguments or parameters, for display."""
    symbol = re.sub(r"^__isoc(99|23)_", "", symbol)
    while (bare := re.sub(r"<[^<>]*>", "", symbol)) != symbol:
        symbol = bare
    return symbol.split("(", 1)[0]


def symbol_findings(objs, refs) -> tuple[list[str], set]:
    """One finding per object and ban, naming the first banned symbol."""
    findings, used = [], set()
    for ban in BANS:
        pattern = re.compile(ban.symbols)
        for obj, rel, in_lib in objs:
            hits = sorted(short(s) for s in refs[obj] if pattern.fullmatch(s))
            if not hits or (ban.libs_only and not in_lib):
                continue
            keys = {(ban.rule, key) for key in ban.allow if allowed(rel, key)}
            used |= keys
            if not keys:
                findings.append(f"{rel}: {ban.rule}: {hits[0]}; {ban.advice}")
    return findings, used


# ---- token rules -----------------------------------------------------------

TOKEN = re.compile(r"""
    (?P<comment>//[^\n]*|/\*.*?(?:\*/|\Z))
  | (?P<include>\#[ \t]*include[ \t]*(?:<[^>\n]*>|"[^"\n]*"))
  | (?P<raw>(?:u8|[uUL])?R"(?P<delim>[^()\\\s"]{0,16})\(.*?(?:\)(?P=delim)"|\Z))
  | (?P<string>(?:u8|[uUL])?"(?:\\.|[^"\\\n])*"?)
  | (?P<char>(?:u8|[uUL])?'(?:\\.|[^'\\\n])*'?)
  | (?P<number>\.?\d(?:[eEpP][+-]|'?[\w.])*)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct>::|->|\S)
""", re.VERBOSE | re.DOTALL)


class Tok(NamedTuple):
    kind: str
    text: str
    line: int


def tokenize(text: str) -> list[Tok]:
    """Splices continued lines (translation phase 2), then lexes; each
    token keeps the physical line it starts on."""
    pieces, starts, offset = [], [], 0
    for line in re.split(r"(?<=\n)", text):
        starts.append(offset)
        spliced = re.sub(r"\\\r?\n\Z", "", line)
        pieces.append(spliced)
        offset += len(spliced)
    joined = "".join(pieces)
    return [Tok(m.lastgroup, m[0], bisect.bisect_right(starts, m.start()))
            for m in TOKEN.finditer(joined)]


def naked_new(path, code, comments):
    for i, t in enumerate(code):
        if t.kind != "ident" or t.text not in ("new", "delete"):
            continue
        prev = code[i - 1].text if i else ""
        if prev == "operator" or (t.text == "delete" and prev == "="):
            continue  # an allocation function or a deleted function
        yield t.line, (f"naked '{t.text}'; ownership lives in RAII types "
                       "(std::make_unique, containers)")


def using_namespace_header(path, code, comments):
    if not path.endswith(".h"):
        return
    for a, b in zip(code, code[1:]):
        if a.text == "using" and b.text == "namespace":
            yield a.line, ("'using namespace' in a header leaks into every "
                           "includer; qualify names instead")


PRECONDITION_ERRORS = {"invalid_argument", "logic_error", "domain_error",
                       "out_of_range", "length_error", "runtime_error",
                       "range_error"}


def throw_message(path, code, comments):
    # None of these types has a default constructor, so the compiler
    # already rejects `throw std::invalid_argument()`; an empty literal
    # is the one messageless form left.
    for i, t in enumerate(code):
        if t.text != "throw":
            continue
        j = i + 1
        while code[j].kind == "ident" and code[j + 1].text == "::":
            j += 2
        if code[j].text in PRECONDITION_ERRORS and \
                code[j + 1].text in ("(", "{") and code[j + 2].text == '""':
            yield t.line, (f"std::{code[j].text} thrown with an empty "
                           "message; say which contract was violated and by "
                           "what value")


def balanced_end(code, i, open_, close):
    """Index just past the bracket run that opens at code[i]."""
    depth = 0
    for j in range(i, len(code)):
        depth += (code[j].text == open_) - (code[j].text == close)
        if depth == 0:
            return j + 1
        if open_ == "<" and code[j].text in (";", "{", "}"):
            break
    return len(code)


def rng_stream(path, code, comments):
    lines = set()
    for i, t in enumerate(code):
        if t.text not in ("parallel_for", "parallel_map", "parallel_chunks"):
            continue
        open_ = i + 1
        if code[open_].text == "<":
            open_ = balanced_end(code, open_, "<", ">")
        if code[open_].text != "(":
            continue
        for j in range(open_, balanced_end(code, open_, "(", ")")):
            if code[j].text != "Rng" or code[j + 1].text == "::":
                continue  # Rng::stream is the schedule-independent form
            k = j + 2 if code[j + 1].kind == "ident" else j + 1
            if code[k].text in ("(", "{") and code[j].line not in lines:
                lines.add(code[j].line)
                yield code[j].line, ("Rng seeded inside a parallel region "
                                     "depends on the schedule; derive "
                                     "stats::Rng::stream(seed, index)")


BLOCKING_CALLS = {"join", "detach", "sleep_for", "sleep_until", "wait",
                  "wait_for", "wait_until", "accept", "connect", "recv",
                  "send", "poll", "select", "read_exact", "write_all",
                  "wait_readable", "fopen", "fread", "fwrite", "popen",
                  "system"}
BLOCKING_TYPES = {"ifstream", "ofstream", "fstream"}


def dispatcher_no_block(path, code, comments):
    regions, begin = [], None
    for c in comments:
        if "qrn:dispatcher(begin)" in c.text:
            if begin is not None:
                yield c.line, f"nested qrn:dispatcher(begin); line {begin} is open"
            else:
                begin = c.line
        elif "qrn:dispatcher(end)" in c.text:
            if begin is None:
                yield c.line, "qrn:dispatcher(end) without a begin"
            else:
                regions.append((begin, c.line))
                begin = None
    if begin is not None:
        yield begin, "qrn:dispatcher(begin) never closed"
    for i, t in enumerate(code):
        if t.kind != "ident" or not any(b < t.line < e for b, e in regions):
            continue
        if (t.text in BLOCKING_CALLS and code[i + 1].text == "(") \
                or t.text in BLOCKING_TYPES:
            yield t.line, (f"'{t.text}' blocks the dispatcher, which "
                           "serializes every store append; pop() is its "
                           "one wait")


TOKEN_RULES = {"naked-new": naked_new,
               "using-namespace-header": using_namespace_header,
               "throw-message": throw_message,
               "rng-stream": rng_stream,
               "dispatcher-no-block": dispatcher_no_block}


def token_findings(root: Path) -> tuple[list[str], int]:
    files = sorted(p for d in SOURCE_DIRS for p in (root / d).rglob("*")
                   if p.suffix in SOURCE_SUFFIXES and p.is_file())
    findings = []
    for file in files:
        rel = file.relative_to(root).as_posix()
        toks = tokenize(file.read_text(errors="replace"))
        # Three empty tokens past the end let a rule look ahead freely.
        code = [t for t in toks if t.kind != "comment"] + [Tok("end", "", 0)] * 3
        comments = [t for t in toks if t.kind == "comment"]
        hits = sorted((line, rule, message)
                      for rule, check in TOKEN_RULES.items()
                      for line, message in check(rel, code, comments))
        findings += [f"{rel}:{line}: {rule}: {message}"
                     for line, rule, message in hits]
    return findings, len(files)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    build = Path(sys.argv[1]).resolve()
    try:
        root = source_dir(build)
        objs = objects(build, root)
    except (OSError, ValueError) as error:
        print(f"tree_rules: {error}", file=sys.stderr)
        return 2

    failures = [f"{rel}: missing object {obj}" for obj, rel, _ in objs
                if not obj.is_file()]
    present = [o for o in objs if o[0].is_file()]
    if not present:
        failures.append(f"{build}: no object to scan")
    symbols, used = symbol_findings(present, references([o[0] for o in present]))
    stale = [f"{Path(__file__).name}: {ban.rule} allowance '{key}' matches "
             "nothing" for ban in BANS for key in ban.allow
             if (ban.rule, key) not in used]
    tokens, files = token_findings(root)
    for line in failures + symbols + tokens + stale:
        print(line)
    print(f"tree_rules: {len(present)} objects, {files} source files, "
          f"{len(symbols) + len(tokens)} findings, {len(stale)} stale "
          f"allowances", file=sys.stderr)
    return 1 if failures or symbols or tokens or stale else 0


if __name__ == "__main__":
    sys.exit(main())
