#!/usr/bin/env python3
"""Report library functions that no shipped program links.

    python3 ci/dead_symbols.py WORK_DIR

Configures and builds the root project in WORK_DIR/root and perfbench/ in
WORK_DIR/perfbench, both at -O0 with one section per function and data
object, and links them with --gc-sections. Each program then keeps exactly
the functions its entry points reach. -O0 matters: an optimizing build
inlines a caller's only call and clones functions, so a function that is
called can read as unlinked.

Every strong text symbol (nm type T) of every lib*.a in the root build is
compared with the union of the symbols of every executable in both builds
outside tests/. The test binaries do not count: a function only a test
calls is dead code to every user. A function a test cannot do without (a
test seam, or the reference an optimized path is checked against) is kept
by one line in ci/dead_symbols.allow: its mangled name, then a comment
with the demangled name and the test that needs it.

Prints each unlinked symbol that the allowlist does not name, and each
allowlist entry that is now linked or no longer defined, so the list
cannot rot. Exit status: 0 when nothing was printed, 1 when something
was, 2 on a usage error or a failed build. Needs python3, cmake and
binutils (nm, c++filt).
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "ci" / "dead_symbols.allow"
ELF_MAGIC = b"\x7fELF"


def configure_and_build(source: Path, build: Path) -> bool:
    configure = [
        "cmake", "-S", str(source), "-B", str(build),
        "-DCMAKE_BUILD_TYPE=Debug",
        "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
        "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
    ]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for command in (configure, ["cmake", "--build", str(build), "-j", jobs]):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def executables(build: Path) -> list[Path]:
    """Every ELF executable under `build`, minus tests/ and CMake's probes."""
    found = []
    for directory, subdirs, files in os.walk(build):
        subdirs[:] = [d for d in subdirs if d != "CMakeFiles"
                      and not (Path(directory) == build and d == "tests")]
        for name in files:
            path = Path(directory) / name
            if not os.access(path, os.X_OK):
                continue
            with open(path, "rb") as f:
                if f.read(4) == ELF_MAGIC:
                    found.append(path)
    return sorted(found)


def nm(path: Path) -> list[tuple[str, str]]:
    """(type, name) of every symbol `path` defines."""
    out = subprocess.run(["nm", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    symbols = []
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3:
            symbols.append((fields[1], fields[2]))
    return symbols


def demangle(names: list[str]) -> dict[str, str]:
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def read_allowlist() -> dict[str, int]:
    """Mangled name -> line number of each allowlist entry."""
    entries = {}
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), start=1):
        name = line.split("#", 1)[0].strip()
        if name:
            entries[name] = number
    return entries


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    work = Path(sys.argv[1]).resolve()
    root_build, bench_build = work / "root", work / "perfbench"
    for source, build in ((ROOT, root_build), (ROOT / "perfbench", bench_build)):
        if not configure_and_build(source, build):
            print(f"dead_symbols: building {source} failed", file=sys.stderr)
            return 2

    programs = executables(root_build) + executables(bench_build)
    linked = {name for program in programs for _, name in nm(program)}
    defined = {}  # strong text symbol -> the archive that defines it
    for archive in sorted(root_build.rglob("lib*.a")):
        for kind, name in nm(archive):
            if kind == "T":
                defined[name] = archive.name
    allowed = read_allowlist()

    unlinked = sorted(name for name in defined
                      if name not in linked and name not in allowed)
    stale = sorted((line, name) for name, line in allowed.items()
                   if name in linked or name not in defined)
    pretty = demangle(unlinked + [name for _, name in stale])
    for name in unlinked:
        print(f"unlinked: {pretty[name]}  [{name}] in {defined[name]}")
    for line, name in stale:
        why = "is linked" if name in linked else "is defined by no library"
        print(f"{ALLOWLIST.name}:{line}: {pretty[name]} {why}  [{name}]")
    print(f"dead_symbols: {len(programs)} programs, {len(defined)} library "
          f"functions, {len(unlinked)} unlinked, {len(stale)} stale allowlist "
          "entries", file=sys.stderr)
    return 1 if unlinked or stale else 0


if __name__ == "__main__":
    sys.exit(main())
