#!/usr/bin/env python3
"""Docs link check: fails when README or docs/ reference a missing file, a
nonexistent bench/example target, or an HSDB_* identifier the tree no
longer has.

Checks, over README.md and every docs/*.md:
  1. Markdown links `[text](path)` whose path is repo-relative (not a URL
     or pure anchor) must resolve to an existing file or directory,
     relative to the markdown file's own location.
  2. Runnable-target mentions `./build/<name>` (and bare bench/example
     target names in backticks) must correspond to a source file:
     example_<x> -> examples/<x>.cpp, everything else -> bench/<name>.cc.
  3. Every `HSDB_[A-Z0-9_]+` identifier (macro, CMake option, environment
     variable; also in the `-DHSDB_...` form) must occur as a whole
     identifier somewhere under src/, bench/, tools/, tests/, examples/,
     perfbench/ or in CMakeLists.txt, so a removed switch cannot stay
     documented. A mention ending in `_` (a prefix such as `HSDB_BENCH_`)
     passes when some identifier starts with it.

Run from anywhere: paths resolve against the repository root (the parent
of this script's directory). Exit code 0 = clean, 1 = broken references.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
TARGET_RE = re.compile(
    r"(?:\./)?build/((?:example_|fig|micro_|ablation_)[A-Za-z0-9_]+)")
BARE_TARGET_RE = re.compile(
    r"`((?:fig[0-9a-z_]+|micro_[a-z_]+|ablation_[a-z_]+|example_[a-z_]+))`")
# A doc mention: a whole identifier, or one right after a `-D` flag.
DOC_IDENT_RE = re.compile(r"(?:(?<=-D)|(?<![A-Za-z0-9_]))(HSDB_[A-Z0-9_]+)")
SOURCE_IDENT_RE = re.compile(r"HSDB_[A-Z0-9_]+")
SOURCE_ROOTS = ("src", "bench", "tools", "tests", "examples", "perfbench",
                "CMakeLists.txt")


def source_identifiers():
    """Every HSDB_* identifier that occurs in the source roots."""
    idents = set()
    for root in SOURCE_ROOTS:
        path = REPO / root
        files = [path] if path.is_file() else path.rglob("*")
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                text = f.read_bytes().decode("utf-8", errors="ignore")
                idents.update(SOURCE_IDENT_RE.findall(text))
    return idents


def target_source(name):
    """Source file a build-target name must correspond to."""
    if name.startswith("example_"):
        return REPO / "examples" / (name[len("example_"):] + ".cpp")
    return REPO / "bench" / (name + ".cc")


def check_file(md_path, idents):
    problems = []
    text = md_path.read_text(encoding="utf-8")

    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (md_path.parent / path).resolve()
        if not resolved.exists():
            problems.append(f"{md_path.relative_to(REPO)}: broken link "
                            f"'{target}' (no file {path})")

    names = set(TARGET_RE.findall(text)) | set(BARE_TARGET_RE.findall(text))
    for name in sorted(names):
        src = target_source(name)
        if not src.exists():
            problems.append(f"{md_path.relative_to(REPO)}: references "
                            f"target '{name}' but {src.relative_to(REPO)} "
                            f"does not exist")

    for name in sorted(set(DOC_IDENT_RE.findall(text))):
        known = (any(i.startswith(name) for i in idents)
                 if name.endswith("_") else name in idents)
        if not known:
            problems.append(f"{md_path.relative_to(REPO)}: names '{name}', "
                            f"which occurs nowhere under "
                            f"{', '.join(SOURCE_ROOTS)}")
    return problems


def main():
    md_files = [REPO / "README.md"]
    md_files += sorted((REPO / "docs").glob("*.md"))
    missing = [p for p in md_files if not p.exists()]
    if missing:
        for p in missing:
            print(f"ERROR: expected doc {p.relative_to(REPO)} is missing")
        return 1

    idents = source_identifiers()
    problems = []
    for md in md_files:
        problems.extend(check_file(md, idents))

    if problems:
        print(f"FAIL: {len(problems)} broken doc reference(s):")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"OK: {len(md_files)} docs checked, all links, bench/example "
          f"targets and HSDB_* identifiers resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
