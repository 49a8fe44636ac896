#!/usr/bin/env python3
"""Docs drift checker (the CI docs-check job).

Three gates, all against the working tree — no build needed:

1. **Flag coverage** — every CLI flag a bench or tool actually parses
   (the quoted ``--flag`` strings in its ``ArgSpec`` definitions /
   usage text) must appear in that binary's documentation page(s). A
   flag added to the code without a docs mention, or a flag renamed in
   code but not in docs, fails here. The source → page mapping lives
   in ``FLAG_TARGETS`` below; extend it when adding a new CLI surface.

2. **Link integrity** — every intra-repo markdown link
   (``[text](relative/path)``) in the repo's documentation must
   resolve to an existing file. External (``http...``), anchor-only
   (``#...``) and ``mailto:`` links are ignored; ``path#anchor`` is
   checked for the file part only.

3. **Binary mentions** — every ``bench/<name>``, ``build/bench/<name>``
   or ``build/tools/<name>`` mentioned in the user guides (README,
   DESIGN, EXPERIMENTS and ``docs/``) must name a target in ``bench/``,
   ``tools/`` or ``examples/`` ``CMakeLists.txt`` (a ``bench/<file>``
   that exists on disk is fine). A command for a removed or renamed
   binary fails here. The changelog and roadmap record history, so they
   may name removed binaries.

Exit codes: 0 clean, 2 drift detected (the CI gate), 3 setup error
(missing files — the checker itself is misconfigured).

Usage:
    python3 tools/check_docs.py [--root REPO_ROOT]
"""

import argparse
import os
import re
import sys

# Each entry: (source file with the ArgSpec/usage strings,
#              pages where those flags must be documented,
#              flags exempt from the requirement).
# A flag passes when at least one of the pages mentions it verbatim.
GENERIC = {"--help"}
FLAG_TARGETS = [
    ("tools/spin_sweep.cc",
     ["docs/SWEEP.md"], GENERIC),
    ("tools/spin_lint.cc",
     ["docs/VERIFICATION.md"], GENERIC),
    ("tools/spin_model.cc",
     ["docs/VERIFICATION.md"], GENERIC),
    # The classic bench CLI (fig03, fig08a, ablations, chaos_smoke) is
    # defined once in BenchUtil.hh and documented in the regeneration
    # guide. The campaign figures run through spin_sweep.
    ("bench/BenchUtil.hh",
     ["EXPERIMENTS.md", "README.md"], GENERIC),
]

# CMake files whose targets markdown may name as bench/<name>,
# build/bench/<name> or build/tools/<name>.
TARGET_LISTS = ["bench/CMakeLists.txt", "tools/CMakeLists.txt",
                "examples/CMakeLists.txt"]
# add_executable(name ...) or a wrapper such as spinnoc_bench(name).
TARGET_RE = re.compile(r"^\s*(?:add_executable|spinnoc_\w+)\(\s*(\w+)",
                       re.M)
# A binary path in prose or a command. The look-behind keeps
# "perfbench/run.py" from matching; a name followed by a glob or
# placeholder ("bench/fig*") is not a mention.
MENTION_RE = re.compile(
    r"(?<![\w.-])(?:\./)?((?:build/)?(?:bench|tools))/([\w.-]+)"
    r"(?![\w.*<{$-])")
GUIDE_PAGES = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]

# Documentation scanned for links: every tracked .md at the repo root
# and under docs/.
LINK_DIRS = [".", "docs"]

# "--flag" inside a C string literal: ArgSpec definitions quote the
# flag exactly ('argU64("--warmup", ...)'), and usage()-text mentions
# are a superset of those, so quoted occurrences are precise — prose
# em-dashes ("a -- b") never match.
FLAG_RE = re.compile(r'"(--[a-z][a-z0-9-]*)')

# [text](target) markdown links, ignoring images' leading '!' (still a
# path worth checking) and fenced ``` blocks handled by the caller.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def fail_setup(msg):
    print(f"check_docs: {msg}", file=sys.stderr)
    sys.exit(3)


def read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        fail_setup(f"cannot read {path}: {e}")


def check_flags(root):
    errors = []
    for src, pages, exempt in FLAG_TARGETS:
        src_path = os.path.join(root, src)
        if not os.path.exists(src_path):
            fail_setup(f"{src} vanished; update FLAG_TARGETS")
        flags = sorted(set(FLAG_RE.findall(read(src_path))) - exempt)
        docs = ""
        for page in pages:
            page_path = os.path.join(root, page)
            if not os.path.exists(page_path):
                fail_setup(f"{page} vanished; update FLAG_TARGETS")
            docs += read(page_path)
        for flag in flags:
            if flag not in docs:
                errors.append(
                    f"{src}: flag '{flag}' is not documented in "
                    f"{' or '.join(pages)}")
    return errors


def md_files(root):
    out = []
    for d in LINK_DIRS:
        full = os.path.join(root, d)
        if not os.path.isdir(full):
            continue
        for name in sorted(os.listdir(full)):
            if name.endswith(".md"):
                out.append(os.path.normpath(os.path.join(full, name)))
    return out


def strip_code_blocks(text):
    """Drop fenced code blocks: command examples legitimately contain
    bracket/paren sequences that are not links."""
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            out.append(line)
    return "\n".join(out)


def check_links(root):
    errors = []
    for md in md_files(root):
        text = strip_code_blocks(read(md))
        base = os.path.dirname(md)
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:",
                                  "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(os.path.join(base, path))
            if not os.path.exists(resolved):
                rel = os.path.relpath(md, root)
                errors.append(f"{rel}: broken link '{target}'")
    return errors


def check_mentions(root):
    targets = set()
    for cm in TARGET_LISTS:
        path = os.path.join(root, cm)
        if not os.path.exists(path):
            fail_setup(f"{cm} vanished; update TARGET_LISTS")
        targets.update(TARGET_RE.findall(read(path)))
    docs_dir = os.path.normpath(os.path.join(root, "docs"))
    guides = [os.path.join(root, p) for p in GUIDE_PAGES] + [
        md for md in md_files(root) if os.path.dirname(md) == docs_dir]
    errors = []
    for md in guides:
        rel = os.path.relpath(md, root)
        for prefix, name in MENTION_RE.findall(read(md)):
            if prefix == "tools":
                continue  # scripts and sources, not binaries
            if prefix == "bench" and os.path.exists(
                    os.path.join(root, "bench", name)):
                continue
            name = name.rstrip(".-")
            if name not in targets:
                errors.append(f"{rel}: '{prefix}/{name}' names no "
                              f"target in {', '.join(TARGET_LISTS)}")
    return sorted(set(errors))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: the checker's parent "
                         "directory)")
    args = ap.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    errors = check_flags(root) + check_links(root) + check_mentions(root)
    if errors:
        print(f"check_docs: {len(errors)} drift issue(s):")
        for e in errors:
            print(f"  {e}")
        print("Document the flag on the binary's page (see "
              "FLAG_TARGETS in tools/check_docs.py), fix the link, or "
              "point the command at an existing target.")
        return 2

    n_targets = len(FLAG_TARGETS)
    n_md = len(md_files(root))
    print(f"check_docs: OK ({n_targets} CLI surfaces, {n_md} markdown "
          f"files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
