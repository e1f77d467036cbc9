#!/usr/bin/env python3
"""Docs that cannot rot: every code name and repo path they cite exists.

Scans the backticked spans of README.md, DESIGN.md and EXPERIMENTS.md
and checks two kinds of reference against the code under src, bench,
tests, examples and scripts:

- A qualified name, `Class::member` or `module::Name` (arguments and
  a trailing call are ignored: `Machine::consume(t)` checks
  Machine::consume).
  - If the first part is a class, struct or enum defined in the code,
    the last part must appear as a word in a file that defines it.
  - Else, if it names a source module (src/<module>/), the last part
    must appear as a word in a file of that module.
  - Else, if it names a namespace, the last part must appear in a file
    that opens it.
  - Anything else is a miss. `std::` names and the paper-side names in
    ALLOWED are not checked.
- A repo path whose first part is a top-level directory or a source
  module: it must exist, relative to the repo root or to src/, as
  written, with an extension (`bench/fig7_io` is bench/fig7_io.cc), or
  as a glob (`hv/channel.*`). Braces expand (`sim/trace.{h,cc}`).
  Paths with placeholders (`<module>`) and build outputs are skipped.
- A file name with no directory (`GOLDEN.sha256`, `cluster.cc`): it
  must exist at the repo root or be the name of a file under a
  top-level directory. The outputs the docs tell the reader to create
  (OUTPUTS) are skipped.

Usage: doc_symbols.py [DOC...]   (default: the three docs above)

Exits 0 when every reference resolves, 1 listing each miss as
doc:line: reference.
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
CODE_DIRS = ["src", "bench", "tests", "examples", "scripts"]
CODE_EXTS = (".h", ".cc", ".cpp", ".py", ".txt", ".cmake")

# Names from the paper's side, not this code: C++ standard library
# members written without their std:: prefix.
ALLOWED = {"atomic::wait"}

# Files the docs tell the reader to create by running a bench.
OUTPUTS = {"out.sw_svt.json"}

SPAN = re.compile(r"`([^`\n]+)`")
QUALIFIED = re.compile(r"^[A-Za-z_]\w*(::[A-Za-z_~]\w*)+")
TYPE_DEF = r"\b(?:class|struct|union|enum(?:\s+class)?)\s+{}\b(?!\s*;)"
FILE_NAME = re.compile(
    r"^[\w.+-]+\.(?:md|txt|json|csv|sha256|py|cc|h|cpp|cmake|yml|sh)$")


def load_code():
    files = {}
    for top in CODE_DIRS:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                if name.endswith(CODE_EXTS):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8", errors="replace") as f:
                        files[os.path.relpath(path, ROOT)] = f.read()
    return files


def has_word(texts, word):
    pattern = re.compile(r"\b{}\b".format(re.escape(word)))
    return any(pattern.search(t) for t in texts)


def check_name(name, files):
    """True when the qualified @p name resolves in the code."""
    parts = name.split("::")
    first, last = parts[0], parts[-1]
    if first == "std" or name in ALLOWED:
        return True
    typedef = re.compile(TYPE_DEF.format(re.escape(first)))
    defining = [t for t in files.values() if typedef.search(t)]
    if defining:
        return has_word(defining, last)
    module = os.path.join("src", first) + os.sep
    in_module = [t for p, t in files.items() if p.startswith(module)]
    if in_module:
        return has_word(in_module, last)
    opens = re.compile(r"\bnamespace\s+{}\b".format(re.escape(first)))
    in_namespace = [t for t in files.values() if opens.search(t)]
    return bool(in_namespace) and has_word(in_namespace, last)


def expand_braces(path):
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    out = []
    for alt in m.group(1).split(","):
        out += expand_braces(path[:m.start()] + alt + path[m.end():])
    return out


def top_dirs():
    return [d for d in os.listdir(ROOT)
            if os.path.isdir(os.path.join(ROOT, d))
            and not d.startswith((".", "build"))]


def path_roots():
    modules = [d for d in os.listdir(os.path.join(ROOT, "src"))
               if os.path.isdir(os.path.join(ROOT, "src", d))]
    return set(top_dirs()) | set(modules)


def file_names():
    """Names of the files at the repo root and under its directories."""
    names = {n for n in os.listdir(ROOT)
             if os.path.isfile(os.path.join(ROOT, n))}
    for top in top_dirs():
        for _, _, files in os.walk(os.path.join(ROOT, top)):
            names.update(files)
    return names


def check_path(path):
    """True when every expansion of @p path exists in the tree."""
    for candidate in expand_braces(path):
        found = False
        for base in ("", "src/"):
            full = os.path.join(ROOT, base + candidate)
            if glob.glob(full) or glob.glob(full + ".*"):
                found = True
                break
        if not found:
            return False
    return True


def references(text, roots):
    """(line, kind, reference) for each checkable backticked span."""
    for lineno, line in enumerate(text.splitlines(), 1):
        for span in SPAN.findall(line):
            span = span.strip()
            m = QUALIFIED.match(span)
            if m:
                yield lineno, "name", m.group(0)
                continue
            if " " in span or "<" in span:
                continue
            if "/" not in span:
                if FILE_NAME.match(span) and span not in OUTPUTS:
                    yield lineno, "file", span
                continue
            path = span[2:] if span.startswith("./") else span
            first = path.split("/")[0]
            if first in roots and not first.startswith("build"):
                yield lineno, "path", path.rstrip("/")


def main(argv):
    docs = argv[1:] or DOCS
    files = load_code()
    roots = path_roots()
    names = file_names()
    misses = []
    checked = 0
    for doc in docs:
        with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
            text = f.read()
        for lineno, kind, ref in references(text, roots):
            checked += 1
            if kind == "name":
                ok = check_name(ref, files)
            elif kind == "file":
                ok = ref in names
            else:
                ok = check_path(ref)
            if not ok:
                misses.append("{}:{}: {} `{}`".format(doc, lineno, kind, ref))
    for miss in misses:
        print(miss)
    print("doc_symbols: {} references checked, {} missing".format(
        checked, len(misses)))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
