#!/usr/bin/env python3
"""Lists the module's functions that no program links.

Declared: every function and method of the module's non-test files outside
benchmark/ whose package is not main. Linked: every function symbol
`go tool nm` finds in the commands, the examples, the benchmark and a sink
program that takes the value of every exported function and method of
package vaq (read off .github/api-surface.txt, so the whole public API
counts as used), all built with inlining off (-gcflags=all=-l), so that a
function inlined into its callers still has a symbol of its own.

A declared function that is not linked is dead outside its tests. KEPT
names the ones kept on purpose; any other fails the run, and so does a KEPT
entry that matches no unlinked function, so the list cannot go stale.

Usage: python3 .github/unlinked.py   (from the repository root)
"""

import os
import re
import subprocess
import sys
import tempfile

MODULE = "repro"

# Unlinked on purpose, by declared name ("*" matches any package and
# receiver): the structural self-checks tests call, and the probe tests use
# to see that no default query packs an R-tree.
KEPT = [
    "*.Validate",
    "repro/internal/core.(*Engine).IndexPacked",
]

FUNC = re.compile(r"^func\s+(?:\(\s*(?:\w+\s+)?(\*?)\s*(\w+)(?:\[[^\]]*\])?\s*\)\s*)?(\w+)")


def declared(root):
    """Yields the nm name of every function of the module's non-test,
    non-main files outside benchmark/."""
    for dirpath, dirnames, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith((".", "_")) and d != "testdata" and not (rel == "." and d == "benchmark")
        )
        pkg = MODULE if rel == "." else MODULE + "/" + rel.replace(os.sep, "/")
        for name in sorted(filenames):
            if not name.endswith(".go") or name.endswith("_test.go"):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                src = f.read()
            if re.search(r"^package main\b", src, re.M):
                continue
            for line in src.splitlines():
                m = FUNC.match(line)
                if not m or m.group(3) in ("init", "_"):
                    continue
                ptr, recv, fn = m.groups()
                if recv is None:
                    yield f"{pkg}.{fn}"
                elif ptr:
                    yield f"{pkg}.(*{recv}).{fn}"
                else:
                    yield f"{pkg}.{recv}.{fn}"


def sink_source(root, decl):
    """A main package that takes every exported func and method of vaq,
    and every exported method of a type vaq aliases (type X = obs.Y), which
    `go doc` does not list."""
    exprs = []
    with open(os.path.join(root, ".github", "api-surface.txt"), encoding="utf-8") as f:
        for line in f:
            m = re.match(r"^func (?:\((\*?)(\w+)\) )?(\w+)\(", line)
            if m:
                ptr, recv, fn = m.groups()
                if recv is None:
                    exprs.append(f"vaq.{fn}")
                elif ptr:
                    exprs.append(f"(*vaq.{recv}).{fn}")
                else:
                    exprs.append(f"vaq.{recv}.{fn}")
            m = re.match(r"^type (\w+) = (\w+)\.(\w+)$", line.strip())
            if m:
                alias, pkg, typ = m.groups()
                prefix = f"{MODULE}/internal/{pkg}."
                for d in decl:
                    mm = re.fullmatch(r"(\(\*)?" + typ + r"\)?\.([A-Z]\w*)", d[len(prefix):]) if d.startswith(prefix) else None
                    if mm:
                        exprs.append(f"(*vaq.{alias}).{mm.group(2)}" if mm.group(1) else f"vaq.{alias}.{mm.group(2)}")
    body = "".join(f"\t{e},\n" for e in exprs)
    return (
        'package main\n\nimport (\n\t"fmt"\n\n\tvaq "repro"\n)\n\n'
        f"var sink = []any{{\n{body}}}\n\nfunc main() {{ fmt.Println(len(sink)) }}\n"
    )


def strip_brackets(sym):
    """Drops generic instantiations ("[go.shape.int]", which may hold
    spaces and nested brackets) from a symbol."""
    out, depth = [], 0
    for c in sym:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def run(*args, cwd):
    subprocess.run(args, cwd=cwd, check=True)


def linked(root, tmp, decl):
    bins = []
    for parent in ("cmd", "examples"):
        for d in sorted(os.listdir(os.path.join(root, parent))):
            if os.path.isdir(os.path.join(root, parent, d)):
                out = os.path.join(tmp, f"{parent}-{d}")
                run("go", "build", "-gcflags=all=-l", "-o", out, f"./{parent}/{d}", cwd=root)
                bins.append(out)
    out = os.path.join(tmp, "benchmark")
    run("go", "build", "-gcflags=all=-l", "-o", out, ".", cwd=os.path.join(root, "benchmark"))
    bins.append(out)
    sink = os.path.join(tmp, "sink")
    os.mkdir(sink)
    with open(os.path.join(sink, "go.mod"), "w", encoding="utf-8") as f:
        f.write(f"module sink\n\ngo 1.24\n\nrequire {MODULE} v0.0.0\n\nreplace {MODULE} => {root}\n")
    with open(os.path.join(sink, "main.go"), "w", encoding="utf-8") as f:
        f.write(sink_source(root, decl))
    out = os.path.join(tmp, "sink.bin")
    run("go", "build", "-gcflags=all=-l", "-o", out, ".", cwd=sink)
    bins.append(out)

    syms = set()
    for b in bins:
        nm = subprocess.run(["go", "tool", "nm", b], check=True, capture_output=True, text=True).stdout
        for line in nm.splitlines():
            parts = line.split(None, 2)  # address, type, name (which may hold spaces)
            if len(parts) == 3 and parts[1] in ("T", "t"):
                syms.add(strip_brackets(parts[2]))
    return len(bins), syms


def matches(k, name):
    """Whether KEPT entry k names the declared function name."""
    return name.endswith(k[1:]) if k.startswith("*.") else name == k


def kept(name):
    return any(matches(k, name) for k in KEPT)


def main():
    root = os.getcwd()
    decl = sorted(set(declared(root)))
    with tempfile.TemporaryDirectory() as tmp:
        nbins, syms = linked(root, tmp, decl)
    unlinked = [d for d in decl if d not in syms]
    print(f"{len(decl)} declared functions, {len(unlinked)} linked into none of {nbins} programs")
    failed = False
    for d in unlinked:
        ok = kept(d)
        failed |= not ok
        print(f"  {'kept' if ok else 'UNLINKED'}  {d}")
    stale = [k for k in KEPT if not any(matches(k, d) for d in unlinked)]
    for k in stale:
        print(f"  STALE  {k}")
    if failed:
        print("a function no program links is dead outside its tests: delete it, or add it to KEPT with the reason", file=sys.stderr)
    if stale:
        print("a KEPT entry matches no unlinked function: drop it from KEPT", file=sys.stderr)
    return 1 if failed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
