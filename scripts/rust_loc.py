#!/usr/bin/env python3
"""Count lines of Rust code per crate and in total.

    python3 scripts/rust_loc.py [ROOT]

A code line is a non-blank line of a `.rs` file under a crate's `src/`
(the root package and every crate under `crates/`, the shims under
`crates/shims/` included) that is not only a comment (`//`, `///`,
`//!`, or inside `/* ... */`). `#[cfg(test)]` modules are skipped, so
unit tests do not count; integration tests, benches and examples live
outside those trees and do not count either. Deleting comments
therefore never counts as removing code. Run from the repository root
(or pass it); prints one line per crate, then the total.
"""

import os
import sys


def code_lines(text):
    """Code lines of one Rust source file (see the module doc)."""
    count = 0
    in_block = False
    skip_until = None  # closing line of a `#[cfg(test)]` module
    pending_test_attr = None  # indent of a `#[cfg(test)]` just seen
    for raw in text.splitlines():
        line = raw.strip()
        if skip_until is not None:
            if raw.rstrip() == skip_until:
                skip_until = None
            continue
        if in_block:
            end = line.find("*/")
            if end < 0:
                continue
            in_block = False
            line = line[end + 2:].strip()
        if line.startswith("/*") and "*/" not in line:
            in_block = True
            continue
        if not line or line.startswith("//") or (line.startswith("/*") and line.endswith("*/")):
            continue
        indent = raw[: len(raw) - len(raw.lstrip())]
        if line == "#[cfg(test)]":
            pending_test_attr = indent
            continue
        if pending_test_attr is not None:
            at = pending_test_attr
            pending_test_attr = None
            if line.startswith("mod ") or line.startswith("pub mod "):
                if line.endswith("{"):
                    skip_until = at + "}"
                continue
            count += 1  # the attribute on a non-module item is code
        count += 1
    return count


def crate_roots(root):
    """(crate path, src dir) for the root package and every crate below
    `crates/` (a directory holding a `Cargo.toml` and a `src/`)."""
    yield ".", os.path.join(root, "src")
    crates = os.path.join(root, "crates")
    for dirpath, dirnames, files in os.walk(crates):
        dirnames.sort()
        if "Cargo.toml" in files and os.path.isdir(os.path.join(dirpath, "src")):
            dirnames.clear()
            yield os.path.relpath(dirpath, root), os.path.join(dirpath, "src")


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    total = 0
    for name, src in crate_roots(root):
        n = 0
        for dirpath, _, files in os.walk(src):
            for f in files:
                if f.endswith(".rs"):
                    with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                        n += code_lines(fh.read())
        total += n
        print(f"{name:<28} {n:>7}")
    print(f"{'total':<28} {total:>7}")


if __name__ == "__main__":
    main()
