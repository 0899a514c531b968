#!/usr/bin/env python3
"""Count the settings a caller can vary: config fields and CLI flags.

    python3 scripts/settings_count.py [ROOT]

A config field is a `pub` field (not `pub(crate)` or `pub(super)`) of a
`pub struct` whose name ends in `Config` or `Params`, declared in a
`.rs` file under `crates/core/src`, `crates/stream/src` or
`crates/server/src`; `#[cfg(test)]` code counts like any other, so a
test-only config struct would count too. A CLI flag is a match arm of
the form `"--flag" =>` inside one of the argument parsers of
`src/bin/scorpion.rs`: `parse_args` is the `explain` subcommand (the
default one), `parse_<name>_args` the `<name>` subcommand. Arms that
join several patterns (`"--help" | "-h" =>`) are not settings and do
not count. Run from the repository root (or pass it); prints one line
per struct, one per crate, one per subcommand, then the totals.
"""

import os
import re
import sys

CRATES = ("core", "stream", "server")
STRUCT = re.compile(r"^\s*pub struct (\w+(?:Config|Params))\s*\{")
FIELD = re.compile(r"^\s*pub \w+\s*:")
PARSER = re.compile(r"^fn parse_(?:(\w+)_)?args\b")
FLAG = re.compile(r'^\s*"(--[\w-]+)"\s*=>')


def config_structs(path):
    """(struct name, pub field count) for each config struct in `path`."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    found = []
    i = 0
    while i < len(lines):
        m = STRUCT.match(lines[i])
        i += 1
        if not m:
            continue
        depth, fields = 1, 0
        while i < len(lines) and depth > 0:
            line = lines[i].split("//", 1)[0]
            if depth == 1 and FIELD.match(line):
                fields += 1
            depth += line.count("{") - line.count("}")
            i += 1
        found.append((m.group(1), fields))
    return found


def cli_flags(path):
    """{subcommand: [flags]} from the parser functions of `path`."""
    flags = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            # Top-level items start and end in column 0.
            if line.startswith("fn ") or line.startswith("}"):
                m = PARSER.match(line)
                current = flags.setdefault(m.group(1) or "explain", []) if m else None
                continue
            f = FLAG.match(line)
            if f and current is not None:
                current.append(f.group(1))
    return flags


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    total = 0
    for crate in CRATES:
        src = os.path.join(root, "crates", crate, "src")
        n = 0
        for dirpath, dirnames, files in os.walk(src):
            dirnames.sort()
            for f in sorted(files):
                if not f.endswith(".rs"):
                    continue
                path = os.path.join(dirpath, f)
                for name, count in config_structs(path):
                    rel = os.path.relpath(path, root)
                    print(f"  {name:<24} {count:>3}  {rel}")
                    n += count
        print(f"{'crates/' + crate:<26} {n:>3} config fields")
        total += n
    print(f"{'total':<26} {total:>3} config fields")
    n_flags = 0
    for sub, names in cli_flags(os.path.join(root, "src", "bin", "scorpion.rs")).items():
        print(f"{'scorpion ' + sub:<26} {len(names):>3} flags: {' '.join(names)}")
        n_flags += len(names)
    print(f"{'total':<26} {n_flags:>3} flags")


if __name__ == "__main__":
    main()
