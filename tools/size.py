#!/usr/bin/env python3
"""Print the size of lib/ and its settable-option count.

Usage: python3 tools/size.py [OLP_EXE]   (run from the repository root;
`make size` builds the CLI and passes it)

Lines: the line totals of lib/**/*.ml and lib/**/*.mli.

Settable options, the sum of three counts:
  - optional labelled arguments (`?name:`) in lib/ .mli files, comments
    stripped;
  - setters: `val set_*` in lib/ .mli files, less `set_preference`
    (a knowledge-base write, not an option);
  - per-subcommand CLI options: the options each `olp` subcommand lists
    under OPTIONS in its --help=plain page, --help and --version aside.
"""

import pathlib
import re
import subprocess
import sys


def strip_comments(src):
    """Drop OCaml comments, nested ones included (string literals inside
    comments are not special-cased: lib/ has none that hold a comment
    delimiter)."""
    out, depth, i = [], 0, 0
    while i < len(src):
        two = src[i:i + 2]
        if two == "(*":
            depth, i = depth + 1, i + 2
        elif two == "*)" and depth > 0:
            depth, i = depth - 1, i + 2
        else:
            if depth == 0:
                out.append(src[i])
            i += 1
    return "".join(out)


def lines(pattern):
    return sum(len(p.read_text().splitlines())
               for p in pathlib.Path("lib").glob(pattern))


def cli_options(olp):
    def page(*args):
        return subprocess.run([olp, *args, "--help=plain"], check=True,
                              capture_output=True, text=True).stdout

    def section(text, name):
        m = re.search(rf"^{name}\n(.*?)(?=^[A-Z][A-Z ]*$|\Z)", text, re.M | re.S)
        return m.group(1) if m else ""

    subs = re.findall(r"^       ([a-z][a-z-]*) ", section(page(), "COMMANDS"), re.M)
    return {s: len(re.findall(r"^       -", section(page(s), "OPTIONS"), re.M))
            for s in subs}


def main():
    mlis = [strip_comments(p.read_text())
            for p in sorted(pathlib.Path("lib").glob("**/*.mli"))]
    optional = sum(len(re.findall(r"\?[a-z_][A-Za-z0-9_']*\s*:", s)) for s in mlis)
    setters = sum(len([n for n in re.findall(r"\bval (set_\w+)", s)
                       if n != "set_preference"]) for s in mlis)
    ml, mli = lines("**/*.ml"), lines("**/*.mli")
    print(f"lib/ lines: {ml} .ml + {mli} .mli = {ml + mli}")
    cli = cli_options(sys.argv[1]) if len(sys.argv) > 1 else {}
    cli_total = sum(cli.values())
    print(f"settable options: {optional} optional arguments + {setters} setters"
          f" + {cli_total} CLI options = {optional + setters + cli_total}")
    if cli:
        print("  CLI options per subcommand: "
              + ", ".join(f"{s} {n}" for s, n in cli.items()))


main()
