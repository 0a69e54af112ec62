#!/usr/bin/env python3
"""Print the size of lib/, its settable-option count and its
uncalled-export count.

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

Uncalled exports: the `val` names of lib/ .mli files that no .ml or .mli
file under lib/, bin/, examples/, bench/ or servebench/ mentions outside
their own module (the .ml/.mli pair of one name), comments stripped.  A
name is matched as a bare identifier, so a value whose name some other
module also uses is not counted: the count is a lower bound, and each
listed name still needs checking by hand.
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


CALLER_DIRS = ["lib", "bin", "examples", "bench", "servebench"]
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def uncalled_exports():
    """(module path, name) of every lib/ .mli value mentioned by no
    caller file outside its own module."""
    idents = {}
    for d in CALLER_DIRS:
        for p in pathlib.Path(d).glob("**/*.ml*"):
            if p.suffix in (".ml", ".mli") and "_build" not in p.parts:
                idents[p] = set(IDENT.findall(strip_comments(p.read_text())))
    found = []
    for mli in sorted(pathlib.Path("lib").glob("**/*.mli")):
        own = {mli, mli.with_suffix(".ml")}
        names = re.findall(r"\bval\s+([a-z_][A-Za-z0-9_']*)",
                           strip_comments(mli.read_text()))
        for name in sorted(set(names)):
            if not any(name in ids
                       for p, ids in idents.items() if p not in own):
                found.append((mli.with_suffix(""), name))
    return found


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
    uncalled = uncalled_exports()
    print(f"uncalled exports: {len(uncalled)} .mli values no other lib/, bin/,"
          " examples/, bench/ or servebench/ module mentions")
    if uncalled:
        print("  " + ", ".join(f"{mod}.{name}" for mod, name in uncalled))


main()
