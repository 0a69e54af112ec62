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
name counts as mentioned in a file when it appears qualified by its
module (`Unify.term`, `Gop.Values.carry`: the file's module, or the
submodule whose signature declares it), by a local alias of that
module (`module G = Ordered.Gop` ... `G.ground`) or by a lib/ module
that includes it (`Kb.query` for `Session.query`), or bare in a file
that opens the module (`open`, `include` or a local `M.(...)`).  Each listed
name still needs checking by hand: a value reached some other way (a
first-class module, a functor argument) is listed too.
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
QUALIFIED = re.compile(r"\b([A-Z][A-Za-z0-9_']*)\.([a-z_][A-Za-z0-9_']*)")
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*"
                   r"(?:[A-Z][A-Za-z0-9_']*\.)*([A-Z][A-Za-z0-9_']*)\b")
OPENS = re.compile(r"\b(?:open!?|include)\s+(?:[A-Z][A-Za-z0-9_']*\.)*"
                   r"([A-Z][A-Za-z0-9_']*)\b|\b([A-Z][A-Za-z0-9_']*)\.\(")


class Caller:
    """What one caller file mentions: its qualified names, with local
    aliases resolved to the module they name, the modules it opens,
    and its bare identifiers."""

    def __init__(self, src):
        alias = {a: m for a, m in ALIAS.findall(src)}
        self.qualified = {(alias.get(m, m), n) for m, n in QUALIFIED.findall(src)}
        self.opened = {alias.get(m, m) for pair in OPENS.findall(src)
                       for m in pair if m}
        self.idents = set(IDENT.findall(src))

    def mentions(self, modules, name):
        return any((m, name) in self.qualified
                   or (m in self.opened and name in self.idents)
                   for m in modules)


def reexports():
    """Module -> the lib/ modules whose .ml includes it at top level
    (`include Session` in kb.ml makes `Kb.query` a mention of
    `Session.query`)."""
    found = {}
    for p in pathlib.Path("lib").glob("**/*.ml"):
        for m in re.findall(r"^include\s+(?:[A-Z]\w*\.)*([A-Z]\w*)\s*$",
                            strip_comments(p.read_text()), re.M):
            found.setdefault(m, set()).add(p.stem.capitalize())
    return found


def exports(mli):
    """(qualifying module, name) of each `val` of an .mli: the file's
    module at top level, the submodule inside `module M : sig ... end`;
    values of `module type` signatures are requirements, not exports."""
    src = strip_comments(mli.read_text())
    top = mli.stem.capitalize()
    stack, found = [], []
    token = re.compile(r"\bmodule\s+type\s+[A-Z]\w*\s*=\s*sig\b"
                       r"|\bmodule\s+([A-Z]\w*)\s*:\s*sig\b"
                       r"|\b(sig|struct|object|begin)\b|\bend\b"
                       r"|\bval\s+([a-z_][A-Za-z0-9_']*)")
    for m in token.finditer(src):
        text = m.group(0)
        if text.startswith("module"):
            stack.append(None if re.match(r"module\s+type", text) else m.group(1))
        elif m.group(2):
            stack.append(stack[-1] if stack else top)
        elif text == "end":
            if stack:
                stack.pop()
        else:
            module = stack[-1] if stack else top
            if module is not None:
                found.append((module, m.group(3)))
    return sorted(set(found))


def uncalled_exports():
    """(module path, qualified name) of every lib/ .mli value mentioned
    by no caller file outside its own module."""
    callers = {}
    for d in CALLER_DIRS:
        for p in pathlib.Path(d).glob("**/*.ml*"):
            if p.suffix in (".ml", ".mli") and "_build" not in p.parts:
                callers[p] = Caller(strip_comments(p.read_text()))
    via = reexports()
    found = []
    for mli in sorted(pathlib.Path("lib").glob("**/*.mli")):
        own = {mli, mli.with_suffix(".ml")}
        for module, name in exports(mli):
            modules = {module} | via.get(module, set())
            if not any(c.mentions(modules, name)
                       for p, c in callers.items() if p not in own):
                found.append((mli.with_suffix(""), module, name))
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
        print("  " + ", ".join(
            f"{path}.{name}" if path.stem.capitalize() == module
            else f"{path}.{module}.{name}"
            for path, module, name in uncalled))


main()
