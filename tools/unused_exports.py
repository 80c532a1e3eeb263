#!/usr/bin/env python3
"""List lib exports that no lib or bin code outside their own module names.

An export is a column-0 `val NAME` in lib/**/*.mli, written MODULE.NAME
(MODULE is the file's module name).  It counts as named when some other
.ml/.mli file under lib/ or bin/ contains both the word MODULE and the
word NAME: a qualified use, an `open`, or a module alias.  The test is
lenient, so a listed export is certainly unused outside tests.

  python3 tools/unused_exports.py          # check against the allowlist
  python3 tools/unused_exports.py --list   # print the current list

The check fails when an export is missing from tools/unused_exports.allow
(delete it, or call it from lib/bin) and when an allowlist entry no
longer names such an export (delete the entry), so the list only shrinks.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOW = ROOT / "tools" / "unused_exports.allow"
VAL = re.compile(r"^val\s+([a-z_][A-Za-z0-9_']*|\([^)]*\))\s*:", re.M)


def words(text):
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", text))


def unused_exports():
    sources = sorted(
        p
        for top in ("lib", "bin")
        for p in (ROOT / top).rglob("*")
        if p.suffix in (".ml", ".mli") and "_build" not in p.parts
    )
    vocab = {p: words(p.read_text()) for p in sources}
    out = []
    for mli in sources:
        if mli.suffix != ".mli" or not mli.is_relative_to(ROOT / "lib"):
            continue
        module = mli.stem.capitalize()
        own = {mli, mli.with_suffix(".ml")}
        for name in VAL.findall(mli.read_text()):
            if name.startswith("("):
                continue
            used = any(
                module in ws and name in ws
                for p, ws in vocab.items()
                if p not in own
            )
            if not used:
                out.append(f"{module}.{name}")
    return sorted(set(out))


def main():
    current = unused_exports()
    if sys.argv[1:] == ["--list"]:
        print("\n".join(current))
        return 0
    allowed = [
        line.strip()
        for line in ALLOW.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    new = sorted(set(current) - set(allowed))
    stale = sorted(set(allowed) - set(current))
    for e in new:
        print(f"new export with no lib/bin caller: {e}")
    for e in stale:
        print(f"allowlist entry is no longer an unused export: {e}")
    if new or stale:
        print(f"{ALLOW.relative_to(ROOT)} may only shrink: fix the exports above")
        return 1
    print(f"{len(current)} lib exports without a lib/bin caller, all allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
