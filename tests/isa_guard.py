#!/usr/bin/env python3
"""ISA guard: no vector-flagged copy of a shared inline symbol.

The SIMD objects of dvbs2_core are compiled with the backend's -m flags.
A weak (comdat) symbol they define -- a template instantiation or an
inline function -- may also be defined by a target-generic object of the
build, and the linker keeps one of the copies for every caller. If it keeps
the vector-flagged one, a scalar engine runs AVX2 code and dies with SIGILL
on a CPU without it. This check fails when the SIMD copy of any such shared
symbol holds a VEX or EVEX instruction: a mnemonic starting with "v", or a
ymm or zmm register.

    isa_guard.py --nm NM --objdump OBJDUMP --build-dir DIR
                 [--vector-flagged OBJ]... SIMD_OBJECT...

Every other *.o under DIR counts as another object of the build, except
the --vector-flagged ones (objects built with the same flags on purpose).
Arguments may also be ';'-separated lists. Exit 0 when clean, 1 on a
VEX-carrying shared symbol, 2 on a usage or tool error.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys

WEAK_TYPES = {"W", "V", "u"}
HEADER = re.compile(r"^[0-9a-f]+ <(.+)>:$")
VECTOR_REG = re.compile(r"%[yz]mm\d")


def die(msg):
    print(f"isa_guard: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        die(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def weak_symbols(nm, obj):
    out = set()
    for line in run([nm, "--defined-only", obj]).splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in WEAK_TYPES:
            out.add(parts[2])
    return out


def vector_instructions(objdump, obj):
    """Maps each function symbol of `obj` to its first VEX/EVEX instruction."""
    found = {}
    current = None
    for line in run([objdump, "-d", "-w", "--no-show-raw-insn", obj]).splitlines():
        header = HEADER.match(line)
        if header:
            current = header.group(1)
            continue
        if current is None or current in found or ":\t" not in line:
            continue
        insn = line.split(":\t", 1)[1].strip()
        if insn.startswith("v") or VECTOR_REG.search(insn):
            found[current] = insn
    return found


def demangle(names):
    cxxfilt = shutil.which("c++filt")
    if not cxxfilt or not names:
        return {n: n for n in names}
    out = subprocess.run([cxxfilt], input="\n".join(names), capture_output=True,
                         text=True).stdout.splitlines()
    return dict(zip(names, out)) if len(out) == len(names) else {n: n for n in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--nm", required=True)
    ap.add_argument("--objdump", required=True)
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--vector-flagged", action="append", default=[])
    ap.add_argument("simd_objects", nargs="+")
    args = ap.parse_args()

    def paths(items):
        return [os.path.realpath(p) for item in items for p in item.split(";") if p]

    simd = paths(args.simd_objects)
    for o in simd:
        if not os.path.isfile(o):
            die(f"SIMD object {o} not found (build dvbs2_core first)")
    skip = set(simd) | set(paths(args.vector_flagged))
    others = []
    for root, _, files in os.walk(args.build_dir):
        for f in files:
            path = os.path.realpath(os.path.join(root, f))
            if f.endswith(".o") and path not in skip:
                others.append(path)
    if not others:
        die(f"no other objects under {args.build_dir}")

    elsewhere = set()
    for o in others:
        elsewhere |= weak_symbols(args.nm, o)

    shared_total = set()
    bad = []
    for o in simd:
        shared = weak_symbols(args.nm, o) & elsewhere
        shared_total |= shared
        vex = vector_instructions(args.objdump, o)
        bad += [(o, sym, vex[sym]) for sym in sorted(shared) if sym in vex]

    names = demangle(sorted(shared_total | {b[1] for b in bad}))
    print(f"isa_guard: {len(simd)} SIMD objects, {len(others)} other objects, "
          f"{len(shared_total)} shared weak symbols")
    for sym in sorted(shared_total):
        print(f"  shared: {names[sym]}")
    for obj, sym, insn in bad:
        print(f"FAIL: {os.path.basename(obj)} defines shared {names[sym]} with vector "
              f"code: {insn}")
    if bad:
        return 1
    print("ISA GUARD PASS: no shared symbol carries VEX or EVEX code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
