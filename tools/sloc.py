#!/usr/bin/env python3
"""Source line counts of the library, per src/ subdirectory.

    python3 tools/sloc.py

Counts the non-blank lines of every .h and .cpp file under src/ whose first
non-space characters are not `//`, and prints a Markdown table with one row
per subdirectory and a total row. Lines inside /* */ blocks and code lines
with a trailing comment count. CI appends the table to the job summary, so a
change's net line delta is the difference of two runs.
"""
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def count_file(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return sum(1 for line in f if line.strip() and not line.strip().startswith("//"))


def main():
    counts = {}
    for dirpath, _, files in os.walk(SRC):
        rel = os.path.relpath(dirpath, SRC)
        subdir = "src" if rel == "." else "src/" + rel.split(os.sep)[0]
        for name in files:
            if name.endswith((".h", ".cpp")):
                counts[subdir] = counts.get(subdir, 0) + count_file(os.path.join(dirpath, name))
    if not counts:
        print("sloc: no sources under " + os.path.normpath(SRC), file=sys.stderr)
        return 2
    print("| directory | lines |")
    print("|---|---:|")
    for subdir in sorted(counts):
        print("| {} | {} |".format(subdir, counts[subdir]))
    print("| **src/ total** | **{}** |".format(sum(counts.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
