#!/usr/bin/env python3
"""Report the net line delta under src/ since a base revision.

    python3 scripts/src_delta.py <base>

Compares HEAD with its merge base with <base> (so, on a branch, only the
commits the branch adds count) through `git diff --numstat`, and prints
the lines added and removed under src/, the net delta, and the number of
lines under src/ at HEAD. Only committed changes count; binary files
count zero lines. The report is informational: the script exits nonzero
only when git fails.
"""

import subprocess
import sys


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def src_numstat(old, new):
    """Returns (added, removed) lines under src/ from `old` to `new`."""
    added = removed = 0
    for line in git("diff", "--numstat", old, new, "--", "src").splitlines():
        plus, minus, _ = line.split("\t", 2)
        if plus != "-":  # "-" marks a binary file
            added += int(plus)
            removed += int(minus)
    return added, removed


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: src_delta.py <base>")
    base = git("merge-base", sys.argv[1], "HEAD").strip()
    # Everything at HEAD counts as added against the empty tree.
    empty_tree = git("hash-object", "-t", "tree", "/dev/null").strip()
    added, removed = src_numstat(base, "HEAD")
    total, _ = src_numstat(empty_tree, "HEAD")
    print(f"src/ since {sys.argv[1]} (merge base {base[:12]}): "
          f"+{added} -{removed}, net {added - removed:+d} lines")
    print(f"src/ at HEAD: {total} lines")


if __name__ == "__main__":
    main()
