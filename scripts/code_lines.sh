#!/bin/sh
# Library code lines, one counting rule for every PR: for each .rs file
# under crates/*/src (except crates/serve/src/engine/tests.rs, which is all
# tests), the lines before the first `#[cfg(test)]` that are neither blank
# nor `//` comments. Prints per crate and the total; `-v` adds per file.
cd "$(dirname "$0")/.." || exit 1
find crates/*/src -name '*.rs' ! -path crates/serve/src/engine/tests.rs | sort |
    xargs awk -v per_file="${1:-}" '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[ \t]*$/ || /^[ \t]*\/\// { next }
        {
            split(FILENAME, part, "/")
            if (!(part[2] in crate)) crates[++nc] = part[2]
            if (!(FILENAME in file)) files[++nf] = FILENAME
            crate[part[2]]++; file[FILENAME]++; total++
        }
        END {
            if (per_file == "-v")
                for (i = 1; i <= nf; i++) printf "%6d  %s\n", file[files[i]], files[i]
            for (i = 1; i <= nc; i++) printf "%6d  crates/%s\n", crate[crates[i]], crates[i]
            printf "%6d  total\n", total
        }'
