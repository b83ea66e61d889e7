#!/bin/sh
# Library code lines, one counting rule for every PR: for each .rs file
# under crates/*/src and crates/*/benches (except
# crates/serve/src/engine/tests.rs, which is all tests), the lines that are
# neither blank nor `//` comments nor part of an item marked `#[cfg(test)]`.
# A marked item runs from the attribute to the line that closes it: the
# closing brace at the attribute's indentation, or the item's own line when
# it opens no block (`use …;`) or closes the block it opens (`fn f() {}`).
# Lines after it count again, so marking one function test-only drops only
# that function. Bench targets count like library code, so moving code
# between benches/ and src/ is neutral. Prints per crate and the total; `-v`
# adds per file; `-l` prints each counted line as `file:line: text` instead,
# so a check can search library code alone (CI's one-step-path guard).
cd "$(dirname "$0")/.." || exit 1
find crates/*/src crates/*/benches -name '*.rs' ! -path crates/serve/src/engine/tests.rs | sort |
    xargs awk -v mode="${1:-}" '
        FNR == 1 { skip = 0 }
        # Inside a marked item'"'"'s block: wait for the brace that closes it.
        skip == 2 { if ($0 ~ "^" ind "}") skip = 0; next }
        /^[ \t]*#\[cfg\(test\)\]/ {
            match($0, /^[ \t]*/); ind = substr($0, 1, RLENGTH)
            sub(/^[ \t]*#\[cfg\(test\)\][ \t]*/, "")
            skip = 1
            if ($0 == "") next
        }
        # The marked item'"'"'s first line, after any further attributes.
        skip == 1 {
            if ($0 ~ /^[ \t]*(#\[|\/\/|$)/) next
            line = $0
            opens = gsub(/\{/, "", line); closes = gsub(/\}/, "", line)
            if ((opens == 0 && $0 ~ /;[ \t]*$/) || (opens > 0 && opens == closes)) skip = 0
            else skip = 2
            next
        }
        /^[ \t]*$/ || /^[ \t]*\/\// { next }
        mode == "-l" { print FILENAME ":" FNR ": " $0; next }
        {
            split(FILENAME, part, "/")
            if (!(part[2] in crate)) crates[++nc] = part[2]
            if (!(FILENAME in file)) files[++nf] = FILENAME
            crate[part[2]]++; file[FILENAME]++; total++
        }
        END {
            if (mode == "-l") exit
            if (mode == "-v")
                for (i = 1; i <= nf; i++) printf "%6d  %s\n", file[files[i]], files[i]
            for (i = 1; i <= nc; i++) printf "%6d  crates/%s\n", crate[crates[i]], crates[i]
            printf "%6d  total\n", total
        }'
