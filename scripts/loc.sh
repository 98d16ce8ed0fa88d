#!/usr/bin/env bash
# Non-test lines of Rust under crates/*/src, per crate and in total.
#
# A file's non-test lines are the lines above the first `#[cfg(test)]`
# that stands on the line before a `mod` (all of its lines if there is
# none): test modules close a file, while a `#[cfg(test)]` on a single
# item above them does not end its non-test part. `gcs/src/stack/tests.rs`
# is a test module in a file of its own and is not counted.
#
# Usage: bash scripts/loc.sh [REPO_ROOT]   (default: this script's repo)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

total=0
for dir in crates/*/src; do
  crate="${dir#crates/}"
  crate="${crate%/src}"
  n=0
  while IFS= read -r -d '' file; do
    [[ "$file" == crates/gcs/src/stack/tests.rs ]] && continue
    lines=$(awk '
      held && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { held = 0; exit }
      held { n++; held = 0 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
      { n++ }
      END { print n + held }' "$file")
    n=$((n + lines))
  done < <(find "$dir" -name '*.rs' -print0 | sort -z)
  printf '%-8s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-8s %6d\n' total "$total"
