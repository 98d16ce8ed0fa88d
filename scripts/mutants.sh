#!/usr/bin/env bash
# Runs the mutant catalogue in tests/mutants.txt.
#
# The working tree is copied once to $TMPDIR/dbsm-mutants/tree, every file
# stamped with the time of the copy so that cargo never reuses a build of a
# mutated file from an earlier run. Each mutant is applied to that copy on
# its own, only its named tests run (release build, one shared target
# directory), and the file is restored. Before any mutant, every named test
# must pass on the unmutated copy. Each mutant is reported as
#   killed          every named test failed
#   survived        some named test still passed (named on the line)
#   does-not-apply  the file is gone, or the snippet is not in it exactly once
#   does-not-build  the mutated tree does not compile
# The script exits non-zero unless every mutant is killed.
#
# Usage: bash scripts/mutants.sh [NAME ...]   (default: every mutant)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
catalogue="$root/tests/mutants.txt"
work="${TMPDIR:-/tmp}/dbsm-mutants"
tree="$work/tree"
export CARGO_TARGET_DIR="$work/target"

names=() files=() froms=() tos=() tests=()
flush() {
  if [[ -n "${name:-}" ]]; then
    names+=("$name") files+=("$file") froms+=("$from") tos+=("$to") tests+=("$test")
  fi
  name="" file="" from="" to="" test=""
}
flush
while IFS= read -r line || [[ -n "$line" ]]; do
  [[ "$line" == \#* ]] && continue
  if [[ -z "$line" ]]; then flush; continue; fi
  key="${line%%:*}"
  value="${line#*:}"
  value="${value#"${value%%[! ]*}"}"
  case "$key" in
    name) name="$value" ;;
    file) file="$value" ;;
    from) from="$value" ;;
    to) to="$value" ;;
    test) test+="$value"$'\n' ;;
    *) echo "mutants.txt: unknown key in: $line" >&2; exit 2 ;;
  esac
done < "$catalogue"
flush

wanted() {
  (( $# == 1 )) && return 0
  local n="$1"; shift
  for w in "$@"; do [[ "$w" == "$n" ]] && return 0; done
  return 1
}

for w in "$@"; do
  if ! printf '%s\n' "${names[@]}" | grep -qxF -- "$w"; then
    echo "mutants.txt has no mutant named $w" >&2; exit 2
  fi
done

rm -rf "$tree"
mkdir -p "$tree"
git -C "$root" ls-files -co --exclude-standard -z \
  | (cd "$root" && tar --null -T - -cf -) | (cd "$tree" && tar -xmf -)
cd "$tree"

# Runs one line of test arguments; succeeds when its tests pass.
run_test() {
  local -a args
  read -r -a args <<< "$1"
  cargo test --release -q --locked "${args[@]}" > "$work/last.log" 2>&1
}

echo "baseline: every named test must pass unmutated"
for i in "${!names[@]}"; do
  wanted "${names[$i]}" "$@" || continue
  while IFS= read -r t; do
    [[ -z "$t" ]] && continue
    if ! run_test "$t" || ! grep -qE 'test result: ok\. [1-9]' "$work/last.log"; then
      echo "baseline fails or runs no test: $t" >&2
      cat "$work/last.log" >&2
      exit 2
    fi
  done <<< "${tests[$i]}"
done

status=0
for i in "${!names[@]}"; do
  name="${names[$i]}" file="${files[$i]}" from="${froms[$i]}" to="${tos[$i]}"
  wanted "$name" "$@" || continue
  if [[ ! -f "$file" ]]; then
    printf '%-15s %s (%s is gone)\n' does-not-apply "$name" "$file"; status=1; continue
  fi
  original="$(cat "$file"; printf x)"
  original="${original%x}"
  rest="${original/"$from"/}"
  if (( ${#original} - ${#rest} != ${#from} )) || [[ "${rest/"$from"/}" != "$rest" ]]; then
    printf '%-15s %s (snippet not found once in %s)\n' does-not-apply "$name" "$file"
    status=1; continue
  fi
  printf '%s' "${original/"$from"/"$to"}" > "$file"
  passed=() broken=0
  while IFS= read -r t; do
    [[ -z "$t" ]] && continue
    if run_test "$t"; then
      passed+=("$t")
    elif grep -q 'could not compile' "$work/last.log"; then
      broken=1; break
    fi
  done <<< "${tests[$i]}"
  if (( broken )); then
    printf '%-15s %s\n' does-not-build "$name"; status=1
  elif (( ${#passed[@]} == 0 )); then
    printf '%-15s %s\n' killed "$name"
  else
    printf '%-15s %s (still passing: %s)\n' survived "$name" "$(IFS='|'; echo "${passed[*]}")"
    status=1
  fi
  printf '%s' "$original" > "$file"
done
exit "$status"
