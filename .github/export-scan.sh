#!/bin/sh
# Export scan: every value a lib/ .mli declares is called as Module.value
# from lib/, bin/, examples/ or perfbench/ outside its own module, or is
# on export-keep-list.txt next to this script with the reason it stays.
# A value declared inside `module Sub : sig ... end` is searched as
# Sub.value.  Prints the names the scan finds that the list lacks and the
# names the list holds that the scan no longer finds, and exits 1 when
# there are any.  Run from the repository root: sh .github/export-scan.sh
set -eu
export LC_ALL=C
keep_list=$(dirname "$0")/export-keep-list.txt

scan() {
  for mli in $(git ls-files 'lib/*.mli'); do
    ml=${mli%.mli}.ml
    top=$(basename "$mli" .mli | sed 's/^./\U&/')
    awk -v top="$top" '
      /^ *module [A-Z][A-Za-z0-9_]* *: *sig/ { match($0, /module [A-Z][A-Za-z0-9_]*/); m[++d] = substr($0, RSTART + 7, RLENGTH - 7); next }
      /^ *end *$/ && d > 0 { d--; next }
      /^ *val [a-z_]/ { match($0, /val [a-z_][A-Za-z0-9_'"'"']*/); print (d ? m[d] : top) "." substr($0, RSTART + 4, RLENGTH - 4) }' "$mli" |
      sort -u | while read -r q; do
        git grep -qw "$q" -- lib bin examples perfbench ":!$ml" ":!$mli" && continue
        # Named bare in a file that opens the module.
        for f in $(git grep -lE "open ([A-Z][a-z_]*\.)?${q%.*}\b|${q%.*}\.\(" -- lib bin examples perfbench ":!$ml" ":!$mli"); do
          git grep -qw "${q##*.}" -- "$f" && continue 2
        done
        echo "$q"
      done
  done | sort -u
}

found=$(mktemp)
listed=$(mktemp)
trap 'rm -f "$found" "$listed"' EXIT
scan > "$found"
grep -v '^#' "$keep_list" | awk 'NF { print $1 }' | sort -u > "$listed"

status=0
for q in $(comm -23 "$found" "$listed"); do
  echo "export-scan: $q has no caller outside its module and is not on $keep_list"
  status=1
done
for q in $(comm -13 "$found" "$listed"); do
  echo "export-scan: $keep_list lists $q, which the scan no longer prints"
  status=1
done
[ "$status" -eq 0 ] && echo "export-scan: $(wc -l < "$found") exports outside programs, all on the keep-list"
exit "$status"
