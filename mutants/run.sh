#!/usr/bin/env bash
# Runs every hand mutant of a list (default mutants/list.txt; its
# header gives the format). Each mutant is applied with `go test
# -overlay` from a temp dir, so the tree is never touched, and the
# named packages' tests run against it. Prints killed or survived per
# mutant, with the first killing test and its time, and exits non-zero
# when a mutant survives or an entry is broken: an old text that does
# not occur exactly once, or a mutant that does not build. Foreground;
# needs only Go and bash.
set -euo pipefail
shopt -u patsub_replacement 2>/dev/null || true # bash 5.2: & in ${x/p/r} is literal
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
list="${1:-mutants/list.txt}"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/hetmp-mutants.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

total=0 survived=0

# mutate NAME FILE PACKAGES OLD NEW runs one mutant.
mutate() {
	local name=$1 file=$2 pkgs=$3 old new content rest out status line verdict
	printf -v old '%b' "$4"
	printf -v new '%b' "$5"
	if [[ -z $name || -z $file || -z $pkgs || -z $old ]]; then
		echo "mutants: entry '$name' in $list lacks a field" >&2
		exit 2
	fi
	IFS= read -r -d '' content <"$file" || true
	rest=${content#*"$old"}
	if [[ $rest == "$content" ]]; then
		echo "mutants: $name: old text does not occur in $file" >&2
		exit 2
	fi
	if [[ $rest == *"$old"* ]]; then
		echo "mutants: $name: old text occurs more than once in $file" >&2
		exit 2
	fi
	total=$((total + 1))
	printf '%s' "${content/"$old"/"$new"}" >"$tmp/$total.go"
	printf '{"Replace": {"%s": "%s"}}\n' "$root/$file" "$tmp/$total.go" >"$tmp/$total.json"
	local start=${EPOCHREALTIME/[.,]/}
	# shellcheck disable=SC2086 # packages is a word list
	out=$(go test -count=1 -failfast -overlay "$tmp/$total.json" $pkgs 2>&1) && status=0 || status=$?
	local tenths=$(((${EPOCHREALTIME/[.,]/} - start) / 100000))
	local secs=$((tenths / 10)).$((tenths % 10))
	if ((status == 0)); then
		survived=$((survived + 1))
		printf '%-32s SURVIVED (%ss)\n' "$name" "$secs"
		return
	fi
	if [[ $out == *"[build failed]"* || $out == *"[setup failed]"* ]]; then
		echo "mutants: $name does not build:" >&2
		echo "$out" >&2
		exit 2
	fi
	verdict="a package failed outside any test"
	while IFS= read -r line; do
		if [[ $line =~ ^[[:space:]]*---\ FAIL:\ ([^[:space:]]+)\ \(([0-9.]+s)\) ]]; then
			verdict="by ${BASH_REMATCH[1]} in ${BASH_REMATCH[2]}"
			break
		fi
	done <<<"$out"
	printf '%-32s killed %s (go test %ss)\n' "$name" "$verdict" "$secs"
}

name='' file='' pkgs='' old='' new=''
flush() {
	if [[ -n $name$file$pkgs$old$new ]]; then
		mutate "$name" "$file" "$pkgs" "$old" "$new"
	fi
	name='' file='' pkgs='' old='' new=''
}
while IFS= read -r line || [[ -n $line ]]; do
	[[ $line == \#* ]] && continue
	if [[ -z ${line//[[:space:]]/} ]]; then
		flush
		continue
	fi
	key=${line%%[[:space:]]*}
	value=${line#"$key"}
	value=${value#"${value%%[![:space:]]*}"}
	case $key in
	mutant) name=$value ;;
	file) file=$value ;;
	packages) pkgs=$value ;;
	old) old=$value ;;
	new) new=$value ;;
	*)
		echo "mutants: unknown key '$key' in $list" >&2
		exit 2
		;;
	esac
done <"$list"
flush

echo "mutants: $((total - survived)) of $total killed, $survived survived"
((survived == 0))
