#!/usr/bin/env bash
# The performance gate: a change may be worse than its parent commit by no
# more than the repository benchmark's bounds, measured on one machine.
#
#   bash .github/perfgate.sh run PARENT OUT   # from the change's checkout root
#   bash .github/perfgate.sh compare DIR      # judge results saved by run
#
# run checks PARENT out with git worktree and measures both trees:
#   - every workload in the change's BENCHMARK.json, each run being
#     bash perfbench/run.sh --workload W --seed S --seconds <run_seconds> --trace 0,
#     as three pairs at seeds 1-3, the side that goes first alternating;
#   - the Go benchmarks in $gobench, go test -benchmem -count 10.
# It saves them under OUT and then runs compare on OUT. A PARENT that is
# empty, all zeros or absent from the clone (a first or a force push)
# skips the gate with a notice.
#
# compare reads DIR/benchmark.json, DIR/{parent,change}/perfbench.jsonl
# (one {workload, seed, result} line per run, result being perfbench's
# last output line) and DIR/{parent,change}/gobench.txt. It writes a table
# per workload to stdout and $GITHUB_STEP_SUMMARY, and exits 1 when
#   - a run is not correct, or the change fails a larger share of the
#     operations it attempts than the parent;
#   - a workload, an end-to-end metric or a gated Go benchmark has no
#     value on either side;
#   - the change's median of an end-to-end metric is worse than the
#     parent's by more than the metric's bound ("better" gives the
#     direction);
#   - a Go benchmark's fastest ns/op, or its B/op, is more than $gotol
#     (25%) above the parent's.
# The fixture sets under .github/perfgate/ exercise compare.
set -euo pipefail

gobench=(BenchmarkEmitNil:./internal/obs BenchmarkExecuteReplay:.)
gotol=0.25

compare() {
	local dir=$1 runs gb rows
	shopt -s nullglob
	runs=$(jq -n '[inputs | .side = (input_filename | split("/")[-2])]' "$dir"/*/perfbench.jsonl </dev/null)
	gb=$(jq -nR '[inputs | select(startswith("Benchmark")) | [splits("[ \t]+")] as $f
		| def at($unit): ($f | index($unit)) as $i | if $i then $f[$i - 1] | tonumber else null end;
		{side: (input_filename | split("/")[-2]), name: ($f[0] | sub("-[0-9]+$"; "")),
		 ns: at("ns/op"), bytes: at("B/op")}]' "$dir"/*/gobench.txt </dev/null)
	rows=$(jq -n --slurpfile spec "$dir/benchmark.json" --argjson runs "$runs" --argjson gb "$gb" \
		--arg gobench "${gobench[*]}" --argjson gotol "$gotol" '
		def median: sort | length as $n | if $n == 0 or any(.[]; . == null) then null
			elif $n % 2 == 1 then .[($n - 1) / 2] else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
		def least: if length == 0 or any(.[]; . == null) then null else min end;
		def share: (map(.failed) | add) / ([map(.attempted) | add, 1] | max);
		def row($table; $metric; $p; $c; $better; $bound):
			{table: $table, metric: $metric, parent: $p, change: $c, bound: $bound,
			 delta: (if $p == null or $c == null or $p == 0 then null else ($c - $p) / $p end),
			 ok: ($p != null and $c != null and
				(if $better == "lower" then $c <= $p * (1 + $bound) else $c >= $p * (1 - $bound) end))};
		def runs($side; $w): [$runs[] | select(.side == $side and .workload == $w) | .result];
		def tally: "\(length) runs, \(map(select(.correct)) | length) correct, \(map(.failed) | add // 0)/\(map(.attempted) | add // 0) failed";
		[($spec[0].workloads[].name as $w | runs("parent"; $w) as $p | runs("change"; $w) as $c
			| {table: $w, metric: "runs", parent: ($p | tally), change: ($c | tally),
			   ok: (($p | length) > 0 and ($c | length) > 0 and all($p[], $c[]; .correct)
				and ($c | share) <= ($p | share))},
			  ($spec[0].end_to_end[] as $m
				| row($w; "\($m.name) (\($m.unit), \($m.better))";
					$p | map(.metrics[$m.name].value) | median;
					$c | map(.metrics[$m.name].value) | median; $m.better; $m.bound))),
		 ($gobench | splits(" ") | split(":")[0] as $b
			| [$gb[] | select(.name == $b)] as $all
			| ["ns", "bytes"][] as $k
			| row("Go benchmarks"; "\($b) \(if $k == "ns" then "fastest ns/op" else "B/op" end)";
				[$all[] | select(.side == "parent")[$k]] | least;
				[$all[] | select(.side == "change")[$k]] | least; "lower"; $gotol))]')
	jq -r '
		def num: if type != "number" then (. // "-" | tostring) elif . == 0 then "0"
			else (fabs | log10 | floor) as $e | pow(10; 3 - $e) as $s | (. * $s | round) / $s | tostring end;
		def pct($sign): if . == null then "-" else (. * 1000 | round) / 10
			| (if $sign and . > 0 then "+" else "" end) + tostring + "%" end;
		. as $rows | "## perfgate: change vs parent",
		(reduce $rows[].table as $t ([]; if any(.[]; . == $t) then . else . + [$t] end))[] as $t
		| "", "### \($t)", "", "| metric | parent | change | change vs parent | bound | |", "|---|---|---|---|---|---|",
		  ($rows[] | select(.table == $t)
			| "| \(.metric) | \(.parent | num) | \(.change | num) | \(.delta | pct(true)) | \(.bound | pct(false)) | \(if .ok then "ok" else "**FAIL**" end) |")
	' <<<"$rows" | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
	jq -e 'all(.[]; .ok)' <<<"$rows" >/dev/null
}

run() {
	local parent=$1 out=$2 secs w seed i b side
	if [[ ! $parent =~ [1-9a-f] ]] || ! git cat-file -e "$parent^{commit}" 2>/dev/null; then
		echo "::notice::perfgate: no parent commit to compare against (\"$parent\"); gate skipped"
		return 0
	fi
	mkdir "$out" "$out/parent" "$out/change" # a fresh OUT: results are appended
	out=$(cd "$out" && pwd)
	# Global, not local: the EXIT trap runs after run has returned.
	root=$(pwd)
	tree="$(mktemp -d)/parent"
	git worktree add --detach "$tree" "$parent"
	trap 'git -C "$root" worktree remove --force "$tree"' EXIT
	cp BENCHMARK.json "$out/benchmark.json"
	secs=$(jq -r .run_seconds BENCHMARK.json)
	tree_of() { if [[ $1 == parent ]]; then echo "$tree"; else echo "$root"; fi; }
	sides() { if (($1 % 2)); then echo parent change; else echo change parent; fi; }

	for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
		for seed in 1 2 3; do
			for side in $(sides "$seed"); do
				echo "perfgate: $w seed $seed on the $side" >&2
				local log="$out/$side/$w.$seed.log"
				if (cd "$(tree_of "$side")" && bash perfbench/run.sh --workload "$w" --seed "$seed" \
					--seconds "$secs" --trace 0) >"$log" 2>&1; then
					tail -n 1 "$log" | jq -c --arg w "$w" --argjson s "$seed" \
						'{workload: $w, seed: $s, result: .}' >>"$out/$side/perfbench.jsonl"
				else
					echo "perfgate: that run failed:" >&2
					tail -n 20 "$log" >&2
				fi
			done
		done
	done
	i=1
	for b in "${gobench[@]}"; do
		for side in $(sides "$i"); do
			echo "perfgate: ${b%%:*} on the $side" >&2
			(cd "$(tree_of "$side")" && go test -run '^$' -bench "^${b%%:*}\$" -benchmem -count 10 "${b#*:}") \
				>>"$out/$side/gobench.txt" 2>&1 || echo "perfgate: ${b%%:*} failed on the $side" >&2
		done
		i=$((i + 1))
	done
	compare "$out"
}

case "${1:-}" in
run) run "${2:-}" "${3:?usage: perfgate.sh run PARENT OUT}" ;;
compare) compare "${2:?usage: perfgate.sh compare DIR}" ;;
*)
	echo "usage: perfgate.sh run PARENT OUT | compare DIR" >&2
	exit 2
	;;
esac
