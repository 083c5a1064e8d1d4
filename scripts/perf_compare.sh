#!/usr/bin/env bash
# Compares two sets of committed perfbench runs, metric by metric.
#
#   scripts/perf_compare.sh results/perf/pr16-parent.jsonl results/perf/pr16.jsonl
#
# Each file holds one JSON object per perfbench run, written as
#
#   {"pr":16,"side":"change","commit":"<sha>","workload":"profile_deep",
#    "seed":1,"trace":0,"result":<the last line perfbench/run.sh printed>}
#
# OLD is the parent side, NEW the change. For every workload in both files
# and every end-to-end metric of BENCHMARK.json, one row gives the parent's
# median and quartiles, the change's median, the change in percent and the
# metric's bound. The verdict is
#   worse       the change's median is worse than the parent's by more
#               than the bound;
#   unresolved  the parent's quartile spread, relative to its median, is
#               wider than the bound, and not every change run reads better
#               than every parent run;
#   ok          otherwise.
# Two more rows per workload give failed/attempted operations summed over
# the runs, and the runs whose outputs were correct; either is worse when
# its share moves the wrong way. Exits 1 if any row is worse.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 OLD.jsonl NEW.jsonl" >&2
  exit 2
fi
bench="$(dirname "$0")/../BENCHMARK.json"

jq -n -r --slurpfile b "$bench" --slurpfile old "$1" --slurpfile new "$2" '
  # Quantile by linear interpolation between the two nearest ranks.
  def quant($q): sort as $s | ((($s | length) - 1) * $q) as $p | ($p | floor) as $i
    | if $i + 1 < ($s | length) then $s[$i] + ($s[$i + 1] - $s[$i]) * ($p - $i) else $s[$i] end;
  def vals($m): [.[] | .result.metrics[$m].value | numbers];
  def total($k): map(.result[$k] // 0) | add;
  def share($a; $b): if $b == 0 then 0 else $a / $b end;
  $b[0].workloads[].name as $w
  | ($old | map(select(.workload == $w))) as $o
  | ($new | map(select(.workload == $w))) as $n
  | select(($o | length) > 0 and ($n | length) > 0)
  | ( $b[0].end_to_end[] as $m
      | ($o | vals($m.name)) as $ov | ($n | vals($m.name)) as $nv
      | select(($ov | length) > 0 and ($nv | length) > 0)
      | ($ov | quant(0.5)) as $om | ($ov | quant(0.25)) as $q1 | ($ov | quant(0.75)) as $q3
      | ($nv | quant(0.5)) as $nm
      | share($nm - $om; $om) as $d
      | (if $m.better == "lower" then $d else -$d end) as $worse
      | (if $m.better == "lower" then ($nv | max) < ($ov | min) else ($nv | min) > ($ov | max) end) as $allBetter
      | (if $worse > $m.bound then "worse"
         elif share($q3 - $q1; $om) > $m.bound and ($allBetter | not) then "unresolved"
         else "ok" end) as $v
      | [$w, $m.name, $om, $q1, $q3, $nm, $d * 100, $m.bound * 100, $v] ),
    ( ($o | total("failed")) as $of | ($o | total("attempted")) as $oa
      | ($n | total("failed")) as $nf | ($n | total("attempted")) as $na
      | [$w, "failed", "\($of)/\($oa)", "-", "-", "\($nf)/\($na)", "-", "-",
         (if share($nf; $na) > share($of; $oa) then "worse" else "ok" end)] ),
    ( ($o | map(select(.result.correct == true)) | length) as $oc
      | ($n | map(select(.result.correct == true)) | length) as $nc
      | [$w, "correct", "\($oc)/\($o | length)", "-", "-", "\($nc)/\($n | length)", "-", "-",
         (if share($nc; $n | length) < share($oc; $o | length) then "worse" else "ok" end)] )
  | @tsv
' | awk -F '\t' '
  function num(x) { return x ~ /^-?[0-9][0-9.e+-]*$/ ? sprintf("%.4g", x) : x }
  BEGIN {
    printf "%-14s %-12s %10s %10s %10s %10s %8s %6s  %s\n",
      "workload", "metric", "parent", "q1", "q3", "change", "delta", "bound", "verdict"
  }
  {
    delta = $7 == "-" ? "-" : sprintf("%+.1f%%", $7)
    bound = $8 == "-" ? "-" : sprintf("%g%%", $8)
    printf "%-14s %-12s %10s %10s %10s %10s %8s %6s  %s\n",
      $1, $2, num($3), num($4), num($5), num($6), delta, bound, $9
    if ($9 == "worse") worse = 1
  }
  END { exit worse }
'
