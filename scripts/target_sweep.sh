#!/usr/bin/env bash
# Cross-target sweep: profile every zoo and example program under each
# device model and check the pluggable-target contract:
#
#   1. `-target idealized` produces byte-identical profiles to a run that
#      never names a target — at several worker counts — for EVERY program;
#   2. the constrained models (tofino, ebpf) genuinely change the profile
#      on at least 3 programs each (SRAM clamps, exact-state maps, stage
#      budgets, and recirculation bans must be observable, not cosmetic);
#   3. adversarial generation against tofino validates on the device for
#      hash-table collision and conflict blocks of tables larger than its
#      512-slot clamp.
#
# Only the profile text above the run summary is compared; the summary
# carries wall-clock timings that differ between runs by construction.
# Blink and NetWarden reach `p4wn profile`'s 10 s symbolic-loop timeout,
# where the number of completed iterations (and so the profile) depends on
# machine speed and worker count; they run with -max-iters 4 under a
# 1 h timeout so the iteration count is fixed.
# The comparison table goes to stdout (and into $TARGET_SWEEP_OUT if set).
#
# Requires: go. Run from anywhere; it cds to the repo root.
set -euo pipefail

cd "$(cd "$(dirname "$0")/.." && pwd)"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "target_sweep: FAIL: $*" >&2; exit 1; }

echo "== build"
go build -o "$WORK/p4wn" ./cmd/p4wn

# profile_text <out> <flags...> — profile once, keep only the byte-stable
# profile section (everything before the "run:" summary line).
profile_text() {
  local out="$1"; shift
  "$WORK/p4wn" profile "$@" -seed 1 >"$out.full" 2>"$out.err" \
    || { cat "$out.err" >&2; fail "profile $* exited nonzero"; }
  sed '/^run: /,$d' "$out.full" >"$out"
}

TOFINO_DIFF=0
EBPF_DIFF=0
COUNT=0

# sweep <label> <flags...> — run one program under every target and record
# a row "label tofino-verdict ebpf-verdict".
sweep() {
  local label="$1"; shift
  local d="$WORK/$label"
  profile_text "$d.default" "$@"
  profile_text "$d.ideal1" "$@" -target idealized -workers 1
  profile_text "$d.ideal4" "$@" -target idealized -workers 4
  cmp -s "$d.default" "$d.ideal1" \
    || fail "$label: idealized (workers=1) differs from the default profile"
  cmp -s "$d.default" "$d.ideal4" \
    || fail "$label: idealized (workers=4) differs from the default profile"
  profile_text "$d.tofino" "$@" -target tofino
  profile_text "$d.ebpf" "$@" -target ebpf
  local tv=same ev=same
  cmp -s "$d.default" "$d.tofino" || { tv=DIFF; TOFINO_DIFF=$((TOFINO_DIFF + 1)); }
  cmp -s "$d.default" "$d.ebpf" || { ev=DIFF; EBPF_DIFF=$((EBPF_DIFF + 1)); }
  COUNT=$((COUNT + 1))
  printf '%-24s %8s %8s\n' "$label" "$tv" "$ev" >>"$WORK/summary"
}

echo "== sweep: example programs"
for f in examples/programs/*.p4w; do
  sweep "$(basename "$f" .p4w)" -file "$f"
done

echo "== sweep: zoo programs"
"$WORK/p4wn" list | awk 'NR>1' | sed -E 's/ +[0-9]+ +.*$//' >"$WORK/zoo.names"
while IFS= read -r prog; do
  label=$(printf '%s' "$prog" | tr -c 'A-Za-z0-9._-' '_')
  case "$prog" in
    "Blink (S5)" | "NetWarden (S11)") sweep "$label" -prog "$prog" -timeout 1h -max-iters 4 ;;
    *) sweep "$label" -prog "$prog" ;;
  esac
done <"$WORK/zoo.names"

echo
printf '%-24s %8s %8s\n' program tofino ebpf
sort "$WORK/summary"
echo
echo "programs swept: $COUNT, tofino diverges on $TOFINO_DIFF, ebpf diverges on $EBPF_DIFF"

[ "$COUNT" -ge 15 ] || fail "sweep covered fewer programs than expected ($COUNT)"
[ "$TOFINO_DIFF" -ge 3 ] || fail "tofino must diverge on >= 3 programs, got $TOFINO_DIFF"
[ "$EBPF_DIFF" -ge 3 ] || fail "ebpf must diverge on >= 3 programs, got $EBPF_DIFF"

# adversarial <prog> <block> — generate for the block against tofino and
# require the trace to trigger it on the device.
adversarial() {
  local out
  out=$("$WORK/p4wn" adversarial -prog "$1" -target "$2" -target-model tofino) \
    || fail "adversarial $1/$2 exited nonzero"
  echo "$out" | head -1
  grep -q 'validated=true' <<<"$out" || fail "adversarial $1/$2 did not validate on tofino"
}

echo
echo "== adversarial generation on tofino"
adversarial "htable (S13)" flow_collision
adversarial "NetHCF (S9)" hc_conflict

if [ -n "${TARGET_SWEEP_OUT:-}" ]; then
  { printf '%-24s %8s %8s\n' program tofino ebpf; sort "$WORK/summary"; } >"$TARGET_SWEEP_OUT"
fi

echo "target_sweep: PASS"
