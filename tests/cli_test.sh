#!/bin/bash
# End-to-end checks of stream_sampler_cli, the one run path behind every
# CLI mode:
#   (1) stdin and --file print the same stdout, and so do a --workload run
#       that records a trace and the --replay-trace run of that trace —
#       for single, sharded and keyed runs;
#   (2) SIGKILL after a checkpoint, then --resume, prints stdout
#       byte-identical to an uninterrupted run (single sampler, single
#       estimator, sharded chunks, sharded keyhash estimator);
#   (3) a resume whose shard count, kind or registry name differs from the
#       checkpoint exits 2, on the single-threaded and the sharded driver;
#   (4) --threads=0 and malformed <window> <k> positionals exit 2.
#
# usage: cli_test.sh <path to stream_sampler_cli>

set -u
CLI=$(realpath "${1:?usage: cli_test.sh <stream_sampler_cli>}") || exit 1
WORK=$(mktemp -d "${TMPDIR:-/tmp}/cli_test.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# expect_exit <code> <label> <cli args...>: the run must exit with <code>.
expect_exit() {
  local want=$1 label=$2
  shift 2
  "$CLI" "$@" > /dev/null 2>&1 < /dev/null
  local got=$?
  [ "$got" -eq "$want" ] || fail "$label: exit $got, expected $want"
}

# expect_same <label> <file a> <file b>: identical, non-empty stdout.
expect_same() {
  if [ ! -s "$2" ]; then
    fail "$1: no output"
  elif ! cmp -s "$2" "$3"; then
    fail "$1: stdout differs"
    diff "$2" "$3" | head -5 >&2
  fi
}

seq 1 20000 > seq.txt
seq 1 20000 | awk '{print int($1 / 8), $1 % 500}' > ts.txt
WORKLOAD="poisson@zipf,lambda=4,alpha=1.2,domain=500"

# (1) Every input path prints the same stdout.
modes=(
  "single|--algo=bop-seq-swor --seed=7|1000 8"
  "single-estimator|--estimator=ams-fk --substrate=bop-ts-single --seed=7|100 16"
  "sharded-chunks|--algo=bop-seq-swor --seed=7 --threads=2 --shards=2 --partition=chunks|1000 8"
  "sharded-keyhash|--estimator=ams-fk --substrate=bop-ts-single --seed=7 --threads=2 --shards=2 --partition=keyhash|100 16"
  "keyed|--algo=bop-seq-swr --keys=2 --seed=7|200 4"
  "keyed-sharded|--algo=bop-seq-swr --keys=2 --seed=7 --threads=2 --shards=2|200 4"
)
for mode in "${modes[@]}"; do
  IFS='|' read -r name flags positionals <<< "$mode"
  input=seq.txt
  case "$flags" in *bop-ts-*) input=ts.txt ;; esac
  # shellcheck disable=SC2086
  "$CLI" $flags --report=0 $positionals < "$input" > "$name.stdin" 2> /dev/null \
    || fail "$name: stdin run failed"
  # shellcheck disable=SC2086
  "$CLI" $flags --file="$input" $positionals > "$name.file" 2> /dev/null \
    || fail "$name: --file run failed"
  expect_same "$name: stdin vs --file" "$name.stdin" "$name.file"
  # shellcheck disable=SC2086
  "$CLI" $flags --workload="$WORKLOAD" --items=20000 \
    --record-trace="$name.trace" $positionals > "$name.workload" 2> /dev/null \
    || fail "$name: --workload run failed"
  # shellcheck disable=SC2086
  "$CLI" $flags --replay-trace="$name.trace" $positionals \
    > "$name.replay" 2> /dev/null || fail "$name: --replay-trace run failed"
  expect_same "$name: --workload vs --replay-trace" "$name.workload" \
    "$name.replay"
done

# (2) SIGKILL right after a checkpoint, then --resume: byte-identical.
drills=(
  "single|--algo=bop-seq-swor --seed=7 --file=seq.txt|1000 8"
  "single-estimator|--estimator=ams-fk --substrate=bop-ts-single --seed=7 --file=ts.txt|100 16"
  "sharded-chunks|--algo=bop-seq-swor --seed=7 --file=seq.txt --threads=2 --shards=2 --partition=chunks|1000 8"
  "sharded-keyhash|--estimator=ams-fk --substrate=bop-ts-single --seed=7 --file=ts.txt --threads=2 --shards=2 --partition=keyhash|100 16"
)
for drill in "${drills[@]}"; do
  IFS='|' read -r name flags positionals <<< "$drill"
  # shellcheck disable=SC2086
  "$CLI" $flags $positionals > "$name.full" 2> /dev/null \
    || fail "$name: uninterrupted run failed"
  # The subshell outlives the kill (it runs `exit` after the CLI), so its
  # "Killed" job notice goes to /dev/null with the rest of its stderr.
  # shellcheck disable=SC2086
  ("$CLI" $flags --checkpoint-dir="$name.ckpt" --checkpoint-every=3000 \
    --kill-after=9000 $positionals; exit $?) > /dev/null 2>&1
  status=$?
  [ "$status" -eq 137 ] || fail "$name: exit $status, expected SIGKILL (137)"
  # shellcheck disable=SC2086
  "$CLI" $flags --checkpoint-dir="$name.ckpt" --resume $positionals \
    > "$name.resumed" 2> /dev/null || fail "$name: resumed run failed"
  expect_same "$name: resumed vs uninterrupted" "$name.full" "$name.resumed"
done

# (3) Resume mismatches exit 2 on both drivers. single.ckpt holds one
# bop-seq-swor shard, sharded-chunks.ckpt two.
expect_exit 2 "single driver, 2-shard checkpoint" --algo=bop-seq-swor \
  --seed=7 --file=seq.txt --checkpoint-dir=sharded-chunks.ckpt --resume 1000 8
expect_exit 2 "sharded driver, 1-shard checkpoint" --algo=bop-seq-swor \
  --seed=7 --file=seq.txt --threads=2 --shards=2 --partition=chunks \
  --checkpoint-dir=single.ckpt --resume 1000 8
expect_exit 2 "single driver, sampler checkpoint, estimator flags" \
  --estimator=ams-fk --substrate=bop-seq-single --file=seq.txt \
  --checkpoint-dir=single.ckpt --resume 1000 8
expect_exit 2 "sharded driver, sampler checkpoint, estimator flags" \
  --estimator=window-count --substrate=bop-seq-single --file=seq.txt \
  --threads=2 --shards=2 --partition=chunks \
  --checkpoint-dir=sharded-chunks.ckpt --resume 1000 8
expect_exit 2 "single driver, other registry name" --algo=bop-seq-swr \
  --file=seq.txt --checkpoint-dir=single.ckpt --resume 1000 8
expect_exit 2 "sharded driver, other registry name" --algo=bop-seq-swr \
  --file=seq.txt --threads=2 --shards=2 --partition=chunks \
  --checkpoint-dir=sharded-chunks.ckpt --resume 1000 8

# (4) Bad flags and positionals exit 2.
expect_exit 2 "--threads=0" --algo=bop-seq-swor --file=seq.txt \
  --threads=0 1000 8
expect_exit 2 "--threads=0 --shards=2" --algo=bop-seq-swor --file=seq.txt \
  --threads=0 --shards=2 1000 8
for positionals in "1e6 4" "12abc 4" "0 4" "1000 -1"; do
  # shellcheck disable=SC2086
  expect_exit 2 "positionals '$positionals'" --algo=bop-seq-swor \
    --file=seq.txt $positionals
done

if [ "$failures" -ne 0 ]; then
  echo "cli_test: $failures failure(s)" >&2
  exit 1
fi
echo "cli_test: all checks passed"
