#!/bin/sh
# Full verification gate: gofmt, vet, build, race-enabled tests, and short
# smoke runs of every fuzz target. Run from the repository root (or via
# `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "gofmt -l flags:"; echo "$unformatted"; exit 1; }

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

# internal/core alone takes ~11 min under the race detector on two cores,
# past go test's 10-minute default alarm.
echo "==> go test -race"
go test -race -timeout 30m ./...

# Segments commit concurrently at every week barrier: the store's fault,
# checkpoint and resume tests again, five times over, under the race
# detector.
echo "==> go test -race -count=5 (concurrent segment commits)"
go test -race -count=5 -timeout 30m \
	-run 'TestFaultScheduleCommitsOrSalvages|TestCheckpoint|TestResumeCrashEquivalence' \
	./internal/store ./internal/core

# Tests of timing, cancellation and restarts whose verdict must not depend
# on the scheduler, ten times over under the race detector and the gate's
# own load: a correct tree passes them every time.
echo "==> go test -race -count=10 (schedule-independent tests)"
go test -race -count=10 -timeout 30m \
	-run 'TestPolitenessGapEnforcedUnderConcurrency|TestChaosCrawlWeekCounters|TestAbandonedAuditsCountOneHitOrMiss|TestRestartOverAMovedDirKeepsItsRun' \
	./internal/crawler ./internal/service ./cmd/coordinator

# Budgeted fuzz smoke runs of every fuzz target (FUZZTIME each, 3s by
# default).
sh scripts/fuzz-smoke.sh

# One-iteration bench smoke of the root perf ablations bench/ has no twin for:
# not a measurement, just proof the benchmarks still build, run, and verify
# their own observation counts (BenchmarkServeAudit additionally reconciles
# the service's /metrics counters against the load it generated).
echo "==> bench smoke (segment decode + fingerprint memo + signature scan + serve audit + ReDoS input size, 1 iteration)"
go test -run '^$' -bench 'BenchmarkStoreDecodeSegment|BenchmarkFingerprintMemo|BenchmarkSignatureScan|BenchmarkServeAudit|BenchmarkServeBatch|BenchmarkAblationReDoSInputSize' \
	-benchmem -benchtime 1x .
echo "==> bench smoke (bundle record decode, 1 iteration)"
go test -run '^$' -bench 'BenchmarkDecodeRecord' -benchmem -benchtime 1x ./internal/wexbundle
echo "==> bench smoke (store record decode, 1 iteration)"
go test -run '^$' -bench 'BenchmarkDecodeObservation' -benchmem -benchtime 1x ./internal/store
echo "==> bench smoke (generator truth, 1 iteration)"
go test -run '^$' -bench 'BenchmarkSiteTruth' -benchmem -benchtime 1x ./internal/webgen
echo "==> bench smoke (synthetic web request mix, 1 iteration)"
go test -run '^$' -bench 'BenchmarkServeRequestMix' -benchmem -benchtime 1x ./internal/webserver
echo "==> bench smoke (nine collectors over a randomized stream, 1 iteration)"
go test -run '^$' -bench 'BenchmarkRunnerObserve' -benchmem -benchtime 1x ./internal/analysis

# Chaos-crawl smoke: an end-to-end cmd/crawl run with fault injection and
# the resilience layer on. Proves the fault drill terminates and the
# pipeline survives stalls, resets, truncations, and slow-loris drips.
echo "==> chaos crawl smoke (fault-injected end-to-end run)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# kill_when SIGNAL PID LOG PATTERN N sends SIGNAL to PID once N lines of
# LOG match PATTERN; it fails if PID exits first or the wait times out.
kill_when() {
	for _ in $(seq 1 600); do
		kill -0 "$2" 2>/dev/null || return 1 # finished before the signal could land
		n=$(grep -c "$4" "$3" 2>/dev/null) || n=0
		if [ "${n:-0}" -ge "$5" ]; then
			kill "-$1" "$2"
			return 0
		fi
		sleep 0.02
	done
	return 1
}
go run ./cmd/crawl -domains 40 -weeks 3 -chaos 0.3 -politeness \
	-out "$tmp/chaos.store" >/dev/null

# Bundled-mode smoke: generate a bundling population, crawl it with
# script-body fetching + signature scanning on, and prove the analyzer's
# bundle-scan summary reports signature-recovered detections end-to-end.
# The direct-mode gendata store of the same population is the reference:
# its summary counts the bundled ground truth the crawl must recover.
echo "==> bundled crawl smoke (gendata -> crawl -bundle-scan -> analyze)"
go run ./cmd/gendata -domains 40 -weeks 3 -bundle-frac 0.8 -quiet \
	-out "$tmp/bundled-truth.store" >/dev/null
go run ./cmd/analyze -in "$tmp/bundled-truth.store" -bundle-scan >"$tmp/bundled-truth.report"
go run ./cmd/crawl -domains 40 -weeks 3 -bundle-frac 0.8 -bundle-scan \
	-out "$tmp/bundled.store" >/dev/null
go run ./cmd/analyze -in "$tmp/bundled.store" -bundle-scan >"$tmp/bundled.report"
for rep in "$tmp/bundled-truth.report" "$tmp/bundled.report"; do
	grep -q 'Bundle-scan summary' "$rep"
	sigs=$(sed -n 's/.*signature-recovered library detections: *\([0-9]*\) \/.*/\1/p' "$rep")
	[ "${sigs:-0}" -gt 0 ] || {
		echo "$rep: no signature-recovered detections in a bundled run"; exit 1; }
done

# CSV export smoke: reprotables -csvdir writes one file per series table of
# the report, each weekly file with every week of the study; -quiet keeps
# stderr empty. (A Figure 15 library no site uses has no version columns,
# so its header is `date` alone.)
echo "==> csv export smoke (reprotables -quiet -csvdir)"
go run ./cmd/reprotables -domains 60 -weeks 8 -quiet -csvdir "$tmp/csv" \
	>"$tmp/reprotables.out" 2>"$tmp/reprotables.err"
[ ! -s "$tmp/reprotables.err" ] || {
	echo "reprotables -quiet wrote to stderr:"; cat "$tmp/reprotables.err"; exit 1; }
n=$(ls "$tmp/csv" | wc -l)
[ "$n" -eq 17 ] || { echo "reprotables -csvdir wrote $n files, want 17"; exit 1; }
for f in "$tmp"/csv/*.csv; do
	[ "$(basename "$f")" = figure12.csv ] && continue
	lines=$(wc -l <"$f")
	header=$(head -n 1 "$f")
	[ "$lines" -eq 9 ] || { echo "$f: $lines lines, want 9 (header + 8 weeks)"; exit 1; }
	case "$header" in
	date | date,*) ;;
	*) echo "$f: header $header does not start with date"; exit 1 ;;
	esac
done

# Crash-recovery smoke: SIGKILL a checkpointed crawl mid-run, fsck the
# wreckage, resume, and prove the final report is byte-identical to an
# uninterrupted run of the same configuration. This is the end-to-end
# version of the crash-equivalence tests: a real process killed with a
# real signal, recovered by the real commands.
echo "==> crash-recovery smoke (SIGKILL mid-crawl, fsck, resume, diff reports)"
go build -o "$tmp/crawl" ./cmd/crawl
go build -o "$tmp/fsck" ./cmd/fsck
go build -o "$tmp/analyze" ./cmd/analyze
CRAWL_ARGS="-domains 80 -weeks 60 -seed 3 -workers 16 -segments 2 -checkpoint"

# Uninterrupted reference.
"$tmp/crawl" $CRAWL_ARGS -out "$tmp/ref.store" 2>/dev/null >/dev/null
"$tmp/analyze" -in "$tmp/ref.store" >"$tmp/ref.report"

# The victim: same run, killed with SIGKILL once at least two weeks have
# committed.
"$tmp/crawl" $CRAWL_ARGS -out "$tmp/crash.store" 2>"$tmp/crash.log" >/dev/null &
crawl_pid=$!
killed=""
kill_when KILL "$crawl_pid" "$tmp/crash.log" 'committed' 2 && killed=yes
wait "$crawl_pid" 2>/dev/null || true
[ -n "$killed" ] || { echo "crawl finished before SIGKILL could land; smoke inconclusive"; exit 1; }

# The kill left no manifest: verification must fail, repair must restore
# the store to its last checkpoint, and verification must then pass.
if "$tmp/fsck" -store "$tmp/crash.store" >/dev/null 2>&1; then
	echo "fsck verified a crashed store as intact"; exit 1
fi
"$tmp/fsck" -store "$tmp/crash.store" -stats
"$tmp/fsck" -store "$tmp/crash.store" -repair
"$tmp/fsck" -store "$tmp/crash.store"

# Resume, then prove the recovered run equals the uninterrupted one.
"$tmp/crawl" $CRAWL_ARGS -resume -out "$tmp/crash.store" 2>/dev/null >/dev/null
"$tmp/fsck" -store "$tmp/crash.store"
"$tmp/analyze" -in "$tmp/crash.store" >"$tmp/crash.report"
cmp "$tmp/ref.report" "$tmp/crash.report" || {
	echo "resumed run's report differs from the uninterrupted reference"; exit 1; }

# Bundle record/replay smoke: record a checkpointed crawl into a
# web-execution bundle, SIGKILL it mid-run, fsck both wrecks, resume, and
# prove (a) the resumed store's report equals the uninterrupted reference,
# (b) a zero-network `crawl -replay` of the bundle, given no study flags,
# replays the recorded study to the same report, (c) a replay asked for
# another study is refused before it creates its store, (d) a recording
# taken under faults with -politeness replays to the live run's report, and
# (e) fsck detects a flipped byte in a sealed bundle segment.
echo "==> bundle smoke (record, SIGKILL, fsck, resume, replay, diff reports)"
BUNDLE_ARGS="-domains 60 -weeks 40 -seed 11 -workers 16 -segments 2 -checkpoint"

# Uninterrupted reference: store and bundle recorded side by side.
"$tmp/crawl" $BUNDLE_ARGS -record "$tmp/ref.bundle" -out "$tmp/bref.store" 2>/dev/null >/dev/null
"$tmp/fsck" -store "$tmp/ref.bundle" | grep -q 'format v4'
"$tmp/analyze" -in "$tmp/bref.store" >"$tmp/bref.report"

# The victim recording, killed once at least two weeks have committed.
"$tmp/crawl" $BUNDLE_ARGS -record "$tmp/bcrash.bundle" -out "$tmp/bcrash.store" 2>"$tmp/bcrash.log" >/dev/null &
crawl_pid=$!
killed=""
kill_when KILL "$crawl_pid" "$tmp/bcrash.log" 'committed' 2 && killed=yes
wait "$crawl_pid" 2>/dev/null || true
[ -n "$killed" ] || { echo "recording finished before SIGKILL could land; smoke inconclusive"; exit 1; }

# Neither archive was sealed: fsck must refuse both, and repair must
# restore each to its last checkpoint (the bundle commits each week first,
# so it is never behind the store).
if "$tmp/fsck" -store "$tmp/bcrash.bundle" >/dev/null 2>&1; then
	echo "fsck verified a crashed bundle as intact"; exit 1
fi
"$tmp/fsck" -store "$tmp/bcrash.bundle" -repair
"$tmp/fsck" -store "$tmp/bcrash.bundle" -stats | grep -q 'format v4'
if "$tmp/fsck" -store "$tmp/bcrash.store" >/dev/null 2>&1; then
	echo "fsck verified a crashed store as intact"; exit 1
fi
"$tmp/fsck" -store "$tmp/bcrash.store" -repair

# Resume re-records only the uncommitted suffix; the recovered run must
# equal the uninterrupted one.
"$tmp/crawl" $BUNDLE_ARGS -resume -record "$tmp/bcrash.bundle" -out "$tmp/bcrash.store" 2>/dev/null >/dev/null
"$tmp/fsck" -store "$tmp/bcrash.bundle"
"$tmp/fsck" -store "$tmp/bcrash.store"
# The resumed bundle is the re-recorded-week case the forward reader's
# week-order invariant has to admit: fsck reads it as in order.
"$tmp/fsck" -store "$tmp/bcrash.bundle" -stats | grep -q 'stream order: ok (weeks 0–39)'
"$tmp/analyze" -in "$tmp/bcrash.store" >"$tmp/bcrash.report"
cmp "$tmp/bref.report" "$tmp/bcrash.report" || {
	echo "resumed recording's report differs from the uninterrupted reference"; exit 1; }

# A zero-network crawl replayed from the bundle, with no study flags, takes
# the recorded 60 × 40 study from the bundle's manifest and writes a store
# whose report is byte-identical.
"$tmp/crawl" -workers 16 -segments 2 -replay "$tmp/bcrash.bundle" -out "$tmp/breplay.store" 2>/dev/null >/dev/null
grep -q '"total": 2400' "$tmp/breplay.store/manifest.json" || {
	echo "the flagless replay did not write the recorded 60 × 40 study"; exit 1; }
"$tmp/analyze" -in "$tmp/breplay.store" >"$tmp/breplay.report"
cmp "$tmp/bref.report" "$tmp/breplay.report" || {
	echo "replayed crawl's report differs from the live run that recorded it"; exit 1; }

# A replay asked for a study the bundle did not record is refused before
# its store directory is created.
if "$tmp/crawl" -weeks 201 -replay "$tmp/bcrash.bundle" -out "$tmp/bwrong.store" >/dev/null 2>"$tmp/bwrong.err"; then
	echo "crawl -replay of a 40-week bundle as 201 weeks exited 0"; exit 1
fi
grep -q 'weeks 201 asked, the bundle recorded 40' "$tmp/bwrong.err" || {
	echo "the refused replay did not name both week counts:"; cat "$tmp/bwrong.err"; exit 1; }
[ ! -e "$tmp/bwrong.store" ] || { echo "the refused replay created its store"; exit 1; }
# A study flag set to its zero value asks for that value: -seed 0 against
# the seed-11 recording is refused the same way, naming both seeds.
if "$tmp/crawl" -seed 0 -replay "$tmp/bcrash.bundle" -out "$tmp/bseed.store" >/dev/null 2>"$tmp/bseed.err"; then
	echo "crawl -replay of a seed-11 bundle as seed 0 exited 0"; exit 1
fi
grep -q 'seed 0 asked, the bundle recorded 11' "$tmp/bseed.err" || {
	echo "the refused seed-0 replay did not name both seeds:"; cat "$tmp/bseed.err"; exit 1; }
[ ! -e "$tmp/bseed.store" ] || { echo "the refused seed-0 replay created its store"; exit 1; }
# The bundler adoption is part of the study the bundle's manifest records:
# -bundle-frac 0.5 against the plain recording is refused, naming both.
if "$tmp/crawl" -bundle-frac 0.5 -replay "$tmp/bcrash.bundle" -out "$tmp/bfrac.store" >/dev/null 2>"$tmp/bfrac.err"; then
	echo "crawl -replay of a plain bundle with -bundle-frac 0.5 exited 0"; exit 1
fi
grep -q 'bundle-frac 0.5 asked, the bundle recorded 0' "$tmp/bfrac.err" || {
	echo "the refused -bundle-frac replay did not name both fractions:"; cat "$tmp/bfrac.err"; exit 1; }
[ ! -e "$tmp/bfrac.store" ] || { echo "the refused -bundle-frac replay created its store"; exit 1; }

# A recording taken with the resilience layer on, under faults: the replay
# mounts no breaker, gate or budget (their decisions are in the archive),
# so its store must report exactly as the live one — a replay that re-took
# them at replay speed shed fetches the recording holds.
RESIL_ARGS="-domains 60 -weeks 4 -seed 3 -workers 16 -chaos 0.3 -politeness -breaker-threshold 1 -breaker-cooldown 1s"
"$tmp/crawl" $RESIL_ARGS -record "$tmp/resil.bundle" -out "$tmp/resil-live.store" 2>/dev/null >/dev/null
"$tmp/crawl" $RESIL_ARGS -replay "$tmp/resil.bundle" -out "$tmp/resil-replay.store" 2>/dev/null >/dev/null
"$tmp/analyze" -in "$tmp/resil-live.store" >"$tmp/resil-live.report"
"$tmp/analyze" -in "$tmp/resil-replay.store" >"$tmp/resil-replay.report"
cmp "$tmp/resil-live.report" "$tmp/resil-replay.report" || {
	echo "replay of a -politeness recording differs from the live run"; exit 1; }

# Corruption: flip one byte in the middle of a sealed bundle segment;
# verification must fail loudly.
seg="$tmp/ref.bundle/seg-0000.jsonl.gz"
size=$(wc -c <"$seg")
off=$((size / 2))
byte=$(od -An -tu1 -j "$off" -N 1 "$seg" | tr -dc '0-9')
printf "$(printf '\\%03o' $((byte ^ 64)))" |
	dd of="$seg" bs=1 seek="$off" conv=notrunc 2>/dev/null
if "$tmp/fsck" -store "$tmp/ref.bundle" >/dev/null 2>&1; then
	echo "fsck verified a bit-flipped bundle as intact"; exit 1
fi

# Distributed-crawl smoke: a coordinator and three workers crawl the
# study under partitioned leases; one worker is SIGKILLed after its first
# committed week. The coordinator must expire the dead worker's lease,
# reassign its partition at the last accepted week, and the merged report
# must be byte-identical to a serial crawl of the same configuration —
# the end-to-end version of the distcrawl byte-identity tests: real
# processes, a real SIGKILL, a real lease expiry and reassignment.
echo "==> distributed crawl smoke (coordinator + 3 workers, SIGKILL one, reassign, merge, diff vs serial)"
go build -o "$tmp/coordinator" ./cmd/coordinator
go build -o "$tmp/worker" ./cmd/worker
DIST_ARGS="-domains 100 -weeks 8 -seed 5"

# Serial reference through the ordinary pipeline.
"$tmp/crawl" $DIST_ARGS -workers 16 -out "$tmp/dist-ref.store" 2>/dev/null >/dev/null
"$tmp/analyze" -in "$tmp/dist-ref.store" >"$tmp/dist-ref.report"

"$tmp/coordinator" -addr 127.0.0.1:0 $DIST_ARGS -partitions 3 -lease-ttl 2s \
	-dir "$tmp/dist" -out "$tmp/dist.report" 2>"$tmp/coord.log" &
coord_pid=$!
caddr=""
for _ in $(seq 1 100); do
	caddr=$(sed -n 's/.* on //p' "$tmp/coord.log" | head -n 1)
	[ -n "$caddr" ] && break
	sleep 0.1
done
[ -n "$caddr" ] || { echo "coordinator never came up"; cat "$tmp/coord.log"; exit 1; }

# Two healthy workers and one deliberately slow victim (fewer crawler
# workers, so the SIGKILL lands before it finishes its partition).
"$tmp/worker" -coordinator "http://$caddr" -id healthy-1 -workers 16 2>/dev/null &
w1_pid=$!
"$tmp/worker" -coordinator "http://$caddr" -id healthy-2 -workers 16 2>/dev/null &
w2_pid=$!
"$tmp/worker" -coordinator "http://$caddr" -id victim -workers 2 2>"$tmp/victim.log" &
victim_pid=$!

killed=""
kill_when KILL "$victim_pid" "$tmp/victim.log" 'committed' 1 && killed=yes
wait "$victim_pid" 2>/dev/null || true
[ -n "$killed" ] || { echo "victim finished before SIGKILL could land; smoke inconclusive"; exit 1; }

# The coordinator exits after the last partition commits and the merge
# lands; the surviving workers then see Done and exit on their own.
wait "$coord_pid" || { echo "coordinator failed"; cat "$tmp/coord.log"; exit 1; }
wait "$w1_pid" 2>/dev/null || true
wait "$w2_pid" 2>/dev/null || true

grep -q 'lease expired' "$tmp/coord.log" || {
	echo "coordinator never expired the killed worker's lease"; exit 1; }
grep -c 'lease granted' "$tmp/coord.log" | {
	read grants
	[ "$grants" -gt 3 ] || {
		echo "no reassignment after the SIGKILL (only $grants grants)"; exit 1; }
}
cmp "$tmp/dist-ref.report" "$tmp/dist.report" || {
	echo "distributed merged report differs from the serial reference"; exit 1; }
# Every sealed generation verifies, and the SIGKILLed victim's was sealed
# by the merge through store.Salvage: its manifest is marked salvaged.
salvaged=0
for gen in "$tmp"/dist/part-*/gen-*; do
	[ -f "$gen/manifest.json" ] || continue
	"$tmp/fsck" -store "$gen" >/dev/null
	if grep -q '"salvaged": true' "$gen/manifest.json"; then
		salvaged=$((salvaged + 1))
	fi
done
[ "$salvaged" -ge 1 ] || {
	echo "no generation was sealed by the merge's salvage"; exit 1; }

# Default-shape smoke: what gendata and crawl write with no store flag is
# the format everything else here exercises — one checksummed v3 segment
# behind a manifest. Only the directory is a store: analyze refuses its
# segment file and names the directory. A crawl interrupted with Ctrl-C
# leaves no manifest: analyze must refuse the directory, fsck -repair
# recovers it.
echo "==> default-shape smoke (gendata + fsck, segment and shard counts, interrupted crawl refused, repaired)"
go build -o "$tmp/gendata" ./cmd/gendata
"$tmp/gendata" -domains 60 -weeks 8 -seed 7 -quiet -out "$tmp/default.store" >/dev/null
"$tmp/fsck" -store "$tmp/default.store" | grep -q 'ok — format v3 (delta streams), 1 segments'
"$tmp/analyze" -in "$tmp/default.store" >"$tmp/default.report"
if "$tmp/analyze" -in "$tmp/default.store/seg-0000.jsonl.gz" >/dev/null 2>"$tmp/default-seg.err"; then
	echo "analyze replayed a segment file as a store"; exit 1
fi
grep -q "not a store directory.*pass its store $tmp/default.store" "$tmp/default-seg.err" || {
	echo "analyze's refusal of a segment file does not name its store:"; cat "$tmp/default-seg.err"; exit 1; }
# gendata writes one shard per segment and analyze runs one shard per core:
# neither count may change the report.
"$tmp/gendata" -domains 60 -weeks 8 -seed 7 -segments 3 -quiet -out "$tmp/default3.store" >/dev/null
"$tmp/analyze" -in "$tmp/default3.store" >"$tmp/default3.report"
cmp "$tmp/default.report" "$tmp/default3.report" || {
	echo "a three-segment store reports differently from a one-segment store"; exit 1; }
GOMAXPROCS=1 "$tmp/analyze" -in "$tmp/default.store" >"$tmp/default-serial.report"
cmp "$tmp/default.report" "$tmp/default-serial.report" || {
	echo "analyze on one shard reports differently from analyze on GOMAXPROCS shards"; exit 1; }
# A resume is the study its journal recorded. A bundled, bundle-scanning
# checkpointed crawl is SIGKILLed; resumed as another bundling it is
# refused, naming both values, with the store untouched; resumed with no
# study flags it reports as the uninterrupted run.
SPLICE_ARGS="-domains 60 -weeks 40 -seed 7 -workers 16 -bundle-frac 0.8 -bundle-scan -checkpoint"
"$tmp/crawl" $SPLICE_ARGS -out "$tmp/splice-ref.store" 2>/dev/null >/dev/null
"$tmp/analyze" -in "$tmp/splice-ref.store" >"$tmp/splice-ref.report"
"$tmp/crawl" $SPLICE_ARGS -out "$tmp/splice.store" 2>"$tmp/splice.log" >/dev/null &
crawl_pid=$!
killed=""
kill_when KILL "$crawl_pid" "$tmp/splice.log" 'committed' 2 && killed=yes
wait "$crawl_pid" 2>/dev/null || true
[ -n "$killed" ] || { echo "bundled crawl finished before SIGKILL could land; smoke inconclusive"; exit 1; }
before=$(cd "$tmp/splice.store" && sha256sum -- *)
if "$tmp/crawl" -resume -bundle-frac 0 -out "$tmp/splice.store" >/dev/null 2>"$tmp/splice-wrong.err"; then
	echo "crawl -resume of a bundled journal as -bundle-frac 0 exited 0"; exit 1
fi
grep -q 'bundle-frac 0 asked, the journal recorded 0.8' "$tmp/splice-wrong.err" || {
	echo "the refused resume did not name both bundle fractions:"; cat "$tmp/splice-wrong.err"; exit 1; }
[ "$(cd "$tmp/splice.store" && sha256sum -- *)" = "$before" ] || {
	echo "the refused resume changed the store"; exit 1; }
"$tmp/crawl" -workers 16 -resume -out "$tmp/splice.store" 2>/dev/null >/dev/null
"$tmp/analyze" -in "$tmp/splice.store" >"$tmp/splice.report"
cmp "$tmp/splice-ref.report" "$tmp/splice.report" || {
	echo "the flagless resume of a bundled crawl differs from the uninterrupted run"; exit 1; }

"$tmp/crawl" -domains 80 -weeks 60 -seed 3 -workers 16 -out "$tmp/int.store" 2>"$tmp/int.log" >/dev/null &
crawl_pid=$!
killed=""
kill_when INT "$crawl_pid" "$tmp/int.log" 'crawled' 2 && killed=yes
if wait "$crawl_pid"; then
	echo "interrupted crawl exited 0"; exit 1
fi
[ -n "$killed" ] || { echo "crawl finished before SIGINT could land; smoke inconclusive"; exit 1; }
if "$tmp/analyze" -in "$tmp/int.store" >/dev/null 2>"$tmp/int.err"; then
	echo "analyze accepted an interrupted crawl's store"; exit 1
fi
grep -q 'never sealed' "$tmp/int.err" || {
	echo "analyze refused the interrupted store without saying why:"; cat "$tmp/int.err"; exit 1; }
"$tmp/fsck" -store "$tmp/int.store" -repair
"$tmp/fsck" -store "$tmp/int.store"

# Legacy-refusal smoke: an archive of an earlier release — a v1 stream
# and a store directory holding it behind a version-1 manifest, built here
# — is refused with the message naming the commit whose fsck converts it,
# and neither fsck nor fsck -repair changes a byte of it.
echo "==> legacy-refusal smoke (v1 stream and store refused, untouched)"
mkdir "$tmp/legacy.store"
printf '{"domain":"a.example","rank":1,"week":0,"status":200,"bytes":4096}\n' | gzip >"$tmp/legacy.jsonl.gz"
cp "$tmp/legacy.jsonl.gz" "$tmp/legacy.store/seg-0000.jsonl.gz"
printf '{"version": 1, "segments": 1, "partition": "fnv1a-domain", "counts": [1], "total": 1}\n' \
	>"$tmp/legacy.store/manifest.json"
status=0
"$tmp/analyze" -in "$tmp/legacy.jsonl.gz" >/dev/null 2>"$tmp/legacy.err" || status=$?
[ "$status" -eq 1 ] || { echo "analyze of a v1 stream exited $status, want 1"; exit 1; }
grep -q 'format v1 .*commit 9af76ff' "$tmp/legacy.err" || {
	echo "analyze refused a v1 stream without naming the converting commit:"; cat "$tmp/legacy.err"; exit 1; }
before=$(cd "$tmp/legacy.store" && sha256sum -- *)
if "$tmp/fsck" -store "$tmp/legacy.store" >/dev/null 2>&1; then
	echo "fsck verified a v1 store"; exit 1
fi
if "$tmp/fsck" -store "$tmp/legacy.store" -repair >/dev/null 2>&1; then
	echo "fsck -repair accepted a v1 store"; exit 1
fi
[ "$(cd "$tmp/legacy.store" && sha256sum -- *)" = "$before" ] || {
	echo "fsck changed a v1 store it refused"; exit 1; }

# Serve smoke: start the audit service on an ephemeral port, hit /healthz
# and run one audit, then prove SIGTERM performs a clean graceful stop.
echo "==> serve smoke (healthz + one audit + auditsite in-process vs -serve + graceful stop)"
go build -o "$tmp/serve" ./cmd/serve
"$tmp/serve" -addr 127.0.0.1:0 -fetch=false >"$tmp/serve.out" 2>"$tmp/serve.log" &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
	base=$(sed -n 's|^serving on ||p' "$tmp/serve.out")
	[ -n "$base" ] && break
	sleep 0.1
done
[ -n "$base" ] || { echo "serve never came up"; cat "$tmp/serve.log"; exit 1; }
curl -fsS "$base/healthz" | grep -q '"status":"ok"'
curl -fsS -X POST --data-binary \
	'<script src="https://code.jquery.com/jquery-1.12.4.min.js"></script>' \
	"$base/v1/audit?host=smoke.test" | grep -q '"vulnerable_tvv":true'
curl -fsS "$base/v1/libraries" | grep -q '"slug":"jquery"'
curl -fsS "$base/metrics" | grep -q 'clientres_audit_cache_misses_total 1'
# auditsite renders one type on both paths: the in-process audit and the
# service's decoded answer print the same libraries and findings, once the
# days-since-patch only the service's clock computes are stripped.
go build -o "$tmp/auditsite" ./examples/auditsite
"$tmp/auditsite" >"$tmp/audit-local.out"
"$tmp/auditsite" -serve "$base" | sed 's/, patch available [0-9]* days//' >"$tmp/audit-serve.out"
grep -q '^vulnerabilities (' "$tmp/audit-local.out"
cmp "$tmp/audit-local.out" "$tmp/audit-serve.out" || {
	echo "auditsite -serve reports differently from the in-process audit"
	diff "$tmp/audit-local.out" "$tmp/audit-serve.out"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "serve did not stop cleanly"; cat "$tmp/serve.log"; exit 1; }
grep -q "drained and stopped" "$tmp/serve.log"

# Policy + batch smoke: a serve instance preloaded with a failing policy
# and a pinned clock. A 5-record NDJSON batch must stream one verdict line
# per record plus an exactly-reconciling summary; the offline batch gate
# (cmd/serve -batch) must emit byte-identical lines and exit 1; and the
# auditsite example gated by the same policy must exit nonzero both
# in-process and against the server.
echo "==> policy + batch smoke (server policy, NDJSON batch, offline equivalence, auditsite gate)"
cat >"$tmp/gate.yaml" <<'EOF'
name: ci gate
rules:
  - name: stale-high
    scope: finding
    when: severity == "high" && age(disclosed) > 90d
  - name: missing-sri
    when: missing_sri > 0
EOF
"$tmp/serve" -addr 127.0.0.1:0 -fetch=false -policy "$tmp/gate.yaml" \
	-now 2026-01-02T12:00:00Z >"$tmp/pserve.out" 2>"$tmp/pserve.log" &
pserve_pid=$!
pbase=""
for _ in $(seq 1 100); do
	pbase=$(sed -n 's|^serving on ||p' "$tmp/pserve.out")
	[ -n "$pbase" ] && break
	sleep 0.1
done
[ -n "$pbase" ] || { echo "policy serve never came up"; cat "$tmp/pserve.log"; exit 1; }

# Single audit selecting the preloaded policy: the response becomes the
# {"audit":…,"policy":…} envelope and the verdict header is set.
curl -fsS -X POST --data-binary \
	'<script src="https://code.jquery.com/jquery-1.12.4.min.js"></script>' \
	"$pbase/v1/audit?host=smoke.test&policy=server" >"$tmp/policy-single.json"
grep -q '"overall":"fail"' "$tmp/policy-single.json"
grep -q '"rule":"stale-high"' "$tmp/policy-single.json"

# The same audit again is a cache hit: it evaluates the banked policy
# document, and its reply must be byte-identical to the cold one.
curl -fsS -X POST --data-binary \
	'<script src="https://code.jquery.com/jquery-1.12.4.min.js"></script>' \
	"$pbase/v1/audit?host=smoke.test&policy=server" >"$tmp/policy-single-hit.json"
cmp "$tmp/policy-single.json" "$tmp/policy-single-hit.json" || {
	echo "cached policy reply differs from the cold one"; exit 1; }
curl -fsS "$pbase/metrics" | grep -q '^clientres_audit_cache_hits_total 1$' || {
	echo "repeat audit was not counted as a cache hit"; exit 1; }

# 5-record batch: a vulnerable page (fail), a clean page (pass), a url
# record (per-record error), the vulnerable page again (answered from the
# cache online) and a line that is not JSON (the other error kind) — 5
# record lines plus the summary.
cat >"$tmp/batch.ndjson" <<'EOF'
{"html":"<script src=\"https://code.jquery.com/jquery-1.12.4.min.js\"></script>","host":"smoke.test"}
{"html":"<p>no scripts here</p>","host":"smoke.test"}
{"url":"https://smoke.test/"}
{"html":"<script src=\"https://code.jquery.com/jquery-1.12.4.min.js\"></script>","host":"smoke.test"}
not json
EOF
curl -fsS -X POST -H 'Content-Type: application/x-ndjson' \
	--data-binary @"$tmp/batch.ndjson" \
	"$pbase/v1/audit/batch?policy=server" >"$tmp/batch-online.out"
[ "$(wc -l <"$tmp/batch-online.out")" -eq 6 ] || {
	echo "batch reply is not 5 records + summary:"; cat "$tmp/batch-online.out"; exit 1; }
grep -q '"index":0.*"overall":"fail"' "$tmp/batch-online.out"
grep -q '"index":1.*"overall":"pass"' "$tmp/batch-online.out"
grep -q '"index":2,"error"' "$tmp/batch-online.out"
grep -q '"index":3.*"overall":"fail"' "$tmp/batch-online.out"
grep -q '"index":4,"error":"invalid JSON record"' "$tmp/batch-online.out"
grep -q '"summary":{"records":5,"completed":3,"errors":2,"shed":0,"overall":"fail"}' "$tmp/batch-online.out"

# Offline equivalence: the same records through serve -batch with the same
# policy and clock must produce byte-identical lines and exit 1.
status=0
"$tmp/serve" -policy "$tmp/gate.yaml" -now 2026-01-02T12:00:00Z \
	-batch "$tmp/batch.ndjson" >"$tmp/batch-offline.out" 2>/dev/null || status=$?
[ "$status" -eq 1 ] || { echo "serve -batch exited $status on a failing batch, want 1"; exit 1; }
cmp "$tmp/batch-online.out" "$tmp/batch-offline.out" || {
	echo "offline batch output differs from the online endpoint"; exit 1; }

# The gated example must exit nonzero on the failing sample page — both
# the in-process evaluator and the server round trip.
if go run ./examples/auditsite -policy "$tmp/gate.yaml" -now 2026-01-02T12:00:00Z >/dev/null; then
	echo "auditsite -policy exited 0 on a failing page"; exit 1
fi
if go run ./examples/auditsite -serve "$pbase" -policy "$tmp/gate.yaml" >/dev/null; then
	echo "auditsite -serve -policy exited 0 on a failing page"; exit 1
fi

kill -TERM "$pserve_pid"
wait "$pserve_pid" || { echo "policy serve did not stop cleanly"; cat "$tmp/pserve.log"; exit 1; }
grep -q "drained and stopped" "$tmp/pserve.log"

echo "OK"
