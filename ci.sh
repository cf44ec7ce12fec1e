#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests. Run before every push.
#
#   ./ci.sh           # full gate
#   ./ci.sh --fast    # skip the release build (quick pre-commit check)
#
# Everything runs offline; the vendored stand-ins under vendor/ satisfy all
# external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

step() { printf '\n== %s ==\n' "$1"; }

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $fast -eq 0 ]]; then
  step "cargo build --release (workspace)"
  cargo build --release --workspace
fi

step "cargo test (workspace)"
cargo test -q --workspace

step "ring stress (randomized SPSC producer/consumer)"
# The frame ring under the executor's event path: randomized capacities,
# doorbell batches, send flavors, and consumer stalls must preserve order
# and lose nothing, and producer-drop must drain-then-terminate. Already
# part of the workspace tests; run named here so a failure points straight
# at the data path.
cargo test -q -p superfe-net --test ring_stress

step "differentials in release (overflow checks off)"
# Release builds (what the benchmark and the bench runners use) do not trap
# overflow. Run once in that configuration: the MGPV aging probe's
# tree-vs-per-slot-sweep proptest (mgpv unit tests) and the MGPV properties,
# which cover its plain index arithmetic; and the differentials over the NIC
# streaming runtime — single-policy, multi-tenant, in-shard float and
# quantized scoring and snapshot/restore.
cargo test -q --release -p superfe-switch --lib mgpv
cargo test -q --release --test mgpv_properties --test streaming_differential \
  --test ctrl_isolation --test detect_differential --test plane_snapshot

step "superfe check (bundled policies + examples)"
# Every bundled application policy and every example .sfe file must pass the
# full static analyzer — structural lints, dataflow lints, the SF05xx
# value-range/overflow proofs, and hardware feasibility. `check` exits
# non-zero on any error-severity finding.
cargo build -q -p superfe-cli
superfe=target/debug/superfe
# The policy list comes from `superfe list` (machine-readable, one name per
# line) so a newly bundled application is covered here automatically.
policies=$("$superfe" list)
[[ -n "$policies" ]] || { echo "ci: superfe list returned no policies"; exit 1; }
for p in $policies; do
  "$superfe" check "$p" >/dev/null || { echo "ci: superfe check $p failed"; exit 1; }
done
for f in examples/*.sfe; do
  "$superfe" check "$f" >/dev/null || { echo "ci: superfe check $f failed"; exit 1; }
done

step "benches compile"
cargo build -q -p superfe-bench --benches --bins

step "streaming throughput smoke (2 workers)"
# A small end-to-end run of the streaming pipeline through the bench runner,
# then a schema diff: the fresh document must contain exactly the keys of
# the checked-in BENCH_pipeline.json (values differ run to run; the shape
# must not drift silently).
smoke=$(mktemp)
detect_smoke=$(mktemp)
trap 'rm -f "$smoke" "$detect_smoke"' EXIT
cargo run -q --release -p superfe-bench --bin throughput -- \
  --packets 5000 --workers 2 --warmup 1 --runs 2 --out "$smoke" >/dev/null
schema() { grep -o '"[a-z_]*":' "$1" | sort -u; }
if ! diff <(schema BENCH_pipeline.json) <(schema "$smoke"); then
  echo "ci: BENCH_pipeline.json schema drifted from the throughput runner"
  exit 1
fi
# The measurement-harness enrichment must be present: host flags, run-to-run
# statistics, and the per-stage (queue/shard/sink) latency histograms the
# ring data path records.
for key in flat_expected warmup_runs elapsed_ms_stddev elapsed_ms_p99 \
    stage_latency queue shard sink p99_ns; do
  grep -q "\"$key\":" "$smoke" \
    || { echo "ci: throughput smoke is missing harness field '$key'"; exit 1; }
done

step "online detection smoke (seeded train/calibrate/serve, in-pipeline)"
# A seeded end-to-end detect run (the detector scores inside the NIC
# shards) must raise at least one alert inside the attack window and stay
# quiet on the benign warm-up (the calibrated threshold guarantees the
# latter by construction), and the fresh document must match the
# checked-in BENCH_detect.json schema.
cargo build -q --release -p superfe-cli
# Default configuration (+ --in-pipeline) = the one that generated the
# checked-in artifact, so the deterministic detection section must be
# reproduced byte for byte (the harness's warmup + repeated measured runs
# keep this a few seconds).
target/release/superfe detect --in-pipeline --out "$detect_smoke" >/dev/null
section() { sed -n "/^  \"$2\": {/,/^  }/p" "$1"; }
[[ -n "$(section BENCH_detect.json detection)" ]] \
  || { echo "ci: BENCH_detect.json is missing the detection section"; exit 1; }
if ! diff <(section BENCH_detect.json detection) <(section "$detect_smoke" detection); then
  echo "ci: the detection section diverged from the checked-in BENCH_detect.json"
  exit 1
fi
field() { grep -o "\"$2\": [0-9]*" "$1" | head -1 | grep -o '[0-9]*$'; }
on_attack=$(field "$detect_smoke" alerts_on_attack)
on_benign=$(field "$detect_smoke" alerts_on_benign)
if [[ "$on_attack" -lt 1 ]]; then
  echo "ci: detect smoke raised no alerts in the attack window"
  exit 1
fi
if [[ "$on_benign" -ne 0 ]]; then
  echo "ci: detect smoke raised $on_benign alerts on benign warm-up traffic"
  exit 1
fi
if ! diff <(schema BENCH_detect.json) <(schema "$detect_smoke"); then
  echo "ci: BENCH_detect.json schema drifted from the detect runner"
  exit 1
fi
# The SF09xx-certified quantized model ran inside the NIC shards: it must
# alert on the attack window, stay quiet on benign traffic, and the
# measured |float - quantized| score delta must sit under the certified
# SF0901 bound (delta_within_bound is computed by the runner).
inpipe=$(sed -n '/"in_pipeline": {/,/^  }/p' "$detect_smoke")
[[ -n "$inpipe" ]] \
  || { echo "ci: detect smoke is missing the in_pipeline section"; exit 1; }
grep -q '"supported": true' <<<"$inpipe" \
  || { echo "ci: in-pipeline lowering unsupported for the default detector"; exit 1; }
grep -q '"certified": true' <<<"$inpipe" \
  || { echo "ci: in-pipeline lowering lost its SF0901 certificate"; exit 1; }
grep -q '"delta_within_bound": true' <<<"$inpipe" \
  || { echo "ci: measured float-vs-quantized delta exceeded the SF0901 bound"; exit 1; }
ip_field() { grep -o "\"$1\": [0-9]*" <<<"$inpipe" | head -1 | grep -o '[0-9]*$'; }
ip_attack=$(ip_field alerts_on_attack)
ip_benign=$(ip_field alerts_on_benign)
if [[ "$ip_attack" -lt 1 ]]; then
  echo "ci: in-pipeline quantized model raised no alerts in the attack window"
  exit 1
fi
if [[ "$ip_benign" -ne 0 ]]; then
  echo "ci: in-pipeline quantized model raised $ip_benign benign alerts"
  exit 1
fi

step "multi-tenant serve smoke (3 tenants, solo-identical)"
# Three bundled policies on one shared switch/NIC, with a mid-stream hot
# detach; --verify-solo makes the CLI re-run every tenant alone and exit
# non-zero unless the shared-plane output is bitwise identical.
serve_out=$(target/release/superfe serve npod cumul awf \
  --packets 6000 --workers 2 --detach-at 2:4000 --verify-solo) \
  || { echo "ci: multi-tenant serve smoke failed"; exit 1; }
for t in 0 1 2; do
  if ! grep -q "verified tenant t$t .*bitwise identical" <<<"$serve_out"; then
    echo "ci: serve smoke did not verify tenant t$t against its solo run"
    exit 1
  fi
done

step "admission rejection smoke (over-budget tenant set exits non-zero)"
# Three sALU-heavy policies compose past the Tofino budget when nothing is
# shared; with cross-tenant sharing disabled the control plane must refuse
# the set, naming the binding resource, before anything touches the data
# path. With sharing on, the same set fits: the SF08xx analysis certifies
# one shared parse/groupby prefix, so the composed switch demand drops
# under budget — assert both sides of that line.
if target/release/superfe serve kitsune helad n-baiot --packets 100 \
    --no-fuse >/dev/null 2>"$detect_smoke.err"; then
  echo "ci: admission accepted an over-budget tenant set"
  exit 1
fi
if ! grep -q "admission rejected" "$detect_smoke.err"; then
  echo "ci: admission rejection did not name the binding resource"
  cat "$detect_smoke.err"
  exit 1
fi
rm -f "$detect_smoke.err"
target/release/superfe serve kitsune helad n-baiot --packets 100 >/dev/null \
  || { echo "ci: prefix sharing failed to admit the sALU-heavy set"; exit 1; }

step "cross-policy fusion smoke (SF07xx report + fused serve)"
# AWF and DF are the same extractor under different names: the SF07xx
# equivalence analysis must put them in one plan class (SF0701) in both
# output formats, and a fused serve must still verify bitwise against solo.
fusion_json=$(target/release/superfe check awf df --format json) \
  || { echo "ci: multi-policy check failed"; exit 1; }
grep -q '"plans_saved":1' <<<"$fusion_json" \
  || { echo "ci: fusion report did not save the AWF/DF duplicate plan"; exit 1; }
grep -q '"code":"SF0701"' <<<"$fusion_json" \
  || { echo "ci: fusion report is missing the SF0701 class finding"; exit 1; }
target/release/superfe check awf df | grep -q "cross-policy fusion (SF07xx)" \
  || { echo "ci: text check lost the fusion section"; exit 1; }
fused_out=$(target/release/superfe serve awf df --packets 4000 --workers 2 \
  --verify-solo) || { echo "ci: fused serve smoke failed"; exit 1; }
grep -q "execution units at shutdown: 1 (cross-policy fusion enabled)" \
  <<<"$fused_out" || { echo "ci: serve did not fuse the AWF/DF pair"; exit 1; }
for t in 0 1; do
  grep -q "verified tenant t$t .*bitwise identical" <<<"$fused_out" \
    || { echo "ci: fused serve did not verify tenant t$t"; exit 1; }
done

step "shared-prefix smoke (SF08xx report + prefix-shared serve)"
# flow_stats and flow_volume share parse → groupby(flow) → filter(tcp.exist)
# but diverge in their map/reduce tails: the SF08xx analysis must certify one
# shared switch prefix (SF0801) in both output formats, and a prefix-shared
# serve must run both tenants on a single switch partition while every
# tenant's output stays bitwise identical to its solo run.
share_json=$(target/release/superfe check examples/flow_stats.sfe \
  examples/flow_volume.sfe --format json) \
  || { echo "ci: shared-prefix check failed"; exit 1; }
grep -q '"code":"SF0801"' <<<"$share_json" \
  || { echo "ci: sharing report is missing the SF0801 shared-prefix finding"; exit 1; }
grep -q '"partitions_saved":1' <<<"$share_json" \
  || { echo "ci: sharing report did not save a switch partition"; exit 1; }
target/release/superfe check examples/flow_stats.sfe examples/flow_volume.sfe \
  | grep -q "cross-tenant prefix sharing (SF08xx)" \
  || { echo "ci: text check lost the sharing section"; exit 1; }
shared_out=$(target/release/superfe serve examples/flow_stats.sfe \
  examples/flow_volume.sfe --packets 4000 --workers 2 --verify-solo) \
  || { echo "ci: prefix-shared serve smoke failed"; exit 1; }
grep -q "shared switch partitions at shutdown: 1 (cross-tenant CSE enabled)" \
  <<<"$shared_out" || { echo "ci: serve did not share the switch prefix"; exit 1; }
for t in 0 1; do
  grep -q "verified tenant t$t .*bitwise identical" <<<"$shared_out" \
    || { echo "ci: prefix-shared serve did not verify tenant t$t"; exit 1; }
done

step "multi-tenant ctrl bench smoke"
# A small sweep through the ctrl bench runner, schema-diffed against the
# checked-in BENCH_ctrl.json.
ctrl_smoke=$(mktemp)
trap 'rm -f "$smoke" "$detect_smoke" "$ctrl_smoke"' EXIT
cargo run -q --release -p superfe-bench --bin ctrl -- \
  --packets 4000 --tenants 1,2 --warmup 1 --runs 2 --out "$ctrl_smoke" >/dev/null
if ! diff <(schema BENCH_ctrl.json) <(schema "$ctrl_smoke"); then
  echo "ci: BENCH_ctrl.json schema drifted from the ctrl runner"
  exit 1
fi
grep -q '"cse_sweep"' BENCH_ctrl.json \
  || { echo "ci: BENCH_ctrl.json is missing the cse_sweep section"; exit 1; }

step "corpus-scale state smoke (100k flows under a DRAM budget, bounded RSS)"
# 100k flows through the bounded switch+NIC pair, every eviction policy,
# plus the unbounded accuracy baseline. Schema-diffed against the
# checked-in BENCH_scale.json, and peak RSS must stay bounded — the DRAM
# budget is what makes corpus-scale cardinality safe, so a blow-up here
# means the cap stopped biting.
scale_smoke=$(mktemp)
trap 'rm -f "$smoke" "$detect_smoke" "$ctrl_smoke" "$scale_smoke"' EXIT
cargo run -q --release -p superfe-bench --bin scale -- \
  --flows 100000 --runs 1 --out "$scale_smoke" >/dev/null
if ! diff <(schema BENCH_scale.json) <(schema "$scale_smoke"); then
  echo "ci: BENCH_scale.json schema drifted from the scale runner"
  exit 1
fi
max_rss=$(grep -o '"peak_rss_kb": *[0-9]*' "$scale_smoke" \
  | grep -o '[0-9]*$' | sort -n | tail -1)
[[ -n "$max_rss" ]] || { echo "ci: scale smoke has no peak_rss_kb fields"; exit 1; }
if (( max_rss > 1000000 )); then
  echo "ci: scale smoke peaked at ${max_rss} kB RSS (cap 1000000 kB)"
  exit 1
fi
grep -q '"accuracy": {' "$scale_smoke" \
  || { echo "ci: scale smoke lost the unbounded accuracy baseline"; exit 1; }

step "snapshot/restore smoke (digest-certified resume)"
# A mid-stream snapshot, then a fresh process restoring from it: the
# per-tenant output digests of the resumed run must be identical to the
# uninterrupted run's — the CLI face of tests/plane_snapshot.rs.
snap_file=$(mktemp)
trap 'rm -f "$smoke" "$detect_smoke" "$ctrl_smoke" "$scale_smoke" "$snap_file"' EXIT
full_out=$(target/release/superfe serve cumul npod --packets 4000 --workers 2 \
  --snapshot "$snap_file" --snapshot-at 2000) \
  || { echo "ci: snapshot serve smoke failed"; exit 1; }
grep -q "snapshot: wrote" <<<"$full_out" \
  || { echo "ci: serve did not write the mid-stream snapshot"; exit 1; }
resumed_out=$(target/release/superfe serve cumul npod --packets 4000 --workers 2 \
  --restore "$snap_file") || { echo "ci: restore serve smoke failed"; exit 1; }
grep -q "restored 2 tenants" <<<"$resumed_out" \
  || { echo "ci: restore did not rebuild the 2-tenant topology"; exit 1; }
grep -q "tenant t0 cumul state:" <<<"$resumed_out" \
  || { echo "ci: restore lost the per-tenant state occupancy lines"; exit 1; }
digest_lines() { grep -o 'digest=[0-9a-f]*' <<<"$1"; }
if ! diff <(digest_lines "$full_out") <(digest_lines "$resumed_out"); then
  echo "ci: restored run's output digests diverged from the uninterrupted run"
  exit 1
fi

step "ring vs sync_channel microbench (ring must not be slower)"
# The Issue 8 data-path swap is justified by this number: per-frame transfer
# through the doorbell-batched SPSC ring must be at least as fast as the
# std sync_channel it replaced, on this host, or the swap has regressed.
bench_out=$(cargo bench -q -p superfe-bench --bench ring 2>/dev/null)
printf '%s\n' "$bench_out"
rate() { grep -o "spsc_transfer/$1 .* \([0-9]*\) elem/s" <<<"$bench_out" \
  | grep -o '[0-9]* elem/s' | grep -o '^[0-9]*'; }
ring_rate=$(rate ring_doorbell_4)
sync_rate=$(rate sync_channel)
[[ -n "$ring_rate" && -n "$sync_rate" ]] \
  || { echo "ci: could not parse ring microbench output"; exit 1; }
if (( ring_rate < sync_rate )); then
  echo "ci: ring transfer ($ring_rate elem/s) is slower than sync_channel ($sync_rate elem/s)"
  exit 1
fi

printf '\nci: all checks passed\n'
