#!/usr/bin/env bash
# CI entry point: build, full test suite, lints. Everything is offline
# (dependencies are path shims under shims/) and seeded — property tests
# derive per-test seeds deterministically (override with PROPTEST_SEED),
# and the chaos suite in tests/chaos_replication.rs uses fixed seeds 1..=20,
# so a red run here is reproducible locally with the same commands.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt (check only)"
cargo fmt --all -- --check

echo "==> node layout guard: the lock order stays a module-visibility fact, one cell per counter, one page table, one buffer call per run"
# DESIGN §16: code that runs under the node's `Inner` lock never sends, the
# pipe never takes `Inner`, and only hosted.rs knows where pages hosted for
# the peer live. Checked on code only — comment lines and each file's test
# module are skipped.
code() { sed -e '/^#\[cfg(test)\]/,$d' -e '/^[[:space:]]*\/\//d' "$1"; }
for f in state hosted recv lifecycle; do
  if code "crates/cluster/src/node/$f.rs" | grep -nE 'Transport|\.send\('; then
    echo "node/$f.rs runs under Inner: return the frame and let pump.rs send it" >&2
    exit 1
  fi
done
# DESIGN §16: the pair link is read by whoever holds its slot, and only
# through pump.rs's read_one — a second receive would race the holder.
for f in crates/cluster/src/node/*.rs; do
  case "$f" in */pump.rs) continue ;; esac
  if code "$f" | grep -n 'recv_timeout('; then
    echo "$f: only node/pump.rs receives from the link (read_one, under the link slot)" >&2
    exit 1
  fi
done
if code crates/cluster/src/pipe.rs | grep -nw 'Inner'; then
  echo "pipe.rs must not name the node's Inner" >&2
  exit 1
fi
if grep -rnw 'PEER_NS' crates/cluster/src --include='*.rs' \
  | grep -vE '/hosted\.rs:|/src/lib\.rs:|:[0-9]+:[[:space:]]*(//|pub use )'; then
  echo "PEER_NS is spelled in node/hosted.rs only (and re-exported)" >&2
  exit 1
fi
# One cell per node counter: the node counts through `NodeObs` (node/stats.rs)
# and nothing else — no stats mutex to order, no second place to increment —
# and the public `NodeStats` is built in one place, the snapshot.
for f in $(find crates/cluster/src -name '*.rs'); do
  if code "$f" | grep -nE 'Mutex<NodeStats>|stats\.lock\(\)'; then
    echo "$f: node counters are NodeObs cells, not a locked NodeStats" >&2
    exit 1
  fi
done
if code crates/cluster/src/pipe.rs | grep -nw 'NodeStats'; then
  echo "pipe.rs counts through NodeObs: it must not name NodeStats" >&2
  exit 1
fi
if [ "$(for f in $(find crates/cluster/src -name '*.rs'); do code "$f"; done \
  | grep -E 'NodeStats \{' | grep -cvE '(struct|impl|->) NodeStats \{')" -ne 1 ]; then
  echo "a NodeStats literal is built in one place: NodeObs::snapshot (node/stats.rs)" >&2
  exit 1
fi
# One page table: the buffer carries each page's record
# (`BufferManager<Resident>`), so nothing keeps a second lpn-keyed table of
# buffered pages in step with it, and an eviction lists no removed pages to
# follow it by. `.resident` as a field, that is: `buffer.resident()` is the
# buffer's page count.
if for f in $(find crates/cluster/src -name '*.rs'); do code "$f" | sed "s|^|$f:|"; done \
  | grep -E 'HashMap<u64, *Resident>|\.resident([^_[:alnum:](]|$)'; then
  echo "crates/cluster/src: a buffered page's record lives in the buffer (BufferManager<Resident>), not in a second table" >&2
  exit 1
fi
# §III.B.2: one request is one block access. The node hands the buffer a
# whole run per call — a write's records, a read's span, a miss segment's
# or an import's fills — never one single-record call per page.
for f in write mod migrate; do
  if code "crates/cluster/src/node/$f.rs" \
    | grep -nE '(write|fill)_pages\([^)]*, *\[|buffer\.read\([^)]*, *1\)'; then
    echo "node/$f.rs: call the buffer once per run (write_pages / fill_pages / read over the run), not once per page" >&2
    exit 1
  fi
done
if code crates/core/src/policy/mod.rs | grep -nE '\bremoved[[:space:]]*:'; then
  echo "policy/mod.rs: Eviction hands back the flushed pages' records; it has no removed list" >&2
  exit 1
fi

echo "==> gateway layout guard: two locks, each behind one module; one membership entry; no per-page maps in the batch window; one counter table; one protocol version"
# DESIGN §12: route table -> shard health is the gateway's whole lock order.
# Only failover.rs touches a shard's health lock or names the replica;
# only mod.rs's attach_shard and rebalance take the route table's write
# half; RouteTable's fields are private; sessions know neither the table
# nor shard health. DESIGN §14: a shard is a pair, routed by its two
# nodes' own state — no second failure detector (no circuit breaker, no
# error streak) and no one-node shard. DESIGN §15: membership change is
# Gateway::rebalance alone — only route.rs moves pages between pairs, and
# there is no second coordinator crate.
gw=crates/gateway/src/gateway
if [ -e crates/gateway/src/health.rs ]; then
  echo "crates/gateway/src/health.rs: a shard's route lives in gateway/failover.rs; there is no breaker module" >&2
  exit 1
fi
for f in $(find crates/gateway/src -name '*.rs'); do
  if code "$f" | grep -nE 'CircuitBreaker|BreakerState|HalfOpen|BREAKER_THRESHOLD|breaker_cooldown|secondary: *Option<'; then
    echo "$f: a shard is a pair routed by its nodes' own state — no breaker, no optional secondary" >&2
    exit 1
  fi
  case "$f" in */failover.rs) continue ;; esac
  if code "$f" | grep -nE '\.health\.(read|write)\(\)|Replica::'; then
    echo "$f: the replica choice lives in gateway/failover.rs (ShardBackend's methods)" >&2
    exit 1
  fi
  case "$f" in */mod.rs) continue ;; esac
  if code "$f" | grep -n 'routes\.write()'; then
    echo "$f: only gateway/mod.rs's attach/rebalance entry points take the route write half" >&2
    exit 1
  fi
done
if [ "$(code "$gw/mod.rs" | grep -c 'routes\.write()')" -ne 4 ]; then
  echo "gateway/mod.rs: routes.write() belongs to attach_shard, then rebalance's begin, per-batch migrate and commit, once each" >&2
  exit 1
fi
for f in $(find crates src examples -name '*.rs' -not -path 'crates/cluster/*' -not -path '*/tests/*'); do
  case "$f" in */gateway/route.rs) continue ;; esac
  if code "$f" | grep -nE 'try_(export|import|release)_pages'; then
    echo "$f: pages move between pairs in gateway/route.rs only (RouteTable::migrate)" >&2
    exit 1
  fi
done
if grep -n 'fc-rebalance' Cargo.toml; then
  echo "Cargo.toml: membership change is Gateway::rebalance; there is no fc-rebalance crate" >&2
  exit 1
fi
if code "$gw/route.rs" | sed -n '/^pub(crate) struct RouteTable {/,/^}/p' | grep -nE '^[[:space:]]+pub'; then
  echo "gateway/route.rs: RouteTable's fields stay private" >&2
  exit 1
fi
# A batch window costs O(runs) in map operations: the coalescer sorts
# (no BTreeMap), and a session keeps one span per write, not an lpn-keyed
# id map.
if code crates/gateway/src/batch.rs | grep -n 'BTreeMap'; then
  echo "gateway/batch.rs: coalesce with a stable sort by lpn, not a BTreeMap" >&2
  exit 1
fi
if code "$gw/session.rs" | grep -nE 'HashMap|BTreeMap'; then
  echo "gateway/session.rs: a batch window keeps one (id, lpn, pages) span per write, not an lpn-keyed map" >&2
  exit 1
fi
if code "$gw/session.rs" | grep -nE 'RouteTable|ShardHealth'; then
  echo "gateway/session.rs serves through ops: it names neither RouteTable nor ShardHealth" >&2
  exit 1
fi
# DESIGN §12: a session is one step. The Hello state and Session::handle
# are reached from SessionStep::run alone — the client of an in-memory
# link runs it, a TCP session's thread loops it — and that thread is
# started in one place, Gateway::serve, for a link that refused the step.
run_body="$(code "$gw/session.rs" | sed -n '/fn run(/,/^    }/p')"
for call in 'self\.greet\(' '\.handle\(req\)'; do
  if [ "$(code "$gw/session.rs" | grep -oE "$call" | wc -l)" -ne 1 ] || ! grep -qE "$call" <<<"$run_body"; then
    echo "gateway/session.rs: the Hello state and Session::handle are reached once each, from SessionStep::run" >&2
    exit 1
  fi
done
if code "$gw/session.rs" | grep -nE 'fn (session_loop|handshake)\b'; then
  echo "gateway/session.rs: the handshake is a state of the one session step, not a loop of its own" >&2
  exit 1
fi
if [ "$(for f in $(find crates/gateway/src -name '*.rs'); do code "$f"; done | grep -o '"fc-gw-session"' | wc -l)" -ne 1 ]; then
  echo "crates/gateway/src: the fc-gw-session thread is spawned in one place, Gateway::serve" >&2
  exit 1
fi
# DESIGN §10 / §13: the gateway's counters are one table — every cell,
# its registry name, its snapshot fields and the counter-sum identity
# come from gateway/stats.rs, so adding a counter is one row there. And the
# client protocol has one version (DESIGN §12).
for f in $(find crates -name '*.rs'); do
  case "$f" in crates/gateway/src/gateway/stats.rs) continue ;; esac
  if code "$f" | grep -nE '\bstruct (Instruments|ShardInstruments|GatewayStats|ShardStats|ShardStatsSum)\b'; then
    echo "$f: the gateway's counter structs are declared by gateway_counters! in gateway/stats.rs" >&2
    exit 1
  fi
  case "$f" in crates/gateway/src/*)
    if code "$f" | grep -n 'reg\.adopt('; then
      echo "$f: gateway metrics are published from the counter table in gateway/stats.rs" >&2
      exit 1
    fi
  esac
done
if grep -rn 'MIN_PROTO_VERSION' crates; then
  echo "crates/: the gateway serves exactly PROTO_VERSION; there is no older version to accept" >&2
  exit 1
fi

echo "==> link + frame guard: one frame codec, one link type"
# DESIGN §2.5 / §12: both protocols frame through fc_cluster::wire
# (write_frame / split_frame under one MAX_FRAME), and every link — peer,
# session, client — is an fc_cluster::Link.
src_code() { for f in $(find crates/*/src -name '*.rs'); do code "$f" | sed "s|^|$f:|"; done; }
if [ "$(src_code | grep -c 'const MAX_FRAME\b')" -ne 1 ]; then
  echo "MAX_FRAME is defined once, in crates/cluster/src/wire.rs" >&2
  exit 1
fi
if src_code | grep -v '^crates/cluster/src/wire\.rs:' \
  | grep -E 'fn (write|split|begin|end)_frame\(|copy_from_slice\(&[a-z_]+\.to_le_bytes\(\)\)|from_le_bytes\(\[buf\['; then
  echo "the frame header's backfill and split live in crates/cluster/src/wire.rs only (write_frame / split_frame)" >&2
  exit 1
fi
gw_code() { for f in $(find crates/gateway/src -name '*.rs'); do code "$f" | sed "s|^|$f:|"; done; }
if gw_code | grep -E 'FramedLink|crossbeam|Sender<|Receiver<|unbounded\('; then
  echo "crates/gateway/src: sessions and clients ride fc_cluster::Link — no framed socket or channel of their own" >&2
  exit 1
fi
if [ "$(gw_code | grep -c 'impl SessionLink for')" -ne 1 ]; then
  echo "crates/gateway/src: SessionLink is implemented once, for Link<Reply, Request> (conn.rs)" >&2
  exit 1
fi

echo "==> pair-protocol guard: one owner, fc-cluster's node, on one clock; one page record, one CRC check"
# DESIGN §2.4 / §2.5 / §11: trace replay never fails a peer, so flashcoop
# has no failure model (injections, degraded mode, RCT, cluster) and no
# pair-protocol vocabulary. The node's lifecycle (node/lifecycle.rs) is the
# one state machine for the peer, on std::time's Instant / Duration;
# RetryPolicy and ReplicationStats are node types, and ReplicationStats is
# generated from node/stats.rs's counter table.
core_code() { for f in $(find crates/core/src -name '*.rs'); do code "$f" | sed "s|^|$f:|"; done; }
if core_code | grep -wE 'Injection|PairEvent|enter_degraded|struct Rct|mod cluster'; then
  echo "crates/core/src: the sim has no failure model (injections, degraded mode, RCT, cluster)" >&2
  exit 1
fi
if core_code | grep -wE 'PairState|PairLifecycle|HeartbeatMonitor|PeerEvent|PeerState|RetryPolicy|ReplicationStats|mod recovery'; then
  echo "crates/core/src: the pair protocol lives in fc-cluster's node module (lifecycle.rs, config.rs, stats.rs)" >&2
  exit 1
fi
if for f in $(find crates/cluster/src/node -name '*.rs'); do code "$f" | sed "s|^|$f:|"; done \
  | grep -wE 'SimTime|SimDuration'; then
  echo "crates/cluster/src/node: the node has one time type, Instant / Duration" >&2
  exit 1
fi
if [ "$(src_code | grep -c 'struct ReplicationStats\b')" -ne 1 ] \
  || [ "$(code crates/cluster/src/node/stats.rs | sed -n '/^macro_rules! node_counters/,/^}/p' \
    | grep -c 'struct ReplicationStats\b')" -ne 1 ]; then
  echo "ReplicationStats is declared once, by node_counters! in crates/cluster/src/node/stats.rs" >&2
  exit 1
fi
# DESIGN §11: rejoin is a cut-over, not a copy. A Solo node holds only
# clean pages, so nothing keeps a catch-up journal or streams one to the
# peer, and no node enters PairState::Resyncing (still declared, in
# node/lifecycle.rs, for code that matches on it).
if [ -e crates/cluster/src/node/resync.rs ]; then
  echo "crates/cluster/src/node/resync.rs: rejoin moves no data — there is no resync module" >&2
  exit 1
fi
if for f in $(find crates/cluster/src -name '*.rs'); do code "$f" | sed "s|^|$f:|"; done \
  | grep -wE 'journal_record|drive_resync|journal_entries|full_resyncs'; then
  echo "crates/cluster/src: no catch-up journal or resync stream (DESIGN §11)" >&2
  exit 1
fi
if for f in $(find crates/*/src src tests examples -name '*.rs' ! -path '*/node/lifecycle.rs'); do
  code "$f" | sed "s|^|$f:|"; done | grep -w 'Resyncing'; then
  echo "only node/lifecycle.rs names PairState::Resyncing: no node enters it" >&2
  exit 1
fi
# DESIGN §11: one page record across the pair. A page leaves a node as a
# ResyncEntry carrying the CRC its writer computed — the peer hosts it with
# that CRC — and one helper, wire.rs's `intact`, checks it wherever it is
# applied; peer fetches are one id-tagged RctFetch / RctEntries exchange.
# The first check reads test code too (comment lines aside).
if for f in $(find crates tests examples -name '*.rs'); do
  sed -e '/^[[:space:]]*\/\//d' "$f" | sed "s|^|$f:|"; done \
  | grep -E 'PageFetch|PageData|page_data\(|payload_ok'; then
  echo "the pair fetches pages with RctFetch / RctEntries and checks them with wire::intact" >&2
  exit 1
fi
crc_checks="$(for f in $(find crates/cluster/src -name '*.rs'); do code "$f" | sed "s|^|$f:|"; done \
  | grep -E 'crc32\([^)]*\) *[!=]=|[!=]= *crc32\(' || true)"
if [ "$(printf '%s\n' "$crc_checks" | grep -c .)" -ne 1 ] \
  || ! printf '%s\n' "$crc_checks" | grep -q '^crates/cluster/src/wire\.rs:'; then
  printf '%s\n' "$crc_checks"
  echo "crates/cluster/src: a page is checked against its carried CRC in one place, wire.rs's intact" >&2
  exit 1
fi
if code crates/cluster/src/node/hosted.rs | grep -nw '_crc'; then
  echo "node/hosted.rs keeps the CRC each hosted page arrived with" >&2
  exit 1
fi
if code crates/cluster/src/node/state.rs | grep -nw 'inflight'; then
  echo "node/state.rs: solo entry counts every page it flushes; there is no in-flight page map" >&2
  exit 1
fi

echo "==> fc-core buffer guard: one replacement order, one write-back path"
# DESIGN §2.4: the buffer reads its policy once, when it builds the one
# private replacement order (policy/mod.rs's Order), which owns every
# replacement decision; and every span the buffer writes back goes through
# one helper, which alone builds runs and counts flushed pages.
buf=crates/core/src/buffer.rs
if code "$buf" | grep -nE '(\bif\b|\bmatch\b|matches!).*self\.policy'; then
  echo "$buf: the policy is decided once, by policy::Order's arms — no branch on it in the buffer" >&2
  exit 1
fi
if code "$buf" | grep -nwE 'LarDirectory|RankedDirectory|RankMode'; then
  echo "$buf: the buffer holds one policy::Order, not its directories" >&2
  exit 1
fi
if [ "$(core_code | grep -c 'flushed_dirty +=')" -ne 1 ]; then
  echo "crates/core/src: flushed pages are counted once, by BufferManager::write_back" >&2
  exit 1
fi

echo "==> fc-ssd layout guard: one hybrid core, one erase step; loadgen rows from the gateway"
# DESIGN §2.2: BAST and FAST are one hybrid log-block scheme. The data map
# and the switch / partial / full merges live in ftl/hybrid.rs, each merge
# counted once; every FTL erases through FreePool's erase-or-retire step.
ftl=crates/ssd/src/ftl
ftl_code() { for f in "$ftl"/*.rs; do code "$f" | sed "s|^|$f:|"; done; }
if ftl_code | grep -v "^$ftl/mod\.rs:" | grep -F '.erase('; then
  echo "$ftl: blocks are erased by FreePool::erase_release (ftl/mod.rs) only" >&2
  exit 1
fi
if [ "$(code "$ftl/mod.rs" | grep -cF '.erase(')" -ne 1 ] \
  || [ "$(code "$ftl/mod.rs" | sed -n '/fn erase_release(/,/^    }/p' | grep -cF '.erase(')" -ne 1 ]; then
  echo "$ftl/mod.rs: the one erase call is FreePool::erase_release's" >&2
  exit 1
fi
for merge in switch_merges partial_merges full_merges; do
  if [ "$(ftl_code | grep -c "$merge += 1")" -ne 1 ]; then
    echo "$ftl: $merge is counted once, by its merge in hybrid.rs" >&2
    exit 1
  fi
done
if ftl_code | grep -v "^$ftl/hybrid\.rs:" | grep -E '\bdata_map *:'; then
  echo "$ftl: the block-level data map is the hybrid core's (hybrid.rs)" >&2
  exit 1
fi
# DESIGN §13: loadgen's per-shard rows are the gateway's counters; there
# is no client-side ring to attribute requests with.
if code crates/bench/src/loadgen.rs | grep -nE 'ShardAttr|cluster_ring|Ring::with_pairs'; then
  echo "crates/bench/src/loadgen.rs: shard rows come from LoadReport::shard_stats, not a second ring" >&2
  exit 1
fi

echo "==> fc-bench layout guard: each run description written once"
# DESIGN §12: a loadgen scenario is one ordered step list, planned by one
# function (LoadgenSpec::plan) and walked by one controller thread; repro's
# targets are one table (fc_bench::repro::TARGETS) that `all` runs in
# order; the Table I presets resolve through params::table1_preset; and
# the binaries share one flag parser (cli.rs).
bench=crates/bench/src
if code "$bench/loadgen.rs" | grep -nE 'kill_primary_at|restart_after|victim_shard|add_pair_at|remove_pair_at'; then
  echo "$bench/loadgen.rs: a scenario is LoadgenSpec::steps, not one field per schedule" >&2
  exit 1
fi
if for f in $(find "$bench" -name '*.rs'); do code "$f" | sed "s|^|$f:|"; done \
  | grep -E 'fc-loadgen-(fault|scale)'; then
  echo "$bench: one controller thread walks the steps (fc-loadgen-steps)" >&2
  exit 1
fi
if [ "$(grep -rE 'fn flag_value\b' "$bench" | wc -l)" -gt 1 ]; then
  echo "$bench: flag_value is defined once, in cli.rs" >&2
  exit 1
fi
for f in cli loadgen; do
  if code "$bench/$f.rs" | grep -nE 'SyntheticSpec::(fin1|fin2|mix)\('; then
    echo "$bench/$f.rs: name a Table I workload through params::table1_preset" >&2
    exit 1
  fi
done
if [ "$(code "$bench/bin/repro.rs" | grep -c '== Figure 6')" -gt 1 ]; then
  echo "$bench/bin/repro.rs: each target is written once, in fc_bench::repro::TARGETS" >&2
  exit 1
fi

echo "==> fault layer guard: no thread, one pending queue, one record"
# DESIGN §9: FaultTransport's held and delayed frames wait in one queue that
# the link's own send / recv_timeout callers step — no delivery thread, heap,
# condvar or Drop join — and the decision trace is its one record: no obs
# event mirrors it, and fault_stats() folds it, so the only counters kept
# beside it are the two control counts it cannot hold.
fault=crates/cluster/src/fault.rs
if code "$fault" | grep -nE 'thread::|Condvar|JoinHandle|BinaryHeap'; then
  echo "$fault: the fault layer has no thread; its users step the pending queue" >&2
  exit 1
fi
if code "$fault" | grep -nE 'impl\b.*\bDrop for FaultTransport'; then
  echo "$fault: nothing to stop or join, so no Drop for FaultTransport" >&2
  exit 1
fi
if code "$fault" | grep -nE '"cluster\.fault"|fn attach_obs\b'; then
  echo "$fault: the decision trace is the one record; no obs event mirrors it" >&2
  exit 1
fi
if code "$fault" | grep -nE '\.[a-z_]+ *\+= *1\b' \
  | grep -vE '\.(index|passthrough|control_partitioned) *\+='; then
  echo "$fault: fault_stats() folds the trace; count only the control frames it cannot hold" >&2
  exit 1
fi

echo "==> cargo build --release"
cargo build --release --offline

echo "==> tier-1: root package tests"
cargo test -q --offline

echo "==> workspace tests"
cargo test --workspace -q --offline

echo "==> release-mode race check + eviction scaling guard: replication pipe stress + chaos + lifecycle e2e + crc32 / group-write / registry-equals-stats unit tests"
# The pipe is shared state stepped by writers, the pump's timer tick and
# whoever resets it; debug-build timing hides
# interleavings the optimized build hits. pipeline_stress also carries the
# release-only guard that an evicting read miss costs the same behind a
# 16x larger buffer (ignored under debug_assertions, so it runs only here).
cargo test --release -q --offline --test pipeline_stress --test chaos_replication --test recovery_e2e
# Same reason, plus the one `unsafe` block: the carry-less-multiply crc32
# against its bit-wise definition, and the node's group write / run read
# (several runs, one pipe submission, one ticket) as the optimizer builds them;
# the node's counter cells, bumped by writers and the pump with no lock
# between them, against `Node::stats` after a mixed run; and the link slot's
# hand-offs between writers and the pump.
cargo test --release -q --offline -p fc-cluster --lib -- crc32 group_write read_run registry_equals_stats link_slot

echo "==> clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> failover smoke: full fail → takeover → rejoin loop"
cargo run --release --offline --example failover \
  | grep -q "lifecycle loop complete"

echo "==> obs smoke: quickstart --obs emits schema-valid JSONL"
obs_out="$(mktemp -d)/quickstart.jsonl"
cargo run --release --offline --example quickstart -- --obs "$obs_out" \
  | grep -q "schema OK"
test -s "$obs_out"
rm -rf "$(dirname "$obs_out")"

echo "==> gateway smoke: 4 concurrent clients through the front door"
cargo run --release --offline --example gateway_demo \
  | grep -q "gateway demo complete"

echo "==> loadgen smoke: closed-loop mix workload, 8 clients"
cargo run --release --offline -p fc-bench --bin loadgen -- \
  --clients 8 --trace mix --seed 42 --requests 400 \
  | grep -q "p999"

echo "==> sharded loadgen smoke: 4 pairs behind one gateway, per-shard lines"
cargo run --release --offline -p fc-bench --bin loadgen -- \
  --clients 8 --trace mix --seed 42 --requests 400 --transport mem --shards 4 \
  | grep -q "shard 3"

echo "==> cluster-scale smoke: 1-pair vs 4-pair gateway"
cargo run --release --offline --example cluster_scale \
  | grep -q "cluster scale complete"

echo "==> front-door failover smoke: kill a primary mid-load, zero acked loss"
cargo run --release --offline --example failover_serving \
  | grep -q "FAILOVER-SERVING OK"

echo "==> elastic loadgen smoke: add + retire a pair mid-workload"
cargo run --release --offline -p fc-bench --bin loadgen -- \
  --clients 8 --trace mix --seed 42 --requests 400 --transport mem \
  --shards 4 --add-pair-at 5 --remove-pair-at 40 \
  | grep -q "rebalance"

echo "==> elastic scale smoke: digest identical with and without live scaling"
cargo run --release --offline --example elastic_scale \
  | grep -q "elastic scale complete"

echo "==> benchmark harness: unit tests + smoke run against this tree"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke

echo "CI OK"
