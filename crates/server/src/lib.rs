//! # cc-server
//!
//! A sharded, concurrent connectivity *service* over the ConnectIt
//! streaming engine: the batch-incremental machinery of Section 3.5 turned
//! into a long-running system serving heavy mixed insert/delete/query
//! traffic.
//!
//! Layers, bottom up:
//!
//! - [`engine::ShardedEngine`] — vertex-range shards, each a
//!   [`connectit::StreamingConnectivity`] over its local id space, plus a
//!   shared union-find *spine* over the full vertex set that receives
//!   cross-shard edges and novel intra-shard merges (so spine work per
//!   shard is amortized by the shard's vertex count, not its edge
//!   traffic). Batches run wait-free (paper Type (i)) or phase-concurrent
//!   (Type (iii)) on the shared `cc_parallel` pool.
//! - [`generation::GenerationEngine`] — fully dynamic connectivity by
//!   epoch-partitioned generations: inserts stay incremental, a *forest*
//!   deletion seals the labels and rebuilds in the background (non-forest
//!   and absent deletions are free), and queries during a rebuild serve
//!   the sealed generation with an honest `(epoch, generation)` staleness
//!   report (DESIGN.md §9).
//! - [`service::Service`] — a time/size-bounded batch former coalescing
//!   many clients' submissions into engine batches, epoch-versioned
//!   `Arc`-swapped label snapshots (reads never block writers),
//!   per-operation latency tracking via `cc_parallel::hist::LatencyHist`,
//!   and a cloneable in-process [`service::Client`].
//! - [`analytics`] — the incremental analytics plane: merge deltas and
//!   rebuild resyncs maintain the live component count, size histogram,
//!   top-k components and per-component sizes in an epoch-versioned,
//!   `Arc`-swapped [`analytics::AnalyticsView`] (served by the
//!   `TOPK`/`HIST`/`SIZE` verbs, routable to followers; DESIGN.md §12).
//! - [`subs`] — the subscription plane: `SUB u v` / `SUB COMPONENT v`
//!   register triggers in a union-find-keyed index that consumes the
//!   same merge stream as analytics; events push at the exact
//!   `(epoch, generation)` the merge committed, durable subscriptions
//!   survive restarts via WAL `'S'` records, and slow consumers are
//!   dropped with a typed close rather than losing events silently
//!   (DESIGN.md §13, PROTOCOL.md).
//! - [`wal`] / [`snapshot`] — the durability subsystem: a segmented,
//!   checksummed, group-committed write-ahead log recording each applied
//!   batch at its epoch boundary, plus epoch-keyed durable label
//!   snapshots so recovery replays only the WAL suffix. Both share the
//!   binary record codec in `cc_graph::io::binary`.
//! - [`replication`] — WAL shipping: a primary streams its durable
//!   history (snapshots + batch records, the same CRC-framed codec the
//!   disk uses) to read-replica followers, which bootstrap, replay, tail
//!   live appends, and serve reads at an honestly-reported replication
//!   epoch (`WAIT` upgrades bounded staleness to read-your-writes).
//! - [`net`] / [`evloop`] / [`binproto`] — the wire front end: a sharded,
//!   readiness-polled event loop (epoll via the offline `mio` shim, with
//!   a portable `poll(2)` fallback) serving two protocols on one port,
//!   told apart by a first-byte sniff. The line-based text protocol
//!   (`I`/`D`/`Q`/`B`/`GEN`/`QUIESCE`/`STATS`/`FLUSH`/`SNAPSHOT`/
//!   `WALSTATS`/`METRICS`/`TRACE`/`WAIT`/`ROLE`/…) remains the debug
//!   door, with a blocking [`net::TcpClient`]; it is a second codec over
//!   the same request model and executor, one request in flight per
//!   connection. The binary protocol ([`binproto`]) frames
//!   correlation-tagged requests in the `cc_graph::io::binary` codec so
//!   clients pipeline many in-flight requests per connection
//!   ([`binproto::BinClient`]); each shard coalesces decoded reads
//!   across all its ready connections into one epoch-snapshot acquire
//!   and groups updates into single batch-former submissions
//!   (DESIGN.md §11).
//! - [`obs`] — the observability plane: a per-service metrics registry
//!   (relaxed-atomic counters/gauges/histograms mirrored at write time,
//!   scraped lock-free by the multi-line `METRICS` verb) and a
//!   fixed-capacity lock-free flight recorder of lifecycle events
//!   (`TRACE [n]`, flushed to `<wal-dir>/trace-<pid>.log` on shutdown
//!   for crash post-mortems). Contract in DESIGN.md §10.
//!
//! Binaries: `connectit-serve` (the daemon; `--wal-dir` turns on
//! durability, `--replication-port` ships the WAL to followers,
//! `--replicate-from` runs a follower) and `connectit-loadgen` (a
//! closed-loop load generator that validates every answered query
//! against the sequential oracle while measuring throughput; its
//! `--kill-after`/`--resume` checkpoint mode re-validates that oracle
//! across a server crash and restart, `--churn` mixes in deletions
//! validated exactly against an incremental dynamic oracle, and
//! `--follower` split-routes updates to the primary and
//! exactly-validated queries to replicas). See the README for a
//! quickstart and the protocol reference, and DESIGN.md §5/§7/§8/§9 for
//! the architecture, durability, replication, and dynamic-connectivity
//! discussions.

#![warn(missing_docs)]

pub mod analytics;
pub mod binproto;
pub mod engine;
pub mod evloop;
pub mod generation;
pub mod net;
pub mod obs;
pub mod replication;
pub mod service;
pub mod snapshot;
pub mod subs;
pub mod wal;

pub use analytics::{AnalyticsCore, AnalyticsView, HIST_BUCKETS, TOPK_CAP};
pub use binproto::{BinClient, Reply};
pub use engine::{
    build_engine, Engine, EngineCounters, EngineError, ExecMode, RunMode, ShardedEngine,
};
pub use evloop::NetConfig;
pub use generation::{GenCounters, GenInfo, GenerationEngine};
pub use net::{serve, serve_with, TcpClient, TcpServer};
pub use obs::{Metrics, Obs, Recorder};
pub use replication::{
    run_follower, serve_replication, serve_replication_observed, ReplicationHub,
};
pub use service::{
    Client, LabelSnapshot, Role, Service, ServiceConfig, ServiceError, ServiceStats,
};
pub use subs::{SubEvent, SubInfo, SubKind, SubSink};
pub use wal::{
    DurabilityConfig, FsyncPolicy, RecoveryReport, TailEvent, Wal, WalCursor, WalError, WalStats,
};

/// Creates a unique scratch directory under the system temp dir (pid +
/// nanosecond stamped). Shared by this crate's durability tests and the
/// WAL bench; not part of the service API.
#[doc(hidden)]
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("cc_{tag}_{}_{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir creation");
    dir
}

/// Parses the CLI `--alg` vocabulary shared by `connectit-serve` and
/// `connectit-loadgen` into a union-find variant:
/// `fastest`/`rem-cas` (wait-free), `async` (wait-free), or `rem-splice`
/// (phase-concurrent only).
pub fn parse_alg(name: &str) -> Result<cc_unionfind::UfSpec, String> {
    use cc_unionfind::{FindKind, SpliceKind, UfSpec, UniteKind};
    match name {
        "fastest" | "rem-cas" => Ok(UfSpec::fastest()),
        "async" => Ok(UfSpec::new(UniteKind::Async, FindKind::Halve)),
        "rem-splice" => Ok(UfSpec::rem(UniteKind::RemCas, SpliceKind::Splice, FindKind::Naive)),
        other => Err(format!("unknown --alg {other:?} (fastest|async|rem-splice)")),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn alg_vocabulary() {
        assert_eq!(super::parse_alg("fastest").unwrap(), super::parse_alg("rem-cas").unwrap());
        assert!(super::parse_alg("async").is_ok());
        assert!(super::parse_alg("rem-splice").is_ok());
        assert!(super::parse_alg("nope").is_err());
    }
}
