//! The traced run: one workload's byte-identical op stream replayed
//! through each layer's public entry point, bottom up, with a span around
//! every call. A layer's ns/op is its spans' total over the ops it
//! consumed; its self time is that minus the ns/op of the layer below.
//!
//! | rung         | entry point                                          |
//! |--------------|------------------------------------------------------|
//! | `graph`      | `cc_graph::build_undirected`                         |
//! | `sampling`   | `connectit::run_sampling` (k-out)                    |
//! | `finish`     | `connectit::finish_components` (Union-Rem-CAS)       |
//! | `unionfind`  | `StreamingConnectivity::process_batch`               |
//! | `engine`     | `cc_server::build_engine(..).process_batch`          |
//! | `generation` | `GenerationEngine::process_batch_tagged`             |
//! | `service`    | `Client::submit_tagged` (in-process `Service`)       |
//! | `binproto`   | `BinClient` against a `connectit-serve` child        |
//! | `net`        | `TcpClient` (text door) against a fresh child        |
//!
//! The first three run over the stream's final edge set; the rest consume
//! the stream itself. `unionfind` and `engine` cannot delete, so under
//! `churn` they consume the stream with its deletions removed. Counters
//! and stage summaries come from `ServiceStats`, `GenInfo` and a `METRICS`
//! scrape of the `binproto` child. The spans are kept in memory and
//! written to `<work-dir>/spans-<workload>-<seed>.jsonl` at the end.

use crate::gen::{self, hash_ops, Fnv, BATCH, N, STREAM_OPS};
use crate::oracle::{self, Checked, Frame, SeqUf};
use crate::server::Server;
use crate::workloads::{closed_loop, io, preload_ops, Conn, Ctx, Door, Outcome, WINDOW};
use cc_graph::stats::count_distinct_labels;
use cc_graph::{build_undirected, CsrGraph};
use cc_server::{
    build_engine, BinClient, DurabilityConfig, FsyncPolicy, GenerationEngine, Service,
    ServiceConfig,
};
use connectit::{
    connectivity_seeded, finish_components, run_sampling, FinishMethod, SamplingMethod,
    StreamAlgorithm, StreamingConnectivity, Update,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Single-op calls each `point` rung times.
const POINT_LADDER_OPS: usize = 20_000;
/// Calls of each static-phase entry point; the median counts.
const STATIC_REPEATS: usize = 5;
const QUIESCE: Duration = Duration::from_secs(120);

struct Span {
    layer: &'static str,
    rung: u64,
    /// Call index within the rung: the same index is the same ops in
    /// every layer. `None` marks the rung's own span.
    call: Option<u64>,
    start_ns: u64,
    end_ns: u64,
    ops: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    rungs: u64,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times one call. With `on == false` nothing is recorded, which is
    /// the untraced baseline of `trace.overhead`.
    fn call<T>(
        &mut self,
        on: bool,
        layer: &'static str,
        call: u64,
        ops: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        if on {
            let rung = self.rungs;
            self.spans.push(Span {
                layer,
                rung,
                call: Some(call),
                start_ns,
                end_ns,
                ops: ops as u64,
            });
        }
        (out, end_ns - start_ns)
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let call = s.call.map_or("null".to_string(), |c| c.to_string());
            writeln!(
                w,
                "{{\"layer\": \"{}\", \"rung\": {}, \"call\": {call}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"ops\": {}}}",
                s.layer, s.rung, s.start_ns, s.end_ns, s.ops
            )?;
        }
        w.flush()
    }
}

type Answers = Vec<(bool, Option<u64>)>;

/// What one rung consumed and produced.
struct Rung {
    layer: &'static str,
    ops: u64,
    busy_ns: u64,
    /// Median time of one call: what `trace.overhead` compares, since a
    /// few stalled calls would swamp a ratio of totals.
    median_call_ns: f64,
    hash: u64,
    components: usize,
    answers: Vec<Answers>,
}

impl Rung {
    fn ns_per_op(&self) -> f64 {
        self.busy_ns as f64 / self.ops.max(1) as f64
    }
}

/// The op stream of one traced workload: `load` is applied untimed before
/// the timed `calls` (only `point` has one: its preloaded graph).
struct Stream {
    load: Vec<Vec<Update>>,
    calls: Vec<Vec<Update>>,
    /// Every rung that can delete is also asked to `QUIESCE` at the end,
    /// inside its timed section, as the untraced `churn` run is.
    churn: bool,
    wal: bool,
}

impl Stream {
    fn all_ops(&self) -> impl Iterator<Item = &Update> {
        self.load.iter().chain(&self.calls).flatten()
    }

    fn without_deletes(&self) -> Stream {
        let keep = |b: &Vec<Update>| -> Vec<Update> {
            b.iter().filter(|op| !matches!(op, Update::Delete(..))).copied().collect()
        };
        Stream {
            load: self.load.iter().map(keep).collect(),
            calls: self.calls.iter().map(keep).collect(),
            churn: false,
            wal: self.wal,
        }
    }
}

/// Runs `f` over every call, spanning each, and hashes what was consumed.
fn drive(
    tr: &mut Tracer,
    on: bool,
    layer: &'static str,
    s: &Stream,
    mut f: impl FnMut(&[Update]) -> Result<Answers, String>,
) -> Result<Rung, String> {
    tr.rungs += 1;
    let mut h = Fnv::new();
    for op in s.load.iter().flatten() {
        h.op(op);
    }
    let rung_start = tr.now();
    let (mut busy_ns, mut ops, mut answers) = (0, 0, Vec::with_capacity(s.calls.len()));
    let mut per_call = Vec::with_capacity(s.calls.len());
    for (i, call) in s.calls.iter().enumerate() {
        let (a, ns) = tr.call(on, layer, i as u64, call.len(), || f(call));
        answers.push(a?);
        busy_ns += ns;
        per_call.push(ns as f64);
        ops += call.len() as u64;
        for op in call {
            h.op(op);
        }
    }
    let rung = tr.rungs;
    if on {
        let end_ns = tr.now();
        tr.spans.push(Span { layer, rung, call: None, start_ns: rung_start, end_ns, ops });
    }
    Ok(Rung {
        layer,
        ops,
        busy_ns,
        median_call_ns: crate::workloads::pct(&per_call, 0.5),
        hash: h.finish(),
        components: 0,
        answers,
    })
}

fn untagged(a: Vec<bool>) -> Answers {
    a.into_iter().map(|b| (b, None)).collect()
}

fn cfg() -> ServiceConfig {
    ServiceConfig { n: N, ..ServiceConfig::default() }
}

fn rung_unionfind(tr: &mut Tracer, s: &Stream) -> Result<Rung, String> {
    let c = cfg();
    let sc = StreamingConnectivity::new(N, &StreamAlgorithm::UnionFind(c.spec), c.seed);
    for b in &s.load {
        sc.process_batch(b);
    }
    let mut r = drive(tr, true, "unionfind", s, |ops| Ok(untagged(sc.process_batch(ops))))?;
    r.components = sc.num_components();
    Ok(r)
}

fn rung_engine(tr: &mut Tracer, s: &Stream) -> Result<Rung, String> {
    let c = cfg();
    let e = build_engine(N, c.shards, &c.spec, c.mode, c.seed).map_err(|e| e.to_string())?;
    for b in &s.load {
        e.process_batch(b);
    }
    let mut r = drive(tr, true, "engine", s, |ops| Ok(untagged(e.process_batch(ops))))?;
    r.components = e.num_components();
    Ok(r)
}

/// Appends the end-of-stream `QUIESCE` to a churn rung as one more span.
fn quiesce(
    tr: &mut Tracer,
    r: &mut Rung,
    f: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    let (res, ns) = tr.call(true, r.layer, r.answers.len() as u64, 0, f);
    res?;
    r.busy_ns += ns;
    Ok(())
}

fn rung_generation(tr: &mut Tracer, s: &Stream) -> Result<(Rung, [u64; 4]), String> {
    let c = cfg();
    let g = GenerationEngine::new(N, c.shards, &c.spec, c.mode, c.seed, Duration::ZERO, None)?;
    for b in &s.load {
        g.process_batch(b);
    }
    let mut r = drive(tr, true, "generation", s, |ops| Ok(g.process_batch_tagged(ops)))?;
    if s.churn {
        quiesce(tr, &mut r, || {
            g.quiesce(QUIESCE).map(|_| ()).map_err(|at| format!("quiesce at {at}"))
        })?;
    }
    r.components = g.num_components();
    let k = g.info().counters;
    Ok((r, [k.rebuilds, k.deletes_forest, k.deletes_nonforest, k.deletes_absent]))
}

fn rung_service(tr: &mut Tracer, ctx: &Ctx, s: &Stream) -> Result<(Rung, f64, f64), String> {
    let dir = ctx.work.join("ladder-service-wal");
    let _ = std::fs::remove_dir_all(&dir);
    let mut c = cfg();
    if s.wal {
        // As `connectit-serve --wal-dir <dir> --fsync batch` configures it.
        c.durability = Some(DurabilityConfig {
            fsync: FsyncPolicy::Batch,
            snapshot_every: c.snapshot_every,
            ..DurabilityConfig::new(&dir)
        });
    }
    let mut svc = Service::start(c).map_err(|e| e.to_string())?;
    let client = svc.client();
    for b in &s.load {
        client.submit(b.clone()).map_err(|e| e.to_string())?;
    }
    let mut r = drive(tr, true, "service", s, |ops| {
        client.submit_tagged(ops.to_vec()).map_err(|e| e.to_string())
    })?;
    if s.churn {
        quiesce(tr, &mut r, || client.quiesce(QUIESCE).map(|_| ()).map_err(|e| e.to_string()))?;
    }
    r.components = client.num_components();
    let st = client.stats();
    let ins = st.inserts.max(1) as f64;
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((r, st.forwarded as f64 / ins, st.cross_inserts as f64 / ins))
}

/// A wire rung: a fresh `connectit-serve` child with the workload's flags,
/// preloaded over the binary door, then the calls on `door`. Returns the
/// rung and the `METRICS` scrapes taken before and after the calls.
fn rung_wire(
    tr: &mut Tracer,
    on: bool,
    ctx: &Ctx,
    s: &Stream,
    door: Door,
) -> Result<(Rung, Scrape, Scrape), String> {
    let layer = if door == Door::Binary { "binproto" } else { "net" };
    let wal = s.wal.then(|| ctx.work.join(format!("ladder-{layer}-wal")));
    let server = Server::spawn(&ctx.serve, N, wal)?;
    let mut bc = BinClient::connect(&server.addr).map_err(io("connect"))?;
    let load: Vec<&[Update]> = s.load.iter().map(Vec::as_slice).collect();
    if closed_loop(&mut bc, &load, WINDOW)?.failed > 0 {
        return Err("preload frames failed".into());
    }
    let before = Scrape(server.metrics()?);
    let single = s.calls.iter().all(|c| c.len() == 1);
    let mut conn = match door {
        Door::Binary => Conn::Bin(bc),
        Door::Text => Conn::open(door, &server.addr)?,
    };
    let mut r = drive(tr, on, layer, s, |ops| match (&mut conn, single) {
        (c, true) => {
            Ok(c.call(ops[0]).map_err(io("call"))?.map(|a| (a, None)).into_iter().collect())
        }
        (Conn::Bin(c), false) => c.submit(ops).map_err(io("B")),
        (Conn::Text(c), false) => c.submit(ops).map(untagged).map_err(io("B")),
    })?;
    if s.churn {
        quiesce(tr, &mut r, || {
            let res = match &mut conn {
                Conn::Bin(c) => c.quiesce(QUIESCE.as_millis() as u64),
                Conn::Text(c) => c.quiesce(QUIESCE.as_millis() as u64),
            };
            res.map(|_| ()).map_err(io("QUIESCE"))
        })?;
    }
    let after = Scrape(server.metrics()?);
    r.components = server.text()?.components().map_err(io("COMPONENTS"))?;
    drop(conn);
    server.stop()?;
    Ok((r, before, after))
}

struct Scrape(HashMap<String, f64>);

impl Scrape {
    fn get(&self, key: &str) -> f64 {
        self.0.get(&format!("connectit_{key}")).copied().unwrap_or(0.0)
    }

    fn p50(&self, summary: &str) -> f64 {
        self.get(&format!("{summary}{{quantile=\"0.5\"}}"))
    }
}

/// Builds the traced stream of a workload and the edge set its
/// static-phase rungs run over.
fn stream_for(workload: &str, seed: u64) -> (Stream, Vec<(u32, u32)>) {
    let batches = |ops: &[Update]| ops.chunks(BATCH).map(<[Update]>::to_vec).collect::<Vec<_>>();
    let inserts = |ops: &[Update]| {
        ops.iter()
            .filter_map(|op| match *op {
                Update::Insert(u, v) => Some((u, v)),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let stream = |calls, churn, wal| Stream { load: Vec::new(), calls, churn, wal };
    match workload {
        "static" => {
            // The static graph in full for the static phase; its first
            // STREAM_OPS edges as insert batches for the streaming rungs.
            let edges = gen::static_edges(seed);
            let ops = preload_ops(&edges[..STREAM_OPS]);
            (stream(batches(&ops), false, false), edges)
        }
        "ingest" => {
            let ops = gen::ingest_stream(seed);
            (stream(batches(&ops), false, true), inserts(&ops))
        }
        "churn" => {
            let ops = gen::churn_stream(seed);
            let live = oracle::live_after(&ops);
            let edges = live.iter().map(|&k| ((k >> 32) as u32, k as u32)).collect();
            (stream(batches(&ops), true, true), edges)
        }
        _ => {
            let (preload, requests) = gen::point_inputs(seed);
            let calls: Vec<Vec<Update>> =
                requests[..POINT_LADDER_OPS].iter().map(|&op| vec![op]).collect();
            let mut edges = preload.clone();
            edges.extend(inserts(&requests[..POINT_LADDER_OPS]));
            let s =
                Stream { load: batches(&preload_ops(&preload)), calls, churn: false, wal: false };
            (s, edges)
        }
    }
}

/// Sandwich-checks a rung's answers, one call per window.
fn check(s: &Stream, r: &Rung) -> Checked {
    let mut uf_load = Vec::new();
    for b in &s.load {
        uf_load.extend_from_slice(b);
    }
    let mut frames = Vec::with_capacity(s.calls.len() + 1);
    if !uf_load.is_empty() {
        frames.push(Frame { ops: &uf_load, lo: 0, hi: 1, answers: Vec::new() });
    }
    let base = frames.len();
    for (i, (ops, a)) in s.calls.iter().zip(&r.answers).enumerate() {
        frames.push(Frame { ops, lo: base + i, hi: base + i + 1, answers: a.clone() });
    }
    if s.churn {
        oracle::check_churn(N, &frames)
    } else {
        oracle::check_monotone(N, &frames)
    }
}

/// The static phase over `edges`: median spans of `build_undirected`,
/// `run_sampling` and `finish_components`, plus coverage and the share of
/// adjacency entries the finish must unite.
fn static_phase(
    tr: &mut Tracer,
    edges: &[(u32, u32)],
    seed: u64,
) -> ([f64; 5], CsrGraph, Vec<u32>) {
    tr.rungs += 1;
    let (g, build_ns) = tr.call(true, "graph", 0, edges.len(), || build_undirected(N, edges));
    let (sampling, finish) = (SamplingMethod::kout_default(), FinishMethod::fastest());
    let (mut s_ms, mut f_ms, mut labels, mut cover, mut frac) = (vec![], vec![], vec![], 0.0, 0.0);
    for i in 0..STATIC_REPEATS as u64 {
        let (sample, ns) = tr.call(true, "sampling", i, edges.len(), || {
            run_sampling(&g, &sampling, seed ^ i, false)
        });
        s_ms.push(ns as f64 / 1e6);
        let (l, ns) = tr.call(true, "finish", i, edges.len(), || {
            finish_components(&g, &finish, &sample.labels, sample.frequent, seed ^ i, None)
        });
        f_ms.push(ns as f64 / 1e6);
        labels = l;
        cover = sample.frequent_count as f64 / N as f64;
        let total = g.offsets()[N] as f64;
        let skipped: usize = (0..N as u32)
            .filter(|&v| sample.labels[v as usize] == sample.frequent)
            .map(|v| g.neighbors(v).len())
            .sum();
        frac = 1.0 - skipped as f64 / total.max(1.0);
    }
    let med = crate::workloads::pct;
    ([build_ns as f64 / 1e6, med(&s_ms, 0.5), cover, med(&f_ms, 0.5), frac], g, labels)
}

/// `trace.overhead` of the static workload, whose top layer is
/// `connectivity_seeded`: spanned and unspanned solves alternate, so drift
/// over the run hits both sides alike.
fn static_overhead(tr: &mut Tracer, g: &CsrGraph, seed: u64) -> f64 {
    let (sampling, finish) = (SamplingMethod::kout_default(), FinishMethod::fastest());
    tr.rungs += 1;
    let (mut plain, mut traced) = (0, 0);
    for i in 0..STATIC_REPEATS as u64 {
        for on in [false, true] {
            let (_, ns) = tr.call(on, "connectivity", i, g.num_edges(), || {
                black_box(connectivity_seeded(g, &sampling, &finish, seed ^ i))
            });
            *if on { &mut traced } else { &mut plain } += ns;
        }
    }
    traced as f64 / plain as f64
}

pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut tr = Tracer { epoch: Instant::now(), spans: Vec::new(), rungs: 0 };
    let mut out = Outcome::default();
    let (s, edges) = stream_for(workload, ctx.seed);
    let mut want_static = SeqUf::from_edges(N, &edges);

    let ([build_ms, sampling_ms, coverage, finish_ms, edge_frac], g, labels) =
        static_phase(&mut tr, &edges, ctx.seed);
    let mut rungs_ok = want_static.same_partition(&labels);
    out.lines.push(format!(
        "rung static-phase: edges={} hash={:016x} components={} expected={} partition_ok={rungs_ok}",
        edges.len(),
        gen::hash_edges(&edges),
        count_distinct_labels(&labels),
        want_static.components()
    ));
    let overhead_static = (workload == "static").then(|| static_overhead(&mut tr, &g, ctx.seed));
    drop((g, labels, edges));

    // Streaming rungs. `unionfind` and `engine` cannot delete: under churn
    // they take the delete-free projection, checked against its own oracle.
    let projected = s.churn.then(|| s.without_deletes());
    let lower = projected.as_ref().unwrap_or(&s);
    let want_full = oracle::final_state(N, &s.all_ops().copied().collect::<Vec<_>>()).components();
    let want_lower =
        oracle::final_state(N, &lower.all_ops().copied().collect::<Vec<_>>()).components();

    let uf = rung_unionfind(&mut tr, lower)?;
    let engine = rung_engine(&mut tr, lower)?;
    let (generation, gen_counts) = rung_generation(&mut tr, &s)?;
    let (service, forward_frac, cross_frac) = rung_service(&mut tr, ctx, &s)?;
    let top_door = if workload == "point" { Door::Text } else { Door::Binary };
    let untraced =
        (workload != "static").then(|| rung_wire(&mut tr, false, ctx, &s, top_door)).transpose()?;
    let (binproto, before, after) = rung_wire(&mut tr, true, ctx, &s, Door::Binary)?;
    let (net, _, _) = rung_wire(&mut tr, true, ctx, &s, Door::Text)?;
    let overhead = match (overhead_static, untraced) {
        (Some(o), _) => o,
        (None, Some((base, _, _))) => {
            let top = if top_door == Door::Text { &net } else { &binproto };
            top.median_call_ns / base.median_call_ns
        }
        (None, None) => unreachable!("every workload has a top layer"),
    };

    // Ladder cross-check: identical op sequences, identical end states,
    // and every rung's answers within the oracle's sandwich.
    for (r, stream, want) in [
        (&uf, lower, want_lower),
        (&engine, lower, want_lower),
        (&generation, &s, want_full),
        (&service, &s, want_full),
        (&binproto, &s, want_full),
        (&net, &s, want_full),
    ] {
        let expect_hash = hash_ops(stream.all_ops());
        let ok = r.hash == expect_hash && r.components == want;
        rungs_ok &= ok;
        let mut checked = check(stream, r);
        if s.churn && r.layer == "net" {
            // Text `B` replies carry no generation tag, so a sealed answer
            // cannot be told from a live one: count, do not compare.
            checked = Checked { stale: checked.exact + checked.ambiguous, ..Checked::default() };
        }
        out.lines.push(format!(
            "rung {}: ops={} calls={} hash={:016x} components={} expected={want} ns_per_op={:.1}",
            r.layer,
            r.ops,
            stream.calls.len(),
            r.hash,
            r.components,
            r.ns_per_op()
        ));
        out.absorb(&format!("rung {}", r.layer), &checked);
        out.attempted += r.ops;
    }
    if !rungs_ok {
        out.mismatches += 1;
        out.lines
            .push("ladder cross-check FAILED: a rung consumed other ops or ended elsewhere".into());
    }

    let queries: usize = binproto.answers.iter().map(Vec::len).sum();
    let stale = binproto.answers.iter().flatten().filter(|a| a.1.is_some()).count();
    let deletes: u64 = gen_counts[1..].iter().sum();
    let stream_ops: f64 = s.calls.iter().map(|c| c.len() as f64).sum();
    let delta = |k: &str| after.get(k) - before.get(k);
    let batches = delta("batches_total");
    let served = delta("inserts_total") + delta("deletes_total") + delta("queries_total");
    let m = &mut out.metrics;
    let ns = |r: &Rung| r.ns_per_op();
    m.extend([
        ("graph.build_ms", build_ms, "ms"),
        ("sampling.ms", sampling_ms, "ms"),
        ("sampling.coverage", coverage, "ratio"),
        ("finish.ms", finish_ms, "ms"),
        ("finish.edge_frac", edge_frac, "ratio"),
        ("unionfind.ns_per_op", ns(&uf), "ns"),
        ("engine.ns_per_op", ns(&engine), "ns"),
        ("engine.self_ns_per_op", ns(&engine) - ns(&uf), "ns"),
        ("engine.forward_frac", forward_frac, "ratio"),
        ("engine.cross_frac", cross_frac, "ratio"),
        ("generation.ns_per_op", ns(&generation), "ns"),
        ("generation.self_ns_per_op", ns(&generation) - ns(&engine), "ns"),
        ("generation.rebuilds", gen_counts[0] as f64, "count"),
        ("generation.forest_delete_frac", gen_counts[1] as f64 / deletes.max(1) as f64, "ratio"),
        ("generation.rebuild_ms_p50", after.p50("rebuild_duration_ns") / 1e6, "ms"),
        ("generation.stale_query_frac", stale as f64 / queries.max(1) as f64, "ratio"),
        ("service.ns_per_op", ns(&service), "ns"),
        ("service.self_ns_per_op", ns(&service) - ns(&generation), "ns"),
        ("service.ops_per_batch", served / batches.max(1.0), "ops"),
        ("service.queue_wait_us_p50", after.p50("queue_wait_ns") / 1e3, "us"),
        ("service.apply_us_p50", after.p50("apply_ns") / 1e3, "us"),
        ("service.publish_us_p50", after.p50("publish_ns") / 1e3, "us"),
        ("wal.bytes_per_op", delta("wal_bytes_total") / stream_ops, "B"),
        ("wal.append_us_p50", after.p50("wal_append_ns") / 1e3, "us"),
        ("wal.fsyncs", delta("wal_fsyncs_total"), "count"),
        ("binproto.ns_per_op", ns(&binproto), "ns"),
        ("binproto.self_ns_per_op", ns(&binproto) - ns(&service), "ns"),
        ("binproto.coalesce_width_p50", after.p50("net_coalesce_width"), "count"),
        ("net.ns_per_op", ns(&net), "ns"),
        ("net.self_ns_per_op", ns(&net) - ns(&service), "ns"),
        ("trace.overhead", overhead, "ratio"),
    ]);
    let ladder_sum = ns(&uf)
        + (ns(&engine) - ns(&uf))
        + (ns(&generation) - ns(&engine))
        + (ns(&service) - ns(&generation))
        + (ns(&binproto) - ns(&service));
    out.lines.push(format!(
        "ladder: self times unionfind..binproto sum to {ladder_sum:.1} ns/op; binproto.ns_per_op={:.1}",
        ns(&binproto)
    ));
    let path = ctx.work.join(format!("spans-{workload}-{}.jsonl", ctx.seed));
    tr.write(&path).map_err(io("write spans"))?;
    out.lines.push(format!("spans: {} written to {}", tr.spans.len(), path.display()));
    Ok(out)
}
