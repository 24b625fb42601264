//! The untraced runs: each workload end to end, timed with the tracing
//! off, every answer checked against an oracle outside the clock.

use crate::gen::{self, BATCH, N};
use crate::oracle::{self, Checked, Frame, SeqUf};
use crate::server::{self, Server};
use cc_graph::build_undirected;
use cc_server::{BinClient, Reply, TcpClient};
use connectit::{connectivity_seeded, FinishMethod, SamplingMethod, Update};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Binary frames in flight in the `ingest` and `churn` closed loops.
pub const WINDOW: usize = 4;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Set-ups sampled per `ingest`/`churn` run.
const STREAM_SETUPS: usize = 9;
/// `QUIESCE` timeout, ms.
const QUIESCE_MS: u64 = 120_000;

pub struct Ctx {
    pub serve: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// What one run reports: the contract's counts, its end-to-end metrics,
/// and human-readable lines printed before the JSON result.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub lines: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn absorb(&mut self, what: &str, c: &Checked) {
        self.mismatches += c.mismatches;
        self.lines.push(format!(
            "validate {what}: exact={} stale={} ambiguous={} mismatches={}{}",
            c.exact,
            c.stale,
            c.ambiguous,
            c.mismatches,
            c.first_mismatch.as_ref().map(|m| format!(" first: {m}")).unwrap_or_default()
        ));
    }

    fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Nearest-rank percentile of unsorted samples.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The paper's static kernel: repeated `connectivity_seeded` solves (k-out
/// sampling, Union-Rem-CAS finish) over one RMAT graph.
pub fn run_static(ctx: &Ctx) -> Result<Outcome, String> {
    let edges = gen::static_edges(ctx.seed);
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(black_box(build_undirected(N, &edges)));
        setups.push(secs(t.elapsed()));
    }
    let g = built.expect("SETUPS > 0");
    let mut oracle = SeqUf::from_edges(N, &edges);
    let input_hash = gen::hash_edges(&edges);
    drop(edges);
    let (sampling, finish) = (SamplingMethod::kout_default(), FinishMethod::fastest());
    let mut out = Outcome::default();
    let mut solves = Vec::new();
    let start = Instant::now();
    while secs(start.elapsed()) < ctx.seconds || solves.len() < 10 {
        let t = Instant::now();
        let labels =
            black_box(connectivity_seeded(&g, &sampling, &finish, ctx.seed ^ out.attempted));
        solves.push(secs(t.elapsed()));
        out.attempted += 1;
        if !oracle.same_partition(&labels) {
            out.mismatches += 1;
        }
    }
    let solve_p50 = pct(&solves, 0.5);
    let rss = server::peak_rss_mb("/proc/self/status");
    out.lines.push(format!(
        "static: n={N} m={} input_hash={input_hash:016x} solves={} components={} \
         solve_ms={:.3} ms edges_per_s={:.0} edges/s setup_s={:.3} s error_frac={} \
         peak_rss_mb={rss:.1} MB",
        g.num_edges(),
        solves.len(),
        oracle.components(),
        solve_p50 * 1e3,
        g.num_edges() as f64 / solve_p50,
        pct(&setups, 0.5),
        out.error_frac(),
    ));
    out.metrics = vec![
        ("setup_s", pct(&setups, 0.5), "s"),
        ("ns_per_op", solve_p50 * 1e9 / g.num_edges() as f64, "ns"),
        ("peak_rss_mb", rss, "MB"),
    ];
    Ok(out)
}

/// One closed-loop pass as the client saw it.
pub struct LoopRun<'a> {
    pub frames: Vec<Frame<'a>>,
    pub rtt_s: Vec<f64>,
    pub failed: u64,
}

/// Sends `frames` as binary `B` frames with at most `window` in flight,
/// recording each frame's answers, round trip and validation window.
pub fn closed_loop<'a>(
    bc: &mut BinClient,
    frames: &[&'a [Update]],
    window: usize,
) -> Result<LoopRun<'a>, String> {
    let mut run =
        LoopRun { frames: Vec::with_capacity(frames.len()), rtt_s: Vec::new(), failed: 0 };
    let mut corr_of = std::collections::HashMap::new();
    let mut sent_at = Vec::with_capacity(frames.len());
    let mut done = vec![false; frames.len()];
    let (mut sent, mut acked_prefix, mut in_flight) = (0, 0, 0);
    for ops in frames {
        run.frames.push(Frame { ops, lo: 0, hi: 0, answers: Vec::new() });
    }
    while acked_prefix < frames.len() {
        while sent < frames.len() && in_flight < window {
            let corr = bc.send_batch(frames[sent]).map_err(io("send B"))?;
            corr_of.insert(corr, sent);
            run.frames[sent].lo = acked_prefix;
            sent_at.push(Instant::now());
            sent += 1;
            in_flight += 1;
        }
        let (corr, reply) = bc.reap().map_err(io("reap B"))?;
        let i = corr_of.remove(&corr).ok_or("reply for an unknown frame")?;
        run.rtt_s.push(secs(sent_at[i].elapsed()));
        in_flight -= 1;
        run.frames[i].hi = sent;
        match reply {
            Reply::Answers(a) => run.frames[i].answers = a,
            _ => run.failed += 1,
        }
        done[i] = true;
        while acked_prefix < frames.len() && done[acked_prefix] {
            acked_prefix += 1;
        }
    }
    Ok(run)
}

/// Checks the server's final partition: every membership query true and
/// the component count equal.
pub fn check_final(server: &Server, oracle: &mut SeqUf) -> Result<String, String> {
    let queries = oracle.membership_queries();
    let frames: Vec<&[Update]> = queries.chunks(BATCH).collect();
    let mut bc = BinClient::connect(&server.addr).map_err(io("connect"))?;
    let run = closed_loop(&mut bc, &frames, WINDOW)?;
    let wrong = run.frames.iter().flat_map(|f| &f.answers).filter(|a| !a.0).count();
    let answered: usize = run.frames.iter().map(|f| f.answers.len()).sum();
    let got = server.text()?.components().map_err(io("COMPONENTS"))?;
    if run.failed > 0 || wrong > 0 || answered != queries.len() || got != oracle.components() {
        return Err(format!(
            "final state differs from the oracle: components {got} vs {}, {wrong} of {} \
             membership queries false, {} failed frames",
            oracle.components(),
            queries.len(),
            run.failed
        ));
    }
    Ok(format!("final state: components={got} membership_queries={}", queries.len()))
}

/// `ingest` and `churn`: the 4M-op stream through the binary door, one
/// fresh WAL-backed server per pass, passes repeated until `--seconds`.
pub fn run_stream(ctx: &Ctx, churn: bool) -> Result<Outcome, String> {
    let name = if churn { "churn" } else { "ingest" };
    let ops = if churn { gen::churn_stream(ctx.seed) } else { gen::ingest_stream(ctx.seed) };
    let frames: Vec<&[Update]> = ops.chunks(BATCH).collect();
    let mut oracle = oracle::final_state(N, &ops);
    let mut out = Outcome::default();
    let (mut setups, mut rates, mut rtts, mut quiesce) = (vec![], vec![], vec![], vec![]);
    let (mut timed, mut rss) = (0.0, vec![]);
    while timed < ctx.seconds || setups.len() < SETUPS {
        let t0 = Instant::now();
        let server = Server::spawn(&ctx.serve, N, Some(ctx.work.join(format!("wal-{name}"))))?;
        let mut bc = BinClient::connect(&server.addr).map_err(io("connect"))?;
        setups.push(secs(t0.elapsed()));
        let t1 = Instant::now();
        let run = closed_loop(&mut bc, &frames, WINDOW)?;
        if churn {
            let tq = Instant::now();
            bc.quiesce(QUIESCE_MS).map_err(io("QUIESCE"))?;
            quiesce.push(secs(tq.elapsed()));
        }
        let pass = secs(t1.elapsed());
        timed += pass;
        rates.push(ops.len() as f64 / pass);
        rtts.extend(&run.rtt_s);
        out.attempted += ops.len() as u64;
        out.failed += run.failed * BATCH as u64;
        let fin = check_final(&server, &mut oracle);
        rss.push(server.peak_rss_mb());
        out.lines.push(format!(
            "{name} pass {}: setup_s={:.4} s ops_per_s={:.0} ops/s{} peak_rss_mb={:.1} MB",
            setups.len(),
            setups[setups.len() - 1],
            rates[rates.len() - 1],
            quiesce.last().map(|q| format!(" quiesce_s={q:.3} s")).unwrap_or_default(),
            rss[rss.len() - 1],
        ));
        server.stop()?;
        server::settle();
        out.lines.push(fin?);
        let checked = if churn {
            oracle::check_churn(N, &run.frames)
        } else {
            oracle::check_monotone(N, &run.frames)
        };
        out.absorb(&format!("{name} pass {}", setups.len()), &checked);
    }
    // A spawn takes tens of milliseconds, so a few passes are too few
    // samples for a steady median: top up with set-ups that run no pass.
    while setups.len() < STREAM_SETUPS {
        let t0 = Instant::now();
        let server = Server::spawn(&ctx.serve, N, Some(ctx.work.join(format!("wal-{name}"))))?;
        BinClient::connect(&server.addr).map_err(io("connect"))?;
        setups.push(secs(t0.elapsed()));
        server.stop()?;
        server::settle();
    }
    let (rate, rss) = (pct(&rates, 0.5), pct(&rss, 0.5));
    out.lines.push(format!(
        "{name}: n={N} ops={} input_hash={:016x} passes={} ops_per_s={rate:.0} ops/s setup_s={:.4} s \
         frame_p50_us={:.1} us frame_p99_us={:.1} us{} error_frac={} peak_rss_mb={rss:.1} MB",
        ops.len(),
        gen::hash_ops(&ops),
        rates.len(),
        pct(&setups, 0.5),
        pct(&rtts, 0.5) * 1e6,
        pct(&rtts, 0.99) * 1e6,
        if churn { format!(" quiesce_s={:.3} s", pct(&quiesce, 0.5)) } else { String::new() },
        out.error_frac(),
    ));
    out.metrics = vec![
        ("setup_s", pct(&setups, 0.5), "s"),
        ("ns_per_op", 1e9 / rate, "ns"),
        ("peak_rss_mb", rss, "MB"),
    ];
    Ok(out)
}

/// Which door a `point` connection uses.
#[derive(Clone, Copy, PartialEq)]
pub enum Door {
    Binary,
    Text,
}

/// A depth-1 connection on either door.
pub enum Conn {
    Bin(BinClient),
    Text(TcpClient),
}

impl Conn {
    pub fn open(door: Door, addr: &str) -> Result<Conn, String> {
        Ok(match door {
            Door::Binary => Conn::Bin(BinClient::connect(addr).map_err(io("connect"))?),
            Door::Text => Conn::Text(TcpClient::connect(addr).map_err(io("connect"))?),
        })
    }

    /// One single-op request; `Some(answer)` for a query.
    pub fn call(&mut self, op: Update) -> std::io::Result<Option<bool>> {
        match (self, op) {
            (Conn::Bin(c), Update::Insert(u, v)) => c.insert(u, v).map(|_| None),
            (Conn::Bin(c), Update::Query(u, v)) => c.query(u, v).map(Some),
            (Conn::Text(c), Update::Insert(u, v)) => c.insert(u, v).map(|_| None),
            (Conn::Text(c), Update::Query(u, v)) => c.query(u, v).map(Some),
            (_, Update::Delete(..)) => unreachable!("point streams carry no deletions"),
        }
    }
}

/// Spawns a server, preloads the `point` graph over the binary door and
/// opens the text connection; returns them with the set-up time (spawn to
/// ready for the first timed op).
fn point_server(ctx: &Ctx, preload: &[&[Update]]) -> Result<(Server, Conn, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(&ctx.serve, N, None)?;
    let mut bc = BinClient::connect(&server.addr).map_err(io("connect"))?;
    let run = closed_loop(&mut bc, preload, WINDOW)?;
    if run.failed > 0 {
        return Err(format!("{} preload frames failed", run.failed));
    }
    let conn = Conn::open(Door::Text, &server.addr)?;
    Ok((server, conn, secs(t0.elapsed())))
}

pub fn preload_ops(preload: &[(u32, u32)]) -> Vec<Update> {
    preload.iter().map(|&(u, v)| Update::Insert(u, v)).collect()
}

/// `point`: depth-1 single-op requests on the text door of a preloaded
/// server. The run's time is split over `SETUPS` servers, so
/// every set-up it times is also measured.
pub fn run_point(ctx: &Ctx) -> Result<Outcome, String> {
    let (preload, requests) = gen::point_inputs(ctx.seed);
    let preload = preload_ops(&preload);
    let frames: Vec<&[Update]> = preload.chunks(BATCH).collect();
    let mut out = Outcome::default();
    let (mut setups, mut lat, mut timed, mut rss) = (vec![], vec![], 0.0, vec![]);
    for _ in 0..SETUPS {
        let (server, mut conn, setup) = point_server(ctx, &frames)?;
        setups.push(setup);
        let mut answers = Vec::new();
        let t1 = Instant::now();
        while secs(t1.elapsed()) < ctx.seconds / SETUPS as f64 && answers.len() < requests.len() {
            let t = Instant::now();
            let got = conn.call(requests[answers.len()]);
            lat.push(secs(t.elapsed()));
            answers.push(got);
        }
        timed += secs(t1.elapsed());
        rss.push(server.peak_rss_mb());
        drop(conn);
        server.stop()?;
        server::settle();
        out.attempted += answers.len() as u64;
        let checked = check_sequential(&preload, &requests, &answers, &mut out.failed);
        out.absorb(&format!("point server {}", setups.len()), &checked);
    }
    let rss = pct(&rss, 0.5);
    out.lines.push(format!(
        "point: n={N} preload={} input_hash={:016x} requests={} text_p50_us={:.1} us text_p99_us={:.1} us \
         ops_per_s={:.0} ops/s setup_s={:.4} s error_frac={} peak_rss_mb={rss:.1} MB",
        preload.len(),
        gen::hash_ops(preload.iter().chain(&requests)),
        lat.len(),
        pct(&lat, 0.5) * 1e6,
        pct(&lat, 0.99) * 1e6,
        lat.len() as f64 / timed,
        pct(&setups, 0.5),
        out.error_frac(),
    ));
    out.metrics = vec![
        ("setup_s", pct(&setups, 0.5), "s"),
        ("ns_per_op", pct(&lat, 0.5) * 1e9, "ns"),
        ("peak_rss_mb", rss, "MB"),
    ];
    Ok(out)
}

/// Depth-1 requests are sequential, so every query has exactly one legal
/// answer: the oracle's after the preload and every earlier request.
fn check_sequential(
    preload: &[Update],
    requests: &[Update],
    answers: &[std::io::Result<Option<bool>>],
    failed: &mut u64,
) -> Checked {
    let mut uf = SeqUf::new(N);
    for op in preload {
        if let Update::Insert(u, v) = *op {
            uf.union(u, v);
        }
    }
    let mut out = Checked::default();
    for (i, (op, got)) in requests.iter().zip(answers).enumerate() {
        match (*op, got) {
            (_, Err(_)) => *failed += 1,
            (Update::Insert(u, v), _) => uf.union(u, v),
            (Update::Query(u, v), Ok(Some(got))) => {
                let want = uf.connected(u, v);
                out.exact += 1;
                if *got != want {
                    out.mismatches += 1;
                    out.first_mismatch.get_or_insert_with(|| {
                        format!("request {i}: query({u}, {v}) answered {got}, oracle says {want}")
                    });
                }
            }
            _ => *failed += 1,
        }
    }
    out
}
