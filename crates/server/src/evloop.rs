//! The sharded readiness event loop: the wire-speed front door.
//!
//! `start` (via [`crate::net::serve`]) binds one listener and spawns N
//! shard threads (`cc-net-<i>`), each owning its accepted connections
//! through the offline `mio` shim (epoll on Linux, `poll(2)` fallback).
//! The accept thread round-robins fresh sockets — `TCP_NODELAY` already
//! set — to shard inboxes and wakes the shard's poll.
//!
//! ## Protocol sniff
//!
//! A shard reads the first byte of each adopted connection: `0xCC` (the
//! [`crate::binproto::STREAM_MAGIC`] opener, which no text verb starts
//! with) selects the binary codec; anything else selects the text codec
//! ([`crate::net`]). Both decode into one request model
//! (`net::Request`; binary frames decode into a subset of the
//! text verbs) and run through one executor, so the two doors differ only
//! in framing and in how many requests a connection may have in flight.
//! A binary connection pipelines: replies complete out of order, matched
//! by correlation id. A text connection runs one request at a time —
//! later lines wait in its line assembler until the reply is queued —
//! so replies come in request order and a `Q` after an `I` on one
//! connection sees the `I`.
//!
//! ## Cross-connection batch execution
//!
//! The perf move this module exists for: each poll round, a shard drains
//! every ready connection's frames and text requests *first*, then
//! executes the round's decoded requests in two grouped strokes:
//!
//! - all `Q`/`QG` reads (and, on a follower, query-only `B` bodies) go
//!   through **one** [`crate::service::Client::query_many_tagged`] call —
//!   one epoch-snapshot/view acquire answers every read the round
//!   collected, across all connections;
//! - all `I`/`D`/`B` updates concatenate into **one**
//!   [`crate::service::Client::submit_tagged_async`] group per round, so
//!   the batch former sees one submission where per-connection clients
//!   would send dozens, and the shard never parks waiting for the batch — the
//!   ticket's completion callback wakes the poll and answers are routed
//!   back per correlation id (responses complete out of order by design).
//!
//! A text connection whose reply is queued gets its next buffered request
//! into a follow-up round at once, without waiting for readiness.
//!
//! The coalesce width (requests per grouped stroke) is recorded in
//! `net_coalesce_width`; per-connection in-flight depth in
//! `net_pipeline_depth`; frames in `frames_total{dir=…}`; per-shard
//! connection counts in `net_shard_connections{shard=…}`.
//!
//! ## Backpressure and lifecycle
//!
//! Responses drain greedily; leftovers queue per connection and drive
//! `WRITABLE` interest. A write queue above [`NetConfig::max_wbuf`] drops
//! read interest until the peer drains it, bounding memory per slow
//! reader; a text connection likewise stops reading while its unparsed
//! input holds a full line cap behind a request in flight. Frame-level
//! damage answers a correlation-id-0 `ERR` frame and closes with a typed
//! `bad-frame` reason, text framing damage its typed text reasons; idle
//! connections (when [`NetConfig::idle_timeout`] is set) close
//! `idle-timeout`; every close lands in the flight recorder. Verbs that
//! can block on an epoch, a rebuild, an fsync or the WAL lock (`WAIT`,
//! `QUIESCE`, `FLUSH`, `SNAPSHOT`, `WALSTATS`) are offloaded to
//! short-lived helper threads so a barrier never stalls a shard's other
//! connections. Subscription events share the connection's one write
//! queue with its replies.

use crate::binproto::{
    self, encode_event, encode_reply, frame, FrameAssembler, Reply, RequestError, SNIFF_BYTE,
};
use crate::net::{
    encode_text_event, encode_text_reply, Decoded, LineAssembler, Request, ServerShared, TcpServer,
    MAX_LINE_BYTES,
};
use crate::obs::{CloseReason, Event, Gauge, Obs};
use crate::service::{Client, Role, Service, ServiceError, SubmitTicket};
use crate::subs::{SubEvent, SubKind, SubSink};
use connectit::Update;
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Front-end tuning for [`crate::net::serve_with`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Event-loop shards (threads). Each owns its connections end to end.
    pub shards: usize,
    /// Per-connection read/idle timeout, text and binary alike. `None`
    /// (the default) never times a connection out.
    pub idle_timeout: Option<Duration>,
    /// Write-queue cap per connection: above it, read interest is dropped
    /// until the peer drains, so one slow reader cannot balloon memory.
    pub max_wbuf: usize,
    /// Subscription events a **text** connection may hold delivered but
    /// not yet written to its socket before the server declares the
    /// consumer too slow and closes the connection with a typed
    /// `sub-overflow`. Binary connections are bounded by
    /// [`NetConfig::max_wbuf`] instead: an event append that pushes the
    /// write queue past it closes the connection the same way.
    pub sub_queue_cap: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        let shards = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(1, 8);
        NetConfig { shards, idle_timeout: None, max_wbuf: 1 << 20, sub_queue_cap: 4096 }
    }
}

/// The waker's token; connections get tokens from 1 up, never reused.
const WAKER: Token = Token(0);

/// How long a shard sleeps in poll with nothing ready: bounds shutdown
/// latency and idle-sweep granularity.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Binds `addr` and runs the sharded front end over `service`.
pub(crate) fn start(
    service: &Service,
    addr: impl ToSocketAddrs,
    cfg: NetConfig,
) -> io::Result<TcpServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let shared = Arc::new(ServerShared::new(listener.local_addr()?));
    let client = service.client();
    let obs = client.observability();
    let nshards = cfg.shards.max(1);
    let gauges = obs.metrics.register_net_shards(nshards);

    let mut inboxes = Vec::with_capacity(nshards);
    let mut wakers = Vec::with_capacity(nshards);
    let mut handles = Vec::with_capacity(nshards);
    for (i, gauge) in gauges.into_iter().enumerate() {
        let mut shard = Shard::new(client.clone(), Arc::clone(&shared), &cfg, gauge)?;
        inboxes.push(Arc::clone(&shard.inbox));
        wakers.push(Arc::clone(&shard.waker));
        handles.push(
            std::thread::Builder::new().name(format!("cc-net-{i}")).spawn(move || shard.run())?,
        );
    }

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new().name("cc-accept".into()).spawn(move || {
        let mut next = 0usize;
        while !accept_shared.shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // TCP_NODELAY on every accepted socket: pipelined
                    // frames and one-line replies must not eat Nagle
                    // delays (only the client side set it before).
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    inboxes[next].lock().push(stream);
                    let _ = wakers[next].wake();
                    next = (next + 1) % inboxes.len();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        // Wake every shard so they observe the shutdown flag promptly.
        for w in &wakers {
            let _ = w.wake();
        }
    })?;

    Ok(TcpServer { shared, accept: Some(accept), shards: handles })
}

/// A connection's codec, decided by its first byte.
enum Codec {
    /// No byte read yet.
    Unsniffed,
    Binary(FrameAssembler),
    Text(TextConn),
}

/// The text codec's per-connection state.
#[derive(Default)]
struct TextConn {
    lines: LineAssembler,
    /// Verb of the one request in flight. Later lines wait in `lines`
    /// until its reply is queued: program order per connection.
    busy: Option<&'static str>,
    /// The peer half-closed: finish the buffered requests, then close.
    eof: bool,
    /// Shared with this connection's subscription sinks; made on the
    /// first `SUB`.
    budget: Option<Arc<PushBudget>>,
    /// End offsets in the write queue of `! EVT` lines not yet written.
    evt_ends: VecDeque<usize>,
}

/// One connection owned by a shard.
struct Conn {
    stream: TcpStream,
    codec: Codec,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Registered poll interest; `None` while deregistered (a text peer
    /// that stopped being read, with nothing to write).
    interest: Option<Interest>,
    /// Requests decoded but not yet answered on this connection.
    inflight: u64,
    last_activity: Instant,
    /// Set when the connection must close once its write queue drains.
    closing: Option<CloseReason>,
    /// Subscriptions registered on this connection, `(id, durable)`.
    /// Ephemeral ones die with the connection; durable ones detach and
    /// keep accumulating events server-side for a later `SUB ATTACH`.
    subs: Vec<(u64, bool)>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            codec: Codec::Unsniffed,
            wbuf: Vec::new(),
            wpos: 0,
            interest: Some(Interest::READABLE),
            inflight: 0,
            last_activity: Instant::now(),
            closing: None,
            subs: Vec::new(),
        }
    }

    /// Whether the shard should read more input now: not after a text
    /// peer's half-close, nor while a text request is in flight with a
    /// full line cap of input already waiting behind it.
    fn wants_input(&self) -> bool {
        match &self.codec {
            Codec::Text(t) => {
                let capped = t.busy.is_some() && t.lines.buffered() >= MAX_LINE_BYTES;
                !(t.eof || capped)
            }
            _ => true,
        }
    }

    /// Returns the push budget of text event lines now fully written.
    fn settle_events(&mut self) {
        let Codec::Text(t) = &mut self.codec else { return };
        let mut written = 0;
        while t.evt_ends.front().is_some_and(|&end| end <= self.wpos) {
            t.evt_ends.pop_front();
            written += 1;
        }
        if let (Some(budget), true) = (&t.budget, written > 0) {
            budget.unwritten.fetch_sub(written, Ordering::AcqRel);
        }
    }
}

/// A shard's subscription push queue: `(token, encoded event)` pairs
/// parked by delivering threads, drained each poll round. `None` marks a
/// text connection whose push budget overflowed.
type PushQueue = Arc<Mutex<Vec<(usize, Option<Vec<u8>>)>>>;

/// A text connection's `--sub-queue-cap` budget: events delivered to it
/// but not yet written to its socket.
struct PushBudget {
    unwritten: AtomicUsize,
    cap: usize,
    /// Overflowed or closed: every later event is refused, so a durable
    /// subscription keeps it in retention.
    dead: AtomicBool,
}

/// How an [`EventSink`] spells events.
enum SinkCodec {
    /// An event frame stamped with the `SUB` request's correlation id.
    Binary { corr: u64 },
    /// A `! EVT` line, charged to the connection's push budget.
    Text(Arc<PushBudget>),
}

/// Event sink for one subscription: encodes each event on the delivering
/// thread (usually the batcher) in its connection's codec and parks it on
/// the shard's push queue; the woken shard appends it to the
/// connection's write queue.
struct EventSink {
    events: PushQueue,
    waker: Arc<Waker>,
    token: usize,
    codec: SinkCodec,
}

impl EventSink {
    fn push(&self, bytes: Option<Vec<u8>>) {
        self.events.lock().push((self.token, bytes));
        let _ = self.waker.wake();
    }
}

impl SubSink for EventSink {
    fn deliver(&self, ev: &SubEvent) -> bool {
        let bytes = match &self.codec {
            SinkCodec::Binary { corr } => frame(&encode_event(*corr, ev)),
            SinkCodec::Text(budget) => {
                if budget.dead.load(Ordering::Acquire) {
                    return false;
                }
                if budget.unwritten.fetch_add(1, Ordering::AcqRel) >= budget.cap {
                    // The consumer stopped reading: refuse the event and
                    // have the shard close the connection `sub-overflow`.
                    budget.dead.store(true, Ordering::Release);
                    self.push(None);
                    return false;
                }
                encode_text_event(ev)
            }
        };
        self.push(Some(bytes));
        true
    }
}

/// A read request collected into the round's single view acquire.
struct QueryReq {
    token: usize,
    corr: u64,
    tag: u8,
    start: usize,
    len: usize,
}

/// An update-bearing request's slot in the round's grouped submission.
struct Route {
    token: usize,
    corr: u64,
    /// The request's verb tag: `B` answers `Answers` (possibly empty),
    /// bare `I`/`D` answer `Ok`.
    tag: u8,
    q_start: usize,
    q_len: usize,
}

/// One grouped submission in flight at the batch former.
struct PendingGroup {
    ticket: SubmitTicket,
    routes: Vec<Route>,
}

/// Per-round accumulation across all ready connections.
#[derive(Default)]
struct Round {
    pairs: Vec<(u32, u32)>,
    queries: Vec<QueryReq>,
    group_ops: Vec<Update>,
    group_queries: usize,
    routes: Vec<Route>,
}

/// A service result as a reply: `ok` spells success, errors their text.
fn reply<T>(res: Result<T, ServiceError>, ok: impl FnOnce(T) -> Reply) -> Reply {
    res.map_or_else(|e| Reply::Err(e.to_string()), ok)
}

struct Shard {
    client: Client,
    obs: Arc<Obs>,
    shared: Arc<ServerShared>,
    poll: Poll,
    waker: Arc<Waker>,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    /// Results of offloaded blocking verbs.
    done: Arc<Mutex<Vec<(usize, u64, Reply)>>>,
    /// Subscription events pushed by [`EventSink`]s from delivering
    /// threads; drained each poll round.
    events: PushQueue,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    groups: Vec<PendingGroup>,
    /// Text connections whose reply was just queued: their next buffered
    /// request runs in a follow-up round.
    resume: Vec<usize>,
    gauge: Arc<Gauge>,
    idle_timeout: Option<Duration>,
    max_wbuf: usize,
    sub_queue_cap: usize,
    num_vertices: usize,
    is_follower: bool,
}

impl Shard {
    fn new(
        client: Client,
        shared: Arc<ServerShared>,
        cfg: &NetConfig,
        gauge: Arc<Gauge>,
    ) -> io::Result<Shard> {
        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(poll.registry(), WAKER)?);
        let obs = client.observability();
        let num_vertices = client.num_vertices();
        let is_follower = client.role() == Role::Follower;
        Ok(Shard {
            client,
            obs,
            shared,
            poll,
            waker,
            inbox: Arc::new(Mutex::new(Vec::new())),
            done: Arc::new(Mutex::new(Vec::new())),
            events: Arc::new(Mutex::new(Vec::new())),
            conns: HashMap::new(),
            next_token: 1,
            groups: Vec::new(),
            resume: Vec::new(),
            gauge,
            idle_timeout: cfg.idle_timeout,
            max_wbuf: cfg.max_wbuf,
            sub_queue_cap: cfg.sub_queue_cap,
            num_vertices,
            is_follower,
        })
    }

    fn run(&mut self) {
        let mut events = Events::with_capacity(256);
        while !self.shared.shutdown.load(Ordering::Acquire) {
            if self.poll.poll(&mut events, Some(POLL_TICK)).is_err() {
                break;
            }
            self.adopt_new();
            let ready: Vec<(usize, bool, bool)> = events
                .iter()
                .filter(|e| e.token() != WAKER)
                .map(|e| (e.token().0, e.is_readable(), e.is_writable()))
                .collect();
            let mut round = Round::default();
            for &(token, readable, writable) in &ready {
                if readable {
                    self.handle_readable(token, &mut round);
                }
                if writable {
                    self.flush_conn(token);
                }
            }
            self.execute_round(round);
            self.drain_offloads();
            self.drain_groups();
            self.drain_events();
            self.resume_text();
            self.sweep_idle();
        }
        // Orderly teardown: every surviving connection closes `shutdown`.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for t in tokens {
            self.close(t, CloseReason::Shutdown);
        }
    }

    fn adopt_new(&mut self) {
        let fresh: Vec<TcpStream> = std::mem::take(&mut *self.inbox.lock());
        for stream in fresh {
            let token = self.next_token;
            self.next_token += 1;
            if self.poll.registry().register(&stream, Token(token), Interest::READABLE).is_err() {
                continue;
            }
            self.conns.insert(token, Conn::new(stream));
            self.gauge.inc();
        }
    }

    /// Drains readable bytes, sniffs the protocol on first contact, and
    /// collects complete frames or text requests into the round.
    fn handle_readable(&mut self, token: usize, round: &mut Round) {
        enum After {
            Keep,
            Close(CloseReason),
            /// Best-effort `ERR` then typed close (frame damage).
            Poison(String),
        }
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut after = After::Keep;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let mut tmp = [0u8; 1 << 16];
            while conn.wants_input() {
                match conn.stream.read(&mut tmp) {
                    Ok(0) => {
                        match &mut conn.codec {
                            Codec::Text(t) => t.eof = true,
                            _ => after = After::Close(CloseReason::Eof),
                        }
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        if matches!(conn.codec, Codec::Unsniffed) {
                            // The moment the connection enters the global
                            // counters, whichever protocol it speaks.
                            conn.codec = if tmp[0] == SNIFF_BYTE {
                                Codec::Binary(FrameAssembler::new())
                            } else {
                                Codec::Text(TextConn::default())
                            };
                            self.obs.metrics.connections_total.inc();
                            self.obs.metrics.connections_live.inc();
                        }
                        match &mut conn.codec {
                            Codec::Binary(asm) => asm.push(&tmp[..n]),
                            Codec::Text(t) => t.lines.push(&tmp[..n]),
                            Codec::Unsniffed => unreachable!("sniffed above"),
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        after = After::Close(CloseReason::IoError);
                        break;
                    }
                }
            }
            if let (Codec::Binary(asm), None) = (&mut conn.codec, conn.closing) {
                loop {
                    match asm.next_frame() {
                        Ok(Some(payload)) => frames.push(payload),
                        Ok(None) => break,
                        Err(fe) => {
                            after = After::Poison(fe.to_string());
                            break;
                        }
                    }
                }
            }
        }
        for payload in frames {
            self.obs.metrics.frames_in_total.inc();
            self.on_frame(token, &payload, round);
        }
        match after {
            After::Keep => self.pump_text(token, round),
            After::Close(reason) => self.close(token, reason),
            After::Poison(msg) => {
                self.queue_reply(token, 0, Reply::Err(msg), false);
                self.close_after_flush(token, CloseReason::BadFrame);
            }
        }
    }

    /// Feeds a text connection's buffered requests to the executor, one
    /// at a time: stops at the first request whose reply is not queued
    /// yet (a read waiting for the round's stroke, an update at the
    /// batch former, an offloaded verb).
    fn pump_text(&mut self, token: usize, round: &mut Round) {
        loop {
            let decoded = {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                let Codec::Text(t) = &mut conn.codec else { return };
                if t.busy.is_some() || conn.closing.is_some() {
                    break;
                }
                let Some(decoded) = t.lines.next(t.eof) else { break };
                if let Decoded::Request(req) = &decoded {
                    t.busy = Some(req.verb());
                }
                decoded
            };
            match decoded {
                Decoded::Request(req) => self.on_request(token, 0, req, round),
                Decoded::Err(msg, None) => self.queue_reply(token, 0, Reply::Err(msg), false),
                Decoded::Err(msg, Some(reason)) => {
                    self.queue_reply(token, 0, Reply::Err(msg), false);
                    self.close_after_flush(token, reason);
                    return;
                }
                Decoded::Close(reason) => {
                    self.close_after_flush(token, reason);
                    return;
                }
            }
        }
        // Refresh interest: the input cap or a half-close may have moved.
        self.flush_conn(token);
    }

    /// Runs follow-up rounds for text connections whose reply was just
    /// queued, so their next buffered request executes without waiting
    /// for another readiness event.
    fn resume_text(&mut self) {
        while !self.resume.is_empty() {
            let mut round = Round::default();
            for token in std::mem::take(&mut self.resume) {
                self.pump_text(token, &mut round);
            }
            self.execute_round(round);
        }
    }

    /// Decodes one request frame and hands it to the executor.
    fn on_frame(&mut self, token: usize, payload: &[u8], round: &mut Round) {
        match binproto::decode_request(payload) {
            Ok((corr, req)) => self.on_request(token, corr, req.into(), round),
            Err(e @ RequestError::ShortHeader(_)) => {
                self.queue_reply(token, 0, Reply::Err(e.to_string()), false);
                self.close_after_flush(token, CloseReason::BadFrame);
            }
            Err(e) => {
                let corr = e.corr().unwrap_or(0);
                self.queue_reply(token, corr, Reply::Err(e.to_string()), false);
            }
        }
    }

    /// The executor, shared by both codecs: routes a request into the
    /// round (reads and updates), answers it inline, or offloads it
    /// (verbs that can block).
    fn on_request(&mut self, token: usize, corr: u64, req: Request, round: &mut Round) {
        self.obs.metrics.record_request(req.verb());
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.inflight += 1;
        self.obs.metrics.net_pipeline_depth.record(conn.inflight);
        // Per-request validation up front, so one bad request gets its
        // own ERR instead of poisoning the whole grouped submission.
        if let Some(bad) = self.out_of_range(&req) {
            let n = self.num_vertices;
            let msg = ServiceError::VertexOutOfRange { v: bad, n }.to_string();
            self.queue_reply(token, corr, Reply::Err(msg), true);
            return;
        }
        if self.is_follower && carries_updates(&req) {
            let msg = ServiceError::ReadOnlyFollower.to_string();
            self.queue_reply(token, corr, Reply::Err(msg), true);
            return;
        }
        let answer = match req {
            Request::Query(u, v) | Request::QueryGen(u, v) => {
                let tag = if matches!(req, Request::Query(..)) {
                    binproto::verb::QUERY
                } else {
                    binproto::verb::QUERY_GEN
                };
                round.queries.push(QueryReq { token, corr, tag, start: round.pairs.len(), len: 1 });
                round.pairs.push((u, v));
                return;
            }
            Request::Ops(ops) if self.is_follower => {
                // Query-only (updates were rejected above): answer the
                // whole body from the round's shared view acquire.
                let start = round.pairs.len();
                let len = ops.len();
                for op in &ops {
                    let (Update::Insert(u, v) | Update::Delete(u, v) | Update::Query(u, v)) = *op;
                    round.pairs.push((u, v));
                }
                let tag = binproto::verb::BATCH;
                round.queries.push(QueryReq { token, corr, tag, start, len });
                return;
            }
            Request::Insert(..) | Request::Delete(..) | Request::Ops(_) => {
                let (tag, ops) = match req {
                    Request::Insert(u, v) => (binproto::verb::INSERT, vec![Update::Insert(u, v)]),
                    Request::Delete(u, v) => (binproto::verb::DELETE, vec![Update::Delete(u, v)]),
                    Request::Ops(ops) => (binproto::verb::BATCH, ops),
                    _ => unreachable!("matched above"),
                };
                let q_len = ops.iter().filter(|op| matches!(op, Update::Query(..))).count();
                let q_start = round.group_queries;
                round.routes.push(Route { token, corr, tag, q_start, q_len });
                round.group_queries += q_len;
                round.group_ops.extend(ops);
                return;
            }
            Request::Wait(epoch, timeout_ms) => {
                return self.offload(token, corr, move |client| {
                    let timeout = Duration::from_millis(timeout_ms);
                    reply(client.wait_for_epoch(epoch, timeout), Reply::Value)
                });
            }
            Request::Quiesce(timeout_ms) => {
                return self.offload(token, corr, move |client| {
                    reply(client.quiesce(Duration::from_millis(timeout_ms)), Reply::Value)
                });
            }
            Request::Flush => {
                return self
                    .offload(token, corr, |client| reply(client.flush_wal(), |()| Reply::Ok));
            }
            Request::Snapshot => {
                return self
                    .offload(token, corr, |client| reply(client.durable_snapshot(), Reply::Value));
            }
            Request::WalStats => {
                return self.offload(token, corr, |client| reply(client.wal_stats(), Reply::Line));
            }
            Request::Quit => {
                self.close_after_flush(token, CloseReason::Quit);
                return;
            }
            Request::Shutdown => {
                self.queue_reply(token, corr, Reply::Ok, true);
                self.close_after_flush(token, CloseReason::Shutdown);
                self.shared.request_shutdown();
                return;
            }
            Request::Epoch => Reply::Value(self.client.epoch()),
            Request::Gen => {
                let info = self.client.generation_info();
                Reply::Gen {
                    generation: info.generation,
                    dirty: info.dirty,
                    rebuilds: info.counters.rebuilds,
                    forest: info.counters.deletes_forest,
                    nonforest: info.counters.deletes_nonforest,
                    absent: info.counters.deletes_absent,
                }
            }
            Request::Ping => Reply::Ok,
            Request::Topk(k) => {
                let (entries, epoch, generation, sealed) = self.client.topk(k);
                Reply::Topk { epoch, generation, sealed, entries }
            }
            Request::Hist => {
                let view = self.client.analytics();
                Reply::Hist {
                    epoch: view.epoch,
                    generation: view.generation,
                    sealed: view.sealed,
                    components: view.components,
                    buckets: view.hist.to_vec(),
                }
            }
            Request::Size(v) => {
                reply(self.client.component_size(v), |(root, size)| Reply::Size { size, root })
            }
            Request::Label(v) => reply(self.client.current_label(v), |l| Reply::Value(l.into())),
            Request::Components => Reply::Value(self.client.num_components() as u64),
            Request::Role => Reply::Line(self.client.role().to_string()),
            Request::Stats => Reply::Line(self.client.stats().to_string()),
            Request::Metrics => Reply::Lines(self.client.render_metrics()),
            Request::Trace(n) => Reply::Lines(self.client.trace_events(n)),
            Request::Subs => Reply::Lines(
                self.client
                    .subs_info()
                    .into_iter()
                    .map(|s| {
                        let kind = match s.kind {
                            SubKind::Pair => "PAIR",
                            SubKind::Component => "COMPONENT",
                        };
                        let (durable, fired) = (u8::from(s.durable), u8::from(s.fired));
                        format!(
                            "{} {kind} {} {} {} {durable} {fired}",
                            s.id, s.u, s.v, s.registered_epoch
                        )
                    })
                    .collect(),
            ),
            Request::Sub { component, u, v, durable } => {
                let kind = if component { SubKind::Component } else { SubKind::Pair };
                // The reply is queued before drain_events runs this round,
                // so the registration's answer always precedes its first
                // event even when the registration fires instantly.
                let sink = self.sink(token, corr);
                match self.client.subscribe(kind, u, v, durable, Some(sink)) {
                    Ok((id, epoch)) => {
                        self.bind_sub(token, id, durable);
                        Reply::Subscribed { id, epoch }
                    }
                    Err(e) => Reply::Err(e.to_string()),
                }
            }
            Request::SubAttach { id, after_seq } => {
                let sink = self.sink(token, corr);
                match self.client.attach_sub(id, after_seq, sink) {
                    Ok(_last_seq) => {
                        self.bind_sub(token, id, true);
                        Reply::Subscribed { id, epoch: self.client.epoch() }
                    }
                    Err(e) => Reply::Err(e.to_string()),
                }
            }
            Request::Unsub(id) => match self.client.unsubscribe(id) {
                Ok(()) => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.subs.retain(|&(sid, _)| sid != id);
                    }
                    Reply::Ok
                }
                Err(e) => Reply::Err(e.to_string()),
            },
            Request::Batch(_) => unreachable!("the text codec resolves `B k` into `Ops`"),
        };
        self.queue_reply(token, corr, answer, true);
    }

    /// A subscription sink speaking the connection's codec.
    fn sink(&mut self, token: usize, corr: u64) -> Arc<dyn SubSink> {
        let cap = self.sub_queue_cap;
        let codec = match self.conns.get_mut(&token).map(|c| &mut c.codec) {
            Some(Codec::Text(t)) => {
                SinkCodec::Text(Arc::clone(t.budget.get_or_insert_with(|| {
                    Arc::new(PushBudget {
                        unwritten: AtomicUsize::new(0),
                        cap,
                        dead: AtomicBool::new(false),
                    })
                })))
            }
            _ => SinkCodec::Binary { corr },
        };
        Arc::new(EventSink {
            events: Arc::clone(&self.events),
            waker: Arc::clone(&self.waker),
            token,
            codec,
        })
    }

    fn bind_sub(&mut self, token: usize, id: u64, durable: bool) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.subs.push((id, durable));
        }
    }

    /// First out-of-range vertex in the request, if any.
    fn out_of_range(&self, req: &Request) -> Option<u32> {
        let n = self.num_vertices;
        let check = |u: u32, v: u32| [u, v].into_iter().find(|&x| x as usize >= n);
        match req {
            Request::Insert(u, v)
            | Request::Delete(u, v)
            | Request::Query(u, v)
            | Request::QueryGen(u, v) => check(*u, *v),
            Request::Ops(ops) => ops.iter().find_map(|op| {
                let (Update::Insert(u, v) | Update::Delete(u, v) | Update::Query(u, v)) = *op;
                check(u, v)
            }),
            Request::Size(v) => check(*v, *v),
            _ => None,
        }
    }

    /// Runs a blocking verb on a helper thread; the result lands in the
    /// shard's done-queue and wakes the poll.
    fn offload(
        &self,
        token: usize,
        corr: u64,
        work: impl FnOnce(&Client) -> Reply + Send + 'static,
    ) {
        let client = self.client.clone();
        let done = Arc::clone(&self.done);
        let waker = Arc::clone(&self.waker);
        let spawned = std::thread::Builder::new().name("cc-net-wait".into()).spawn(move || {
            let reply = work(&client);
            done.lock().push((token, corr, reply));
            let _ = waker.wake();
        });
        if spawned.is_err() {
            self.done.lock().push((
                token,
                corr,
                Reply::Err("server out of threads for blocking verb".to_string()),
            ));
        }
    }

    /// Executes the round's two grouped strokes: one view acquire for all
    /// collected reads, one batch-former submission for all updates.
    fn execute_round(&mut self, round: Round) {
        let Round { pairs, queries, group_ops, routes, .. } = round;
        if !queries.is_empty() {
            self.obs.metrics.net_coalesce_width.record(queries.len() as u64);
            match self.client.query_many_tagged(&pairs) {
                Ok(answers) => {
                    for q in queries {
                        let slice = &answers[q.start..q.start + q.len];
                        let reply = match q.tag {
                            binproto::verb::QUERY => Reply::Bit(slice[0].0),
                            binproto::verb::QUERY_GEN => Reply::BitGen(slice[0].0, slice[0].1),
                            _ => Reply::Answers(slice.to_vec()),
                        };
                        self.queue_reply(q.token, q.corr, reply, true);
                    }
                }
                Err(e) => {
                    let msg = e.to_string();
                    for q in queries {
                        self.queue_reply(q.token, q.corr, Reply::Err(msg.clone()), true);
                    }
                }
            }
        }
        if !routes.is_empty() {
            self.obs.metrics.net_coalesce_width.record(routes.len() as u64);
            let waker = Arc::clone(&self.waker);
            let notify: Box<dyn Fn() + Send + Sync> = Box::new(move || {
                let _ = waker.wake();
            });
            match self.client.submit_tagged_async(group_ops, Some(notify)) {
                Ok(ticket) => self.groups.push(PendingGroup { ticket, routes }),
                Err(e) => {
                    let msg = e.to_string();
                    for r in routes {
                        self.queue_reply(r.token, r.corr, Reply::Err(msg.clone()), true);
                    }
                }
            }
        }
    }

    fn drain_offloads(&mut self) {
        let finished: Vec<(usize, u64, Reply)> = std::mem::take(&mut *self.done.lock());
        for (token, corr, reply) in finished {
            self.queue_reply(token, corr, reply, true);
        }
    }

    /// Appends pushed subscription events to their connections' write
    /// queues. Unlike replies, events arrive regardless of whether the
    /// peer is reading, so a consumer past its budget — a text
    /// connection's push budget, a binary write queue blown past
    /// `max_wbuf` — is too slow: the connection closes with a typed
    /// `sub-overflow`, never a silent drop.
    fn drain_events(&mut self) {
        let pushed: Vec<(usize, Option<Vec<u8>>)> = std::mem::take(&mut *self.events.lock());
        for (token, bytes) in pushed {
            let overflow = {
                let Some(conn) = self.conns.get_mut(&token) else { continue };
                match bytes {
                    _ if conn.closing.is_some() => continue,
                    None => true,
                    Some(bytes) => {
                        conn.wbuf.extend_from_slice(&bytes);
                        if let Codec::Text(t) = &mut conn.codec {
                            t.evt_ends.push_back(conn.wbuf.len());
                            false
                        } else {
                            self.obs.metrics.frames_out_total.inc();
                            conn.wbuf.len() - conn.wpos > self.max_wbuf
                        }
                    }
                }
            };
            if overflow {
                self.close(token, CloseReason::SubOverflow);
            } else {
                self.flush_conn(token);
            }
        }
    }

    /// Routes completed grouped submissions back per correlation id.
    fn drain_groups(&mut self) {
        let mut i = 0;
        while i < self.groups.len() {
            let Some(result) = self.groups[i].ticket.try_take() else {
                i += 1;
                continue;
            };
            let group = self.groups.swap_remove(i);
            match result {
                Ok(answers) => {
                    for r in group.routes {
                        let reply = if r.tag == binproto::verb::BATCH {
                            Reply::Answers(answers[r.q_start..r.q_start + r.q_len].to_vec())
                        } else {
                            Reply::Ok
                        };
                        self.queue_reply(r.token, r.corr, reply, true);
                    }
                }
                Err(e) => {
                    // The whole group shared one batch; a rejected batch
                    // (WAL failure, shutdown) is everyone's error — the
                    // same contract text submissions co-batched by the
                    // former already have.
                    let msg = e.to_string();
                    for r in group.routes {
                        self.queue_reply(r.token, r.corr, Reply::Err(msg.clone()), true);
                    }
                }
            }
        }
    }

    /// Encodes a reply in the connection's codec onto its write queue and
    /// drains it as far as the socket allows. A text reply frees the
    /// connection for its next request.
    fn queue_reply(&mut self, token: usize, corr: u64, reply: Reply, dec_inflight: bool) {
        if matches!(reply, Reply::Err(_)) {
            self.obs.metrics.request_errors_total.inc();
        }
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if let Codec::Text(t) = &mut conn.codec {
                // A codec-level ERR answers no request and has no verb.
                encode_text_reply(t.busy.take().unwrap_or(""), &reply, &mut conn.wbuf);
                conn.last_activity = Instant::now();
                self.resume.push(token);
            } else {
                conn.wbuf.extend_from_slice(&frame(&encode_reply(corr, &reply)));
                self.obs.metrics.frames_out_total.inc();
            }
            if dec_inflight {
                conn.inflight = conn.inflight.saturating_sub(1);
            }
        }
        self.flush_conn(token);
    }

    /// Drains the write queue; manages poll interest, backpressure, and
    /// deferred closes.
    fn flush_conn(&mut self, token: usize) {
        let mut close_now = None;
        let mut change = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        close_now = Some(CloseReason::IoError);
                        break;
                    }
                    Ok(n) => conn.wpos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close_now = Some(CloseReason::IoError);
                        break;
                    }
                }
            }
            conn.settle_events();
            if conn.wpos >= conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            let backlog = conn.wbuf.len() - conn.wpos;
            if close_now.is_none() && backlog == 0 {
                close_now = conn.closing;
            }
            if close_now.is_none() {
                // Backpressure: stop reading until the peer drains.
                let read = conn.closing.is_none() && backlog <= self.max_wbuf && conn.wants_input();
                let want = match (read, backlog > 0) {
                    (true, false) => Some(Interest::READABLE),
                    (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
                    (false, true) => Some(Interest::WRITABLE),
                    (false, false) => None,
                };
                if want != conn.interest {
                    change = Some((conn.interest, want));
                    conn.interest = want;
                }
            }
        }
        if let Some(reason) = close_now {
            self.close(token, reason);
        } else if let Some((was, want)) = change {
            let stream = &self.conns[&token].stream;
            let registry = self.poll.registry();
            let _ = match (was, want) {
                (None, Some(want)) => registry.register(stream, Token(token), want),
                (Some(_), Some(want)) => registry.reregister(stream, Token(token), want),
                (_, None) => registry.deregister(stream),
            };
        }
    }

    fn close_after_flush(&mut self, token: usize, reason: CloseReason) {
        let pending = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            conn.closing = Some(reason);
            conn.wbuf.len() - conn.wpos
        };
        if pending == 0 {
            self.close(token, reason);
        } else {
            self.flush_conn(token);
        }
    }

    fn close(&mut self, token: usize, reason: CloseReason) {
        let Some(conn) = self.conns.remove(&token) else { return };
        let _ = self.poll.registry().deregister(&conn.stream);
        if let Codec::Text(TextConn { budget: Some(budget), .. }) = &conn.codec {
            budget.dead.store(true, Ordering::Release);
        }
        // Ephemeral subscriptions die with the connection; durable ones
        // only lose their sink and keep accumulating for `SUB ATTACH`.
        for &(id, durable) in &conn.subs {
            if durable {
                self.client.detach_sub(id);
            } else {
                let _ = self.client.unsubscribe(id);
            }
        }
        self.gauge.dec();
        if matches!(conn.codec, Codec::Unsniffed) {
            // Closed before the sniff decided a protocol: count the
            // connection's whole life here so `connections_total` and the
            // flight record still see it.
            self.obs.metrics.connections_total.inc();
        } else {
            self.obs.metrics.connections_live.dec();
        }
        self.obs.recorder.record(Event::ConnClosed { reason });
    }

    /// Closes connections idle past the timeout. A text connection
    /// waiting on its own request (a long `WAIT`) is not idle.
    fn sweep_idle(&mut self) {
        let Some(limit) = self.idle_timeout else { return };
        let now = Instant::now();
        let idle: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                let busy = matches!(&c.codec, Codec::Text(t) if t.busy.is_some());
                c.closing.is_none() && !busy && now.duration_since(c.last_activity) > limit
            })
            .map(|(&t, _)| t)
            .collect();
        for t in idle {
            self.close(t, CloseReason::IdleTimeout);
        }
    }
}

/// Whether a request carries inserts or deletes (rejected on followers).
fn carries_updates(req: &Request) -> bool {
    match req {
        Request::Insert(..) | Request::Delete(..) => true,
        Request::Ops(ops) => ops.iter().any(|op| !matches!(op, Update::Query(..))),
        _ => false,
    }
}
