//! The subscription plane: push merge events at the epoch they land.
//!
//! Clients register interest in connectivity changes instead of polling
//! `Q u v`: a **pair** subscription (`SUB u v`) fires once, at the first
//! committed epoch at-or-after registration in whose batch `u` and `v`
//! became connected; a **component** subscription (`SUB COMPONENT v`)
//! fires every time the identity of `v`'s component changes — a merge
//! uniting it with another component during a clean window, or a rebuild
//! commit (a new generation trivially re-identifies every component).
//!
//! ## Trigger index
//!
//! [`SubsCore`] lives inside the generation engine's writer state, next
//! to the analytics aggregates, and consumes the *same* merge-event
//! stream: every clean-path [`SubsCore::merge`] is one union-find step.
//! Subscriptions are bucketed by the **root** of the component they are
//! watching, so a batch of `b` merges fires matching subscriptions in
//! O(b·α + moved + fired) — buckets merge smaller-into-larger alongside
//! the union, and a registry of a million idle subscriptions costs a
//! merge nothing. There is no registry rescan anywhere on the hot path.
//!
//! ## Stamping discipline
//!
//! Fires are buffered, not delivered inline: the engine does not know
//! the epoch a batch will commit as (the batch former assigns it after
//! the apply). The batcher drains the buffer via
//! [`crate::GenerationEngine::drain_sub_fires`] immediately after it
//! publishes an epoch, stamping every unstamped fire with exactly that
//! `(epoch, generation)`. Rebuild commits stamp their fires at the
//! deferred epoch high-water mark themselves (the same mark the
//! analytics republication uses), so deletions never strand a trigger
//! and never mislabel one. The invariant delivered to clients: an event
//! stamped `(e, g)` means the merge committed in the course of batch `e`
//! and the subscription's watch condition held in the serving state that
//! batch produced.
//!
//! ## Delivery
//!
//! [`SubsDispatch`] owns per-subscription channels *outside* the writer
//! lock: it assigns the per-subscription sequence numbers, pushes events
//! into whatever [`SubSink`] the owning connection attached (the
//! connection's event-loop shard queue, which never blocks; text sinks
//! are bounded by a push budget), and retains undelivered events for
//! **durable** subscriptions so a subscriber can crash, reconnect, and
//! `SUB ATTACH id after_seq` its way back to exactly-once delivery.
//! A sink that reports itself dead (connection gone, or its push budget
//! overflowed — the connection is then dropped with a typed
//! `ConnClosed{sub-overflow}`, never a silent event drop) detaches; an
//! ephemeral subscription dies with its sink, a durable one goes back
//! to retention.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Retained (undelivered) events kept per durable subscription while no
/// sink is attached. A pair subscription retains at most its single
/// event; a component subscription past the cap drops its *oldest*
/// retained event (the stream is documented as bounded-replay: the
/// re-attaching subscriber sees the most recent [`RETAIN_CAP`] identity
/// changes, with sequence numbers making any gap explicit).
pub const RETAIN_CAP: usize = 1024;

/// What a subscription watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubKind {
    /// Fire once when two vertices become connected.
    Pair,
    /// Fire on every identity change of one vertex's component.
    Component,
}

impl SubKind {
    /// Wire code (`0` pair, `1` component) — shared by the WAL `'S'`
    /// record body and the binary SUBSCRIBE request.
    pub fn code(self) -> u8 {
        match self {
            SubKind::Pair => 0,
            SubKind::Component => 1,
        }
    }

    /// Inverse of [`SubKind::code`].
    pub fn from_code(c: u8) -> Option<SubKind> {
        match c {
            0 => Some(SubKind::Pair),
            1 => Some(SubKind::Component),
            _ => None,
        }
    }
}

/// One pushed subscription event, stamped with the exact
/// `(epoch, generation)` at which the merge (or rebuild commit)
/// committed. `seq` is per-subscription, 1-based and gap-free in
/// delivery order — the client-side dedupe key across reconnects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubEvent {
    /// The subscription this event belongs to.
    pub id: u64,
    /// Pair or component.
    pub kind: SubKind,
    /// Pair: the registered `u`. Component: the watched vertex.
    pub u: u32,
    /// Pair: the registered `v`. Component: the watched vertex again.
    pub v: u32,
    /// Root (representative vertex) of the watched component after the
    /// change.
    pub root: u32,
    /// Size of the watched component after the change.
    pub size: u64,
    /// Epoch of the batch in whose course the change committed.
    pub epoch: u64,
    /// Generation serving when the change committed.
    pub generation: u64,
    /// Per-subscription delivery sequence number (assigned by
    /// [`SubsDispatch`]; 0 until then).
    pub seq: u64,
}

/// A fire drained from the engine, paired with its creation instant so
/// the dispatch can record fire-to-sink latency.
#[derive(Clone, Copy, Debug)]
pub struct PendingEvent {
    /// The stamped event (seq still 0).
    pub ev: SubEvent,
    /// When the trigger fired inside the engine.
    pub at: Instant,
}

/// A durable subscription operation as logged to (and recovered from)
/// the WAL's `'S'` records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubWalOp {
    /// A durable subscription was registered.
    Register {
        /// Assigned subscription id.
        id: u64,
        /// What it watches.
        kind: SubKind,
        /// Pair `u` (== `v` for component subscriptions).
        u: u32,
        /// Pair `v`, or the watched component vertex.
        v: u32,
        /// Committed epoch at registration time.
        epoch: u64,
    },
    /// A durable subscription was cancelled.
    Cancel {
        /// The cancelled subscription id.
        id: u64,
    },
}

/// Point-in-time description of one registered subscription (the `SUBS`
/// verb).
#[derive(Clone, Copy, Debug)]
pub struct SubInfo {
    /// Subscription id.
    pub id: u64,
    /// Pair or component.
    pub kind: SubKind,
    /// Pair `u` / watched vertex.
    pub u: u32,
    /// Pair `v` / watched vertex.
    pub v: u32,
    /// Whether the subscription is WAL-logged.
    pub durable: bool,
    /// Committed epoch at registration.
    pub registered_epoch: u64,
    /// Pair subscriptions: whether the one-shot trigger has fired.
    pub fired: bool,
}

struct SubEntry {
    kind: SubKind,
    u: u32,
    v: u32,
    durable: bool,
    registered_epoch: u64,
    fired: bool,
}

/// An unstamped (or commit-stamped) fire awaiting the batcher's drain.
struct Fire {
    ev: SubEvent,
    /// `None` until the drain stamps the publishing epoch.
    epoch: Option<u64>,
    at: Instant,
}

/// The union-find-keyed trigger index. Lives inside the generation
/// engine's writer state; every method is called under the writer lock.
pub struct SubsCore {
    n: usize,
    /// Sequential union-find mirroring the engine's live partition while
    /// any subscription is registered (path-halving + union-by-size).
    parent: Vec<u32>,
    size: Vec<u64>,
    /// Whether `parent`/`size` mirror the current labeling. False while
    /// the registry is empty (the mirror costs nothing until the first
    /// registration resyncs it) and during recovery.
    synced: bool,
    subs: HashMap<u64, SubEntry>,
    /// root -> subscription ids triggered when that root's component
    /// changes. Pair subscriptions appear under both endpoints' roots.
    buckets: HashMap<u32, Vec<u64>>,
    fires: Vec<Fire>,
}

impl SubsCore {
    /// An empty registry over `n` vertices.
    pub fn new(n: usize) -> SubsCore {
        SubsCore {
            n,
            parent: Vec::new(),
            size: Vec::new(),
            synced: false,
            subs: HashMap::new(),
            buckets: HashMap::new(),
            fires: Vec::new(),
        }
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Whether the union-find mirror currently tracks the live labeling
    /// (when false, a registration must supply the current labels).
    pub fn is_synced(&self) -> bool {
        self.synced
    }

    fn find(&mut self, v: u32) -> u32 {
        let mut x = v as usize;
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x as u32
    }

    /// Rebuilds the union-find mirror from a labeling: one representative
    /// per label class, sizes counted exactly.
    fn resync_from(&mut self, labels: &[u32]) {
        self.parent.clear();
        self.parent.extend(0..self.n as u32);
        self.size.clear();
        self.size.resize(self.n, 1);
        let mut rep: HashMap<u32, u32> = HashMap::new();
        for (v, &lbl) in labels.iter().enumerate() {
            match rep.entry(lbl) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let r = *e.get();
                    self.parent[v] = r;
                    self.size[r as usize] += 1;
                    self.size[v] = 0;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(v as u32);
                }
            }
        }
        self.synced = true;
    }

    /// Re-buckets every live trigger under the current roots (after a
    /// resync invalidated the old ones).
    fn rebucket(&mut self) {
        self.buckets.clear();
        let ids: Vec<u64> = self.subs.keys().copied().collect();
        for id in ids {
            let (kind, u, v, fired) = {
                let e = &self.subs[&id];
                (e.kind, e.u, e.v, e.fired)
            };
            match kind {
                SubKind::Pair => {
                    if !fired {
                        let (ru, rv) = (self.find(u), self.find(v));
                        self.buckets.entry(ru).or_default().push(id);
                        if rv != ru {
                            self.buckets.entry(rv).or_default().push(id);
                        }
                    }
                }
                SubKind::Component => {
                    let r = self.find(v);
                    self.buckets.entry(r).or_default().push(id);
                }
            }
        }
    }

    /// Registers a subscription under a caller-assigned id. `labels` is
    /// consulted (to resync the mirror) only when this is the first
    /// registration of an idle registry. While clean, a pair already
    /// connected at registration fires immediately (stamped at the next
    /// drain); while recovering/unsynced the evaluation is deferred to
    /// [`SubsCore::on_commit`].
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        id: u64,
        kind: SubKind,
        u: u32,
        v: u32,
        durable: bool,
        registered_epoch: u64,
        generation: u64,
        labels: Option<&[u32]>,
    ) {
        if !self.synced {
            if let Some(l) = labels {
                self.resync_from(l);
                self.rebucket();
            }
        }
        self.subs.insert(id, SubEntry { kind, u, v, durable, registered_epoch, fired: false });
        if !self.synced {
            return; // recovery replay: triggers are armed at finish_recovery
        }
        match kind {
            SubKind::Pair => {
                let (ru, rv) = (self.find(u), self.find(v));
                if ru == rv {
                    self.fire_pair(id, generation);
                    // Stamp the registration-time fire here, with the
                    // registration epoch: the prompt drain that follows
                    // a registration must never stamp a concurrent
                    // batch's still-unpublished merge fires, and a
                    // pre-stamped fire is what lets it tell the two
                    // apart (see [`SubsCore::drain_stamped_fires`]).
                    let f = self.fires.last_mut().expect("just fired");
                    f.epoch = Some(registered_epoch);
                    f.ev.epoch = registered_epoch;
                } else {
                    self.buckets.entry(ru).or_default().push(id);
                    self.buckets.entry(rv).or_default().push(id);
                }
            }
            SubKind::Component => {
                let r = self.find(v);
                self.buckets.entry(r).or_default().push(id);
            }
        }
    }

    fn fire_pair(&mut self, id: u64, generation: u64) {
        let entry = self.subs.get_mut(&id).expect("fired sub exists");
        entry.fired = true;
        let (u, v) = (entry.u, entry.v);
        let root = self.find(u);
        let size = self.size[root as usize];
        self.fires.push(Fire {
            ev: SubEvent {
                id,
                kind: SubKind::Pair,
                u,
                v,
                root,
                size,
                epoch: 0,
                generation,
                seq: 0,
            },
            epoch: None,
            at: Instant::now(),
        });
    }

    fn fire_component(&mut self, id: u64, generation: u64, epoch: Option<u64>) {
        let entry = self.subs.get(&id).expect("fired sub exists");
        let v = entry.v;
        let root = self.find(v);
        let size = self.size[root as usize];
        self.fires.push(Fire {
            ev: SubEvent {
                id,
                kind: SubKind::Component,
                u: v,
                v,
                root,
                size,
                epoch: epoch.unwrap_or(0),
                generation,
                seq: 0,
            },
            epoch,
            at: Instant::now(),
        });
    }

    /// Cancels a subscription; returns its entry's durability, or `None`
    /// for an unknown id. The trigger bucket entry (if any) is removed
    /// lazily — stale ids in buckets are skipped at fire time.
    pub fn cancel(&mut self, id: u64) -> Option<bool> {
        let entry = self.subs.remove(&id)?;
        if self.subs.is_empty() {
            // Idle registry: stop maintaining the mirror entirely; the
            // next registration resyncs from the labels of that moment.
            self.synced = false;
            self.buckets.clear();
            self.parent = Vec::new();
            self.size = Vec::new();
        }
        Some(entry.durable)
    }

    /// Folds one clean-path merge into the trigger index. Called from
    /// the engine's apply loop at exactly the points where
    /// `analytics.merge` observes a novel union. O(α + moved + fired).
    pub fn merge(&mut self, u: u32, v: u32, generation: u64) {
        if !self.synced {
            return;
        }
        let (ru, rv) = (self.find(u), self.find(v));
        if ru == rv {
            return;
        }
        // Union by size; the smaller bucket migrates into the larger.
        let (big, small) =
            if self.size[ru as usize] >= self.size[rv as usize] { (ru, rv) } else { (rv, ru) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.size[small as usize] = 0;
        if self.subs.is_empty() {
            return;
        }
        let small_bucket = self.buckets.remove(&small).unwrap_or_default();
        let big_bucket = self.buckets.remove(&big).unwrap_or_default();
        let mut survivors: Vec<u64> = Vec::with_capacity(small_bucket.len() + big_bucket.len());
        for id in small_bucket.into_iter().chain(big_bucket) {
            let Some(entry) = self.subs.get(&id) else { continue }; // cancelled
            let (kind, su, sv, fired) = (entry.kind, entry.u, entry.v, entry.fired);
            match kind {
                SubKind::Pair => {
                    if fired {
                        continue;
                    }
                    if self.find(su) == self.find(sv) {
                        self.fire_pair(id, generation);
                    } else if !survivors.contains(&id) {
                        // The pair's *other* endpoint still lives in a
                        // different bucket; keep this side armed under
                        // the merged root.
                        survivors.push(id);
                    }
                }
                SubKind::Component => {
                    // Either side of the union is an identity change for
                    // the components it watched.
                    self.fire_component(id, generation, None);
                    survivors.push(id);
                }
            }
        }
        if !survivors.is_empty() {
            self.buckets.insert(big, survivors);
        }
    }

    /// Re-arms the registry against a fresh labeling at a rebuild commit
    /// (or at recovery's end): the mirror resyncs wholesale, pending
    /// pairs are re-evaluated (a pair the rebuild's drained inserts
    /// connected fires here — deletions never strand a trigger), and
    /// every component subscription fires once (`commit_epoch` when the
    /// caller is a rebuild commit, unstamped for recovery) because a new
    /// generation re-identifies every component.
    pub fn on_commit(
        &mut self,
        labels: &[u32],
        generation: u64,
        commit_epoch: Option<u64>,
        fire_components: bool,
    ) {
        if self.subs.is_empty() {
            // Nothing registered: drop the mirror (cheap no-op commits).
            self.synced = false;
            self.buckets.clear();
            return;
        }
        self.resync_from(labels);
        self.rebucket();
        let ids: Vec<u64> = self.subs.keys().copied().collect();
        for id in ids {
            let (kind, u, v, fired) = {
                let e = &self.subs[&id];
                (e.kind, e.u, e.v, e.fired)
            };
            match kind {
                SubKind::Pair => {
                    if !fired && self.find(u) == self.find(v) {
                        self.fire_pair(id, generation);
                        if let (Some(e), Some(f)) = (commit_epoch, self.fires.last_mut()) {
                            f.epoch = Some(e);
                            f.ev.epoch = e;
                        }
                    }
                }
                SubKind::Component => {
                    if fire_components {
                        self.fire_component(id, generation, commit_epoch);
                    }
                }
            }
        }
    }

    /// Drains buffered fires, stamping every unstamped one with `epoch`.
    /// Called by the batch former right after it publishes that epoch
    /// (and on its idle tick), and by the follower apply path.
    pub fn drain_fires(&mut self, epoch: u64) -> Vec<PendingEvent> {
        if self.fires.is_empty() {
            return Vec::new();
        }
        self.fires
            .drain(..)
            .map(|mut f| {
                if f.epoch.is_none() {
                    f.ev.epoch = epoch;
                }
                PendingEvent { ev: f.ev, at: f.at }
            })
            .collect()
    }

    /// Drains buffered fires only when every one already carries its
    /// epoch (registration-time and rebuild-commit fires do; clean-path
    /// merge fires do not until their batch publishes). The prompt
    /// delivery path after a registration uses this: if an applied but
    /// not-yet-published batch left unstamped fires in the buffer,
    /// draining now would stamp them with the *previous* epoch, so the
    /// whole buffer is left for the batcher's post-publish drain —
    /// which also keeps per-subscription delivery order intact.
    pub fn drain_stamped_fires(&mut self) -> Vec<PendingEvent> {
        if self.fires.is_empty() || self.fires.iter().any(|f| f.epoch.is_none()) {
            return Vec::new();
        }
        self.fires.drain(..).map(|f| PendingEvent { ev: f.ev, at: f.at }).collect()
    }

    /// Whether any buffered fire awaits a drain.
    pub fn has_fires(&self) -> bool {
        !self.fires.is_empty()
    }

    /// Lists every registered subscription, id-ascending.
    pub fn list(&self) -> Vec<SubInfo> {
        let mut out: Vec<SubInfo> = self
            .subs
            .iter()
            .map(|(&id, e)| SubInfo {
                id,
                kind: e.kind,
                u: e.u,
                v: e.v,
                durable: e.durable,
                registered_epoch: e.registered_epoch,
                fired: e.fired,
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }
}

/// How a sink disposed of one event. A `false` return means the sink is
/// dead (connection gone or its queue overflowed — the connection layer
/// handles the typed close); the dispatch detaches it.
pub trait SubSink: Send + Sync {
    /// Pushes one event toward the subscriber. Must not block.
    fn deliver(&self, ev: &SubEvent) -> bool;
}

struct SubChannel {
    durable: bool,
    next_seq: u64,
    retained: VecDeque<SubEvent>,
    sink: Option<Arc<dyn SubSink>>,
}

/// Outcome of [`SubsDispatch::attach`].
#[derive(Debug, PartialEq, Eq)]
pub enum AttachError {
    /// No channel with that id (never registered, cancelled, or an
    /// ephemeral subscription that died with its connection).
    Unknown,
}

/// Per-subscription delivery channels, sequence numbering, and durable
/// retention. Owned by the service, mutated outside the engine's writer
/// lock; see the module docs for the delivery contract.
#[derive(Default)]
pub struct SubsDispatch {
    inner: Mutex<DispatchState>,
}

#[derive(Default)]
struct DispatchState {
    chans: HashMap<u64, SubChannel>,
    next_id: u64,
}

impl SubsDispatch {
    /// An empty dispatch.
    pub fn new() -> SubsDispatch {
        SubsDispatch { inner: Mutex::new(DispatchState { chans: HashMap::new(), next_id: 1 }) }
    }

    /// Reserves the next subscription id (monotone per service).
    pub fn reserve(&self) -> u64 {
        let mut st = self.inner.lock();
        let id = st.next_id;
        st.next_id += 1;
        id
    }

    /// Ensures ids assigned after recovery never collide with recovered
    /// ones.
    pub fn bump_next_id(&self, floor: u64) {
        let mut st = self.inner.lock();
        st.next_id = st.next_id.max(floor);
    }

    /// Opens the delivery channel for a freshly registered subscription.
    /// Must happen before the engine-side registration so a
    /// registration-time fire can never race past a missing channel.
    pub fn open(&self, id: u64, durable: bool, sink: Option<Arc<dyn SubSink>>) {
        self.inner
            .lock()
            .chans
            .insert(id, SubChannel { durable, next_seq: 1, retained: VecDeque::new(), sink });
    }

    /// Detaches the sink (connection closed); a durable channel keeps
    /// retaining, an ephemeral one is expected to be cancelled by the
    /// caller right after.
    pub fn detach(&self, id: u64) {
        if let Some(c) = self.inner.lock().chans.get_mut(&id) {
            c.sink = None;
        }
    }

    /// Removes the channel outright (UNSUB, or ephemeral death).
    pub fn close(&self, id: u64) {
        self.inner.lock().chans.remove(&id);
    }

    /// Re-binds a sink to a durable channel and replays retained events
    /// with `seq > after_seq` through it. Returns the highest sequence
    /// number assigned so far (0 if none).
    pub fn attach(
        &self,
        id: u64,
        after_seq: u64,
        sink: Arc<dyn SubSink>,
    ) -> Result<u64, AttachError> {
        let mut st = self.inner.lock();
        let c = st.chans.get_mut(&id).ok_or(AttachError::Unknown)?;
        let mut alive = true;
        c.retained.retain(|ev| {
            if ev.seq > after_seq && alive {
                if sink.deliver(ev) {
                    false // delivered; drop from retention
                } else {
                    alive = false;
                    true
                }
            } else {
                ev.seq > after_seq // acknowledged events leave retention
            }
        });
        c.sink = if alive { Some(sink) } else { None };
        Ok(c.next_seq - 1)
    }

    /// Delivers a drained batch of events in order: assigns sequence
    /// numbers, pushes through attached sinks, retains for detached
    /// durable channels. Returns the ids of **ephemeral** subscriptions
    /// whose sink died (the caller cancels them in the core). The
    /// `observe` callback sees every sequenced event (metrics).
    pub fn deliver(
        &self,
        events: &[PendingEvent],
        mut observe: impl FnMut(&SubEvent, Instant),
    ) -> Vec<u64> {
        let mut dead_ephemeral = Vec::new();
        let mut st = self.inner.lock();
        for pe in events {
            let Some(c) = st.chans.get_mut(&pe.ev.id) else { continue }; // cancelled mid-flight
            let mut ev = pe.ev;
            ev.seq = c.next_seq;
            c.next_seq += 1;
            observe(&ev, pe.at);
            let delivered = match &c.sink {
                Some(s) => s.deliver(&ev),
                None => false,
            };
            if !delivered {
                if c.sink.is_some() {
                    c.sink = None; // sink reported itself dead
                }
                if c.durable {
                    if c.retained.len() >= RETAIN_CAP {
                        c.retained.pop_front();
                    }
                    c.retained.push_back(ev);
                } else {
                    dead_ephemeral.push(ev.id);
                }
            }
        }
        for id in &dead_ephemeral {
            st.chans.remove(id);
        }
        dead_ephemeral
    }

    /// Number of open channels (active subscriptions as the delivery
    /// layer sees them).
    pub fn len(&self) -> usize {
        self.inner.lock().chans.len()
    }

    /// Whether no channel is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels_of(parts: &[&[u32]], n: usize) -> Vec<u32> {
        let mut labels: Vec<u32> = (0..n as u32).collect();
        for part in parts {
            for &v in part.iter() {
                labels[v as usize] = part[0];
            }
        }
        labels
    }

    #[test]
    fn pair_trigger_fires_once_at_the_connecting_merge() {
        let mut core = SubsCore::new(8);
        let labels: Vec<u32> = (0..8).collect();
        core.register(1, SubKind::Pair, 0, 3, false, 5, 0, Some(&labels));
        assert!(!core.has_fires(), "not connected at registration");
        core.merge(0, 1, 0);
        core.merge(2, 3, 0);
        assert!(!core.has_fires(), "still two components");
        core.merge(1, 2, 0);
        let evs = core.drain_fires(9);
        assert_eq!(evs.len(), 1);
        let ev = evs[0].ev;
        assert_eq!((ev.id, ev.kind, ev.u, ev.v), (1, SubKind::Pair, 0, 3));
        assert_eq!((ev.epoch, ev.generation), (9, 0));
        assert_eq!(ev.size, 4);
        // One-shot: further merges into the component do not re-fire.
        core.merge(3, 4, 0);
        assert!(!core.has_fires());
        assert!(core.list()[0].fired);
    }

    #[test]
    fn already_connected_pair_fires_at_registration() {
        let mut core = SubsCore::new(4);
        let labels = labels_of(&[&[0, 1]], 4);
        core.register(7, SubKind::Pair, 0, 1, true, 2, 3, Some(&labels));
        let evs = core.drain_fires(2);
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].ev.id, evs[0].ev.epoch, evs[0].ev.generation), (7, 2, 3));
    }

    #[test]
    fn component_sub_fires_on_merges_and_commits() {
        let mut core = SubsCore::new(8);
        let labels: Vec<u32> = (0..8).collect();
        core.register(1, SubKind::Component, 5, 5, false, 0, 0, Some(&labels));
        core.merge(0, 1, 0);
        assert!(!core.has_fires(), "a merge elsewhere is not an identity change");
        core.merge(5, 0, 0);
        let evs = core.drain_fires(3);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].ev.size, 3);
        // A rebuild commit re-identifies every component: fire again.
        let labels = labels_of(&[&[0, 1, 5]], 8);
        core.on_commit(&labels, 1, Some(4), true);
        let evs = core.drain_fires(99);
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].ev.epoch, evs[0].ev.generation), (4, 1));
    }

    #[test]
    fn commit_reevaluates_pending_pairs_after_deletions() {
        let mut core = SubsCore::new(8);
        let labels: Vec<u32> = (0..8).collect();
        core.register(1, SubKind::Pair, 0, 7, false, 0, 0, Some(&labels));
        // The rebuild's fresh labeling connected them (e.g. via drained
        // pending inserts): the commit must fire the stranded trigger.
        let fresh = labels_of(&[&[0, 3, 7]], 8);
        core.on_commit(&fresh, 2, Some(11), true);
        let evs = core.drain_fires(99);
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].ev.epoch, evs[0].ev.generation, evs[0].ev.size), (11, 2, 3));
    }

    #[test]
    fn cancel_removes_and_idle_registry_stops_mirroring() {
        let mut core = SubsCore::new(4);
        let labels: Vec<u32> = (0..4).collect();
        core.register(1, SubKind::Pair, 0, 1, true, 0, 0, Some(&labels));
        assert_eq!(core.cancel(1), Some(true));
        assert_eq!(core.cancel(1), None, "unknown after removal");
        assert!(core.is_empty());
        // Merges on an idle registry are free (no mirror maintained).
        core.merge(0, 1, 0);
        assert!(!core.has_fires());
        // A later registration resyncs from the labels of that moment.
        let labels = labels_of(&[&[0, 1]], 4);
        core.register(2, SubKind::Pair, 0, 1, false, 9, 0, Some(&labels));
        assert_eq!(core.drain_fires(9).len(), 1);
    }

    #[test]
    fn dispatch_sequences_retains_and_replays() {
        struct VecSink(Mutex<Vec<SubEvent>>, std::sync::atomic::AtomicBool);
        impl SubSink for VecSink {
            fn deliver(&self, ev: &SubEvent) -> bool {
                if self.1.load(std::sync::atomic::Ordering::Relaxed) {
                    return false;
                }
                self.0.lock().push(*ev);
                true
            }
        }
        let d = SubsDispatch::new();
        let id = d.reserve();
        assert_eq!(id, 1);
        d.open(id, true, None); // durable, no sink yet: retain
        let ev = |seq_hint: u64| PendingEvent {
            ev: SubEvent {
                id,
                kind: SubKind::Component,
                u: 3,
                v: 3,
                root: 0,
                size: 2 + seq_hint,
                epoch: seq_hint,
                generation: 0,
                seq: 0,
            },
            at: Instant::now(),
        };
        assert!(d.deliver(&[ev(1), ev(2)], |_, _| {}).is_empty());
        // Re-attach after "restart": replay everything past seq 1.
        let sink = Arc::new(VecSink(Mutex::new(Vec::new()), Default::default()));
        assert_eq!(d.attach(id, 1, Arc::clone(&sink) as Arc<dyn SubSink>), Ok(2));
        let got = sink.0.lock().clone();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].seq, got[0].epoch), (2, 2));
        // Live delivery now flows through the sink with fresh seqs.
        assert!(d.deliver(&[ev(3)], |_, _| {}).is_empty());
        assert_eq!(sink.0.lock().last().unwrap().seq, 3);
        // A dead ephemeral sink reports back for core cancellation.
        let id2 = d.reserve();
        let dead = Arc::new(VecSink(Mutex::new(Vec::new()), Default::default()));
        dead.1.store(true, std::sync::atomic::Ordering::Relaxed);
        d.open(id2, false, Some(dead));
        let mut e2 = ev(1);
        e2.ev.id = id2;
        assert_eq!(d.deliver(&[e2], |_, _| {}), vec![id2]);
        assert_eq!(d.attach(id2, 0, sink), Err(AttachError::Unknown));
    }
}
