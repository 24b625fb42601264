//! Seeded inputs. Every op a workload sends is a pure function of
//! `(workload, seed)`: the same pair yields byte-identical streams, which
//! is what lets the traced ladder replay one stream through every layer
//! and lets a later change be measured on exactly the parent's inputs.

use cc_graph::generators::rmat_default;
use connectit::Update;
use std::collections::HashMap;

/// `n = 2^SCALE` vertices in every workload.
pub const SCALE: u32 = 20;
/// Vertex count.
pub const N: usize = 1 << SCALE;
/// Edges per vertex of the static graph (m ≈ 16.8M, CSR ≈ 140 MB).
pub const STATIC_EDGES_PER_VERTEX: usize = 16;
/// Ops per `ingest`/`churn` stream, and edges preloaded by `point`.
pub const STREAM_OPS: usize = 1 << 22;
/// Ops per binary `B` frame.
pub const BATCH: usize = 8192;
/// Single-op requests available to one `point` connection.
pub const POINT_REQUESTS: usize = 1 << 20;

/// SplitMix64: a tiny counter-free generator, enough for op-kind choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound ≤ 2^32; the bias is below 2^-32).
    pub fn below(&mut self, bound: usize) -> usize {
        (((self.next_u64() >> 32) * bound as u64) >> 32) as usize
    }
}

/// Derives an independent sub-seed for one input of one workload.
fn derive(seed: u64, tag: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(tag.as_bytes());
    h.bytes(&seed.to_le_bytes());
    h.finish()
}

/// RMAT endpoint pairs with the paper's streaming parameters.
fn rmat_pairs(count: usize, seed: u64) -> Vec<(u32, u32)> {
    rmat_default(SCALE, count, seed).edges
}

/// The static graph's edge list.
pub fn static_edges(seed: u64) -> Vec<(u32, u32)> {
    rmat_pairs(N * STATIC_EDGES_PER_VERTEX, derive(seed, "static"))
}

/// `ingest`: 90% inserts, 10% queries, every endpoint pair from RMAT.
pub fn ingest_stream(seed: u64) -> Vec<Update> {
    let pairs = rmat_pairs(STREAM_OPS, derive(seed, "ingest"));
    let mut rng = Rng::new(derive(seed, "ingest-kinds"));
    pairs
        .into_iter()
        .map(|(u, v)| if rng.below(10) == 0 { Update::Query(u, v) } else { Update::Insert(u, v) })
        .collect()
}

/// `churn`: as `ingest`, except a quarter of the updates delete a live
/// edge chosen uniformly (the generator tracks the live set exactly, with
/// the server's set semantics: re-inserting a live edge is a no-op).
pub fn churn_stream(seed: u64) -> Vec<Update> {
    let pairs = rmat_pairs(STREAM_OPS, derive(seed, "churn"));
    let mut rng = Rng::new(derive(seed, "churn-kinds"));
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut slot: HashMap<u64, usize> = HashMap::new();
    let mut ops = Vec::with_capacity(pairs.len());
    for (u, v) in pairs {
        if rng.below(10) == 0 {
            ops.push(Update::Query(u, v));
        } else if rng.below(4) == 0 && !live.is_empty() {
            let i = rng.below(live.len());
            let (a, b) = live.swap_remove(i);
            slot.remove(&key(a, b));
            if let Some(&(c, d)) = live.get(i) {
                // The former tail edge now sits where the victim was.
                slot.insert(key(c, d), i);
            }
            ops.push(Update::Delete(a, b));
        } else {
            if u != v {
                let k = key(u, v);
                if let std::collections::hash_map::Entry::Vacant(e) = slot.entry(k) {
                    e.insert(live.len());
                    live.push((u, v));
                }
            }
            ops.push(Update::Insert(u, v));
        }
    }
    ops
}

/// `point`: the preloaded graph and one connection's single-op requests
/// (90% queries, 10% inserts).
pub fn point_inputs(seed: u64) -> (Vec<(u32, u32)>, Vec<Update>) {
    let preload = rmat_pairs(STREAM_OPS, derive(seed, "point-preload"));
    let mut rng = Rng::new(derive(seed, "point-kinds"));
    let requests = rmat_pairs(POINT_REQUESTS, derive(seed, "point-requests"))
        .into_iter()
        .map(|(u, v)| if rng.below(10) == 0 { Update::Insert(u, v) } else { Update::Query(u, v) })
        .collect();
    (preload, requests)
}

/// Canonical undirected edge key.
pub fn key(u: u32, v: u32) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    (u64::from(a) << 32) | u64::from(b)
}

/// 64-bit FNV-1a, used to fingerprint op sequences.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn op(&mut self, op: &Update) {
        let (tag, u, v) = match *op {
            Update::Insert(u, v) => (b'I', u, v),
            Update::Delete(u, v) => (b'D', u, v),
            Update::Query(u, v) => (b'Q', u, v),
        };
        self.bytes(&[tag]);
        self.bytes(&u.to_le_bytes());
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of an op sequence.
pub fn hash_ops<'a>(ops: impl IntoIterator<Item = &'a Update>) -> u64 {
    let mut h = Fnv::new();
    for op in ops {
        h.op(op);
    }
    h.finish()
}

/// Fingerprint of an edge list, hashed as the inserts that carry it.
pub fn hash_edges(edges: &[(u32, u32)]) -> u64 {
    let mut h = Fnv::new();
    for &(u, v) in edges {
        h.op(&Update::Insert(u, v));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload's inputs, byte for byte.
    fn inputs(workload: &str, seed: u64) -> (Vec<(u32, u32)>, Vec<Update>) {
        match workload {
            "static" => (static_edges(seed), Vec::new()),
            "ingest" => (Vec::new(), ingest_stream(seed)),
            "churn" => (Vec::new(), churn_stream(seed)),
            _ => point_inputs(seed),
        }
    }

    /// Run with `--release`: the static graph alone is 16.8M RMAT edges.
    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in ["static", "ingest", "churn", "point"] {
            let a = inputs(w, 7);
            assert!(a == inputs(w, 7), "{w}: seed 7 generated different inputs twice");
            let b = inputs(w, 8);
            assert_ne!(
                (hash_edges(&a.0), hash_ops(&a.1)),
                (hash_edges(&b.0), hash_ops(&b.1)),
                "{w}: seeds 7 and 8 generated the same inputs"
            );
        }
    }

    #[test]
    fn churn_deletes_only_live_edges() {
        let ops = churn_stream(3);
        let mut live = std::collections::HashSet::new();
        let (mut deletes, mut updates) = (0, 0);
        for op in &ops {
            match *op {
                Update::Insert(u, v) => {
                    updates += 1;
                    if u != v {
                        live.insert(key(u, v));
                    }
                }
                Update::Delete(u, v) => {
                    updates += 1;
                    deletes += 1;
                    assert!(live.remove(&key(u, v)), "deleted a dead edge ({u}, {v})");
                }
                Update::Query(..) => {}
            }
        }
        let share = deletes as f64 / updates as f64;
        assert!((0.24..0.26).contains(&share), "delete share {share}");
    }
}
