//! Sequential reference structures. They share no code with the layers
//! under test, and every check runs outside the timed sections.

use crate::gen::key;
use connectit::Update;
use std::collections::HashSet;

/// A sequential union-find with path halving.
pub struct SeqUf {
    parent: Vec<u32>,
    components: usize,
}

impl SeqUf {
    pub fn new(n: usize) -> SeqUf {
        SeqUf { parent: (0..n as u32).collect(), components: n }
    }

    pub fn from_edges<'a>(n: usize, edges: impl IntoIterator<Item = &'a (u32, u32)>) -> SeqUf {
        let mut uf = SeqUf::new(n);
        for &(u, v) in edges {
            uf.union(u, v);
        }
        uf
    }

    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    pub fn union(&mut self, u: u32, v: u32) {
        let (a, b) = (self.find(u), self.find(v));
        if a != b {
            self.parent[a.max(b) as usize] = a.min(b);
            self.components -= 1;
        }
    }

    pub fn connected(&mut self, u: u32, v: u32) -> bool {
        self.find(u) == self.find(v)
    }

    pub fn components(&self) -> usize {
        self.components
    }

    /// `Query(v, root(v))` for every non-root vertex: all must answer
    /// true, which together with an equal component count proves the
    /// server's partition equals this one.
    pub fn membership_queries(&mut self) -> Vec<Update> {
        (0..self.parent.len() as u32)
            .filter_map(|v| {
                let r = self.find(v);
                (r != v).then_some(Update::Query(v, r))
            })
            .collect()
    }

    /// Whether `labels` induces exactly this partition.
    pub fn same_partition(&mut self, labels: &[u32]) -> bool {
        let n = self.parent.len();
        if labels.len() != n {
            return false;
        }
        let (mut to_label, mut to_root) = (vec![u32::MAX; n], vec![u32::MAX; n]);
        for v in 0..n as u32 {
            let (r, l) = (self.find(v), labels[v as usize]);
            if l as usize >= n {
                return false;
            }
            if to_label[r as usize] == u32::MAX && to_root[l as usize] == u32::MAX {
                to_label[r as usize] = l;
                to_root[l as usize] = r;
            } else if to_label[r as usize] != l || to_root[l as usize] != r {
                return false;
            }
        }
        true
    }
}

/// The live edge set after applying `ops` in order (set semantics).
pub fn live_after(ops: &[Update]) -> HashSet<u64> {
    let mut live = HashSet::new();
    apply_live(&mut live, ops);
    live
}

fn apply_live(live: &mut HashSet<u64>, ops: &[Update]) {
    for op in ops {
        match *op {
            Update::Insert(u, v) if u != v => {
                live.insert(key(u, v));
            }
            Update::Delete(u, v) => {
                live.remove(&key(u, v));
            }
            _ => {}
        }
    }
}

fn uf_of_keys<'a>(n: usize, keys: impl IntoIterator<Item = &'a u64>) -> SeqUf {
    let mut uf = SeqUf::new(n);
    for &k in keys {
        uf.union((k >> 32) as u32, k as u32);
    }
    uf
}

/// The oracle for the live edge set after `ops`.
pub fn final_state(n: usize, ops: &[Update]) -> SeqUf {
    uf_of_keys(n, &live_after(ops))
}

/// One frame of a closed loop as the client saw it: its ops, its answers
/// (with the sealed-generation tag, `None` when served live), and the
/// window of frames that may have been applied when it was answered —
/// every frame below `lo` was acknowledged before it was sent, and no
/// frame at or above `hi` had been sent when its reply arrived.
pub struct Frame<'a> {
    pub ops: &'a [Update],
    pub lo: usize,
    pub hi: usize,
    pub answers: Vec<(bool, Option<u64>)>,
}

/// Tallies of one validation pass.
#[derive(Default, Debug)]
pub struct Checked {
    /// Answers compared against the oracle.
    pub exact: u64,
    /// Answers served from a sealed generation: stale by contract, not
    /// compared.
    pub stale: u64,
    /// Clean answers whose pair changed inside its window under deletions
    /// (either answer is legal).
    pub ambiguous: u64,
    pub first_mismatch: Option<String>,
    pub mismatches: u64,
}

impl Checked {
    fn verdict(&mut self, i: usize, (u, v): (u32, u32), got: bool, must: Option<bool>) {
        match must {
            Some(want) => {
                self.exact += 1;
                if got != want {
                    self.mismatches += 1;
                    self.first_mismatch.get_or_insert_with(|| {
                        format!("frame {i}: query({u}, {v}) answered {got}, oracle says {want}")
                    });
                }
            }
            None => self.ambiguous += 1,
        }
    }
}

fn queries(ops: &[Update]) -> impl Iterator<Item = (u32, u32)> + '_ {
    ops.iter().filter_map(|op| match *op {
        Update::Query(u, v) => Some((u, v)),
        _ => None,
    })
}

/// Validates an insert-only (monotone) loop by the sandwich rule: a pair
/// connected before the window must answer true, a pair still apart after
/// it must answer false, and a pair joined inside it may answer either.
pub fn check_monotone(n: usize, frames: &[Frame]) -> Checked {
    let (mut lo_uf, mut hi_uf) = (SeqUf::new(n), SeqUf::new(n));
    let (mut at_lo, mut at_hi, mut hi) = (0, 0, 0);
    let mut out = Checked::default();
    for (i, f) in frames.iter().enumerate() {
        // Replies may complete out of order; widening the upper bound to
        // the running maximum only loosens the check, never fakes it.
        hi = hi.max(f.hi);
        for (uf, at, to) in [(&mut lo_uf, &mut at_lo, f.lo), (&mut hi_uf, &mut at_hi, hi)] {
            while *at < to {
                for op in frames[*at].ops {
                    if let Update::Insert(u, v) = *op {
                        uf.union(u, v);
                    }
                }
                *at += 1;
            }
        }
        if !answers_fit(&mut out, i, f) {
            continue;
        }
        for ((u, v), &(got, _)) in queries(f.ops).zip(&f.answers) {
            let must = if lo_uf.connected(u, v) {
                Some(true)
            } else if !hi_uf.connected(u, v) {
                Some(false)
            } else {
                None
            };
            out.verdict(i, (u, v), got, must);
        }
    }
    out
}

fn answers_fit(out: &mut Checked, i: usize, f: &Frame) -> bool {
    let want = queries(f.ops).count();
    if f.answers.len() == want {
        return true;
    }
    out.mismatches += 1;
    out.first_mismatch.get_or_insert_with(|| {
        format!("frame {i}: {} answers for {want} queries", f.answers.len())
    });
    false
}

/// Validates a loop with deletions. Clean answers are held to the
/// sandwich rule over the window: a pair joined by edges live throughout
/// the window must answer true, a pair apart even in the union of every
/// edge live at any point of the window must answer false. Sealed answers
/// are stale by contract and only counted.
pub fn check_churn(n: usize, frames: &[Frame]) -> Checked {
    let mut live = HashSet::new();
    let (mut at_lo, mut hi) = (0, 0);
    let mut out = Checked::default();
    for (i, f) in frames.iter().enumerate() {
        hi = hi.max(f.hi);
        while at_lo < f.lo {
            apply_live(&mut live, frames[at_lo].ops);
            at_lo += 1;
        }
        if !answers_fit(&mut out, i, f) {
            continue;
        }
        out.stale += f.answers.iter().filter(|a| a.1.is_some()).count() as u64;
        if f.answers.iter().all(|a| a.1.is_some()) {
            continue;
        }
        let window = &frames[f.lo..hi.min(frames.len())];
        let (mut stable, mut union) = (live.clone(), live.clone());
        for op in window.iter().flat_map(|w| w.ops) {
            match *op {
                Update::Insert(u, v) if u != v => {
                    union.insert(key(u, v));
                }
                Update::Delete(u, v) => {
                    stable.remove(&key(u, v));
                }
                _ => {}
            }
        }
        let (mut stable, mut union) = (uf_of_keys(n, &stable), uf_of_keys(n, &union));
        for ((u, v), &(got, tag)) in queries(f.ops).zip(&f.answers) {
            if tag.is_some() {
                continue;
            }
            let must = if stable.connected(u, v) {
                Some(true)
            } else if !union.connected(u, v) {
                Some(false)
            } else {
                None
            };
            out.verdict(i, (u, v), got, must);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_compare_is_exact() {
        let mut uf = SeqUf::from_edges(5, &[(0, 1), (3, 4)]);
        assert!(uf.same_partition(&[1, 1, 2, 3, 3]));
        assert!(!uf.same_partition(&[2, 3, 1, 4, 4]));
        assert!(!uf.same_partition(&[1, 1, 1, 3, 3]));
        assert_eq!(uf.components(), 3);
    }

    #[test]
    fn sandwich_flags_wrong_answers_only() {
        let ops = [Update::Insert(0, 1), Update::Query(0, 1), Update::Query(1, 2)];
        let frame = |answers| Frame { ops: &ops, lo: 0, hi: 1, answers };
        // The pair (0, 1) joins inside the window: either answer is legal.
        let ok = check_monotone(3, &[frame(vec![(false, None), (false, None)])]);
        assert_eq!((ok.mismatches, ok.ambiguous, ok.exact), (0, 1, 1));
        let bad = check_monotone(3, &[frame(vec![(true, None), (true, None)])]);
        assert_eq!(bad.mismatches, 1);
        let churn = check_churn(3, &[frame(vec![(true, Some(1)), (true, None)])]);
        assert_eq!((churn.stale, churn.mismatches), (1, 1));
    }
}
