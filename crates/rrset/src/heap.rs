//! Lazy max-heap for CELF-style best-candidate selection.
//!
//! Keys (coverage counts / cached marginal gains) only *decrease* between
//! rebuilds, so a popped entry whose stored key no longer matches the
//! current value can simply be re-inserted with the fresh (smaller) key —
//! the classic CELF invariant. Entries that became permanently ineligible
//! (attention bound exhausted, already seeded) are dropped.

use std::collections::BinaryHeap;
use tirm_graph::NodeId;

/// Max-heap of `(key, node)` with lazy invalidation.
#[derive(Clone, Debug, Default)]
pub struct LazyMaxHeap {
    heap: BinaryHeap<(u64, NodeId)>,
}

/// Verdict returned by the caller's inspection closure in
/// [`LazyMaxHeap::pop_best`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The stored key is still accurate and the node usable → return it.
    Take,
    /// The node can never be used again → drop it.
    Drop,
    /// The key is stale; re-insert with this fresh key.
    Refresh(u64),
}

impl LazyMaxHeap {
    /// Empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap pre-filled from `(node, key)` pairs.
    pub fn build(entries: impl IntoIterator<Item = (NodeId, u64)>) -> Self {
        LazyMaxHeap {
            heap: entries.into_iter().map(|(v, k)| (k, v)).collect(),
        }
    }

    /// Number of live entries (including stale ones).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entries remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pushes an entry.
    pub fn push(&mut self, node: NodeId, key: u64) {
        self.heap.push((key, node));
    }

    /// Clears and refills from scratch (used after RR-sample top-ups, when
    /// keys may have *increased* and lazy invalidation would be unsound).
    pub fn rebuild(&mut self, entries: impl IntoIterator<Item = (NodeId, u64)>) {
        self.heap.clear();
        for (v, k) in entries {
            self.heap.push((k, v));
        }
    }

    /// Pops the best valid entry. `judge(node, stored_key)` inspects the
    /// current top; see [`Verdict`]. Returns `None` when the heap empties.
    pub fn pop_best(
        &mut self,
        mut judge: impl FnMut(NodeId, u64) -> Verdict,
    ) -> Option<(NodeId, u64)> {
        while let Some((key, node)) = self.heap.pop() {
            match judge(node, key) {
                Verdict::Take => return Some((node, key)),
                Verdict::Drop => continue,
                Verdict::Refresh(fresh) => {
                    debug_assert!(
                        fresh <= key,
                        "lazy heap keys must be non-increasing (got {key} -> {fresh})"
                    );
                    self.heap.push((fresh, node));
                }
            }
        }
        None
    }

    /// Bytes held by the entry buffer.
    pub fn memory_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<(u64, NodeId)>()
    }

    /// Peeks at the maximum stored key (possibly stale).
    pub fn peek_key(&self) -> Option<u64> {
        self.heap.peek().map(|&(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_best_takes_max() {
        let mut h = LazyMaxHeap::build(vec![(0, 5), (1, 9), (2, 3)]);
        let got = h.pop_best(|_, _| Verdict::Take).unwrap();
        assert_eq!(got, (1, 9));
    }

    #[test]
    fn refresh_reorders() {
        // Node 1 claims 9 but is stale (really 1); node 0 should win.
        let mut h = LazyMaxHeap::build(vec![(0, 5), (1, 9)]);
        let got = h
            .pop_best(|node, key| {
                if node == 1 && key == 9 {
                    Verdict::Refresh(1)
                } else {
                    Verdict::Take
                }
            })
            .unwrap();
        assert_eq!(got, (0, 5));
        // Node 1 remains with its refreshed key.
        let next = h.pop_best(|_, _| Verdict::Take).unwrap();
        assert_eq!(next, (1, 1));
    }

    #[test]
    fn drop_removes_permanently() {
        let mut h = LazyMaxHeap::build(vec![(0, 5), (1, 9)]);
        let got = h
            .pop_best(|node, _| {
                if node == 1 {
                    Verdict::Drop
                } else {
                    Verdict::Take
                }
            })
            .unwrap();
        assert_eq!(got.0, 0);
        assert!(h.is_empty());
    }

    #[test]
    fn empty_heap_returns_none() {
        let mut h = LazyMaxHeap::new();
        assert_eq!(h.pop_best(|_, _| Verdict::Take), None);
    }

    #[test]
    fn rebuild_replaces_contents() {
        let mut h = LazyMaxHeap::build(vec![(0, 1)]);
        h.rebuild(vec![(5, 7), (6, 2)]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.peek_key(), Some(7));
    }
}
