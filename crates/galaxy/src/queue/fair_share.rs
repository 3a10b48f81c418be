//! Bounded priority queue with per-user fair-share ordering.
//!
//! Real Galaxy orders its job queue so no single user can starve the
//! cluster: handlers prefer the user who has consumed the least service.
//! [`FairShareQueue`] reproduces that policy deterministically — entries
//! are bucketed per user, and each pop selects the user with the lowest
//! accumulated usage (ties broken alphabetically), then the
//! highest-priority entry of that user (ties broken FIFO by sequence
//! number).
//!
//! Both selections are index lookups, not scans: a `ready` set ordered
//! by `(usage, user)` names the next user in O(log U), and each user's
//! bucket is ordered by `(priority desc, seq)` so its best entry is the
//! first key. That keeps `pop` at O(log n) with 10^5–10^6 users in
//! queue, where the previous all-bucket scan was O(users) *per pop* —
//! quadratic over a load-test run. Everything else kept per user — the
//! bucket and the usage charged so far — is one hashed entry, found once
//! per push and once per pop; only `ready` orders users, so nothing ever
//! walks that map.
//!
//! Admission control is part of the queue: a push beyond the global
//! capacity, or beyond a per-user in-queue limit, is rejected with a
//! human-readable reason instead of blocking.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One queued entry (its priority and sequence number live in the bucket
/// key, which orders the bucket).
#[derive(Debug, Clone)]
struct Entry<T> {
    item: T,
    enqueued_at: f64,
}

/// Bucket ordering: highest priority first, then FIFO by sequence.
type BucketKey = (Reverse<u8>, u64);

/// What the queue keeps per user, from their first push on.
#[derive(Debug)]
struct UserState<T> {
    /// The user's name, allocated once at their first push and shared
    /// by the ready set, every pop and every job record of theirs.
    name: Arc<str>,
    /// Accumulated usage: entries dispatched so far.
    usage: u64,
    /// Queued entries, best first.
    bucket: BTreeMap<BucketKey, Entry<T>>,
}

/// Why the queue refused a push.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Human-readable reason (also used in audit events).
    pub reason: String,
}

/// A successful pop: the chosen item plus the bookkeeping the scheduler
/// audits (whose turn it was and why).
#[derive(Debug, Clone)]
pub struct Popped<T> {
    /// The owning user.
    pub user: Arc<str>,
    /// The dequeued item.
    pub item: T,
    /// Priority the entry was queued with.
    pub priority: u8,
    /// Recorder-clock time the entry was pushed.
    pub enqueued_at: f64,
    /// The user's accumulated usage *after* charging this pop.
    pub usage: u64,
}

/// Bounded, fair-share-ordered priority queue.
#[derive(Debug)]
pub struct FairShareQueue<T> {
    capacity: usize,
    per_user_limit: Option<usize>,
    users: HashMap<Arc<str>, UserState<T>>,
    /// Users with at least one queued entry, ordered by
    /// `(accumulated usage, name)` — the first element is exactly the
    /// user the old full scan's `min_by_key` would have chosen.
    ready: BTreeSet<(u64, Arc<str>)>,
    seq: u64,
    len: usize,
}

impl<T> FairShareQueue<T> {
    /// An empty queue holding at most `capacity` entries, optionally
    /// capping how many entries one user may have in queue at once.
    pub fn new(capacity: usize, per_user_limit: Option<usize>) -> Self {
        FairShareQueue {
            capacity,
            per_user_limit,
            users: HashMap::new(),
            ready: BTreeSet::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Total queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries currently queued for `user`.
    pub fn user_depth(&self, user: &str) -> usize {
        self.users.get(user).map_or(0, |state| state.bucket.len())
    }

    /// Accumulated usage (dispatched entries) charged to `user`.
    pub fn user_usage(&self, user: &str) -> u64 {
        self.users.get(user).map_or(0, |state| state.usage)
    }

    /// Admission control alone: would a push for `user` be accepted right
    /// now? Lets callers check *before* creating expensive state (a job
    /// record) for an entry that would be rejected anyway.
    pub fn check_admission(&self, user: &str) -> Result<(), Rejection> {
        if self.len >= self.capacity {
            return Err(Rejection {
                reason: format!("queue full ({} of {} entries)", self.len, self.capacity),
            });
        }
        if let Some(limit) = self.per_user_limit {
            if self.user_depth(user) >= limit {
                return Err(Rejection {
                    reason: format!("user {user:?} at per-user limit ({limit} queued)"),
                });
            }
        }
        Ok(())
    }

    /// Push with admission control: rejects when the queue is full or the
    /// user exceeds their in-queue limit.
    pub fn try_push(
        &mut self,
        user: &str,
        priority: u8,
        enqueued_at: f64,
        item: T,
    ) -> Result<(), Rejection> {
        self.check_admission(user)?;
        self.push_unchecked(user, priority, enqueued_at, item);
        Ok(())
    }

    /// Push bypassing admission control. Used for *internal* continuations
    /// (DAG steps becoming ready, resubmitted attempts): the work was
    /// already admitted at the submission boundary, so refusing it now
    /// would strand an accepted workflow. Returns the queue's shared copy
    /// of the user's name.
    pub fn push_unchecked(
        &mut self,
        user: &str,
        priority: u8,
        enqueued_at: f64,
        item: T,
    ) -> Arc<str> {
        self.seq += 1;
        let entry = ((Reverse(priority), self.seq), Entry { item, enqueued_at });
        // Looked up by `&str`: the name is copied only at a user's first
        // push ever; the ready set shares it.
        let (name, newly_ready_at) = match self.users.get_mut(user) {
            Some(state) => {
                let was_empty = state.bucket.is_empty();
                state.bucket.insert(entry.0, entry.1);
                (Arc::clone(&state.name), was_empty.then_some(state.usage))
            }
            None => {
                let name: Arc<str> = user.into();
                let state = UserState {
                    name: Arc::clone(&name),
                    usage: 0,
                    bucket: BTreeMap::from([entry]),
                };
                self.users.insert(Arc::clone(&name), state);
                (name, Some(0))
            }
        };
        if let Some(usage) = newly_ready_at {
            self.ready.insert((usage, Arc::clone(&name)));
        }
        self.len += 1;
        name
    }

    /// Fair-share pop: the least-used user's best entry, charging one unit
    /// of usage to that user. Returns `None` when empty.
    pub fn pop(&mut self) -> Option<Popped<T>> {
        obs::profile_scope!("queue.fair_share.pop");
        // Least accumulated usage wins, ties alphabetical: the ready
        // set's first element, by construction of its key.
        let (ready_usage, user) = self.ready.pop_first()?;
        let state = self.users.get_mut(&user).expect("ready user has a bucket");
        let ((Reverse(priority), _seq), entry) =
            state.bucket.pop_first().expect("ready bucket is non-empty");
        self.len -= 1;
        debug_assert_eq!(state.usage, ready_usage, "ready-set usage key in sync");
        state.usage += 1;
        let usage = state.usage;
        if !state.bucket.is_empty() {
            // Re-file the user under the charged usage so the next pop
            // sees the updated fair-share position.
            self.ready.insert((usage, Arc::clone(&user)));
        }
        Some(Popped { user, item: entry.item, priority, enqueued_at: entry.enqueued_at, usage })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut FairShareQueue<&'static str>) -> Vec<(String, &'static str)> {
        let mut order = Vec::new();
        while let Some(p) = q.pop() {
            order.push((p.user.to_string(), p.item));
        }
        order
    }

    #[test]
    fn alternates_between_users_by_usage() {
        let mut q = FairShareQueue::new(16, None);
        for item in ["a1", "a2", "a3", "a4"] {
            q.try_push("alice", 0, 0.0, item).unwrap();
        }
        for item in ["b1", "b2"] {
            q.try_push("bob", 0, 0.0, item).unwrap();
        }
        let order: Vec<&str> = drain(&mut q).into_iter().map(|(_, i)| i).collect();
        // Fair share interleaves; FIFO would run all of alice's first.
        assert_eq!(order, vec!["a1", "b1", "a2", "b2", "a3", "a4"]);
    }

    #[test]
    fn priority_orders_within_a_user() {
        let mut q = FairShareQueue::new(16, None);
        q.try_push("u", 0, 0.0, "low").unwrap();
        q.try_push("u", 9, 0.0, "high").unwrap();
        q.try_push("u", 9, 0.0, "high-later").unwrap();
        let order: Vec<&str> = drain(&mut q).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, vec!["high", "high-later", "low"]);
    }

    #[test]
    fn capacity_rejects_with_reason() {
        let mut q = FairShareQueue::new(2, None);
        q.try_push("u", 0, 0.0, "a").unwrap();
        q.try_push("u", 0, 0.0, "b").unwrap();
        let err = q.try_push("u", 0, 0.0, "c").unwrap_err();
        assert!(err.reason.contains("queue full"), "{}", err.reason);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn per_user_limit_rejects_only_the_offender() {
        let mut q = FairShareQueue::new(16, Some(1));
        q.try_push("hog", 0, 0.0, "a").unwrap();
        let err = q.try_push("hog", 0, 0.0, "b").unwrap_err();
        assert!(err.reason.contains("per-user limit"), "{}", err.reason);
        q.try_push("other", 0, 0.0, "c").unwrap();
    }

    #[test]
    fn push_unchecked_bypasses_admission() {
        let mut q = FairShareQueue::new(1, Some(1));
        q.try_push("u", 0, 0.0, "a").unwrap();
        q.push_unchecked("u", 0, 0.0, "continuation");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn usage_persists_across_empty_buckets() {
        let mut q = FairShareQueue::new(16, None);
        q.try_push("alice", 0, 0.0, "a1").unwrap();
        assert!(q.pop().is_some());
        // Alice has usage 1; a fresh bob entry beats her next one.
        q.try_push("alice", 0, 0.0, "a2").unwrap();
        q.try_push("bob", 0, 0.0, "b1").unwrap();
        assert_eq!(q.pop().unwrap().item, "b1");
        assert_eq!(q.user_usage("alice"), 1);
        assert_eq!(q.user_usage("bob"), 1);
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: FairShareQueue<u32> = FairShareQueue::new(4, None);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// The indexed pop must reproduce the original full-scan selection
    /// exactly. This replays a deterministic pseudo-random interleaving
    /// of pushes and pops against a brute-force reference.
    #[test]
    fn indexed_pop_matches_reference_scan() {
        #[derive(Clone)]
        struct RefEntry {
            user: String,
            priority: u8,
            seq: u64,
            item: u64,
        }
        // Brute-force reference: scan all entries, min by
        // (usage, user, Reverse(priority), seq).
        struct Reference {
            entries: Vec<RefEntry>,
            usage: BTreeMap<String, u64>,
        }
        impl Reference {
            fn pop(&mut self) -> Option<u64> {
                let idx = (0..self.entries.len()).min_by_key(|&i| {
                    let e = &self.entries[i];
                    (
                        self.usage.get(&e.user).copied().unwrap_or(0),
                        e.user.clone(),
                        Reverse(e.priority),
                        e.seq,
                    )
                })?;
                let e = self.entries.remove(idx);
                *self.usage.entry(e.user).or_insert(0) += 1;
                Some(e.item)
            }
        }

        let mut q: FairShareQueue<u64> = FairShareQueue::new(usize::MAX, None);
        let mut reference = Reference { entries: Vec::new(), usage: BTreeMap::new() };
        // Simple LCG so the interleaving is fixed without rand.
        let mut state: u64 = 0x2545F4914F6CDD1D;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut seq = 0u64;
        for round in 0..600 {
            let action = next() % 3;
            if action < 2 {
                let user = format!("user-{}", next() % 17);
                let priority = (next() % 4) as u8;
                seq += 1;
                q.push_unchecked(&user, priority, round as f64, seq);
                reference.entries.push(RefEntry { user, priority, seq, item: seq });
            } else {
                assert_eq!(q.pop().map(|p| p.item), reference.pop(), "round {round}");
            }
        }
        loop {
            let (got, want) = (q.pop().map(|p| p.item), reference.pop());
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
