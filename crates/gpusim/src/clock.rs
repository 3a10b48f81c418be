//! Virtual time: deterministic simulated seconds shared across a cluster.
//!
//! The time is the bits of an `f64` in an `AtomicU64`, so reading it —
//! the recorder stamps every span and event with it, under the
//! recorder's log lock — is one load and takes no lock. Advancing it is a
//! compare-exchange that writes exactly what a lock-protected `f64` would
//! have held: `advance` adds, `advance_to` takes the max and never
//! rewinds.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Callback invoked with the new time after every clock advance. Used by
/// the GYAN hardware-usage monitor to take 1 Hz samples in virtual time.
pub type ClockObserver = Box<dyn Fn(f64) + Send + Sync>;

/// Handle identifying a registered observer, for deregistration via
/// [`VirtualClock::remove_observer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObserverId(u64);

/// A monotonically increasing virtual clock measured in seconds.
///
/// The clock is shared (`Arc`) between the cluster, CUDA contexts, and the
/// monitoring script so that samples, kernel completions, and scheduler
/// decisions are ordered on a single time base.
#[derive(Clone, Default)]
pub struct VirtualClock {
    /// The current time, as `f64::to_bits` (0 is `0.0`). Written by
    /// `AcqRel` compare-exchange and read with `Acquire`, so a thread that
    /// reads a time also sees what the advancing thread wrote before it —
    /// the pairing the mutex it replaced gave.
    now: Arc<AtomicU64>,
    observers: Arc<Mutex<Vec<(ObserverId, ClockObserver)>>>,
    next_observer_id: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in seconds: one atomic load.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.now.load(Ordering::Acquire))
    }

    /// Advance the clock by `seconds` (must be non-negative) and return the
    /// new time.
    pub fn advance(&self, seconds: f64) -> f64 {
        assert!(seconds >= 0.0, "virtual time cannot go backwards ({seconds})");
        let new_now = self.update(|now| now + seconds);
        self.notify(new_now);
        new_now
    }

    /// Move the clock to `t` if `t` is later than the current time
    /// (rendezvous semantics for independent streams).
    pub fn advance_to(&self, t: f64) -> f64 {
        let new_now = self.update(|now| if t > now { t } else { now });
        self.notify(new_now);
        new_now
    }

    /// Replace the time with `step(time)` by compare-exchange, retrying
    /// on a concurrent advance, and return the time written.
    fn update(&self, step: impl Fn(f64) -> f64) -> f64 {
        let mut bits = self.now.load(Ordering::Acquire);
        loop {
            let next = step(f64::from_bits(bits));
            match self.now.compare_exchange_weak(
                bits,
                next.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return next,
                Err(current) => bits = current,
            }
        }
    }

    /// Register an observer called with the new time after every advance.
    /// Returns an id accepted by [`VirtualClock::remove_observer`], so
    /// transient listeners (e.g. a usage monitor) don't leak.
    pub fn on_advance(&self, observer: ClockObserver) -> ObserverId {
        let id = ObserverId(self.next_observer_id.fetch_add(1, Ordering::Relaxed) + 1);
        self.observers.lock().push((id, observer));
        id
    }

    /// Deregister an observer. Returns whether it was still registered
    /// (idempotent: removing twice is a no-op).
    pub fn remove_observer(&self, id: ObserverId) -> bool {
        let mut observers = self.observers.lock();
        let before = observers.len();
        observers.retain(|(oid, _)| *oid != id);
        observers.len() != before
    }

    /// Number of currently registered observers.
    pub fn observer_count(&self) -> usize {
        self.observers.lock().len()
    }

    // Observers must not advance the clock or (de)register observers from
    // inside the callback (the lock is held during the call); the monitor
    // only reads device state, which is safe.
    fn notify(&self, now: f64) {
        let observers = self.observers.lock();
        for (_, cb) in observers.iter() {
            cb(now);
        }
    }
}

impl std::fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualClock").field("now", &self.now()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        assert_eq!(c.advance(1.5), 1.5);
        assert_eq!(c.advance(0.5), 2.0);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = VirtualClock::new();
        c.advance(5.0);
        assert_eq!(c.advance_to(3.0), 5.0);
        assert_eq!(c.advance_to(7.0), 7.0);
    }

    #[test]
    fn clones_share_state() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(2.0);
        assert_eq!(b.now(), 2.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn negative_advance_panics() {
        VirtualClock::new().advance(-1.0);
    }
}

#[cfg(test)]
mod observer_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn observers_see_every_advance() {
        let c = VirtualClock::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        c.on_advance(Box::new(move |_t| {
            h.fetch_add(1, Ordering::Relaxed);
        }));
        c.advance(1.0);
        c.advance_to(5.0);
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn observer_receives_new_time() {
        let c = VirtualClock::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        c.on_advance(Box::new(move |t| s.lock().push(t)));
        c.advance(2.5);
        c.advance(0.5);
        assert_eq!(*seen.lock(), vec![2.5, 3.0]);
    }

    #[test]
    fn removed_observer_stops_firing() {
        let c = VirtualClock::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let id = c.on_advance(Box::new(move |_t| {
            h.fetch_add(1, Ordering::Relaxed);
        }));
        c.advance(1.0);
        assert_eq!(c.observer_count(), 1);
        assert!(c.remove_observer(id));
        assert!(!c.remove_observer(id), "second removal must be a no-op");
        c.advance(1.0);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(c.observer_count(), 0);
    }

    #[test]
    fn removal_targets_only_the_given_id() {
        let c = VirtualClock::new();
        let hits_a = Arc::new(AtomicUsize::new(0));
        let hits_b = Arc::new(AtomicUsize::new(0));
        let (a, b) = (hits_a.clone(), hits_b.clone());
        let id_a = c.on_advance(Box::new(move |_| {
            a.fetch_add(1, Ordering::Relaxed);
        }));
        let _id_b = c.on_advance(Box::new(move |_| {
            b.fetch_add(1, Ordering::Relaxed);
        }));
        c.remove_observer(id_a);
        c.advance(1.0);
        assert_eq!(hits_a.load(Ordering::Relaxed), 0);
        assert_eq!(hits_b.load(Ordering::Relaxed), 1);
    }
}

#[cfg(test)]
mod concurrent_tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    const THREADS: usize = 4;
    const STEPS: usize = 2_000;

    /// Run `body(thread index)` on [`THREADS`] threads at once.
    fn on_threads(body: impl Fn(usize) + Send + Sync + 'static) {
        let body = Arc::new(body);
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let body = body.clone();
                thread::spawn(move || body(i))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_advances_lose_no_step() {
        let c = VirtualClock::new();
        let clock = c.clone();
        on_threads(move |_| {
            for _ in 0..STEPS {
                clock.advance(0.25);
            }
        });
        // Quarter seconds add exactly, so the sum is exact too.
        assert_eq!(c.now(), (THREADS * STEPS) as f64 * 0.25);
    }

    #[test]
    fn concurrent_advance_to_ends_at_the_max_and_never_reads_lower() {
        let c = VirtualClock::new();
        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let (c, done) = (c.clone(), done.clone());
            thread::spawn(move || {
                let mut last = 0.0;
                while !done.load(Ordering::SeqCst) {
                    let now = c.now();
                    assert!(now >= last, "read {now} after {last}");
                    last = now;
                }
            })
        };
        let clock = c.clone();
        on_threads(move |i| {
            // Interleaved targets, each thread's rising, some behind the
            // others' and so no-ops.
            for k in 0..STEPS {
                let t = (k * THREADS + i) as f64;
                assert!(clock.advance_to(t) >= t);
            }
        });
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        assert_eq!(c.now(), (STEPS * THREADS - 1) as f64);
    }

    #[test]
    fn an_observer_sees_every_concurrent_advance_once() {
        let c = VirtualClock::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        c.on_advance(Box::new(move |t| s.lock().push(t)));
        let clock = c.clone();
        on_threads(move |_| {
            for _ in 0..STEPS {
                clock.advance(0.25);
            }
        });
        // Every advance writes a distinct time, so "each once" is "each
        // of the N·M quarter steps, once".
        let mut seen = seen.lock().clone();
        seen.sort_by(f64::total_cmp);
        let expected: Vec<f64> = (1..=THREADS * STEPS).map(|k| k as f64 * 0.25).collect();
        assert_eq!(seen.len(), expected.len(), "observer calls");
        assert!(seen == expected, "an advance was observed twice or not at all");
    }

    /// Deregistering mid-run, from a thread other than the advancing
    /// ones: once `remove_observer` has returned, the observer is never
    /// called again.
    #[test]
    fn an_observer_removed_mid_run_is_not_called_after_removal_returns() {
        let c = VirtualClock::new();
        let removed = Arc::new(AtomicBool::new(false));
        let (calls, late) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let id = {
            let (removed, calls, late) = (removed.clone(), calls.clone(), late.clone());
            c.on_advance(Box::new(move |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                if removed.load(Ordering::SeqCst) {
                    late.fetch_add(1, Ordering::SeqCst);
                }
            }))
        };
        let remover = {
            let (c, removed, calls) = (c.clone(), removed.clone(), calls.clone());
            thread::spawn(move || {
                while calls.load(Ordering::SeqCst) < STEPS {
                    thread::yield_now();
                }
                assert!(c.remove_observer(id));
                removed.store(true, Ordering::SeqCst);
            })
        };
        let (clock, gone) = (c.clone(), removed.clone());
        on_threads(move |_| {
            // Advancing before, during and after the removal.
            for _ in 0..STEPS {
                clock.advance(0.25);
            }
            while !gone.load(Ordering::SeqCst) {
                clock.advance(0.25);
            }
            for _ in 0..STEPS {
                clock.advance(0.25);
            }
        });
        remover.join().unwrap();
        assert_eq!(late.load(Ordering::SeqCst), 0, "called after remove_observer returned");
        let advances = (c.now() / 0.25) as usize;
        assert!(calls.load(Ordering::SeqCst) <= advances - THREADS * STEPS);
        assert_eq!(c.observer_count(), 0);
    }
}
