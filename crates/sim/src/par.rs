//! Minimal deterministic fork-join parallelism over `std::thread::scope`.
//!
//! The experiment sweeps fan out independent, deterministic simulations;
//! all we need from a parallel runtime is an order-preserving `map`. This
//! replaces the former `rayon` dependency so the workspace builds with no
//! network access. Results are written into their input slot, so the
//! output order — and therefore every downstream artifact — is identical
//! regardless of the worker count.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers used by [`par_map`]: the `PICO_THREADS` environment
/// variable if set, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("PICO_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on `threads` workers, preserving input order.
///
/// Work is claimed from a shared atomic index, so load-balancing matches
/// rayon's behaviour for uneven item costs; each result lands in the slot
/// of its input index, so the output is bit-identical for any `threads`.
pub fn par_map_threads<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = inputs[i]
                    .lock()
                    .expect("input poisoned")
                    .take()
                    .expect("item taken twice");
                let out = f(item);
                *outputs[i].lock().expect("output poisoned") = Some(out);
            });
        }
    });
    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("output poisoned")
                .expect("worker died before writing")
        })
        .collect()
}

/// Map `f` over `items` in parallel with [`default_threads`] workers,
/// preserving input order.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_threads(default_threads(), items, f)
}

/// A sense-reversing spin barrier. The conservative-lookahead engine
/// synchronizes its shard workers three times per window; windows are
/// one link latency wide (hundreds of nanoseconds of simulated time), so
/// a run crosses hundreds of thousands of barriers and the futex-based
/// `std::sync::Barrier` round trip would dominate. Workers spin instead —
/// they are dedicated to the rounds and have nothing better to do.
///
/// When the host grants fewer cores than there are workers, a waiter can
/// be occupying the very core its peer needs to arrive, so after a short
/// burst of pure spinning each loop yields to the scheduler: on a loaded
/// or single-core machine the barrier degrades to yield-stepping instead
/// of burning whole timeslices.
///
/// A participant that panics never arrives, so the barrier can be
/// poisoned: every participant waiting on it, then or later, panics
/// instead of spinning forever, and a scoped-thread run fails rather
/// than hangs.
pub struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    /// A barrier for `n` participants.
    pub fn new(n: usize) -> SpinBarrier {
        assert!(n > 0);
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Block (spinning) until all `n` participants have called `wait`.
    ///
    /// # Panics
    ///
    /// If the barrier is poisoned while this call waits (see
    /// [`WindowSync::poison_on_unwind`]).
    pub fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.store(generation + 1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if self.poisoned.load(Ordering::Relaxed) {
                    panic!("spin barrier poisoned: another participant panicked");
                }
                spins += 1;
                if spins >= 256 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Make every current and future waiter panic.
    fn poison(&self) {
        // Relaxed: the flag publishes no other data; a waiter that sees
        // it only panics.
        self.poisoned.store(true, Ordering::Relaxed);
    }
}

/// Poisons a [`SpinBarrier`] when dropped during a panic; see
/// [`WindowSync::poison_on_unwind`].
pub struct PoisonOnUnwind<'a>(&'a SpinBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Shared state of one conservative-lookahead round loop: the barrier,
/// each shard's published next event key, and the coordinator-published
/// window horizon. One designated worker (the coordinator) computes the
/// next window between rounds; everyone else only reads it.
///
/// A round is three barrier crossings:
///
/// 1. `begin` — the horizon (or the done flag) becomes visible; workers
///    execute every event strictly before it, routing cross-shard
///    emissions into inboxes;
/// 2. `mid` — all emissions are visible; workers commit their inboxes
///    and publish their shards' next keys via `set_next_key`;
/// 3. `finish` — all next keys are visible; the coordinator runs
///    `coordinate` to publish the next horizon before its own `begin`.
///
/// Each worker holds a [`poison_on_unwind`](Self::poison_on_unwind)
/// guard for its whole round loop, so one worker's panic makes the
/// others panic at their next crossing instead of waiting for it.
pub struct WindowSync {
    barrier: SpinBarrier,
    next_keys: Vec<AtomicU64>,
    window_end: AtomicU64,
    done: AtomicBool,
}

impl WindowSync {
    /// Sync state for `workers` round participants over `shards` shards.
    pub fn new(workers: usize, shards: usize) -> WindowSync {
        WindowSync {
            barrier: SpinBarrier::new(workers),
            next_keys: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            window_end: AtomicU64::new(0),
            done: AtomicBool::new(false),
        }
    }

    /// Publish shard `s`'s earliest pending event time (`u64::MAX` when
    /// the shard is idle). Call before `finish`.
    pub fn set_next_key(&self, s: usize, key: u64) {
        self.next_keys[s].store(key, Ordering::Release);
    }

    /// Coordinator only, between `finish` and `begin`: fold the published
    /// next keys into the next window horizon `min + lookahead`. Returns
    /// `true` (and raises the done flag) when every shard is idle.
    pub fn coordinate(&self, lookahead: u64) -> bool {
        let min = self
            .next_keys
            .iter()
            .map(|k| k.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX);
        if min == u64::MAX {
            self.done.store(true, Ordering::Release);
            true
        } else {
            assert!(lookahead > 0, "zero lookahead cannot make progress");
            self.window_end
                .store(min.saturating_add(lookahead), Ordering::Release);
            false
        }
    }

    /// Crossing 1: returns the window horizon to execute up to
    /// (exclusive), or `None` when the run is over.
    pub fn begin(&self) -> Option<u64> {
        self.barrier.wait();
        if self.done.load(Ordering::Acquire) {
            None
        } else {
            Some(self.window_end.load(Ordering::Acquire))
        }
    }

    /// Crossing 2: emissions of the current window are now visible.
    pub fn mid(&self) {
        self.barrier.wait();
    }

    /// Crossing 3: next keys of the current round are now visible.
    pub fn finish(&self) {
        self.barrier.wait();
    }

    /// A guard that poisons the barrier if the calling worker unwinds
    /// while holding it.
    pub fn poison_on_unwind(&self) -> PoisonOnUnwind<'_> {
        PoisonOnUnwind(&self.barrier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let v: Vec<u64> = (0..100).collect();
        let out = par_map(v, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let work = |x: u64| {
            // Uneven cost to exercise the work-stealing index.
            let mut acc = x;
            for i in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let a = par_map_threads(1, (0..64).collect(), work);
        let b = par_map_threads(3, (0..64).collect(), work);
        let c = par_map_threads(16, (0..64).collect(), work);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn empty_and_single() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn spin_barrier_synchronizes_rounds() {
        let n = 4;
        let barrier = SpinBarrier::new(n);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    for round in 0..100 {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        // Between barriers, every participant of the
                        // previous round has incremented.
                        assert!(counter.load(Ordering::SeqCst) >= (round + 1) * n);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100 * n);
    }

    #[test]
    fn window_sync_rounds_terminate() {
        // Two workers, three shards; shard keys drain over a few rounds.
        let sync = WindowSync::new(2, 3);
        let keys = [
            Mutex::new(vec![10u64, 25, 40]), // shard 0's future events
            Mutex::new(vec![12u64]),
            Mutex::new(vec![30u64, 31]),
        ];
        // Seed initial next keys and the first window.
        for (s, k) in keys.iter().enumerate() {
            sync.set_next_key(s, k.lock().unwrap().first().copied().unwrap_or(u64::MAX));
        }
        assert!(!sync.coordinate(5));
        let run = |worker: usize| {
            let mut rounds = 0usize;
            while let Some(end) = sync.begin() {
                for s in (0..3).filter(|s| s % 2 == worker) {
                    let mut k = keys[s].lock().unwrap();
                    while k.first().is_some_and(|&t| t < end) {
                        k.remove(0);
                    }
                }
                sync.mid();
                for s in (0..3).filter(|s| s % 2 == worker) {
                    let k = keys[s].lock().unwrap();
                    sync.set_next_key(s, k.first().copied().unwrap_or(u64::MAX));
                }
                sync.finish();
                if worker == 0 {
                    sync.coordinate(5);
                }
                rounds += 1;
                assert!(rounds < 100, "rounds must terminate");
            }
            rounds
        };
        let (a, b) = std::thread::scope(|s| {
            let h0 = s.spawn(|| run(0));
            let h1 = s.spawn(|| run(1));
            (h0.join().unwrap(), h1.join().unwrap())
        });
        assert_eq!(a, b);
        for k in &keys {
            assert!(k.lock().unwrap().is_empty());
        }
    }

    /// One of two workers panics between `begin` and `mid`: the other
    /// panics at `mid` instead of spinning, so the scope ends in a panic.
    #[test]
    fn a_panicking_worker_poisons_the_window() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let sync = WindowSync::new(2, 2);
            sync.set_next_key(0, 0);
            sync.set_next_key(1, 0);
            sync.coordinate(10);
            let scope = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                std::thread::scope(|s| {
                    for worker in 0..2 {
                        let sync = &sync;
                        s.spawn(move || {
                            let _poison = sync.poison_on_unwind();
                            while sync.begin().is_some() {
                                if worker == 1 {
                                    panic!("worker 1 fails mid-window");
                                }
                                sync.mid();
                                sync.finish();
                                sync.coordinate(10);
                            }
                        });
                    }
                });
            }));
            let _ = tx.send(scope.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the surviving worker hung at the window barrier");
        assert!(panicked, "the scope must end in a panic");
    }

    #[test]
    fn nested_par_map_works() {
        let out = par_map((0u64..8).collect(), |x| {
            par_map((0u64..8).collect(), move |y| x * 8 + y)
        });
        let flat: Vec<u64> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..64).collect::<Vec<u64>>());
    }
}
