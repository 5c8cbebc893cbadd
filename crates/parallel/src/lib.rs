//! # afd-parallel
//!
//! Deterministic scoped-thread fan-out for the AFD workspace — a
//! dependency-free stand-in for rayon's `par_iter().map().collect()`
//! shape, built on `std::thread::scope`.
//!
//! Guarantees:
//!
//! * **Deterministic output order**: results come back in input order
//!   regardless of which worker computed them.
//! * **Work stealing via an atomic cursor**: workers pull the next index
//!   when free, so skewed per-item costs balance out.
//! * **Per-worker state** ([`par_map_with`]): each worker builds one `S`
//!   (e.g. an `afd-relation` kernel `Scratch` buffer) and reuses it
//!   across all items it processes — the hook that keeps the hot
//!   partition kernels allocation-free under parallelism.
//!
//! Thread count defaults to [`max_threads`] (`AFD_THREADS` env override,
//! else `std::thread::available_parallelism`). Every entry point runs
//! inline (no threads spawned) when `threads <= 1` or there are fewer
//! than two items, and [`par_map_with`] runs one of its workers on the
//! calling thread instead of leaving it to wait.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: the `AFD_THREADS` env var when set, else the
/// machine's available parallelism.
///
/// # Panics
/// Panics with a clear message when `AFD_THREADS` is set but is not a
/// positive integer (`0`, garbage, empty). A misconfigured override used
/// to fall through silently — either clamped to 1 or ignored — which on
/// a single-core CI box is indistinguishable from working; failing loudly
/// is the only observable behaviour there. Callers that would rather get
/// a `Result` (the engine front door) use [`try_max_threads`].
pub fn max_threads() -> usize {
    match try_max_threads() {
        Ok(n) => n,
        Err(e) => panic!("{e}"),
    }
}

/// As [`max_threads`], but a misconfigured `AFD_THREADS` comes back as
/// `Err` (same message the panic would carry) instead of aborting — the
/// form `AfdEngine` callers consume.
///
/// # Errors
/// A descriptive message when `AFD_THREADS` is set but is not a positive
/// integer (`0`, garbage, empty).
pub fn try_max_threads() -> Result<usize, String> {
    Ok(
        match parse_thread_override(std::env::var("AFD_THREADS").ok().as_deref())? {
            Some(n) => n,
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
    )
}

/// Parses an `AFD_THREADS` override: `None` when unset, `Some(n)` for a
/// positive integer, and a descriptive error for `0` or garbage.
fn parse_thread_override(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("AFD_THREADS must be a positive worker count, got 0".to_string()),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "AFD_THREADS must be a positive worker count, got {raw:?}"
        )),
    }
}

/// Maps `f` over `items` on up to `threads` workers, returning results
/// in input order. `f(i, &items[i])` must be pure up to side effects the
/// caller synchronises; panics in workers propagate.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, threads, || (), move |(), i, item| f(i, item))
}

/// As [`par_map`], but each worker first builds a local state `S` via
/// `init` and threads it through every item it processes. Use this to
/// reuse scratch allocations across items.
///
/// One worker runs on the calling thread and `workers − 1` are spawned,
/// so a call costs one thread spawn fewer. A panic on the calling
/// thread propagates once the spawned workers have finished.
pub fn par_map_with<T, S, R, F, I>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n < 2 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }
    let workers = threads.min(n);
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(&mut state, i, &items[i])));
        }
        local
    };
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        buckets.push(work());
        for h in handles {
            buckets.push(h.join().expect("parallel worker panicked"));
        }
    });
    // Reassemble in input order.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index processed exactly once"))
        .collect()
}

/// Maps `f` over mutable items on up to `threads` workers, returning
/// results in input order. Unlike [`par_map`] the items are handed out as
/// contiguous per-worker chunks (not stolen one by one), which suits
/// small item counts whose per-item cost is already balanced.
pub fn par_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n < 2 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let workers = threads.min(n);
    let chunk = n.div_ceil(workers);
    let mut buckets: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(w, slice)| {
                let f = &f;
                scope.spawn(move || {
                    slice
                        .iter_mut()
                        .enumerate()
                        .map(|(j, item)| f(w * chunk + j, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            buckets.push(h.join().expect("parallel worker panicked"));
        }
    });
    buckets.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let par = par_map(&items, threads, |_, &x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_map_with_reuses_state() {
        let items: Vec<usize> = (0..100).collect();
        // Each worker counts how many items it saw; sum must be n.
        let counts = par_map_with(
            &items,
            4,
            || 0usize,
            |seen, _, &x| {
                *seen += 1;
                (x, *seen)
            },
        );
        assert_eq!(counts.len(), 100);
        // Per-worker counters only grow, proving state persistence.
        assert!(counts.iter().any(|&(_, seen)| seen > 1));
    }

    #[test]
    fn caller_panic_propagates_after_the_spawned_workers_finish() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let caller = std::thread::current().id();
        let caller_started = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_with(
                &items,
                2,
                || (),
                |(), _, _| {
                    if std::thread::current().id() == caller {
                        caller_started.store(true, Ordering::SeqCst);
                        panic!("the caller's share");
                    }
                    // The spawned worker waits for the caller to take
                    // an item, then drains the rest slowly.
                    while !caller_started.load(Ordering::SeqCst) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    finished.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        let err = result.expect_err("the caller's panic propagates");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"the caller's share"));
        // The caller took one item and panicked on it; the panic surfaced
        // only after the spawned worker had processed every other item.
        assert_eq!(finished.load(Ordering::SeqCst), items.len() - 1);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(par_map::<u32, u32, _>(&[], 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn try_max_threads_agrees_with_max_threads() {
        // Neither form consults the env here beyond what the other does;
        // with a clean/valid environment both return the same count.
        assert_eq!(try_max_threads().unwrap(), max_threads());
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_preserves_order() {
        let mut items: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 4, 8] {
            let mut clone = items.clone();
            let out = par_map_mut(&mut clone, threads, |i, x| {
                *x += 1;
                *x + i as u64
            });
            let seq: Vec<u64> = items.iter().map(|&x| x + x + 1).collect();
            assert_eq!(out, seq, "threads={threads}");
            assert!(clone.iter().zip(&items).all(|(a, b)| *a == b + 1));
        }
        let _ = &mut items;
    }

    #[test]
    fn par_map_mut_empty_and_single() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(par_map_mut(&mut empty, 4, |_, x| *x).is_empty());
        let mut one = vec![7u32];
        assert_eq!(par_map_mut(&mut one, 4, |_, x| *x + 1), vec![8]);
    }

    #[test]
    fn thread_override_accepts_positive_integers() {
        assert_eq!(parse_thread_override(None), Ok(None));
        assert_eq!(parse_thread_override(Some("1")), Ok(Some(1)));
        assert_eq!(parse_thread_override(Some("16")), Ok(Some(16)));
        assert_eq!(parse_thread_override(Some(" 4 ")), Ok(Some(4)));
    }

    #[test]
    fn thread_override_rejects_zero_and_garbage() {
        for bad in ["0", "", "  ", "-3", "two", "4.5", "1e3"] {
            let err = parse_thread_override(Some(bad)).unwrap_err();
            assert!(
                err.contains("AFD_THREADS") && err.contains("positive"),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }
}
