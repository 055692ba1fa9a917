//! The order-preserving parallel map every batch fans out on.
//!
//! Workers claim one index at a time from a shared atomic cursor and
//! write each result into that index's slot, so the output order is
//! the input order whichever worker ran an item. One item per claim
//! balances heterogeneous costs (a SHA-1 point next to a GSE one)
//! without any per-worker queues: an idle worker simply claims the
//! next unstarted item.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on scoped threads sized to the machine
/// (`available_parallelism`, clamped to the item count), preserving
/// input order in the result. Zero or one item runs inline.
///
/// # Panics
///
/// Propagates the first panic from `f` with its original payload.
/// A panicking task stops the other workers from claiming further
/// items; they finish the item in hand and the payload is re-raised on
/// the caller (`std::thread::scope`'s own re-panic would replace it
/// with a generic message).
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while !abort.load(Ordering::Relaxed) {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(r) => *slots[i].lock().expect("result slot poisoned") = Some(r),
                        Err(payload) => {
                            abort.store(true, Ordering::Relaxed);
                            panic_payload
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .get_or_insert(payload);
                        }
                    }
                }
            });
        }
    });

    if let Some(payload) = panic_payload
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
    {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item was claimed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..997).collect();
        let out = parallel_map(&items, |&x| x * 3 + 1);
        assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_singleton_inputs() {
        assert!(parallel_map(&[] as &[u32], |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn parallel_map_propagates_panics() {
        let items: Vec<u32> = (0..32).collect();
        let _ = parallel_map(&items, |&x| {
            assert!(x != 17, "deliberate pool panic");
            x
        });
    }

    #[test]
    fn a_panicking_task_stops_further_claims() {
        let items: Vec<u32> = (0..200).collect();
        let ran = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, |&x| {
                assert!(x != 0, "deliberate pool panic");
                ran.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
        }));
        assert!(outcome.is_err());
        assert!(
            ran.into_inner() < items.len() / 2,
            "workers drained the batch"
        );
    }
}
