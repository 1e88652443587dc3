//! Shared concurrency utilities for the MRLC workspace.
//!
//! The experiment sweeps fan embarrassingly parallel work across cores
//! while requiring **bitwise deterministic** output: [`parallel_map`]
//! collects results by index, so parallel and serial executions are
//! indistinguishable to callers.

use parking_lot::Mutex;

/// Maps `f` over `0..count` in parallel (one logical task per index,
/// work-split across the machine's cores with crossbeam scoped threads)
/// and returns the results in index order.
///
/// `f` must be deterministic in its index — every experiment seeds its RNG
/// from the index — so parallel and serial runs produce identical output.
pub fn parallel_map<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(count);
    if threads <= 1 {
        return (0..count).map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let value = f(i);
                results.lock().push((i, value));
            });
        }
    })
    .expect("worker panicked during a parallel sweep");
    let mut collected = results.into_inner();
    collected.sort_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<usize> = parallel_map(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn matches_serial_execution() {
        let serial: Vec<u64> = (0..37).map(|i| (i as u64).wrapping_mul(0x9E3779B9)).collect();
        let par = parallel_map(37, |i| (i as u64).wrapping_mul(0x9E3779B9));
        assert_eq!(serial, par);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        parallel_map(8, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }
}
