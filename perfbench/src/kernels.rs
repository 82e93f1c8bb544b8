//! The benchmark's own fork-join kernels and serial references, written
//! against the public `Fork` API so that what is measured does not
//! change when the repository's workload crate does.

use std::hint::black_box;
use wool_core::{Fork, TaskSpecific, WoolFull, WorkerHandle};

/// fib without cutoff on the full Wool strategy: one spawn and one join
/// per call with `n ≥ 2`. Not generic, so the binary holds exactly one
/// copy of it for the static instruction ledger to find by name.
#[inline(never)]
pub fn fib_kernel(h: &mut WorkerHandle<WoolFull>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = h.fork(|h| fib_kernel(h, n - 1), |h| fib_kernel(h, n - 2));
    a + b
}

/// [`fib_kernel`] on the task-specific strategy, where every task is
/// public and every join is an atomic swap. Same shape, so the two
/// per-task costs compare like for like.
#[inline(never)]
pub fn fib_kernel_public(h: &mut WorkerHandle<TaskSpecific>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = h.fork(
        |h| fib_kernel_public(h, n - 1),
        |h| fib_kernel_public(h, n - 2),
    );
    a + b
}

/// Serial reference for [`fib_kernel`]: the same recursion without a
/// scheduler.
#[inline(never)]
pub fn fib_serial(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    fib_serial(black_box(n - 1)) + fib_serial(black_box(n - 2))
}

/// Spawns performed by [`fib`]`(n)`: `S(n) = S(n-1) + S(n-2) + 1`, which
/// is `fib(n+1) - 1`.
pub fn fib_spawns(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..=n {
        (a, b) = (b, a + b);
    }
    a - 1
}

/// Closed-form fib for checking results.
pub fn fib_value(n: u64) -> u64 {
    fib_spawns(n.saturating_sub(1)) + u64::from(n >= 1)
}

/// The §IV-A stress leaf: a register-only, latency-bound loop.
#[inline(never)]
pub fn leaf(iters: u64) -> u64 {
    let mut x = iters | 1;
    for _ in 0..iters {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7);
    }
    black_box(x)
}

/// A balanced binary task tree of `height` with [`leaf`] at the leaves.
pub fn tree<C: Fork>(c: &mut C, height: u32, iters: u64) -> u64 {
    if height == 0 {
        return leaf(iters);
    }
    let (a, b) = c.fork(
        |c| tree(c, height - 1, iters),
        |c| tree(c, height - 1, iters),
    );
    a.wrapping_add(b)
}

/// Serial reference for [`tree`].
pub fn tree_serial(height: u32, iters: u64) -> u64 {
    if height == 0 {
        return leaf(iters);
    }
    tree_serial(height - 1, iters).wrapping_add(tree_serial(height - 1, iters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wool_core::Pool;

    #[test]
    fn fib_counts_and_values() {
        assert_eq!(fib_spawns(0), 0);
        assert_eq!(fib_spawns(1), 0);
        assert_eq!(fib_spawns(2), 1);
        assert_eq!(fib_spawns(12), 232);
        assert_eq!(fib_spawns(30), 1_346_268);
        for n in 0..25 {
            assert_eq!(fib_value(n), fib_serial(n), "n={n}");
        }
    }

    #[test]
    fn kernels_match_references_and_spawn_counts() {
        let mut pool: Pool = Pool::new(2);
        assert_eq!(pool.run(|h| fib_kernel(h, 20)), fib_serial(20));
        assert_eq!(pool.last_report().unwrap().total.spawns, fib_spawns(20));
        let mut public: Pool<TaskSpecific> = Pool::new(2);
        assert_eq!(public.run(|h| fib_kernel_public(h, 18)), fib_serial(18));
        assert_eq!(pool.run(|h| tree(h, 5, 64)), tree_serial(5, 64));
        assert_eq!(pool.last_report().unwrap().total.spawns, 31);
    }
}
