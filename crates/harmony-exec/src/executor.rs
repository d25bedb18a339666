//! The order-preserving scoped worker pool.

use crate::cache::MemoCache;
use crate::obs;
use harmony_obs::event::monotonic_us;
use harmony_obs::trace::{self, stage, TraceContext};
use harmony_space::Configuration;
use std::collections::HashMap;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A batch evaluator over a fixed number of jobs.
///
/// Workers are scoped threads spawned per batch (`std::thread::scope`),
/// claiming work items through a shared atomic cursor and reporting
/// results tagged with their input index — so the output order is the
/// input order and, for a pure evaluation function, the parallel result
/// is bit-identical to the sequential one.
///
/// A panicking evaluation does not poison anything: the remaining items
/// are abandoned, every worker drains, and the panic is re-raised in
/// the caller once the pool has been torn down. The next
/// [`evaluate_batch`](Executor::evaluate_batch) on the same executor
/// starts clean.
#[derive(Debug, Clone)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor running `jobs` evaluations concurrently (clamped to
    /// at least 1). `Executor::new(1)` is exactly the sequential loop.
    pub fn new(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1) }
    }

    /// The configured concurrency.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluate every configuration, returning results in input order
    /// (`out[i] == eval(&configs[i])`): performances, or whatever a
    /// fallible evaluation returns per item.
    ///
    /// # Panics
    /// Re-raises the first panic any evaluation raised, after all
    /// workers have drained.
    pub fn evaluate_batch<T, F>(&self, configs: &[Configuration], eval: &F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Configuration) -> T + Sync,
    {
        obs::batches_total().inc();
        obs::evaluations_total().add(configs.len() as u64);
        let _timer = obs::batch_seconds().start_timer();
        // When the caller is inside a trace, every batch item gets a
        // queue-wait span (submission → claimed by a worker) and a run
        // span (claimed → done) under the caller's current span — the
        // "was it slow, or just waiting for a slot?" attribution.
        let tctx = if trace::is_enabled() {
            trace::current()
        } else {
            None
        };
        let batch_start = monotonic_us();
        let workers = self.jobs.min(configs.len());
        if workers <= 1 {
            return configs
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let claimed = monotonic_us();
                    let v = eval(c);
                    if let Some(ctx) = &tctx {
                        record_item(ctx, i, batch_start, claimed, false);
                    }
                    v
                })
                .collect();
        }

        let queue = obs::queue_depth();
        queue.add(configs.len() as i64);
        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let mut results: Vec<Option<T>> = configs.iter().map(|_| None).collect();
        let mut processed = 0usize;
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (cursor, abort, tctx) = (&cursor, &abort, &tctx);
                    scope.spawn(move || {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        let mut caught: Option<Box<dyn std::any::Any + Send>> = None;
                        while !abort.load(Ordering::Relaxed) {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= configs.len() {
                                break;
                            }
                            let claimed = monotonic_us();
                            match catch_unwind(AssertUnwindSafe(|| eval(&configs[i]))) {
                                Ok(v) => {
                                    local.push((i, v));
                                    queue.dec();
                                    if let Some(ctx) = tctx {
                                        record_item(ctx, i, batch_start, claimed, false);
                                    }
                                }
                                Err(p) => {
                                    abort.store(true, Ordering::Relaxed);
                                    caught = Some(p);
                                    queue.dec();
                                    if let Some(ctx) = tctx {
                                        record_item(ctx, i, batch_start, claimed, true);
                                    }
                                    break;
                                }
                            }
                        }
                        (local, caught)
                    })
                })
                .collect();
            for h in handles {
                let (local, caught) = h.join().expect("executor worker cannot panic");
                processed += local.len();
                for (i, v) in local {
                    results[i] = Some(v);
                }
                if let Some(p) = caught {
                    processed += 1;
                    panic_payload.get_or_insert(p);
                }
            }
        });

        // Items never claimed (abandoned after a panic) are still on the
        // gauge; take them off so the depth returns to zero.
        queue.add(processed as i64 - configs.len() as i64);
        if let Some(p) = panic_payload {
            resume_unwind(p);
        }
        results
            .into_iter()
            .map(|v| v.expect("every item is evaluated unless one panicked"))
            .collect()
    }

    /// Like [`evaluate_batch`](Self::evaluate_batch), but consult
    /// `cache` before any measurement and record results into it.
    ///
    /// Duplicate misses within one batch are measured once and share the
    /// value — the same answer a sequential consult-then-measure loop
    /// would produce, where the first measurement seeds the cache for
    /// every later occurrence.
    pub fn evaluate_batch_cached<F>(
        &self,
        configs: &[Configuration],
        cache: &MemoCache,
        eval: &F,
    ) -> Vec<f64>
    where
        F: Fn(&Configuration) -> f64 + Sync,
    {
        let Ok(out) =
            self.try_evaluate_batch_cached(configs, cache, &|c| Ok::<_, Infallible>(eval(c)));
        out
    }

    /// [`evaluate_batch_cached`](Self::evaluate_batch_cached) over a
    /// fallible evaluation: returns the batch's first failure in input
    /// order — the one a sequential loop meets first — and caches
    /// nothing from a batch that failed.
    pub fn try_evaluate_batch_cached<F, E>(
        &self,
        configs: &[Configuration],
        cache: &MemoCache,
        eval: &F,
    ) -> Result<Vec<f64>, E>
    where
        E: Send,
        F: Fn(&Configuration) -> Result<f64, E> + Sync,
    {
        let cached: Vec<Option<f64>> = configs.iter().map(|c| cache.get(c)).collect();
        // Unique missing configurations, in first-occurrence order.
        let mut miss_slot: HashMap<&Configuration, usize> = HashMap::new();
        let mut misses: Vec<Configuration> = Vec::new();
        for (c, hit) in configs.iter().zip(&cached) {
            if hit.is_none() && !miss_slot.contains_key(c) {
                miss_slot.insert(c, misses.len());
                misses.push(c.clone());
            }
        }
        // Misses are in first-occurrence order, so the first failed miss
        // is the batch's first failure.
        let measured: Vec<f64> = self
            .evaluate_batch(&misses, eval)
            .into_iter()
            .collect::<Result<_, E>>()?;
        for (c, &v) in misses.iter().zip(&measured) {
            cache.insert(c, v);
        }
        Ok(configs
            .iter()
            .zip(cached)
            .map(|(c, hit)| hit.unwrap_or_else(|| measured[miss_slot[c]]))
            .collect())
    }
}

impl Default for Executor {
    /// The sequential executor.
    fn default() -> Self {
        Executor::new(1)
    }
}

/// One batch item's trace attribution: a `queue.wait` span from batch
/// submission to the moment a worker claimed the item, and an
/// `exec.run` span from the claim to now (the evaluation just ended).
/// `detail` is the item's batch index.
fn record_item(ctx: &TraceContext, index: usize, batch_start: u64, claimed: u64, error: bool) {
    let detail = index.to_string();
    trace::record_span(
        ctx.trace_id,
        trace::new_id(),
        ctx.span_id,
        stage::QUEUE_WAIT,
        &detail,
        batch_start,
        claimed,
        false,
    );
    trace::record_span(
        ctx.trace_id,
        trace::new_id(),
        ctx.span_id,
        stage::EXEC_RUN,
        &detail,
        claimed,
        monotonic_us(),
        error,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs(n: i64) -> Vec<Configuration> {
        (0..n)
            .map(|i| Configuration::new(vec![i, i * 3 % 17]))
            .collect()
    }

    fn eval(c: &Configuration) -> f64 {
        (c.get(0) * 31 + c.get(1)) as f64 * 0.125
    }

    #[test]
    fn preserves_input_order_at_any_job_count() {
        let cfgs = configs(100);
        let expected: Vec<f64> = cfgs.iter().map(eval).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = Executor::new(jobs).evaluate_batch(&cfgs, &eval);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let out = Executor::new(4).evaluate_batch(&[], &eval);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_clamps_to_sequential() {
        let ex = Executor::new(0);
        assert_eq!(ex.jobs(), 1);
        let cfgs = configs(5);
        assert_eq!(
            ex.evaluate_batch(&cfgs, &eval),
            cfgs.iter().map(eval).collect::<Vec<_>>()
        );
    }

    #[test]
    fn panic_propagates_and_does_not_poison_the_pool() {
        let ex = Executor::new(4);
        let cfgs = configs(50);
        let bomb = |c: &Configuration| {
            if c.get(0) == 23 {
                panic!("objective exploded");
            }
            eval(c)
        };
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| ex.evaluate_batch(&cfgs, &bomb)))
            .expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "objective exploded");
        // The same executor keeps working afterwards.
        let ok = ex.evaluate_batch(&cfgs, &eval);
        assert_eq!(ok, cfgs.iter().map(eval).collect::<Vec<_>>());
    }

    #[test]
    fn cached_batches_measure_each_unique_config_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let counted = |c: &Configuration| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval(c)
        };
        let cache = MemoCache::new(1024);
        let ex = Executor::new(4);
        // Batch with each config twice.
        let mut cfgs = configs(20);
        cfgs.extend(configs(20));
        let expected: Vec<f64> = cfgs.iter().map(eval).collect();
        let got = ex.evaluate_batch_cached(&cfgs, &cache, &counted);
        assert_eq!(got, expected);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            20,
            "duplicates share one measurement"
        );
        // A second pass is answered entirely from the cache.
        let again = ex.evaluate_batch_cached(&cfgs, &cache, &counted);
        assert_eq!(again, expected);
        assert_eq!(calls.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn the_first_failure_in_input_order_wins_and_is_never_cached() {
        // Items 5 and up fail; item 5 is the slowest, so at jobs > 1 a
        // later item fails first in time.
        let flaky = |c: &Configuration| {
            if c.get(0) == 5 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            if c.get(0) >= 5 {
                Err(c.get(0))
            } else {
                Ok(eval(c))
            }
        };
        let cfgs = configs(12);
        for jobs in [1, 2, 4] {
            let ex = Executor::new(jobs);
            let cache = MemoCache::new(64);
            let got = ex.try_evaluate_batch_cached(&cfgs, &cache, &flaky);
            assert_eq!(got, Err(5), "jobs={jobs}");
            assert!(cache.is_empty(), "a failed batch caches nothing");
            let got = ex.try_evaluate_batch_cached(&cfgs[..5], &cache, &flaky);
            assert_eq!(got, Ok(cfgs[..5].iter().map(eval).collect::<Vec<_>>()));
        }
    }
}
