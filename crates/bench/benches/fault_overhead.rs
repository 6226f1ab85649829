//! Fault-injection overhead: `mtr-fault` failpoints sit on the cache's
//! disk path, the pool's task dispatch, and the daemon's session entry,
//! so the disabled cost must be measured, not assumed.
//!
//! * `fault_overhead` — the `ranked_first_10_results` workload (same
//!   instances as the `enumeration` and `obs_overhead` benches, so rows
//!   compare directly against `BENCH_baseline.json` and
//!   `BENCH_obs.json`) with the registry `disarmed` (every check is one
//!   relaxed atomic load — the zero-cost budget) and with an `armed`
//!   unrelated point (the hit points stay cold but the global gate is
//!   up, so every check takes the registry lock — the worst case a
//!   forgotten `--fault` flag can cause).
//! * `check_disarmed` — the raw cost of `mtr_fault::check` with nothing
//!   armed, in a tight loop (the per-call price on hot paths).
//!
//! Snapshot with `MTR_BENCH_JSON=BENCH_fault.json cargo bench -p
//! mtr-bench --bench fault_overhead`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtr_bench::baseline_instances;
use mtr_core::cost::Width;
use mtr_core::{Enumerate, Preprocessed};
use std::time::Duration;

/// The baseline workload with the failpoint registry disarmed (the
/// production configuration) and with an unrelated point armed (gate up,
/// hit points cold).
fn bench_fault_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_overhead");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for mode in ["disarmed", "armed"] {
        match mode {
            // An armed point no workload ever hits: the global gate is
            // raised, so every check pays the slow path's registry
            // probe without any fault actually firing.
            "armed" => mtr_fault::configure("bench.unrelated", mtr_fault::Outcome::Error),
            _ => mtr_fault::clear_all(),
        }
        for (name, g) in baseline_instances() {
            let pre = Preprocessed::new(&g);
            group.bench_with_input(BenchmarkId::new(mode, name), &pre, |b, pre| {
                b.iter(|| {
                    Enumerate::with(pre)
                        .cost(&Width)
                        .max_results(10)
                        .run()
                        .expect("session is well-configured")
                        .results
                        .len()
                })
            });
        }
    }
    mtr_fault::clear_all();
    group.finish();
}

/// The raw per-call cost of a disarmed check — the exact expression on
/// the pool/cache/serve hot paths.
fn bench_check_disarmed(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_disarmed");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    mtr_fault::clear_all();
    group.bench_with_input(BenchmarkId::new("check", "x1000"), &(), |b, ()| {
        b.iter(|| {
            let mut ok = 0u32;
            for _ in 0..1000 {
                if mtr_fault::check("pool.task").is_ok() {
                    ok += 1;
                }
            }
            ok
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fault_overhead, bench_check_disarmed);
criterion_main!(benches);
