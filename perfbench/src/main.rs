//! The repository benchmark's measuring program. `run.py` builds it, times
//! its set-up, and wraps its last output line into the result record.
//!
//! ```text
//! perfbench run   --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench setup --workload <name> --seed <n> --seconds <s>
//! ```
//!
//! `run` prints explanatory lines starting with `#`, then one JSON line
//! `{"attempted": .., "failed": .., "metrics": {..}}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `setup` builds the workload's inputs (and, for served-mix, starts the
//! daemon and connects), prints the seconds it spent choosing graphs by
//! separator band, and exits.

mod config;
mod counting;
mod direct;
mod inputs;
mod probe;
mod served;
mod stats;
mod validate;

use config::{Workload, COLD_START, RANKED_SEQ};
use stats::Metrics;
use std::time::Duration;

/// The end-to-end metrics this program reports (`setup_s` is added by
/// `run.py`, which times whole set-up processes).
const END_TO_END: &[(&str, &str)] = &[
    ("first_result_ms.p50", "ms"),
    ("first_result_ms.tail", "ms"),
    ("delay_ms.p50", "ms"),
    ("delay_ms.tail", "ms"),
    ("request_ms.p50", "ms"),
    ("request_ms.tail", "ms"),
    ("results_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run. A layer a workload never
/// reaches reads 0 there (the cache and daemon layers on the in-process
/// workloads, the counting wrapper and pool on served-mix).
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.request_ms", "ms"),
    ("trace.traced_request_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.accounted_ms", "ms"),
    ("trace.unaccounted_ms", "ms"),
    ("load.generator_lag_ms.tail", "ms"),
    ("pmc.minseps_ms", "ms"),
    ("pmc.minseps.count", "count"),
    ("pmc.enumerate_ms", "ms"),
    ("pmc.enumerate_bounded_ms", "ms"),
    ("pmc.count", "count"),
    ("core.prepare.blocks_ms", "ms"),
    ("core.prepare.blocks.count", "count"),
    ("core.dp.root_solve_ms", "ms"),
    ("core.dp.solves", "count"),
    ("core.dp.combines", "count"),
    ("core.dp.combines_per_solve", "count"),
    ("core.lawler.enumerate_ms", "ms"),
    ("core.lawler.results_per_solve", "ratio"),
    ("core.lawler.pruned", "count"),
    ("core.lawler.replayed", "count"),
    ("core.lawler.max_queue_depth", "count"),
    ("core.pool.tasks", "count"),
    ("core.pool.steals", "count"),
    ("core.pool.task_ns", "ns"),
    ("core.pool.worker_spread", "ratio"),
    ("graph.automorphisms_ms", "ms"),
    ("graph.canonical_ms", "ms"),
    ("reduce.decompose_ms", "ms"),
    ("reduce.atoms", "count"),
    ("reduce.atoms_deduped", "count"),
    ("reduce.stream.advances", "count"),
    ("reduce.stream.advance_ns", "ns"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.publishes", "count"),
    ("cache.evictions", "count"),
    ("cache.lookup_ns", "ns"),
    ("cache.publish_ns", "ns"),
    ("serve.admission_wait_ms", "ms"),
    ("serve.first_result_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.warm_frac", "fraction"),
    ("serve.backpressure_stalls", "count"),
];

/// What a workload run hands back for printing.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// The stream digest of a measured run.
    pub digest: Option<String>,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench <run|setup> --workload <ranked-seq|cold-start|served-mix> \
         --seed <n> --seconds <s> [--trace <0|1>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().unwrap_or_else(|| usage("missing mode"));
    if mode != "run" && mode != "setup" {
        usage(&format!("unknown mode {mode:?}"));
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = value == "1",
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        mode,
        workload: workload.unwrap_or_else(|| usage("--workload names no workload")),
        seed: seed.unwrap_or_else(|| usage("--seed must be a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be positive")),
        trace,
    }
}

fn main() {
    let args = parse_args();
    let host = mtr_bench::host_parallelism();
    let wanted = args.workload.parallelism();
    if wanted > host {
        eprintln!(
            "perfbench: {} is configured for {wanted} threads or connections, \
             but this host has {host}; refusing to measure oversubscription",
            args.workload.name()
        );
        std::process::exit(2);
    }

    let ranked_seq = || inputs::ranked_seq(args.seed);
    let cold_start = || inputs::cold_start(args.seed);
    let ranked_settings = direct::Settings {
        threads: RANKED_SEQ.threads,
        top: RANKED_SEQ.top,
        tails: RANKED_SEQ.tails,
    };
    let cold_settings = direct::Settings {
        threads: COLD_START.threads,
        top: COLD_START.top,
        tails: COLD_START.tails,
    };

    if args.mode == "setup" {
        // Ready to measure, then exit: the daemon's threads end with the
        // process (its graceful drain is not set-up work).
        match args.workload {
            Workload::RankedSeq => drop(std::hint::black_box(ranked_seq())),
            Workload::ColdStart => drop(std::hint::black_box(cold_start())),
            Workload::ServedMix => {
                drop(std::hint::black_box(served::setup(args.seed, args.seconds)))
            }
        }
        println!("{}", inputs::selection_s());
        return;
    }

    let outcome = match (args.workload, args.trace) {
        (Workload::RankedSeq, false) => {
            direct::measure(&ranked_seq(), &ranked_settings, args.seconds)
        }
        (Workload::RankedSeq, true) => direct::trace(&ranked_seq(), &ranked_settings, args.seconds),
        (Workload::ColdStart, false) => {
            direct::measure(&cold_start(), &cold_settings, args.seconds)
        }
        (Workload::ColdStart, true) => direct::trace(&cold_start(), &cold_settings, args.seconds),
        (Workload::ServedMix, false) => served::measure(args.seed, args.seconds),
        (Workload::ServedMix, true) => served::trace(args.seed, args.seconds),
    };
    println!(
        "# {} seed {} over {} s, {} threads/connections of {host}",
        args.workload.name(),
        args.seed,
        args.seconds,
        wanted
    );
    for note in &outcome.metrics.notes {
        println!("# {note}");
    }
    let mut failed = outcome.failed;
    if let Some(digest) = &outcome.digest {
        println!("# stream_digest {digest}");
        let recorded = config::recorded_digest(args.workload, args.seed);
        if recorded.is_some_and(|r| r != digest) {
            failed += 1;
            println!(
                "# FAILED stream_digest differs from the one recorded for this seed, {}",
                recorded.unwrap_or_default()
            );
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.metrics.render(names)
    );
}
