//! The benchmark's fixed settings: the workloads, the served-mix rate and
//! the store budget. README.md explains how each value was chosen.

/// The three workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RankedSeq,
    ColdStart,
    ServedMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ranked-seq" => Some(Workload::RankedSeq),
            "cold-start" => Some(Workload::ColdStart),
            "served-mix" => Some(Workload::ServedMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RankedSeq => "ranked-seq",
            Workload::ColdStart => "cold-start",
            Workload::ServedMix => "served-mix",
        }
    }

    /// The most threads or connections the workload asks of the host.
    pub fn parallelism(self) -> usize {
        match self {
            Workload::RankedSeq => RANKED_SEQ.threads,
            Workload::ColdStart => COLD_START.threads,
            Workload::ServedMix => SERVED_MIX.runners.max(SERVED_MIX.connections),
        }
    }
}

/// The stream digests of the in-process workloads at the default seed (1)
/// and the held-out seed kept for later claims (7349). Every input's stream
/// enters the digest whatever the window, so a run on one of these seeds
/// must reproduce it bit for bit. served-mix records none: its digest
/// covers only the requests that arrive in the window.
const DIGESTS: &[(Workload, u64, &str)] = &[
    (Workload::RankedSeq, 1, "332e54701fb7ad72"),
    (Workload::RankedSeq, 7349, "4ba7d8caa3eb258d"),
    (Workload::ColdStart, 1, "a530a04d3669651c"),
    (Workload::ColdStart, 7349, "9050740449964afc"),
];

pub fn recorded_digest(workload: Workload, seed: u64) -> Option<&'static str> {
    DIGESTS
        .iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
        .map(|&(_, _, digest)| digest)
}

/// The quantile each latency metric reports as its tail, per workload.
#[derive(Clone, Copy)]
pub struct Tails {
    pub first_result: f64,
    pub delay: f64,
    pub request: f64,
}

pub struct RankedSeq {
    pub tails: Tails,
    pub threads: usize,
    pub top: usize,
    pub gnp_n: u32,
    pub gnp_p: f64,
    pub gnp_draws: usize,
    pub minseps_band: [usize; 2],
}

pub struct ColdStart {
    pub tails: Tails,
    pub threads: usize,
    pub top: usize,
    pub gnp_n: u32,
    pub gnp_p: f64,
    pub gnp_minseps_band: [usize; 2],
    pub grid_side: u32,
    pub grid_noise: f64,
    pub grid_minseps_band: [usize; 2],
    pub dbn_slices: u32,
    pub dbn_per_slice: u32,
    pub dbn_minseps_band: [usize; 2],
    pub draws_per_family: usize,
}

pub struct ServedMix {
    pub tails: Tails,
    pub runners: usize,
    pub connections: usize,
    pub tenants: usize,
    pub rate_per_s: f64,
    pub top: usize,
    pub blobs: u32,
    pub blob_n: u32,
    pub store_budget_bytes: usize,
}

pub const RANKED_SEQ: RankedSeq = RankedSeq {
    tails: Tails {
        first_result: 0.9,
        delay: 0.99,
        request: 0.9,
    },
    threads: 1,
    top: 25,
    gnp_n: 20,
    gnp_p: 0.2,
    gnp_draws: 160,
    minseps_band: [75, 95],
};

pub const COLD_START: ColdStart = ColdStart {
    tails: Tails {
        first_result: 0.9,
        delay: 0.9,
        request: 0.9,
    },
    threads: 2,
    top: 5,
    gnp_n: 25,
    gnp_p: 0.15,
    gnp_minseps_band: [100, 140],
    grid_side: 5,
    grid_noise: 0.7,
    grid_minseps_band: [140, 180],
    dbn_slices: 5,
    dbn_per_slice: 5,
    dbn_minseps_band: [100, 140],
    draws_per_family: 32,
};

pub const SERVED_MIX: ServedMix = ServedMix {
    tails: Tails {
        first_result: 0.9,
        delay: 0.99,
        request: 0.9,
    },
    runners: 2,
    connections: 2,
    tenants: 8,
    rate_per_s: 40.0,
    top: 10,
    blobs: 2,
    blob_n: 10,
    store_budget_bytes: 64 * 1024,
};
