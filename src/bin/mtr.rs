//! `mtr` — command-line ranked enumeration of minimal triangulations and
//! proper tree decompositions.
//!
//! ```text
//! mtr <graph-file|-> [--format pace|dimacs|edges] [--cost width|fill|width-fill|expbags]
//!                    [--top <k>] [--width-bound <b>] [--threads <t>]
//!                    [--diverse <threshold>] [--deadline <secs>] [--node-budget <n>]
//!                    [--reduce off|components|full] [--stats-json]
//!                    [--emit-td <directory>] [--bounds] [--trace-json <path>]
//! mtr atoms <graph-file|-> [--format pace|dimacs|edges] [--reduce components|full]
//! mtr serve [--addr <host:port>] [--unix <path>] [--workers <n>] [--cache-dir <dir>]
//!           [--byte-budget <bytes>] [--max-sessions <n>] [--max-results-cap <k>]
//!           [--deadline-cap <secs>] [--node-budget-cap <n>] [--max-vertices <n>]
//!           [--max-edges <m>] [--no-remote-shutdown] [--slow-ms <ms>]
//!           [--trace-json <path>]
//! mtr client <graph-file|-> [--addr <host:port>] [--unix <path>] [--cost <name>]
//!           [--top <k>] [--width-bound <b>] [--deadline <secs>] [--node-budget <n>]
//!           [--threads <t>] [--tenant <name>] [--cache] [--binary] [--stats-json]
//!           [--metrics] [--shutdown]
//! ```
//!
//! The graph is read from a file, or from standard input when the path is
//! `-`. The format is guessed from the extension (`.gr` → PACE, `.col` →
//! DIMACS, anything else → edge list) unless `--format` is given. The tool
//! builds an [`Enumerate`] session from the flags, prints the cost, width
//! and fill-in of each returned triangulation plus the session statistics
//! (machine-readable with `--stats-json`), and optionally writes each
//! clique tree as a PACE `.td` file.
//!
//! `--reduce` enables the safe-reduction / atom-decomposition preprocessing
//! of `mtr-reduce`; the `atoms` subcommand prints the decomposition itself
//! without enumerating.
//!
//! `serve` starts the `mtr-serve` daemon (see `docs/PROTOCOL.md`):
//! streaming ranked enumeration over TCP or a Unix socket with a shared
//! atom cache and cache-aware admission. `client` submits one request to a
//! running daemon and prints the streamed results; `--shutdown` asks the
//! daemon to drain and exit afterwards (with `-` as the graph path it
//! sends no request at all — a pure shutdown).
//!
//! Bad inputs exit with a non-zero status and a typed, line-numbered
//! message (see [`EnumerationError`]) instead of panicking.

use ranked_triangulations::cache::{self, AtomStore, StoreStats, DEFAULT_BYTE_BUDGET};
use ranked_triangulations::chordal::{self, clique_tree, write_td};
use ranked_triangulations::core::{
    Enumerate, EnumerationError, EnumerationRun, EnumerationStats, RankedTriangulation,
    SimilarityMeasure, StopReason, SymmetryPolicy,
};
use ranked_triangulations::fault;
use ranked_triangulations::graph::{io, Graph};
use ranked_triangulations::obs;
use ranked_triangulations::reduce::{decompose, EnumerateReduceExt, ReductionLevel};
use ranked_triangulations::serve;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// What the invocation asks for: ranked enumeration (the default) or an
/// inspection of the atom decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Enumerate,
    Atoms,
}

struct Options {
    mode: Mode,
    input: PathBuf,
    format: Option<String>,
    cost: String,
    top: usize,
    width_bound: Option<usize>,
    threads: usize,
    diverse: Option<f64>,
    deadline: Option<f64>,
    node_budget: Option<usize>,
    reduce: ReductionLevel,
    cache: bool,
    cache_dir: Option<PathBuf>,
    symmetry: SymmetryPolicy,
    stats_json: bool,
    emit_td: Option<PathBuf>,
    bounds: bool,
    trace_json: Option<PathBuf>,
    fault: Option<String>,
}

/// Everything the CLI can fail with: flag misuse, or a typed enumeration
/// error (file I/O, parse failures with line numbers, unknown costs, …).
enum CliError {
    Usage(String),
    Enumeration(EnumerationError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(message) => f.write_str(message),
            CliError::Enumeration(e) => write!(f, "{e}"),
        }
    }
}

impl From<EnumerationError> for CliError {
    fn from(e: EnumerationError) -> Self {
        CliError::Enumeration(e)
    }
}

fn usage() -> &'static str {
    "usage: mtr <graph-file|-> [--format pace|dimacs|edges] [--cost width|fill|width-fill|expbags]\n\
     \x20          [--top <k>] [--width-bound <b>] [--threads <t>] [--diverse <threshold>]\n\
     \x20          [--deadline <secs>] [--node-budget <n>] [--reduce off|components|full]\n\
     \x20          [--cache] [--cache-dir <directory>] [--modulo-symmetry]\n\
     \x20          [--stats-json] [--emit-td <directory>] [--bounds] [--trace-json <path>]\n\
     \x20          [--fault <spec>]\n\
     \x20      mtr atoms <graph-file|-> [--format pace|dimacs|edges] [--reduce components|full]\n\
     \x20      mtr serve [--addr <host:port>] [--unix <path>] [--workers <n>] [--cache-dir <dir>]\n\
     \x20                [--byte-budget <bytes>] [--max-sessions <n>] [--max-results-cap <k>]\n\
     \x20                [--deadline-cap <secs>] [--node-budget-cap <n>] [--max-vertices <n>]\n\
     \x20                [--max-edges <m>] [--no-remote-shutdown] [--slow-ms <ms>]\n\
     \x20                [--max-session-ms <ms>] [--trace-json <path>] [--fault <spec>]\n\
     \x20      mtr client <graph-file|-> [--addr <host:port>] [--unix <path>] [--cost <name>]\n\
     \x20                [--top <k>] [--width-bound <b>] [--deadline <secs>] [--node-budget <n>]\n\
     \x20                [--threads <t>] [--tenant <name>] [--cache] [--binary] [--stats-json]\n\
     \x20                [--metrics] [--shutdown] [--retries <n>] [--backoff-ms <ms>]\n\
     \x20      --threads 0 auto-detects the hardware parallelism; with --reduce the\n\
     \x20      workers advance the per-atom streams, otherwise the partition expansions\n\
     \x20      --cache enables the canonical-form atom cache (requires --reduce);\n\
     \x20      --cache-dir additionally persists atom prefixes across runs\n\
     \x20      --modulo-symmetry emits one representative per automorphism orbit of\n\
     \x20      minimal triangulations (for label-invariant costs)\n\
     \x20      --trace-json records every span and event as JSONL (see docs/OBSERVABILITY.md);\n\
     \x20      --slow-ms logs requests whose first result took longer than the threshold;\n\
     \x20      --max-session-ms cancels any served session running past the cap;\n\
     \x20      --fault arms seeded failpoints, e.g. cache.disk.write=error%50,seed=7\n\
     \x20      (see docs/ROBUSTNESS.md for the catalog — testing only);\n\
     \x20      client --retries reissues a failed request (exponential --backoff-ms,\n\
     \x20      only when zero results were received) — safe against transient faults;\n\
     \x20      client --metrics prints the daemon's live introspection snapshot"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let first = it.next().ok_or_else(|| usage().to_string())?;
    let (mode, input) = if first == "atoms" {
        let input = it.next().ok_or_else(|| usage().to_string())?;
        (Mode::Atoms, PathBuf::from(input))
    } else {
        (Mode::Enumerate, PathBuf::from(first))
    };
    let mut opts = Options {
        mode,
        input,
        format: None,
        cost: "width".into(),
        top: 5,
        width_bound: None,
        threads: 1,
        diverse: None,
        deadline: None,
        node_budget: None,
        reduce: match mode {
            // Inspecting atoms at level `off` would always print one atom;
            // default to the full decomposition there.
            Mode::Atoms => ReductionLevel::Full,
            Mode::Enumerate => ReductionLevel::Off,
        },
        cache: false,
        cache_dir: None,
        symmetry: SymmetryPolicy::default(),
        stats_json: false,
        emit_td: None,
        bounds: false,
        trace_json: None,
        fault: None,
    };
    while let Some(flag) = it.next() {
        if mode == Mode::Atoms && !matches!(flag.as_str(), "--format" | "--reduce") {
            return Err(format!(
                "flag {flag} does not apply to the atoms subcommand\n{}",
                usage()
            ));
        }
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--format" => opts.format = Some(value("--format")?),
            "--cost" => opts.cost = value("--cost")?,
            "--top" => {
                opts.top = value("--top")?
                    .parse()
                    .map_err(|_| "--top expects a positive integer".to_string())?
            }
            "--width-bound" => {
                opts.width_bound = Some(
                    value("--width-bound")?
                        .parse()
                        .map_err(|_| "--width-bound expects an integer".to_string())?,
                )
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads expects an integer (0 = auto-detect)".to_string())?
            }
            "--diverse" => {
                opts.diverse = Some(
                    value("--diverse")?
                        .parse()
                        .map_err(|_| "--diverse expects a number in [0,1]".to_string())?,
                )
            }
            "--deadline" => {
                let secs: f64 = value("--deadline")?
                    .parse()
                    .map_err(|_| "--deadline expects a number of seconds".to_string())?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(
                        "--deadline expects a finite, non-negative number of seconds".to_string(),
                    );
                }
                opts.deadline = Some(secs);
            }
            "--node-budget" => {
                opts.node_budget = Some(
                    value("--node-budget")?
                        .parse()
                        .map_err(|_| "--node-budget expects a positive integer".to_string())?,
                )
            }
            "--reduce" => opts.reduce = value("--reduce")?.parse()?,
            "--cache" => opts.cache = true,
            "--cache-dir" => {
                opts.cache = true;
                opts.cache_dir = Some(PathBuf::from(value("--cache-dir")?));
            }
            "--modulo-symmetry" => opts.symmetry = SymmetryPolicy::ModuloSymmetry,
            "--stats-json" => opts.stats_json = true,
            "--emit-td" => opts.emit_td = Some(PathBuf::from(value("--emit-td")?)),
            "--bounds" => opts.bounds = true,
            "--trace-json" => opts.trace_json = Some(PathBuf::from(value("--trace-json")?)),
            "--fault" => opts.fault = Some(value("--fault")?),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if opts.mode == Mode::Atoms && opts.reduce == ReductionLevel::Off {
        return Err("the atoms subcommand expects --reduce components|full".to_string());
    }
    if opts.mode == Mode::Enumerate && opts.cache && opts.reduce == ReductionLevel::Off {
        return Err(
            "--cache / --cache-dir only apply to reduced sessions: add --reduce components|full"
                .to_string(),
        );
    }
    Ok(opts)
}

fn load_graph(path: &Path, format: Option<&str>) -> Result<Graph, CliError> {
    let from_stdin = path.as_os_str() == "-";
    let text = if from_stdin {
        std::io::read_to_string(std::io::stdin()).map_err(|e| EnumerationError::Io {
            path: "<stdin>".into(),
            message: e.to_string(),
        })?
    } else {
        std::fs::read_to_string(path).map_err(|e| EnumerationError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?
    };
    let format = format.map(str::to_string).unwrap_or_else(|| {
        match path.extension().and_then(|e| e.to_str()) {
            Some("gr") | Some("tw") => "pace".into(),
            Some("col") => "dimacs".into(),
            _ => "edges".into(),
        }
    });
    let graph = match format.as_str() {
        "pace" => io::parse_pace(&text).map_err(EnumerationError::from)?,
        "dimacs" => io::parse_dimacs(&text).map_err(EnumerationError::from)?,
        "edges" => io::parse_edge_list(&text).map_err(EnumerationError::from)?,
        other => {
            return Err(CliError::Usage(format!(
                "unknown format {other} (expected pace|dimacs|edges)"
            )))
        }
    };
    Ok(graph)
}

fn print_result(index: usize, g: &Graph, r: &RankedTriangulation) {
    println!(
        "#{index}: cost = {}, width = {}, fill-in = {}, bags = {}",
        r.cost,
        r.width(),
        r.fill_in(g),
        r.bags.len()
    );
}

fn emit_td(dir: &Path, index: usize, g: &Graph, r: &RankedTriangulation) -> Result<(), CliError> {
    std::fs::create_dir_all(dir).map_err(|e| EnumerationError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let tree = clique_tree(&r.triangulation).expect("triangulations are chordal");
    let path = dir.join(format!("decomposition_{index:03}.td"));
    std::fs::write(&path, write_td(&tree, g.n())).map_err(|e| EnumerationError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    println!("   wrote {}", path.display());
    Ok(())
}

/// Resolves the atom store a cached session will use — the same instance
/// the reduction layer would pick for the equivalent `CachePolicy` — so
/// the CLI can report store-wide statistics after the run.
fn resolve_store(opts: &Options) -> Result<Option<Arc<AtomStore>>, EnumerationError> {
    if !opts.cache {
        return Ok(None);
    }
    match &opts.cache_dir {
        Some(dir) => AtomStore::persistent(dir, DEFAULT_BYTE_BUDGET)
            .map(Some)
            .map_err(|e| EnumerationError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            }),
        None => Ok(Some(cache::global_store(DEFAULT_BYTE_BUDGET))),
    }
}

fn enumerate(
    g: &Graph,
    opts: &Options,
) -> Result<(EnumerationRun, Option<Arc<AtomStore>>), EnumerationError> {
    let mut session = Enumerate::on(g).cost_named(&opts.cost)?;
    if let Some(bound) = opts.width_bound {
        session = session.width_bound(bound);
    }
    session = session.threads(opts.threads).max_results(opts.top);
    if let Some(threshold) = opts.diverse {
        session = session.diverse(SimilarityMeasure::FillJaccard, threshold);
    }
    if let Some(secs) = opts.deadline {
        session = session.deadline(Duration::from_secs_f64(secs));
    }
    if let Some(nodes) = opts.node_budget {
        session = session.node_budget(nodes);
    }
    session = session.symmetry(opts.symmetry);
    // `ReductionLevel::Off` transparently runs the direct engine, so the
    // session can always go through the reduction layer. A cached session
    // attaches the explicitly resolved store (rather than a CachePolicy)
    // so `run()` can surface the store's statistics afterwards.
    let store = resolve_store(opts)?;
    let mut reduced = session.reduce(opts.reduce);
    if let Some(store) = &store {
        reduced = reduced.store(Arc::clone(store));
    }
    reduced.run().map(|run| (run, store))
}

/// Enables full tracing and attaches a JSONL sink at `path` (the
/// `--trace-json` flag). The returned handle is flushed when the command
/// finishes — the global sink registry keeps its own reference alive.
fn setup_trace(path: &Path) -> Result<Arc<obs::JsonlSink>, CliError> {
    let sink = obs::JsonlSink::create(path).map_err(|e| {
        CliError::Enumeration(EnumerationError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    })?;
    obs::install_sink(sink.clone());
    obs::raise_level(obs::Level::Trace);
    Ok(sink)
}

/// Renders store-wide statistics as a JSON object (the `"store"` key of
/// `--stats-json` output).
fn store_stats_json(stats: StoreStats) -> String {
    format!(
        "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"disk_errors\": {}}}",
        stats.hits, stats.misses, stats.evictions, stats.disk_errors
    )
}

/// Renders the run's statistics as a single JSON object (the `--stats-json`
/// output). Delegates to [`EnumerationStats::to_json`], the shared
/// serialization also emitted by the `mtr serve` daemon's stats frames;
/// a cached session additionally splices in the store-wide `"store"`
/// object.
fn stats_json(
    stats: &EnumerationStats,
    stop_reason: StopReason,
    store: Option<StoreStats>,
) -> String {
    let base = stats.to_json(stop_reason);
    match store {
        None => base,
        Some(s) => format!(
            "{}, \"store\": {}}}",
            base.strip_suffix('}').expect("stats render as an object"),
            store_stats_json(s)
        ),
    }
}

/// Renders a vertex set compactly, eliding long lists.
fn format_vertices(set: &ranked_triangulations::graph::VertexSet) -> String {
    const SHOWN: usize = 16;
    let vs = set.to_vec();
    let mut parts: Vec<String> = vs.iter().take(SHOWN).map(|v| v.to_string()).collect();
    if vs.len() > SHOWN {
        parts.push(format!("… +{}", vs.len() - SHOWN));
    }
    format!("{{{}}}", parts.join(" "))
}

fn run_atoms(g: &Graph, opts: &Options) -> Result<(), CliError> {
    let dec = decompose(g, opts.reduce);
    println!(
        "decomposition at level {}: {} atoms (largest {}), {} clique separators, {} simplicial vertices eliminated",
        dec.level,
        dec.atoms.len(),
        dec.largest_atom(),
        dec.clique_separators.len(),
        dec.simplicial.len()
    );
    // Canonical keys make the dedup potential visible: atoms sharing a key
    // are isomorphic, so the cache would run one stream for the group.
    let keys: Vec<ranked_triangulations::graph::CanonicalKey> = dec
        .atoms
        .iter()
        .map(|atom| atom.graph.canonical_form().key)
        .collect();
    let mut groups: HashMap<ranked_triangulations::graph::CanonicalKey, Vec<usize>> =
        HashMap::new();
    for (i, &key) in keys.iter().enumerate() {
        groups.entry(key).or_default().push(i);
    }
    for (i, atom) in dec.atoms.iter().enumerate() {
        // The discovered automorphism group of the atom itself: the orbit
        // count shows how interchangeable the atom's vertices are
        // (n orbits = rigid).
        let aut = atom.graph.automorphisms();
        println!(
            "atom #{i}: {} vertices, {} edges, {} canonical {} aut |G|={} orbits={} {}",
            atom.graph.n(),
            atom.graph.m(),
            if atom.chordal {
                "chordal (trivial)"
            } else {
                "non-chordal"
            },
            keys[i],
            aut.order(),
            aut.orbit_count(),
            format_vertices(&atom.vertices)
        );
    }
    let mut grouped: Vec<(&ranked_triangulations::graph::CanonicalKey, &Vec<usize>)> =
        groups.iter().collect();
    grouped.sort_by_key(|(_, members)| members[0]);
    println!(
        "isomorphism classes: {} ({} atoms deduplicated by the cache)",
        grouped.len(),
        dec.atoms.len() - grouped.len()
    );
    for (key, members) in grouped {
        if members.len() > 1 {
            let list: Vec<String> = members.iter().map(|i| format!("#{i}")).collect();
            println!(
                "  class {}: {} isomorphic atoms ({})",
                key,
                members.len(),
                list.join(" ")
            );
        }
    }
    for sep in &dec.clique_separators {
        println!("clique separator: {}", format_vertices(sep));
    }
    // Store-wide health of the process-global atom store: in a fresh CLI
    // process this is all zeros, but embedders inspecting decompositions
    // mid-run (and the tests) see the live figures.
    let s = cache::global_store(DEFAULT_BYTE_BUDGET).store_stats();
    println!(
        "atom store (process-wide): {} hits, {} misses, {} evictions, {} disk errors",
        s.hits, s.misses, s.evictions, s.disk_errors
    );
    Ok(())
}

fn run(opts: Options) -> Result<(), CliError> {
    if let Some(spec) = &opts.fault {
        fault::apply_spec(spec).map_err(|e| CliError::Usage(format!("bad --fault spec: {e}")))?;
    }
    let trace_sink = match &opts.trace_json {
        Some(path) => Some(setup_trace(path)?),
        None => None,
    };
    let outcome = run_inner(&opts);
    if let Some(sink) = trace_sink {
        sink.flush();
    }
    outcome
}

fn run_inner(opts: &Options) -> Result<(), CliError> {
    let g = load_graph(&opts.input, opts.format.as_deref())?;
    println!(
        "graph: {} vertices, {} edges ({} components)",
        g.n(),
        g.m(),
        g.components().len()
    );

    if opts.mode == Mode::Atoms {
        return run_atoms(&g, opts);
    }

    if opts.bounds {
        let ub = chordal::treewidth_upper_bound(&g);
        let lb = chordal::mmd_plus_lower_bound(&g);
        println!(
            "treewidth bounds: {} ≤ tw(G) ≤ {} (MMD+ / greedy elimination)",
            lb, ub.width
        );
    }

    let (run, store) = enumerate(&g, opts)?;
    let stats = &run.stats;
    println!(
        "initialization: {} minimal separators, {} PMCs, {} full blocks ({:.2}s)",
        stats.minimal_separators,
        stats.pmcs,
        stats.full_blocks,
        stats.preprocessing.as_secs_f64()
    );
    if opts.reduce != ReductionLevel::Off {
        // See `EnumerationStats::atoms`: ≥2 = factorized engine, 1 = the
        // decomposition found nothing to split, 0 = reduction inapplicable.
        match stats.atoms {
            0 => println!(
                "reduction ({}): inapplicable for cost {:?}; ran the direct engine",
                opts.reduce, opts.cost
            ),
            1 => println!(
                "reduction ({}): graph is a single atom; ran the direct engine",
                opts.reduce
            ),
            n => println!("reduction ({}): factorized over {n} atoms", opts.reduce),
        }
    }
    if opts.cache {
        println!(
            "atom cache: {} hits, {} misses, {} atoms deduped, {} bytes resident{}",
            stats.atom_cache_hits,
            stats.atom_cache_misses,
            stats.atoms_deduped,
            stats.cache_bytes,
            match &opts.cache_dir {
                Some(dir) => format!(" (persisted in {})", dir.display()),
                None => String::new(),
            }
        );
    }
    if let Some(store) = &store {
        let s = store.store_stats();
        println!(
            "atom store (store-wide): {} hits, {} misses, {} evictions, {} disk errors",
            s.hits, s.misses, s.evictions, s.disk_errors
        );
    }
    if opts.stats_json {
        println!(
            "{}",
            stats_json(
                stats,
                run.stop_reason,
                store.as_ref().map(|s| s.store_stats())
            )
        );
    }
    if !stats.preprocessing_complete {
        println!("deadline expired during initialization — no results");
        return Ok(());
    }
    if run.results.is_empty() {
        match run.stop_reason {
            StopReason::Exhausted => {
                println!("no minimal triangulation satisfies the given restrictions")
            }
            reason => println!("budget exhausted before the first result (stop: {reason})"),
        }
        return Ok(());
    }
    println!(
        "top {} minimal triangulations by {} ({:.2}s total, stop: {}):",
        run.results.len(),
        stats.cost,
        stats.total.as_secs_f64(),
        run.stop_reason
    );
    for (i, r) in run.results.iter().enumerate() {
        print_result(i, &g, r);
        if let Some(dir) = &opts.emit_td {
            emit_td(dir, i, &g, r)?;
        }
    }
    if let Some(delay) = stats.average_delay() {
        println!(
            "session: avg delay {:.2} ms/result, {} nodes explored, peak queue depth {}",
            delay.as_secs_f64() * 1000.0,
            stats.nodes_explored,
            stats.max_queue_depth
        );
    }
    if stats.symmetry_group_order > 1 || stats.orbits_merged > 0 {
        println!(
            "symmetry: discovered group order {}, {} orbits merged \
             (one representative per orbit)",
            stats.symmetry_group_order, stats.orbits_merged
        );
    }
    if stats.effective_threads > 1 {
        println!(
            "threads: {} workers, {:?} tasks/worker, {} steals",
            stats.effective_threads, stats.worker_tasks, stats.steals
        );
    }
    Ok(())
}

/// Options of the `serve` subcommand.
struct ServeOptions {
    addr: Option<String>,
    unix: Option<PathBuf>,
    workers: usize,
    byte_budget: usize,
    cache_dir: Option<PathBuf>,
    max_sessions: usize,
    max_results_cap: Option<usize>,
    deadline_cap: Option<f64>,
    node_budget_cap: Option<u64>,
    max_vertices: Option<u32>,
    max_edges: Option<usize>,
    allow_remote_shutdown: bool,
    slow_ms: Option<u64>,
    max_session_ms: Option<u64>,
    trace_json: Option<PathBuf>,
    fault: Option<String>,
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions {
        addr: None,
        unix: None,
        workers: 0,
        byte_budget: 0,
        cache_dir: None,
        max_sessions: 4,
        max_results_cap: None,
        deadline_cap: None,
        node_budget_cap: None,
        max_vertices: serve::TenantQuota::default().max_vertices,
        max_edges: serve::TenantQuota::default().max_edges,
        allow_remote_shutdown: true,
        slow_ms: None,
        max_session_ms: None,
        trace_json: None,
        fault: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let int = |name: &str, text: String| -> Result<u64, String> {
            text.parse()
                .map_err(|_| format!("{name} expects a non-negative integer"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = Some(value("--addr")?),
            "--unix" => opts.unix = Some(PathBuf::from(value("--unix")?)),
            "--workers" => opts.workers = int("--workers", value("--workers")?)? as usize,
            "--byte-budget" => {
                opts.byte_budget = int("--byte-budget", value("--byte-budget")?)? as usize
            }
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--max-sessions" => {
                opts.max_sessions = int("--max-sessions", value("--max-sessions")?)? as usize
            }
            "--max-results-cap" => {
                opts.max_results_cap =
                    Some(int("--max-results-cap", value("--max-results-cap")?)? as usize)
            }
            "--deadline-cap" => {
                let secs: f64 = value("--deadline-cap")?
                    .parse()
                    .map_err(|_| "--deadline-cap expects a number of seconds".to_string())?;
                opts.deadline_cap = Some(secs);
            }
            "--node-budget-cap" => {
                opts.node_budget_cap = Some(int("--node-budget-cap", value("--node-budget-cap")?)?)
            }
            "--max-vertices" => {
                opts.max_vertices = Some(
                    u32::try_from(int("--max-vertices", value("--max-vertices")?)?)
                        .map_err(|_| "--max-vertices out of range".to_string())?,
                )
            }
            "--max-edges" => {
                opts.max_edges = Some(int("--max-edges", value("--max-edges")?)? as usize)
            }
            "--no-remote-shutdown" => opts.allow_remote_shutdown = false,
            "--slow-ms" => opts.slow_ms = Some(int("--slow-ms", value("--slow-ms")?)?),
            "--max-session-ms" => {
                opts.max_session_ms = Some(int("--max-session-ms", value("--max-session-ms")?)?)
            }
            "--trace-json" => opts.trace_json = Some(PathBuf::from(value("--trace-json")?)),
            "--fault" => opts.fault = Some(value("--fault")?),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if opts.addr.is_some() && opts.unix.is_some() {
        return Err("--addr and --unix are mutually exclusive".to_string());
    }
    Ok(opts)
}

fn run_serve(opts: ServeOptions) -> Result<(), CliError> {
    if let Some(spec) = &opts.fault {
        fault::apply_spec(spec).map_err(|e| CliError::Usage(format!("bad --fault spec: {e}")))?;
    }
    let trace_sink = match &opts.trace_json {
        Some(path) => Some(setup_trace(path)?),
        None => None,
    };
    let bind = match &opts.unix {
        Some(path) => serve::BindAddr::Unix(path.clone()),
        None => serve::BindAddr::Tcp(
            opts.addr
                .clone()
                .unwrap_or_else(|| "127.0.0.1:7171".to_string()),
        ),
    };
    let config = serve::ServerConfig {
        workers: opts.workers,
        byte_budget: opts.byte_budget,
        cache_dir: opts.cache_dir.clone(),
        store: None,
        quota: serve::TenantQuota {
            max_concurrent_sessions: opts.max_sessions,
            max_results_cap: opts.max_results_cap,
            deadline_cap: opts.deadline_cap.map(Duration::from_secs_f64),
            node_budget_cap: opts.node_budget_cap,
            max_vertices: opts.max_vertices,
            max_edges: opts.max_edges,
        },
        allow_remote_shutdown: opts.allow_remote_shutdown,
        slow_ms: opts.slow_ms,
        max_session_ms: opts.max_session_ms,
    };
    let handle = serve::serve(&bind, config)
        .map_err(|e| CliError::Usage(format!("failed to bind the daemon: {e}")))?;
    match (&opts.unix, handle.local_addr()) {
        (Some(path), _) => println!("mtr-serve listening on unix socket {}", path.display()),
        (None, Some(addr)) => println!("mtr-serve listening on {addr}"),
        (None, None) => println!("mtr-serve listening"),
    }
    println!("serving until a client sends a shutdown frame");
    handle.wait();
    if let Some(sink) = trace_sink {
        sink.flush();
    }
    println!("mtr-serve drained all sessions and exited");
    Ok(())
}

/// Options of the `client` subcommand.
struct ClientOptions {
    input: PathBuf,
    format: Option<String>,
    addr: Option<String>,
    unix: Option<PathBuf>,
    cost: String,
    top: Option<usize>,
    width_bound: Option<usize>,
    deadline: Option<f64>,
    node_budget: Option<u64>,
    threads: usize,
    tenant: String,
    cache: bool,
    binary: bool,
    stats_json: bool,
    metrics: bool,
    shutdown: bool,
    retries: u32,
    backoff_ms: u64,
}

fn parse_client_args(args: &[String]) -> Result<ClientOptions, String> {
    let mut it = args.iter();
    let input = it.next().ok_or_else(|| usage().to_string())?;
    let mut opts = ClientOptions {
        input: PathBuf::from(input),
        format: None,
        addr: None,
        unix: None,
        cost: "width".into(),
        top: Some(5),
        width_bound: None,
        deadline: None,
        node_budget: None,
        threads: 1,
        tenant: "anonymous".into(),
        cache: false,
        binary: false,
        stats_json: false,
        metrics: false,
        shutdown: false,
        retries: 0,
        backoff_ms: 100,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--format" => opts.format = Some(value("--format")?),
            "--addr" => opts.addr = Some(value("--addr")?),
            "--unix" => opts.unix = Some(PathBuf::from(value("--unix")?)),
            "--cost" => opts.cost = value("--cost")?,
            "--top" => {
                opts.top = Some(
                    value("--top")?
                        .parse()
                        .map_err(|_| "--top expects a positive integer".to_string())?,
                )
            }
            "--width-bound" => {
                opts.width_bound = Some(
                    value("--width-bound")?
                        .parse()
                        .map_err(|_| "--width-bound expects an integer".to_string())?,
                )
            }
            "--deadline" => {
                let secs: f64 = value("--deadline")?
                    .parse()
                    .map_err(|_| "--deadline expects a number of seconds".to_string())?;
                opts.deadline = Some(secs);
            }
            "--node-budget" => {
                opts.node_budget = Some(
                    value("--node-budget")?
                        .parse()
                        .map_err(|_| "--node-budget expects a positive integer".to_string())?,
                )
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads expects an integer (0 = auto-detect)".to_string())?
            }
            "--tenant" => opts.tenant = value("--tenant")?,
            "--cache" => opts.cache = true,
            "--binary" => opts.binary = true,
            "--stats-json" => opts.stats_json = true,
            "--metrics" => opts.metrics = true,
            "--shutdown" => opts.shutdown = true,
            "--retries" => {
                opts.retries = value("--retries")?
                    .parse()
                    .map_err(|_| "--retries expects a non-negative integer".to_string())?
            }
            "--backoff-ms" => {
                opts.backoff_ms = value("--backoff-ms")?
                    .parse()
                    .map_err(|_| "--backoff-ms expects a non-negative integer".to_string())?
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if opts.addr.is_some() && opts.unix.is_some() {
        return Err("--addr and --unix are mutually exclusive".to_string());
    }
    Ok(opts)
}

fn run_client(opts: ClientOptions) -> Result<(), CliError> {
    let connect = || match &opts.unix {
        Some(path) => serve::Client::connect_unix(path),
        None => serve::Client::connect_tcp(opts.addr.as_deref().unwrap_or("127.0.0.1:7171")),
    };
    let mut client = connect().map_err(|e| CliError::Usage(format!("failed to connect: {e}")))?;

    // Bare `--metrics` / `--shutdown` (the graph path is "-" by
    // convention): skip the enumeration entirely — query and/or drain.
    if (opts.shutdown || opts.metrics) && opts.input.as_os_str() == "-" {
        if opts.metrics {
            let doc = client
                .metrics()
                .map_err(|e| CliError::Usage(format!("metrics query failed: {e}")))?;
            println!("{}", doc.render());
        }
        if opts.shutdown {
            client
                .shutdown_server()
                .map_err(|e| CliError::Usage(format!("shutdown failed: {e}")))?;
            println!("daemon acknowledged shutdown");
        }
        return Ok(());
    }

    let g = load_graph(&opts.input, opts.format.as_deref())?;
    let req = serve::EnumerateRequest {
        tenant: opts.tenant.clone(),
        n: g.n(),
        edges: g.edges().collect(),
        cost: opts.cost.clone(),
        width_bound: opts.width_bound,
        max_results: opts.top,
        deadline_ms: opts.deadline.map(|s| (s * 1000.0) as u64),
        node_budget: opts.node_budget,
        threads: opts.threads,
        cache: opts.cache,
        binary: opts.binary,
    };
    let print_result = |r: &serve::ServedResult| {
        println!(
            "#{}: cost = {}, fill-in = {} edges",
            r.rank,
            r.cost,
            r.fill.len()
        );
    };
    let done = if opts.retries > 0 {
        // Resilient mode: reconnect and reissue on transient failures
        // (connection refused/reset, daemon-side internal-error) — but
        // never after a partial stream. Results print after the stream
        // completes, since an aborted attempt discards its partial list.
        let policy = serve::RetryPolicy {
            retries: opts.retries,
            backoff_ms: opts.backoff_ms,
            ..serve::RetryPolicy::default()
        };
        let (results, done) = serve::enumerate_with_retry(&connect, &req, &policy)
            .map_err(|e| CliError::Usage(format!("request failed: {e}")))?;
        for r in &results {
            print_result(r);
        }
        done
    } else {
        client
            .enumerate_streaming(&req, |r| print_result(&r))
            .map_err(|e| CliError::Usage(format!("request failed: {e}")))?
    };
    println!(
        "done: {} results, stop: {}, queue: {}",
        done.results, done.stop_reason, done.queue
    );
    if opts.stats_json {
        println!("{}", done.stats.render());
    }
    if opts.metrics {
        let doc = client
            .metrics()
            .map_err(|e| CliError::Usage(format!("metrics query failed: {e}")))?;
        println!("{}", doc.render());
    }
    if opts.shutdown {
        client
            .shutdown_server()
            .map_err(|e| CliError::Usage(format!("shutdown failed: {e}")))?;
        println!("daemon acknowledged shutdown");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let outcome = match args[0].as_str() {
        "serve" => parse_serve_args(&args[1..])
            .map_err(CliError::Usage)
            .and_then(run_serve),
        "client" => parse_client_args(&args[1..])
            .map_err(CliError::Usage)
            .and_then(run_client),
        _ => parse_args(&args).map_err(CliError::Usage).and_then(run),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_reads_all_flags() {
        let opts = parse_args(&args(&[
            "graph.gr",
            "--cost",
            "fill",
            "--top",
            "7",
            "--threads",
            "2",
            "--deadline",
            "1.5",
            "--node-budget",
            "100",
            "--diverse",
            "0.4",
            "--reduce",
            "full",
            "--stats-json",
        ]))
        .unwrap();
        assert_eq!(opts.mode, Mode::Enumerate);
        assert_eq!(opts.cost, "fill");
        assert_eq!(opts.top, 7);
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.deadline, Some(1.5));
        assert_eq!(opts.node_budget, Some(100));
        assert_eq!(opts.diverse, Some(0.4));
        assert_eq!(opts.reduce, ReductionLevel::Full);
        assert!(opts.stats_json);
    }

    #[test]
    fn parse_args_defaults_reduction_off() {
        let opts = parse_args(&args(&["graph.gr"])).unwrap();
        assert_eq!(opts.reduce, ReductionLevel::Off);
        assert!(!opts.stats_json);
        assert!(!opts.cache);
        assert!(opts.cache_dir.is_none());
    }

    #[test]
    fn parse_args_cache_flags() {
        let opts = parse_args(&args(&["g.gr", "--reduce", "full", "--cache"])).unwrap();
        assert!(opts.cache);
        assert!(opts.cache_dir.is_none());
        let with_dir = parse_args(&args(&[
            "g.gr",
            "--reduce",
            "full",
            "--cache-dir",
            "/tmp/atoms",
        ]))
        .unwrap();
        assert!(with_dir.cache, "--cache-dir implies --cache");
        assert_eq!(with_dir.cache_dir, Some(PathBuf::from("/tmp/atoms")));
        // Caching without reduction is a usage error, not a silent no-op.
        assert!(parse_args(&args(&["g.gr", "--cache"])).is_err());
        assert!(parse_args(&args(&["g.gr", "--cache-dir", "/tmp/x"])).is_err());
        // The atoms subcommand inspects the decomposition only.
        assert!(parse_args(&args(&["atoms", "g.gr", "--cache"])).is_err());
    }

    #[test]
    fn enumerate_with_cache_matches_and_reports_stats() {
        // Two isomorphic C4s sharing a cut vertex: one keyed group, one
        // atom deduplicated within the run.
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (0, 4),
                (4, 5),
                (5, 6),
                (6, 0),
            ],
        );
        let (plain, no_store) = enumerate(
            &g,
            &parse_args(&args(&[
                "g", "--cost", "fill", "--top", "10", "--reduce", "full",
            ]))
            .unwrap(),
        )
        .unwrap();
        assert!(no_store.is_none(), "uncached runs attach no store");
        let opts = parse_args(&args(&[
            "g", "--cost", "fill", "--top", "10", "--reduce", "full", "--cache",
        ]))
        .unwrap();
        let (cached, store) = enumerate(&g, &opts).unwrap();
        let store = store.expect("--cache attaches the shared store");
        assert_eq!(cached.stats.atoms_deduped, 1);
        let plain_costs: Vec<_> = plain.results.iter().map(|r| r.cost).collect();
        let cached_costs: Vec<_> = cached.results.iter().map(|r| r.cost).collect();
        assert_eq!(plain_costs, cached_costs);
        let json = stats_json(&cached.stats, cached.stop_reason, Some(store.store_stats()));
        assert!(json.contains("\"atom_cache_hits\": "));
        assert!(json.contains("\"atoms_deduped\": 1"));
        assert!(json.contains("\"cache_bytes\": "));
        // The store-wide satellite object rides along in --stats-json.
        assert!(json.contains("\"store\": {\"hits\": "));
        assert!(json.contains("\"disk_errors\": 0"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn parse_args_atoms_subcommand() {
        let opts = parse_args(&args(&["atoms", "graph.gr"])).unwrap();
        assert_eq!(opts.mode, Mode::Atoms);
        assert_eq!(opts.input, PathBuf::from("graph.gr"));
        assert_eq!(opts.reduce, ReductionLevel::Full, "atoms defaults to full");
        let components = parse_args(&args(&["atoms", "-", "--reduce", "components"])).unwrap();
        assert_eq!(components.reduce, ReductionLevel::Components);
        assert!(parse_args(&args(&["atoms"])).is_err());
        // Enumeration-only flags and `--reduce off` are rejected for atoms.
        assert!(parse_args(&args(&["atoms", "g.gr", "--top", "3"])).is_err());
        assert!(parse_args(&args(&["atoms", "g.gr", "--stats-json"])).is_err());
        assert!(parse_args(&args(&["atoms", "g.gr", "--reduce", "off"])).is_err());
    }

    #[test]
    fn parse_args_observability_flags() {
        let opts = parse_args(&args(&["g.gr", "--trace-json", "/tmp/trace.jsonl"])).unwrap();
        assert_eq!(opts.trace_json, Some(PathBuf::from("/tmp/trace.jsonl")));
        assert!(parse_args(&args(&["g.gr", "--trace-json"])).is_err());
        let serve =
            parse_serve_args(&args(&["--slow-ms", "250", "--trace-json", "/tmp/t.jsonl"])).unwrap();
        assert_eq!(serve.slow_ms, Some(250));
        assert_eq!(serve.trace_json, Some(PathBuf::from("/tmp/t.jsonl")));
        assert!(parse_serve_args(&args(&["--slow-ms", "soon"])).is_err());
        let client = parse_client_args(&args(&["-", "--metrics"])).unwrap();
        assert!(client.metrics);
        assert!(usage().contains("--trace-json"));
        assert!(usage().contains("--slow-ms"));
        assert!(usage().contains("--metrics"));
    }

    #[test]
    fn parse_args_fault_and_resilience_flags() {
        // --fault is stored verbatim at parse time on both subcommands…
        let opts = parse_args(&args(&["g.gr", "--fault", "pool.task=error%50"])).unwrap();
        assert_eq!(opts.fault.as_deref(), Some("pool.task=error%50"));
        assert!(parse_args(&args(&["g.gr", "--fault"])).is_err());
        let serve = parse_serve_args(&args(&[
            "--max-session-ms",
            "60000",
            "--fault",
            "serve.session.run=panic",
        ]))
        .unwrap();
        assert_eq!(serve.max_session_ms, Some(60000));
        assert_eq!(serve.fault.as_deref(), Some("serve.session.run=panic"));
        assert!(parse_serve_args(&args(&["--max-session-ms", "soon"])).is_err());
        // …and a bad spec is a usage error at startup, before any graph
        // is loaded (apply_spec rejects without arming anything).
        let bad = parse_args(&args(&["/no/such/graph.gr", "--fault", "bogus"])).unwrap();
        match run(bad) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("bad --fault spec"), "{msg}"),
            Err(other) => panic!("bad spec should be a usage error, got: {other}"),
            Ok(()) => panic!("bad spec should fail"),
        }
        let client =
            parse_client_args(&args(&["-", "--retries", "3", "--backoff-ms", "50"])).unwrap();
        assert_eq!(client.retries, 3);
        assert_eq!(client.backoff_ms, 50);
        assert!(parse_client_args(&args(&["-", "--retries", "-1"])).is_err());
        for flag in ["--fault", "--max-session-ms", "--retries", "--backoff-ms"] {
            assert!(usage().contains(flag), "usage() should mention {flag}");
        }
    }

    #[test]
    fn trace_json_writes_span_lines() {
        let dir = std::env::temp_dir();
        let graph_path = dir.join("mtr_cli_trace_graph.gr");
        std::fs::write(&graph_path, "p tw 4 4\n1 2\n2 3\n3 4\n4 1\n").unwrap();
        let trace_path = dir.join("mtr_cli_trace_out.jsonl");
        let opts = parse_args(&args(&[
            graph_path.to_str().unwrap(),
            "--cost",
            "fill",
            "--top",
            "2",
            "--trace-json",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        if let Err(e) = run(opts) {
            panic!("traced run failed: {e}");
        }
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(
            text.lines()
                .any(|l| l.contains("\"name\":\"session.preprocess\"")),
            "trace file should carry the preprocess span: {text}"
        );
        assert!(
            text.lines()
                .any(|l| l.contains("\"name\":\"session.emit\"")),
            "trace file should carry the emit span: {text}"
        );
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn parse_args_rejects_unknown_flags_and_bad_values() {
        assert!(parse_args(&args(&["g.gr", "--frobnicate"])).is_err());
        assert!(parse_args(&args(&["g.gr", "--top", "many"])).is_err());
        assert!(parse_args(&args(&["g.gr", "--deadline"])).is_err());
        assert!(parse_args(&args(&["g.gr", "--deadline", "-1"])).is_err());
        assert!(parse_args(&args(&["g.gr", "--deadline", "nan"])).is_err());
        assert!(parse_args(&args(&["g.gr", "--deadline", "inf"])).is_err());
        assert!(parse_args(&args(&["g.gr", "--reduce", "max"])).is_err());
    }

    #[test]
    fn load_graph_surfaces_line_numbered_parse_errors() {
        let dir = std::env::temp_dir();
        let path = dir.join("mtr_cli_test_bad_edge.gr");
        std::fs::write(&path, "p tw 3 2\n1 2\nnot an edge\n").unwrap();
        let err = load_graph(&path, Some("pace")).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("line 3"),
            "message should carry the line number: {message}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_graph_reports_missing_files() {
        let err = load_graph(Path::new("/no/such/file.gr"), None).unwrap_err();
        assert!(err.to_string().contains("/no/such/file.gr"));
    }

    #[test]
    fn unknown_cost_is_a_typed_error() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let opts = parse_args(&args(&["g.gr", "--cost", "bogus"])).unwrap();
        let err = enumerate(&g, &opts).unwrap_err();
        assert_eq!(err, EnumerationError::UnknownCost("bogus".into()));
    }

    #[test]
    fn enumerate_applies_budgets() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let opts = parse_args(&args(&["g.gr", "--cost", "fill", "--top", "3"])).unwrap();
        let (run, _) = enumerate(&g, &opts).unwrap();
        assert_eq!(run.results.len(), 3);
        assert_eq!(run.stop_reason, StopReason::MaxResults);
    }

    #[test]
    fn enumerate_with_reduction_matches_direct() {
        // Two C4s sharing a cut vertex: 2 atoms, 4 minimal triangulations.
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (0, 4),
                (4, 5),
                (5, 6),
                (6, 0),
            ],
        );
        let (direct, _) = enumerate(
            &g,
            &parse_args(&args(&["g", "--cost", "fill", "--top", "10"])).unwrap(),
        )
        .unwrap();
        let (reduced, _) = enumerate(
            &g,
            &parse_args(&args(&[
                "g", "--cost", "fill", "--top", "10", "--reduce", "full",
            ]))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(reduced.stats.atoms, 2);
        let direct_costs: Vec<_> = direct.results.iter().map(|r| r.cost).collect();
        let reduced_costs: Vec<_> = reduced.results.iter().map(|r| r.cost).collect();
        assert_eq!(direct_costs, reduced_costs);
    }

    #[test]
    fn stats_json_is_well_formed() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let opts = parse_args(&args(&["g.gr", "--cost", "fill", "--top", "2"])).unwrap();
        let (run, _) = enumerate(&g, &opts).unwrap();
        let json = stats_json(&run.stats, run.stop_reason, None);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cost\": \"fill-in\""));
        assert!(json.contains("\"results\": 2"));
        assert!(json.contains("\"stop_reason\": \"max-results\""));
        assert!(json.contains("\"atoms\": 0"));
        assert!(json.contains("\"effective_threads\": 1"));
        assert!(json.contains("\"worker_tasks\": []"));
        assert!(json.contains("\"steals\": 0"));
        assert!(json.contains("\"nodes_pruned\": "));
        assert!(json.contains("\"delays_ms\": ["));
        assert!(json.contains("\"symmetry\": {\"group_order\": "));
        assert!(json.contains("\"orbits_merged\": "));
        assert!(json.contains("\"subproblems_replayed\": "));
        // The top-level object plus the nested symmetry object: no stray
        // braces from the format.
        assert_eq!(json.matches('{').count(), 2);
        assert_eq!(json.matches('}').count(), 2);
    }

    #[test]
    fn no_prune_flag_is_rejected_as_unknown() {
        let err = parse_args(&args(&["g.gr", "--no-prune"]))
            .err()
            .expect("--no-prune is an unknown flag");
        assert!(err.starts_with("unknown flag --no-prune\n"), "{err}");
        assert!(!usage().contains("--no-prune"));
        // The stats keep their inert `nodes_pruned` key for existing readers.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let opts = parse_args(&args(&["g", "--cost", "fill", "--top", "5"])).unwrap();
        let (run, _) = enumerate(&g, &opts).unwrap();
        let json = stats_json(&run.stats, run.stop_reason, None);
        assert!(json.contains("\"nodes_pruned\": 0"));
        assert!(!json.contains("incumbent"));
    }

    #[test]
    fn symmetry_flags_parse_and_quotient_the_stream() {
        let defaults = parse_args(&args(&["g.gr"])).unwrap();
        assert_eq!(defaults.symmetry, SymmetryPolicy::Full);
        assert!(parse_args(&args(&["g.gr", "--no-symmetry"])).is_err());
        let modulo = parse_args(&args(&["g.gr", "--modulo-symmetry"])).unwrap();
        assert_eq!(modulo.symmetry, SymmetryPolicy::ModuloSymmetry);
        // The atoms subcommand takes neither.
        assert!(parse_args(&args(&["atoms", "g.gr", "--modulo-symmetry"])).is_err());
        assert!(usage().contains("--modulo-symmetry"));

        // End to end on C6: 14 minimal triangulations, 3 up to rotation
        // and reflection — and the stats surface the quotient. Only the
        // modulo run probes the automorphism group.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let full = parse_args(&args(&["g", "--cost", "fill", "--top", "20"])).unwrap();
        let (all, _) = enumerate(&g, &full).unwrap();
        assert_eq!(all.results.len(), 14);
        assert_eq!(all.stats.symmetry_group_order, 1);
        let opts = parse_args(&args(&[
            "g",
            "--cost",
            "fill",
            "--top",
            "20",
            "--modulo-symmetry",
        ]))
        .unwrap();
        let (quotient, _) = enumerate(&g, &opts).unwrap();
        assert_eq!(quotient.results.len(), 3);
        assert!(quotient.stats.orbits_merged > 0);
        let json = stats_json(&quotient.stats, quotient.stop_reason, None);
        assert!(json.contains("\"symmetry\": {\"group_order\": 12"));
    }

    #[test]
    fn threads_flag_accepts_zero_for_auto_detect() {
        let opts = parse_args(&args(&["g.gr", "--threads", "0"])).unwrap();
        assert_eq!(opts.threads, 0);
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let (run, _) = enumerate(&g, &opts).unwrap();
        let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(run.stats.effective_threads, detected);
        assert!(usage().contains("auto-detect"));
    }

    #[test]
    fn threads_reach_the_reduced_engine_and_stats_json() {
        // Two C4s sharing a cut vertex: 2 atoms, so the factorized engine
        // runs — and must report the requested thread count.
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (0, 4),
                (4, 5),
                (5, 6),
                (6, 0),
            ],
        );
        let opts = parse_args(&args(&[
            "g",
            "--cost",
            "fill",
            "--top",
            "10",
            "--threads",
            "2",
            "--reduce",
            "full",
            "--stats-json",
        ]))
        .unwrap();
        let (run, _) = enumerate(&g, &opts).unwrap();
        assert_eq!(run.stats.atoms, 2);
        assert_eq!(run.stats.effective_threads, 2);
        let json = stats_json(&run.stats, run.stop_reason, None);
        assert!(json.contains("\"effective_threads\": 2"));
        assert!(json.contains("\"worker_tasks\": ["));
    }
}
