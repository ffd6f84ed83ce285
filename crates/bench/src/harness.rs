//! Timing harness: runs an enumeration algorithm on a graph, with a
//! cooperative timeout, and reports runtime plus output statistics.
//!
//! The paper reports wall-clock seconds per `(graph, α)` point; we do the
//! same, with one pragmatic addition: a deadline. DFS–NOIP at small α can
//! exceed any reasonable budget (the paper itself reports "more than 11
//! hours" on wiki-vote), so runs are aborted cooperatively once the
//! deadline passes and reported as `timed_out` — figures then print
//! `>Xs`, exactly like the paper's prose.
//!
//! The timeout is checked on every emission (cheap: one `Instant::now()`
//! per 1024 cliques). All the workloads in the figure sweeps emit
//! frequently relative to their node counts, so the deadline is honored
//! within a small factor; the realized overshoot is visible in the
//! reported time.

use mule::sinks::{CliqueSink, Control, CountSink};
use mule::{DfsNoip, EnumerationStats, MuleConfig, Query};
use std::time::{Duration, Instant};
use ugraph_core::{UncertainGraph, VertexId};

/// Outcome of one timed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Wall-clock seconds (includes preprocessing: α-pruning, index build,
    /// and for LARGE–MULE the shared-neighborhood filter — the paper times
    /// the whole query the same way).
    pub seconds: f64,
    /// Maximal cliques emitted before completion or deadline.
    pub cliques: u64,
    /// Total vertex ids across emitted cliques (the Observation 5 output
    /// size).
    pub output_vertices: u64,
    /// Largest clique seen.
    pub max_clique: usize,
    /// The run's full counters (search-tree nodes, scanned candidates,
    /// and the per-strategy probe counters of the tiered index), so
    /// bench artifacts can track work performed, not only wall-clock.
    pub stats: EnumerationStats,
    /// True if the deadline fired before the enumeration finished.
    pub timed_out: bool,
}

impl RunResult {
    /// Search-tree nodes visited (`stats.calls`).
    pub fn calls(&self) -> u64 {
        self.stats.calls
    }

    /// Render the runtime like the paper's tables (`>12s` when timed out).
    pub fn display_time(&self) -> String {
        if self.timed_out {
            format!(">{}", crate::report::fmt_secs(self.seconds))
        } else {
            crate::report::fmt_secs(self.seconds)
        }
    }
}

/// Counting sink wrapper that aborts cooperatively at a deadline.
struct DeadlineSink {
    inner: CountSink,
    deadline: Instant,
    emissions_between_checks: u32,
    until_check: u32,
    expired: bool,
}

impl DeadlineSink {
    fn new(budget: Duration) -> Self {
        DeadlineSink {
            inner: CountSink::new(),
            deadline: Instant::now() + budget,
            emissions_between_checks: 1024,
            until_check: 1024,
            expired: false,
        }
    }
}

impl CliqueSink for DeadlineSink {
    fn emit(&mut self, clique: &[VertexId], prob: f64) -> Control {
        self.inner.emit(clique, prob);
        self.until_check -= 1;
        if self.until_check == 0 {
            self.until_check = self.emissions_between_checks;
            if Instant::now() >= self.deadline {
                self.expired = true;
                return Control::Stop;
            }
        }
        Control::Continue
    }
}

/// Which algorithm a timed run should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// MULE (Algorithms 1–4): the session with every stage toggle off,
    /// one kernel over the α-pruned graph.
    Mule,
    /// MULE with the paper's literal Θ(n²) root
    /// ([`mule::enumerate::naive_root`], default [`MuleConfig`]): the
    /// ablation of the closed-form root expansion that explains the
    /// paper's DBLP runtimes.
    MuleNaiveRoot,
    /// The DFS–NOIP baseline (Algorithm 7).
    DfsNoip,
    /// LARGE–MULE with the given size threshold: the session at that
    /// `min_size` with only the shared-neighborhood peel on (the paper's
    /// Algorithm 5 preprocessing), one kernel.
    LargeMule(usize),
    /// The preprocessing pipeline (`mule::prepare`) with the given
    /// `min_size` (0 = all maximal cliques): prune → core filter →
    /// shared-neighborhood peel → per-component enumeration. The
    /// measured time includes all pipeline stages, like the paper's
    /// whole-query timing.
    Pipeline(usize),
}

impl Algo {
    /// Short label for report rows.
    pub fn label(&self) -> String {
        match self {
            Algo::Mule => "MULE".into(),
            Algo::MuleNaiveRoot => "MULE(naive-root)".into(),
            Algo::DfsNoip => "DFS-NOIP".into(),
            Algo::LargeMule(t) => format!("LARGE-MULE(t={t})"),
            Algo::Pipeline(0 | 1) => "MULE(pipeline)".into(),
            Algo::Pipeline(t) => format!("LARGE-pipeline(t={t})"),
        }
    }
}

/// Time one `(algorithm, graph, α)` point, counting (not storing) the
/// output, honoring `budget` as a cooperative deadline. Runs with the
/// default [`MuleConfig`]; see [`timed_run_with`] to override the
/// index configuration.
pub fn timed_run(algo: Algo, g: &UncertainGraph, alpha: f64, budget: Duration) -> RunResult {
    timed_run_with(algo, g, alpha, budget, &MuleConfig::default())
}

/// [`timed_run`] with an explicit kernel configuration (index mode and
/// tier budgets); `mule_cfg` applies to every algorithm except the
/// index-free DFS–NOIP baseline.
pub fn timed_run_with(
    algo: Algo,
    g: &UncertainGraph,
    alpha: f64,
    budget: Duration,
    mule_cfg: &MuleConfig,
) -> RunResult {
    let mut sink = DeadlineSink::new(budget);
    let start = Instant::now();
    let stats = match algo {
        Algo::MuleNaiveRoot => {
            mule::enumerate::naive_root(g, alpha, &mut sink).expect("valid alpha")
        }
        Algo::DfsNoip => {
            let mut d = DfsNoip::new(g, alpha).expect("valid alpha");
            d.run(&mut sink);
            *d.stats()
        }
        Algo::Mule => stream(mule_query(g, alpha, mule_cfg), &mut sink),
        Algo::LargeMule(t) => stream(
            query(g, mule_cfg)
                .alpha(alpha)
                .min_size(t)
                .core_filter(false)
                .shard_components(false),
            &mut sink,
        ),
        Algo::Pipeline(t) => stream(query(g, mule_cfg).alpha(alpha).min_size(t), &mut sink),
    };
    let seconds = start.elapsed().as_secs_f64();
    RunResult {
        seconds,
        cliques: sink.inner.count,
        output_vertices: sink.inner.total_vertices,
        max_clique: sink.inner.max_size,
        stats,
        timed_out: sink.expired,
    }
}

/// A session builder over `g` carrying `cfg`'s index settings — the one
/// place the suite's kernel configuration turns into [`Query`] knobs.
pub fn query<'g>(g: &'g UncertainGraph, cfg: &MuleConfig) -> Query<'g> {
    Query::new(g)
        .index_mode(cfg.index_mode)
        .max_index_bytes(cfg.max_index_bytes)
        .dense_index_bytes(cfg.dense_index_bytes)
}

/// The session [`Algo::Mule`] times: every stage toggle off, so one
/// kernel searches the whole α-pruned graph.
pub fn mule_query<'g>(g: &'g UncertainGraph, alpha: f64, cfg: &MuleConfig) -> Query<'g> {
    query(g, cfg)
        .alpha(alpha)
        .core_filter(false)
        .shared_neighborhood(false)
        .shard_components(false)
}

/// Prepare `query` and stream it into `sink`. Every MULE variant goes
/// through the session front door, same as the CLI: the timed region
/// covers the prepare and the run, matching the paper's whole-query
/// timing.
fn stream(query: Query<'_>, sink: &mut impl CliqueSink) -> EnumerationStats {
    let mut session = query.prepare().expect("valid alpha");
    *session
        .stream(sink)
        .expect("unlimited run cannot be interrupted")
}

/// Time one point `repeats` times and summarize the samples
/// (min/median/p95 …).
///
/// Censoring contract: if the *first* run hits the deadline, the point
/// is not repeated and the single censored sample is returned with
/// `RunResult::timed_out` set (callers mark the whole row `>…`). If a
/// *later* repeat hits the deadline (a borderline point straddling the
/// budget), repetition stops and the censored sample is **discarded** —
/// the summary then covers only completed runs (its `samples` count
/// shows how many), and the returned first-run result keeps its
/// completed counts unmarked.
pub fn repeated_run(
    algo: Algo,
    g: &UncertainGraph,
    alpha: f64,
    budget: Duration,
    repeats: usize,
) -> (RunResult, crate::report::Summary) {
    repeated_run_with(algo, g, alpha, budget, repeats, &MuleConfig::default())
}

/// [`repeated_run`] with an explicit kernel configuration, forwarded to
/// [`timed_run_with`] for every sample.
pub fn repeated_run_with(
    algo: Algo,
    g: &UncertainGraph,
    alpha: f64,
    budget: Duration,
    repeats: usize,
    mule_cfg: &MuleConfig,
) -> (RunResult, crate::report::Summary) {
    let first = timed_run_with(algo, g, alpha, budget, mule_cfg);
    let mut secs = vec![first.seconds];
    if !first.timed_out {
        for _ in 1..repeats.max(1) {
            let r = timed_run_with(algo, g, alpha, budget, mule_cfg);
            if r.timed_out {
                break;
            }
            secs.push(r.seconds);
        }
    }
    (first, crate::report::Summary::from_samples(&secs))
}

/// The α grid used by Figures 2–3 (log-spaced, matching the paper's
/// x-axes from 10⁻⁴ to 0.9).
pub fn alpha_grid() -> Vec<f64> {
    vec![0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9]
}

/// The α grid of Figure 4 (runtime vs output size on the BA graphs).
pub fn fig4_alphas() -> Vec<f64> {
    vec![0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001]
}

/// Resolve the dataset cache directory (`UGRAPH_CACHE` env override,
/// default `target/dataset-cache`).
pub fn cache_dir() -> std::path::PathBuf {
    std::env::var_os("UGRAPH_CACHE")
        .map(Into::into)
        .unwrap_or_else(|| std::path::PathBuf::from("target/dataset-cache"))
}

/// Build (or load from cache) a Table 1 dataset stand-in.
pub fn dataset(name: &str, seed: u64, scale: f64) -> UncertainGraph {
    let spec =
        ugraph_gen::datasets::by_name(name).unwrap_or_else(|| panic!("unknown dataset {name:?}"));
    let label = format!("{name}-s{seed}-x{scale}");
    ugraph_io::cache::load_or_build(&cache_dir(), &label, || spec.build_scaled(seed, scale))
}

/// Resolve the results directory (`UGRAPH_RESULTS` env override, default
/// `results`).
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("UGRAPH_RESULTS")
        .map(Into::into)
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_core::builder::{complete_graph, from_edges};
    use ugraph_core::Prob;

    #[test]
    fn mule_run_counts_cliques() {
        let g = from_edges(4, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.6)]).unwrap();
        let r = timed_run(Algo::Mule, &g, 0.5, Duration::from_secs(10));
        assert_eq!(r.cliques, 2);
        assert_eq!(r.output_vertices, 5);
        assert_eq!(r.max_clique, 3);
        assert!(!r.timed_out);
        assert!(r.seconds >= 0.0);
        assert!(r.calls() > 0);
    }

    #[test]
    fn algorithms_agree_on_counts() {
        let g = complete_graph(7, Prob::new(0.5).unwrap());
        let alpha = 0.5f64.powi(3);
        let a = timed_run(Algo::Mule, &g, alpha, Duration::from_secs(10));
        let b = timed_run(Algo::DfsNoip, &g, alpha, Duration::from_secs(10));
        let c = timed_run(Algo::LargeMule(3), &g, alpha, Duration::from_secs(10));
        let d = timed_run(Algo::Pipeline(0), &g, alpha, Duration::from_secs(10));
        let e = timed_run(Algo::Pipeline(3), &g, alpha, Duration::from_secs(10));
        assert_eq!(a.cliques, b.cliques);
        assert_eq!(a.cliques, c.cliques); // all maximal cliques have size 3 here
        assert_eq!(a.cliques, d.cliques);
        assert_eq!(a.cliques, e.cliques);
    }

    #[test]
    fn repeated_run_summarizes() {
        let g = from_edges(4, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.6)]).unwrap();
        let (r, s) = repeated_run(Algo::Pipeline(0), &g, 0.5, Duration::from_secs(10), 4);
        assert!(!r.timed_out);
        assert_eq!(r.cliques, 2);
        assert_eq!(s.samples, 4);
        assert!(s.min <= s.median && s.median <= s.p95);
    }

    #[test]
    fn display_time_marks_timeouts() {
        let done = RunResult {
            seconds: 1.5,
            cliques: 1,
            output_vertices: 1,
            max_clique: 1,
            stats: EnumerationStats::new(),
            timed_out: false,
        };
        assert!(!done.display_time().starts_with('>'));
        let cut = RunResult {
            timed_out: true,
            ..done
        };
        assert!(cut.display_time().starts_with('>'));
    }

    #[test]
    fn grids_match_paper_axes() {
        let g = alpha_grid();
        assert_eq!(g.first(), Some(&0.0001));
        assert_eq!(g.last(), Some(&0.9));
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(fig4_alphas().len(), 6);
    }

    #[test]
    fn algo_labels() {
        assert_eq!(Algo::Mule.label(), "MULE");
        assert_eq!(Algo::DfsNoip.label(), "DFS-NOIP");
        assert_eq!(Algo::LargeMule(4).label(), "LARGE-MULE(t=4)");
        assert_eq!(Algo::Pipeline(0).label(), "MULE(pipeline)");
        assert_eq!(Algo::Pipeline(5).label(), "LARGE-pipeline(t=5)");
    }

    #[test]
    fn dataset_builder_caches_deterministically() {
        std::env::set_var(
            "UGRAPH_CACHE",
            std::env::temp_dir().join(format!("ugraph-harness-test-{}", std::process::id())),
        );
        let a = dataset("BA5000", 1, 0.01);
        let b = dataset("BA5000", 1, 0.01);
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(cache_dir());
        std::env::remove_var("UGRAPH_CACHE");
    }
}
