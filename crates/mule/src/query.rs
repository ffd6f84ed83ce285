//! The unified session API: one [`Query`] builder in front of every
//! workload this crate serves, and a reusable [`Prepared`] session that
//! runs the preprocessing pipeline once and answers queries many times.
//!
//! # Why a session
//!
//! Every capability — all α-maximal cliques, a size threshold
//! (LARGE–MULE), parallel collection, top-k — is a knob on one [`Query`]
//! builder rather than a function of its own, so sequential/parallel and
//! MULE/LARGE-MULE are chosen by configuration, and every execution
//! method runs the one kernel recursion. [`Query::prepare`] runs the
//! pipeline ([`mod@crate::prepare`]) exactly once; and the resulting
//! [`Prepared`] session serves [`collect`](Prepared::collect),
//! [`count`](Prepared::count), [`stream`](Prepared::stream),
//! [`top_k`](Prepared::top_k) and the pull-based
//! [`iter`](Prepared::iter) over the same prepared instance —
//! repeated-query workloads pay preprocessing once.
//!
//! The session is the only way to run MULE and LARGE–MULE: the
//! pipeline-off shape is the same session with its stage toggles off
//! ([`Query::core_filter`], [`Query::shared_neighborhood`],
//! [`Query::shard_components`]). [`crate::DfsNoip`] is the paper's
//! Algorithm 7 baseline, run directly.
//!
//! # Session lifecycle
//!
//! ```
//! use mule::{Query, MuleError};
//! use ugraph_core::builder::from_edges;
//!
//! # fn main() -> Result<(), MuleError> {
//! let g = from_edges(4, &[
//!     (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), // solid triangle
//!     (2, 3, 0.6),                            // shaky pendant
//! ])?;
//!
//! // Validate + preprocess once …
//! let mut session = Query::new(&g).alpha(0.5).prepare()?;
//!
//! // … answer many queries from the same prepared instance.
//! assert_eq!(session.count()?, 2);
//! let cliques: Vec<_> = session.collect()?.into_iter().map(|(c, _)| c).collect();
//! assert_eq!(cliques, vec![vec![0, 1, 2], vec![2, 3]]);
//! let top = session.top_k(1)?;
//! assert_eq!(top[0].0, vec![0, 1, 2]); // 0.9³ = 0.729 beats 0.6
//! # Ok(())
//! # }
//! ```
//!
//! # Cancellation, deadlines and budgets
//!
//! Enumeration is output-exponential, so a serving system needs every
//! run to be *bounded*. Three builder knobs — [`Query::deadline`]
//! (wall-clock), [`Query::node_budget`] (search nodes, totaled across
//! parallel workers) and [`Query::cancel_token`] (an external
//! [`CancelToken`] kill switch) — make every execution method
//! interruptible, and [`Prepared::set_deadline`] /
//! [`Prepared::set_node_budget`] / [`Prepared::set_cancel_token`]
//! retune them per request on a live session.
//!
//! What is guaranteed on interruption:
//!
//! * the execution method returns the matching typed error —
//!   [`MuleError::DeadlineExceeded`], [`MuleError::BudgetExhausted`] or
//!   [`MuleError::Cancelled`] — carrying the partial
//!   [`EnumerationStats`]; it never panics and never returns silently
//!   truncated data as if complete;
//! * everything a [`Prepared::stream`] sink received before the error
//!   is a **byte-identical prefix** of the uninterrupted stream — same
//!   cliques, same probability bits, same order, nothing reordered or
//!   duplicated ([`Prepared::collect`] instead discards the partial
//!   set, since its parallel merge has no single stream order until
//!   complete);
//! * enforcement is amortized (a probe every ~1024 search nodes plus
//!   one per schedule unit), so an interrupt lands within one probe
//!   window and an *unlimited* run pays one predictable branch per
//!   node — the zero-allocation pin and the byte-identity suites hold
//!   with the checks compiled in;
//! * the session survives: after an interrupted run (including a
//!   cancelled one, once the token is [`CancelToken::reset`]) the same
//!   session answers subsequent queries normally.
//!
//! See [`mod@crate::limits`] for the enforcement machinery and
//! `tests/fault_injection.rs` for the pins.
//!
//! ```
//! use std::time::Duration;
//! use mule::{MuleError, Query};
//! use ugraph_core::builder::from_edges;
//!
//! # fn main() -> Result<(), MuleError> {
//! let g = from_edges(3, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9)])?;
//! // A zero deadline interrupts before the first emission.
//! let mut session = Query::new(&g)
//!     .alpha(0.5)
//!     .deadline(Duration::ZERO)
//!     .prepare()?;
//! match session.collect() {
//!     Err(MuleError::DeadlineExceeded { stats }) => assert_eq!(stats.emitted, 0),
//!     other => panic!("expected a deadline error, got {other:?}"),
//! }
//! // Lifting the deadline makes the same session fully usable.
//! session.set_deadline(None);
//! assert_eq!(session.count()?, 1);
//! # Ok(())
//! # }
//! ```
//!
//! # Persistence
//!
//! A prepared session can outlive its process: [`Prepared::save`]
//! writes the prepared instance as a UGQ1 catalog (format:
//! [`crate::catalog`]) and [`Query::open`] rebuilds a session from it
//! with **zero** pipeline work — prepare once, possibly on a beefier
//! machine, then cold-open per process/replica and serve immediately.
//! The reopened session answers every query byte-identically to the
//! one that was saved. Corrupted or tampered files fail with
//! [`MuleError::Catalog`] — typed, never a panic, never silently wrong
//! output.
//!
//! ```
//! use mule::{Query, MuleError};
//! use ugraph_core::builder::from_edges;
//!
//! # fn main() -> Result<(), MuleError> {
//! let g = from_edges(3, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9)])?;
//! let mut session = Query::new(&g).alpha(0.5).prepare()?;
//! let bytes = session.to_catalog_bytes(); // or session.save(path)
//!
//! let mut reopened = Query::open_bytes(bytes)?; // or Query::open(path)
//! assert_eq!(reopened.collect()?, session.collect()?);
//! # Ok(())
//! # }
//! ```
//!
//! # α-generic sessions: prepare once, refine per α
//!
//! α is a *query-time* parameter in the paper — the same graph is
//! interrogated at many thresholds — so baking α into the prepared
//! artifact forces a full pipeline run per threshold.
//! [`Query::prepare_base`] instead runs only the α-independent work
//! (floor-prune at [`Query::alpha_floor`], default `0.0` = keep
//! everything; component shard) and returns
//! a resident [`Base`]. [`Base::refine`]`(α)` then derives a full
//! [`Prepared`] session for any `α ≥ floor` by masking sub-α edges and
//! re-running the cheap bound stages *inside* each component —
//! byte-identical (order, probability bits, stats) to a fresh
//! `Query::new(&g).alpha(α).prepare()`, at a fraction of the cost;
//! components the α-stages leave untouched are shared into the view
//! without copying. Bases persist too: [`Base::save`] /
//! [`Query::open_base`] use a flagged catalog variant storing the base
//! plus its floor, and opening a catalog through the wrong entry point
//! fails with the typed [`ugraph_io::catalog::CatalogError::WrongKind`].
//! Refining below the floor fails with [`MuleError::AlphaBelowFloor`].
//!
//! ```
//! use mule::{Query, MuleError};
//! use ugraph_core::builder::from_edges;
//!
//! # fn main() -> Result<(), MuleError> {
//! let g = from_edges(4, &[
//!     (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9),
//!     (2, 3, 0.6),
//! ])?;
//! let base = Query::new(&g).prepare_base()?; // no α needed here
//! for alpha in [0.9, 0.5] {
//!     let mut refined = base.refine(alpha)?;          // cheap
//!     let mut fresh = Query::new(&g).alpha(alpha).prepare()?; // full pipeline
//!     assert_eq!(refined.collect()?, fresh.collect()?);
//! }
//! # Ok(())
//! # }
//! ```

use crate::catalog::Kind;
use crate::delta::GraphDelta;
use crate::enumerate::{IndexMode, MuleConfig};
use crate::limits::{CancelToken, Interrupt, LimitSpec, RunLimits};
use crate::prepare::{prepare, PrepareConfig, PrepareReport, PreparedBase, PreparedInstance};
use crate::sinks::{CliqueSink, CollectSink, CountSink, TopKSink};
use crate::stats::EnumerationStats;
use crate::topk::RankedCliques;
use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use std::time::Duration;
use ugraph_core::{GraphError, ProbError, UncertainGraph, VertexId};
use ugraph_io::catalog::CatalogError;
use ugraph_io::Bytes;

/// The one error type of the public query surface: graph-layer errors,
/// builder validation, and I/O bridging (for CLI-style callers), so
/// entry points no longer mix `Result<_, GraphError>` with
/// `Result<_, String>`.
#[derive(Debug)]
pub enum MuleError {
    /// An error from the graph layer (construction, α validation, …).
    Graph(GraphError),
    /// [`Query::prepare`] was called without [`Query::alpha`].
    AlphaNotSet,
    /// [`Query::threads`] was given `0`; a session needs at least one
    /// worker (use [`Query::threads_auto`] for one per CPU).
    ZeroThreads,
    /// [`Prepared::top_k`] was asked for zero cliques.
    ZeroTopK,
    /// An I/O error from a caller loading graphs or writing results —
    /// the bridge variant for CLI / io front ends.
    Io(std::io::Error),
    /// A persisted catalog ([`Prepared::save`] / [`Query::open`]) was
    /// structurally or semantically invalid — wrong magic, failed
    /// checksum, unsupported version, or payload that lies about the
    /// invariants the pipeline would have established. Plain I/O
    /// failures while reading or writing a catalog surface as
    /// [`MuleError::Io`].
    Catalog(CatalogError),
    /// The execution's wall-clock deadline ([`Query::deadline`]) passed
    /// before the run finished. Carries the counters of the partial
    /// run; everything emitted before the interrupt is a byte-identical
    /// prefix of the uninterrupted stream (see [`mod@crate::limits`]).
    DeadlineExceeded {
        /// Counters of the interrupted (partial) run.
        stats: EnumerationStats,
    },
    /// The execution's search-node budget ([`Query::node_budget`]) was
    /// consumed. Same partial-stats / prefix semantics as
    /// [`MuleError::DeadlineExceeded`].
    BudgetExhausted {
        /// Counters of the interrupted (partial) run.
        stats: EnumerationStats,
    },
    /// The session's [`CancelToken`] was tripped from outside. Same
    /// partial-stats / prefix semantics as
    /// [`MuleError::DeadlineExceeded`].
    Cancelled {
        /// Counters of the interrupted (partial) run.
        stats: EnumerationStats,
    },
    /// [`Base::refine`] was asked for an α below the base's floor. The
    /// base was pruned at the floor, so it is missing edges the query
    /// would need — re-prepare the base with a lower
    /// [`Query::alpha_floor`] instead.
    AlphaBelowFloor {
        /// The requested query threshold.
        alpha: f64,
        /// The floor the base artifact was pruned at.
        floor: f64,
    },
    /// A [`crate::GraphDelta`] batch could not be applied — an op
    /// references an edge the artifact cannot see at its threshold, an
    /// endpoint is out of range, a serialized delta is malformed, or
    /// the artifact does not retain enough of the pruned graph for an
    /// exact incremental update (see [`mod@crate::delta`]). The
    /// artifact is left unchanged.
    Delta(String),
}

impl fmt::Display for MuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MuleError::Graph(e) => write!(f, "{e}"),
            MuleError::AlphaNotSet => {
                write!(f, "query has no alpha threshold: call Query::alpha(..)")
            }
            MuleError::ZeroThreads => write!(
                f,
                "thread count must be at least 1 (threads_auto() picks one per CPU)"
            ),
            MuleError::ZeroTopK => write!(f, "top-k query with k = 0 asks for nothing"),
            MuleError::Io(e) => write!(f, "I/O error: {e}"),
            MuleError::Catalog(e) => write!(f, "{e}"),
            MuleError::DeadlineExceeded { stats } => write!(
                f,
                "deadline exceeded after {} search nodes ({} cliques emitted)",
                stats.calls, stats.emitted
            ),
            MuleError::BudgetExhausted { stats } => write!(
                f,
                "node budget exhausted after {} search nodes ({} cliques emitted)",
                stats.calls, stats.emitted
            ),
            MuleError::Cancelled { stats } => write!(
                f,
                "cancelled after {} search nodes ({} cliques emitted)",
                stats.calls, stats.emitted
            ),
            MuleError::AlphaBelowFloor { alpha, floor } => write!(
                f,
                "alpha {alpha} is below the base artifact's floor {floor}: \
                 the base is missing sub-floor edges this query would need"
            ),
            MuleError::Delta(msg) => write!(f, "delta rejected: {msg}"),
        }
    }
}

impl std::error::Error for MuleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MuleError::Graph(e) => Some(e),
            MuleError::Io(e) => Some(e),
            MuleError::Catalog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for MuleError {
    fn from(e: GraphError) -> Self {
        MuleError::Graph(e)
    }
}

impl From<ProbError> for MuleError {
    fn from(e: ProbError) -> Self {
        MuleError::Graph(GraphError::from(e))
    }
}

impl From<std::io::Error> for MuleError {
    fn from(e: std::io::Error) -> Self {
        MuleError::Io(e)
    }
}

impl From<CatalogError> for MuleError {
    fn from(e: CatalogError) -> Self {
        match e {
            // Keep the error taxonomy honest: a file that cannot be
            // read is an I/O problem, not a corrupt catalog.
            CatalogError::Io(io) => MuleError::Io(io),
            other => MuleError::Catalog(other),
        }
    }
}

impl MuleError {
    /// The typed error for an interrupted run, carrying its partial
    /// counters.
    pub(crate) fn from_interrupt(interrupt: Interrupt, stats: EnumerationStats) -> Self {
        match interrupt {
            Interrupt::Deadline => MuleError::DeadlineExceeded { stats },
            Interrupt::Budget => MuleError::BudgetExhausted { stats },
            Interrupt::Cancelled => MuleError::Cancelled { stats },
        }
    }

    /// The partial-run counters, when this error is one of the three
    /// interruption variants ([`MuleError::DeadlineExceeded`] /
    /// [`MuleError::BudgetExhausted`] / [`MuleError::Cancelled`]);
    /// `None` for every other error. A convenient way for front ends to
    /// report partial progress without matching all three variants.
    pub fn interrupted_stats(&self) -> Option<&EnumerationStats> {
        match self {
            MuleError::DeadlineExceeded { stats }
            | MuleError::BudgetExhausted { stats }
            | MuleError::Cancelled { stats } => Some(stats),
            _ => None,
        }
    }
}

/// Builder for a clique-mining session: the single public entry point.
///
/// Collects every knob — α, size threshold, threads, index settings,
/// stage toggles, limits — validates on [`Query::prepare`] (before any
/// preprocessing work), and produces a reusable [`Prepared`] session. See the
/// [module docs](self) for the lifecycle.
#[derive(Debug, Clone)]
pub struct Query<'g> {
    g: &'g UncertainGraph,
    alpha: Option<f64>,
    alpha_floor: f64,
    min_size: usize,
    threads: usize,
    core_filter: bool,
    shared_neighborhood: bool,
    shard_components: bool,
    mule: MuleConfig,
    limits: LimitSpec,
}

impl<'g> Query<'g> {
    /// Start a query over `g` with default settings: all α-maximal
    /// cliques, sequential, full preprocessing pipeline.
    /// The α threshold has no default — set it with [`Query::alpha`].
    pub fn new(g: &'g UncertainGraph) -> Self {
        Query {
            g,
            alpha: None,
            alpha_floor: 0.0,
            min_size: 0,
            threads: 1,
            core_filter: true,
            shared_neighborhood: true,
            shard_components: true,
            mule: MuleConfig::default(),
            limits: LimitSpec::default(),
        }
    }

    /// The α threshold: cliques must exist with probability ≥ `alpha`.
    /// Validated by [`Query::prepare`] (must lie in `(0, 1]`).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// The α-floor for [`Query::prepare_base`] (default `0.0` = prune
    /// nothing, so the base serves every valid α). Edges below the
    /// floor are dropped from the base artifact once, making it
    /// smaller; in exchange, [`Base::refine`] only accepts `α ≥ floor`.
    /// Validated by [`Query::prepare_base`] (must lie in `[0, 1]` —
    /// unlike a query α, `0` is legal). Ignored by [`Query::prepare`].
    pub fn alpha_floor(mut self, floor: f64) -> Self {
        self.alpha_floor = floor;
        self
    }

    /// Only report cliques with at least `t` vertices (`0`/`1` = all).
    /// Values ≥ 2 engage the size-based pipeline stages and the
    /// LARGE-MULE search bound.
    pub fn min_size(mut self, t: usize) -> Self {
        self.min_size = t;
        self
    }

    /// Worker threads for [`Prepared::collect`] (default 1 =
    /// sequential), the only execution method that fans out:
    /// [`Prepared::count`], [`Prepared::stream`], [`Prepared::top_k`]
    /// and [`Prepared::iter`] run one thread whatever this says. `0` is
    /// rejected by [`Query::prepare`] — say [`Query::threads_auto`]
    /// when you mean "one per CPU".
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// One worker per available CPU.
    pub fn threads_auto(mut self) -> Self {
        self.threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        self
    }

    /// Which roots are searched on their own indexed neighbourhood
    /// kernel (see [`IndexMode`]; default [`IndexMode::Auto`]).
    pub fn index_mode(mut self, mode: IndexMode) -> Self {
        self.mule.index_mode = mode;
        self
    }

    /// Budget for a neighbourhood kernel's dense probability tier, in
    /// bytes per kernel (see [`MuleConfig::dense_index_bytes`]).
    pub fn dense_index_bytes(mut self, bytes: usize) -> Self {
        self.mule.dense_index_bytes = bytes;
        self
    }

    /// Budget for a neighbourhood kernel's bitset membership tier under
    /// [`IndexMode::Auto`] (see [`MuleConfig::max_index_bytes`]).
    pub fn max_index_bytes(mut self, bytes: usize) -> Self {
        self.mule.max_index_bytes = bytes;
        self
    }

    /// Toggle pipeline stage 2, the expected-degree core filter
    /// (default on; engages only when `min_size ≥ 2`).
    pub fn core_filter(mut self, on: bool) -> Self {
        self.core_filter = on;
        self
    }

    /// Toggle pipeline stage 3, the Modani–Dey shared-neighborhood peel
    /// (default on; engages only when `min_size ≥ 3`).
    pub fn shared_neighborhood(mut self, on: bool) -> Self {
        self.shared_neighborhood = on;
        self
    }

    /// Toggle pipeline stage 4, connected-component sharding (default
    /// on). Off = a single identity-mapped instance, the CLI's
    /// `--no-prune` shape. Every stage toggle is output-neutral.
    pub fn shard_components(mut self, on: bool) -> Self {
        self.shard_components = on;
        self
    }

    /// Bound every execution method's wall-clock time: a run still
    /// going `d` after it started is interrupted at its next limit
    /// probe (within ~1024 search nodes) and returns
    /// [`MuleError::DeadlineExceeded`] with partial stats. Everything
    /// the sink received up to that point is a byte-identical prefix of
    /// the uninterrupted stream — see [`mod@crate::limits`] for the
    /// full semantics. The deadline re-arms per execution method; it is
    /// a per-run bound, not a session lifetime.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.limits.deadline = Some(d);
        self
    }

    /// Bound every execution method's work: a run that has expanded
    /// more than `n` search nodes ([`EnumerationStats::calls`], totaled
    /// across parallel workers) is interrupted and returns
    /// [`MuleError::BudgetExhausted`]. Enforcement is amortized — the
    /// overshoot is at most one probe window (~1024 nodes) per worker.
    pub fn node_budget(mut self, n: u64) -> Self {
        self.limits.node_budget = Some(n);
        self
    }

    /// Attach an external kill switch: keep a clone of `token` and call
    /// [`CancelToken::cancel`] from any thread to make in-flight (and
    /// subsequent, until [`CancelToken::reset`]) executions return
    /// [`MuleError::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.limits.cancel = Some(token);
        self
    }

    /// Validate the builder state and run the preprocessing pipeline —
    /// the session's one-time cost. Errors are reported here, eagerly,
    /// before any query executes: a missing or out-of-range α, a zero
    /// thread count. The returned [`Prepared`] session answers any
    /// number of queries without re-running a single pipeline stage.
    pub fn prepare(self) -> Result<Prepared, MuleError> {
        let alpha = self.alpha.ok_or(MuleError::AlphaNotSet)?;
        if self.threads == 0 {
            return Err(MuleError::ZeroThreads);
        }
        let inst = prepare(self.g, alpha, &self.config())?;
        Ok(Prepared::new(inst, self.threads, self.limits))
    }

    /// The pipeline configuration the builder describes.
    fn config(&self) -> PrepareConfig {
        PrepareConfig {
            min_size: self.min_size,
            core_filter: self.core_filter,
            shared_neighborhood: self.shared_neighborhood,
            shard_components: self.shard_components,
            mule: self.mule.clone(),
        }
    }

    /// Rebuild a session from a catalog file written by
    /// [`Prepared::save`] — the cold-start entry point. No pipeline
    /// stage runs (pinned by `tests/catalog_cold_open.rs`): the file
    /// already holds the pipeline's output, and [`Query::open`] only
    /// validates and decodes it, rebuilding the run schedule from the
    /// stored id maps and singletons (no index is built: indexes are per
    /// root, at search time). The session starts with the saved
    /// configuration and one worker thread; retune with
    /// [`Prepared::set_threads`].
    ///
    /// Failures are typed: unreadable file → [`MuleError::Io`];
    /// structurally or semantically invalid content →
    /// [`MuleError::Catalog`]; a catalog of another format version (a
    /// version-1 file, say) → [`MuleError::Catalog`] holding
    /// `CatalogError::UnsupportedVersion`, and it must be re-prepared. A
    /// corrupted catalog never panics and never serves data.
    pub fn open(path: impl AsRef<Path>) -> Result<Prepared, MuleError> {
        Self::open_bytes(crate::catalog::read_image(path.as_ref())?)
    }

    /// [`Query::open`] over an in-memory byte image (the counterpart of
    /// [`Prepared::to_catalog_bytes`]).
    pub fn open_bytes(bytes: impl Into<Vec<u8>>) -> Result<Prepared, MuleError> {
        Ok(crate::catalog::decode(
            Bytes::from(bytes.into()),
            Some(Kind::Fixed),
            Prepared::from_instance,
            |_| unreachable!("decode refuses a base before decoding it"),
        )?)
    }

    /// Validate the builder state and run only the **α-independent**
    /// pipeline work — floor-prune ([`Query::alpha_floor`], default
    /// none) and component decomposition. The returned [`Base`] derives a full
    /// [`Prepared`] session for any `α ≥ floor` via [`Base::refine`],
    /// byte-identical to `Query::new(&g).alpha(α).prepare()` but
    /// without re-running the α-generic stages: untouched components
    /// are shared into the refined session as `Arc` clones.
    ///
    /// [`Query::alpha`] is not required (and not consulted) — α is
    /// supplied per refinement. Runtime settings (threads, limits) set
    /// on this builder become the template every refined session starts
    /// from.
    pub fn prepare_base(self) -> Result<Base, MuleError> {
        if self.threads == 0 {
            return Err(MuleError::ZeroThreads);
        }
        let base = crate::prepare::prepare_base(self.g, self.alpha_floor, &self.config())?;
        Ok(Base {
            base,
            threads: self.threads,
            limits: self.limits,
        })
    }

    /// Rebuild a [`Base`] from a base catalog file written by
    /// [`Base::save`] — the α-generic counterpart of [`Query::open`].
    /// No pipeline stage runs and no index is built; only validation
    /// and decoding. Opening a fixed-α catalog through
    /// this entry point fails with
    /// [`CatalogError::WrongKind`](ugraph_io::catalog::CatalogError) —
    /// and vice versa for [`Query::open`] on a base catalog — so the
    /// two artifact kinds cannot be confused silently.
    pub fn open_base(path: impl AsRef<Path>) -> Result<Base, MuleError> {
        Self::open_base_bytes(crate::catalog::read_image(path.as_ref())?)
    }

    /// [`Query::open_base`] over an in-memory byte image (the
    /// counterpart of [`Base::to_catalog_bytes`]).
    pub fn open_base_bytes(bytes: impl Into<Vec<u8>>) -> Result<Base, MuleError> {
        Ok(crate::catalog::decode(
            Bytes::from(bytes.into()),
            Some(Kind::Base),
            |_| unreachable!("decode refuses a fixed instance before decoding it"),
            Base::from_base,
        )?)
    }

    /// Open a catalog byte image of either kind: a fixed-α catalog
    /// becomes a [`Prepared`] session ([`Query::open_bytes`]), an
    /// α-generic base a [`Base`] ([`Query::open_base_bytes`]), chosen by
    /// the header flag. For callers that learn the kind from the file —
    /// it is parsed and checksummed once, not sniffed and then reopened.
    pub fn open_any_bytes(bytes: impl Into<Vec<u8>>) -> Result<Opened, MuleError> {
        Ok(crate::catalog::decode(
            Bytes::from(bytes.into()),
            None,
            Opened::fixed,
            Opened::base,
        )?)
    }
}

#[cfg(test)]
impl Query<'_> {
    /// Every stage toggle off: one identity-mapped kernel over the
    /// α-pruned graph, the shape the tests compare the pipeline against.
    pub(crate) fn stages_off(self) -> Self {
        self.core_filter(false)
            .shared_neighborhood(false)
            .shard_components(false)
    }
}

/// A reopened catalog of either kind: what [`Query::open_any_bytes`]
/// returns.
// Both variants are moved once per open; boxing buys nothing.
#[allow(clippy::large_enum_variant)]
pub enum Opened {
    /// A fixed-α catalog: the session serves its baked-in α.
    Fixed(Prepared),
    /// An α-generic base: [`Base::refine`] picks the α.
    Base(Base),
}

impl Opened {
    pub(crate) fn fixed(inst: PreparedInstance) -> Self {
        Opened::Fixed(Prepared::from_instance(inst))
    }

    pub(crate) fn base(base: PreparedBase) -> Self {
        Opened::Base(Base::from_base(base))
    }
}

/// An α-generic prepared artifact: the output of [`Query::prepare_base`].
///
/// Owns the α-independent artifact (floor-pruned components and id maps,
/// computed once) plus the runtime template (threads, limits)
/// refined sessions start from. One resident `Base` serves every
/// query threshold `α ≥ floor`: [`Base::refine`] derives a [`Prepared`]
/// session byte-identical to a fresh `Query::new(&g).alpha(α).prepare()`
/// while re-running only the cheap α-dependent bounds locally per
/// component — this is the paper's "α is a query-time parameter" shape
/// made resident.
pub struct Base {
    base: PreparedBase,
    threads: usize,
    limits: LimitSpec,
}

impl Base {
    /// A base opened from a catalog: default runtime template (one
    /// thread, no limits), like [`Query::open`].
    fn from_base(base: PreparedBase) -> Self {
        Base {
            base,
            threads: 1,
            limits: LimitSpec::default(),
        }
    }

    /// The α-floor the base was pruned at (`0.0` = serves every α).
    pub fn floor(&self) -> f64 {
        self.base.floor()
    }

    /// The size threshold refinements are built for.
    pub fn min_size(&self) -> usize {
        self.base.min_size()
    }

    /// Number of floor-level components resident in the base.
    pub fn num_components(&self) -> usize {
        self.base.components().len()
    }

    /// The underlying α-independent artifact.
    #[cfg(test)]
    pub(crate) fn prepared_base(&self) -> &PreparedBase {
        &self.base
    }

    /// Retune the worker-thread template refined sessions start with.
    /// Rejects `0` exactly like [`Query::threads`].
    pub fn set_threads(&mut self, n: usize) -> Result<(), MuleError> {
        if n == 0 {
            return Err(MuleError::ZeroThreads);
        }
        self.threads = n;
        Ok(())
    }

    /// Derive a full [`Prepared`] session at `alpha` — the per-α step.
    ///
    /// Output is byte-identical (cliques, order, probability bits,
    /// stats, report) to `Query::new(&g).alpha(alpha).prepare()` with
    /// the same builder settings, but no α-generic stage re-runs, and
    /// components the α-dependent stages leave untouched are shared
    /// (`Arc` clones of the graph). `α < floor` fails with
    /// [`MuleError::AlphaBelowFloor`]; an out-of-range α with the usual
    /// graph-layer validation error. The base is unaffected either way
    /// and can refine any number of thresholds.
    pub fn refine(&self, alpha: f64) -> Result<Prepared, MuleError> {
        if alpha < self.base.floor() {
            return Err(MuleError::AlphaBelowFloor {
                alpha,
                floor: self.base.floor(),
            });
        }
        let inst = self.base.refine(alpha)?;
        Ok(Prepared::new(inst, self.threads, self.limits.clone()))
    }

    /// Fold a [`GraphDelta`] batch into the resident base, re-running
    /// the floor-prune/shard work only on the components an op touches
    /// (untouched components carry over byte-for-byte). The result is
    /// byte-identical to a fresh [`Query::prepare_base`] of the mutated
    /// graph; bases retain every edge at their floor, so — unlike
    /// [`Prepared::apply`] — this never needs a precondition. On error
    /// ([`MuleError::Delta`]) the base is unchanged. Refined views
    /// derived *before* the apply still describe the old graph: derive
    /// them again. See [`mod@crate::delta`].
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<(), MuleError> {
        crate::delta::apply_base(&mut self.base, delta)
    }

    /// Persist the base as a flagged-UGQ1 catalog file (see
    /// [`crate::catalog`] for the byte layout). A later
    /// [`Query::open_base`] rebuilds an equivalent base that refines
    /// every `α ≥ floor` byte-identically, with zero pipeline work
    /// beyond the refinement itself. The write is atomic-durable (temp
    /// file + fsync + rename): on error the prior file is intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), MuleError> {
        Ok(ugraph_io::fault::write_atomic(
            path.as_ref(),
            &self.to_catalog_bytes(),
        )?)
    }

    /// The catalog byte image [`Base::save`] would write.
    pub fn to_catalog_bytes(&self) -> Vec<u8> {
        crate::catalog::base_to_bytes(&self.base)
    }
}

/// A reusable mining session: the output of [`Query::prepare`].
///
/// Owns the prepared instance (compact per-component kernels, id
/// maps, [`PrepareReport`]) and executes queries over it. Every
/// execution method reuses the same prepared state — preprocessing ran
/// exactly once, at [`Query::prepare`] — and reruns are allocation-free
/// in steady state, like the underlying kernels. Counters of the most
/// recent execution are at [`Prepared::stats`]. A count keeps its
/// totals for the next count on the session: see
/// [`Prepared::count_into`].
pub struct Prepared {
    inst: PreparedInstance,
    threads: usize,
    stats: EnumerationStats,
    /// Per-execution limits (deadline / node budget / cancel token);
    /// inactive by default.
    limits: LimitSpec,
    /// The totals of the last count that finished without an
    /// interrupt (see [`Prepared::count_into`]).
    kept: Option<(CountSink, EnumerationStats)>,
    /// Counts answered from `kept` over the session's lifetime.
    kept_hits: u64,
}

impl Prepared {
    /// A session around `inst` with the given runtime settings.
    fn new(inst: PreparedInstance, threads: usize, limits: LimitSpec) -> Self {
        Prepared {
            inst,
            threads,
            stats: EnumerationStats::new(),
            limits,
            kept: None,
            kept_hits: 0,
        }
    }

    /// A fresh session around an instance that came out of a catalog:
    /// default runtime settings.
    fn from_instance(inst: PreparedInstance) -> Self {
        Prepared::new(inst, 1, LimitSpec::default())
    }

    /// Persist this session's prepared instance as a UGQ1 catalog file
    /// (see [`crate::catalog`] for the byte-level format): the component
    /// graphs and id maps, the singletons, the prepare report and the
    /// graph name — not the run schedule, which the open rebuilds from
    /// the maps. A later
    /// [`Query::open`] rebuilds an equivalent session — same α, size
    /// threshold, stage toggles and index configuration — that serves
    /// every query byte-identically, without re-running any pipeline
    /// stage. Runtime-only settings (threads, limits) are not part of
    /// the catalog. The write is atomic-durable (temp file + fsync +
    /// rename): on error the prior file is intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), MuleError> {
        Ok(ugraph_io::fault::write_atomic(
            path.as_ref(),
            &self.to_catalog_bytes(),
        )?)
    }

    /// The catalog byte image [`Prepared::save`] would write — for
    /// callers that manage their own storage.
    pub fn to_catalog_bytes(&self) -> Vec<u8> {
        crate::catalog::to_bytes(&self.inst)
    }

    /// Retune the worker-thread count of an existing session (catalogs
    /// persist no runtime settings, so reopened sessions start at 1).
    /// Rejects `0` exactly like [`Query::threads`].
    pub fn set_threads(&mut self, n: usize) -> Result<(), MuleError> {
        if n == 0 {
            return Err(MuleError::ZeroThreads);
        }
        self.threads = n;
        Ok(())
    }

    /// Fold a [`GraphDelta`] batch into the live session: re-run the
    /// pipeline stages only on the touched components, share every
    /// untouched component's bytes, and rebuild the emission schedule.
    /// The resulting session is byte-identical — cliques, order,
    /// probability bits, report — to a fresh
    /// `Query::new(&g').alpha(α).prepare()` of the mutated graph `g'`
    /// (pinned by `tests/delta_equivalence.rs`), and adds **zero**
    /// pipeline invocations.
    ///
    /// Requires that the instance still retains the full α-pruned
    /// graph: its own report must show zero core-filter/peel losses and
    /// (for sharded instances) zero dropped-small components — always
    /// true when `min_size ≤ 1`. Otherwise, and on any invalid op
    /// (self-loop, out-of-range vertex, edge not visible at α), this
    /// returns a typed [`MuleError::Delta`] and the session is
    /// unchanged. See [`mod@crate::delta`] for the soundness argument
    /// and the representability contract.
    ///
    /// A successful apply drops the kept count ([`Prepared::count_into`]):
    /// the next count searches the mutated graph.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<(), MuleError> {
        crate::delta::apply_instance(&mut self.inst, delta)?;
        self.stats = EnumerationStats::new();
        self.kept = None;
        Ok(())
    }

    /// Retune the per-execution wall-clock deadline on a live session
    /// (`None` removes it) — the server front end sets this per
    /// request. Semantics as [`Query::deadline`].
    pub fn set_deadline(&mut self, d: Option<Duration>) {
        self.limits.deadline = d;
    }

    /// Retune the per-execution search-node budget on a live session
    /// (`None` removes it). Semantics as [`Query::node_budget`].
    pub fn set_node_budget(&mut self, n: Option<u64>) {
        self.limits.node_budget = n;
    }

    /// Attach (or, with `None`, detach) an external [`CancelToken`] on
    /// a live session. Semantics as [`Query::cancel_token`].
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.limits.cancel = token;
    }

    /// The α threshold the session was prepared for.
    pub fn alpha(&self) -> f64 {
        self.inst.alpha()
    }

    /// The size threshold (`0`/`1` = all maximal cliques).
    pub fn min_size(&self) -> usize {
        self.inst.min_size()
    }

    /// Worker threads [`Prepared::collect`] will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// What each pipeline stage removed and the shape of the prepared
    /// instance — fixed at prepare time, stable across executions.
    pub fn report(&self) -> &PrepareReport {
        self.inst.report()
    }

    /// Counters from the most recent execution method. After a count
    /// answered from the kept result these are that result's counters,
    /// the search that produced it ([`Prepared::count_into`]).
    pub fn stats(&self) -> &EnumerationStats {
        &self.stats
    }

    /// How many counts this session answered from its kept result
    /// instead of searching ([`Prepared::count_into`]), over its
    /// lifetime.
    pub fn kept_hits(&self) -> u64 {
        self.kept_hits
    }

    /// The underlying prepared instance.
    #[cfg(test)]
    pub(crate) fn instance(&self) -> &PreparedInstance {
        &self.inst
    }

    /// Stream every qualifying α-maximal clique — canonical order,
    /// original ids, exact probability — into `sink`, sequentially.
    /// This is the zero-copy primitive the other execution methods are
    /// built on; the sink can stop the run early via
    /// [`Control::Stop`](crate::Control::Stop).
    ///
    /// With limits configured ([`Query::deadline`] /
    /// [`Query::node_budget`] / [`Query::cancel_token`]) an interrupted
    /// run returns the matching typed error with partial counters;
    /// everything `sink` received before the error is a byte-identical
    /// prefix of the uninterrupted stream. With no limits (the default)
    /// this never errors.
    pub fn stream<S: CliqueSink>(&mut self, sink: &mut S) -> Result<&EnumerationStats, MuleError> {
        let interrupt = self.inst.run_limited(sink, &mut self.limits.arm());
        self.settle(interrupt)
    }

    /// Take the counters of the run that just ended, and turn its
    /// interrupt, if any, into the typed error.
    fn settle(&mut self, interrupt: Option<Interrupt>) -> Result<&EnumerationStats, MuleError> {
        self.stats = *self.inst.stats();
        match interrupt {
            Some(i) => Err(MuleError::from_interrupt(i, self.stats)),
            None => Ok(&self.stats),
        }
    }

    /// Collect all qualifying cliques as `(clique, probability)` pairs
    /// in canonical emission order. Runs on the session's configured
    /// thread count: with [`Query::threads`] > 1 the work-stealing
    /// driver ([`mod@crate::parallel`]) runs the session's schedule
    /// units on that many workers and concatenates their outputs back
    /// into the byte-identical stream, with the sequential run's
    /// counters.
    ///
    /// An interrupted run (deadline / budget / cancellation) returns
    /// the typed error with partial counters and discards the partial
    /// result set; stream into your own sink via [`Prepared::stream`]
    /// to keep the prefix that was produced.
    pub fn collect(&mut self) -> Result<Vec<(Vec<VertexId>, f64)>, MuleError> {
        if self.threads > 1 {
            let (pairs, interrupt) =
                crate::parallel::collect(&mut self.inst, self.threads, &self.limits);
            self.settle(interrupt)?;
            return Ok(pairs);
        }
        let mut sink = CollectSink::new();
        self.stream(&mut sink)?;
        Ok(sink.into_pairs())
    }

    /// [`Prepared::collect`] without the probabilities: just the clique
    /// vertex sets, sorted lexicographically.
    pub fn sorted_cliques(&mut self) -> Result<Vec<Vec<VertexId>>, MuleError> {
        let mut cliques: Vec<Vec<VertexId>> = self.collect()?.into_iter().map(|(c, _)| c).collect();
        cliques.sort();
        Ok(cliques)
    }

    /// Count qualifying cliques without storing them (sequential): the
    /// `count` of [`Prepared::count_into`], whose kept-result rule it
    /// follows.
    pub fn count(&mut self) -> Result<u64, MuleError> {
        let mut sink = CountSink::new();
        self.count_into(&mut sink)?;
        Ok(sink.count)
    }

    /// Count qualifying cliques into `sink` (sequential) — the counting
    /// method: [`Prepared::count`], `mule serve`'s `count` op and
    /// `mule enumerate --count-only` all run through it. `sink` gains
    /// exactly what [`Prepared::stream`] would add to it.
    ///
    /// A count's answer is a pure function of the prepared instance, so
    /// the session keeps it:
    ///
    /// * **What is kept.** The totals of the last count that finished
    ///   without an interrupt — the [`CountSink`] fields (`count`,
    ///   `max_size`, `total_vertices`) and the full
    ///   [`EnumerationStats`]. A limited run that finishes is kept too:
    ///   limit probes do not change the search. The next count returns
    ///   the kept totals without searching ([`Prepared::kept_hits`]
    ///   counts those).
    /// * **What clears it.** A successful [`Prepared::apply`]. A session
    ///   from [`Base::refine`], [`Query::prepare`] or a catalog open
    ///   starts without one. [`Prepared::stream`],
    ///   [`Prepared::collect`], [`Prepared::top_k`] and
    ///   [`Prepared::iter`] neither read nor write it, and an
    ///   interrupted count leaves it as it was.
    /// * **Limits stay exact.** The run's up-front probe comes first, so
    ///   a zero deadline or a cancelled token fails exactly as a search
    ///   would. Under a node budget `B` the kept totals are served only
    ///   if their `calls ≤ B`; otherwise the count searches, and — since
    ///   a run probes after its last unit — it fails exactly when its
    ///   total `calls` exceed `B`, with the same partial counters as
    ///   on a session that never kept anything.
    /// * **Search size.** A kept answer reports the counters of the
    ///   search that produced it: [`Prepared::stats`] (and so serve's
    ///   `search_nodes`) equals a fresh session's count of the same
    ///   instance, not the zero work this call did.
    pub fn count_into(&mut self, sink: &mut CountSink) -> Result<&EnumerationStats, MuleError> {
        let mut limits = self.limits.arm();
        let budget = self.limits.node_budget.unwrap_or(u64::MAX);
        if let Some((kept, stats)) = self.kept.clone().filter(|(_, s)| s.calls <= budget) {
            if !self.inst.prologue(&mut CountSink::new(), &mut limits) {
                return self.settle(limits.tripped());
            }
            absorb(sink, &kept);
            self.stats = stats;
            self.kept_hits += 1;
            return Ok(&self.stats);
        }
        let mut fresh = CountSink::new();
        let interrupt = self.inst.run_limited(&mut fresh, &mut limits);
        absorb(sink, &fresh);
        if interrupt.is_none() {
            self.kept = Some((fresh, *self.inst.stats()));
        }
        self.settle(interrupt)
    }

    /// The `k` most probable qualifying cliques, probability descending
    /// (ties lexicographic). Errors on `k = 0`. Streams into a
    /// [`TopKSink`] (sequential), and the search always applies the
    /// adaptive β cut ([`mod@crate::topk`]): once `k` cliques are held,
    /// subtrees whose probability has fallen to the current k-th best
    /// are skipped, maximality still judged at α. The ranking equals
    /// selecting over the full stream; size threshold and limits apply
    /// as in [`Prepared::stream`].
    pub fn top_k(&mut self, k: usize) -> Result<RankedCliques, MuleError> {
        if k == 0 {
            return Err(MuleError::ZeroTopK);
        }
        let mut sink = TopKSink::new(k);
        self.stream(&mut sink)?;
        Ok(sink.into_sorted())
    }

    /// A pull-based iterator over the qualifying cliques, in the same
    /// canonical order [`Prepared::stream`] emits. Work is done lazily,
    /// one schedule unit (root subtree / component) at a time, so
    /// memory stays bounded by one unit's output instead of the whole
    /// result set; dropping the iterator abandons the rest of the
    /// search. [`Prepared::stats`] reflects the progress made so far.
    pub fn iter(&mut self) -> Cliques<'_> {
        // Caller-paced: the consumer stops by not pulling, so no limits.
        let mut sink = CollectSink::new();
        self.inst.prologue(&mut sink, &mut RunLimits::none());
        self.stats = *self.inst.stats();
        Cliques {
            prepared: self,
            buf: sink.into_pairs().into(),
            next_unit: 0,
        }
    }
}

/// Add one count's totals to `sink`, as streaming its cliques would.
fn absorb(sink: &mut CountSink, totals: &CountSink) {
    sink.count += totals.count;
    sink.total_vertices += totals.total_vertices;
    sink.max_size = sink.max_size.max(totals.max_size);
}

/// Pull-based clique iterator borrowing a [`Prepared`] session — see
/// [`Prepared::iter`]. Yields `(clique, probability)` in canonical
/// order.
pub struct Cliques<'p> {
    prepared: &'p mut Prepared,
    buf: VecDeque<(Vec<VertexId>, f64)>,
    /// Next schedule unit to run.
    next_unit: usize,
}

impl Iterator for Cliques<'_> {
    type Item = (Vec<VertexId>, f64);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.buf.pop_front() {
                return Some(item);
            }
            if self.next_unit >= self.prepared.inst.num_units() {
                return None;
            }
            let mut sink = CollectSink::new();
            self.prepared.inst.run_unit(self.next_unit, &mut sink);
            self.next_unit += 1;
            self.prepared.stats = *self.prepared.inst.stats();
            self.buf.extend(sink.into_pairs());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_core::builder::{from_edges, GraphBuilder};

    fn fixture() -> UncertainGraph {
        // Two triangles in separate components, an isolated vertex and a
        // sub-α edge — exercises sharding, singletons and pruning.
        from_edges(
            9,
            &[
                (0, 1, 0.9),
                (1, 2, 0.9),
                (0, 2, 0.9),
                (4, 5, 0.8),
                (5, 6, 0.8),
                (4, 6, 0.8),
                (7, 8, 0.3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn builder_validates_eagerly() {
        let g = fixture();
        assert!(matches!(
            Query::new(&g).prepare(),
            Err(MuleError::AlphaNotSet)
        ));
        assert!(matches!(
            Query::new(&g).alpha(0.5).threads(0).prepare(),
            Err(MuleError::ZeroThreads)
        ));
        assert!(matches!(
            Query::new(&g).alpha(0.0).prepare(),
            Err(MuleError::Graph(GraphError::InvalidAlpha { .. }))
        ));
        assert!(matches!(
            Query::new(&g).alpha(1.5).prepare(),
            Err(MuleError::Graph(GraphError::InvalidAlpha { .. }))
        ));
        assert!(Query::new(&g).alpha(0.5).threads_auto().prepare().is_ok());
    }

    #[test]
    fn session_answers_all_query_shapes() {
        let g = fixture();
        let mut s = Query::new(&g).alpha(0.5).prepare().unwrap();
        let pairs = s.collect().unwrap();
        assert_eq!(s.count().unwrap() as usize, pairs.len());
        let cliques: Vec<_> = pairs.iter().map(|(c, _)| c.clone()).collect();
        assert_eq!(
            cliques,
            vec![vec![0, 1, 2], vec![3], vec![4, 5, 6], vec![7], vec![8]]
        );
        let top = s.top_k(2).unwrap();
        assert_eq!(top.len(), 2);
        assert!((top[0].1 - 1.0).abs() < 1e-12, "singletons are certain");
        let pulled: Vec<_> = s.iter().collect();
        assert_eq!(pulled, pairs, "pull iterator matches collect");
        assert!(matches!(s.top_k(0), Err(MuleError::ZeroTopK)));
    }

    #[test]
    fn min_size_and_threads_route_through_builder() {
        let g = fixture();
        let mut s = Query::new(&g).alpha(0.5).min_size(3).prepare().unwrap();
        let cliques: Vec<_> = s.collect().unwrap().into_iter().map(|(c, _)| c).collect();
        assert_eq!(cliques, vec![vec![0, 1, 2], vec![4, 5, 6]]);
        let mut par = Query::new(&g)
            .alpha(0.5)
            .min_size(3)
            .threads(3)
            .prepare()
            .unwrap();
        let par_cliques: Vec<_> = par.collect().unwrap().into_iter().map(|(c, _)| c).collect();
        assert_eq!(par_cliques, cliques);
        assert_eq!(par.stats(), s.stats(), "merged stats equal sequential");
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g0 = GraphBuilder::new(0).build();
        let mut s = Query::new(&g0).alpha(0.5).prepare().unwrap();
        assert_eq!(s.collect().unwrap(), vec![(vec![], 1.0)]);
        assert_eq!(s.iter().count(), 1);
        let mut bounded = Query::new(&g0).alpha(0.5).min_size(2).prepare().unwrap();
        assert_eq!(bounded.count().unwrap(), 0, "empty clique misses t");
        let g3 = GraphBuilder::new(3).build();
        let mut s = Query::new(&g3).alpha(0.5).prepare().unwrap();
        assert_eq!(s.count().unwrap(), 3);
    }

    #[test]
    fn iter_is_lazy_and_abandonable() {
        let g = fixture();
        let mut s = Query::new(&g).alpha(0.5).prepare().unwrap();
        let total = s.count().unwrap();
        let first_two: Vec<_> = s.iter().take(2).collect();
        assert_eq!(first_two.len(), 2);
        assert!(
            s.stats().emitted < total,
            "abandoned iterator must not have run the whole search"
        );
    }

    #[test]
    fn error_display_and_sources() {
        let text = MuleError::AlphaNotSet.to_string();
        assert!(text.contains("alpha"));
        assert!(MuleError::ZeroThreads.to_string().contains("at least 1"));
        assert!(MuleError::ZeroTopK.to_string().contains("k = 0"));
        assert!(MuleError::AlphaBelowFloor {
            alpha: 0.2,
            floor: 0.5
        }
        .to_string()
        .contains("floor"));
        let ge: MuleError = GraphError::InvalidAlpha { value: 2.0 }.into();
        use std::error::Error;
        assert!(ge.source().is_some());
        let io: MuleError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        assert!(io.source().is_some());
    }

    #[test]
    fn base_refines_byte_identically_across_min_sizes_and_alphas() {
        let g = fixture();
        for t in [0usize, 3] {
            let base = Query::new(&g).min_size(t).prepare_base().unwrap();
            for alpha in [0.9, 0.5, 0.25] {
                let mut refined = base.refine(alpha).unwrap();
                let mut fresh = Query::new(&g).alpha(alpha).min_size(t).prepare().unwrap();
                assert_eq!(
                    refined.collect().unwrap(),
                    fresh.collect().unwrap(),
                    "t={t} α={alpha}"
                );
                assert_eq!(refined.stats(), fresh.stats(), "t={t} α={alpha}");
                assert_eq!(refined.report(), fresh.report(), "t={t} α={alpha}");
            }
        }
    }

    #[test]
    fn base_floor_is_enforced_and_validated() {
        let g = fixture();
        assert!(matches!(
            Query::new(&g).alpha_floor(1.5).prepare_base(),
            Err(MuleError::Graph(GraphError::InvalidAlpha { .. }))
        ));
        assert!(matches!(
            Query::new(&g).threads(0).prepare_base(),
            Err(MuleError::ZeroThreads)
        ));
        let base = Query::new(&g).alpha_floor(0.5).prepare_base().unwrap();
        assert_eq!(base.floor(), 0.5);
        assert!(matches!(
            base.refine(0.25),
            Err(MuleError::AlphaBelowFloor { .. })
        ));
        assert!(matches!(
            base.refine(1.5),
            Err(MuleError::Graph(GraphError::InvalidAlpha { .. }))
        ));
        // At or above the floor everything works, byte-identically.
        let mut at_floor = base.refine(0.5).unwrap();
        let mut fresh = Query::new(&g).alpha(0.5).prepare().unwrap();
        assert_eq!(at_floor.collect().unwrap(), fresh.collect().unwrap());
    }

    #[test]
    fn base_catalog_round_trip_through_session_api() {
        let g = fixture();
        let base = Query::new(&g).prepare_base().unwrap();
        let bytes = base.to_catalog_bytes();
        let runs_before = crate::prepare::pipeline_invocations();
        let mut reopened = Query::open_base_bytes(bytes).unwrap();
        assert_eq!(
            crate::prepare::pipeline_invocations(),
            runs_before,
            "open_base must not run the pipeline"
        );
        reopened.set_threads(2).unwrap();
        assert!(reopened.set_threads(0).is_err());
        for alpha in [0.9, 0.5] {
            let mut a = reopened.refine(alpha).unwrap();
            // Same runtime template on the fresh side: the contract is
            // byte-identity under *equal* settings.
            let mut b = Query::new(&g).alpha(alpha).threads(2).prepare().unwrap();
            assert_eq!(a.collect().unwrap(), b.collect().unwrap(), "α={alpha}");
        }
        // File round trip through save/open_base.
        let path = std::env::temp_dir().join("mule-query-base-roundtrip.ugq");
        base.save(&path).unwrap();
        let from_file = Query::open_base(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(from_file.floor(), base.floor());
        assert_eq!(from_file.num_components(), base.num_components());
        // Wrong-kind opens are typed in both directions.
        let fixed = Query::new(&g).alpha(0.5).prepare().unwrap();
        assert!(matches!(
            Query::open_base_bytes(fixed.to_catalog_bytes()),
            Err(MuleError::Catalog(CatalogError::WrongKind { .. }))
        ));
        assert!(matches!(
            Query::open_bytes(base.to_catalog_bytes()),
            Err(MuleError::Catalog(CatalogError::WrongKind { .. }))
        ));
    }
}
