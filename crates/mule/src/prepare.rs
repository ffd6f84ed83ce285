//! The unified preprocessing pipeline: **prune → core-filter →
//! component-shard**, producing one compact, vertex-remapped instance
//! per connected component that every enumerator in this crate can run
//! on (LARGE-MULE's winning idea from Section 4.3, generalized into the
//! front door for *all* workloads).
//!
//! # Stages, in order, and why each is sound
//!
//! 1. **α-edge pruning** (Observation 3): every edge of an α-clique has
//!    `p(e) ≥ α`, so edges below α cannot appear in any α-maximal
//!    clique and deleting them changes nothing about the output.
//! 2. **Expected-degree core filter** (the `(t−1)·α`-core, engaged only
//!    when a size threshold `t ≥ 2` is requested): inside an α-clique
//!    with at least `t` vertices every member has `t−1` incident clique
//!    edges of probability ≥ α, so its expected degree stays at least
//!    `(t−1)·α` at every peeling step — members of such cliques are
//!    never peeled (see [`crate::kcore`]). Dropping non-core vertices
//!    also cannot create false maximal cliques: any extension witness
//!    `v` of a surviving clique `C` forms the α-clique `C ∪ {v}` of
//!    size ≥ t + 1, so `v` survives too and still kills `C`.
//! 3. **Shared-neighborhood peeling** (Modani–Dey, engaged when
//!    `t ≥ 3`): recursively delete edges with fewer than `t − 2` common
//!    neighbors and vertices of degree under `t − 1`
//!    ([`crate::pruning::shared_neighborhood_peel`]); the same
//!    induction shows edges of ≥-t α-cliques (and their maximality
//!    witnesses) survive to the fixpoint.
//! 4. **Connected-component decomposition**: an α-clique never spans two
//!    components of the (pruned) skeleton, and neither can a maximality
//!    witness (it is adjacent to every clique vertex). Each component
//!    becomes its own dense-id instance via
//!    [`ugraph_core::subgraph::induced_subgraph`]; the old↔new maps are
//!    **monotone**, so canonical (ascending) cliques stay canonical
//!    under translation and the probability arithmetic — same factors,
//!    same multiplication order — is bit-identical to the direct path.
//!
//! The stage order matters only for economy, not soundness: pruning
//! first shrinks what the core filter peels, the core filter shrinks
//! what the shared-neighborhood fixpoint examines, and sharding last
//! sees the smallest graph.
//!
//! # One stage runner, one assembler
//!
//! `prepare`, `PreparedBase::refine` and incremental maintenance
//! ([`crate::delta`]) each run stage 1 their own way — a global prune; a
//! mask inside each base component, skipped when the component's
//! smallest probability is already ≥ α; the batch folded into the
//! components it touches — and then share two pieces: `run_stages`
//! (stages 2–3 over one working graph, saying whether they removed
//! anything) and `Assembly`, which takes the component entries (kept
//! components and the multi-vertex components of the working graphs)
//! and the lone vertices, and applies stage 4's policy once: size
//! threshold, singletons, dropped components, identity fast path,
//! shard-off shape, kernels and schedule.
//!
//! Lone vertices never become entries. Most of them were isolated
//! before the α-dependent stages ran (a base's isolated list, an
//! instance's untouched singletons) and arrive as one ascending run
//! that is merged as it is; only the vertices the stages isolated
//! ([`ugraph_core::Components::split`] hands them over as one run per
//! working graph) are sorted. So the assembler allocates and sorts per
//! component, never per lone vertex: on the DBLP10 stand-in's
//! floor-0.3 base, 633k of the 685k vertices are lone.
//!
//! Running the stages on parts of the graph reproduces the fresh global
//! bytes because every stage decomposes exactly per connected component
//! of its input: the α-prune is edge-local, the two peels are fixpoints
//! whose degrees and common-neighbor counts never cross a component, and
//! `Components` refines the components of its input. A component no
//! stage touches thus equals its fresh `induced_subgraph` (the maps are
//! monotone) and keeps its kernel. `Components` discovers components by
//! ascending smallest member, so sorting the entries by first original
//! id gives the fresh order, and one whole-graph merge rebuilds the
//! graph the fresh identity fast path and shard-off shape hold.
//!
//! A component's kernel is its CSR over the **compact remapped ids**
//! and nothing more: no stage here, nor open, refine or apply, builds
//! an index. The tiered [`ugraph_core::NeighborhoodIndex`] is built per
//! root at search time, over the root's neighbourhood, in the scratch
//! beside the run's arenas (the `kernel` module docs, "Neighbourhood
//! kernels").
//!
//! # Byte-identical output
//!
//! Sequential MULE emits cliques in global lexicographic order (each
//! root subtree `C = {u}` emits lexicographically, roots ascend).
//! A prepared run therefore schedules root subtrees in
//! ascending *original*-id order across components — interleaving
//! components exactly as the direct search would — and folds the id
//! translation into the sink layer. The schedule sorts the component
//! roots by original id and merges the ascending singleton run into
//! them, with no `n`-slot table. The emitted stream (cliques, order,
//! probability bits) is identical whichever stages run, and identical to
//! one kernel searching the whole α-pruned graph (every stage toggle
//! off). The work-stealing parallel driver (`crate::parallel`) runs the
//! same schedule units on its workers and re-establishes the same order
//! with its slot-per-unit merge.

use crate::enumerate::MuleConfig;
use crate::kcore::CoreDecomposition;
use crate::kernel::{search_root, DepthArenas, Kernel};
use crate::limits::{Interrupt, RunLimits};
use crate::pruning::shared_neighborhood_peel;
use crate::sinks::{CliqueSink, Control, Remap};
use crate::stats::EnumerationStats;
use std::borrow::Cow;
use std::cell::Cell;
use ugraph_core::{subgraph, ComponentSplit, Components, GraphError, UncertainGraph, VertexId};

/// Count of `prepare` / `prepare_base` pipeline executions started
/// on the **calling thread** (monotone, never reset). The session API
/// ([`crate::Prepared`]) promises that a prepared instance answers any
/// number of queries with the pipeline run exactly once; this counter
/// is what lets a test *assert* that — capture it before building a
/// session, exercise `count`/`collect`/`top_k`, and check the counter
/// moved by exactly one. It is per-thread so that pipelines run by
/// other threads (for instance other tests in the same harness) cannot
/// move it.
pub fn pipeline_invocations() -> u64 {
    PIPELINE_RUNS.with(Cell::get)
}

thread_local! {
    static PIPELINE_RUNS: Cell<u64> = const { Cell::new(0) };
}

fn count_pipeline_run() {
    PIPELINE_RUNS.with(|runs| runs.set(runs.get() + 1));
}

/// Configuration for [`prepare`]: what [`crate::Query`] collects.
#[derive(Debug, Clone)]
pub(crate) struct PrepareConfig {
    /// Only cliques with at least this many vertices are wanted
    /// (`0`/`1` = all α-maximal cliques). Values ≥ 2 engage the
    /// size-based stages and the Algorithm 6 search bound.
    pub min_size: usize,
    /// Enable stage 2, the expected-degree `(min_size−1)·α`-core filter
    /// (only engages when `min_size ≥ 2`).
    pub core_filter: bool,
    /// Enable stage 3, the Modani–Dey shared-neighborhood peel (only
    /// engages when `min_size ≥ 3`; at smaller thresholds its
    /// conditions are vacuous).
    pub shared_neighborhood: bool,
    /// Enable stage 4, sharding into connected components. When off the
    /// instance is a single component with an identity id map.
    pub shard_components: bool,
    /// Kernel configuration for the per-component search (index mode /
    /// budgets).
    pub mule: MuleConfig,
}

impl Default for PrepareConfig {
    fn default() -> Self {
        PrepareConfig {
            min_size: 0,
            core_filter: true,
            shared_neighborhood: true,
            shard_components: true,
            mule: MuleConfig::default(),
        }
    }
}

#[cfg(test)]
impl PrepareConfig {
    /// Default configuration with a size threshold.
    pub fn with_min_size(min_size: usize) -> Self {
        PrepareConfig {
            min_size,
            ..Default::default()
        }
    }
}

/// What each pipeline stage removed, plus the shape of the prepared
/// instance. All counts refer to the stage's own input (stages
/// compose, so e.g. `shared_pruned_edges` counts removals from the
/// already core-filtered graph).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrepareReport {
    /// Vertices of the input graph.
    pub original_vertices: usize,
    /// Edges of the input graph.
    pub original_edges: usize,
    /// Stage 1: edges with `p(e) < α` (Observation 3).
    pub alpha_pruned_edges: usize,
    /// Stage 2: vertices (with at least one surviving edge) outside the
    /// expected-degree `(t−1)·α`-core.
    pub core_filtered_vertices: usize,
    /// Stage 2: edges incident to a peeled vertex.
    pub core_filtered_edges: usize,
    /// Stage 3: edges removed by the shared-neighborhood fixpoint.
    pub shared_pruned_edges: usize,
    /// Stage 3: vertices isolated by the peel (had edges before it).
    pub shared_isolated_vertices: usize,
    /// Stage 4: connected components of the fully pruned graph.
    pub components_total: usize,
    /// Components that became enumeration instances.
    pub components_kept: usize,
    /// Components smaller than `min_size` (including isolated vertices
    /// when `min_size ≥ 2`) — dropped, since no qualifying clique fits.
    pub components_dropped_small: usize,
    /// Isolated vertices emitted as singleton maximal cliques (only
    /// when `min_size ≤ 1`) — directly by the scheduler, or by the
    /// kernel's root loop on the single-component fast path.
    pub singleton_vertices: usize,
    /// Vertex count of the largest kept component.
    pub largest_component: usize,
    /// Vertices of the decomposition's kept material (kept components
    /// plus singletons). The identity fast paths may carry
    /// sub-threshold stragglers through the kernel for free; those are
    /// excluded here so the accounting matches the sharded path.
    pub final_vertices: usize,
    /// Edges of the kept components (same accounting note as
    /// [`Self::final_vertices`]).
    pub final_edges: usize,
}

impl PrepareReport {
    /// Every counter as a `(name, value)` pair, in declaration order —
    /// the one place serializers (CLI report, bench JSON artifacts)
    /// enumerate the fields, so adding a counter cannot silently go
    /// missing from an output format.
    pub fn fields(&self) -> [(&'static str, usize); 14] {
        [
            ("original_vertices", self.original_vertices),
            ("original_edges", self.original_edges),
            ("alpha_pruned_edges", self.alpha_pruned_edges),
            ("core_filtered_vertices", self.core_filtered_vertices),
            ("core_filtered_edges", self.core_filtered_edges),
            ("shared_pruned_edges", self.shared_pruned_edges),
            ("shared_isolated_vertices", self.shared_isolated_vertices),
            ("components_total", self.components_total),
            ("components_kept", self.components_kept),
            ("components_dropped_small", self.components_dropped_small),
            ("singleton_vertices", self.singleton_vertices),
            ("largest_component", self.largest_component),
            ("final_vertices", self.final_vertices),
            ("final_edges", self.final_edges),
        ]
    }

    /// Multi-line human-readable rendering (the CLI's `--prune-report`).
    pub fn render(&self) -> String {
        format!(
            "prepare: {}v/{}e -> {}v/{}e\n\
             alpha-pruned edges:        {}\n\
             core-filtered:             {} vertices, {} edges\n\
             shared-neighborhood peel:  {} edges, {} vertices isolated\n\
             components:                {} total, {} kept, {} below min-size\n\
             singleton cliques:         {}\n\
             largest component:         {} vertices",
            self.original_vertices,
            self.original_edges,
            self.final_vertices,
            self.final_edges,
            self.alpha_pruned_edges,
            self.core_filtered_vertices,
            self.core_filtered_edges,
            self.shared_pruned_edges,
            self.shared_isolated_vertices,
            self.components_total,
            self.components_kept,
            self.components_dropped_small,
            self.singleton_vertices,
            self.largest_component,
        )
    }
}

/// One compact per-component instance: a dense-id subgraph wrapped in a
/// ready search kernel, plus the monotone map back to original ids.
pub(crate) struct PreparedComponent {
    pub(crate) kernel: Kernel,
    pub(crate) to_original: Vec<VertexId>,
}

/// One schedule entry of the global ascending-root emission order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Unit {
    /// An isolated original vertex, emitted directly as `{v}`.
    Singleton(VertexId),
    /// Root subtree `local` of component `comp`.
    Root { comp: u32, local: u32 },
}

impl Unit {
    /// The original vertex the unit emits or roots.
    fn original(self, components: &[PreparedComponent]) -> VertexId {
        match self {
            Unit::Singleton(v) => v,
            Unit::Root { comp, local } => components[comp as usize].to_original[local as usize],
        }
    }
}

/// The output of [`prepare`]: compact per-component instances, the
/// old↔new id maps, a [`PrepareReport`], and reusable search state, so
/// the same prepared instance can be enumerated repeatedly
/// (allocation-free in steady state).
pub(crate) struct PreparedInstance {
    pub(crate) alpha: f64,
    pub(crate) min_size: usize,
    pub(crate) original_n: usize,
    /// Name of the original graph, carried so incremental maintenance
    /// ([`crate::delta`]) can rebuild working graphs whose name matches
    /// what a fresh [`prepare`] of the mutated graph would produce.
    pub(crate) name: String,
    pub(crate) components: Vec<PreparedComponent>,
    /// Ascending original ids of isolated vertices (empty when
    /// `min_size ≥ 2`).
    pub(crate) singletons: Vec<VertexId>,
    /// Root subtrees and singletons in ascending original-id order —
    /// the direct search's emission order.
    pub(crate) schedule: Vec<Unit>,
    pub(crate) report: PrepareReport,
    /// The configuration the instance was prepared under — retained so
    /// the instance can be persisted ([`crate::catalog`]) and reopened
    /// with bit-identical kernels.
    pub(crate) config: PrepareConfig,
    pub(crate) stats: EnumerationStats,
    pub(crate) arenas: DepthArenas,
    pub(crate) clique_buf: Vec<VertexId>,
    pub(crate) remap_scratch: Vec<VertexId>,
}

/// Run every pipeline stage over `g` and build the prepared instance.
pub(crate) fn prepare(
    g: &UncertainGraph,
    alpha: f64,
    config: &PrepareConfig,
) -> Result<PreparedInstance, GraphError> {
    count_pipeline_run();
    let alpha = UncertainGraph::validate_alpha(alpha)?.get();
    let mut report = PrepareReport {
        original_vertices: g.num_vertices(),
        original_edges: g.num_edges(),
        ..Default::default()
    };

    // Stage 1: α-edge pruning (Observation 3).
    let work = subgraph::prune_below_alpha(g, alpha)?;
    report.alpha_pruned_edges = g.num_edges() - work.num_edges();

    let work = run_stages(&work, alpha, config, &mut report)?.unwrap_or(work);
    let mut asm = Assembly::default();
    asm.fresh(work, None, config, |_| true);
    Ok(asm.finish(g.num_vertices(), alpha, config, g.name(), report))
}

impl PreparedInstance {
    /// The α threshold the instance was prepared for.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The size threshold (`0`/`1` = all maximal cliques).
    pub fn min_size(&self) -> usize {
        self.min_size
    }

    /// Vertex count of the *original* graph.
    pub fn original_vertices(&self) -> usize {
        self.original_n
    }

    /// What each stage removed and the shape of the instance.
    pub fn report(&self) -> &PrepareReport {
        &self.report
    }

    /// The compact per-component instances as `(graph, to_original)`
    /// pairs; maps are monotone and pairwise disjoint.
    pub fn components(&self) -> impl ExactSizeIterator<Item = (&UncertainGraph, &[VertexId])> {
        self.components
            .iter()
            .map(|pc| (&*pc.kernel.g, pc.to_original.as_slice()))
    }

    /// Ascending original ids of isolated vertices, each a singleton
    /// maximal clique (empty when `min_size ≥ 2`).
    pub fn singletons(&self) -> &[VertexId] {
        &self.singletons
    }

    /// Counters from the most recent [`PreparedInstance::run_limited`].
    pub fn stats(&self) -> &EnumerationStats {
        &self.stats
    }

    /// The configuration the instance was prepared under.
    pub(crate) fn config(&self) -> &PrepareConfig {
        &self.config
    }

    /// Assemble an instance from its parts and build its schedule — the
    /// one constructor, behind [`Assembly::finish`] and the
    /// [`crate::catalog`] open path. The parts must be what stage 4
    /// yields: strictly increasing maps and singletons, pairwise disjoint
    /// (the decoder proves that with [`Self::schedule_ascends`]). It does
    /// **not** touch [`pipeline_invocations`]: no pipeline stage runs.
    pub(crate) fn from_parts(
        alpha: f64,
        config: PrepareConfig,
        original_n: usize,
        name: String,
        components: Vec<PreparedComponent>,
        singletons: Vec<VertexId>,
        report: PrepareReport,
    ) -> Self {
        let schedule = build_schedule(&singletons, &components);
        PreparedInstance {
            alpha,
            min_size: config.min_size,
            original_n,
            name,
            components,
            singletons,
            schedule,
            report,
            config,
            stats: EnumerationStats::new(),
            arenas: DepthArenas::new(),
            clique_buf: Vec::new(),
            remap_scratch: Vec::new(),
        }
    }

    pub(crate) fn component_parts(&self, comp: u32) -> (&Kernel, &[VertexId]) {
        let pc = &self.components[comp as usize];
        (&pc.kernel, &pc.to_original)
    }

    pub(crate) fn schedule(&self) -> &[Unit] {
        &self.schedule
    }

    /// Whether the schedule's original ids ascend strictly. The maps and
    /// the singletons each ascend strictly, so this holds exactly when
    /// they are pairwise disjoint: only an id two of them share can
    /// repeat once they are merged.
    pub(crate) fn schedule_ascends(&self) -> bool {
        let orig = |unit: &Unit| unit.original(&self.components);
        self.schedule.windows(2).all(|w| orig(&w[0]) < orig(&w[1]))
    }

    /// [`Self::run_limited`] without limits (the tests' entry point).
    #[cfg(test)]
    pub(crate) fn run<S: CliqueSink>(&mut self, sink: &mut S) -> &EnumerationStats {
        self.run_limited(sink, &mut RunLimits::none());
        &self.stats
    }

    /// Enumerate every α-maximal clique (of size ≥ `min_size` when one
    /// was configured) across all components, streaming each — in
    /// canonical order, translated back to original ids — into `sink`,
    /// under live [`RunLimits`]: probes once up front
    /// (so a zero deadline or pre-tripped token interrupts before the
    /// first emission even on tiny inputs), at every schedule-unit
    /// boundary, once more after the last unit (as each parallel worker
    /// does, so a run that crosses its budget inside its last unit
    /// fails at every thread count alike), and — through the kernel —
    /// every ~1024 search nodes inside a unit. Returns why the run was
    /// interrupted, or `None` for a clean finish (including a
    /// sink-requested [`Control::Stop`], after which nothing is
    /// probed). Counters for the partial run are in [`Self::stats`],
    /// and everything emitted before an interrupt is a byte-identical
    /// prefix of the uninterrupted stream.
    pub(crate) fn run_limited<S: CliqueSink>(
        &mut self,
        sink: &mut S,
        limits: &mut RunLimits,
    ) -> Option<Interrupt> {
        if !self.prologue(sink, limits) {
            return limits.tripped();
        }
        for &unit in &self.schedule {
            if limits.probe_now(self.stats.calls) {
                return limits.tripped();
            }
            let ctl = step(
                &self.components,
                self.min_size,
                &mut self.stats,
                unit,
                &mut self.arenas,
                &mut self.clique_buf,
                &mut self.remap_scratch,
                limits,
                sink,
            );
            if ctl == Control::Stop {
                return limits.tripped();
            }
        }
        limits.probe_now(self.stats.calls);
        limits.tripped()
    }

    /// The prologue of every run — [`Self::run_limited`], the
    /// pull-based iterator and the parallel driver: reset the
    /// counters, count the conceptual root node, probe the limits once,
    /// and emit the empty clique, maximal in the empty graph, unless a
    /// size threshold excludes it (it has zero vertices). Returns
    /// `false` when a limit fired, in which case no schedule unit may
    /// run.
    pub(crate) fn prologue<S: CliqueSink>(&mut self, sink: &mut S, limits: &mut RunLimits) -> bool {
        self.stats = EnumerationStats::new();
        self.stats.calls += 1; // the conceptual root node
        self.arenas.clear();
        self.clique_buf.clear();
        if limits.probe_now(self.stats.calls) {
            return false;
        }
        if self.original_n == 0 && self.min_size <= 1 {
            self.stats.emitted += 1;
            sink.emit(&[], 1.0);
        }
        true
    }

    /// Number of schedule units (root subtrees + singleton emissions).
    pub(crate) fn num_units(&self) -> usize {
        self.schedule.len()
    }

    /// Run exactly one schedule unit into `sink` — the same per-unit
    /// body [`Self::run_limited`] loops over, so an incremental consumer
    /// emits the byte-identical stream. Counters accumulate into
    /// [`Self::stats`]; call [`Self::prologue`] first.
    pub(crate) fn run_unit<S: CliqueSink>(&mut self, idx: usize, sink: &mut S) -> Control {
        // The pull-based path is caller-paced (the consumer can simply
        // stop pulling), so it runs without limits.
        step(
            &self.components,
            self.min_size,
            &mut self.stats,
            self.schedule[idx],
            &mut self.arenas,
            &mut self.clique_buf,
            &mut self.remap_scratch,
            &mut RunLimits::none(),
            sink,
        )
    }
}

/// The global emission schedule: units in ascending original-id order.
/// Component-internal ids ascend in original order, so sorting the
/// component roots by original id interleaves components exactly as one
/// root loop over the whole graph would; the ascending singleton run is
/// then merged in, with no `n`-slot table. A lone component's roots are
/// already in order, and with no singletons there is nothing to merge:
/// the single-kernel shape (every stage off, or the identity fast path)
/// skips both passes. Built only by [`PreparedInstance::from_parts`].
fn build_schedule(singletons: &[VertexId], components: &[PreparedComponent]) -> Vec<Unit> {
    let orig = |unit: &Unit| unit.original(components);
    let mut roots = Vec::with_capacity(components.iter().map(|pc| pc.to_original.len()).sum());
    for (comp, pc) in (0..).zip(components) {
        roots.extend((0..pc.to_original.len() as u32).map(|local| Unit::Root { comp, local }));
    }
    if components.len() > 1 {
        roots.sort_unstable_by_key(orig);
    }
    if singletons.is_empty() {
        return roots;
    }
    merge_runs(roots, singletons.iter().map(|&v| Unit::Singleton(v)), orig)
}

/// Merge two runs, each strictly ascending in `key`, into one.
pub(crate) fn merge_runs<T>(
    a: impl IntoIterator<Item = T>,
    b: impl IntoIterator<Item = T>,
    key: impl Fn(&T) -> VertexId,
) -> Vec<T> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    let mut out = Vec::with_capacity(a.size_hint().1.unwrap_or(0) + b.size_hint().1.unwrap_or(0));
    while let Some(x) = a
        .next_if(|x| b.peek().is_none_or(|y| key(x) < key(y)))
        .or_else(|| b.next())
    {
        out.push(x);
    }
    out
}

/// One schedule unit of a prepared run: emit a singleton directly (or
/// skip it once the sink's admission floor is `≥ 1`), or search a root
/// subtree at the configured size threshold
/// ([`search_root`]), translating ids in the sink layer unless the
/// component's map is the identity. The only code that runs a unit:
/// shared verbatim by [`PreparedInstance::run_limited`],
/// [`PreparedInstance::run_unit`] and the parallel driver's workers, so
/// the streaming, pull-based and parallel paths cannot drift apart.
#[allow(clippy::too_many_arguments)] // the run loop's split-borrowed state
pub(crate) fn step<S: CliqueSink>(
    components: &[PreparedComponent],
    min_size: usize,
    stats: &mut EnumerationStats,
    unit: Unit,
    arenas: &mut DepthArenas,
    c: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
    limits: &mut RunLimits,
    sink: &mut S,
) -> Control {
    match unit {
        // A floor at or above 1 rejects even a probability-1 singleton:
        // skip it as `search_root` skips a root (kernel docs, "β
        // admission cut").
        Unit::Singleton(_) if sink.admission_floor().is_some_and(|beta| beta >= 1.0) => {
            stats.beta_pruned += 1;
            Control::Continue
        }
        Unit::Singleton(v) => {
            stats.calls += 1;
            stats.max_depth = stats.max_depth.max(1);
            stats.emitted += 1;
            sink.emit(&[v], 1.0)
        }
        Unit::Root { comp, local } => {
            let pc = &components[comp as usize];
            // A strictly increasing map whose last entry is `len − 1` is
            // the identity (the single-kernel shape): no translation.
            let map = &pc.to_original;
            if map.last().is_some_and(|&v| v as usize + 1 == map.len()) {
                return search_root(&pc.kernel, local, min_size, stats, arenas, c, limits, sink);
            }
            let mut remap = Remap {
                inner: sink,
                map: &pc.to_original,
                scratch,
            };
            search_root(
                &pc.kernel, local, min_size, stats, arenas, c, limits, &mut remap,
            )
        }
    }
}

// ---------------------------------------------------------------------------
// α-split base artifacts: prepare once at a floor, refine per α.
// ---------------------------------------------------------------------------

/// One α-independent base component: a compact, connected subgraph of
/// the floor-pruned graph wrapped in a ready kernel (graph behind
/// [`std::sync::Arc`]), its monotone map to original ids,
/// and the smallest edge probability inside it — the O(1) "does α touch
/// this component at all?" probe `PreparedBase::refine` keys its
/// fast path on.
pub(crate) struct BaseComponent {
    pub(crate) kernel: Kernel,
    pub(crate) to_original: Vec<VertexId>,
    pub(crate) min_prob: f64,
}

impl BaseComponent {
    /// Wrap one floor-pruned component (at least two vertices, so it
    /// has edges) in a kernel stamped at the floor.
    pub(crate) fn new(
        g: UncertainGraph,
        map: Vec<VertexId>,
        floor: f64,
        mule: &MuleConfig,
    ) -> Self {
        let min_prob = g.min_edge_prob().expect("a size-≥2 component has edges");
        BaseComponent {
            kernel: Kernel::wrap(g, floor, mule),
            to_original: map,
            min_prob,
        }
    }
}

/// The α-independent half of the pipeline: connected components of the
/// floor-pruned graph and compact id maps, computed **once** and
/// reusable for every query threshold `α ≥ floor`.
///
/// [`prepare_base`] runs only the α-generic work — a prune at the
/// configurable floor (`0.0` = keep everything) and the component
/// decomposition. No core-filter or peel runs at the floor: those
/// stages are α-dependent, and running them early would compose
/// differently with a later α than the fresh pipeline does. Keeping
/// *all* material at the base is what lets `PreparedBase::refine`
/// reconstruct the full [`PrepareReport`] and the exact component
/// accounting of a fresh [`prepare`] at any α.
///
/// `refine(α)` derives a per-α [`PreparedInstance`] by running the
/// α-dependent stages *inside each component* (see the module docs);
/// the result is byte-identical to the fresh pipeline (pinned by
/// `tests/alpha_refine.rs`). A component the α-stages leave untouched
/// is **shared** into the refined view as an `Arc` clone of its graph
/// with a re-stamped α — zero copying.
pub(crate) struct PreparedBase {
    pub(crate) floor: f64,
    pub(crate) original_n: usize,
    pub(crate) original_edges: usize,
    /// The original graph's dataset name — re-attached when a refinement
    /// collapses to the whole-graph identity path, whose kernel graph
    /// carries the input name (component subgraphs carry `""`).
    pub(crate) name: String,
    pub(crate) config: PrepareConfig,
    pub(crate) components: Vec<BaseComponent>,
    /// Ascending original ids of vertices isolated at the floor.
    pub(crate) isolated: Vec<VertexId>,
}

/// Run the α-independent pipeline stages over `g` at `floor` and build
/// the reusable base artifact. `floor` must be a finite value in
/// `[0, 1]`; `0.0` (the default in the session API) prunes nothing, so
/// the base serves **every** valid α. Counts as one pipeline execution
/// for [`pipeline_invocations`]; refinements add zero.
pub(crate) fn prepare_base(
    g: &UncertainGraph,
    floor: f64,
    config: &PrepareConfig,
) -> Result<PreparedBase, GraphError> {
    if !(0.0..=1.0).contains(&floor) {
        // Rejects NaN too: comparisons with NaN are false.
        return Err(GraphError::InvalidAlpha { value: floor });
    }
    count_pipeline_run();
    // Edge probabilities are strictly positive, so a zero floor prunes
    // nothing — work straight off the input (α validation also rejects
    // 0, so the prune entry point cannot express it).
    let work = if floor > 0.0 {
        Cow::Owned(subgraph::prune_below_alpha(g, floor)?)
    } else {
        Cow::Borrowed(g)
    };
    let (components, isolated) = split_base(work, floor, &config.mule, |_| true)?;
    Ok(PreparedBase {
        floor,
        original_n: g.num_vertices(),
        original_edges: g.num_edges(),
        name: g.name().to_string(),
        config: config.clone(),
        components,
        isolated,
    })
}

/// The base components and lone vertices of `g`, a floor-pruned graph
/// over original ids, in ascending order of their smallest vertex. A
/// lone vertex is kept only where `keep_lone` says so (incremental
/// maintenance skips the untouched ones it carries over).
pub(crate) fn split_base(
    g: Cow<'_, UncertainGraph>,
    floor: f64,
    mule: &MuleConfig,
    keep_lone: impl Fn(VertexId) -> bool,
) -> Result<(Vec<BaseComponent>, Vec<VertexId>), GraphError> {
    let split = Components::compute(&g).split();
    let n = g.num_vertices();
    if split.components().len() == 1 && split.component(0).len() == n {
        // One component holds every vertex: take the graph itself under
        // the identity map, named as `induced_subgraph` names a copy.
        let sub = g.into_owned().with_name("");
        let whole = BaseComponent::new(sub, (0..n as VertexId).collect(), floor, mule);
        return Ok((vec![whole], Vec::new()));
    }
    let components = split
        .components()
        .map(|list| {
            let (sub, map) = subgraph::induced_subgraph(&g, list)?;
            Ok(BaseComponent::new(sub, map, floor, mule))
        })
        .collect::<Result<Vec<_>, GraphError>>()?;
    let mut lone = split.into_lone();
    lone.retain(|&v| keep_lone(v));
    Ok((components, lone))
}

impl PreparedBase {
    /// The α-floor the base was pruned at (`0.0` = no pruning).
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// The size threshold refinements are built for.
    pub fn min_size(&self) -> usize {
        self.config.min_size
    }

    /// Vertex count of the original graph.
    pub fn original_vertices(&self) -> usize {
        self.original_n
    }

    /// Edge count of the original graph (pre-floor), retained so
    /// refinements can reconstruct the fresh α-prune accounting.
    pub fn original_edges(&self) -> usize {
        self.original_edges
    }

    /// The original graph's dataset name.
    pub fn graph_name(&self) -> &str {
        &self.name
    }

    /// The configuration refinements are built under.
    pub(crate) fn config(&self) -> &PrepareConfig {
        &self.config
    }

    /// The floor-pruned base components as `(graph, to_original)` pairs;
    /// maps are monotone and pairwise disjoint.
    pub fn components(&self) -> impl ExactSizeIterator<Item = (&UncertainGraph, &[VertexId])> {
        self.components
            .iter()
            .map(|bc| (&*bc.kernel.g, bc.to_original.as_slice()))
    }

    /// Ascending original ids of vertices isolated at the floor.
    pub fn isolated(&self) -> &[VertexId] {
        &self.isolated
    }

    /// Reassemble a base from deserialized parts (the [`crate::catalog`]
    /// open path). The decoder has validated the cross-part invariants
    /// (connectivity, disjoint coverage, floor consistency); like
    /// [`PreparedInstance::from_parts`] this never touches
    /// [`pipeline_invocations`], and it builds no index.
    pub(crate) fn from_parts(
        floor: f64,
        config: PrepareConfig,
        original_n: usize,
        original_edges: usize,
        name: String,
        parts: Vec<(UncertainGraph, Vec<VertexId>)>,
        isolated: Vec<VertexId>,
    ) -> Self {
        let components = parts
            .into_iter()
            .map(|(g, map)| BaseComponent::new(g, map, floor, &config.mule))
            .collect();
        PreparedBase {
            floor,
            original_n,
            original_edges,
            name,
            config,
            components,
            isolated,
        }
    }

    /// Derive the per-α view: run the α-dependent stages **inside each
    /// base component** (see the module docs) and assemble a
    /// [`PreparedInstance`] byte-identical — graphs, id maps, schedule,
    /// report, probability bits — to a fresh [`prepare`]`(g, alpha,
    /// config)`. Does **not** count as a pipeline execution.
    ///
    /// The caller (the session layer) guarantees `alpha ≥ floor`; below
    /// the floor the base is missing edges the fresh pipeline would
    /// keep, so the equivalence breaks — debug-asserted here, surfaced
    /// as a typed error in [`crate::query`].
    pub(crate) fn refine(&self, alpha: f64) -> Result<PreparedInstance, GraphError> {
        let alpha = UncertainGraph::validate_alpha(alpha)?.get();
        debug_assert!(
            alpha >= self.floor,
            "refine below the base floor ({} < {})",
            alpha,
            self.floor
        );
        let mut report = PrepareReport {
            original_vertices: self.original_n,
            original_edges: self.original_edges,
            ..Default::default()
        };
        let mut surviving = 0usize; // Σ edges after local stage 1
        let mut asm = Assembly::default();
        for bc in &self.components {
            // Stage 1: mask sub-α edges. `min_prob ≥ α` ⇔ nothing to
            // drop ⇔ the pruned CSR would be byte-identical — skip.
            let pruned = (bc.min_prob < alpha)
                .then(|| subgraph::prune_below_alpha(&bc.kernel.g, alpha))
                .transpose()?;
            let cur = pruned.as_ref().unwrap_or(&bc.kernel.g);
            surviving += cur.num_edges();
            match run_stages(cur, alpha, &self.config, &mut report)?.or(pruned) {
                // Untouched: the fresh induced subgraph would be
                // byte-identical to the base component, so share the
                // resident graph (O(1)) under a re-stamped α.
                None => asm.keep(PreparedComponent {
                    kernel: bc.kernel.share_at(alpha),
                    to_original: bc.to_original.clone(),
                }),
                Some(work) => asm.fresh(work, Some(&bc.to_original), &self.config, |_| true),
            }
        }
        asm.isolated(&self.isolated);
        report.alpha_pruned_edges = self.original_edges - surviving;
        Ok(asm.finish(self.original_n, alpha, &self.config, &self.name, report))
    }
}

// ---------------------------------------------------------------------------
// The stage runner and the component assembler: the one implementation
// of stages 2–4 behind `prepare`, `PreparedBase::refine` and
// `crate::delta`.
// ---------------------------------------------------------------------------

/// Stages 2 and 3 over one α-pruned working graph — the whole graph, one
/// base component, or a delta's touched region — adding their losses
/// into `report`. Returns `None` when neither stage removed anything, so
/// the caller keeps `work` as it is.
pub(crate) fn run_stages(
    work: &UncertainGraph,
    alpha: f64,
    config: &PrepareConfig,
    report: &mut PrepareReport,
) -> Result<Option<UncertainGraph>, GraphError> {
    let t = config.min_size;
    let mut out = None;

    // Stage 2: expected-degree (t−1)·α-core filter.
    if t >= 2 && config.core_filter && work.num_edges() > 0 {
        let n = work.num_vertices();
        let mut in_core = vec![false; n];
        for v in CoreDecomposition::compute(work).core((t - 1) as f64 * alpha) {
            in_core[v as usize] = true;
        }
        let dropped = (0..n)
            .filter(|&v| !in_core[v] && work.degree(v as VertexId) > 0)
            .count();
        if dropped > 0 {
            let kept = subgraph::restrict_to_vertices(work, &in_core);
            report.core_filtered_vertices += dropped;
            report.core_filtered_edges += work.num_edges() - kept.num_edges();
            out = Some(kept);
        }
    }

    // Stage 3: Modani–Dey shared-neighborhood peel (vacuous for t < 3).
    // The input is already α-pruned, so the peel-only entry point
    // applies. A peel that removes nothing rebuilds the same CSR.
    let cur = out.as_ref().unwrap_or(work);
    if t >= 3 && config.shared_neighborhood && cur.num_edges() > 0 {
        let (peeled, pr) = shared_neighborhood_peel(cur, t)?;
        report.shared_pruned_edges += pr.shared_pruned_edges;
        report.shared_isolated_vertices += pr.degree_pruned_vertices;
        if pr.shared_pruned_edges > 0 {
            out = Some(peeled);
        }
    }
    Ok(out)
}

/// One component entry of an instance under assembly. It indexes the
/// [`Assembly`]'s storage, so the entry list — one entry per component
/// of two or more vertices — stays small.
#[derive(Clone, Copy)]
enum Entry {
    /// Carried-over component `kept[i]`.
    Keep(u32),
    /// Component `comp` of working graph `sources[src]` (local ids).
    Fresh { src: u32, comp: u32 },
}

/// A working graph of an [`Assembly`] and its map to original ids.
type Source<'a> = (UncertainGraph, Option<&'a [VertexId]>);

/// A [`PreparedInstance`] under construction: the staged working graphs,
/// each with its map to original ids (`None` for an n-vertex graph over
/// original ids) and its stage-4 split, the carried-over components, the
/// component entries, and the lone vertices as two runs (see the module
/// docs).
#[derive(Default)]
pub(crate) struct Assembly<'a> {
    sources: Vec<Source<'a>>,
    /// `splits[src]`: the components of `sources[src]` (sharding only).
    splits: Vec<ComponentSplit>,
    kept: Vec<Option<PreparedComponent>>,
    entries: Vec<(VertexId, Entry)>,
    /// Ascending original ids of vertices isolated before the stages ran.
    isolated: &'a [VertexId],
    /// Original ids of vertices the stages left lone, in arrival order.
    lone: Vec<VertexId>,
}

impl<'a> Assembly<'a> {
    /// Carry `pc` over as it is.
    pub(crate) fn keep(&mut self, pc: PreparedComponent) {
        let entry = Entry::Keep(self.kept.len() as u32);
        self.entries.push((pc.to_original[0], entry));
        self.kept.push(Some(pc));
    }

    /// Set the ascending run of original vertices isolated before the
    /// stages ran. It is merged as it is, never sorted.
    pub(crate) fn isolated(&mut self, run: &'a [VertexId]) {
        debug_assert!(run.windows(2).all(|w| w[0] < w[1]));
        self.isolated = run;
    }

    /// Add a staged working graph and its connected components (stage
    /// 4) whose first original vertex passes `keep`: multi-vertex
    /// components as entries, lone vertices into the lone run. With
    /// sharding off only the whole-graph merge reads the graph, so it
    /// gets no entries.
    pub(crate) fn fresh(
        &mut self,
        graph: UncertainGraph,
        map: Option<&'a [VertexId]>,
        config: &PrepareConfig,
        keep: impl Fn(VertexId) -> bool,
    ) {
        if config.shard_components {
            let src = self.sources.len() as u32;
            let split = Components::compute(&graph).split();
            let orig = |l: VertexId| map.map_or(l, |m| m[l as usize]);
            for (comp, list) in split.components().enumerate() {
                let first = orig(list[0]);
                if keep(first) {
                    let comp = comp as u32;
                    self.entries.push((first, Entry::Fresh { src, comp }));
                }
            }
            let lone = split.lone().iter().map(|&l| orig(l));
            self.lone.extend(lone.filter(|&v| keep(v)));
            self.splits.push(split);
        }
        self.sources.push((graph, map));
    }

    /// Assemble the instance. `report` must hold the stage 1–3 counters;
    /// the stage-4 counters are filled in here.
    pub(crate) fn finish(
        self,
        n: usize,
        alpha: f64,
        config: &PrepareConfig,
        name: &str,
        mut report: PrepareReport,
    ) -> PreparedInstance {
        let Assembly {
            mut sources,
            splits,
            mut kept,
            mut entries,
            isolated,
            mut lone,
        } = self;
        let t = config.min_size;
        let min_keep = t.max(2);
        // (vertices, edges) of an entry; no arc leaves a component.
        let size = |kept: &[Option<PreparedComponent>], sources: &[Source], e: Entry| match e {
            Entry::Keep(i) => {
                let pc = kept[i as usize].as_ref().expect("each entry is used once");
                (pc.to_original.len(), pc.kernel.g.num_edges())
            }
            Entry::Fresh { src, comp } => {
                let g = &sources[src as usize].0;
                let list = splits[src as usize].component(comp as usize);
                (
                    list.len(),
                    list.iter().map(|&v| g.degree(v)).sum::<usize>() / 2,
                )
            }
        };
        // Identity fast path: with exactly one real component a compact
        // copy would reproduce (almost) the whole graph, so the kernel
        // takes the whole graph instead; the root loop handles isolated
        // vertices and the size bound handles sub-threshold stragglers,
        // each one O(deg) root expansion — cheaper than the avoided
        // O(n + m) copy. The report still counts only the kept material.
        let qualifying = entries
            .iter()
            .filter(|(_, e)| size(&kept, &sources, *e).0 >= min_keep);
        let whole = !config.shard_components || qualifying.count() == 1;
        let mut components = Vec::new();
        let mut singletons = Vec::new();
        if config.shard_components {
            entries.sort_unstable_by_key(|e| e.0);
            let lone_count = isolated.len() + lone.len();
            report.components_total = entries.len() + lone_count;
            for &(_, e) in &entries {
                let (len, edges) = size(&kept, &sources, e);
                if len < min_keep {
                    report.components_dropped_small += 1;
                    continue;
                }
                report.components_kept += 1;
                report.largest_component = report.largest_component.max(len);
                report.final_vertices += len;
                report.final_edges += edges;
                if whole {
                    continue;
                }
                components.push(match e {
                    Entry::Keep(i) => kept[i as usize].take().expect("each entry is used once"),
                    Entry::Fresh { src, comp } => {
                        let (g, map) = &mut sources[src as usize];
                        let list = splits[src as usize].component(comp as usize);
                        let sub = if list.len() == g.num_vertices() {
                            // The component is its whole working graph
                            // (`list` is then `0..len`): move the graph,
                            // named as `induced_subgraph` names a copy.
                            std::mem::take(g).with_name("")
                        } else {
                            subgraph::induced_subgraph(g, list)
                                .expect("component lists are in range")
                                .0
                        };
                        PreparedComponent {
                            kernel: Kernel::wrap(sub, alpha, &config.mule),
                            to_original: match map {
                                None => list.to_vec(),
                                Some(m) => list.iter().map(|&l| m[l as usize]).collect(),
                            },
                        }
                    }
                });
            }
            if t <= 1 {
                // An isolated vertex is itself a maximal clique.
                report.singleton_vertices += lone_count;
                report.final_vertices += lone_count;
                report.largest_component = report.largest_component.max(lone_count.min(1));
                if !whole {
                    // Only the lone vertices the stages made need a sort.
                    lone.sort_unstable();
                    singletons = merge_runs(isolated.iter().copied(), lone, |&v| v);
                }
            } else {
                report.components_dropped_small += lone_count;
            }
        }
        if whole && n > 0 {
            let g = whole_graph(n, sources, kept.iter().flatten(), name);
            if !config.shard_components {
                report.components_total = 1;
                report.components_kept = 1;
                report.largest_component = n;
                report.final_edges = g.num_edges();
                report.final_vertices = n;
            }
            components.push(PreparedComponent {
                kernel: Kernel::wrap(g, alpha, &config.mule),
                to_original: (0..n as VertexId).collect(),
            });
        }
        PreparedInstance::from_parts(
            alpha,
            config.clone(),
            n,
            name.to_string(),
            components,
            singletons,
            report,
        )
    }
}

/// The whole staged n-vertex graph under the original dataset name, as
/// the fresh identity fast path and shard-off shape hold it: a lone
/// working graph of all n vertices is moved (its map, if any, is the
/// identity); otherwise each vertex's row is copied from the one part
/// that holds it (rows stay sorted under the monotone maps).
fn whole_graph<'a>(
    n: usize,
    mut sources: Vec<Source<'_>>,
    kept: impl Iterator<Item = &'a PreparedComponent>,
    name: &str,
) -> UncertainGraph {
    let kept: Vec<_> = kept
        .map(|pc| (&*pc.kernel.g, Some(&pc.to_original[..])))
        .collect();
    if sources.len() == 1 && sources[0].0.num_vertices() == n && kept.is_empty() {
        return sources.pop().unwrap().0.with_name(name);
    }
    let parts: Vec<(&UncertainGraph, Option<&[VertexId]>)> =
        sources.iter().map(|(g, m)| (g, *m)).chain(kept).collect();
    let mut owner = vec![(u32::MAX, 0 as VertexId); n];
    for (pi, &(g, map)) in parts.iter().enumerate() {
        for l in 0..g.num_vertices() as VertexId {
            if g.degree(l) > 0 {
                owner[map.map_or(l, |m| m[l as usize]) as usize] = (pi as u32, l);
            }
        }
    }
    let arcs = parts.iter().map(|(g, _)| 2 * g.num_edges()).sum();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut neighbors = Vec::with_capacity(arcs);
    let mut probs = Vec::with_capacity(arcs);
    for &(pi, l) in &owner {
        if pi != u32::MAX {
            let (g, map) = parts[pi as usize];
            for (w, p) in g.neighbors_with_probs(l) {
                neighbors.push(map.map_or(w, |m| m[w as usize]));
                probs.push(p);
            }
        }
        offsets.push(neighbors.len());
    }
    UncertainGraph::try_from_csr(offsets, neighbors, probs, name.to_string())
        .expect("merged per-component rows form a valid CSR")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::{CollectSink, CountSink, FirstKSink};
    use ugraph_core::builder::{complete_graph, from_edges, GraphBuilder};
    use ugraph_core::Prob;

    /// Two triangles in separate components, an isolated vertex, and a
    /// pendant edge — exercises sharding, singletons and remapping.
    fn fixture() -> UncertainGraph {
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

    /// One unsharded kernel over the α-pruned graph, core filter off:
    /// the peel (engaged at `min_size ≥ 3`) is the only stage left.
    fn single_kernel(min_size: usize) -> PrepareConfig {
        PrepareConfig {
            min_size,
            core_filter: false,
            shard_components: false,
            ..Default::default()
        }
    }

    fn direct(g: &UncertainGraph, alpha: f64) -> (Vec<Vec<VertexId>>, Vec<u64>) {
        let mut m = prepare(g, alpha, &single_kernel(0)).unwrap();
        let mut sink = CollectSink::new();
        m.run(&mut sink);
        let pairs = sink.into_pairs();
        (
            pairs.iter().map(|(c, _)| c.clone()).collect(),
            pairs.iter().map(|(_, p)| p.to_bits()).collect(),
        )
    }

    fn prepared(g: &UncertainGraph, alpha: f64) -> (Vec<Vec<VertexId>>, Vec<u64>) {
        let mut inst = prepare(g, alpha, &PrepareConfig::default()).unwrap();
        let mut sink = CollectSink::new();
        inst.run(&mut sink);
        let pairs = sink.into_pairs();
        (
            pairs.iter().map(|(c, _)| c.clone()).collect(),
            pairs.iter().map(|(_, p)| p.to_bits()).collect(),
        )
    }

    #[test]
    fn emission_stream_matches_direct_mule_exactly() {
        let g = fixture();
        for alpha in [0.9, 0.5, 0.25, 0.05] {
            assert_eq!(prepared(&g, alpha), direct(&g, alpha), "α={alpha}");
        }
    }

    #[test]
    fn stats_match_direct_mule() {
        let g = fixture();
        for alpha in [0.9, 0.5, 0.25] {
            let mut m = prepare(&g, alpha, &single_kernel(0)).unwrap();
            let mut s1 = CountSink::new();
            m.run(&mut s1);
            let mut inst = prepare(&g, alpha, &PrepareConfig::default()).unwrap();
            let mut s2 = CountSink::new();
            inst.run(&mut s2);
            assert_eq!(inst.stats(), m.stats(), "α={alpha}");
        }
    }

    #[test]
    fn report_accounts_for_stages() {
        let g = fixture();
        let inst = prepare(&g, 0.5, &PrepareConfig::default()).unwrap();
        let r = inst.report();
        assert_eq!(r.original_vertices, 9);
        assert_eq!(r.original_edges, 7);
        assert_eq!(r.alpha_pruned_edges, 1, "the 0.3 edge");
        // Components of the pruned graph: two triangles + three
        // isolated vertices (3, 7, 8).
        assert_eq!(r.components_total, 5);
        assert_eq!(r.components_kept, 2);
        assert_eq!(r.singleton_vertices, 3);
        assert_eq!(r.largest_component, 3);
        assert_eq!(r.final_vertices, 9);
        assert_eq!(r.final_edges, 6);
        assert!(inst.report().render().contains("components"));
    }

    #[test]
    fn components_are_compact_and_monotone() {
        let g = fixture();
        let inst = prepare(&g, 0.5, &PrepareConfig::default()).unwrap();
        assert_eq!(inst.components().len(), 2);
        for (sub, map) in inst.components() {
            assert_eq!(sub.num_vertices(), 3);
            assert_eq!(sub.num_edges(), 3);
            assert_eq!(sub.num_vertices(), map.len());
            assert!(map.windows(2).all(|w| w[0] < w[1]), "map not monotone");
        }
        assert_eq!(inst.singletons(), &[3, 7, 8]);
        assert_eq!(inst.alpha(), 0.5);
        assert_eq!(inst.min_size(), 0);
        assert_eq!(inst.original_vertices(), 9);
    }

    #[test]
    fn min_size_matches_direct_large_mule() {
        // K4 sharing a vertex with a K3, plus pendants.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v, 0.9));
            }
        }
        edges.extend([(3, 4, 0.9), (3, 5, 0.9), (4, 5, 0.9), (5, 6, 0.9)]);
        let g = from_edges(8, &edges).unwrap();
        for alpha in [0.9, 0.5, 0.1, 0.01] {
            for t in 2..=5 {
                // One kernel on the whole graph.
                let mut lm = prepare(&g, alpha, &single_kernel(t)).unwrap();
                let mut sink = CollectSink::new();
                lm.run(&mut sink);
                let expected = sink.into_sorted_cliques();
                let got = crate::Query::new(&g)
                    .alpha(alpha)
                    .min_size(t)
                    .prepare()
                    .unwrap()
                    .sorted_cliques()
                    .unwrap();
                assert_eq!(got, expected, "α={alpha}, t={t}");
            }
        }
    }

    #[test]
    fn min_size_two_drops_singletons() {
        let g = fixture();
        let inst = prepare(&g, 0.5, &PrepareConfig::with_min_size(2)).unwrap();
        assert!(inst.singletons().is_empty());
        assert_eq!(inst.report().components_dropped_small, 3);
    }

    #[test]
    fn core_filter_strips_pendants() {
        // K4 with a pendant chain: at t = 4 the chain's expected degree
        // can never reach 3·α.
        let mut edges = vec![(3u32, 4u32, 0.9), (4, 5, 0.9)];
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v, 0.9));
            }
        }
        let g = from_edges(6, &edges).unwrap();
        let inst = prepare(&g, 0.5, &PrepareConfig::with_min_size(4)).unwrap();
        assert!(inst.report().core_filtered_vertices + inst.report().shared_pruned_edges > 0);
        // One real component remains, so the identity fast path keeps
        // the pruned graph whole (chain vertices isolated, not copied
        // out) rather than building a compact copy.
        assert_eq!(inst.components().len(), 1);
        let (sub, map) = inst.components().next().unwrap();
        assert_eq!(sub.num_edges(), 6);
        assert_eq!(map, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(inst.report().largest_component, 4);
        assert_eq!(inst.report().components_dropped_small, 2);
    }

    #[test]
    fn empty_graph_with_min_size_emits_nothing() {
        // The empty clique has zero vertices, so it never meets a size
        // threshold, on one kernel or sharded.
        let g = GraphBuilder::new(0).build();
        let mut lm = prepare(&g, 0.5, &single_kernel(3)).unwrap();
        let mut direct = CollectSink::new();
        lm.run(&mut direct);
        assert!(direct.is_empty());

        let mut inst = prepare(&g, 0.5, &PrepareConfig::with_min_size(3)).unwrap();
        let mut sink = CollectSink::new();
        inst.run(&mut sink);
        assert!(sink.is_empty());

        let mut inst = prepare(&g, 0.5, &PrepareConfig::with_min_size(3)).unwrap();
        let limits = crate::limits::LimitSpec::default();
        let (pairs, _) = crate::parallel::collect(&mut inst, 2, &limits);
        assert!(pairs.is_empty());
        assert_eq!(inst.stats().emitted, 0);
    }

    #[test]
    fn identity_fast_path_report_matches_sharded_accounting() {
        // K4 plus a disjoint heavy edge pair and an isolated vertex:
        // one real component at t = 3, so the identity fast path fires,
        // but the report must count only the kept material — the same
        // numbers the sharded path would report.
        let mut edges = vec![(4u32, 5u32, 0.9)];
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v, 0.9));
            }
        }
        let g = from_edges(7, &edges).unwrap();
        let inst = prepare(&g, 0.5, &PrepareConfig::with_min_size(3)).unwrap();
        let r = inst.report();
        assert_eq!(r.components_kept, 1);
        assert_eq!(r.final_vertices, 4, "only the K4 is kept material");
        assert_eq!(r.final_edges, 6);
        assert_eq!(r.largest_component, 4);
        // The {4,5} edge falls to the core filter (expected degree 0.9
        // is below the (t−1)·α = 1.0 bound), so 4, 5 and the isolated 6
        // are all sub-threshold singleton components.
        assert_eq!(r.core_filtered_vertices, 2);
        assert_eq!(r.core_filtered_edges, 1);
        assert_eq!(r.components_dropped_small, 3);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let mut inst = prepare(
            &GraphBuilder::new(0).build(),
            0.5,
            &PrepareConfig::default(),
        )
        .unwrap();
        let mut sink = CollectSink::new();
        inst.run(&mut sink);
        assert_eq!(sink.into_sorted_cliques(), vec![Vec::<VertexId>::new()]);

        let mut inst = prepare(
            &GraphBuilder::new(3).build(),
            0.5,
            &PrepareConfig::default(),
        )
        .unwrap();
        let mut sink = CollectSink::new();
        inst.run(&mut sink);
        assert_eq!(sink.into_sorted_cliques(), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(inst.report().singleton_vertices, 3);
    }

    #[test]
    fn shard_off_is_a_single_identity_component() {
        let g = fixture();
        let cfg = PrepareConfig {
            shard_components: false,
            ..Default::default()
        };
        let inst = prepare(&g, 0.5, &cfg).unwrap();
        assert_eq!(inst.components().len(), 1);
        let (sub, map) = inst.components().next().unwrap();
        assert_eq!(sub.num_vertices(), 9);
        assert_eq!(map.len(), 9);
        assert!(map.iter().enumerate().all(|(i, &v)| i as u32 == v));
        let mut inst = prepare(&g, 0.5, &cfg).unwrap();
        let mut sink = CollectSink::new();
        inst.run(&mut sink);
        let (cliques, _) = direct(&g, 0.5);
        assert_eq!(
            sink.into_pairs()
                .into_iter()
                .map(|(c, _)| c)
                .collect::<Vec<_>>(),
            cliques
        );
    }

    #[test]
    fn rerun_is_idempotent_and_early_stop_respected() {
        let g = fixture();
        let mut inst = prepare(&g, 0.5, &PrepareConfig::default()).unwrap();
        let mut s1 = CountSink::new();
        inst.run(&mut s1);
        let mut s2 = CountSink::new();
        inst.run(&mut s2);
        assert_eq!(s1.count, s2.count);

        let mut first = FirstKSink::new(2);
        inst.run(&mut first);
        assert_eq!(first.into_cliques().len(), 2);
        assert!(inst.stats().emitted < s1.count);
    }

    #[test]
    fn complete_graph_counts_survive_pipeline() {
        let g = complete_graph(6, Prob::new(0.5).unwrap());
        let mut inst = prepare(&g, 0.125, &PrepareConfig::default()).unwrap();
        let mut sink = CountSink::new();
        inst.run(&mut sink);
        assert_eq!(sink.count, 20);
    }

    /// Serialized-catalog bytes are the byte-identity proxy: they cover
    /// every component graph (CSR + probability bits + name), id map,
    /// the singleton list, the schedule, the report and α itself.
    fn catalog_bytes(inst: &PreparedInstance) -> Vec<u8> {
        crate::catalog::to_bytes(inst)
    }

    #[test]
    fn refine_is_byte_identical_to_fresh_prepare() {
        let g = fixture();
        for floor in [0.0, 0.25, 0.5] {
            for t in [0usize, 2, 3, 4] {
                let cfg = PrepareConfig::with_min_size(t);
                let base = prepare_base(&g, floor, &cfg).unwrap();
                for alpha in [0.9, 0.75, 0.5, 0.25] {
                    if alpha < floor {
                        continue;
                    }
                    let fresh = prepare(&g, alpha, &cfg).unwrap();
                    let refined = base.refine(alpha).unwrap();
                    assert_eq!(
                        catalog_bytes(&refined),
                        catalog_bytes(&fresh),
                        "floor={floor} t={t} α={alpha}"
                    );
                    let mut s1 = CollectSink::new();
                    let mut refined = refined;
                    refined.run(&mut s1);
                    let mut s2 = CollectSink::new();
                    let mut fresh = fresh;
                    fresh.run(&mut s2);
                    assert_eq!(s1.into_pairs(), s2.into_pairs());
                    assert_eq!(refined.stats(), fresh.stats());
                }
            }
        }
    }

    #[test]
    fn refine_reproduces_identity_fast_path_and_shard_off() {
        // K4 plus a weak edge and an isolated vertex — exactly one real
        // component at t = 3, so fresh prepare takes the identity fast
        // path and refine must rebuild the merged whole-graph kernel
        // (original name included).
        let mut edges = vec![(4u32, 5u32, 0.4)];
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v, 0.9));
            }
        }
        let g = from_edges(7, &edges).unwrap().with_name("merged-fixture");
        for cfg in [
            PrepareConfig::with_min_size(3),
            PrepareConfig {
                shard_components: false,
                ..Default::default()
            },
        ] {
            let base = prepare_base(&g, 0.0, &cfg).unwrap();
            for alpha in [0.9, 0.5, 0.3] {
                let fresh = prepare(&g, alpha, &cfg).unwrap();
                let refined = base.refine(alpha).unwrap();
                assert_eq!(
                    catalog_bytes(&refined),
                    catalog_bytes(&fresh),
                    "t={} shard={} α={alpha}",
                    cfg.min_size,
                    cfg.shard_components
                );
                let (kg, _) = refined.components().next().unwrap();
                assert_eq!(kg.name(), "merged-fixture");
            }
        }
    }

    #[test]
    fn refine_splits_components_when_masking_disconnects() {
        // Barbell: two triangles joined by a weak bridge. At α = 0.5 the
        // bridge masks away inside the base component, which must split
        // locally into two compact instances matching fresh prepare.
        let g = from_edges(
            6,
            &[
                (0, 1, 0.9),
                (1, 2, 0.9),
                (0, 2, 0.9),
                (2, 3, 0.3),
                (3, 4, 0.8),
                (4, 5, 0.8),
                (3, 5, 0.8),
            ],
        )
        .unwrap();
        let base = prepare_base(&g, 0.0, &PrepareConfig::default()).unwrap();
        assert_eq!(base.components().len(), 1, "one component at the floor");
        let refined = base.refine(0.5).unwrap();
        let fresh = prepare(&g, 0.5, &PrepareConfig::default()).unwrap();
        assert_eq!(refined.components().len(), 2);
        assert_eq!(catalog_bytes(&refined), catalog_bytes(&fresh));
    }

    #[test]
    fn untouched_components_share_graph_and_index_storage() {
        let g = fixture();
        let base = prepare_base(&g, 0.0, &PrepareConfig::default()).unwrap();
        // α = 0.5: both triangles survive untouched (min probs 0.9 and
        // 0.8), the 0.3 pendant splits. The triangle kernels must be the
        // *same* allocation, not byte-equal copies.
        let refined = base.refine(0.5).unwrap();
        let shared = refined
            .components
            .iter()
            .filter(|pc| {
                base.components
                    .iter()
                    .any(|bc| std::sync::Arc::ptr_eq(&bc.kernel.g, &pc.kernel.g))
            })
            .count();
        assert_eq!(shared, 2);
        for pc in &refined.components {
            assert_eq!(pc.kernel.alpha, 0.5, "shared kernels are re-stamped");
        }
    }

    #[test]
    fn refine_does_not_count_as_a_pipeline_run() {
        let g = fixture();
        let before = pipeline_invocations();
        let base = prepare_base(&g, 0.0, &PrepareConfig::default()).unwrap();
        let _ = base.refine(0.5).unwrap();
        let _ = base.refine(0.9).unwrap();
        assert_eq!(pipeline_invocations(), before + 1);
    }

    #[test]
    fn prepare_base_rejects_bad_floors() {
        let g = fixture();
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(matches!(
                prepare_base(&g, bad, &PrepareConfig::default()),
                Err(GraphError::InvalidAlpha { .. })
            ));
        }
        // 0.0 and 1.0 are both legal floors (unlike query α, which
        // must be strictly positive).
        assert!(prepare_base(&g, 0.0, &PrepareConfig::default()).is_ok());
        assert!(prepare_base(&g, 1.0, &PrepareConfig::default()).is_ok());
    }
}
