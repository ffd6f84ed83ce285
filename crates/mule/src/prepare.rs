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
//!    ([`crate::pruning::shared_neighborhood_filter`]); the same
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
//! Each component's kernel builds its own tiered
//! [`ugraph_core::NeighborhoodIndex`] over the **compact remapped ids**
//! (configured by [`PrepareConfig::mule`], built once at prepare time so
//! the steady-state zero-allocation guarantee holds across reruns).
//! That compactness is what makes the dense probability tier cheap: a
//! hub's dense row costs `8 ·` *component size* bytes, not `8 · n`, so
//! sharded instances afford one-load filter probes on far more hubs
//! than a whole-graph kernel could.
//!
//! # Byte-identical output
//!
//! Sequential MULE emits cliques in global lexicographic order (each
//! root subtree `C = {u}` emits lexicographically, roots ascend).
//! [`PreparedInstance::run`] therefore schedules root subtrees in
//! ascending *original*-id order across components — interleaving
//! components exactly as the direct search would — and folds the id
//! translation into the sink layer, so on default settings the emitted
//! stream (cliques, order, probability bits) is identical to running
//! [`crate::Mule`] on the whole graph. The work-stealing parallel
//! driver ([`crate::parallel::par_enumerate_prepared`]) seeds its
//! deques per component and re-establishes the same order with its
//! slot-per-root merge.

use crate::enumerate::MuleConfig;
use crate::kcore::CoreDecomposition;
use crate::kernel::{enumerate_subtree, enumerate_subtree_bounded, DepthArenas, Kernel};
use crate::limits::{Interrupt, RunLimits};
use crate::pruning::shared_neighborhood_peel;
use crate::sinks::{CliqueSink, Control};
use crate::stats::EnumerationStats;
use std::cell::Cell;
use ugraph_core::{subgraph, Components, GraphError, UncertainGraph, VertexId};

/// Count of [`prepare`] / [`prepare_base`] pipeline executions started
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

/// Configuration for [`prepare`].
#[derive(Debug, Clone)]
pub struct PrepareConfig {
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
    /// budget). `degeneracy_order` and `naive_root` are ignored here —
    /// they are ablation switches of the direct [`crate::Mule`] path.
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
pub struct PreparedComponent {
    pub(crate) kernel: Kernel,
    pub(crate) to_original: Vec<VertexId>,
}

impl PreparedComponent {
    /// The compact, remapped component graph the search runs on.
    pub fn graph(&self) -> &UncertainGraph {
        &self.kernel.g
    }

    /// Monotone map from compact ids to original vertex ids.
    pub fn to_original(&self) -> &[VertexId] {
        &self.to_original
    }
}

/// One schedule entry of the global ascending-root emission order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Unit {
    /// An isolated original vertex, emitted directly as `{v}`.
    Singleton(VertexId),
    /// Root subtree `local` of component `comp`.
    Root { comp: u32, local: u32 },
}

/// The output of [`prepare`]: compact per-component instances, the
/// old↔new id maps, a [`PrepareReport`], and reusable search state, so
/// the same prepared instance can be enumerated repeatedly
/// (allocation-free in steady state, like [`crate::Mule`]).
pub struct PreparedInstance {
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
pub fn prepare(
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

    finish_pipeline(work, alpha, config, report)
}

/// Stages 2–4 of the pipeline plus instance assembly, split out of
/// [`prepare`] so incremental maintenance ([`crate::delta`]) can re-run
/// the α-independent tail on an already α-pruned working graph and be
/// byte-identical to a fresh prepare **by construction**. `work` must be
/// the stage-1 output (all edge probabilities ≥ `alpha`), `report` must
/// have its `original_*` and `alpha_pruned_edges` fields filled in.
/// Does not bump [`pipeline_invocations`]; callers that constitute a
/// full pipeline run do that themselves.
pub(crate) fn finish_pipeline(
    mut work: UncertainGraph,
    alpha: f64,
    config: &PrepareConfig,
    mut report: PrepareReport,
) -> Result<PreparedInstance, GraphError> {
    let t = config.min_size;
    let n = work.num_vertices();
    let name = work.name().to_string();

    // Stage 2: expected-degree (t−1)·α-core filter.
    if t >= 2 && config.core_filter && work.num_edges() > 0 {
        let decomp = CoreDecomposition::compute(&work);
        let threshold = (t - 1) as f64 * alpha;
        let mut in_core = vec![false; n];
        for v in decomp.core(threshold) {
            in_core[v as usize] = true;
        }
        let dropped = (0..n)
            .filter(|&v| !in_core[v] && work.degree(v as VertexId) > 0)
            .count();
        if dropped > 0 {
            let before = work.num_edges();
            work = subgraph::restrict_to_vertices(&work, &in_core);
            report.core_filtered_vertices = dropped;
            report.core_filtered_edges = before - work.num_edges();
        }
    }

    // Stage 3: Modani–Dey shared-neighborhood peel (vacuous for t < 3).
    // `work` is already α-pruned by stage 1, so the peel-only entry
    // point applies — no redundant re-prune pass.
    if t >= 3 && config.shared_neighborhood && work.num_edges() > 0 {
        let (peeled, pr) = shared_neighborhood_peel(&work, t)?;
        report.shared_pruned_edges = pr.shared_pruned_edges;
        report.shared_isolated_vertices = pr.degree_pruned_vertices;
        work = peeled;
    }

    // Stage 4: component decomposition + one compact instance each.
    let mut components = Vec::new();
    let mut singletons = Vec::new();
    let min_keep = t.max(2);
    if config.shard_components {
        let comps = Components::compute(&work);
        report.components_total = comps.count();
        let lists = comps.vertex_lists();
        if lists.iter().filter(|l| l.len() >= min_keep).count() == 1 {
            // Identity fast path: sharding found exactly one real
            // component, so a compact copy would reproduce (almost) the
            // whole graph — move the pruned graph into the kernel
            // instead and let the root loop handle isolated vertices
            // and the size bound handle sub-threshold stragglers. The
            // report records the *decomposition's* accounting (kept
            // material only, same as the sharded path would report);
            // the enumeration cost of the stragglers carried along is
            // one O(deg) root expansion each, cheaper than the avoided
            // O(n + m) copy.
            for list in &lists {
                if list.len() >= min_keep {
                    report.components_kept = 1;
                    report.largest_component = list.len();
                    // Component edges = half the degree sum (no arcs
                    // leave a connected component).
                    let arcs: usize = list.iter().map(|&v| work.degree(v)).sum();
                    report.final_edges = arcs / 2;
                    report.final_vertices += list.len();
                } else if list.len() == 1 && t <= 1 {
                    report.singleton_vertices += 1;
                    report.final_vertices += 1;
                } else {
                    report.components_dropped_small += 1;
                }
            }
            let identity: Vec<VertexId> = (0..n as VertexId).collect();
            components.push(PreparedComponent {
                kernel: Kernel::wrap(work, alpha, &config.mule),
                to_original: identity,
            });
        } else {
            for list in lists {
                if list.len() < min_keep {
                    if list.len() == 1 && t <= 1 {
                        // An isolated vertex is itself a maximal clique.
                        report.singleton_vertices += 1;
                        singletons.push(list[0]);
                    } else {
                        report.components_dropped_small += 1;
                    }
                    continue;
                }
                let (sub, map) = subgraph::induced_subgraph(&work, &list)?;
                report.components_kept += 1;
                report.largest_component = report.largest_component.max(list.len());
                report.final_edges += sub.num_edges();
                report.final_vertices += list.len();
                components.push(PreparedComponent {
                    kernel: Kernel::wrap(sub, alpha, &config.mule),
                    to_original: map,
                });
            }
            report.final_vertices += singletons.len();
            report.largest_component = report
                .largest_component
                .max(usize::from(!singletons.is_empty()));
        }
    } else if n > 0 {
        report.components_total = 1;
        report.components_kept = 1;
        report.largest_component = n;
        report.final_edges = work.num_edges();
        report.final_vertices = n;
        let identity: Vec<VertexId> = (0..n as VertexId).collect();
        components.push(PreparedComponent {
            kernel: Kernel::wrap(work, alpha, &config.mule),
            to_original: identity,
        });
    }

    let schedule = build_schedule(n, &singletons, &components);

    Ok(PreparedInstance {
        alpha,
        min_size: t,
        original_n: n,
        name,
        components,
        singletons,
        schedule,
        report,
        config: config.clone(),
        stats: EnumerationStats::new(),
        arenas: DepthArenas::new(),
        clique_buf: Vec::new(),
        remap_scratch: Vec::new(),
    })
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

    /// Counters from the most recent [`PreparedInstance::run`].
    pub fn stats(&self) -> &EnumerationStats {
        &self.stats
    }

    /// The configuration the instance was prepared under.
    pub fn config(&self) -> &PrepareConfig {
        &self.config
    }

    /// Reassemble an instance from deserialized parts — the
    /// [`crate::catalog`] open path. The caller (the catalog decoder)
    /// has already validated every cross-part invariant the pipeline
    /// would have established; crucially, this constructor does **not**
    /// touch [`pipeline_invocations`], because no pipeline stage runs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        alpha: f64,
        config: PrepareConfig,
        original_n: usize,
        name: String,
        components: Vec<PreparedComponent>,
        singletons: Vec<VertexId>,
        schedule: Vec<Unit>,
        report: PrepareReport,
    ) -> Self {
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

    /// Enumerate every α-maximal clique (of size ≥ `min_size` when one
    /// was configured) across all components, streaming each — in
    /// canonical order, translated back to original ids — into `sink`.
    /// On default settings the emitted stream is byte-identical to
    /// [`crate::Mule::run`] on the original graph (see module docs).
    pub fn run<S: CliqueSink>(&mut self, sink: &mut S) -> &EnumerationStats {
        self.run_limited(sink, &mut RunLimits::none());
        &self.stats
    }

    /// [`Self::run`] under live [`RunLimits`]: probes once up front
    /// (so a zero deadline or pre-tripped token interrupts before the
    /// first emission even on tiny inputs), at every schedule-unit
    /// boundary, and — through the kernel — every ~1024 search nodes
    /// inside a unit. Returns why the run was interrupted, or `None`
    /// for a clean finish (including a sink-requested
    /// [`Control::Stop`]). Counters for the partial run are in
    /// [`Self::stats`], and everything emitted before an interrupt is
    /// a byte-identical prefix of the uninterrupted stream.
    pub(crate) fn run_limited<S: CliqueSink>(
        &mut self,
        sink: &mut S,
        limits: &mut RunLimits,
    ) -> Option<Interrupt> {
        self.stats = EnumerationStats::new();
        self.stats.calls += 1; // the conceptual root node
        if limits.probe_now(self.stats.calls) {
            return limits.tripped();
        }
        if self.original_n == 0 {
            // The empty clique is maximal in the empty graph — but it
            // has zero vertices, so it never meets a size threshold
            // (direct LargeMule likewise emits nothing here).
            if self.min_size <= 1 {
                self.stats.emitted += 1;
                sink.emit(&[], 1.0);
            }
            return None;
        }
        let mut arenas = std::mem::take(&mut self.arenas);
        let mut c = std::mem::take(&mut self.clique_buf);
        let mut scratch = std::mem::take(&mut self.remap_scratch);
        arenas.clear();
        c.clear();
        for &unit in &self.schedule {
            if limits.probe_now(self.stats.calls) {
                break;
            }
            let ctl = step(
                &self.components,
                self.min_size,
                &mut self.stats,
                unit,
                &mut arenas,
                &mut c,
                &mut scratch,
                limits,
                sink,
            );
            if ctl == Control::Stop {
                break;
            }
        }
        self.arenas = arenas;
        self.clique_buf = c;
        self.remap_scratch = scratch;
        limits.tripped()
    }

    /// Begin an incremental (unit-at-a-time) run: reset the counters and
    /// account for the conceptual root, exactly like [`Self::run`] does
    /// up front. Returns the empty-graph emission, if any — the one
    /// clique the schedule loop cannot express. Drives the pull-based
    /// iterator of the session API ([`crate::Prepared::iter`]).
    pub(crate) fn begin_incremental(&mut self) -> Option<(Vec<VertexId>, f64)> {
        self.stats = EnumerationStats::new();
        self.stats.calls += 1; // the conceptual root node
        self.arenas.clear();
        self.clique_buf.clear();
        if self.original_n == 0 && self.min_size <= 1 {
            self.stats.emitted += 1;
            return Some((Vec::new(), 1.0));
        }
        None
    }

    /// Number of schedule units (root subtrees + singleton emissions).
    pub(crate) fn num_units(&self) -> usize {
        self.schedule.len()
    }

    /// Run exactly one schedule unit into `sink` — the same per-unit
    /// body [`Self::run`] loops over, so an incremental consumer emits
    /// the byte-identical stream. Counters accumulate into
    /// [`Self::stats`]; call [`Self::begin_incremental`] first.
    pub(crate) fn run_unit<S: CliqueSink>(&mut self, idx: usize, sink: &mut S) -> Control {
        let unit = self.schedule[idx];
        let mut arenas = std::mem::take(&mut self.arenas);
        let mut c = std::mem::take(&mut self.clique_buf);
        let mut scratch = std::mem::take(&mut self.remap_scratch);
        // The pull-based path is caller-paced (the consumer can simply
        // stop pulling), so it runs without limits.
        let ctl = step(
            &self.components,
            self.min_size,
            &mut self.stats,
            unit,
            &mut arenas,
            &mut c,
            &mut scratch,
            &mut RunLimits::none(),
            sink,
        );
        self.arenas = arenas;
        self.clique_buf = c;
        self.remap_scratch = scratch;
        ctl
    }
}

/// The global emission schedule: units in ascending original-id order
/// (component-internal ids are already ascending in original order, so
/// slotting per original vertex interleaves components exactly as the
/// direct root loop would). Shared by [`prepare`],
/// `PreparedBase::refine`, and [`crate::delta`] so the construction
/// paths cannot drift.
pub(crate) fn build_schedule(
    n: usize,
    singletons: &[VertexId],
    components: &[PreparedComponent],
) -> Vec<Unit> {
    let mut unit_at: Vec<Option<Unit>> = vec![None; n];
    for &v in singletons {
        unit_at[v as usize] = Some(Unit::Singleton(v));
    }
    for (ci, pc) in components.iter().enumerate() {
        for (li, &orig) in pc.to_original.iter().enumerate() {
            unit_at[orig as usize] = Some(Unit::Root {
                comp: ci as u32,
                local: li as u32,
            });
        }
    }
    unit_at.into_iter().flatten().collect()
}

/// One schedule unit of a prepared run: emit a singleton directly, or
/// expand and search a root subtree (bounded when a size threshold is
/// configured), translating ids in the sink layer. Shared verbatim by
/// [`PreparedInstance::run`] and [`PreparedInstance::run_unit`], so the
/// streaming and pull-based paths cannot drift apart.
#[allow(clippy::too_many_arguments)] // the run loop's split-borrowed state
fn step<S: CliqueSink>(
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
        Unit::Singleton(v) => {
            stats.calls += 1;
            stats.max_depth = stats.max_depth.max(1);
            stats.emitted += 1;
            sink.emit(&[v], 1.0)
        }
        Unit::Root { comp, local } => {
            let pc = &components[comp as usize];
            let (i0, x0) = pc.kernel.expand_root_into(
                local,
                &mut arenas.even,
                &mut stats.i_candidates_scanned,
            );
            if min_size >= 2 && 1 + i0.len() < min_size {
                stats.size_pruned += 1;
                arenas.clear();
                return Control::Continue;
            }
            c.push(local);
            let mut remap = Remap {
                inner: sink,
                map: &pc.to_original,
                scratch,
            };
            let ctl = if min_size >= 2 {
                enumerate_subtree_bounded(
                    &pc.kernel,
                    stats,
                    c,
                    1.0,
                    i0,
                    x0,
                    &mut arenas.even,
                    &mut arenas.odd,
                    min_size,
                    limits,
                    &mut remap,
                )
            } else {
                enumerate_subtree(
                    &pc.kernel,
                    stats,
                    c,
                    1.0,
                    i0,
                    x0,
                    &mut arenas.even,
                    &mut arenas.odd,
                    limits,
                    &mut remap,
                )
            };
            c.pop();
            arenas.clear();
            ctl
        }
    }
}

/// Crate-internal remap adapter with a borrowed scratch buffer, so run
/// loops can construct one per root — or per emission, in `topk`'s
/// β-cut recursion — without allocating (the public
/// [`crate::sinks::RemapSink`] owns its scratch instead).
pub(crate) struct Remap<'a, S: CliqueSink> {
    pub(crate) inner: &'a mut S,
    pub(crate) map: &'a [VertexId],
    pub(crate) scratch: &'a mut Vec<VertexId>,
}

impl<S: CliqueSink> CliqueSink for Remap<'_, S> {
    fn emit(&mut self, clique: &[VertexId], prob: f64) -> Control {
        self.scratch.clear();
        self.scratch
            .extend(clique.iter().map(|&v| self.map[v as usize]));
        debug_assert!(self.scratch.windows(2).all(|w| w[0] < w[1]));
        self.inner.emit(self.scratch, prob)
    }
}

/// Legacy wrapper: prepare with defaults (plus `min_size`) and collect
/// all qualifying maximal cliques, sorted lexicographically. Thin
/// delegate over the session API ([`crate::Query`]).
pub fn enumerate_prepared(
    g: &UncertainGraph,
    alpha: f64,
    min_size: usize,
) -> Result<Vec<(Vec<VertexId>, f64)>, GraphError> {
    let mut session = crate::Query::new(g)
        .alpha(alpha)
        .min_size(min_size)
        .prepare()
        .map_err(crate::MuleError::expect_graph)?;
    let mut pairs = session
        .collect()
        .expect("unlimited run cannot be interrupted");
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(pairs)
}

// ---------------------------------------------------------------------------
// α-split base artifacts: prepare once at a floor, refine per α.
// ---------------------------------------------------------------------------

/// One α-independent base component: a compact, connected subgraph of
/// the floor-pruned graph wrapped in a ready kernel (graph and tiered
/// index behind [`std::sync::Arc`]), its monotone map to original ids,
/// and the smallest edge probability inside it — the O(1) "does α touch
/// this component at all?" probe `PreparedBase::refine` keys its
/// fast path on.
pub struct BaseComponent {
    pub(crate) kernel: Kernel,
    pub(crate) to_original: Vec<VertexId>,
    pub(crate) min_prob: f64,
}

impl BaseComponent {
    /// The compact, remapped component graph (floor-pruned bytes).
    pub fn graph(&self) -> &UncertainGraph {
        &self.kernel.g
    }

    /// Monotone map from compact ids to original vertex ids.
    pub fn to_original(&self) -> &[VertexId] {
        &self.to_original
    }
}

/// The α-independent half of the pipeline: connected components of the
/// floor-pruned graph, compact id maps and per-component tiered indexes,
/// computed **once** and reusable for every query threshold `α ≥ floor`.
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
/// `refine(α)` derives a per-α [`PreparedInstance`] by masking sub-α
/// edges *inside each component* and re-running the core-filter/peel
/// bounds locally — every stage decomposes exactly per connected
/// component, so the local runs produce bit-identical graphs, maps,
/// schedule and report to the fresh global pipeline (pinned by
/// `tests/alpha_refine.rs`). A component the α-stages leave untouched
/// is **shared** into the refined view as two `Arc` clones (graph +
/// index) with a re-stamped α — zero copying, zero index rebuild.
pub struct PreparedBase {
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
pub fn prepare_base(
    g: &UncertainGraph,
    floor: f64,
    config: &PrepareConfig,
) -> Result<PreparedBase, GraphError> {
    if !(0.0..=1.0).contains(&floor) {
        // Rejects NaN too: comparisons with NaN are false.
        return Err(GraphError::InvalidAlpha { value: floor });
    }
    count_pipeline_run();
    let n = g.num_vertices();
    // Edge probabilities are strictly positive, so a zero floor prunes
    // nothing — work straight off the input (α validation also rejects
    // 0, so the prune entry point cannot express it).
    let pruned;
    let work: &UncertainGraph = if floor > 0.0 {
        pruned = subgraph::prune_below_alpha(g, floor)?;
        &pruned
    } else {
        g
    };
    let mut components = Vec::new();
    let mut isolated = Vec::new();
    for list in Components::compute(work).vertex_lists() {
        if list.len() == 1 {
            isolated.push(list[0]);
            continue;
        }
        let (sub, map) = subgraph::induced_subgraph(work, &list)?;
        let min_prob = sub.min_edge_prob().expect("a size-≥2 component has edges");
        components.push(BaseComponent {
            kernel: Kernel::wrap(sub, floor, &config.mule),
            to_original: map,
            min_prob,
        });
    }
    Ok(PreparedBase {
        floor,
        original_n: n,
        original_edges: g.num_edges(),
        name: g.name().to_string(),
        config: config.clone(),
        components,
        isolated,
    })
}

/// Per-base-component outcome of the α-dependent local stages.
struct LocalRefinement {
    /// The locally re-pruned/filtered/peeled graph — `None` when every
    /// α-stage left the base component's bytes intact (the share path).
    work: Option<UncertainGraph>,
    /// Connected-component vertex lists (local ids) of the refined
    /// graph, in local BFS order.
    lists: Vec<Vec<VertexId>>,
}

impl LocalRefinement {
    fn graph<'a>(&'a self, base: &'a BaseComponent) -> &'a UncertainGraph {
        match &self.work {
            Some(w) => w,
            None => &base.kernel.g,
        }
    }
}

/// One entry of the merged global component order: a local list of a
/// base component, or a vertex isolated at the floor.
enum Slice {
    Comp { j: usize, li: usize },
    Iso(VertexId),
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
    pub fn config(&self) -> &PrepareConfig {
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
    /// [`pipeline_invocations`] — but it does rebuild the per-component
    /// indexes, which are derived state the catalog does not store.
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
            .map(|(g, map)| {
                let min_prob = g.min_edge_prob().expect("a size-≥2 component has edges");
                BaseComponent {
                    kernel: Kernel::wrap(g, floor, &config.mule),
                    to_original: map,
                    min_prob,
                }
            })
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

    /// Derive the per-α view: run the α-dependent stages (edge mask,
    /// core filter, peel, local re-split) **inside each base component**
    /// and assemble a [`PreparedInstance`] byte-identical — graphs, id
    /// maps, schedule, report, probability bits — to a fresh
    /// [`prepare`]`(g, alpha, config)`. Components the α-stages leave
    /// untouched are shared (`Arc` clones of graph and index) instead of
    /// rebuilt. Does **not** count as a pipeline execution.
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
        let t = self.config.min_size;
        let n = self.original_n;
        let mut report = PrepareReport {
            original_vertices: n,
            original_edges: self.original_edges,
            ..Default::default()
        };

        // The α-dependent stages, per base component. Every stage
        // decomposes exactly per connected component (prune and restrict
        // are edge/vertex-local, core numbers are a per-component
        // fixpoint of the peel recurrence, the Modani–Dey peel is a
        // per-component fixpoint, and `Components` refines within base
        // components), so local runs reproduce the fresh global bytes.
        let mut surviving = 0usize; // Σ edges after local stage 1
        let mut locals: Vec<LocalRefinement> = Vec::with_capacity(self.components.len());
        for bc in &self.components {
            let mut work: Option<UncertainGraph> = None;

            // Stage 1: mask sub-α edges. `min_prob ≥ α` ⇔ nothing to
            // drop ⇔ the pruned CSR would be byte-identical — skip.
            if bc.min_prob < alpha {
                work = Some(subgraph::prune_below_alpha(&bc.kernel.g, alpha)?);
            }
            surviving += work
                .as_ref()
                .map_or(bc.kernel.g.num_edges(), |w| w.num_edges());

            // Stage 2: expected-degree (t−1)·α-core filter, locally.
            if t >= 2 && self.config.core_filter {
                let cur = match &work {
                    Some(w) => w,
                    None => &bc.kernel.g,
                };
                let mut restricted = None;
                if cur.num_edges() > 0 {
                    let decomp = CoreDecomposition::compute(cur);
                    let threshold = (t - 1) as f64 * alpha;
                    let nj = cur.num_vertices();
                    let mut in_core = vec![false; nj];
                    for v in decomp.core(threshold) {
                        in_core[v as usize] = true;
                    }
                    let dropped = (0..nj)
                        .filter(|&v| !in_core[v] && cur.degree(v as VertexId) > 0)
                        .count();
                    if dropped > 0 {
                        let before = cur.num_edges();
                        let r = subgraph::restrict_to_vertices(cur, &in_core);
                        report.core_filtered_vertices += dropped;
                        report.core_filtered_edges += before - r.num_edges();
                        restricted = Some(r);
                    }
                }
                if restricted.is_some() {
                    work = restricted;
                }
            }

            // Stage 3: shared-neighborhood peel, locally. A no-removal
            // peel rebuilds the identical CSR, so only edge loss (or an
            // already-touched component, where the fresh path would
            // carry the peeled copy anyway) replaces the graph.
            if t >= 3 && self.config.shared_neighborhood {
                let (cur_edges, peeled) = {
                    let cur = match &work {
                        Some(w) => w,
                        None => &bc.kernel.g,
                    };
                    if cur.num_edges() > 0 {
                        let (peeled, pr) = shared_neighborhood_peel(cur, t)?;
                        report.shared_pruned_edges += pr.shared_pruned_edges;
                        report.shared_isolated_vertices += pr.degree_pruned_vertices;
                        (cur.num_edges(), Some(peeled))
                    } else {
                        (0, None)
                    }
                };
                if let Some(p) = peeled {
                    if work.is_some() || p.num_edges() != cur_edges {
                        work = Some(p);
                    }
                }
            }

            // Stage 4a: local re-split — only when masking actually
            // changed the component. Untouched components are connected
            // by construction, so their single list is known.
            let lists = match &work {
                None => vec![(0..bc.kernel.g.num_vertices() as VertexId).collect()],
                Some(w) => Components::compute(w).vertex_lists(),
            };
            locals.push(LocalRefinement { work, lists });
        }
        report.alpha_pruned_edges = self.original_edges - surviving;

        // Stage 4b: merge the local component lists and the floor
        // isolates into the global order — `Components` discovers
        // components by ascending smallest member, and the base maps are
        // monotone and disjoint, so sorting by first original id
        // reproduces the fresh global discovery order exactly.
        let mut entries: Vec<(VertexId, Slice)> = Vec::new();
        for (j, (bc, lr)) in self.components.iter().zip(&locals).enumerate() {
            for (li, list) in lr.lists.iter().enumerate() {
                let first = bc.to_original[list[0] as usize];
                entries.push((first, Slice::Comp { j, li }));
            }
        }
        for &v in &self.isolated {
            entries.push((v, Slice::Iso(v)));
        }
        entries.sort_unstable_by_key(|e| e.0);
        let entry_len = |s: &Slice| match s {
            Slice::Comp { j, li } => locals[*j].lists[*li].len(),
            Slice::Iso(_) => 1,
        };

        let mut components: Vec<PreparedComponent> = Vec::new();
        let mut singletons: Vec<VertexId> = Vec::new();
        let min_keep = t.max(2);
        if self.config.shard_components {
            report.components_total = entries.len();
            let qualifying = entries
                .iter()
                .filter(|(_, s)| entry_len(s) >= min_keep)
                .count();
            if qualifying == 1 {
                // Identity fast path, replayed: the fresh pipeline would
                // wrap the *whole* pruned graph — rebuild it by merging
                // the local rows back into one n-vertex CSR (translated
                // rows stay sorted under the monotone maps, probability
                // bits are copied) under the original dataset name.
                for (_, s) in &entries {
                    let len = entry_len(s);
                    if len >= min_keep {
                        report.components_kept = 1;
                        report.largest_component = len;
                        let Slice::Comp { j, li } = s else {
                            unreachable!("an isolate never meets min_keep ≥ 2")
                        };
                        let cur = locals[*j].graph(&self.components[*j]);
                        let arcs: usize =
                            locals[*j].lists[*li].iter().map(|&v| cur.degree(v)).sum();
                        report.final_edges = arcs / 2;
                        report.final_vertices += len;
                    } else if len == 1 && t <= 1 {
                        report.singleton_vertices += 1;
                        report.final_vertices += 1;
                    } else {
                        report.components_dropped_small += 1;
                    }
                }
                let identity: Vec<VertexId> = (0..n as VertexId).collect();
                components.push(PreparedComponent {
                    kernel: Kernel::wrap(self.merged_work(&locals), alpha, &self.config.mule),
                    to_original: identity,
                });
            } else {
                for (_, s) in &entries {
                    let len = entry_len(s);
                    if len < min_keep {
                        if len == 1 && t <= 1 {
                            report.singleton_vertices += 1;
                            let v = match s {
                                Slice::Comp { j, li } => {
                                    self.components[*j].to_original
                                        [locals[*j].lists[*li][0] as usize]
                                }
                                Slice::Iso(v) => *v,
                            };
                            singletons.push(v);
                        } else {
                            report.components_dropped_small += 1;
                        }
                        continue;
                    }
                    let Slice::Comp { j, li } = s else {
                        unreachable!("an isolate never meets min_keep ≥ 2")
                    };
                    let (bc, lr) = (&self.components[*j], &locals[*j]);
                    report.components_kept += 1;
                    report.largest_component = report.largest_component.max(len);
                    report.final_vertices += len;
                    if lr.work.is_none() {
                        // Untouched: the fresh induced subgraph would be
                        // byte-identical to the base component, so share
                        // the resident graph and index (O(1)) under a
                        // re-stamped α.
                        report.final_edges += bc.kernel.g.num_edges();
                        components.push(PreparedComponent {
                            kernel: bc.kernel.share_at(alpha),
                            to_original: bc.to_original.clone(),
                        });
                    } else {
                        let list = &lr.lists[*li];
                        let (sub, _) = subgraph::induced_subgraph(lr.graph(bc), list)?;
                        report.final_edges += sub.num_edges();
                        let map: Vec<VertexId> =
                            list.iter().map(|&l| bc.to_original[l as usize]).collect();
                        components.push(PreparedComponent {
                            kernel: Kernel::wrap(sub, alpha, &self.config.mule),
                            to_original: map,
                        });
                    }
                }
                report.final_vertices += singletons.len();
                report.largest_component = report
                    .largest_component
                    .max(usize::from(!singletons.is_empty()));
            }
        } else if n > 0 {
            report.components_total = 1;
            report.components_kept = 1;
            report.largest_component = n;
            let merged = self.merged_work(&locals);
            report.final_edges = merged.num_edges();
            report.final_vertices = n;
            let identity: Vec<VertexId> = (0..n as VertexId).collect();
            components.push(PreparedComponent {
                kernel: Kernel::wrap(merged, alpha, &self.config.mule),
                to_original: identity,
            });
        }

        let schedule = build_schedule(n, &singletons, &components);
        Ok(PreparedInstance::from_parts(
            alpha,
            self.config.clone(),
            n,
            self.name.clone(),
            components,
            singletons,
            schedule,
            report,
        ))
    }

    /// Merge the locally refined component rows back into one global
    /// n-vertex CSR — the graph the fresh pipeline's whole-graph paths
    /// (identity fast path, shard-off) would hold. Monotone maps keep
    /// translated rows sorted; floor isolates contribute empty rows;
    /// the original dataset name is re-attached (prune/restrict/peel
    /// all preserve it on the fresh path).
    fn merged_work(&self, locals: &[LocalRefinement]) -> UncertainGraph {
        let n = self.original_n;
        let mut slot = vec![u32::MAX; n];
        for (j, bc) in self.components.iter().enumerate() {
            for &orig in &bc.to_original {
                slot[orig as usize] = j as u32;
            }
        }
        let mut local_id = vec![0u32; n];
        for bc in &self.components {
            for (l, &orig) in bc.to_original.iter().enumerate() {
                local_id[orig as usize] = l as u32;
            }
        }
        let arcs: usize = locals
            .iter()
            .zip(&self.components)
            .map(|(lr, bc)| 2 * lr.graph(bc).num_edges())
            .sum();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::with_capacity(arcs);
        let mut probs = Vec::with_capacity(arcs);
        for v in 0..n {
            let j = slot[v];
            if j != u32::MAX {
                let bc = &self.components[j as usize];
                let cur = locals[j as usize].graph(bc);
                for (w, p) in cur.neighbors_with_probs(local_id[v]) {
                    neighbors.push(bc.to_original[w as usize]);
                    probs.push(p);
                }
            }
            offsets.push(neighbors.len());
        }
        UncertainGraph::try_from_csr(offsets, neighbors, probs, self.name.clone())
            .expect("merged per-component rows form a valid CSR")
    }
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

    fn direct(g: &UncertainGraph, alpha: f64) -> (Vec<Vec<VertexId>>, Vec<u64>) {
        let mut m = crate::Mule::new(g, alpha).unwrap();
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
            let mut m = crate::Mule::new(&g, alpha).unwrap();
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
                // Direct path: LargeMule on the whole graph.
                let mut lm = crate::LargeMule::new(&g, alpha, t).unwrap();
                let mut sink = CollectSink::new();
                lm.run(&mut sink);
                let expected = sink.into_sorted_cliques();
                let got: Vec<Vec<VertexId>> = enumerate_prepared(&g, alpha, t)
                    .unwrap()
                    .into_iter()
                    .map(|(c, _)| c)
                    .collect();
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
        // threshold — matching direct LargeMule exactly.
        let g = GraphBuilder::new(0).build();
        let mut lm = crate::LargeMule::new(&g, 0.5, 3).unwrap();
        let mut direct = CollectSink::new();
        lm.run(&mut direct);
        assert!(direct.is_empty());

        let mut inst = prepare(&g, 0.5, &PrepareConfig::with_min_size(3)).unwrap();
        let mut sink = CollectSink::new();
        inst.run(&mut sink);
        assert!(sink.is_empty());

        let inst = prepare(&g, 0.5, &PrepareConfig::with_min_size(3)).unwrap();
        let out = crate::parallel::par_enumerate_prepared(&inst, 2);
        assert!(out.cliques.is_empty());
        assert_eq!(out.stats.emitted, 0);
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
