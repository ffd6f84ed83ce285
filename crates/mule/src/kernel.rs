//! Shared search kernel for MULE, LARGE–MULE and the parallel workers:
//! the per-component search state (an α-pruned graph), the
//! GenerateI/GenerateX candidate filter (Algorithms 3 and 4) with its
//! per-call adaptive strategy dispatch (dense row / bitset+gallop /
//! two-pointer merge), the candidate **arena** the filters write into,
//! and the one recursion every driver runs: [`enumerate_subtree`]
//! (Algorithm 6, which is Algorithm 2 at a size threshold `t ≤ 1`)
//! entered through the root step [`search_root`], which searches a
//! root on its own indexed neighbourhood kernel when the session's
//! [`IndexMode`] sends it there (see "Neighbourhood kernels").
//!
//! # Arena span layout
//!
//! The enumeration's per-node candidate sets (`I`, `X`) live in a
//! depth-alternating **pair** of contiguous [`Arena`] buffers per search
//! (per worker in the parallel driver), addressed as half-open index
//! ranges ("spans") instead of owned vectors. A node at depth `d` holds
//! its spans in buffer `d mod 2` and appends its children's spans to
//! buffer `(d+1) mod 2`; each buffer is a stack of every *other* level
//! of the DFS path:
//!
//! ```text
//! even buffer: [ X₀ | I₀ | I₂ | X₂ | I₄ | X₄ | … ]
//! odd  buffer: [ I₁ | X₁ | I₃ | X₃ | … ]
//! ```
//!
//! Each recursion step appends the child's `I'` span and then its `X'`
//! span at the sibling buffer's tail (the `X'` span is the concatenation
//! of the filtered parent `X` and the filtered already-processed prefix
//! of the parent `I`, in that order — exactly the order Algorithm 2's
//! `X ← X ∪ {(u,r)}` update produces). Backtracking truncates to the
//! mark taken before the child was expanded. After the buffers have
//! grown to the deepest path once, the search performs **zero heap
//! allocations per node**: filters append into reserved capacity and
//! backtracking is a length reset (`tests/alloc_regression.rs` pins
//! this).
//!
//! Two buffers instead of one is what keeps the hot loop optimal: the
//! filter reads the parent span as a plain `&[Candidate]` slice from one
//! buffer while pushing into the other, so the compiler keeps the read
//! pointer in a register instead of re-checking a buffer that the
//! in-flight pushes might reallocate.
//!
//! # Dominated siblings
//!
//! The recursion ([`enumerate_subtree`]) carries one pruning rule that
//! the unpivoted Algorithms 2 and 6 lack. At a node `(C, q, I, X)`,
//! suppose the first child `u₀ = min I` keeps every later candidate
//! (`|I'| = |I| − 1`) and its subtree proves `C ∪ I` an α-clique. Then
//! the remaining children are skipped
//! (`EnumerationStats::dominated_siblings` counts them).
//!
//! *Why it is sound.* A later sibling's subtree only ever holds sets `K`
//! with `C ⊆ K ⊊ C ∪ I` and `u₀ ∉ K`. `u₀` is adjacent to all of `K`, and
//! `clq` is monotone under taking subsets — dropping vertices drops
//! factors `≤ 1` — so `clq(K ∪ {u₀}) ≥ clq(C ∪ I) ≥ α`. `u₀` sits in
//! every such sibling's `X`, so none of them emits: the skip loses no
//! output, and the emitted stream is byte-identical to the search
//! without it. Only `calls` and the scan and probe counters fall.
//!
//! *Where the proof comes from.* The recursion returns, beside its
//! [`Control`], the probability of `C ∪ I` it computed while proving
//! `C ∪ I` complete: `q` at a node with `I = X = ∅`, `q·r` at a leaf first
//! child with `I = {u₀}`, otherwise whatever a first child that kept
//! everything returned. No extra work is done to get it.
//!
//! *The float margin.* The proof is one computed product, and each
//! sibling's `q·r ≥ α` tests are others, over subsets of the same
//! edges. A computed clique probability over `N` vertices carries at
//! most `N(N−1)/2` roundings — each edge factor enters by one
//! multiplication — so its relative error is at most
//! `γ = N(N−1)/2 · 2⁻⁵³ / (1 − N(N−1)/2 · 2⁻⁵³)`. The rule fires only
//! when the proof is `≥ α·(1 + δ)` with `δ = 1e-9`, `|C ∪ I| ≤ 2048`
//! (so `2γ/(1 − γ) ≈ 4.7e-10 < δ`) and `α ≥ 2⁻¹⁰²¹` (no product
//! underflows). Then every sibling test value is at least
//! `α(1 + δ)(1 − γ)/(1 + γ) ≥ α`: the skip never overrides a decision
//! the sibling's own tests would make at a tie. An exact tie
//! (`clq(C ∪ I) = α`) is never skipped.
//!
//! # β admission cut
//!
//! A sink may name a floor `β` ([`CliqueSink::admission_floor`]): it
//! would reject every clique with `clq ≤ β`. The top-k sink does, with
//! its current k-th best probability (the adaptive β of the top-k query,
//! paper ref 47; see [`mod@crate::topk`]). Before a child `u` is expanded
//! the recursion compares `q·r = clq(C ∪ {u})` with the floor and, when
//! `q·r ≤ β`, skips the child (`EnumerationStats::beta_pruned` counts
//! it): every set in its subtree has probability `≤ q·r`, since factors
//! are `≤ 1`. The test comes before the filters, so a first child cut
//! this way proves nothing for the dominated-sibling rule.
//!
//! The root step applies the same test at `q = 1`: once `β ≥ 1`, no
//! clique can clear it, so [`search_root`] returns before expanding the
//! root's adjacency. A root skipped this way counts one `beta_pruned`
//! and no `calls`: it is not searched, exactly like a cut child. The
//! prepared schedule's singleton units (isolated vertices, each the
//! probability-1 clique `{v}`) take the same test: once `β ≥ 1` a
//! singleton is not emitted and counts one `beta_pruned` and no `calls`.
//!
//! β decides admission only; `I` and `X` are still built at α. `u` stays
//! in the parent `I` span, so later siblings still filter it into their
//! `X'`, exactly as after a line-8 cut: a skipped subtree changes no
//! other branch's output. Sinks that keep the default `None` compile
//! the test away.
//!
//! # Neighbourhood kernels: the one index tier
//!
//! The root subtree `C = {u}` only ever reads `Γ(u)` (the closed-form
//! root sets of [`KernelRef::expand_root_into`]). So [`search_root`]
//! can search a root on the subgraph induced by `N[u] = {u} ∪ Γ(u)`,
//! relabelled monotonically and given its own tiered
//! [`NeighborhoodIndex`], and run the unchanged [`enumerate_subtree`]
//! on it; a remap in the sink layer translates local ids back. This is
//! the per-root local subgraph of Eppstein, Löffler & Strash ("Listing
//! All Maximal Cliques in Sparse Graphs in Near-optimal Time", ISAAC
//! 2010). It is the only place an index is built: components carry
//! none, so opening a catalog, refining a base and applying a delta do
//! no index work, and a component's search state is its CSR alone.
//!
//! Which roots go is the session's [`IndexMode`]. A root goes only when
//! it has children to search: `I₀(u)` is non-empty and passes the size
//! cut `1 + |I₀| ≥ t`. Other roots do no filtering.
//!
//! * [`IndexMode::Auto`] sends roots of degree at least
//!   [`HUB_ROOT_MIN_DEGREE`] (*hub roots*), and indexes a neighbourhood
//!   kernel only when its membership tier fits
//!   [`MuleConfig::max_index_bytes`]. Every other root merges or gallops
//!   the component's CSR rows.
//! * [`IndexMode::Always`] sends every root and always indexes its
//!   kernel, whatever `max_index_bytes` says.
//! * [`IndexMode::Never`] sends none: the CSR-only reference.
//!
//! [`MuleConfig::dense_index_bytes`] bounds each kernel's dense tier.
//!
//! *Why it is exact.* Every candidate in the subtree, in `I` and in `X`,
//! lies in `Γ(u)`, so intersecting with a local row `Γ(w) ∩ N[u]` keeps
//! exactly what intersecting with `Γ(w)` keeps. The relabel preserves
//! order, so spans stay sorted and children are visited in the same
//! order. Local rows carry the CSR's own `f64` bits, and each filter
//! multiplies the same operands in the same order. The emitted stream,
//! `calls`, `emitted`, `max_depth` and the size, β and dominated-sibling
//! counters are therefore those of the CSR search; only the scan and
//! strategy counters (`*_scanned`, `dense_probes`, `gallop_probes`,
//! `merge_steps`) move, and `EnumerationStats::hub_roots` counts the
//! roots searched this way. `tests/tiered_index.rs` pins all of this
//! against `IndexMode::Never`.
//!
//! *Where it lives.* The local CSR, its id tables and its index sit in
//! [`HubScratch`], beside the arenas in each session's or worker's
//! [`DepthArenas`], and are refilled in place
//! ([`UncertainGraph::refill_induced`], [`NeighborhoodIndex::rebuild`]):
//! a rerun allocates nothing (`tests/alloc_regression.rs`).
//!
//! *The threshold.* Building a neighbourhood kernel costs
//! `O(Σ_{v ∈ N[u]} deg v)` plus its index, which a root of a few dozen
//! neighbours does not earn back. A sweep of [`HUB_ROOT_MIN_DEGREE`] on
//! the DBLP10 stand-in (`mule generate --dataset DBLP10 --seed 42`,
//! `count` after prepare, min_size 0, best of 3 rounds of 3 runs each on
//! a 2-vCPU host, where one run spreads 10–30%):
//!
//! | α | index-free CSR | 64 | 128 | 256 |
//! |---|---|---|---|---|
//! | 0.3 | 3.49 s | 1.67 s (1,169 hub roots) | 1.77 s (502) | 1.62 s (207) |
//! | 0.5 | 764 ms | 522 ms (553) | 470 ms (235) | 518 ms (95) |
//! | 0.7 | 166 ms | 120 ms (238) | 131 ms (93) | 126 ms (36) |
//!
//! The three thresholds are within the host's noise of one another: the
//! gain comes from the few hubs of degree in the hundreds, which every
//! threshold catches. 128 is the middle of the range. `search nodes`
//! were equal in every cell (11,581,870 / 3,241,095 / 1,396,827).
//!
//! # Negative results
//!
//! Measured and dropped, so they are not tried again blind:
//!
//! * A component-wide bitset for the DBLP10 stand-in's giant component
//!   (39,250 vertices at α 0.7, over the 64 MiB membership budget),
//!   measured on a prototype: hub roots ran about 20% faster, but
//!   decoding the floor-0.3 base catalog went from about 80 to 629 ms,
//!   since every open rebuilds the `n²/8`-byte tier. The neighbourhood
//!   kernels above index only what a hub root reads.
//! * The component-wide index itself, for every component whose
//!   membership tier fit [`MuleConfig::max_index_bytes`]. It was rebuilt
//!   at every catalog open, every refine of a masked component and every
//!   delta apply. A prototype that built none under [`IndexMode::Auto`]
//!   (hub roots still took their neighbourhood kernels) measured, as
//!   medians on a 2-vCPU host (ucbench, 20 s windows; `--count-only` on
//!   the Figure-1 stand-ins):
//!
//!   | run | component index | none |
//!   |---|---|---|
//!   | serve-rw `query_p50_ms` (4 pairs) | 18.55 | 15.01 |
//!   | serve-rw `ops_per_s` | 66.1 | 78.2 |
//!   | serve-rw `peak_rss_mb` | 205 | 106 |
//!   | dblp-catalog `query_p50_ms` (10 pairs) | 315.8 | 309.8 |
//!   | dblp-catalog `peak_rss_mb` | 45.0 | 42.9 |
//!   | wiki-vote, α 0.001 / 0.01 | 3.94 / 1.24 s | 3.42 / 1.11 s |
//!   | ca-GrQc, α 1e-4 | 145 ms | 128 ms |
//!   | p2p-Gnutella04, α 1e-4 | 27 ms | 21 ms |
//!   | BA10000, α 0.001 | 38 ms | 41 ms |
//!
//!   So the tier went, and [`IndexMode::Always`] gives every root a
//!   neighbourhood kernel instead.
//! * A reverse gallop for short rows on the index-free path (search the
//!   candidate span for each entry of a pivot row shorter than it),
//!   measured on a prototype: it cut the DBLP10 count by about 9%, and
//!   the neighbourhood kernels, which give hub roots an index, supersede
//!   it.
//! * Kernel strategies (tried with the tiered index): dense rows at the
//!   wiki-vote stand-in's full scale, a merge over the bitset tier, a
//!   transposed row walk, span range clipping and struct-of-arrays
//!   arenas all measured slower than the per-call dispatch kept here,
//!   and were reverted.
//! * Degeneracy-order relabeling (an ablation switch of the removed
//!   direct enumerator: relabel the α-pruned graph by a degeneracy
//!   order, search, translate each clique back and re-sort it). On the
//!   wiki-vote stand-in at scale 0.1, α 0.001 (2 vCPUs, 10 timed
//!   iterations each, relabel cost included), the median was 63.5 ms
//!   with natural ids and 41.8 ms with the relabeling (min 57.7 /
//!   41.0 ms). It was removed anyway: it changes the order in which
//!   cliques are emitted, so it cannot sit behind the session, whose
//!   stream is pinned to the canonical ascending-root order.

use crate::enumerate::{Candidate, IndexMode, MuleConfig};
use crate::limits::RunLimits;
use crate::sinks::{CliqueSink, Control, Remap};
use crate::stats::EnumerationStats;
use std::ops::Range;
use std::sync::Arc;
use ugraph_core::intersect::{gallop_cost, gallop_search};
use ugraph_core::{NeighborhoodIndex, UncertainGraph, VertexId};

/// A growable scratch stack of `T` addressed by [`Range<usize>`] spans.
///
/// `mark`/`truncate` bracket a child expansion; `get` copies an element
/// out by value so the buffer can be appended to while a span is being
/// read.
#[derive(Debug, Default)]
pub(crate) struct Arena<T> {
    buf: Vec<T>,
}

impl<T: Copy> Arena<T> {
    /// Fresh, empty arena.
    pub fn new() -> Self {
        Arena { buf: Vec::new() }
    }

    /// Current length — the tail position new spans are appended at.
    #[inline]
    pub fn mark(&self) -> usize {
        self.buf.len()
    }

    /// Drop everything at and beyond `mark` (backtrack). Keeps capacity.
    #[inline]
    pub fn truncate(&mut self, mark: usize) {
        self.buf.truncate(mark);
    }

    /// Remove all elements, keeping capacity (start of a new run).
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Copy the element at `i` out of the buffer.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.buf[i]
    }

    /// Overwrite the element at `i` (used by in-place span compaction).
    #[inline]
    pub fn set(&mut self, i: usize, value: T) {
        self.buf[i] = value;
    }

    /// Append one element at the tail.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.buf.push(value);
    }

    /// Borrow a span as a slice (the fast read path of the filters).
    #[inline]
    pub fn span(&self, r: Range<usize>) -> &[T] {
        &self.buf[r]
    }
}

/// The arena of `(vertex, factor)` candidate tuples used by MULE and
/// LARGE–MULE (a [`Arena<Candidate>`] with a span view type).
pub(crate) type CandidateArena = Arena<Candidate>;

/// A borrowed candidate span: a sorted slice of `(vertex, factor)`
/// tuples.
pub(crate) type CandSpan<'a> = &'a [Candidate];

/// The depth-alternating buffer pair (see the module docs): nodes at
/// even depth hold their spans in `even` and write children into `odd`,
/// and vice versa — plus the hub-root scratch ([`HubScratch`]). Owned
/// by each enumerator / worker so capacity persists across runs.
#[derive(Default)]
pub(crate) struct DepthArenas {
    pub even: CandidateArena,
    pub odd: CandidateArena,
    pub hub: HubScratch,
}

impl DepthArenas {
    /// Fresh, empty pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty both buffers, keeping capacity (start of a new run/root).
    pub fn clear(&mut self) {
        self.even.clear();
        self.odd.clear();
    }
}

/// Which scanned counter a filter call charges: `I`-set generation
/// (Algorithm 3) or `X`-set generation (Algorithm 4). The strategy
/// counters (`dense_probes` / `gallop_probes` / `merge_steps`) are
/// charged directly by the filter bodies regardless of side.
#[derive(Clone, Copy)]
pub(crate) enum Scan {
    /// Candidate-set generation (`GenerateI`).
    I,
    /// Exclusion-set generation (`GenerateX`).
    X,
}

impl Scan {
    #[inline]
    fn counter(self, stats: &mut EnumerationStats) -> &mut u64 {
        match self {
            Scan::I => &mut stats.i_candidates_scanned,
            Scan::X => &mut stats.x_candidates_scanned,
        }
    }
}

/// Merge-vs-gallop crossover on the index-free path: the linear
/// two-pointer merge is dispatched when `|src| · MERGE_FACTOR ≥ deg(u)`.
/// Measured by the `filter_kernel` bench's `intersect` sweep (deg 1024,
/// hit densities 10/50/90%): per candidate, galloping costs
/// ~log(deg/|src|) probes while the merge amortizes to `1 + deg/|src|`
/// pointer steps; the merge matches or beats the gallop from
/// `|src|/deg = 1/16` up (0.7–0.8µs vs 0.9–1.0µs at 1/16, winning by
/// ~1.7× at 1/4) and only loses below `1/64` — so the dispatch flips at
/// `deg/|src| = 16`.
const MERGE_FACTOR: usize = 16;

/// Smallest degree at which a root is searched on its own
/// neighbourhood kernel under [`IndexMode::Auto`] (module docs,
/// "Neighbourhood kernels").
pub const HUB_ROOT_MIN_DEGREE: usize = 128;

/// Prepared search state shared by the enumeration algorithms: an
/// α-pruned component, its α, and the configuration that says which of
/// its roots go to a neighbourhood kernel and under which budgets.
///
/// The graph sits behind [`Arc`] so a component that refine or apply
/// leaves untouched keeps it ([`Kernel::share_at`]).
pub(crate) struct Kernel {
    pub g: Arc<UncertainGraph>,
    pub alpha: f64,
    config: MuleConfig,
}

impl Kernel {
    /// Wrap an already α-pruned graph (Observation 3: every edge has
    /// `p ≥ alpha`). Builds nothing: indexes are per root (module docs,
    /// "Neighbourhood kernels").
    pub fn wrap(g: UncertainGraph, alpha: f64, config: &MuleConfig) -> Self {
        Kernel {
            g: Arc::new(g),
            alpha,
            config: config.clone(),
        }
    }

    /// Share this kernel's graph (an O(1) `Arc` clone) under a
    /// re-stamped α: `PreparedBase::refine` carries untouched components
    /// over this way (why that is exact: the `prepare` module docs).
    pub fn share_at(&self, alpha: f64) -> Self {
        Kernel {
            g: Arc::clone(&self.g),
            alpha,
            config: self.config.clone(),
        }
    }

    /// The borrowed CSR-only search state of the whole component.
    pub fn view(&self) -> KernelRef<'_> {
        KernelRef {
            g: &self.g,
            alpha: self.alpha,
            index: None,
        }
    }

    /// Whether to search root `u` on its own neighbourhood kernel rather
    /// than on the component's CSR: the index mode sends roots of `u`'s
    /// degree, and the root has children to search (`I₀(u)` is
    /// non-empty and passes the size cut `1 + |I₀| ≥ t`).
    fn hub_root(&self, u: VertexId, t: usize) -> bool {
        let min_degree = match self.config.index_mode {
            IndexMode::Auto => HUB_ROOT_MIN_DEGREE,
            IndexMode::Always => 0,
            IndexMode::Never => return false,
        };
        let nbrs = self.g.neighbors(u);
        let upper = nbrs.len() - nbrs.partition_point(|&w| w < u);
        nbrs.len() >= min_degree && upper > 0 && 1 + upper >= t
    }
}

/// Reusable scratch for roots' neighbourhood kernels (module docs,
/// "Neighbourhood kernels"): the subgraph induced by `N[u]`, its tiered
/// index and the id tables, refilled in place for each root, so a rerun
/// over the same roots allocates nothing.
#[derive(Default)]
pub(crate) struct HubScratch {
    /// Local id → component id: `N[u]` in ascending order.
    ids: Vec<VertexId>,
    /// Component id → local id (`u32::MAX` outside `N[u]`): the rank
    /// table [`UncertainGraph::refill_induced`] reads.
    slot: Vec<VertexId>,
    g: UncertainGraph,
    index: NeighborhoodIndex,
    indexed: bool,
    /// The component-id buffer each emitted clique is translated into.
    clique: Vec<VertexId>,
}

impl HubScratch {
    /// Load root `u`'s neighbourhood kernel: the subgraph of the
    /// component graph `g` induced by `N[u]`, relabelled monotonically,
    /// indexed under [`IndexMode::Always`] or when its membership tier
    /// fits `config.max_index_bytes`. Returns `u`'s local id.
    fn load(&mut self, g: &UncertainGraph, u: VertexId, config: &MuleConfig) -> VertexId {
        let nbrs = g.neighbors(u);
        let local = nbrs.partition_point(|&w| w < u);
        self.ids.clear();
        self.ids.extend_from_slice(&nbrs[..local]);
        self.ids.push(u);
        self.ids.extend_from_slice(&nbrs[local..]);
        self.g.refill_induced(g, &self.ids, &mut self.slot);
        self.indexed = config.index_mode == IndexMode::Always
            || NeighborhoodIndex::should_build(&self.g, config.max_index_bytes);
        if self.indexed {
            self.index.rebuild(&self.g, config.dense_index_bytes);
        }
        local as VertexId
    }

    /// The loaded kernel at `alpha`, and `sink` behind the translation
    /// of local ids back to component ids.
    fn split<'a, S: CliqueSink>(
        &'a mut self,
        alpha: f64,
        sink: &'a mut S,
    ) -> (KernelRef<'a>, Remap<'a, S>) {
        let kernel = KernelRef {
            g: &self.g,
            alpha,
            index: self.indexed.then_some(&self.index),
        };
        let remap = Remap {
            inner: sink,
            map: &self.ids,
            scratch: &mut self.clique,
        };
        (kernel, remap)
    }
}

/// The borrowed search state the filters and the recursion read: a
/// component's CSR ([`Kernel::view`], never indexed) or a root's
/// neighbourhood kernel ([`HubScratch`]). An α-pruned graph, its α and
/// its tiered index, if one was built.
#[derive(Clone, Copy)]
pub(crate) struct KernelRef<'a> {
    pub g: &'a UncertainGraph,
    pub alpha: f64,
    pub index: Option<&'a NeighborhoodIndex>,
}

impl KernelRef<'_> {
    /// Closed-form root expansion behind [`search_root`]: at the root
    /// every factor is 1 and every vertex `< u` has moved to `X` by the
    /// time `u` is processed, so
    ///
    /// * `I₀(u) = {(w, p(u,w)) : w ∈ Γ(u), w > u}`
    /// * `X₀(u) = {(v, p(u,v)) : v ∈ Γ(u), v < u}`
    ///
    /// read straight off the (already α-pruned, so `p ≥ α` always holds)
    /// adjacency in O(deg u). Appends `X₀` then `I₀` at the arena tail —
    /// the adjacency is sorted, so one pass writes both spans
    /// contiguously — and returns `(I₀, X₀)`. `scanned` is incremented
    /// per neighbor examined.
    pub fn expand_root_into(
        &self,
        u: VertexId,
        arena: &mut CandidateArena,
        scanned: &mut u64,
    ) -> (Range<usize>, Range<usize>) {
        let x_start = arena.mark();
        let mut i_start = x_start;
        for (w, p) in self.g.neighbors_with_probs(u) {
            *scanned += 1;
            arena.push((w, p));
            if w < u {
                i_start = arena.mark();
            }
        }
        (i_start..arena.mark(), x_start..i_start)
    }

    /// The shared body of GenerateI / GenerateX: keep the candidates of
    /// `src` (a span borrowed from the *other* depth buffer) that are
    /// adjacent to `u`, multiply each factor by `p({·, u})`, and drop
    /// entries whose new clique probability `q2 · r'` would fall below α.
    /// Survivors are appended at `out`'s tail (callers bracket the
    /// appends with `mark`/`truncate`). `side` picks which scanned
    /// counter is charged `src.len()`.
    ///
    /// The intersection strategy is chosen **per call** from the tiered
    /// index and the `|src| / deg(u)` shape:
    ///
    /// * `u` holds a dense probability row (always cache-resident — see
    ///   [`ugraph_core::adjacency::DENSE_ROW_MAX_BYTES`]) → one load per
    ///   candidate answers membership and probability together
    ///   (`dense_probes` counts the probability fetches it serves);
    /// * membership tier only → O(1) bitset probe per candidate, gallop
    ///   into the CSR row on each hit (`gallop_probes` accumulates the
    ///   modeled `O(log gap)` comparison cost per search) — the moving
    ///   left bound makes adjacent hits O(1);
    /// * no index, `|src|` within [`MERGE_FACTOR`] of `deg(u)` → linear
    ///   two-pointer merge (`merge_steps`), the regime where galloping
    ///   degenerates into repeated short searches;
    /// * no index otherwise → gallop per candidate from the moving left
    ///   bound.
    ///
    /// Every strategy multiplies the identical CSR `f64` (the dense row
    /// stores the same bits), so survivors and probabilities are
    /// bit-equal whichever path runs.
    #[inline]
    pub fn filter_candidates_into(
        &self,
        u: VertexId,
        q2: f64,
        src: CandSpan<'_>,
        out: &mut CandidateArena,
        stats: &mut EnumerationStats,
        side: Scan,
    ) {
        *side.counter(stats) += src.len() as u64;
        let nbrs = self.g.neighbors(u);
        let probs = self.g.neighbor_probs(u);
        if let Some(idx) = self.index {
            if let Some(drow) = idx.dense_row(u) {
                // Dense rows only exist cache-resident, so the direct
                // one-load-per-candidate probe is always the right call.
                for &(w, r) in src {
                    let p = drow[w as usize];
                    if p > 0.0 {
                        stats.dense_probes += 1;
                        let r2 = r * p;
                        if q2 * r2 >= self.alpha {
                            out.push((w, r2));
                        }
                    }
                }
                return;
            }
            let row = idx.row(u);
            let mut lo = 0usize;
            for &(w, r) in src {
                // O(1) membership probe on the hot word row; on a hit
                // the probability is found by galloping the CSR row
                // (successive hits are at increasing positions because
                // `src` is sorted).
                if row.contains(w as usize) {
                    let j = gallop_search(nbrs, lo, w).expect("index row and CSR agree");
                    stats.gallop_probes += gallop_cost(j - lo + 1);
                    let r2 = r * probs[j];
                    lo = j + 1;
                    if q2 * r2 >= self.alpha {
                        out.push((w, r2));
                    }
                }
            }
            return;
        }
        if src.len() * MERGE_FACTOR >= nbrs.len() {
            // Linear two-pointer merge: |src| within a constant factor
            // of deg(u), where one sequential pass beats repeated
            // searches.
            let mut j = 0usize;
            let mut steps = 0u64;
            for &(w, r) in src {
                while j < nbrs.len() && nbrs[j] < w {
                    j += 1;
                    steps += 1;
                }
                if j >= nbrs.len() {
                    break;
                }
                steps += 1;
                if nbrs[j] == w {
                    let r2 = r * probs[j];
                    j += 1;
                    if q2 * r2 >= self.alpha {
                        out.push((w, r2));
                    }
                }
            }
            stats.merge_steps += steps;
            return;
        }
        // Index-free and the span is sparse relative to the row: gallop
        // per candidate from a moving left bound.
        let mut lo = 0usize;
        for &(w, r) in src {
            if lo >= nbrs.len() {
                break;
            }
            match gallop_search(nbrs, lo, w) {
                Ok(j) => {
                    stats.gallop_probes += gallop_cost(j - lo + 1);
                    let r2 = r * probs[j];
                    if q2 * r2 >= self.alpha {
                        out.push((w, r2));
                    }
                    lo = j + 1;
                }
                Err(j) => {
                    stats.gallop_probes += gallop_cost(j - lo + 1);
                    lo = j;
                }
            }
        }
    }

    /// Existence variant of the filter for leaf detection: when a child's
    /// `I'` is empty it can never recurse, so its `X'` is only ever
    /// tested for emptiness (Lemma 9) — this answers that test directly,
    /// short-circuiting at the first survivor instead of materializing
    /// the set. Dispatches across the same per-call strategies as
    /// [`Self::filter_candidates_into`]. `x_candidates_scanned` counts
    /// only the tuples actually examined (this test always charges the
    /// `X` side).
    ///
    /// The strategy bodies are deliberately duplicated from the
    /// materializing filter rather than parameterized over an
    /// accept-callback: this loop's wall-clock proved highly sensitive
    /// to codegen (see the negative results in the module/ROADMAP
    /// notes), and the two entry points are pinned against each other
    /// by `filter_strategies_agree_on_survivors_and_bits` and
    /// `any_candidate_survives_matches_materialized_filter`, so any
    /// hand-mirroring mistake fails the suite. Keep the bodies in sync
    /// when touching either.
    #[inline]
    pub fn any_candidate_survives(
        &self,
        u: VertexId,
        q2: f64,
        srcs: [CandSpan<'_>; 2],
        stats: &mut EnumerationStats,
    ) -> bool {
        let nbrs = self.g.neighbors(u);
        let probs = self.g.neighbor_probs(u);
        let index = self.index;
        let dense = index.and_then(|idx| idx.dense_row(u));
        for src in srcs {
            if let Some(drow) = dense {
                for &(w, r) in src {
                    stats.x_candidates_scanned += 1;
                    let p = drow[w as usize];
                    if p > 0.0 {
                        stats.dense_probes += 1;
                        if q2 * (r * p) >= self.alpha {
                            return true;
                        }
                    }
                }
                continue;
            }
            if let Some(idx) = index {
                let row = idx.row(u);
                let mut lo = 0usize;
                for &(w, r) in src {
                    stats.x_candidates_scanned += 1;
                    if row.contains(w as usize) {
                        let j = gallop_search(nbrs, lo, w).expect("index row and CSR agree");
                        stats.gallop_probes += gallop_cost(j - lo + 1);
                        lo = j + 1;
                        if q2 * (r * probs[j]) >= self.alpha {
                            return true;
                        }
                    }
                }
                continue;
            }
            if src.len() * MERGE_FACTOR >= nbrs.len() {
                let mut j = 0usize;
                let mut steps = 0u64;
                for &(w, r) in src {
                    if j >= nbrs.len() {
                        break;
                    }
                    stats.x_candidates_scanned += 1;
                    while j < nbrs.len() && nbrs[j] < w {
                        j += 1;
                        steps += 1;
                    }
                    if j >= nbrs.len() {
                        break;
                    }
                    steps += 1;
                    if nbrs[j] == w {
                        let p = probs[j];
                        j += 1;
                        if q2 * (r * p) >= self.alpha {
                            stats.merge_steps += steps;
                            return true;
                        }
                    }
                }
                stats.merge_steps += steps;
                continue;
            }
            let mut lo = 0usize;
            for &(w, r) in src {
                if lo >= nbrs.len() {
                    break;
                }
                stats.x_candidates_scanned += 1;
                match gallop_search(nbrs, lo, w) {
                    Ok(j) => {
                        stats.gallop_probes += gallop_cost(j - lo + 1);
                        if q2 * (r * probs[j]) >= self.alpha {
                            return true;
                        }
                        lo = j + 1;
                    }
                    Err(j) => {
                        stats.gallop_probes += gallop_cost(j - lo + 1);
                        lo = j;
                    }
                }
            }
        }
        false
    }
}

/// Relative margin above α the dominated-sibling rule demands of a
/// computed `clq(C ∪ I)` before it skips siblings (see the module docs,
/// "Dominated siblings"): it exceeds twice the worst rounding error of
/// a product over a clique of [`DOMINANCE_MAX_SIZE`] vertices.
const DOMINANCE_MARGIN: f64 = 1e-9;

/// Largest `|C ∪ I|` the rule fires at. A clique of `N` vertices has
/// `N(N−1)/2` edges, so any computed clique probability over a subset
/// of it carries at most that many roundings: at `N = 2048` the relative
/// error is at most `γ = 2 096 128 · 2⁻⁵³ ≈ 2.33e-10`, and
/// `2γ / (1 − γ) ≈ 4.7e-10 < DOMINANCE_MARGIN`.
const DOMINANCE_MAX_SIZE: usize = 2048;

/// What one subtree search returns: whether to keep going, and — when
/// the subtree proved `C ∪ I` an α-clique — the probability of
/// `C ∪ I` it computed on the way (see the module docs, "Dominated
/// siblings").
pub(crate) type Subtree = (Control, Option<f64>);

impl KernelRef<'_> {
    /// Whether a computed `clq(C ∪ I) = p` over `size = |C ∪ I|`
    /// vertices lets a node skip the siblings of its first child: `p`
    /// clears α by [`DOMINANCE_MARGIN`], `size` is within
    /// [`DOMINANCE_MAX_SIZE`], and α is at least twice the smallest
    /// normal `f64`, so no product on either side underflows and the
    /// rounding bound holds.
    #[inline]
    fn dominates(&self, p: f64, size: usize) -> bool {
        size <= DOMINANCE_MAX_SIZE
            && self.alpha >= 2.0 * f64::MIN_POSITIVE
            && p >= self.alpha * (1.0 + DOMINANCE_MARGIN)
    }
}

/// Algorithm 6 (`Enum-Uncertain-MC-Large`) over arena spans — the one
/// kernel recursion, shared by the prepared per-component path
/// (`crate::prepare`), the parallel workers and the literal-root
/// [`crate::enumerate::naive_root`]. At `t ≤ 1` it is exactly MULE's
/// Algorithm 2: the line-8 cut `|C| + 1 + |I'| < t` can never hold, and
/// the emission test `|C| ≥ t` always does below the root (`C` is never
/// empty there). Callers with no size threshold pass `t = 0`.
///
/// **LARGE–MULE (Algorithms 5–6).** At a size threshold `t ≥ 2` the
/// session ([`crate::Query::min_size`]) emits exactly
/// `{C : C α-maximal in G, |C| ≥ t}` (Lemma 13). The paper's prose says
/// "size `t`", but its pseudo-code computes the "at least `t`" set, and
/// the LARGE–MULE tests pin that reading. Two mechanisms make this much
/// faster than filtering MULE's output: Algorithm 5's Modani–Dey
/// shared-neighborhood filter, which is pipeline stage 3
/// ([`crate::pruning::shared_neighborhood_peel`]) and on
/// clique-projection graphs like DBLP removes almost everything (the
/// paper: 76797 s for MULE vs 32 s for LARGE–MULE at `t = 3`), and the
/// line-8 search bound below, which abandons a branch whose clique plus
/// all remaining candidates cannot reach `t` vertices.
///
/// `i_span` and `x_span` index into `cur` (this depth's buffer); each
/// branch appends the child's filtered `I'` span and then its `X'` span
/// at `next`'s tail, recurses with the buffers swapped, and truncates
/// back afterwards. The child's `X'` is the filtered parent `X` followed
/// by the filtered already-processed prefix of the parent `I` — the same
/// order the `X ← X ∪ {(u, r)}` update grows the owned set, without
/// materializing it.
///
/// **Size bound.** A branch is abandoned when `|C| + 1 + |I'| < t`
/// (line 8). The paper's `continue` there also skips the explicit
/// `X ← X ∪ {(u, r)}` update; here that is harmless, because `u` stays
/// in the parent `I` span and every later sibling filters the processed
/// prefix of that span into its `X'` regardless. A first child cut this
/// way proves nothing. A node with `I = ∅ ∧ X = ∅` emits only when
/// `|C| ≥ t`; it is reached only through branches that passed the bound,
/// so that holds except at a too-small root (asserted in debug builds).
///
/// **Dominated siblings.** When the first child `u₀ = min I` keeps every
/// later candidate (`|I'| = |I| − 1`) and its subtree proves `C ∪ I` an
/// α-clique, the remaining children are skipped: each could only emit a
/// set `K ⊊ C ∪ I` without `u₀`, and `clq(K ∪ {u₀}) ≥ clq(C ∪ I) ≥ α`
/// because dropping vertices drops factors `≤ 1`, so `u₀` in its `X`
/// blocks the emission. That holds whatever the size of `K`, so the
/// size bound does not weaken it. The skip needs the computed
/// `clq(C ∪ I)` to be `≥ α·(1 + 1e-9)` and `|C ∪ I| ≤ 2048`, so rounding
/// can never make it override a sibling's own test at a tie (bound in
/// the module docs). Returns the `Control` and that proof: `Some(q)` at
/// an `I = X = ∅` node, `Some(clq(C ∪ {u₀}))` when `I = {u₀}` is a leaf
/// child, the first child's proof when it kept everything, else `None`.
///
/// **β admission cut.** A child with `q·r` at or below the sink's
/// [`CliqueSink::admission_floor`] is skipped before its filters run
/// (module docs, "β admission cut").
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 6's state tuple
pub(crate) fn enumerate_subtree<S: CliqueSink>(
    kernel: &KernelRef<'_>,
    stats: &mut EnumerationStats,
    c: &mut Vec<VertexId>,
    q: f64,
    i_span: Range<usize>,
    x_span: Range<usize>,
    cur: &mut CandidateArena,
    next: &mut CandidateArena,
    t: usize,
    limits: &mut RunLimits,
    sink: &mut S,
) -> Subtree {
    stats.calls += 1;
    stats.max_depth = stats.max_depth.max(c.len());
    // Amortized limit probe (deadline / budget / cancel token), checked
    // *before* any emission at this node so an interrupted stream is a
    // clean prefix of the uninterrupted one.
    if limits.probe(stats.calls) {
        return (Control::Stop, None);
    }
    if i_span.is_empty() && x_span.is_empty() {
        debug_assert!(c.len() >= t || c.is_empty());
        if c.len() >= t {
            stats.emitted += 1;
            return (sink.emit(c, q), Some(q));
        }
        return (Control::Continue, Some(q));
    }
    let mut proof = None;
    for pos in i_span.clone() {
        let (u, r) = cur.get(pos);
        // clq(C ∪ {u}) — one multiplication (the key insight).
        let q2 = q * r;
        if sink.admission_floor().is_some_and(|beta| q2 <= beta) {
            stats.beta_pruned += 1;
            continue;
        }
        let mark = next.mark();
        // Algorithm 3: I' from candidates beyond u (they are > u because
        // the I span is sorted by vertex id).
        kernel.filter_candidates_into(u, q2, cur.span(pos + 1..i_span.end), next, stats, Scan::I);
        let x2_start = next.mark();
        let i2_len = x2_start - mark;
        // Line 8: not enough material left to reach t vertices.
        if c.len() + 1 + i2_len < t {
            stats.size_pruned += 1;
            next.truncate(mark);
            continue;
        }
        // The first child kept every later candidate: C ∪ {u} ∪ I' = C ∪ I.
        let kept_all = pos == i_span.start && i2_len == i_span.len() - 1;
        if i2_len == 0 {
            // I' is empty: the child is a leaf (and past the line-8
            // bound, so |C| + 1 ≥ t), and X' is only tested for
            // emptiness (Lemma 9) — answer that directly with the
            // short-circuiting existence filter instead of materializing
            // X'. This inlines the child call (counters match what the
            // recursion would have recorded, minus the skipped scans).
            debug_assert!(c.len() + 1 >= t);
            stats.calls += 1;
            stats.max_depth = stats.max_depth.max(c.len() + 1);
            if limits.probe(stats.calls) {
                return (Control::Stop, None);
            }
            if kept_all {
                // I = {u}: the leaf is C ∪ I itself (no later siblings).
                proof = Some(q2);
            }
            let extendable = kernel.any_candidate_survives(
                u,
                q2,
                [cur.span(x_span.clone()), cur.span(i_span.start..pos)],
                stats,
            );
            if !extendable {
                stats.emitted += 1;
                c.push(u);
                let ctl = sink.emit(c, q2);
                c.pop();
                if ctl == Control::Stop {
                    return (Control::Stop, None);
                }
            }
            continue;
        }
        // Algorithm 4: X' from the exclusion set (including vertices
        // looped over earlier at this node).
        kernel.filter_candidates_into(u, q2, cur.span(x_span.clone()), next, stats, Scan::X);
        kernel.filter_candidates_into(u, q2, cur.span(i_span.start..pos), next, stats, Scan::X);
        let x2_end = next.mark();
        c.push(u);
        let (ctl, child_proof) = enumerate_subtree(
            kernel,
            stats,
            c,
            q2,
            mark..x2_start,
            x2_start..x2_end,
            next,
            cur,
            t,
            limits,
            sink,
        );
        c.pop();
        next.truncate(mark);
        if ctl == Control::Stop {
            return (Control::Stop, None);
        }
        if kept_all {
            proof = child_proof;
            if proof.is_some_and(|p| kernel.dominates(p, c.len() + i_span.len())) {
                stats.dominated_siblings += (i_span.len() - 1) as u64;
                break;
            }
        }
    }
    (Control::Continue, proof)
}

/// Search the root subtree `C = {u}` — the step every root loop shares
/// (the prepared schedule and the parallel workers): expand `I₀(u)` and
/// `X₀(u)` in closed form ([`KernelRef::expand_root_into`]), cut the root
/// when `1 + |I₀| < t` (counted in `size_pruned`), otherwise run
/// [`enumerate_subtree`] with `u` pushed onto `c`. Leaves `c` as it found
/// it and both arenas empty.
///
/// A sink whose admission floor is already `≥ 1` rejects every clique
/// (each factor is `≤ 1`), so the root is skipped before its expansion
/// and counted in `beta_pruned` (module docs, "β admission cut").
///
/// A root the session's [`IndexMode`] sends there is searched on its own
/// neighbourhood kernel, loaded into `arenas.hub`, with emitted ids
/// translated back in the sink layer; `hub_roots` counts it (module
/// docs, "Neighbourhood kernels").
#[allow(clippy::too_many_arguments)] // the run loops' split-borrowed state
pub(crate) fn search_root<S: CliqueSink>(
    kernel: &Kernel,
    u: VertexId,
    t: usize,
    stats: &mut EnumerationStats,
    arenas: &mut DepthArenas,
    c: &mut Vec<VertexId>,
    limits: &mut RunLimits,
    sink: &mut S,
) -> Control {
    if sink.admission_floor().is_some_and(|beta| beta >= 1.0) {
        stats.beta_pruned += 1;
        return Control::Continue;
    }
    let DepthArenas { even, odd, hub } = arenas;
    let ctl = if kernel.hub_root(u, t) {
        stats.hub_roots += 1;
        let local = hub.load(&kernel.g, u, &kernel.config);
        let (local_kernel, mut remap) = hub.split(kernel.alpha, sink);
        search_expanded(
            &local_kernel,
            local,
            t,
            stats,
            even,
            odd,
            c,
            limits,
            &mut remap,
        )
    } else {
        search_expanded(&kernel.view(), u, t, stats, even, odd, c, limits, sink)
    };
    arenas.clear();
    ctl
}

/// The body of [`search_root`] on one kernel: expand the root, apply the
/// size cut, recurse.
#[allow(clippy::too_many_arguments)] // the run loops' split-borrowed state
fn search_expanded<S: CliqueSink>(
    kernel: &KernelRef<'_>,
    u: VertexId,
    t: usize,
    stats: &mut EnumerationStats,
    even: &mut CandidateArena,
    odd: &mut CandidateArena,
    c: &mut Vec<VertexId>,
    limits: &mut RunLimits,
    sink: &mut S,
) -> Control {
    let (i0, x0) = kernel.expand_root_into(u, even, &mut stats.i_candidates_scanned);
    if 1 + i0.len() < t {
        stats.size_pruned += 1;
        return Control::Continue;
    }
    c.push(u);
    let (ctl, _) = enumerate_subtree(kernel, stats, c, 1.0, i0, x0, even, odd, t, limits, sink);
    c.pop();
    ctl
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_core::subgraph;

    #[test]
    fn arena_mark_truncate_and_span() {
        let mut a: Arena<u32> = Arena::new();
        a.push(1);
        a.push(2);
        let mark = a.mark();
        a.push(3);
        a.push(4);
        assert_eq!(a.span(mark..a.mark()), &[3, 4]);
        a.set(mark, 30);
        assert_eq!(a.get(mark), 30);
        a.truncate(mark);
        assert_eq!(a.mark(), 2);
        assert_eq!(a.span(0..2), &[1, 2]);
        a.clear();
        assert_eq!(a.mark(), 0);
    }

    /// Below the root, `t = 1` is `t = 0`: on random graphs a prepared
    /// run at `min_size` 1 emits the `min_size` 0 stream (ids and
    /// probability bits) with every counter equal and nothing
    /// size-pruned, at 1 and 2 threads.
    #[test]
    fn threshold_one_searches_exactly_like_threshold_zero() {
        use crate::Query;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use ugraph_core::GraphBuilder;

        let mut rng = SmallRng::seed_from_u64(0x7E50_0001);
        for case in 0..100 {
            let n = rng.gen_range(0..=30);
            let density = rng.gen_range(0.05..0.5);
            let mut b = GraphBuilder::new(n);
            for u in 0..n as VertexId {
                for v in u + 1..n as VertexId {
                    if rng.gen::<f64>() < density {
                        b.add_edge(u, v, 1.0 - rng.gen::<f64>()).unwrap();
                    }
                }
            }
            let g = b.build();
            let alpha = rng.gen_range(0.001..0.9);
            for threads in [1, 2] {
                let run = |min_size| {
                    let query = Query::new(&g).alpha(alpha).min_size(min_size);
                    let mut session = query.threads(threads).prepare().unwrap();
                    let stream: Vec<(Vec<VertexId>, u64)> = session
                        .collect()
                        .unwrap()
                        .into_iter()
                        .map(|(c, p)| (c, p.to_bits()))
                        .collect();
                    (stream, *session.stats())
                };
                let ((want, zero), (got, one)) = (run(0), run(1));
                let at = format!("case {case}, n={n}, α={alpha:e}, threads={threads}");
                assert_eq!(got, want, "stream differs ({at})");
                assert_eq!(one, zero, "counters differ ({at})");
                assert_eq!(one.size_pruned, 0, "{at}");
            }
        }
    }

    #[test]
    fn any_candidate_survives_matches_materialized_filter() {
        use ugraph_core::builder::from_edges;

        let g = from_edges(
            6,
            &[
                (0, 1, 0.9),
                (0, 2, 0.8),
                (0, 3, 0.4),
                (0, 5, 0.95),
                (1, 2, 0.7),
            ],
        )
        .unwrap();
        let pruned = subgraph::prune_below_alpha(&g, 0.3).unwrap();
        let index = NeighborhoodIndex::build(&pruned, usize::MAX);
        for mode in ["indexed", "csr"] {
            let kernel = KernelRef {
                g: &pruned,
                alpha: 0.3,
                index: (mode == "indexed").then_some(&index),
            };
            // Candidates probing Γ(0): 2 survives (0.8·q2 ≥ α), 4 is not a
            // neighbor, 3 was α-pruned from the kernel graph.
            let mut arena = CandidateArena::new();
            for cand in [(2u32, 1.0f64), (3, 1.0), (4, 1.0)] {
                arena.push(cand);
            }
            let mut stats = EnumerationStats::new();
            for (loq, expect) in [(1.0, true), (0.1, false)] {
                let survives = kernel.any_candidate_survives(
                    0,
                    loq,
                    [arena.span(0..3), arena.span(0..0)],
                    &mut stats,
                );
                assert_eq!(survives, expect, "mode {mode}, q2={loq}");
                // Cross-check against the materializing filter (which
                // writes into the sibling buffer, per the span layout).
                let mut out = CandidateArena::new();
                let mut s2 = EnumerationStats::new();
                kernel.filter_candidates_into(0, loq, arena.span(0..3), &mut out, &mut s2, Scan::X);
                assert_eq!(out.mark() > 0, expect);
            }
            assert!(stats.x_candidates_scanned > 0);
        }
    }

    #[test]
    fn filter_strategies_agree_on_survivors_and_bits() {
        use ugraph_core::builder::from_edges;

        // Pivot 2 is a hub (degree ≥ MIN_DENSE_DEGREE) over the even
        // candidates 4..=42, so the dense tier engages in an index built
        // with an unbounded budget; candidate spans of different sizes
        // exercise merge and gallop on the index-free path. Root 49 is
        // adjacent to the pivot and to every candidate (4..=46), so its
        // neighbourhood kernel holds them all under a relabel that is not
        // the identity: the fourth strategy.
        let mut edges: Vec<(u32, u32, f64)> = (2..=21u32)
            .map(|k| (2, 2 * k, 0.35 + 0.03 * k as f64))
            .collect();
        edges.push((44, 46, 0.9));
        edges.extend((1..=23u32).map(|k| (2 * k, 49, 0.95)));
        let g = from_edges(50, &edges).unwrap();
        let candidates: Vec<u32> = (2..=23u32).map(|k| 2 * k).collect();
        let root = 49;
        let pruned = subgraph::prune_below_alpha(&g, 0.3).unwrap();
        let dense = NeighborhoodIndex::build(&pruned, usize::MAX);
        let bitset = NeighborhoodIndex::build(&pruned, 0);

        let configs = [
            ("dense", Some(&dense)),
            ("bitset", Some(&bitset)),
            ("csr", None),
            ("local", None),
        ];
        // The root's 24-vertex neighbourhood (192 index bytes) is within
        // this membership budget.
        let config = MuleConfig {
            index_mode: IndexMode::Auto,
            max_index_bytes: 200,
            dense_index_bytes: usize::MAX,
        };
        type Outcome = (String, Vec<(u32, u64)>, bool);
        for src_len in [1usize, 3, 22] {
            let mut outcomes: Vec<Outcome> = Vec::new();
            for (label, index) in configs {
                let mut hub = HubScratch::default();
                // The pivot and the candidates in the searched kernel's ids.
                let (view, pivot, ids): (KernelRef<'_>, u32, &[u32]) = if label == "local" {
                    hub.load(&pruned, root, &config);
                    assert!(hub.indexed, "the neighbourhood fits the budget");
                    let view = KernelRef {
                        g: &hub.g,
                        alpha: 0.3,
                        index: Some(&hub.index),
                    };
                    (view, 0, &hub.ids)
                } else {
                    let view = KernelRef {
                        g: &pruned,
                        alpha: 0.3,
                        index,
                    };
                    (view, 2, &[])
                };
                let local = |w: u32| match ids.binary_search(&w) {
                    Ok(i) => i as u32,
                    Err(_) if ids.is_empty() => w,
                    Err(_) => panic!("{w} is outside N[{root}]"),
                };
                let global = |w: u32| if ids.is_empty() { w } else { ids[w as usize] };
                let mut arena = CandidateArena::new();
                for &w in &candidates {
                    arena.push((local(w), 1.0));
                }
                let mut out = CandidateArena::new();
                let mut stats = EnumerationStats::new();
                view.filter_candidates_into(
                    pivot,
                    1.0,
                    arena.span(0..src_len),
                    &mut out,
                    &mut stats,
                    Scan::I,
                );
                let survivors: Vec<(u32, u64)> = (0..out.mark())
                    .map(|i| {
                        let (w, r) = out.get(i);
                        (global(w), r.to_bits())
                    })
                    .collect();
                let mut s2 = EnumerationStats::new();
                let alive = view.any_candidate_survives(
                    pivot,
                    1.0,
                    [arena.span(0..src_len), arena.span(0..0)],
                    &mut s2,
                );
                // Exactly one strategy family fired per config.
                match label {
                    "dense" | "local" => assert!(stats.dense_probes > 0, "{label} len={src_len}"),
                    "bitset" => assert!(
                        stats.dense_probes == 0 && stats.gallop_probes + stats.merge_steps > 0
                    ),
                    _ => assert!(stats.dense_probes == 0),
                }
                outcomes.push((label.to_string(), survivors, alive));
            }
            assert!(!outcomes[0].1.is_empty(), "len={src_len} keeps nothing");
            for pair in outcomes.windows(2) {
                assert_eq!(pair[0].1, pair[1].1, "survivors differ at len={src_len}");
                assert_eq!(pair[0].2, pair[1].2, "existence differs at len={src_len}");
            }
        }
    }
}
