//! Cooperative cancellation and resource budgets for enumeration runs.
//!
//! Maximal-clique enumeration is output-exponential: a single
//! adversarial `(graph, α)` pair can run effectively forever. A serving
//! system therefore needs *bounded* execution — a wall-clock deadline, a
//! search-node budget, or an external kill switch — without giving up
//! the kernel's performance contract.
//!
//! Three knobs, all configured on the [`crate::Query`] builder (or
//! retuned on a live [`crate::Prepared`] session) and all enforced by
//! the same mechanism:
//!
//! * [`Query::deadline`](crate::Query::deadline) — a [`Duration`]
//!   measured from the start of each execution method;
//! * [`Query::node_budget`](crate::Query::node_budget) — a cap on
//!   search nodes (`stats().calls`) per execution;
//! * [`Query::cancel_token`](crate::Query::cancel_token) — an external
//!   [`CancelToken`] (a clonable `Arc<AtomicBool>` handle) that any
//!   thread can trip at any time.
//!
//! # Enforcement model
//!
//! The enumeration kernel probes the configured limits **amortized**:
//! once every [`PROBE_INTERVAL`] (~1024) search nodes, plus once at
//! every schedule-unit boundary, once up front before the first unit
//! and once after the last, so a budget crossed inside the last unit
//! fails a run at every thread count alike. A cheap one-branch `active` check is the only cost on the hot
//! path when no limit is configured — the zero-allocation pin and
//! byte-identity suites run with these checks compiled in.
//!
//! When a probe fires, the recursion unwinds through the existing
//! [`Control::Stop`](crate::Control::Stop) path **without emitting
//! anything further**, and the execution method returns the matching
//! typed error — [`MuleError::DeadlineExceeded`],
//! [`MuleError::BudgetExhausted`] or [`MuleError::Cancelled`]
//! (all [`crate::MuleError`] variants) — carrying the partial
//! [`EnumerationStats`](crate::EnumerationStats) of the interrupted
//! run.
//!
//! # The prefix guarantee
//!
//! Sequential emission order is canonical and deterministic, and an
//! interrupt never reorders, drops, or duplicates an emission — it only
//! truncates. Whatever a sink received before the error is a
//! **byte-identical prefix** (same cliques, same probability bits, same
//! order) of the stream the uninterrupted run would have produced.
//! Pinned by `tests/fault_injection.rs`.
//!
//! [`MuleError::DeadlineExceeded`]: crate::MuleError::DeadlineExceeded
//! [`MuleError::BudgetExhausted`]: crate::MuleError::BudgetExhausted
//! [`MuleError::Cancelled`]: crate::MuleError::Cancelled

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many search nodes pass between limit probes (amortization
/// window). Budget enforcement is accurate to within one window.
pub const PROBE_INTERVAL: u64 = 1024;

/// An external kill switch for enumeration runs: a clonable handle
/// around an `Arc<AtomicBool>`. Hand a clone to
/// [`Query::cancel_token`](crate::Query::cancel_token) (or
/// [`Prepared::set_cancel_token`](crate::Prepared::set_cancel_token)),
/// keep the original, and call [`CancelToken::cancel`] from any thread
/// — every execution observing the token (including all parallel
/// workers) winds down at its next probe and returns
/// [`MuleError::Cancelled`](crate::MuleError::Cancelled).
///
/// Tokens stay cancelled until [`CancelToken::reset`]; a session whose
/// token is tripped fails every subsequent execution immediately.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the token. Every run holding a clone stops at its next
    /// probe. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has the token been tripped?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Clear the token so the session is usable again (e.g. a server
    /// reusing a resident session after cancelling one request).
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// Why a run was interrupted — the internal discriminant behind the
/// three typed [`crate::MuleError`] variants. Declared in ascending
/// severity (the reverse of the order [`RunLimits`] probes them in), so
/// the most severe of several interrupts is their `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Interrupt {
    /// The configured search-node budget was consumed.
    Budget,
    /// The configured wall-clock deadline passed.
    Deadline,
    /// The external [`CancelToken`] was tripped.
    Cancelled,
}

/// The limits configured on a session: durable across executions
/// (deadlines re-arm per execution method). `None` everywhere means
/// unlimited — the default.
#[derive(Debug, Clone, Default)]
pub(crate) struct LimitSpec {
    pub(crate) deadline: Option<Duration>,
    pub(crate) node_budget: Option<u64>,
    pub(crate) cancel: Option<CancelToken>,
}

impl LimitSpec {
    /// Is any limit configured at all?
    pub(crate) fn is_active(&self) -> bool {
        self.deadline.is_some() || self.node_budget.is_some() || self.cancel.is_some()
    }

    /// Arm the spec for one execution starting now: the deadline
    /// becomes an absolute [`Instant`].
    pub(crate) fn arm(&self) -> RunLimits {
        self.arm_shared(self.deadline.map(|d| Instant::now() + d), None)
    }

    /// Arm for an execution whose clock started earlier: `deadline` is
    /// the absolute instant. A parallel execution arms every worker
    /// with the same instant and the same `shared_calls` counter, so
    /// the budget is a *total* over the whole run and every worker sees
    /// the same clock.
    pub(crate) fn arm_shared(
        &self,
        deadline: Option<Instant>,
        shared_calls: Option<Arc<AtomicU64>>,
    ) -> RunLimits {
        RunLimits {
            active: self.is_active(),
            deadline,
            node_budget: self.node_budget,
            cancel: self.cancel.clone(),
            shared_calls,
            published_calls: 0,
            countdown: PROBE_INTERVAL,
            tripped: None,
        }
    }
}

/// Live limit state threaded through one enumeration run. Constructed
/// by [`LimitSpec::arm_shared`] (through [`LimitSpec::arm`] or
/// [`RunLimits::none`]);
/// probed from the kernel recursion; inspected once at the end.
///
/// Everything is pre-allocated at arm time: probing performs no heap
/// allocation, preserving the kernel's zero-alloc steady state.
#[derive(Debug)]
pub(crate) struct RunLimits {
    /// Fast-path gate: false = no limit configured, probes are a single
    /// predictable branch.
    active: bool,
    deadline: Option<Instant>,
    node_budget: Option<u64>,
    cancel: Option<CancelToken>,
    /// Parallel runs share one node counter so the budget caps the
    /// total across workers, not per worker.
    shared_calls: Option<Arc<AtomicU64>>,
    /// How many of this run's local calls were already added to
    /// `shared_calls`.
    published_calls: u64,
    /// Nodes remaining until the next slow probe.
    countdown: u64,
    tripped: Option<Interrupt>,
}

impl RunLimits {
    /// Limits for an unlimited run: every probe is one false branch.
    pub(crate) fn none() -> Self {
        LimitSpec::default().arm()
    }

    /// Why the run stopped, if a limit fired.
    pub(crate) fn tripped(&self) -> Option<Interrupt> {
        self.tripped
    }

    /// The amortized hot-path probe, called once per search node with
    /// the run's cumulative node count. Returns `true` when the run
    /// must unwind (a limit fired now or earlier).
    #[inline]
    pub(crate) fn probe(&mut self, calls: u64) -> bool {
        if !self.active {
            return false;
        }
        if self.tripped.is_some() {
            return true;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = PROBE_INTERVAL;
        self.probe_slow(calls)
    }

    /// An immediate (non-amortized) probe — unit boundaries and run
    /// entry, so a zero deadline or a pre-tripped token interrupts
    /// before the first emission even on tiny inputs.
    pub(crate) fn probe_now(&mut self, calls: u64) -> bool {
        if !self.active {
            return false;
        }
        if self.tripped.is_some() {
            return true;
        }
        self.probe_slow(calls)
    }

    /// The expensive checks, in severity order: external cancellation
    /// wins over the deadline, which wins over the budget.
    #[cold]
    fn probe_slow(&mut self, calls: u64) -> bool {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.tripped = Some(Interrupt::Cancelled);
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.tripped = Some(Interrupt::Deadline);
            return true;
        }
        if let Some(budget) = self.node_budget {
            let total = match &self.shared_calls {
                Some(shared) => {
                    // Publish this worker's nodes since the last probe;
                    // fetch_add returns the pre-add total.
                    let delta = calls - self.published_calls;
                    self.published_calls = calls;
                    shared.fetch_add(delta, Ordering::AcqRel) + delta
                }
                None => calls,
            };
            if total > budget {
                self.tripped = Some(Interrupt::Budget);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_limits_never_trip() {
        let mut limits = RunLimits::none();
        for calls in 0..10_000u64 {
            assert!(!limits.probe(calls));
        }
        assert!(!limits.probe_now(u64::MAX));
        assert_eq!(limits.tripped(), None);
    }

    #[test]
    fn budget_trips_within_one_probe_interval() {
        let spec = LimitSpec {
            node_budget: Some(100),
            ..Default::default()
        };
        let mut limits = spec.arm();
        let mut calls = 0u64;
        let tripped_at = loop {
            calls += 1;
            if limits.probe(calls) {
                break calls;
            }
            assert!(calls < 10 * PROBE_INTERVAL, "budget never fired");
        };
        assert_eq!(limits.tripped(), Some(Interrupt::Budget));
        assert!(tripped_at > 100, "must not fire before the budget");
        assert!(
            tripped_at <= 100 + PROBE_INTERVAL,
            "amortization window exceeded: {tripped_at}"
        );
        // Latched: every later probe answers immediately.
        assert!(limits.probe(calls + 1));
    }

    #[test]
    fn zero_deadline_trips_on_immediate_probe() {
        let spec = LimitSpec {
            deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        let mut limits = spec.arm();
        assert!(limits.probe_now(0));
        assert_eq!(limits.tripped(), Some(Interrupt::Deadline));
    }

    #[test]
    fn cancel_token_is_shared_and_resettable() {
        let token = CancelToken::new();
        let spec = LimitSpec {
            cancel: Some(token.clone()),
            ..Default::default()
        };
        let mut limits = spec.arm();
        assert!(!limits.probe_now(1));
        token.cancel();
        assert!(token.is_cancelled());
        assert!(limits.probe_now(2));
        assert_eq!(limits.tripped(), Some(Interrupt::Cancelled));
        token.reset();
        // A *new* armed run starts clean after the reset.
        let mut rearmed = spec.arm();
        assert!(!rearmed.probe_now(1));
    }

    #[test]
    fn cancellation_outranks_deadline_and_budget() {
        let token = CancelToken::new();
        token.cancel();
        let spec = LimitSpec {
            deadline: Some(Duration::ZERO),
            node_budget: Some(0),
            cancel: Some(token),
        };
        let mut limits = spec.arm();
        assert!(limits.probe_now(100));
        assert_eq!(limits.tripped(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn shared_budget_sums_across_workers() {
        let spec = LimitSpec {
            node_budget: Some(1000),
            ..Default::default()
        };
        let shared = Arc::new(AtomicU64::new(0));
        let mut a = spec.arm_shared(None, Some(shared.clone()));
        let mut b = spec.arm_shared(None, Some(shared.clone()));
        // Each worker alone is under budget …
        assert!(!a.probe_now(600));
        assert_eq!(shared.load(Ordering::Acquire), 600);
        // … but the shared total crosses it.
        assert!(b.probe_now(600));
        assert_eq!(b.tripped(), Some(Interrupt::Budget));
        // Worker a's next probe republishes only the delta.
        assert!(a.probe_now(700));
        assert_eq!(a.tripped(), Some(Interrupt::Budget));
    }
}
