//! Pluggable cavity-page replacement policies.
//!
//! When a tenant faults a qubit into a full stack, the scheduler asks
//! its [`ReplacementPolicy`] which resident page to evict. The policy
//! sees one [`PageView`] per candidate — residency timestamps, usage
//! recency, error-correction staleness, and the owning tenant's
//! priority/deadline — and returns the index of the victim.
//!
//! # Contract
//!
//! * `victim` is called with a non-empty, deterministic candidate list
//!   (ascending physical mode order) and must return an index into it.
//!   Returning anything else is a bug in the policy and panics the
//!   scheduler.
//! * Policies must be pure functions of the views: no interior state,
//!   no randomness. The merge is replayed to produce byte-identical
//!   schedules across runs and worker counts, and a stateful policy
//!   would break that contract.
//! * Qubits pinned by the faulting instruction and qubits with ops in
//!   flight are excluded *before* the call — every candidate offered is
//!   legal to evict.

use vlq::arch::address::StackCoord;
use vlq::machine::LogicalId;

/// One eviction candidate as the policy sees it.
#[derive(Clone, Copy, Debug)]
pub struct PageView {
    /// Owning tenant's admission index.
    pub tenant: usize,
    /// Owning tenant's scheduling priority (higher = more important).
    pub tenant_priority: u32,
    /// Owning tenant's completion deadline in timesteps, if any.
    pub tenant_deadline: Option<u64>,
    /// The resident qubit (global id space).
    pub qubit: LogicalId,
    /// The stack holding the page.
    pub stack: StackCoord,
    /// Physical cavity mode within the stack.
    pub mode: u8,
    /// When the page last entered the transmon layer.
    pub paged_in_at: u64,
    /// Last timestep a logical operation used the qubit.
    pub last_use: u64,
    /// Last timestep the qubit received error correction.
    pub last_ec: u64,
    /// The faulting instruction's start timestep.
    pub now: u64,
}

/// A cavity-page replacement policy (see the module docs for the
/// contract).
pub trait ReplacementPolicy {
    /// Stable lowercase name used in artifacts and CLI flags.
    fn name(&self) -> &'static str;

    /// Picks the victim among `pages` (non-empty, ascending mode
    /// order); returns an index into the slice.
    fn victim(&self, pages: &[PageView]) -> usize;
}

/// The machine's native policy: evict the page with the most refresh
/// slack (the most recently error-corrected qubit), so the pages
/// closest to their `k`-cycle refresh deadline stay resident.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefreshDeadline;

impl ReplacementPolicy for RefreshDeadline {
    fn name(&self) -> &'static str {
        "refresh-deadline"
    }

    fn victim(&self, pages: &[PageView]) -> usize {
        best_index(pages, |p| (p.last_ec, u64::from(u8::MAX - p.mode)))
    }
}

/// Classic least-recently-used: evict the page whose qubit has gone
/// longest without a logical operation. Blind to refresh deadlines —
/// an idle-but-fresh page and an idle-and-stale page look identical.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lru;

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn victim(&self, pages: &[PageView]) -> usize {
        best_index(pages, |p| {
            (u64::MAX - p.last_use, u64::from(u8::MAX - p.mode))
        })
    }
}

/// Deadline-aware priority eviction: victims come from the
/// lowest-priority tenants first; within a priority class, tenants with
/// no deadline (then the loosest deadline) pay first; ties break toward
/// the most refresh slack, then the lowest mode.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeadlinePriority;

impl ReplacementPolicy for DeadlinePriority {
    fn name(&self) -> &'static str {
        "deadline-priority"
    }

    fn victim(&self, pages: &[PageView]) -> usize {
        best_index(pages, |p| {
            (
                u32::MAX - p.tenant_priority,
                p.tenant_deadline.map_or(u64::MAX, |d| d),
                p.last_ec,
                u64::from(u8::MAX - p.mode),
            )
        })
    }
}

/// Index of the candidate with the lexicographically largest key; ties
/// keep the earliest candidate (lowest mode, given ascending order).
fn best_index<K: Ord>(pages: &[PageView], key: impl Fn(&PageView) -> K) -> usize {
    assert!(!pages.is_empty(), "victim() called with no candidates");
    let mut best = 0;
    let mut best_key = key(&pages[0]);
    for (i, p) in pages.iter().enumerate().skip(1) {
        let k = key(p);
        if k > best_key {
            best = i;
            best_key = k;
        }
    }
    best
}

/// The registered replacement policies, as a closed enum for CLI
/// parsing and sweep grids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`RefreshDeadline`] (the default; matches the machine's native
    /// refresh scheduling pressure).
    RefreshDeadline,
    /// [`Lru`].
    Lru,
    /// [`DeadlinePriority`].
    DeadlinePriority,
}

impl PolicyKind {
    /// Every registered policy, in CLI/report order.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::RefreshDeadline,
        PolicyKind::Lru,
        PolicyKind::DeadlinePriority,
    ];

    /// Stable lowercase name (matches the policy's
    /// [`ReplacementPolicy::name`]).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::RefreshDeadline => "refresh-deadline",
            PolicyKind::Lru => "lru",
            PolicyKind::DeadlinePriority => "deadline-priority",
        }
    }

    /// Parses a policy name (the inverse of [`PolicyKind::name`]).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::RefreshDeadline => Box::new(RefreshDeadline),
            PolicyKind::Lru => Box::new(Lru),
            PolicyKind::DeadlinePriority => Box::new(DeadlinePriority),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(
        mode: u8,
        last_use: u64,
        last_ec: u64,
        priority: u32,
        deadline: Option<u64>,
    ) -> PageView {
        PageView {
            tenant: 0,
            tenant_priority: priority,
            tenant_deadline: deadline,
            qubit: LogicalId(mode as u32),
            stack: StackCoord::new(0, 0),
            mode,
            paged_in_at: 0,
            last_use,
            last_ec,
            now: 100,
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(PolicyKind::parse("fifo"), None);
    }

    #[test]
    fn refresh_deadline_evicts_freshest() {
        let pages = [view(0, 50, 90, 0, None), view(1, 50, 99, 0, None)];
        assert_eq!(RefreshDeadline.victim(&pages), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pages = [view(0, 10, 99, 0, None), view(1, 90, 10, 0, None)];
        assert_eq!(Lru.victim(&pages), 0);
    }

    #[test]
    fn deadline_priority_protects_high_priority() {
        let mut high = view(0, 10, 10, 5, Some(200));
        high.tenant = 1;
        let low = view(1, 90, 99, 0, None);
        assert_eq!(DeadlinePriority.victim(&[high, low]), 1);
    }

    #[test]
    fn ties_break_toward_lowest_mode() {
        let pages = [view(0, 5, 5, 0, None), view(1, 5, 5, 0, None)];
        assert_eq!(RefreshDeadline.victim(&pages), 0);
        assert_eq!(Lru.victim(&pages), 0);
        assert_eq!(DeadlinePriority.victim(&pages), 0);
    }
}
