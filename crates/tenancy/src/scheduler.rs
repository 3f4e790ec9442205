//! The multi-tenant merge: admission, instruction interleaving, paging,
//! and per-tenant contention accounting.
//!
//! [`TenantScheduler`] admits N independently compiled programs (each a
//! solo [`Schedule`] against the *same* [`MachineConfig`]) and replays
//! them instruction-by-instruction onto one shared surface:
//!
//! * **Disjoint id spaces** — tenant `i`'s local qubit `n` becomes
//!   global `LogicalId((i << 20) | n)`; tenant 0 keeps its ids verbatim,
//!   which is what makes the N=1 merge byte-identical to the solo
//!   schedule.
//! * **Time sharing** — at every step the tenant whose next instruction
//!   is ready earliest (its local time plus the tenant's accumulated
//!   shift) runs; global start times are monotone, and timeline-spanning
//!   instructions serialize per stack. Waits are charged to the tenant
//!   as queueing delay.
//! * **Cavity paging** — each tenant's solo stack/mode layout is kept
//!   stack-for-stack, but physical modes within a stack are assigned at
//!   page-in time. When a stack is full, the pluggable
//!   [`ReplacementPolicy`] picks a victim: the scheduler emits a
//!   `PageOut` for the victim (charged as an eviction) and a `PageIn`
//!   when the evicted qubit next faults. A swapped-out qubit receives no
//!   refresh rounds — its error-correction clock keeps running, so swap
//!   time counts against the paper's `k`-cycle refresh deadline and
//!   shows up as per-tenant deadline misses.
//!
//! The result is a single merged [`Schedule`] any executor replays
//! unchanged, plus one standalone sub-schedule and a contention report
//! per tenant. The merge is a pure function of its inputs (ordered maps
//! only, no randomness, no clocks), so the same tenants always produce
//! the same bytes.

use std::collections::BTreeMap;

use vlq::arch::address::{ModeIndex, StackCoord, VirtAddr};
use vlq::exec::CostExecutor;
use vlq::isa::{Instr, Schedule};
use vlq::machine::{LogicalId, MachineConfig, MachineError};
use vlq::program::CompiledProgram;
use vlq_telemetry::{Metric, Recorder};

use crate::policy::{PageView, ReplacementPolicy};

/// Bits of the global qubit id reserved for the tenant-local index.
pub const TENANT_ID_BITS: u32 = 20;

/// Most qubits one tenant may allocate (local ids must fit the reserved
/// bits).
pub const MAX_TENANT_QUBITS: u32 = 1 << TENANT_ID_BITS;

/// Most tenants one scheduler admits (the remaining id bits).
pub const MAX_TENANTS: usize = 1 << (32 - TENANT_ID_BITS);

/// Admission and merge errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TenantError {
    /// `run()` on a scheduler with no admitted tenants.
    NoTenants,
    /// A tenant's program was compiled for a different machine shape.
    ConfigMismatch {
        /// Admission index of the offender.
        tenant: usize,
    },
    /// A tenant uses a local qubit id outside the reserved
    /// [`MAX_TENANT_QUBITS`] space.
    IdSpaceOverflow {
        /// Admission index of the offender.
        tenant: usize,
        /// The oversized local id.
        qubit: LogicalId,
    },
    /// More than [`MAX_TENANTS`] admissions.
    TooManyTenants,
    /// A tenant's solo schedule failed structural validation.
    InvalidSchedule {
        /// Admission index of the offender.
        tenant: usize,
        /// The underlying schedule error.
        source: MachineError,
    },
    /// A stack's every resident page was pinned by the faulting
    /// instruction — the machine shape cannot host this tenant mix.
    StackOvercommitted {
        /// The overcommitted stack.
        stack: StackCoord,
        /// When the fault happened.
        t: u64,
    },
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::NoTenants => write!(f, "no tenants admitted"),
            TenantError::ConfigMismatch { tenant } => {
                write!(
                    f,
                    "tenant #{tenant} was compiled for a different machine config"
                )
            }
            TenantError::IdSpaceOverflow { tenant, qubit } => {
                write!(
                    f,
                    "tenant #{tenant} uses local qubit {qubit:?} outside the \
                     {MAX_TENANT_QUBITS}-id tenant space"
                )
            }
            TenantError::TooManyTenants => {
                write!(f, "more than {MAX_TENANTS} tenants admitted")
            }
            TenantError::InvalidSchedule { tenant, source } => {
                write!(f, "tenant #{tenant} has an invalid solo schedule: {source}")
            }
            TenantError::StackOvercommitted { stack, t } => {
                write!(
                    f,
                    "stack {stack} overcommitted at t={t}: every resident page is pinned"
                )
            }
        }
    }
}

impl std::error::Error for TenantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TenantError::InvalidSchedule { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One program admitted to the shared machine.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (artifact rows, sidecar labels).
    pub name: String,
    /// The solo-compiled program.
    pub program: CompiledProgram,
    /// Scheduling priority (higher = more protected from eviction under
    /// the deadline-aware policy).
    pub priority: u32,
    /// Completion deadline in global timesteps, if the tenant has one.
    pub deadline: Option<u64>,
}

impl TenantSpec {
    /// A best-effort tenant: priority 0, no deadline.
    pub fn new(name: impl Into<String>, program: CompiledProgram) -> Self {
        TenantSpec {
            name: name.into(),
            program,
            priority: 0,
            deadline: None,
        }
    }

    /// Sets the priority (builder style).
    #[must_use]
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Per-tenant contention report (everything deterministic).
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// The tenant's display name.
    pub name: String,
    /// Admission priority.
    pub priority: u32,
    /// Completion deadline, if any.
    pub deadline: Option<u64>,
    /// The tenant's slice of the merged schedule — its own instructions
    /// plus the page traffic injected on its behalf; a valid standalone
    /// [`Schedule`].
    pub subschedule: Schedule,
    /// Timesteps this tenant's instructions waited on other tenants.
    pub queue_delay: u64,
    /// Page-ins injected because a qubit had been evicted.
    pub page_faults: u64,
    /// This tenant's pages evicted by the replacement policy.
    pub evictions: u64,
    /// Error-correction touches (refresh, correction, move, measure)
    /// that found the qubit past its `k`-cycle refresh deadline —
    /// swap-out time counts.
    pub deadline_misses: u64,
    /// Refresh rounds and correction touches dropped because the target
    /// qubit was swapped out.
    pub refresh_skips: u64,
    /// `PageIn` instructions emitted for this tenant (initial + faults).
    pub page_ins: u64,
    /// `PageOut` instructions emitted for this tenant (evictions +
    /// teardown).
    pub page_outs: u64,
    /// The tenant's own instructions that made it into the merge.
    pub instructions: u64,
    /// Global timestep the tenant finished (last instruction end, or
    /// later if the solo schedule carried trailing idle time).
    pub finish_t: u64,
    /// The solo schedule's duration (the no-contention baseline).
    pub ideal_t: u64,
}

impl TenantReport {
    /// Contention slowdown in permille: `finish_t / ideal_t × 1000`
    /// (1000 = no slowdown).
    pub fn slowdown_permille(&self) -> u64 {
        (self.finish_t * 1000)
            .checked_div(self.ideal_t)
            .unwrap_or(1000)
    }

    /// Adds the report's `tenant.*` metrics to a recorder.
    pub fn record(&self, recorder: &Recorder) {
        recorder.add(Metric::TenantQueueDelay, self.queue_delay);
        recorder.add(Metric::TenantDeadlineMisses, self.deadline_misses);
        recorder.add(Metric::TenantEvictions, self.evictions);
        recorder.add(Metric::TenantPageFaults, self.page_faults);
        recorder.add(Metric::TenantRefreshSkips, self.refresh_skips);
        recorder.add(Metric::TenantInstructions, self.instructions);
        recorder.gauge_max(Metric::TenantFinishT, self.finish_t);
        recorder.gauge_max(Metric::TenantIdealT, self.ideal_t);
        recorder.gauge_max(Metric::TenantSlowdownPermille, self.slowdown_permille());
    }

    /// Records the `tenant.*` metrics plus the `cost.*` contention
    /// counters from replaying the tenant's sub-schedule through
    /// [`CostExecutor`] — the full per-tenant sidecar row set.
    ///
    /// # Errors
    ///
    /// Propagates sub-schedule validation errors (none for
    /// scheduler-produced reports).
    pub fn record_full(&self, recorder: &Recorder) -> Result<(), MachineError> {
        self.record(recorder);
        CostExecutor.run_recorded(&self.subschedule, recorder)?;
        Ok(())
    }
}

/// The merged multi-tenant program: one replayable schedule plus the
/// per-tenant contention reports.
#[derive(Clone, Debug)]
pub struct MultiProgram {
    /// The merged schedule (validates; any executor replays it).
    pub schedule: Schedule,
    /// One report per admitted tenant, in admission order.
    pub tenants: Vec<TenantReport>,
}

impl MultiProgram {
    /// Jain-style fairness in permille: the smallest tenant slowdown
    /// over the largest (1000 = perfectly even contention).
    pub fn fairness_permille(&self) -> u64 {
        let slowdowns: Vec<u64> = self
            .tenants
            .iter()
            .map(TenantReport::slowdown_permille)
            .collect();
        match (slowdowns.iter().min(), slowdowns.iter().max()) {
            (Some(&min), Some(&max)) if max > 0 => min * 1000 / max,
            _ => 1000,
        }
    }
}

/// Admits tenants and merges them onto one shared machine (see the
/// module docs for the algorithm).
///
/// # Examples
///
/// ```
/// use vlq::machine::MachineConfig;
/// use vlq::program::{compile, LogicalCircuit};
/// use vlq_tenant::{PolicyKind, TenantScheduler, TenantSpec};
///
/// let config = MachineConfig::compact_demo();
/// let mut sched = TenantScheduler::new(config, PolicyKind::RefreshDeadline.build());
/// for name in ["alice", "bob"] {
///     let program = compile(&LogicalCircuit::ghz(3), config).unwrap();
///     sched.admit(TenantSpec::new(name, program)).unwrap();
/// }
/// let multi = sched.run().unwrap();
/// assert_eq!(multi.tenants.len(), 2);
/// multi.schedule.validate().unwrap();
/// ```
pub struct TenantScheduler {
    config: MachineConfig,
    policy: Box<dyn ReplacementPolicy>,
    tenants: Vec<TenantSpec>,
}

impl TenantScheduler {
    /// A scheduler for one machine shape and replacement policy.
    pub fn new(config: MachineConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
        TenantScheduler {
            config,
            policy,
            tenants: Vec::new(),
        }
    }

    /// The shared machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Admits a tenant, returning its admission index.
    ///
    /// # Errors
    ///
    /// Rejects programs compiled for a different machine shape, invalid
    /// solo schedules, local ids outside the tenant space, and
    /// admission past [`MAX_TENANTS`].
    pub fn admit(&mut self, spec: TenantSpec) -> Result<usize, TenantError> {
        let tenant = self.tenants.len();
        if tenant >= MAX_TENANTS {
            return Err(TenantError::TooManyTenants);
        }
        if spec.program.schedule.config() != &self.config {
            return Err(TenantError::ConfigMismatch { tenant });
        }
        spec.program
            .schedule
            .validate()
            .map_err(|source| TenantError::InvalidSchedule { tenant, source })?;
        let mut oversized = None;
        for instr in spec.program.schedule.instrs() {
            instr.for_each_qubit(|q| {
                if q.0 >= MAX_TENANT_QUBITS && oversized.is_none() {
                    oversized = Some(q);
                }
            });
        }
        if let Some(qubit) = oversized {
            return Err(TenantError::IdSpaceOverflow { tenant, qubit });
        }
        self.tenants.push(spec);
        Ok(tenant)
    }

    /// Merges the admitted tenants into one schedule.
    ///
    /// # Errors
    ///
    /// [`TenantError::NoTenants`] without admissions;
    /// [`TenantError::StackOvercommitted`] when a fault finds every
    /// resident page pinned.
    pub fn run(self) -> Result<MultiProgram, TenantError> {
        if self.tenants.is_empty() {
            return Err(TenantError::NoTenants);
        }
        let mut merge = Merge::new(self.config, self.policy.as_ref(), &self.tenants);
        merge.run()?;
        let Merge {
            merged,
            subs,
            counters,
            ..
        } = merge;
        let mut schedule = merged;
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for (i, spec) in self.tenants.iter().enumerate() {
            let ideal_t = spec.program.schedule.duration();
            // Trailing idle time in the solo schedule (e.g. memory-style
            // holds) survives the merge, shifted by the tenant's delay.
            let finish_t = counters[i].finish.max(counters[i].delta + ideal_t);
            let mut subschedule = subs[i].clone();
            subschedule.set_duration(finish_t);
            schedule.set_duration(finish_t);
            tenants.push(TenantReport {
                name: spec.name.clone(),
                priority: spec.priority,
                deadline: spec.deadline,
                subschedule,
                queue_delay: counters[i].queue_delay,
                page_faults: counters[i].page_faults,
                evictions: counters[i].evictions,
                deadline_misses: counters[i].deadline_misses,
                refresh_skips: counters[i].refresh_skips,
                page_ins: counters[i].page_ins,
                page_outs: counters[i].page_outs,
                instructions: counters[i].instructions,
                finish_t,
                ideal_t,
            });
        }
        debug_assert!(schedule.validate().is_ok(), "merged schedule is invalid");
        Ok(MultiProgram { schedule, tenants })
    }
}

/// Residency and accounting state of one global qubit.
#[derive(Clone, Copy, Debug)]
struct QubitState {
    tenant: usize,
    /// Home stack (follows `Move`s; stacks are never remapped).
    stack: StackCoord,
    /// Physical mode when resident.
    mode: Option<u8>,
    last_ec: u64,
    last_use: u64,
    paged_in_at: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    queue_delay: u64,
    page_faults: u64,
    evictions: u64,
    deadline_misses: u64,
    refresh_skips: u64,
    page_ins: u64,
    page_outs: u64,
    instructions: u64,
    finish: u64,
    delta: u64,
}

struct Merge<'a> {
    config: MachineConfig,
    k: u64,
    policy: &'a dyn ReplacementPolicy,
    specs: &'a [TenantSpec],
    merged: Schedule,
    subs: Vec<Schedule>,
    counters: Vec<Counters>,
    qubits: BTreeMap<LogicalId, QubitState>,
    /// Physical occupancy per stack: mode → resident global qubit.
    occ: BTreeMap<StackCoord, BTreeMap<u8, LogicalId>>,
    /// Per-stack transmon-layer busy horizon (end of the last
    /// timeline-spanning instruction touching the stack).
    busy: BTreeMap<StackCoord, u64>,
    /// Global monotone start-time floor.
    last_t: u64,
}

fn global_id(tenant: usize, local: LogicalId) -> LogicalId {
    LogicalId(((tenant as u32) << TENANT_ID_BITS) | local.0)
}

impl<'a> Merge<'a> {
    fn new(
        config: MachineConfig,
        policy: &'a dyn ReplacementPolicy,
        specs: &'a [TenantSpec],
    ) -> Self {
        Merge {
            config,
            k: config.k as u64,
            policy,
            specs,
            merged: Schedule::new(config),
            subs: specs.iter().map(|_| Schedule::new(config)).collect(),
            counters: vec![Counters::default(); specs.len()],
            qubits: BTreeMap::new(),
            occ: BTreeMap::new(),
            busy: BTreeMap::new(),
            last_t: 0,
        }
    }

    fn run(&mut self) -> Result<(), TenantError> {
        let n = self.specs.len();
        let mut cursors = vec![0usize; n];
        loop {
            // The tenant whose next instruction is ready earliest runs;
            // ties go to the lowest admission index.
            let next = (0..n)
                .filter(|&i| cursors[i] < self.specs[i].program.schedule.len())
                .min_by_key(|&i| {
                    let instr = &self.specs[i].program.schedule.instrs()[cursors[i]];
                    (instr.t() + self.counters[i].delta, i)
                });
            let Some(ti) = next else { break };
            let instr = self.specs[ti].program.schedule.instrs()[cursors[ti]].clone();
            cursors[ti] += 1;
            self.step(ti, &instr)?;
        }
        Ok(())
    }

    /// Merges one tenant instruction: waits, faults, rewrites, emits.
    fn step(&mut self, ti: usize, instr: &Instr) -> Result<(), TenantError> {
        let local_t = instr.t();
        let ready = local_t + self.counters[ti].delta;
        let span = instr.span();
        let g = |q: LogicalId| global_id(ti, q);

        // Stacks this instruction occupies or allocates in; the start
        // time waits past their busy horizons so no in-flight qubit is
        // ever touched or evicted.
        let mut touched: Vec<StackCoord> = Vec::with_capacity(2);
        match *instr {
            Instr::PageIn { addr, .. } => touched.push(addr.stack),
            Instr::PageOut { .. } | Instr::RefreshRound { .. } | Instr::Correction { .. } => {}
            Instr::TransversalCnot { stack, .. } => touched.push(stack),
            Instr::LatticeSurgeryCnot {
                control_stack,
                target_stack,
                ..
            } => {
                touched.push(control_stack);
                touched.push(target_stack);
            }
            Instr::Move { from, to, .. } => {
                touched.push(from);
                touched.push(to);
            }
            Instr::SurgeryMerge { a, b, .. } | Instr::SurgerySplit { a, b, .. } => {
                touched.push(self.home_stack(g(a)));
                touched.push(self.home_stack(g(b)));
            }
            Instr::Logical1Q { qubit, .. }
            | Instr::ConsumeMagic { qubit, .. }
            | Instr::MeasureLogical { qubit, .. } => touched.push(self.home_stack(g(qubit))),
        }
        let mut start = ready.max(self.last_t);
        for st in &touched {
            start = start.max(self.busy.get(st).copied().unwrap_or(0));
        }

        match *instr {
            Instr::PageIn { qubit, addr, .. } => {
                let gq = g(qubit);
                self.qubits.insert(
                    gq,
                    QubitState {
                        tenant: ti,
                        stack: addr.stack,
                        mode: None,
                        last_ec: start,
                        last_use: start,
                        paged_in_at: start,
                    },
                );
                let mode = self.alloc_mode(addr.stack, start, &[gq])?;
                self.place(gq, addr.stack, mode, start);
                self.emit(
                    ti,
                    Instr::PageIn {
                        qubit: gq,
                        addr: VirtAddr::new(addr.stack, ModeIndex(mode)),
                        t: start,
                    },
                );
                self.counters[ti].page_ins += 1;
                self.counters[ti].instructions += 1;
            }
            Instr::PageOut { qubit, .. } => {
                let gq = g(qubit);
                let state = self.qubits.remove(&gq).expect("validated schedule");
                if let Some(mode) = state.mode {
                    self.occ.entry(state.stack).or_default().remove(&mode);
                    self.emit(
                        ti,
                        Instr::PageOut {
                            qubit: gq,
                            addr: VirtAddr::new(state.stack, ModeIndex(mode)),
                            t: start,
                        },
                    );
                    self.counters[ti].page_outs += 1;
                    self.counters[ti].instructions += 1;
                }
                // Already evicted: its PageOut was emitted at eviction
                // time; the teardown instruction is dropped.
            }
            Instr::RefreshRound {
                stack,
                qubit,
                rounds,
                ..
            } => {
                let gq = g(qubit);
                if self.resident(gq) {
                    self.check_deadline(gq, start);
                    self.qubits.get_mut(&gq).expect("resident").last_ec = start;
                    self.emit(
                        ti,
                        Instr::RefreshRound {
                            stack,
                            qubit: gq,
                            rounds,
                            t: start,
                        },
                    );
                    self.counters[ti].instructions += 1;
                } else {
                    // Can't refresh a swapped-out qubit; its EC clock
                    // keeps running, so a skipped pass past the k-cycle
                    // deadline is itself a miss (the paper's §III-A hard
                    // requirement going unmet while the page is out).
                    self.check_deadline(gq, start);
                    self.counters[ti].refresh_skips += 1;
                }
            }
            Instr::Correction { qubit, .. } => {
                let gq = g(qubit);
                if self.resident(gq) {
                    self.check_deadline(gq, start);
                    self.qubits.get_mut(&gq).expect("resident").last_ec = start;
                    self.emit(
                        ti,
                        Instr::Correction {
                            qubit: gq,
                            t: start,
                        },
                    );
                    self.counters[ti].instructions += 1;
                } else {
                    self.check_deadline(gq, start);
                    self.counters[ti].refresh_skips += 1;
                }
            }
            Instr::Logical1Q { qubit, gate, .. } => {
                let gq = g(qubit);
                self.fault_in(ti, gq, start, &[gq])?;
                self.use_at(gq, start);
                self.emit(
                    ti,
                    Instr::Logical1Q {
                        qubit: gq,
                        gate,
                        t: start,
                    },
                );
                self.counters[ti].instructions += 1;
            }
            Instr::TransversalCnot {
                control,
                target,
                stack,
                ..
            } => {
                let (gc, gt) = (g(control), g(target));
                self.fault_in(ti, gc, start, &[gc, gt])?;
                self.fault_in(ti, gt, start, &[gc, gt])?;
                self.use_at(gc, start);
                self.use_at(gt, start);
                self.emit(
                    ti,
                    Instr::TransversalCnot {
                        control: gc,
                        target: gt,
                        stack,
                        t: start,
                    },
                );
                self.counters[ti].instructions += 1;
            }
            Instr::LatticeSurgeryCnot {
                control,
                target,
                control_stack,
                target_stack,
                ..
            } => {
                let (gc, gt) = (g(control), g(target));
                self.fault_in(ti, gc, start, &[gc, gt])?;
                self.fault_in(ti, gt, start, &[gc, gt])?;
                self.use_at(gc, start);
                self.use_at(gt, start);
                self.emit(
                    ti,
                    Instr::LatticeSurgeryCnot {
                        control: gc,
                        target: gt,
                        control_stack,
                        target_stack,
                        t: start,
                    },
                );
                self.counters[ti].instructions += 1;
            }
            Instr::SurgeryMerge { a, b, .. } | Instr::SurgerySplit { a, b, .. } => {
                let (ga, gb) = (g(a), g(b));
                self.fault_in(ti, ga, start, &[ga, gb])?;
                self.fault_in(ti, gb, start, &[ga, gb])?;
                self.use_at(ga, start);
                self.use_at(gb, start);
                let rewritten = match instr {
                    Instr::SurgeryMerge { .. } => Instr::SurgeryMerge {
                        a: ga,
                        b: gb,
                        t: start,
                    },
                    _ => Instr::SurgerySplit {
                        a: ga,
                        b: gb,
                        t: start,
                    },
                };
                self.emit(ti, rewritten);
                self.counters[ti].instructions += 1;
            }
            Instr::Move {
                qubit, from, to, ..
            } => {
                let gq = g(qubit);
                self.fault_in(ti, gq, start, &[gq])?;
                let old = self.qubits[&gq];
                let mode = self.alloc_mode(to, start, &[gq])?;
                self.occ
                    .entry(old.stack)
                    .or_default()
                    .remove(&old.mode.expect("faulted in above"));
                self.check_deadline(gq, start);
                {
                    let state = self.qubits.get_mut(&gq).expect("faulted in above");
                    state.stack = to;
                    state.mode = Some(mode);
                    state.last_ec = start; // a move is an EC touch
                    state.last_use = start;
                    state.paged_in_at = start;
                }
                self.occ.entry(to).or_default().insert(mode, gq);
                self.emit(
                    ti,
                    Instr::Move {
                        qubit: gq,
                        from,
                        to,
                        to_addr: VirtAddr::new(to, ModeIndex(mode)),
                        t: start,
                    },
                );
                self.counters[ti].instructions += 1;
            }
            Instr::ConsumeMagic { qubit, .. } => {
                let gq = g(qubit);
                self.fault_in(ti, gq, start, &[gq])?;
                self.use_at(gq, start);
                self.emit(
                    ti,
                    Instr::ConsumeMagic {
                        qubit: gq,
                        t: start,
                    },
                );
                self.counters[ti].instructions += 1;
            }
            Instr::MeasureLogical { qubit, .. } => {
                let gq = g(qubit);
                self.fault_in(ti, gq, start, &[gq])?;
                self.check_deadline(gq, start);
                self.use_at(gq, start);
                let state = self.qubits[&gq];
                self.emit(
                    ti,
                    Instr::MeasureLogical {
                        qubit: gq,
                        addr: VirtAddr::new(
                            state.stack,
                            ModeIndex(state.mode.expect("faulted in")),
                        ),
                        t: start,
                    },
                );
                self.counters[ti].instructions += 1;
            }
        }

        self.counters[ti].queue_delay += start - ready;
        self.counters[ti].delta = start - local_t;
        self.counters[ti].finish = self.counters[ti].finish.max(start + span);
        self.last_t = start;
        if span > 0 {
            for st in touched {
                self.busy.insert(st, start + span);
            }
        }
        Ok(())
    }

    fn home_stack(&self, gq: LogicalId) -> StackCoord {
        self.qubits
            .get(&gq)
            .expect("operand paged in by its tenant's validated schedule")
            .stack
    }

    fn resident(&self, gq: LogicalId) -> bool {
        self.qubits.get(&gq).is_some_and(|s| s.mode.is_some())
    }

    fn use_at(&mut self, gq: LogicalId, t: u64) {
        self.qubits.get_mut(&gq).expect("resident operand").last_use = t;
    }

    /// Charges a deadline miss when an EC touch finds the qubit past
    /// the `k`-cycle refresh deadline (swap-out time included — the
    /// injected re-fault `PageIn` deliberately does *not* reset
    /// `last_ec`).
    fn check_deadline(&mut self, gq: LogicalId, t: u64) {
        let state = self.qubits[&gq];
        if t.saturating_sub(state.last_ec) > self.k {
            self.counters[state.tenant].deadline_misses += 1;
        }
    }

    /// Pages a swapped-out qubit back into its home stack.
    fn fault_in(
        &mut self,
        ti: usize,
        gq: LogicalId,
        t: u64,
        pinned: &[LogicalId],
    ) -> Result<(), TenantError> {
        if self.resident(gq) {
            return Ok(());
        }
        let stack = self.home_stack(gq);
        let mode = self.alloc_mode(stack, t, pinned)?;
        self.place(gq, stack, mode, t);
        self.emit(
            ti,
            Instr::PageIn {
                qubit: gq,
                addr: VirtAddr::new(stack, ModeIndex(mode)),
                t,
            },
        );
        self.counters[ti].page_faults += 1;
        self.counters[ti].page_ins += 1;
        Ok(())
    }

    fn place(&mut self, gq: LogicalId, stack: StackCoord, mode: u8, t: u64) {
        self.occ.entry(stack).or_default().insert(mode, gq);
        let state = self.qubits.get_mut(&gq).expect("known qubit");
        state.mode = Some(mode);
        state.paged_in_at = t;
    }

    /// The lowest free physical mode in `stack`, evicting one resident
    /// page per the policy when the stack is at its `k - 1` limit.
    fn alloc_mode(
        &mut self,
        stack: StackCoord,
        t: u64,
        pinned: &[LogicalId],
    ) -> Result<u8, TenantError> {
        let limit = self.config.k - 1; // one mode stays free (§III-D)
        if self.occ.entry(stack).or_default().len() >= limit {
            self.evict_one(stack, t, pinned)?;
        }
        let occ = &self.occ[&stack];
        let mode = (0..self.config.k as u8)
            .find(|m| !occ.contains_key(m))
            .expect("eviction freed a mode");
        Ok(mode)
    }

    fn evict_one(
        &mut self,
        stack: StackCoord,
        t: u64,
        pinned: &[LogicalId],
    ) -> Result<(), TenantError> {
        let pages: Vec<PageView> = self.occ[&stack]
            .iter()
            .filter(|(_, q)| !pinned.contains(q))
            .map(|(&mode, &q)| {
                let s = &self.qubits[&q];
                PageView {
                    tenant: s.tenant,
                    tenant_priority: self.specs[s.tenant].priority,
                    tenant_deadline: self.specs[s.tenant].deadline,
                    qubit: q,
                    stack,
                    mode,
                    paged_in_at: s.paged_in_at,
                    last_use: s.last_use,
                    last_ec: s.last_ec,
                    now: t,
                }
            })
            .collect();
        if pages.is_empty() {
            return Err(TenantError::StackOvercommitted { stack, t });
        }
        let v = self.policy.victim(&pages);
        assert!(v < pages.len(), "policy returned out-of-range victim index");
        let victim = pages[v];
        self.occ.entry(stack).or_default().remove(&victim.mode);
        self.qubits
            .get_mut(&victim.qubit)
            .expect("resident victim")
            .mode = None;
        self.emit(
            victim.tenant,
            Instr::PageOut {
                qubit: victim.qubit,
                addr: VirtAddr::new(stack, ModeIndex(victim.mode)),
                t,
            },
        );
        self.counters[victim.tenant].evictions += 1;
        self.counters[victim.tenant].page_outs += 1;
        Ok(())
    }

    /// Appends to the merged schedule and the owning tenant's
    /// sub-schedule.
    fn emit(&mut self, tenant: usize, instr: Instr) {
        self.subs[tenant].push(instr.clone());
        self.merged.push(instr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use vlq::program::{compile, LogicalCircuit};

    fn demo_config() -> MachineConfig {
        MachineConfig::compact_demo()
    }

    fn ghz_tenant(config: MachineConfig, name: &str) -> TenantSpec {
        TenantSpec::new(name, compile(&LogicalCircuit::ghz(3), config).unwrap())
    }

    #[test]
    fn admission_rejects_config_mismatch() {
        let config = demo_config();
        let mut other = config;
        other.k = 5;
        let mut sched = TenantScheduler::new(config, PolicyKind::RefreshDeadline.build());
        let program = compile(&LogicalCircuit::ghz(2), other).unwrap();
        assert_eq!(
            sched.admit(TenantSpec::new("bad", program)),
            Err(TenantError::ConfigMismatch { tenant: 0 })
        );
    }

    #[test]
    fn run_without_tenants_errors() {
        let sched = TenantScheduler::new(demo_config(), PolicyKind::Lru.build());
        assert_eq!(sched.run().unwrap_err(), TenantError::NoTenants);
    }

    #[test]
    fn single_tenant_merge_is_identity() {
        // N=1 must reproduce today's solo VlqMachine output bit for bit
        // under *every* policy: no contention, no waits, no evictions.
        let config = demo_config();
        for kind in PolicyKind::ALL {
            for circuit in [
                LogicalCircuit::ghz(5),
                LogicalCircuit::teleport(),
                LogicalCircuit::adder(2),
            ] {
                let solo = compile(&circuit, config).unwrap();
                let mut sched = TenantScheduler::new(config, kind.build());
                sched.admit(TenantSpec::new("only", solo.clone())).unwrap();
                let multi = sched.run().unwrap();
                assert_eq!(
                    multi.schedule.instrs(),
                    solo.schedule.instrs(),
                    "{kind} changed the solo instruction stream"
                );
                assert_eq!(multi.schedule.duration(), solo.schedule.duration());
                let report = &multi.tenants[0];
                assert_eq!(report.queue_delay, 0);
                assert_eq!(report.page_faults, 0);
                assert_eq!(report.evictions, 0);
                assert_eq!(report.refresh_skips, 0);
                assert_eq!(report.slowdown_permille(), 1000);
                assert_eq!(report.subschedule.instrs(), solo.schedule.instrs());
            }
        }
    }

    #[test]
    fn two_tenants_merge_and_validate() {
        let config = demo_config();
        let mut sched = TenantScheduler::new(config, PolicyKind::RefreshDeadline.build());
        sched.admit(ghz_tenant(config, "alice")).unwrap();
        sched.admit(ghz_tenant(config, "bob")).unwrap();
        let multi = sched.run().unwrap();
        multi.schedule.validate().unwrap();
        for report in &multi.tenants {
            report.subschedule.validate().unwrap();
            assert!(report.instructions > 0);
            assert!(report.finish_t >= report.ideal_t);
        }
        // Disjoint id spaces: tenant 1's qubits carry the tenant tag.
        let mut saw_tagged = false;
        for instr in multi.schedule.instrs() {
            instr.for_each_qubit(|q| saw_tagged |= q.0 >= MAX_TENANT_QUBITS);
        }
        assert!(saw_tagged);
    }

    #[test]
    fn merge_is_deterministic() {
        let config = demo_config();
        let build = || {
            let mut sched = TenantScheduler::new(config, PolicyKind::Lru.build());
            for name in ["a", "b", "c"] {
                sched.admit(ghz_tenant(config, name)).unwrap();
            }
            sched.run().unwrap()
        };
        let (x, y) = (build(), build());
        assert_eq!(x.schedule.instrs(), y.schedule.instrs());
        for (tx, ty) in x.tenants.iter().zip(&y.tenants) {
            assert_eq!(tx.subschedule.instrs(), ty.subschedule.instrs());
            assert_eq!(tx.queue_delay, ty.queue_delay);
            assert_eq!(tx.deadline_misses, ty.deadline_misses);
        }
    }

    #[test]
    fn contention_thrashes_and_charges_faults() {
        // Three 3-qubit tenants on one capacity-3 stack: 9 live qubits
        // fight for 3 modes, so the merge must page continuously.
        let mut config = demo_config();
        config.stacks_x = 1;
        config.stacks_y = 1;
        config.k = 4;
        let mut sched = TenantScheduler::new(config, PolicyKind::Lru.build());
        for name in ["a", "b", "c"] {
            sched.admit(ghz_tenant(config, name)).unwrap();
        }
        let multi = sched.run().unwrap();
        multi.schedule.validate().unwrap();
        let faults: u64 = multi.tenants.iter().map(|t| t.page_faults).sum();
        let evictions: u64 = multi.tenants.iter().map(|t| t.evictions).sum();
        assert!(faults > 0, "expected page thrash");
        assert!(evictions >= faults, "every fault re-fills an evicted slot");
        assert!(multi.fairness_permille() <= 1000);
    }

    #[test]
    fn tenant_error_display_and_source() {
        use std::error::Error;
        let err = TenantError::InvalidSchedule {
            tenant: 2,
            source: MachineError::OutOfCapacity,
        };
        assert!(err.to_string().contains("#2"));
        assert!(err.source().is_some());
        assert!(TenantError::NoTenants.source().is_none());
    }
}
