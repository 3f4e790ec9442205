//! Multi-tenant sweeps on the `vlq-sweep` work-stealing engine.
//!
//! Tenant grids ride the existing program-sweep machinery: a sweep
//! point's `program` string of the form `tenants<N>@<policy>` (e.g.
//! `tenants3@lru`) names a standard N-tenant workload mix merged under
//! one replacement policy. Because the program string is already part
//! of the point fingerprint and per-point seed identity, `--resume`,
//! `--shard`, and `sweep-merge` work on tenant sweeps for free.

use vlq::exec::{config_for_setup, FramePrepared};
use vlq::machine::MachineConfig;
use vlq::program::{compile, LogicalCircuit};
use vlq::qec::Parallelism;
use vlq::surface::schedule::Boundary;
use vlq::sweep::{SweepExecutor, SweepPoint};
use vlq_telemetry::Recorder;

use crate::policy::PolicyKind;
use crate::scheduler::{MultiProgram, TenantError, TenantScheduler, TenantSpec};

/// Parses a `tenants<N>@<policy>` program name into its tenant count
/// and policy (`None` for anything else, including `N = 0`).
pub fn parse_tenant_program(name: &str) -> Option<(usize, PolicyKind)> {
    let rest = name.strip_prefix("tenants")?;
    let (count, policy) = rest.split_once('@')?;
    let count: usize = count.parse().ok()?;
    (count > 0).then_some(())?;
    Some((count, PolicyKind::parse(policy)?))
}

/// Renders the `tenants<N>@<policy>` program name for a grid cell (the
/// inverse of [`parse_tenant_program`]).
pub fn tenant_program_name(tenants: usize, policy: PolicyKind) -> String {
    format!("tenants{tenants}@{policy}")
}

/// The machine shape a tenant sweep point merges onto: two stacks
/// (contention over a small shared surface is the point), `d`/`k` from
/// the grid, the setup picking embedding + refresh policy.
///
/// # Panics
///
/// Panics when `point.k < 3`: the standard workload mix needs at least
/// two storage modes per stack to solo-compile (`k = 2` leaves a
/// single storage mode, which cannot hold a 3-qubit program on two
/// stacks).
pub fn machine_config_for_tenants(point: &SweepPoint) -> MachineConfig {
    let (embedding, refresh) = config_for_setup(point.setup);
    assert!(
        point.k >= 3,
        "tenant sweep points need k >= 3 (two storage + one free mode per stack); got k = {}",
        point.k
    );
    MachineConfig {
        stacks_x: 1,
        stacks_y: 2,
        k: point.k,
        d: point.d,
        embedding,
        refresh,
        prefer_transversal: true,
        hw: vlq::arch::params::HardwareParams::with_memory(),
    }
}

/// The standard N-tenant workload mix: slots cycle through GHZ-3,
/// teleportation, and a 1-bit adder (each three qubits, so every tenant
/// solo-fits the two-stack machine). Slot 0 is the latency-sensitive
/// tenant: priority 1 with a deadline of twice its solo duration;
/// everyone else is best-effort.
///
/// # Errors
///
/// Propagates solo-compilation failures (machine too small for the
/// workloads).
pub fn standard_mix(
    tenants: usize,
    config: MachineConfig,
) -> Result<Vec<TenantSpec>, vlq::machine::MachineError> {
    let workloads = [
        LogicalCircuit::ghz(3),
        LogicalCircuit::teleport(),
        LogicalCircuit::adder(1),
    ];
    (0..tenants)
        .map(|i| {
            let program = compile(&workloads[i % workloads.len()], config)?;
            let mut spec = TenantSpec::new(format!("t{i}"), program);
            if i == 0 {
                let ideal = spec.program.schedule.duration();
                spec = spec.with_priority(1).with_deadline(ideal * 2);
            }
            Ok(spec)
        })
        .collect()
}

/// Merges the standard mix for one grid cell.
///
/// # Errors
///
/// Propagates admission and merge errors.
pub fn merge_standard_mix(
    tenants: usize,
    policy: PolicyKind,
    config: MachineConfig,
) -> Result<MultiProgram, TenantError> {
    let mut sched = TenantScheduler::new(config, policy.build());
    let specs = standard_mix(tenants, config).map_err(|source| TenantError::InvalidSchedule {
        tenant: usize::MAX,
        source,
    })?;
    for spec in specs {
        sched.admit(spec)?;
    }
    sched.run()
}

/// [`SweepExecutor`] frame-replaying merged multi-tenant schedules:
/// `prepare` parses the point's `tenants<N>@<policy>` name, merges the
/// standard mix, and builds the block experiments once; chunks replay
/// seeded shots of the *merged* program.
///
/// # Panics
///
/// `prepare` panics on a missing or malformed program name and on
/// merge failures — tenant specs are validated at binary construction,
/// mirroring `ProgramSweepExecutor`'s unknown-program contract.
#[derive(Clone, Debug)]
pub struct TenantSweepExecutor {
    /// Block boundary every exposure is sampled under.
    pub boundary: Boundary,
}

impl Default for TenantSweepExecutor {
    fn default() -> Self {
        Self::new(Boundary::MidCircuit)
    }
}

impl TenantSweepExecutor {
    /// An executor sampling under `boundary`.
    pub fn new(boundary: Boundary) -> Self {
        TenantSweepExecutor { boundary }
    }
}

impl SweepExecutor for TenantSweepExecutor {
    type Prepared = FramePrepared;

    fn prepare(&self, point: &SweepPoint) -> FramePrepared {
        let name = point
            .program
            .as_deref()
            .expect("tenant sweep point without a program name");
        let (tenants, policy) = parse_tenant_program(name)
            .unwrap_or_else(|| panic!("sweep point names malformed tenant program {name:?}"));
        let config = machine_config_for_tenants(point);
        let multi = merge_standard_mix(tenants, policy, config)
            .unwrap_or_else(|e| panic!("tenant mix failed to merge: {e}"));
        FramePrepared::new(multi.schedule, point.p, point.decoder, self.boundary)
    }

    fn run_chunk(
        &self,
        prepared: &FramePrepared,
        _point: &SweepPoint,
        shots: u64,
        seed: u64,
    ) -> u64 {
        prepared.run(shots, seed, &Parallelism::serial(), &Recorder::disabled())
    }

    fn run_chunk_recorded(
        &self,
        prepared: &FramePrepared,
        _point: &SweepPoint,
        shots: u64,
        seed: u64,
        recorder: &Recorder,
    ) -> u64 {
        prepared.run(shots, seed, &Parallelism::serial(), recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_program_names_round_trip() {
        for n in [1, 2, 5] {
            for policy in PolicyKind::ALL {
                let name = tenant_program_name(n, policy);
                assert_eq!(parse_tenant_program(&name), Some((n, policy)));
            }
        }
        for bad in [
            "tenants0@lru",
            "tenants@lru",
            "tenants2@fifo",
            "ghz4",
            "tenants2",
        ] {
            assert_eq!(parse_tenant_program(bad), None, "{bad}");
        }
    }

    #[test]
    fn standard_mix_solo_fits_the_two_stack_machine() {
        let point = SweepPoint {
            setup: vlq::surface::schedule::Setup::CompactInterleaved,
            basis: vlq::surface::schedule::Basis::Z,
            d: 3,
            p: 1e-3,
            k: 3,
            rounds: None,
            decoder: vlq::decoder::DecoderKind::UnionFind,
            shots: 10,
            knob: None,
            program: Some("tenants3@lru".into()),
        };
        let config = machine_config_for_tenants(&point);
        let specs = standard_mix(3, config).unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].priority, 1);
        assert!(specs[0].deadline.is_some());
        assert_eq!(specs[1].priority, 0);
        let multi = merge_standard_mix(3, PolicyKind::Lru, config).unwrap();
        multi.schedule.validate().unwrap();
    }
}
