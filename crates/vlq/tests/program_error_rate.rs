//! Program-level fidelity regressions for the `FrameExecutor` backend
//! and the program sweeps built on it.

use vlq::arch::geometry::Embedding;
use vlq::decoder::DecoderKind;
use vlq::exec::{memory_schedule, Executor, FrameExecutor, FramePrepared, ProgramSweepExecutor};
use vlq::isa::{Instr, Schedule};
use vlq::machine::{LogicalId, MachineConfig, RefreshPolicy};
use vlq::program::{compile, LogicalCircuit};
use vlq::qec::{run_memory_experiment, Boundary, ExperimentConfig};
use vlq::surface::schedule::{Basis, MemorySpec, Setup};
use vlq::sweep::{SweepEngine, SweepSpec};
use vlq_arch::address::{ModeIndex, StackCoord, VirtAddr};

fn natural_int_machine(d: usize) -> MachineConfig {
    let mut cfg = MachineConfig::compact_demo();
    cfg.embedding = Embedding::Natural;
    cfg.refresh = RefreshPolicy::Interleaved;
    cfg.k = 3;
    cfg.d = d;
    cfg
}

/// The acceptance regression: GHZ-4's program-level logical error rate
/// decreases monotonically with code distance at p = 1e-3 (seeded, so
/// the comparison is exact-reproducible).
#[test]
fn ghz4_error_rate_decreases_with_distance() {
    let mut rates = Vec::new();
    for d in [3usize, 5, 7] {
        let compiled =
            compile(&LogicalCircuit::ghz(4), natural_int_machine(d)).expect("ghz4 compiles");
        let report = FrameExecutor::at_scale(1e-3)
            .with_decoder(DecoderKind::Mwpm)
            .with_shots(1200)
            .with_seed(2020)
            .run(&compiled.schedule)
            .expect("valid schedule");
        rates.push((d, report.failures, report.logical_error_rate()));
    }
    for pair in rates.windows(2) {
        let ((d_lo, f_lo, r_lo), (d_hi, f_hi, r_hi)) = (pair[0], pair[1]);
        assert!(
            r_lo > r_hi,
            "rate(d={d_lo}) = {r_lo:.4e} ({f_lo} fails) !> rate(d={d_hi}) = {r_hi:.4e} ({f_hi} fails)"
        );
    }
}

/// The degenerate program (one idle qubit, one refresh pass, no
/// measurement) replayed under `Boundary::Full` samples the *same*
/// prepared memory-experiment blocks that `run_memory_experiment`
/// does: its failure rate must match the sum of the two guard sectors'
/// memory-experiment rates. The same schedule under the default
/// mid-circuit boundary strips the prep/readout boundary noise, so its
/// rate must come out strictly below that bridge value.
#[test]
fn single_block_schedule_matches_memory_experiment_rates() {
    let p = 2e-3;
    let shots = 30_000u64;
    let config = natural_int_machine(3);
    let rounds = 3usize;

    // Hand-built schedule: page in, one refresh block, end-of-program
    // state check (no measurement, so both sectors count).
    let mut schedule = Schedule::new(config);
    let q = LogicalId(0);
    let addr = VirtAddr::new(StackCoord::new(0, 0), ModeIndex(0));
    schedule.push(Instr::PageIn {
        qubit: q,
        addr,
        t: 0,
    });
    schedule.push(Instr::RefreshRound {
        stack: addr.stack,
        qubit: q,
        rounds,
        t: 1,
    });
    let frame = FrameExecutor::at_scale(p)
        .with_shots(shots)
        .with_boundary(Boundary::Full)
        .run(&schedule)
        .expect("valid schedule");

    // Reference: the memory experiment in each basis, same spec.
    let rate_of = |basis: Basis| {
        let mut spec = MemorySpec::standard(Setup::NaturalInterleaved, 3, 3, basis);
        spec.rounds = rounds;
        run_memory_experiment(
            &ExperimentConfig::new(spec, p)
                .with_shots(shots)
                .with_decoder(DecoderKind::UnionFind),
        )
        .logical_error_rate()
    };
    let expected = rate_of(Basis::Z) + rate_of(Basis::X);
    let got = frame.logical_error_rate();
    assert!(
        (got - expected).abs() < 0.35 * expected.max(1e-3),
        "frame replay {got:.4e} vs memory experiments {expected:.4e}"
    );

    // The boundary-light replay of the identical schedule counts only
    // the three rounds of steady-state exposure.
    let mid = FrameExecutor::at_scale(p)
        .with_shots(shots)
        .run(&schedule)
        .expect("valid schedule")
        .logical_error_rate();
    assert!(
        mid < got,
        "mid-circuit replay {mid:.4e} !< full-boundary replay {got:.4e}"
    );
}

/// `memory_schedule` really is the memory experiment as a program: the
/// machine pages one qubit in, refreshes it every cycle, and measures.
#[test]
fn memory_schedule_replays_noiselessly() {
    let schedule = memory_schedule(natural_int_machine(3), 15);
    let report = FrameExecutor::at_scale(0.0)
        .with_shots(128)
        .run(&schedule)
        .expect("valid schedule");
    assert_eq!(report.failures, 0);
}

/// Program points run on the work-stealing engine with the same
/// determinism contract as memory sweeps: identical records for any
/// worker count.
#[test]
fn program_sweep_runs_on_the_engine() {
    let spec = SweepSpec::new()
        .programs(["ghz3", "teleport"])
        .setups([Setup::NaturalInterleaved])
        .distances([3])
        .ks([3])
        .decoders([DecoderKind::UnionFind])
        .error_rates([3e-3])
        .shots(300)
        .base_seed(7);
    assert_eq!(spec.len(), 2);
    let serial = SweepEngine::serial()
        .run(&spec, &ProgramSweepExecutor::default(), &mut [])
        .expect("no sinks, no io errors");
    let parallel = SweepEngine::with_workers(4)
        .run(&spec, &ProgramSweepExecutor::default(), &mut [])
        .expect("no sinks, no io errors");
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 2);
    assert_eq!(serial[0].point.program.as_deref(), Some("ghz3"));
    assert_eq!(serial[1].point.program.as_deref(), Some("teleport"));
    for r in &serial {
        assert_eq!(r.shots, 300);
        assert!(r.rate() < 1.0);
    }
}

/// The program-sweep path shards like every other sweep: `--shard i/N`
/// semantics (global point numbering, per-point seeds) recompose the
/// full run exactly, for any per-shard worker count.
#[test]
fn program_sweep_shards_recompose_the_full_run() {
    let spec = SweepSpec::new()
        .programs(["ghz3", "teleport", "ghz4"])
        .setups([Setup::NaturalInterleaved])
        .distances([3])
        .ks([3])
        .decoders([DecoderKind::UnionFind])
        .error_rates([3e-3])
        .shots(200)
        .base_seed(7);
    let full = SweepEngine::with_workers(2)
        .run(&spec, &ProgramSweepExecutor::default(), &mut [])
        .expect("no sinks, no io errors");
    assert_eq!(full.len(), 3);
    for count in [2usize, 3] {
        let mut recomposed: Vec<Option<vlq_sweep::SweepRecord>> = vec![None; full.len()];
        for index in 0..count {
            let shard = vlq_sweep::ShardSpec::new(index, count).unwrap();
            let records = SweepEngine::with_workers(1 + index)
                .run_opts(
                    &spec,
                    &ProgramSweepExecutor::default(),
                    &mut [],
                    &vlq_sweep::ResumeCache::new(),
                    &vlq_sweep::RunOptions {
                        shard,
                        index_offset: 0,
                        plan: None,
                    },
                )
                .expect("no sinks, no io errors");
            for r in records {
                assert!(shard.owns(r.index));
                assert!(recomposed[r.index].replace(r).is_none());
            }
        }
        let recomposed: Vec<vlq_sweep::SweepRecord> =
            recomposed.into_iter().map(Option::unwrap).collect();
        assert_eq!(recomposed, full, "{count} program shards diverge");
    }
}

/// A chunked engine run and a direct prepared replay agree when the
/// chunk boundaries line up (chunk seeds come from the point, so one
/// whole-point chunk equals one direct call with that seed).
#[test]
fn chunk_seeding_is_schedule_independent() {
    let spec = SweepSpec::new()
        .programs(["ghz3"])
        .setups([Setup::NaturalInterleaved])
        .distances([3])
        .ks([3])
        .decoders([DecoderKind::UnionFind])
        .error_rates([5e-3])
        .shots(200)
        .base_seed(11);
    let records = SweepEngine::serial()
        .run(&spec, &ProgramSweepExecutor::default(), &mut [])
        .expect("no sinks");
    let pt = &records[0].point;
    let compiled = compile(
        &LogicalCircuit::ghz(3),
        vlq::exec::machine_config_for_point(pt, 3),
    )
    .expect("compiles");
    let prepared = FramePrepared::new(compiled.schedule, pt.p, pt.decoder, Boundary::MidCircuit);
    let direct = prepared.run(
        200,
        pt.chunk_seed(11, 0),
        &vlq::qec::Parallelism::serial(),
        &vlq_telemetry::Recorder::disabled(),
    );
    assert_eq!(records[0].failures, direct);
}
