//! Generated inputs: the paper-scale scenario space, the E9-scale fleet
//! cells, and the seeded RNG every generated input is drawn from.

use st_campaign::{CertifyTimely, FleetReplayDrive, GeneratorSpec, Scenario, Workload};
use st_core::{ProcSet, ProcessId, Universe, Value};
use st_fd::TimeoutPolicy;
use st_sched::CrashPlan;

/// SplitMix64: the benchmark's only source of generated randomness, so a
/// seed fixes every input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// Step budget of a paper-grid agreement cell. Every cell decides long
/// before it (the checker owes termination on the conforming ones).
const AGREEMENT_BUDGET: u64 = 400_000;
/// Step budget of a paper-grid detector cell (convergence runs the whole
/// budget).
const WIDE_FD_BUDGET: u64 = 6_000;
/// Prefix swept by the timeliness analyzer on certified cells.
const CERTIFY_PREFIX: u64 = 4_000;

fn inputs(n: usize) -> Vec<Value> {
    (0..n as Value).map(|v| 1000 + 7 * v).collect()
}

fn first(count: usize) -> ProcSet {
    (0..count).map(ProcessId::new).collect()
}

/// `(k, t)` agreement tasks run at universe size `n`: consensus, 2-set
/// agreement, and the trivial regime `t < k`.
fn tasks(n: usize) -> Vec<(usize, usize)> {
    let mut out = vec![(1, 1), (2, 1)];
    if n >= 4 {
        out.push((2, 2));
    }
    if n >= 6 {
        out.push((3, n / 2 - 1));
    }
    out
}

/// One point of the paper-grid scenario space, before seeding.
#[derive(Clone, Debug)]
pub struct Cell {
    pub label: String,
    pub universe: Universe,
    pub generator: GeneratorSpec,
    pub workload: Workload,
    pub budget: u64,
}

impl Cell {
    pub fn scenario(&self, seed: u64) -> Scenario {
        Scenario::new(
            format!("{}/s{seed:x}", self.label),
            self.universe,
            self.generator.clone(),
            self.workload.clone(),
            self.budget,
            seed,
        )
    }
}

/// Every paper-scale cell: n ∈ 3..=8, agreement tasks over a conforming
/// `SetTimely` schedule (certified by the timeliness analyzer), the same
/// schedule with crashes, and under each fault decorator of the catalog
/// (flapping, gray failure, burst clog, crash-recovery); plus the paper's
/// detector (`WideFdConvergence`) at every size.
pub fn paper_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for n in 3..=8usize {
        let universe = Universe::new(n).expect("paper sizes are in range");
        let victim = ProcessId::new(n - 1);
        for (k, t) in tasks(n) {
            let p = first(k.min(t).max(1));
            let q = first(t + 1);
            let bound = 2 * (t + 1);
            let conforming =
                GeneratorSpec::set_timely(p, q, bound, GeneratorSpec::seeded_random(0));
            let agreement = |certify: Option<CertifyTimely>| Workload::Agreement {
                t,
                k,
                inputs: inputs(n),
                policy: TimeoutPolicy::Increment,
                certify,
            };
            let mut push = |name: &str, generator: GeneratorSpec, workload: Workload| {
                cells.push(Cell {
                    label: format!("n{n}/k{k}t{t}/{name}"),
                    universe,
                    generator,
                    workload,
                    budget: AGREEMENT_BUDGET,
                });
            };
            push(
                "certified",
                conforming.clone(),
                agreement(Some(CertifyTimely {
                    i: p.len(),
                    j: q.len(),
                    cap: bound,
                    prefix_len: CERTIFY_PREFIX,
                })),
            );
            let crash_count = t.min(n - k.max(1));
            let crashed = (n - crash_count..n)
                .map(ProcessId::new)
                .collect::<ProcSet>();
            if crash_count > 0 && p.is_disjoint(crashed) {
                let spec = GeneratorSpec::set_timely(p, q, bound, GeneratorSpec::seeded_random(9))
                    .crashed(CrashPlan::all_at(crashed, 2_000));
                push("crash", spec, agreement(None));
            }
            let flapping = GeneratorSpec::flapping(
                p,
                q,
                bound,
                GeneratorSpec::seeded_random(0),
                (60, 120),
                (20, 60),
            );
            push("flapping", flapping, agreement(None));
            let gray =
                GeneratorSpec::gray_failure(conforming.clone(), ProcSet::from_indices([n - 1]), 8);
            push("gray", gray, agreement(None));
            let clog = GeneratorSpec::burst_clog(conforming.clone(), victim, 40, (80, 160));
            push("clog", clog, agreement(None));
            let recovery = GeneratorSpec::crash_recovery(conforming.clone(), victim, 2_000, 6_000);
            push("crash-recovery", recovery, agreement(None));
        }
        let t = 1;
        cells.push(Cell {
            label: format!("n{n}/wide-fd"),
            universe,
            generator: GeneratorSpec::set_timely(
                first(1),
                first(t + 1),
                2 * (t + 1),
                GeneratorSpec::seeded_random(0),
            ),
            workload: Workload::WideFdConvergence {
                k: 1,
                t,
                policy: TimeoutPolicy::Increment,
                drive: FleetReplayDrive::Plain,
            },
            budget: WIDE_FD_BUDGET,
        });
    }
    cells
}

/// `count` scenarios drawn from the paper cells: cells in order, cycling,
/// each with a fresh seed from `rng`.
pub fn paper_scenarios(cells: &[Cell], count: usize, rng: &mut Rng) -> Vec<Scenario> {
    (0..count)
        .map(|i| cells[i % cells.len()].scenario(rng.next_u64() >> 16))
        .collect()
}

/// `count` scenarios drawn uniformly from the paper cells.
pub fn paper_sample(cells: &[Cell], count: usize, rng: &mut Rng) -> Vec<Scenario> {
    (0..count)
        .map(|_| {
            let cell = &cells[rng.below(cells.len() as u64) as usize];
            cell.scenario(rng.next_u64() >> 16)
        })
        .collect()
}

/// Slice length of the SoA drive (E9's).
pub const SOA_SLICE: usize = 64;

/// The longest bursty rotation a fleet cell runs. Past it (n = 1024, where
/// a rotation is ~10⁹ steps) the fleet runs round-robin only.
const MAX_ROTATION: u64 = 20_000_000;

/// The protocol a fleet cell runs.
#[derive(Clone, Copy)]
enum Fleet {
    LeanAgreement,
    LeanConvergence,
    /// The paper's detector (`KAntiOmega`, k = 1) on wide process sets.
    WideFd,
}

impl Fleet {
    fn name(self) -> &'static str {
        match self {
            Fleet::LeanAgreement => "lean-agreement",
            Fleet::LeanConvergence => "lean-convergence",
            Fleet::WideFd => "wide-fd",
        }
    }

    /// E9's dwell: one full FD iteration per turn (the n-heartbeat scan,
    /// the leader computation, and for the lean stack the consensus
    /// machine's decision-scan slack).
    fn burst(self, n: usize) -> u64 {
        match self {
            Fleet::WideFd => (n * n + n + 1) as u64,
            _ => (n * n + n + 2) as u64,
        }
    }

    fn workload(self, n: usize, drive: FleetReplayDrive) -> Workload {
        let (t, policy) = (n / 16, TimeoutPolicy::Increment);
        match self {
            Fleet::LeanAgreement => Workload::LeanAgreement { t, policy, drive },
            Fleet::LeanConvergence => Workload::LeanConvergence { t, policy, drive },
            Fleet::WideFd => Workload::WideFdConvergence {
                k: 1,
                t,
                policy,
                drive,
            },
        }
    }
}

/// The fleet cells, each on both replay drives:
///
/// - round-robin (SoA's strided path) with `rr_budget` steps: lean
///   consensus and lean convergence at n ∈ {256, 1024}, the paper's
///   detector at n ∈ {128, 256};
/// - with `bursty`, E9's bursty rotation (SoA's phase-batch path) for one
///   full rotation, so every process takes its dwell: the same cells at
///   every size where a rotation fits [`MAX_ROTATION`], plus lean
///   consensus at n = 64 on E9's six-rotation agreement budget, the one
///   fleet that decides (see [`deciding`]).
pub fn fleet_scenarios(rr_budget: u64, bursty: bool, seed: u64) -> Vec<Scenario> {
    let drives = [
        ("plain", FleetReplayDrive::Plain),
        (
            "soa",
            FleetReplayDrive::Soa {
                slice_len: SOA_SLICE,
            },
        ),
    ];
    let mut out = Vec::new();
    let mut push = |n: usize, fleet: Fleet, gen_name: &str, generator: GeneratorSpec, budget| {
        for (drive_name, drive) in drives {
            out.push(Scenario::new(
                format!("n{n}/{}/{gen_name}/{drive_name}", fleet.name()),
                Universe::new(n).expect("fleet sizes are in range"),
                generator.clone(),
                fleet.workload(n, drive),
                budget,
                seed,
            ));
        }
    };
    for (n, fleet) in [
        (256, Fleet::LeanAgreement),
        (256, Fleet::LeanConvergence),
        (1024, Fleet::LeanAgreement),
        (1024, Fleet::LeanConvergence),
        (128, Fleet::WideFd),
        (256, Fleet::WideFd),
    ] {
        let burst = fleet.burst(n);
        let rotation = burst * n as u64;
        if bursty && rotation <= MAX_ROTATION {
            push(n, fleet, "bursty", GeneratorSpec::bursty(burst), rotation);
        }
        push(
            n,
            fleet,
            "round-robin",
            GeneratorSpec::round_robin(),
            rr_budget,
        );
    }
    if bursty {
        let (n, fleet) = (DECIDING_N, Fleet::LeanAgreement);
        let burst = fleet.burst(n);
        push(
            n,
            fleet,
            "bursty",
            GeneratorSpec::bursty(burst),
            6 * burst * n as u64,
        );
    }
    out
}

/// Universe size of the fleet that decides within its budget.
const DECIDING_N: usize = 64;

/// Whether `scenario` is the fleet cell that must decide: lean consensus
/// at n = 64 over six bursty rotations, E9's expected-to-decide shape.
pub fn deciding(scenario: &Scenario) -> bool {
    scenario.universe.n() == DECIDING_N
        && matches!(scenario.workload, Workload::LeanAgreement { .. })
}
