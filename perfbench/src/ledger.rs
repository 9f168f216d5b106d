//! The scenario ledger: re-executes a sample of scenarios through their
//! public pieces (`GeneratorSpec::build` → stack or fleet construction →
//! `Sim::run` over a materialized cursor or a replay drive → snapshot →
//! `OutcomeStore::record`) next to `Scenario::run` and
//! `Scenario::run_unchecked` on the same scenario, so the layers' times
//! can be added up against the whole.

use st_agreement::{AgreementStack, LeanConsensus, LeanConsensusMachine};
use st_campaign::{FleetReplayDrive, OutcomeStore, Scenario, ScenarioOutcome, StopRule, Workload};
use st_core::timeliness::TimelinessAnalyzer;
use st_core::{AgreementTask, ScheduleCursor, StepSource, Universe};
use st_fd::convergence::wide_winnerset_stabilization;
use st_fd::{KAntiOmega, KAntiOmegaConfig, LeanOmega, LeanOmegaMachine, TimeoutPolicy};
use st_sim::{RunConfig, Sim, StopWhen};

use crate::stats::median;
use crate::trace::Tracer;
use crate::util::{steps, Metrics};

/// Which drive bucket a scenario's drive time belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Paper-shape agreement over a materialized cursor.
    Paper,
    /// Lean fleet at size `n` on the plain (`soa == false`) or SoA drive.
    Lean { n: usize, soa: bool },
    /// The paper's detector fleet at size `n`.
    Wide { n: usize, soa: bool },
}

/// Median nanoseconds per piece of one scenario.
#[derive(Clone, Debug)]
pub struct Rec {
    pub kind: Kind,
    pub steps: u64,
    pub run: f64,
    pub unchecked: f64,
    pub certify: Option<f64>,
    pub gen_build: f64,
    /// Emitting the executed steps (a materialized schedule for replay
    /// drives, the decided prefix for agreement).
    pub emit: f64,
    pub stack_build: f64,
    pub drive: f64,
    pub snapshot: f64,
    pub record: f64,
}

impl Rec {
    /// The layers of `Scenario::run`: every piece plus the checker
    /// (`run − run_unchecked`). `OutcomeStore::record` is the campaign's,
    /// not the scenario's, and is left out.
    pub fn layers(&self) -> f64 {
        self.certify.unwrap_or(0.0)
            + self.gen_build
            + self.emit
            + self.stack_build
            + self.drive
            + self.snapshot
            + (self.run - self.unchecked)
    }
}

/// Per-rep piece times of one pipeline pass.
#[derive(Default)]
struct Pass {
    gen_build: f64,
    emit: f64,
    stack_build: f64,
    drive: f64,
    snapshot: f64,
}

fn ns(t: std::time::Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Re-executes `scenario` `reps` times through its pieces and its whole
/// runs; `None` for workloads the ledger does not decompose.
pub fn measure(tr: &mut Tracer, unit: u64, scenario: &Scenario, reps: usize) -> Option<Rec> {
    let kind = match &scenario.workload {
        Workload::Agreement { .. } => Kind::Paper,
        Workload::LeanAgreement { drive, .. } | Workload::LeanConvergence { drive, .. } => {
            Kind::Lean {
                n: scenario.universe.n(),
                soa: matches!(drive, FleetReplayDrive::Soa { .. }),
            }
        }
        Workload::WideFdConvergence { drive, .. } => Kind::Wide {
            n: scenario.universe.n(),
            soa: matches!(drive, FleetReplayDrive::Soa { .. }),
        },
        _ => return None,
    };
    let mut runs = Vec::new();
    let mut uncheckeds = Vec::new();
    let mut outcome: Option<ScenarioOutcome> = None;
    for _ in 0..reps {
        let (out, t) = tr.span("scenario.run", unit, |_| {
            let t = std::time::Instant::now();
            let out = scenario.run();
            (out, ns(t))
        });
        runs.push(t);
        outcome = Some(out);
        let t = tr.span("scenario.run_unchecked", unit, |_| {
            let t = std::time::Instant::now();
            std::hint::black_box(scenario.run_unchecked());
            ns(t)
        });
        uncheckeds.push(t);
    }
    let outcome = outcome?;
    let executed = steps(scenario, &outcome);
    tr.count("ledger.scenarios", 1);
    tr.count("ledger.steps", executed);
    let mut certify = Vec::new();
    let mut passes = Vec::new();
    let mut records = Vec::new();
    for _ in 0..reps {
        if let Workload::Agreement {
            certify: Some(c), ..
        } = &scenario.workload
        {
            let t = tr.span("analyzer.certify", unit, |_| {
                let t = std::time::Instant::now();
                let prefix = scenario
                    .generator
                    .build(scenario.universe, scenario.seed)
                    .take_schedule(c.prefix_len as usize);
                std::hint::black_box(
                    TimelinessAnalyzer::new(scenario.universe)
                        .find_timely_pair(&prefix, c.i, c.j, c.cap)
                        .is_some(),
                );
                ns(t)
            });
            certify.push(t);
        }
        passes.push(tr.span("ledger.pipeline", unit, |tr| {
            pipeline(tr, unit, scenario, executed)
        }));
        let t = tr.span("store.record", unit, |_| {
            let mut store = OutcomeStore::new();
            let t = std::time::Instant::now();
            store.record("ledger", scenario, &outcome);
            ns(t)
        });
        records.push(t);
    }
    let pick = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    Some(Rec {
        kind,
        steps: executed,
        run: median(&runs),
        unchecked: median(&uncheckeds),
        certify: (!certify.is_empty()).then(|| median(&certify)),
        gen_build: pick(|p| p.gen_build),
        emit: pick(|p| p.emit),
        stack_build: pick(|p| p.stack_build),
        drive: pick(|p| p.drive),
        snapshot: pick(|p| p.snapshot),
        record: median(&records),
    })
}

/// One pass through the pieces.
fn pipeline(tr: &mut Tracer, unit: u64, s: &Scenario, executed: u64) -> Pass {
    let mut pass = Pass::default();
    let u = s.universe;
    let mut src = timed(tr, "sched.build", unit, &mut pass.gen_build, || {
        s.generator.build(u, s.seed)
    });
    match &s.workload {
        Workload::Agreement {
            t,
            k,
            inputs,
            policy,
            ..
        } => {
            let schedule = timed(tr, "sched.emit", unit, &mut pass.emit, || {
                src.take_schedule(executed as usize)
            });
            let task = AgreementTask::new(*t, *k, u.n()).expect("grid tasks are valid");
            let mut stack = timed(tr, "stack.build", unit, &mut pass.stack_build, || {
                AgreementStack::build_full(task, inputs, *policy, false)
            });
            let mut cfg = RunConfig::steps(s.budget);
            if s.stop == StopRule::AllCorrectDecided {
                cfg = cfg.stop_when(StopWhen::AllDecided(s.correct()));
            }
            let mut cursor = ScheduleCursor::new(schedule);
            let status = timed(tr, "drive.run", unit, &mut pass.drive, || {
                stack.sim_mut().run(&mut cursor, cfg)
            })
            .expect("generated schedules stay in the universe");
            timed(tr, "stack.snapshot", unit, &mut pass.snapshot, || {
                std::hint::black_box(stack.snapshot(status, s.faulty));
            });
        }
        Workload::LeanAgreement { t, policy, drive } => {
            lean(tr, unit, s, &mut src, &mut pass, *t, *policy, *drive, true)
        }
        Workload::LeanConvergence { t, policy, drive } => {
            lean(tr, unit, s, &mut src, &mut pass, *t, *policy, *drive, false)
        }
        Workload::WideFdConvergence {
            k,
            t,
            policy,
            drive,
        } => match st_core::words_for(u.n()) {
            1 => wide::<1>(tr, unit, s, &mut src, &mut pass, *k, *t, *policy, *drive),
            2 => wide::<2>(tr, unit, s, &mut src, &mut pass, *k, *t, *policy, *drive),
            3..=4 => wide::<4>(tr, unit, s, &mut src, &mut pass, *k, *t, *policy, *drive),
            w => unreachable!("ledger fleets are at most 256 wide, got {w} words"),
        },
        _ => unreachable!("measure() filters workloads"),
    }
    pass
}

fn timed<R>(
    tr: &mut Tracer,
    name: &'static str,
    unit: u64,
    slot: &mut f64,
    f: impl FnOnce() -> R,
) -> R {
    tr.span(name, unit, |_| {
        let t = std::time::Instant::now();
        let r = f();
        *slot = ns(t);
        r
    })
}

#[allow(clippy::too_many_arguments)]
fn lean(
    tr: &mut Tracer,
    unit: u64,
    s: &Scenario,
    src: &mut Box<dyn StepSource>,
    pass: &mut Pass,
    t: usize,
    policy: TimeoutPolicy,
    drive: FleetReplayDrive,
    consensus: bool,
) {
    let u = s.universe;
    let schedule = timed(tr, "sched.materialize", unit, &mut pass.emit, || {
        src.take_schedule(s.budget as usize)
    });
    let cfg = RunConfig::steps(s.budget);
    let mut sim = Sim::new(u);
    if consensus {
        let mut fleet: Vec<LeanConsensusMachine> =
            timed(tr, "stack.build", unit, &mut pass.stack_build, || {
                let fd = LeanOmega::alloc(&mut sim, t, policy);
                let cons = LeanConsensus::alloc(&mut sim);
                u.processes()
                    .map(|p| cons.machine(&fd, 100 + p.index() as st_core::Value))
                    .collect()
            });
        timed(tr, "drive.run", unit, &mut pass.drive, || match drive {
            FleetReplayDrive::Plain => sim.run_automata_replay(&mut fleet, &schedule, cfg),
            FleetReplayDrive::Soa { slice_len } => {
                sim.run_automata_replay_soa(&mut fleet, &schedule, slice_len, cfg)
            }
        })
        .expect("generated schedules stay in the universe");
    } else {
        let mut fleet: Vec<LeanOmegaMachine> =
            timed(tr, "stack.build", unit, &mut pass.stack_build, || {
                let fd = LeanOmega::alloc(&mut sim, t, policy);
                u.processes().map(|_| fd.machine()).collect()
            });
        timed(tr, "drive.run", unit, &mut pass.drive, || match drive {
            FleetReplayDrive::Plain => sim.run_automata_replay(&mut fleet, &schedule, cfg),
            FleetReplayDrive::Soa { slice_len } => {
                sim.run_automata_replay_soa(&mut fleet, &schedule, slice_len, cfg)
            }
        })
        .expect("generated schedules stay in the universe");
    }
    timed(tr, "stack.snapshot", unit, &mut pass.snapshot, || {
        std::hint::black_box((sim.report(), sim.decisions()));
    });
}

#[allow(clippy::too_many_arguments)]
fn wide<const W: usize>(
    tr: &mut Tracer,
    unit: u64,
    s: &Scenario,
    src: &mut Box<dyn StepSource>,
    pass: &mut Pass,
    k: usize,
    t: usize,
    policy: TimeoutPolicy,
    drive: FleetReplayDrive,
) {
    let u: Universe = s.universe;
    let schedule = timed(tr, "sched.materialize", unit, &mut pass.emit, || {
        src.take_schedule(s.budget as usize)
    });
    let cfg = RunConfig::steps(s.budget);
    let mut sim = Sim::new(u);
    let mut fleet: Vec<_> = timed(tr, "stack.build", unit, &mut pass.stack_build, || {
        let fd =
            KAntiOmega::<W>::alloc_wide(&mut sim, KAntiOmegaConfig::new(k, t).with_policy(policy));
        u.processes().map(|_| fd.machine()).collect()
    });
    timed(tr, "drive.run", unit, &mut pass.drive, || match drive {
        FleetReplayDrive::Plain => sim.run_automata_replay(&mut fleet, &schedule, cfg),
        FleetReplayDrive::Soa { slice_len } => {
            sim.run_automata_replay_soa(&mut fleet, &schedule, slice_len, cfg)
        }
    })
    .expect("generated schedules stay in the universe");
    let faulty = s.faulty;
    timed(tr, "stack.snapshot", unit, &mut pass.snapshot, || {
        let report = sim.report();
        let correct = u
            .processes()
            .filter(|p| p.index() >= st_core::PROCSET_CAPACITY || !faulty.contains(*p));
        std::hint::black_box(wide_winnerset_stabilization(&report, correct));
    });
}

/// Tolerance on `scenario.unattributed_share`: the ledger's layers must
/// cover `Scenario::run` to within this share of its time.
pub const LEDGER_TOLERANCE: f64 = 0.15;

/// The per-layer metrics of the generator, stack, drive, analyzer and
/// scenario/checker layers, from the workload's own records `own` and,
/// for drive and analyzer buckets the workload lacks, from `extra`; the
/// names of those go to `borrowed`.
pub fn metrics(
    own: &[Rec],
    extra: &[Rec],
    certified_cells: u64,
    borrowed: &mut Vec<String>,
) -> Metrics {
    let mut m = Metrics::default();
    let sum = |recs: &[Rec], f: &dyn Fn(&Rec) -> f64| recs.iter().map(f).sum::<f64>();
    let n = own.len().max(1) as f64;
    let own_steps = sum(own, &|r| r.steps as f64).max(1.0);
    m.put("sched.build_us", sum(own, &|r| r.gen_build) / n / 1e3, "us");
    m.put(
        "sched.emit_ns_per_step",
        sum(own, &|r| r.emit) / own_steps,
        "ns",
    );
    m.put(
        "stack.build_us",
        sum(own, &|r| r.stack_build) / n / 1e3,
        "us",
    );
    m.put(
        "stack.snapshot_us",
        sum(own, &|r| r.snapshot) / n / 1e3,
        "us",
    );
    // A bucket the workload does not reach is taken from `extra` and
    // named in `borrowed`.
    let mut from = |name: String, unit, pick: &dyn Fn(&[Rec]) -> Option<f64>| {
        let value = pick(own).or_else(|| {
            let v = pick(extra);
            if v.is_some() {
                borrowed.push(name.clone());
            }
            v
        });
        m.put(name, value.unwrap_or(0.0), unit);
    };
    let drive = |want: Kind| {
        move |recs: &[Rec]| -> Option<f64> {
            let hit: Vec<&Rec> = recs.iter().filter(|r| r.kind == want).collect();
            let steps: f64 = hit.iter().map(|r| r.steps as f64).sum();
            (steps > 0.0).then(|| hit.iter().map(|r| r.drive).sum::<f64>() / steps)
        }
    };
    from("drive.ns_per_step".into(), "ns", &drive(Kind::Paper));
    for n in [256, 1024] {
        from(
            format!("drive.plain_ns_per_step.n{n}"),
            "ns",
            &drive(Kind::Lean { n, soa: false }),
        );
        from(
            format!("drive.soa_ns_per_step.n{n}"),
            "ns",
            &drive(Kind::Lean { n, soa: true }),
        );
    }
    from(
        "drive.wide_plain_ns_per_step.n256".into(),
        "ns",
        &drive(Kind::Wide { n: 256, soa: false }),
    );
    from(
        "drive.wide_soa_ns_per_step.n256".into(),
        "ns",
        &drive(Kind::Wide { n: 256, soa: true }),
    );
    from("sched.materialize_ms".into(), "ms", &|recs| {
        let hit: Vec<&Rec> = recs.iter().filter(|r| r.kind != Kind::Paper).collect();
        (!hit.is_empty()).then(|| hit.iter().map(|r| r.emit).sum::<f64>() / hit.len() as f64 / 1e6)
    });
    from("analyzer.certify_ms".into(), "ms", &|recs| {
        let hit: Vec<f64> = recs.iter().filter_map(|r| r.certify).collect();
        (!hit.is_empty()).then(|| hit.iter().sum::<f64>() / hit.len() as f64 / 1e6)
    });
    m.put("analyzer.certified_cells", certified_cells as f64, "count");
    let run = sum(own, &|r| r.run);
    let unchecked = sum(own, &|r| r.unchecked);
    m.put("scenario.ns_per_step", run / own_steps, "ns");
    m.put("checker.us_per_scenario", (run - unchecked) / n / 1e3, "us");
    m.put("checker.overhead_ratio", run / unchecked.max(1.0), "ratio");
    m.put(
        "scenario.unattributed_share",
        (run - sum(own, &|r| r.layers())) / run.max(1.0),
        "ratio",
    );
    m.put("store.record_us", sum(own, &|r| r.record) / n / 1e3, "us");
    m
}
