//! The process-timeliness baseline detector — what the paper improves on.
//!
//! Prior partially synchronous models (the paper's Section 1 and related
//! work [3]) build failure detectors on the timeliness of *individual*
//! processes. This module implements that approach with exactly the
//! Figure 2 machinery, but specialized to singletons: per-process timers,
//! per-process accusation counters `Counter[q, p]`, and a winnerset formed
//! of the `k` *individually* least-accused processes.
//!
//! The comparison is the paper's motivation, made measurable (experiment
//! E8): on schedules where a set is timely but none of its members is
//! (e.g. [`AlternatingRotation`](../../st_sched/struct.AlternatingRotation.html)),
//! every singleton's accusation counter grows forever, so this baseline
//! flaps forever — while the set-based Figure 2 algorithm stabilizes.

use st_core::{ProcSet, ProcessId, Universe};
use st_sim::{NameRender, ProcessCtx, Reg, RegName, Sim};

use crate::timeout::TimeoutPolicy;

/// Probe key under which the baseline publishes its winnerset (as
/// `ProcSet::bits`) whenever it changes.
pub const BASELINE_WINNERSET_PROBE: &str = "pt-winnerset";

/// The per-process-timeliness detector: Figure 2 specialized to singleton
/// candidate sets, with the winnerset formed of the `k` least-accused
/// processes. Clone into every process.
#[derive(Clone, Debug)]
pub struct ProcessTimelyDetector {
    k: usize,
    t: usize,
    policy: TimeoutPolicy,
    universe: Universe,
    /// `Heartbeat[p]`, single-writer.
    heartbeat: Vec<Reg<u64>>,
    /// `Counter[q][p]`: `p`'s accusations of process `q`; written by `p`.
    counter: Vec<Vec<Reg<u64>>>,
}

impl ProcessTimelyDetector {
    /// Allocates the detector's registers.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ t ≤ n − 1`.
    pub fn alloc(sim: &mut Sim, k: usize, t: usize, policy: TimeoutPolicy) -> Self {
        let universe = sim.universe();
        let n = universe.n();
        assert!(
            k >= 1 && k <= t && t < n,
            "requires 1 <= k <= t <= n-1 (got k={k}, t={t}, n={n})"
        );
        sim.reserve_registers(n + n * n);
        let heartbeat = sim.alloc_per_process("pt.Heartbeat", 0u64);
        let name: NameRender = |f, [q, p, _]| {
            let (q, p) = (ProcessId::new(q as usize), ProcessId::new(p as usize));
            write!(f, "pt.Counter[{q},{p}]")
        };
        let counter = universe
            .processes()
            .map(|q| {
                universe
                    .processes()
                    .map(|p| {
                        let name = RegName::custom(name, [q.index() as u32, p.index() as u32, 0]);
                        sim.alloc_sw(name, p, 0u64)
                    })
                    .collect()
            })
            .collect();
        ProcessTimelyDetector {
            k,
            t,
            policy,
            universe,
            heartbeat,
            counter,
        }
    }

    /// Creates the local state for one process.
    pub fn local_state(&self) -> ProcessTimelyLocal {
        let n = self.universe.n();
        ProcessTimelyLocal {
            my_hb: 0,
            prev_heartbeat: vec![0; n],
            timeout: vec![1; n],
            timer: vec![1; n],
            cnt: vec![vec![0; n]; n],
            accusation: vec![0; n],
            winnerset: ProcSet::EMPTY,
            published: None,
            iterations: 0,
        }
    }

    /// One loop iteration: read all counters, accuse by `(t+1)`-st-smallest,
    /// pick the `k` least-accused processes, heartbeat, check heartbeats,
    /// expire per-process timers.
    pub async fn iterate(&self, ctx: &ProcessCtx, local: &mut ProcessTimelyLocal) {
        let me = ctx.pid().index();
        let n = self.universe.n();

        for q in 0..n {
            for p in 0..n {
                local.cnt[q][p] = ctx.read(self.counter[q][p]).await;
            }
        }
        let mut scratch = vec![0u64; n];
        for q in 0..n {
            scratch.copy_from_slice(&local.cnt[q]);
            scratch.sort_unstable();
            local.accusation[q] = scratch[self.t];
        }
        // Winnerset: k smallest (accusation, q) pairs.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&q| (local.accusation[q], q));
        local.winnerset = order[..self.k].iter().map(|&q| ProcessId::new(q)).collect();
        if local.published != Some(local.winnerset) {
            ctx.probe_set(BASELINE_WINNERSET_PROBE, local.winnerset);
            local.published = Some(local.winnerset);
        }

        local.my_hb += 1;
        ctx.write(self.heartbeat[me], local.my_hb).await;

        for q in 0..n {
            let hbq = ctx.read(self.heartbeat[q]).await;
            if hbq > local.prev_heartbeat[q] {
                local.timer[q] = local.timeout[q];
                local.prev_heartbeat[q] = hbq;
            }
        }

        for q in 0..n {
            local.timer[q] -= 1;
            if local.timer[q] == 0 {
                local.timeout[q] = self.policy.grow(local.timeout[q]);
                local.timer[q] = local.timeout[q];
                ctx.write(self.counter[q][me], local.cnt[q][me] + 1).await;
            }
        }
        local.iterations += 1;
    }

    /// The standalone automaton: iterate forever.
    pub async fn run(self, ctx: ProcessCtx) {
        let mut local = self.local_state();
        loop {
            self.iterate(&ctx, &mut local).await;
        }
    }

    /// Shared-memory steps per iteration with `expired` accusations:
    /// `n²` counter reads + 1 heartbeat write + `n` heartbeat reads +
    /// `expired` counter writes.
    pub fn steps_per_iteration(&self, expired: usize) -> u64 {
        let n = self.universe.n() as u64;
        n * n + 1 + n + expired as u64
    }
}

/// Per-process local state of [`ProcessTimelyDetector`].
#[derive(Clone, Debug)]
pub struct ProcessTimelyLocal {
    my_hb: u64,
    prev_heartbeat: Vec<u64>,
    timeout: Vec<u64>,
    timer: Vec<u64>,
    cnt: Vec<Vec<u64>>,
    accusation: Vec<u64>,
    /// The k individually-least-accused processes.
    pub winnerset: ProcSet,
    published: Option<ProcSet>,
    /// Completed loop iterations.
    pub iterations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{ProcSet, StepSource};
    use st_sched::{RoundRobin, SeededRandom, SetTimely};
    use st_sim::RunConfig;

    fn run_baseline<S: StepSource>(
        n: usize,
        k: usize,
        t: usize,
        src: &mut S,
        budget: u64,
    ) -> st_sim::RunReport {
        let universe = Universe::new(n).unwrap();
        let mut sim = Sim::new(universe);
        let fd = ProcessTimelyDetector::alloc(&mut sim, k, t, TimeoutPolicy::Increment);
        for p in universe.processes() {
            let fd = fd.clone();
            sim.spawn(p, move |ctx| fd.run(ctx)).unwrap();
        }
        sim.run(src, RunConfig::steps(budget)).unwrap();
        sim.report()
    }

    fn stabilization(report: &st_sim::RunReport, n: usize) -> Option<(ProcSet, u64)> {
        let correct = ProcSet::full(Universe::new(n).unwrap());
        let mut common: Option<ProcSet> = None;
        let mut step = 0;
        for p in correct.iter() {
            let last = report.probes.last_value(p, BASELINE_WINNERSET_PROBE)?;
            let set = ProcSet::from_bits(last);
            match common {
                None => common = Some(set),
                Some(c) if c != set => return None,
                _ => {}
            }
            step = step.max(
                report
                    .probes
                    .stabilization_step(p, BASELINE_WINNERSET_PROBE)?,
            );
        }
        common.map(|c| (c, step))
    }

    #[test]
    fn stabilizes_under_round_robin() {
        let mut src = RoundRobin::new(Universe::new(4).unwrap());
        let report = run_baseline(4, 2, 2, &mut src, 300_000);
        let (ws, _) = stabilization(&report, 4).expect("round robin is process-timely");
        assert_eq!(ws.len(), 2);
    }

    #[test]
    fn stabilizes_when_an_individual_is_timely() {
        let u = Universe::new(4).unwrap();
        let p = ProcSet::from_indices([0]);
        let q = ProcSet::from_indices([0, 1, 2]);
        let mut src = SetTimely::new(p, q, 4, SeededRandom::new(u, 5));
        let report = run_baseline(4, 1, 2, &mut src, 600_000);
        let (ws, _) = stabilization(&report, 4).expect("p0 is individually timely");
        assert!(ws.contains(ProcessId::new(0)));
    }

    #[test]
    fn flaps_when_only_sets_are_timely() {
        // The E8 workload: groups {p0,p1}, {p2,p3} are timely, nobody
        // individually is. The baseline must keep flapping late in the run.
        let groups = [ProcSet::from_indices([0, 1]), ProcSet::from_indices([2, 3])];
        let mut src = st_sched::AlternatingRotation::new(&groups);
        let budget = 600_000u64;
        let report = run_baseline(4, 2, 2, &mut src, budget);
        let late_changes: usize = (0..4)
            .map(|i| {
                report
                    .probes
                    .timeline(ProcessId::new(i), BASELINE_WINNERSET_PROBE)
                    .iter()
                    .filter(|&&(s, _)| s > budget * 3 / 4)
                    .count()
            })
            .sum();
        assert!(
            late_changes > 0,
            "baseline unexpectedly stabilized on a set-timely-only schedule"
        );
    }

    #[test]
    fn step_cost_formula() {
        let mut sim = Sim::new(Universe::new(3).unwrap());
        let fd = ProcessTimelyDetector::alloc(&mut sim, 1, 1, TimeoutPolicy::Increment);
        assert_eq!(fd.steps_per_iteration(0), 9 + 1 + 3);
    }

    #[test]
    #[should_panic(expected = "requires 1 <= k <= t")]
    fn invalid_parameters_rejected() {
        let mut sim = Sim::new(Universe::new(3).unwrap());
        let _ = ProcessTimelyDetector::alloc(&mut sim, 2, 1, TimeoutPolicy::Increment);
    }
}
