//! The Borowsky–Gafni simulation driver.
//!
//! `s` simulators (the real processes of the host simulator) jointly execute
//! `n_sim` simulated [`StepMachine`]s over a simulated single-writer-cell
//! memory:
//!
//! - **cells** — `cells[u][s]` is simulator `s`'s copy of simulated process
//!   `u`'s cell, tagged with a version; a simulated read of `u` takes the
//!   maximum-version copy. Copies are written in the machine's deterministic
//!   order, so versions never regress per copy.
//! - **reads** go through one [`SafeAgreement`] object per `(u, read index)`
//!   so every simulator advances `u`'s automaton with the *same* outcome —
//!   the copies stay in lockstep.
//! - **scheduling** — each simulator round-robins over the simulated
//!   processes, skipping those whose current read is unresolved. A crashed
//!   simulator blocks at most the one object whose unsafe zone it was in,
//!   hence at most one simulated process per crashed simulator stalls
//!   (Property (i) of the Theorem 26 proof); the round-robin over the rest
//!   keeps every set of `crashes + 1` simulated processes timely
//!   (Property (ii)).
//! - **decisions** — each simulated decision is published in a shared
//!   register (idempotent: all simulators compute the same value), and every
//!   simulator adopts the first simulated decision it encounters — the
//!   adoption rule of the reduction.

use st_core::{ProcSet, Schedule, Value};
use st_sim::{ProcessCtx, Reg, RegName, RunReport, Sim};

use crate::machine::{SimOp, StepMachine};
use crate::safe_agreement::{Resolution, SafeAgreement};

/// Probe key: one event per simulated step a simulator completes; the value
/// is the simulated process index. Reconstructing the timeline of one
/// simulator gives (its linearization of) the simulated schedule.
pub const SIM_STEP_PROBE: &str = "sim-step";

fn encode(v: Option<Value>) -> Value {
    match v {
        None => 0,
        Some(x) => x
            .checked_add(1)
            .expect("simulated values must be < u64::MAX"),
    }
}

fn decode(e: Value) -> Option<Value> {
    e.checked_sub(1)
}

/// One simulated cell copy: `(version, value)`.
type CellCopy = (u64, Option<Value>);

/// A BG simulation instance: shared registers plus the machine templates.
/// Clone into each simulator.
#[derive(Clone)]
pub struct BgSimulation<M> {
    machines: Vec<M>,
    /// `cells[u][s]`: simulator `s`'s copy of `u`'s cell.
    cells: Vec<Vec<Reg<CellCopy>>>,
    /// `agreements[u][r]`: safe agreement for `u`'s `r`-th read.
    agreements: Vec<Vec<SafeAgreement>>,
    /// Simulated decision of `u`.
    decisions: Vec<Reg<Option<Value>>>,
    max_reads: usize,
}

impl<M: StepMachine + Clone + 'static> BgSimulation<M> {
    /// Allocates the simulation over `sim` (whose universe is the
    /// simulators). One machine per simulated process; each may perform at
    /// most `max_reads` simulated reads (register space is pre-allocated).
    pub fn alloc(sim: &mut Sim, machines: Vec<M>, max_reads: usize) -> Self {
        let width = sim.universe().n();
        let n_sim = machines.len();
        let cells = (0..n_sim)
            .map(|u| {
                let row = RegName::new("bg.cell").index(u);
                (0..width)
                    .map(|s| sim.alloc_sw(row.index(s), st_core::ProcessId::new(s), (0u64, None)))
                    .collect()
            })
            .collect();
        let agreements = (0..n_sim)
            .map(|u| {
                let row = RegName::new("bg.sa").index(u);
                (0..max_reads)
                    .map(|r| SafeAgreement::alloc(sim, row.index(r), width))
                    .collect()
            })
            .collect();
        let decisions = (0..n_sim)
            .map(|u| sim.alloc(RegName::new("bg.decision").index(u), None))
            .collect();
        BgSimulation {
            machines,
            cells,
            agreements,
            decisions,
            max_reads,
        }
    }

    /// Number of simulated processes.
    pub fn n_sim(&self) -> usize {
        self.machines.len()
    }

    /// Simulated decision registers, peeked without steps.
    pub fn peek_simulated_decisions(&self, sim: &Sim) -> Vec<Option<Value>> {
        self.decisions.iter().map(|&d| sim.peek(d)).collect()
    }

    /// The simulator automaton: runs its copies of all machines to
    /// completion (or forever, if blocked), adopting the first simulated
    /// decision as its own.
    pub async fn run_simulator(self, ctx: ProcessCtx) {
        let me = ctx.pid().index();
        let n_sim = self.machines.len();
        let mut machines = self.machines.clone();
        let mut versions = vec![0u64; n_sim];
        let mut read_idx = vec![0usize; n_sim];
        let mut proposed = vec![false; n_sim];
        let mut halted = vec![false; n_sim];
        let mut round = 0usize;

        loop {
            // Adoption sweep: one decision register per round.
            if !ctx.has_decided() {
                if let Some(v) = ctx.read(self.decisions[round % n_sim]).await {
                    ctx.decide(v);
                }
            }

            let mut all_done = true;
            for u in 0..n_sim {
                if halted[u] {
                    continue;
                }
                all_done = false;
                match machines[u].pending() {
                    SimOp::Update(v) => {
                        versions[u] += 1;
                        ctx.write(self.cells[u][me], (versions[u], Some(v))).await;
                        machines[u].advance(None);
                        ctx.probe(SIM_STEP_PROBE, u as u64);
                    }
                    SimOp::ReadCell(w) => {
                        if read_idx[u] >= self.max_reads {
                            // Read budget exhausted: treat as stalled.
                            halted[u] = true;
                            continue;
                        }
                        let object = &self.agreements[u][read_idx[u]];
                        if !proposed[u] {
                            // My view of w's cell: max version over copies.
                            let mut best: CellCopy = (0, None);
                            for &copy in &self.cells[w] {
                                let c = ctx.read(copy).await;
                                if c.0 > best.0 {
                                    best = c;
                                }
                            }
                            object.propose(&ctx, encode(best.1)).await;
                            proposed[u] = true;
                        }
                        match object.try_resolve(&ctx).await {
                            Resolution::Agreed(enc) => {
                                machines[u].advance(Some(decode(enc)));
                                read_idx[u] += 1;
                                proposed[u] = false;
                                ctx.probe(SIM_STEP_PROBE, u as u64);
                            }
                            Resolution::Unresolved | Resolution::Empty => {
                                // Blocked (possibly by a crashed simulator's
                                // unsafe zone): skip, retry next round.
                            }
                        }
                    }
                    SimOp::Decide(v) => {
                        ctx.write(self.decisions[u], Some(v)).await;
                        if !ctx.has_decided() {
                            ctx.decide(v);
                        }
                        machines[u].advance(None);
                        ctx.probe(SIM_STEP_PROBE, u as u64);
                    }
                    SimOp::Halt => {
                        halted[u] = true;
                    }
                }
            }
            if all_done {
                return;
            }
            round += 1;
        }
    }

    /// Extracts simulator `s`'s linearization of the simulated schedule from
    /// a run report.
    pub fn simulated_schedule(
        &self,
        report: &RunReport,
        simulator: st_core::ProcessId,
    ) -> Schedule {
        report
            .probes
            .timeline(simulator, SIM_STEP_PROBE)
            .into_iter()
            .map(|(_, u)| st_core::ProcessId::new(u as usize))
            .collect()
    }

    /// The simulated processes that decided, as a set.
    pub fn decided_simulated(&self, sim: &Sim) -> ProcSet {
        self.peek_simulated_decisions(sim)
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_some())
            .map(|(u, _)| st_core::ProcessId::new(u))
            .collect()
    }
}

impl<M> std::fmt::Debug for BgSimulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BgSimulation[n_sim={}, max_reads={}]",
            self.machines.len(),
            self.max_reads
        )
    }
}
