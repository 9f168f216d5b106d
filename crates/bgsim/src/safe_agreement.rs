//! Safe agreement: the synchronization core of the BG simulation.
//!
//! A safe-agreement object lets each of the `s` simulators propose a value
//! and agree on one, with the defining twist that **agreement may block only
//! if a proposer crashes inside its (constant-length) unsafe zone**. One
//! crashed simulator can therefore block at most one object — the
//! structural fact behind "k+1 simulators tolerate k crashes while blocking
//! at most k simulated processes" (Properties (i) of Theorem 26's proof).
//!
//! Implementation (Borowsky–Gafni): per proposer registers `V[s]` (value)
//! and `L[s]` (level ∈ {0, 1, 2}).
//!
//! - `propose(v)`: `V[me] ← v`; `L[me] ← 1` *(unsafe zone begins)*; read all
//!   levels; if some `L[j] = 2` then `L[me] ← 0` else `L[me] ← 2` *(unsafe
//!   zone ends)*.
//! - `try_resolve()`: read all levels; if some `L[j] = 1`, the object is
//!   **unresolved** (a proposer is in its unsafe zone — possibly crashed
//!   there); otherwise return `V[j]` for the smallest `j` with `L[j] = 2`.

use st_core::Value;
use st_sim::{ProcessCtx, Reg, RegName, Sim};

/// A single-shot safe-agreement object among `width` proposers
/// (the simulators). Clone into each simulator.
#[derive(Clone, Debug)]
pub struct SafeAgreement {
    values: Vec<Reg<Option<Value>>>,
    levels: Vec<Reg<u64>>,
}

/// Result of a non-blocking resolution poll.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Agreement reached on this value.
    Agreed(Value),
    /// A proposer is (or crashed) inside its unsafe zone; poll again later.
    Unresolved,
    /// Nobody has proposed yet.
    Empty,
}

impl SafeAgreement {
    /// Allocates the object's registers (`V[s]`, `L[s]` for each of the
    /// `width` proposers, indexed by process index `0..width`).
    pub fn alloc(sim: &mut Sim, name: impl Into<RegName>, width: usize) -> Self {
        let name = name.into();
        let (v, l) = (name.scoped(".V"), name.scoped(".L"));
        let values = (0..width)
            .map(|s| sim.alloc_sw(v.index(s), st_core::ProcessId::new(s), None))
            .collect();
        let levels = (0..width)
            .map(|s| sim.alloc_sw(l.index(s), st_core::ProcessId::new(s), 0u64))
            .collect();
        SafeAgreement { values, levels }
    }

    /// Number of proposer slots.
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// Proposes `v` (call at most once per simulator per object).
    ///
    /// **`2 + width + 1` steps**, of which the *unsafe zone* — between the
    /// `L[me] ← 1` write and the final level write — spans `width + 1`
    /// steps; crashing there may block the object forever.
    pub async fn propose(&self, ctx: &ProcessCtx, v: Value) {
        let me = ctx.pid().index();
        ctx.write(self.values[me], Some(v)).await;
        ctx.write(self.levels[me], 1).await;
        let mut saw_two = false;
        for &l in &self.levels {
            if ctx.read(l).await == 2 {
                saw_two = true;
            }
        }
        ctx.write(self.levels[me], if saw_two { 0 } else { 2 })
            .await;
    }

    /// One non-blocking resolution scan. **`width` steps**, plus up to
    /// `width` value reads when resolvable.
    pub async fn try_resolve(&self, ctx: &ProcessCtx) -> Resolution {
        let mut levels = Vec::with_capacity(self.levels.len());
        for &l in &self.levels {
            levels.push(ctx.read(l).await);
        }
        if levels.contains(&1) {
            return Resolution::Unresolved;
        }
        for (j, &l) in levels.iter().enumerate() {
            if l == 2 {
                let v = ctx.read(self.values[j]).await;
                return Resolution::Agreed(v.expect("level 2 implies a proposed value"));
            }
        }
        Resolution::Empty
    }

    /// Whether the object looks blocked right now (instrumentation):
    /// someone at level 1, nobody at level 2 pending... simply: a level-1
    /// entry exists.
    pub fn peek_unsafe(&self, sim: &Sim) -> bool {
        self.levels.iter().any(|&l| sim.peek(l) == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, Universe};
    use st_sim::{RunConfig, StopWhen};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// All proposers complete: agreement and validity hold under arbitrary
    /// interleavings.
    #[test]
    fn agreement_and_validity() {
        for seed in 0..40u64 {
            let width = 3;
            let u = Universe::new(width).unwrap();
            let mut sim = Sim::new(u);
            let sa = SafeAgreement::alloc(&mut sim, "sa", width);
            for p in u.processes() {
                let sa = sa.clone();
                let v = 100 + p.index() as Value;
                sim.spawn(p, move |ctx| async move {
                    sa.propose(&ctx, v).await;
                    loop {
                        match sa.try_resolve(&ctx).await {
                            Resolution::Agreed(w) => {
                                ctx.decide(w);
                                return;
                            }
                            _ => ctx.pause().await,
                        }
                    }
                })
                .unwrap();
            }
            let sched: Vec<usize> = (0..2000)
                .map(|i| {
                    ((seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(i * 2654435761))
                        % 3) as usize
                })
                .collect();
            let mut src = ScheduleCursor::new(Schedule::from_indices(sched));
            sim.run(
                &mut src,
                RunConfig::steps(2000).stop_when(StopWhen::AllDecided(ProcSet::full(u))),
            )
            .unwrap();
            let rep = sim.report();
            let decided: Vec<Value> = (0..width)
                .filter_map(|i| rep.decision_value(pid(i)))
                .collect();
            assert_eq!(decided.len(), width, "seed {seed}: all must decide");
            assert!(
                decided.iter().all(|&v| v == decided[0]),
                "seed {seed}: split {decided:?}"
            );
            assert!((100..103).contains(&decided[0]));
        }
    }

    /// A proposer crashing inside its unsafe zone blocks resolution; one
    /// crashing outside does not.
    #[test]
    fn crash_in_unsafe_zone_blocks() {
        let width = 2;
        let u = Universe::new(width).unwrap();
        let mut sim = Sim::new(u);
        let sa = SafeAgreement::alloc(&mut sim, "sa", width);
        {
            let sa = sa.clone();
            sim.spawn(pid(0), move |ctx| async move {
                sa.propose(&ctx, 7).await;
            })
            .unwrap();
        }
        {
            let sa = sa.clone();
            sim.spawn(pid(1), move |ctx| async move {
                sa.propose(&ctx, 8).await;
                loop {
                    if let Resolution::Agreed(w) = sa.try_resolve(&ctx).await {
                        ctx.decide(w);
                        return;
                    }
                }
            })
            .unwrap();
        }
        // p0 takes exactly 2 steps: V write + L←1 write — then crashes *in*
        // the unsafe zone. p1 runs alone forever after.
        let sched: Vec<usize> = [0usize, 0]
            .into_iter()
            .chain(std::iter::repeat_n(1, 500))
            .collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(sched));
        sim.run(&mut src, RunConfig::steps(502)).unwrap();
        assert!(sa.peek_unsafe(&sim), "p0 is stuck at level 1");
        assert_eq!(
            sim.report().decision_value(pid(1)),
            None,
            "p1 must block on the unresolved object"
        );
    }

    #[test]
    fn crash_before_proposing_does_not_block() {
        let width = 2;
        let u = Universe::new(width).unwrap();
        let mut sim = Sim::new(u);
        let sa = SafeAgreement::alloc(&mut sim, "sa", width);
        {
            let sa = sa.clone();
            sim.spawn(pid(1), move |ctx| async move {
                sa.propose(&ctx, 9).await;
                loop {
                    if let Resolution::Agreed(w) = sa.try_resolve(&ctx).await {
                        ctx.decide(w);
                        return;
                    }
                }
            })
            .unwrap();
        }
        // p0 never runs at all.
        let sched: Vec<usize> = std::iter::repeat_n(1, 200).collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(sched));
        sim.run(&mut src, RunConfig::steps(200)).unwrap();
        assert_eq!(sim.report().decision_value(pid(1)), Some(9));
    }

    #[test]
    fn empty_object_reports_empty() {
        let u = Universe::new(2).unwrap();
        let mut sim = Sim::new(u);
        let sa = SafeAgreement::alloc(&mut sim, "sa", 2);
        {
            let sa = sa.clone();
            sim.spawn(pid(0), move |ctx| async move {
                let r = sa.try_resolve(&ctx).await;
                ctx.decide(match r {
                    Resolution::Empty => 1,
                    _ => 0,
                });
            })
            .unwrap();
        }
        let mut src = ScheduleCursor::new(Schedule::from_indices(vec![0; 10]));
        sim.run(&mut src, RunConfig::steps(10)).unwrap();
        assert_eq!(sim.report().decision_value(pid(0)), Some(1));
    }
}
