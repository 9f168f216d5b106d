//! Atomic snapshot object via double collect.
//!
//! Each process owns a versioned cell `(seq, value)`. A `scan` performs
//! repeated collects until two consecutive collects are identical — the
//! classic *double collect*: an unchanged pair of collects is a valid
//! linearization point for the whole vector.
//!
//! This is the unbounded-retry variant (Afek et al.'s bounded helping is not
//! needed by the protocols in this reproduction). Under continuous writer
//! churn a scan can retry indefinitely; callers use it either in quiescent
//! phases or accept the retry cost. `scan_bounded` exposes the retry budget
//! explicitly.

use st_sim::{ProcessCtx, Reg, RegName, RegValue, Sim};

/// One versioned component of the snapshot object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionedCell<T> {
    /// Writer-local sequence number (0 = never written).
    pub seq: u64,
    /// Stored value, `None` until first write.
    pub value: Option<T>,
}

impl<T> Default for VersionedCell<T> {
    fn default() -> Self {
        VersionedCell {
            seq: 0,
            value: None,
        }
    }
}

/// An atomic-snapshot object over single-writer versioned cells.
#[derive(Clone, Debug)]
pub struct Snapshot<T> {
    cells: Vec<Reg<VersionedCell<T>>>,
}

/// Result of a bounded scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScanOutcome<T> {
    /// Two identical consecutive collects: an atomic snapshot.
    Atomic(Vec<Option<T>>),
    /// Retry budget exhausted; the last (non-atomic) collect is returned as
    /// a regular read.
    Interference(Vec<Option<T>>),
}

impl<T: RegValue + PartialEq> Snapshot<T> {
    /// Allocates the object's registers in `sim` (one single-writer
    /// versioned cell per process, named `name[p]`).
    pub fn alloc(sim: &mut Sim, name: impl Into<RegName>) -> Self {
        Snapshot {
            cells: sim.alloc_per_process(name, VersionedCell::default()),
        }
    }

    /// Updates the calling process's component.
    ///
    /// **Two steps** (read own cell for the sequence number, then write).
    pub async fn update(&self, ctx: &ProcessCtx, value: T) {
        let mine = self.cells[ctx.pid().index()];
        let current = ctx.read(mine).await;
        ctx.write(
            mine,
            VersionedCell {
                seq: current.seq + 1,
                value: Some(value),
            },
        )
        .await;
    }

    /// Scans until two consecutive collects agree (unbounded retries; see
    /// module docs). **`2n` steps per attempt.**
    pub async fn scan(&self, ctx: &ProcessCtx) -> Vec<Option<T>> {
        let mut previous = self.collect_cells(ctx).await;
        loop {
            let current = self.collect_cells(ctx).await;
            if current == previous {
                return current.into_iter().map(|c| c.value).collect();
            }
            previous = current;
        }
    }

    /// Scans with a bounded number of double-collect attempts.
    pub async fn scan_bounded(&self, ctx: &ProcessCtx, max_attempts: usize) -> ScanOutcome<T> {
        let mut previous = self.collect_cells(ctx).await;
        for _ in 0..max_attempts {
            let current = self.collect_cells(ctx).await;
            if current == previous {
                return ScanOutcome::Atomic(current.into_iter().map(|c| c.value).collect());
            }
            previous = current;
        }
        ScanOutcome::Interference(previous.into_iter().map(|c| c.value).collect())
    }

    async fn collect_cells(&self, ctx: &ProcessCtx) -> Vec<VersionedCell<T>> {
        let mut out = Vec::with_capacity(self.cells.len());
        for &cell in &self.cells {
            out.push(ctx.read(cell).await);
        }
        out
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

    #[test]
    fn quiescent_scan_is_exact() {
        let u = Universe::new(3).unwrap();
        let mut sim = Sim::new(u);
        let snap: Snapshot<u64> = Snapshot::alloc(&mut sim, "S");
        for p in u.processes() {
            let snap = snap.clone();
            sim.spawn(p, move |ctx| async move {
                snap.update(&ctx, 10 + ctx.pid().index() as u64).await;
                let view = snap.scan(&ctx).await;
                let sum: u64 = view.into_iter().flatten().sum();
                ctx.decide(sum);
            })
            .unwrap();
        }
        // All updates complete (2 steps each), then scans run sequentially.
        let order: Vec<usize> = [0, 0, 1, 1, 2, 2]
            .into_iter()
            .chain((0..6).map(|_| 0))
            .chain((0..6).map(|_| 1))
            .chain((0..6).map(|_| 2))
            .collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(order));
        sim.run(
            &mut src,
            RunConfig::steps(100).stop_when(StopWhen::AllFinished(ProcSet::full(u))),
        )
        .unwrap();
        let rep = sim.report();
        for p in u.processes() {
            assert_eq!(rep.decision_value(p), Some(33), "{p}");
        }
    }

    #[test]
    fn double_collect_retries_under_interference() {
        let u = Universe::new(2).unwrap();
        let mut sim = Sim::new(u);
        let snap: Snapshot<u64> = Snapshot::alloc(&mut sim, "S");
        // p0 scans while p1 writes in between the two collects.
        {
            let snap = snap.clone();
            sim.spawn(pid(0), move |ctx| async move {
                let view = snap.scan(&ctx).await;
                ctx.decide(view[1].unwrap_or(0));
            })
            .unwrap();
        }
        {
            let snap = snap.clone();
            sim.spawn(pid(1), move |ctx| async move {
                snap.update(&ctx, 1).await;
                snap.update(&ctx, 2).await;
            })
            .unwrap();
        }
        // p0: collect #1 (2 steps); p1: full update (2 steps) → p0's second
        // collect differs → retry; p1 writes again; eventually p1 finishes
        // and p0's double collect stabilizes.
        let order = vec![0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut src = ScheduleCursor::new(Schedule::from_indices(order));
        sim.run(&mut src, RunConfig::steps(50)).unwrap();
        // The final snapshot must reflect p1's last write.
        assert_eq!(sim.report().decision_value(pid(0)), Some(2));
    }

    #[test]
    fn bounded_scan_reports_interference() {
        let u = Universe::new(2).unwrap();
        let mut sim = Sim::new(u);
        let snap: Snapshot<u64> = Snapshot::alloc(&mut sim, "S");
        {
            let snap = snap.clone();
            sim.spawn(pid(0), move |ctx| async move {
                match snap.scan_bounded(&ctx, 1).await {
                    ScanOutcome::Atomic(_) => ctx.decide(1),
                    ScanOutcome::Interference(_) => ctx.decide(2),
                }
            })
            .unwrap();
        }
        {
            let snap = snap.clone();
            sim.spawn(pid(1), move |ctx| async move {
                loop {
                    snap.update(&ctx, 9).await;
                }
            })
            .unwrap();
        }
        // p0's first collect (2 steps), a full p1 update (2 steps: read own
        // seq, write), then p0's only retry collect: the two collects differ,
        // and the budget of 1 attempt is exhausted.
        let order = vec![0, 0, 1, 1, 0, 0, 0, 0];
        let mut src = ScheduleCursor::new(Schedule::from_indices(order));
        sim.run(
            &mut src,
            RunConfig::steps(8).stop_when(StopWhen::AnyDecided),
        )
        .unwrap();
        assert_eq!(sim.report().decision_value(pid(0)), Some(2));
    }

    #[test]
    fn update_costs_two_steps() {
        let u = Universe::new(1).unwrap();
        let mut sim = Sim::new(u);
        let snap: Snapshot<u64> = Snapshot::alloc(&mut sim, "S");
        {
            let snap = snap.clone();
            sim.spawn(pid(0), move |ctx| async move {
                snap.update(&ctx, 5).await;
                ctx.pause().await; // park
            })
            .unwrap();
        }
        sim.step_with(pid(0));
        sim.step_with(pid(0));
        let rep = sim.report();
        assert_eq!(rep.op_counts[0], 2);
    }
}
