//! Crash plans: which processes crash, and when.
//!
//! In the model a crash is not an event — a faulty process simply has
//! finitely many steps in the schedule. A [`CrashPlan`] makes this
//! constructive: the [`CrashAfter`] decorator suppresses all steps of a
//! process from its crash point on, so the wrapped generator's output is a
//! schedule in which the process is faulty.

use std::collections::BTreeMap;

use st_core::{ProcSet, ProcessId, StepSource};

/// When each faulty process takes its last step.
///
/// # Examples
///
/// ```
/// use st_core::ProcessId;
/// use st_sched::CrashPlan;
///
/// let plan = CrashPlan::new().crash(ProcessId::new(2), 100);
/// assert!(plan.is_crashed(ProcessId::new(2), 150));
/// assert!(!plan.is_crashed(ProcessId::new(2), 50));
/// assert_eq!(plan.faulty().len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashPlan {
    crash_at: BTreeMap<ProcessId, u64>,
}

impl CrashPlan {
    /// An empty plan (no crashes).
    pub fn new() -> Self {
        CrashPlan::default()
    }

    /// A plan crashing every member of `set` at global step `step`.
    pub fn all_at(set: ProcSet, step: u64) -> Self {
        let mut plan = CrashPlan::new();
        for p in set.iter() {
            plan = plan.crash(p, step);
        }
        plan
    }

    /// Adds a crash of `p` at global step `step` (builder style).
    pub fn crash(mut self, p: ProcessId, step: u64) -> Self {
        self.crash_at.insert(p, step);
        self
    }

    /// The set of processes that ever crash.
    pub fn faulty(&self) -> ProcSet {
        self.crash_at.keys().copied().collect()
    }

    /// Whether `p` is crashed as of global step `step`.
    pub fn is_crashed(&self, p: ProcessId, step: u64) -> bool {
        self.crash_at.get(&p).is_some_and(|&s| step >= s)
    }

    /// Returns `true` if no process ever crashes.
    pub fn is_empty(&self) -> bool {
        self.crash_at.is_empty()
    }

    /// The `(process, crash step)` entries, in ascending process order —
    /// the plan's canonical enumeration (used by the campaign store codec).
    pub fn entries(&self) -> impl Iterator<Item = (ProcessId, u64)> + '_ {
        self.crash_at.iter().map(|(&p, &s)| (p, s))
    }
}

/// A [`CrashPlan`] flattened for per-step queries: the crash step of every
/// process by index (`None` for processes that never crash), built once
/// with the source that consults it.
#[derive(Clone, Debug, Default)]
pub(crate) struct CrashTable {
    crash_at: Vec<Option<u64>>,
}

impl CrashTable {
    pub(crate) fn new(plan: &CrashPlan) -> Self {
        let len = plan
            .crash_at
            .keys()
            .next_back()
            .map_or(0, |p| p.index() + 1);
        let mut crash_at = vec![None; len];
        for (p, s) in plan.entries() {
            crash_at[p.index()] = Some(s);
        }
        CrashTable { crash_at }
    }

    /// Same answer as [`CrashPlan::is_crashed`].
    #[inline]
    pub(crate) fn is_crashed(&self, p: ProcessId, step: u64) -> bool {
        matches!(self.crash_at.get(p.index()), Some(&Some(s)) if step >= s)
    }
}

/// Decorator suppressing the steps of crashed processes.
///
/// The global step clock advances only on *emitted* steps, so a crash at
/// step `s` means "the process takes no step at schedule position ≥ s".
/// If every process the inner source emits is crashed, the source ends
/// (after a bounded number of skip attempts per step).
pub struct CrashAfter<S> {
    inner: S,
    plan: CrashPlan,
    table: CrashTable,
    emitted: u64,
    /// Abort the scan after this many consecutive suppressed steps, to keep
    /// termination when the inner source only schedules crashed processes.
    max_skips: u64,
}

impl<S: StepSource> CrashAfter<S> {
    /// Wraps `inner` with the plan.
    pub fn new(inner: S, plan: CrashPlan) -> Self {
        CrashAfter {
            inner,
            table: CrashTable::new(&plan),
            plan,
            emitted: 0,
            max_skips: 1_000_000,
        }
    }

    /// The plan's faulty set (convenience for outcome checking).
    pub fn faulty(&self) -> ProcSet {
        self.plan.faulty()
    }
}

impl<S: StepSource> StepSource for CrashAfter<S> {
    fn next_step(&mut self) -> Option<ProcessId> {
        for _ in 0..self.max_skips {
            let p = self.inner.next_step()?;
            if self.table.is_crashed(p, self.emitted) {
                continue;
            }
            self.emitted += 1;
            return Some(p);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{Schedule, ScheduleCursor};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn plan_queries() {
        let plan = CrashPlan::new().crash(p(0), 5).crash(p(3), 0);
        assert_eq!(plan.faulty(), ProcSet::from_indices([0, 3]));
        assert!(plan.is_crashed(p(3), 0));
        assert!(!plan.is_crashed(p(0), 4));
        assert!(plan.is_crashed(p(0), 5));
        assert!(!plan.is_crashed(p(1), 100));
        assert!(!plan.is_empty());
        assert!(CrashPlan::new().is_empty());
    }

    #[test]
    fn table_agrees_with_plan() {
        let plan = CrashPlan::new()
            .crash(p(0), 5)
            .crash(p(3), 0)
            .crash(p(9), 70)
            .crash(p(10), u64::MAX);
        let table = CrashTable::new(&plan);
        for i in 0..12 {
            for step in [0, 4, 5, 6, 69, 70, u64::MAX] {
                assert_eq!(table.is_crashed(p(i), step), plan.is_crashed(p(i), step));
            }
        }
        assert!(CrashTable::new(&CrashPlan::new()).crash_at.is_empty());
    }

    #[test]
    fn all_at_constructor() {
        let plan = CrashPlan::all_at(ProcSet::from_indices([1, 2]), 7);
        assert!(plan.is_crashed(p(1), 7) && plan.is_crashed(p(2), 7));
        assert!(!plan.is_crashed(p(1), 6));
    }

    #[test]
    fn decorator_suppresses_after_crash() {
        let inner = ScheduleCursor::new(Schedule::from_indices([0, 1, 0, 1, 0, 1, 0, 1]));
        let mut src = CrashAfter::new(inner, CrashPlan::new().crash(p(1), 3));
        // Emitted positions: 0:p0 1:p1 2:p0 — p1's next would be at position 3
        // → suppressed; remaining p0 steps flow through.
        let got = src.take_schedule(100);
        assert_eq!(got, Schedule::from_indices([0, 1, 0, 0, 0]));
    }

    #[test]
    fn crash_from_start_silences_entirely() {
        let inner = ScheduleCursor::new(Schedule::from_indices([2, 2, 0, 2]));
        let mut src = CrashAfter::new(inner, CrashPlan::new().crash(p(2), 0));
        assert_eq!(src.take_schedule(100), Schedule::from_indices([0]));
    }

    #[test]
    fn all_crashed_terminates() {
        struct Only(usize);
        impl StepSource for Only {
            fn next_step(&mut self) -> Option<ProcessId> {
                Some(ProcessId::new(self.0))
            }
        }
        let mut src = CrashAfter::new(Only(0), CrashPlan::new().crash(p(0), 0));
        assert_eq!(src.next_step(), None);
    }
}
