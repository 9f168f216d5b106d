//! Output checks, metric records and small measurement helpers.

use st_campaign::{OutcomeData, Scenario, ScenarioOutcome};
use st_sim::RunStatus;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Output checks: every check is one attempted operation; a failed check
/// is one failed operation and its message is printed.
#[derive(Default, Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    /// The checks every campaign outcome must pass: no invariant
    /// violation, at most `k` decided values for k-set agreement (one for
    /// lean consensus), safety, and a passed certification where one was
    /// requested.
    pub fn outcome(&mut self, scenario: &Scenario, out: &ScenarioOutcome) {
        let label = &out.label;
        self.check(out.violations.is_empty(), || {
            format!("{label}: invariant violations {:?}", out.violations)
        });
        match &out.data {
            OutcomeData::Agreement(a) => {
                let k = match &scenario.workload {
                    st_campaign::Workload::Agreement { k, .. } => *k,
                    _ => 0,
                };
                self.check(a.distinct_decisions() <= k && a.safe, || {
                    format!(
                        "{label}: {} distinct values for k={k}",
                        a.distinct_decisions()
                    )
                });
                if a.certified.is_some() {
                    self.check(a.certified == Some(true), || {
                        format!("{label}: conforming schedule failed certification")
                    });
                }
            }
            OutcomeData::Lean(l) => {
                self.check(l.distinct_values.len() <= 1, || {
                    format!("{label}: lean consensus decided {:?}", l.distinct_values)
                });
            }
            _ => {}
        }
    }

    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}

/// Simulated steps a scenario executed, as its outcome records them.
pub fn steps(scenario: &Scenario, out: &ScenarioOutcome) -> u64 {
    let budget = scenario.budget;
    match &out.data {
        OutcomeData::Agreement(a) => match (a.status, a.decided_at, a.certified) {
            (_, _, Some(false)) => 0,
            (RunStatus::Stopped, Some(step), _) => step,
            _ => budget,
        },
        OutcomeData::Fd(o) => o.steps,
        OutcomeData::Lean(o) => o.steps,
        OutcomeData::WideFd(o) => o.steps,
        OutcomeData::Bg(o) => o.host_steps,
        OutcomeData::Adversarial(_) => budget,
    }
}

/// FNV-1a 64-bit digest, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hardware threads available to the benchmark.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Time `f` and return its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}
