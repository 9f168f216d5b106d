//! Register names render exactly as the protocols have always spelled
//! them, although they are stored as structured values and formatted only
//! when read. Each expected list below is the allocation-order spelling,
//! written out with `format!` the way the protocols used to build it.

use st_agreement::{KSetAgreement, TrivialAgreement};
use st_core::subsets::wide_k_subsets;
use st_core::{ProcessId, Schedule, ScheduleCursor, Universe};
use st_fd::{KAntiOmega, KAntiOmegaConfig, LeanOmega, ProcessTimelyDetector, TimeoutPolicy};
use st_sim::{RunConfig, Sim};

fn names(sim: &Sim) -> Vec<String> {
    sim.report()
        .register_stats
        .iter()
        .map(|s| s.name.to_string())
        .collect()
}

fn per_process(label: &str, n: usize) -> Vec<String> {
    (0..n).map(|p| format!("{label}[{p}]")).collect()
}

/// The full agreement stack: Figure 2's heartbeats and counter matrix,
/// then `k` Paxos instances.
#[test]
fn agreement_stack_names() {
    let (n, k, t) = (5, 2, 3);
    let universe = Universe::new(n).unwrap();
    let mut sim = Sim::new(universe);
    KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, t));
    KSetAgreement::alloc(&mut sim, k);

    let mut want = per_process("Heartbeat", n);
    for (rank, set) in wide_k_subsets::<1>(universe, k).iter().enumerate() {
        for q in universe.processes() {
            want.push(format!("Counter[{set}#{rank},{q}]"));
        }
    }
    for r in 0..k {
        want.extend(per_process(&format!("kset[{r}].rec"), n));
        want.push(format!("kset[{r}].decision"));
    }
    let got = names(&sim);
    assert_eq!(got, want);
    assert_eq!(got[n + 2], "Counter[{p0,p1}#0,p2]");
    assert!(got.contains(&"kset[0].rec[2]".to_string()));
    assert_eq!(sim.report().register_stats[3].name, "Heartbeat[3]");
}

/// The counter names re-derive each set from its rank; at two words of
/// width that must still match the enumeration the protocol allocates by.
#[test]
fn wide_counter_names() {
    let n = 66;
    let universe = Universe::new(n).unwrap();
    for k in [1, n - 1] {
        let mut sim = Sim::new(universe);
        KAntiOmega::<2>::alloc_wide(&mut sim, KAntiOmegaConfig::new(k, n - 1));
        let mut want = per_process("Heartbeat", n);
        for (rank, set) in wide_k_subsets::<2>(universe, k).iter().enumerate() {
            for q in universe.processes() {
                want.push(format!("Counter[{set}#{rank},{q}]"));
            }
        }
        assert_eq!(names(&sim), want, "k = {k}");
    }
}

#[test]
fn lean_baseline_and_trivial_names() {
    let n = 4;
    let universe = Universe::new(n).unwrap();

    let mut sim = Sim::new(universe);
    LeanOmega::alloc(&mut sim, 1, TimeoutPolicy::default());
    let mut want = per_process("LeanHB", n);
    for a in 0..n {
        for q in 0..n {
            want.push(format!("LeanCnt[{a},{q}]"));
        }
    }
    assert_eq!(names(&sim), want);

    let mut sim = Sim::new(universe);
    ProcessTimelyDetector::alloc(&mut sim, 1, 2, TimeoutPolicy::default());
    let mut want = per_process("pt.Heartbeat", n);
    for q in universe.processes() {
        for p in universe.processes() {
            want.push(format!("pt.Counter[{q},{p}]"));
        }
    }
    assert_eq!(names(&sim), want);

    let mut sim = Sim::new(universe);
    TrivialAgreement::alloc(&mut sim, 3);
    assert_eq!(names(&sim), per_process("trivial.decide", 3));
}

/// A write-discipline violation carries the register's full name.
#[test]
#[should_panic(expected = "write-discipline violation on register #3 (Heartbeat[3])")]
fn discipline_violation_names_the_register() {
    let universe = Universe::new(4).unwrap();
    let mut sim = Sim::new(universe);
    let hb = sim.alloc_per_process("Heartbeat", 0u64);
    sim.spawn(ProcessId::new(1), move |ctx| async move {
        ctx.write_word(hb[3], 1).await;
    })
    .unwrap();
    let mut steps = ScheduleCursor::new(Schedule::from_indices([1, 1]));
    let _ = sim.run(&mut steps, RunConfig::steps(2));
}
