//! Output-identity pins for every generator family.
//!
//! Each case builds a [`GeneratorSpec`] at n ∈ {3, 8, 64} under two
//! scenario seeds, takes the first 100,000 steps and hashes them. The
//! digests are constants recorded from the reference implementation, so
//! any change to a generator's hot path — the sampler, the decorators'
//! bookkeeping, crash queries — must reproduce every stream step for step.
//! A mismatch prints the full recomputed table.

use st_core::{ProcSet, ProcessId, StepSource, Universe};
use st_sched::{CrashPlan, GeneratorSpec};

const STEPS: usize = 100_000;
const SIZES: [usize; 3] = [3, 8, 64];
const SEEDS: [u64; 2] = [7, 2009];

/// Digests per family, ordered `(n, seed)` as `SIZES × SEEDS`.
const PINNED: &[(&str, [u64; 6])] = &[
    (
        "RoundRobin",
        [
            0x4c8b5938ca05cccd,
            0x4c8b5938ca05cccd,
            0xf29aee335b33474a,
            0xf29aee335b33474a,
            0x6c19be6731f8ffca,
            0x6c19be6731f8ffca,
        ],
    ),
    (
        "Bursty",
        [
            0x506b6fd4374e6507,
            0x506b6fd4374e6507,
            0x0da07657564aff4a,
            0x0da07657564aff4a,
            0x34c7df263d280c0a,
            0x34c7df263d280c0a,
        ],
    ),
    (
        "SeededRandom",
        [
            0x607a8cf5338ce1b0,
            0x56493ff9049cb912,
            0x559f3601adb551a3,
            0xd89c9e4295cd4b48,
            0x8b25be431090911b,
            0xc0919cc9023a6e08,
        ],
    ),
    (
        "SeededRandom/weighted",
        [
            0xf18ab5bc248ac188,
            0xee5ba81982c3161a,
            0x5bb7cf405e498762,
            0x0345ed54ae2ef54a,
            0xdbc5424ba8ae4fb9,
            0xfcd55f371378b77a,
        ],
    ),
    (
        "SeededRandom/over",
        [
            0x0bea5d5a932f0fca,
            0x0bea5d5a932f0fca,
            0xc69703df3151b21e,
            0x42c8d5f532b98fb8,
            0xb0fd4b8cea761286,
            0xe100fbcd25e78f58,
        ],
    ),
    (
        "SetTimely",
        [
            0xbc06e68ff8f669a7,
            0x8807f103fd775a5d,
            0xbf868c082776cb06,
            0xf32b5db0a696c2be,
            0xa71a934890f6c0f7,
            0x387266fb009ed766,
        ],
    ),
    (
        "SetTimely/crashed",
        [
            0x9125ffaa2b56616a,
            0xb175121c7f6f39f8,
            0xf6192665f19a186e,
            0x54b71df28506fa68,
            0x67e5cc819656c72b,
            0x5ac72bac952c9bc9,
        ],
    ),
    (
        "Eventually",
        [
            0x77baaad4c42476dd,
            0x33b0f69810bc3a90,
            0x379e1af0fde73364,
            0x588e3646d307a758,
            0x23f69399e540d7e1,
            0x062a776ec3a5cded,
        ],
    ),
    (
        "Flapping",
        [
            0xa875b3f3fcdcf372,
            0x88b0fc669162d797,
            0x89816630ba646015,
            0x8ddd00bd991c09e8,
            0x80f999a7cc6e1660,
            0x4061a33621f812e0,
        ],
    ),
    (
        "GrayFailure",
        [
            0x9f839d80bdd5ce68,
            0x43020928e6607bf5,
            0xc636947ed8065441,
            0xeaf7d5db9939dee2,
            0x1d186d6607f0b3d9,
            0xda0ec45471ce24f8,
        ],
    ),
    (
        "BurstClog",
        [
            0x0112db63aa9974ea,
            0x6f8d42e4d7a668a5,
            0x2524d89f534b25bb,
            0x300ddc42a4953309,
            0xd4df7af49aaf424b,
            0x36d3b5c5b162e739,
        ],
    ),
    (
        "CrashRecovery",
        [
            0x501cb692384defcd,
            0xe7c7915bb535809f,
            0xb3c31106345f20d9,
            0xf1d1f7680c0b6c3f,
            0xe415c62f24827fb3,
            0x52b95fe95b03d72e,
        ],
    ),
    (
        "CrashAfter",
        [
            0x99d9509723785bda,
            0x72a365d9b031587a,
            0x2a51a79e346050e3,
            0xe92d75794b23a391,
            0x513e6e5af99566d8,
            0x34d07521b8a2b8a0,
        ],
    ),
];

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn set(ix: impl IntoIterator<Item = usize>) -> ProcSet {
    ProcSet::from_indices(ix)
}

/// The case list at size `n`: one spec per family (or family variant).
fn cases(n: usize) -> Vec<(&'static str, GeneratorSpec)> {
    let p = set([0, 1]);
    let q = set(2..n);
    let random = GeneratorSpec::seeded_random(0);
    let timely = GeneratorSpec::set_timely(p, q, 3, random.clone());
    vec![
        ("RoundRobin", GeneratorSpec::round_robin()),
        ("Bursty", GeneratorSpec::bursty(5)),
        ("SeededRandom", random.clone()),
        (
            "SeededRandom/weighted",
            GeneratorSpec::SeededRandom {
                over: None,
                seed_offset: 1,
                weights: Some((0..n).map(|i| ((i * 7 + 3) % 5) as u32).collect()),
            },
        ),
        (
            "SeededRandom/over",
            GeneratorSpec::SeededRandom {
                over: Some(set((1..n).step_by(2))),
                seed_offset: 2,
                weights: None,
            },
        ),
        ("SetTimely", timely.clone()),
        (
            "SetTimely/crashed",
            timely
                .clone()
                .crashed(CrashPlan::new().crash(pid(0), 500).crash(pid(n - 1), 2_000)),
        ),
        (
            "Eventually",
            GeneratorSpec::Eventually {
                prefix: Box::new(GeneratorSpec::RoundRobin {
                    over: Some(set([n - 1])),
                }),
                prefix_len: 1_000,
                body: Box::new(timely),
            },
        ),
        (
            "Flapping",
            GeneratorSpec::flapping(p, q, 3, random.clone(), (50, 300), (20, 200)),
        ),
        (
            "GrayFailure",
            GeneratorSpec::gray_failure(random.clone(), set([1, n - 1]), 5),
        ),
        (
            "BurstClog",
            GeneratorSpec::burst_clog(random.clone(), pid(n - 1), 16, (30, 90)),
        ),
        (
            "CrashRecovery",
            GeneratorSpec::crash_recovery(random.clone(), pid(1), 1_000, 5_000),
        ),
        (
            "CrashAfter",
            GeneratorSpec::CrashAfter {
                inner: Box::new(random),
                plan: CrashPlan::new().crash(pid(0), 100).crash(pid(n / 2), 3_000),
            },
        ),
    ]
}

/// FNV-1a over the step indices, then the stream length.
fn digest(mut src: impl StepSource) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    let mut len = 0u64;
    while len < STEPS as u64 {
        let Some(p) = src.next_step() else { break };
        eat(&(p.index() as u16).to_le_bytes());
        len += 1;
    }
    eat(&len.to_le_bytes());
    h
}

fn recompute() -> Vec<(&'static str, [u64; 6])> {
    let mut table: Vec<(&'static str, [u64; 6])> = Vec::new();
    for (si, &n) in SIZES.iter().enumerate() {
        let universe = Universe::new(n).unwrap();
        for (family, spec) in cases(n) {
            if si == 0 {
                table.push((family, [0; 6]));
            }
            let row = table.iter_mut().find(|(f, _)| *f == family).unwrap();
            for (ki, &seed) in SEEDS.iter().enumerate() {
                row.1[si * SEEDS.len() + ki] = digest(spec.build(universe, seed));
            }
        }
    }
    table
}

#[test]
fn every_generator_stream_is_pinned() {
    let got = recompute();
    if got.as_slice() != PINNED {
        let mut listing = String::new();
        for (family, row) in &got {
            let hex: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
            listing.push_str(&format!("    ({family:?}, [{}]),\n", hex.join(", ")));
        }
        panic!("generator streams moved; recomputed table:\n{listing}");
    }
}
