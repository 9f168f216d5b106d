//! Per-layer probes of the traced run: campaign drive, store codec, frame
//! codec, serving verbs, the fuzz loop with its shrinker, and the spec
//! mutator. Each times public calls from outside the program.

use std::path::Path;
use std::time::{Duration, Instant};

use st_campaign::{
    Campaign, ChunkControl, FleetReplayDrive, FuzzConfig, FuzzInput, FuzzReport, FuzzSession,
    GeneratorSpec, OutcomeStore, Scenario, ScenarioOutcome, Shrinker, Workload,
};
use st_core::frame::{read_frame, write_frame};
use st_core::json::Json;
use st_core::{ProcSet, Universe, Value};
use st_fd::TimeoutPolicy;
use st_sched::mutate::{SpecMutator, SpecRng};
use st_serve::protocol::{self, campaign_entries, Verb};
use st_serve::{ClientError, JobState, ServeClient, DEFAULT_POLL};

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::util::{nproc, Checks, Metrics};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `campaign` in-process through `Campaign::run_chunked` on one
/// worker.
pub fn run_chunked(
    campaign: &Campaign,
    key: &str,
    chunk: usize,
) -> (Vec<ScenarioOutcome>, OutcomeStore) {
    let mut store = OutcomeStore::new();
    let (outcomes, _) = campaign.run_chunked(1, key, None, &mut store, chunk, |_, _, _| {
        ChunkControl::Continue
    });
    (outcomes, store)
}

/// The store a campaign's outcomes belong to, as `(rank, scenario)` pairs
/// decoded from its canonical file bytes.
pub fn decode_campaign(store: &OutcomeStore) -> Campaign {
    let doc = Json::parse(&store.to_json_string()).expect("stores serialize to valid JSON");
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap_or(&[]);
    Campaign::from_ranked(entries.iter().map(|e| {
        let rank = e
            .get("rank")
            .and_then(Json::as_u64)
            .expect("entries carry ranks") as usize;
        let scenario = st_campaign::store::decode_scenario(e.get("scenario").expect("spec"))
            .expect("stored specs decode");
        (rank, scenario)
    }))
    .expect("store entries are rank-ordered")
}

/// Campaign-drive and store-codec metrics.
///
/// `sample` is the ledger's sample, with `sample_run_ns` its summed
/// `Scenario::run` time; `store` is the workload's own store for
/// `campaign` under `key`.
#[allow(clippy::too_many_arguments)]
pub fn campaign_store(
    tr: &mut Tracer,
    sample: &Campaign,
    sample_run_ns: f64,
    campaign: &Campaign,
    key: &str,
    store: &OutcomeStore,
    dir: &Path,
) -> Metrics {
    let mut m = Metrics::default();
    let workers = nproc();
    let wall = tr.span("campaign.parallel", 0, |_| {
        let t = Instant::now();
        let mut st = OutcomeStore::new();
        sample.run_chunked(
            workers,
            "parallel",
            None,
            &mut st,
            sample.len().max(1),
            |_, _, _| ChunkControl::Continue,
        );
        t.elapsed().as_nanos() as f64
    });
    m.put(
        "campaign.parallel_efficiency",
        sample_run_ns / (wall * workers as f64).max(1.0),
        "ratio",
    );
    let skip = tr.span("campaign.resume_skip", 0, |_| {
        let t = Instant::now();
        let mut st = OutcomeStore::new();
        campaign.run_chunked(1, key, Some(store), &mut st, 8, |_, _, _| {
            ChunkControl::Continue
        });
        t.elapsed().as_nanos() as f64
    });
    m.put(
        "campaign.resume_skip_us_per_scenario",
        skip / campaign.len().max(1) as f64 / 1e3,
        "us",
    );
    let lookups = tr.span("store.lookup", 0, |_| {
        let t = Instant::now();
        for (&rank, scenario) in campaign.ranks().iter().zip(campaign.scenarios()) {
            std::hint::black_box(store.lookup(key, rank, scenario));
        }
        t.elapsed().as_nanos() as f64
    });
    m.put(
        "store.lookup_us",
        lookups / campaign.len().max(1) as f64 / 1e3,
        "us",
    );
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut save = Vec::new();
    let mut text = String::new();
    let path = dir.join("layer-store.json");
    for _ in 0..3 {
        let t = Instant::now();
        text = tr.span("store.encode", 0, |_| store.to_json_string());
        encode.push(ms(t.elapsed()));
        let t = Instant::now();
        let back = tr.span("store.decode", 0, |_| OutcomeStore::from_json_str(&text));
        decode.push(ms(t.elapsed()));
        assert_eq!(
            back.map(|s| s.len()).ok(),
            Some(store.len()),
            "store round trip"
        );
        let t = Instant::now();
        tr.span("store.save", 0, |_| store.save(&path))
            .expect("the output directory is writable");
        save.push(ms(t.elapsed()));
    }
    let _ = std::fs::remove_file(&path);
    m.put("store.encode_ms", median(&encode), "ms");
    m.put("store.decode_ms", median(&decode), "ms");
    m.put("store.save_ms", median(&save), "ms");
    m.put(
        "store.bytes_per_scenario",
        text.len() as f64 / store.len().max(1) as f64,
        "B",
    );
    m
}

/// Bytes the daemon writes for one job: a full store rewrite at every
/// chunk boundary, i.e. the store of the first `chunk·c` entries for
/// every chunk `c`.
pub fn checkpoint_bytes(store: &OutcomeStore, chunk: usize) -> u64 {
    let len = store.len();
    let mut total = 0u64;
    let mut end = chunk.min(len);
    loop {
        let mut prefix = store.clone();
        prefix.retain(|i, _| i < end);
        total += prefix.to_json_string().len() as u64;
        if end >= len {
            return total;
        }
        end = (end + chunk).min(len);
    }
}

/// A served job for the frame probe: its key, campaign and fetched store.
pub type FrameJob = (String, Campaign, OutcomeStore);

/// Frame-codec metrics over the frames a job exchanges: the `submit`
/// request carrying the campaign and the `fetch-outcomes` response
/// carrying its store.
pub fn frames(tr: &mut Tracer, jobs: &[FrameJob]) -> Metrics {
    let mut write_us = Vec::new();
    let mut read_us = Vec::new();
    let mut submit = Vec::new();
    let mut fetch = Vec::new();
    for (unit, (key, campaign, store)) in jobs.iter().enumerate() {
        let unit = unit as u64;
        let req = protocol::request(
            Verb::Submit,
            [
                ("key", Json::str(key.as_str())),
                ("entries", campaign_entries(campaign)),
            ],
        );
        let doc = Json::parse(&store.to_json_string()).expect("stores serialize to valid JSON");
        let resp = protocol::ok_response([
            (
                "job",
                Json::obj([
                    ("key", Json::str(key.as_str())),
                    ("state", Json::str(JobState::Done.wire())),
                    ("total", Json::U64(campaign.len() as u64)),
                    ("completed", Json::U64(campaign.len() as u64)),
                ]),
            ),
            ("store", doc),
        ]);
        for (frame, sizes) in [(&req, &mut submit), (&resp, &mut fetch)] {
            let mut buf = Vec::new();
            let t = Instant::now();
            tr.span("frame.write", unit, |_| write_frame(&mut buf, frame))
                .expect("frames under the cap");
            write_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            let back = tr.span("frame.read", unit, |_| read_frame(&mut buf.as_slice()));
            read_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            assert_eq!(back.ok().as_ref(), Some(frame), "frame round trip");
            tr.count("frame.bytes", buf.len() as u64);
            sizes.push(buf.len() as f64);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut m = Metrics::default();
    m.put("frame.write_us", mean(&write_us), "us");
    m.put("frame.read_us", mean(&read_us), "us");
    m.put("frame.submit_bytes", mean(&submit), "B");
    m.put("frame.fetch_bytes", mean(&fetch), "B");
    m
}

/// Client-verb timings of one served job.
#[derive(Clone, Debug, Default)]
pub struct JobTiming {
    pub total_ms: f64,
    pub submit_ms: f64,
    pub status_ms: Vec<f64>,
    pub fetch_ms: f64,
}

/// One job the way `ServeClient::run_campaign` runs it (submit, poll
/// `status` every `DEFAULT_POLL`, fetch, rank check), each verb in its own
/// span.
pub fn served_job(
    tr: &mut Tracer,
    client: &ServeClient,
    unit: u64,
    key: &str,
    campaign: &Campaign,
) -> Result<(Vec<ScenarioOutcome>, OutcomeStore, JobTiming), ClientError> {
    let mut timing = JobTiming::default();
    let start = Instant::now();
    let result = tr.span("serve.job", unit, |tr| {
        let t = Instant::now();
        tr.span("serve.submit", unit, |_| client.submit(key, campaign))?;
        timing.submit_ms = ms(t.elapsed());
        loop {
            let t = Instant::now();
            let job = tr.span("serve.status", unit, |_| client.status(key))?;
            timing.status_ms.push(ms(t.elapsed()));
            match job.state {
                JobState::Done => break,
                JobState::Queued | JobState::Running => std::thread::sleep(DEFAULT_POLL),
                other => {
                    return Err(ClientError::Failed(format!(
                        "job {key:?} ended {}",
                        other.wire()
                    )))
                }
            }
        }
        tr.count("serve.polls", timing.status_ms.len() as u64);
        tr.count("serve.scenarios", campaign.len() as u64);
        let t = Instant::now();
        let (_, store) = tr.span("serve.fetch", unit, |_| client.fetch_store(key))?;
        timing.fetch_ms = ms(t.elapsed());
        let outcomes: Vec<ScenarioOutcome> = store
            .entries()
            .iter()
            .filter(|e| e.campaign == key)
            .map(|e| e.outcome.clone())
            .collect();
        if outcomes
            .iter()
            .map(|o| o.rank)
            .ne(campaign.ranks().iter().copied())
        {
            return Err(ClientError::Failed(format!("job {key:?}: ranks differ")));
        }
        Ok((outcomes, store))
    });
    timing.total_ms = ms(start.elapsed());
    result.map(|(o, s)| (o, s, timing))
}

/// In-process replay of one job with the daemon's chunking: the compute
/// time, and the checkpoint time (`to_json_string` + write at every chunk
/// boundary), in milliseconds.
pub fn replay_job(
    tr: &mut Tracer,
    unit: u64,
    key: &str,
    campaign: &Campaign,
    dir: &Path,
) -> (f64, f64) {
    let path = dir.join("replay-checkpoint.json");
    let mut checkpoint_ns = 0u128;
    let start = Instant::now();
    tr.span("serve.replay", unit, |_| {
        let mut store = OutcomeStore::new();
        campaign.run_chunked(1, key, None, &mut store, 8, |st, _, _| {
            let t = Instant::now();
            std::fs::write(&path, st.to_json_string()).expect("the output directory is writable");
            checkpoint_ns += t.elapsed().as_nanos();
            ChunkControl::Continue
        });
    });
    let _ = std::fs::remove_file(&path);
    let total = ms(start.elapsed());
    let checkpoint = checkpoint_ns as f64 / 1e6;
    (total - checkpoint, checkpoint)
}

/// Serving metrics from job timings and the in-process replays of a
/// sample of those jobs (`(index into timings, compute ms, checkpoint
/// ms)`).
pub fn serve_metrics(timings: &[JobTiming], replays: &[(usize, f64, f64)], errors: u64) -> Metrics {
    let mut m = Metrics::default();
    let col = |f: fn(&JobTiming) -> f64| timings.iter().map(f).collect::<Vec<_>>();
    let statuses: Vec<f64> = timings
        .iter()
        .flat_map(|t| t.status_ms.iter().copied())
        .collect();
    m.put("serve.submit_ms", median(&col(|t| t.submit_ms)), "ms");
    m.put("serve.status_ms", median(&statuses), "ms");
    m.put("serve.fetch_ms", median(&col(|t| t.fetch_ms)), "ms");
    m.put(
        "serve.polls_per_job",
        statuses.len() as f64 / timings.len().max(1) as f64,
        "count",
    );
    let unattributed: Vec<f64> = replays
        .iter()
        .map(|&(i, compute, checkpoint)| {
            let t = &timings[i];
            t.total_ms - t.submit_ms - t.fetch_ms - compute - checkpoint
        })
        .collect();
    m.put("serve.unattributed_ms", median(&unattributed), "ms");
    m.put("serve.errors", errors as f64, "count");
    m
}

/// The `stlab fuzz` shape: n = 5, `Π = ({0,1}, {0,1,2})`, bound 6, two
/// clean conforming seeds under an agreement and a detector workload.
pub fn fuzz_config(master_seed: u64, budget: usize, seed: u64) -> FuzzConfig {
    let universe = Universe::new(5).expect("n = 5 is in range");
    let conforming = GeneratorSpec::set_timely(
        ProcSet::from_indices([0, 1]),
        ProcSet::from_indices([0, 1, 2]),
        6,
        GeneratorSpec::seeded_random(0),
    );
    let inputs: Vec<Value> = (0..5).map(|v| 1000 + 7 * v).collect();
    FuzzConfig {
        key: "fuzz".into(),
        universe,
        workloads: vec![
            Workload::Agreement {
                t: 2,
                k: 2,
                inputs,
                policy: TimeoutPolicy::Increment,
                certify: None,
            },
            Workload::WideFdConvergence {
                k: 2,
                t: 2,
                policy: TimeoutPolicy::Increment,
                drive: FleetReplayDrive::Plain,
            },
        ],
        seeds: (0..2)
            .map(|workload| FuzzInput {
                spec: conforming.clone(),
                workload,
                seed,
            })
            .collect(),
        master_seed,
        budget,
        batch: 8,
        step_budget: 8_000,
        threads: 1,
        stop_on_finding: false,
    }
}

/// One fuzz session and the shrink of its first finding, with the
/// session and shrink wall times in seconds.
pub struct Session {
    pub report: FuzzReport,
    pub store: OutcomeStore,
    pub fuzz_s: f64,
    pub shrink_s: f64,
    pub shrink: Option<st_campaign::ShrinkReport>,
}

/// Runs a session of `cfg`, then shrinks its first finding; checks that
/// the shrunk scenario still violates under `Scenario::run`.
pub fn fuzz_session(
    tr: Option<&mut Tracer>,
    unit: u64,
    cfg: FuzzConfig,
    checks: &mut Checks,
) -> Session {
    let mut store = OutcomeStore::new();
    let mut local = Tracer::new();
    let tr = tr.unwrap_or(&mut local);
    let t = Instant::now();
    let report = tr.span("fuzz.session", unit, |_| {
        FuzzSession::new(cfg).run(None, Some(&mut store))
    });
    let fuzz_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let shrink = report.findings.first().and_then(|f| {
        tr.span("shrink.shrink", unit, |_| {
            Shrinker::new().shrink(&f.scenario, &f.outcome)
        })
    });
    let shrink_s = t.elapsed().as_secs_f64();
    tr.count("fuzz.executions", report.executed as u64);
    tr.count("fuzz.findings", report.findings.len() as u64);
    tr.count(
        "shrink.oracle_runs",
        shrink.as_ref().map_or(0, |s| s.runs) as u64,
    );
    if !report.findings.is_empty() {
        let still = shrink.as_ref().is_some_and(|s| {
            s.scenario
                .run()
                .violations
                .iter()
                .any(|v| v.kind() == s.kind)
        });
        checks.check(still, || {
            format!("fuzz session {unit}: the shrunk scenario no longer violates")
        });
    }
    Session {
        report,
        store,
        fuzz_s,
        shrink_s,
        shrink,
    }
}

/// Fuzz-loop and shrinker metrics of `first`, a session of `cfg`, plus a
/// session at twice its budget.
pub fn fuzz_metrics(tr: &mut Tracer, first: &Session, cfg: &FuzzConfig) -> Metrics {
    let mut m = Metrics::default();
    let executed = decode_campaign(&first.store);
    let exec_ns: f64 = tr.span("fuzz.reexecute", 0, |tr| {
        executed
            .scenarios()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                tr.span("scenario.run", i as u64, |_| {
                    let t = Instant::now();
                    std::hint::black_box(s.run());
                    t.elapsed().as_nanos() as f64
                })
            })
            .sum()
    });
    let wall_ns = first.fuzz_s * 1e9;
    m.put("fuzz.exec_share", exec_ns / wall_ns, "ratio");
    m.put(
        "fuzz.round_overhead_ms",
        (wall_ns - exec_ns) / first.report.rounds.max(1) as f64 / 1e6,
        "ms",
    );
    let mut double = cfg.clone();
    double.budget *= 2;
    let twice = fuzz_session(Some(tr), 1, double, &mut Checks::default());
    m.put(
        "fuzz.wall_ratio_2x_budget",
        twice.fuzz_s / first.fuzz_s,
        "ratio",
    );
    let r = &first.report;
    m.put("fuzz.coverage", r.coverage as f64, "count");
    m.put("fuzz.corpus_len", r.corpus.len() as f64, "count");
    m.put(
        "fuzz.useful_ratio",
        r.corpus.len() as f64 / r.executed.max(1) as f64,
        "ratio",
    );
    m.put("fuzz.findings", r.findings.len() as f64, "count");
    let shrink = first.shrink.as_ref();
    m.put(
        "shrink.oracle_runs",
        shrink.map_or(0, |s| s.runs) as f64,
        "count",
    );
    m.put("shrink.ms", first.shrink_s * 1e3, "ms");
    m.put(
        "shrink.final_len",
        shrink.map_or(0, |s| s.shrunk_len) as f64,
        "count",
    );
    m
}

/// Mean time of one `SpecMutator::mutate` call over `scenarios`' specs.
pub fn mutate_us(tr: &mut Tracer, scenarios: &[Scenario], seed: u64) -> f64 {
    let mut rng = SpecRng::new(seed);
    let mut total = 0.0;
    let mut calls = 0usize;
    tr.span("sched.mutate", 0, |_| {
        for s in scenarios {
            let mutator = SpecMutator::new(s.universe);
            for _ in 0..4 {
                let t = Instant::now();
                std::hint::black_box(mutator.mutate(&s.generator, &mut rng));
                total += t.elapsed().as_nanos() as f64;
                calls += 1;
            }
        }
    });
    total / calls.max(1) as f64 / 1e3
}

/// `campaign.chunk_ms_p50` / `_p90` from chunk durations.
pub fn chunk_metrics(chunk_ms: &[f64]) -> Metrics {
    let mut m = Metrics::default();
    m.put("campaign.chunk_ms_p50", median(chunk_ms), "ms");
    m.put(
        "campaign.chunk_ms_p90",
        percentile(chunk_ms, 90).unwrap_or(0.0),
        "ms",
    );
    m
}
