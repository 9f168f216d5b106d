//! The two workloads. Each measures its end-to-end metrics with tracing
//! off; with tracing on it runs the same loop twice (off, then on, for
//! the tracing overhead) and then the per-layer probes.

use std::path::PathBuf;
use std::time::Instant;

use st_campaign::{Campaign, ChunkControl, OutcomeData, OutcomeStore, Scenario, Workload};

use crate::daemon::Daemon;
use crate::grid::{self, Rng};
use crate::layers::{self, FrameJob};
use crate::ledger::{self, Rec};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::util::{digest, peak_rss_mib, steps, timed, Checks, Metrics};

/// The seed whose store digests `reference.json` records.
pub const DEFAULT_SEED: u64 = 1;
const REFERENCE: &str = include_str!("../reference.json");

/// The least time one set-up sample takes (see [`SetupClock`]).
const SETUP_SAMPLE_SECS: f64 = 0.01;
/// Scenarios per paper-grid lap.
const PAPER_LAP: usize = 2_016;
/// Step budget of a scale-fleet round-robin cell.
const FLEET_BUDGET: u64 = 2_000_000;
/// Step budget of the round-robin fleet cells other workloads' traced
/// runs probe the replay drives with.
const FLEET_PROBE_BUDGET: u64 = 200_000;
/// Scenario budget of the traced run's fuzz session, compared with a
/// session at twice it: large enough that a round's bookkeeping over
/// every earlier scenario shows next to the scenarios it executes.
const FUZZ_BUDGET: usize = 512;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub serve_bin: PathBuf,
}

#[derive(Default)]
pub struct Report {
    pub checks: Checks,
    pub metrics: Metrics,
    pub info: Vec<String>,
}

/// Set-up timing spread over the run: one sample before the loop and one
/// after every unit of work, so the reported median meets the same
/// background load as the measured work. A sample is a batch of set-ups
/// sized on warm ones to take at least [`SETUP_SAMPLE_SECS`]: scale-fleet
/// builds its campaign in ~8 µs, and batches sized on the cold first build
/// took 0.2 ms and read 4.8 to 13 µs a set-up within one run, the slow ones
/// right after a lap had swept 400 MiB through the caches.
struct SetupClock<R, F: FnMut() -> R> {
    build: F,
    batch: usize,
    secs: Vec<f64>,
}

impl<R, F: FnMut() -> R> SetupClock<R, F> {
    /// The first set-up's result, and the clock.
    fn start(mut build: F) -> (R, Self) {
        let first = build();
        let mut batch = 1;
        while batch < 1 << 20 {
            let ((), secs) = timed(|| {
                for _ in 0..batch {
                    std::hint::black_box(build());
                }
            });
            if secs >= SETUP_SAMPLE_SECS {
                break;
            }
            batch *= 2;
        }
        let mut clock = SetupClock {
            build,
            batch,
            secs: Vec::new(),
        };
        clock.sample();
        (first, clock)
    }
}

/// A set-up clock, sampled between units of work.
trait Sampler {
    fn sample(&mut self);
    fn median(&self) -> f64;
}

impl<R, F: FnMut() -> R> Sampler for SetupClock<R, F> {
    fn sample(&mut self) {
        let t = Instant::now();
        for _ in 0..self.batch {
            std::hint::black_box((self.build)());
        }
        self.secs
            .push(t.elapsed().as_secs_f64() / self.batch as f64);
    }

    fn median(&self) -> f64 {
        median(&self.secs)
    }
}

/// End-to-end metrics every workload reports. `jobs_ms` are the chunk
/// latencies of a typical lap (see [`Laps::typical_chunks_ms`]):
/// background load comes in phases of seconds, and the per-chunk medians
/// over laps step past them.
fn e2e(
    setup_s: f64,
    scenarios: f64,
    msteps: f64,
    wall_s: f64,
    jobs_ms: &[f64],
    rss: f64,
) -> Metrics {
    let pct = |p| percentile(jobs_ms, p).unwrap_or(0.0);
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("scenarios_per_s", scenarios / wall_s, "1/s");
    m.put("msteps_per_s", msteps / wall_s, "Msteps/s");
    m.put("job_ms_p50", pct(50), "ms");
    m.put("job_ms_p90", pct(90), "ms");
    m.put("peak_rss_mib", rss, "MiB");
    m
}

fn job_info(report: &mut Report, what: &str, jobs_ms: &[f64]) {
    let tail = crate::stats::tail(jobs_ms);
    report.info.push(format!(
        "jobs: {} {what}; the highest percentile with >= {} samples beyond: {}",
        jobs_ms.len(),
        crate::stats::TAIL_BEYOND,
        tail.map_or("none".to_string(), |t| format!(
            "p{} = {:.3} ms",
            t.pct, t.value
        )),
    ));
}

fn reference_digest(workload: &str) -> Option<String> {
    let doc = st_core::json::Json::parse(REFERENCE).ok()?;
    doc.get(workload)?.as_str().map(str::to_string)
}

// ---------------------------------------------------------------------------
// Batch workloads: paper-grid and scale-fleet.
// ---------------------------------------------------------------------------

/// Laps of one campaign through `Campaign::run_chunked` on one worker,
/// each saved once at its end, until `seconds` of laps have run.
struct Laps {
    laps: usize,
    secs: f64,
    lap_secs: Vec<f64>,
    chunk_ms: Vec<f64>,
    scenarios_per_lap: usize,
    steps_per_lap: u64,
    /// Lean fleets in which some process decided.
    decided_fleets: u64,
    store: OutcomeStore,
    digest: String,
}

impl Laps {
    /// A typical lap's chunk times, in ms: for each chunk position, the
    /// median over laps.
    fn typical_chunks_ms(&self) -> Vec<f64> {
        let per_lap = self.chunk_ms.len() / self.laps;
        (0..per_lap)
            .map(|i| {
                let column: Vec<f64> = (0..self.laps)
                    .map(|l| self.chunk_ms[l * per_lap + i])
                    .collect();
                median(&column)
            })
            .collect()
    }

    /// The time of a typical lap: its chunks (see
    /// [`Laps::typical_chunks_ms`]) plus the median over laps of the rest
    /// of a lap (set-up before the first chunk, the save after the last).
    /// A phase of background load shorter than half the run then leaves it
    /// alone even when it is longer than a lap.
    fn typical_lap_secs(&self) -> f64 {
        let per_lap = self.chunk_ms.len() / self.laps;
        let rest: Vec<f64> = (0..self.laps)
            .map(|l| {
                let chunks: f64 = self.chunk_ms[l * per_lap..(l + 1) * per_lap].iter().sum();
                self.lap_secs[l] - chunks / 1e3
            })
            .collect();
        self.typical_chunks_ms().iter().sum::<f64>() / 1e3 + median(&rest)
    }
}

fn laps(
    ctx: &Ctx,
    campaign: &Campaign,
    chunk: usize,
    seconds: f64,
    checks: &mut Checks,
    mut tr: Option<&mut Tracer>,
    between: &mut dyn FnMut(),
) -> Laps {
    let key = ctx.workload.as_str();
    let path = ctx.out_dir.join(format!("{key}.store.json"));
    let mut out = Laps {
        laps: 0,
        secs: 0.0,
        lap_secs: Vec::new(),
        chunk_ms: Vec::new(),
        scenarios_per_lap: campaign.len(),
        steps_per_lap: 0,
        decided_fleets: 0,
        store: OutcomeStore::new(),
        digest: String::new(),
    };
    while out.laps == 0 || out.secs < seconds {
        let mut store = OutcomeStore::new();
        let mut bounds = Vec::with_capacity(campaign.len() / chunk + 1);
        let start = Instant::now();
        let lap = |store: &mut OutcomeStore, bounds: &mut Vec<Instant>| {
            let r = campaign.run_chunked(1, key, None, store, chunk, |_, _, _| {
                bounds.push(Instant::now());
                ChunkControl::Continue
            });
            let t = Instant::now();
            store.save(&path).expect("the output directory is writable");
            (r, t)
        };
        let ((outcomes, finished), _) = match tr.as_deref_mut() {
            Some(tr) => tr.span("campaign.lap", out.laps as u64, |tr| {
                let r = lap(&mut store, &mut bounds);
                let mut prev = start;
                for &b in &bounds {
                    tr.span_at("campaign.chunk", out.laps as u64, prev, b);
                    prev = b;
                }
                tr.span_at("store.save", out.laps as u64, r.1, Instant::now());
                tr.count("campaign.chunks", bounds.len() as u64);
                tr.count("campaign.scenarios", campaign.len() as u64);
                r
            }),
            None => lap(&mut store, &mut bounds),
        };
        let lap_secs = start.elapsed().as_secs_f64();
        out.secs += lap_secs;
        out.lap_secs.push(lap_secs);
        let mut prev = start;
        for &b in &bounds {
            out.chunk_ms.push((b - prev).as_secs_f64() * 1e3);
            prev = b;
        }
        // Output checks, outside the timed window.
        let bytes = std::fs::read(&path).expect("the lap's store was saved");
        let lap_digest = digest(&bytes);
        checks.check(finished && outcomes.len() == campaign.len(), || {
            format!(
                "lap {}: {} of {} outcomes",
                out.laps,
                outcomes.len(),
                campaign.len()
            )
        });
        if out.laps == 0 {
            for (s, o) in campaign.scenarios().iter().zip(&outcomes) {
                checks.outcome(s, o);
                out.steps_per_lap += steps(s, o);
                if let OutcomeData::Lean(l) = &o.data {
                    out.decided_fleets += u64::from(l.decided > 0);
                }
                if grid::deciding(s) {
                    checks.check(
                        matches!(&o.data, OutcomeData::Lean(l)
                            if l.decided > 0 && l.distinct_values.len() == 1),
                        || format!("{}: the deciding fleet did not decide", o.label),
                    );
                }
            }
            out.digest = lap_digest;
        } else {
            checks.check(lap_digest == out.digest, || {
                format!(
                    "lap {}: store digest {lap_digest} != lap 0's {}",
                    out.laps, out.digest
                )
            });
        }
        out.store = store;
        out.laps += 1;
        between();
    }
    let _ = std::fs::remove_file(&path);
    out
}

/// Whether the workload certifies its schedule with the timeliness
/// analyzer before running.
fn certifies(workload: &Workload) -> bool {
    matches!(
        workload,
        Workload::Agreement {
            certify: Some(_),
            ..
        }
    )
}

/// Scenarios whose schedule the timeliness analyzer certifies.
fn certified(scenarios: &[Scenario]) -> u64 {
    scenarios.iter().filter(|s| certifies(&s.workload)).count() as u64
}

fn check_reference(ctx: &Ctx, digest: &str, checks: &mut Checks, info: &mut Vec<String>) {
    info.push(format!("store digest: {digest}"));
    if ctx.seed == DEFAULT_SEED {
        let want = reference_digest(&ctx.workload);
        checks.check(want.as_deref() == Some(digest), || {
            format!("store digest {digest} != reference {want:?} at seed {DEFAULT_SEED}")
        });
    }
}

pub fn paper_grid(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (campaign, mut setup) = SetupClock::start(|| {
        let cells = grid::paper_cells();
        let mut rng = Rng::new(ctx.seed);
        Campaign::from_scenarios(grid::paper_scenarios(&cells, PAPER_LAP, &mut rng))
    });
    let certified_cells = certified(campaign.scenarios());
    batch(
        ctx,
        &mut report,
        &campaign,
        8,
        &mut setup,
        certified_cells,
        "8-scenario chunks",
    );
    report
}

pub fn scale_fleet(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (campaign, mut setup) = SetupClock::start(|| {
        Campaign::from_scenarios(grid::fleet_scenarios(FLEET_BUDGET, true, ctx.seed))
    });
    batch(
        ctx,
        &mut report,
        &campaign,
        1,
        &mut setup,
        0,
        "1-scenario chunks",
    );
    report
}

fn batch(
    ctx: &Ctx,
    report: &mut Report,
    campaign: &Campaign,
    chunk: usize,
    setup: &mut dyn Sampler,
    certified_cells: u64,
    job_what: &str,
) {
    let checks = &mut report.checks;
    if !ctx.trace {
        let l = laps(ctx, campaign, chunk, ctx.seconds, checks, None, &mut || {
            setup.sample()
        });
        fleet_pairs(&l.store, checks);
        check_reference(ctx, &l.digest, checks, &mut report.info);
        report.info.push(format!(
            "counts: laps {} scenarios_per_lap {} steps_per_lap {} decided_fleets {}",
            l.laps, l.scenarios_per_lap, l.steps_per_lap, l.decided_fleets
        ));
        // Throughput and chunk latencies of a typical lap: the machine's
        // background load comes in phases of seconds, and the medians step
        // past them. Pooled over laps, a scale-fleet p50 would fall between
        // the 11th and the 12th of its 22 fleets and flip between them.
        let typical = l.typical_chunks_ms();
        job_info(
            report,
            &format!(
                "typical {job_what} (per position, the median over {} laps)",
                l.laps
            ),
            &typical,
        );
        report.metrics = e2e(
            setup.median(),
            l.scenarios_per_lap as f64,
            l.steps_per_lap as f64 / 1e6,
            l.typical_lap_secs(),
            &typical,
            peak_rss_mib("self").unwrap_or(0.0),
        );
        return;
    }
    let mut tr = Tracer::new();
    // One lap first, untimed, so neither side of the tracing-overhead
    // comparison pays for the first touch of the fleets' memory.
    laps(ctx, campaign, chunk, 0.0, checks, None, &mut || {});
    let plain = laps(
        ctx,
        campaign,
        chunk,
        ctx.seconds / 3.0,
        checks,
        None,
        &mut || {},
    );
    let traced = laps(
        ctx,
        campaign,
        chunk,
        ctx.seconds / 3.0,
        checks,
        Some(&mut tr),
        &mut || {},
    );
    check_reference(ctx, &traced.digest, checks, &mut report.info);
    let rate = |l: &Laps| l.scenarios_per_lap as f64 / l.typical_lap_secs();
    let mut rng = Rng::new(ctx.seed ^ 0x1ED6E5);
    let sample: Vec<Scenario> = if chunk == 1 {
        campaign.scenarios().to_vec()
    } else {
        (0..48)
            .map(|_| campaign.scenarios()[rng.below(campaign.len() as u64) as usize].clone())
            .collect()
    };
    let reps = if chunk == 1 { 1 } else { 3 };
    let overhead = (rate(&plain), rate(&traced));
    fleet_pairs(&traced.store, checks);
    let layers_in = TracedInputs {
        key: ctx.workload.clone(),
        sample,
        reps,
        campaign: campaign.clone(),
        store: traced.store,
        certified_cells,
        chunk_ms: traced.chunk_ms,
        ledger_check: chunk != 1,
        overhead,
    };
    report.metrics = traced_layers(
        ctx,
        &mut tr,
        layers_in,
        &mut report.checks,
        &mut report.info,
    );
}

/// Scale-fleet pairs every cell on the plain and the SoA drive; the two
/// must produce identical outcomes.
fn fleet_pairs(store: &OutcomeStore, checks: &mut Checks) {
    let entries = store.entries();
    for plain in entries
        .iter()
        .filter(|e| e.outcome.label.ends_with("/plain"))
    {
        let stem = plain.outcome.label.trim_end_matches("/plain");
        let soa = entries
            .iter()
            .find(|e| e.outcome.label == format!("{stem}/soa"));
        checks.check(
            soa.is_some_and(|s| s.outcome.data == plain.outcome.data),
            || format!("{stem}: plain and SoA drives disagree"),
        );
    }
}

// ---------------------------------------------------------------------------
// The traced run's layer suite.
// ---------------------------------------------------------------------------

struct TracedInputs {
    /// The key the workload's own store records under.
    key: String,
    /// The workload's own scenarios the ledger re-executes.
    sample: Vec<Scenario>,
    reps: usize,
    /// The workload's own campaign and store (resume, lookup, codec).
    campaign: Campaign,
    store: OutcomeStore,
    certified_cells: u64,
    chunk_ms: Vec<f64>,
    /// Whether the ledger must add up within its tolerance.
    ledger_check: bool,
    /// Scenarios per second untraced and traced.
    overhead: (f64, f64),
}

fn traced_layers(
    ctx: &Ctx,
    tr: &mut Tracer,
    t: TracedInputs,
    checks: &mut Checks,
    info: &mut Vec<String>,
) -> Metrics {
    let mut m = Metrics::default();
    let own: Vec<Rec> = t
        .sample
        .iter()
        .enumerate()
        .filter_map(|(i, s)| ledger::measure(tr, i as u64, s, t.reps))
        .collect();
    // Buckets the workload does not reach are measured on the other
    // workloads' shapes, so every metric is a measurement.
    let mut extra = Vec::new();
    let mut rng = Rng::new(ctx.seed ^ 0xE7);
    if !own.iter().any(|r| r.certify.is_some()) {
        let cells: Vec<_> = grid::paper_cells()
            .into_iter()
            .filter(|c| certifies(&c.workload))
            .collect();
        for (i, s) in grid::paper_sample(&cells, 8, &mut rng).iter().enumerate() {
            extra.extend(ledger::measure(tr, 10_000 + i as u64, s, 3));
        }
    }
    if !own
        .iter()
        .any(|r| matches!(r.kind, ledger::Kind::Lean { .. }))
    {
        let fleet = grid::fleet_scenarios(FLEET_PROBE_BUDGET, false, ctx.seed);
        for (i, s) in fleet
            .iter()
            .filter(|s| !s.label.starts_with("n128/"))
            .enumerate()
        {
            extra.extend(ledger::measure(tr, 20_000 + i as u64, s, 1));
        }
    }
    // Layers this workload does not run are measured on probe inputs, so
    // a traced run reports every per-layer metric; each such metric is
    // named on the `borrowed:` line.
    let mut borrowed = Vec::new();
    let lm = ledger::metrics(&own, &extra, t.certified_cells, &mut borrowed);
    let share = lm.get("scenario.unattributed_share").unwrap_or(0.0);
    info.push(format!(
        "ledger: layers cover Scenario::run to within {:.1}% (tolerance {:.0}%)",
        share * 100.0,
        ledger::LEDGER_TOLERANCE * 100.0
    ));
    if t.ledger_check {
        checks.check(share.abs() <= ledger::LEDGER_TOLERANCE, || {
            format!("ledger: unattributed share {share:.3} exceeds the tolerance")
        });
    }
    m.0.extend(lm.0);
    let sample_campaign = Campaign::from_scenarios(t.sample.clone());
    let sample_run_ns: f64 = own.iter().map(|r| r.run).sum();
    m.0.extend(
        layers::campaign_store(
            tr,
            &sample_campaign,
            sample_run_ns,
            &t.campaign,
            &t.key,
            &t.store,
            &ctx.out_dir,
        )
        .0,
    );
    m.0.extend(layers::chunk_metrics(&t.chunk_ms).0);
    borrowed.push("serve.* and frame.* (the ledger sample as six jobs)".into());
    let (serve, frame_jobs) = serve_probe(ctx, tr, &t.sample, checks);
    let checkpoint_bytes: u64 = frame_jobs
        .iter()
        .map(|(_, _, store)| layers::checkpoint_bytes(store, 8))
        .sum();
    m.put(
        "store.checkpoint_bytes_per_job",
        checkpoint_bytes as f64 / frame_jobs.len().max(1) as f64,
        "count",
    );
    m.0.extend(layers::frames(tr, &frame_jobs).0);
    m.0.extend(serve.0);
    // The fuzz loop and the shrinker: the first of up to four sessions
    // that finds something, so the shrinker is measured too.
    borrowed.push("fuzz.* and shrink.* (the stlab fuzz shape)".into());
    let master = Rng::new(ctx.seed ^ 0xF022).next_u64();
    let mut i = 0;
    let (first, cfg) = loop {
        let cfg = layers::fuzz_config(master.wrapping_add(i), FUZZ_BUDGET, ctx.seed);
        let s = layers::fuzz_session(Some(tr), i, cfg.clone(), checks);
        if s.shrink.is_some() || i == 3 {
            break (s, cfg);
        }
        i += 1;
    };
    checks.check(first.shrink.is_some(), || {
        format!("no finding in {} fuzz sessions", i + 1)
    });
    let mut fuzz = layers::fuzz_metrics(tr, &first, &cfg);
    // `SpecMutator` works on single-word process sets (n <= 64); past that
    // the session's own specs stand in.
    let mut specs: Vec<Scenario> = t
        .sample
        .iter()
        .filter(|s| s.universe.n() <= st_core::PROCSET_CAPACITY)
        .cloned()
        .collect();
    if specs.is_empty() {
        borrowed.push("sched.mutate_us (the fuzz session's specs)".into());
        specs = layers::decode_campaign(&first.store).scenarios().to_vec();
    }
    fuzz.put(
        "sched.mutate_us",
        layers::mutate_us(tr, &specs, ctx.seed),
        "us",
    );
    m.0.extend(fuzz.0);
    let (untraced, traced) = t.overhead;
    m.put("trace.untraced_scenarios_per_s", untraced, "1/s");
    m.put("trace.traced_scenarios_per_s", traced, "1/s");
    m.put("trace.overhead_ratio", untraced / traced, "ratio");
    let path = ctx
        .out_dir
        .join(format!("spans-{}-seed{}.json", ctx.workload, ctx.seed));
    if let Err(e) = tr.write(&path) {
        checks.check(false, || format!("cannot write {}: {e}", path.display()));
    }
    info.push(format!("spans: {}", path.display()));
    info.push(format!("borrowed: {}", borrowed.join(", ")));
    m
}

/// Serving metrics: an `st-serve` daemon (one campaign worker, chunks of
/// 8, a fresh state directory) runs the workload's sample as six jobs; each
/// fetched store must be byte-identical to the same campaign run
/// in-process.
fn serve_probe(
    ctx: &Ctx,
    tr: &mut Tracer,
    sample: &[Scenario],
    checks: &mut Checks,
) -> (Metrics, Vec<FrameJob>) {
    let daemon = match Daemon::spawn(&ctx.serve_bin, ctx.out_dir.join("serve-state-probe")) {
        Ok(d) => d,
        Err(e) => {
            checks.check(false, || e);
            return (Metrics::default(), Vec::new());
        }
    };
    let client = daemon.client();
    let per_job = sample.len().div_ceil(6).max(1);
    let mut timings = Vec::new();
    let mut replays = Vec::new();
    let mut jobs = Vec::new();
    let mut errors = 0;
    for (i, part) in sample.chunks(per_job).enumerate() {
        let key = format!("probe-{i}");
        let campaign = Campaign::from_scenarios(part.to_vec());
        match layers::served_job(tr, &client, i as u64, &key, &campaign) {
            Ok((_, store, timing)) => {
                let (_, local) = layers::run_chunked(&campaign, &key, 8);
                checks.check(store.to_json_string() == local.to_json_string(), || {
                    format!("probe job {key}: served store differs from the in-process run")
                });
                let (compute, checkpoint) =
                    layers::replay_job(tr, i as u64, &key, &campaign, &ctx.out_dir);
                replays.push((timings.len(), compute, checkpoint));
                timings.push(timing);
                jobs.push((key, campaign, store));
            }
            Err(e) => {
                errors += 1;
                checks.check(false, || format!("probe job {key}: {e}"));
            }
        }
    }
    (layers::serve_metrics(&timings, &replays, errors), jobs)
}
