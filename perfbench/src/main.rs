//! The set-timeliness lab's benchmark: one workload per run, its outputs
//! checked, its metrics printed by name and unit. See `README.md`.

mod daemon;
mod grid;
mod layers;
mod ledger;
mod stats;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use util::Metrics;
use workloads::{Ctx, Report};

/// The end-to-end metrics of an untraced run, in output order.
const END_TO_END: &[&str] = &[
    "setup_s",
    "scenarios_per_s",
    "msteps_per_s",
    "job_ms_p50",
    "job_ms_p90",
    "peak_rss_mib",
];

/// The per-layer metrics of a traced run, in output order.
const PER_LAYER: &[&str] = &[
    "sched.build_us",
    "sched.emit_ns_per_step",
    "sched.mutate_us",
    "sched.materialize_ms",
    "stack.build_us",
    "stack.snapshot_us",
    "drive.ns_per_step",
    "drive.plain_ns_per_step.n256",
    "drive.plain_ns_per_step.n1024",
    "drive.soa_ns_per_step.n256",
    "drive.soa_ns_per_step.n1024",
    "drive.wide_plain_ns_per_step.n256",
    "drive.wide_soa_ns_per_step.n256",
    "analyzer.certify_ms",
    "analyzer.certified_cells",
    "scenario.ns_per_step",
    "checker.us_per_scenario",
    "checker.overhead_ratio",
    "scenario.unattributed_share",
    "campaign.chunk_ms_p50",
    "campaign.chunk_ms_p90",
    "campaign.parallel_efficiency",
    "campaign.resume_skip_us_per_scenario",
    "store.record_us",
    "store.lookup_us",
    "store.encode_ms",
    "store.decode_ms",
    "store.save_ms",
    "store.bytes_per_scenario",
    "store.checkpoint_bytes_per_job",
    "frame.write_us",
    "frame.read_us",
    "frame.submit_bytes",
    "frame.fetch_bytes",
    "serve.submit_ms",
    "serve.status_ms",
    "serve.fetch_ms",
    "serve.polls_per_job",
    "serve.unattributed_ms",
    "serve.errors",
    "fuzz.exec_share",
    "fuzz.round_overhead_ms",
    "fuzz.wall_ratio_2x_budget",
    "fuzz.coverage",
    "fuzz.corpus_len",
    "fuzz.useful_ratio",
    "fuzz.findings",
    "shrink.oracle_runs",
    "shrink.ms",
    "shrink.final_len",
    "trace.untraced_scenarios_per_s",
    "trace.traced_scenarios_per_s",
    "trace.overhead_ratio",
];

const USAGE: &str = "usage: perfbench --workload paper-grid|scale-fleet \
--seed N --seconds S --trace 0|1 [--out-dir DIR] [--serve-bin PATH]";

fn parse(args: &[String]) -> Result<Ctx, String> {
    let value = |flag: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).map(String::as_str)
    };
    let number = |flag: &str, default: &str| -> Result<u64, String> {
        let v = value(flag).unwrap_or(default);
        v.parse()
            .map_err(|_| format!("{flag} expects a whole number, got {v:?}"))
    };
    let workload = value("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !["paper-grid", "scale-fleet"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let seconds = number("--seconds", "10")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let out_dir = PathBuf::from(value("--out-dir").unwrap_or(".bench_build/perfbench"));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    Ok(Ctx {
        workload,
        seed: number("--seed", &workloads::DEFAULT_SEED.to_string())?,
        seconds: seconds as f64,
        trace,
        out_dir,
        serve_bin: PathBuf::from(value("--serve-bin").unwrap_or(".bench_build/release/st-serve")),
    })
}

fn result_line(report: &Report, names: &[&str]) -> (String, bool) {
    let mut complete = true;
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let m = report.metrics.0.iter().find(|m| m.name == *name);
            complete &= m.is_some_and(|m| m.value.is_finite());
            let (value, unit) = m.map_or((0.0, "none"), |m| (m.value, m.unit));
            let value = if value.is_finite() { value } else { 0.0 };
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    let correct = complete && report.checks.ok();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.attempted.max(1),
        report.checks.failed + u64::from(!complete),
        metrics.join(", ")
    );
    (line, correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "meta: workload={} seed={} seconds={} trace={} nproc={} campaign_workers=1 \
         daemon_threads=1 commit={} rustc={:?}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        util::nproc(),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
    );
    let run = std::panic::catch_unwind(|| match ctx.workload.as_str() {
        "paper-grid" => workloads::paper_grid(&ctx),
        _ => workloads::scale_fleet(&ctx),
    });
    let report = run.unwrap_or_else(|_| {
        let mut r = Report::default();
        r.checks.check(false, || "the workload panicked".into());
        r.metrics = Metrics::default();
        r
    });
    for line in &report.info {
        println!("{line}");
    }
    for msg in &report.checks.messages {
        println!("FAILED CHECK: {msg}");
    }
    println!(
        "failed_ratio: {}/{} = {}",
        report.checks.failed,
        report.checks.attempted,
        report.checks.failed as f64 / report.checks.attempted.max(1) as f64
    );
    let names = if ctx.trace { PER_LAYER } else { END_TO_END };
    let (line, correct) = result_line(&report, names);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
