//! The repository's end-to-end benchmark: participatory-sensing
//! campaigns driven slot by slot through generator → `ps_intake`
//! admission → engine `step_streaming` → settlement, in one process per
//! workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <metro_cluster|city_online|city_exact> \
//!     [--seed 2013] [--seconds 20] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! campaign twice in this process, untraced then traced, and prints the
//! per-layer metrics, the tracing overhead between the two, and writes
//! the spans to `perfbench/traces/`. The last line of standard output is
//! always `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it carries the details (fingerprints, thread pins, the
//! end-to-end metrics that apply to only some workloads). See
//! `perfbench/README.md` for every metric's definition.

mod campaign;
mod layers;
mod trace;

use campaign::{
    measured_slots, Campaign, Workload, CLUSTER_GRID, ENGINE_THREADS, INPUT_HASH_SLOTS,
    SHARD_THREADS, WARMUP_SLOTS,
};
use layers::median;
use ps_core::aggregator::MixBreakdown;
use std::fmt::Write as _;
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 2013;
const DEFAULT_SECONDS: u64 = 20;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_RUNS: usize = 3;
/// Measured slots per `peak_rss_mb` window; the metric is the median of
/// the windows' high-water marks.
const RSS_WINDOW_SLOTS: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <metro_cluster|city_online|city_exact> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok(out) => {
            println!("{}", out.detail);
            println!(
                "{}",
                result_line(true, out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload.name());
            println!("{}", result_line(false, 1, 0, &[]));
            ExitCode::FAILURE
        }
    }
}

struct Outcome {
    detail: String,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Fails the run when the default seed's generated inputs drifted from
/// the fingerprint recorded in [`Workload::recorded_input_fingerprint`].
fn check_inputs(args: &Args, fingerprint: u64) -> Result<(), String> {
    let recorded = args.workload.recorded_input_fingerprint();
    if args.seed == DEFAULT_SEED && fingerprint != recorded {
        return Err(format!(
            "input fingerprint {fingerprint:016x} of seed {DEFAULT_SEED} drifted from the \
             recorded {recorded:016x}: the workload generator changed"
        ));
    }
    Ok(())
}

/// The end-to-end run: [`SETUP_RUNS`] set-ups, then the measured slots
/// on the last one.
fn untraced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let measured = measured_slots(args.seconds);
    let mut setups = Vec::with_capacity(SETUP_RUNS);
    let mut campaign: Option<Campaign> = None;
    for _ in 0..SETUP_RUNS {
        // Drop the previous set-up first, so one engine lives at a time.
        drop(campaign.take());
        let mut c = Campaign::new(w, args.seed, None);
        setups.push(c.warm_up()?.as_secs_f64());
        campaign = Some(c);
    }
    let mut campaign = campaign.expect("at least one set-up");

    let mut slot_ms = Vec::with_capacity(measured);
    let mut admitted_queries = 0usize;
    let mut query_events = 0usize;
    let mut deferred = 0usize;
    let mut rejected = 0usize;
    let mut latencies: Vec<u64> = Vec::new();
    let mut engine_ticks: Vec<u64> = Vec::new();
    let mut welfare = 0.0;
    let mut breakdown = MixBreakdown::default();
    let mut window_peaks = Vec::new();
    reset_peak_rss()?;
    for i in 0..measured {
        let input = campaign.generate();
        let run = campaign.run_slot(input)?;
        if (i + 1) % RSS_WINDOW_SLOTS == 0 || i + 1 == measured {
            window_peaks.push(peak_rss_mib()?);
            reset_peak_rss()?;
        }
        slot_ms.push(run.ms());
        admitted_queries += run.admitted_queries;
        query_events += run.query_events;
        deferred += run.batch.deferred();
        rejected += run.batch.rejected();
        let stats = run.report.streaming.as_ref().expect("gated in run_slot");
        engine_ticks.extend_from_slice(&stats.decision_ticks);
        latencies.extend_from_slice(&run.latencies);
        welfare += run.report.welfare;
        breakdown.absorb(&run.report.breakdown);
    }
    let input_fingerprint = campaign.input_fingerprint();
    check_inputs(args, input_fingerprint)?;
    latencies.sort_unstable();
    engine_ticks.sort_unstable();

    let n = measured as f64;
    let satisfied = breakdown.point_satisfied as f64 / breakdown.point_total.max(1) as f64;
    let metrics = vec![
        ("setup_s", "s", median(setups.clone())),
        ("slot_ms_p50", "ms", percentile(&slot_ms, 50.0)),
        ("slot_ms_p90", "ms", percentile(&slot_ms, 90.0)),
        (
            "queries_per_s",
            "queries/s",
            admitted_queries as f64 / (slot_ms.iter().sum::<f64>() / 1e3),
        ),
        (
            "decision_ticks_p50",
            "ticks",
            tick_percentile(&latencies, 50.0),
        ),
        (
            "decision_ticks_p99",
            "ticks",
            tick_percentile(&latencies, 99.0),
        ),
        ("welfare_per_slot", "utility", welfare / n),
        ("satisfied_fraction", "ratio", satisfied),
        ("peak_rss_mb", "MiB", median(window_peaks)),
    ];
    let mut extra = vec![
        (
            "engine_decision_ticks_p50",
            "ticks",
            tick_percentile(&engine_ticks, 50.0),
        ),
        (
            "engine_decision_ticks_p99",
            "ticks",
            tick_percentile(&engine_ticks, 99.0),
        ),
        (
            "deferred_fraction",
            "ratio",
            deferred as f64 / query_events.max(1) as f64,
        ),
        (
            "rejected_fraction",
            "ratio",
            rejected as f64 / query_events.max(1) as f64,
        ),
    ];
    if w == Workload::CityExact {
        let gap = breakdown
            .optimality_gap()
            .ok_or("city_exact certified no LP bound")?;
        extra.push(("optimality_gap", "ratio", gap));
    }
    let mut detail = detail_head(args, input_fingerprint, campaign.output_fingerprint());
    let _ = write!(
        detail,
        ",\"measured_slots\":{measured},\"setup_runs_s\":{},\"end_to_end\":{}}}}}",
        json_list(&setups),
        json_metrics(metrics.iter().chain(&extra))
    );
    Ok(Outcome {
        detail,
        attempted: query_events,
        failed: rejected,
        metrics,
    })
}

/// The per-layer run: an untraced pass and a traced pass over the same
/// slots, so the tracing overhead and the scheduler wrapper's
/// transparency (identical output fingerprints) are measured in one
/// process.
fn traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let measured = measured_slots(args.seconds) / 2;

    let mut reference = Campaign::new(w, args.seed, None);
    reference.warm_up()?;
    let mut untraced_ms = Vec::with_capacity(measured);
    for _ in 0..measured {
        let input = reference.generate();
        untraced_ms.push(reference.run_slot(input)?.ms());
    }
    let reference_output = reference.output_fingerprint();
    drop(reference);

    let pass = layers::run(w, args.seed, measured)?;
    check_inputs(args, pass.input_fingerprint)?;
    if pass.output_fingerprint != reference_output {
        return Err(format!(
            "traced output fingerprint {:016x} differs from the untraced {reference_output:016x}",
            pass.output_fingerprint
        ));
    }
    let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/traces")).join(format!(
        "{}-seed{}.jsonl",
        w.name(),
        args.seed
    ));
    pass.tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let traced_p50 = median(pass.slot_ms.clone());
    let untraced_p50 = median(untraced_ms);
    let mut metrics = vec![
        ("slot.traced_ms_p50", "ms", traced_p50),
        ("slot.untraced_ms_p50", "ms", untraced_p50),
        ("slot.tracing_overhead_ms", "ms", traced_p50 - untraced_p50),
    ];
    metrics.extend(pass.metrics());

    let mut detail = detail_head(args, pass.input_fingerprint, pass.output_fingerprint);
    let _ = write!(
        detail,
        ",\"measured_slots\":{measured},\"trace_file\":\"{}\"}}}}",
        path.display()
    );
    let (attempted, failed) = pass.submissions();
    Ok(Outcome {
        detail,
        attempted,
        failed,
        metrics,
    })
}

fn detail_head(args: &Args, input: u64, output: u64) -> String {
    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = match args.workload {
        Workload::MetroCluster => format!(
            "{{\"driver\":1,\"cluster\":{ENGINE_THREADS},\"per_shard\":{SHARD_THREADS},\
             \"shards\":{}}}",
            CLUSTER_GRID * CLUSTER_GRID
        ),
        _ => format!("{{\"driver\":1,\"engine\":{ENGINE_THREADS}}}"),
    };
    format!(
        "{{\"detail\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"host_parallelism\":{host},\
         \"threads\":{threads},\"warmup_slots\":{WARMUP_SLOTS},\
         \"input_fingerprint\":\"{input:016x}\",\"input_fingerprint_slots\":{INPUT_HASH_SLOTS},\
         \"output_fingerprint\":\"{output:016x}\"",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    )
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

fn json_metrics<'a>(
    metrics: impl IntoIterator<Item = &'a (&'static str, &'static str, f64)>,
) -> String {
    let body: Vec<String> = metrics
        .into_iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_list(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
    format!("[{}]", body.join(","))
}

/// Every digit Rust's shortest round-trip formatting gives; JSON has no
/// non-finite numbers, so those become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Nearest-rank percentile (the rule `StreamStats::percentile` uses).
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[rank]
}

fn tick_percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[rank] as f64
}

/// Resets this process's `VmHWM` to its current resident set size.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
