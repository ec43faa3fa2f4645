//! Regenerates the paper's figures.
//!
//! ```text
//! repro [--scale full|test|bench|smoke|city|metro] [--threads N] [--shards g] \
//!       [--streaming] [fig2 … | all]
//! ```
//!
//! `--threads N` sets the worker count for the engine's parallel
//! evaluate phases (0 = auto-detect); outputs are bit-identical for
//! every value, so it only changes wall-clock time.
//!
//! `--shards g` sets the federation tile-grid side: `1` runs the single
//! engine, `g >= 2` a `g × g` `ps_cluster::ShardedAggregator` (g² tile
//! engines, halo routing, global settlement). City and metro scales
//! default to 2. Unlike `--threads`, sharding may change results on
//! cross-tile workloads (see docs/PERFORMANCE.md for the measured
//! welfare gap).
//!
//! `--streaming` runs the streaming-intake scenario instead of the
//! figure experiments: bursty mid-slot arrivals through admission
//! control into the online double auction, raced against batch Alg5 on
//! the identical admitted stream (`results/streaming.csv`).
//!
//! Prints each figure's series as an aligned table and writes
//! `results/<figure>.csv`.

use ps_sim::config::Scale;
use ps_sim::experiments::ExperimentId;
use ps_sim::report;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::full();
    let mut threads: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut streaming = false;
    let mut wanted: Vec<ExperimentId> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(v) = iter.next().map(String::as_str) else {
                    eprintln!("--scale expects a value (full|test|bench|smoke|city|metro)");
                    std::process::exit(2);
                };
                scale = match v {
                    "full" => Scale::full(),
                    "test" => Scale::test(),
                    "bench" => Scale::bench(),
                    "smoke" => Scale::smoke(),
                    "city" => Scale::city(),
                    "metro" => Scale::metro(),
                    other => {
                        eprintln!("unknown scale '{other}' (full|test|bench|smoke|city|metro)");
                        std::process::exit(2);
                    }
                };
            }
            "--threads" => {
                let parsed = iter.next().and_then(|v| v.parse::<usize>().ok());
                let Some(n) = parsed else {
                    eprintln!("--threads expects a number (0 = auto)");
                    std::process::exit(2);
                };
                threads = Some(n);
            }
            "--shards" => {
                let parsed = iter.next().and_then(|v| v.parse::<usize>().ok());
                let Some(g) = parsed.filter(|&g| g >= 1) else {
                    eprintln!("--shards expects a tile-grid side >= 1");
                    std::process::exit(2);
                };
                shards = Some(g);
            }
            "--streaming" => streaming = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            "all" => wanted.extend(ExperimentId::ALL),
            name => match ExperimentId::parse(name) {
                Some(id) => wanted.push(id),
                None => {
                    eprintln!("unknown experiment '{name}'");
                    eprintln!("available: {} all", experiment_names());
                    std::process::exit(2);
                }
            },
        }
    }
    if wanted.is_empty() && !streaming {
        wanted.extend(ExperimentId::ALL);
    }
    if let Some(n) = threads {
        scale.threads = n;
    }
    if let Some(g) = shards {
        scale.shards = g;
    }

    let results_dir = PathBuf::from("results");
    if streaming {
        let started = Instant::now();
        eprintln!("running streaming …");
        let (summary, table) = ps_sim::streaming::run(&scale);
        print!("{}", report::render(&table));
        println!();
        println!(
            "streaming summary: welfare {:.1} vs batch {:.1} (gap {:+.2}%), \
             decision ticks p50 {} / p99 {}, {}/{} matched at arrival, \
             {} admitted / {} deferred / {} rejected",
            summary.streaming_welfare,
            summary.batch_welfare,
            summary.welfare_gap * 100.0,
            summary.p50_decision_ticks,
            summary.p99_decision_ticks,
            summary.matched_at_arrival,
            summary.query_arrivals,
            summary.admitted,
            summary.deferred,
            summary.rejected,
        );
        if let Err(e) = report::write_csv(&table, &results_dir) {
            eprintln!("warning: could not write CSV for {}: {e}", table.id);
        }
        eprintln!("streaming done in {:.1?}", started.elapsed());
    }
    for id in wanted {
        let started = Instant::now();
        eprintln!("running {} …", id.name());
        let tables = id.run(&scale);
        let elapsed = started.elapsed();
        for table in &tables {
            print!("{}", report::render(table));
            println!();
            if let Err(e) = report::write_csv(table, &results_dir) {
                eprintln!("warning: could not write CSV for {}: {e}", table.id);
            }
        }
        eprintln!("{} done in {:.1?}", id.name(), elapsed);
    }
}

/// Every experiment's CLI name, in [`ExperimentId::ALL`] order.
fn experiment_names() -> String {
    ExperimentId::ALL.map(|id| id.name()).join(" ")
}

/// The `--help` text.
fn usage() -> String {
    format!(
        "usage: repro [--scale full|test|bench|smoke|city|metro] [--threads N] \
         [--shards g] [--streaming] [{} | all]",
        experiment_names()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_experiment() {
        let usage = usage();
        let words: Vec<&str> = usage
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .collect();
        for id in ExperimentId::ALL {
            assert!(words.contains(&id.name()), "usage omits {}", id.name());
        }
    }
}
