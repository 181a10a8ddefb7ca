//! HPDR benchmark: four seeded workloads through the public API.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every line before the last is the human-readable report (provenance,
//! the self-test, the workload's own named metrics, per-layer figures).
//! The last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

mod check;
mod codec_mix_io;
mod harness;
mod heap;
mod mgard_timesteps;
mod progressive_retrieve;
mod serve_small_jobs;
mod trace;

use harness::{median_f64, quantile_ms, Ctx, Report};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 4] = [
    "mgard-timesteps",
    "codec-mix-io",
    "progressive-retrieve",
    "serve-small-jobs",
];

/// End-to-end metrics, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("gbps", "GB/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, as listed in `BENCHMARK.json`. A workload that
/// bypasses a layer reports 0 for it, as does a ratio whose base is 0.
const PER_LAYER: [(&str, &str); 60] = [
    ("hpdr.compress_ms", "ms"),
    ("hpdr.compress_self_ms", "ms"),
    ("hpdr.decompress_self_ms", "ms"),
    ("hpdr.decompress_ms", "ms"),
    ("hpdr-mgard.decompose_ms", "ms"),
    ("hpdr-mgard.quantize_ms", "ms"),
    ("hpdr-mgard.recompose_ms", "ms"),
    ("hpdr-mgard.dequantize_ms", "ms"),
    ("hpdr-huffman.encode_ms", "ms"),
    ("hpdr-huffman.decode_ms", "ms"),
    ("hpdr-huffman.decode_gbps", "GB/s"),
    ("hpdr-zfp.compress_ms", "ms"),
    ("hpdr-zfp.decompress_ms", "ms"),
    ("hpdr-baselines.sz_compress_ms", "ms"),
    ("hpdr-baselines.sz_decompress_ms", "ms"),
    ("hpdr-baselines.lz4_compress_ms", "ms"),
    ("hpdr-baselines.lz4_decompress_ms", "ms"),
    ("hpdr-kernels.min_max_ms", "ms"),
    ("hpdr-kernels.min_max_gbps", "GB/s"),
    ("hpdr-core.pool_jobs_per_op", "count"),
    ("hpdr-core.pool_tasks_per_job", "count"),
    ("hpdr-core.wakeups_per_job", "count"),
    ("hpdr-core.scratch_reuse_ratio", "ratio"),
    ("hpdr-core.cmm_hit_ratio", "ratio"),
    ("hpdr-core.dem_speedup", "x"),
    ("hpdr-io.create_ms", "ms"),
    ("hpdr-io.put_ms", "ms"),
    ("hpdr-io.close_ms", "ms"),
    ("hpdr-io.open_ms", "ms"),
    ("hpdr-io.read_block_ms", "ms"),
    ("hpdr-io.bytes_written", "bytes"),
    ("hpdr-progressive.refactor_ms", "ms"),
    ("hpdr-progressive.manifest_ms", "ms"),
    ("hpdr-progressive.level_counts_ms", "ms"),
    ("hpdr-progressive.plan_us", "us"),
    ("hpdr-progressive.fetch_ms", "ms"),
    ("hpdr-progressive.fetch_self_ms", "ms"),
    ("hpdr-progressive.apply_ms", "ms"),
    ("hpdr-progressive.reconstruct_ms", "ms"),
    ("hpdr-progressive.retrieve_ms", "ms"),
    ("hpdr-progressive.components_fetched", "count"),
    ("hpdr-progressive.fetch_ops", "count"),
    ("hpdr-serve.codec_replay_self_ms", "ms"),
    ("hpdr-serve.codec_us_per_job", "us"),
    ("hpdr-serve.overhead_us_per_job", "us"),
    ("hpdr-serve.batches", "count"),
    ("hpdr-serve.jobs_per_batch", "count"),
    ("hpdr-serve.cmm_hit_ratio", "ratio"),
    ("hpdr-shard.run_ms", "ms"),
    ("hpdr-shard.report_ms", "ms"),
    ("hpdr-shard.steals", "count"),
    ("hpdr-shard.offhome_fetches", "count"),
    ("hpdr-shard.virtual_p99_us", "us"),
    ("hpdr-flight.events", "count"),
    ("hpdr-flight.dropped", "count"),
    ("host.memcpy_gbps", "GB/s"),
    ("bench.check_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("bench.traced_ops", "count"),
    ("bench.trace_overhead", "ratio"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process (VmHWM), in MiB: printed for
/// reference, not gated (see [`heap`]).
fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the workspace's sources, in path order: identifies the
/// code measured when the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", hpdr_core::fnv1a(&all))
}

fn provenance(args: &Args, ctx: &Ctx) -> String {
    let tier = hpdr_kernels::kernels().tier.name();
    let forced = std::env::var("HPDR_FORCE_SCALAR").unwrap_or_default();
    format!(
        "provenance {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"threads\":{},\"pool_participants\":{},\"simd_tier\":\"{tier}\",\"HPDR_FORCE_SCALAR\":\"{forced}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"source_fnv1a\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hpdr_core::pool::default_threads(),
        ctx.threads,
        hpdr_core::WorkerPool::global().workers() + 1,
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
        source_digest(),
    )
}

fn run(ctx: &Ctx, workload: &str) -> Report {
    match workload {
        "mgard-timesteps" => mgard_timesteps::run(ctx),
        "codec-mix-io" => codec_mix_io::run(ctx),
        "progressive-retrieve" => progressive_retrieve::run(ctx),
        "serve-small-jobs" => serve_small_jobs::run(ctx),
        other => unreachable!("workload '{other}' passed argument parsing"),
    }
}

/// Values of the [`END_TO_END`] metrics, in that order.
fn end_to_end(report: &Report) -> [f64; 5] {
    let busy_s = report.op_ns.iter().sum::<u64>() as f64 / 1e9;
    [
        median_f64(report.setup_s.clone()),
        report.raw_bytes as f64 / busy_s / 1e9,
        quantile_ms(&report.op_ns, 0.5),
        quantile_ms(&report.op_ns, 0.9),
        heap::peak_mib(),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = hpdr_core::pool::default_threads();
    let out = Path::new(".perfbench");
    let scratch = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        adapter: hpdr_core::CpuParallelAdapter::new(threads),
        threads,
        spans_path: out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed)),
        scratch,
    };
    println!("{}", provenance(&args, &ctx));
    let self_test = check::self_test(&ctx.adapter);
    match &self_test {
        Ok(line) => println!("{line}"),
        Err(e) => println!("SELF-TEST FAILED: {e}"),
    }

    let report = run(&ctx, args.workload);
    if let Err(e) = std::fs::remove_dir_all(&ctx.scratch) {
        eprintln!("warning: cannot remove {}: {e}", ctx.scratch.display());
    }

    let e2e = end_to_end(&report);
    let t = &report.tally;
    println!(
        "== {} (seed {}, {} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        println!("metric {name} {value} {unit}");
    }
    println!("metric op_samples {} count", report.op_ns.len());
    println!("metric peak_rss_mib {} MiB", vm_hwm_mib());
    println!(
        "metric fail_ratio {} ratio ({} of {} checked outputs)",
        t.fail_ratio(),
        t.failed,
        t.attempted
    );
    println!("metric max_rel_err {} ratio", t.max_rel_err);
    println!("metric setup_s_each {:?} s", report.setup_s);
    for (name, value, unit) in &report.named {
        println!("metric {name} {value} {unit}");
    }
    for reason in &t.reasons {
        println!("failure: {reason}");
    }
    let layers = &report.layers;
    if args.trace {
        for (name, unit) in PER_LAYER {
            println!(
                "layer {name} {} {unit}",
                layers.get(name).copied().unwrap_or(0.0)
            );
        }
        for note in &report.notes {
            println!("{note}");
        }
        println!("spans written to {}", ctx.spans_path.display());
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, layers.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let correct =
        self_test.is_ok() && t.failed == 0 && t.attempted > 0 && !report.op_ns.is_empty() && finite;
    let mut json = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        t.attempted.max(1),
        t.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let expected: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(names, expected);
    }
}
