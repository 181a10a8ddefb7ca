//! What every workload shares: the run context, the report it fills,
//! sample statistics, and the reference probes of the traced run.

use crate::check::Tally;
use hpdr_core::{
    CmmStats, CpuParallelAdapter, DeviceAdapter, PoolStats, SerialAdapter, Shape, WorkerPool,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is repeated at least [`SETUPS`] times per run, and a cheap one
/// until [`SETUP_SPAN_S`] seconds have gone or [`MAX_SETUPS`] are done;
/// `setup_s` is the median.
pub const SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 15;
pub const SETUP_SPAN_S: f64 = 1.5;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `CpuParallelAdapter::new(nproc)`: never more threads than cores.
    pub adapter: CpuParallelAdapter,
    pub threads: usize,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub scratch: PathBuf,
    /// Where the traced run leaves its spans.
    pub spans_path: PathBuf,
}

impl Ctx {
    /// Write the recorded spans out; the run ends right after.
    pub fn write_spans(&self, tracer: &crate::trace::Tracer) {
        if let Err(e) = std::fs::write(&self.spans_path, tracer.to_jsonl()) {
            eprintln!("could not write {}: {e}", self.spans_path.display());
        }
    }
}

#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed (untraced) operation.
    pub op_ns: Vec<u64>,
    /// Uncompressed bytes the timed operations processed.
    pub raw_bytes: u64,
    /// The workload's own end-to-end figures, printed by name.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics of the traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form report lines.
    pub notes: Vec<String>,
}

impl Report {
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    /// Record a percentile pair of `samples_ns` under `<stem>_p50`/`_p90`.
    pub fn percentiles(&mut self, stem: &str, samples_ns: &[u64]) {
        let n = samples_ns.len() as f64;
        self.named(&format!("{stem}_p50"), quantile_ms(samples_ns, 0.5), "ms");
        self.named(&format!("{stem}_p90"), quantile_ms(samples_ns, 0.9), "ms");
        self.named(&format!("{stem}_samples"), n, "count");
    }
}

/// Nearest-rank quantile of nanosecond samples, in milliseconds.
pub fn quantile_ms(samples_ns: &[u64], q: f64) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e6
}

pub fn median_f64(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Time one call, in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// Repeat the whole set-up (see [`SETUPS`]); returns the last result
/// and each repetition's wall seconds. A short set-up is repeated more
/// often, so that its median is not one moment of a noisy host.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut last = None;
    let mut secs: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    while secs.len() < SETUPS
        || (secs.len() < MAX_SETUPS && secs.iter().sum::<f64>() < SETUP_SPAN_S)
    {
        let (s, t) = timed(&mut setup);
        secs.push(t as f64 / 1e9);
        last = Some(s);
    }
    (last.expect("SETUPS >= 1"), secs)
}

/// `f` over `items` on `threads` scoped threads (never more), in order.
/// Set-up uses it to generate inputs; the results do not depend on it.
pub fn par_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.clamp(1, items.len().max(1));
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                s.spawn(move || {
                    (t..items.len())
                        .step_by(threads)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("input generation thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// Accumulated worker-pool activity of the timed operations.
#[derive(Default)]
pub struct PoolMeter {
    total: PoolStats,
    ops: u64,
}

impl PoolMeter {
    /// Run `f`, which performs `ops` operations, and add its activity.
    pub fn measure<R>(&mut self, ops: u64, f: impl FnOnce() -> R) -> R {
        let before = WorkerPool::global().stats();
        let r = f();
        let d = WorkerPool::global().stats().since(before);
        self.total.jobs += d.jobs;
        self.total.wakeups += d.wakeups;
        self.total.tasks += d.tasks;
        self.total.scratch_reuses += d.scratch_reuses;
        self.total.scratch_allocs += d.scratch_allocs;
        self.ops += ops;
        r
    }

    /// `hpdr-core.pool_*`, `.wakeups_per_job` and `.scratch_reuse_ratio`;
    /// a ratio whose base is zero reads 0.
    pub fn record(&self, report: &mut Report) {
        let t = self.total;
        let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        report
            .layers
            .insert("hpdr-core.pool_jobs_per_op", per(t.jobs, self.ops));
        report
            .layers
            .insert("hpdr-core.pool_tasks_per_job", per(t.tasks, t.jobs));
        report
            .layers
            .insert("hpdr-core.wakeups_per_job", per(t.wakeups, t.jobs));
        report.layers.insert(
            "hpdr-core.scratch_reuse_ratio",
            per(t.scratch_reuses, t.scratch_reuses + t.scratch_allocs),
        );
    }
}

/// `hpdr-core.cmm_hit_ratio`: hits over lookups of the MGARD context
/// cache between two snapshots (0 when there were none).
pub fn record_cmm(report: &mut Report, before: CmmStats) {
    let after = hpdr_mgard::context_cache().stats();
    let (h, m) = (after.hits - before.hits, after.misses - before.misses);
    let ratio = if h + m == 0 {
        0.0
    } else {
        h as f64 / (h + m) as f64
    };
    report.layers.insert("hpdr-core.cmm_hit_ratio", ratio);
}

/// Median wall time of `reps` calls, in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    median_f64((0..reps).map(|_| timed(&mut f).1 as f64).collect())
}

/// `host.memcpy_gbps`: copy bandwidth on a buffer of the workload's own
/// size, the reference for the stage GB/s figures.
pub fn memcpy_probe(report: &mut Report, bytes: usize) {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    let t = median_ns(15, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    });
    report.layers.insert("host.memcpy_gbps", bytes as f64 / t);
}

/// `hpdr-kernels.min_max_gbps` over the workload's f32 input.
pub fn min_max_probe(report: &mut Report, adapter: &dyn DeviceAdapter, data: &[f32]) {
    let t = median_ns(15, || {
        std::hint::black_box(hpdr_kernels::min_max(adapter, std::hint::black_box(data)));
    });
    report
        .layers
        .insert("hpdr-kernels.min_max_gbps", (data.len() * 4) as f64 / t);
}

/// `hpdr-core.dem_speedup`: MGARD decompose of `data` on the serial
/// adapter over the same on the nproc-thread adapter.
pub fn dem_speedup_probe(report: &mut Report, ctx: &Ctx, data: &[f32], shape: &Shape) {
    let h = hpdr_mgard::Hierarchy::new(shape);
    let base: Vec<f64> = data.iter().map(|&v| v as f64).collect();
    let mut work = base.clone();
    let mut run = |a: &dyn DeviceAdapter| {
        median_ns(3, || {
            work.copy_from_slice(&base);
            hpdr_mgard::decompose::decompose(a, &mut work, &h);
        })
    };
    let serial = run(&SerialAdapter::new());
    let parallel = run(&ctx.adapter);
    report
        .layers
        .insert("hpdr-core.dem_speedup", serial / parallel);
}

/// Per-layer times from the traced operations: for each `(span, metric)`
/// pair, the span's self time per traced operation, in ms. Also records
/// the unattributed remainder and prints it for every operation.
pub fn record_attribution(
    report: &mut Report,
    tracer: &crate::trace::Tracer,
    names: &[(&'static str, &'static str)],
) {
    let attr = tracer.attribution();
    let ops = tracer.ops();
    let n = ops.len().max(1) as f64;
    for &(span, metric) in names {
        let self_ns = attr.get(span).map_or(0, |a| a.self_ns);
        report.layers.insert(metric, self_ns as f64 / 1e6 / n);
    }
    let unattributed: u64 = ops.iter().map(|o| o.unattributed_ns).sum();
    report
        .layers
        .insert("bench.unattributed_ms", unattributed as f64 / 1e6 / n);
    report.layers.insert("bench.traced_ops", ops.len() as f64);
    for o in &ops {
        report.notes.push(format!(
            "traced op {:>4}: {:>10.3} ms, unattributed_ms {:.4}",
            o.op,
            o.total_ns as f64 / 1e6,
            o.unattributed_ns as f64 / 1e6
        ));
    }
}

/// `bench.trace_overhead`: median traced time over median untraced
/// time (`report.op_ns`) of the same work in the same run, minus one.
pub fn record_overhead(report: &mut Report, traced_ns: &[u64]) {
    let med = |v: &[u64]| median_f64(v.iter().map(|&x| x as f64).collect());
    let (t, u) = (med(traced_ns), med(&report.op_ns));
    let overhead = if u > 0.0 { t / u - 1.0 } else { 0.0 };
    report.layers.insert("bench.trace_overhead", overhead);
    report.notes.push(format!(
        "tracing overhead: traced median {:.3} ms vs untraced {:.3} ms ({:+.2}%)",
        t / 1e6,
        u / 1e6,
        overhead * 100.0
    ));
}

/// Whether the measuring loop should go on.
pub struct Deadline(Instant, Duration);

impl Deadline {
    /// Start the measured phase: it runs for `seconds`, and the heap
    /// peak (`peak_heap_mib`) counts from here, so set-up is left out.
    pub fn after(seconds: f64) -> Deadline {
        crate::heap::reset_peak();
        Deadline(Instant::now(), Duration::from_secs_f64(seconds))
    }

    pub fn running(&self) -> bool {
        self.0.elapsed() < self.1
    }
}

/// Raw little-endian bytes of an f32 slice.
pub fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// f32 values of raw little-endian bytes.
pub fn f32_values(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}
