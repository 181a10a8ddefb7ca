//! `serve-small-jobs`: the loadgen mix of tiny jobs (sides 8/12/16;
//! compress, decompress and progressive retrieve; five codecs; four
//! tenants), generated open-loop at 2000 jobs per virtual second during
//! set-up and served by a two-node `hpdr_shard::Cluster` with locality
//! placement and the flight recorder on, as fast as the host allows.
//!
//! The stream is replayed in windows of [`WINDOW`] jobs; one operation
//! is one window served by a fresh cluster. Virtual-time figures
//! (latency percentiles, makespan) are model outputs and are labelled
//! so. The traced run alternates an untraced window with a traced one,
//! followed by the same window's payloads sent straight through
//! `hpdr::compress`/`decompress` and progressive retrieval, so the
//! codec share of a served job can be taken out of its host time.

use crate::check::{range, Tally};
use crate::harness::*;
use crate::trace::Tracer;
use hpdr::{Codec, MgardConfig, SzConfig, ZfpConfig};
use hpdr_core::{DType, DeviceAdapter};
use hpdr_serve::{JobPayload, JobRequest, LoadgenOptions, PayloadCache, ServeCodec, VecSource};
use hpdr_shard::{
    cluster_config, Cluster, ClusterConfig, ClusterLoadOptions, ClusterReport, PlacementPolicy,
};
use std::collections::BTreeMap;
use std::sync::Arc;

const RATE: f64 = 2000.0;
/// Virtual seconds of arrivals generated per set-up: 8000 jobs, so that
/// a seed's mix is close to the mix's average.
const DURATION_S: f64 = 4.0;
/// Jobs per operation. A 400-job window takes ~0.1 s, so a host stall of
/// a few ms moves its time by a few per cent, a quarter of what it does
/// to a 100-job window; 20 windows per pass still give ~250 operations
/// in a 25 s run, so p90 has ~25 samples beyond it.
const WINDOW: usize = 400;
const NODES: usize = 2;

struct Setup {
    windows: Vec<Vec<JobRequest>>,
    cfg: ClusterConfig,
    /// Original field bytes per cube side, for checking replayed outputs.
    inputs: BTreeMap<usize, Vec<u8>>,
}

fn setup(ctx: &Ctx, work: &Arc<dyn DeviceAdapter>, tally: &mut Tally) -> Option<Setup> {
    let opts = ClusterLoadOptions {
        base: LoadgenOptions {
            rps: RATE,
            duration_s: DURATION_S,
            tenants: 4,
            devices: 2,
            seed: ctx.seed,
            ..LoadgenOptions::default()
        },
        nodes: NODES,
        policy: PlacementPolicy::Locality,
        fail: None,
    };
    let mut cache = PayloadCache::new();
    let jobs = match hpdr_serve::loadgen::generate_open_with(&opts.base, work.as_ref(), &mut cache)
    {
        Ok(j) => j,
        Err(e) => {
            tally.fail("job generation", e);
            return None;
        }
    };
    let inputs = [8, 12, 16]
        .into_iter()
        .map(|s| (s, cache.input(s).0.to_vec()))
        .collect();
    let setup = Setup {
        windows: jobs.chunks(WINDOW).map(<[JobRequest]>::to_vec).collect(),
        cfg: cluster_config(&opts),
        inputs,
    };
    // Warm-up: the payload caches were filled while generating; one
    // window fills the pool's arenas and the MGARD contexts.
    if let Some(w) = setup.windows.first() {
        serve_window(&setup, work, w, tally, &Tracer::new(false));
    }
    Some(setup)
}

/// Serve one window; returns the report and the host time of
/// `Cluster::run`. `tr` records spans when it is enabled.
fn serve_window(
    s: &Setup,
    work: &Arc<dyn DeviceAdapter>,
    jobs: &[JobRequest],
    tally: &mut Tally,
    tr: &Tracer,
) -> (ClusterReport, u64) {
    let mut source = VecSource::new(jobs.to_vec());
    let cluster = Cluster::new(s.cfg.clone(), Arc::clone(work));
    let (outcome, t) = timed(|| tr.time("hpdr-shard.run", || cluster.run(&mut source)));
    let report = tr.time("hpdr-shard.report", || ClusterReport::build(outcome));
    let _check = tr.span("bench.check");
    // Scripted cancellations are the mix's own; anything else that did
    // not complete is a failure, and so is a lost job.
    let scripted = jobs.iter().filter(|j| j.cancel_at.is_some()).count() as u64;
    let unexpected = report.cancelled.saturating_sub(scripted);
    let bad = report.failed
        + report.timed_out
        + report.rejected
        + report.retries_exhausted
        + unexpected
        + report.lost.unsigned_abs();
    for _ in 0..report.completed {
        tally.pass();
    }
    for _ in 0..bad {
        tally.fail(
            "served job",
            format!(
                "failed {} timed_out {} rejected {} cancelled {} (scripted {scripted}) lost {}",
                report.failed, report.timed_out, report.rejected, report.cancelled, report.lost
            ),
        );
    }
    (report, t)
}

fn codec_of(c: ServeCodec) -> Codec {
    match c {
        ServeCodec::Mgard { rel_eb } => Codec::Mgard(MgardConfig::relative(rel_eb)),
        ServeCodec::Zfp { rate } => Codec::Zfp(ZfpConfig::fixed_rate(rate)),
        ServeCodec::Huffman => Codec::Huffman,
        ServeCodec::Sz { rel_eb } => Codec::Sz(SzConfig::relative(rel_eb)),
        ServeCodec::Lz4 => Codec::Lz4,
    }
}

/// Send the window's payloads straight through the codecs, each call in
/// its own span, and check what comes back.
fn replay(ctx: &Ctx, tr: &Tracer, s: &Setup, jobs: &[JobRequest], tally: &mut Tally) {
    let a = &ctx.adapter;
    let _r = tr.span("hpdr-serve.codec_replay");
    for j in jobs.iter().filter(|j| j.cancel_at.is_none()) {
        let side = j.payload.meta().shape.dims()[0];
        let orig = &s.inputs[&side];
        match &j.payload {
            JobPayload::Compress { input, meta } => {
                match tr.time("hpdr.compress", || {
                    hpdr::compress(a, input, meta, codec_of(j.codec))
                }) {
                    Ok((stream, _)) if hpdr::detect_codec(&stream) == Some(j.codec.name()) => {
                        tally.pass()
                    }
                    Ok(_) => tally.fail("replayed compress", "stream has the wrong magic"),
                    Err(e) => tally.fail("replayed compress", e),
                }
            }
            JobPayload::Decompress { container } => {
                let mut out = Vec::with_capacity(orig.len());
                let restored = tr.time("hpdr.decompress", || {
                    container.chunks.iter().try_for_each(|(_, stream)| {
                        hpdr::decompress(a, stream).map(|(bytes, _)| out.extend_from_slice(&bytes))
                    })
                });
                match (restored, j.codec) {
                    (Err(e), _) => tally.fail("replayed decompress", e),
                    (Ok(()), ServeCodec::Huffman | ServeCodec::Lz4) => {
                        tally.exact("replayed decompress", orig, &out)
                    }
                    (Ok(()), ServeCodec::Mgard { rel_eb } | ServeCodec::Sz { rel_eb }) => {
                        // Each chunk's bound is relative to its own range,
                        // which is at most the whole field's.
                        tally.bounded(
                            "replayed decompress",
                            orig,
                            &out,
                            DType::F32,
                            rel_eb * range(orig, DType::F32),
                        )
                    }
                    (Ok(()), ServeCodec::Zfp { .. }) => {
                        tally.finite("replayed decompress", orig, &out, DType::F32)
                    }
                }
            }
            JobPayload::Retrieve { set, tolerance, .. } => {
                match tr.time("hpdr-progressive.retrieve", || {
                    set.retrieve::<f32>(a, *tolerance)
                }) {
                    Ok(r) => tally.bounded(
                        "replayed retrieve",
                        orig,
                        &f32_bytes(&r.data),
                        DType::F32,
                        *tolerance,
                    ),
                    Err(e) => tally.fail("replayed retrieve", e),
                }
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let work: Arc<dyn DeviceAdapter> = Arc::new(hpdr_core::CpuParallelAdapter::new(ctx.threads));
    let (s, setup_s) = repeat_setup(|| setup(ctx, &work, &mut report.tally));
    report.setup_s = setup_s;
    let Some(s) = s else {
        return report;
    };

    let tracer = Tracer::new(ctx.trace);
    let untraced = Tracer::new(false);
    let mut pool = PoolMeter::default();
    let (mut jobs, mut completed, mut run_ns, mut traced_jobs) = (0u64, 0u64, 0u64, 0u64);
    let (mut batches, mut cmm_hits, mut cmm_misses, mut steals, mut offhome) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut events, mut dropped, mut p99) = (0u64, 0u64, Vec::new());
    let deadline = Deadline::after(ctx.seconds);
    let mut i = 0usize;
    // Whole passes only, so that every run measures the same mix.
    while deadline.running() || !i.is_multiple_of(s.windows.len()) {
        let w = &s.windows[i % s.windows.len()];
        let (r, t) = pool.measure(1, || {
            serve_window(&s, &work, w, &mut report.tally, &untraced)
        });
        report.op_ns.push(t);
        report.raw_bytes += r.completed_bytes;
        jobs += w.len() as u64;
        completed += r.completed;
        run_ns += t;
        for sh in &r.shards {
            batches += sh.report.batches;
            cmm_hits += sh.report.cmm_hits;
            cmm_misses += sh.report.cmm_misses;
        }
        steals += r.steals;
        offhome += r.remote_fetches;
        if let Some(f) = &r.flight {
            events += f.events.iter().map(|(_, e)| e.len() as u64).sum::<u64>();
            dropped += f.dropped;
        }
        p99.push(r.latency.p99 as f64 / 1e3);
        if ctx.trace {
            let _op = tracer.op("serve-small-jobs.op");
            serve_window(&s, &work, w, &mut report.tally, &tracer);
            replay(ctx, &tracer, &s, w, &mut report.tally);
            traced_jobs += w.len() as u64;
        }
        i += 1;
    }

    report.named(
        "jobs_per_s",
        completed as f64 / (run_ns as f64 / 1e9),
        "1/s",
    );
    report.named("host_us_per_job", run_ns as f64 / 1e3 / jobs as f64, "us");
    report.named("virtual_p99_us (model)", median_f64(p99.clone()), "us");
    let ops = report.op_ns.clone();
    report.percentiles("window_ms", &ops);

    if ctx.trace {
        record_attribution(
            &mut report,
            &tracer,
            &[
                ("hpdr-shard.run", "hpdr-shard.run_ms"),
                ("hpdr-shard.report", "hpdr-shard.report_ms"),
                ("bench.check", "bench.check_ms"),
                ("hpdr.compress", "hpdr.compress_ms"),
                ("hpdr.decompress", "hpdr.decompress_ms"),
                ("hpdr-progressive.retrieve", "hpdr-progressive.retrieve_ms"),
                ("hpdr-serve.codec_replay", "hpdr-serve.codec_replay_self_ms"),
            ],
        );
        let attr = tracer.attribution();
        let total = |span: &str| attr.get(span).map_or(0, |a| a.total_ns) as f64;
        let served = traced_jobs.max(1) as f64;
        let codec_us = total("hpdr-serve.codec_replay") / 1e3 / served;
        report
            .layers
            .insert("hpdr-serve.codec_us_per_job", codec_us);
        report.layers.insert(
            "hpdr-serve.overhead_us_per_job",
            total("hpdr-shard.run") / 1e3 / served - codec_us,
        );
        let windows = report.op_ns.len().max(1) as f64;
        report
            .layers
            .insert("hpdr-serve.batches", batches as f64 / windows);
        report.layers.insert(
            "hpdr-serve.jobs_per_batch",
            completed as f64 / batches.max(1) as f64,
        );
        let lookups = cmm_hits + cmm_misses;
        report.layers.insert(
            "hpdr-serve.cmm_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                cmm_hits as f64 / lookups as f64
            },
        );
        report
            .layers
            .insert("hpdr-shard.steals", steals as f64 / windows);
        report
            .layers
            .insert("hpdr-shard.offhome_fetches", offhome as f64 / windows);
        report
            .layers
            .insert("hpdr-shard.virtual_p99_us", median_f64(p99));
        report
            .layers
            .insert("hpdr-flight.events", events as f64 / windows);
        report
            .layers
            .insert("hpdr-flight.dropped", dropped as f64 / windows);
        record_overhead(&mut report, &tracer.durations("hpdr-shard.run"));
        pool.record(&mut report);
        let input = f32_values(&s.inputs[&16]);
        min_max_probe(&mut report, &ctx.adapter, &input);
        memcpy_probe(&mut report, input.len() * 4);
        ctx.write_spans(&tracer);
    }
    report
}
