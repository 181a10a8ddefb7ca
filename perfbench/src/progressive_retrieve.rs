//! `progressive-retrieve`: a NYX 96³ field is refactored into bit-plane
//! components and written as a BP dataset during set-up; then, in a
//! closed loop, a fresh reader climbs a tolerance ladder, and every
//! rung's result is checked against its tolerance.
//!
//! One operation is one rung. The traced run alternates a ladder through
//! `ProgressiveReader` (untraced) with the same ladder driven through
//! the crate's public parts — BP open and block reads, the fetch
//! planner, per-component Huffman decode, decode-state updates and
//! reconstruction — each in its own span; both must give the same bytes.

use crate::check::{range, Tally};
use crate::harness::*;
use crate::trace::Tracer;
use hpdr_core::{fnv1a, DType, Shape};
use hpdr_io::BpReader;
use hpdr_progressive::refactoring::{level_counts, reconstruct, DecodeState, Manifest};
use hpdr_progressive::{
    plan_fetch, refactor_progressive, write_bp, ProgressiveConfig, ProgressiveReader, MANIFEST_VAR,
};
use std::path::Path;

const SIDE: usize = 96;
/// Tolerance ladder, relative to the data range.
const LADDER: [f64; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];
const CONFIG: ProgressiveConfig = ProgressiveConfig {
    rel_bound: 1e-6,
    plane_bits: 4,
};
const AGGREGATORS: usize = 4;

struct Input {
    bytes: Vec<u8>,
    values: Vec<f32>,
    shape: Shape,
    range: f64,
    refactor_ns: u64,
}

/// One ladder through `ProgressiveReader`: per-rung wall times and
/// restored-byte digests, and the bytes and reads it fetched.
struct Ladder {
    rung_ns: Vec<u64>,
    digests: Vec<u64>,
    fetched_bytes: u64,
    fetch_ops: u64,
    components: usize,
}

fn facade_ladder(ctx: &Ctx, dir: &Path, input: &Input, tally: &mut Tally) -> Option<Ladder> {
    let a = &ctx.adapter;
    let (reader, open_ns) = timed(|| ProgressiveReader::open(dir));
    let mut reader = match reader {
        Ok(r) => r,
        Err(e) => {
            tally.fail("progressive open", e);
            return None;
        }
    };
    let mut ladder = Ladder {
        rung_ns: Vec::new(),
        digests: Vec::new(),
        fetched_bytes: 0,
        fetch_ops: 0,
        components: 0,
    };
    for (k, rel) in LADDER.iter().enumerate() {
        let tol = rel * input.range;
        let (r, t) = timed(|| reader.retrieve::<f32>(a, tol));
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                tally.fail("progressive retrieve", e);
                return None;
            }
        };
        ladder.rung_ns.push(t + if k == 0 { open_ns } else { 0 });
        ladder.components += r.fetched_components;
        let out = f32_bytes(&r.data);
        if r.shape != input.shape || r.bound > tol {
            tally.fail(
                "progressive retrieve",
                format!(
                    "shape {} bound {:e} for tolerance {tol:e}",
                    r.shape, r.bound
                ),
            );
        } else {
            tally.bounded("progressive retrieve", &input.bytes, &out, DType::F32, tol);
        }
        ladder.digests.push(fnv1a(&out));
    }
    ladder.fetched_bytes = reader.bytes_fetched();
    ladder.fetch_ops = reader.fetch_ops();
    Some(ladder)
}

/// The same ladder through the crate's public parts, one span per call.
/// `decoded` accumulates the bytes of decoded symbols.
/// A dataset opened by hand: the BP reader, the manifest, nodes per
/// level, the decoded state and which components it holds.
struct Opened {
    bp: BpReader,
    manifest: Manifest,
    counts: Vec<usize>,
    decode: DecodeState,
    fetched: Vec<bool>,
}

fn first_block(bp: &BpReader, var: &str) -> hpdr::Result<hpdr_io::BlockInfo> {
    bp.blocks(0, var)?
        .first()
        .cloned()
        .ok_or_else(|| hpdr::HpdrError::corrupt(format!("no block for {var}")))
}

/// Each rung must reproduce the digest of the facade's rung in `digests`.
fn traced_ladder(
    ctx: &Ctx,
    tr: &Tracer,
    dir: &Path,
    input: &Input,
    digests: &[u64],
    tally: &mut Tally,
    decoded: &mut u64,
) {
    let a = &ctx.adapter;
    let mut state: Option<Opened> = None;
    for (k, rel) in LADDER.iter().enumerate() {
        let _op = tr.op("progressive-retrieve.op");
        let tol = rel * input.range;
        let rung = (|| {
            if state.is_none() {
                let bp = tr.time("hpdr-io.open", || BpReader::open(dir))?;
                let info = first_block(&bp, MANIFEST_VAR)?;
                let bytes = tr.time("hpdr-io.read_block", || bp.read_block(&info))?;
                let manifest =
                    tr.time("hpdr-progressive.manifest", || Manifest::from_bytes(&bytes))?;
                let counts =
                    tr.time("hpdr-progressive.level_counts", || level_counts(&manifest))?;
                let decode = DecodeState::new(&manifest);
                let fetched = vec![false; manifest.components.len()];
                state = Some(Opened {
                    bp,
                    manifest,
                    counts,
                    decode,
                    fetched,
                });
            }
            let Opened {
                bp,
                manifest,
                counts,
                decode,
                fetched,
            } = state.as_mut().expect("opened above");
            let plan = tr.time("hpdr-progressive.plan", || {
                plan_fetch(manifest, &decode.held(), tol)
            });
            for &idx in &plan.picks {
                if fetched[idx] {
                    continue;
                }
                let _f = tr.span("hpdr-progressive.fetch");
                let c = manifest.components[idx].clone();
                let var = Manifest::var_name(c.level, c.plane);
                let info = first_block(bp, &var)?;
                let blob = tr.time("hpdr-io.read_block", || bp.read_block(&info))?;
                let symbols = tr.time("hpdr-huffman.decode", || {
                    hpdr_huffman::decompress_u32(a, &blob)
                })?;
                *decoded += 4 * symbols.len() as u64;
                tr.time("hpdr-progressive.apply", || {
                    decode.apply(c.level, c.plane, &symbols, counts[c.level as usize])
                })?;
                fetched[idx] = true;
            }
            tr.time("hpdr-progressive.reconstruct", || {
                reconstruct::<f32>(a, manifest, decode)
            })
        })();
        let _c = tr.span("bench.check");
        match rung {
            Err(e) => return tally.fail("staged retrieve", e),
            Ok((data, _)) if fnv1a(&f32_bytes(&data)) == digests[k] => tally.pass(),
            Ok(_) => tally.fail("staged retrieve", "differs from ProgressiveReader's result"),
        }
    }
}

fn setup(ctx: &Ctx, dir: &Path, tally: &mut Tally) -> Option<Input> {
    let field = hpdr_data::datasets::nyx_density(SIDE, ctx.seed.wrapping_mul(1000) + 7);
    let values = f32_values(&field.bytes);
    let (refactoring, refactor_ns) =
        timed(|| refactor_progressive(&ctx.adapter, &values, &field.shape, &CONFIG));
    let written = refactoring.and_then(|r| write_bp(dir, &r, AGGREGATORS));
    if let Err(e) = written {
        tally.fail("refactor and write", e);
        return None;
    }
    let input = Input {
        range: range(&field.bytes, field.dtype),
        bytes: field.bytes,
        values,
        shape: field.shape,
        refactor_ns,
    };
    // Warm-up ladder: fills the MGARD contexts and the pool's arenas.
    facade_ladder(ctx, dir, &input, tally)?;
    Some(input)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let dir = ctx.scratch.join("progressive.bp");
    let (input, setup_s) = repeat_setup(|| setup(ctx, &dir, &mut report.tally));
    report.setup_s = setup_s;
    let Some(input) = input else {
        return report;
    };

    let tracer = Tracer::new(ctx.trace);
    let mut pool = PoolMeter::default();
    let cmm0 = hpdr_mgard::context_cache().stats();
    let (mut ladders, mut fetched, mut fetch_ops, mut components) = (0u64, 0u64, 0u64, 0usize);
    let mut decoded = 0u64;
    let raw = input.bytes.len() as u64;
    let deadline = Deadline::after(ctx.seconds);
    while deadline.running() {
        let Some(l) = pool.measure(LADDER.len() as u64, || {
            facade_ladder(ctx, &dir, &input, &mut report.tally)
        }) else {
            continue;
        };
        report.raw_bytes += raw * l.rung_ns.len() as u64;
        report.op_ns.extend(&l.rung_ns);
        ladders += 1;
        fetched = l.fetched_bytes;
        fetch_ops = l.fetch_ops;
        components = l.components;
        if ctx.trace {
            traced_ladder(
                ctx,
                &tracer,
                &dir,
                &input,
                &l.digests,
                &mut report.tally,
                &mut decoded,
            );
        }
    }

    let rungs = report.op_ns.clone();
    report.percentiles("retrieve_ms", &rungs);
    report.named("fetched_mib", fetched as f64 / (1 << 20) as f64, "MiB");
    report.named("ladders", ladders as f64, "count");

    if ctx.trace {
        record_attribution(
            &mut report,
            &tracer,
            &[
                ("hpdr-io.open", "hpdr-io.open_ms"),
                ("hpdr-io.read_block", "hpdr-io.read_block_ms"),
                ("hpdr-huffman.decode", "hpdr-huffman.decode_ms"),
                ("hpdr-progressive.manifest", "hpdr-progressive.manifest_ms"),
                (
                    "hpdr-progressive.level_counts",
                    "hpdr-progressive.level_counts_ms",
                ),
                ("hpdr-progressive.apply", "hpdr-progressive.apply_ms"),
                ("hpdr-progressive.fetch", "hpdr-progressive.fetch_self_ms"),
                (
                    "hpdr-progressive.reconstruct",
                    "hpdr-progressive.reconstruct_ms",
                ),
                ("bench.check", "bench.check_ms"),
            ],
        );
        let attr = tracer.attribution();
        let traced_ops = report.layers["bench.traced_ops"];
        let per_op = |span: &str| attr.get(span).map_or(0, |a| a.total_ns) as f64 / traced_ops;
        report.layers.insert(
            "hpdr-progressive.plan_us",
            per_op("hpdr-progressive.plan") / 1e3,
        );
        report.layers.insert(
            "hpdr-progressive.fetch_ms",
            per_op("hpdr-progressive.fetch") / 1e6,
        );
        let decode_ns = attr
            .get("hpdr-huffman.decode")
            .map_or(0, |a| a.self_ns)
            .max(1);
        report.layers.insert(
            "hpdr-huffman.decode_gbps",
            decoded as f64 / decode_ns as f64,
        );
        report.layers.insert(
            "hpdr-progressive.refactor_ms",
            input.refactor_ns as f64 / 1e6,
        );
        report
            .layers
            .insert("hpdr-progressive.components_fetched", components as f64);
        report
            .layers
            .insert("hpdr-progressive.fetch_ops", fetch_ops as f64);
        // `reconstruct` recomposes internally; the same hierarchy's
        // recompose is timed on its own to show its share.
        let h = hpdr_mgard::Hierarchy::new(&input.shape);
        let mut work: Vec<f64> = input.values.iter().map(|&v| v as f64).collect();
        let t = median_ns(5, || {
            hpdr_mgard::decompose::recompose(&ctx.adapter, &mut work, &h)
        });
        report.layers.insert("hpdr-mgard.recompose_ms", t / 1e6);
        let traced = tracer.op_totals_without("bench.check");
        record_overhead(&mut report, &traced);
        pool.record(&mut report);
        record_cmm(&mut report, cmm0);
        dem_speedup_probe(&mut report, ctx, &input.values, &input.shape);
        min_max_probe(&mut report, &ctx.adapter, &input.values);
        memcpy_probe(&mut report, raw as usize);
        ctx.write_spans(&tracer);
    }
    report
}
