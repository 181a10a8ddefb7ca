//! `mgard-timesteps`: one caller in a closed loop round-trips a series
//! of NYX-like 96³ f32 timesteps through MGARD-X at rel 1e-3.
//!
//! The traced run alternates a facade round trip (untraced, the
//! reference) with the same round trip driven through the codec's
//! public stages, each in its own span: min_max → decompose → quantize
//! → Huffman encode, then Huffman decode → dequantize → recompose. The
//! staged chain must reproduce the facade's Huffman payload and its
//! decompressed bytes exactly, so the split is of the real work.

use crate::check::{range, Tally};
use crate::harness::*;
use crate::trace::Tracer;
use hpdr::{ArrayMeta, Codec, MgardConfig, Shape};
use hpdr_huffman::HuffmanConfig;
use hpdr_mgard::decompose::{decompose, recompose};
use hpdr_mgard::quantize::{dequantize, level_bin, quantize, Quantized};
use hpdr_mgard::Hierarchy;

const SIDE: usize = 96;
const TIMESTEPS: u64 = 4;
const REL: f64 = 1e-3;

struct Step {
    bytes: Vec<u8>,
    values: Vec<f32>,
    meta: ArrayMeta,
    abs_bound: f64,
}

/// The facade's output of one round trip.
struct Facade {
    compress_ns: u64,
    decompress_ns: u64,
    stream: Vec<u8>,
    restored: Vec<u8>,
}

fn codec() -> Codec {
    Codec::Mgard(MgardConfig::relative(REL))
}

fn setup(ctx: &Ctx, tally: &mut Tally) -> Vec<Step> {
    let seeds: Vec<u64> = (0..TIMESTEPS)
        .map(|k| ctx.seed.wrapping_mul(1000) + k)
        .collect();
    let fields = par_map(ctx.threads, &seeds, |&s| {
        hpdr_data::datasets::nyx_density(SIDE, s)
    });
    let steps: Vec<Step> = fields
        .into_iter()
        .map(|field| Step {
            meta: ArrayMeta::new(field.dtype, field.shape.clone()),
            abs_bound: REL * range(&field.bytes, field.dtype),
            values: f32_values(&field.bytes),
            bytes: field.bytes,
        })
        .collect();
    // Warm-up: every timestep has the same shape, so one round trip
    // fills the MGARD contexts and the pool's arenas.
    facade_op(ctx, &steps[0], tally);
    steps
}

/// One facade round trip, checked.
fn facade_op(ctx: &Ctx, step: &Step, tally: &mut Tally) -> Option<Facade> {
    let (c, compress_ns) = timed(|| hpdr::compress(&ctx.adapter, &step.bytes, &step.meta, codec()));
    let stream = match c {
        Ok((stream, _)) => stream,
        Err(e) => {
            tally.fail("compress", e);
            return None;
        }
    };
    let (d, decompress_ns) = timed(|| hpdr::decompress(&ctx.adapter, &stream));
    let restored = match d {
        Ok((out, meta)) if meta == step.meta => out,
        Ok(_) => {
            tally.fail("decompress", "wrong array metadata");
            return None;
        }
        Err(e) => {
            tally.fail("decompress", e);
            return None;
        }
    };
    tally.bounded(
        "mgard round trip",
        &step.bytes,
        &restored,
        step.meta.dtype,
        step.abs_bound,
    );
    Some(Facade {
        compress_ns,
        decompress_ns,
        stream,
        restored,
    })
}

/// The staged round trip, traced.
struct Chain {
    hierarchy: Hierarchy,
    node_levels: Vec<u8>,
    dict_size: u32,
    work: Vec<f64>,
}

impl Chain {
    fn new(shape: &Shape) -> Chain {
        let hierarchy = Hierarchy::new(shape);
        Chain {
            node_levels: hierarchy.node_levels(),
            hierarchy,
            dict_size: MgardConfig::default().dict_size,
            work: Vec::new(),
        }
    }

    /// The staged round trip of `step`, which must reproduce `facade`.
    fn op(&mut self, ctx: &Ctx, tr: &Tracer, step: &Step, facade: &Facade, tally: &mut Tally) {
        let a = &ctx.adapter;
        let _op = tr.op("mgard-timesteps.op");
        let levels = self.hierarchy.total_levels();
        let hcfg = HuffmanConfig {
            dict_size: self.dict_size,
            chunk_elems: 1 << 16,
        };
        let compressed = {
            let _c = tr.span("hpdr.compress");
            let (mn, mx) = tr.time("hpdr-kernels.min_max", || {
                hpdr_kernels::min_max(a, &step.values)
            });
            let abs = REL * (mx as f64 - mn as f64);
            self.work.clear();
            self.work.extend(step.values.iter().map(|&v| v as f64));
            tr.time("hpdr-mgard.decompose", || {
                decompose(a, &mut self.work, &self.hierarchy)
            });
            let bins: Vec<f64> = (0..levels).map(|l| level_bin(abs, levels, l)).collect();
            let q = tr.time("hpdr-mgard.quantize", || {
                quantize(a, &self.work, &self.node_levels, &bins, self.dict_size)
            });
            tr.time("hpdr-huffman.encode", || {
                hpdr_huffman::compress_u32(a, &q.symbols, &hcfg)
            })
            .map(|enc| (enc, q.outliers, bins))
        };
        let (encoded, outliers, bins) = match compressed {
            Ok(v) => v,
            Err(e) => return tally.fail("staged compress", e),
        };
        let restored = {
            let _d = tr.span("hpdr.decompress");
            tr.time("hpdr-huffman.decode", || {
                hpdr_huffman::decompress_u32(a, &encoded)
            })
            .map(|symbols| {
                let q = Quantized { symbols, outliers };
                let mut coeffs = tr.time("hpdr-mgard.dequantize", || {
                    dequantize(a, &q, &self.node_levels, &bins, self.dict_size)
                });
                tr.time("hpdr-mgard.recompose", || {
                    recompose(a, &mut coeffs, &self.hierarchy)
                });
                coeffs
                    .iter()
                    .flat_map(|&v| (v as f32).to_le_bytes())
                    .collect::<Vec<u8>>()
            })
        };
        let _check = tr.span("bench.check");
        match restored {
            Err(e) => tally.fail("staged decompress", e),
            Ok(_) if !facade.stream.ends_with(&encoded) => tally.fail(
                "staged compress",
                "Huffman payload differs from the codec's",
            ),
            Ok(out) => tally.exact("staged decompress", &facade.restored, &out),
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (steps, setup_s) = repeat_setup(|| setup(ctx, &mut report.tally));
    report.setup_s = setup_s;
    let raw = steps[0].bytes.len() as u64;

    let tracer = Tracer::new(ctx.trace);
    let mut chain = Chain::new(&steps[0].meta.shape);
    let mut pool = PoolMeter::default();
    let cmm0 = hpdr_mgard::context_cache().stats();
    let (mut c_ns, mut d_ns, mut stream_bytes) = (Vec::new(), Vec::new(), 0u64);
    let deadline = Deadline::after(ctx.seconds);
    let mut i = 0usize;
    // Whole passes only, so that every run measures the same mix.
    while deadline.running() || !i.is_multiple_of(steps.len()) {
        let step = &steps[i % steps.len()];
        let Some(f) = pool.measure(1, || facade_op(ctx, step, &mut report.tally)) else {
            i += 1;
            continue;
        };
        c_ns.push(f.compress_ns);
        d_ns.push(f.decompress_ns);
        report.op_ns.push(f.compress_ns + f.decompress_ns);
        report.raw_bytes += 2 * raw;
        stream_bytes += f.stream.len() as u64;
        if ctx.trace {
            chain.op(ctx, &tracer, step, &f, &mut report.tally);
        }
        i += 1;
    }

    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let n = c_ns.len() as f64;
    report.named("compress_gbps", n * raw as f64 / sum(&c_ns), "GB/s");
    report.named("decompress_gbps", n * raw as f64 / sum(&d_ns), "GB/s");
    let rt = report.op_ns.clone();
    report.percentiles("roundtrip_ms", &rt);
    report.named("ratio", n * raw as f64 / stream_bytes.max(1) as f64, "x");

    if ctx.trace {
        record_attribution(
            &mut report,
            &tracer,
            &[
                ("hpdr.compress", "hpdr.compress_self_ms"),
                ("hpdr.decompress", "hpdr.decompress_self_ms"),
                ("hpdr-kernels.min_max", "hpdr-kernels.min_max_ms"),
                ("hpdr-mgard.decompose", "hpdr-mgard.decompose_ms"),
                ("hpdr-mgard.quantize", "hpdr-mgard.quantize_ms"),
                ("hpdr-mgard.dequantize", "hpdr-mgard.dequantize_ms"),
                ("hpdr-mgard.recompose", "hpdr-mgard.recompose_ms"),
                ("hpdr-huffman.encode", "hpdr-huffman.encode_ms"),
                ("hpdr-huffman.decode", "hpdr-huffman.decode_ms"),
                ("bench.check", "bench.check_ms"),
            ],
        );
        let attr = tracer.attribution();
        let traced = tracer.ops().len() as f64;
        let decode_ms = report.layers["hpdr-huffman.decode_ms"];
        let symbols = steps[0].values.len() as f64 * 4.0;
        report
            .layers
            .insert("hpdr-huffman.decode_gbps", symbols / (decode_ms * 1e6));
        // The stage split of compress, against the facade's own time.
        let staged = attr.get("hpdr.compress").map_or(0, |a| a.total_ns) as f64 / 1e6 / traced;
        let facade = median_f64(c_ns.iter().map(|&v| v as f64 / 1e6).collect());
        let stages: Vec<String> = [
            "hpdr-kernels.min_max_ms",
            "hpdr-mgard.decompose_ms",
            "hpdr-mgard.quantize_ms",
            "hpdr-huffman.encode_ms",
            "hpdr.compress_self_ms",
        ]
        .iter()
        .map(|m| format!("{m} {:.3}", report.layers[m]))
        .collect();
        report.notes.push(format!(
            "MGARD compress split (ms per timestep): {} = {staged:.3} staged; facade compress median {facade:.3}",
            stages.join(" + ")
        ));
        report.layers.insert("hpdr.compress_ms", facade);
        report.layers.insert(
            "hpdr.decompress_ms",
            median_f64(d_ns.iter().map(|&v| v as f64 / 1e6).collect()),
        );
        let traced = tracer.op_totals_without("bench.check");
        record_overhead(&mut report, &traced);
        pool.record(&mut report);
        record_cmm(&mut report, cmm0);
        dem_speedup_probe(&mut report, ctx, &steps[0].values, &steps[0].meta.shape);
        min_max_probe(&mut report, &ctx.adapter, &steps[0].values);
        memcpy_probe(&mut report, raw as usize);
        ctx.write_spans(&tracer);
    }
    report
}
