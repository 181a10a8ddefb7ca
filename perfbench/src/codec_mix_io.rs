//! `codec-mix-io`: one caller in a closed loop writes and reads back
//! three Table III fields through four codecs and the BP container.
//!
//! One operation is one field through all four codecs: each codec's
//! stream is compressed and put as its own variable of one BP step
//! (`BpWriter` create/put/end_step/close), then read back (`BpReader`
//! open/read_block), decompressed and checked. MGARD is bypassed
//! entirely. The traced run alternates a facade operation with the same
//! operation calling each codec crate's reducer directly, each call in
//! its own span; the direct calls must give the facade's streams and
//! outputs exactly.

use crate::check::{range, Tally};
use crate::harness::*;
use crate::trace::Tracer;
use hpdr::baselines::{Lz4Reducer, SzReducer};
use hpdr::huffman::ByteHuffmanReducer;
use hpdr::zfp::ZfpReducer;
use hpdr::{ArrayMeta, Codec, Reducer, SzConfig, ZfpConfig};
use hpdr_core::fnv1a;
use hpdr_io::{BpReader, BpWriter};
use std::path::Path;

const SZ_REL: f64 = 1e-3;

struct Field {
    bytes: Vec<u8>,
    meta: ArrayMeta,
    range: f64,
}

/// A codec with the span and metric names of its crate's compress and
/// decompress.
struct Entry {
    codec: Codec,
    reducer: Box<dyn Reducer>,
    compress: (&'static str, &'static str),
    decompress: (&'static str, &'static str),
}

fn codecs() -> Vec<Entry> {
    let zfp = ZfpConfig::fixed_rate(16);
    let sz = SzConfig::relative(SZ_REL);
    vec![
        Entry {
            codec: Codec::Zfp(zfp),
            reducer: Box::new(ZfpReducer(zfp)),
            compress: ("hpdr-zfp.compress", "hpdr-zfp.compress_ms"),
            decompress: ("hpdr-zfp.decompress", "hpdr-zfp.decompress_ms"),
        },
        Entry {
            codec: Codec::Sz(sz),
            reducer: Box::new(SzReducer(sz)),
            compress: (
                "hpdr-baselines.sz_compress",
                "hpdr-baselines.sz_compress_ms",
            ),
            decompress: (
                "hpdr-baselines.sz_decompress",
                "hpdr-baselines.sz_decompress_ms",
            ),
        },
        Entry {
            codec: Codec::Huffman,
            reducer: Box::new(ByteHuffmanReducer::default()),
            compress: ("hpdr-huffman.encode", "hpdr-huffman.encode_ms"),
            decompress: ("hpdr-huffman.decode", "hpdr-huffman.decode_ms"),
        },
        Entry {
            codec: Codec::Lz4,
            reducer: Box::new(Lz4Reducer),
            compress: (
                "hpdr-baselines.lz4_compress",
                "hpdr-baselines.lz4_compress_ms",
            ),
            decompress: (
                "hpdr-baselines.lz4_decompress",
                "hpdr-baselines.lz4_decompress_ms",
            ),
        },
    ]
}

fn fields(ctx: &Ctx) -> Vec<Field> {
    let base = ctx.seed.wrapping_mul(1000);
    let generated = par_map(ctx.threads, &[0, 1, 2], |&k| match k {
        0 => hpdr_data::datasets::nyx_density(128, base + 1),
        1 => hpdr_data::datasets::xgc_ef(256, base + 2),
        _ => hpdr_data::datasets::e3sm_psl(48, 120, 240, base + 3),
    });
    generated
        .into_iter()
        .map(|d| Field {
            range: range(&d.bytes, d.dtype),
            meta: ArrayMeta::new(d.dtype, d.shape),
            bytes: d.bytes,
        })
        .collect()
}

/// Check one restored array against its codec's promise.
fn check(tally: &mut Tally, e: &Entry, f: &Field, out: &[u8], meta: &ArrayMeta) {
    let what = e.codec.name();
    if *meta != f.meta {
        return tally.fail(what, "wrong array metadata");
    }
    match e.codec {
        Codec::Huffman | Codec::Lz4 => tally.exact(what, &f.bytes, out),
        Codec::Sz(_) => tally.bounded(what, &f.bytes, out, f.meta.dtype, SZ_REL * f.range),
        _ => tally.finite(what, &f.bytes, out, f.meta.dtype),
    }
}

/// Wall times of one facade operation, in ns, and its stream bytes.
#[derive(Default, Clone, Copy)]
struct OpTimes {
    compress: u64,
    write_io: u64,
    read_io: u64,
    decompress: u64,
    stream_bytes: u64,
}

impl OpTimes {
    fn total(&self) -> u64 {
        self.compress + self.write_io + self.read_io + self.decompress
    }
}

fn first_block(r: &BpReader, var: &str) -> hpdr::Result<hpdr_io::BlockInfo> {
    r.blocks(0, var)?
        .first()
        .cloned()
        .ok_or_else(|| hpdr::HpdrError::corrupt(format!("no block for {var}")))
}

/// Digest of a codec's stream and of its restored bytes.
type Digests = Vec<(u64, u64)>;

/// Facade operation; returns its timings and, per codec, digests of the
/// stream and of the restored bytes. Each output is checked and dropped
/// before the next is decompressed.
fn facade_op(
    ctx: &Ctx,
    dir: &Path,
    entries: &[Entry],
    f: &Field,
    tally: &mut Tally,
) -> Option<(OpTimes, Digests)> {
    let a = &ctx.adapter;
    let mut t = OpTimes::default();
    let mut digests: Digests = Vec::with_capacity(entries.len());
    let result = (|| {
        let (w, ns) = timed(|| BpWriter::create(dir, 1));
        t.write_io += ns;
        let mut w = w?;
        w.begin_step();
        for e in entries {
            let (compressed, ns) = timed(|| hpdr::compress(a, &f.bytes, &f.meta, e.codec));
            t.compress += ns;
            let (stream, _) = compressed?;
            t.stream_bytes += stream.len() as u64;
            let (put, ns) = timed(|| w.put(e.codec.name(), &f.meta, &stream, e.codec.name()));
            t.write_io += ns;
            put?;
            digests.push((fnv1a(&stream), 0));
        }
        let (closed, ns) = timed(|| {
            w.end_step()?;
            w.close()
        });
        t.write_io += ns;
        closed?;
        let (reader, ns) = timed(|| BpReader::open(dir));
        t.read_io += ns;
        let reader = reader?;
        for (e, d) in entries.iter().zip(&mut digests) {
            let (payload, ns) =
                timed(|| first_block(&reader, e.codec.name()).and_then(|b| reader.read_block(&b)));
            t.read_io += ns;
            let (restored, ns) = timed(|| hpdr::decompress(a, &payload?));
            t.decompress += ns;
            let (out, meta) = restored?;
            check(tally, e, f, &out, &meta);
            d.1 = fnv1a(&out);
        }
        Ok::<_, hpdr::HpdrError>(())
    })();
    match result {
        Err(err) => {
            tally.fail("codec-mix op", err);
            None
        }
        Ok(()) => Some((t, digests)),
    }
}

/// The same operation with each layer call in its own span, calling the
/// codec crates directly; every stream and output must match the
/// facade's `digests`. Returns the bytes Huffman decoded.
fn traced_op(
    ctx: &Ctx,
    tr: &Tracer,
    dir: &Path,
    entries: &[Entry],
    f: &Field,
    digests: &Digests,
    tally: &mut Tally,
) -> u64 {
    let a = &ctx.adapter;
    let mut huffman_bytes = 0;
    let _op = tr.op("codec-mix-io.op");
    let result = (|| {
        let mut w = tr.time("hpdr-io.create", || BpWriter::create(dir, 1))?;
        w.begin_step();
        let mut same_stream = Vec::with_capacity(entries.len());
        for (e, d) in entries.iter().zip(digests) {
            let stream = tr.time(e.compress.0, || e.reducer.compress(a, &f.bytes, &f.meta))?;
            tr.time("hpdr-io.put", || {
                w.put(e.codec.name(), &f.meta, &stream, e.codec.name())
            })?;
            same_stream.push(tr.time("bench.check", || fnv1a(&stream) == d.0));
        }
        tr.time("hpdr-io.close", || {
            w.end_step()?;
            w.close()
        })?;
        let r = tr.time("hpdr-io.open", || BpReader::open(dir))?;
        for ((e, d), same) in entries.iter().zip(digests).zip(same_stream) {
            let payload = tr.time("hpdr-io.read_block", || {
                first_block(&r, e.codec.name()).and_then(|b| r.read_block(&b))
            })?;
            let (out, _) = tr.time(e.decompress.0, || e.reducer.decompress(a, &payload))?;
            if matches!(e.codec, Codec::Huffman) {
                huffman_bytes += out.len() as u64;
            }
            let _c = tr.span("bench.check");
            if same && fnv1a(&out) == d.1 {
                tally.pass();
            } else {
                tally.fail(e.codec.name(), "direct codec call differs from the facade");
            }
        }
        Ok::<_, hpdr::HpdrError>(())
    })();
    if let Err(err) = result {
        tally.fail("traced codec-mix op", err);
    }
    huffman_bytes
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|f| f.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let dir = ctx.scratch.join("bp");
    let entries = codecs();
    // Set-up: generate the fields, then warm up with one operation on
    // the smallest field.
    let (fields, setup_s) = repeat_setup(|| {
        let fields = fields(ctx);
        facade_op(ctx, &dir, &entries, &fields[2], &mut report.tally);
        fields
    });
    report.setup_s = setup_s;

    let tracer = Tracer::new(ctx.trace);
    let mut pool = PoolMeter::default();
    let mut times: Vec<OpTimes> = Vec::new();
    let (mut raw_total, mut written, mut huffman_bytes) = (0u64, 0u64, 0u64);
    let deadline = Deadline::after(ctx.seconds);
    let mut i = 0usize;
    // Whole passes only, so that every run measures the same mix.
    while deadline.running() || !i.is_multiple_of(fields.len()) {
        let f = &fields[i % fields.len()];
        i += 1;
        let Some((t, digests)) =
            pool.measure(1, || facade_op(ctx, &dir, &entries, f, &mut report.tally))
        else {
            continue;
        };
        report.op_ns.push(t.total());
        report.raw_bytes += 2 * (entries.len() * f.bytes.len()) as u64;
        raw_total += (entries.len() * f.bytes.len()) as u64;
        times.push(t);
        if ctx.trace {
            written += dir_bytes(&dir);
            huffman_bytes +=
                traced_op(ctx, &tracer, &dir, &entries, f, &digests, &mut report.tally);
        }
    }

    let raw = raw_total as f64;
    let sum = |g: fn(&OpTimes) -> u64| times.iter().map(g).sum::<u64>() as f64;
    report.named("compress_gbps", raw / sum(|t| t.compress), "GB/s");
    report.named("decompress_gbps", raw / sum(|t| t.decompress), "GB/s");
    report.named("write_gbps", raw / sum(|t| t.compress + t.write_io), "GB/s");
    report.named("read_gbps", raw / sum(|t| t.read_io + t.decompress), "GB/s");
    report.named("ratio", raw / sum(|t| t.stream_bytes).max(1.0), "x");
    let ops = report.op_ns.clone();
    report.percentiles("op_ms", &ops);

    if ctx.trace {
        let mut names = vec![
            ("hpdr-io.create", "hpdr-io.create_ms"),
            ("hpdr-io.put", "hpdr-io.put_ms"),
            ("hpdr-io.close", "hpdr-io.close_ms"),
            ("hpdr-io.open", "hpdr-io.open_ms"),
            ("hpdr-io.read_block", "hpdr-io.read_block_ms"),
            ("bench.check", "bench.check_ms"),
        ];
        for e in &entries {
            names.push(e.compress);
            names.push(e.decompress);
        }
        record_attribution(&mut report, &tracer, &names);
        let decode = tracer
            .attribution()
            .get("hpdr-huffman.decode")
            .map_or(0, |a| a.self_ns);
        report.layers.insert(
            "hpdr-huffman.decode_gbps",
            huffman_bytes as f64 / decode.max(1) as f64,
        );
        report.layers.insert(
            "hpdr-io.bytes_written",
            written as f64 / times.len().max(1) as f64,
        );
        let traced = tracer.op_totals_without("bench.check");
        record_overhead(&mut report, &traced);
        pool.record(&mut report);
        let nyx = f32_values(&fields[0].bytes);
        min_max_probe(&mut report, &ctx.adapter, &nyx);
        memcpy_probe(&mut report, fields.iter().map(|f| f.bytes.len()).sum());
        ctx.write_spans(&tracer);
    }
    report
}
