//! Output checks. Every operation the benchmark times is checked, and
//! an operation fails on an `Err`, a wrong length, a non-finite value
//! where the input was finite, a violated error bound, or a lossless
//! round trip that is not byte-exact. Decoders can return wrong data
//! without an error, so no check rests on the output length alone.

use hpdr_core::DType;

/// Values of a little-endian f32/f64 array, widened to f64.
pub fn values(bytes: &[u8], dtype: DType) -> impl Iterator<Item = f64> + '_ {
    let w = dtype.size();
    bytes.chunks_exact(w).map(move |c| match dtype {
        DType::F32 => f32::from_le_bytes(c.try_into().expect("4-byte chunk")) as f64,
        DType::F64 => f64::from_le_bytes(c.try_into().expect("8-byte chunk")),
    })
}

/// `max - min` of an array.
pub fn range(bytes: &[u8], dtype: DType) -> f64 {
    let (mn, mx) = values(bytes, dtype).fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), v| {
        (a.min(v), b.max(v))
    });
    mx - mn
}

/// Error an f32 output may add on top of the codec's bound by rounding
/// its f64 reconstruction to f32.
fn rounding_slack(orig: &[u8], dtype: DType) -> f64 {
    match dtype {
        DType::F32 => {
            let amax = values(orig, dtype).fold(0.0f64, |m, v| m.max(v.abs()));
            amax * f32::EPSILON as f64
        }
        DType::F64 => 0.0,
    }
}

/// L∞ distance of `out` from `orig`, or why it cannot be compared.
pub fn linf(orig: &[u8], out: &[u8], dtype: DType) -> Result<f64, String> {
    if out.len() != orig.len() {
        return Err(format!("length {} != {}", out.len(), orig.len()));
    }
    let mut err = 0.0f64;
    for (a, b) in values(orig, dtype).zip(values(out, dtype)) {
        if !b.is_finite() {
            return Err("non-finite output value".to_string());
        }
        err = err.max((a - b).abs());
    }
    Ok(err)
}

/// Running tally of checked operations.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Largest L∞ ÷ range over the lossy outputs checked.
    pub max_rel_err: f64,
    /// The first few failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(format!("{what}: {why}"));
        }
    }

    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Count a result that must lie within `abs_bound` of `orig`.
    pub fn bounded(&mut self, what: &str, orig: &[u8], out: &[u8], dtype: DType, abs_bound: f64) {
        match linf(orig, out, dtype) {
            Err(e) => self.fail(what, e),
            Ok(err) => {
                let r = range(orig, dtype);
                if r > 0.0 {
                    self.max_rel_err = self.max_rel_err.max(err / r);
                }
                let limit = abs_bound * (1.0 + 1e-9) + rounding_slack(orig, dtype);
                if err <= limit {
                    self.pass();
                } else {
                    self.fail(
                        what,
                        format!("L-inf error {err:e} exceeds bound {abs_bound:e}"),
                    );
                }
            }
        }
    }

    /// Count a lossless result, which must equal `orig` byte for byte.
    pub fn exact(&mut self, what: &str, orig: &[u8], out: &[u8]) {
        if out == orig {
            self.pass();
        } else {
            self.fail(what, "lossless round trip is not byte-exact");
        }
    }

    /// Count a fixed-rate result, which has no bound: right length and
    /// finite values; its L∞ error is recorded.
    pub fn finite(&mut self, what: &str, orig: &[u8], out: &[u8], dtype: DType) {
        match linf(orig, out, dtype) {
            Err(e) => self.fail(what, e),
            Ok(err) => {
                let r = range(orig, dtype);
                if r > 0.0 {
                    self.max_rel_err = self.max_rel_err.max(err / r);
                }
                self.pass();
            }
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Feed the checks one bit-flipped lossless stream and one output
/// pushed past its bound; both must count as failures. Returns a line
/// for the report, or why the checks are not trustworthy.
pub fn self_test(adapter: &dyn hpdr_core::DeviceAdapter) -> Result<String, String> {
    use hpdr::{ArrayMeta, Codec, MgardConfig, Shape};
    let field = hpdr_data::datasets::nyx_density(16, 1);
    let meta = ArrayMeta::new(field.dtype, field.shape.clone());

    let mut t = Tally::default();
    let (mut stream, _) =
        hpdr::compress(adapter, &field.bytes, &meta, Codec::Lz4).map_err(|e| e.to_string())?;
    let mid = stream.len() / 2;
    stream[mid] ^= 1;
    match hpdr::decompress(adapter, &stream) {
        Err(e) => t.fail("self-test flip", e),
        Ok((out, _)) => t.exact("self-test flip", &field.bytes, &out),
    }
    let flip_counted = t.failed == 1;

    let rel = 1e-3;
    let (stream, _) = hpdr::compress(
        adapter,
        &field.bytes,
        &meta,
        Codec::Mgard(MgardConfig::relative(rel)),
    )
    .map_err(|e| e.to_string())?;
    let (mut out, out_meta) = hpdr::decompress(adapter, &stream).map_err(|e| e.to_string())?;
    if out_meta.shape != Shape::new(&[16, 16, 16]) {
        return Err("self-test: MGARD output has the wrong shape".to_string());
    }
    let abs = rel * range(&field.bytes, field.dtype);
    let mut good = Tally::default();
    good.bounded("self-test in-bound", &field.bytes, &out, field.dtype, abs);
    let v = f32::from_le_bytes(out[..4].try_into().expect("4 bytes")) + (3.0 * abs) as f32;
    out[..4].copy_from_slice(&v.to_le_bytes());
    t.bounded(
        "self-test out-of-bound",
        &field.bytes,
        &out,
        field.dtype,
        abs,
    );
    let bound_counted = t.failed == 2;

    if flip_counted && bound_counted && good.failed == 0 {
        Ok(format!(
            "self-test: bit-flipped LZ4 stream counted as failed ({}); out-of-bound MGARD output counted as failed; untouched output passed",
            t.reasons[0]
        ))
    } else {
        Err(format!(
            "self-test: flip counted {flip_counted}, out-of-bound counted {bound_counted}, untouched output failures {}",
            good.failed
        ))
    }
}
