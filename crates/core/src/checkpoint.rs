//! Predictor checkpointing.
//!
//! Predictors are trained offline (§V-B) and reused across fine-tuning runs
//! of the same backbone, so they need a durable format. The format is a
//! small header + raw little-endian f32 payloads via `bytes`, with a JSON
//! metadata block describing shapes — readable by external tooling.

use crate::predictor::{AttnPredictor, MlpPredictor};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use lx_tensor::Tensor;

const MAGIC: &[u8; 8] = b"LXPRED01";

/// Shape metadata stored alongside the raw weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    pub d_model: usize,
    pub n_heads: usize,
    pub rank: usize,
    pub n_layers: usize,
    pub mlp_blocks: usize,
    pub block_size: usize,
}

impl CheckpointMeta {
    const FIELDS: [&'static str; 6] = [
        "d_model",
        "n_heads",
        "rank",
        "n_layers",
        "mlp_blocks",
        "block_size",
    ];

    fn field(&self, name: &str) -> usize {
        match name {
            "d_model" => self.d_model,
            "n_heads" => self.n_heads,
            "rank" => self.rank,
            "n_layers" => self.n_layers,
            "mlp_blocks" => self.mlp_blocks,
            "block_size" => self.block_size,
            _ => unreachable!("unknown meta field {name}"),
        }
    }

    fn field_mut(&mut self, name: &str) -> &mut usize {
        match name {
            "d_model" => &mut self.d_model,
            "n_heads" => &mut self.n_heads,
            "rank" => &mut self.rank,
            "n_layers" => &mut self.n_layers,
            "mlp_blocks" => &mut self.mlp_blocks,
            "block_size" => &mut self.block_size,
            _ => unreachable!("unknown meta field {name}"),
        }
    }

    /// Serialise as a flat JSON object (readable by external tooling).
    pub fn to_json(&self) -> Vec<u8> {
        let body: Vec<String> = Self::FIELDS
            .iter()
            .map(|f| format!("\"{f}\":{}", self.field(f)))
            .collect();
        format!("{{{}}}", body.join(",")).into_bytes()
    }

    /// Parse the flat JSON object written by [`CheckpointMeta::to_json`].
    pub fn from_json(data: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(data).map_err(|e| format!("meta not UTF-8: {e}"))?;
        let inner = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or_else(|| format!("meta not a JSON object: {text}"))?;
        let mut meta = CheckpointMeta {
            d_model: 0,
            n_heads: 0,
            rank: 0,
            n_layers: 0,
            mlp_blocks: 0,
            block_size: 0,
        };
        let mut seen = [false; Self::FIELDS.len()];
        for pair in inner.split(',') {
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad meta entry: {pair}"))?;
            let key = key.trim().trim_matches('"');
            let value: usize = value
                .trim()
                .parse()
                .map_err(|e| format!("bad meta value for {key}: {e}"))?;
            let idx = Self::FIELDS
                .iter()
                .position(|f| *f == key)
                .ok_or_else(|| format!("unknown meta field {key}"))?;
            if seen[idx] {
                return Err(format!("duplicate meta field {key}"));
            }
            seen[idx] = true;
            *meta.field_mut(key) = value;
        }
        if let Some(idx) = seen.iter().position(|s| !s) {
            return Err(format!("meta is missing field {}", Self::FIELDS[idx]));
        }
        // Plausibility bounds: these drive allocations in `load_predictors`
        // *before* any payload check, so a corrupt header must fail here
        // rather than abort on a multi-gigabyte Vec. Individual fields are
        // not enough — the allocations are *products* of fields (a layer
        // loads two [d_model, n_heads·rank] attention matrices and one
        // [d_model, mlp_blocks] MLP matrix), so bound the total element count
        // a load would allocate.
        const MAX_DIM: usize = 1 << 20;
        for f in Self::FIELDS {
            let v = meta.field(f);
            if v == 0 || v > MAX_DIM {
                return Err(format!("meta field {f} = {v} out of range 1..={MAX_DIM}"));
            }
        }
        const MAX_TOTAL_ELEMS: usize = 1 << 28; // ~1 GiB of f32
        let per_layer = meta
            .d_model
            .checked_mul(meta.rank)
            .and_then(|v| v.checked_mul(meta.n_heads))
            .and_then(|v| v.checked_mul(2))
            .and_then(|v| v.checked_add(meta.d_model * meta.mlp_blocks));
        let total = per_layer.and_then(|v| v.checked_mul(meta.n_layers));
        match total {
            Some(t) if t <= MAX_TOTAL_ELEMS => Ok(meta),
            _ => Err(format!(
                "meta implies an implausibly large predictor set ({total:?} elements, cap {MAX_TOTAL_ELEMS})"
            )),
        }
    }
}

/// Serialise all layers' predictors into one buffer.
pub fn save_predictors(
    meta: &CheckpointMeta,
    attn: &[AttnPredictor],
    mlp: &[MlpPredictor],
) -> Bytes {
    assert_eq!(attn.len(), meta.n_layers);
    assert_eq!(mlp.len(), meta.n_layers);
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    let meta_json = meta.to_json();
    buf.put_u32_le(meta_json.len() as u32);
    buf.put_slice(&meta_json);
    // Per-head `[d, r]` projections and a `[d, n_blk]` MLP matrix: the
    // layout predates the stacked heads and the neuron-major `wa`, and stays
    // so that every checkpoint written since still loads.
    for layer in attn {
        for h in 0..layer.n_heads() {
            let (wq, wk) = layer.head(h);
            put_tensor(&mut buf, &wq);
            put_tensor(&mut buf, &wk);
        }
        for &s in &layer.distance_slopes {
            buf.put_f32_le(s);
        }
        for &b in &layer.bias {
            buf.put_f32_le(b);
        }
    }
    for layer in mlp {
        put_tensor(&mut buf, &layer.wa.transposed_2d());
    }
    buf.freeze()
}

/// Reconstruct predictors from a buffer produced by [`save_predictors`].
pub fn load_predictors(
    mut data: Bytes,
) -> Result<(CheckpointMeta, Vec<AttnPredictor>, Vec<MlpPredictor>), String> {
    if data.remaining() < 12 {
        return Err("truncated checkpoint".into());
    }
    let mut magic = [0u8; 8];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(format!("bad magic {magic:?}"));
    }
    let meta_len = data.get_u32_le() as usize;
    if data.remaining() < meta_len {
        return Err("truncated metadata".into());
    }
    let meta_bytes = data.copy_to_bytes(meta_len);
    let meta = CheckpointMeta::from_json(&meta_bytes).map_err(|e| format!("bad metadata: {e}"))?;
    let mut attn = Vec::with_capacity(meta.n_layers);
    for l in 0..meta.n_layers {
        let mut p = AttnPredictor::zeros(meta.d_model, meta.n_heads, meta.rank);
        for h in 0..meta.n_heads {
            let wq = get_tensor(&mut data, &[meta.d_model, meta.rank])
                .ok_or_else(|| format!("truncated wq layer {l} head {h}"))?;
            let wk = get_tensor(&mut data, &[meta.d_model, meta.rank])
                .ok_or_else(|| format!("truncated wk layer {l} head {h}"))?;
            p.set_head(h, &wq, &wk);
        }
        let mut slopes = Vec::with_capacity(meta.n_heads);
        for _ in 0..meta.n_heads {
            if data.remaining() < 4 {
                return Err("truncated slopes".into());
            }
            slopes.push(data.get_f32_le());
        }
        p.set_distance_slopes(slopes, meta.block_size);
        for h in 0..meta.n_heads {
            if data.remaining() < 4 {
                return Err("truncated head bias".into());
            }
            p.bias[h] = data.get_f32_le();
        }
        attn.push(p);
    }
    let mut mlp = Vec::with_capacity(meta.n_layers);
    for l in 0..meta.n_layers {
        let wa = get_tensor(&mut data, &[meta.d_model, meta.mlp_blocks])
            .ok_or_else(|| format!("truncated wa layer {l}"))?;
        mlp.push(MlpPredictor {
            wa: wa.transposed_2d(),
            block_size: meta.block_size,
            n_blocks: meta.mlp_blocks,
        });
    }
    if data.has_remaining() {
        return Err(format!("{} trailing bytes", data.remaining()));
    }
    Ok((meta, attn, mlp))
}

fn put_tensor(buf: &mut BytesMut, t: &Tensor) {
    buf.put_u32_le(t.len() as u32);
    for &v in t.as_slice() {
        buf.put_f32_le(v);
    }
}

fn get_tensor(data: &mut Bytes, shape: &[usize]) -> Option<Tensor> {
    if data.remaining() < 4 {
        return None;
    }
    let len = data.get_u32_le() as usize;
    if len != shape.iter().product::<usize>() || data.remaining() < len * 4 {
        return None;
    }
    let mut vals = Vec::with_capacity(len);
    for _ in 0..len {
        vals.push(data.get_f32_le());
    }
    Some(Tensor::from_vec(vals, shape))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (CheckpointMeta, Vec<AttnPredictor>, Vec<MlpPredictor>) {
        let meta = CheckpointMeta {
            d_model: 8,
            n_heads: 2,
            rank: 3,
            n_layers: 2,
            mlp_blocks: 4,
            block_size: 4,
        };
        let attn: Vec<AttnPredictor> = (0..2)
            .map(|l| {
                let mut p = AttnPredictor::new(8, 2, 3, 100 + l);
                p.set_distance_slopes(vec![0.25, 0.5], 4);
                p.bias = vec![0.1, -0.2];
                p
            })
            .collect();
        let mlp: Vec<MlpPredictor> = (0..2)
            .map(|l| MlpPredictor::new(8, 16, 4, 200 + l))
            .collect();
        (meta, attn, mlp)
    }

    #[test]
    fn roundtrip_preserves_weights() {
        let (meta, attn, mlp) = sample();
        let bytes = save_predictors(&meta, &attn, &mlp);
        let (meta2, attn2, mlp2) = load_predictors(bytes).expect("load");
        assert_eq!(meta, meta2);
        for (a, b) in attn.iter().zip(&attn2) {
            assert_eq!(a.wq.as_slice(), b.wq.as_slice());
            assert_eq!(a.wk.as_slice(), b.wk.as_slice());
            assert_eq!(a.distance_slopes, b.distance_slopes);
            assert_eq!(a.bias, b.bias);
            assert_eq!(a.block_size, b.block_size);
        }
        for (a, b) in mlp.iter().zip(&mlp2) {
            assert_eq!(a.wa.as_slice(), b.wa.as_slice());
        }
    }

    #[test]
    fn per_head_layout_loads_into_stacked_storage_and_resaves_identically() {
        // Written field by field in the per-head layout: per layer, head h's
        // wq [d, r] then its wk, then the slopes, then the biases; after
        // every layer, each layer's wa as [d, n_blk].
        let meta = sample().0;
        let (d, r, heads, n_blk) = (meta.d_model, meta.rank, meta.n_heads, meta.mlp_blocks);
        let value = |l: usize, what: usize, h: usize, i: usize| {
            (1000 * l + 100 * what + 10 * h) as f32 + i as f32 / 64.0
        };
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(meta.to_json().len() as u32);
        buf.put_slice(&meta.to_json());
        for l in 0..meta.n_layers {
            for h in 0..heads {
                for what in 0..2 {
                    buf.put_u32_le((d * r) as u32);
                    for i in 0..d * r {
                        buf.put_f32_le(value(l, what, h, i));
                    }
                }
            }
            for h in 0..heads {
                buf.put_f32_le(0.5 / (h + 1) as f32);
            }
            for h in 0..heads {
                buf.put_f32_le(-0.25 * h as f32);
            }
        }
        for l in 0..meta.n_layers {
            buf.put_u32_le((d * n_blk) as u32);
            for i in 0..d * n_blk {
                buf.put_f32_le(value(l, 2, 0, i));
            }
        }
        let raw = buf.freeze();
        let (meta2, attn, mlp) = load_predictors(raw.clone()).expect("load");
        assert_eq!(meta2, meta);
        for (l, p) in attn.iter().enumerate() {
            assert_eq!(p.wq.shape(), &[d, heads * r]);
            for (h, i, c) in
                (0..heads).flat_map(|h| (0..d).flat_map(move |i| (0..r).map(move |c| (h, i, c))))
            {
                assert_eq!(p.wq.row(i)[h * r + c], value(l, 0, h, i * r + c));
                assert_eq!(p.wk.row(i)[h * r + c], value(l, 1, h, i * r + c));
            }
            assert_eq!(p.distance_slopes, [0.5, 0.25]);
            assert_eq!(p.bias, [0.0, -0.25]);
        }
        for (l, p) in mlp.iter().enumerate() {
            assert_eq!(p.wa.shape(), &[n_blk, d]);
            for (b, i) in (0..n_blk).flat_map(|b| (0..d).map(move |i| (b, i))) {
                assert_eq!(p.wa.row(b)[i], value(l, 2, 0, i * n_blk + b));
            }
        }
        assert_eq!(save_predictors(&meta2, &attn, &mlp), raw);
    }

    #[test]
    fn loaded_predictors_predict_identically() {
        let (meta, attn, mlp) = sample();
        let bytes = save_predictors(&meta, &attn, &mlp);
        let (_, attn2, mlp2) = load_predictors(bytes).unwrap();
        let x = Tensor::randn(&[16, 8], 1.0, 5);
        let m1 = attn[0].predict_masks(&x, 1, 16, 4);
        let m2 = attn2[0].predict_masks(&x, 1, 16, 4);
        assert_eq!(m1, m2);
        assert_eq!(mlp[0].predict(&x), mlp2[0].predict(&x));
    }

    #[test]
    fn corrupt_magic_rejected() {
        let (meta, attn, mlp) = sample();
        let mut raw = save_predictors(&meta, &attn, &mlp).to_vec();
        raw[0] = b'X';
        assert!(load_predictors(Bytes::from(raw)).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let (meta, attn, mlp) = sample();
        let raw = save_predictors(&meta, &attn, &mlp).to_vec();
        let cut = Bytes::from(raw[..raw.len() - 5].to_vec());
        assert!(load_predictors(cut).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (meta, attn, mlp) = sample();
        let mut raw = save_predictors(&meta, &attn, &mlp).to_vec();
        raw.extend_from_slice(&[0, 1, 2]);
        assert!(load_predictors(Bytes::from(raw)).is_err());
    }

    #[test]
    fn hostile_meta_rejected_before_allocation() {
        // Duplicate key masking a missing one.
        let dup = br#"{"d_model":8,"d_model":8,"n_heads":2,"rank":3,"n_layers":2,"mlp_blocks":4}"#;
        assert!(CheckpointMeta::from_json(dup).is_err());
        // Zero field.
        let zero =
            br#"{"d_model":8,"n_heads":2,"rank":0,"n_layers":2,"mlp_blocks":4,"block_size":4}"#;
        assert!(CheckpointMeta::from_json(zero).is_err());
        // Fields individually within bounds but whose product would allocate
        // petabytes in load_predictors.
        let huge = format!(
            "{{\"d_model\":{0},\"n_heads\":{0},\"rank\":{0},\"n_layers\":2,\"mlp_blocks\":4,\"block_size\":4}}",
            1usize << 20
        );
        assert!(CheckpointMeta::from_json(huge.as_bytes()).is_err());
    }
}
