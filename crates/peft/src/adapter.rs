//! Per-tenant adapter state, separable from the backbone.
//!
//! The seed design bakes trainability into the model in place: a PEFT method
//! mutates a [`TransformerModel`] and the adapter lives and dies with it.
//! Multi-tenant serving needs the opposite factoring — one frozen backbone,
//! many small adapters that attach, train for a slice, and detach — so this
//! module turns "the trainable deltas of a model" into a first-class value:
//!
//! * [`TenantAdapter::initialise`] applies a method to a pristine backbone
//!   and captures the fresh adapter;
//! * [`TenantAdapter::extract_from`] snapshots the current trainable state
//!   (after some training) without touching the backbone;
//! * [`TenantAdapter::attach_to`] re-applies the method and restores the
//!   captured values bit-for-bit;
//! * [`detach`] strips every injected module and re-freezes the model,
//!   returning the backbone to its pristine shared state.
//!
//! Only *injection* methods (LoRA, bottleneck adapters, prompt tuning) are
//! detachable: BitFit and full fine-tuning train backbone parameters in
//! place, which cannot be shared across tenants. [`PeftMethod::is_detachable`]
//! gates this.
//!
//! The wire format mirrors `long_exposure::checkpoint`: an 8-byte magic, a
//! little-endian header, then raw f32 payloads — adapters survive restarts
//! through `lx-serve`'s registry.

use crate::{LoraTargets, PeftMethod};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use lx_model::TransformerModel;

const MAGIC: &[u8; 8] = b"LXADPT01";

/// One named trainable tensor captured from a model.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedTensor {
    pub name: String,
    pub shape: Vec<usize>,
    pub data: Vec<f32>,
}

/// The complete trainable state of one tenant: which method produced it,
/// the seed it was initialised with, and every trainable tensor by name.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantAdapter {
    pub method: PeftMethod,
    pub seed: u64,
    pub tensors: Vec<NamedTensor>,
}

impl PeftMethod {
    /// Whether this method's trainable state lives in *injected* modules
    /// that can be detached, leaving the backbone untouched.
    pub fn is_detachable(&self) -> bool {
        matches!(
            self,
            PeftMethod::Lora { .. } | PeftMethod::Adapter { .. } | PeftMethod::PromptTuning { .. }
        )
    }
}

/// Strip every injected PEFT module (LoRA pairs, bottleneck adapters, prompt
/// prefix) and freeze all parameters, returning the model to the pristine
/// shared-backbone state. Safe to call on a model with nothing attached.
pub fn detach(model: &mut TransformerModel) {
    for block in &mut model.blocks {
        for linear in block.linears() {
            linear.lora = None;
        }
        block.adapter1 = None;
        block.adapter2 = None;
    }
    model.embedding.prompt = None;
    model.freeze_all();
}

/// Number of trainable parameters visible on the model right now.
fn trainable_count(model: &mut TransformerModel) -> usize {
    model.num_trainable()
}

impl TenantAdapter {
    /// Apply `method` to a pristine backbone, capture the freshly-initialised
    /// adapter, and detach again. The backbone is returned untouched.
    pub fn initialise(model: &mut TransformerModel, method: PeftMethod, seed: u64) -> Self {
        assert!(
            method.is_detachable(),
            "{} trains backbone parameters in place and cannot be extracted as a tenant adapter",
            method.name()
        );
        assert_eq!(
            trainable_count(model),
            0,
            "backbone must be pristine (detached) before initialising a tenant"
        );
        method.apply(model, seed);
        let adapter = Self::extract_from(model, method, seed);
        detach(model);
        adapter
    }

    /// Snapshot the trainable tensors of a model that currently has this
    /// tenant's method attached. Does not modify the model.
    pub fn extract_from(model: &mut TransformerModel, method: PeftMethod, seed: u64) -> Self {
        assert!(method.is_detachable(), "method must be detachable");
        let mut tensors = Vec::new();
        model.for_each_param(&mut |p| {
            if p.trainable {
                tensors.push(NamedTensor {
                    name: p.name.clone(),
                    shape: p.value.shape().to_vec(),
                    data: p.value.as_slice().to_vec(),
                });
            }
        });
        assert!(
            !tensors.is_empty(),
            "no trainable parameters found — was the method applied?"
        );
        TenantAdapter {
            method,
            seed,
            tensors,
        }
    }

    /// Attach this adapter to a pristine backbone: re-apply the method (same
    /// seed, so module shapes match), then overwrite every trainable tensor
    /// with the captured values. The restore is bit-exact.
    pub fn attach_to(&self, model: &mut TransformerModel) {
        assert_eq!(
            trainable_count(model),
            0,
            "backbone must be pristine (detached) before attaching a tenant"
        );
        self.method.apply(model, self.seed);
        let mut restored = 0usize;
        let mut missing: Vec<String> = Vec::new();
        model.for_each_param(&mut |p| {
            if !p.trainable {
                return;
            }
            match self.tensors.iter().find(|t| t.name == p.name) {
                Some(t) => {
                    assert_eq!(
                        p.value.shape(),
                        &t.shape[..],
                        "shape mismatch for {}: model {:?} vs adapter {:?}",
                        p.name,
                        p.value.shape(),
                        t.shape
                    );
                    p.value.as_mut_slice().copy_from_slice(&t.data);
                    restored += 1;
                }
                None => missing.push(p.name.clone()),
            }
        });
        assert!(
            missing.is_empty(),
            "adapter has no values for trainable params {missing:?}"
        );
        assert_eq!(
            restored,
            self.tensors.len(),
            "adapter carries tensors the model did not expose"
        );
    }

    /// Total adapter parameters (the per-tenant marginal state).
    pub fn num_params(&self) -> usize {
        self.tensors.iter().map(|t| t.data.len()).sum()
    }

    /// Serialise to the durable wire format.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        put_method(&mut buf, &self.method);
        buf.put_u64_le(self.seed);
        buf.put_u32_le(self.tensors.len() as u32);
        for t in &self.tensors {
            let name = t.name.as_bytes();
            buf.put_u32_le(name.len() as u32);
            buf.put_slice(name);
            buf.put_u32_le(t.shape.len() as u32);
            for &d in &t.shape {
                buf.put_u32_le(d as u32);
            }
            buf.put_u32_le(t.data.len() as u32);
            for &v in &t.data {
                buf.put_f32_le(v);
            }
        }
        buf.freeze()
    }

    /// Reconstruct from [`TenantAdapter::to_bytes`] output.
    pub fn from_bytes(mut data: Bytes) -> Result<Self, String> {
        if data.remaining() < MAGIC.len() {
            return Err("truncated adapter blob".into());
        }
        let mut magic = [0u8; 8];
        data.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(format!("bad adapter magic {magic:?}"));
        }
        let method = get_method(&mut data)?;
        if data.remaining() < 12 {
            return Err("truncated adapter header".into());
        }
        let seed = data.get_u64_le();
        let n_tensors = data.get_u32_le() as usize;
        // Each tensor needs at least 16 header bytes; bound the up-front
        // allocation by what the blob could actually hold so a corrupt
        // count yields an Err instead of an abort-on-OOM.
        if n_tensors > data.remaining() / 16 {
            return Err(format!(
                "implausible tensor count {n_tensors} for {} remaining bytes",
                data.remaining()
            ));
        }
        let mut tensors = Vec::with_capacity(n_tensors);
        for i in 0..n_tensors {
            let err = |what: &str| format!("truncated adapter tensor {i}: {what}");
            if data.remaining() < 4 {
                return Err(err("name length"));
            }
            let name_len = data.get_u32_le() as usize;
            if data.remaining() < name_len {
                return Err(err("name"));
            }
            let name_bytes = data.copy_to_bytes(name_len);
            let name = std::str::from_utf8(&name_bytes)
                .map_err(|e| format!("tensor {i} name not UTF-8: {e}"))?
                .to_string();
            if data.remaining() < 4 {
                return Err(err("rank"));
            }
            let ndim = data.get_u32_le() as usize;
            if ndim > 8 {
                return Err(format!("tensor {name}: implausible rank {ndim}"));
            }
            if data.remaining() < 4 * ndim {
                return Err(err("shape"));
            }
            let shape: Vec<usize> = (0..ndim).map(|_| data.get_u32_le() as usize).collect();
            if data.remaining() < 4 {
                return Err(err("payload length"));
            }
            let len = data.get_u32_le() as usize;
            let expect = shape
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .ok_or_else(|| format!("tensor {name}: shape {shape:?} overflows"))?;
            if len != expect {
                return Err(format!(
                    "tensor {name}: payload length {len} does not match shape {shape:?}"
                ));
            }
            if data.remaining() < 4 * len {
                return Err(err("payload"));
            }
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(data.get_f32_le());
            }
            tensors.push(NamedTensor {
                name,
                shape,
                data: values,
            });
        }
        if data.has_remaining() {
            return Err(format!("{} trailing bytes", data.remaining()));
        }
        Ok(TenantAdapter {
            method,
            seed,
            tensors,
        })
    }
}

fn put_method(buf: &mut BytesMut, method: &PeftMethod) {
    match *method {
        PeftMethod::Full => buf.put_u8(0),
        PeftMethod::Lora {
            rank,
            alpha,
            targets,
        } => {
            buf.put_u8(1);
            buf.put_u32_le(rank as u32);
            buf.put_f32_le(alpha);
            let mut bits = 0u8;
            for (i, on) in [
                targets.q,
                targets.k,
                targets.v,
                targets.o,
                targets.mlp_fc1,
                targets.mlp_fc2,
            ]
            .into_iter()
            .enumerate()
            {
                if on {
                    bits |= 1 << i;
                }
            }
            buf.put_u8(bits);
        }
        PeftMethod::Adapter { bottleneck } => {
            buf.put_u8(2);
            buf.put_u32_le(bottleneck as u32);
        }
        PeftMethod::BitFit => buf.put_u8(3),
        PeftMethod::PromptTuning { prompt_len } => {
            buf.put_u8(4);
            buf.put_u32_le(prompt_len as u32);
        }
    }
}

fn get_method(data: &mut Bytes) -> Result<PeftMethod, String> {
    if !data.has_remaining() {
        return Err("truncated method tag".into());
    }
    match data.get_u8() {
        0 => Ok(PeftMethod::Full),
        1 => {
            if data.remaining() < 9 {
                return Err("truncated LoRA method".into());
            }
            let rank = data.get_u32_le() as usize;
            let alpha = data.get_f32_le();
            let bits = data.get_u8();
            let targets = LoraTargets {
                q: bits & 1 != 0,
                k: bits & 2 != 0,
                v: bits & 4 != 0,
                o: bits & 8 != 0,
                mlp_fc1: bits & 16 != 0,
                mlp_fc2: bits & 32 != 0,
            };
            Ok(PeftMethod::Lora {
                rank,
                alpha,
                targets,
            })
        }
        2 => {
            if data.remaining() < 4 {
                return Err("truncated Adapter method".into());
            }
            Ok(PeftMethod::Adapter {
                bottleneck: data.get_u32_le() as usize,
            })
        }
        3 => Ok(PeftMethod::BitFit),
        4 => {
            if data.remaining() < 4 {
                return Err("truncated PromptTuning method".into());
            }
            Ok(PeftMethod::PromptTuning {
                prompt_len: data.get_u32_le() as usize,
            })
        }
        tag => Err(format!("unknown method tag {tag}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lx_model::{prompt_aware_targets, ModelConfig, Sgd, StepRequest};

    fn backbone() -> TransformerModel {
        TransformerModel::new(ModelConfig::test_tiny(), 7)
    }

    fn train_a_bit(model: &mut TransformerModel, steps: usize) {
        let seq = 8;
        let ids: Vec<u32> = (0..16u32).map(|i| (i * 5) % 64).collect();
        let prompt = model.embedding.prompt_len();
        let targets = prompt_aware_targets(&ids, 2, seq, prompt);
        let mut opt = Sgd::new(0.05);
        for _ in 0..steps {
            model.execute(StepRequest::train(&ids, &targets, 2, seq, &mut opt));
        }
    }

    fn backbone_fingerprint(model: &mut TransformerModel) -> Vec<f32> {
        let mut out = Vec::new();
        model.for_each_param(&mut |p| {
            out.push(p.value.as_slice().iter().sum::<f32>());
        });
        out
    }

    #[test]
    fn initialise_leaves_backbone_pristine() {
        let mut m = backbone();
        m.freeze_all();
        let before = backbone_fingerprint(&mut m);
        let n_before = m.num_params();
        let adapter = TenantAdapter::initialise(&mut m, PeftMethod::lora_default(), 1);
        assert_eq!(m.num_trainable(), 0);
        assert_eq!(m.num_params(), n_before);
        assert_eq!(backbone_fingerprint(&mut m), before);
        assert!(adapter.num_params() > 0);
    }

    #[test]
    fn extract_attach_roundtrip_is_bit_exact() {
        for method in [
            PeftMethod::lora_default(),
            PeftMethod::adapter_default(),
            PeftMethod::PromptTuning { prompt_len: 4 },
        ] {
            let mut m = backbone();
            m.freeze_all();
            method.apply(&mut m, 3);
            train_a_bit(&mut m, 5);
            let adapter = TenantAdapter::extract_from(&mut m, method, 3);
            let prompt = m.embedding.prompt_len();
            let ids: Vec<u32> = (0..8u32).collect();
            let logits_before = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
            detach(&mut m);
            assert_eq!(m.num_trainable(), 0, "{}", method.name());
            adapter.attach_to(&mut m);
            assert_eq!(m.embedding.prompt_len(), prompt);
            let logits_after = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
            assert_eq!(
                logits_before.as_slice(),
                logits_after.as_slice(),
                "{}: detach/attach must restore the exact function",
                method.name()
            );
        }
    }

    #[test]
    fn serialization_roundtrip_is_bit_exact() {
        let mut m = backbone();
        m.freeze_all();
        PeftMethod::lora_default().apply(&mut m, 9);
        train_a_bit(&mut m, 4);
        let adapter = TenantAdapter::extract_from(&mut m, PeftMethod::lora_default(), 9);
        let blob = adapter.to_bytes();
        let restored = TenantAdapter::from_bytes(blob).expect("decode");
        assert_eq!(adapter, restored);
    }

    #[test]
    fn corrupt_blob_rejected() {
        let mut m = backbone();
        m.freeze_all();
        let adapter = TenantAdapter::initialise(&mut m, PeftMethod::lora_default(), 2);
        let mut raw = adapter.to_bytes().to_vec();
        raw[0] = b'X';
        assert!(TenantAdapter::from_bytes(Bytes::from(raw)).is_err());
        let good = adapter.to_bytes().to_vec();
        let cut = Bytes::from(good[..good.len() - 3].to_vec());
        assert!(TenantAdapter::from_bytes(cut).is_err());
        let mut trailing = adapter.to_bytes().to_vec();
        trailing.extend_from_slice(&[1, 2, 3]);
        assert!(TenantAdapter::from_bytes(Bytes::from(trailing)).is_err());
    }

    #[test]
    fn method_encoding_roundtrips() {
        for method in [
            PeftMethod::Full,
            PeftMethod::Lora {
                rank: 4,
                alpha: 8.0,
                targets: LoraTargets::all(),
            },
            PeftMethod::adapter_default(),
            PeftMethod::BitFit,
            PeftMethod::PromptTuning { prompt_len: 6 },
        ] {
            let mut buf = BytesMut::new();
            put_method(&mut buf, &method);
            let mut data = buf.freeze();
            assert_eq!(get_method(&mut data).unwrap(), method);
            assert!(!data.has_remaining());
        }
    }

    #[test]
    #[should_panic(expected = "cannot be extracted")]
    fn bitfit_is_not_detachable() {
        let mut m = backbone();
        m.freeze_all();
        TenantAdapter::initialise(&mut m, PeftMethod::BitFit, 1);
    }

    #[test]
    #[should_panic(expected = "pristine")]
    fn attach_requires_pristine_backbone() {
        let mut m = backbone();
        m.freeze_all();
        let adapter = TenantAdapter::initialise(&mut m, PeftMethod::lora_default(), 1);
        PeftMethod::lora_default().apply(&mut m, 2);
        adapter.attach_to(&mut m);
    }
}
