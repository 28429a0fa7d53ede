//! Token + positional embeddings with optional trainable prompt prefix
//! (the P-Tuning / prompt-tuning PEFT method of Table I).
//!
//! With a prompt of length `p`, each batch row becomes
//! `[prompt_0..prompt_p, tok_0..tok_s]`; positions shift accordingly and the
//! loss must ignore the first `p` positions (callers mark them with the
//! ignore index).

use crate::param::Param;
use lx_tensor::Tensor;

#[derive(Debug)]
pub struct Embedding {
    pub tokens: Param,
    pub positions: Param,
    /// Trainable virtual-token prefix `[p, d]` (prompt tuning).
    pub prompt: Option<Param>,
    d_model: usize,
    cache: Option<EmbCache>,
    /// Retired ids buffer parked between steps so the per-step id copy
    /// reuses one allocation instead of a fresh `to_vec` every forward.
    spare_ids: Vec<u32>,
}

#[derive(Debug)]
struct EmbCache {
    /// The step's ids, copied into a buffer whose allocation is reused
    /// across steps (see [`Embedding::forward`]).
    ids: Vec<u32>,
    batch: usize,
    seq: usize,
}

impl Embedding {
    pub fn new(vocab: usize, max_seq: usize, d_model: usize, seed: u64) -> Self {
        Embedding {
            tokens: Param::frozen("embed.tokens", Tensor::randn(&[vocab, d_model], 0.02, seed)),
            positions: Param::frozen(
                "embed.positions",
                Tensor::randn(&[max_seq, d_model], 0.02, seed.wrapping_add(1)),
            ),
            prompt: None,
            d_model,
            cache: None,
            spare_ids: Vec::new(),
        }
    }

    /// Attach a trainable prompt of `p` virtual tokens.
    pub fn attach_prompt(&mut self, p: usize, seed: u64) {
        self.prompt = Some(Param::new(
            "embed.prompt",
            Tensor::randn(&[p, self.d_model], 0.02, seed),
            true,
        ));
    }

    pub fn prompt_len(&self) -> usize {
        self.prompt.as_ref().map_or(0, |p| p.value.shape()[0])
    }

    /// Effective sequence length seen by the blocks.
    pub fn effective_seq(&self, seq: usize) -> usize {
        seq + self.prompt_len()
    }

    /// Embed `ids` (`batch × seq`, row-major) into `[batch·(p+seq), d]`.
    pub fn forward(&mut self, ids: &[u32], batch: usize, seq: usize) -> Tensor {
        assert_eq!(ids.len(), batch * seq, "ids must be batch×seq");
        let p = self.prompt_len();
        let eff = seq + p;
        assert!(
            eff <= self.positions.shape()[0],
            "sequence {eff} exceeds max positions"
        );
        let d = self.d_model;
        let mut out = Tensor::zeros(&[batch * eff, d]);
        for b in 0..batch {
            for s in 0..eff {
                // Row lookups go through the dtype-dispatching Param
                // helpers: frozen tables may be half-stored and decode on
                // load; the trainable prompt is always f32.
                let row = out.row_mut(b * eff + s);
                if s < p {
                    self.prompt.as_ref().unwrap().decode_rows(s, 1, row);
                } else {
                    let tok = ids[b * seq + (s - p)] as usize;
                    self.tokens.decode_rows(tok, 1, row);
                }
                self.positions.add_row_into(s, row);
            }
        }
        let mut ids_buf = std::mem::take(&mut self.spare_ids);
        ids_buf.clear();
        ids_buf.extend_from_slice(ids);
        self.cache = Some(EmbCache {
            ids: ids_buf,
            batch,
            seq,
        });
        out
    }

    /// Accumulate grads into whatever is trainable (prompt, token table,
    /// position table).
    pub fn backward(&mut self, dout: &Tensor) {
        let cache = self
            .cache
            .take()
            .expect("Embedding::backward without forward");
        let p = self.prompt_len();
        let eff = cache.seq + p;
        let d = self.d_model;
        assert_eq!(dout.rows(), cache.batch * eff);
        if let Some(prompt) = &mut self.prompt {
            if prompt.trainable {
                let g = prompt.grad_mut();
                for b in 0..cache.batch {
                    for s in 0..p {
                        let src = dout.row(b * eff + s);
                        let dst = &mut g.as_mut_slice()[s * d..(s + 1) * d];
                        for (o, v) in dst.iter_mut().zip(src) {
                            *o += v;
                        }
                    }
                }
            }
        }
        if self.tokens.trainable {
            // Two-phase to satisfy the borrow checker: gather then scatter.
            let mut updates: Vec<(usize, usize)> = Vec::new();
            for b in 0..cache.batch {
                for s in p..eff {
                    updates.push((cache.ids[b * cache.seq + (s - p)] as usize, b * eff + s));
                }
            }
            let g = self.tokens.grad_mut();
            for (tok, row) in updates {
                let src = dout.row(row);
                let dst = &mut g.as_mut_slice()[tok * d..(tok + 1) * d];
                for (o, v) in dst.iter_mut().zip(src) {
                    *o += v;
                }
            }
        }
        if self.positions.trainable {
            let g = self.positions.grad_mut();
            for b in 0..cache.batch {
                for s in 0..eff {
                    let src = dout.row(b * eff + s);
                    let dst = &mut g.as_mut_slice()[s * d..(s + 1) * d];
                    for (o, v) in dst.iter_mut().zip(src) {
                        *o += v;
                    }
                }
            }
        }
        // Park the ids buffer for the next forward.
        self.spare_ids = cache.ids;
    }

    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.tokens);
        f(&mut self.positions);
        if let Some(p) = &mut self.prompt {
            f(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_adds_token_and_position() {
        let mut emb = Embedding::new(10, 8, 4, 1);
        let ids = vec![3u32, 7, 1, 2];
        let out = emb.forward(&ids, 2, 2);
        assert_eq!(out.shape(), &[4, 4]);
        // Row (b=0, s=1): tokens[7] + positions[1].
        let expect: Vec<f32> = emb.tokens.value.as_slice()[7 * 4..8 * 4]
            .iter()
            .zip(&emb.positions.value.as_slice()[4..8])
            .map(|(a, b)| a + b)
            .collect();
        assert_eq!(out.row(1), &expect[..]);
    }

    #[test]
    fn prompt_prepends_and_shifts_positions() {
        let mut emb = Embedding::new(10, 16, 4, 2);
        emb.attach_prompt(2, 3);
        assert_eq!(emb.effective_seq(3), 5);
        let ids = vec![1u32, 2, 3];
        let out = emb.forward(&ids, 1, 3);
        assert_eq!(out.rows(), 5);
        // Row 0 = prompt[0] + positions[0].
        let prompt = emb.prompt.as_ref().unwrap();
        let expect: Vec<f32> = prompt.value.as_slice()[0..4]
            .iter()
            .zip(&emb.positions.value.as_slice()[0..4])
            .map(|(a, b)| a + b)
            .collect();
        assert_eq!(out.row(0), &expect[..]);
        // Row 2 = tokens[1] + positions[2].
        let expect2: Vec<f32> = emb.tokens.value.as_slice()[4..8]
            .iter()
            .zip(&emb.positions.value.as_slice()[8..12])
            .map(|(a, b)| a + b)
            .collect();
        assert_eq!(out.row(2), &expect2[..]);
    }

    #[test]
    fn backward_routes_grads_by_trainability() {
        let mut emb = Embedding::new(6, 8, 4, 4);
        emb.attach_prompt(1, 5);
        let ids = vec![2u32, 2];
        let out = emb.forward(&ids, 1, 2);
        let dout = Tensor::full(&[out.rows(), 4], 1.0);
        emb.backward(&dout);
        // Only the prompt is trainable by default.
        assert!(emb.tokens.grad.is_none());
        assert!(emb.positions.grad.is_none());
        let pg = emb.prompt.as_ref().unwrap().grad.as_ref().unwrap();
        assert_eq!(pg.as_slice(), &[1.0; 4]);

        // Token gradients accumulate across repeated ids.
        emb.tokens.trainable = true;
        let _ = emb.forward(&ids, 1, 2);
        emb.backward(&dout);
        let tg = emb.tokens.grad.as_ref().unwrap();
        assert_eq!(&tg.as_slice()[2 * 4..3 * 4], &[2.0; 4]); // id 2 hit twice
        assert_eq!(&tg.as_slice()[0..4], &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "exceeds max positions")]
    fn over_long_sequence_panics() {
        let mut emb = Embedding::new(6, 4, 4, 6);
        let ids = vec![0u32; 5];
        emb.forward(&ids, 1, 5);
    }
}
