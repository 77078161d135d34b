//! Host-integration runtime for the ELSA accelerator (§III-E, §IV-B).
//!
//! The paper positions ELSA as "a specialized functional unit … which can be
//! integrated with various computing devices such as CPUs, GPUs, and other
//! NN accelerators": the host issues a command per self-attention invocation
//! (passing Q/K/V by reference into scratchpad memory), replicated
//! accelerators exploit batch-level parallelism, and the candidate-selection
//! threshold is learned **per attention sub-layer** — 384 of them for
//! BERT-large (§III-E).
//!
//! This crate is that integration layer:
//!
//! * [`quality`] — [`quality::DeepProxyModel`]: stacked transformer layers
//!   whose attention runs exactly or through ELSA operators calibrated one
//!   threshold per sub-layer, so accuracy can be measured at the top of a
//!   deep residual stack (the paper's end-to-end protocol) instead of at a
//!   single layer;
//! * [`serving`] — [`serving::InferenceServer`]: the fault-free FIFO fold
//!   over the accelerator pool, kept as the reference every richer server
//!   is tested against (fault-tolerant batches are served by
//!   `elsa_serve::OnlineServer::serve_batch`);
//! * [`error`] — [`error::RuntimeError`]: typed errors for everything a
//!   caller can get wrong, so serving keeps running instead of panicking.
//!
//! The end-to-end speedup of §V-C (attention offloaded, the rest on the
//! host) is the `end_to_end_speedup` experiment in `elsa-bench`.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod error;
pub mod quality;
pub mod serving;

pub use error::RuntimeError;
pub use quality::DeepProxyModel;
pub use serving::{InferenceServer, RequestRecord, ServingReport};
