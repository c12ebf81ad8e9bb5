//! # prs-apps — the paper's SPMD applications on the PRS runtime
//!
//! Real numerical implementations (not timing stubs) of every application
//! the paper evaluates or discusses:
//!
//! - [`cmeans`] — fuzzy C-means (Equations (12)–(14)), iterative, resident.
//! - [`kmeans`] — K-means, the Figure-5 comparison point.
//! - [`gmm`] — Gaussian mixtures by EM with full covariances (Equation
//!   (15)), iterative, resident.
//! - [`gemv`] — row-striped matrix-vector multiply, the low-intensity
//!   staged workload (Table 5: p = 97.3 %).
//! - [`dgemm`] — BLAS3 block multiply, the O(N)-intensity workload of the
//!   stream-granularity analysis.
//! - [`wordcount`] — the Figure-4 low end.
//! - [`fft`] — batched radix-2 FFT, the Figure-4 *moderate* band the
//!   paper's conclusion singles out as benefiting most from
//!   co-processing.
//! - [`dakmeans`] — deterministic-annealing clustering, the Figure-5
//!   quality reference (seed-free, globally robust).
//! - [`spmv`] — CSR sparse matrix-vector multiply: the Figure-4 low band
//!   with *irregular* per-row work.
//!
//! Each app provides both `cpu_map` and `gpu_map` flavours (paper
//! Table 1) and a serial reference implementation for ground truth.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cmeans;
pub mod common;
pub mod dakmeans;
pub mod dgemm;
pub mod fft;
pub mod gemv;
pub mod gmm;
pub mod kmeans;
pub mod spmv;
pub mod wordcount;

pub use cmeans::{serial_cmeans, CMeans};
pub use dakmeans::DaKmeans;
pub use dgemm::Dgemm;
pub use fft::BatchFft;
pub use gemv::Gemv;
pub use gmm::{serial_gmm, Gmm};
pub use kmeans::{serial_kmeans, KMeans};
pub use spmv::{CsrMatrix, Spmv};
pub use wordcount::WordCount;
