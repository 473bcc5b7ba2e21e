//! # kaas-kernels — real accelerator kernel implementations
//!
//! Every workload the KaaS paper evaluates, implemented as a
//! [`Kernel`]: a *real computation* plus a [`kaas_accel::WorkUnits`]
//! profile that the device models turn into virtual time.
//!
//! | Kernel | Paper section | Device class | Computation |
//! |---|---|---|---|
//! | [`MatMul`] | §5.1 | GPU | blocked dense product |
//! | [`SoftDtw`] | §5.6.1 | GPU | soft-DTW dynamic program |
//! | [`GaGeneration`] | §5.3/§5.6.1 | GPU | tournament GA over Rastrigin |
//! | [`GnnTraining`] | §5.6.1 | GPU | 2-layer GCN with manual backprop |
//! | [`MonteCarlo`] | §5.6.1 | GPU | ∫₁¹⁰ dx/x sampling |
//! | [`QcSimulation`] | §5.6.1 | GPU | state-vector CX circuits |
//! | [`Histogram`] | §5.6.2 | FPGA | 256-bin integer histogram |
//! | [`BitmapConversion`] | §5.6.2 / Fig. 1 | FPGA | luma thresholding |
//! | [`Conv2d`] | §5.6.3 | TPU | 64-channel 7×7 convolution |
//! | [`VqeEstimator`] | §5.6.4 | QPU | H₂ energy estimator |
//! | [`ResNet50`] | §5.4 | GPU | layer-accurate inference descriptor |
//! | [`Preprocess`] | Fig. 1 | CPU | box-filter image resize |
//!
//! ```
//! use kaas_kernels::{Kernel, MatMul, Value};
//!
//! let k = MatMul::new();
//! let work = k.work(&Value::U64(500)).unwrap();
//! assert_eq!(work.flops, 2.0 * 500f64.powi(3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod conv2d;
mod dtw;
mod fpga;
mod ga;
mod gnn;
mod hash;
mod image;
mod kernel;
mod matmul;
mod mci;
mod qc;
mod resnet;
mod value;

pub use conv2d::{conv2d_direct, Conv2d, ConvAlgorithm};
pub use dtw::{soft_dtw, SoftDtw};
pub use fpga::{
    histogram256, to_bitmap, BitmapConversion, Histogram, BITMAP_HEIGHT, BITMAP_WIDTH,
    HISTOGRAM_LEN,
};
pub use ga::{evolve_generation, mean_fitness, rastrigin, GaGeneration, GENERATIONS, GENES};
pub use gnn::{GcnModel, GnnTraining, Graph};
pub use hash::WordHasher;
pub use image::{box_resize, Preprocess, TARGET};
pub use kernel::{Kernel, KernelError, Warmup};
pub use matmul::{matmul, MatMul};
pub use mci::{estimate_integral, MonteCarlo};
pub use qc::{QcSimulation, VqeEstimator};
pub use resnet::{resnet50_flops_per_image, resnet50_stages, ConvStage, ResNet50, IMAGE_BYTES};
pub use value::Value;
