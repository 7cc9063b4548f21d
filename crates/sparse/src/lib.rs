//! # ah-sparse — sparse linear-algebra substrate
//!
//! The PETSc case study of the HPDC'06 Active Harmony paper tunes the *row
//! decomposition* of distributed sparse linear solves. To reproduce the
//! experiments without PETSc/MPI, this crate provides real sparse matrices
//! and solvers:
//!
//! * [`csr::CsrMatrix`] — compressed sparse row storage with sparse
//!   matrix–vector products;
//! * [`gen`] — matrix generators: the 2-D five-point Laplacian used for the
//!   paper's 21,025² and 90,601² problems, and clustered block matrices in
//!   the shape of Figure 2(a);
//! * [`cg`] — the conjugate-gradient solver;
//! * [`partition`] — row partitions defined by boundary lists, with the two
//!   quantities decomposition tuning trades off: per-partition work (load
//!   balance) and off-partition nonzeros (communication volume).

#![warn(missing_docs)]

pub mod cg;
pub mod csr;
pub mod gen;
pub mod partition;
pub mod vec_ops;

pub use cg::{cg_solve, CgOutcome};
pub use csr::CsrMatrix;
pub use partition::RowPartition;
