//! # eks-core — the exhaustive-search parallelization pattern
//!
//! This crate implements the abstract pattern of Section III of
//! *"Exhaustive Key Search on Clusters of GPUs"* (Barbieri, Cardellini,
//! Filippone, IPPS 2014):
//!
//! * a [`SolutionSpace`]: a bijection `f : N -> S` from identifiers to
//!   candidate solutions together with a cheap incremental `next` operator
//!   such that `next(i, f(i)) = f(i + 1)`;
//! * a test function `C : S -> {0, 1}` ([`CandidateTest`]) plus an optional
//!   merge step executed by the master ([`Merge`]);
//! * a **cost model** ([`cost`]) with the paper's `K_f`, `K_next`, `K_C`
//!   quantities, the single-process search cost `K_search`, the dispatch
//!   cost bounds on `K_D`, and the efficiency definition;
//! * **partitioning and load balancing** ([`partition`]): the tuning-step
//!   driven, throughput-proportional interval assignment
//!   `N_j = N_max * X_j / X_max` with `N_max = max_j (n_j * X_max / X_j)`;
//! * generic **drivers** ([`driver`]) that run a search sequentially using
//!   `f` once and `next` thereafter, demonstrating the efficiency gain the
//!   paper derives when `K_next < K_f`.
//!
//! The concrete password-cracking instantiation lives in the sibling crates
//! `eks-keyspace` (the bijection over strings), `eks-hashes` /
//! `eks-kernels` (the test function) and `eks-cluster` (the hierarchical
//! dispatcher).

pub mod cost;
pub mod driver;
pub mod partition;
pub mod pattern;
pub mod prop;
pub mod space;

pub use cost::{measure_cost_model, CostModel, DispatchCosts, Efficiency};
pub use driver::{search_interval, search_interval_with, SearchOutcome};
pub use partition::{balance_workloads, NodeRate, Partition, WorkAssignment};
pub use pattern::{Master, MergeOutcome, Worker, WorkerReport};
pub use space::{CandidateTest, Merge, SolutionSpace};
