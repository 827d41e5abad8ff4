//! # eks-cluster — hierarchical, heterogeneous dispatch
//!
//! The coarse-grain half of the paper (Sections III, IV, VI): a tree of
//! dispatcher and computing nodes over heterogeneous (simulated) GPUs.
//!
//! * [`spec`] — cluster description: nodes, devices, link latencies, and
//!   the paper's exact four-node network (A→{B,C}, C→D, five GPUs);
//! * [`tuning`] — the tuning step: per-device achieved throughput `X_j`
//!   (from the cycle-level simulator or the analytic no-ILP model) and
//!   minimum batch `n_j` for a target efficiency;
//! * [`des`] — deterministic discrete-event simulation of a whole search:
//!   round-based scatter/gather with link latencies, launch overheads and
//!   tuning error, producing the aggregate throughput and efficiency of
//!   Table IX;
//! * [`runtime`] — a real multi-threaded runtime (one thread per node,
//!   scoped std threads) that actually cracks keys through the same
//!   dispatch pattern, for end-to-end functional verification;
//! * [`dynamic`] — the virtual-time planning model of a dynamic network
//!   (joins, leaves and re-tuned rates between rounds);
//! * [`multijob`] — the same planned tree serving a whole *spool* of
//!   jobs: the cluster's devices become a persistent [`eks_jobs::Fleet`]
//!   the job service leases keyspace onto, round after round, with
//!   join/leave events applied between fair-share rounds. The periodic
//!   scatter/gather loop runs for real only there, in
//!   [`eks_jobs::JobService::round`];
//! * [`fault`] — the minimum fault-tolerance model the paper sketches:
//!   detect a dead subtree, requeue its outstanding interval, repartition
//!   over the survivors.
//!
//! ```
//! use eks_cluster::{paper_network, simulate_search, SimParams};
//! use eks_hashes::HashAlgo;
//! use eks_kernels::Tool;
//!
//! // Table IX in one call: the paper's network sweeping 5e11 keys.
//! let net = paper_network(2e-3);
//! let r = simulate_search(&net, Tool::OurApproach, HashAlgo::Md5, 5e11, SimParams::default());
//! assert!(r.table9_efficiency() > 0.8, "the paper reports 0.852");
//! ```

pub mod des;
pub mod dynamic;
pub mod fault;
pub mod model;
pub mod multijob;
pub mod runtime;
pub mod simgpu;
pub mod spec;
pub mod strength;
pub mod topology;
pub mod tuning;

pub use des::{simulate_search, time_to_first_hit, NetworkReport, SimParams};
pub use dynamic::{run_dynamic, DynamicConfig, DynamicReport, MembershipEvent, ScheduledEvent};
pub use fault::{simulate_search_with_failure, FailureEvent, FailureReport};
pub use model::{calibrate, fit_model, FittedModel};
pub use multijob::{
    plan_job_fleet, run_dynamic_jobs, FleetEvent, MultiJobReport, ScheduledFleetEvent,
};
pub use runtime::{run_cluster_search, run_cluster_search_retuned, ClusterSearchResult};
pub use simgpu::SimKernelBackend;
pub use spec::{paper_network, ClusterNode, CpuWorker, GpuSlot};
pub use strength::{estimate_against_cluster, estimate_against_device, StrengthEstimate};
pub use topology::parse_topology;
pub use tuning::{tune_device, AchievedModel, Tuning};
