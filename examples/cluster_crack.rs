//! The paper's evaluation scenario end-to-end: the four-node, five-GPU
//! network of Section VI-A cracking a password.
//!
//! 1. tunes every device (the Section III tuning step), printing the
//!    Table VIII throughput columns;
//! 2. runs the discrete-event simulation of a large search and reports
//!    the Table IX aggregate throughput and efficiency;
//! 3. runs a *real* threaded search over a small keyspace through the
//!    same hierarchical dispatch and recovers the planted password.
//!
//! Run with: `cargo run --release --example cluster_crack`

use eks::cluster::{
    paper_network, run_cluster_search, simulate_search, tune_device, AchievedModel, SimParams,
};
use eks::cracker::TargetSet;
use eks::engine::SchedPolicy;
use eks::hashes::HashAlgo;
use eks::kernels::Tool;
use eks::keyspace::{Charset, KeySpace, Order};
use eks::telemetry::Telemetry;

fn main() {
    let net = paper_network(2e-3);
    println!("network: A(540M) -> B(660, 550Ti), A -> C(8600M) -> D(8800)\n");

    // Tuning step: per-device achieved throughput (Table VIII column).
    println!("{:<24} {:>14} {:>14} {:>8}", "device", "theoretical", "achieved", "eff");
    let mut sum_achieved = 0.0;
    for d in net.all_devices() {
        let t = tune_device(d, Tool::OurApproach, HashAlgo::Md5, AchievedModel::Analytic);
        sum_achieved += t.achieved_mkeys;
        println!(
            "{:<24} {:>10.1} MK/s {:>10.1} MK/s {:>7.1}%",
            d.name,
            t.theoretical_mkeys,
            t.achieved_mkeys,
            t.efficiency() * 100.0
        );
    }
    println!("{:<24} {:>14} {:>10.1} MK/s\n", "sum of devices", "", sum_achieved);

    // Table IX: simulate a long search over the whole network.
    let params = SimParams::default();
    let keys = 5e11; // half a tera-candidate sweep
    let report = simulate_search(&net, Tool::OurApproach, HashAlgo::Md5, keys, params);
    println!(
        "whole network     : {:.1} MKey/s over {:.0e} keys ({:.1} s simulated)",
        report.achieved_mkeys, keys, report.makespan_s
    );
    println!(
        "efficiency        : {:.3} vs theoretical sum (paper Table IX: 0.852)",
        report.table9_efficiency()
    );
    println!(
        "dispatch quality  : {:.3} vs achieved sum (paper: \"roughly the sum\")\n",
        report.parallel_efficiency()
    );

    // A real cracked password through the same dispatch tree.
    let space = KeySpace::new(Charset::lowercase(), 1, 4, Order::FirstCharFastest).unwrap();
    let secret = b"amd";
    let targets = TargetSet::new(HashAlgo::Md5, &[HashAlgo::Md5.hash(secret)]);
    let off = Telemetry::disabled();
    let result = run_cluster_search(
        &net, &space, &targets, space.interval(), true, SchedPolicy::Static, &off,
    );
    let (id, key, _) = result.hits.first().expect("planted key is in the space");
    println!("real search       : cracked \"{key}\" (id {id}), {} keys tested", result.tested);
    println!("per-device work   :");
    for (name, tested) in &result.per_device {
        println!("  {name:<28} {tested:>10} keys");
    }
}
