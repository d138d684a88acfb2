//! Regenerates the design-choice ablations (experiment E11): what the
//! host cache, the query fan-out and the managers' retry cadence buy.

use wanacl_analysis::experiments::{ablation_workload, retry_cadence};
use wanacl_core::prelude::QueryFanout;
use wanacl_sim::time::SimDuration;

fn main() {
    let (cold, warm) = (SimDuration::from_millis(1), SimDuration::from_secs(30));
    println!(
        "caching ablation (120 invokes): cached -> {} ctrl msgs, uncached -> {} ctrl msgs",
        ablation_workload(2, warm, QueryFanout::All, 1).1,
        ablation_workload(2, cold, QueryFanout::All, 1).1
    );

    println!("\nfan-out ablation (uncached checks, M=5, C=1):");
    for (name, fanout) in [
        ("all", QueryFanout::All),
        ("subset", QueryFanout::Subset),
        ("sequential", QueryFanout::Sequential),
    ] {
        let (allowed, control) = ablation_workload(1, cold, fanout, 3);
        println!("  {name:<10} allowed={allowed:<4} ctrl msgs={control}");
    }

    println!("\nretry-cadence ablation (20% loss, mean time to update quorum over seeds 1-20):");
    for retry_ms in [100, 500, 2_000] {
        let (mean, reached) = retry_cadence(SimDuration::from_millis(retry_ms));
        println!("  retry {retry_ms:>5} ms -> {mean:.3} s ({reached}/20 seeds reached quorum)");
    }
}
