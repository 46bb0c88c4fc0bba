//! A simulation on a large platform sizes its solver state by the
//! resources its flows touch, not by the platform's links and hosts.

use g5k::simflow_conv::{to_simflow, Flavor};
use g5k::synth::synthetic;
use simflow::{NetworkConfig, ResolvedPath, Simulation};

#[test]
fn solver_state_follows_the_touched_resources() {
    let p = to_simflow(&synthetic(20_000), Flavor::G5kTest);
    let cfg = NetworkConfig::default();
    let host = |name: &str| p.host_by_name(name).unwrap_or_else(|| panic!("no host {name}"));
    // Two intra-cluster transfers sharing a NIC, one intra-site and one
    // cross-site transfer riding the backbone.
    let pairs = [
        ("s00c0-1.s00.grid5000.fr", "s00c0-2.s00.grid5000.fr"),
        ("s00c0-1.s00.grid5000.fr", "s00c0-3.s00.grid5000.fr"),
        ("s00c1-5.s00.grid5000.fr", "s00c3-9.s00.grid5000.fr"),
        ("s00c2-7.s00.grid5000.fr", "s01c3-250.s01.grid5000.fr"),
    ];
    let mut sim = Simulation::new(&p, cfg);
    let mut touched: Vec<u32> = Vec::new();
    for (i, (a, b)) in pairs.iter().enumerate() {
        let (a, b) = (host(a), host(b));
        touched.extend(ResolvedPath::resolve(&p, &cfg, a, b).unwrap().resources);
        sim.add_transfer(a, b, 1e8 * (i + 1) as f64).unwrap();
    }
    touched.sort_unstable();
    touched.dedup();

    let report = sim.run().unwrap();
    assert!(report.completions.iter().all(|c| !c.failed()));
    assert_eq!(report.stats.resources, touched.len() as u64);
    let platform_resources = (p.link_count() + p.host_count()) as u64;
    assert!(
        report.stats.resources * 1000 < platform_resources,
        "{} solver resources on a {platform_resources}-resource platform",
        report.stats.resources
    );
}
