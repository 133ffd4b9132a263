//! Degradation-ladder tables over the whole model zoo, against the
//! allocating oracle.
//!
//! [`LadderFrontier::compile`] runs one allocation-free decision kernel
//! per probe. The oracle (`crates/sim/src/degrade/oracle.rs`, shared
//! with the unit tests) is the ladder it replaced: one effective
//! `CostProfile` and one nominal best-cut search per probe. The tables
//! — boundaries, per-boundary and per-interval decisions, the healthy
//! decision — must be bit-identical on every real model in
//! [`Model::ALL`] at ten mid-bandwidths from 1 to 100 Mbps, four
//! (rate, ρ) targets and burst sizes 1..=8: 4 800 cases.

use mcdnn_models::Model;
use mcdnn_partition::RateProfile;
use mcdnn_profile::{CloudModel, DeviceModel};
use mcdnn_sim::{LadderDecision, LadderFrontier, LadderLevel};

#[path = "../../sim/src/degrade/oracle.rs"]
mod oracle;

const SETUP_MS: f64 = 10.0;
const BANDWIDTHS: usize = 10;
const RATES: [(f64, f64); 4] = [(20.0, 0.9), (5.0, 1.0), (30.0, 0.9), (1000.0, 0.9)];

#[test]
fn ladder_tables_equal_the_oracle_for_every_zoo_model() {
    let mobile = DeviceModel::raspberry_pi4();
    let mut cases = 0usize;
    for model in Model::ALL {
        let line = model.line().expect("zoo model has a line view");
        let rate = RateProfile::evaluate(&line, &mobile, &CloudModel::Negligible, SETUP_MS);
        for i in 0..BANDWIDTHS {
            let mbps = 100f64.powf(i as f64 / (BANDWIDTHS - 1) as f64);
            let profile = rate.profile_at(mbps);
            for (hz, rho) in RATES {
                for n in 1..=8 {
                    assert_eq!(
                        format!("{:?}", LadderFrontier::compile(&profile, hz, rho, n)),
                        format!("{:?}", oracle::compile(&profile, hz, rho, n)),
                        "{model} at {mbps} Mbps, hz={hz} rho={rho} n={n}"
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 4_800);
}
