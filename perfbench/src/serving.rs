//! The serving fixture of the `score_*` workloads: a three-backend
//! `LocalCluster` on loopback TCP behind one `Router`, holding the first
//! serving bundle.

use crate::inputs::{Compas, RowSource, ServingModels};
use crate::params::*;
use pfr::router::{LocalCluster, Router, RouterConfig};
use pfr::serve::ServerConfig;

/// Key of the request that ends set-up; outside both the Zipf pool and the
/// unique-key range.
pub const SETUP_KEY: u64 = 1 << 39;

/// A booted, placed and verified serving tier. Fields drop in order, so
/// the router stops before the backends shut down.
pub struct Serving {
    pub router: Router,
    pub cluster: LocalCluster,
    pub models: ServingModels,
    pub rows: RowSource,
}

impl Serving {
    /// Generates the serving data from `seed`, trains both bundle
    /// versions, boots the backends, pushes the first version, syncs the
    /// placement catalog and checks one routed score.
    pub fn setup(seed: u64) -> Serving {
        let data = Compas::generate(seed, false);
        let models = ServingModels::train(&data);
        let rows = RowSource::new(&data.rows, seed);
        let cluster =
            LocalCluster::boot(BACKENDS, ServerConfig::default()).expect("loopback backends boot");
        let router = cluster
            .router(RouterConfig {
                replication: REPLICATION,
                ..RouterConfig::default()
            })
            .expect("the router connects to live backends");
        router
            .push(MODEL, &models.v1)
            .expect("live replicas accept the bundle");
        router.sync_now();
        let row = rows.row(SETUP_KEY);
        let got = router.score(MODEL, &row).expect("a placed model scores");
        assert_eq!(
            got.to_bits(),
            models
                .oracle_v1
                .score_one(&row)
                .expect("oracle scores")
                .to_bits(),
            "first routed score differs from the oracle"
        );
        Serving {
            router,
            cluster,
            models,
            rows,
        }
    }

    /// Whether `bits` is the first bundle's offline score of `key`'s
    /// vector.
    pub fn matches(&self, key: u64, bits: u64) -> bool {
        let row = self.rows.row(key);
        self.models
            .oracle_v1
            .score_one(&row)
            .expect("oracle scores")
            .to_bits()
            == bits
    }
}
