//! The system under test, started the way the example gateway restarts
//! with `LIXTO_DATA_DIR` set: a spooled wrapper registry that reloads a
//! catalogue of earlier deployments ([`Catalogue`]), and a pool with the
//! default `ServerConfig` over a durable `TieredStore` in a fresh
//! directory, all inside the benchmark's scratch directory.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lixto_elog::WebSource;
use lixto_server::{
    durability_layout, DurabilityLayout, ExtractionServer, ServerConfig, StoreConfig,
    WrapperRegistry,
};

use crate::corpus::{profile_wrappers, Wrapper};

/// Scratch directory, relative to the repository root the benchmark runs
/// from.
pub const SCRATCH: &str = ".perfbench";

/// Wrappers in the catalogue every set-up reloads.
const CATALOGUE: usize = 1000;

/// A wrapper spool of [`CATALOGUE`] earlier deployments: the five
/// serving-mix wrappers deployed again and again under names of their
/// own, as a gateway serving many sites holds them. Every set-up starts
/// on a copy of it, so `setup_s` includes the parse, compile and
/// optimize of every spooled wrapper that a restarted gateway does, and
/// that CPU-bound work, not thread start-up or timer wake-ups, is most
/// of set-up. Requests never use the catalogue's wrappers.
pub struct Catalogue {
    dir: PathBuf,
}

impl Catalogue {
    pub fn build() -> Catalogue {
        let dir = Path::new(SCRATCH).join(format!("catalogue-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = WrapperRegistry::with_spool(&dir).expect("open catalogue spool");
        let profiles = profile_wrappers(&["books_a", "books_b", "ebay", "news", "flights"]);
        for k in 0..CATALOGUE {
            let p = &profiles[k % profiles.len()];
            registry
                .register_source(&format!("{}-site{k}", p.name), &p.program, p.design())
                .expect("catalogue wrapper compiles");
        }
        Catalogue { dir }
    }

    /// A data directory for set-up number `k` of this process: the
    /// catalogue as its wrapper spool and no store yet.
    pub fn data_dir(&self, k: usize) -> PathBuf {
        let dir = Path::new(SCRATCH).join(format!("data-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        self.copy_into(&durability_layout(&dir).wrappers);
        dir
    }

    /// Link the catalogue's manifests into the spool directory `spool`
    /// (copy them where the file system has no hard links). The registry
    /// only reads a manifest it reloads, so links serve as copies without
    /// writing the catalogue out again, and flushing it to disk during
    /// the measured slices, for every set-up.
    pub fn copy_into(&self, spool: &Path) {
        std::fs::create_dir_all(spool).expect("create spool directory");
        for entry in std::fs::read_dir(&self.dir).expect("read catalogue") {
            let path = entry.expect("catalogue entry").path();
            let target = spool.join(path.file_name().expect("manifest name"));
            std::fs::hard_link(&path, &target)
                .or_else(|_| std::fs::copy(&path, &target).map(drop))
                .expect("link a catalogue manifest");
        }
    }
}

impl Drop for Catalogue {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A started pool.
pub struct Pool {
    pub dir: PathBuf,
    pub layout: DurabilityLayout,
    pub registry: Arc<WrapperRegistry>,
    pub server: Arc<ExtractionServer>,
    /// Wall time of each `register_source` call (parse, compile,
    /// optimize, spool).
    pub deploys: Vec<Duration>,
}

/// Reload the spooled registry under `dir`, deploy `wrappers` into it
/// and start the pool over `web`.
pub fn start_pool(
    dir: PathBuf,
    wrappers: &[&Wrapper],
    web: Arc<dyn WebSource + Send + Sync>,
) -> Pool {
    let layout = durability_layout(&dir);
    let registry =
        Arc::new(WrapperRegistry::with_spool(&layout.wrappers).expect("open wrapper spool"));
    let deploys = wrappers
        .iter()
        .map(|w| {
            let t = Instant::now();
            registry
                .register_source(&w.name, &w.program, w.design())
                .expect("workload wrapper compiles");
            t.elapsed()
        })
        .collect();
    let server = Arc::new(ExtractionServer::start(
        ServerConfig {
            store: Some(StoreConfig::new(&layout.store)),
            ..ServerConfig::default()
        },
        registry.clone(),
        web,
    ));
    Pool {
        dir,
        layout,
        registry,
        server,
        deploys,
    }
}

impl Pool {
    /// Drain and join the pool, then delete its data directory.
    pub fn stop(self) {
        self.server.initiate_shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Client threads and connections: one per available core.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}
