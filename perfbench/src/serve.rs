//! The service under test, configured as `grdf-cli serve` configures it
//! by default — except that no SLO objectives are declared (with SLOs on,
//! degraded admission sheds one request in four once p99 crosses 250 ms,
//! which `mixed_writes` crosses by design).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grdf_obs::{Obs, WindowConfig};
use grdf_rdf::graph::Graph;
use grdf_rdf::vocab::grdf;
use grdf_runtime::system_clock;
use grdf_security::gsacs::{GSacs, OntoRepository, OwlHorstEngine};
use grdf_security::policy::{Action, Policy, PolicySet};
use grdf_security::resilience::ResilienceConfig;
use grdf_server::{GrdfServer, ServerConfig};
use grdf_store::{FsBackend, StoreConfig};
use grdf_workload::incident::{roles, scenario_policies};

use crate::gen::CACHE_CAPACITY;

/// The observability context `grdf-cli serve` builds: a 256-entry trace
/// sink, windowed metrics and the 10 ms sampling profiler.
pub fn obs() -> Obs {
    let clock = system_clock();
    Obs::with_tracing(256)
        .with_windows(WindowConfig::default(), Arc::clone(&clock))
        .with_profiler(Duration::from_millis(10), clock)
}

/// Resilience defaults (lint gate off, unlimited service budget) with the
/// serve-time obs context and no SLO objectives.
pub fn resilience() -> ResilienceConfig {
    ResilienceConfig {
        obs: obs(),
        slos: Vec::new(),
        ..ResilienceConfig::default()
    }
}

/// `scenario_policies()` plus two write grants for the emergency role on
/// `app:ChemSite` (`Edit` and `Delete`). Only `View` policies shape read
/// views, so the reads are unaffected.
pub fn policies() -> PolicySet {
    let mut set = scenario_policies();
    for (id, action) in [
        ("EmEditSite", Action::Edit),
        ("EmDeleteSite", Action::Delete),
    ] {
        set.policies.push(Policy {
            action,
            ..Policy::permit(&grdf::sec(id), &roles::emergency(), &grdf::app("ChemSite"))
        });
    }
    set
}

/// Store configuration of the durable service: `StoreConfig::default()`.
pub fn store_config() -> StoreConfig {
    StoreConfig::default()
}

/// A one-line statement of the durable store's flush policy.
pub fn flush_policy() -> String {
    let c = store_config();
    format!(
        "fsync {:?}, checkpoint at {} B of WAL",
        c.fsync, c.checkpoint_threshold
    )
}

/// Build the service over `data` (durable on `dir` when given).
pub fn build(data: Graph, dir: Option<&Path>) -> Result<GSacs, String> {
    match dir {
        None => Ok(GSacs::with_resilience(
            OntoRepository::new(),
            policies(),
            Box::<OwlHorstEngine>::default(),
            data,
            CACHE_CAPACITY,
            resilience(),
        )),
        Some(dir) => GSacs::create_durable(
            Arc::new(backend(dir)?),
            store_config(),
            OntoRepository::new(),
            policies(),
            Box::<OwlHorstEngine>::default(),
            data,
            CACHE_CAPACITY,
            resilience(),
        )
        .map_err(|e| format!("create_durable: {e}")),
    }
}

/// Open (creating) a file-system store directory.
pub fn backend(dir: &Path) -> Result<FsBackend, String> {
    FsBackend::open(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// A freshly created, empty directory `name` under `work`.
pub fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The running service and what setting it up cost.
pub struct Setup {
    pub server: GrdfServer,
    /// Store directory of the durable service.
    pub dir: Option<PathBuf>,
    /// Seconds from service construction to a listening server, one per
    /// repetition.
    pub samples_s: Vec<f64>,
}

/// Set the service up `reps` times, timing each from construction
/// (materialisation, plus checkpoint 0 when durable) until the server is
/// listening, and hand each fresh server with its repetition index to
/// `on_ready` (write probe and cold phase); keep the last. Copying the generated input is not timed.
pub fn setup(
    data: &Graph,
    durable: bool,
    work: &Path,
    reps: usize,
    mut on_ready: impl FnMut(usize, &GrdfServer) -> Result<(), String>,
) -> Result<Setup, String> {
    let mut samples_s = Vec::with_capacity(reps);
    let mut kept = None;
    for k in 0..reps {
        let copy = data.clone();
        let dir = if durable {
            Some(fresh_dir(work, &format!("setup-{k}"))?)
        } else {
            None
        };
        let t = Instant::now();
        let svc = build(copy, dir.as_deref())?;
        let server = GrdfServer::bind("127.0.0.1:0", svc, ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        samples_s.push(t.elapsed().as_secs_f64());
        on_ready(k, &server)?;
        if k + 1 < reps {
            server.shutdown();
            if let Some(d) = dir {
                std::fs::remove_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
            }
        } else {
            kept = Some((server, dir));
        }
    }
    let (server, dir) = kept.ok_or("setup needs at least one repetition")?;
    Ok(Setup {
        server,
        dir,
        samples_s,
    })
}

/// Reopen the durable service in `dir` with
/// `GSacs::recover_with_resilience`; returns the time until the service
/// could serve and whether its base equals `expected`.
pub fn recover(dir: &Path, expected: &Graph) -> Result<(f64, bool), String> {
    let backend = Arc::new(backend(dir)?);
    let t = Instant::now();
    let (svc, _) = GSacs::recover_with_resilience(
        backend,
        store_config(),
        Box::<OwlHorstEngine>::default(),
        CACHE_CAPACITY,
        resilience(),
    )
    .map_err(|e| format!("recover: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((ms, svc.base_graph() == expected))
}
