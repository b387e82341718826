//! The benchmark's four workloads and their pinned configurations.
//!
//! Each workload is a cell of a registry scenario with a few documented
//! overrides (mostly run length). The resulting config is pinned in
//! `pinned/<workload>.json`, together with the σ and δ it resolves to; a
//! run fails loudly when the registry-derived config no longer matches the
//! pin, so a retuned scenario cannot silently change a workload's input.

use crate::Raw;
use dpbfl::prelude::*;
use dpbfl::simulation::resolve_sigma;
use dpbfl_harness::registry;
use serde::{Serialize, Value};

/// Every workload, in the order the documentation lists them.
pub const NAMES: [&str; 4] = ["quickstart", "million", "byz90", "served"];

/// A workload ready to run: its config (seed applied) and pinned privacy.
#[derive(Clone)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The config every unit of the run uses.
    pub cfg: SimulationConfig,
    /// The registry scenario's own seed, which the quality metrics use.
    pub pinned_seed: u64,
    /// Served over TCP loopback instead of the in-process transport.
    pub served: bool,
    /// σ the config resolved to when the workload was pinned.
    pub sigma: f64,
    /// δ the config resolved to when the workload was pinned.
    pub delta: f64,
}

fn pinned_text(name: &str) -> &'static str {
    match name {
        "quickstart" => include_str!("../pinned/quickstart.json"),
        "million" => include_str!("../pinned/million.json"),
        "byz90" => include_str!("../pinned/byz90.json"),
        "served" => include_str!("../pinned/served.json"),
        _ => unreachable!("unknown workload {name}"),
    }
}

/// The registry scenario a workload starts from, and its config there (the
/// scenario's own seed) with the workload's overrides applied.
fn derive(name: &str) -> (&'static str, SimulationConfig) {
    let (scenario, pick): (&str, fn(&SimulationConfig) -> bool) = match name {
        "quickstart" => ("paper/quickstart", |c| c.defense == DefenseKind::TwoStage),
        "million" => ("scale/million_clients", |_| true),
        "byz90" => ("paper/extreme_byz", |c| c.n_byzantine == 18),
        "served" => ("serving/loopback_smoke", |_| true),
        _ => unreachable!("unknown workload {name}"),
    };
    let cells = registry::get(scenario).expect("scenario is registered").cells();
    let mut cfg = cells
        .into_iter()
        .map(|cell| cell.config)
        .find(pick)
        .expect("scenario has the workload's cell");
    match name {
        // 10 rounds at b_c = 16: one round is too short to time steadily.
        "million" => cfg.epochs = 2.5,
        // The omniscient attack forces the materialized path; 400 rounds.
        "byz90" => {
            cfg.attack = AttackSpec::ALittle;
            cfg.epochs = 64.0 / 3.0;
        }
        // 1 200 rounds, so each served run leaves 12 rounds beyond its p99.
        "served" => cfg.epochs = 150.0,
        _ => {}
    }
    (scenario, cfg)
}

fn known(name: &str) -> Result<&'static str, String> {
    NAMES
        .iter()
        .copied()
        .find(|&n| n == name)
        .ok_or_else(|| format!("unknown workload {name:?}; expected one of {}", NAMES.join(", ")))
}

/// The pin file for `name` as it would be written today (`--pin`).
pub fn pin(name: &str) -> Result<String, String> {
    let (scenario, cfg) = derive(known(name)?);
    let (sigma, delta) = resolve_sigma(&cfg);
    let pinned = Value::Obj(vec![
        ("workload".into(), Value::Str(name.into())),
        ("scenario".into(), Value::Str(scenario.into())),
        ("rounds".into(), Value::Int(cfg.iterations() as i64)),
        ("sigma".into(), Value::Float(sigma)),
        ("delta".into(), Value::Float(delta)),
        ("config".into(), cfg.to_value()),
    ]);
    Ok(serde_json::to_string_pretty(&Raw(pinned)).expect("pin serializes"))
}

impl Workload {
    /// The same workload on the registry scenario's own seed.
    pub fn at_pinned_seed(&self) -> Workload {
        let mut w = self.clone();
        w.cfg.seed = self.pinned_seed;
        w
    }
}

/// Loads `name`, checking the registry-derived config against its pin.
pub fn load(name: &str, seed: u64) -> Result<Workload, String> {
    let name = known(name)?;
    let pinned = serde_json::parse_value(pinned_text(name)).map_err(|e| e.to_string())?;
    let pinned_cfg = pinned.get("config").ok_or("pin has no config")?;
    let (_, mut cfg) = derive(name);
    let now = serde_json::to_string(&cfg).expect("config serializes");
    let then = serde_json::to_string(&Raw(pinned_cfg.clone())).expect("pin serializes");
    if now != then {
        return Err(format!(
            "config drift: workload {name} no longer matches pinned/{name}.json\n  \
             pinned: {then}\n  now:    {now}\n\
             Re-pin it (--pin {name}) in a change that alters only the benchmark."
        ));
    }
    let number =
        |key: &str| pinned.get(key).and_then(Value::as_f64).ok_or(format!("pin has no {key}"));
    let pinned_seed = std::mem::replace(&mut cfg.seed, seed);
    Ok(Workload {
        name,
        pinned_seed,
        served: name == "served",
        sigma: number("sigma")?,
        delta: number("delta")?,
        cfg,
    })
}
