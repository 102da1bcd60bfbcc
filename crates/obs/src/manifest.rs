//! Run manifests: `results/run_manifest.json`.
//!
//! A manifest stamps one CLI invocation with everything needed to
//! audit its artefacts: the command line, engine versions
//! (interp/timing/format), workload fingerprints, geometry and config
//! hashes, budgets, store temperature, per-phase wall-clock, and a
//! final metrics snapshot. The manifest is written next to the
//! reports but is *not* a report: the byte-identical-report
//! invariants cover `results/*.md` bodies, which never embed manifest
//! data.

use std::io;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::metrics::MetricsSnapshot;

/// Manifest schema version, bumped when the key layout changes.
pub const MANIFEST_SCHEMA: u32 = 1;

/// Builder for one run manifest. Keys render in insertion order,
/// after the fixed header (`schema`, `generated_unix`, `command`).
#[derive(Debug)]
pub struct Manifest {
    members: Vec<(String, Json)>,
    phases: Vec<(String, f64)>,
}

impl Manifest {
    /// Starts a manifest for `command` (e.g. `"figures"`, `"run"`).
    pub fn new(command: &str) -> Manifest {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Manifest {
            members: vec![
                ("schema".to_string(), Json::U64(u64::from(MANIFEST_SCHEMA))),
                ("generated_unix".to_string(), Json::U64(now)),
                ("command".to_string(), Json::Str(command.to_string())),
            ],
            phases: Vec::new(),
        }
    }

    /// Sets (or replaces) an arbitrary top-level entry.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Manifest {
        match self.members.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.members.push((key.to_string(), value)),
        }
        self
    }

    /// Sets a string entry.
    pub fn set_str(&mut self, key: &str, value: impl AsRef<str>) -> &mut Manifest {
        self.set(key, Json::Str(value.as_ref().to_string()))
    }

    /// Sets an unsigned integer entry.
    pub fn set_u64(&mut self, key: &str, value: u64) -> &mut Manifest {
        self.set(key, Json::U64(value))
    }

    /// Records per-phase wall-clock seconds; phases keep call order
    /// and repeated names accumulate.
    pub fn phase_secs(&mut self, name: &str, secs: f64) -> &mut Manifest {
        match self.phases.iter_mut().find(|(n, _)| n == name) {
            Some((_, acc)) => *acc += secs,
            None => self.phases.push((name.to_string(), secs)),
        }
        self
    }

    /// Embeds a metrics snapshot (counters and gauges; histograms
    /// stay in the Prometheus export, which carries them natively).
    pub fn set_metrics(&mut self, snap: &MetricsSnapshot) -> &mut Manifest {
        let counters = snap
            .counters
            .iter()
            .map(|&(n, v)| (n.to_string(), Json::U64(v)))
            .collect();
        let gauges = snap
            .gauges
            .iter()
            .map(|&(n, v)| (n.to_string(), Json::U64(v)))
            .collect();
        self.set("counters", Json::Obj(counters));
        self.set("gauges", Json::Obj(gauges))
    }

    /// The manifest as a JSON value.
    pub fn to_json(&self) -> Json {
        let mut members = self.members.clone();
        if !self.phases.is_empty() {
            let phases = self
                .phases
                .iter()
                .map(|(n, s)| (n.clone(), Json::F64(*s)))
                .collect();
            members.push(("phase_secs".to_string(), Json::Obj(phases)));
        }
        Json::Obj(members)
    }

    /// Renders the manifest as pretty JSON.
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Writes the manifest to `path`, creating parent directories.
    ///
    /// The write is atomic (unique temp file + rename, like the store
    /// shards): concurrent invocations stamping the same manifest —
    /// racing `dca figures` processes, N serve-driven runs — each
    /// replace it wholesale, so a reader always sees one writer's
    /// complete document, never an interleaving or a torn prefix.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        use std::sync::atomic::{AtomicU64, Ordering};
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "manifest".to_string());
        let tmp = path.with_file_name(format!(
            ".tmp-{}-{}-{name}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, self.render())?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    #[test]
    fn manifest_renders_header_fields_and_phases() {
        let mut m = Manifest::new("figures");
        m.set_str("interp_version", "1")
            .set_u64("budget_intervals", 96)
            .phase_secs("fast_forward", 1.25)
            .phase_secs("detail", 0.5)
            .phase_secs("fast_forward", 0.75);
        let doc = crate::json::parse(&m.render()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_u64),
            Some(u64::from(MANIFEST_SCHEMA))
        );
        assert_eq!(doc.get("command").and_then(Json::as_str), Some("figures"));
        assert!(doc.get("generated_unix").and_then(Json::as_u64).is_some());
        assert_eq!(doc.get("budget_intervals").and_then(Json::as_u64), Some(96));
        let phases = doc.get("phase_secs").unwrap();
        assert_eq!(
            phases.get("fast_forward").and_then(Json::as_f64),
            Some(2.0),
            "repeated phases accumulate"
        );
        assert_eq!(phases.get("detail").and_then(Json::as_f64), Some(0.5));
    }

    #[test]
    fn set_replaces_existing_keys() {
        let mut m = Manifest::new("run");
        m.set_u64("workers", 4).set_u64("workers", 8);
        let doc = crate::json::parse(&m.render()).unwrap();
        assert_eq!(doc.get("workers").and_then(Json::as_u64), Some(8));
        let n = doc
            .as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| k == "workers")
            .count();
        assert_eq!(n, 1);
    }

    /// Regression for the torn-manifest bug (ISSUE 9): `save` used a
    /// bare `std::fs::write`, so concurrent writers could interleave
    /// and a reader could observe a torn prefix. With temp+rename,
    /// every read of the path parses as exactly one writer's complete
    /// document.
    #[test]
    fn concurrent_saves_never_tear() {
        let dir = std::env::temp_dir().join(format!("dca-manifest-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results").join("run_manifest.json");
        let writers = 4;
        let rounds = 40;
        std::thread::scope(|s| {
            for w in 0..writers {
                let path = path.clone();
                s.spawn(move || {
                    for i in 0..rounds {
                        let mut m = Manifest::new("race");
                        m.set_u64("writer", w);
                        // Wildly different document lengths make a torn
                        // or interleaved write fail the parse below.
                        m.set_str("pad", "x".repeat(1 + (w as usize) * 4096));
                        m.set_u64("round", i);
                        m.save(&path).expect("save");
                    }
                });
            }
            let path = path.clone();
            s.spawn(move || {
                let mut seen = 0u32;
                while seen < 200 {
                    seen += 1;
                    let text = match std::fs::read_to_string(&path) {
                        Ok(t) => t,
                        Err(_) => continue, // not yet written
                    };
                    let doc = crate::json::parse(&text)
                        .unwrap_or_else(|e| panic!("torn manifest observed: {e}\n{text}"));
                    let w = doc.get("writer").and_then(Json::as_u64).expect("writer field");
                    let pad = doc.get("pad").and_then(Json::as_str).expect("pad field");
                    assert_eq!(pad.len(), 1 + (w as usize) * 4096, "pad matches its writer");
                }
            });
        });
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "orphaned temps: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_embed_as_counter_and_gauge_objects() {
        let reg = Metrics::new();
        reg.store_hits_total.add(7);
        reg.lab_workers.set(3);
        let mut m = Manifest::new("run");
        m.set_metrics(&reg.snapshot());
        let doc = crate::json::parse(&m.render()).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("store_hits_total"))
                .and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("lab_workers"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }
}
