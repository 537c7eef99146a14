//! Committed-baseline loading for `bench compare`.
//!
//! A baseline file is simply a bench JSON artifact written by
//! [`crate::timer::Harness`] with per-batch sample arrays — capture one
//! with `bench <suite> --capture benches/baselines/<suite>.json` and
//! commit it. Keeping raw samples (not just summaries) is the point:
//! the comparison re-bootstraps both sides, so the interval honestly
//! reflects the baseline's own measurement noise instead of treating a
//! recorded median as gospel.
//!
//! The document is read with the workspace's strict `json` reader; this
//! module adds the schema's checks on top (every sample positive and
//! finite, at least one bench, at least one sample each).

use std::path::Path;

use json::Value;

/// One bench's committed measurement: its name and raw per-batch
/// samples in ns/iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineBench {
    /// Bench name as registered with the harness.
    pub name: String,
    /// Per-batch ns/iteration samples from the capture run.
    pub samples_ns: Vec<f64>,
}

/// A parsed baseline artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The bench target ("suite") the baseline was captured from.
    pub target: String,
    /// Every bench with a non-empty sample array.
    pub benches: Vec<BaselineBench>,
}

impl Baseline {
    /// Load and parse a baseline file.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        Baseline::from_json(&text)
            .map_err(|e| format!("cannot parse baseline {}: {e}", path.display()))
    }

    /// Parse baseline JSON (the bench artifact schema).
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        if root.as_object().is_none() {
            return Err("baseline root is not an object".to_string());
        }
        let Some(target) = root.get("target").and_then(Value::as_str) else {
            return Err("baseline has no string \"target\" field".to_string());
        };
        let Some(entries) = root.get("benches").and_then(Value::as_array) else {
            return Err("baseline has no \"benches\" array".to_string());
        };
        let mut benches = Vec::new();
        for entry in entries {
            if entry.as_object().is_none() {
                return Err("\"benches\" entry is not an object".to_string());
            }
            let Some(name) = entry.get("name").and_then(Value::as_str) else {
                return Err("bench entry has no string \"name\"".to_string());
            };
            let Some(values) = entry.get("samples_ns").and_then(Value::as_array) else {
                return Err(format!(
                    "bench {name:?} has no \"samples_ns\" array — re-capture the baseline \
                     with this harness version"
                ));
            };
            let mut samples_ns = Vec::with_capacity(values.len());
            for v in values {
                match v.as_f64() {
                    Some(x) if x.is_finite() && x > 0.0 => samples_ns.push(x),
                    Some(_) => {
                        return Err(format!(
                            "bench {name:?} has a non-finite or non-positive sample"
                        ))
                    }
                    None => return Err(format!("bench {name:?} samples are not numbers")),
                }
            }
            if samples_ns.is_empty() {
                return Err(format!("bench {name:?} has an empty sample array"));
            }
            benches.push(BaselineBench {
                name: name.to_string(),
                samples_ns,
            });
        }
        if benches.is_empty() {
            return Err("baseline contains no benches".to_string());
        }
        Ok(Baseline {
            target: target.to_string(),
            benches,
        })
    }

    /// The committed samples for one bench name, if present.
    pub fn samples_for(&self, name: &str) -> Option<&[f64]> {
        self.benches
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.samples_ns.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"target":"des_core","budget_ms":300,"benches":[
        {"name":"fig5","min_ns":1.0,"median_ns":2.0,"mean_ns":2.1,"batches":3,"iters":9,
         "samples_ns":[2400000.5,2500000.0,2600000.1]},
        {"name":"intern","samples_ns":[900.1,905.2]}],
        "events_per_sec":5719958.0,"scenario":"fig5_scale_world_60s"}"#;

    #[test]
    fn parses_the_artifact_schema() {
        let b = Baseline::from_json(OK).expect("valid baseline");
        assert_eq!(b.target, "des_core");
        assert_eq!(b.benches.len(), 2);
        assert_eq!(b.samples_for("fig5").map(<[f64]>::len), Some(3));
        assert_eq!(b.samples_for("intern"), Some(&[900.1, 905.2][..]));
        assert_eq!(b.samples_for("missing"), None);
    }

    #[test]
    fn rejects_summary_only_baselines() {
        let legacy = r#"{"target":"t","benches":[{"name":"a","median_ns":5.0}]}"#;
        let err = Baseline::from_json(legacy).expect_err("no samples → error");
        assert!(err.contains("samples_ns"), "{err}");
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "[1,2,3]",
            r#"{"target":"t"}"#,
            r#"{"target":"t","benches":[]}"#,
            r#"{"target":"t","benches":[{"name":"a","samples_ns":[]}]}"#,
            r#"{"target":"t","benches":[{"name":"a","samples_ns":[1e999]}]}"#,
            r#"{"target":"t","benches":[{"name":"a","samples_ns":[-3.0]}]}"#,
            r#"{"target":"t","benches":[{"name":"a","samples_ns":[1.0]}] extra"#,
            r#"{"target":5,"benches":[{"name":"a","samples_ns":[1.0]}]}"#,
        ] {
            assert!(Baseline::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn roundtrips_whitespace_variants() {
        let spaced = OK.replace(',', " ,\n ");
        assert!(Baseline::from_json(&spaced).is_ok());
    }
}
