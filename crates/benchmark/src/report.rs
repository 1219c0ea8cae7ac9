//! What one run of one workload produced, and how it is printed: the
//! human-readable metric lines, the driver's result line, and the
//! detailed form the summaries keep.

use crate::json::Json;
use crate::manifest::{self, MetricDef};
use crate::stats::Summary;

#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub traced: bool,
    pub correct: bool,
    /// Readings offered to the program, and those it failed, shed or
    /// never acknowledged.
    pub attempted: u64,
    pub failed: u64,
    /// `None` marks a layer that does no work in this workload.
    metrics: Vec<(&'static str, Option<Summary>)>,
    /// Exact facts printed with the metrics (digests, per-phase counts).
    pub notes: Vec<(String, Json)>,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &str, traced: bool) -> Self {
        Self {
            workload: workload.to_string(),
            traced,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            &manifest::PER_LAYER
        } else {
            &manifest::END_TO_END
        }
    }

    pub fn set(&mut self, name: &'static str, summary: Summary) {
        assert!(
            self.table().iter().any(|m| m.name == name),
            "{name} is not in the manifest"
        );
        assert!(self.get(name).is_none(), "{name} set twice");
        self.metrics.push((name, Some(summary)));
    }

    pub fn set_exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, s)| *s)
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    /// Records a failed output check: the run is not correct.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.problems.push(what.into());
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    /// Puts the metrics in manifest order. A per-layer metric nobody set
    /// belongs to an idle layer; a missing or non-finite end-to-end
    /// metric is a failed run.
    pub fn finish(mut self) -> Self {
        let mut ordered = Vec::new();
        for def in self.table() {
            let found = self
                .metrics
                .iter()
                .find(|(n, _)| *n == def.name)
                .and_then(|(_, s)| *s);
            match found {
                Some(s) if !s.value.is_finite() => {
                    self.problem(format!("{} is not a number", def.name));
                    ordered.push((def.name, None));
                }
                None if !self.traced => {
                    self.problem(format!("{} was not measured", def.name));
                    ordered.push((def.name, None));
                }
                found => ordered.push((def.name, found)),
            }
        }
        self.metrics = ordered;
        if self.attempted == 0 {
            self.problem("nothing was attempted");
        }
        self
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, every value a number (an idle layer's is 0).
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, s)| {
            let value = s.map_or(0.0, |s| s.value);
            (
                *name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(self.unit(name))),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Everything, for the summary files: idle layers are `null`.
    pub fn detail(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, s)| {
            let body = match s {
                None => Json::Null,
                Some(s) => Json::obj([
                    ("value", Json::num(s.value)),
                    ("unit", Json::str(self.unit(name))),
                    ("median", Json::num(s.median)),
                    ("q1", Json::num(s.q1)),
                    ("q3", Json::num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]),
            };
            (*name, body)
        });
        Json::obj([
            ("workload", Json::str(self.workload.clone())),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
            ("notes", Json::Obj(self.notes.clone())),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
        ])
    }

    fn unit(&self, name: &str) -> &'static str {
        self.table()
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    }

    /// Every metric by name with its unit, slice statistics beside it.
    pub fn print(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced { "traced" } else { "untraced" }
        );
        for (name, s) in &self.metrics {
            match s {
                None => println!("{name:<36} {:>14}  (layer idle in this workload)", "null"),
                Some(s) if s.n > 1 => println!(
                    "{name:<36} {:>14.6} {:<6} median {:.6}  q1 {:.6}  q3 {:.6}  n {}",
                    s.value,
                    self.unit(name),
                    s.median,
                    s.q1,
                    s.q3,
                    s.n
                ),
                Some(s) => println!("{name:<36} {:>14.6} {}", s.value, self.unit(name)),
            }
        }
        for (key, value) in &self.notes {
            println!("{key}: {value}");
        }
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
        println!(
            "correct: {}  attempted: {}  failed: {}",
            self.correct, self.attempted, self.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let mut o = Outcome::new("sim_d3", false);
        o.attempted = 10;
        for m in manifest::END_TO_END {
            o.set(m.name, Summary::of_slices(&[1.5, 2.5, 3.5, 4.25], m.better));
        }
        let o = o.finish();
        assert!(o.correct, "{:?}", o.problems);
        let line = Json::parse(&o.result_line().to_string()).unwrap();
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj();
        assert_eq!(metrics.len(), manifest::END_TO_END.len());
        for ((name, body), def) in metrics.iter().zip(manifest::END_TO_END) {
            assert_eq!(name, def.name);
            assert_eq!(body.get("unit").and_then(Json::as_str), Some(def.unit));
            assert!(body.get("value").and_then(Json::as_f64).is_some());
            assert_eq!(body.as_obj().len(), 2);
        }
        let detail = Json::parse(&o.detail().pretty()).unwrap();
        assert_eq!(detail, o.detail());
        assert_eq!(
            detail.get("metrics").unwrap().as_obj().len(),
            manifest::END_TO_END.len()
        );
    }

    #[test]
    fn idle_layers_are_zero_on_the_line_and_null_in_the_detail() {
        let mut o = Outcome::new("sim_fqn", true);
        o.attempted = 1;
        o.set_exact("robust.qn_push_ns", 310.0);
        let o = o.finish();
        assert!(o.correct);
        let line = o.result_line();
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.as_obj().len(), manifest::PER_LAYER.len());
        let value = |n: &str| {
            metrics
                .get(n)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("density.query_ns"), Some(0.0));
        assert_eq!(value("robust.qn_push_ns"), Some(310.0));
        assert_eq!(
            o.detail().get("metrics").unwrap().get("density.query_ns"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut o = Outcome::new("sim_d3", false);
        o.attempted = 1;
        o.set_exact("readings_per_s", 1.0);
        let o = o.finish();
        assert!(!o.correct);
        assert!(o.problems.iter().any(|p| p.contains("setup_s")));
    }
}
