//! The benchmark's contract, `BENCHMARK.json` at the repository root,
//! embedded at build time: the workload names, metric names, units and
//! regression bounds the program prints are exactly the ones the contract
//! states, and a run that computes a different metric set fails.

use serde::{Content, Deserialize};

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// One workload of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDef {
    pub name: String,
    pub why: String,
}

/// The parsed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Host seconds one run measures.
    pub run_seconds: f64,
    pub workloads: Vec<WorkloadDef>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// The embedded contract.
    pub fn load() -> Spec {
        parse(CONTRACT).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    }

    pub fn workload(&self, name: &str) -> Option<&WorkloadDef> {
        self.workloads.iter().find(|w| w.name == name)
    }

    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The whole JSON tree, kept as-is.
struct Raw(Content);

impl Deserialize for Raw {
    fn deserialize_content(c: &Content) -> Result<Self, String> {
        Ok(Raw(c.clone()))
    }
}

fn get<'a>(map: &'a [(String, Content)], key: &str) -> Result<&'a Content, String> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn text(map: &[(String, Content)], key: &str) -> Result<String, String> {
    get(map, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key:?} is not a string"))
}

fn entries<'a>(
    root: &'a [(String, Content)],
    key: &str,
) -> Result<Vec<&'a [(String, Content)]>, String> {
    get(root, key)?
        .as_seq()
        .ok_or_else(|| format!("{key:?} is not a list"))?
        .iter()
        .map(|e| {
            e.as_map()
                .ok_or_else(|| format!("{key:?} holds a non-object"))
        })
        .collect()
}

fn metrics(root: &[(String, Content)], key: &str) -> Result<Vec<MetricDef>, String> {
    entries(root, key)?
        .into_iter()
        .map(|m| {
            Ok(MetricDef {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: text(m, "better")?,
                bound: get(m, "bound").ok().and_then(Content::as_f64),
            })
        })
        .collect()
}

fn parse(json: &str) -> Result<Spec, String> {
    let Raw(root) = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let root = root.as_map().ok_or("the contract is not an object")?;
    let workloads = entries(root, "workloads")?
        .into_iter()
        .map(|w| {
            Ok(WorkloadDef {
                name: text(w, "name")?,
                why: text(w, "why")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        run_seconds: get(root, "run_seconds")?
            .as_f64()
            .ok_or("\"run_seconds\" is not a number")?,
        workloads,
        end_to_end: metrics(root, "end_to_end")?,
        per_layer: metrics(root, "per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_parses_and_names_are_unique() {
        let s = Spec::load();
        assert!(!s.workloads.is_empty() && !s.end_to_end.is_empty());
        assert!(s.run_seconds >= 1.0);
        let mut names: Vec<&str> = s
            .end_to_end
            .iter()
            .chain(&s.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
        assert!(s.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s
            .metric("setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    }
}
