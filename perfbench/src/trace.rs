//! In-memory spans recorded by the benchmark around its calls into the
//! checker, written out once the run ends.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// The registry entry the call was for (spans of one entry share
    /// it); empty for root spans.
    pub request: String,
    pub start_us: f64,
    pub end_us: Option<f64>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us.unwrap_or(self.start_us) - self.start_us
    }
}

pub struct Spans {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.base.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &str, parent: Option<usize>, request: &str) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            request: request.to_string(),
            start_us,
            end_us: None,
        });
        self.spans.len() - 1
    }

    /// Records a span whose ends were observed elsewhere.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: &str,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.base).as_secs_f64() * 1e6;
        let (start_us, end_us) = (at(start), at(end));
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            request: request.to_string(),
            start_us,
            end_us: Some(end_us),
        });
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_us();
        self.spans[id].end_us = Some(end);
    }

    /// The spans under root `root`, keyed by request, summed per name.
    pub fn children_by(
        &self,
        root: &str,
        name: &str,
        key: impl Fn(&str) -> String,
    ) -> BTreeMap<String, f64> {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none() && self.spans[i].name == root)
            .collect();
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if s.name == name && s.parent.is_some_and(|p| roots.contains(&p)) {
                *out.entry(key(&s.request)).or_insert(0.0) += s.dur_us();
            }
        }
        out
    }

    /// Every span, plus per root its self time: its duration minus the
    /// part its child spans cover.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id as u64,
                    "parent": s.parent.map_or(Value::Null, |p| json!(p as u64)),
                    "name": s.name.clone(),
                    "request": s.request.clone(),
                    "start_us": s.start_us,
                    "dur_us": s.dur_us(),
                })
            })
            .collect();
        let roots: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(id, s)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(Span::dur_us)
                    .sum();
                json!({
                    "name": s.name.clone(),
                    "dur_us": s.dur_us(),
                    "self_us": s.dur_us() - children,
                })
            })
            .collect();
        json!({ "spans": spans, "roots": roots })
    }
}
