//! Spans recorded from outside the stack, around the calls into each
//! layer. They are kept in memory and written when the run ends; every
//! per-layer floor is derived from them.

use la_core::json::JsonBuf;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of one request of the stream.
pub const REQUEST: &str = "request";
/// Name of the root span under which a request's input is replayed
/// through the layers below the driver.
pub const REPLAY: &str = "replay";
/// Name of the root span of the probes that run once, before the stream.
pub const STATIC: &str = "static";

/// Which layers a layer calls: its self time is its floor minus theirs.
/// The replay times the lower layers on the same input right after the
/// upper one, so the subtraction compares like with like.
pub const LAYER_TREE: &[(&str, &[&str])] = &[
    ("serve.gesv", &["la90.gesv"]),
    ("serve.posv", &["la90.posv"]),
    ("la90.gesv", &["lapack.getrf", "lapack.getrs"]),
    ("la90.posv", &["lapack.potrf", "lapack.potrs"]),
];

/// The trace file holds at most this many spans (the first ones); floors
/// are always taken over all of them.
const MAX_SPANS_WRITTEN: usize = 20_000;

pub type SpanId = u32;

pub struct Span {
    pub request: u32,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Floor {
    pub ns: u64,
    pub count: u64,
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span from the timestamps the harness took anyway.
    pub fn push(
        &mut self,
        request: u32,
        parent: Option<SpanId>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            request,
            parent,
            name,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn open(&mut self, request: u32, name: &'static str, start: Instant) -> SpanId {
        self.push(request, None, name, start, start)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        self.spans[id as usize].end_ns = self.ns(end);
    }

    /// Spans outside the request path (under a `replay` or `static` root).
    /// A child is always recorded after its parent, so one pass finds
    /// every span's root.
    fn probes(&self) -> impl Iterator<Item = &Span> {
        let mut on_request_path = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            on_request_path.push(match s.parent {
                None => s.name == REQUEST,
                Some(p) => on_request_path[p as usize],
            });
        }
        self.spans
            .iter()
            .zip(on_request_path)
            .filter_map(|(s, on_path)| (!on_path).then_some(s))
    }

    /// Floor and sample count per span name, over the probe spans.
    pub fn floors(&self) -> BTreeMap<&'static str, Floor> {
        let mut out: BTreeMap<&'static str, Floor> = BTreeMap::new();
        for s in self.probes() {
            let ns = s.end_ns - s.start_ns;
            let f = out.entry(s.name).or_insert(Floor { ns, count: 0 });
            f.ns = f.ns.min(ns);
            f.count += 1;
        }
        out
    }

    /// Durations of the probe spans with one of `names`, ascending.
    pub fn sorted_durations(&self, names: &[&str]) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .probes()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        d.sort_unstable();
        d
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let floors = self.floors();
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_str("workload", workload);
        j.field_uint("seed", seed);
        j.key("layers");
        j.begin_arr();
        for (name, f) in &floors {
            j.begin_obj();
            j.field_str("name", name);
            j.field_uint("count", f.count);
            j.field_uint("floor_ns", f.ns);
            if let Some((_, children)) = LAYER_TREE.iter().find(|(p, _)| p == name) {
                j.key("children");
                j.begin_arr();
                children.iter().for_each(|c| j.str(c));
                j.end_arr();
                if let Some(ns) = self_floor_ns(&floors, name, children) {
                    j.key("self_floor_ns");
                    j.int(ns);
                }
            }
            j.end_obj();
        }
        j.end_arr();
        j.field_uint("spans_total", self.spans.len() as u64);
        j.key("spans");
        j.begin_arr();
        for (id, s) in self.spans.iter().enumerate().take(MAX_SPANS_WRITTEN) {
            j.begin_obj();
            j.field_uint("id", id as u64);
            j.field_uint("request", u64::from(s.request));
            j.key("parent");
            match s.parent {
                Some(p) => j.uint(u64::from(p)),
                None => j.null(),
            }
            j.field_str("name", s.name);
            j.field_uint("start_ns", s.start_ns);
            j.field_uint("end_ns", s.end_ns);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.into_string()
    }
}

/// A layer's self time: its floor minus its children's floors. Negative
/// when noise outweighs a self time that is really about zero; `None` when
/// a floor is missing.
pub fn self_floor_ns(
    floors: &BTreeMap<&'static str, Floor>,
    parent: &str,
    children: &[&str],
) -> Option<i64> {
    let mut ns = floors.get(parent)?.ns as i64;
    for c in children {
        ns -= floors.get(c)?.ns as i64;
    }
    Some(ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_floor_minus_childrens_floors() {
        let mut t = Trace::new();
        let at = |us: u64| t.epoch + Duration::from_micros(us);
        let (t0, t10, t30, t40, t100) = (at(0), at(10), at(30), at(40), at(100));
        // Two replays: the driver takes 100 then 90 us, the factor 60 then
        // 70, the solve 10 both times. Floors 90, 60, 10: self time 20.
        for (drv, fac) in [(t100, at(60)), (at(90), at(70))] {
            let root = t.open(1, REPLAY, t0);
            t.push(1, Some(root), "la90.gesv", t0, drv);
            t.push(1, Some(root), "lapack.getrf", t0, fac);
            t.push(1, Some(root), "lapack.getrs", t30, t40);
            t.close(root, t100);
        }
        // The request path must not leak into the probe floors.
        let req = t.open(2, REQUEST, t0);
        t.push(2, Some(req), "la90.gesv", t0, t10);
        t.close(req, t10);

        let f = t.floors();
        assert_eq!(
            f["la90.gesv"],
            Floor {
                ns: 90_000,
                count: 2
            }
        );
        assert_eq!(f["lapack.getrf"].ns, 60_000);
        assert_eq!(f[REPLAY].ns, 100_000);
        assert!(!f.contains_key(REQUEST));
        let (parent, children) = LAYER_TREE[2];
        assert_eq!(self_floor_ns(&f, parent, children), Some(20_000));
        assert_eq!(self_floor_ns(&f, "la90.posv", LAYER_TREE[3].1), None);
        assert_eq!(t.sorted_durations(&["lapack.getrf"]), [60_000, 70_000]);

        let doc = la_core::json::Json::parse(&t.to_json("w", 3)).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 10);
        let layers = doc.get("layers").unwrap().as_arr().unwrap();
        let gesv = layers
            .iter()
            .find(|l| l.get("name").unwrap().as_str() == Some("la90.gesv"))
            .unwrap();
        assert_eq!(gesv.get("self_floor_ns").unwrap().as_f64(), Some(20_000.0));
    }
}
