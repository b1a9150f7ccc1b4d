//! Run-manifest export: one deterministic JSON document per study run.
//!
//! The manifest splits into a *structural* part and a trailing
//! `timings` object. The structural part contains only
//! [`Class::Structural`] metrics plus events and series: for a fixed
//! config and seed it is byte-identical across thread counts, which is
//! what the golden tests compare. The `timings` object holds
//! everything wall-clock or scheduling dependent (spans, per-thread
//! tallies, RSS) and is always rendered as the **last** top-level key,
//! so consumers can compare the structural prefix by truncating the
//! document at `"timings"`.

use crate::json::Json;
use crate::registry::{Class, Registry};

/// Builds the manifest document. `config` entries are emitted in the
/// order given (callers must keep that order deterministic and must
/// not include scheduling-dependent values such as the thread count).
/// With `include_timings` false the `timings` key is omitted entirely.
pub fn manifest(reg: &Registry, config: &[(String, Json)], include_timings: bool) -> Json {
    reg.with_inner(|snap| {
        let mut doc: Vec<(String, Json)> = vec![
            ("schema".into(), Json::U64(1)),
            ("config".into(), Json::Obj(config.to_vec())),
        ];

        let counters = snap
            .counters
            .iter()
            .filter(|(_, (class, _))| *class == Class::Structural)
            .map(|(name, (_, v))| (name.clone(), Json::U64(*v)))
            .collect();
        doc.push(("counters".into(), Json::Obj(counters)));

        let gauges = snap
            .gauges
            .iter()
            .filter(|(_, (class, _))| *class == Class::Structural)
            .map(|(name, (_, v))| (name.clone(), Json::F64(*v)))
            .collect();
        doc.push(("gauges".into(), Json::Obj(gauges)));

        let histograms = snap
            .histograms
            .iter()
            .filter(|(_, (class, _))| *class == Class::Structural)
            .map(|(name, (_, h))| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|(i, n)| (i.to_string(), Json::U64(*n)))
                    .collect();
                let entry = Json::Obj(vec![
                    ("count".into(), Json::U64(h.count)),
                    ("sum".into(), Json::U64(h.sum)),
                    ("buckets".into(), Json::Obj(buckets)),
                ]);
                (name.clone(), entry)
            })
            .collect();
        doc.push(("histograms".into(), Json::Obj(histograms)));

        let series = snap
            .series
            .iter()
            .filter(|(_, (class, _))| *class == Class::Structural)
            .map(|(name, (_, values))| {
                (
                    name.clone(),
                    Json::Arr(values.iter().map(|v| Json::F64(*v)).collect()),
                )
            })
            .collect();
        doc.push(("series".into(), Json::Obj(series)));

        let events = snap
            .events
            .iter()
            .map(|(scope, entries)| {
                (
                    scope.clone(),
                    Json::Arr(entries.iter().map(|e| Json::Str(e.clone())).collect()),
                )
            })
            .collect();
        doc.push(("events".into(), Json::Obj(events)));

        // Named structural sections (e.g. `static_analysis`) render as
        // top-level objects after the fixed keys, still ahead of
        // `timings` so they stay inside the golden-comparable prefix.
        for (name, entries) in &snap.sections {
            let obj = entries
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            doc.push((name.clone(), Json::Obj(obj)));
        }

        if include_timings {
            // The stage still open gets its reading now, as a stage being
            // left does. `VmHWM` can read lower at the end of a run than
            // when a stage ended, so the process peak is the largest
            // stage reading (or this one, with no stage): it names the
            // stage the peak happened in.
            let now = crate::registry::peak_rss_kb();
            let mut stage_rss = snap.stage_rss.clone();
            if !snap.stage.is_empty() {
                let open = stage_rss.entry(snap.stage.clone()).or_default();
                *open = (*open).max(now);
            }
            let peak_rss_kb = stage_rss.values().copied().fold(now, u64::max);
            let mut timings: Vec<(String, Json)> = vec![
                ("stage".into(), Json::Str(snap.stage.clone())),
                ("peak_rss_kb".into(), Json::U64(peak_rss_kb)),
                (
                    "stage_rss_kb".into(),
                    Json::Obj(
                        stage_rss
                            .into_iter()
                            .map(|(stage, kb)| (stage, Json::U64(kb)))
                            .collect(),
                    ),
                ),
            ];
            let t_counters = snap
                .counters
                .iter()
                .filter(|(_, (class, _))| *class == Class::Timing)
                .map(|(name, (_, v))| (name.clone(), Json::U64(*v)))
                .collect();
            timings.push(("counters".into(), Json::Obj(t_counters)));
            let t_gauges = snap
                .gauges
                .iter()
                .filter(|(_, (class, _))| *class == Class::Timing)
                .map(|(name, (_, v))| (name.clone(), Json::F64(*v)))
                .collect();
            timings.push(("gauges".into(), Json::Obj(t_gauges)));
            let spans = snap
                .spans
                .iter()
                .map(|(path, agg)| {
                    let entry = Json::Obj(vec![
                        ("calls".into(), Json::U64(agg.count)),
                        ("total_ms".into(), Json::F64(agg.total.as_secs_f64() * 1e3)),
                        (
                            "self_ms".into(),
                            Json::F64(agg.self_time.as_secs_f64() * 1e3),
                        ),
                    ]);
                    (path.clone(), entry)
                })
                .collect();
            timings.push(("spans".into(), Json::Obj(spans)));
            doc.push(("timings".into(), Json::Obj(timings)));
        }

        Json::Obj(doc)
    })
}

/// Renders the manifest as pretty-printed JSON text.
pub fn manifest_json(reg: &Registry, config: &[(String, Json)], include_timings: bool) -> String {
    manifest(reg, config, include_timings).render_pretty()
}

/// Returns the structural prefix of a rendered manifest: everything
/// before the top-level `"timings"` key (the whole document if the key
/// is absent). Two runs agree structurally iff these prefixes are
/// byte-identical.
pub fn structural_prefix(rendered: &str) -> &str {
    match rendered.find("\n  \"timings\":") {
        Some(pos) => &rendered[..pos],
        None => rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_part_is_deterministic_and_timings_last() {
        let build = || {
            let reg = Registry::new();
            reg.counter("a.count", Class::Structural).add(7);
            reg.counter("z.thread", Class::Timing).add(3);
            reg.gauge("b.gauge", Class::Structural).set(0.5);
            reg.histogram("c.hist", Class::Structural).record(9);
            reg.series_push("d.series", Class::Structural, 1.0);
            reg.event("suite/bench", "characterized");
            reg.set_stage("one");
            reg.set_stage("two");
            reg
        };
        let config = vec![("seed".to_string(), Json::U64(42))];
        let full_a = manifest_json(&build(), &config, true);
        let full_b = manifest_json(&build(), &config, true);
        assert_eq!(structural_prefix(&full_a), structural_prefix(&full_b));

        // Timing-class metrics must not leak into the structural part.
        assert!(!structural_prefix(&full_a).contains("z.thread"));
        assert!(full_a.contains("z.thread"));

        // `timings` is the last top-level key.
        let tail = &full_a[full_a.find("\"timings\"").expect("timings key")..];
        assert!(!tail.contains("\"events\""));

        // Without timings the document has no timings key at all.
        let structural = manifest_json(&build(), &config, false);
        assert!(!structural.contains("timings"));
        assert_eq!(structural_prefix(&structural), structural.as_str());
    }

    #[test]
    fn named_sections_render_between_events_and_timings() {
        let reg = Registry::new();
        reg.event("suite/bench", "characterized");
        reg.section_set(
            "static_analysis",
            "suite/bench",
            Json::Obj(vec![("inst_max".into(), Json::U64(10))]),
        );
        reg.section_set("static_analysis", "suite/bench", Json::U64(7));
        let doc = manifest_json(&reg, &[], true);
        let ev = doc.find("\"events\"").expect("events key");
        let sec = doc.find("\"static_analysis\"").expect("section key");
        let tim = doc.find("\"timings\"").expect("timings key");
        assert!(
            ev < sec && sec < tim,
            "sections sit between events and timings"
        );
        // Last write wins, and the section stays in the structural prefix.
        assert!(structural_prefix(&doc).contains("\"suite/bench\": 7"));
    }

    /// The `timings` object of `reg`'s manifest.
    fn timings(reg: &Registry) -> Vec<(String, Json)> {
        let Json::Obj(doc) = manifest(reg, &[], true) else {
            panic!("manifest is an object")
        };
        match doc.into_iter().find(|(k, _)| k == "timings") {
            Some((_, Json::Obj(timings))) => timings,
            other => panic!("timings object: {other:?}"),
        }
    }

    /// `timings.peak_rss_kb` and `timings.stage_rss_kb` of `reg`'s
    /// manifest.
    fn rss_readings(reg: &Registry) -> (u64, Vec<(String, u64)>) {
        let (mut peak, mut stages) = (None, None);
        for (key, value) in timings(reg) {
            match (key.as_str(), value) {
                ("peak_rss_kb", Json::U64(kb)) => peak = Some(kb),
                ("stage_rss_kb", Json::Obj(entries)) => {
                    let kb = |v: Json| match v {
                        Json::U64(kb) => kb,
                        other => panic!("stage reading {other:?}"),
                    };
                    stages = Some(entries.into_iter().map(|(s, v)| (s, kb(v))).collect());
                }
                _ => {}
            }
        }
        (peak.expect("peak_rss_kb"), stages.expect("stage_rss_kb"))
    }

    #[test]
    fn the_open_stage_is_read_and_the_peak_names_a_stage() {
        let reg = Registry::new();
        reg.set_stage("one");
        reg.set_stage("two");
        let (peak, stages) = rss_readings(&reg);
        let names: Vec<&str> = stages.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(names, ["one", "two"], "the open stage has a reading");
        let largest = stages.iter().map(|&(_, kb)| kb).max();
        assert_eq!(Some(peak), largest, "the peak is a stage's reading");
        // A closed stage that read higher than the open one holds the
        // peak; the open stage keeps the larger of its two readings.
        reg.set_stage_rss("one", u64::MAX / 4);
        reg.set_stage_rss("two", u64::MAX / 8);
        let (peak, stages) = rss_readings(&reg);
        assert_eq!(peak, u64::MAX / 4);
        assert_eq!(stages[1], ("two".to_string(), u64::MAX / 8));
    }

    #[test]
    fn peak_rss_bounds_every_stage_reading() {
        let peak = |reg: &Registry| rss_readings(reg).0;
        // A stage reading above the final `VmHWM` (as when the kernel's
        // high-water mark reads lower at the end) becomes the peak.
        // Other test threads may raise the final reading meanwhile, so
        // the realistic case checks the bound and the huge one the value.
        let reg = Registry::new();
        let above = crate::registry::peak_rss_kb() + 192;
        reg.set_stage_rss("ga", above);
        assert!(peak(&reg) >= above);
        reg.set_stage_rss("kmeans", u64::MAX / 4);
        assert_eq!(peak(&reg), u64::MAX / 4);
    }

    #[test]
    fn histogram_section_lists_nonempty_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("h", Class::Structural);
        h.record(0);
        h.record(1024);
        let doc = manifest_json(&reg, &[], false);
        assert!(doc.contains("\"count\": 2"));
        assert!(doc.contains("\"0\": 1"));
        assert!(doc.contains("\"11\": 1"));
    }
}
