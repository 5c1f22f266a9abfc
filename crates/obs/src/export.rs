//! Exporters: Prometheus text exposition, a JSON metric snapshot, and
//! chrome://tracing dumps of the span rings.

use crate::json::{escape_into, number};
use crate::registry::{MetricValue, Registry};
use crate::span::drain_spans;

/// Renders `registry` in the Prometheus text exposition format (version
/// 0.0.4): `# HELP` / `# TYPE` comment pairs followed by sample lines,
/// histograms with cumulative `le` buckets plus `_sum` / `_count`.
pub fn prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    for m in registry.snapshot() {
        let help = m.help.replace('\\', "\\\\").replace('\n', "\\n");
        match m.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# HELP {} {}\n", m.name, help));
                out.push_str(&format!("# TYPE {} counter\n", m.name));
                out.push_str(&format!("{} {}\n", m.name, v));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# HELP {} {}\n", m.name, help));
                out.push_str(&format!("# TYPE {} gauge\n", m.name));
                out.push_str(&format!("{} {}\n", m.name, number(v)));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!("# HELP {} {}\n", m.name, help));
                out.push_str(&format!("# TYPE {} histogram\n", m.name));
                let mut cum = 0u64;
                for (i, &n) in h.buckets.iter().enumerate() {
                    cum += n;
                    let le = match h.bounds.get(i) {
                        Some(b) => format!("{b}"),
                        None => "+Inf".to_string(),
                    };
                    out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {cum}\n", m.name));
                }
                out.push_str(&format!("{}_sum {}\n", m.name, number(h.sum)));
                out.push_str(&format!("{}_count {}\n", m.name, h.count));
            }
        }
    }
    out
}

/// Renders `registry` as a JSON document:
/// `{"metrics":[{"name":...,"kind":...,...}]}` — counters and gauges carry
/// a `value`, histograms carry `bounds`, `buckets` (non-cumulative),
/// `count`, and `sum`. Bench bins embed this snapshot in their result
/// files so instruction/depth series ride along with throughput numbers.
pub fn json_snapshot(registry: &Registry) -> String {
    let mut out = String::from("{\"metrics\":[");
    for (i, m) in registry.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        escape_into(&mut out, &m.name);
        match &m.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!(",\"kind\":\"counter\",\"value\":{v}}}"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!(",\"kind\":\"gauge\",\"value\":{}}}", number(*v)));
            }
            MetricValue::Histogram(h) => {
                out.push_str(",\"kind\":\"histogram\",\"bounds\":[");
                for (j, b) in h.bounds.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&number(*b));
                }
                out.push_str("],\"buckets\":[");
                for (j, n) in h.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&n.to_string());
                }
                out.push_str(&format!("],\"count\":{},\"sum\":{}}}", h.count, number(h.sum)));
            }
        }
    }
    out.push_str("]}");
    out
}

/// Dumps every thread's span ring as a chrome://tracing JSON document
/// (the "JSON Array Format" wrapped in an object): complete (`"ph":"X"`)
/// events with microsecond `ts`/`dur`, one `tid` per recording thread.
/// Load it at `about:tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace() -> String {
    let mut spans = drain_spans();
    spans.sort_by_key(|s| s.start_ns);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        escape_into(&mut out, s.name);
        out.push_str(&format!(
            ",\"cat\":\"invector\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
            s.tid,
            number(s.start_ns as f64 / 1e3),
            number(s.dur_ns as f64 / 1e3),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn prometheus_exposition_renders_all_kinds() {
        let r = Registry::new();
        let c = r.counter("ex_events_total", "events seen");
        c.add(3);
        let g = r.gauge("ex_ratio", "a ratio");
        g.set(0.5);
        let h = r.histogram("ex_latency_us", "latency", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        let text = prometheus(&r);
        assert!(text.contains("# TYPE ex_events_total counter\nex_events_total 3\n"));
        assert!(text.contains("# TYPE ex_ratio gauge\nex_ratio 0.5\n"));
        assert!(text.contains("ex_latency_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("ex_latency_us_bucket{le=\"10\"} 2\n"), "buckets are cumulative");
        assert!(text.contains("ex_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("ex_latency_us_count 3\n"));
    }

    #[test]
    fn json_snapshot_is_valid_json_with_all_kinds() {
        let r = Registry::new();
        r.counter("snap_total", "c").add(7);
        r.gauge("snap_gauge", "g").set(1.25);
        r.histogram("snap_hist", "h", &[2.0]).observe(1.0);
        let doc = parse(&json_snapshot(&r)).expect("snapshot parses");
        let metrics = doc.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 3);
        let hist =
            metrics.iter().find(|m| m.get("name").unwrap().as_str() == Some("snap_hist")).unwrap();
        assert_eq!(hist.get("kind").unwrap().as_str(), Some("histogram"));
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(hist.get("buckets").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn empty_registry_renders_empty_documents() {
        let r = Registry::new();
        assert_eq!(prometheus(&r), "");
        assert!(parse(&json_snapshot(&r)).is_ok());
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        // Record a span; the document must parse, have the about:tracing
        // shape and carry the span.
        let _flag = crate::TEST_FLAG_LOCK.lock().unwrap();
        crate::set_enabled(true);
        {
            let _a = crate::span!("trace.export");
        }
        crate::set_enabled(false);
        let doc = parse(&chrome_trace()).expect("chrome trace parses");
        let events = doc.get("traceEvents").expect("traceEvents").as_array().expect("array");
        for e in events {
            assert_eq!(e.get("ph"), Some(&Value::String("X".into())), "complete events");
            assert!(e.get("name").unwrap().as_str().is_some());
            assert!(e.get("ts").unwrap().as_f64().is_some());
            assert!(e.get("dur").unwrap().as_f64().is_some());
            assert!(e.get("pid").unwrap().as_f64().is_some());
            assert!(e.get("tid").unwrap().as_f64().is_some());
        }
        assert!(
            events.iter().any(|e| e.get("name").unwrap().as_str() == Some("trace.export")),
            "the span recorded above must appear"
        );
    }
}
