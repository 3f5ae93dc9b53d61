//! Per-endpoint request, latency and cache counters.
//!
//! Lock-free `AtomicU64` counters, rendered in Prometheus text exposition
//! format at `GET /metrics`. Endpoints are a small fixed set so the
//! counters live in a flat array — no locking, no allocation on the hot
//! path.

use std::sync::atomic::{AtomicU64, Ordering};

/// The served endpoints (fixed at compile time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /search`.
    Search,
    /// `GET /topics/{id}`.
    Topics,
    /// `GET /hierarchy`.
    Hierarchy,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `GET /internal/search` (shard fan-out traffic from a front tier).
    Internal,
    /// `POST /query`.
    Query,
    /// Anything else (404/405/400 traffic).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 8] = [
        Endpoint::Search,
        Endpoint::Topics,
        Endpoint::Hierarchy,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Internal,
        Endpoint::Query,
        Endpoint::Other,
    ];

    fn index(self) -> usize {
        match self {
            Endpoint::Search => 0,
            Endpoint::Topics => 1,
            Endpoint::Hierarchy => 2,
            Endpoint::Healthz => 3,
            Endpoint::Metrics => 4,
            Endpoint::Internal => 5,
            Endpoint::Query => 6,
            Endpoint::Other => 7,
        }
    }

    /// The label value used in the exposition format.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Search => "search",
            Endpoint::Topics => "topics",
            Endpoint::Hierarchy => "hierarchy",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Internal => "internal",
            Endpoint::Query => "query",
            Endpoint::Other => "other",
        }
    }
}

#[derive(Debug, Default)]
struct EndpointCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    latency_us_total: AtomicU64,
    latency_us_max: AtomicU64,
}

/// All server counters.
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: [EndpointCounters; 8],
    shed: AtomicU64,
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn at(&self, e: Endpoint) -> &EndpointCounters {
        &self.endpoints[e.index()]
    }

    /// Records one completed request: its endpoint, whether the response
    /// was an error status, and the handling latency.
    pub fn record_request(&self, e: Endpoint, error: bool, latency: std::time::Duration) {
        let c = self.at(e);
        c.requests.fetch_add(1, Ordering::Relaxed);
        if error {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        c.latency_us_total.fetch_add(us, Ordering::Relaxed);
        c.latency_us_max.fetch_max(us, Ordering::Relaxed);
    }

    /// Records a response-cache hit.
    pub fn record_cache_hit(&self, e: Endpoint) {
        self.at(e).cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a response-cache miss.
    pub fn record_cache_miss(&self, e: Endpoint) {
        self.at(e).cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection shed with 503 because the accept queue was
    /// full (backpressure, not handled by any worker).
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections shed so far (test hook).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Total requests recorded for `e` (test hook).
    pub fn requests(&self, e: Endpoint) -> u64 {
        self.at(e).requests.load(Ordering::Relaxed)
    }

    /// Cache hits recorded for `e` (test hook).
    pub fn cache_hits(&self, e: Endpoint) -> u64 {
        self.at(e).cache_hits.load(Ordering::Relaxed)
    }

    /// Cache misses recorded for `e` (test hook).
    pub fn cache_misses(&self, e: Endpoint) -> u64 {
        self.at(e).cache_misses.load(Ordering::Relaxed)
    }

    /// Renders every counter in Prometheus text exposition format.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        out.push_str("# TYPE lesm_requests_total counter\n");
        out.push_str("# TYPE lesm_request_errors_total counter\n");
        out.push_str("# TYPE lesm_cache_hits_total counter\n");
        out.push_str("# TYPE lesm_cache_misses_total counter\n");
        out.push_str("# TYPE lesm_request_latency_us_total counter\n");
        out.push_str("# TYPE lesm_request_latency_us_max gauge\n");
        out.push_str("# TYPE lesm_connections_shed_total counter\n");
        let _ = writeln!(out, "lesm_connections_shed_total {}", self.shed.load(Ordering::Relaxed));
        for e in Endpoint::ALL {
            let c = self.at(e);
            let name = e.name();
            let _ = writeln!(
                out,
                "lesm_requests_total{{endpoint=\"{name}\"}} {}",
                c.requests.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "lesm_request_errors_total{{endpoint=\"{name}\"}} {}",
                c.errors.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "lesm_cache_hits_total{{endpoint=\"{name}\"}} {}",
                c.cache_hits.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "lesm_cache_misses_total{{endpoint=\"{name}\"}} {}",
                c.cache_misses.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "lesm_request_latency_us_total{{endpoint=\"{name}\"}} {}",
                c.latency_us_total.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "lesm_request_latency_us_max{{endpoint=\"{name}\"}} {}",
                c.latency_us_max.load(Ordering::Relaxed)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.record_request(Endpoint::Search, false, Duration::from_micros(150));
        m.record_request(Endpoint::Search, true, Duration::from_micros(50));
        m.record_cache_hit(Endpoint::Search);
        m.record_cache_miss(Endpoint::Search);
        m.record_cache_miss(Endpoint::Search);
        assert_eq!(m.requests(Endpoint::Search), 2);
        assert_eq!(m.cache_hits(Endpoint::Search), 1);
        assert_eq!(m.cache_misses(Endpoint::Search), 2);
        let text = m.render();
        assert!(text.contains("lesm_requests_total{endpoint=\"search\"} 2"));
        assert!(text.contains("lesm_request_errors_total{endpoint=\"search\"} 1"));
        assert!(text.contains("lesm_cache_hits_total{endpoint=\"search\"} 1"));
        assert!(text.contains("lesm_request_latency_us_total{endpoint=\"search\"} 200"));
        assert!(text.contains("lesm_request_latency_us_max{endpoint=\"search\"} 150"));
        assert!(text.contains("lesm_requests_total{endpoint=\"hierarchy\"} 0"));
        assert!(text.contains("lesm_requests_total{endpoint=\"internal\"} 0"));
        assert!(text.contains("lesm_requests_total{endpoint=\"query\"} 0"));
        m.record_shed();
        m.record_shed();
        assert_eq!(m.shed(), 2);
        assert!(m.render().contains("lesm_connections_shed_total 2"));
    }
}
