//! Service observability: queue depth, per-tenant rates, aggregate throughput.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-tenant accounting.
#[derive(Debug, Clone, Default)]
pub struct TenantMetrics {
    pub steps: u64,
    pub tokens: u64,
    /// Wall time spent inside this tenant's train steps.
    pub busy: Duration,
    /// Time spent attaching/detaching the tenant's adapter (the multi-tenant
    /// overhead the shared-backbone design must keep small).
    pub swap: Duration,
    pub slices: u64,
    pub last_loss: f32,
}

impl TenantMetrics {
    pub fn steps_per_sec(&self) -> f64 {
        rate(self.steps, self.busy)
    }

    pub fn tokens_per_sec(&self) -> f64 {
        rate(self.tokens, self.busy)
    }
}

fn rate(count: u64, d: Duration) -> f64 {
    let s = d.as_secs_f64();
    // Guard both legs of the division: an empty snapshot (no work, zero
    // elapsed) must read 0.0 everywhere, never NaN from 0/0.
    if count == 0 || !s.is_finite() || s <= 0.0 {
        0.0
    } else {
        count as f64 / s
    }
}

/// Label-cardinality guard for [`MetricsSnapshot::render_prometheus`]: only
/// the top [`DEFAULT_TENANT_SERIES_CAP`] tenants by tokens processed are
/// exposed as individual `tenant="…"` series, the service's own and the
/// registry's tenant-labelled histograms alike; the rest aggregate into
/// `tenant="other"`. A 1000-tenant fleet must not bloat the exposition (or
/// the scrape database) with 6000 series.
pub const DEFAULT_TENANT_SERIES_CAP: usize = 32;

/// Live metrics owned by the scheduler; snapshot with [`ServeMetrics::snapshot`].
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    pub queue_depth: usize,
    pub completed_jobs: u64,
    pub total_steps: u64,
    pub total_tokens: u64,
    pub total_busy: Duration,
    pub per_tenant: BTreeMap<String, TenantMetrics>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            started: Instant::now(),
            queue_depth: 0,
            completed_jobs: 0,
            total_steps: 0,
            total_tokens: 0,
            total_busy: Duration::ZERO,
            per_tenant: BTreeMap::new(),
        }
    }
}

impl ServeMetrics {
    pub fn record_slice(
        &mut self,
        tenant: &str,
        steps: u64,
        tokens: u64,
        busy: Duration,
        swap: Duration,
        last_loss: f32,
    ) {
        self.total_steps += steps;
        self.total_tokens += tokens;
        self.total_busy += busy;
        let t = self.per_tenant.entry(tenant.to_string()).or_default();
        t.steps += steps;
        t.tokens += tokens;
        t.busy += busy;
        t.swap += swap;
        t.slices += 1;
        t.last_loss = last_loss;
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime: self.started.elapsed(),
            queue_depth: self.queue_depth,
            completed_jobs: self.completed_jobs,
            total_steps: self.total_steps,
            total_tokens: self.total_tokens,
            total_busy: self.total_busy,
            per_tenant: self.per_tenant.clone(),
        }
    }
}

/// Immutable view of the service's counters at one instant.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub uptime: Duration,
    pub queue_depth: usize,
    pub completed_jobs: u64,
    pub total_steps: u64,
    pub total_tokens: u64,
    pub total_busy: Duration,
    pub per_tenant: BTreeMap<String, TenantMetrics>,
}

impl MetricsSnapshot {
    /// Aggregate steps/sec over service wall time (includes scheduling gaps).
    pub fn aggregate_steps_per_sec(&self) -> f64 {
        rate(self.total_steps, self.uptime)
    }

    /// Aggregate tokens/sec over service wall time.
    pub fn aggregate_tokens_per_sec(&self) -> f64 {
        rate(self.total_tokens, self.uptime)
    }

    /// Fraction of wall time the backbone was doing tenant work. Always in
    /// `[0, 1]` — an empty snapshot (zero uptime, zero busy) reads 0.0.
    pub fn utilisation(&self) -> f64 {
        let up = self.uptime.as_secs_f64();
        let busy = self.total_busy.as_secs_f64();
        if up > 0.0 && busy.is_finite() {
            (busy / up).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Render the snapshot in Prometheus text exposition format, followed by
    /// every counter and histogram in the global [`lx_obs`] registry (GEMM
    /// call counts, workspace pool behaviour, per-tenant slice histograms).
    /// Serve this from a scrape endpoint or dump it on shutdown.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut series = |name: &str, kind: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        };
        series(
            "lx_serve_uptime_seconds",
            "gauge",
            "Wall time since the scheduler started.",
            self.uptime.as_secs_f64(),
        );
        series(
            "lx_serve_queue_depth",
            "gauge",
            "Jobs waiting or running in the scheduler.",
            self.queue_depth as f64,
        );
        series(
            "lx_serve_completed_jobs_total",
            "counter",
            "Fine-tune jobs run to completion.",
            self.completed_jobs as f64,
        );
        series(
            "lx_serve_steps_total",
            "counter",
            "Train steps executed across all tenants.",
            self.total_steps as f64,
        );
        series(
            "lx_serve_tokens_total",
            "counter",
            "Tokens processed across all tenants.",
            self.total_tokens as f64,
        );
        series(
            "lx_serve_busy_seconds_total",
            "counter",
            "Wall time spent inside tenant train steps.",
            self.total_busy.as_secs_f64(),
        );
        series(
            "lx_serve_utilisation",
            "gauge",
            "Fraction of uptime spent on tenant work.",
            self.utilisation(),
        );
        series(
            "lx_serve_steps_per_second",
            "gauge",
            "Aggregate steps/sec over service wall time.",
            self.aggregate_steps_per_sec(),
        );
        // Cardinality guard: individual series only for the top-K tenants by
        // traffic (tokens processed, ties broken by name for a deterministic
        // exposition); everything past the cap aggregates into one
        // `tenant="other"` rollup, so a 1000-tenant run emits a bounded
        // number of lines.
        let mut ranked: Vec<(&String, &TenantMetrics)> = self.per_tenant.iter().collect();
        ranked.sort_by(|a, b| b.1.tokens.cmp(&a.1.tokens).then_with(|| a.0.cmp(b.0)));
        let cap = DEFAULT_TENANT_SERIES_CAP.min(ranked.len());
        let mut tenant_series = |label: &str, m: &TenantMetrics, with_loss: bool| {
            let t = label.replace('"', "'");
            let _ = writeln!(
                out,
                "lx_serve_tenant_steps_total{{tenant=\"{t}\"}} {}",
                m.steps
            );
            let _ = writeln!(
                out,
                "lx_serve_tenant_tokens_total{{tenant=\"{t}\"}} {}",
                m.tokens
            );
            let _ = writeln!(
                out,
                "lx_serve_tenant_busy_seconds_total{{tenant=\"{t}\"}} {}",
                m.busy.as_secs_f64()
            );
            let _ = writeln!(
                out,
                "lx_serve_tenant_swap_seconds_total{{tenant=\"{t}\"}} {}",
                m.swap.as_secs_f64()
            );
            let _ = writeln!(
                out,
                "lx_serve_tenant_slices_total{{tenant=\"{t}\"}} {}",
                m.slices
            );
            if with_loss {
                let _ = writeln!(
                    out,
                    "lx_serve_tenant_last_loss{{tenant=\"{t}\"}} {}",
                    m.last_loss
                );
            }
        };
        for (tenant, m) in &ranked[..cap] {
            tenant_series(tenant, m, true);
        }
        if ranked.len() > cap {
            let mut rollup = TenantMetrics::default();
            for (_, m) in &ranked[cap..] {
                rollup.steps += m.steps;
                rollup.tokens += m.tokens;
                rollup.busy += m.busy;
                rollup.swap += m.swap;
                rollup.slices += m.slices;
            }
            // No last_loss for the rollup: a loss averaged across tenants is
            // not a meaningful series.
            tenant_series("other", &rollup, false);
        }
        // The registry follows the same cap: a `tenant`-labelled series
        // (the per-tenant slice histograms) renders only for a top-K tenant.
        let shown: Vec<String> = ranked[..cap]
            .iter()
            .map(|(t, _)| t.replace('"', "'"))
            .collect();
        for line in lx_obs::registry().render_prometheus().lines() {
            let tenant = line
                .split_once("tenant=\"")
                .and_then(|(_, rest)| rest.split_once('"'))
                .map(|(t, _)| t);
            if tenant.is_none_or(|t| shown.iter().any(|s| s == t)) {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve: {} tenants | queue {} | {} steps | {:.1} steps/s | {:.0} tok/s | util {:.0}%",
            self.per_tenant.len(),
            self.queue_depth,
            self.total_steps,
            self.aggregate_steps_per_sec(),
            self.aggregate_tokens_per_sec(),
            100.0 * self.utilisation(),
        )?;
        for (tenant, m) in &self.per_tenant {
            writeln!(
                f,
                "  {tenant:<16} {:>6} steps  {:>8.1} steps/s  {:>10.0} tok/s  loss {:.4}  swap {:.1}ms",
                m.steps,
                m.steps_per_sec(),
                m.tokens_per_sec(),
                m.last_loss,
                m.swap.as_secs_f64() * 1e3 / m.slices.max(1) as f64,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_accumulate() {
        let mut m = ServeMetrics::default();
        m.record_slice("a", 4, 64, Duration::from_millis(100), Duration::ZERO, 2.0);
        m.record_slice("a", 4, 64, Duration::from_millis(100), Duration::ZERO, 1.5);
        m.record_slice("b", 2, 32, Duration::from_millis(50), Duration::ZERO, 3.0);
        let snap = m.snapshot();
        assert_eq!(snap.total_steps, 10);
        assert_eq!(snap.total_tokens, 160);
        let a = &snap.per_tenant["a"];
        assert_eq!(a.steps, 8);
        assert_eq!(a.slices, 2);
        assert!((a.last_loss - 1.5).abs() < 1e-6);
        assert!((a.steps_per_sec() - 40.0).abs() < 1.0);
        assert!(!format!("{snap}").is_empty());
    }

    #[test]
    fn zero_time_rates_are_zero() {
        let t = TenantMetrics::default();
        assert_eq!(t.steps_per_sec(), 0.0);
        assert_eq!(t.tokens_per_sec(), 0.0);
    }

    #[test]
    fn empty_snapshot_yields_finite_zero_rates() {
        // Regression: an all-zero snapshot (service just started, or a
        // snapshot taken in the same instant as startup) must not produce
        // NaN from 0/0 in any derived rate.
        let snap = MetricsSnapshot {
            uptime: Duration::ZERO,
            queue_depth: 0,
            completed_jobs: 0,
            total_steps: 0,
            total_tokens: 0,
            total_busy: Duration::ZERO,
            per_tenant: BTreeMap::new(),
        };
        for v in [
            snap.aggregate_steps_per_sec(),
            snap.aggregate_tokens_per_sec(),
            snap.utilisation(),
        ] {
            assert!(v.is_finite());
            assert_eq!(v, 0.0);
        }
        let text = format!("{snap}");
        assert!(!text.contains("NaN"), "display must stay NaN-free: {text}");
    }

    #[test]
    fn prometheus_rendering_includes_service_and_registry_series() {
        let mut m = ServeMetrics::default();
        m.record_slice(
            "acme",
            4,
            64,
            Duration::from_millis(100),
            Duration::ZERO,
            2.0,
        );
        let text = m.snapshot().render_prometheus();
        assert!(text.contains("# TYPE lx_serve_steps_total counter"));
        assert!(text.contains("lx_serve_steps_total 4"));
        assert!(text.contains("lx_serve_tenant_steps_total{tenant=\"acme\"} 4"));
        assert!(text.contains("lx_serve_utilisation"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (_, value) = line.rsplit_once(' ').expect("series line");
            assert!(value.parse::<f64>().is_ok(), "bad series line: {line}");
        }
    }

    #[test]
    fn tenant_series_are_capped_with_an_other_rollup() {
        // 1000 tenants, distinct traffic: the exposition must stay bounded
        // at cap tenants' series plus one `other` rollup, and the rollup
        // must conserve the totals the capped tenants no longer carry.
        let cap = DEFAULT_TENANT_SERIES_CAP as u64;
        let mut m = ServeMetrics::default();
        for i in 0..1000u64 {
            m.record_slice(
                &format!("tenant-{i:04}"),
                2,
                // tenant-0999 has the most traffic, tenant-0000 the least.
                16 * (i + 1),
                Duration::from_millis(10),
                Duration::ZERO,
                1.0,
            );
        }
        let snap = m.snapshot();
        let text = snap.render_prometheus();
        let tenant_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("lx_serve_tenant_"))
            .collect();
        // cap tenants x 6 series + 1 rollup x 5 series (no last_loss).
        assert_eq!(tenant_lines.len() as u64, cap * 6 + 5, "bounded exposition");
        // Top-by-traffic survives; the long tail does not.
        assert!(text.contains("tenant=\"tenant-0999\""));
        assert!(!text.contains("tenant=\"tenant-0000\""));
        assert!(!text.contains("lx_serve_tenant_last_loss{tenant=\"other\"}"));
        // The rollup conserves steps: 1000 tenants x 2 steps each.
        let rollup_steps: u64 = text
            .lines()
            .find(|l| l.starts_with("lx_serve_tenant_steps_total{tenant=\"other\"}"))
            .and_then(|l| l.rsplit_once(' '))
            .map(|(_, v)| v.parse().unwrap())
            .expect("other rollup present");
        assert_eq!(rollup_steps, (1000 - cap) * 2);
        // Aggregate service totals are untouched by the cap.
        assert!(text.contains(&format!("lx_serve_steps_total {}", 1000 * 2)));
    }
}
