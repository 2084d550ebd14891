//! Tenant configuration: who may submit, at what weight, under which
//! deadline/retry/failure-budget policy.
//!
//! # Tenant-spec grammar (`TD_SERVE_TENANTS`)
//!
//! ```text
//! tenants := tenant (';' tenant)*
//! tenant  := name (':' param (',' param)*)?
//! param   := 'weight=' N       -- weighted-fair-queueing share (default 1)
//!          | 'pending=' N      -- admission cap on queued jobs (default 64)
//!          | 'deadline_ms=' N  -- per-job deadline (default none)
//!          | 'attempts=' N     -- retry budget for silenceable failures (default 1)
//!          | 'budget=' N       -- cumulative failure budget (default none)
//!          | 'lane=' N         -- TD_FAULT chaos lane (default: hash of the name)
//!          | 'slo_ms=' N       -- latency SLO threshold (default none)
//!          | 'slo_target=' F   -- SLO target fraction in (0,1) (default 0.99)
//!          | 'txn_mode=' M     -- transactional application: always|never
//!                                 (default always)
//! ```
//!
//! Example: `alpha:weight=3,deadline_ms=500;beta:budget=4,lane=20`.
//!
//! The `lane` is what keys deterministic fault injection per tenant: every
//! job a tenant submits runs with `fault::set_lane(lane)`, so a
//! `TD_FAULT='panic@job=20'` plan fires in tenant `beta`'s jobs and
//! nowhere else — the lever the multi-tenant soak test uses to prove
//! isolation.

use td_sched::cache::fnv1a;
use td_sched::TxnMode;

/// One tenant's policy knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantConfig {
    /// Tenant name (the `tenant=` field of SUBMIT requests).
    pub name: String,
    /// Weighted-fair-queueing share; a weight-2 tenant is dispatched twice
    /// as often as a weight-1 tenant when both are backlogged (minimum 1).
    pub weight: u32,
    /// Admission cap: jobs queued + running before new submissions are
    /// rejected (minimum 1).
    pub max_pending: usize,
    /// Per-job deadline in milliseconds, measured from dispatch.
    pub deadline_ms: Option<u64>,
    /// Interpreter attempts per job (silenceable-failure retries).
    pub max_attempts: u32,
    /// Cumulative failure budget: once this many of the tenant's jobs have
    /// failed, further submissions are rejected at admission (the tenant
    /// is *fused off*; other tenants are untouched). `None` never fuses.
    pub failure_budget: Option<usize>,
    /// Deterministic fault-injection lane for this tenant's jobs.
    pub fault_lane: u64,
    /// Latency SLO threshold in milliseconds: a completion slower than
    /// this counts as an SLO violation in the tenant's windowed time
    /// series (it still completes normally — the SLO is observational,
    /// unlike [`TenantConfig::deadline_ms`] which cancels). `None`
    /// disables SLO tracking for the tenant.
    pub slo_ms: Option<u64>,
    /// SLO target as a success fraction in `(0, 1)`: 0.99 means "99% of
    /// completions under `slo_ms`". The remaining fraction is the error
    /// budget; burn rate is violations over that allowance.
    pub slo_target: f64,
    /// Transactional application of the tenant's jobs
    /// ([`TxnMode::Always`] by default: a failing step rolls the payload
    /// back to the last committed step). Overridable per SUBMIT via the
    /// request's own `txn_mode=` field.
    pub txn_mode: TxnMode,
}

impl TenantConfig {
    /// A tenant with default policy: weight 1, 64 pending, no deadline,
    /// 1 attempt, no failure budget, lane derived from the name.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        // Truncated name hash: stable across runs, readable in fault specs
        // once printed, and override-able via `lane=`.
        let fault_lane = fnv1a(name.as_bytes()) % 1_000_000;
        TenantConfig {
            name,
            weight: 1,
            max_pending: 64,
            deadline_ms: None,
            max_attempts: 1,
            failure_budget: None,
            fault_lane,
            slo_ms: None,
            slo_target: 0.99,
            txn_mode: TxnMode::Always,
        }
    }

    /// Sets the WFQ weight (builder-style; minimum 1).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the admission cap (builder-style; minimum 1).
    pub fn with_max_pending(mut self, cap: usize) -> Self {
        self.max_pending = cap.max(1);
        self
    }

    /// Sets the per-job deadline (builder-style).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the retry budget (builder-style; minimum 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the cumulative failure budget (builder-style).
    pub fn with_failure_budget(mut self, budget: usize) -> Self {
        self.failure_budget = Some(budget);
        self
    }

    /// Pins the chaos lane (builder-style).
    pub fn with_fault_lane(mut self, lane: u64) -> Self {
        self.fault_lane = lane;
        self
    }

    /// Sets the latency SLO threshold (builder-style).
    pub fn with_slo_ms(mut self, ms: u64) -> Self {
        self.slo_ms = Some(ms);
        self
    }

    /// Sets the SLO target fraction (builder-style; clamped to (0, 1)).
    pub fn with_slo_target(mut self, target: f64) -> Self {
        self.slo_target = target.clamp(0.001, 0.999_999);
        self
    }

    /// Sets the transactional mode (builder-style).
    pub fn with_txn_mode(mut self, txn_mode: TxnMode) -> Self {
        self.txn_mode = txn_mode;
        self
    }
}

/// Parses a `TD_SERVE_TENANTS` spec (see the module docs for the
/// grammar).
///
/// # Errors
/// A message naming the offending tenant clause or parameter.
pub fn parse_tenants(spec: &str) -> Result<Vec<TenantConfig>, String> {
    let mut tenants = Vec::new();
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (name, params) = match clause.split_once(':') {
            Some((n, p)) => (n.trim(), p),
            None => (clause, ""),
        };
        if name.is_empty() || name.contains(['\n', '=', ',', ' ']) {
            return Err(format!("invalid tenant name in clause '{clause}'"));
        }
        if tenants.iter().any(|t: &TenantConfig| t.name == name) {
            return Err(format!("duplicate tenant '{name}'"));
        }
        let mut tenant = TenantConfig::new(name);
        for param in params.split(',') {
            let param = param.trim();
            if param.is_empty() {
                continue;
            }
            let Some((key, value)) = param.split_once('=') else {
                return Err(format!(
                    "parameter '{param}' for tenant '{name}' is not key=value"
                ));
            };
            let bad = |what: &str| format!("invalid {what} '{value}' for tenant '{name}'");
            match key.trim() {
                "weight" => tenant.weight = value.parse::<u32>().map_err(|_| bad("weight"))?.max(1),
                "pending" => {
                    tenant.max_pending = value.parse::<usize>().map_err(|_| bad("pending"))?.max(1)
                }
                "deadline_ms" => {
                    tenant.deadline_ms = Some(value.parse().map_err(|_| bad("deadline_ms"))?)
                }
                "attempts" => {
                    tenant.max_attempts = value.parse::<u32>().map_err(|_| bad("attempts"))?.max(1)
                }
                "budget" => tenant.failure_budget = Some(value.parse().map_err(|_| bad("budget"))?),
                "lane" => tenant.fault_lane = value.parse().map_err(|_| bad("lane"))?,
                "slo_ms" => tenant.slo_ms = Some(value.parse().map_err(|_| bad("slo_ms"))?),
                "slo_target" => {
                    let target: f64 = value.parse().map_err(|_| bad("slo_target"))?;
                    if !(target > 0.0 && target < 1.0) {
                        return Err(bad("slo_target"));
                    }
                    tenant.slo_target = target;
                }
                "txn_mode" => {
                    tenant.txn_mode = TxnMode::parse(value.trim())
                        .map_err(|message| format!("{message} for tenant '{name}'"))?
                }
                other => {
                    return Err(format!("unknown parameter '{other}' for tenant '{name}'"));
                }
            }
        }
        tenants.push(tenant);
    }
    if tenants.is_empty() {
        return Err("tenant spec names no tenants".to_owned());
    }
    Ok(tenants)
}

/// The spec in `TD_SERVE_TENANTS`, if set.
pub fn env_tenant_spec() -> Option<String> {
    std::env::var("TD_SERVE_TENANTS")
        .ok()
        .filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let tenants =
            parse_tenants("alpha:weight=3,deadline_ms=500 ; beta:budget=4,lane=20,pending=8")
                .unwrap();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].name, "alpha");
        assert_eq!(tenants[0].weight, 3);
        assert_eq!(tenants[0].deadline_ms, Some(500));
        assert_eq!(tenants[0].failure_budget, None);
        assert_eq!(tenants[1].failure_budget, Some(4));
        assert_eq!(tenants[1].fault_lane, 20);
        assert_eq!(tenants[1].max_pending, 8);
    }

    #[test]
    fn parse_accepts_slo_parameters() {
        let tenants = parse_tenants("alpha:slo_ms=50,slo_target=0.95;beta").unwrap();
        assert_eq!(tenants[0].slo_ms, Some(50));
        assert!((tenants[0].slo_target - 0.95).abs() < 1e-9);
        assert_eq!(tenants[1].slo_ms, None);
        assert!((tenants[1].slo_target - 0.99).abs() < 1e-9);
        assert!(parse_tenants("alpha:slo_target=1.5").is_err());
        assert!(parse_tenants("alpha:slo_target=0").is_err());
        assert!(parse_tenants("alpha:slo_ms=x").is_err());
    }

    #[test]
    fn parse_accepts_txn_mode() {
        let tenants = parse_tenants("alpha:txn_mode=never;beta:txn_mode=always;gamma").unwrap();
        assert_eq!(tenants[0].txn_mode, TxnMode::Never);
        assert_eq!(tenants[1].txn_mode, TxnMode::Always);
        assert_eq!(tenants[2].txn_mode, TxnMode::Always, "default is always");
        // `auto` was retired with the clone backend; it is refused like
        // any other unknown mode, with the grammar in the message.
        for bad in ["sometimes", "auto"] {
            let err = parse_tenants(&format!("alpha:txn_mode={bad}")).unwrap_err();
            assert!(err.contains("txn_mode"), "{err}");
            assert!(err.contains("alpha"), "{err}");
            assert!(err.contains("always|never"), "{err}");
        }
    }

    #[test]
    fn default_lanes_are_stable_and_name_derived() {
        let a = TenantConfig::new("alpha");
        let b = TenantConfig::new("alpha");
        assert_eq!(a.fault_lane, b.fault_lane);
        assert_ne!(a.fault_lane, TenantConfig::new("beta").fault_lane);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(parse_tenants("").is_err());
        assert!(parse_tenants("a b:weight=1").is_err());
        assert!(parse_tenants("alpha:weight=x").is_err());
        assert!(parse_tenants("alpha:wat=1").is_err());
        assert!(parse_tenants("alpha;alpha").is_err());
        assert!(parse_tenants("alpha:weight").is_err());
    }
}
