//! Tenant configuration: who may submit, at what weight, under which
//! failure budget, and the [`JobPolicy`] — deadline, attempts,
//! transactional mode, chaos lane — stamped onto every job it submits.
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
//!          | 'txn_mode=' M     -- transactional application: always|never
//!                                 (default always)
//! ```
//!
//! Example: `alpha:weight=3,deadline_ms=500;beta:budget=4,lane=20`.
//!
//! `deadline_ms`, `attempts`, `lane` and `txn_mode` set the tenant's
//! [`TenantConfig::policy`]; the rest is the service's own bookkeeping.
//!
//! The `lane` is what keys deterministic fault injection per tenant: every
//! job a tenant submits runs with `fault::set_lane(lane)`, so a
//! `TD_FAULT='panic@job=20'` plan fires in tenant `beta`'s jobs and
//! nowhere else — the lever the multi-tenant soak test uses to prove
//! isolation.

use std::time::Duration;
use td_sched::cache::fnv1a;
use td_sched::{JobPolicy, TxnMode};

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
    /// The policy every job the tenant submits carries: its deadline
    /// (measured from dispatch), its interpreter attempts, its
    /// transactional mode ([`TxnMode::Always`] by default: a failing step
    /// rolls the payload back to the last committed step; a SUBMIT's own
    /// `txn_mode=` field overrides it for that job) and its deterministic
    /// fault-injection lane (by default derived from the name).
    pub policy: JobPolicy,
    /// Cumulative failure budget: once this many of the tenant's jobs have
    /// failed, further submissions are rejected at admission (the tenant
    /// is *fused off*; other tenants are untouched). `None` never fuses.
    pub failure_budget: Option<usize>,
}

impl TenantConfig {
    /// A tenant with defaults: weight 1, 64 pending, no failure budget,
    /// and the default [`JobPolicy`] (no deadline, 1 attempt, transactions
    /// on) in a lane derived from the name.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        // Truncated name hash: stable across runs, readable in fault specs
        // once printed, and override-able via `lane=`.
        let policy = JobPolicy {
            fault_lane: Some(fnv1a(name.as_bytes()) % 1_000_000),
            ..JobPolicy::default()
        };
        TenantConfig {
            name,
            weight: 1,
            max_pending: 64,
            policy,
            failure_budget: None,
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
        self.policy.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// Sets the retry budget (builder-style; minimum 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.policy.max_attempts = attempts.max(1);
        self
    }

    /// Sets the cumulative failure budget (builder-style).
    pub fn with_failure_budget(mut self, budget: usize) -> Self {
        self.failure_budget = Some(budget);
        self
    }

    /// Pins the chaos lane (builder-style).
    pub fn with_fault_lane(mut self, lane: u64) -> Self {
        self.policy.fault_lane = Some(lane);
        self
    }

    /// Sets the transactional mode (builder-style).
    pub fn with_txn_mode(mut self, txn_mode: TxnMode) -> Self {
        self.policy.txn = txn_mode;
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
                    let ms = value.parse().map_err(|_| bad("deadline_ms"))?;
                    tenant.policy.deadline = Some(Duration::from_millis(ms))
                }
                "attempts" => {
                    tenant.policy.max_attempts =
                        value.parse::<u32>().map_err(|_| bad("attempts"))?.max(1)
                }
                "budget" => tenant.failure_budget = Some(value.parse().map_err(|_| bad("budget"))?),
                "lane" => tenant.policy.fault_lane = Some(value.parse().map_err(|_| bad("lane"))?),
                "txn_mode" => {
                    tenant.policy.txn = TxnMode::parse(value.trim())
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
        assert_eq!(tenants[0].policy.deadline, Some(Duration::from_millis(500)));
        assert_eq!(tenants[0].failure_budget, None);
        assert_eq!(tenants[1].failure_budget, Some(4));
        assert_eq!(tenants[1].policy.fault_lane, Some(20));
        assert_eq!(tenants[1].max_pending, 8);
    }

    #[test]
    fn retired_slo_parameters_are_unknown() {
        for (param, key) in [("slo_ms=50", "slo_ms"), ("slo_target=0.9", "slo_target")] {
            let err = parse_tenants(&format!("alpha:{param}")).unwrap_err();
            assert_eq!(err, format!("unknown parameter '{key}' for tenant 'alpha'"));
        }
    }

    #[test]
    fn parse_accepts_txn_mode() {
        let tenants = parse_tenants("alpha:txn_mode=never;beta:txn_mode=always;gamma").unwrap();
        assert_eq!(tenants[0].policy.txn, TxnMode::Never);
        assert_eq!(tenants[1].policy.txn, TxnMode::Always);
        assert_eq!(tenants[2].policy.txn, TxnMode::Always, "default is always");
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
        assert!(a.policy.fault_lane.is_some());
        assert_eq!(a.policy.fault_lane, b.policy.fault_lane);
        assert_ne!(
            a.policy.fault_lane,
            TenantConfig::new("beta").policy.fault_lane
        );
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
