//! Workload management: NetSolve's lazy workload-information policy.
//!
//! Servers measure their own workload periodically and report it to the
//! agent **only when it changed meaningfully** (threshold, see
//! [`WorkloadPolicy::should_report`]), keeping agent traffic low. The agent, in turn, refuses to trust a report forever: once
//! a report's age exceeds the time-to-live, the server is assumed to be at
//! a pessimistic `stale_workload` until it speaks again. Experiment R4
//! sweeps these knobs and shows why they matter.

use std::collections::HashMap;

use netsolve_core::clock::SimTime;
use netsolve_core::config::WorkloadPolicy;
use netsolve_core::ids::ServerId;

/// One stored workload report.
#[derive(Debug, Clone, Copy)]
struct Report {
    workload: f64,
    at: SimTime,
}

/// The agent-side table of last-known workloads.
#[derive(Debug, Clone)]
pub struct WorkloadManager {
    policy: WorkloadPolicy,
    reports: HashMap<ServerId, Report>,
}

impl WorkloadManager {
    /// Manager with the given aging policy.
    pub fn new(policy: WorkloadPolicy) -> Self {
        WorkloadManager { policy, reports: HashMap::new() }
    }

    /// The active policy.
    pub fn policy(&self) -> WorkloadPolicy {
        self.policy
    }

    /// Store a report received at `now`. Negative workloads are clamped to
    /// zero (a confused server must not make itself infinitely attractive).
    pub fn record(&mut self, server: ServerId, workload: f64, now: SimTime) {
        let w = if workload.is_finite() { workload.max(0.0) } else { self.policy.stale_workload };
        self.reports.insert(server, Report { workload: w, at: now });
    }

    /// The workload the balancer should assume for `server` at `now`:
    /// the last report if fresh, the pessimistic stale value otherwise
    /// (including for servers that never reported).
    pub fn effective(&self, server: ServerId, now: SimTime) -> f64 {
        match self.reports.get(&server) {
            Some(r) if now.since(r.at) <= self.policy.ttl_secs => r.workload,
            _ => self.policy.stale_workload,
        }
    }

    /// Whether the stored report (if any) is still fresh at `now`.
    pub fn is_fresh(&self, server: ServerId, now: SimTime) -> bool {
        self.reports
            .get(&server)
            .map(|r| now.since(r.at) <= self.policy.ttl_secs)
            .unwrap_or(false)
    }

    /// Remove a server's report (when it unregisters or is marked dead).
    pub fn forget(&mut self, server: ServerId) {
        self.reports.remove(&server);
    }

    /// Number of servers with any stored report.
    pub fn tracked(&self) -> usize {
        self.reports.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> WorkloadPolicy {
        WorkloadPolicy {
            report_interval_secs: 10.0,
            report_threshold: 10.0,
            ttl_secs: 60.0,
            stale_workload: 100.0,
        }
    }

    #[test]
    fn fresh_report_is_used() {
        let mut m = WorkloadManager::new(policy());
        let s = ServerId(1);
        m.record(s, 42.0, SimTime::from_secs(100.0));
        assert_eq!(m.effective(s, SimTime::from_secs(130.0)), 42.0);
        assert!(m.is_fresh(s, SimTime::from_secs(130.0)));
    }

    #[test]
    fn stale_report_falls_back_to_pessimistic() {
        let mut m = WorkloadManager::new(policy());
        let s = ServerId(1);
        m.record(s, 5.0, SimTime::from_secs(0.0));
        assert_eq!(m.effective(s, SimTime::from_secs(61.0)), 100.0);
        assert!(!m.is_fresh(s, SimTime::from_secs(61.0)));
        // exactly at the TTL boundary it is still fresh
        assert_eq!(m.effective(s, SimTime::from_secs(60.0)), 5.0);
    }

    #[test]
    fn unknown_server_is_pessimistic() {
        let m = WorkloadManager::new(policy());
        assert_eq!(m.effective(ServerId(9), SimTime::ZERO), 100.0);
        assert!(!m.is_fresh(ServerId(9), SimTime::ZERO));
    }

    #[test]
    fn newer_report_replaces_older() {
        let mut m = WorkloadManager::new(policy());
        let s = ServerId(1);
        m.record(s, 80.0, SimTime::from_secs(0.0));
        m.record(s, 10.0, SimTime::from_secs(30.0));
        assert_eq!(m.effective(s, SimTime::from_secs(40.0)), 10.0);
        assert_eq!(m.tracked(), 1);
    }

    #[test]
    fn bogus_workloads_sanitized() {
        let mut m = WorkloadManager::new(policy());
        let s = ServerId(1);
        m.record(s, -50.0, SimTime::ZERO);
        assert_eq!(m.effective(s, SimTime::ZERO), 0.0);
        m.record(s, f64::NAN, SimTime::ZERO);
        assert_eq!(m.effective(s, SimTime::ZERO), 100.0);
    }

    #[test]
    fn forget_removes() {
        let mut m = WorkloadManager::new(policy());
        let s = ServerId(1);
        m.record(s, 10.0, SimTime::ZERO);
        m.forget(s);
        assert_eq!(m.tracked(), 0);
        assert_eq!(m.effective(s, SimTime::ZERO), 100.0);
    }
}
