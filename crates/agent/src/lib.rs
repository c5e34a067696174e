//! # netsolve-agent
//!
//! The NetSolve agent — the paper's primary contribution: a resource
//! broker that tracks computational servers, predicts per-request
//! completion times, and hands clients a ranked candidate list.
//!
//! * [`balance`] — the pure load-balancing core: the
//!   `T = T_net + complexity(n)/p'` minimum-completion-time predictor and
//!   the baseline policies (round-robin, random, load-only, fastest-CPU,
//!   nearest-network) it is compared against;
//! * [`workload`] — the agent half of NetSolve's lazy workload policy
//!   (time-to-live aging; the server-side threshold rule is
//!   `WorkloadPolicy::should_report`);
//! * [`fault`] — per-server failure tracking with down/cooldown semantics;
//! * [`registry`] — the server and problem index built from PDL
//!   registrations;
//! * [`core`] — all of the above behind one message-level interface;
//! * [`daemon`] — the live agent served over any transport.

#![warn(missing_docs)]

pub mod balance;
pub mod core;
pub mod daemon;
pub mod fault;
pub mod registry;
pub mod workload;

pub use balance::{predict, rank, BalancerState, Policy, Ranked, ServerSnapshot};
pub use core::AgentCore;
pub use daemon::AgentDaemon;
pub use fault::FaultTracker;
pub use registry::{standard_descriptor, RegisteredServer, ServerRegistry};
pub use workload::WorkloadManager;

#[cfg(test)]
mod proptests {
    use super::*;
    use netsolve_core::ids::{HostId, ServerId};
    use netsolve_core::problem::{Complexity, RequestShape};
    use netsolve_net::NetworkView;
    use proptest::prelude::*;

    prop_compose! {
        fn arb_snapshot(id: u64)(
            mflops in 1.0..2000.0f64,
            workload in 0.0..400.0f64,
        ) -> ServerSnapshot {
            ServerSnapshot {
                server_id: ServerId(id),
                host: HostId(1000 + id),
                address: format!("srv{id}"),
                mflops,
                workload,
            }
        }
    }

    fn arb_pool() -> impl Strategy<Value = Vec<ServerSnapshot>> {
        (1usize..12).prop_flat_map(|count| {
            (0..count as u64)
                .map(|i| arb_snapshot(i + 1))
                .collect::<Vec<_>>()
        })
    }

    proptest! {
        /// MCT ranking is exactly ascending in predicted time, whatever the
        /// server pool looks like.
        #[test]
        fn mct_ranking_is_sorted(pool in arb_pool(), n in 1u64..2000) {
            let net = NetworkView::lan_defaults();
            let shape = RequestShape {
                problem: "dgesv".into(),
                n,
                bytes_in: 8 * n * n,
                bytes_out: 8 * n,
            };
            let mut st = BalancerState::default();
            let ranked = rank(
                Policy::MinimumCompletionTime,
                &pool,
                &shape,
                Complexity::new(0.6667, 3.0).unwrap(),
                &net,
                HostId(1),
                &mut st,
            );
            prop_assert_eq!(ranked.len(), pool.len());
            for w in ranked.windows(2) {
                prop_assert!(w[0].predicted_secs <= w[1].predicted_secs);
            }
        }

        /// Every policy returns a permutation of the eligible pool — no
        /// server invented, none dropped.
        #[test]
        fn every_policy_is_a_permutation(pool in arb_pool(), n in 1u64..500) {
            let net = NetworkView::lan_defaults();
            let shape = RequestShape {
                problem: "x".into(),
                n,
                bytes_in: n * 8,
                bytes_out: n * 8,
            };
            let mut st = BalancerState::default();
            for &policy in Policy::all() {
                let ranked = rank(
                    policy, &pool, &shape,
                    Complexity::new(1.0, 1.0).unwrap(),
                    &net, HostId(1), &mut st,
                );
                let mut got: Vec<u64> = ranked.iter().map(|r| r.server.server_id.raw()).collect();
                got.sort_unstable();
                let mut want: Vec<u64> = pool.iter().map(|s| s.server_id.raw()).collect();
                want.sort_unstable();
                prop_assert_eq!(got, want, "policy {} not a permutation", policy.name());
            }
        }

        /// Predictions are finite and positive for sane inputs, and adding
        /// workload never makes a server look faster.
        #[test]
        fn predictions_monotone_in_workload(
            mflops in 1.0..2000.0f64,
            w1 in 0.0..200.0f64,
            extra in 1.0..200.0f64,
            n in 1u64..1000,
        ) {
            let net = NetworkView::lan_defaults();
            let shape = RequestShape {
                problem: "p".into(), n, bytes_in: n * 8, bytes_out: n * 8,
            };
            let c = Complexity::new(2.0, 2.0).unwrap();
            let mk = |w: f64| ServerSnapshot {
                server_id: ServerId(1),
                host: HostId(2),
                address: "a".into(),
                mflops,
                workload: w,
            };
            let (t1, _, _) = predict(&mk(w1), &shape, c, &net, HostId(1));
            let (t2, _, _) = predict(&mk(w1 + extra), &shape, c, &net, HostId(1));
            prop_assert!(t1.is_finite() && t1 > 0.0);
            prop_assert!(t2 >= t1, "more workload must not predict faster");
        }
    }
}
