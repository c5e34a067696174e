//! # netsolve-net
//!
//! Transports and network modelling for netsolve-rs.
//!
//! * [`transport`] — the [`transport::Connection`] / [`transport::Listener`]
//!   / [`transport::Transport`] trait surface every component is written
//!   against;
//! * [`tcp`] — real sockets for running a distributed domain;
//! * [`channel`] — in-process transport whose deliveries obey a
//!   [`link::LinkModel`] (latency, bandwidth, jitter, failure injection):
//!   the reproducible substitute for the paper's 1996 testbed network;
//! * [`metrics`] — the agent's per-host-pair latency/bandwidth estimates
//!   feeding the `T_net` term of the completion-time predictor;
//! * [`chaos`] — a seeded fault-injecting decorator over any transport
//!   (refused dials, resets, CRC-detectable corruption, black holes,
//!   latency) for end-to-end robustness testing;
//! * [`daemon`] — the runtime both daemons run on: one capped accept
//!   loop, periodic tasks and a stop signal that wakes them at once.

#![warn(missing_docs)]

pub mod channel;
pub mod chaos;
pub mod daemon;
pub mod link;
pub mod metrics;
pub mod tcp;
pub mod transport;

pub use channel::ChannelNetwork;
pub use chaos::{ChaosPolicy, ChaosStats, ChaosTransport};
pub use daemon::{AcceptPolicy, DaemonRuntime, StopSignal};
pub use link::LinkModel;
pub use metrics::NetworkView;
pub use tcp::TcpTransport;
pub use transport::{call, Connection, Listener, Transport};

#[cfg(test)]
mod proptests {
    use super::*;
    use netsolve_core::ids::HostId;
    use netsolve_core::rng::Rng64;
    use proptest::prelude::*;

    proptest! {
        /// Transfer time is non-negative, finite for finite inputs, and
        /// monotone in byte count.
        #[test]
        fn link_transfer_monotone(lat in 0.0..1.0f64,
                                  bw in 1.0..1e9f64,
                                  a in 0u64..1_000_000,
                                  extra in 0u64..1_000_000) {
            let link = LinkModel::ideal().with_latency(lat).with_bandwidth(bw);
            let t1 = link.transfer_secs(a);
            let t2 = link.transfer_secs(a + extra);
            prop_assert!(t1.is_finite() && t1 >= lat);
            prop_assert!(t2 >= t1);
        }

        /// Jittered samples are never negative and — when the jitter is
        /// small relative to the base time, so zero-clamping cannot bias
        /// the mean — average near the deterministic value.
        #[test]
        fn link_jitter_unbiased(seed in any::<u64>(), jitter in 0.0..0.001f64) {
            let mut link = LinkModel::lan_1996();
            link.jitter_secs = jitter;
            let mut rng = Rng64::new(seed);
            let base = link.transfer_secs(10_000);
            let n = 2_000;
            let mean: f64 = (0..n)
                .map(|_| link.sample_transfer_secs(10_000, &mut rng))
                .sum::<f64>() / n as f64;
            prop_assert!(mean >= 0.0);
            // 6-sigma band on the sample mean (base ≈ 9 ms >> 6σ ≈ 6 ms,
            // so the max(0) clamp is never hit and the estimator is
            // unbiased)
            prop_assert!((mean - base).abs() < 6.0 * jitter / (n as f64).sqrt() + 1e-9);
        }

        /// The network view's estimate always lies within the range of the
        /// observations it has seen (EWMA is a convex combination).
        #[test]
        fn network_view_estimate_bounded(obs in prop::collection::vec(1e3..1e9f64, 1..20)) {
            let mut v = NetworkView::new(1e-3, 1e6);
            let (a, b) = (HostId(1), HostId(2));
            for &bw in &obs {
                v.observe(a, b, 1e-3, bw);
            }
            let est = v.bandwidth_bps(a, b);
            let lo = obs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = obs.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(est >= lo - 1e-6 && est <= hi + 1e-6, "est {est} outside [{lo}, {hi}]");
        }

        /// transfer_secs is consistent with its parts.
        #[test]
        fn network_view_transfer_decomposes(bytes in 0u64..10_000_000) {
            let mut v = NetworkView::new(0.002, 2e6);
            let (a, b) = (HostId(3), HostId(4));
            v.observe(a, b, 0.004, 4e6);
            let t = v.transfer_secs(a, b, bytes);
            let expect = v.latency_secs(a, b) + bytes as f64 / v.bandwidth_bps(a, b);
            prop_assert!((t - expect).abs() < 1e-12);
        }
    }
}
