//! # nettrails — a declarative platform for maintaining and querying
//! provenance in distributed systems
//!
//! This crate is the integration layer of the reproduction (the box labelled
//! *NetTrails* in Figure 1 of the paper). It wires together:
//!
//! * the NDlog front-end (`ndlog`) and per-node runtime engines
//!   (`nt-runtime`) — the RapidNet role,
//! * the discrete-event network (`simnet`) — the ns-3 role,
//! * the ExSPAN provenance maintenance and query engines (`provenance`),
//! * the protocol library (`protocols`), the legacy/BGP integration (`bgp`),
//!   the log store (`logstore`) and the visualizer backend (`vis`).
//!
//! The central type is [`NetTrails`]: build it from an NDlog program and a
//! topology, seed base tuples, run the distributed computation to a fixpoint,
//! change the topology, and issue distributed provenance queries — all while
//! the platform incrementally maintains both network state and its provenance.
//!
//! [`NetTrails::run_to_fixpoint`] is a round loop: run the engines that have
//! queued deltas (in node-name order), apply the round's firings to the
//! provenance stores, flush query frames, deliver the network's next batch.
//! The loop is work-proportional — engines sit in a dense table with a ready
//! set that is marked wherever work is queued (a seeded fact, a delivery, an
//! engine stopped by its delta budget), and a round visits only those, so an
//! event costs the nodes it touches, not the size of the network.
//!
//! ```
//! use nettrails::{NetTrails, NetTrailsConfig};
//! use provenance::QueryKind;
//! use simnet::Topology;
//!
//! let mut nt = NetTrails::new(
//!     protocols::mincost::PROGRAM,
//!     Topology::line(3),
//!     NetTrailsConfig::default(),
//! )
//! .unwrap();
//! nt.seed_links_from_topology();
//! nt.run_to_fixpoint();
//!
//! // n1 knows the cheapest cost to n3 (two hops of cost 1).
//! let (node, min_cost) = nt
//!     .find_tuple("minCost", |t| {
//!         t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n3")
//!     })
//!     .expect("minCost(n1,n3) derived");
//! assert_eq!(node, "n1");
//! assert_eq!(min_cost.values()[2].as_int(), Some(2));
//!
//! // And its provenance can be queried from any node: the session rides the
//! // simulated wire as real per-destination query frames.
//! let (result, stats) = nt
//!     .query(&min_cost)
//!     .from_node("n3")
//!     .kind(QueryKind::ParticipatingNodes)
//!     .run();
//! assert!(stats.latency_ms > 0.0, "measured, not modelled");
//! ```

mod engines;
#[doc(hidden)]
pub mod fence;
pub mod platform;
mod proql;
pub mod report;

pub use platform::{
    NetMessage, NetTrails, NetTrailsConfig, PlatformStats, QuerySession, RunReport, ServiceBuilder,
    ServiceRequest,
};
pub use report::{ExperimentRow, ReportTable};

// Re-export the pieces users need to drive the platform without adding every
// sub-crate to their dependency list.
pub use ndlog;
pub use nt_runtime as runtime;
pub use protocols;
pub use provenance;
pub use simnet;
