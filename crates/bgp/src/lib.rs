//! # bgp — the legacy-application use case (Quagga/BGP substitute)
//!
//! The second NetTrails use case integrates the platform with an *unmodified
//! legacy application*: "We use the Quagga routing suite to set up a number of
//! BGP instances in multiple ASes. [...] we instantiate all Quagga BGP daemons
//! on a single machine and use the proxy to intercept BGP messages. The Quagga
//! instances form a topology of ASes that consists of several large and small
//! ISPs connected by a mix of customer/provider/peer relationships. Using
//! actual BGP traces from RouteViews, we show that NetTrails can capture
//! derivation histories and origins of routing entries." (Section 3.)
//!
//! Quagga binaries and RouteViews feeds are not available in this environment,
//! so this crate provides behaviour-preserving substitutes:
//!
//! * [`topology`] — AS-level topologies with customer/provider/peer
//!   relationships (a few large ISPs peering with each other, mid-size ISPs
//!   buying transit from them, stub ASes at the edge), generated
//!   deterministically;
//! * [`speaker`] — a BGP-like speaker per AS: RIB, Gao–Rexford route
//!   preference (customer > peer > provider, then shortest AS path) and export
//!   policy, AS-path loop detection, announce/withdraw processing. The
//!   speakers are the "black box": the platform never looks inside them;
//! * [`trace`] — a RouteViews-style update-trace generator (prefix
//!   announcements, withdrawal/re-announcement churn);
//! * [`proxy`] — **the NetTrails proxy**: it observes the `inputRoute` /
//!   `outputRoute` messages crossing each AS boundary and applies the paper's
//!   `maybe` rules (`?-`, with `f_isExtend`) to infer the causal links between
//!   them, feeding the resulting rule-execution events into the ExSPAN
//!   provenance system;
//! * [`harness`] — glue that runs a trace through the speakers, drives the
//!   proxy, and exposes provenance queries over routing entries.

pub mod harness;
pub mod proxy;
pub mod speaker;
pub mod topology;
pub mod trace;

pub use harness::{BgpHarness, HarnessStats};
pub use proxy::{Observation, Proxy, MAYBE_RULES};
pub use speaker::{BgpMessage, Relation, Route, Speaker};
pub use topology::AsTopology;
pub use trace::{TraceEvent, TraceEventKind, TraceGenerator};
