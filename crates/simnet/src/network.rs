//! The discrete-event message-passing core.
//!
//! [`Network`] maintains a priority queue of in-flight messages. The driver
//! (the `nettrails` platform) sends messages, then repeatedly calls
//! [`Network::advance`] to pop the next batch of deliveries and hand them to
//! the destination engines; engine reactions produce further sends, and the
//! simulation proceeds until the queue drains or a time horizon is reached.
//!
//! Handles on the record path, strings at the view (see [`crate::stats`]):
//! a send looks its link up and charges its counters by [`NodeId`] pair, and
//! a queued message carries nothing but its endpoints and its payload.

use crate::stats::TrafficStats;
use crate::time::SimTime;
use crate::topology::Topology;
use nt_intern::NodeId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Network configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Latency applied to messages between nodes with no direct link (the
    /// distributed provenance query traversal may contact arbitrary nodes;
    /// NetTrails assumes an underlying routed network). In milliseconds.
    pub default_latency_ms: u64,
    /// Fixed per-message header overhead added to the payload size, in bytes.
    pub header_bytes: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            default_latency_ms: 5,
            header_bytes: 28,
        }
    }
}

/// A message delivered to a node. Endpoints are interned node ids, so
/// queueing and delivering a message never clones address strings.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered<M> {
    /// Delivery time.
    pub at: SimTime,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload.
    pub payload: M,
}

#[derive(Debug, Clone)]
struct InFlight<M> {
    deliver_at: SimTime,
    seq: u64,
    from: NodeId,
    to: NodeId,
    payload: M,
}

// Order by (time, seq) — BinaryHeap is a max-heap, so wrap in Reverse at the
// call sites.
impl<M> PartialEq for InFlight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for InFlight<M> {}
impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for InFlight<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// The discrete-event network. Generic over the payload type `M`.
#[derive(Debug, Clone)]
pub struct Network<M> {
    config: NetworkConfig,
    topology: Topology,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<InFlight<M>>>,
    stats: TrafficStats,
}

impl<M> Network<M> {
    /// Create a network over a topology.
    pub fn new(topology: Topology, config: NetworkConfig) -> Self {
        Network {
            config,
            topology,
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            stats: TrafficStats::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology (shared with the protocol layer).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access to the topology (for link failures, mobility updates).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Number of messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// True when no messages are in flight.
    pub fn idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Latency between two nodes: the direct link's latency when one exists,
    /// the configured default otherwise.
    fn latency(&self, from: NodeId, to: NodeId) -> SimTime {
        let ms = self
            .topology
            .latency_ms(from, to)
            .unwrap_or(self.config.default_latency_ms);
        SimTime::from_millis(ms)
    }

    /// Send a message of `payload_bytes` payload from `from` to `to`,
    /// charging it to `category`. Returns the scheduled delivery time.
    pub fn send(
        &mut self,
        from: impl Into<NodeId>,
        to: impl Into<NodeId>,
        payload: M,
        payload_bytes: usize,
        category: &'static str,
    ) -> SimTime {
        self.send_batch(from, to, payload, payload_bytes, 1, category)
    }

    /// Send one message carrying `records` coalesced records (a delta
    /// batch). The payload is priced as the caller computed it — dictionary
    /// header plus `records` fixed-width bodies — and the per-message
    /// framing header is charged **once** for the whole batch; that
    /// amortization is exactly what batched delta shipping saves over
    /// one-message-per-tuple. Returns the scheduled delivery time.
    pub fn send_batch(
        &mut self,
        from: impl Into<NodeId>,
        to: impl Into<NodeId>,
        payload: M,
        payload_bytes: usize,
        records: usize,
        category: &'static str,
    ) -> SimTime {
        let from = from.into();
        let to = to.into();
        let deliver_at = self.now + self.latency(from, to);
        self.seq += 1;
        self.stats.record_batch(
            from,
            to,
            category,
            payload_bytes + self.config.header_bytes,
            records,
        );
        self.queue.push(Reverse(InFlight {
            deliver_at,
            seq: self.seq,
            from,
            to,
            payload,
        }));
        deliver_at
    }

    /// Advance simulated time to the next pending delivery and return every
    /// message delivered at that instant (in send order). Returns an empty
    /// vector when the network is idle.
    pub fn advance(&mut self) -> Vec<Delivered<M>> {
        let Some(Reverse(first)) = self.queue.peek() else {
            return Vec::new();
        };
        let t = first.deliver_at;
        self.now = t;
        let mut out = Vec::new();
        while let Some(Reverse(m)) = self.queue.peek() {
            if m.deliver_at != t {
                break;
            }
            let Reverse(m) = self.queue.pop().expect("peeked");
            out.push(Delivered {
                at: m.deliver_at,
                from: m.from,
                to: m.to,
                payload: m.payload,
            });
        }
        out
    }

    /// Advance the clock to `t` without delivering anything (used to model
    /// idle periods between externally scheduled events).
    pub fn advance_time_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn network() -> Network<String> {
        let mut topo = Topology::line(3);
        // Give the n1-n2 link a bigger latency than n2-n3.
        topo.add_bidi("n1", "n2", 1);
        if let Some(l) = topo.remove_link("n1", "n2") {
            let mut l = l;
            l.latency_ms = 10;
            topo.add_link(l);
        }
        Network::new(topo, NetworkConfig::default())
    }

    #[test]
    fn messages_are_delivered_in_time_order() {
        let mut net = network();
        net.send("n1", "n2", "slow".to_string(), 10, "test"); // 10 ms
        net.send("n2", "n3", "fast".to_string(), 10, "test"); // 1 ms
        let batch1 = net.advance();
        assert_eq!(batch1.len(), 1);
        assert_eq!(batch1[0].payload, "fast");
        assert_eq!(net.now(), SimTime::from_millis(1));
        let batch2 = net.advance();
        assert_eq!(batch2[0].payload, "slow");
        assert_eq!(net.now(), SimTime::from_millis(10));
        assert!(net.idle());
        assert!(net.advance().is_empty());
    }

    #[test]
    fn same_instant_messages_are_batched_in_send_order() {
        let mut net = network();
        net.send("n2", "n3", "a".to_string(), 1, "test");
        net.send("n2", "n3", "b".to_string(), 1, "test");
        let batch = net.advance();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].payload, "a");
        assert_eq!(batch[1].payload, "b");
    }

    #[test]
    fn unknown_pairs_use_default_latency_and_traffic_is_counted() {
        let mut net = network();
        net.send("n1", "n3", "x".to_string(), 100, "prov-query");
        let batch = net.advance();
        assert_eq!(batch.len(), 1);
        assert_eq!(net.now(), SimTime::from_millis(5));
        assert_eq!(net.stats().messages, 1);
        assert_eq!(
            net.stats().category_bytes("prov-query"),
            100 + NetworkConfig::default().header_bytes as u64
        );
    }

    #[test]
    fn advance_time_never_goes_backwards() {
        let mut net = network();
        net.advance_time_to(SimTime::from_secs(5));
        assert_eq!(net.now(), SimTime::from_secs(5));
        net.advance_time_to(SimTime::from_secs(1));
        assert_eq!(net.now(), SimTime::from_secs(5));
    }
}
