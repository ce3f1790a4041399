//! Inter-node message-passing model.
//!
//! Inter-node communication happens over the interconnection network with the
//! parameters published in the paper: an end-to-end transmission delay of
//! 0.5 ms, a CPU cost of 10 000 instructions per 8 KB on the sending side and
//! the same on the receiving side, and "infinite" bandwidth (wire time is
//! negligible). Intra-node communication goes through shared memory and costs
//! nothing here.
//!
//! The network never reorders messages between the same pair of nodes: the
//! arrival time of message *n+1* is never earlier than that of message *n*,
//! which the end-detection protocol of `dlb-exec` relies upon.

use dlb_common::config::{CpuParams, NetworkParams};
use dlb_common::{Duration, NodeId, SimTime};
use serde::{Deserialize, Serialize};

/// Timing of one message transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageTiming {
    /// Time at which the sender has finished paying its send CPU cost and the
    /// message leaves the node.
    pub sent: SimTime,
    /// Time at which the message reaches the destination node (before the
    /// receiver pays its receive CPU cost).
    pub arrival: SimTime,
    /// CPU time the sender spent on the send.
    pub send_cpu: Duration,
    /// CPU time the receiver must spend to take delivery.
    pub recv_cpu: Duration,
}

/// Aggregate traffic statistics (per-link counts: [`Network::link_bytes`],
/// [`Network::link_messages`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Total number of messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
}

/// State of one directed link.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// Arrival time of the last message sent on the link: the next one may
    /// not arrive earlier (FIFO per link).
    clock: SimTime,
    messages: u64,
    bytes: u64,
}

/// The interconnection network of the hierarchical system.
#[derive(Debug, Clone)]
pub struct Network {
    params: NetworkParams,
    cpu: CpuParams,
    nodes: usize,
    /// Directed links, dense and row-major: `links[from * nodes + to]`.
    links: Vec<Link>,
    stats: NetworkStats,
}

impl Network {
    /// Creates a network joining `nodes` SM-nodes with the given parameters.
    /// `cpu` is used to convert the per-message instruction costs into time.
    pub fn new(params: NetworkParams, cpu: CpuParams, nodes: usize) -> Self {
        Self {
            params,
            cpu,
            nodes,
            links: vec![Link::default(); nodes * nodes],
            stats: NetworkStats::default(),
        }
    }

    /// Index of link `from → to` in `links`.
    fn link_index(&self, from: NodeId, to: NodeId) -> usize {
        assert!(
            from.index() < self.nodes && to.index() < self.nodes,
            "link {from} -> {to} lies outside a {}-node network",
            self.nodes
        );
        from.index() * self.nodes + to.index()
    }

    /// Network parameters in force.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Sends `bytes` from `from` to `to`, with the send starting at `at`.
    ///
    /// Returns the timing of the transfer. Sending to the local node is free
    /// and instantaneous (shared memory): the paper's model only pays
    /// message-passing costs across SM-nodes. Panics when a node lies
    /// outside the network.
    pub fn send(&mut self, from: NodeId, to: NodeId, bytes: u64, at: SimTime) -> MessageTiming {
        if from == to {
            return MessageTiming {
                sent: at,
                arrival: at,
                send_cpu: Duration::ZERO,
                recv_cpu: Duration::ZERO,
            };
        }
        let send_cpu = self.cpu.instructions(self.params.send_instructions(bytes));
        let recv_cpu = self.cpu.instructions(self.params.recv_instructions(bytes));
        let sent = at + send_cpu;
        let i = self.link_index(from, to);
        let link = &mut self.links[i];
        // FIFO per link: never deliver before a previously sent message on the
        // same link.
        let arrival = (sent + self.params.end_to_end_delay + self.params.transmission_time(bytes))
            .max(link.clock);
        link.clock = arrival;
        link.messages += 1;
        link.bytes += bytes;
        self.stats.messages += 1;
        self.stats.bytes += bytes;

        MessageTiming {
            sent,
            arrival,
            send_cpu,
            recv_cpu,
        }
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Bytes sent from `from` to `to`. Panics when a node lies outside the
    /// network.
    pub fn link_bytes(&self, from: NodeId, to: NodeId) -> u64 {
        self.links[self.link_index(from, to)].bytes
    }

    /// Messages sent from `from` to `to`. Panics when a node lies outside
    /// the network.
    pub fn link_messages(&self, from: NodeId, to: NodeId) -> u64 {
        self.links[self.link_index(from, to)].messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(NetworkParams::default(), CpuParams::default(), 3)
    }

    #[test]
    fn local_send_is_free() {
        let mut n = net();
        let t = n.send(NodeId::new(0), NodeId::new(0), 1 << 20, SimTime::ZERO);
        assert_eq!(t.arrival, SimTime::ZERO);
        assert_eq!(t.send_cpu, Duration::ZERO);
        assert_eq!(n.stats().messages, 0);
    }

    #[test]
    fn remote_send_pays_delay_and_cpu() {
        let mut n = net();
        let t = n.send(NodeId::new(0), NodeId::new(1), 8 * 1024, SimTime::ZERO);
        // 10 000 instructions at 40 MIPS = 0.25 ms of send CPU.
        assert_eq!(t.send_cpu, Duration::from_micros(250));
        assert_eq!(t.recv_cpu, Duration::from_micros(250));
        // Arrival = send cpu + 0.5 ms delay (infinite bandwidth).
        assert_eq!(
            t.arrival,
            SimTime::ZERO + Duration::from_micros(250) + Duration::from_micros(500)
        );
        assert_eq!(n.stats().messages, 1);
        assert_eq!(n.stats().bytes, 8 * 1024);
    }

    #[test]
    fn multi_page_messages_scale_cpu_cost() {
        let mut n = net();
        let t = n.send(NodeId::new(0), NodeId::new(1), 4 * 8 * 1024, SimTime::ZERO);
        assert_eq!(t.send_cpu, Duration::from_micros(1_000));
    }

    #[test]
    fn per_link_fifo_ordering() {
        let mut n = net();
        let a = n.send(NodeId::new(0), NodeId::new(1), 1 << 16, SimTime::ZERO);
        // A later, smaller message on the same link cannot overtake.
        let b = n.send(NodeId::new(0), NodeId::new(1), 8, SimTime::from_nanos(1));
        assert!(b.arrival >= a.arrival);
        // But a message on a different link is independent of that ordering:
        // a small reverse-direction message is not held behind the large one.
        let c = n.send(NodeId::new(1), NodeId::new(0), 8, SimTime::from_nanos(1));
        assert!(c.arrival < a.arrival);
        assert_eq!(n.link_messages(NodeId::new(0), NodeId::new(1)), 2);
        assert_eq!(n.link_bytes(NodeId::new(1), NodeId::new(0)), 8);
    }

    #[test]
    fn stats_track_links_separately() {
        let mut n = net();
        n.send(NodeId::new(0), NodeId::new(1), 100, SimTime::ZERO);
        n.send(NodeId::new(0), NodeId::new(2), 200, SimTime::ZERO);
        n.send(NodeId::new(2), NodeId::new(0), 300, SimTime::ZERO);
        assert_eq!(n.stats().messages, 3);
        assert_eq!(n.stats().bytes, 600);
        assert_eq!(n.link_bytes(NodeId::new(0), NodeId::new(1)), 100);
        assert_eq!(n.link_bytes(NodeId::new(0), NodeId::new(2)), 200);
        assert_eq!(n.link_bytes(NodeId::new(2), NodeId::new(0)), 300);
        assert_eq!(n.link_bytes(NodeId::new(1), NodeId::new(2)), 0);
    }

    #[test]
    fn highest_index_link_keeps_fifo_order_and_its_own_stats() {
        let mut n = Network::new(NetworkParams::default(), CpuParams::default(), 8);
        let (a, b) = (NodeId::new(7), NodeId::new(6));
        let big = n.send(a, b, 1 << 16, SimTime::ZERO);
        let small = n.send(a, b, 8, SimTime::from_nanos(1));
        assert!(small.arrival >= big.arrival, "a later message overtook");
        // The reverse link and its row neighbour are independent of it.
        let back = n.send(b, a, 8, SimTime::from_nanos(1));
        assert!(back.arrival < big.arrival);
        n.send(NodeId::new(7), NodeId::new(5), 100, SimTime::ZERO);
        assert_eq!(n.link_messages(a, b), 2);
        assert_eq!(n.link_bytes(a, b), (1 << 16) + 8);
        assert_eq!(n.link_messages(b, a), 1);
        assert_eq!(n.link_bytes(b, a), 8);
        assert_eq!(n.link_bytes(NodeId::new(7), NodeId::new(5)), 100);
        assert_eq!(n.link_bytes(NodeId::new(7), NodeId::new(7)), 0);
        assert_eq!(n.stats().messages, 4);
        assert_eq!(n.stats().bytes, (1 << 16) + 116);
    }

    #[test]
    #[should_panic(expected = "outside a 3-node network")]
    fn sends_beyond_the_network_panic_instead_of_aliasing_a_link() {
        // Row-major, node 4 of a 3-node network would land on link 1 -> 1.
        net().send(NodeId::new(0), NodeId::new(4), 8, SimTime::ZERO);
    }

    #[test]
    fn finite_bandwidth_adds_wire_time() {
        let params = NetworkParams {
            bandwidth_bytes_per_sec: Some(8.0 * 1024.0), // 1 page per second
            ..NetworkParams::default()
        };
        let mut n = Network::new(params, CpuParams::default(), 2);
        let t = n.send(NodeId::new(0), NodeId::new(1), 8 * 1024, SimTime::ZERO);
        assert!(t.arrival.since(SimTime::ZERO) > Duration::from_secs(1));
    }
}
