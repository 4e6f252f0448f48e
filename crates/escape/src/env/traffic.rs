//! Traffic and inspection at the service access points: paced UDP
//! streams and pings, receive-side statistics, the cross-domain gateway
//! hooks, and the dataplane's flow-cache toggle.

use super::Escape;
use crate::error::EscapeError;
use bytes::Bytes;
use escape_netem::{GatewayRx, Host, HostStats, NodeId, Time};
use escape_openflow::Switch;
use escape_packet::PacketBuilder;
use std::ops::RangeInclusive;

/// Lengths a UDP stream's frames can have: at least the Ethernet, IPv4
/// and UDP headers (14 + 20 + 8 bytes), and at most what IPv4's 16-bit
/// total-length field can count behind the Ethernet header.
const UDP_FRAME_LEN: RangeInclusive<usize> = 42..=14 + 65_535;

impl Escape {
    /// The emulator node of a SAP.
    fn sap_node(&self, sap: &str) -> Result<NodeId, EscapeError> {
        self.infra
            .node(sap)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {sap}")))
    }

    /// The host behind a SAP, with its node id.
    fn sap_host_mut(&mut self, sap: &str) -> Result<(NodeId, &mut Host), EscapeError> {
        let node = self.sap_node(sap)?;
        let host = self
            .sim
            .node_as_mut::<Host>(node)
            .ok_or_else(|| EscapeError::Invalid(format!("{sap} is not a SAP")))?;
        Ok((node, host))
    }

    /// The host behind a SAP, read-only.
    fn sap_host(&self, sap: &str) -> Result<&Host, EscapeError> {
        self.sim
            .node_as::<Host>(self.sap_node(sap)?)
            .ok_or_else(|| EscapeError::Invalid(format!("{sap} is not a SAP")))
    }

    /// Installs static ARP entries so `src` can address `dst` directly
    /// (chains steer by IP; ESCAPE pre-provisions ARP like Mininet's
    /// `--arp`).
    pub(super) fn provision_arp(&mut self, src: &str, dst: &str) -> Result<(), EscapeError> {
        let (dst_mac, dst_ip) = self.infra.sap(dst)?;
        self.sap_host_mut(src)?.1.static_arp(dst_ip, dst_mac);
        Ok(())
    }

    /// Starts a paced UDP stream between two SAPs: `count` frames of
    /// `frame_len` bytes, one every `interval_us` microseconds.
    pub fn start_udp(
        &mut self,
        from: &str,
        to: &str,
        frame_len: usize,
        interval_us: u64,
        count: u64,
    ) -> Result<(), EscapeError> {
        self.start_udp_with_sport(from, to, frame_len, interval_us, count, 40_000)
    }

    /// [`Escape::start_udp`] with an explicit UDP source port. The
    /// multi-domain coordinator stamps each chain's wire-identity port
    /// here so gateways can tell co-located chains apart. A `frame_len`
    /// no Ethernet/IPv4/UDP frame can have is rejected before anything
    /// is registered.
    pub fn start_udp_with_sport(
        &mut self,
        from: &str,
        to: &str,
        frame_len: usize,
        interval_us: u64,
        count: u64,
        sport: u16,
    ) -> Result<(), EscapeError> {
        if !UDP_FRAME_LEN.contains(&frame_len) {
            return Err(EscapeError::Invalid(format!(
                "frame length {frame_len} outside {}..={} bytes",
                UDP_FRAME_LEN.start(),
                UDP_FRAME_LEN.end()
            )));
        }
        let (_, dst_ip) = self.infra.sap(to)?;
        self.provision_arp(from, to)?;
        let (node, host) = self.sap_host_mut(from)?;
        host.add_stream(
            dst_ip,
            sport,
            9_000,
            frame_len,
            Time::from_us(interval_us),
            count,
        );
        Host::start_streams(&mut self.sim, node, Time::from_us(1));
        Ok(())
    }

    /// Starts a paced ICMP ping from one SAP to another: `count` echo
    /// requests, one every `interval_us`. The echo *replies* need a
    /// return path, so deploy a chain in each direction first.
    pub fn start_ping(
        &mut self,
        from: &str,
        to: &str,
        interval_us: u64,
        count: u64,
    ) -> Result<(), EscapeError> {
        let (_, dst_ip) = self.infra.sap(to)?;
        self.provision_arp(from, to)?;
        self.provision_arp(to, from)?;
        let (node, host) = self.sap_host_mut(from)?;
        host.add_ping(dst_ip, Time::from_us(interval_us), count);
        Host::start_streams(&mut self.sim, node, Time::from_us(1));
        Ok(())
    }

    // ---------------- cross-domain gateway hooks --------------------

    /// Marks a SAP as a domain gateway: UDP payloads it receives are
    /// parked in a handoff buffer (with arrival time and original birth
    /// timestamp) for the multi-domain coordinator instead of landing in
    /// the user inbox.
    pub fn set_gateway_sap(&mut self, sap: &str) -> Result<(), EscapeError> {
        self.sap_host_mut(sap)?.1.set_gateway(true);
        Ok(())
    }

    /// Takes everything a gateway SAP has received since the last drain.
    pub fn drain_gateway_rx(&mut self, sap: &str) -> Result<Vec<GatewayRx>, EscapeError> {
        Ok(std::mem::take(&mut self.sap_host_mut(sap)?.1.gw_rx))
    }

    /// Re-originates a handed-off payload from gateway SAP `from` toward
    /// SAP `to` at absolute virtual time `at`, preserving the packet's
    /// original birth timestamp so end-to-end latency spans domains.
    /// `src_port` identifies the chain on the wire: downstream gateways
    /// see the shared gateway SAP as the source IP, so the port is what
    /// keeps chains sharing a gateway path distinguishable.
    /// `at` must not be in this domain's past.
    pub fn gateway_send(
        &mut self,
        from: &str,
        to: &str,
        payload: Vec<u8>,
        born_ns: u64,
        at: Time,
        src_port: u16,
    ) -> Result<(), EscapeError> {
        let (src_mac, src_ip) = self.infra.sap(from)?;
        let (dst_mac, dst_ip) = self.infra.sap(to)?;
        let frame = PacketBuilder::udp(
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            src_port,
            9_000,
            Bytes::from(payload),
        );
        let delay = Time::from_ns(at.since(self.sim.now()));
        let (node, host) = self.sap_host_mut(from)?;
        host.queue_frame(frame, born_ns);
        Host::flush_queued(&mut self.sim, node, delay);
        Ok(())
    }

    /// Receive-side statistics of a SAP.
    pub fn sap_stats(&self, sap: &str) -> Result<HostStats, EscapeError> {
        Ok(self.sap_host(sap)?.stats.clone())
    }

    /// Payloads received by a SAP ("inspect live traffic").
    pub fn sap_inbox(&self, sap: &str) -> Result<Vec<Vec<u8>>, EscapeError> {
        Ok(self.sap_host(sap)?.inbox.clone())
    }

    /// Enables or disables the exact-match flow cache on every switch
    /// (default on). Disabling flushes the caches, so every subsequent
    /// lookup walks the priority table — the reference path the
    /// differential tests and the dataplane bench compare against.
    pub fn set_flow_cache(&mut self, enabled: bool) {
        let mut names: Vec<&String> = self.infra.dpid.keys().collect();
        names.sort();
        for name in names {
            let Some(node) = self.infra.nodes.get(name).copied() else {
                continue;
            };
            if let Some(sw) = self.sim.node_as_mut::<Switch>(node) {
                sw.set_flow_cache(enabled);
            }
        }
    }
}
