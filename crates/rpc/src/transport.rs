//! [`FederationTransport`] over TCP: one multiplexed pipelining
//! connection ([`MuxClient`]) per site.

use crate::mux::{MuxClient, RetryPolicy};
use amc_net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc_net::Payload;
use amc_obs::ObsSink;
use amc_types::{AmcError, AmcResult, SiteId};
use std::collections::BTreeMap;
use std::net::SocketAddr;

/// The networked transport: the coordinator reaches every site through a
/// deadline/retry RPC client over loopback (or any) TCP.
pub struct TcpTransport {
    clients: BTreeMap<SiteId, MuxClient>,
}

impl TcpTransport {
    /// A transport for the sites at `addrs`, all sharing `policy` and
    /// emitting client-side events into `obs`. Every site is reached
    /// over a single multiplexed connection, however many threads call
    /// concurrently.
    pub fn new_mux(addrs: BTreeMap<SiteId, SocketAddr>, policy: RetryPolicy, obs: ObsSink) -> Self {
        let clients = addrs
            .into_iter()
            .map(|(site, addr)| (site, MuxClient::new(site, addr, policy, obs.clone())))
            .collect();
        TcpTransport { clients }
    }

    /// Repoint one site's client (a restarted site server may listen on a
    /// new port).
    pub fn set_site_addr(&self, site: SiteId, addr: SocketAddr) {
        if let Some(c) = self.clients.get(&site) {
            c.set_addr(addr);
        }
    }

    /// Total load-shed (`BufferExhausted`) answers across every site's
    /// client, retried and terminal alike.
    pub fn sheds(&self) -> u64 {
        self.clients.values().map(MuxClient::sheds).sum()
    }

    fn client(&self, to: SiteId) -> AmcResult<&MuxClient> {
        self.clients.get(&to).ok_or(AmcError::SiteDown(to))
    }
}

impl FederationTransport for TcpTransport {
    fn sites(&self) -> Vec<SiteId> {
        self.clients.keys().copied().collect()
    }

    fn call(&self, to: SiteId, payload: Payload) -> AmcResult<Payload> {
        self.client(to)?.call(payload)
    }

    fn admin(&self, to: SiteId, req: AdminRequest) -> AmcResult<AdminReply> {
        self.client(to)?.admin(req)
    }

    fn supports_pipelining(&self) -> bool {
        true
    }

    fn load_sheds(&self) -> u64 {
        self.sheds()
    }
}
