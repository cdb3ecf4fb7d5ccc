//! A gateway-fronted cluster built in-process from public constructors
//! only: `Node::spawn`, `ShardedGateway::from_pairs`, `Gateway::serve`,
//! `TcpTransport`, `TcpSessionLink::new`. With a span sink, every seam gets
//! its probe; without one, the product's own types are wired directly.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};

use fc_cluster::{
    mem_pair, shared_backend, MemBackend, Node, NodeConfig, NodeStats, PairState, SharedBackend,
    SimSsdBackend, StorageBackend, TcpTransport, Transport,
};
use fc_gateway::{
    mem_session, AdmissionConfig, GatewayClient, GatewayConfig, SessionLink, ShardedGateway,
    TcpSessionLink,
};
use fc_ring::{Ring, RingConfig};
use fc_ssd::{FtlKind, SsdConfig, SsdStats};

use crate::oracle::{payload, PREFILL_SEQ};
use crate::probes::{
    BackendHandle, ProbeBackend, ProbeSession, ProbeTransport, SpanSink, TransportHandle,
};
use crate::workloads::{
    BackendKind, Link, Workload, CLIENTS, PAGES_PER_BLOCK, REPL_BATCH_PAGES, RING_SEED,
};

/// A `SimSsdBackend` the harness can still read device statistics from
/// after the nodes have taken it behind `Box<dyn StorageBackend>`. The
/// nodes already serialise backend calls, so the inner lock is uncontended.
#[derive(Clone)]
pub struct SharedSsd(Arc<Mutex<SimSsdBackend>>);

impl SharedSsd {
    fn new() -> SharedSsd {
        SharedSsd(Arc::new(Mutex::new(SimSsdBackend::new(
            SsdConfig::evaluation(FtlKind::Bast),
        ))))
    }

    pub fn stats(&self) -> SsdStats {
        self.0.lock().expect("ssd").ssd().stats().clone()
    }

    pub fn logical_pages(&self) -> u64 {
        self.0.lock().expect("ssd").ssd().logical_pages()
    }
}

impl StorageBackend for SharedSsd {
    fn write_page(&mut self, lpn: u64, version: u64, data: &[u8]) {
        self.0.lock().expect("ssd").write_page(lpn, version, data)
    }
    fn read_page(&self, lpn: u64) -> Option<(u64, Vec<u8>)> {
        self.0.lock().expect("ssd").read_page(lpn)
    }
    fn trim_page(&mut self, lpn: u64) {
        self.0.lock().expect("ssd").trim_page(lpn)
    }
    fn pages(&self) -> usize {
        self.0.lock().expect("ssd").pages()
    }
    fn version_of(&self, lpn: u64) -> Option<u64> {
        self.0.lock().expect("ssd").version_of(lpn)
    }
    fn lpns(&self) -> Vec<u64> {
        self.0.lock().expect("ssd").lpns()
    }
}

/// Handles onto the probes of a traced cluster.
pub struct Probes {
    pub sink: Arc<SpanSink>,
    /// One per pair, on the primary's end of the node link.
    pub transports: Vec<TransportHandle>,
    /// One per pair.
    pub backends: Vec<BackendHandle>,
}

pub struct Cluster {
    pub sg: ShardedGateway,
    /// One per pair on `SimSsd` workloads, else empty.
    pub ssds: Vec<SharedSsd>,
    pub probes: Option<Probes>,
    /// Where TCP clients connect; the harness runs the accept loop itself
    /// so it can hand the gateway a probed link.
    listener: Option<(TcpListener, SocketAddr)>,
}

fn spawn_node<T: Transport + Sync + 'static>(
    cfg: NodeConfig,
    link: T,
    backend: SharedBackend,
    probes: Option<&mut Probes>,
) -> Node {
    match probes {
        Some(p) => {
            let (link, handle) = ProbeTransport::new(link, p.sink.clone());
            p.transports.push(handle);
            Node::spawn(cfg, link, backend)
        }
        None => Node::spawn(cfg, link, backend),
    }
}

fn wrap_backend<B: StorageBackend + 'static>(b: B, probes: Option<&mut Probes>) -> SharedBackend {
    match probes {
        Some(p) => {
            let (b, handle) = ProbeBackend::new(b, p.sink.clone());
            p.backends.push(handle);
            shared_backend(b)
        }
        None => shared_backend(b),
    }
}

impl Cluster {
    /// Build the cluster `w` describes. With `sink`, probes are installed
    /// at every seam and record into it.
    pub fn build(w: &Workload, sink: Option<Arc<SpanSink>>) -> io::Result<Cluster> {
        let mut probes = sink.map(|sink| Probes {
            sink,
            transports: Vec::new(),
            backends: Vec::new(),
        });
        let ring = Ring::with_pairs(
            RingConfig {
                seed: RING_SEED,
                block_pages: PAGES_PER_BLOCK,
                ..RingConfig::default()
            },
            w.pairs,
        );

        let mut backends: Vec<SharedBackend> = Vec::new();
        let mut ssds = Vec::new();
        for _ in 0..w.pairs {
            backends.push(match w.backend {
                BackendKind::Mem => wrap_backend(MemBackend::new(), probes.as_mut()),
                BackendKind::SimSsd => {
                    let ssd = SharedSsd::new();
                    assert!(
                        w.window_pages * CLIENTS as u64 <= ssd.logical_pages(),
                        "{}: client windows exceed the device's logical pages",
                        w.name
                    );
                    ssds.push(ssd.clone());
                    wrap_backend(ssd, probes.as_mut())
                }
            });
        }
        if w.prefill {
            for lpn in 0..w.window_pages * CLIENTS as u64 {
                let client = (lpn / w.window_pages) as u32;
                backends[ring.shard_of_lpn(lpn) as usize].lock().write_page(
                    lpn,
                    0,
                    &payload(client, lpn, PREFILL_SEQ),
                );
            }
        }

        let node_cfg = |id: u16| {
            NodeConfig::builder()
                .id(id as u8)
                .buffer_pages(w.buffer_pages)
                .remote_capacity(w.remote_capacity)
                .pages_per_block(PAGES_PER_BLOCK)
                .repl_batch_pages(REPL_BATCH_PAGES)
                .build()
        };
        let (mut primaries, mut secondaries) = (Vec::new(), Vec::new());
        for (i, backend) in (0..w.pairs).zip(backends) {
            let (a, b) = (node_cfg(2 * i), node_cfg(2 * i + 1));
            let (primary, secondary) = match w.node_link {
                Link::Mem => {
                    let (ta, tb) = mem_pair();
                    (
                        spawn_node(a, ta, backend.clone(), probes.as_mut()),
                        Node::spawn(b, tb, backend),
                    )
                }
                Link::Tcp => {
                    let listener = TcpListener::bind("127.0.0.1:0")?;
                    let ta = TcpTransport::connect(listener.local_addr()?)?;
                    let tb = TcpTransport::accept(&listener)?;
                    (
                        spawn_node(a, ta, backend.clone(), probes.as_mut()),
                        Node::spawn(b, tb, backend),
                    )
                }
            };
            primaries.push(Arc::new(primary));
            secondaries.push(Arc::new(secondary));
        }

        let gw_cfg = GatewayConfig {
            admission: AdmissionConfig::unlimited(),
            pages_per_block: PAGES_PER_BLOCK,
            ..GatewayConfig::default()
        };
        let sg = ShardedGateway::from_pairs(gw_cfg, ring, primaries, secondaries);
        let listener = match w.client_link {
            Link::Mem => None,
            Link::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = l.local_addr()?;
                Some((l, addr))
            }
        };
        Ok(Cluster {
            sg,
            ssds,
            probes,
            listener,
        })
    }

    fn serve(&self, link: impl SessionLink + 'static, client: u32) {
        match &self.probes {
            Some(p) => self
                .sg
                .gateway()
                .serve(ProbeSession::new(link, p.sink.clone(), client)),
            None => self.sg.gateway().serve(link),
        }
    }

    /// Open client `idx`'s session over the workload's client link.
    pub fn connect(&self, idx: u32) -> io::Result<GatewayClient> {
        match &self.listener {
            None => {
                let (client_half, gateway_half) = mem_session();
                self.serve(gateway_half, idx);
                Ok(GatewayClient::from_mem(client_half, u64::from(idx)))
            }
            Some((listener, addr)) => {
                let client = GatewayClient::connect_tcp(*addr, u64::from(idx))?;
                let (stream, _) = listener.accept()?;
                self.serve(TcpSessionLink::new(stream)?, idx);
                Ok(client)
            }
        }
    }

    pub fn nodes(&self) -> Vec<Arc<Node>> {
        (0..self.sg.shards())
            .flat_map(|s| [self.sg.primary(s), self.sg.secondary(s)])
            .collect()
    }

    /// Invariants every repeat must end with; the first one broken, if any.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (gw, shards) = self.sg.stats_with_shards();
        fc_gateway::ShardStatsSum::of(&shards)
            .matches(&gw)
            .map_err(|(name, sum, total)| {
                format!("shard sum mismatch: sum of shard.{name} = {sum}, gateway.{name} = {total}")
            })?;
        if gw.inflight != 0 {
            return Err(format!("{} requests still in flight", gw.inflight));
        }
        for (i, node) in self.nodes().iter().enumerate() {
            let s: NodeStats = node.stats();
            if !s.writes_balance() {
                return Err(format!("node {i}: writes do not balance: {s:?}"));
            }
            // `Suspect` is a late heartbeat and heals by itself; the two
            // states beyond it change how writes are served.
            let state = node.lifecycle_state();
            if matches!(state, PairState::Solo | PairState::Resyncing) {
                return Err(format!(
                    "node {i} left the pair ({state:?}): the run measured a degraded cluster"
                ));
            }
        }
        Ok(())
    }

    /// Stop every thread the cluster started and wait for them.
    pub fn shutdown(self) {
        self.sg.gateway().shutdown();
        // Dropping the last handles joins each node's pump and pipe thread.
    }
}
