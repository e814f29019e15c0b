//! The benchmarks: the `bench` runner's [`suites`] with their declared
//! gates ([`runner`]), the in-tree [`harness`] they time themselves
//! with, and shared setup — prepared worlds, episodes and images so the
//! benchmarked closures measure replay/simulation work, not world
//! construction.

pub mod harness;
pub mod runner;
pub mod suites;

use kcode::events::EventStream;
use kcode::Image;
use protolat_core::config::Version;
use protolat_core::harness::{run_rpc, run_tcpip, RoundtripEpisodes};
use protolat_core::world::{RpcWorld, TcpIpWorld};
use protocols::StackOptions;

/// A prepared TCP/IP measurement context.
pub struct TcpCtx {
    pub world: TcpIpWorld,
    pub episodes: RoundtripEpisodes,
    pub canonical: EventStream,
}

impl TcpCtx {
    pub fn new() -> Self {
        let run = run_tcpip(TcpIpWorld::build(StackOptions::improved()), 2);
        let canonical = run.episodes.client_trace();
        TcpCtx { world: run.world, episodes: run.episodes, canonical }
    }

    pub fn image(&self, v: Version) -> Image {
        v.build_tcpip(&self.world, &self.canonical)
    }
}

impl Default for TcpCtx {
    fn default() -> Self {
        Self::new()
    }
}

/// A prepared RPC measurement context.
pub struct RpcCtx {
    pub world: RpcWorld,
    pub episodes: RoundtripEpisodes,
    pub canonical: EventStream,
}

impl RpcCtx {
    pub fn new() -> Self {
        let run = run_rpc(RpcWorld::build(StackOptions::improved()), 2);
        let canonical = run.episodes.client_trace();
        RpcCtx { world: run.world, episodes: run.episodes, canonical }
    }

    pub fn image(&self, v: Version) -> Image {
        v.build_rpc(&self.world, &self.canonical)
    }
}

impl Default for RpcCtx {
    fn default() -> Self {
        Self::new()
    }
}
