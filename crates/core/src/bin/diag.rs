//! Calibration diagnostic: print per-version metrics for both stacks.

use protolat_core::config::Version;
use protolat_core::harness::{run_rpc, run_tcpip};
use protolat_core::timing::{
    client_half, server_half, time_cell, RPC_UNTRACED_PER_HOP_US, UNTRACED_PER_HOP_US,
};
use protolat_core::world::{RpcWorld, TcpIpWorld};
use protocols::StackOptions;

fn main() {
    println!("=== TCP/IP ===");
    let run = run_tcpip(TcpIpWorld::build(StackOptions::improved()), 2);
    let canonical = run.episodes.client_trace();
    let f_tx = run.world.lance_model.f_tx;
    println!(
        "{:4} {:>7} {:>8} {:>7} {:>7} {:>7} | i:{:>5}/{:>5}/{:>4} d:{:>5}/{:>5}/{:>4} b:{:>5}/{:>5}/{:>4}",
        "ver", "e2e", "Tp", "len", "iCPI", "mCPI", "miss", "acc", "repl", "miss", "acc", "repl", "miss", "acc", "repl"
    );
    for v in Version::all() {
        let img = v.build_tcpip(&run.world, &canonical);
        let cell = time_cell(&run.episodes, &img, &img, f_tx, UNTRACED_PER_HOP_US);
        let (t, cold) = (cell.timing, cell.cold);
        println!(
            "{:4} {:7.1} {:8.1} {:7} {:7.2} {:7.2} | i:{:>5}/{:>5}/{:>4} d:{:>5}/{:>5}/{:>4} b:{:>5}/{:>5}/{:>4}",
            v.name(), t.e2e_us, t.tp_us(), t.client.instructions, t.client.icpi(), t.client.mcpi(),
            cold.icache.misses, cold.icache.accesses, cold.icache.replacement_misses,
            cold.dcache.misses, cold.dcache.accesses, cold.dcache.replacement_misses,
            cold.bcache.misses, cold.bcache.accesses, cold.bcache.replacement_misses,
        );
    }

    println!("\n=== RPC ===");
    let run = run_rpc(RpcWorld::build(StackOptions::improved()), 2);
    let canonical = run.episodes.client_trace();
    let f_tx = run.world.lance_model.f_tx;
    // Every RPC version is served by ALL: one server half serves them all.
    let server_img = Version::All.build_rpc(&run.world, &canonical);
    let server = server_half(&run.episodes, &server_img, f_tx);
    for v in Version::all() {
        let img = v.build_rpc(&run.world, &canonical);
        let client = client_half(&run.episodes, &img, f_tx);
        let (t, cold) = (client.roundtrip(&server, RPC_UNTRACED_PER_HOP_US), client.cold);
        println!(
            "{:4} {:7.1} {:8.1} {:7} {:7.2} {:7.2} | i:{:>5}/{:>5}/{:>4} d:{:>5}/{:>5}/{:>4} b:{:>5}/{:>5}/{:>4}",
            v.name(), t.e2e_us, t.tp_us(), t.client.instructions, t.client.icpi(), t.client.mcpi(),
            cold.icache.misses, cold.icache.accesses, cold.icache.replacement_misses,
            cold.dcache.misses, cold.dcache.accesses, cold.dcache.replacement_misses,
            cold.bcache.misses, cold.bcache.accesses, cold.bcache.replacement_misses,
        );
    }
}
