//! The paper's headline demo (§2.3): telnet from the isolated PC to a
//! host on the Ethernet, through the kernel packet-radio gateway.
//!
//! ```text
//! cargo run --example telnet_session
//! ```

use apps::telnet::{TelnetClient, TelnetServer};
use gateway::scenario::{paper_topology, PaperConfig, ETHER_HOST_IP};
use sim::SimDuration;

fn main() {
    let mut s = paper_topology(PaperConfig::default(), 7);

    let server = TelnetServer::new(23, "vax2");
    s.world.add_app(s.ether_host, Box::new(server));

    let client = TelnetClient::standard_session(ETHER_HOST_IP, 23);
    let client = s.world.add_app(s.pc, Box::new(client));

    println!("telnet 128.95.1.4   (from the isolated PC, over 1200 bit/s packet radio)");
    println!("Trying {ETHER_HOST_IP}...");

    s.world.run_for(SimDuration::from_secs(900));

    let r = s.world.app(client).report();
    if r.done {
        println!("Connected to vax2.");
        println!("--------------------------------------------------");
        print!("{}", r.transcript);
        println!("--------------------------------------------------");
        println!(
            "session complete at t={} ({} lines typed)",
            r.finished_at.expect("done"),
            r.lines_sent
        );
    } else {
        println!("session did not complete; partial transcript:");
        print!("{}", r.transcript);
    }

    let gw = s.world.host(s.gw);
    println!(
        "gateway forwarded {} packets; queue peak {}, drops {}",
        gw.stack.stats().forwarded,
        gw.input_queue_peak(),
        gw.input_queue_drops()
    );
}
