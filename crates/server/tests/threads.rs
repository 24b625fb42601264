//! The front door's thread count does not grow with connections: text
//! and binary connections, text subscribers included, all live in the
//! event-loop shards. This is its own test binary, so no other test's
//! threads share the process while it counts.
#![cfg(target_os = "linux")]

use cc_server::{serve, BinClient, Service, ServiceConfig, TcpClient};
use std::time::Duration;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn thread_count_is_independent_of_connections() {
    let mut svc = Service::start(ServiceConfig {
        n: 1024,
        shards: 2,
        batch_max_wait: Duration::from_micros(50),
        ..ServiceConfig::default()
    })
    .expect("service");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut first = TcpClient::connect(addr).expect("connect");
    first.insert(1, 2).expect("insert");
    first.ping().expect("ping");
    assert!(first.query(1, 2).expect("query"));
    let baseline = threads();

    let mut text: Vec<TcpClient> =
        (0..64).map(|_| TcpClient::connect(addr).expect("text connect")).collect();
    let mut bin: Vec<BinClient> =
        (0..64).map(|_| BinClient::connect(addr).expect("binary connect")).collect();
    let mut subscribers: Vec<TcpClient> = (0..8u32)
        .map(|i| {
            let mut c = TcpClient::connect(addr).expect("subscriber connect");
            c.subscribe_component(100 + i, false).expect("subscribe");
            c
        })
        .collect();
    for c in text.iter_mut().chain(subscribers.iter_mut()) {
        c.ping().expect("text ping");
        assert!(c.query(1, 2).expect("text query"));
    }
    for c in &mut bin {
        c.ping().expect("binary ping");
        assert!(c.query(1, 2).expect("binary query"));
    }
    assert_eq!(
        threads(),
        baseline,
        "136 more connections (8 of them subscribed) must not add server threads"
    );
    server.stop();
    svc.shutdown();
}
