//! A daemon that cannot build its reactor must fail to start.
//!
//! The test exhausts this process's file descriptors, so it lives alone
//! in its own test binary: any test running beside it would see its
//! sockets fail too.

#![cfg(unix)]

use harmony_net::server::{DaemonConfig, TuningDaemon};
use harmony_net::NetError;
use std::fs::File;
use std::net::TcpListener;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

unsafe extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

const RLIMIT_NOFILE: i32 = if cfg!(target_os = "linux") { 7 } else { 8 };

#[test]
fn descriptor_exhaustion_fails_the_start_instead_of_leaving_a_zombie() {
    // A low soft limit bounds the exhaustion loop whatever the host's is.
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: both calls only read or write the `RLimit` they are handed.
    unsafe {
        assert_eq!(getrlimit(RLIMIT_NOFILE, &mut lim), 0);
        lim.cur = lim.max.min(128);
        assert_eq!(setrlimit(RLIMIT_NOFILE, &lim), 0);
    }
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap()
    };
    let mut hoard: Vec<File> = std::iter::from_fn(|| File::open("/dev/null").ok()).collect();
    assert!(!hoard.is_empty() && hoard.len() < 128);
    // Exactly one descriptor is free: `bind` takes it, and the poller
    // (or the reactor's wakeup pair) finds none left.
    hoard.pop();
    let config = || {
        DaemonConfig::builder()
            .listen(addr.to_string())
            .build()
            .unwrap()
    };
    let err = TuningDaemon::start(config())
        .err()
        .expect("no descriptor for the poller: the start must fail");
    drop(hoard);
    assert!(matches!(err, NetError::Io(_)), "{err}");
    // Nothing was left listening: the port is free, and the same
    // configuration starts once descriptors are available again.
    let handle = TuningDaemon::start(config()).expect("the port was released");
    assert_eq!(handle.addr(), addr);
    handle.shutdown();
}
