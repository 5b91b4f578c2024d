//! The `microlib-serve` daemon binary: campaign-as-a-service over the
//! artifact store (see the `microlib_serve` crate docs).
//!
//! ```text
//! microlib-serve [--addr HOST:PORT] [--threads N] [--queue-cap N]
//!                [--cache-dir DIR | --no-cache] [--resident-mb MB]
//! ```
//!
//! Environment: `MICROLIB_SERVE_RESIDENT_MB` caps resident warm-state
//! bytes (same as `--resident-mb`; the flag wins). An unparseable or
//! overflowing cap is a usage error (exit 2). SIGTERM/SIGINT drain
//! gracefully: in-flight cells finish, the memo journal is fsynced, then
//! the process exits 0.

use microlib_serve::{resident_cap_bytes, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static DRAIN: AtomicBool = AtomicBool::new(false);

/// Registers SIGTERM/SIGINT handlers that flip [`DRAIN`]. The handler
/// body is a single atomic store — async-signal-safe. `signal(2)` is the
/// one foreign call in the workspace, hence the targeted lint override.
#[allow(unsafe_code)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: microlib-serve [--addr HOST:PORT] [--threads N] [--queue-cap N]\n\
         \x20                     [--cache-dir DIR | --no-cache] [--resident-mb MB]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig {
        cache_dir: Some(PathBuf::from(".microlib-cache")),
        ..ServerConfig::default()
    };
    if let Ok(raw) = std::env::var("MICROLIB_SERVE_RESIDENT_MB") {
        config.resident_cap_bytes = Some(resident_or_usage("MICROLIB_SERVE_RESIDENT_MB", &raw));
    }
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| usage_for(flag));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--threads" => config.threads = parse_or_usage(&value("--threads")),
            "--queue-cap" => config.queue_cap = parse_or_usage(&value("--queue-cap")),
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--no-cache" => config.cache_dir = None,
            "--resident-mb" => {
                let raw = value("--resident-mb");
                config.resident_cap_bytes = Some(resident_or_usage("--resident-mb", &raw));
            }
            _ => usage(),
        }
    }
    install_signal_handlers();
    let mut server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("microlib-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("microlib-serve: listening on {}", server.addr());
    while !DRAIN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("microlib-serve: draining (finishing in-flight cells)");
    server.shutdown();
    eprintln!("microlib-serve: drained clean");
}

fn usage_for(flag: &str) -> String {
    eprintln!("microlib-serve: {flag} needs a value");
    usage();
}

fn parse_or_usage<T: std::str::FromStr>(value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage())
}

fn resident_or_usage(source: &str, raw: &str) -> u64 {
    resident_cap_bytes(raw).unwrap_or_else(|e| {
        eprintln!("microlib-serve: {source}: {e}");
        usage();
    })
}
