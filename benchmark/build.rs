//! Captures the compiler version and the `target-cpu` the package is built
//! with, so every result can state them (the same code measures differently
//! under another `target-cpu`).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    // Cargo hands the effective rustflags over separated by 0x1f.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .find_map(|f| f.trim_start_matches("-C").strip_prefix("target-cpu="))
        .unwrap_or("generic")
        .to_string();
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-changed=build.rs");
}
