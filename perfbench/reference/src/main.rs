//! A fixed native loop whose wall time gauges how fast the host runs right
//! now (with the pure-Python loop in `../run.py`).
//!
//! `perfbench_reference ITERS` runs ITERS xorshift draws, each with an
//! `exp`, an `ln` and an update of a cache-resident 4 KiB table, the kind
//! of work the benchmarked commands spend their time on. It prints a
//! checksum so the loop cannot be optimised away.

use std::hint::black_box;

const TABLE_LEN: usize = 1 << 9;

fn main() {
    let iters: u64 = match std::env::args().nth(1).map(|a| a.parse()) {
        Some(Ok(iters)) => iters,
        _ => {
            eprintln!("usage: perfbench_reference ITERS");
            std::process::exit(2)
        }
    };
    let mut table = [0.0f64; TABLE_LEN];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..black_box(iters) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let idx = (x as usize) & (TABLE_LEN - 1);
        let v = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        table[idx] += (-4.0 * v).exp();
        acc += 0.5 * table[idx ^ 1] + (1.0 + v).ln();
    }
    println!("{}", acc + table.iter().sum::<f64>());
}
