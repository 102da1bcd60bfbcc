//! Pins the continuously-warmed snapshots byte for byte: the encoded
//! `UarchSnapshot` of every checkpoint of a `ContinuousWarmer`
//! fast-forward over `compress` at smoke scale, digested into one
//! constant. The constant was recorded before the cache, page-table
//! and warm-hook fast paths went in; any change to what the warmer
//! observes, to cache replacement or to the snapshot codec moves it.

use dca::prog::{fast_forward_with, Memory};
use dca::sim::{ContinuousWarmer, SimConfig};
use dca::workloads::{build, Scale};

const PERIOD: u64 = 4_000;

fn fnv64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn warmed_snapshots_of_compress_are_pinned() {
    let w = build("compress", Scale::Smoke);
    let mut hook = ContinuousWarmer::new(&SimConfig::default());
    let ff = fast_forward_with(&w.program, Memory::clone(&w.memory), PERIOD, u64::MAX, &mut hook);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in &ff.checkpoints {
        let blob = c.uarch().expect("a warmed checkpoint carries a snapshot");
        fnv64(&mut h, &c.seq().to_le_bytes());
        fnv64(&mut h, &(blob.len() as u64).to_le_bytes());
        fnv64(&mut h, blob);
    }
    assert_eq!((ff.checkpoints.len(), ff.total_insts), (9, 32_274), "checkpoint grid");
    assert_eq!(h, 0x6a54_6a47_9162_cbd7, "warmed snapshot digest {h:#018x}");
}
