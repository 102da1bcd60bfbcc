//! Pins the functional interpreter's output: an FNV digest of every
//! `DynInst` it emits (seq, sidx, pc, instruction, effective address,
//! branch outcome) and of its final architectural state (every integer
//! and FP register plus the memory's `content_hash`). It covers every
//! benchmark and kernel at smoke scale and a 2M-instruction prefix of
//! the paper-scale gcc analogue, whose 16.5k-instruction text is the
//! largest program in the suite. The constants were recorded before
//! the interpreter executed from a predecoded table; any change to
//! instruction semantics, operand decoding, control flow or memory
//! moves them.

use dca::prog::{DynInst, Interp};
use dca::workloads::{build, kernels, Scale, Workload, NAMES};
use dca_isa::{Inst, Reg};

fn fnv64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn reg_byte(r: Option<Reg>) -> u8 {
    r.map_or(0xff, |r| r.flat_index() as u8)
}

fn digest_inst(h: &mut u64, inst: &Inst) {
    fnv64(h, inst.op.mnemonic().as_bytes());
    fnv64(
        h,
        &[reg_byte(inst.dst), reg_byte(inst.src1), reg_byte(inst.src2)],
    );
    fnv64(h, &inst.imm.to_le_bytes());
    fnv64(h, &inst.target.map_or(u32::MAX, |l| l.0).to_le_bytes());
}

fn digest_dyn(h: &mut u64, d: &DynInst) {
    fnv64(h, &d.seq.to_le_bytes());
    fnv64(h, &d.sidx.to_le_bytes());
    fnv64(h, &d.pc.to_le_bytes());
    digest_inst(h, &d.inst);
    match d.ea {
        Some(ea) => {
            fnv64(h, &[1]);
            fnv64(h, &ea.to_le_bytes());
        }
        None => fnv64(h, &[0]),
    }
    fnv64(h, &[d.taken.map_or(2, u8::from)]);
}

/// `(instructions, stream digest, final-state digest)` of running `w`
/// for at most `fuel` instructions.
fn digests(w: &Workload, fuel: u64) -> (u64, u64, u64) {
    let mut it = Interp::new(&w.program, w.memory.clone()).with_fuel(fuel);
    let mut stream: u64 = 0xcbf2_9ce4_8422_2325;
    for d in it.by_ref() {
        digest_dyn(&mut stream, &d);
    }
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    for n in 0..32 {
        fnv64(&mut state, &it.int_reg(n).to_le_bytes());
        fnv64(&mut state, &it.fp_reg(n).to_bits().to_le_bytes());
    }
    fnv64(&mut state, &it.memory().content_hash().to_le_bytes());
    fnv64(&mut state, &[u8::from(it.halted())]);
    (it.seq(), stream, state)
}

/// `(name, (instructions, stream digest, final-state digest))`: every
/// benchmark at smoke scale, then every kernel.
#[rustfmt::skip]
const SMOKE: [(&str, (u64, u64, u64)); 14] = [
    ("go", (35_267, 0x6123_f5df_8b07_9dd7, 0xddae_0b48_0110_b27f)),
    ("li", (114_923, 0xa285_d885_aa22_0b21, 0x9b93_9a19_8574_b02e)),
    ("gcc", (11_360, 0x6bd8_0968_8686_a240, 0x01ab_396c_b0bd_5b79)),
    ("compress", (32_274, 0x2bfb_3531_914d_1a50, 0x04c9_fac1_fac3_4752)),
    ("m88ksim", (35_885, 0x93eb_496f_2c9e_c7fa, 0xebe1_c72d_f12a_3f45)),
    ("vortex", (26_519, 0x71b1_0472_4f55_34c9, 0x414f_5fdf_fe45_7881)),
    ("ijpeg", (172_064, 0x4df7_e694_85ac_7407, 0x0b46_e46a_5b56_e332)),
    ("perl", (20_271, 0xb92c_2c9c_dde8_5696, 0xabba_77df_fc7b_f103)),
    ("serial-chain", (160_001, 0xae7c_455c_3495_3285, 0x6d32_15d1_7026_2a31)),
    ("parallel-chains", (160_001, 0x94b6_9ef9_fa92_82c5, 0x17ec_b532_d882_7b9e)),
    ("pointer-chase", (245_762, 0x23ce_09d6_b2aa_a32a, 0x308c_c9eb_6b12_17dc)),
    ("twin-walks", (262_147, 0x2b2e_12a1_e424_9738, 0xa81a_e52c_ec7a_055e)),
    ("branchy", (556_836, 0x5910_7a06_693b_1c76, 0x5639_1fa7_a58b_c56c)),
    ("streaming", (589_849, 0x6842_bc2e_0bd1_c1a4, 0xb0af_4b59_df2c_082b)),
];

#[test]
fn smoke_streams_are_pinned() {
    let workloads = NAMES.iter().map(|name| build(name, Scale::Smoke)).chain(
        kernels::NAMES
            .iter()
            .map(|name| kernels::by_name(name).expect("kernel exists")),
    );
    let got: Vec<(&str, (u64, u64, u64))> =
        workloads.map(|w| (w.name, digests(&w, u64::MAX))).collect();
    assert_eq!(got, SMOKE, "stream digests");
}

#[test]
fn gcc_paper_prefix_is_pinned() {
    let d = digests(&build("gcc", Scale::Paper), 2_000_000);
    assert_eq!(
        d,
        (2_000_000, 0xc181_5ad5_77aa_d360, 0xf7dc_fc09_c007_fcf9),
        "{d:#x?}"
    );
}
