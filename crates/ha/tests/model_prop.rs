//! Golden-model property tests: every design's word-level implementation
//! is checked against an independent Rust reference model on random
//! transaction sequences, with random response back-pressure.
//!
//! This is the designs' own correctness net (distinct from the QED checks,
//! which never see a functional specification): if one of these fails, the
//! *design library* is wrong, not the verification method.
//!
//! Driven by the workspace's deterministic splitmix64 PRNG: every design
//! runs 40 seeded cases, and a failing case number reproduces exactly.

use gqed_ha::designs::{
    accum, alu, crc32, dma, fir, histogram, kvstore, matvec, movavg, relu, vecadd,
};
use gqed_ha::Driver;
use gqed_logic::rng::SplitMix64;

const STALLS: [u32; 3] = [0, 1, 5];
const CASES: u64 = 40;

/// Runs `CASES` seeded cases of one golden-model comparison: each case
/// draws its response back-pressure from [`STALLS`] and passes the case
/// number, that stall and the stream to `case`.
fn for_each_case(seed: u64, mut case: impl FnMut(u64, u32, &mut SplitMix64)) {
    let mut rng = SplitMix64::new(seed);
    for i in 0..CASES {
        let stall = STALLS[rng.below(3) as usize];
        case(i, stall, &mut rng);
    }
}

/// A sequence of `lo..hi` random items.
fn gen_vec<T>(
    rng: &mut SplitMix64,
    lo: u64,
    hi: u64,
    mut item: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    let n = lo + rng.below(hi - lo);
    (0..n).map(|_| item(rng)).collect()
}

fn byte(rng: &mut SplitMix64) -> u8 {
    rng.next_u64() as u8
}

fn below(rng: &mut SplitMix64, bound: u64) -> u128 {
    u128::from(rng.below(bound))
}

#[test]
fn accum_matches_model() {
    for_each_case(0xACC, |case, stall, rng| {
        let ops = gen_vec(rng, 1, 20, |r| (below(r, 3), byte(r)));
        let d = accum::build(&accum::Params::default(), None);
        let mut drv = Driver::new(&d).with_stall(stall);
        let mut acc: u8 = 0;
        for (op, data) in ops {
            let res = drv.txn(&[op, u128::from(data)]).unwrap();
            let expect = match op {
                accum::OP_ACC => {
                    acc = acc.wrapping_add(data);
                    acc
                }
                accum::OP_CLR => {
                    acc = 0;
                    0
                }
                _ => acc,
            };
            assert_eq!(res[0], u128::from(expect), "case {case}");
        }
    });
}

#[test]
fn crc32_matches_model() {
    for_each_case(0xC4C, |case, stall, rng| {
        let bytes = gen_vec(rng, 1, 16, byte);
        let p = crc32::Params::default();
        let d = crc32::build(&p, None);
        let mut drv = Driver::new(&d).with_stall(stall);
        assert_eq!(
            drv.txn(&[crc32::OP_INIT, 0]).unwrap()[0],
            crc32::INIT_VAL,
            "case {case}"
        );
        let mut model = crc32::INIT_VAL;
        for b in bytes {
            model = crc32::crc_step_model(model, u128::from(b), p.width);
            let res = drv.txn(&[crc32::OP_FEED, u128::from(b)]).unwrap()[0];
            assert_eq!(res, model, "case {case}");
        }
        assert_eq!(
            drv.txn(&[crc32::OP_READ, 0]).unwrap()[0],
            model,
            "case {case}"
        );
    });
}

#[test]
fn kvstore_matches_model() {
    for_each_case(0x5707E, |case, stall, rng| {
        let ops = gen_vec(rng, 1, 24, |r| (below(r, 3), below(r, 16), byte(r)));
        let d = kvstore::build(&kvstore::Params::default(), None);
        let mut drv = Driver::new(&d).with_stall(stall);
        // Reference: direct-mapped table of (tag, value, valid).
        let mut table: [(u128, u128, bool); 8] = [(0, 0, false); 8];
        for (op, key, value) in ops {
            let slot = (key & 7) as usize;
            let (tag, val, valid) = table[slot];
            let hit = valid && tag == key;
            let res = drv.txn(&[op, key, u128::from(value)]).unwrap();
            let (exp_found, exp_val) = if hit { (1, val) } else { (0, 0) };
            assert_eq!(res[0], exp_found, "case {case}: op {op} key {key}");
            assert_eq!(res[1], exp_val, "case {case}: op {op} key {key}");
            match op {
                kvstore::OP_PUT => table[slot] = (key, u128::from(value), true),
                kvstore::OP_DEL => table[slot].2 = false,
                _ => {}
            }
        }
    });
}

#[test]
fn dma_matches_model() {
    for_each_case(0xD4A, |case, stall, rng| {
        let ops = gen_vec(rng, 1, 16, |r| (below(r, 4), byte(r)));
        let p = dma::Params::default();
        let d = dma::build(&p, None);
        let mut drv = Driver::new(&d).with_stall(stall);
        let (mut stride, mut seed, mut mode) = (0u128, 0u128, 0u128);
        for (op, data) in ops {
            let data = u128::from(data);
            let res = drv.txn(&[op, data]).unwrap()[0];
            match op {
                dma::OP_CFG_STRIDE => {
                    assert_eq!(res, stride, "case {case}");
                    stride = data;
                }
                dma::OP_CFG_SEED => {
                    assert_eq!(res, seed, "case {case}");
                    seed = data;
                }
                dma::OP_CFG_MODE => {
                    assert_eq!(res, mode, "case {case}");
                    mode = data & 1;
                }
                _ => {
                    let len = (data & 3) + 1;
                    let expect = dma::xfer_model(stride, seed, mode, len, p.width);
                    assert_eq!(res, expect, "case {case}");
                }
            }
        }
    });
}

#[test]
fn histogram_matches_model() {
    for_each_case(0x4157, |case, stall, rng| {
        let ops = gen_vec(rng, 1, 24, |r| (below(r, 2), below(r, 8)));
        let d = histogram::build(&histogram::Params::default(), None);
        let mut drv = Driver::new(&d).with_stall(stall);
        let mut bins = [0u128; 8];
        for (op, bin) in ops {
            let res = drv.txn(&[op, bin]).unwrap()[0];
            let b = bin as usize;
            if op == histogram::OP_ADD {
                bins[b] = (bins[b] + 1) & 0xff;
                assert_eq!(res, bins[b], "case {case}");
            } else {
                assert_eq!(res, bins[b], "case {case}");
                bins[b] = 0;
            }
        }
    });
}

#[test]
fn movavg_matches_model() {
    for_each_case(0x40A6, |case, stall, rng| {
        let samples = gen_vec(rng, 1, 16, byte);
        let d = movavg::build(&movavg::Params::default(), None);
        let mut drv = Driver::new(&d).with_stall(stall);
        let mut window: Vec<u128> = Vec::new();
        for s in samples {
            window.insert(0, u128::from(s));
            window.truncate(movavg::TAPS);
            let expect: u128 = window.iter().sum();
            assert_eq!(drv.txn(&[u128::from(s)]).unwrap()[0], expect, "case {case}");
        }
    });
}

#[test]
fn vecadd_matches_model() {
    for_each_case(0xADD, |case, stall, rng| {
        let pairs = gen_vec(rng, 1, 12, |r| (byte(r), byte(r)));
        let d = vecadd::build(&vecadd::Params::default(), None);
        let mut drv = Driver::new(&d).with_stall(stall);
        for (a, b) in pairs {
            let expect = u128::from(a) + u128::from(b);
            let res = drv.txn(&[u128::from(a), u128::from(b)]).unwrap()[0];
            assert_eq!(res, expect, "case {case}");
        }
    });
}

#[test]
fn alu_matches_model() {
    for_each_case(0xA10, |case, stall, rng| {
        let ops = gen_vec(rng, 1, 16, |r| (below(r, 4), byte(r), byte(r)));
        let d = alu::build(&alu::Params::default(), None);
        let mut drv = Driver::new(&d).with_stall(stall);
        for (op, a, b) in ops {
            let expect = match op {
                alu::OP_ADD => a.wrapping_add(b),
                alu::OP_SUB => a.wrapping_sub(b),
                alu::OP_AND => a & b,
                _ => a ^ b,
            };
            let res = drv.txn(&[op, u128::from(a), u128::from(b)]).unwrap()[0];
            assert_eq!(res, u128::from(expect), "case {case}");
        }
    });
}

#[test]
fn relu_matches_model() {
    for_each_case(0x4E1, |case, stall, rng| {
        let xs = gen_vec(rng, 1, 16, byte);
        let d = relu::build(&relu::Params::default(), None);
        let mut drv = Driver::new(&d).with_stall(stall);
        for x in xs {
            let expect = if (x as i8) < 0 { 0 } else { x };
            let res = drv.txn(&[u128::from(x)]).unwrap()[0];
            assert_eq!(res, u128::from(expect), "case {case}");
        }
    });
}

#[test]
fn matvec_matches_model() {
    for_each_case(0x3A7, |case, stall, rng| {
        let half = |r: &mut SplitMix64| u128::from(r.next_u64() as u16);
        let pairs = gen_vec(rng, 1, 10, |r| (half(r), half(r)));
        let p = matvec::Params::default();
        let d = matvec::build(&p, None);
        let mut drv = Driver::new(&d).with_stall(stall);
        for (a, b) in pairs {
            let expect = matvec::dot_model(a, b, p.width);
            assert_eq!(drv.txn(&[a, b]).unwrap()[0], expect, "case {case}");
        }
    });
}

#[test]
fn fir_matches_model() {
    for_each_case(0xF14, |case, stall, rng| {
        let ops = gen_vec(rng, 1, 20, |r| (below(r, 2), below(r, 4), below(r, 16)));
        let p = fir::Params::default();
        let d = fir::build(&p, None);
        let mut drv = Driver::new(&d).with_stall(stall);
        let mut coefs = [0u128; fir::TAPS];
        let mut window = vec![0u128; fir::TAPS];
        for (op, idx, data) in ops {
            let res = drv.txn(&[op, idx, data]).unwrap()[0];
            if op == fir::OP_LOAD {
                assert_eq!(res, coefs[idx as usize], "case {case}");
                coefs[idx as usize] = data;
            } else {
                window.insert(0, data);
                window.truncate(fir::TAPS);
                assert_eq!(res, fir::fir_model(&coefs, &window, p.width), "case {case}");
            }
        }
    });
}
