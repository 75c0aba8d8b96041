//! C12: parallel chunked-transfer pipeline — block-codec throughput on a
//! 16 MiB payload, sweeping container block size × pool width, against
//! the legacy single-blob codec as the single-core baseline.
//!
//! The acceptance bar for the pipeline (ISSUE 4): at 4 threads the
//! compressed path must beat the single-thread chunked path by ≥2×, and
//! the single-thread chunked path must stay within 5% of the legacy
//! whole-blob codec.

use devharness::bench::{BenchmarkId, Harness, Throughput};
use devharness::Pool;
use wireproto::transfer::{decode_blocks, encode_blocks};
use wireproto::TransferOptions;

const PAYLOAD: usize = 16 * 1024 * 1024;
const PASSWORD: &str = "monetdb";
const TRANSFER_ID: u64 = 42;

/// 16 MiB of realistic column bytes: long runs with periodic noise, so
/// LZ gets a real (but not degenerate) compression ratio.
fn payload() -> Vec<u8> {
    let mut rng = devharness::Rng::new(0xC12);
    (0..PAYLOAD)
        .map(|i| {
            if i % 64 == 0 {
                rng.u8()
            } else {
                (i / 32) as u8
            }
        })
        .collect()
}

/// The legacy v0 single-blob codec, inlined from the wire path it
/// replaced: whole-payload LZ, then plaintext checksum + ChaCha20 under
/// one nonce.
mod legacy {
    use codecs::{chacha20, kdf, lz};

    const SALT: &[u8] = b"devudf-transfer-v1";

    pub fn encode(data: &[u8], encrypt: bool, password: &str, transfer_id: u64) -> Vec<u8> {
        let mut blob = lz::compress(data);
        if encrypt {
            let tag = codecs::fnv1a_32(&blob);
            blob.extend_from_slice(&tag.to_le_bytes());
            let key = kdf::derive_key(password, SALT);
            let nonce = kdf::derive_block_nonce(transfer_id, 0);
            chacha20::ChaCha20::new(&key, &nonce, 1).apply(&mut blob);
        }
        blob
    }

    pub fn decode(payload: &[u8], encrypt: bool, password: &str, transfer_id: u64) -> Vec<u8> {
        let mut blob = payload.to_vec();
        if encrypt {
            let key = kdf::derive_key(password, SALT);
            let nonce = kdf::derive_block_nonce(transfer_id, 0);
            chacha20::ChaCha20::new(&key, &nonce, 1).apply(&mut blob);
            let tag = blob.split_off(blob.len() - 4);
            assert_eq!(
                u32::from_le_bytes(tag.try_into().unwrap()),
                codecs::fnv1a_32(&blob)
            );
        }
        lz::decompress(&blob).unwrap()
    }
}

fn bench_transfer_parallel(h: &mut Harness) {
    let mut group = h.benchmark_group("transfer_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(PAYLOAD as u64));
    let data = payload();

    // Legacy single-blob baseline (by construction single-threaded).
    for (label, encrypt) in [("legacy-c", false), ("legacy-ce", true)] {
        let encoded = legacy::encode(&data, encrypt, PASSWORD, TRANSFER_ID);
        group.bench_with_input(
            BenchmarkId::new(format!("encode-{label}"), 1),
            &data,
            |b, d| b.iter(|| legacy::encode(d, encrypt, PASSWORD, TRANSFER_ID)),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("decode-{label}"), 1),
            &encoded,
            |b, e| b.iter(|| legacy::decode(e, encrypt, PASSWORD, TRANSFER_ID)),
        );
    }

    // Chunked container: block size × pool width, compress-only (the
    // headline "compressed" path) and compress+encrypt.
    for threads in [1usize, 2, 4, 8] {
        let pool = Pool::new(threads);
        for block in [64 * 1024usize, 256 * 1024, 1024 * 1024] {
            for (tag, encrypt) in [("c", false), ("ce", true)] {
                let options = TransferOptions {
                    compress: true,
                    encrypt,
                    ..Default::default()
                }
                .with_block_size(block);
                let label = format!("encode-{tag}-{}k", block / 1024);
                group.bench_with_input(BenchmarkId::new(label, threads), &data, |b, d| {
                    b.iter(|| encode_blocks(&pool, d, &options, PASSWORD, TRANSFER_ID))
                });
                let encoded = encode_blocks(&pool, &data, &options, PASSWORD, TRANSFER_ID);
                let label = format!("decode-{tag}-{}k", block / 1024);
                group.bench_with_input(BenchmarkId::new(label, threads), &encoded, |b, e| {
                    b.iter(|| decode_blocks(&pool, e, &options, PASSWORD, TRANSFER_ID).unwrap())
                });
            }
        }
    }
    group.finish();
}

fn main() {
    let mut h = Harness::new("transfer_parallel");
    bench_transfer_parallel(&mut h);
    h.finish();
}
