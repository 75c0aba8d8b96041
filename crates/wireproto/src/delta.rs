//! Client-side content-addressed block cache for delta extracts.
//!
//! The iterative edit→extract→debug loop (paper §2.2) re-fetches the same
//! UDF inputs over and over; DESIGN §12 makes the repeated case cheap.
//! The client keeps a small MRU store keyed by the **extract
//! fingerprint** — a hash of `(query, udf, options)` — holding, per
//! entry, the dependency epochs the payload was built against, the
//! SHA-256 digest of every plaintext pickle block, and the plaintext
//! pickle itself, once. On the next extract the client sends those
//! epochs and digests in an `ExtractDelta` request; the server answers
//! `NotModified` (epochs still match — zero payload bytes), or ships
//! only the blocks whose digest the client does not hold.
//!
//! Sampled extracts bypass the cache entirely: the server draws a fresh
//! sample per transfer id, so two sampled payloads are never comparable.
//!
//! # Examples
//!
//! ```
//! use wireproto::delta::{fingerprint, BlockCache, CacheEntry};
//! use wireproto::TransferOptions;
//!
//! let mut cache = BlockCache::new(2);
//! let opts = TransferOptions::compressed();
//! let fp = fingerprint("SELECT f(i) FROM t", "f", &opts);
//!
//! // A fresh payload becomes a cache entry: the bytes + a digest per block.
//! let payload = vec![7u8; 10_000];
//! let entry = CacheEntry::from_raw(&payload, 4096, vec![("t".into(), 3)]);
//! assert_eq!(entry.digests.len(), 3); // ceil(10_000 / 4096)
//! cache.insert(fp, entry);
//!
//! // The entry round-trips and holds the original bytes.
//! let entry = cache.get(fp).unwrap();
//! assert_eq!(entry.payload, payload);
//!
//! // A different query fingerprints to a different slot.
//! assert_ne!(fp, fingerprint("SELECT f(j) FROM u", "f", &opts));
//! ```

use std::collections::HashMap;

use crate::transfer::TransferOptions;

/// One cached extract: everything needed to claim blocks in an
/// `ExtractDelta` request and to rebuild the payload afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// `(table name, epoch)` pairs the payload was built from. Empty when
    /// a dependency was volatile — the server then never answers
    /// `NotModified`, but block-level reuse still applies.
    pub epochs: Vec<(String, u64)>,
    /// SHA-256 digest of each `block_size` block of `payload`, in order.
    pub digests: Vec<[u8; 32]>,
    /// The plaintext pickle.
    pub payload: Vec<u8>,
    /// The block grid `digests` was taken on (non-zero).
    pub block_size: usize,
}

impl CacheEntry {
    /// Build an entry from a payload by hashing each `block_size` block.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn from_raw(raw: &[u8], block_size: usize, epochs: Vec<(String, u64)>) -> CacheEntry {
        assert!(block_size > 0, "block_size must be non-zero");
        CacheEntry {
            epochs,
            digests: codecs::sha256::block_digests(raw, block_size),
            payload: raw.to_vec(),
            block_size,
        }
    }

    /// Digest → block lookup for [`crate::transfer::reconstruct_delta`].
    pub fn digest_map(&self) -> HashMap<[u8; 32], &[u8]> {
        self.digests
            .iter()
            .copied()
            .zip(self.payload.chunks(self.block_size))
            .collect()
    }
}

/// Small most-recently-used store of [`CacheEntry`]s, keyed by the
/// extract fingerprint. Same discipline as the process-wide KDF cache:
/// a plain vector ordered by recency, capped at a handful of entries —
/// a debug session iterates on one or two queries, not hundreds.
#[derive(Debug)]
pub struct BlockCache {
    entries: Vec<(u64, CacheEntry)>,
    cap: usize,
}

impl BlockCache {
    /// A cache holding at most `cap` entries (at least one).
    pub fn new(cap: usize) -> BlockCache {
        BlockCache {
            entries: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Look up an entry, marking it most-recently used.
    pub fn get(&mut self, fingerprint: u64) -> Option<&CacheEntry> {
        let i = self.entries.iter().position(|(fp, _)| *fp == fingerprint)?;
        let hit = self.entries.remove(i);
        self.entries.insert(0, hit);
        Some(&self.entries[0].1)
    }

    /// Insert (or replace) an entry, evicting the least-recently used
    /// when over capacity.
    pub fn insert(&mut self, fingerprint: u64, entry: CacheEntry) {
        self.entries.retain(|(fp, _)| *fp != fingerprint);
        self.entries.insert(0, (fingerprint, entry));
        self.entries.truncate(self.cap);
    }
}

/// Fingerprint of an extract request: FNV-1a over the query, the UDF
/// name, and every option that changes the payload bytes. Sampling is
/// deliberately excluded — sampled extracts never reach the cache.
pub fn fingerprint(query: &str, udf: &str, options: &TransferOptions) -> u64 {
    let mut canon = Vec::with_capacity(query.len() + udf.len() + 16);
    canon.extend_from_slice(query.as_bytes());
    canon.push(0);
    canon.extend_from_slice(udf.as_bytes());
    canon.push(0);
    canon.push(options.compress as u8);
    canon.push(options.encrypt as u8);
    canon.extend_from_slice(&(options.effective_block_size() as u64).to_le_bytes());
    codecs::fnv1a_64(&canon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_from_raw_hashes_each_block_of_the_payload() {
        // Non-periodic content so all three blocks are distinct.
        let raw: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let entry = CacheEntry::from_raw(&raw, 4096, vec![("t".into(), 1)]);
        assert_eq!(entry.digests.len(), 3);
        assert_eq!(entry.payload, raw);
        for (block, digest) in raw.chunks(4096).zip(&entry.digests) {
            assert_eq!(codecs::sha256(block), *digest);
        }
        let map = entry.digest_map();
        assert_eq!(map.len(), 3);
        assert_eq!(map[&entry.digests[1]], &raw[4096..8192]);
        assert_eq!(map[&entry.digests[2]].len(), 10_000 - 2 * 4096);
    }

    #[test]
    fn cache_is_mru_with_eviction() {
        let mut cache = BlockCache::new(2);
        let entry = |n: u8| CacheEntry::from_raw(&[n; 100], 64, vec![]);
        cache.insert(1, entry(1));
        cache.insert(2, entry(2));
        // Touch 1 so 2 becomes the eviction victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, entry(3));
        assert_eq!(cache.entries.len(), 2);
        assert!(cache.get(2).is_none(), "LRU entry should have been evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        // Reinsert under an existing key replaces, not duplicates.
        cache.insert(1, entry(9));
        assert_eq!(cache.entries.len(), 2);
        assert_eq!(cache.get(1).unwrap().payload[0], 9);
    }

    #[test]
    fn fingerprint_separates_queries_udfs_and_options() {
        let base = fingerprint("SELECT f(i) FROM t", "f", &TransferOptions::plain());
        assert_eq!(
            base,
            fingerprint("SELECT f(i) FROM t", "f", &TransferOptions::plain())
        );
        assert_ne!(
            base,
            fingerprint("SELECT f(j) FROM t", "f", &TransferOptions::plain())
        );
        assert_ne!(
            base,
            fingerprint("SELECT f(i) FROM t", "g", &TransferOptions::plain())
        );
        assert_ne!(
            base,
            fingerprint("SELECT f(i) FROM t", "f", &TransferOptions::compressed())
        );
        assert_ne!(
            base,
            fingerprint(
                "SELECT f(i) FROM t",
                "f",
                &TransferOptions::plain().with_block_size(1024)
            )
        );
        // The query/udf boundary is framed: ("ab","c") ≠ ("a","bc").
        assert_ne!(
            fingerprint("ab", "c", &TransferOptions::plain()),
            fingerprint("a", "bc", &TransferOptions::plain())
        );
        // Sampling does not enter the fingerprint (sampled extracts
        // bypass the cache before fingerprinting).
        assert_eq!(
            base,
            fingerprint("SELECT f(i) FROM t", "f", &TransferOptions::sampled(10))
        );
    }
}
