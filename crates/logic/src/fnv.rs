//! FNV-1a 64-bit hashing: the workspace's one stable, dependency-free
//! hash. It fingerprints built models, derives verdict-store keys and
//! mixes mutant seeds, so its values must never change across platforms
//! or releases. Not cryptographic: every input is a trusted local one.

/// FNV-1a 64-bit offset basis: the hash of the empty string.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a 64-bit hash of a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Extends an FNV-1a 64-bit hash with more bytes: equal to hashing the
/// concatenation, so key components fold in without intermediate
/// strings.
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // Extend is equivalent to hashing the concatenation.
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }
}
