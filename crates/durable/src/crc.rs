//! CRC-32 (IEEE 802.3, the polynomial used by zip/png/ethernet),
//! table-driven, built at compile time — the frame checksum for both
//! the WAL and snapshot files. Every single-bit error and every burst
//! up to 32 bits is detected, which is exactly the torn-tail and
//! bit-rot failure model the recovery path tolerates.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the state a byte `b` leaves after `k` further zero bytes, which is
/// what lets [`Crc32::update`] fold eight input bytes per step
/// (slicing-by-8) with eight independent lookups.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// The byte-at-a-time fold: the tail of every [`Crc32::update`], and
/// the reference the sliced loop is tested against.
fn bytewise(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Incremental CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh digest.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
            state = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][c[4] as usize]
                ^ TABLES[2][c[5] as usize]
                ^ TABLES[1][c[6] as usize]
                ^ TABLES[0][c[7] as usize];
        }
        self.state = bytewise(state, chunks.remainder());
    }

    /// The finished checksum.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot checksum of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_split() {
        // A fixed xorshift stream: no two windows alike.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4_099)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for len in 0..=data.len() {
            let want = bytewise(0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF;
            assert_eq!(crc32(&data[..len]), want, "one shot, length {len}");
            // Two and three pieces, cut where the 8-byte stride is not.
            let (a, b) = (len / 3, len / 3 + (len * 7 + 5) % (len - len / 3 + 1));
            let mut c = Crc32::new();
            c.update(&data[..a]);
            c.update(&data[a..b]);
            c.update(&data[b..len]);
            assert_eq!(c.finish(), want, "length {len} split at {a} and {b}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"predicate matching".to_vec();
        let want = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut dup = base.clone();
                dup[i] ^= 1 << bit;
                assert_ne!(crc32(&dup), want, "flip at byte {i} bit {bit} undetected");
            }
        }
    }
}
