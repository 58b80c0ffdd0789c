//! Compression codecs: run-length encoding and an LZ77-style codec.
//!
//! Stand-ins for the Snappy/Gzip codecs HDFS-based lakes use (§4.1).
//! `Lz77` follows the classic sliding-window scheme with a hash-chain match
//! finder: fast, byte-oriented, greedy — the same design family as Snappy.

use lake_core::{LakeError, Result};

use crate::varint::{get_u64, put_u64};

/// Available codecs, tagged in the compressed header so readers
/// self-describe (like HDFS file codecs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// No compression.
    None,
    /// Byte run-length encoding — wins on long runs (sorted/columnar data).
    Rle,
    /// LZ77 with a 32 KiB window — general-purpose.
    Lz77,
}

impl Codec {
    fn tag(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Rle => 1,
            Codec::Lz77 => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Codec> {
        match t {
            0 => Ok(Codec::None),
            1 => Ok(Codec::Rle),
            2 => Ok(Codec::Lz77),
            _ => Err(LakeError::parse(format!("unknown codec tag {t}"))),
        }
    }
}

/// Compress `data` with `codec`; output embeds the codec tag and original
/// length, so [`decompress`] needs no out-of-band information.
pub fn compress(data: &[u8], codec: Codec) -> Vec<u8> {
    let mut out = vec![codec.tag()];
    put_u64(&mut out, data.len() as u64);
    match codec {
        Codec::None => out.extend_from_slice(data),
        Codec::Rle => rle_encode(data, &mut out),
        Codec::Lz77 => lz77_encode(data, &mut out),
    }
    out
}

/// Decompress a buffer produced by [`compress`].
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>> {
    let Some((&tag, rest)) = buf.split_first() else {
        return Err(LakeError::parse("empty compressed buffer"));
    };
    let codec = Codec::from_tag(tag)?;
    let mut pos = 0;
    let orig_len = get_u64(rest, &mut pos)? as usize;
    let body = &rest[pos..];
    let out = match codec {
        Codec::None => body.to_vec(),
        Codec::Rle => rle_decode(body, orig_len)?,
        Codec::Lz77 => lz77_decode(body, orig_len)?,
    };
    if out.len() != orig_len {
        return Err(LakeError::parse(format!(
            "decompressed {} bytes, expected {orig_len}",
            out.len()
        )));
    }
    Ok(out)
}

// ---------------------------------------------------------------- RLE

fn rle_encode(data: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == b && run < 0x7fff_ffff {
            run += 1;
        }
        put_u64(out, run as u64);
        out.push(b);
        i += run;
    }
}

fn rle_decode(body: &[u8], cap: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(cap);
    let mut pos = 0;
    while pos < body.len() {
        let run = get_u64(body, &mut pos)? as usize;
        let Some(&b) = body.get(pos) else {
            return Err(LakeError::parse("truncated rle run"));
        };
        pos += 1;
        if out.len() + run > cap {
            return Err(LakeError::parse("rle output exceeds declared size"));
        }
        out.resize(out.len() + run, b);
    }
    Ok(out)
}

// ---------------------------------------------------------------- LZ77

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 258;
const HASH_BITS: usize = 15;

fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Token stream: `0x00 len <literal bytes>` or `0x01 dist len`.
fn lz77_encode(data: &[u8], out: &mut Vec<u8>) {
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len()];
    let mut literals: Vec<u8> = Vec::new();
    let mut i = 0;

    let flush_literals = |literals: &mut Vec<u8>, out: &mut Vec<u8>| {
        if !literals.is_empty() {
            out.push(0);
            put_u64(out, literals.len() as u64);
            out.extend_from_slice(literals);
            literals.clear();
        }
    };

    while i < data.len() {
        let mut best_len = 0;
        let mut best_dist = 0;
        if i + MIN_MATCH <= data.len() {
            let h = hash4(data, i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i.saturating_sub(cand) <= WINDOW && chain < 32 {
                let max = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < max && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l >= MIN_MATCH && l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == max {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            flush_literals(&mut literals, out);
            out.push(1);
            put_u64(out, best_dist as u64);
            put_u64(out, best_len as u64);
            // Insert hash entries for skipped positions (cheap, improves later matches).
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            for (j, p) in prev.iter_mut().enumerate().take(end).skip(i + 1) {
                let h = hash4(data, j);
                *p = head[h];
                head[h] = j;
            }
            i += best_len;
        } else {
            literals.push(data[i]);
            i += 1;
        }
    }
    flush_literals(&mut literals, out);
}

fn lz77_decode(body: &[u8], cap: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(cap);
    let mut pos = 0;
    while pos < body.len() {
        let tag = body[pos];
        pos += 1;
        match tag {
            0 => {
                let len = get_u64(body, &mut pos)? as usize;
                let end = pos
                    .checked_add(len)
                    .filter(|&e| e <= body.len())
                    .ok_or_else(|| LakeError::parse("truncated literal run"))?;
                out.extend_from_slice(&body[pos..end]);
                pos = end;
            }
            1 => {
                let dist = get_u64(body, &mut pos)? as usize;
                let len = get_u64(body, &mut pos)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(LakeError::parse("lz77 back-reference out of range"));
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            t => return Err(LakeError::parse(format!("bad lz77 token {t}"))),
        }
        if out.len() > cap {
            return Err(LakeError::parse("lz77 output exceeds declared size"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    fn roundtrip(data: &[u8], codec: Codec) {
        let c = compress(data, codec);
        assert_eq!(decompress(&c).unwrap(), data, "codec {codec:?}");
    }

    #[test]
    fn roundtrips_all_codecs() {
        let samples: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"aaaaaaaaaaaaaaaaaaaa".to_vec(),
            b"the quick brown fox jumps over the lazy dog. the quick brown fox!".to_vec(),
            (0u8..=255).cycle().take(10_000).collect(),
        ];
        for s in &samples {
            for codec in [Codec::None, Codec::Rle, Codec::Lz77] {
                roundtrip(s, codec);
            }
        }
    }

    #[test]
    fn rle_wins_on_runs() {
        let data = vec![7u8; 100_000];
        let c = compress(&data, Codec::Rle);
        assert!(c.len() < 32, "rle should collapse runs, got {}", c.len());
    }

    #[test]
    fn lz77_compresses_repetitive_text() {
        let data: Vec<u8> = b"customer_id,city,price\n".iter().copied().cycle().take(50_000).collect();
        let c = compress(&data, Codec::Lz77);
        assert!(
            c.len() < data.len() / 5,
            "repetitive text should compress ≥5x, got {} of {}",
            c.len(),
            data.len()
        );
        roundtrip(&data, Codec::Lz77);
    }

    #[test]
    fn random_data_roundtrips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let data: Vec<u8> = (0..20_000).map(|_| rng.random()).collect();
        for codec in [Codec::Rle, Codec::Lz77] {
            roundtrip(&data, codec);
        }
    }

    #[test]
    fn corrupted_input_is_rejected_not_panicking() {
        let c = compress(b"hello world hello world hello", Codec::Lz77);
        for cut in [0, 1, c.len() / 2] {
            let _ = decompress(&c[..cut]); // must not panic
        }
        let mut bad = c.clone();
        if bad.len() > 3 {
            bad[2] ^= 0xff;
            let _ = decompress(&bad); // must not panic
        }
        assert!(decompress(&[]).is_err());
        assert!(decompress(&[9, 0]).is_err());
    }

    #[test]
    fn overlapping_back_reference() {
        // "abcabcabc…" forces dist < len copies.
        let data: Vec<u8> = b"abc".iter().copied().cycle().take(999).collect();
        roundtrip(&data, Codec::Lz77);
    }
}
