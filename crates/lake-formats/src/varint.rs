//! LEB128-style variable-length integers and length-prefixed primitives,
//! shared by the binary encodings (`columnar`, `rowenc`) and codecs.

use lake_core::{LakeError, Result};

/// Append `v` as an unsigned LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an unsigned varint from `buf[*pos..]`, advancing `pos`.
pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(LakeError::parse("truncated varint"));
        };
        *pos += 1;
        if shift >= 64 {
            return Err(LakeError::parse("varint overflow"));
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zig-zag encode a signed integer so small magnitudes stay short.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Read a zig-zag encoded signed integer.
pub fn get_i64(buf: &[u8], pos: &mut usize) -> Result<i64> {
    let z = get_u64(buf, pos)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string, borrowed from `buf`.
pub(crate) fn get_str_ref<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a str> {
    let len = get_u64(buf, pos)? as usize;
    let bytes = pos
        .checked_add(len)
        .and_then(|end| buf.get(*pos..end))
        .ok_or_else(|| LakeError::parse("truncated string"))?;
    let s = std::str::from_utf8(bytes).map_err(|_| LakeError::parse("invalid utf-8"))?;
    *pos += len;
    Ok(s)
}

/// Read a length-prefixed UTF-8 string.
pub fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    get_str_ref(buf, pos).map(str::to_string)
}

/// Append an `f64` as fixed 8 little-endian bytes.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a fixed 8-byte `f64`.
pub fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
    let bytes = pos
        .checked_add(8)
        .and_then(|end| buf.get(*pos..end))
        .ok_or_else(|| LakeError::parse("truncated f64"))?;
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    *pos += 8;
    Ok(f64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn i64_zigzag_roundtrip() {
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_i64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_i64(&buf, &mut pos).unwrap(), v);
        }
        // Small negatives stay small.
        let mut buf = Vec::new();
        put_i64(&mut buf, -2);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn str_and_f64_roundtrip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo");
        put_f64(&mut buf, -2.5);
        let mut pos = 0;
        assert_eq!(get_str(&buf, &mut pos).unwrap(), "héllo");
        assert_eq!(get_f64(&buf, &mut pos).unwrap(), -2.5);
    }

    #[test]
    fn truncation_errors() {
        let mut pos = 0;
        assert!(get_u64(&[0x80], &mut pos).is_err());
        let mut buf = Vec::new();
        put_str(&mut buf, "abc");
        buf.pop();
        let mut pos = 0;
        assert!(get_str(&buf, &mut pos).is_err());
        let mut pos = 0;
        assert!(get_f64(&[0u8; 4], &mut pos).is_err());
    }
}
