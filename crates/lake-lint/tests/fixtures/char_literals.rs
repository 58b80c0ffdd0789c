//! Fixture: char and byte-char literals — including quote and brace
//! characters — must not open phantom strings or corrupt brace depth.
//! The forced `partial_cmp` after them proves the scan still sees real
//! code.

pub fn after_chars(v: &[u8], a: f64, b: f64) -> u8 {
    let open = b'{';
    let close = b'}';
    let quote = b'"';
    let tick = '\'';
    let escaped = '\n';
    let lifetime: &'static str = "x";
    let _ = a.partial_cmp(&b).unwrap(); // the one real violation in this file
    v.len() as u8
        + open
        + close
        + quote
        + (tick as u8)
        + (escaped as u8)
        + (lifetime.len() as u8)
}
