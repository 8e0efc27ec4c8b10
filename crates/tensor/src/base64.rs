//! Standard padded base64 (RFC 4648 §4), the byte encoding of a
//! [`Matrix`](crate::Matrix)'s checkpoint payload.
//!
//! [`decode`] reads untrusted text: it is told how many bytes to expect,
//! checks the text's length against that before it allocates, and returns an
//! error, never a panic, for any other length, a byte outside the alphabet or
//! misplaced or non-canonical padding.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// `ALPHABET`'s inverse; `INVALID` marks every other byte.
const INVALID: u8 = 0xff;
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The encoded length of `n` bytes, or `None` if it overflows `usize`.
pub(crate) fn encoded_len(n: usize) -> Option<usize> {
    n.div_ceil(3).checked_mul(4)
}

/// Encodes `bytes`, padding the last group with `=`.
pub(crate) fn encode(bytes: &[u8]) -> String {
    let sextet = |group: u32, shift: u32| ALPHABET[(group >> shift & 63) as usize];
    let mut out = Vec::with_capacity(encoded_len(bytes.len()).expect("in-memory buffer"));
    let mut chunks = bytes.chunks_exact(3);
    for c in &mut chunks {
        let group = u32::from(c[0]) << 16 | u32::from(c[1]) << 8 | u32::from(c[2]);
        out.extend_from_slice(&[
            sextet(group, 18),
            sextet(group, 12),
            sextet(group, 6),
            sextet(group, 0),
        ]);
    }
    match *chunks.remainder() {
        [a] => {
            let group = u32::from(a) << 16;
            out.extend_from_slice(&[sextet(group, 18), sextet(group, 12), b'=', b'=']);
        }
        [a, b] => {
            let group = u32::from(a) << 16 | u32::from(b) << 8;
            out.extend_from_slice(&[sextet(group, 18), sextet(group, 12), sextet(group, 6), b'=']);
        }
        _ => {}
    }
    String::from_utf8(out).expect("the alphabet is ASCII")
}

/// Decodes `text`, which must encode exactly `n_bytes` bytes.
pub(crate) fn decode(text: &str, n_bytes: usize) -> Result<Vec<u8>, String> {
    let text = text.as_bytes();
    let want = encoded_len(n_bytes).ok_or("payload size overflows")?;
    if text.len() != want {
        return Err(format!(
            "base64 payload has {} characters, {n_bytes} bytes need {want}",
            text.len()
        ));
    }
    let mut out = Vec::with_capacity(n_bytes);
    for (g, group) in text.chunks_exact(4).enumerate() {
        let last = (g + 1) * 4 == text.len();
        let pad = if last { n_bytes - out.len() } else { 3 };
        let mut bits = 0u32;
        for (i, &c) in group.iter().enumerate() {
            let v = match (i > pad, c) {
                (true, b'=') => 0,
                (true, _) | (false, b'=') => {
                    return Err(format!("bad padding at character {}", g * 4 + i))
                }
                (false, c) => match DECODE[c as usize] {
                    INVALID => {
                        return Err(format!(
                            "byte 0x{c:02x} at character {} is not base64",
                            g * 4 + i
                        ))
                    }
                    v => u32::from(v),
                },
            };
            bits = bits << 6 | v;
        }
        let decoded = bits.to_be_bytes();
        // Bits past the last byte must be zero: one byte string has one
        // encoding.
        if decoded[1 + pad..].iter().any(|&b| b != 0) {
            return Err(format!("bad padding at character {}", g * 4 + pad));
        }
        out.extend_from_slice(&decoded[1..1 + pad]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        for (plain, coded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(plain.as_bytes()), coded);
            assert_eq!(decode(coded, plain.len()).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn every_byte_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        for n in 0..bytes.len() {
            assert_eq!(decode(&encode(&bytes[..n]), n).unwrap(), &bytes[..n]);
        }
    }

    #[test]
    fn rejects_what_it_would_not_write() {
        assert!(decode("Zg==", 4).unwrap_err().contains("characters"));
        assert!(decode("Zg==", 2).unwrap_err().contains("padding"));
        assert!(decode("Zm9v", 2).unwrap_err().contains("padding"));
        assert!(decode("Zg=a", 1).unwrap_err().contains("padding"));
        assert!(
            decode("Zh==", 1).unwrap_err().contains("padding"),
            "non-zero tail bits"
        );
        assert!(decode("Zm9*", 3).unwrap_err().contains("0x2a"));
        assert!(decode("Zm\n9", 3).unwrap_err().contains("not base64"));
        assert!(decode("Zm9v", usize::MAX).is_err());
    }
}
