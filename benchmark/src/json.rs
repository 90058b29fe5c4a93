//! The benchmark's own JSON: an escaper for the frames it sends and a reader
//! for the frames it gets back, so that no type of the measured workspace is
//! on the timed path. The reader keeps scalar fields of the top-level object
//! and folds a `rows` array into hashes as it scans, without building rows.

use crate::rng::mix;

/// Appends `text` as a JSON string literal.
pub fn push_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A scalar (or skipped) field of a reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    Number(f64),
    Text(String),
    Bool(bool),
    Null,
    /// An array or object other than `rows`: scanned past, not kept.
    Nested,
}

/// Hash of a block of rows, computed the same way by the reply reader (from
/// label text on the wire) and by the oracle (from dictionary labels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowsDigest {
    pub rows: u64,
    pub cells: u64,
    /// Depends on row order: checks canonically cut (limited) answers.
    pub ordered: u64,
    /// Sum of spread row hashes: checks unlimited answers, whose row order
    /// the protocol does not fix.
    pub unordered: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental form of [`RowsDigest`]: feed cell bytes, close cells and rows.
#[derive(Debug, Default)]
pub struct RowsHasher {
    digest: RowsDigest,
    row: u64,
}

impl RowsHasher {
    pub fn new() -> Self {
        RowsHasher {
            digest: RowsDigest::default(),
            row: FNV_OFFSET,
        }
    }

    pub fn cell_byte(&mut self, byte: u8) {
        self.row = (self.row ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }

    pub fn cell_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.cell_byte(b);
        }
    }

    pub fn end_cell(&mut self) {
        // 0x1f never occurs in a label, so cell boundaries stay unambiguous.
        self.cell_byte(0x1f);
        self.digest.cells += 1;
    }

    pub fn end_row(&mut self) {
        let spread = mix(self.row);
        self.digest.rows += 1;
        self.digest.unordered = self.digest.unordered.wrapping_add(spread);
        self.digest.ordered = mix(self.digest.ordered ^ spread);
        self.row = FNV_OFFSET;
    }

    pub fn finish(self) -> RowsDigest {
        self.digest
    }
}

/// One decoded reply frame: the scalar fields of the top-level object (in
/// order of appearance) and the digest of its `rows` array, if it had one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reply {
    pub fields: Vec<(String, Scalar)>,
    pub rows: Option<RowsDigest>,
}

impl Reply {
    pub fn text(&self, key: &str) -> Option<&str> {
        self.fields.iter().find_map(|(k, v)| match v {
            Scalar::Text(t) if k == key => Some(t.as_str()),
            _ => None,
        })
    }

    pub fn number(&self, key: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            Scalar::Number(n) if k == key => Some(*n as u64),
            _ => None,
        })
    }

    pub fn flag(&self, key: &str) -> bool {
        self.fields
            .iter()
            .any(|(k, v)| k == key && *v == Scalar::Bool(true))
    }

    pub fn kind(&self) -> &str {
        self.text("type").unwrap_or("")
    }
}

/// Why a reply could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed(pub String);

impl std::fmt::Display for Malformed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed reply: {}", self.0)
    }
}

/// Reads one reply payload. Objects nested under the top level (the `stats`
/// counters, an update's `delta`) are flattened into `fields` under their
/// own key names, which is all the benchmark needs of them.
pub fn read_reply(payload: &[u8]) -> Result<Reply, Malformed> {
    let mut scan = Scanner {
        bytes: payload,
        pos: 0,
    };
    let mut reply = Reply::default();
    scan.skip_space();
    scan.object(&mut reply, 0)?;
    scan.skip_space();
    if scan.pos != payload.len() {
        return Err(scan.fail("trailing bytes"));
    }
    Ok(reply)
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scanner<'_> {
    fn fail(&self, what: &str) -> Malformed {
        Malformed(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_space(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Malformed> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", byte as char)))
        }
    }

    fn object(&mut self, reply: &mut Reply, depth: usize) -> Result<(), Malformed> {
        if depth > 8 {
            return Err(self.fail("nesting too deep"));
        }
        self.expect(b'{')?;
        self.skip_space();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_space();
            let key = self.string()?;
            self.skip_space();
            self.expect(b':')?;
            self.skip_space();
            match self.peek() {
                Some(b'{') => self.object(reply, depth + 1)?,
                Some(b'[') if key == "rows" && reply.rows.is_none() => {
                    reply.rows = Some(self.rows()?);
                }
                Some(b'[') => {
                    self.skip_array(depth + 1)?;
                    reply.fields.push((key, Scalar::Nested));
                }
                _ => {
                    let value = self.scalar()?;
                    reply.fields.push((key, value));
                }
            }
            self.skip_space();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    fn skip_array(&mut self, depth: usize) -> Result<(), Malformed> {
        if depth > 8 {
            return Err(self.fail("nesting too deep"));
        }
        self.expect(b'[')?;
        self.skip_space();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_space();
            match self.peek() {
                Some(b'[') => self.skip_array(depth + 1)?,
                Some(b'{') => self.object(&mut Reply::default(), depth + 1)?,
                _ => {
                    self.scalar()?;
                }
            }
            self.skip_space();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    /// `[[cell, ...], ...]` with string cells, folded into a digest.
    fn rows(&mut self) -> Result<RowsDigest, Malformed> {
        let mut hasher = RowsHasher::new();
        self.expect(b'[')?;
        self.skip_space();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(hasher.finish());
        }
        loop {
            self.skip_space();
            self.expect(b'[')?;
            self.skip_space();
            if self.peek() == Some(b']') {
                self.pos += 1;
            } else {
                loop {
                    self.skip_space();
                    self.hashed_string(&mut hasher)?;
                    hasher.end_cell();
                    self.skip_space();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.fail("expected ',' or ']' in a row")),
                    }
                }
            }
            hasher.end_row();
            self.skip_space();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(hasher.finish());
                }
                _ => return Err(self.fail("expected ',' or ']' after a row")),
            }
        }
    }

    /// Scans a string literal, feeding its decoded bytes to `hasher`. The
    /// common case (no escape) hashes the raw slice in one pass.
    fn hashed_string(&mut self, hasher: &mut RowsHasher) -> Result<(), Malformed> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    hasher.cell_bytes(&self.bytes[start..self.pos]);
                    self.pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    // Rare: fall back to the allocating decoder from here.
                    hasher.cell_bytes(&self.bytes[start..self.pos]);
                    let rest = self.string_tail()?;
                    hasher.cell_bytes(rest.as_bytes());
                    return Ok(());
                }
                _ => self.pos += 1,
            }
        }
        Err(self.fail("unterminated string"))
    }

    fn string(&mut self) -> Result<String, Malformed> {
        self.expect(b'"')?;
        self.string_tail()
    }

    /// Decodes the remainder of a string literal (opening quote consumed).
    fn string_tail(&mut self) -> Result<String, Malformed> {
        let mut out = Vec::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.fail("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.fail("string is not UTF-8"))
                }
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.fail("unterminated escape"));
                    };
                    self.pos += 1;
                    let decoded = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.fail("unknown escape")),
                    };
                    out.extend_from_slice(decoded.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Malformed> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.fail("bad \\u escape"))?;
        self.pos += 4;
        Ok(digits)
    }

    fn unicode_escape(&mut self) -> Result<char, Malformed> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.fail("lone surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.fail("bad surrogate pair"));
            }
            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.fail("bad code point"))
    }

    fn scalar(&mut self) -> Result<Scalar, Malformed> {
        match self.peek() {
            Some(b'"') => self.string().map(Scalar::Text),
            Some(b't') => self.literal(b"true", Scalar::Bool(true)),
            Some(b'f') => self.literal(b"false", Scalar::Bool(false)),
            Some(b'n') => self.literal(b"null", Scalar::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Scalar::Number)
                    .ok_or_else(|| self.fail("bad number"))
            }
            _ => Err(self.fail("expected a value")),
        }
    }

    fn literal(&mut self, word: &[u8], value: Scalar) -> Result<Scalar, Malformed> {
        if self.bytes.get(self.pos..self.pos + word.len()) == Some(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail("bad literal"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(rows: &[&[&str]]) -> RowsDigest {
        let mut h = RowsHasher::new();
        for row in rows {
            for cell in *row {
                h.cell_bytes(cell.as_bytes());
                h.end_cell();
            }
            h.end_row();
        }
        h.finish()
    }

    #[test]
    fn reads_a_rows_reply() {
        let payload = br#"{"v":1,"type":"rows","id":7,"epoch":3,"columns":2,"total":4129,
            "rows":[["alice","bob"],["alice","car\"ol"]],"truncated":true,"prefix_served":false}"#;
        let reply = read_reply(payload).unwrap();
        assert_eq!(reply.kind(), "rows");
        assert_eq!(reply.number("id"), Some(7));
        assert_eq!(reply.number("total"), Some(4129));
        assert!(reply.flag("truncated"));
        assert!(!reply.flag("prefix_served"));
        let expected = digest_of(&[&["alice", "bob"], &["alice", "car\"ol"]]);
        assert_eq!(reply.rows, Some(expected));
        assert_eq!(expected.rows, 2);
        assert_eq!(expected.cells, 4);
    }

    #[test]
    fn digests_tell_order_and_content_apart() {
        let ab = digest_of(&[&["a", "b"], &["c", "d"]]);
        let ba = digest_of(&[&["c", "d"], &["a", "b"]]);
        assert_eq!(ab.unordered, ba.unordered);
        assert_ne!(ab.ordered, ba.ordered);
        // Cell boundaries matter: ("ab","") is not ("a","b").
        assert_ne!(digest_of(&[&["ab", ""]]), digest_of(&[&["a", "b"]]));
        assert_ne!(
            digest_of(&[&["a", "b"]]).unordered,
            digest_of(&[&["a", "c"]]).unordered
        );
    }

    #[test]
    fn flattens_nested_objects_and_skips_arrays() {
        let payload = br#"{"type":"stats","id":2,"stats":{"epoch":0,"epochs":[0],"cache_hits":12,"cache_misses":3}}"#;
        let reply = read_reply(payload).unwrap();
        assert_eq!(reply.number("cache_hits"), Some(12));
        assert_eq!(reply.number("cache_misses"), Some(3));
        assert_eq!(reply.rows, None);
    }

    #[test]
    fn escapes_round_trip_and_garbage_is_refused() {
        let mut out = String::new();
        push_string(&mut out, "a\"b\\c\nd\u{1}");
        let payload = format!("{{\"message\":{out}}}");
        let reply = read_reply(payload.as_bytes()).unwrap();
        assert_eq!(reply.text("message"), Some("a\"b\\c\nd\u{1}"));
        assert!(read_reply(b"{\"a\":1} x").is_err());
        assert!(read_reply(b"{\"a\":[1,}").is_err());
        assert!(read_reply(b"{\"rows\":[[\"a\"").is_err());
    }
}
