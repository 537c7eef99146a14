//! # json
//!
//! The workspace's one JSON module. Every artifact the workspace writes
//! or reads back — campaign `RunRecord`s and summary `Report`s, the
//! campaign manifest, bench baselines and trajectory logs, simlint's fact
//! cache — goes through here, so "what JSON is and how a string is
//! escaped" is decided once:
//!
//! * [`parse`] — a strict RFC 8259 reader returning a [`Value`] tree that
//!   borrows from the input. Number tokens stay as their source text
//!   ([`Value::Number`]), so integers read back exact ([`Value::as_u64`])
//!   and floats bit-exact ([`Value::as_f64`], the same `str::parse` the
//!   writers' shortest-roundtrip `Display` output is built for). Strings
//!   without escapes are borrowed, not copied.
//! * [`string`] — the one string escaper.
//!
//! Strictness is the point, because every reader above is a gate on
//! machine-written input where damage must be heard about:
//!
//! * the number grammar is enforced (`+1`, `.5`, `01`, `1.` and `1e` are
//!   errors), and a number token that overflows `f64` to ±infinity
//!   (`1e999`) is rejected wherever it appears, with its own
//!   [`ErrorKind::NonFinite`];
//! * control characters inside strings, lone surrogate escapes, duplicate
//!   object keys and trailing bytes after the root value are errors;
//! * arrays and objects nest at most 64 deep.
//!
//! The reader is panic-free on arbitrary input: every byte access is
//! checked and every surprise is an [`Error`] carrying its byte offset.
//!
//! Writers build their documents with `format!` in their own fixed key
//! order and layout; they only route strings through [`string`].
//! Escapes are written in RFC 8259's short forms (`\"`, `\\`, `\n`, `\r`,
//! `\t`) and `\u00XX` for every other control character; the reader
//! accepts every escape form, so files written with `\u000a` for a
//! newline still load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`parse`] accepts.
const MAX_DEPTH: usize = 64;

/// One parsed JSON value, borrowing from the input text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number token exactly as written. The reader has checked it
    /// against the RFC 8259 grammar and rejected it if it overflows `f64`.
    Number(&'a str),
    /// A string, borrowed when it contains no escape.
    String(Cow<'a, str>),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object's members in input order; keys are unique.
    Object(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The member `key` of an object; `None` for a missing key or a
    /// non-object.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A non-negative integer token, read exactly from its digits: no
    /// rounding through `f64`, so counters above 2^53 come back intact.
    /// `None` for a fraction, an exponent, a sign, or a value above
    /// `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(token) if token.bytes().all(|b| b.is_ascii_digit()) => token.parse().ok(),
            _ => None,
        }
    }

    /// Any number token as the nearest `f64` (`str::parse`, so a
    /// shortest-roundtrip token written with `{}` reads back bit-exact).
    /// Always finite: the reader rejected tokens that overflow.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members of an object, in input order.
    pub fn as_object(&self) -> Option<&[(Cow<'a, str>, Value<'a>)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The text is not JSON; the message says what the reader expected.
    Syntax(&'static str),
    /// An object repeats a key.
    DuplicateKey,
    /// Arrays and objects nest more than 64 deep.
    TooDeep,
    /// A number token overflows `f64` to ±infinity (e.g. `1e999`).
    NonFinite,
}

impl ErrorKind {
    /// A short description, for callers that map errors onto their own
    /// `&'static str`-carrying error types.
    pub fn message(self) -> &'static str {
        match self {
            ErrorKind::Syntax(what) => what,
            ErrorKind::DuplicateKey => "duplicate object key",
            ErrorKind::TooDeep => "nesting too deep",
            ErrorKind::NonFinite => "number overflows to infinity",
        }
    }
}

/// A rejected input: what went wrong and at which byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub kind: ErrorKind,
    /// Byte offset into the input where it went wrong.
    pub offset: usize,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} at byte {}", self.kind.message(), self.offset)
    }
}

impl std::error::Error for Error {}

/// Parse one JSON document: a single value, optionally surrounded by
/// whitespace, and nothing else.
pub fn parse(text: &str) -> Result<Value<'_>, Error> {
    let mut r = Reader {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = r.value(0)?;
    r.skip_ws();
    if r.pos == r.bytes.len() {
        Ok(value)
    } else {
        Err(r.syntax("trailing characters"))
    }
}

struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn error(&self, kind: ErrorKind) -> Error {
        Error {
            kind,
            offset: self.pos,
        }
    }

    fn syntax(&self, what: &'static str) -> Error {
        self.error(ErrorKind::Syntax(what))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `byte` or fail with `what`.
    fn eat(&mut self, byte: u8, what: &'static str) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(what))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.syntax("expected a value")),
            None => Err(self.syntax("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &'static str, value: Value<'a>) -> Result<Value<'a>, Error> {
        if self.bytes.get(self.pos..self.pos + word.len()) == Some(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.syntax("expected a value"))
        }
    }

    /// Enter one more level of nesting: consume the opening bracket.
    fn open(&mut self, depth: usize) -> Result<(), Error> {
        if depth >= MAX_DEPTH {
            return Err(self.error(ErrorKind::TooDeep));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    fn object(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        self.open(depth)?;
        let mut members: Vec<(Cow<'a, str>, Value<'a>)> = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            if self.peek() != Some(b'"') {
                return Err(self.syntax("expected a string key"));
            }
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(Error {
                    kind: ErrorKind::DuplicateKey,
                    offset: at,
                });
            }
            self.eat(b':', "expected ':' after key")?;
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.syntax("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        self.open(depth)?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.syntax("expected ',' or ']'")),
            }
        }
    }

    /// The text between `start` and the cursor. Both always sit on ASCII
    /// bytes, hence on char boundaries; the checked slice keeps the
    /// reader panic-free regardless.
    fn slice(&self, start: usize) -> Result<&'a str, Error> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| self.syntax("not on a character boundary"))
    }

    /// A string at the cursor (which sits on its opening quote).
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.pos += 1;
        let start = self.pos;
        self.plain_run();
        if self.peek() == Some(b'"') {
            let s = self.slice(start)?;
            self.pos += 1;
            return Ok(Cow::Borrowed(s));
        }
        let mut out = String::from(self.slice(start)?);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(b) if b < 0x20 => return Err(self.syntax("control character in string")),
                Some(_) => {
                    let run = self.pos;
                    self.plain_run();
                    out.push_str(self.slice(run)?);
                }
                None => return Err(self.syntax("unterminated string")),
            }
        }
    }

    /// Advance over bytes that stand for themselves inside a string.
    fn plain_run(&mut self) {
        while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
            self.pos += 1;
        }
    }

    /// One escape sequence; the cursor is just past the backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let high = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&high) {
                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                        return Err(self.syntax("unpaired surrogate escape"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.syntax("unpaired surrogate escape"));
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                let c =
                    char::from_u32(code).ok_or_else(|| self.syntax("unpaired surrogate escape"))?;
                out.push(c);
                return Ok(());
            }
            _ => return Err(self.syntax("invalid escape")),
        };
        self.pos += 1;
        out.push(c);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.syntax("expected four hex digits"))?;
        let mut code = 0;
        for &d in digits {
            let v = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.syntax("expected four hex digits"))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Advance over ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number token: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Value<'a>, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                1
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.syntax("expected a digit")),
        };
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.syntax("expected a digit after '.'"));
            }
        }
        let mut exponent = false;
        if matches!(self.peek(), Some(b'e' | b'E')) {
            exponent = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.syntax("expected a digit in exponent"));
            }
        }
        let token = self.slice(start)?;
        // Below 10^308 a token is finite, so only a token with an
        // exponent or more than 308 integer digits is parsed here; every
        // other number is parsed once, by its accessor.
        if (exponent || int_digits > 308) && !token.parse::<f64>().is_ok_and(f64::is_finite) {
            return Err(Error {
                kind: ErrorKind::NonFinite,
                offset: start,
            });
        }
        Ok(Value::Number(token))
    }
}

/// `s` as a quoted JSON string. `"` and `\` are backslash-escaped,
/// newline, carriage return and tab use their short escapes, every other
/// control character is written `\u00XX`, and everything else (non-ASCII
/// included) is copied as is.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(s.get(run..i).unwrap_or_default());
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(s.get(run..).unwrap_or_default());
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(text: &str) -> ErrorKind {
        parse(text).expect_err(text).kind
    }

    #[test]
    fn parses_every_value_shape() {
        let v = parse(r#" {"a": [true, false, null, 7, -1.5e3, "x"], "b": {}} "#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_bool(), Some(true));
        assert_eq!(a[1].as_bool(), Some(false));
        assert_eq!(a[2], Value::Null);
        assert_eq!(a[3].as_u64(), Some(7));
        assert_eq!(a[4].as_f64(), Some(-1500.0));
        assert_eq!(a[5].as_str(), Some("x"));
        assert_eq!(
            v.get("b").and_then(Value::as_object).map(<[_]>::len),
            Some(0)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(a[0].get("a"), None, "get on a non-object");
        assert_eq!(parse("[]").unwrap(), Value::Array(Vec::new()));
    }

    #[test]
    fn enforces_the_number_grammar() {
        for bad in [
            "+1", ".5", "01", "-01", "1.", "1.e5", "1e", "1e+", "-", "--1", "0x10", "1_000",
        ] {
            assert!(
                matches!(kind(bad), ErrorKind::Syntax(_)),
                "accepted {bad:?}"
            );
        }
        for good in ["0", "-0", "10", "1.25", "1e5", "1E+5", "1e-5", "-0.0e0"] {
            assert_eq!(parse(good), Ok(Value::Number(good)), "{good}");
        }
    }

    #[test]
    fn overflowing_numbers_get_their_own_kind_wherever_they_appear() {
        for bad in [
            "1e999",
            "-1e999",
            "[1, 1e999]",
            "{\"a\": 1E400}",
            "[[2e308]]",
        ] {
            assert_eq!(kind(bad), ErrorKind::NonFinite, "{bad}");
        }
        // A token of more than 308 integer digits is checked too.
        assert_eq!(kind(&"9".repeat(400)), ErrorKind::NonFinite);
        assert!(parse(&"9".repeat(300)).is_ok());
        // Underflow is not overflow, and the largest finite value passes.
        assert_eq!(parse("1e-999").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            parse("1.7976931348623157e308").unwrap().as_f64(),
            Some(f64::MAX)
        );
        assert_eq!(kind("1.7976931348623159e308"), ErrorKind::NonFinite);
    }

    #[test]
    fn integers_literals_and_unicode_escapes() {
        // The cases simlint's fact-cache reader was pinned on: trailing
        // garbage, a float or negative number where an integer is
        // expected, the three literals, and a `\u0041` escape.
        assert!(parse("{\"a\": 1} extra").is_err());
        for not_an_integer in ["{\"a\": 1.5}", "{\"a\": -1}"] {
            let v = parse(not_an_integer).unwrap();
            assert_eq!(v.get("a").and_then(Value::as_u64), None, "{not_an_integer}");
        }
        assert_eq!(
            parse("[true, false, null, 7, \"x\\u0041\"]").unwrap(),
            Value::Array(vec![
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
                Value::Number("7"),
                Value::String(Cow::Owned("xA".to_string())),
            ])
        );
    }

    #[test]
    fn u64_reads_are_exact_and_integer_only() {
        let exact = |t: &str| parse(t).unwrap().as_u64();
        assert_eq!(exact("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(exact("18446744073709551615"), Some(u64::MAX));
        assert_eq!(exact("18446744073709551616"), None, "above u64::MAX");
        assert_eq!(exact("1.5"), None);
        assert_eq!(exact("1e3"), None);
        assert_eq!(exact("-1"), None);
        assert_eq!(exact("-0"), None);
        assert_eq!(parse("\"7\"").unwrap().as_u64(), None);
    }

    #[test]
    fn f64_reads_are_bit_exact() {
        for x in [0.1_f64, 1.0 / 3.0, 5e-324, 1e300, -2.5e-7, 123456789.125] {
            let text = format!("{x}");
            assert_eq!(
                parse(&text).unwrap().as_f64().map(f64::to_bits),
                Some(x.to_bits())
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes_and_truncation() {
        for bad in [
            "{\"a\": 1} extra",
            "[1] [2]",
            "1 2",
            "truex",
            "nul",
            "[1,]",
            "{\"a\":1,}",
            "[",
            "{",
            "\"ab",
            "",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(r#"{"a":1,"b":2,"a":3}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateKey);
        assert_eq!(err.offset, 13);
        // The same key after decoding escapes is still a duplicate.
        assert_eq!(kind(r#"{"a":1,"\u0061":2}"#), ErrorKind::DuplicateKey);
        // Equal keys in sibling objects are fine.
        assert!(parse(r#"[{"a":1},{"a":2}]"#).is_ok());
    }

    #[test]
    fn caps_nesting_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(kind(&nest(MAX_DEPTH + 1)), ErrorKind::TooDeep);
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(kind(&objects), ErrorKind::TooDeep);
        // Far past the cap is an error, not a stack overflow.
        assert_eq!(kind(&nest(100_000)), ErrorKind::TooDeep);
    }

    #[test]
    fn strings_decode_every_escape_and_borrow_when_plain() {
        let v = parse(r#""xA\"\\\/\b\f\n\r\t é 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("xA\"\\/\u{8}\u{c}\n\r\t é 😀"));
        assert!(matches!(
            parse("\"plain ü\"").unwrap(),
            Value::String(Cow::Borrowed("plain ü"))
        ));
        // Both newline escapes in use on disk read the same.
        assert_eq!(parse(r#""a\nb""#), parse(r#""a\u000ab""#));
        for bad in [
            "\"a\nb\"",
            "\"tab\there\"",
            r#""\x""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
        ] {
            assert!(
                matches!(kind(bad), ErrorKind::Syntax(_)),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn escaper_output_reads_back() {
        let nasty = "quote \" backslash \\ nl \n cr \r tab \t bell \u{7} nul \0 del \u{7f} ünï 😀";
        let quoted = string(nasty);
        assert_eq!(
            quoted,
            "\"quote \\\" backslash \\\\ nl \\n cr \\r tab \\t bell \\u0007 nul \\u0000 del \u{7f} ünï 😀\""
        );
        assert_eq!(parse(&quoted).unwrap().as_str(), Some(nasty));
        assert_eq!(string(""), "\"\"");
    }

    #[test]
    fn errors_name_the_byte() {
        let err = parse("[1, ?]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert_eq!(err.to_string(), "expected a value at byte 4");
    }
}
