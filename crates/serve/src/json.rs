//! A minimal, dependency-free JSON codec for the serve API.
//!
//! The workspace builds offline (no `serde`), and the serve protocol only
//! needs a small, strict subset of JSON: objects with string keys,
//! arrays, strings, finite numbers, booleans and null. The parser is a
//! plain recursive-descent over bytes with a depth limit; the serializer
//! emits numbers through `f64`'s `Display`, which prints the shortest
//! decimal that round-trips — this is what makes served estimates
//! *bit-identical* to offline `twig estimate` values after the client
//! parses them back.
//!
//! There is one grammar. It lays a document out as a `Tape`: a flat,
//! preorder list of nodes that refer to the input by byte range, plus
//! one buffer holding the text of the strings that had escapes. A tape
//! is reusable — parsing clears it and keeps its capacity — so
//! `/estimate` parses every body into its reactor's tape and reads it
//! through a borrowed `View` without allocating. [`Json::parse`]
//! parses into a per-thread tape and builds the owned [`Json`] from it
//! with every string and container allocated once, at its exact size.
//!
//! Each string is scanned once. A string without escapes is a range of
//! the input; one with escapes is decoded into the tape's buffer while
//! it is scanned. Copies go by runs: a run ends at `"`, `\` or a raw
//! control byte, all ASCII, so both of its ends are char boundaries of
//! the `&str` input and no character is validated twice.
//!
//! The writers (`write_str`, `write_num`, `write_digits`) append to
//! a `String` or a byte buffer alike. `/estimate` writes its response
//! with them straight into a reused buffer, and [`Json::render`] is the
//! same writers walking a value, so both produce the same bytes.

use std::cell::RefCell;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also used to serialize non-finite floats, which JSON
    /// cannot represent).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus a static message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where the error was detected.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting beyond this depth is rejected (stack-overflow guard: the
/// parser is recursive and the input is attacker-controlled).
const MAX_DEPTH: usize = 64;

/// Capacity a thread's tape keeps between [`Json::parse`] calls (nodes,
/// and bytes of decoded text); a tape one large document grew past it
/// is released.
const KEEP_CAPACITY: usize = 4096;

thread_local! {
    static TAPE: RefCell<Tape> = RefCell::new(Tape::default());
}

impl Json {
    /// Parses `text` as a single JSON value (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        TAPE.with(|cell| match cell.try_borrow_mut() {
            Ok(mut tape) => {
                let value = tape.parse(text).map(View::to_json);
                if tape.nodes.capacity() > KEEP_CAPACITY
                    || tape.unescaped.capacity() > KEEP_CAPACITY
                {
                    *tape = Tape::default();
                }
                value
            }
            // Re-entered on this thread: parse on a fresh tape.
            Err(_) => Tape::default().parse(text).map(View::to_json),
        })
    }

    /// Object member lookup; `None` for missing keys and non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor: a string value.
    #[must_use]
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    /// Renders the value as compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(rendered_len_guess(self));
        render_into(self, &mut out);
        out
    }
}

/// Rendered bytes a number is guessed to take: enough for the shortest
/// round-trip form of a typical estimate.
const NUM_LEN_GUESS: usize = 24;

/// About the rendered length of `value`, so `render` usually allocates
/// once: numbers count [`NUM_LEN_GUESS`] bytes and escapes one byte.
fn rendered_len_guess(value: &Json) -> usize {
    match value {
        Json::Null | Json::Bool(true) => 4,
        Json::Bool(false) => 5,
        Json::Num(_) => NUM_LEN_GUESS,
        Json::Str(s) => s.len() + 2,
        Json::Arr(items) => {
            items.iter().map(|item| rendered_len_guess(item) + 1).sum::<usize>() + 2
        }
        Json::Obj(members) => {
            members
                .iter()
                .map(|(key, member)| key.len() + 4 + rendered_len_guess(member))
                .sum::<usize>()
                + 2
        }
    }
}

/// Where rendered JSON goes: a `String`, or the byte buffer a response
/// is written into.
pub(crate) trait Out {
    /// Appends `text`.
    fn put(&mut self, text: &str);
}

impl Out for String {
    fn put(&mut self, text: &str) {
        self.push_str(text);
    }
}

impl Out for Vec<u8> {
    fn put(&mut self, text: &str) {
        self.extend_from_slice(text.as_bytes());
    }
}

/// `fmt` machinery writing through an [`Out`] (no intermediate string).
struct Fmt<'o, O: Out>(&'o mut O);

impl<O: Out> fmt::Write for Fmt<'_, O> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.0.put(text);
        Ok(())
    }
}

fn render_into<O: Out>(value: &Json, out: &mut O) {
    match value {
        Json::Null => out.put("null"),
        Json::Bool(true) => out.put("true"),
        Json::Bool(false) => out.put("false"),
        Json::Num(n) => write_num(out, *n),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.put("[");
            for (index, item) in items.iter().enumerate() {
                if index > 0 {
                    out.put(",");
                }
                render_into(item, out);
            }
            out.put("]");
        }
        Json::Obj(members) => {
            out.put("{");
            for (index, (key, member)) in members.iter().enumerate() {
                if index > 0 {
                    out.put(",");
                }
                write_str(out, key);
                out.put(":");
                render_into(member, out);
            }
            out.put("}");
        }
    }
}

/// Appends `n` as `Json::Num(n)` renders: the shortest decimal that
/// round-trips (`Display` never switches to exponent form), or `null`
/// when `n` is not finite.
pub(crate) fn write_num<O: Out>(out: &mut O, n: f64) {
    if n.is_finite() {
        // Writing through `Fmt` cannot fail.
        let _ = write!(Fmt(out), "{n}");
    } else {
        out.put("null");
    }
}

/// Appends the decimal digits of `value`.
pub(crate) fn write_digits<O: Out>(out: &mut O, mut value: u64) {
    // Filled from the right; the zeros left of the last digit written
    // are trimmed (twenty digits hold `u64::MAX`).
    let mut digits = [b'0'; 20];
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    let text = std::str::from_utf8(&digits).unwrap_or_default().trim_start_matches('0');
    out.put(if text.is_empty() { "0" } else { text });
}

/// Bytes a JSON string must escape: `"`, `\` and control bytes. All are
/// ASCII, so a run of other bytes between two of them starts and ends on
/// a char boundary.
fn must_escape(byte: u8) -> bool {
    byte == b'"' || byte == b'\\' || byte < 0x20
}

/// Appends `s` as a JSON string literal.
pub(crate) fn write_str<O: Out>(out: &mut O, s: &str) {
    out.put("\"");
    // `str::get` is called by path so the call-graph analyzers do not
    // read it as `Json::get`.
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        if !must_escape(byte) {
            continue;
        }
        out.put(str::get(s, run..at).unwrap_or_default());
        match byte {
            b'"' => out.put("\\\""),
            b'\\' => out.put("\\\\"),
            b'\n' => out.put("\\n"),
            b'\r' => out.put("\\r"),
            b'\t' => out.put("\\t"),
            // Writing through `Fmt` cannot fail.
            _ => {
                let _ = write!(Fmt(out), "\\u{byte:04x}");
            }
        }
        run = at + 1;
    }
    out.put(str::get(s, run..).unwrap_or_default());
    out.put("\"");
}

/// One value of a [`Tape`], in preorder.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    Null,
    Bool(bool),
    Num(f64),
    /// A string: bytes `start..end` of the input, or of the tape's
    /// unescaped text when the literal had escapes.
    Str {
        start: usize,
        end: usize,
        escaped: bool,
    },
    /// An array of `len` items; its descendants are the nodes before
    /// `end`.
    Arr {
        len: usize,
        end: usize,
    },
    /// An object of `len` members, each a key node then its value;
    /// its descendants are the nodes before `end`.
    Obj {
        len: usize,
        end: usize,
    },
}

/// A parsed document, laid out flat and reusable across parses (see the
/// module docs). Nodes refer to the input by byte range, so a tape holds
/// no borrow between parses; a [`View`] pairs it with its input again.
#[derive(Debug, Default)]
pub(crate) struct Tape {
    nodes: Vec<Node>,
    /// Decoded text of the strings that had escapes, back to back.
    unescaped: String,
}

impl Tape {
    /// Parses `text` as a single JSON value (trailing whitespace allowed,
    /// trailing garbage rejected) over this tape's buffers, and returns
    /// a view of the value.
    pub(crate) fn parse<'t>(&'t mut self, text: &'t str) -> Result<View<'t>, JsonError> {
        self.nodes.clear();
        self.unescaped.clear();
        let mut parser = Parser { text, bytes: text.as_bytes(), at: 0, tape: self };
        parser.skip_ws();
        parser.value(0)?;
        parser.skip_ws();
        if parser.at != parser.bytes.len() {
            return Err(parser.err("trailing characters after value"));
        }
        Ok(View { tape: self, text, node: 0 })
    }

    /// The node after `node` and all its descendants.
    fn skip(&self, node: usize) -> usize {
        match self.nodes.get(node) {
            Some(Node::Arr { end, .. } | Node::Obj { end, .. }) => *end,
            _ => node + 1,
        }
    }
}

/// One value of a parsed [`Tape`], borrowed together with its input.
#[derive(Debug, Clone, Copy)]
pub(crate) struct View<'t> {
    tape: &'t Tape,
    text: &'t str,
    node: usize,
}

impl<'t> View<'t> {
    fn at(self, node: usize) -> View<'t> {
        View { node, ..self }
    }

    fn node(self) -> Option<Node> {
        self.tape.nodes.get(self.node).copied()
    }

    /// The string payload, if this is a string.
    pub(crate) fn as_str(self) -> Option<&'t str> {
        match self.node()? {
            Node::Str { start, end, escaped: false } => str::get(self.text, start..end),
            Node::Str { start, end, escaped: true } => str::get(&self.tape.unescaped, start..end),
            _ => None,
        }
    }

    /// The first member named `key`, if this is an object.
    pub(crate) fn member(self, key: &str) -> Option<View<'t>> {
        let Node::Obj { end, .. } = self.node()? else { return None };
        let mut node = self.node + 1;
        while node < end {
            let value = node + 1;
            if self.at(node).as_str() == Some(key) {
                return Some(self.at(value));
            }
            node = self.tape.skip(value);
        }
        None
    }

    /// The items, if this is an array.
    pub(crate) fn items(self) -> Option<Items<'t>> {
        match self.node()? {
            Node::Arr { len, .. } => Some(Items { first: self.at(self.node + 1), left: len }),
            _ => None,
        }
    }

    /// An owned copy of the value: every string and container is
    /// allocated once, at its exact size.
    fn to_json(self) -> Json {
        match self.node() {
            None | Some(Node::Null) => Json::Null,
            Some(Node::Bool(value)) => Json::Bool(value),
            Some(Node::Num(value)) => Json::Num(value),
            Some(Node::Str { .. }) => Json::Str(self.as_str().unwrap_or_default().to_owned()),
            Some(Node::Arr { .. }) => match self.items() {
                Some(items) => Json::Arr(items.map(View::to_json).collect()),
                None => Json::Arr(Vec::new()),
            },
            Some(Node::Obj { len, .. }) => {
                let mut members = Vec::with_capacity(len);
                let mut key = self.at(self.node + 1);
                for _ in 0..len {
                    let value = key.at(key.node + 1);
                    members.push((key.as_str().unwrap_or_default().to_owned(), value.to_json()));
                    key = key.at(self.tape.skip(value.node));
                }
                Json::Obj(members)
            }
        }
    }
}

/// The items of an array [`View`], in order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Items<'t> {
    first: View<'t>,
    left: usize,
}

impl<'t> Items<'t> {
    /// A one-item sequence of `view` itself.
    pub(crate) fn single(view: View<'t>) -> Items<'t> {
        Items { first: view, left: 1 }
    }
}

impl<'t> Iterator for Items<'t> {
    type Item = View<'t>;

    fn next(&mut self) -> Option<View<'t>> {
        self.left = self.left.checked_sub(1)?;
        let item = self.first;
        self.first = item.at(item.tape.skip(item.node));
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Items<'_> {}

/// The grammar: recursive descent over `text`, appending nodes to
/// `tape`.
struct Parser<'s, 'p> {
    text: &'s str,
    bytes: &'s [u8],
    at: usize,
    tape: &'p mut Tape,
}

impl Parser<'_, '_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError { at: self.at, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, expected: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Node) -> Result<Node, JsonError> {
        let end = self.at + literal.len();
        if self.bytes.get(self.at..end) == Some(literal.as_bytes()) {
            self.at = end;
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let node = match self.peek() {
            Some(b'{') => return self.object(depth),
            Some(b'[') => return self.array(depth),
            Some(b'"') => self.string()?,
            Some(b't') => self.eat_literal("true", Node::Bool(true))?,
            Some(b'f') => self.eat_literal("false", Node::Bool(false))?,
            Some(b'n') => self.eat_literal("null", Node::Null)?,
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        };
        self.tape.nodes.push(node);
        Ok(())
    }

    /// Pushes a container's node, to be completed by [`Parser::close`].
    fn open(&mut self, node: Node) -> usize {
        self.tape.nodes.push(node);
        self.tape.nodes.len() - 1
    }

    /// Completes the container node at `at` with its size and extent.
    fn close(&mut self, at: usize, len: usize) {
        let end = self.tape.nodes.len();
        if let Some(Node::Arr { len: size, end: extent } | Node::Obj { len: size, end: extent }) =
            self.tape.nodes.get_mut(at)
        {
            (*size, *extent) = (len, end);
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), JsonError> {
        self.eat(b'{', "expected '{'")?;
        let at = self.open(Node::Obj { len: 0, end: 0 });
        let mut len = 0;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            self.close(at, len);
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.tape.nodes.push(key);
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            self.value(depth + 1)?;
            len += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    self.close(at, len);
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), JsonError> {
        self.eat(b'[', "expected '['")?;
        let at = self.open(Node::Arr { len: 0, end: 0 });
        let mut len = 0;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            self.close(at, len);
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value(depth + 1)?;
            len += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    self.close(at, len);
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Moves the cursor past the run of bytes that need no unescaping
    /// and returns where the run started.
    fn run(&mut self) -> usize {
        let run = self.at;
        let rest = self.bytes.get(run..).unwrap_or_default();
        self.at += rest.iter().position(|&byte| must_escape(byte)).unwrap_or(rest.len());
        run
    }

    fn string(&mut self) -> Result<Node, JsonError> {
        self.eat(b'"', "expected string")?;
        let start = self.run();
        if self.peek() == Some(b'"') {
            let end = self.at;
            self.at += 1;
            return Ok(Node::Str { start, end, escaped: false });
        }
        // Escapes: decode into the tape's buffer, run by run. A run
        // starts after an ASCII byte and ends at an escaped byte or the
        // end of input, so it is a valid `&str` slice.
        let decoded = self.tape.unescaped.len();
        let mut run = start;
        loop {
            self.tape.unescaped.push_str(str::get(self.text, run..self.at).unwrap_or_default());
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    let end = self.tape.unescaped.len();
                    return Ok(Node::Str { start: decoded, end, escaped: true });
                }
                Some(b'\\') => {
                    self.at += 1;
                    let c = self.escape()?;
                    self.tape.unescaped.push(c);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
            run = self.run();
        }
    }

    /// Decodes the escape whose backslash is just behind the cursor and
    /// moves the cursor past it.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'u') => {
                self.at += 1;
                return self.unicode_escape();
            }
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            _ => return Err(self.err("invalid escape")),
        };
        self.at += 1;
        Ok(c)
    }

    /// Parses the 4 hex digits after `\u` (and a following low surrogate
    /// when needed); `self.at` points at the first hex digit on entry and
    /// one past the escape on successful exit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) {
            // High surrogate: must be followed by \uDC00..DFFF.
            if self.bytes.get(self.at) == Some(&b'\\') && self.bytes.get(self.at + 1) == Some(&b'u')
            {
                self.at += 2;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.err("invalid low surrogate"));
                }
                let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.err("invalid code point"));
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..0xE000).contains(&high) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(high).ok_or_else(|| self.err("invalid code point"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid unicode escape")),
            };
            code = code * 16 + digit;
            self.at += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Node, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let digits_start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.at == digits_start {
            return Err(self.err("expected digits"));
        }
        // RFC 8259 §6: an integer part is `0` or starts with 1–9.
        if self.bytes.get(digits_start) == Some(&b'0') && self.at > digits_start + 1 {
            self.at = digits_start + 1;
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            let frac_start = self.at;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
            if self.at == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            let exp_start = self.at;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
            if self.at == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = str::get(self.text, start..self.at).ok_or_else(|| self.err("invalid number"))?;
        let value: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if value.is_finite() {
            Ok(Node::Num(value))
        } else {
            Err(self.err("number out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_util::SplitMix64;

    #[test]
    fn parses_the_protocol_subset() {
        let value = Json::parse(
            r#"{"summary":"default","queries":["a(b(\"x\"))","c"],"batch":2.5,"ok":true,"nil":null}"#,
        )
        .unwrap();
        assert_eq!(value.get("summary").unwrap().as_str(), Some("default"));
        let queries = value.get("queries").unwrap().as_array().unwrap();
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0].as_str(), Some(r#"a(b("x"))"#));
        assert_eq!(value.get("batch").unwrap().as_f64(), Some(2.5));
        assert_eq!(value.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(value.get("nil"), Some(&Json::Null));
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn roundtrips_numbers_bit_exactly() {
        for n in [0.0, 1.5, -2.25, 1.0 / 3.0, 1e-300, 123_456_789.123_456_79, f64::MIN_POSITIVE] {
            let rendered = Json::Num(n).render();
            let back = Json::parse(&rendered).unwrap();
            assert_eq!(back.as_f64().map(f64::to_bits), Some(n.to_bits()), "{rendered}");
        }
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn escapes_roundtrip() {
        let original = "quote \" backslash \\ newline \n tab \t unicode ☃ control \u{1}";
        let rendered = Json::str(original).render();
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(original));
        // Standard escape forms parse too.
        let parsed = Json::parse(r#""\u2603 \ud83d\ude00 \/""#).unwrap();
        assert_eq!(parsed.as_str(), Some("☃ 😀 /"));
        // Every escape class, byte for byte: control bytes without a
        // short form become `\u` and four lowercase hex digits, and
        // everything else is copied as it is.
        assert_eq!(
            Json::str("a\"b\\c\nd\re\tf\u{0}\u{8}\u{1f}\u{7f}é☃😀/").render(),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000\\u0008\\u001f\u{7f}é☃😀/\"",
        );
    }

    /// Text pieces for the seeded codec sweeps: ASCII runs, every escape
    /// class, control bytes, and 2-, 3- and 4-byte UTF-8.
    const PIECES: &[&str] = &[
        "a",
        "twig",
        "book(author(",
        " ",
        "\"",
        "\\",
        "/",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{8}",
        "\u{c}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "ß",
        "☃",
        "中",
        "\u{ffff}",
        "😀",
        "𝄞",
    ];

    fn random_text(rng: &mut SplitMix64) -> String {
        (0..rng.next_below(24))
            .map(|_| PIECES[rng.next_below(PIECES.len() as u64) as usize])
            .collect()
    }

    /// `text` as a JSON string literal that picks, per character, between
    /// the raw character (where JSON allows it), its short escape and
    /// `\u` escapes (a surrogate pair above U+FFFF) in either hex case.
    fn random_literal(text: &str, rng: &mut SplitMix64) -> String {
        let mut out = String::from("\"");
        for c in text.chars() {
            let short = match c {
                '"' => "\\\"",
                '\\' => "\\\\",
                '/' => "\\/",
                '\u{8}' => "\\b",
                '\u{c}' => "\\f",
                '\n' => "\\n",
                '\r' => "\\r",
                '\t' => "\\t",
                _ => "",
            };
            match rng.next_below(3) {
                0 if c >= ' ' && c != '"' && c != '\\' => out.push(c),
                1 if !short.is_empty() => out.push_str(short),
                _ => {
                    for unit in c.encode_utf16(&mut [0u16; 2]) {
                        if rng.next_below(2) == 0 {
                            out.push_str(&format!("\\u{unit:04x}"));
                        } else {
                            out.push_str(&format!("\\u{unit:04X}"));
                        }
                    }
                }
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn seeded_strings_roundtrip_through_every_copy_path() {
        let mut rng = SplitMix64::new(0x7769_6773);
        for _ in 0..2000 {
            let text = random_text(&mut rng);
            let value = Json::Str(text.clone());
            assert_eq!(Json::parse(&value.render()), Ok(value.clone()), "{text:?}");
            let literal = random_literal(&text, &mut rng);
            assert_eq!(Json::parse(&literal), Ok(value.clone()), "{literal}");
            // As an object key and an array item too.
            let nested = Json::Obj(vec![(text.clone(), Json::Arr(vec![value, Json::Num(0.5)]))]);
            assert_eq!(Json::parse(&nested.render()), Ok(nested), "{text:?}");
        }
    }

    #[test]
    fn every_proper_prefix_of_a_string_is_an_error() {
        let mut rng = SplitMix64::new(0x7072_6566);
        for _ in 0..300 {
            let text = random_text(&mut rng);
            for literal in [Json::Str(text.clone()).render(), random_literal(&text, &mut rng)] {
                for cut in 0..literal.len() {
                    if let Some(prefix) = literal.get(..cut) {
                        assert!(Json::parse(prefix).is_err(), "accepted {prefix:?}");
                    }
                }
            }
        }
    }

    /// Inputs the parser rejects, each with the offset and message of its
    /// error.
    const HOSTILE: &[(&str, usize, &str)] = &[
        ("", 0, "unexpected end of input"),
        ("{", 1, "expected string"),
        ("}", 0, "unexpected character"),
        ("[", 1, "unexpected end of input"),
        ("]", 0, "unexpected character"),
        ("{\"a\"}", 4, "expected ':' after object key"),
        ("{\"a\":}", 5, "unexpected character"),
        ("[1,]", 3, "unexpected character"),
        ("{,}", 1, "expected string"),
        ("nul", 0, "invalid literal"),
        ("tru", 0, "invalid literal"),
        ("\"unterminated", 13, "unterminated string"),
        ("\"\\q\"", 2, "invalid escape"),
        ("\"\\u12\"", 5, "invalid unicode escape"),
        ("\"\\ud800\"", 7, "lone high surrogate"),
        ("\"\\ud800\\u0041\"", 13, "invalid low surrogate"),
        ("\"\\udc00\"", 7, "lone low surrogate"),
        ("\"ab\u{1}\"", 3, "raw control character in string"),
        ("\"☃\\", 5, "invalid escape"),
        ("\"é\u{1f}", 3, "raw control character in string"),
        ("1.", 2, "expected fraction digits"),
        (".5", 0, "unexpected character"),
        ("1e", 2, "expected exponent digits"),
        ("-", 1, "expected digits"),
        ("1 2", 2, "trailing characters after value"),
        ("{\"a\":1}x", 7, "trailing characters after value"),
        ("1e999", 5, "number out of range"),
        ("\u{1}", 0, "unexpected character"),
        ("\"\u{1}\"", 1, "raw control character in string"),
    ];

    #[test]
    fn hostile_inputs_are_errors_not_panics() {
        for bad in HOSTILE.iter().map(|&(bad, _, _)| bad).chain(["01", "-01", "00", "[01]"]) {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // RFC 8259 §6 forbids leading zeros, not zeros.
        for (good, value) in [("0", 0.0), ("-0", -0.0), ("0.5", 0.5), ("0e1", 0.0)] {
            let parsed = Json::parse(good).map(|number| number.as_f64().map(f64::to_bits));
            assert_eq!(parsed, Ok(Some(f64::to_bits(value))), "{good:?}");
        }
        // Depth bomb is rejected, not a stack overflow.
        let bomb = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn hostile_input_errors_keep_their_offset_and_message() {
        for &(bad, at, message) in HOSTILE {
            assert_eq!(Json::parse(bad), Err(JsonError { at, message }), "{bad:?}");
        }
        let bomb = "[".repeat(10_000) + &"]".repeat(10_000);
        let deepest = JsonError { at: MAX_DEPTH + 1, message: "nesting too deep" };
        assert_eq!(Json::parse(&bomb), Err(deepest));
    }

    #[test]
    fn a_reused_tape_views_what_parse_builds() {
        let mut rng = SplitMix64::new(0x7461_7065);
        let mut tape = Tape::default();
        for _ in 0..500 {
            let texts: Vec<String> =
                (0..rng.next_below(5)).map(|_| random_text(&mut rng)).collect();
            let queries = Json::Arr(texts.iter().map(|text| Json::Str(text.clone())).collect());
            let name = random_text(&mut rng);
            let document = Json::Obj(vec![
                ("summary".into(), Json::Str(name.clone())),
                ("n".into(), Json::Arr(vec![Json::Num(1.5), Json::Obj(vec![]), Json::Null])),
                ("queries".into(), queries),
                // A later duplicate never shadows the first member.
                ("summary".into(), Json::str("shadowed")),
            ]);
            let literal = random_literal(&name, &mut rng);
            let rendered =
                document.render().replacen(&Json::Str(name.clone()).render(), &literal, 1);
            assert_eq!(Json::parse(&rendered), Ok(document.clone()), "{rendered}");
            let root = tape.parse(&rendered).unwrap();
            assert_eq!(root.member("summary").and_then(View::as_str), Some(name.as_str()));
            assert_eq!(root.member("missing").map(View::as_str), None);
            assert_eq!(root.member("n").and_then(View::items).map(|items| items.len()), Some(3));
            let items = root.member("queries").and_then(View::items).unwrap();
            assert_eq!(items.len(), texts.len());
            let viewed: Vec<&str> = items.map(|item| item.as_str().unwrap()).collect();
            assert_eq!(viewed, texts);
            assert_eq!(root.as_str(), None);
            assert!(root.items().is_none());
        }
    }

    #[test]
    fn renders_compact_objects() {
        let value = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("b".into(), Json::Bool(false)),
        ]);
        assert_eq!(value.render(), r#"{"a":[1,null],"b":false}"#);
    }
}
