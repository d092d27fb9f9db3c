//! One case per recognized taint source, plus the interprocedural
//! summary path: a tainted argument flowing into a callee's sink must
//! be reported at the call site.

/// Entry-point params are tainted by definition (`Cst::from_bytes` is a
/// deserialization boundary).
pub struct Cst;

impl Cst {
    pub fn from_bytes(bytes: &[u8]) -> u8 {
        let count = bytes.len();
        bytes[count - 1] // FLAG: taint-index
    }
}

/// `std::env::var` is operator/attacker input in a served process.
pub fn scale_from_env(table: &[u64]) -> u64 {
    let raw = std::env::var("TWIG_SCALE").unwrap_or_default();
    let scale: usize = raw.parse().unwrap_or(0);
    table[scale] // FLAG: taint-index
}

/// `std::fs::read` contents are untrusted bytes.
pub fn first_record(path: &str) -> u8 {
    let bytes = std::fs::read(path).unwrap_or_default();
    let offset = bytes.len() / 2; // CLEAN
    bytes[offset] // FLAG: taint-index
}

/// Match arms bind the scrutinee's taint to their pattern binders.
pub enum Mode {
    Index(usize),
    Other,
}

fn classify(raw: &str) -> Mode {
    if raw.is_empty() {
        Mode::Other
    } else {
        Mode::Index(raw.len())
    }
}

pub fn dispatch(table: &[u64]) -> u64 {
    let raw = std::env::var("TWIG_MODE").unwrap_or_default();
    match classify(&raw) {
        Mode::Index(i) => table[i], // FLAG: taint-index
        Mode::Other => 0,
    }
}

/// A callee whose sink fires only on tainted arguments: nothing is
/// reported here, but the per-function summary records `param 1 ->
/// taint-index`.
fn pick(values: &[u64], at: usize) -> u64 {
    values[at] // CLEAN
}

/// The interprocedural case: the finding lands on the call site that
/// feeds untrusted input into `pick`'s sink parameter.
pub fn lookup(table: &[u64]) -> u64 {
    let raw = std::env::var("TWIG_AT").unwrap_or_default();
    let at: usize = raw.parse().unwrap_or(0);
    pick(table, at) // FLAG: taint-index
}

/// A reusable parse tape is a deserialization boundary too: the view
/// `tape.parse(body)` returns, and everything read through its
/// accessors, is the untrusted body.
pub struct Tape;

#[derive(Clone, Copy)]
pub struct View;

impl Tape {
    pub fn parse(&mut self, text: &str) -> View {
        View
    }
}

impl View {
    pub fn member(self, key: &str) -> Option<View> {
        None
    }

    pub fn as_str(self) -> Option<&'static str> {
        None
    }
}

pub fn field_width(tape: &mut Tape, body: &str, widths: &[u64]) -> u64 {
    let root = tape.parse(body);
    let name = root.member("name").and_then(View::as_str).unwrap_or_default();
    widths[name.len()] // FLAG: taint-index
}

/// `str::parse()` takes no argument, so it is not the tape's entry
/// point: a literal parsed this way stays clean.
pub fn literal_width(widths: &[u64]) -> u64 {
    let width: usize = "3".parse().unwrap_or(0);
    widths[width] // CLEAN
}

/// A local collection carries what is stored in it; a field receiver
/// (`self.lens.push(..)`) is not tracked.
pub fn stored_width(widths: &[u64]) -> u64 {
    let raw = std::env::var("TWIG_WIDTHS").unwrap_or_default();
    let mut lens = Vec::new();
    lens.push(raw.len());
    widths[lens[0]] // FLAG: taint-index
}
