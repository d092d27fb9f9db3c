//! Allocation-size sinks, `copy_from_slice`, `<<`, and the hot-path
//! allocation-discipline pass (`hot-alloc`).

/// Deserialization entries sizing allocations straight from the wire.
pub struct Cst;

fn read_u32(bytes: &[u8]) -> u32 {
    bytes.len() as u32
}

impl Cst {
    /// `with_capacity` on an untrusted count: one hostile header byte
    /// requests gigabytes before any validation runs.
    pub fn from_bytes(bytes: &[u8]) -> Vec<u32> {
        let count = read_u32(bytes) as usize;
        Vec::with_capacity(count) // FLAG: taint-alloc
    }

    /// Same sink through `vec![_; n]` and `reserve`.
    pub fn read_from(input: &[u8]) -> Vec<u8> {
        let len = read_u32(input) as usize;
        let mut scratch = vec![0u8; len]; // FLAG: taint-alloc
        scratch.reserve(len); // FLAG: taint-alloc
        scratch
    }

    /// The guarded form: a capped count is a fine allocation size.
    pub fn from_bytes_capped(bytes: &[u8]) -> Vec<u32> {
        let count = read_u32(bytes) as usize;
        let capped = count.min(1 << 20); // CLEAN
        Vec::with_capacity(capped) // CLEAN
    }
}

/// `copy_from_slice` with untrusted bytes panics on any length skew.
pub struct Twig;

impl Twig {
    pub fn parse(bytes: &[u8]) -> [u8; 8] {
        let mut head = [0u8; 8];
        head.copy_from_slice(bytes); // FLAG: taint-copy
        head
    }
}

/// `<<` with an untrusted shift amount is UB-adjacent (overflowing
/// shift); flagged even on lines with float evidence.
pub struct Json;

impl Json {
    pub fn parse(bytes: &[u8]) -> usize {
        let bits = bytes.len();
        1usize << bits // FLAG: taint-arith
    }
}

// ---- hot-path allocation discipline -------------------------------

pub struct PrunedTrie {
    children: Vec<u32>,
}

impl PrunedTrie {
    /// An allocation in a hot entry itself.
    pub fn walk(&self, _label: u32) -> Vec<u32> {
        self.children.clone() // FLAG: hot-alloc
    }
}

impl Cst {
    pub fn estimate_raw(&self, q: usize) -> usize {
        compile_steps(q)
    }
}

/// An allocation one call away from `estimate_raw`.
fn compile_steps(q: usize) -> usize {
    let mut steps = Vec::new(); // FLAG: hot-alloc
    steps.push(q);
    steps.len()
}

/// The reactor's request loop.
pub struct Reactor;

impl Reactor {
    /// An allocation reached from the serve request loop.
    fn process_rbuf(&mut self, id: u64) -> String {
        render_status(id)
    }
}

fn render_status(id: u64) -> String {
    format!("status {id}") // FLAG: hot-alloc
}

/// Allocation in a function no hot entry reaches: not a finding.
pub fn cold_setup() -> Vec<u64> {
    Vec::with_capacity(64) // CLEAN
}
