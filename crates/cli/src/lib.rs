//! Implementation of the `twig` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin wrapper around [`run`] so the
//! whole command surface is unit-testable without spawning processes.
//!
//! ```text
//! twig generate --kind dblp --mb 8 --seed 42 --out corpus.xml
//! twig build    --input corpus.xml --space 0.01 --out summary.cst
//! twig inspect  --summary summary.cst
//! twig estimate --summary summary.cst --query 'book(author("Su"),year("1999"))'
//! twig exact    --input corpus.xml    --query 'book(author("Su"))'
//! twig workload --input corpus.xml --count 20 --kind positive
//! twig eval     fig4a
//! ```

use std::fs;
use std::io::Write;

use twig_core::{Algorithm, CountKind, Cst, CstConfig, SpaceBudget};
use twig_datagen::{
    generate_dblp, generate_sprot, negative_query_candidates, positive_queries, trivial_queries,
    DblpConfig, SprotConfig, WorkloadConfig,
};
use twig_eval::{figures, Scale};
use twig_exact::{count_occurrence, count_occurrence_ordered, count_presence};
use twig_flat::{AnySummary, FlatCst};
use twig_serve::{
    error_chain, LoadOutcome, Server, ServerConfig, SnapshotStore, SummaryRegistry, SummarySpec,
};
use twig_tree::{DataTree, Twig};

/// Runs the CLI with `args` (not including the program name), writing
/// human output to `out`. Returns an error message on failure.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut args = Arguments::parse(args)?;
    let command = args.command.clone();
    let result = match command.as_str() {
        "generate" => cmd_generate(&mut args, out),
        "build" => cmd_build(&mut args, out),
        "inspect" => cmd_inspect(&mut args, out),
        "pack" => cmd_pack(&mut args, out),
        "estimate" => cmd_estimate(&mut args, out),
        "explain" => cmd_explain(&mut args, out),
        "exact" => cmd_exact(&mut args, out),
        "audit" => cmd_audit(&mut args, out),
        "workload" => cmd_workload(&mut args, out),
        "serve" => cmd_serve(&mut args, out),
        "eval" => cmd_eval(&mut args, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(io_err)?;
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    result?;
    args.ensure_consumed()
}

const USAGE: &str = "\
twig — twig selectivity estimation (ICDE 2001 reproduction)

USAGE:
  twig generate --kind dblp|sprot [--mb N] [--seed N] --out FILE
  twig build    --input XML [--space FRAC | --bytes N] [--sig L] [--seed N]
                [--threads N] [--no-signatures] --out FILE
  twig inspect  --summary FILE            (owned .cst or flat .flt)
  twig pack     --input FILE --out FILE   (owned summary or TWIGSNP1
                snapshot -> zero-copy flat TWIGFLT1 container)
  twig estimate --summary FILE (--query TWIG | --xpath XPATH)
                [--algo NAME] [--count-kind presence|occurrence]
  twig explain  --summary FILE (--query TWIG | --xpath XPATH) [--algo NAME]
  twig exact    --input XML (--query TWIG | --xpath XPATH) [--ordered]
  twig audit    --summary FILE [--queries FILE]
  twig workload --input XML [--count N] [--seed N] [--kind positive|trivial|negative]
  twig serve    --summary [NAME=]FILE [--summary ...] [--addr HOST:PORT]
                [--threads N] [--queue N] [--max-body-kb N] [--max-batch N]
                [--state-dir DIR]          (flat .flt summaries only)
  twig eval     FIGURE                    (table1 fig3 fig4a fig4b fig5a fig5b
                fig6a fig6b fig7a fig7b occurrence ablation; TWIG_SCALE=small
                for a smoke pass)

Twig query syntax: labels are elements, quoted strings are value-prefix
leaves, parentheses enclose children: book(author(\"Su\"),year(\"1999\")).
XPath-subset syntax: /dblp/book[author=\"Su\"][year=\"1999\"]/title";

fn io_err(err: std::io::Error) -> String {
    format!("I/O error: {err}")
}

/// Minimal `--flag value` argument parser with leftover detection. `eval`
/// takes one bare operand, its figure name (`twig eval fig4a`).
struct Arguments {
    command: String,
    operand: Option<String>,
    pairs: Vec<(String, String)>,
}

impl Arguments {
    fn parse(args: &[String]) -> Result<Self, String> {
        let Some((command, rest)) = args.split_first() else {
            return Err(format!("missing command\n{USAGE}"));
        };
        let (operand, rest) = match rest.split_first() {
            Some((first, tail)) if command == "eval" && !first.starts_with("--") => {
                (Some(first.clone()), tail)
            }
            _ => (None, rest),
        };
        let mut pairs = Vec::new();
        let mut iter = rest.iter();
        while let Some(flag) = iter.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("expected --flag, found '{flag}'"));
            };
            // Boolean flags take no value.
            if matches!(name, "ordered" | "no-signatures") {
                pairs.push((name.to_owned(), "true".to_owned()));
                continue;
            }
            let Some(value) = iter.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Self { command: command.clone(), operand, pairs })
    }

    fn take(&mut self, name: &str) -> Option<String> {
        let pos = self.pairs.iter().position(|(n, _)| n == name)?;
        Some(self.pairs.remove(pos).1)
    }

    /// Takes every occurrence of a repeatable flag, in order.
    fn take_all(&mut self, name: &str) -> Vec<String> {
        let mut values = Vec::new();
        while let Some(value) = self.take(name) {
            values.push(value);
        }
        values
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.take(name) {
            None => Ok(None),
            Some(raw) => {
                raw.parse().map(Some).map_err(|_| format!("invalid value for --{name}: '{raw}'"))
            }
        }
    }

    fn require(&mut self, name: &str) -> Result<String, String> {
        self.take(name).ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn ensure_consumed(&self) -> Result<(), String> {
        if let Some((name, _)) = self.pairs.first() {
            return Err(format!("unknown flag --{name} for '{}'", self.command));
        }
        Ok(())
    }
}

fn load_tree(path: &str) -> Result<DataTree, String> {
    let xml = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    DataTree::from_xml(&xml).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn is_flat(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && &bytes[..8] == twig_flat::format::MAGIC
}

/// Loads an owned (`TWIGCST`) summary, for commands that need the full
/// in-memory structure (explain traces, invariant audits, re-packing).
fn load_summary(path: &str) -> Result<Cst, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if is_flat(&bytes) {
        return Err(format!(
            "{path} is a flat (TWIGFLT1) summary; this command needs an owned (TWIGCST) file"
        ));
    }
    Cst::read_from(&mut bytes.as_slice()).map_err(|e| format!("cannot load {path}: {e}"))
}

/// Loads a summary of either format for estimation (flat files are
/// mapped read-only, owned files are deserialized).
fn load_any_summary(path: &str) -> Result<AnySummary, String> {
    if !std::path::Path::new(path).exists() {
        return Err(format!("cannot read {path}: no such file"));
    }
    AnySummary::load_file(std::path::Path::new(path))
        .map_err(|e| format!("cannot load {path}: {e}"))
}

fn parse_query(text: &str) -> Result<Twig, String> {
    Twig::parse(text).map_err(|e| format!("invalid query '{text}': {e}"))
}

/// Takes `--query` (twig expression) or `--xpath` (XPath subset).
fn take_query(args: &mut Arguments) -> Result<Twig, String> {
    match (args.take("query"), args.take("xpath")) {
        (Some(_), Some(_)) => Err("--query and --xpath are mutually exclusive".into()),
        (Some(text), None) => parse_query(&text),
        (None, Some(text)) => {
            twig_tree::parse_xpath(&text).map_err(|e| format!("invalid XPath '{text}': {e}"))
        }
        (None, None) => Err("missing required flag --query (or --xpath)".into()),
    }
}

fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    Algorithm::ALL.into_iter().find(|a| a.name().eq_ignore_ascii_case(name)).ok_or_else(|| {
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        format!("unknown algorithm '{name}' (expected one of {})", names.join(", "))
    })
}

fn cmd_generate(args: &mut Arguments, out: &mut dyn Write) -> Result<(), String> {
    let kind = args.take("kind").unwrap_or_else(|| "dblp".to_owned());
    let mb: f64 = args.take_parsed("mb")?.unwrap_or(1.0);
    let seed: u64 = args.take_parsed("seed")?.unwrap_or(42);
    let path = args.require("out")?;
    let bytes = (mb * 1048576.0) as usize;
    let xml = match kind.as_str() {
        "dblp" => generate_dblp(&DblpConfig { target_bytes: bytes, seed, ..DblpConfig::default() }),
        "sprot" => generate_sprot(&SprotConfig { target_bytes: bytes, seed }),
        other => return Err(format!("unknown corpus kind '{other}' (dblp|sprot)")),
    };
    fs::write(&path, &xml).map_err(|e| format!("cannot write {path}: {e}"))?;
    writeln!(out, "wrote {} bytes of {kind} XML to {path}", xml.len()).map_err(io_err)?;
    Ok(())
}

fn cmd_build(args: &mut Arguments, out: &mut dyn Write) -> Result<(), String> {
    let input = args.require("input")?;
    let output = args.require("out")?;
    let space: Option<f64> = args.take_parsed("space")?;
    let bytes: Option<usize> = args.take_parsed("bytes")?;
    let sig: usize = args.take_parsed("sig")?.unwrap_or(32);
    let seed: u64 = args.take_parsed("seed")?.unwrap_or(0x7716_C0DE);
    let threads: usize = args.take_parsed("threads")?.unwrap_or(1);
    let no_signatures = args.take("no-signatures").is_some();
    let budget = match (space, bytes) {
        (Some(_), Some(_)) => return Err("--space and --bytes are mutually exclusive".into()),
        (Some(fraction), None) => SpaceBudget::Fraction(fraction),
        (None, Some(b)) => SpaceBudget::Bytes(b),
        (None, None) => SpaceBudget::Fraction(0.01),
    };
    let tree = load_tree(&input)?;
    let cst = Cst::build(
        &tree,
        &CstConfig {
            budget,
            signature_len: sig,
            seed,
            with_signatures: !no_signatures,
            threads,
            ..CstConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut buffer = Vec::new();
    cst.write_to(&mut buffer).map_err(io_err)?;
    fs::write(&output, &buffer).map_err(|e| format!("cannot write {output}: {e}"))?;
    writeln!(
        out,
        "summary: {} nodes, threshold {}, accounted {} bytes ({:.3}% of data); file {} bytes -> {output}",
        cst.node_count(),
        cst.threshold(),
        cst.size_bytes(),
        cst.space_fraction() * 100.0,
        buffer.len()
    )
    .map_err(io_err)?;
    Ok(())
}

fn cmd_inspect(args: &mut Arguments, out: &mut dyn Write) -> Result<(), String> {
    let path = args.require("summary")?;
    let head = {
        let mut head = [0u8; 8];
        let mut file = fs::File::open(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let read = std::io::Read::read(&mut file, &mut head)
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        head[..read].to_vec()
    };
    if is_flat(&head) {
        return inspect_flat(&path, out);
    }
    let cst = load_summary(&path)?;
    writeln!(out, "summary {path}:").map_err(io_err)?;
    writeln!(out, "  trie nodes:        {}", cst.node_count()).map_err(io_err)?;
    writeln!(out, "  prune threshold:   {}", cst.threshold()).map_err(io_err)?;
    writeln!(out, "  data elements (n): {}", cst.n()).map_err(io_err)?;
    writeln!(out, "  source size:       {} bytes", cst.source_bytes()).map_err(io_err)?;
    writeln!(
        out,
        "  accounted size:    {} bytes ({:.3}% of source)",
        cst.size_bytes(),
        cst.space_fraction() * 100.0
    )
    .map_err(io_err)?;
    writeln!(out, "  signature length:  {}", cst.signature_len()).map_err(io_err)?;
    writeln!(out, "  min-hash seed:     {:#x}", cst.seed()).map_err(io_err)?;
    Ok(())
}

/// Inspect output for a flat (`TWIGFLT1`) container: header fields,
/// the section table, and an eager integrity check.
fn inspect_flat(path: &str, out: &mut dyn Write) -> Result<(), String> {
    let flat = FlatCst::open(std::path::Path::new(path))
        .map_err(|e| format!("cannot load {path}: {e}"))?;
    let backing = if flat.is_mapped() { "mmap (zero-copy)" } else { "heap" };
    writeln!(out, "flat summary {path}:").map_err(io_err)?;
    writeln!(out, "  format:            TWIGFLT1 ({backing})").map_err(io_err)?;
    writeln!(out, "  file size:         {} bytes", flat.file_len()).map_err(io_err)?;
    writeln!(out, "  trie nodes:        {}", flat.node_count()).map_err(io_err)?;
    writeln!(out, "  prune threshold:   {}", flat.threshold()).map_err(io_err)?;
    writeln!(out, "  data elements (n): {}", flat.n()).map_err(io_err)?;
    writeln!(out, "  source size:       {} bytes", flat.source_bytes()).map_err(io_err)?;
    writeln!(out, "  accounted size:    {} bytes", flat.size_bytes()).map_err(io_err)?;
    writeln!(out, "  signature length:  {}", flat.signature_len()).map_err(io_err)?;
    writeln!(out, "  min-hash seed:     {:#x}", flat.seed()).map_err(io_err)?;
    writeln!(out, "  sections:").map_err(io_err)?;
    for section in flat.sections() {
        writeln!(
            out,
            "    {:<12} offset {:>8}  {:>8} bytes  fnv1a {:016x}",
            section.name, section.offset, section.len, section.checksum
        )
        .map_err(io_err)?;
    }
    match flat.verify() {
        Ok(()) => writeln!(out, "  integrity:         ok (all checksums verified)").map_err(io_err),
        Err(error) => writeln!(out, "  integrity:         FAILED: {error}").map_err(io_err),
    }
}

/// Packs an owned summary — or the verified payload of a `TWIGSNP1`
/// snapshot-store file — into the zero-copy flat container format.
fn cmd_pack(args: &mut Arguments, out: &mut dyn Write) -> Result<(), String> {
    let input = args.require("input")?;
    let output = args.require("out")?;
    let bytes = fs::read(&input).map_err(|e| format!("cannot read {input}: {e}"))?;
    // A snapshot-store file is the summary plus a checksum footer, so
    // operators can pack straight out of a serve state dir. Unframe
    // before the format sniff: a snapshot of a flat summary starts with
    // the flat magic too.
    let framed = bytes.len() >= 24 && bytes.ends_with(b"TWIGSNP1");
    let payload = if framed {
        twig_serve::snapshot::unframe(bytes)
            .ok_or_else(|| format!("{input} is a torn TWIGSNP1 snapshot (checksum mismatch)"))?
    } else {
        if is_flat(&bytes) {
            return Err(format!("{input} is already a flat (TWIGFLT1) summary"));
        }
        bytes
    };
    if is_flat(&payload) {
        // A snapshot of a summary that was already flat: the payload is
        // the finished container. Land it atomically (tmp + rename) so
        // a mapped reader of an existing file never sees a truncation.
        FlatCst::from_bytes(payload.clone())
            .map_err(|e| format!("snapshot payload in {input} is not a valid container: {e}"))?;
        let tmp = format!("{output}.tmp");
        fs::write(&tmp, &payload).map_err(|e| format!("cannot write {tmp}: {e}"))?;
        fs::rename(&tmp, &output).map_err(|e| format!("cannot rename to {output}: {e}"))?;
        writeln!(out, "unpacked flat snapshot payload: {} bytes -> {output}", payload.len())
            .map_err(io_err)?;
        return Ok(());
    }
    let cst =
        Cst::read_from(&mut payload.as_slice()).map_err(|e| format!("cannot load {input}: {e}"))?;
    twig_flat::writer::write_file(&cst, std::path::Path::new(&output))
        .map_err(|e| format!("cannot pack {input}: {e}"))?;
    let size = fs::metadata(&output).map(|m| m.len()).unwrap_or(0);
    writeln!(
        out,
        "packed {} nodes ({} accounted bytes) into flat container: {size} bytes -> {output}",
        cst.node_count(),
        cst.size_bytes(),
    )
    .map_err(io_err)?;
    Ok(())
}

fn cmd_estimate(args: &mut Arguments, out: &mut dyn Write) -> Result<(), String> {
    let summary = args.require("summary")?;
    let query = take_query(args)?;
    let algo_name = args.take("algo");
    let kind = match args.take("count-kind").as_deref() {
        None | Some("occurrence") => CountKind::Occurrence,
        Some("presence") => CountKind::Presence,
        Some(other) => return Err(format!("unknown count kind '{other}'")),
    };
    // Either format estimates: flat summaries are mapped and queried in
    // place, bit-identical to the owned path.
    let cst = load_any_summary(&summary)?;
    match algo_name {
        Some(name) => {
            let algo = parse_algorithm(&name)?;
            let estimate = cst.estimate(&query, algo, kind);
            writeln!(out, "{estimate:.3}").map_err(io_err)?;
        }
        None => {
            for algo in Algorithm::ALL {
                let estimate = cst.estimate(&query, algo, kind);
                writeln!(out, "{:<7} {estimate:.3}", algo.name()).map_err(io_err)?;
            }
        }
    }
    Ok(())
}

fn cmd_explain(args: &mut Arguments, out: &mut dyn Write) -> Result<(), String> {
    let summary = args.require("summary")?;
    let query = take_query(args)?;
    let algo = match args.take("algo") {
        Some(name) => parse_algorithm(&name)?,
        None => Algorithm::Msh,
    };
    let kind = match args.take("count-kind").as_deref() {
        None | Some("occurrence") => CountKind::Occurrence,
        Some("presence") => CountKind::Presence,
        Some(other) => return Err(format!("unknown count kind '{other}'")),
    };
    let cst = load_summary(&summary)?;
    let explanation = cst.explain(&query, algo, kind);
    write!(out, "{explanation}").map_err(io_err)?;
    Ok(())
}

fn cmd_exact(args: &mut Arguments, out: &mut dyn Write) -> Result<(), String> {
    let input = args.require("input")?;
    let query = take_query(args)?;
    let ordered = args.take("ordered").is_some();
    let tree = load_tree(&input)?;
    let (presence, occurrence) = if ordered {
        (twig_exact::count_presence_ordered(&tree, &query), count_occurrence_ordered(&tree, &query))
    } else {
        (count_presence(&tree, &query), count_occurrence(&tree, &query))
    };
    writeln!(out, "presence   {presence}").map_err(io_err)?;
    writeln!(out, "occurrence {occurrence}").map_err(io_err)?;
    Ok(())
}

/// Runs the CST invariant auditor (see `twig_core::audit`) on a stored
/// summary. With `--queries`, additionally audits estimate sanity (I8)
/// for every listed twig expression (one per line). Exits non-zero when
/// any invariant is violated.
fn cmd_audit(args: &mut Arguments, out: &mut dyn Write) -> Result<(), String> {
    let path = args.require("summary")?;
    let queries_path = args.take("queries");
    let cst = load_summary(&path)?;
    let mut violations = cst.audit();
    if let Some(list) = queries_path {
        let text = fs::read_to_string(&list).map_err(|e| format!("cannot read {list}: {e}"))?;
        let mut queries = Vec::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            queries.push(parse_query(line)?);
        }
        violations.extend(cst.audit_estimates(&queries));
    }
    if violations.is_empty() {
        writeln!(out, "ok: all CST invariants hold for {path}").map_err(io_err)?;
        return Ok(());
    }
    for violation in &violations {
        writeln!(out, "violation: {violation}").map_err(io_err)?;
    }
    Err(format!("{} invariant violation(s) in {path}", violations.len()))
}

fn cmd_workload(args: &mut Arguments, out: &mut dyn Write) -> Result<(), String> {
    let input = args.require("input")?;
    let count: usize = args.take_parsed("count")?.unwrap_or(20);
    let seed: u64 = args.take_parsed("seed")?.unwrap_or(99);
    let kind = args.take("kind").unwrap_or_else(|| "positive".to_owned());
    let tree = load_tree(&input)?;
    let cfg = WorkloadConfig { count, seed, ..WorkloadConfig::default() };
    let queries = match kind.as_str() {
        "positive" => positive_queries(&tree, &cfg),
        "trivial" => trivial_queries(&tree, &cfg),
        "negative" => negative_query_candidates(&tree, &cfg)
            .into_iter()
            .filter(|q| count_presence(&tree, q) == 0)
            .take(count)
            .collect(),
        other => return Err(format!("unknown workload kind '{other}'")),
    };
    for query in &queries {
        writeln!(out, "{query}").map_err(io_err)?;
    }
    Ok(())
}

/// Prints one of the paper's figures (`twig_eval::figures`) at the scale
/// the `TWIG_*` variables set.
fn cmd_eval(args: &mut Arguments, out: &mut dyn Write) -> Result<(), String> {
    let figure = args.operand.take().unwrap_or_default();
    // A full-scale figure runs for minutes: refuse a stray flag first.
    args.ensure_consumed()?;
    let scale = Scale::from_env()?;
    figures::render(&figure, &scale, out)
}

/// Boots the estimation server (`twig-serve`) over one or more stored
/// flat summaries (an owned file fails to load; `twig pack` converts
/// it) and blocks until it is shut down (`POST /admin/shutdown`).
/// Prints `listening on ADDR` once the socket is bound, so scripts can
/// wait for readiness on stdout.
fn cmd_serve(args: &mut Arguments, out: &mut dyn Write) -> Result<(), String> {
    let specs = args.take_all("summary");
    if specs.is_empty() {
        return Err("serve needs at least one --summary [NAME=]FILE".into());
    }
    let addr = args.take("addr").unwrap_or_else(|| "127.0.0.1:7716".to_owned());
    let workers: usize = args.take_parsed("threads")?.unwrap_or(8);
    let queue_capacity: usize = args.take_parsed("queue")?.unwrap_or(64);
    let max_body_kb: usize = args.take_parsed("max-body-kb")?.unwrap_or(1024);
    let max_batch: usize = args.take_parsed("max-batch")?.unwrap_or(4096);
    let state_dir = args.take("state-dir");
    // Surface leftover-flag mistakes before binding the socket; `run`'s
    // own check would otherwise only fire after shutdown.
    args.ensure_consumed()?;

    let registry = SummaryRegistry::new();
    if let Some(dir) = &state_dir {
        let store = SnapshotStore::open(std::path::Path::new(dir))
            .map_err(|e| format!("cannot open state dir '{dir}': {e}"))?;
        registry.attach_store(store);
    }
    for text in specs {
        let spec = SummarySpec::parse(&text)?;
        let name = spec.name.clone();
        if state_dir.is_some() {
            // With a state dir, a summary whose file is torn or missing
            // can still come up degraded from its last good snapshot.
            match registry.load_or_recover(spec).map_err(|e| error_chain(&e))? {
                LoadOutcome::Fresh(_) => {
                    writeln!(out, "loaded summary '{name}'").map_err(io_err)?;
                }
                LoadOutcome::Recovered { generation, error } => {
                    writeln!(
                        out,
                        "recovered summary '{name}' from snapshot generation \
                         {generation} (source load failed: {error})"
                    )
                    .map_err(io_err)?;
                }
            }
        } else {
            registry.load(spec).map_err(|e| error_chain(&e))?;
            writeln!(out, "loaded summary '{name}'").map_err(io_err)?;
        }
    }
    let config = ServerConfig {
        workers,
        queue_capacity,
        max_body_bytes: max_body_kb.saturating_mul(1024),
        max_batch,
        ..ServerConfig::default()
    };
    let server =
        Server::bind(&addr, config, registry).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    writeln!(
        out,
        "listening on {} ({workers} workers, queue {queue_capacity})",
        server.local_addr()
    )
    .map_err(io_err)?;
    out.flush().map_err(io_err)?;
    server.run().map_err(|e| format!("server error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(args: &[&str]) -> Result<String, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("UTF-8 output"))
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("twig-cli-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn full_cli_pipeline() {
        let corpus = temp_path("corpus.xml");
        let summary = temp_path("summary.cst");
        let gen = run_capture(&[
            "generate", "--kind", "dblp", "--mb", "0.1", "--seed", "5", "--out", &corpus,
        ])
        .expect("generate");
        assert!(gen.contains("wrote"));

        let build =
            run_capture(&["build", "--input", &corpus, "--space", "0.2", "--out", &summary])
                .expect("build");
        assert!(build.contains("summary:"));

        let inspect = run_capture(&["inspect", "--summary", &summary]).expect("inspect");
        assert!(inspect.contains("trie nodes"));
        assert!(inspect.contains("signature length:  32"));

        let estimate =
            run_capture(&["estimate", "--summary", &summary, "--query", r#"article(author("S"))"#])
                .expect("estimate");
        assert!(estimate.lines().count() == 6, "one line per algorithm: {estimate}");

        let single = run_capture(&[
            "estimate",
            "--summary",
            &summary,
            "--query",
            r#"article(author("S"))"#,
            "--algo",
            "msh",
            "--count-kind",
            "presence",
        ])
        .expect("estimate single");
        assert!(single.trim().parse::<f64>().is_ok(), "{single}");

        let exact =
            run_capture(&["exact", "--input", &corpus, "--query", r#"article(author("S"))"#])
                .expect("exact");
        assert!(exact.contains("presence"));

        let workload =
            run_capture(&["workload", "--input", &corpus, "--count", "5"]).expect("workload");
        assert_eq!(workload.lines().count(), 5);
    }

    #[test]
    fn helpful_errors() {
        assert!(run_capture(&[]).unwrap_err().contains("missing command"));
        assert!(run_capture(&["frobnicate"]).unwrap_err().contains("unknown command"));
        assert!(run_capture(&["build", "--input"]).unwrap_err().contains("needs a value"));
        assert!(run_capture(&["inspect"]).unwrap_err().contains("--summary"));
        assert!(run_capture(&["inspect", "--summary", "/nonexistent/x.cst"])
            .unwrap_err()
            .contains("cannot read"));
        let err = run_capture(&["estimate", "--summary", "x", "--query", "q(", "--algo", "msh"])
            .unwrap_err();
        assert!(err.contains("cannot read") || err.contains("invalid query"), "{err}");
    }

    #[test]
    fn unknown_flags_rejected() {
        let corpus = temp_path("corpus2.xml");
        run_capture(&[
            "generate", "--kind", "dblp", "--mb", "0.05", "--seed", "1", "--out", &corpus,
        ])
        .expect("generate");
        let err = run_capture(&["exact", "--input", &corpus, "--query", "a", "--bogus", "1"])
            .unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
    }

    #[test]
    fn ordered_flag_changes_counts() {
        let corpus = temp_path("corpus3.xml");
        fs::write(&corpus, "<r><x><a>2</a><a>1</a></x></r>").expect("write corpus");
        let unordered =
            run_capture(&["exact", "--input", &corpus, "--query", r#"x(a("1"),a("2"))"#])
                .expect("exact");
        let ordered = run_capture(&[
            "exact",
            "--input",
            &corpus,
            "--query",
            r#"x(a("1"),a("2"))"#,
            "--ordered",
        ])
        .expect("exact ordered");
        assert!(unordered.contains("occurrence 1"));
        assert!(ordered.contains("occurrence 0"));
    }

    #[test]
    fn xpath_and_explain_commands() {
        let corpus = temp_path("corpus4.xml");
        let summary = temp_path("summary4.cst");
        run_capture(&[
            "generate", "--kind", "dblp", "--mb", "0.1", "--seed", "9", "--out", &corpus,
        ])
        .expect("generate");
        run_capture(&[
            "build",
            "--input",
            &corpus,
            "--space",
            "0.2",
            "--threads",
            "2",
            "--out",
            &summary,
        ])
        .expect("build");

        // XPath input works for estimate and exact.
        let est = run_capture(&[
            "estimate",
            "--summary",
            &summary,
            "--xpath",
            r#"/dblp/article[author="S"]"#,
            "--algo",
            "mosh",
        ])
        .expect("estimate xpath");
        assert!(est.trim().parse::<f64>().is_ok(), "{est}");
        let exact =
            run_capture(&["exact", "--input", &corpus, "--xpath", r#"/dblp/article[author="S"]"#])
                .expect("exact xpath");
        assert!(exact.contains("occurrence"));

        // Explain prints the trace.
        let explained = run_capture(&[
            "explain",
            "--summary",
            &summary,
            "--xpath",
            r#"/dblp/article[author="S"]"#,
        ])
        .expect("explain");
        assert!(explained.contains("parsed subpaths"), "{explained}");
        assert!(explained.contains("estimate:"), "{explained}");

        // Mutual exclusion and error paths.
        let err =
            run_capture(&["estimate", "--summary", &summary, "--query", "a", "--xpath", "/a"])
                .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run_capture(&["estimate", "--summary", &summary, "--xpath", "/a[@id='1']"])
            .unwrap_err();
        assert!(err.contains("attribute axis"), "{err}");
    }

    #[test]
    fn audit_command_detects_corruption() {
        let corpus = temp_path("corpus5.xml");
        let summary = temp_path("summary5.cst");
        run_capture(&[
            "generate", "--kind", "dblp", "--mb", "0.05", "--seed", "3", "--out", &corpus,
        ])
        .expect("generate");
        run_capture(&["build", "--input", &corpus, "--space", "0.2", "--out", &summary])
            .expect("build");

        let ok = run_capture(&["audit", "--summary", &summary]).expect("audit clean");
        assert!(ok.contains("ok:"), "{ok}");

        // Estimate audit (I8) over a small query list is also clean.
        let queries = temp_path("queries5.txt");
        fs::write(&queries, "article(author(\"S\"))\n\nbook(title)\n").expect("write queries");
        let ok = run_capture(&["audit", "--summary", &summary, "--queries", &queries])
            .expect("audit with queries");
        assert!(ok.contains("ok:"), "{ok}");

        // Corrupt the stored presence count of the first non-root node so
        // it exceeds its occurrence count (invariant I2). The node table
        // sits after the fixed header and the label table; each record is
        // five u32 fields plus a flag byte (see `serialize`).
        let mut bytes = fs::read(&summary).expect("read summary");
        let read_u32 = |bytes: &[u8], at: usize| {
            u32::from_le_bytes(bytes[at..at + 4].try_into().expect("u32"))
        };
        let mut at = 8 + 4 * 8 + 3 * 4;
        let label_count = read_u32(&bytes, at);
        at += 4;
        for _ in 0..label_count {
            let len = read_u32(&bytes, at) as usize;
            at += 4 + len;
        }
        at += 4; // node count
        let node1 = at + 21; // skip the root record
        let occurrence = read_u32(&bytes, node1 + 16);
        bytes[node1 + 12..node1 + 16].copy_from_slice(&(occurrence + 7).to_le_bytes());
        fs::write(&summary, &bytes).expect("write corrupted");

        let err = run_capture(&["audit", "--summary", &summary]).unwrap_err();
        assert!(err.contains("violation"), "{err}");
    }

    #[test]
    fn eval_prints_figure_transcripts() {
        let table1 = run_capture(&["eval", "table1"]).expect("eval table1");
        assert_eq!(table1, include_str!("../../eval/tests/golden/table1.txt"));
        let err = run_capture(&["eval", "fig8"]).unwrap_err();
        for name in figures::names() {
            assert!(err.contains(name), "{err}");
        }
        assert!(run_capture(&["eval"]).unwrap_err().contains("expected one of: table1"));
        let err = run_capture(&["eval", "table1", "--scale", "small"]).unwrap_err();
        assert!(err.contains("unknown flag --scale"), "{err}");
        assert!(run_capture(&["build", "table1"]).unwrap_err().contains("expected --flag"));
    }

    #[test]
    fn help_prints_usage() {
        let help = run_capture(&["help"]).expect("help");
        assert!(help.contains("USAGE"));
        assert!(help.contains("twig serve"));
        assert!(help.contains("twig pack"));
    }

    #[test]
    fn pack_and_inspect_flat_summaries() {
        let corpus = temp_path("corpus8.xml");
        let summary = temp_path("summary8.cst");
        let flat = temp_path("summary8.flt");
        run_capture(&[
            "generate", "--kind", "dblp", "--mb", "0.05", "--seed", "8", "--out", &corpus,
        ])
        .expect("generate");
        run_capture(&["build", "--input", &corpus, "--space", "0.2", "--out", &summary])
            .expect("build");

        let packed = run_capture(&["pack", "--input", &summary, "--out", &flat]).expect("pack");
        assert!(packed.contains("packed"), "{packed}");
        assert!(packed.contains("flat container"), "{packed}");

        // Inspect sniffs the format: flat output shows the envelope and
        // the section table, and the integrity check passes.
        let inspect = run_capture(&["inspect", "--summary", &flat]).expect("inspect flat");
        assert!(inspect.contains("TWIGFLT1"), "{inspect}");
        assert!(inspect.contains("trie nodes"), "{inspect}");
        assert!(inspect.contains("NODE_PARENT"), "{inspect}");
        assert!(inspect.contains("STR_BYTES"), "{inspect}");
        assert!(inspect.contains("integrity:         ok"), "{inspect}");

        // Estimates off the flat file match the owned file exactly.
        let query = r#"article(author("S"))"#;
        let owned = run_capture(&["estimate", "--summary", &summary, "--query", query])
            .expect("estimate owned");
        let mapped = run_capture(&["estimate", "--summary", &flat, "--query", query])
            .expect("estimate flat");
        assert_eq!(owned, mapped, "flat estimates must match owned output");

        // Commands that need the owned structure say so.
        let err = run_capture(&["explain", "--summary", &flat, "--query", query]).unwrap_err();
        assert!(err.contains("needs an owned"), "{err}");
        let err = run_capture(&["audit", "--summary", &flat]).unwrap_err();
        assert!(err.contains("needs an owned"), "{err}");

        // Re-packing a flat file is rejected.
        let err = run_capture(&["pack", "--input", &flat, "--out", &summary]).unwrap_err();
        assert!(err.contains("already a flat"), "{err}");
    }

    #[test]
    fn pack_migrates_snapshot_store_files() {
        let corpus = temp_path("corpus9.xml");
        let summary = temp_path("summary9.cst");
        let flat = temp_path("summary9.flt");
        run_capture(&[
            "generate", "--kind", "dblp", "--mb", "0.05", "--seed", "11", "--out", &corpus,
        ])
        .expect("generate");
        run_capture(&["build", "--input", &corpus, "--space", "0.2", "--out", &summary])
            .expect("build");

        // A serve state dir persists the summary as a framed TWIGSNP1
        // snapshot; `twig pack` accepts that file directly.
        let state = std::path::PathBuf::from(temp_path("state9"));
        let store = SnapshotStore::open(&state).expect("open store");
        let payload = fs::read(&summary).expect("read summary");
        let snapshot = store.persist("dblp", 1, &payload).expect("persist");
        let snapshot = snapshot.to_string_lossy().into_owned();

        let packed =
            run_capture(&["pack", "--input", &snapshot, "--out", &flat]).expect("pack snapshot");
        assert!(packed.contains("packed"), "{packed}");
        let query = r#"article(author("S"))"#;
        let owned = run_capture(&["estimate", "--summary", &summary, "--query", query])
            .expect("estimate owned");
        let migrated = run_capture(&["estimate", "--summary", &flat, "--query", query])
            .expect("estimate flat");
        assert_eq!(owned, migrated, "snapshot migration must preserve estimates");

        // A torn snapshot (payload corrupt, footer present) is refused.
        let torn = temp_path("torn9.cst");
        let mut framed = fs::read(&snapshot).expect("read snapshot");
        framed[10] ^= 0xFF;
        fs::write(&torn, &framed).expect("write torn");
        let err = run_capture(&["pack", "--input", &torn, "--out", &flat]).unwrap_err();
        assert!(err.contains("torn"), "{err}");

        // A snapshot of an already-flat summary unpacks to the container.
        let flat_payload = fs::read(&flat).expect("read flat");
        let flat_snapshot_path = store.persist("flatone", 1, &flat_payload).expect("persist flat");
        let unpacked = temp_path("summary9b.flt");
        let output = run_capture(&[
            "pack",
            "--input",
            &flat_snapshot_path.to_string_lossy(),
            "--out",
            &unpacked,
        ])
        .expect("unpack flat snapshot");
        assert!(output.contains("unpacked flat snapshot payload"), "{output}");
        assert_eq!(fs::read(&unpacked).expect("read unpacked"), flat_payload);
    }

    #[test]
    fn serve_error_paths() {
        let err = run_capture(&["serve"]).unwrap_err();
        assert!(err.contains("--summary"), "{err}");
        let err = run_capture(&["serve", "--summary", "=x"]).unwrap_err();
        assert!(err.contains("invalid summary spec"), "{err}");
        let err = run_capture(&["serve", "--summary", "/nonexistent/x.flt"]).unwrap_err();
        assert!(err.contains("cannot load summary"), "{err}");
        assert!(err.contains("flat summary I/O"), "{err}");

        let corpus = temp_path("corpus6.xml");
        let owned = temp_path("summary6.cst");
        let summary = temp_path("summary6.flt");
        run_capture(&[
            "generate", "--kind", "dblp", "--mb", "0.05", "--seed", "6", "--out", &corpus,
        ])
        .expect("generate");
        run_capture(&["build", "--input", &corpus, "--space", "0.2", "--out", &owned])
            .expect("build");

        // An owned summary is refused before the socket is bound.
        let err = run_capture(&["serve", "--summary", &owned]).unwrap_err();
        assert!(err.contains("not a TWIGFLT1 flat summary"), "{err}");
        run_capture(&["pack", "--input", &owned, "--out", &summary]).expect("pack");

        // Leftover flags are rejected before the socket is bound.
        let err = run_capture(&["serve", "--summary", &summary, "--bogus", "1"]).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        let err =
            run_capture(&["serve", "--summary", &summary, "--addr", "not-an-addr"]).unwrap_err();
        assert!(err.contains("cannot bind"), "{err}");
    }

    #[test]
    fn serve_boots_answers_and_shuts_down() {
        let corpus = temp_path("corpus7.xml");
        let owned = temp_path("summary7.cst");
        let summary = temp_path("summary7.flt");
        run_capture(&[
            "generate", "--kind", "dblp", "--mb", "0.05", "--seed", "7", "--out", &corpus,
        ])
        .expect("generate");
        run_capture(&["build", "--input", &corpus, "--space", "0.2", "--out", &owned])
            .expect("build");
        run_capture(&["pack", "--input", &owned, "--out", &summary]).expect("pack");

        // Reserve an ephemeral port, then serve on it from a thread.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
            probe.local_addr().expect("probe addr").port()
        };
        let addr = format!("127.0.0.1:{port}");
        let spec = format!("dblp={summary}");
        let serve_addr = addr.clone();
        let thread = std::thread::spawn(move || {
            let args: Vec<String> =
                ["serve", "--summary", &spec, "--addr", &serve_addr, "--threads", "2"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
            let mut out = Vec::new();
            run(&args, &mut out).map(|()| String::from_utf8(out).expect("UTF-8 output"))
        });

        // The smoke loop proves the served estimates flow end to end,
        // then posts /admin/shutdown.
        let report = twig_serve::loadgen::smoke(&addr, "dblp").expect("smoke against twig serve");
        assert!(report.requests > 0);
        let output = thread.join().expect("serve thread").expect("serve exits cleanly");
        assert!(output.contains("loaded summary 'dblp'"), "{output}");
        assert!(output.contains(&format!("listening on {addr}")), "{output}");
    }
}
