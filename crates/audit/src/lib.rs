//! # kaas-audit — workspace determinism & resource-safety linter
//!
//! A zero-dependency static-analysis pass over the KaaS workspace.
//! Every evaluation claim in this reproduction rests on byte-identical
//! seeded replay; this crate enforces the discipline mechanically
//! instead of by convention. The workspace is deps-free, so the scanner
//! is hand-rolled (no `syn`): comment/string-aware lexing plus a small
//! token walker — deliberately conservative, tuned to this codebase's
//! idioms rather than the whole Rust grammar.
//!
//! ## Rules
//!
//! | Rule | Slug             | What it catches                                        |
//! |------|------------------|--------------------------------------------------------|
//! | D1   | `unordered`      | `HashMap`/`HashSet` in deterministic crates: random iteration order breaks replay |
//! | D2   | `ambient`        | `Instant`/`SystemTime`/`std::thread`/ambient randomness: only `kaas_simtime::{time,rng}` |
//! | D3   | `mutable-static` | `static mut` / `thread_local!` mutable state outside `simtime` |
//! | R1   | —                | `InvokeError` variants missing from `KINDS` or the exhaustiveness test |
//! | R2   | —                | metric names emitted but undeclared in `metrics/INVENTORY` (and vice versa) |
//!
//! D-rule findings are suppressed line-by-line with
//! `// audit:allow(<slug>): <why>` — trailing on the offending line,
//! or standing alone on the line immediately above it (the form that
//! survives rustfmt on long lines). The reason is mandatory, and a
//! D1-allowed map must additionally never be iterated (the scanner
//! tracks the annotated binding and flags `.iter()`/`.values()`/
//! `for … in` uses anywhere in the file).

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The crates whose sources must obey the determinism rules.
pub const DETERMINISTIC_CRATES: [&str; 8] = [
    "simtime", "net", "accel", "core", "kernels", "quantum", "bench", "guest",
];

/// A lint rule identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: unordered collections (`HashMap`/`HashSet`).
    D1Unordered,
    /// D2: ambient authority (wall clock, OS threads, process randomness).
    D2Ambient,
    /// D3: mutable static state outside `simtime`.
    D3MutableStatic,
    /// R1: `InvokeError` exhaustiveness (KINDS table + failure test).
    R1ErrorKinds,
    /// R2: metric names vs the declared `metrics/INVENTORY`.
    R2MetricInventory,
}

impl Rule {
    /// Short code used in diagnostics and the summary (`D1`..`R2`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::D1Unordered => "D1",
            Rule::D2Ambient => "D2",
            Rule::D3MutableStatic => "D3",
            Rule::R1ErrorKinds => "R1",
            Rule::R2MetricInventory => "R2",
        }
    }

    /// The `audit:allow(<slug>)` annotation slug, if the rule has one.
    pub fn slug(self) -> Option<&'static str> {
        match self {
            Rule::D1Unordered => Some("unordered"),
            Rule::D2Ambient => Some("ambient"),
            Rule::D3MutableStatic => Some("mutable-static"),
            Rule::R1ErrorKinds | Rule::R2MetricInventory => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.slug() {
            Some(slug) => write!(f, "{}/{}", self.code(), slug),
            None => write!(f, "{}", self.code()),
        }
    }
}

/// One finding, anchored to a file and 1-based line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

impl Diagnostic {
    /// One-line JSON object for this finding, with stable field names
    /// (`file`, `line`, `rule`, `slug`, `message`) — the CLI's
    /// `--format=json` output that CI turns into annotations. `slug` is
    /// `null` for rules without an `audit:allow` slug.
    pub fn to_json(&self) -> String {
        let slug = match self.rule.slug() {
            Some(s) => format!("\"{s}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\"file\":{},\"line\":{},\"rule\":\"{}\",\"slug\":{},\"message\":{}}}",
            json_string(&self.file.display().to_string()),
            self.line,
            self.rule.code(),
            slug,
            json_string(&self.message),
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The outcome of a full audit: findings plus scan statistics.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned by the D-rules.
    pub files_scanned: usize,
}

impl Report {
    /// Findings per rule code, for the machine-readable summary.
    pub fn per_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut out: BTreeMap<&'static str, usize> =
            [("D1", 0), ("D2", 0), ("D3", 0), ("R1", 0), ("R2", 0)]
                .into_iter()
                .collect();
        for d in &self.diagnostics {
            *out.entry(d.rule.code()).or_insert(0) += 1;
        }
        out
    }

    /// One-line machine-readable summary (stable key order).
    pub fn summary_json(&self) -> String {
        let rules = self
            .per_rule()
            .into_iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"files\":{},\"diagnostics\":{},\"rules\":{{{}}}}}",
            self.files_scanned,
            self.diagnostics.len(),
            rules
        )
    }

    fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }
}

// ---------------------------------------------------------------------------
// Lexing: comment/string stripping with byte offsets preserved
// ---------------------------------------------------------------------------

/// An `audit:allow` annotation found on one source line.
#[derive(Debug, Clone)]
struct Allow {
    /// The line the comment itself sits on (for hygiene diagnostics).
    line: usize,
    /// The line the annotation suppresses: its own for a trailing
    /// comment, the next one when the annotation stands alone on its
    /// line (so rustfmt-wrapped code keeps its suppression).
    applies_to: usize,
    slug: String,
    /// Whether the mandatory `: <why>` reason was present.
    has_why: bool,
    /// Set when a finding was suppressed by this annotation.
    used: std::cell::Cell<bool>,
}

/// Source text with comments and string contents blanked to spaces.
///
/// Byte offsets (and therefore line numbers) are identical to the
/// original: comments become spaces, string *contents* become spaces
/// but the delimiting quotes survive, and newlines always survive.
struct Stripped {
    text: String,
    line_starts: Vec<usize>,
    allows: Vec<Allow>,
}

impl Stripped {
    fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    fn allow_for(&self, line: usize, slug: &str) -> Option<&Allow> {
        self.allows
            .iter()
            .find(|a| a.applies_to == line && a.slug == slug && a.has_why)
    }
}

fn parse_allow_comment(comment: &str, line: usize) -> Option<Allow> {
    let at = comment.find("audit:allow(")?;
    let rest = &comment[at + "audit:allow(".len()..];
    let close = rest.find(')')?;
    let slug = rest[..close].trim().to_string();
    let tail = rest[close + 1..].trim_start();
    let has_why = tail
        .strip_prefix(':')
        .is_some_and(|why| !why.trim().is_empty());
    Some(Allow {
        line,
        applies_to: line,
        slug,
        has_why,
        used: std::cell::Cell::new(false),
    })
}

fn strip_source(src: &str) -> Stripped {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut allows = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Appends `b` (or a space for blanked content, keeping newlines).
    fn blank(out: &mut Vec<u8>, b: u8) {
        out.push(if b == b'\n' { b'\n' } else { b' ' });
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let end = src[i..].find('\n').map(|n| i + n).unwrap_or(bytes.len());
                if let Some(mut a) = parse_allow_comment(&src[i..end], line) {
                    // A standalone annotation (nothing but whitespace
                    // before the `//`) covers the NEXT line — the
                    // trailing form survives rustfmt only on short
                    // lines.
                    let standalone = bytes[..i]
                        .iter()
                        .rev()
                        .take_while(|&&c| c != b'\n')
                        .all(|&c| c == b' ' || c == b'\t');
                    if standalone {
                        a.applies_to = line + 1;
                    }
                    allows.push(a);
                }
                for &c in &bytes[i..end] {
                    blank(&mut out, c);
                }
                i = end;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && j + 1 < bytes.len() && bytes[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && j + 1 < bytes.len() && bytes[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                for &c in &bytes[i..j] {
                    if c == b'\n' {
                        line += 1;
                    }
                    blank(&mut out, c);
                }
                i = j;
            }
            b'r' | b'b'
                if {
                    // Raw (and byte-raw) strings: r"..", r#".."#, br#".."#.
                    let mut j = i + 1;
                    if b == b'b' && j < bytes.len() && bytes[j] == b'r' {
                        j += 1;
                    }
                    let hashes_start = j;
                    while j < bytes.len() && bytes[j] == b'#' {
                        j += 1;
                    }
                    (b != b'b' || i + 1 < bytes.len() && bytes[i + 1] == b'r')
                        && j < bytes.len()
                        && bytes[j] == b'"'
                        && (b == b'b' || hashes_start == i + 1)
                        // Not part of a longer identifier (e.g. `for r in ..`).
                        && (i == 0 || !is_ident_byte(bytes[i - 1]))
                } =>
            {
                let mut j = i + 1;
                if b == b'b' {
                    j += 1;
                }
                let mut n_hashes = 0;
                while bytes[j] == b'#' {
                    n_hashes += 1;
                    j += 1;
                }
                // Copy prefix + opening quote verbatim.
                out.extend_from_slice(&bytes[i..=j]);
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', n_hashes))
                    .collect();
                let content_start = j + 1;
                let close = src[content_start..]
                    .find(std::str::from_utf8(&closer).unwrap())
                    .map(|n| content_start + n)
                    .unwrap_or(bytes.len());
                for &c in &bytes[content_start..close] {
                    if c == b'\n' {
                        line += 1;
                    }
                    blank(&mut out, c);
                }
                let end = (close + closer.len()).min(bytes.len());
                out.extend_from_slice(&bytes[close.min(bytes.len())..end]);
                i = end;
            }
            b'"' => {
                out.push(b'"');
                let mut j = i + 1;
                while j < bytes.len() {
                    match bytes[j] {
                        b'\\' => {
                            blank(&mut out, bytes[j]);
                            if j + 1 < bytes.len() {
                                if bytes[j + 1] == b'\n' {
                                    line += 1;
                                }
                                blank(&mut out, bytes[j + 1]);
                            }
                            j += 2;
                        }
                        b'"' => break,
                        c => {
                            if c == b'\n' {
                                line += 1;
                            }
                            blank(&mut out, c);
                            j += 1;
                        }
                    }
                }
                if j < bytes.len() {
                    out.push(b'"');
                    j += 1;
                }
                i = j;
            }
            b'\'' => {
                // Char literal vs lifetime. A lifetime is `'ident` not
                // followed by a closing quote; a char literal is short
                // and closed.
                let is_char = if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
                    true
                } else {
                    i + 2 < bytes.len() && bytes[i + 2] == b'\''
                };
                if is_char {
                    out.push(b'\'');
                    let mut j = i + 1;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        if bytes[j] == b'\\' {
                            blank(&mut out, bytes[j]);
                            j += 1;
                            if j < bytes.len() {
                                blank(&mut out, bytes[j]);
                                j += 1;
                            }
                        } else {
                            blank(&mut out, bytes[j]);
                            j += 1;
                        }
                    }
                    if j < bytes.len() {
                        out.push(b'\'');
                        j += 1;
                    }
                    i = j;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            _ => {
                if b == b'\n' {
                    line += 1;
                }
                out.push(b);
                i += 1;
            }
        }
    }

    let text = String::from_utf8(out).expect("stripping preserves UTF-8");
    let mut line_starts = vec![0usize];
    for (idx, c) in text.bytes().enumerate() {
        if c == b'\n' {
            line_starts.push(idx + 1);
        }
    }
    Stripped {
        text,
        line_starts,
        allows,
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

// ---------------------------------------------------------------------------
// Tokenization
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum TokKind {
    Word,
    Punct(u8),
}

#[derive(Debug, Clone, Copy)]
struct Token {
    kind: TokKind,
    start: usize,
    end: usize,
}

fn tokenize(text: &str) -> Vec<Token> {
    let bytes = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
        } else if is_ident_byte(b) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            toks.push(Token {
                kind: TokKind::Word,
                start,
                end: i,
            });
        } else {
            toks.push(Token {
                kind: TokKind::Punct(b),
                start: i,
                end: i + 1,
            });
            i += 1;
        }
    }
    toks
}

fn word<'a>(text: &'a str, t: &Token) -> &'a str {
    &text[t.start..t.end]
}

/// Skips a balanced group starting at `toks[i]` (which must be the
/// opening delimiter); returns the index just past the closer.
fn skip_group(toks: &[Token], i: usize, open: u8, close: u8) -> usize {
    let mut depth = 0;
    let mut j = i;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct(c) if c == open => depth += 1,
            TokKind::Punct(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

// ---------------------------------------------------------------------------
// D-rules: per-file determinism scans
// ---------------------------------------------------------------------------

const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_keys",
    "into_values",
];

const AMBIENT_WORDS: [(&str, &str); 6] = [
    ("Instant", "wall-clock time; use `kaas_simtime::now()`"),
    ("SystemTime", "wall-clock time; use `kaas_simtime::now()`"),
    (
        "RandomState",
        "process-seeded hashing; ambient randomness breaks replay",
    ),
    (
        "DefaultHasher",
        "process-seeded hashing; ambient randomness breaks replay",
    ),
    (
        "thread_rng",
        "ambient randomness; use `kaas_simtime::rng` seeded streams",
    ),
    (
        "getrandom",
        "ambient randomness; use `kaas_simtime::rng` seeded streams",
    ),
];

/// Per-file context for the D-rules.
#[derive(Debug, Clone, Copy)]
pub struct FileCtx {
    /// `crates/simtime` implements the time/RNG authority and the
    /// executor's thread-local context: exempt from D2 and D3.
    pub is_simtime: bool,
}

impl FileCtx {
    /// Derives the context from a path (the `simtime` crate is exempt
    /// from D2/D3).
    pub fn from_path(path: &Path) -> Self {
        let p = path.to_string_lossy().replace('\\', "/");
        FileCtx {
            is_simtime: p.contains("crates/simtime/"),
        }
    }
}

/// Runs D1–D3 over one source file.
pub fn scan_determinism(path: &Path, src: &str, ctx: FileCtx) -> Vec<Diagnostic> {
    let stripped = strip_source(src);
    let toks = tokenize(&stripped.text);
    let mut out = Vec::new();

    // Names of allowed (annotated) unordered maps: they must never be
    // iterated anywhere in the file.
    let mut allowed_names: Vec<String> = Vec::new();

    for (ti, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Word {
            continue;
        }
        let w = word(&stripped.text, t);
        let line = stripped.line_of(t.start);

        // --- D1: unordered collections -------------------------------
        if w == "HashMap" || w == "HashSet" {
            if let Some(allow) = stripped.allow_for(line, "unordered") {
                allow.used.set(true);
                if let Some(name) = declared_name_before(&stripped, &toks, ti) {
                    if !allowed_names.contains(&name) {
                        allowed_names.push(name);
                    }
                }
            } else {
                out.push(Diagnostic {
                    file: path.to_path_buf(),
                    line,
                    rule: Rule::D1Unordered,
                    message: format!(
                        "`{w}` iterates in per-process random order and breaks seeded replay; \
                         use `BTreeMap`/`BTreeSet`, or annotate \
                         `// audit:allow(unordered): <why>` and never iterate it"
                    ),
                });
            }
        }

        // --- D2: ambient authority -----------------------------------
        if !ctx.is_simtime {
            let ambient = AMBIENT_WORDS.iter().find(|(bad, _)| *bad == w);
            let is_std_thread = w == "std"
                && toks.get(ti + 1).map(|t| t.kind) == Some(TokKind::Punct(b':'))
                && toks.get(ti + 2).map(|t| t.kind) == Some(TokKind::Punct(b':'))
                && toks
                    .get(ti + 3)
                    .is_some_and(|t| word(&stripped.text, t) == "thread");
            if let Some((bad, why)) = ambient {
                if let Some(allow) = stripped.allow_for(line, "ambient") {
                    allow.used.set(true);
                } else {
                    out.push(Diagnostic {
                        file: path.to_path_buf(),
                        line,
                        rule: Rule::D2Ambient,
                        message: format!("`{bad}`: {why}"),
                    });
                }
            }
            if is_std_thread {
                if let Some(allow) = stripped.allow_for(line, "ambient") {
                    allow.used.set(true);
                } else {
                    out.push(Diagnostic {
                        file: path.to_path_buf(),
                        line,
                        rule: Rule::D2Ambient,
                        message: "`std::thread`: OS threads introduce scheduling nondeterminism; \
                                  the simulation is single-threaded by contract"
                            .into(),
                    });
                }
            }
        }

        // --- D3: mutable static state --------------------------------
        if !ctx.is_simtime {
            let is_static_mut = w == "static"
                && toks
                    .get(ti + 1)
                    .is_some_and(|t| t.kind == TokKind::Word && word(&stripped.text, t) == "mut");
            let is_thread_local = w == "thread_local";
            if is_static_mut || is_thread_local {
                if let Some(allow) = stripped.allow_for(line, "mutable-static") {
                    allow.used.set(true);
                } else {
                    let what = if is_thread_local {
                        "`thread_local!`"
                    } else {
                        "`static mut`"
                    };
                    out.push(Diagnostic {
                        file: path.to_path_buf(),
                        line,
                        rule: Rule::D3MutableStatic,
                        message: format!(
                            "{what}: mutable static state outside `simtime` survives across \
                             simulations and breaks replay isolation"
                        ),
                    });
                }
            }
        }
    }

    // Second pass: annotated unordered maps must never be iterated.
    for name in &allowed_names {
        out.extend(find_iterations(path, &stripped, &toks, name));
    }

    // Annotation hygiene: malformed or unknown-slug annotations.
    for a in &stripped.allows {
        if !a.has_why {
            out.push(Diagnostic {
                file: path.to_path_buf(),
                line: a.line,
                rule: slug_rule(&a.slug).unwrap_or(Rule::D1Unordered),
                message: format!(
                    "malformed annotation: `audit:allow({})` requires a reason — \
                     `// audit:allow({}): <why>`",
                    a.slug, a.slug
                ),
            });
        } else if slug_rule(&a.slug).is_none() {
            out.push(Diagnostic {
                file: path.to_path_buf(),
                line: a.line,
                rule: Rule::D1Unordered,
                message: format!(
                    "unknown audit:allow slug `{}` (expected one of: unordered, ambient, \
                     mutable-static)",
                    a.slug
                ),
            });
        } else if !a.used.get() {
            out.push(Diagnostic {
                file: path.to_path_buf(),
                line: a.line,
                rule: slug_rule(&a.slug).unwrap(),
                message: format!(
                    "stale annotation: `audit:allow({})` suppresses nothing on the line it covers",
                    a.slug
                ),
            });
        }
    }

    out
}

fn slug_rule(slug: &str) -> Option<Rule> {
    match slug {
        "unordered" => Some(Rule::D1Unordered),
        "ambient" => Some(Rule::D2Ambient),
        "mutable-static" => Some(Rule::D3MutableStatic),
        _ => None,
    }
}

/// The binding name declared on the same line as `toks[ti]` (a
/// `HashMap`/`HashSet` token): `name: HashMap<..>` or `let name = ..`.
fn declared_name_before(stripped: &Stripped, toks: &[Token], ti: usize) -> Option<String> {
    let line = stripped.line_of(toks[ti].start);
    // Walk backwards over tokens on the same line.
    let mut j = ti;
    while j > 0 && stripped.line_of(toks[j - 1].start) == line {
        j -= 1;
    }
    let line_toks = &toks[j..ti];
    // `let [mut] name` anywhere before the token.
    for (k, t) in line_toks.iter().enumerate() {
        if t.kind == TokKind::Word && word(&stripped.text, t) == "let" {
            let mut n = k + 1;
            if line_toks
                .get(n)
                .is_some_and(|t| word(&stripped.text, t) == "mut")
            {
                n += 1;
            }
            if let Some(nt) = line_toks.get(n) {
                if nt.kind == TokKind::Word {
                    return Some(word(&stripped.text, nt).to_string());
                }
            }
        }
    }
    // `name :` immediately before the type (struct field or let-with-type);
    // a `::` path separator does not count.
    for k in 0..line_toks.len().saturating_sub(1) {
        if line_toks[k].kind == TokKind::Word
            && line_toks[k + 1].kind == TokKind::Punct(b':')
            && line_toks.get(k + 2).map(|t| t.kind) != Some(TokKind::Punct(b':'))
        {
            let name = word(&stripped.text, &line_toks[k]);
            if !matches!(name, "pub" | "crate" | "super" | "self") {
                return Some(name.to_string());
            }
        }
    }
    None
}

/// Flags iteration of the annotated map `name`: method chains reaching
/// an iterator method, or `for … in` loops over it.
fn find_iterations(
    path: &Path,
    stripped: &Stripped,
    toks: &[Token],
    name: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (ti, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Word || word(&stripped.text, t) != name {
            continue;
        }
        // Method-chain walk: name[.method(args)]* — flag iterator methods.
        let mut j = ti + 1;
        while j + 1 < toks.len() && toks[j].kind == TokKind::Punct(b'.') {
            let m = &toks[j + 1];
            if m.kind != TokKind::Word {
                break;
            }
            let mname = word(&stripped.text, m);
            if ITER_METHODS.contains(&mname) {
                out.push(Diagnostic {
                    file: path.to_path_buf(),
                    line: stripped.line_of(m.start),
                    rule: Rule::D1Unordered,
                    message: format!(
                        "annotated unordered map `{name}` is iterated via `.{mname}()` — \
                         the audit:allow(unordered) contract is keyed access only"
                    ),
                });
                break;
            }
            j += 2;
            if toks.get(j).map(|t| t.kind) == Some(TokKind::Punct(b'(')) {
                j = skip_group(toks, j, b'(', b')');
            }
        }
        // `for pat in [&[mut]] path.to.name` loops.
        if ti >= 1 {
            let mut k = ti;
            // Walk back over a dotted path: (word .)* name.
            while k >= 2
                && toks[k - 1].kind == TokKind::Punct(b'.')
                && toks[k - 2].kind == TokKind::Word
            {
                k -= 2;
            }
            let mut p = k;
            while p >= 1 {
                match toks[p - 1].kind {
                    TokKind::Punct(b'&') => p -= 1,
                    TokKind::Word if word(&stripped.text, &toks[p - 1]) == "mut" => p -= 1,
                    _ => break,
                }
            }
            if p >= 1
                && toks[p - 1].kind == TokKind::Word
                && word(&stripped.text, &toks[p - 1]) == "in"
            {
                out.push(Diagnostic {
                    file: path.to_path_buf(),
                    line: stripped.line_of(t.start),
                    rule: Rule::D1Unordered,
                    message: format!(
                        "annotated unordered map `{name}` is iterated by a `for` loop — \
                         the audit:allow(unordered) contract is keyed access only"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R1: InvokeError exhaustiveness
// ---------------------------------------------------------------------------

/// CamelCase → kebab-case (`DeviceOom` → `device-oom`).
pub fn kebab(variant: &str) -> String {
    let mut out = String::new();
    for (i, c) in variant.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('-');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Cross-checks the `InvokeError` enum against its `KINDS` table and
/// the failure exhaustiveness test.
pub fn check_error_kinds(
    protocol_path: &Path,
    protocol_src: &str,
    test_path: &Path,
    test_src: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let stripped = strip_source(protocol_src);
    let toks = tokenize(&stripped.text);

    // Locate `enum InvokeError { ... }` and collect variants.
    let mut variants: Vec<(String, usize)> = Vec::new();
    let mut kinds: Vec<String> = Vec::new();
    let mut kinds_line = 0usize;
    let mut i = 0;
    while i < toks.len() {
        let is_enum = toks[i].kind == TokKind::Word
            && word(&stripped.text, &toks[i]) == "enum"
            && toks
                .get(i + 1)
                .is_some_and(|t| word(&stripped.text, t) == "InvokeError");
        if is_enum {
            let mut j = i + 2;
            while j < toks.len() && toks[j].kind != TokKind::Punct(b'{') {
                j += 1;
            }
            let end = skip_group(&toks, j, b'{', b'}');
            let mut k = j + 1;
            let mut expect_variant = true;
            while k < end.saturating_sub(1) {
                match toks[k].kind {
                    TokKind::Punct(b'#') => {
                        // Attribute: skip `#[ ... ]`.
                        if toks.get(k + 1).map(|t| t.kind) == Some(TokKind::Punct(b'[')) {
                            k = skip_group(&toks, k + 1, b'[', b']');
                        } else {
                            k += 1;
                        }
                    }
                    TokKind::Punct(b'(') => k = skip_group(&toks, k, b'(', b')'),
                    TokKind::Punct(b',') => {
                        expect_variant = true;
                        k += 1;
                    }
                    TokKind::Word if expect_variant => {
                        let name = word(&stripped.text, &toks[k]).to_string();
                        variants.push((name, stripped.line_of(toks[k].start)));
                        expect_variant = false;
                        k += 1;
                    }
                    _ => k += 1,
                }
            }
            i = end;
            continue;
        }
        let is_kinds =
            toks[i].kind == TokKind::Word && word(&stripped.text, &toks[i]) == "KINDS" && {
                // Declaration site, not a use: `KINDS : [ ... ] = [ ... ]`.
                toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Punct(b':'))
            };
        if is_kinds {
            kinds_line = stripped.line_of(toks[i].start);
            // Find the `= [` initializer and collect string literals.
            let mut j = i;
            while j < toks.len() && toks[j].kind != TokKind::Punct(b'=') {
                j += 1;
            }
            while j < toks.len() && toks[j].kind != TokKind::Punct(b'[') {
                j += 1;
            }
            let end = skip_group(&toks, j, b'[', b']');
            let seg_start = toks[j].start;
            let seg_end = toks.get(end.saturating_sub(1)).map_or(seg_start, |t| t.end);
            kinds.extend(string_literals(
                &stripped.text,
                protocol_src,
                seg_start,
                seg_end,
            ));
            i = end;
            continue;
        }
        i += 1;
    }

    if variants.is_empty() {
        out.push(Diagnostic {
            file: protocol_path.to_path_buf(),
            line: 1,
            rule: Rule::R1ErrorKinds,
            message: "could not find `enum InvokeError`".into(),
        });
        return out;
    }

    if variants.len() != kinds.len() {
        out.push(Diagnostic {
            file: protocol_path.to_path_buf(),
            line: kinds_line.max(1),
            rule: Rule::R1ErrorKinds,
            message: format!(
                "`InvokeError::KINDS` lists {} labels but the enum declares {} variants",
                kinds.len(),
                variants.len()
            ),
        });
    }
    for (idx, (name, line)) in variants.iter().enumerate() {
        let expect = kebab(name);
        match kinds.get(idx) {
            Some(k) if *k == expect => {}
            Some(k) => out.push(Diagnostic {
                file: protocol_path.to_path_buf(),
                line: *line,
                rule: Rule::R1ErrorKinds,
                message: format!(
                    "KINDS[{idx}] is \"{k}\" but variant `{name}` expects \"{expect}\" \
                     (declaration order)"
                ),
            }),
            None if variants.len() == kinds.len() => unreachable!(),
            None => {}
        }
    }

    // Every variant must be exercised by the failure exhaustiveness test
    // (by variant name or by its kind label).
    let test_stripped = strip_source(test_src);
    for (name, line) in &variants {
        let label = kebab(name);
        let by_name = test_stripped.text.contains(&format!("InvokeError::{name}"));
        let by_label = test_src.contains(&format!("\"{label}\""));
        if !by_name && !by_label {
            out.push(Diagnostic {
                file: protocol_path.to_path_buf(),
                line: *line,
                rule: Rule::R1ErrorKinds,
                message: format!(
                    "variant `{name}` (\"{label}\") is not exercised by {}",
                    test_path.display()
                ),
            });
        }
    }
    out
}

/// String literal contents between `start..end` (offsets into the
/// stripped text), read back from the original source.
fn string_literals(stripped_text: &str, original: &str, start: usize, end: usize) -> Vec<String> {
    let bytes = stripped_text.as_bytes();
    let mut out = Vec::new();
    let mut i = start;
    while i < end.min(bytes.len()) {
        if bytes[i] == b'"' {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != b'"' {
                j += 1;
            }
            out.push(original[i + 1..j].to_string());
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R2: metric inventory
// ---------------------------------------------------------------------------

const EMIT_METHODS: [&str; 8] = [
    "inc",
    "add",
    "observe",
    "set_gauge",
    "inc_fmt",
    "add_fmt",
    "observe_fmt",
    "set_gauge_fmt",
];

/// One declared metric name pattern from `metrics/INVENTORY`.
#[derive(Debug, Clone)]
pub struct InventoryEntry {
    /// The name pattern; `{...}` holes match any non-empty segment.
    pub pattern: String,
    /// 1-based line in the INVENTORY file.
    pub line: usize,
    /// `~`-prefixed entries: the name is computed at the call site (no
    /// single literal), so the static never-emitted check skips them;
    /// the runtime sanitizer still matches against them.
    pub computed: bool,
}

/// Parses the INVENTORY file: one metric name pattern per line,
/// `#`-comments and blank lines ignored, `~` prefix marking
/// computed-name entries.
pub fn parse_inventory(src: &str) -> Vec<InventoryEntry> {
    src.lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let t = l.trim();
            if t.is_empty() || t.starts_with('#') {
                return None;
            }
            let (pattern, computed) = match t.strip_prefix('~') {
                Some(p) => (p.trim(), true),
                None => (t, false),
            };
            Some(InventoryEntry {
                pattern: pattern.to_string(),
                line: i + 1,
                computed,
            })
        })
        .collect()
}

/// Collects every metric name pattern emitted through the registry in
/// `src` (literal first arguments of `.inc/.add/.observe/.set_gauge`
/// and their `_fmt` variants, including `&format!("...")` and
/// `format_args!("...")` patterns, verbatim), skipping
/// `#[cfg(test)] mod` blocks. Returns (pattern, line).
pub fn emitted_metrics(src: &str) -> Vec<(String, usize)> {
    let stripped = strip_source(src);
    let toks = tokenize(&stripped.text);
    let excluded = cfg_test_ranges(&stripped.text, &toks);
    let mut out = Vec::new();

    for (ti, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct(b'.') {
            continue;
        }
        let Some(m) = toks.get(ti + 1) else { continue };
        if m.kind != TokKind::Word || !EMIT_METHODS.contains(&word(&stripped.text, m)) {
            continue;
        }
        if toks.get(ti + 2).map(|t| t.kind) != Some(TokKind::Punct(b'(')) {
            continue;
        }
        if excluded.iter().any(|(s, e)| t.start >= *s && t.start < *e) {
            continue;
        }
        // First argument, char-wise from just past the '('.
        let mut k = ti + 3;
        if toks.get(k).map(|t| t.kind) == Some(TokKind::Punct(b'&')) {
            k += 1;
        }
        let Some(arg) = toks.get(k) else { continue };
        let pattern = match arg.kind {
            TokKind::Punct(b'"') => {
                // String literal: content from the original source.
                string_literals(&stripped.text, src, arg.start, usize::MAX)
                    .into_iter()
                    .next()
            }
            TokKind::Word if matches!(word(&stripped.text, arg), "format" | "format_args") => {
                // format!("...") / format_args!("..."): find the macro's
                // literal.
                let mut q = k + 1;
                while q < toks.len() {
                    match toks[q].kind {
                        TokKind::Punct(b'"') => break,
                        TokKind::Punct(b')') => {
                            q = toks.len();
                            break;
                        }
                        _ => q += 1,
                    }
                }
                toks.get(q).and_then(|qt| {
                    string_literals(&stripped.text, src, qt.start, usize::MAX)
                        .into_iter()
                        .next()
                })
            }
            _ => None,
        };
        if let Some(p) = pattern {
            out.push((p, stripped.line_of(t.start)));
        }
    }
    out
}

/// Byte ranges of `#[cfg(test)] mod … { … }` blocks in the stripped text.
fn cfg_test_ranges(text: &str, toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].kind == TokKind::Punct(b'#')
            && toks[i + 1].kind == TokKind::Punct(b'[')
            && word_is(text, toks.get(i + 2), "cfg")
            && toks[i + 3].kind == TokKind::Punct(b'(')
            && word_is(text, toks.get(i + 4), "test")
            && toks[i + 5].kind == TokKind::Punct(b')')
            && toks[i + 6].kind == TokKind::Punct(b']');
        if is_cfg_test {
            // Skip any further attributes, then expect `mod name {`.
            let mut j = i + 7;
            while toks.get(j).map(|t| t.kind) == Some(TokKind::Punct(b'#'))
                && toks.get(j + 1).map(|t| t.kind) == Some(TokKind::Punct(b'['))
            {
                j = skip_group(toks, j + 1, b'[', b']');
            }
            if word_is(text, toks.get(j), "mod") {
                let mut b = j;
                while b < toks.len() && toks[b].kind != TokKind::Punct(b'{') {
                    b += 1;
                }
                let end = skip_group(toks, b, b'{', b'}');
                let end_off = toks
                    .get(end.saturating_sub(1))
                    .map_or(text.len(), |t| t.end);
                out.push((toks[i].start, end_off));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn word_is(text: &str, t: Option<&Token>, expect: &str) -> bool {
    t.is_some_and(|t| t.kind == TokKind::Word && word(text, t) == expect)
}

/// Cross-checks emitted metric patterns against the declared inventory,
/// both directions.
pub fn check_metric_inventory(
    inventory_path: &Path,
    inventory_src: &str,
    files: &[(PathBuf, String)],
) -> Vec<Diagnostic> {
    let inventory = parse_inventory(inventory_src);
    let mut used: Vec<bool> = inventory.iter().map(|e| e.computed).collect();
    let mut out = Vec::new();

    for (path, src) in files {
        for (pattern, line) in emitted_metrics(src) {
            match inventory.iter().position(|e| e.pattern == pattern) {
                Some(idx) => used[idx] = true,
                None => out.push(Diagnostic {
                    file: path.clone(),
                    line,
                    rule: Rule::R2MetricInventory,
                    message: format!(
                        "metric `{pattern}` is not declared in {} — typo'd names record \
                         nothing silently",
                        inventory_path.display()
                    ),
                }),
            }
        }
    }
    for (idx, entry) in inventory.iter().enumerate() {
        if !used[idx] {
            out.push(Diagnostic {
                file: inventory_path.to_path_buf(),
                line: entry.line,
                rule: Rule::R2MetricInventory,
                message: format!(
                    "declared metric `{}` is never emitted (stale entry?)",
                    entry.pattern
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full audit over a workspace root.
///
/// # Errors
///
/// Propagates I/O failures reading the tree.
pub fn audit_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut files = Vec::new();
    for krate in DETERMINISTIC_CRATES {
        collect_rs_files(&root.join("crates").join(krate), &mut files)?;
    }
    // The facade crate's own sources obey the same rules.
    collect_rs_files(&root.join("src"), &mut files)?;
    files.sort();

    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let ctx = FileCtx::from_path(path);
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        report
            .diagnostics
            .extend(scan_determinism(&rel, &src, ctx).into_iter().map(|mut d| {
                d.file = rel.clone();
                d
            }));
        report.files_scanned += 1;
    }

    // R1: protocol enum vs KINDS vs the failure exhaustiveness test.
    let protocol = root.join("crates/core/src/protocol.rs");
    let failure_test = root.join("tests/failure_and_errors.rs");
    if protocol.is_file() && failure_test.is_file() {
        report.diagnostics.extend(check_error_kinds(
            Path::new("crates/core/src/protocol.rs"),
            &std::fs::read_to_string(&protocol)?,
            Path::new("tests/failure_and_errors.rs"),
            &std::fs::read_to_string(&failure_test)?,
        ));
    } else {
        report.diagnostics.push(Diagnostic {
            file: PathBuf::from("crates/core/src/protocol.rs"),
            line: 1,
            rule: Rule::R1ErrorKinds,
            message: "protocol.rs or tests/failure_and_errors.rs missing".into(),
        });
    }

    // R2: emitted metric names vs the declared inventory.
    let inventory_path = root.join("crates/core/src/metrics/INVENTORY");
    match std::fs::read_to_string(&inventory_path) {
        Ok(inventory_src) => {
            let mut core_files = Vec::new();
            collect_rs_files(&root.join("crates/core/src"), &mut core_files)?;
            let mut sources = Vec::new();
            for f in core_files {
                let rel = f.strip_prefix(root).unwrap_or(&f).to_path_buf();
                sources.push((rel, std::fs::read_to_string(&f)?));
            }
            report.diagnostics.extend(check_metric_inventory(
                Path::new("crates/core/src/metrics/INVENTORY"),
                &inventory_src,
                &sources,
            ));
        }
        Err(_) => report.diagnostics.push(Diagnostic {
            file: PathBuf::from("crates/core/src/metrics/INVENTORY"),
            line: 1,
            rule: Rule::R2MetricInventory,
            message: "metrics INVENTORY file missing".into(),
        }),
    }

    report.sort();
    Ok(report)
}

/// Runs only the per-file D-rules over explicit files (fixture mode).
///
/// # Errors
///
/// Propagates I/O failures reading the files.
pub fn audit_files(paths: &[PathBuf]) -> io::Result<Report> {
    let mut report = Report::default();
    for path in paths {
        let src = std::fs::read_to_string(path)?;
        report
            .diagnostics
            .extend(scan_determinism(path, &src, FileCtx::from_path(path)));
        report.files_scanned += 1;
    }
    report.sort();
    Ok(report)
}

// ---------------------------------------------------------------------------
// Runtime half: inventory pattern matching for the sim-sanitizer
// ---------------------------------------------------------------------------

/// Whether a concrete metric name matches *some* pattern in the given
/// INVENTORY source. Used by the runtime sanitizer to validate live
/// registry contents against the same file the static pass enforces.
pub fn inventory_matches(inventory_src: &str, name: &str) -> bool {
    parse_inventory(inventory_src)
        .iter()
        .any(|e| pattern_matches(&e.pattern, name))
}

/// Whether a concrete metric name matches an inventory pattern, where
/// `{...}` interpolations match any non-empty segment. Used by the
/// runtime sanitizer to validate live registry contents against the
/// same INVENTORY the static pass enforces.
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    // Split the pattern into literal segments around `{...}` holes:
    // `a.{x}.b` → ["a.", ".b"]. k holes yield k+1 literals (possibly
    // empty at the edges).
    let mut segs: Vec<&str> = Vec::new();
    let mut rest = pattern;
    loop {
        match rest.find('{') {
            Some(open) => {
                segs.push(&rest[..open]);
                match rest[open..].find('}') {
                    Some(close) => rest = &rest[open + close + 1..],
                    // Unbalanced brace: treat the pattern as a literal.
                    None => return pattern == name,
                }
            }
            None => {
                segs.push(rest);
                break;
            }
        }
    }
    // Greedy left-to-right match; every hole must be non-empty.
    let mut pos = 0usize;
    let last = segs.len() - 1;
    for (idx, seg) in segs.iter().enumerate() {
        if idx == 0 {
            if !name.starts_with(seg) {
                return false;
            }
            pos = seg.len();
        } else {
            // A hole precedes this literal and must consume ≥ 1 char.
            if pos >= name.len() {
                return false;
            }
            if seg.is_empty() {
                if idx == last {
                    // Trailing hole swallows the rest of the name.
                    return true;
                }
                pos += 1;
                continue;
            }
            match name[pos + 1..].find(seg) {
                Some(at) => pos = pos + 1 + at + seg.len(),
                None => return false,
            }
        }
    }
    pos == name.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_json_is_stable_and_escaped() {
        let d = Diagnostic {
            file: PathBuf::from("crates/core/src/x.rs"),
            line: 7,
            rule: Rule::D1Unordered,
            message: "a \"quoted\"\nthing".to_string(),
        };
        assert_eq!(
            d.to_json(),
            "{\"file\":\"crates/core/src/x.rs\",\"line\":7,\"rule\":\"D1\",\
             \"slug\":\"unordered\",\"message\":\"a \\\"quoted\\\"\\nthing\"}"
        );
        let r = Diagnostic {
            file: PathBuf::from("f.rs"),
            line: 1,
            rule: Rule::R1ErrorKinds,
            message: String::new(),
        };
        assert!(r.to_json().contains("\"slug\":null"));
    }

    fn scan(src: &str) -> Vec<Diagnostic> {
        scan_determinism(
            Path::new("crates/core/src/x.rs"),
            src,
            FileCtx { is_simtime: false },
        )
    }

    #[test]
    fn hashmap_without_annotation_fires_d1() {
        let d = scan("pub fn f() { let m: std::collections::HashMap<u32,u32> = Default::default(); m.len(); }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::D1Unordered);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn annotated_hashmap_is_allowed() {
        let src =
            "struct S {\n    m: HashMap<u32, u32>, // audit:allow(unordered): keyed only\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn annotated_map_iterated_fires_d1() {
        let src = "struct S {\n    m: HashMap<u32, u32>, // audit:allow(unordered): keyed only\n}\nimpl S { fn f(&self) -> u32 { self.m.values().sum() } }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("values"));
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn annotated_map_for_loop_fires_d1() {
        let src = "struct S {\n    m: HashMap<u32, u32>, // audit:allow(unordered): keyed only\n}\nimpl S { fn f(&self) { for _ in &self.m {} } }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("for"));
    }

    #[test]
    fn multiline_chain_is_followed() {
        let src = "struct S {\n    m: HashMap<u32, u32>, // audit:allow(unordered): keyed only\n}\nimpl S { fn f(&self) -> usize { self.m\n  .borrow()\n  .keys()\n  .count() } }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("keys"));
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let src = "// HashMap Instant::now SystemTime\nfn f() -> &'static str { \"HashMap thread_local\" }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn instant_fires_d2_outside_simtime_only() {
        let src = "fn f() { let _ = std::time::Instant::now(); }";
        let d = scan(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::D2Ambient);
        let exempt = scan_determinism(
            Path::new("crates/simtime/src/x.rs"),
            src,
            FileCtx { is_simtime: true },
        );
        assert!(exempt.is_empty());
    }

    #[test]
    fn std_thread_fires_d2() {
        let d = scan("fn f() { std::thread::yield_now(); }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::D2Ambient);
    }

    #[test]
    fn static_mut_and_thread_local_fire_d3() {
        let d = scan("static mut X: u32 = 0;\nthread_local! { static Y: u32 = 0; }\n");
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.rule == Rule::D3MutableStatic));
    }

    #[test]
    fn malformed_annotation_fires() {
        let src = "struct S { m: HashMap<u32,u32> } // audit:allow(unordered)\n";
        let d = scan(src);
        // The missing-why annotation does not suppress, so both the D1
        // finding and the malformed-annotation finding fire.
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("requires a reason")));
    }

    #[test]
    fn stale_annotation_fires() {
        let src = "fn f() {} // audit:allow(unordered): nothing here\n";
        let d = scan(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("stale"));
    }

    #[test]
    fn standalone_annotation_covers_next_line() {
        let src =
            "struct S {\n    // audit:allow(unordered): keyed only\n    m: HashMap<u32, u32>,\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn standalone_annotation_does_not_cover_its_own_line_or_beyond() {
        // The annotation covers only line 2; the map on line 3 fires.
        let src = "// audit:allow(unordered): too far away\nfn f() {}\nstruct S { m: HashMap<u32, u32> }\n";
        let d = scan(src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("stale")));
        assert!(d.iter().any(|d| d.line == 3));
    }

    #[test]
    fn kebab_case_conversion() {
        assert_eq!(kebab("DeviceOom"), "device-oom");
        assert_eq!(kebab("TimedOut"), "timed-out");
        assert_eq!(kebab("Disconnected"), "disconnected");
        assert_eq!(kebab("UnknownKernel"), "unknown-kernel");
    }

    #[test]
    fn r1_detects_count_mismatch() {
        let proto = "pub enum InvokeError { A(String), BadThing }\nimpl InvokeError { pub const KINDS: [&'static str; 1] = [\"a\"]; }\n";
        let test = "fn f() { let _ = (InvokeError::A(String::new()), InvokeError::BadThing); }";
        let d = check_error_kinds(Path::new("p.rs"), proto, Path::new("t.rs"), test);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("1 labels"));
    }

    #[test]
    fn r1_clean_when_consistent() {
        let proto = "pub enum InvokeError { DeviceOom(String), TimedOut }\nimpl InvokeError { pub const KINDS: [&'static str; 2] = [\"device-oom\", \"timed-out\"]; }\n";
        let test = "fn f() { let _ = \"device-oom\"; let _ = InvokeError::TimedOut; }";
        let d = check_error_kinds(Path::new("p.rs"), proto, Path::new("t.rs"), test);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn r2_flags_undeclared_and_stale_metrics() {
        let inv = "# comment\ninvocations\nnever.emitted\n";
        let src = "fn f(m: &M) { m.inc(\"invocations\"); m.inc(\"typo.metric\"); }";
        let d = check_metric_inventory(
            Path::new("INVENTORY"),
            inv,
            &[(PathBuf::from("x.rs"), src.to_string())],
        );
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("typo.metric")));
        assert!(d.iter().any(|d| d.message.contains("never.emitted")));
    }

    #[test]
    fn r2_normalizes_format_patterns_verbatim() {
        let inv = "errors.{}\nfaults.{kind}\n";
        let src = "fn f(m: &M, e: E) { m.inc(&format!(\"errors.{}\", e.kind())); m.inc(&format!(\"faults.{kind}\")); }";
        let d = check_metric_inventory(
            Path::new("INVENTORY"),
            inv,
            &[(PathBuf::from("x.rs"), src.to_string())],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn r2_reads_format_args_like_format() {
        let inv = "invocations.{k}\n{}.utilization\nbytes.{k}\n{name}.{k}\n";
        let src = "fn f(m: &M, d: D) {\n\
                   m.inc_fmt(format_args!(\"invocations.{k}\"));\n\
                   m.set_gauge_fmt(\n    format_args!(\"{}.utilization\", d.id()),\n    0.5,\n);\n\
                   m.add_fmt(format_args!(\"bytes.{k}\"), 2);\n\
                   m.observe_fmt(format_args!(\"{name}.{k}\"), 1.0);\n}";
        let emitted = emitted_metrics(src);
        let patterns: Vec<&str> = emitted.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            patterns,
            [
                "invocations.{k}",
                "{}.utilization",
                "bytes.{k}",
                "{name}.{k}"
            ]
        );
        assert_eq!(emitted[1].1, 3, "reported on the call's line");
        let d = check_metric_inventory(
            Path::new("INVENTORY"),
            inv,
            &[(PathBuf::from("x.rs"), src.to_string())],
        );
        assert!(d.is_empty(), "{d:?}");
        let d = check_metric_inventory(
            Path::new("INVENTORY"),
            "invocations.{k}\n",
            &[(
                PathBuf::from("x.rs"),
                "fn f(m: &M) { m.inc_fmt(format_args!(\"typo.{k}\")); }".into(),
            )],
        );
        assert_eq!(d.len(), 2, "undeclared and stale: {d:?}");
    }

    #[test]
    fn r2_skips_cfg_test_modules() {
        let inv = "real.metric\n";
        let src = "fn f(m: &M) { m.inc(\"real.metric\"); }\n#[cfg(test)]\nmod tests { fn g(m: &M) { m.inc(\"adhoc\"); } }\n";
        let d = check_metric_inventory(
            Path::new("INVENTORY"),
            inv,
            &[(PathBuf::from("x.rs"), src.to_string())],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn pattern_matching_for_runtime_checks() {
        assert!(pattern_matches("invocations", "invocations"));
        assert!(!pattern_matches("invocations", "invocation"));
        assert!(pattern_matches("errors.{}", "errors.timed-out"));
        assert!(!pattern_matches("errors.{}", "errors."));
        assert!(pattern_matches("{}.utilization", "device0.utilization"));
        assert!(pattern_matches(
            "breaker.{device}.state",
            "breaker.device3.state"
        ));
        assert!(pattern_matches("{name}.{k}", "latency.server.matmul"));
        assert!(!pattern_matches("{name}.{k}", "invocations"));
    }

    #[test]
    fn raw_strings_and_chars_are_stripped() {
        let src = "fn f() { let _ = r#\"HashMap Instant\"#; let c = 'I'; let _lt: &'static str = \"x\"; }";
        assert!(scan(src).is_empty());
    }
}
