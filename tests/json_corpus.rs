//! The JSON under every frame and log line, pinned from outside.
//!
//! This file uses nothing but `serde_json::{to_string, from_str}` on public
//! types, so it runs unchanged on both sides of a change to the serializer.
//! It was written, recorded and run at 61888c5 — where `to_string` built a
//! `Value` tree and wrote it out, and `from_str` parsed a tree and walked
//! it — and must keep passing, fixtures unedited, on any serializer that
//! replaces that one.
//!
//! * **Encode.** `fixtures/json_corpus.golden` holds one `name<TAB>line` per
//!   corpus entry: every `Request` and `Reply` variant, the store's header
//!   and record, the WAL's header, `History`, `SessionOptions`, every kind of
//!   `Param` and `ParamValue`, a `TuningReport`, with control characters,
//!   quotes, backslashes, non-ASCII text, the integer extremes, `-0.0`,
//!   `1e-300` and the non-finite reals. `to_string(value)` must be the
//!   line, and for every entry a float field can read back,
//!   `to_string(from_str(line))` must be the line too.
//!   `fixtures/json_corpus.wal` is a whole write-ahead log (the `EvalRecord`
//!   type is private; its lines are pinned through the file).
//! * **Decode.** Each line is taken apart into a token tree and put back
//!   together in ways the reader must not care about (keys shuffled at
//!   every level, unknown keys with nested values, a later duplicate of a
//!   key, whitespace between tokens, every `\u` form of every character,
//!   an integer literal where a float is wanted) or must refuse (a missing
//!   field, a float where an integer is wanted, out-of-range integers, a
//!   second key beside an enum tag, every strict prefix of the line).
//! * **Outcomes.** `fixtures/json_corpus.outcomes` holds, per entry, the
//!   number of accepted inputs and an FNV-1a digest over the outcome
//!   (`Err`, or the re-encoded `Ok` value) of a seeded stream of mutants,
//!   including character-level damage. A reader that accepts, refuses or
//!   decodes any of them differently changes the digest.
//!
//! The recorder is the `#[ignore]`d test at the bottom; it prints, it does
//! not write. The fixtures are never to be re-recorded alongside a change
//! to `vendor/serde*`.

use ah_core::history::{Evaluation, History, ParamChange, TraceRow};
use ah_core::param::Param;
use ah_core::report::TuningReport;
use ah_core::server::protocol::{FetchedTrial, Reply, Request, StrategyKind, TrialReport};
use ah_core::session::SessionOptions;
use ah_core::space::Configuration;
use ah_core::store::{StoreHeader, StoreRecord, STORE_KIND, STORE_VERSION};
use ah_core::value::ParamValue;
use ah_core::wal::{WalHeader, WalSession};
use proptest::prelude::*;
use proptest::Gen;
use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, Value};
use std::collections::HashMap;

const GOLDEN: &str = include_str!("fixtures/json_corpus.golden");
const OUTCOMES: &str = include_str!("fixtures/json_corpus.outcomes");
const GOLDEN_WAL: &str = include_str!("fixtures/json_corpus.wal");

/// Every escape class the writer knows, then text it must pass through.
const NASTY: &str = "ctl\u{1}\u{8}\u{c}\n\r\t\u{1f}\u{7f} \"q\" b\\s /s é ✓ 😀";

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

struct Case {
    name: &'static str,
    /// `to_string` of the entry's value.
    line: String,
    /// Decode as the entry's type and encode again.
    reencode: fn(&str) -> Result<String, String>,
    /// False for an entry holding a non-finite real: it is written as
    /// `null`, which a float field refuses.
    reads_back: bool,
}

fn reencode<T: Serialize + Deserialize>(text: &str) -> Result<String, String> {
    from_str::<T>(text)
        .map(|v| to_string(&v).expect("a decoded value serializes"))
        .map_err(|e| e.to_string())
}

fn entry<T: Serialize + Deserialize>(name: &'static str, value: T) -> Case {
    Case {
        name,
        line: to_string(&value).expect("corpus values serialize"),
        reencode: reencode::<T>,
        reads_back: true,
    }
}

fn write_only<T: Serialize + Deserialize>(name: &'static str, value: T) -> Case {
    Case {
        reads_back: false,
        ..entry(name, value)
    }
}

/// A configuration with one value of every shape; `real` is the knob.
fn config(real: f64) -> Configuration {
    Configuration::new(
        vec!["nodes".into(), "tol".into(), NASTY.into()],
        vec![
            ParamValue::Int(i64::MIN),
            ParamValue::Real(real),
            ParamValue::Enum {
                index: usize::MAX,
                label: NASTY.into(),
            },
        ],
    )
}

fn params() -> Vec<Param> {
    vec![
        Param::Int {
            name: "nodes".into(),
            min: i64::MIN,
            max: i64::MAX,
            step: 1,
        },
        Param::Real {
            name: "tol".into(),
            min: -0.0,
            max: 1e-300,
        },
        Param::Enum {
            name: NASTY.into(),
            choices: vec!["lxyes".into(), NASTY.into(), String::new()],
        },
    ]
}

fn options() -> SessionOptions {
    SessionOptions {
        max_evaluations: usize::MAX,
        no_improve_limit: 0,
        max_cached_replays: 64,
        seed: u64::MAX,
        target_cost: Some(1e300),
    }
}

fn history() -> History {
    let mut h = History::new();
    h.push(Evaluation {
        iteration: 1,
        config: config(0.5),
        cost: 55.06,
        cached: false,
        cumulative_time: 60.0,
    });
    h.push(Evaluation {
        iteration: 2,
        config: config(-0.0),
        cost: 1e-300,
        cached: true,
        cumulative_time: 60.0,
    });
    h
}

fn corpus() -> Vec<Case> {
    let [p_int, p_real, p_enum]: [Param; 3] = params().try_into().expect("three kinds");
    vec![
        // Requests, every variant.
        entry(
            "req.register",
            Request::Register {
                app: NASTY.into(),
                tenant: "team-é".into(),
            },
        ),
        entry(
            "req.register.default-tenant",
            Request::Register {
                app: "gs2".into(),
                tenant: String::new(),
            },
        ),
        entry(
            "req.attach",
            Request::Attach {
                session: u64::MAX,
                tenant: String::new(),
            },
        ),
        entry("req.heartbeat", Request::Heartbeat),
        entry("req.leave", Request::Leave),
        entry(
            "req.add-param.int",
            Request::AddParam {
                param: p_int.clone(),
            },
        ),
        entry(
            "req.add-param.real",
            Request::AddParam {
                param: p_real.clone(),
            },
        ),
        entry(
            "req.add-param.enum",
            Request::AddParam {
                param: p_enum.clone(),
            },
        ),
        entry(
            "req.add-chain",
            Request::AddMonotoneChain {
                names: vec!["b1".into(), NASTY.into()],
            },
        ),
        entry(
            "req.add-chain.empty",
            Request::AddMonotoneChain { names: vec![] },
        ),
        entry(
            "req.seal",
            Request::Seal {
                options: options(),
                strategy: StrategyKind::Grid { target: 100 },
            },
        ),
        entry(
            "req.seal.defaults",
            Request::Seal {
                options: SessionOptions::default(),
                strategy: StrategyKind::NelderMead,
            },
        ),
        entry("req.fetch", Request::Fetch),
        entry(
            "req.report",
            Request::Report {
                cost: 55.06,
                wall_time: 60.0,
            },
        ),
        write_only(
            "req.report.non-finite",
            Request::Report {
                cost: f64::NAN,
                wall_time: f64::INFINITY,
            },
        ),
        entry("req.fetch-batch", Request::FetchBatch { max: usize::MAX }),
        entry(
            "req.report-batch",
            Request::ReportBatch {
                reports: vec![
                    TrialReport {
                        iteration: 4,
                        cost: 1.25,
                        wall_time: 2.5,
                    },
                    TrialReport {
                        iteration: usize::MAX,
                        cost: -0.0,
                        wall_time: 1e-300,
                    },
                ],
            },
        ),
        entry(
            "req.report-batch.empty",
            Request::ReportBatch { reports: vec![] },
        ),
        entry(
            "req.exchange",
            Request::Exchange {
                reports: vec![TrialReport {
                    iteration: 4,
                    cost: 1.25,
                    wall_time: -0.0,
                }],
                max: 1,
            },
        ),
        entry(
            "req.exchange.empty",
            Request::Exchange {
                reports: vec![],
                max: usize::MAX,
            },
        ),
        entry("req.query-best", Request::QueryBest),
        entry("req.query-history", Request::QueryHistory),
        entry("req.shutdown", Request::Shutdown),
        // Replies, every variant.
        entry(
            "rep.registered",
            Reply::Registered {
                client_id: u64::MAX,
                session: 1,
            },
        ),
        entry("rep.ok", Reply::Ok),
        entry(
            "rep.config",
            Reply::Config {
                config: config(0.5),
                iteration: 2,
                finished: false,
            },
        ),
        entry(
            "rep.configs",
            Reply::Configs {
                trials: vec![
                    FetchedTrial {
                        config: config(0.25),
                        iteration: 1,
                    },
                    FetchedTrial {
                        config: config(1e-300),
                        iteration: 2,
                    },
                ],
                finished: false,
            },
        ),
        entry(
            "rep.configs.finished",
            Reply::Configs {
                trials: vec![],
                finished: true,
            },
        ),
        write_only(
            "rep.configs.non-finite",
            Reply::Configs {
                trials: vec![FetchedTrial {
                    config: config(f64::NAN),
                    iteration: 1,
                }],
                finished: false,
            },
        ),
        entry(
            "rep.best.some",
            Reply::Best {
                best: Some((config(-0.0), 1.5)),
            },
        ),
        entry("rep.best.none", Reply::Best { best: None }),
        entry(
            "rep.history",
            Reply::History {
                history: history(),
                finished: true,
            },
        ),
        entry("rep.error", Reply::busy(NASTY)),
        entry(
            "rep.quota",
            Reply::QuotaExceeded {
                tenant: "team-é".into(),
            },
        ),
        // The store's two line shapes.
        entry(
            "store.header",
            StoreHeader {
                kind: STORE_KIND.into(),
                version: STORE_VERSION,
            },
        ),
        entry(
            "store.record",
            StoreRecord::new(NASTY, u64::MAX, config(1e-300), 1.5, -0.0)
                .with_provenance(u64::MAX, usize::MAX)
                .with_flags(true, false),
        ),
        write_only(
            "store.record.non-finite",
            StoreRecord::new("gs2", 7, config(f64::NEG_INFINITY), f64::NAN, 0.0),
        ),
        // The WAL's header (its records are in `json_corpus.wal`).
        entry(
            "wal.header",
            WalHeader::new(
                NASTY,
                params(),
                vec![vec!["a".into(), NASTY.into()], vec![]],
                StrategyKind::Surrogate,
                options(),
            ),
        ),
        // Everything else that is written somewhere.
        entry("history", history()),
        entry("history.empty", History::new()),
        entry("options", options()),
        entry("options.defaults", SessionOptions::default()),
        entry("param.int", p_int),
        entry("param.real", p_real),
        entry("param.enum", p_enum),
        entry("value.int", ParamValue::Int(i64::MIN)),
        entry("value.real", ParamValue::Real(-0.0)),
        write_only("value.real.non-finite", ParamValue::Real(f64::NAN)),
        entry(
            "value.enum",
            ParamValue::Enum {
                index: 1,
                label: NASTY.into(),
            },
        ),
        entry("strategy.unit", StrategyKind::NelderMead),
        entry("strategy.grid", StrategyKind::Grid { target: 0 }),
        entry("configuration", config(0.25)),
        entry("configuration.empty", Configuration::new(vec![], vec![])),
        entry(
            "report",
            TuningReport {
                label: NASTY.into(),
                default_cost: 100.0,
                tuned_cost: 42.1,
                iterations: 37,
                tuning_time: 1e300,
            },
        ),
        write_only(
            "report.non-finite",
            TuningReport {
                label: "diverged".into(),
                default_cost: f64::INFINITY,
                tuned_cost: f64::NAN,
                iterations: 0,
                tuning_time: f64::NEG_INFINITY,
            },
        ),
        entry(
            "trace-row",
            TraceRow {
                iteration: 3,
                cost: 2.0,
                changes: vec![ParamChange {
                    name: "nodes".into(),
                    from: "4".into(),
                    to: NASTY.into(),
                }],
            },
        ),
    ]
}

/// `name → rest of the line` of a `name<TAB>…` fixture.
fn fixture(text: &'static str) -> HashMap<&'static str, &'static str> {
    text.lines()
        .map(|l| l.split_once('\t').expect("fixture lines are name<TAB>rest"))
        .collect()
}

// ---------------------------------------------------------------------------
// A token tree that can be put back together in more than one way
// ---------------------------------------------------------------------------

/// JSON with its scalars kept as written, so a mutant can carry a literal
/// (`60` for `60.0`, `2^64`) that no `Value` would hold.
#[derive(Clone, Debug)]
enum Json {
    /// A number, `true`, `false` or `null`, verbatim.
    Raw(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

fn lift(v: &Value) -> Json {
    match v {
        Value::String(s) => Json::Str(s.clone()),
        Value::Array(items) => Json::Arr(items.iter().map(lift).collect()),
        Value::Object(entries) => {
            Json::Obj(entries.iter().map(|(k, v)| (k.clone(), lift(v))).collect())
        }
        scalar => Json::Raw(to_string(scalar).expect("scalars serialize")),
    }
}

fn tree(line: &str) -> Json {
    lift(&from_str::<Value>(line).expect("corpus lines parse"))
}

/// How to write a tree out: plainly (the writer's own form), or with the
/// freedoms a reader must allow.
struct Style<'g> {
    /// Whitespace between tokens.
    space: Option<&'g mut Gen>,
    /// Characters of strings and keys as `\u` escapes (and `/` as `\/`).
    escape: Option<&'g mut Gen>,
}

/// The writer's own form.
fn plain(j: &Json) -> String {
    Style {
        space: None,
        escape: None,
    }
    .render(j)
}

impl Style<'_> {
    fn gap(&mut self, out: &mut String) {
        if let Some(gen) = self.space.as_deref_mut() {
            for _ in 0..gen.below(3) {
                out.push([' ', '\t', '\n', '\r'][gen.below(4) as usize]);
            }
        }
    }

    fn string(&mut self, s: &str, out: &mut String) {
        let Some(gen) = self.escape.as_deref_mut() else {
            // The writer's form, taken from the writer.
            out.push_str(&to_string(&s.to_string()).expect("strings serialize"));
            return;
        };
        out.push('"');
        for c in s.chars() {
            let must = matches!(c, '"' | '\\') || (c as u32) < 0x20;
            if !must && gen.below(2) == 0 {
                out.push(c);
                continue;
            }
            if c == '/' && gen.below(2) == 0 {
                out.push_str("\\/");
                continue;
            }
            let upper = gen.below(2) == 0;
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                if upper {
                    out.push_str(&format!("\\u{unit:04X}"));
                } else {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
        out.push('"');
    }

    fn write(&mut self, j: &Json, out: &mut String) {
        match j {
            Json::Raw(token) => out.push_str(token),
            Json::Str(s) => self.string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.gap(out);
                    self.write(item, out);
                    self.gap(out);
                }
                if items.is_empty() {
                    self.gap(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (key, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.gap(out);
                    self.string(key, out);
                    self.gap(out);
                    out.push(':');
                    self.gap(out);
                    self.write(item, out);
                    self.gap(out);
                }
                if entries.is_empty() {
                    self.gap(out);
                }
                out.push('}');
            }
        }
    }

    fn render(&mut self, j: &Json) -> String {
        let mut out = String::new();
        self.gap(&mut out);
        self.write(j, &mut out);
        self.gap(&mut out);
        out
    }
}

/// An object whose first key starts upper-case is an externally tagged
/// enum (`{"Register":{…}}`): variants are CamelCase, fields snake_case,
/// and no corpus type holds a map.
fn is_tag(entries: &[(String, Json)]) -> bool {
    entries
        .first()
        .and_then(|(k, _)| k.chars().next())
        .is_some_and(char::is_uppercase)
}

/// Visit every object that is a struct's field list.
fn each_struct(j: &mut Json, f: &mut impl FnMut(&mut Vec<(String, Json)>)) {
    match j {
        Json::Arr(items) => items.iter_mut().for_each(|i| each_struct(i, f)),
        Json::Obj(entries) => {
            if !is_tag(entries) && !entries.is_empty() {
                f(entries);
            }
            entries.iter_mut().for_each(|(_, v)| each_struct(v, f));
        }
        _ => {}
    }
}

/// Visit every scalar token.
fn each_raw(j: &mut Json, f: &mut impl FnMut(&mut String)) {
    match j {
        Json::Raw(token) => f(token),
        Json::Str(_) => {}
        Json::Arr(items) => items.iter_mut().for_each(|i| each_raw(i, f)),
        Json::Obj(entries) => entries.iter_mut().for_each(|(_, v)| each_raw(v, f)),
    }
}

fn shuffle(j: &mut Json, gen: &mut Gen) {
    match j {
        Json::Arr(items) => items.iter_mut().for_each(|i| shuffle(i, gen)),
        Json::Obj(entries) => {
            for i in (1..entries.len()).rev() {
                entries.swap(i, gen.below(i as u64 + 1) as usize);
            }
            entries.iter_mut().for_each(|(_, v)| shuffle(v, gen));
        }
        _ => {}
    }
}

/// An arbitrary value for a key nobody reads: scalars, strings, and
/// containers nested up to `depth` (sometimes one long chain of arrays).
fn arbitrary(gen: &mut Gen, depth: u32) -> Json {
    const SCALARS: [&str; 8] = [
        "null",
        "true",
        "false",
        "0",
        "-17",
        "3.5e-7",
        "18446744073709551615",
        "1e999",
    ];
    match gen.below(if depth == 0 { 2 } else { 5 }) {
        0 => Json::Raw(SCALARS[gen.below(SCALARS.len() as u64) as usize].into()),
        1 => Json::Str([NASTY, "", "app", "}{][\\u"][gen.below(4) as usize].into()),
        2 => Json::Arr(
            (0..gen.below(4))
                .map(|_| arbitrary(gen, depth - 1))
                .collect(),
        ),
        3 => Json::Obj(
            (0..gen.below(4))
                .map(|i| {
                    let key = ["app", "config", "Int", NASTY][i as usize].to_string();
                    (key, arbitrary(gen, depth - 1))
                })
                .collect(),
        ),
        _ => (0..60).fold(Json::Arr(vec![]), |inner, _| Json::Arr(vec![inner])),
    }
}

fn insert_unknown(j: &mut Json, gen: &mut Gen) {
    each_struct(j, &mut |entries| {
        for n in 0..1 + gen.below(2) {
            let at = gen.below(entries.len() as u64 + 1) as usize;
            entries.insert(at, (format!("zz_unknown_{n}"), arbitrary(gen, 4)));
        }
    });
}

/// Repeat one key of every struct, later, with some other value.
fn duplicate_later(j: &mut Json, gen: &mut Gen) {
    each_struct(j, &mut |entries| {
        let from = gen.below(entries.len() as u64) as usize;
        let at = from + 1 + gen.below((entries.len() - from) as u64) as usize;
        let key = entries[from].0.clone();
        entries.insert(at, (key, arbitrary(gen, 3)));
    });
}

fn outcome(case: &Case, text: &str) -> Result<String, String> {
    (case.reencode)(text)
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

#[test]
fn every_entry_encodes_to_its_golden_line() {
    let golden = fixture(GOLDEN);
    let corpus = corpus();
    assert_eq!(golden.len(), corpus.len(), "one golden line per entry");
    for case in &corpus {
        assert_eq!(
            Some(&case.line.as_str()),
            golden.get(case.name),
            "{}",
            case.name
        );
    }
}

#[test]
fn every_entry_reads_back_to_its_own_bytes() {
    for case in corpus() {
        let back = outcome(&case, &case.line);
        if case.reads_back {
            assert_eq!(back.as_ref(), Ok(&case.line), "{}", case.name);
        } else {
            // A non-finite real is written `null`, and `null` is no number.
            let err = back.expect_err(case.name);
            assert!(err.contains("found null"), "{}: {err}", case.name);
        }
        // The token tree the mutants are cut from is the line itself.
        assert_eq!(plain(&tree(&case.line)), case.line, "{}", case.name);
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ah-json-corpus-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Five evaluations of a small seeded search, logged; the file's text.
fn write_the_wal(path: &std::path::Path) -> String {
    let header = WalHeader::new(
        NASTY,
        vec![
            Param::int("x", 0, 60, 1),
            Param::enumeration("é", ["a", "\"b\""]),
        ],
        vec![],
        StrategyKind::NelderMead,
        SessionOptions {
            max_evaluations: 40,
            seed: 3,
            ..Default::default()
        },
    );
    let _ = std::fs::remove_file(path);
    let (mut wal, _) = WalSession::open_or_create(path, &header).expect("create the log");
    for (i, cost) in [55.06, -0.0, 1e-300, 1e300, 0.5].into_iter().enumerate() {
        let trial = wal.suggest().expect("suggest").expect("budget left");
        wal.report_timed(trial, cost, i as f64).expect("append");
    }
    drop(wal);
    std::fs::read_to_string(path).expect("read the log back")
}

#[test]
fn the_wal_writes_and_resumes_its_golden_log() {
    let dir = scratch_dir("wal");
    assert_eq!(write_the_wal(&dir.join("written.wal")), GOLDEN_WAL);

    // The golden file resumes to all five evaluations and is not touched.
    let resumed = dir.join("resumed.wal");
    std::fs::write(&resumed, GOLDEN_WAL).unwrap();
    let (wal, outstanding) = WalSession::resume(&resumed).unwrap();
    assert_eq!(wal.replayed(), 5);
    assert!(outstanding.is_empty());
    drop(wal);
    assert_eq!(std::fs::read_to_string(&resumed).unwrap(), GOLDEN_WAL);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Decode: what the reader must not care about, and what it must refuse
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Key order, unknown keys, later duplicates, whitespace and escape
    /// forms, alone and together, never change the decoded value.
    #[test]
    fn the_decoded_value_ignores_layout(seed in 0u64..u64::MAX) {
        for case in corpus().iter().filter(|c| c.reads_back) {
            let mut gen = Gen::new(seed);
            let (mut space, mut escape) = (Gen::new(seed ^ 1), Gen::new(seed ^ 2));
            let mut j = tree(&case.line);
            let picks = 1 + gen.below(31);
            if picks & 1 != 0 {
                insert_unknown(&mut j, &mut gen);
            }
            if picks & 2 != 0 {
                duplicate_later(&mut j, &mut gen);
            }
            if picks & 4 != 0 {
                shuffle(&mut j, &mut gen);
            }
            let text = Style {
                space: (picks & 8 != 0).then_some(&mut space),
                escape: (picks & 16 != 0).then_some(&mut escape),
            }
            .render(&j);
            // A duplicate inserted before a shuffle may land first; then
            // *it* wins, with a value of the wrong shape or none at all.
            // Only the unshuffled duplicate has a known answer.
            if picks & 6 == 6 {
                let _ = outcome(case, &text);
                continue;
            }
            prop_assert_eq!(outcome(case, &text), Ok(case.line.clone()));
        }
    }
}

#[test]
fn a_missing_field_is_named_unless_it_has_a_default() {
    // `Register.tenant` and `Attach.tenant` are the two `#[serde(default)]`
    // fields on the wire (both declared last): what is left of their
    // struct when `tenant` is taken out.
    let lost_tenant =
        |entries: &[(String, Json)]| matches!(entries, [(k, _)] if k == "app" || k == "session");
    for case in corpus().iter().filter(|c| c.reads_back) {
        let mut fields = 0;
        each_struct(&mut tree(&case.line), &mut |entries| {
            fields += entries.len()
        });
        for nth in 0..fields {
            // Take the nth field (in visiting order) out of its struct.
            let mut j = tree(&case.line);
            let (mut skip, mut removed, mut defaulted) = (nth, None, false);
            each_struct(&mut j, &mut |entries| {
                if removed.is_some() {
                } else if skip >= entries.len() {
                    skip -= entries.len();
                } else {
                    let (key, _) = entries.remove(skip);
                    defaulted = key == "tenant" && lost_tenant(entries);
                    removed = Some(key);
                }
            });
            let removed = removed.expect("the nth field exists");
            let got = outcome(case, &plain(&j));
            if defaulted {
                each_struct(&mut j, &mut |entries| {
                    if lost_tenant(entries) {
                        entries.push(("tenant".into(), Json::Str(String::new())));
                    }
                });
                assert_eq!(got, Ok(plain(&j)), "{}", case.name);
            } else {
                let err = got.expect_err(case.name);
                assert!(
                    err.contains(&format!("missing field `{removed}`")),
                    "{}: removed `{removed}`, got: {err}",
                    case.name
                );
            }
        }
    }
}

#[test]
fn integers_read_as_floats_but_floats_never_as_integers() {
    for case in corpus().iter().filter(|c| c.reads_back) {
        let mut tokens = 0;
        each_raw(&mut tree(&case.line), &mut |_| tokens += 1);
        for nth in 0..tokens {
            // Replace the nth scalar by each candidate; `None` leaves it.
            let rewrite = |f: &dyn Fn(&str) -> Option<String>| {
                let mut j = tree(&case.line);
                let (mut seen, mut hit) = (0, false);
                each_raw(&mut j, &mut |token| {
                    if seen == nth {
                        if let Some(new) = f(token) {
                            *token = new;
                            hit = true;
                        }
                    }
                    seen += 1;
                });
                hit.then(|| plain(&j))
            };
            let is_int = |t: &str| {
                t.trim_start_matches('-')
                    .bytes()
                    .all(|b| b.is_ascii_digit())
            };
            // A short `N.0` where a float is wanted may be written `N`
            // (`-0` is the integer zero and loses its sign: left alone).
            if let Some(text) = rewrite(&|t| {
                t.strip_suffix(".0")
                    .filter(|n| is_int(n) && n.len() <= 15 && *n != "-0")
                    .map(str::to_string)
            }) {
                assert_eq!(outcome(case, &text), Ok(case.line.clone()), "{}", case.name);
            }
            // An integer field refuses every float spelling of its value,
            // and every integer no 64-bit type holds.
            for spelling in [".0", ".5", "e0", "E+0"] {
                if let Some(text) = rewrite(&|t| is_int(t).then(|| format!("{t}{spelling}"))) {
                    assert!(outcome(case, &text).is_err(), "{}: {text}", case.name);
                }
            }
            for huge in ["18446744073709551616", "-9223372036854775809"] {
                if let Some(text) = rewrite(&|t| is_int(t).then(|| huge.to_string())) {
                    assert!(outcome(case, &text).is_err(), "{}: {text}", case.name);
                }
            }
        }
    }
}

#[test]
fn integer_fields_are_range_checked_by_their_type() {
    let ok = |text: &str| reencode::<Request>(text).is_ok();
    assert!(ok(r#"{"Attach":{"session":18446744073709551615}}"#));
    assert!(!ok(r#"{"Attach":{"session":18446744073709551616}}"#));
    assert!(!ok(r#"{"Attach":{"session":-1}}"#));
    assert!(!ok(r#"{"FetchBatch":{"max":-1}}"#));
    assert!(ok(r#"{"FetchBatch":{"max":0}}"#));
    assert!(ok(r#"{"FetchBatch":{"max":007}}"#));
    assert!(reencode::<StoreHeader>(r#"{"kind":"k","version":4294967295}"#).is_ok());
    assert!(reencode::<StoreHeader>(r#"{"kind":"k","version":4294967296}"#).is_err());
    assert!(reencode::<ParamValue>(r#"{"Int":-9223372036854775808}"#).is_ok());
    assert!(reencode::<ParamValue>(r#"{"Int":9223372036854775807}"#).is_ok());
    assert!(reencode::<ParamValue>(r#"{"Int":9223372036854775808}"#).is_err());
    // A float field takes any number, `1e999` as +inf (pinned over TCP);
    // what it then writes is `null`.
    assert_eq!(
        reencode::<ParamValue>(r#"{"Real":1e999}"#).as_deref(),
        Ok(r#"{"Real":null}"#)
    );
    assert_eq!(
        reencode::<ParamValue>(r#"{"Real":-0}"#).as_deref(),
        Ok(r#"{"Real":0.0}"#)
    );
    assert_eq!(
        reencode::<ParamValue>(r#"{"Real":18446744073709551615}"#).as_deref(),
        Ok(r#"{"Real":18446744073709552000.0}"#)
    );
    assert!(reencode::<ParamValue>(r#"{"Real":18446744073709551616}"#).is_err());
}

#[test]
fn enums_are_a_string_or_exactly_one_key() {
    let req = reencode::<Request>;
    // A unit variant is its name, or its name with `null`.
    assert_eq!(req(r#""Fetch""#).as_deref(), Ok(r#""Fetch""#));
    assert_eq!(req(r#"{"Fetch":null}"#).as_deref(), Ok(r#""Fetch""#));
    assert_eq!(req(r#" { "Fetch" : null } "#).as_deref(), Ok(r#""Fetch""#));
    assert!(req(r#"{"Fetch":0}"#).is_err());
    assert!(req(r#"{"Fetch":{}}"#).is_err());
    assert!(req(r#"{"Fetch":null,"Fetch":null}"#).is_err());
    assert_eq!(
        reencode::<StrategyKind>(r#"{"Pro":null}"#).as_deref(),
        Ok(r#""Pro""#)
    );
    // A variant with fields is never a bare string.
    assert!(req(r#""FetchBatch""#).is_err());
    assert!(req(r#""Nope""#).is_err());
    assert!(req(r#"{"Nope":null}"#).is_err());
    assert!(req("{}").is_err());
    assert!(req("[]").is_err());
    assert!(req("null").is_err());
    assert!(req("7").is_err());
    // A second key beside the tag is refused wherever it stands, even an
    // unknown one, even a repeat of the tag.
    for case in corpus().iter().filter(|c| c.reads_back) {
        let Json::Obj(entries) = tree(&case.line) else {
            continue;
        };
        if !is_tag(&entries) {
            continue;
        }
        for extra in [
            ("zz_unknown".to_string(), Json::Raw("null".into())),
            entries[0].clone(),
        ] {
            for at in [0, 1] {
                let mut two = entries.clone();
                two.insert(at, extra.clone());
                let text = plain(&Json::Obj(two));
                assert!(outcome(case, &text).is_err(), "{}: {text}", case.name);
            }
        }
    }
}

#[test]
fn unicode_escapes_decode_as_they_always_have() {
    // `q(&["0041", "x"])` is the JSON string of a `\u` escape per four-digit
    // piece and every other piece verbatim.
    let q = |pieces: &[&str]| {
        let body: String = pieces
            .iter()
            .map(|p| match p.len() {
                4 => format!("\\u{p}"),
                _ => p.to_string(),
            })
            .collect();
        format!("\"{body}\"")
    };
    let s = |text: &str| from_str::<String>(text).map_err(|e| e.to_string());
    let ok = |pieces: &[&str]| s(&q(pieces)).expect("decodes");
    assert_eq!(ok(&["0041", "00e9", "00E9", "2713"]), "Aéé✓");
    assert_eq!(ok(&["d83d", "de00"]), "😀");
    assert_eq!(ok(&["D83D", "DE00"]), "😀");
    assert_eq!(ok(&["0000"]), "\0");
    assert_eq!(
        s(r#""\"\\\/\b\f\n\r\t""#).as_deref(),
        Ok("\"\\/\u{8}\u{c}\n\r\t")
    );
    // Raw control characters and DEL inside a string are let through.
    assert_eq!(s("\"a\tb\nc\u{7f}\"").as_deref(), Ok("a\tb\nc\u{7f}"));
    // A high surrogate needs a `\u` right behind it …
    assert!(s(&q(&["d83d"])).is_err());
    assert!(s(&q(&["d83d", "x"])).is_err());
    assert!(s(&q(&["d83d", "\\n"])).is_err());
    // … whose low ten bits are taken whatever it is (it is never checked to
    // be a low surrogate; kept as found) …
    assert_eq!(ok(&["d83d", "0041"]), "\u{1f441}");
    // … a low one on its own is no character …
    assert!(s(&q(&["de00"])).is_err());
    // … a sign counts as a hex digit (`from_str_radix`'s doing, kept) …
    assert_eq!(ok(&["+041"]), "A");
    // … and everything cut short or mistyped is refused.
    for bad in [
        &["\\u"][..],
        &["\\u0"],
        &["\\u00"],
        &["\\u004"],
        &["00g1"],
        &["-041"],
        &["\\x41"],
        &["\\"],
        &["d83d", "\\u"],
        &["d83d", "\\ude0"],
        &["\\u00é"],
    ] {
        assert!(s(&q(bad)).is_err(), "{bad:?}");
    }
    assert!(s("\"\\u004").is_err());
    assert!(s("\"\\").is_err());
    // Keys are strings like any other.
    let key = format!("{{{}:{{\"max\":9}}}}", q(&["0046", "etchBatch"]));
    assert_eq!(
        reencode::<Request>(&key).as_deref(),
        Ok(r#"{"FetchBatch":{"max":9}}"#)
    );
}

#[test]
fn every_strict_prefix_of_every_line_is_refused() {
    for case in corpus() {
        for cut in (0..case.line.len()).filter(|&i| case.line.is_char_boundary(i)) {
            let prefix = &case.line[..cut];
            assert!(
                outcome(&case, prefix).is_err(),
                "{}: accepted the {cut}-byte prefix {prefix}",
                case.name
            );
        }
        if case.reads_back {
            // And anything but whitespace behind the value is refused too.
            assert!(outcome(&case, &format!("{} \n", case.line)).is_ok());
            for tail in ["x", ",", "}", "]", "\"", "0", "null", "{}"] {
                let text = format!("{} {tail}", case.line);
                assert!(outcome(&case, &text).is_err(), "{}: {text}", case.name);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Outcomes of a seeded stream of mutants, pinned by digest
// ---------------------------------------------------------------------------

const MUTANTS_PER_ENTRY: u64 = 400;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Damage one character: delete it, replace it, or insert beside it, from
/// an alphabet of everything the grammar gives meaning to.
fn damage(text: &str, gen: &mut Gen) -> String {
    const ALPHABET: &[u8] = b"{}[]\",:\\u/ 0123456789.+-eEnultrfasINF\n";
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..1 + gen.below(2) {
        let with = ALPHABET[gen.below(ALPHABET.len() as u64) as usize] as char;
        if chars.is_empty() {
            chars.push(with);
            continue;
        }
        let at = gen.below(chars.len() as u64) as usize;
        match gen.below(3) {
            0 => {
                chars.remove(at);
            }
            1 => chars[at] = with,
            _ => chars.insert(at, with),
        }
    }
    chars.into_iter().collect()
}

/// The entry's `(accepted, digest)` over its seeded stream of mutants.
fn mutant_outcomes(case: &Case) -> (u64, u64) {
    let mut seed = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut seed, case.name.as_bytes());
    let (mut accepted, mut digest) = (0, 0xcbf2_9ce4_8422_2325);
    for n in 0..MUTANTS_PER_ENTRY {
        let mut gen = Gen::new(seed.wrapping_add(n));
        let (mut space, mut escape) = (Gen::new(seed ^ n ^ 1), Gen::new(seed ^ n ^ 2));
        let mut j = tree(&case.line);
        let picks = gen.below(128);
        if picks & 1 != 0 {
            insert_unknown(&mut j, &mut gen);
        }
        if picks & 2 != 0 {
            duplicate_later(&mut j, &mut gen);
        }
        if picks & 4 != 0 {
            shuffle(&mut j, &mut gen);
        }
        if picks & 8 != 0 {
            // Some scalar becomes some other scalar.
            let mut tokens = 0;
            each_raw(&mut j, &mut |_| tokens += 1);
            if tokens > 0 {
                let (nth, mut seen) = (gen.below(tokens), 0);
                let new = arbitrary(&mut gen, 0);
                each_raw(&mut j, &mut |token| {
                    if let (true, Json::Raw(new)) = (seen == nth, &new) {
                        token.clone_from(new);
                    }
                    seen += 1;
                });
            }
        }
        let mut text = Style {
            space: (picks & 16 != 0).then_some(&mut space),
            escape: (picks & 32 != 0).then_some(&mut escape),
        }
        .render(&j);
        if picks & 64 != 0 {
            text = damage(&text, &mut gen);
        }
        match outcome(case, &text) {
            Ok(line) => {
                accepted += 1;
                fnv1a(&mut digest, b"ok:");
                fnv1a(&mut digest, line.as_bytes());
            }
            Err(_) => fnv1a(&mut digest, b"err"),
        }
        fnv1a(&mut digest, b"\n");
    }
    (accepted, digest)
}

#[test]
fn mutant_outcomes_match_the_recorded_digests() {
    let recorded = fixture(OUTCOMES);
    let corpus = corpus();
    assert_eq!(recorded.len(), corpus.len(), "one outcome line per entry");
    for case in &corpus {
        let (accepted, digest) = mutant_outcomes(case);
        assert_eq!(
            Some(&format!("{accepted}\t{digest:016x}").as_str()),
            recorded.get(case.name),
            "{}: accepted, digest over {MUTANTS_PER_ENTRY} mutants",
            case.name
        );
    }
}

/// Prints the fixtures between marker lines:
/// `cargo test -p ah-repro --test json_corpus -- --ignored --nocapture`.
#[test]
#[ignore = "recorder: prints the fixtures, run by hand at the recording commit"]
fn print_the_fixtures() {
    let corpus = corpus();
    println!("--- json_corpus.golden");
    for case in &corpus {
        println!("{}\t{}", case.name, case.line);
    }
    println!("--- json_corpus.outcomes");
    for case in &corpus {
        let (accepted, digest) = mutant_outcomes(case);
        println!("{}\t{accepted}\t{digest:016x}", case.name);
    }
    println!("--- json_corpus.wal");
    let dir = scratch_dir("record");
    print!("{}", write_the_wal(&dir.join("recorded.wal")));
    std::fs::remove_dir_all(&dir).ok();
    println!("--- end");
}
