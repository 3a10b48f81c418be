//! The recorder's exports do not depend on how it stores its records.
//!
//! (a) Golden exports, retention off: the JSONL log, the flight dump and
//! `gyan::telemetry`'s merged trace are pinned by length and checksum —
//! of a `simtest` scenario without a GPU, of one on two devices whose log
//! holds the GPU audit (decision, acquire and release records), and of a
//! short day on 32 devices, where id lists and per-device keys outgrow
//! what a record holds in place.
//! (b) A retention/flight model: random recorder sequences, bursts of
//! events among them, against a naive `Vec` reference. (c) `obs::Text`
//! against the `String` it was built from.

use loadgen::{LoadOptions, LoadScenario, Topology};
use obs::flight::{FlightRecord, CAPACITY};
use obs::{EventData, Key, Recorder, Span, SpanData, Text, Value};
use proptest::prelude::*;
use simtest::harness::run_scenario_recorded;
use simtest::{Scenario, SimOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a, 64 bit: enough to pin an export without committing its bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(export, bytes, fnv1a)` of simtest seed 17 (9 waves, 11 submissions,
/// DAGs, three failed jobs), captured at the parent commit 8faed09 —
/// before records moved behind `Arc`s, names and keys became
/// `obs::Key`, and the log became an open map plus close-ordered deques.
/// All three sets were re-captured when both topologies came to route
/// through one destination rule: only its `gyan.rule.decision` records
/// changed (no device count, free list or strict flag; a memory hint for
/// GPU tools; `no_gpus_on_node` renamed `no_gpu_host`).
const GOLDEN: [(&str, usize, u64); 3] = [
    ("recorder.to_jsonl", 32_533, 4_555_828_750_513_638_746),
    ("flight.to_jsonl", 32_612, 5_429_385_306_596_057_404),
    ("telemetry.merged_chrome_trace", 33_724, 7_225_137_611_453_392_637),
];

/// The three pinned exports of `recorder` as `(export, bytes, fnv1a)`,
/// named as `golden` names them.
fn pinned(
    recorder: &Recorder,
    golden: &[(&'static str, usize, u64); 3],
) -> Vec<(&'static str, usize, u64)> {
    let flight = recorder.flight_snapshot();
    let exports = [
        recorder.to_jsonl(),
        flight.to_jsonl(),
        gyan::telemetry::merged_chrome_trace(recorder, &[], &[]).to_json(),
    ];
    golden.iter().zip(&exports).map(|(g, text)| (g.0, text.len(), fnv1a(text))).collect()
}

#[test]
fn exports_are_byte_identical_to_the_parent_commit() {
    let (report, recorder) = run_scenario_recorded(&Scenario::generate(17), &SimOptions::default())
        .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!((report.waves, report.submitted, report.error), (9, 11, 3));
    assert_eq!(pinned(&recorder, &GOLDEN), GOLDEN);
}

/// The same three exports of simtest seed 5: two K80 devices, 15 waves,
/// 10 submissions (a diamond DAG among them), a frozen SMI snapshot and
/// two runner faults, captured at 5770bae. Seed 17 has no GPU; this log
/// holds 7 `gyan.allocation.decision`, 7 `gyan.reservation.acquire` and 7
/// `.release` records, so it guards the GPU audit on a small node.
const GOLDEN_2_DEVICES: [(&str, usize, u64); 3] = [
    ("recorder.to_jsonl", 32_432, 858_855_876_296_384_786),
    ("flight.to_jsonl", 32_512, 15_142_696_553_966_619_801),
    ("telemetry.merged_chrome_trace", 33_583, 466_625_546_112_201_306),
];

#[test]
fn exports_of_a_2_device_scenario_are_byte_identical_to_the_parent_commit() {
    let scenario = Scenario::generate(5);
    assert_eq!(scenario.gpu_count, 2);
    let (report, recorder) =
        run_scenario_recorded(&scenario, &SimOptions::default()).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!((report.waves, report.submitted, report.error), (15, 10, 0));
    let jsonl = recorder.to_jsonl();
    for name in ["gyan.allocation.decision", "gyan.reservation.acquire", "gyan.reservation.release"]
    {
        assert_eq!(jsonl.matches(&format!("\"{name}\"")).count(), 7, "{name}");
    }
    assert_eq!(pinned(&recorder, &GOLDEN_2_DEVICES), GOLDEN_2_DEVICES);
}

/// The same three exports of a five-minute day on 32 devices (half the
/// jobs GPU jobs, a fifth of those failing their GPU try), first
/// captured at b774b45 and re-captured when a GPU grant became one
/// record in each audit stream (one decision with `pids` / `mem_mib` /
/// `pending_mib` columns, one acquire, one release, each naming its
/// `devices`): the 4 096 per-device lease records of the old capture are
/// 128 grant records here, and the log holds the same facts. The simtest
/// host above has no GPU, so its exports did not move; this one sees
/// minors ≥ 10, id lists of 85 bytes and 32 leases per grant, i.e. every
/// spill path.
const GOLDEN_32_DEVICES: [(&str, usize, u64); 3] = [
    ("recorder.to_jsonl", 396_708, 18_203_694_819_289_252_770),
    ("flight.to_jsonl", 95_905, 119_979_019_568_802_901),
    ("telemetry.merged_chrome_trace", 394_706, 15_310_079_708_633_247_856),
];

#[test]
fn exports_of_a_32_device_day_are_byte_identical_to_the_parent_commit() {
    let mut scenario = LoadScenario::diurnal(17, 150);
    assert_eq!(scenario.topology, Topology::SingleNode { gpus: 32 });
    scenario.duration_s = 300.0;
    scenario.profile.base_rate = 0.5;
    scenario.profile.period_s = 300.0;
    scenario.gpu_fraction = 0.5;
    scenario.gpu_fail_fraction = 0.2;
    let (report, recorder) = loadgen::run_scenario_recorded(&scenario, &LoadOptions::default())
        .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!((report.arrivals, report.ok, report.dropped_events), (146, 146, 0));
    assert_eq!(pinned(&recorder, &GOLDEN_32_DEVICES), GOLDEN_32_DEVICES);
}

/// The naive reference: every record in one `Vec`, found by scanning,
/// evicted by filtering — what the recorder must be indistinguishable
/// from through its readers, apart from being cheaper.
#[derive(Default)]
struct Model {
    /// Retained spans, in open (= id) order.
    spans: Vec<SpanData>,
    /// `(record number, id)` of the retained ended spans, oldest end first.
    ended: Vec<(u64, u64)>,
    /// Retained events with their record numbers, in emit order.
    events: Vec<(u64, EventData)>,
    retain: Option<usize>,
    dropped: (u64, u64),
    /// Ended spans and events recorded so far: the last record number.
    recorded: u64,
    next_id: u64,
}

impl Model {
    fn open(&mut self, name: Key, parent: Option<u64>, now: f64) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.spans.push(SpanData { id, parent, name, start: now, end: None, fields: Vec::new() });
        self.evict();
        id
    }

    fn span_mut(&mut self, id: u64) -> &mut SpanData {
        self.spans.iter_mut().find(|s| s.id == id).expect("open spans are never evicted")
    }

    fn end(&mut self, id: u64, now: f64) {
        self.span_mut(id).end = Some(now);
        self.recorded += 1;
        self.ended.push((self.recorded, id));
    }

    fn event(&mut self, event: EventData) {
        self.recorded += 1;
        self.events.push((self.recorded, event));
        self.evict();
    }

    /// Anything over `limit` goes; ended spans only, oldest end first;
    /// events FIFO.
    fn evict(&mut self) {
        let Some(limit) = self.retain else { return };
        if self.spans.len() > limit {
            let drop_n = (self.spans.len() - limit).min(self.ended.len());
            let gone: Vec<u64> = self.ended.drain(..drop_n).map(|(_, id)| id).collect();
            self.spans.retain(|s| !gone.contains(&s.id));
            self.dropped.0 += drop_n as u64;
        }
        if self.events.len() > limit {
            let drop_n = self.events.len() - limit;
            self.events.drain(..drop_n);
            self.dropped.1 += drop_n as u64;
        }
        // Retained ≤ cap — unless open spans alone exceed it, and then no
        // ended span is kept beside them.
        assert!(self.spans.len() <= limit || self.ended.is_empty());
        assert!(self.events.len() <= limit);
    }

    /// The flight window: the last [`CAPACITY`] retained ended spans and
    /// events by record number, and how many recorded ones it leaves out.
    fn window(&self) -> (Vec<FlightRecord>, u64) {
        let span = |id: u64| self.spans.iter().find(|s| s.id == id).cloned();
        let mut all: Vec<(u64, FlightRecord)> = self
            .ended
            .iter()
            .map(|&(seq, id)| (seq, FlightRecord::Span(span(id).expect("retained"))))
            .chain(self.events.iter().map(|(seq, e)| (*seq, FlightRecord::Event(e.clone()))))
            .collect();
        all.sort_by_key(|(seq, _)| *seq);
        let window = all.split_off(all.len().saturating_sub(CAPACITY));
        let dropped = self.recorded - window.len() as u64;
        (window.into_iter().map(|(_, record)| record).collect(), dropped)
    }
}

/// A name or key: mostly literals, sometimes built at run time (short
/// enough to sit in place, or not) — readers must not be able to tell.
fn key(pick: u32) -> Key {
    match pick % 6 {
        0 => "galaxy.job".into(),
        1 => "gyan.reservation.acquire".into(),
        2 => "device".into(),
        3 => format!("gpu{}_pids", pick % 7).into(),
        4 => format!("galaxy.queue.fair_share.pick.{}", pick % 3).into(),
        _ => String::from("galaxy.job").into(),
    }
}

fn value(pick: u32) -> Value {
    match pick % 4 {
        0 => Value::from(u64::from(pick)),
        1 => Value::from(format!("v{pick}")),
        2 => Value::from(f64::from(pick) / 8.0),
        _ => Value::from(pick % 8 == 3),
    }
}

/// Every reader of `rec` against the model, field by field.
fn assert_same(rec: &Recorder, model: &Model, live: &[(Span, u64)], now: f64) {
    let spans = rec.spans();
    prop_assert_eq!(&spans, &model.spans, "spans(): id-sorted, same survivors");
    prop_assert!(spans.windows(2).all(|w| w[0].id < w[1].id));
    let open: Vec<SpanData> = model.spans.iter().filter(|s| s.end.is_none()).cloned().collect();
    prop_assert_eq!(open.len(), live.len(), "open spans are never evicted");
    prop_assert_eq!(rec.open_spans(), open);
    let events = rec.events();
    let model_events: Vec<EventData> = model.events.iter().map(|(_, e)| e.clone()).collect();
    prop_assert_eq!(&events, &model_events);
    prop_assert_eq!(rec.dropped_log_records(), model.dropped);
    for name in ["galaxy.job", "gpu3_pids"] {
        let named: Vec<EventData> =
            model_events.iter().filter(|e| e.name == name).cloned().collect();
        prop_assert_eq!(rec.events_named(name), named);
    }

    // The window in record order, then the open spans.
    let snap = rec.flight_snapshot();
    let (window, dropped) = model.window();
    let want: Vec<FlightRecord> =
        window.into_iter().chain(open.into_iter().map(FlightRecord::Span)).collect();
    prop_assert_eq!((snap.captured_at, snap.dropped), (now, dropped));
    prop_assert_eq!(&snap.records, &want);
}

proptest! {
    /// Random `span / child / field / event / end / set_log_retention`
    /// sequences: after every operation each reader of the recorder
    /// agrees with the naive model. The clock ticks on a quarter of the
    /// operations, so spans and events often share a timestamp and only
    /// the record number can order the window; bursts of up to 300
    /// events at one clock reading carry it past [`CAPACITY`].
    #[test]
    fn recorder_matches_the_naive_vec_model(
        ops in prop::collection::vec((0u8..18, any::<u32>(), any::<u32>()), 0..160),
    ) {
        let tick = Arc::new(AtomicU64::new(0));
        let clock = tick.clone();
        let rec = Recorder::new();
        rec.set_clock(move || clock.load(Ordering::SeqCst) as f64);
        let mut model = Model::default();
        // Open spans: the recorder's handle and the model's id.
        let mut live: Vec<(Span, u64)> = Vec::new();
        for (op, a, b) in ops {
            if (a >> 16) % 4 == 0 {
                tick.fetch_add(1, Ordering::SeqCst);
            }
            let now = tick.load(Ordering::SeqCst) as f64;
            let at = a as usize % live.len().max(1);
            match op {
                0..=2 => {
                    let id = model.open(key(b), None, now);
                    live.push((rec.span(key(b)), id));
                }
                3 | 4 if !live.is_empty() => {
                    let id = model.open(key(b), Some(live[at].1), now);
                    let child = live[at].0.child(key(b));
                    prop_assert_eq!(child.id(), id);
                    live.push((child, id));
                }
                5 | 6 if !live.is_empty() => {
                    model.span_mut(live[at].1).fields.push((key(b), value(a)));
                    live[at].0.field(key(b), value(a));
                }
                7..=10 if !live.is_empty() => {
                    let (span, id) = live.swap_remove(at);
                    model.end(id, now);
                    if b % 2 == 0 {
                        span.end();
                    } else {
                        drop(span);
                    }
                }
                11..=13 => {
                    let fields: Vec<(Key, Value)> = (0..b % 4)
                        .map(|i| (key(b.wrapping_add(i)), value(a.wrapping_add(i))))
                        .collect();
                    let span = live.get(at).filter(|_| a % 3 == 0);
                    model.event(EventData {
                        name: key(a),
                        t: now,
                        span: span.map(|(_, id)| *id),
                        fields: fields.clone(),
                    });
                    match span {
                        Some((span, _)) => span.event(key(a), fields),
                        None => rec.event(key(a), fields),
                    }
                }
                15..=17 => {
                    // A burst of 0 to 5 events — or, for op 15, up to 300 —
                    // at one clock reading, each led by its row number.
                    let n = if op == 15 { b % 301 } else { b % 6 };
                    for row in 0..n {
                        let rest = (0..a % 3).map(|i| (key(b ^ i), value(a ^ row)));
                        let fields: Vec<(Key, Value)> =
                            std::iter::once(("row".into(), Value::from(row))).chain(rest).collect();
                        model.event(EventData { name: key(a), t: now, span: None, fields: fields.clone() });
                        rec.event(key(a), fields);
                    }
                }
                14 => {
                    let limit = (b % 4 != 0).then_some(a as usize % 12);
                    model.retain = limit;
                    model.evict();
                    rec.set_log_retention(limit);
                }
                _ => {}
            }
            assert_same(&rec, &model, &live, now);
        }
    }
}

/// One char of each UTF-8 width in turn, so that a multi-byte character
/// straddling byte 22 — the in-place bound — is the common case.
fn utf8_char((width, pick): (u8, u32)) -> char {
    let (low, span) = match width {
        0 => (0x20, 0x5f),
        1 => (0x80, 0x780),
        2 => (0x800, 0xd000),
        _ => (0x1_0000, 0x10_0000),
    };
    char::from_u32(low + pick % span).expect("below the surrogates, or above them")
}

proptest! {
    /// A `Text` is the `String` it was built from, through both run-time
    /// constructors (taking a `String` over, copying `&str` pieces), on
    /// either side of the in-place bound: as text, against `&str`, as a
    /// record's key and value, and in the export.
    #[test]
    fn text_reads_as_the_string_it_was_built_from(
        chars in prop::collection::vec((0u8..4, any::<u32>()), 0..30),
        cut in 0usize..30,
    ) {
        let chars: Vec<char> = chars.into_iter().map(utf8_char).collect();
        let text: String = chars.iter().collect();
        let (head, tail) = chars.split_at(cut.min(chars.len()));
        let (head, tail): (String, String) = (head.iter().collect(), tail.iter().collect());
        let owned = Text::from(text.clone());
        let copied = Text::concat(&[&head, &tail]);
        prop_assert_eq!(&owned, &copied);
        let other = format!("{text}x");
        for built in [&owned, &copied] {
            prop_assert_eq!(built.as_str(), text.as_str());
            prop_assert_eq!(&**built, text.as_str());
            prop_assert!(*built == text && *built == text.as_str() && *built == *text.as_str());
            prop_assert!(*built != other && *built != other.as_str());
            prop_assert_eq!(format!("{built} {built:?}"), format!("{text} {text:?}"));
        }

        let rec = Recorder::new();
        rec.event(copied.clone(), [(owned.clone(), Value::from(text.as_str()))]);
        rec.event(text.clone(), [(text.clone(), Value::from(text.clone()))]);
        let events = rec.events();
        prop_assert_eq!(&events[0].fields, &events[1].fields);
        for event in &events {
            prop_assert!(event.name == text.as_str());
            prop_assert_eq!(event.field(&text).and_then(Value::as_str), Some(text.as_str()));
            prop_assert!(event.field(&other).is_none());
        }
        prop_assert_eq!(rec.events_named(&text).len(), 2);
        let jsonl = rec.to_jsonl();
        let (first, second) = jsonl.split_at(jsonl.len() / 2);
        prop_assert_eq!(first, second);
    }
}
