//! A server's timed work, on one thread: `harmony-chores` keeps the
//! deadlines of a [`HarmonyServer`](super::HarmonyServer) — the sampler tick
//! of [`ServerConfig::timeseries`], one store-log pull per sync peer, the
//! `/fleet` builds the observe plane posts — in one list, runs what is due
//! ([`run_due`]), and sleeps in one `recv_timeout` until the next deadline or
//! post. Dropping the server's only sender ends the thread. A dead peer's
//! pull holds up every job for the plane's 2 s timeout, so each failed pull
//! in a row doubles that peer's delay, up to 32 intervals.

use super::observe::{http_get, StoreLogHeader, STORE_LOG_KIND};
use super::ServerConfig;
use crate::store::SharedStore;
use crate::telemetry::timeseries::DEFAULT_SAMPLE_INTERVAL;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The anti-entropy pull period when `ServerConfig::sync_interval` is zero.
const DEFAULT_SYNC_INTERVAL: Duration = Duration::from_millis(500);

/// Most doublings of a failing peer's pull delay: 2⁵ = 32 intervals.
const MAX_DOUBLINGS: u32 = 5;

/// Timed work: run it, get the delay until it is due again (`None`: done).
pub(crate) type Job = Box<dyn FnMut() -> Option<Duration> + Send>;

/// Run every job due at `now`, reschedule each from `now`, drop the
/// finished ones, and return the earliest deadline left. The clock is an
/// argument, so a caller can drive the list without a thread.
pub(crate) fn run_due(jobs: &mut Vec<(Instant, Job)>, now: Instant) -> Option<Instant> {
    jobs.retain_mut(|(due, job)| *due > now || job().map(|after| *due = now + after).is_some());
    jobs.iter().map(|(due, _)| *due).min()
}

/// How a pull reads a peer: [`http_get`], or a stand-in in tests.
type Get = fn(&str, &str) -> std::io::Result<(u16, String)>;

/// The anti-entropy pull of `peer`, as a job: fetch its store log from our
/// byte mark, merge it under the store lock through the store's own reader
/// (first write wins, so re-pulls are harmless), and advance the mark past
/// the record lines the body held; an unparseable or cut tail is refetched
/// next round. The mark is a byte offset into one generation of the peer's
/// log file; when the header names another (the peer compacted or
/// restarted, and records may have moved beneath the mark) the next pull
/// starts from 0. A peer that is down or speaks garbage means a retry,
/// later each time it fails again.
fn pull(peer: String, store: SharedStore, every: Duration, get: Get) -> Job {
    let (mut at, mut generation, mut failures) = (0, None, 0);
    Box::new(move || {
        let check = |h: &StoreLogHeader| match h.kind.as_str() {
            STORE_LOG_KIND => Ok(()),
            kind => Err(format!("not a store log (kind {kind:?})")),
        };
        let merged = match get(&peer, &format!("/store/log?at={at}")) {
            Ok((200, body)) => store
                .with(|store| store.merge_log(body.as_bytes(), check))
                .map(|(h, end, _, _)| (h, end - body.find('\n').map_or(0, |i| i + 1))),
            _ => None,
        };
        failures = match merged {
            // `read`: the bytes of the peer's record lines, less our header.
            Some((h, read)) => {
                let anchored = h.start == 0 || generation == Some(h.generation);
                at = if anchored { h.start + read as u64 } else { 0 };
                generation = Some(h.generation);
                0
            }
            None => (failures + 1).min(MAX_DOUBLINGS),
        };
        Some(every * (1 << failures))
    })
}

/// The `harmony-chores` thread, and the only sender to it.
pub(crate) struct Chores {
    tx: Arc<Sender<Job>>,
    thread: JoinHandle<()>,
}

impl Chores {
    /// Start the thread for `cfg`'s timed work, every job first due now:
    /// the sampler tick with a series, one pull per sync peer with a store.
    /// `None` with no series and no peer, since a `/fleet` with no peers is
    /// built on the observe plane's loop.
    pub(crate) fn start(cfg: &ServerConfig) -> Option<Chores> {
        if cfg.timeseries.is_none() && cfg.sync_peers.is_empty() {
            return None;
        }
        let or = |d: Duration, default| if d.is_zero() { default } else { d };
        let mut jobs: Vec<Job> = Vec::new();
        if let Some(series) = cfg.timeseries.clone() {
            let every = or(cfg.sample_interval, DEFAULT_SAMPLE_INTERVAL);
            jobs.push(Box::new(move || {
                series.sample_now();
                Some(every)
            }));
        }
        if let Some(store) = &cfg.store {
            let every = or(cfg.sync_interval, DEFAULT_SYNC_INTERVAL);
            for peer in &cfg.sync_peers {
                jobs.push(pull(peer.clone(), store.clone(), every, http_get));
            }
        }
        let now = Instant::now();
        let mut jobs: Vec<(Instant, Job)> = jobs.into_iter().map(|job| (now, job)).collect();
        let (tx, rx) = channel::<Job>();
        let thread = std::thread::Builder::new()
            .name("harmony-chores".into())
            .spawn(move || loop {
                let wait = match run_due(&mut jobs, Instant::now()) {
                    Some(due) => due.saturating_duration_since(Instant::now()),
                    None => Duration::MAX, // wait for a post alone
                };
                match rx.recv_timeout(wait) {
                    // First in the list: whoever posted it is waiting.
                    Ok(job) => jobs.insert(0, (Instant::now(), job)),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            })
            .expect("spawn harmony-chores");
        let tx = Arc::new(tx);
        Some(Chores { tx, thread })
    }

    /// Where the observe plane posts its `/fleet` builds.
    pub(crate) fn poster(&self) -> Poster {
        Poster(Arc::downgrade(&self.tx))
    }

    /// Drop the only sender, which ends the thread, and join it.
    pub(crate) fn stop(self) {
        drop(self.tx);
        let _ = self.thread.join();
    }
}

/// Posts one-shot work to the chores thread without keeping it alive.
#[derive(Default)]
pub(crate) struct Poster(Weak<Sender<Job>>);

impl Poster {
    /// Queue `f` to run once; `false` when there is no chores thread.
    pub(crate) fn post(&self, f: impl FnOnce() + Send + 'static) -> bool {
        let mut f = Some(f);
        // Runs `f` the first time, then leaves the list.
        let job: Job = Box::new(move || f.take().map(|f| f()).and(None));
        self.0.upgrade().is_some_and(|tx| tx.send(job).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable_log::push_line;
    use crate::store::StoreRecord;
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicUsize, Ordering};

    thread_local! {
        /// Whether the stand-in peer answers.
        static UP: Cell<bool> = const { Cell::new(false) };
        /// The records [`serving`] answers with.
        static BODY: RefCell<String> = const { RefCell::new(String::new()) };
        /// The paths [`serving`] was asked for.
        static ASKED: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    }

    /// A peer whose log, from 0, is the lines in [`BODY`].
    fn serving(_: &str, path: &str) -> std::io::Result<(u16, String)> {
        ASKED.with(|asked| asked.borrow_mut().push(path.to_string()));
        let header = format!("{{\"kind\":\"{STORE_LOG_KIND}\",\"start\":0,\"generation\":1}}\n");
        Ok((200, BODY.with(|body| format!("{header}{}", body.borrow()))))
    }

    #[test]
    fn a_pull_stops_at_a_record_whose_names_and_values_differ_in_number() {
        let line = |x: i64, values: &str| {
            format!(
                "{{\"app\":\"a\",\"fingerprint\":1,\"config\":{{\"names\":[\"x\"],\"values\":[{values}]}},\
                 \"cost_bits\":{x},\"wall_bits\":0,\"session\":0,\"iteration\":0,\"requeued\":false,\"replayed\":false}}\n"
            )
        };
        let odd = line(2, "{\"Int\":2},{\"Int\":3}");
        let path = std::env::temp_dir().join(format!("ah-chores-odd-{}.store", std::process::id()));
        let every = Duration::from_millis(100);
        // As the peer's last line: the records before it merge.
        for (body, merged) in [
            (format!("{}{odd}", line(1, "{\"Int\":1}")), 1),
            // Followed by a record: damage, and nothing merges.
            (
                format!("{}{odd}{}", line(1, "{\"Int\":1}"), line(3, "{\"Int\":3}")),
                0,
            ),
        ] {
            let _ = std::fs::remove_file(&path);
            let store = SharedStore::open(&path).unwrap();
            BODY.with(|b| *b.borrow_mut() = body);
            let now = Instant::now();
            let mut jobs = vec![(now, pull("peer".into(), store.clone(), every, serving))];
            run_due(&mut jobs, now);
            assert_eq!(store.record_count(), merged);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_pull_re_encodes_the_lines_the_reader_declines_and_its_mark_stops_before_a_bad_one() {
        let line = |app: &str, real: &str, rest: &str| {
            format!(
                "{{\"app\":{app},\"fingerprint\":1,\"config\":{{\"names\":[\"r\"],\"values\":[{{\"Real\":{real}}}]}},\
                 \"cost_bits\":1,\"wall_bits\":2,\"session\":3,\"iteration\":4,{rest}\"requeued\":false,\"replayed\":true}}"
            )
        };
        // An escaped label, a space after a comma, a real that is not in
        // its shortest form: each one the store's reader declines.
        let declined = [
            line("\"a\\\"b\"", "0.5", ""),
            line("\"a\"", "0.25", " "),
            line("\"a\"", "1.50", ""),
        ];
        let body = format!("{}\n{{\"not\":\"a record\"}}\n", declined.join("\n"));
        let path =
            std::env::temp_dir().join(format!("ah-chores-declined-{}.store", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = SharedStore::open(&path).unwrap();
        BODY.with(|b| *b.borrow_mut() = body);
        ASKED.with(|asked| asked.borrow_mut().clear());
        let every = Duration::from_millis(100);
        let now = Instant::now();
        let mut jobs = vec![(now, pull("peer".into(), store.clone(), every, serving))];
        run_due(&mut jobs, now);
        // The three records merge, as the derive reads them, each line as
        // the encoder writes that record.
        let records: Vec<StoreRecord> = declined
            .iter()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        let mut want = b"{\"kind\":\"ah-store\",\"version\":1}\n".to_vec();
        records.iter().for_each(|r| push_line(r, &mut want));
        let mut live = Vec::new();
        store
            .with(|s| s.live_records())
            .iter()
            .for_each(|r| push_line(r, &mut live));
        assert_eq!(
            live,
            want[want.iter().position(|&b| b == b'\n').unwrap() + 1..]
        );
        assert_eq!(std::fs::read(&path).unwrap(), want);
        let file = String::from_utf8(want).unwrap();
        assert!(file.contains("a\\\"b") && file.contains("\"Real\":1.5}"));
        assert!(!file.contains(", ") && !file.contains("1.50"));
        // The mark stops before the line that is not a record: past the
        // bytes of the three lines as served, not as re-encoded.
        run_due(&mut jobs, now + every);
        let asked = ASKED.with(|asked| asked.borrow().clone());
        let mark: usize = declined.iter().map(|l| l.len() + 1).sum();
        assert_eq!(
            asked,
            ["/store/log?at=0".into(), format!("/store/log?at={mark}")]
        );
        assert_eq!(store.record_count(), 3, "a re-pull merges nothing new");
        let _ = std::fs::remove_file(&path);
    }

    /// A peer with an empty log while [`UP`], refusing connections
    /// otherwise.
    fn stand_in(_: &str, _: &str) -> std::io::Result<(u16, String)> {
        if UP.with(Cell::get) {
            let log = format!("{{\"kind\":\"{STORE_LOG_KIND}\",\"start\":0}}\n");
            Ok((200, log))
        } else {
            Err(std::io::ErrorKind::ConnectionRefused.into())
        }
    }

    #[test]
    fn a_failing_peer_backs_off_to_the_cap_and_a_success_resets_it() {
        let path = std::env::temp_dir().join(format!("ah-chores-{}.store", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = SharedStore::open(&path).unwrap();
        let every = Duration::from_millis(100);
        let t0 = Instant::now();
        let mut now = t0 + every;
        let mut jobs = vec![(now, pull("peer".into(), store, every, stand_in))];
        // Not yet due: nothing runs, and the deadline stands.
        assert_eq!(run_due(&mut jobs, t0), Some(now));
        // Each failure in a row doubles the delay, up to 32 intervals.
        for doubling in [2, 4, 8, 16, 32, 32, 32] {
            let next = run_due(&mut jobs, now).unwrap();
            assert_eq!(next - now, every * doubling);
            now = next;
        }
        // A success: back to one interval, and a failure doubles it anew.
        UP.with(|up| up.set(true));
        let next = run_due(&mut jobs, now).unwrap();
        assert_eq!(next - now, every);
        UP.with(|up| up.set(false));
        now = next;
        assert_eq!(run_due(&mut jobs, now).unwrap() - now, every * 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_post_runs_once_and_a_post_after_the_server_is_gone_is_refused() {
        let (tx, rx) = channel();
        let tx = Arc::new(tx);
        let poster = Poster(Arc::downgrade(&tx));
        let ran = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&ran);
        assert!(poster.post(move || _ = counted.fetch_add(1, Ordering::Relaxed)));
        let (t0, every) = (Instant::now(), Duration::from_secs(10));
        let mut jobs: Vec<(Instant, Job)> = vec![(t0, Box::new(move || Some(every)))];
        jobs.push((t0, rx.try_recv().expect("posted")));
        assert_eq!(run_due(&mut jobs, t0), Some(t0 + every));
        assert_eq!(jobs.len(), 1);
        assert_eq!(run_due(&mut jobs, t0 + every), Some(t0 + every * 2));
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        drop(tx);
        assert!(!poster.post(|| {}));
    }
}
