//! A seeded explorer of the service's steps.
//!
//! One thread drives a bare [`ServeState`] whose journal sits on a
//! [`ChaosBackend`]. A PRNG picks each next step among the enabled ones:
//! submit, dequeue, finish, commit, a status read, drain, and crash (drop
//! the state, lose whatever was not durable, resume from what was). More
//! steps run inside every submit's acknowledgment, where a server writes
//! its 202 with no lock held. The committer's `running` flag is set as
//! [`ServeState::spawn_committer`] sets it, without the thread, so
//! `finish` queues and the commit step commits. After every step the
//! service's invariants are checked against the durable journal bytes.

use super::*;
use rvv_ckpt::{ChaosBackend, ChaosPlan};
use rvv_fault::XorShift64;
use std::collections::BTreeSet;
use std::path::Path;
use std::rc::Rc;

/// Seeds explored, and steps taken at the top level of each.
const SEEDS: u64 = 400;
const STEPS: usize = 200;
/// Small enough that the admission gate refuses some sweeps.
const CAPACITY: usize = 32;
const JOURNAL: &str = "/x/q.journal";

#[derive(Clone, Copy)]
enum Step {
    Submit,
    Dequeue,
    Finish,
    Commit,
    Read,
    Drain,
    Crash,
}

/// The durable journal, folded: every id with a durable submit, and the
/// line of every durable done.
#[derive(Default)]
struct Durable {
    submitted: BTreeSet<u64>,
    done: BTreeMap<u64, String>,
}

/// The line the explorer finishes job `id` with: a pure function of the
/// id, as a job's stable line is of its spec.
fn line_of(id: u64) -> String {
    format!(
        "job-{id} ok digest={:#x}",
        id.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    )
}

fn options(chaos: &Arc<ChaosBackend>, seed: u64, resume: bool) -> ServeOptions {
    ServeOptions {
        journal: Some(PathBuf::from(JOURNAL)),
        storage: Some(Arc::clone(chaos) as Arc<dyn StorageBackend>),
        resume,
        queue_depth: CAPACITY,
        inject_seed: (seed % 3 == 1).then_some(seed),
        ..ServeOptions::default()
    }
}

struct Explorer {
    seed: u64,
    step: usize,
    rng: XorShift64,
    chaos: Arc<ChaosBackend>,
    /// `None` only inside a crash, between the drop and the resume.
    state: Option<Arc<ServeState>>,
    /// Ids whose sweep's acknowledgment has returned, and ids a resume
    /// queued.
    acked: BTreeSet<u64>,
    /// Ids of admitted sweeps whose submit write failed: never
    /// acknowledged, yet a torn write may leave a prefix of them durable.
    refused: BTreeSet<u64>,
    /// Dequeued and not yet finished.
    running: Vec<QueuedJob>,
    /// The committer has exited: `finish` must commit inline.
    committer_exited: bool,
    /// The durable fold, and the backend op count it was taken at.
    durable: Option<(u64, Rc<Durable>)>,
}

impl Explorer {
    fn new(seed: u64) -> Explorer {
        let mut rng = XorShift64::new(seed);
        // Every fourth seed loses the disk after a few writes: the
        // failing write persists a seeded prefix, and a crash tears the
        // unsynced tail again.
        let plan = if seed % 4 == 3 {
            ChaosPlan {
                seed,
                fail_writes_after: Some(2 + rng.below(40)),
                short_writes: true,
                torn_crash: true,
                ..ChaosPlan::quiet()
            }
        } else {
            ChaosPlan::quiet()
        };
        let chaos = Arc::new(ChaosBackend::new(plan));
        let state = ServeState::new(options(&chaos, seed, false)).expect("create");
        state.book().commits.running = true;
        Explorer {
            seed,
            step: 0,
            rng,
            chaos,
            state: Some(state),
            acked: BTreeSet::new(),
            refused: BTreeSet::new(),
            running: Vec::new(),
            committer_exited: false,
            durable: None,
        }
    }

    fn state(&self) -> &Arc<ServeState> {
        self.state.as_ref().expect("a state outside a crash")
    }

    fn at(&self) -> String {
        format!("seed {} step {}", self.seed, self.step)
    }

    fn durable(&mut self) -> Rc<Durable> {
        let ops = self.chaos.ops();
        if let Some((at, fold)) = &self.durable {
            if *at == ops {
                return Rc::clone(fold);
            }
        }
        let path = Path::new(JOURNAL);
        let bytes = self.chaos.durable(path).expect("the journal is durable");
        let disk = Arc::new(ChaosBackend::new(ChaosPlan::quiet()));
        disk.install(path, &bytes);
        let disk: Arc<dyn StorageBackend> = disk;
        let (_, recovery) = QueueJournal::resume_on(&disk, path, JOURNAL_TAG, 1)
            .unwrap_or_else(|e| panic!("{}: durable journal does not replay: {e}", self.at()));
        let mut fold = Durable::default();
        fold.submitted
            .extend(recovery.pending.iter().map(|item| item.id));
        for item in recovery.completed {
            fold.submitted.insert(item.id);
            let (_, line) = decode_payload(item.payload).expect("done payload");
            fold.done.insert(item.id, line);
        }
        let fold = Rc::new(fold);
        self.durable = Some((ops, Rc::clone(&fold)));
        fold
    }

    fn enabled(&self, nested: bool) -> Vec<(Step, u64)> {
        let book = self.state().book();
        let mut steps = vec![(Step::Read, 4)];
        if !nested {
            steps.extend([(Step::Submit, 8), (Step::Crash, 2)]);
        }
        if !book.queue.is_empty() {
            steps.push((Step::Dequeue, 8));
        }
        if !self.running.is_empty() {
            steps.push((Step::Finish, 8));
        }
        if !book.commits.pending.is_empty() {
            steps.push((Step::Commit, 6));
        }
        if !book.draining {
            steps.push((Step::Drain, 1));
        }
        steps
    }

    fn pick(&mut self, nested: bool) -> Step {
        let steps = self.enabled(nested);
        let mut roll = self.rng.below(steps.iter().map(|(_, w)| w).sum());
        for (step, weight) in steps {
            if roll < weight {
                return step;
            }
            roll -= weight;
        }
        unreachable!("the roll is below the total weight")
    }

    fn run(&mut self, step: Step) {
        self.step += 1;
        match step {
            Step::Submit => self.submit(),
            Step::Dequeue => {
                let job = self
                    .state()
                    .try_next_job()
                    .expect("enabled on a non-empty queue");
                assert!(
                    self.acked.contains(&job.id),
                    "{}: job {} dequeued before its sweep's acknowledgment returned",
                    self.at(),
                    job.id
                );
                self.running.push(job);
            }
            Step::Finish => {
                let at = self.rng.below(self.running.len() as u64) as usize;
                let job = self.running.swap_remove(at);
                self.state().finish(&job, line_of(job.id), 1, false, false);
            }
            Step::Commit => assert!(self.state().commit_pending()),
            Step::Read => self.read(),
            Step::Drain => {
                // The server's drain ends with the committer's exit: stop
                // it, and let its loop commit what is queued and return.
                self.state().begin_drain();
                self.state().book().commits.stop = true;
                self.state().commit_loop();
                self.committer_exited = true;
            }
            Step::Crash => self.crash(),
        }
        self.check();
    }

    fn submit(&mut self) {
        let specs: Vec<JobSpec> = (0..1 + self.rng.below(8))
            .map(|_| JobSpec {
                n: 1 + self.rng.below(100) as usize,
                seed: self.rng.next_u64(),
                ..JobSpec::default()
            })
            .collect();
        let first = self.state().book().next_job_id;
        let state = Arc::clone(self.state());
        let submitted = state.submit_with_ack(&specs, |_, ids| {
            let durable = self.durable();
            for id in ids {
                assert!(
                    durable.submitted.contains(id),
                    "{}: job {id} acknowledged without a durable submit",
                    self.at()
                );
            }
            for _ in 0..self.rng.below(4) {
                let step = self.pick(true);
                self.run(step);
            }
            self.acked.extend(ids);
        });
        if let Err(SubmitError::Storage(_)) = submitted {
            let next = self.state().book().next_job_id;
            self.refused.extend(first..next);
        }
    }

    /// A status read through the public texts: a job or sweep that reads
    /// done must be durably done.
    fn read(&mut self) {
        if self.acked.is_empty() {
            return;
        }
        let nth = self.rng.below(self.acked.len() as u64) as usize;
        let id = *self.acked.iter().nth(nth).expect("below the length");
        let sweep = self
            .state()
            .book()
            .sweeps
            .iter()
            .find(|(_, ids)| ids.contains(&id))
            .map(|(s, _)| *s);
        let job = self
            .state()
            .job_text(id)
            .expect("acknowledged jobs are known");
        let complete = sweep
            .and_then(|s| self.state().sweep_text(s))
            .is_some_and(|t| t.starts_with("complete"));
        if self.state().counters.journal_errors.load(Ordering::Relaxed) == 0 {
            let durable = self.durable();
            if job.contains(" done\n") || complete {
                assert!(
                    durable.done.contains_key(&id),
                    "{}: job {id} reads done before its done record is durable",
                    self.at()
                );
            }
        }
    }

    fn crash(&mut self) {
        drop(self.state.take());
        self.chaos.crash();
        self.durable = None;
        let resumed = ServeState::new(options(&self.chaos, self.seed, true))
            .unwrap_or_else(|e| panic!("{}: resume failed: {e}", self.at()));
        self.state = Some(resumed);
        self.state().book().commits.running = true;
        self.running.clear();
        self.committer_exited = false;
        let durable = self.durable();
        let book = self.state().book();
        let pending: BTreeSet<u64> = book.queue.iter().map(|job| job.id).collect();
        for id in &self.acked {
            assert_eq!(
                pending.contains(id),
                !durable.done.contains_key(id),
                "{}: acknowledged job {id} must resume pending exactly when it is not durably done",
                self.at()
            );
        }
        for id in pending.difference(&self.acked) {
            assert!(
                self.refused.contains(id),
                "{}: job {id} resumed pending, but no sweep of it was acknowledged or refused",
                self.at()
            );
        }
        for (id, status) in &book.jobs {
            if let JobStatus::Done(line) = status {
                assert_eq!(
                    *line,
                    line_of(*id),
                    "{}: job {id} resumed with another line",
                    self.at()
                );
            }
        }
        drop(book);
        self.acked.extend(pending);
    }

    fn check(&mut self) {
        let stats = self.state().stats_text();
        let completed: usize = stats
            .lines()
            .find_map(|l| l.strip_prefix("completed="))
            .and_then(|v| v.parse().ok())
            .expect("/stats has completed=");
        let clean = self.state().counters.journal_errors.load(Ordering::Relaxed) == 0;
        let durable = self.durable();
        let book = self.state().book();
        let mut done = 0;
        for (id, status) in &book.jobs {
            if matches!(status, JobStatus::Done(_)) {
                done += 1;
                assert!(
                    !clean || durable.done.contains_key(id),
                    "{}: job {id} reads done before its done record is durable",
                    self.at()
                );
            }
        }
        for id in &self.acked {
            assert!(
                durable.submitted.contains(id),
                "{}: acknowledged job {id} has no durable submit",
                self.at()
            );
        }
        assert!(
            completed >= done,
            "{}: /stats completed={completed} but {done} jobs read done",
            self.at()
        );
        assert_eq!(
            book.depth,
            book.jobs.len() - done,
            "{}: admission depth is not the admitted jobs less the committed ones",
            self.at()
        );
        assert!(book.depth <= book.capacity, "{}: over capacity", self.at());
        if self.committer_exited {
            assert!(
                !book.commits.running && book.commits.pending.is_empty(),
                "{}: a done record waits for a committer that has exited",
                self.at()
            );
        }
    }
}

#[test]
fn seeded_interleavings_keep_the_service_invariants() {
    for seed in 0..SEEDS {
        let mut explorer = Explorer::new(seed);
        for _ in 0..STEPS {
            let step = explorer.pick(false);
            explorer.run(step);
        }
    }
}
